"""Multivariate polynomials with exact integer coefficients.

Terms are stored as a map from exponent tuples (fixed length, entries
non-negative) to Python integers, so all arithmetic is exact at any
size.  Zero coefficients are never stored.

Multiplication packs each exponent tuple into one integer key, a field
per variable, so that adding keys adds exponents.  This module is the
only one that knows the key format.  ``IntPolynomial.staircase_product``
multiplies by a sequence of factors and keeps the keys packed between
them: after each factor it drops, on the packed fields, every monomial
that divides no permutation of the staircase monomial, and only the
survivors of the last factor are unpacked.  ``*`` is the same chain with
one factor and no bound.
"""

from __future__ import annotations

from operator import index, le, lshift
from typing import Iterable, Mapping

__all__ = ["IntPolynomial"]


class IntPolynomial:
    """An exact-integer polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self._terms: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                # index, not int: 0.5 raises rather than storing a 0
                exps, coeff = tuple(map(index, exps)), index(coeff)
                if coeff:
                    if len(exps) != nvars:
                        raise ValueError(f"exponent tuple {exps} has wrong arity")
                    if min(exps, default=0) < 0:
                        raise ValueError(f"exponent tuple {exps} has a negative exponent")
                    self._terms[exps] = coeff

    @classmethod
    def _wrap(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "IntPolynomial":
        """Adopt ``terms`` unchecked: arithmetic results are already keyed
        by ``nvars``-tuples of non-negative exponents with no zero
        coefficient."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "IntPolynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "IntPolynomial":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: int = 1) -> "IntPolynomial":
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "IntPolynomial":
        """The variable ``x_i`` (1-indexed)."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        exps = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls(nvars, {exps: 1})

    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def coefficient(self, exps: Iterable[int]) -> int:
        return self._terms.get(tuple(exps), 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Largest term degree; the zero polynomial has degree 0."""
        return max((sum(e) for e in self._terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            new = out.get(exps, 0) + coeff
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        return IntPolynomial._wrap(self.nvars, out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._wrap(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "IntPolynomial":
        if not isinstance(scalar, int):
            return NotImplemented
        return IntPolynomial(self.nvars, {e: scalar * c for e, c in self._terms.items()})

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        """Product of two polynomials, or of a polynomial and an integer.

        The one-factor, unbounded case of ``_chain``: every field sum is at
        most the largest exponent of ``self`` plus that of ``other``.
        """
        if isinstance(other, int):
            return self.__rmul__(other)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        self._check(other)  # before the maxima: a 0-variable term has none
        top = 0
        if self.nvars:  # an empty exponent tuple has no max
            top = max(map(max, self._terms), default=0) + max(map(max, other._terms), default=0)
        return self._chain((other,), top, staircase=False)

    def staircase_product(self, factors: Iterable["IntPolynomial"]) -> "IntPolynomial":
        """``self`` times each of ``factors`` in turn, keeping after each
        factor only the monomials whose exponents, sorted increasingly, are
        componentwise at most ``(0, 1, ..., nvars-1)``: the monomials that
        divide some permutation of the staircase monomial.

        Exponents are non-negative, so a monomial failing the bound fails
        it in every product it divides; dropping it early loses nothing
        the bound would keep in the full product.  The same holds for the
        terms of ``self`` and of each factor, which are dropped before
        multiplying, so every operand field is at most ``nvars - 1`` and
        every field sum at most ``2 * nvars - 2``.  Factors are read one at
        a time, and none is read once the product is zero.
        """
        return self._chain(factors, max(0, 2 * self.nvars - 2), staircase=True)

    def _chain(
        self, factors: Iterable["IntPolynomial"], top: int, staircase: bool
    ) -> "IntPolynomial":
        """``self`` times ``factors``, with every exponent tuple packed into
        one integer key from the first factor to the last, and unpacked
        only at the end.

        ``top`` bounds every sum of two operand exponents.  A key holds one
        field per variable, each wide enough for ``top``, so adding two keys
        never carries from one field into the next and the sum is the key
        of the product monomial.  When ``top`` fits a byte, the key is the
        little-endian integer of the exponent bytes and ``int.to_bytes``
        reads its fields back; otherwise each field is ``top.bit_length()``
        bits, read by one shift and one mask.  Each term pair costs one
        integer addition and one dict update.  With ``staircase``, the
        bound of ``staircase_product`` is applied to the operands and to
        each partial product, on the fields of its keys.
        """
        n = self.nvars
        steps = range(n)
        if top < 256:  # one byte per field, packed and read in C
            def pack(exps: tuple[int, ...]) -> int:
                return int.from_bytes(bytes(exps), "little")

            def fields(key: int) -> Iterable[int]:
                return key.to_bytes(n, "little")
        else:
            width = top.bit_length()
            shifts = range(0, width * n, width)
            mask = (1 << width) - 1

            def pack(exps: tuple[int, ...]) -> int:
                return sum(map(lshift, exps, shifts))

            def fields(key: int) -> Iterable[int]:
                return [key >> s & mask for s in shifts]

        def operand(poly: IntPolynomial) -> dict[int, int]:
            return {
                pack(e): c
                for e, c in poly._terms.items()
                if not staircase or all(map(le, sorted(e), steps))
            }

        packed = operand(self)
        for factor in factors:
            self._check(factor)
            right = list(operand(factor).items())
            out: dict[int, int] = {}
            get = out.get
            for k1, c1 in packed.items():
                for k2, c2 in right:
                    key = k1 + k2
                    out[key] = get(key, 0) + c1 * c2
            if staircase:
                # sorted increasingly, the fields are at most (0, 1, ..., n-1)
                packed = {
                    k: c for k, c in out.items() if c and all(map(le, sorted(fields(k)), steps))
                }
            else:
                packed = {k: c for k, c in out.items() if c}
            if not packed:
                break
        return IntPolynomial._wrap(n, {tuple(fields(k)): c for k, c in packed.items()})

    def divided_difference(self, i: int) -> "IntPolynomial":
        """``(f - s_i f) / (x_i - x_{i+1})`` for the variable swap ``s_i``.

        Uses the closed form on monomials: with ``a, b`` the exponents of
        ``x_i, x_{i+1}``, the quotient of ``x_i^a x_{i+1}^b`` is the sum
        of ``x_i^p x_{i+1}^q`` over ``p + q = a + b - 1`` with
        ``min(a,b) <= p,q``, carrying the sign of ``a - b``.
        """
        if not 1 <= i <= self.nvars - 1:
            raise ValueError(f"divided difference index {i} out of range 1..{self.nvars - 1}")
        k = i - 1
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self._terms.items():
            a, b = exps[k], exps[k + 1]
            if a == b:
                continue
            sign = 1 if a > b else -1
            lo, hi = min(a, b), max(a, b)
            for p in range(lo, hi):
                q = a + b - 1 - p
                new_exps = exps[:k] + (p, q) + exps[k + 2 :]
                new = out.get(new_exps, 0) + sign * coeff
                if new:
                    out[new_exps] = new
                else:
                    out.pop(new_exps, None)
        return IntPolynomial._wrap(self.nvars, out)

    def _check(self, other: "IntPolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials have different numbers of variables")

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for exps in sorted(self._terms):
            coeff = self._terms[exps]
            mono = "*".join(
                f"x{j + 1}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(exps)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

"""Multivariate polynomials with exact integer coefficients.

Terms are stored as a map from exponent tuples (fixed length, entries
non-negative) to Python integers, so all arithmetic is exact at any
size.  Zero coefficients are never stored.
"""

from __future__ import annotations

from operator import index, lshift
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

        Each exponent tuple ``e`` is packed into the integer
        ``sum(e[i] << i * width)``, ``width`` bits per variable, with
        ``width`` the bit length of the largest exponent of ``self`` plus
        the largest exponent of ``other``.  No field of a sum of two packed
        keys reaches ``2**width``, so adding keys never carries and the sum
        is the packed key of the product monomial.  Each term pair costs
        one integer addition and one dict update; only the product's terms
        are unpacked, each field by one shift and one mask.
        """
        if isinstance(other, int):
            return self.__rmul__(other)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        self._check(other)
        nvars = self.nvars
        top = 0
        if nvars:  # an empty exponent tuple has no max
            top = max(map(max, self._terms), default=0) + max(map(max, other._terms), default=0)
        width = max(1, top.bit_length())
        shifts = range(0, width * nvars, width)
        mask = (1 << width) - 1
        right = [(sum(map(lshift, e, shifts)), c) for e, c in other._terms.items()]
        packed: dict[int, int] = {}
        get = packed.get
        for e1, c1 in self._terms.items():
            k1 = sum(map(lshift, e1, shifts))
            for k2, c2 in right:
                key = k1 + k2
                packed[key] = get(key, 0) + c1 * c2
        return IntPolynomial._wrap(
            nvars,
            {tuple([key >> s & mask for s in shifts]): c for key, c in packed.items() if c},
        )

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

"""Independent verification path via Schubert polynomials.

Everything here is classical machinery: Schubert polynomials built by
divided differences from the monomial of the nearest dominant
permutation, Monk's formula on permutations, and coefficient extraction
through Poincare duality.  The oracle's routes share with the
filtered-tableau rule only the definition of the Grassmannian
permutation attached to a term ``(a, lam)``.
``coefficient_identity_check`` also reads the rule's Littlewood-Richardson
count, but only as the other side of its comparison.

Coefficient extraction: the cohomology ring is the polynomial ring
modulo symmetric functions, and the divided difference of the longest
permutation, ``Delta^-1 sum_w sgn(w) w`` (``Delta`` the Vandermonde
determinant), annihilates that ideal while sending the top Schubert
polynomial to 1.  In top degree it is the signed sum of the coefficients
of the permuted staircase monomials; the raw staircase coefficient alone
would overcount, because products of Schubert polynomials contain basis
members indexed outside S_n that also involve the staircase monomial.

For a problem on cuts ``alpha``, the point class of the partial flag
manifold is the class of the longest permutation ``w`` with descents in
``alpha``.  ``oracle_coefficient`` reads the coefficient of any class by
Poincare duality, pairing with the class of ``w0 . w``.  For the point
class, ``oracle_intersection_number`` pairs with the block-staircase
monomial ``x^delta_P`` instead: one term, where the dual class
``S_{w0_P}`` (``w0_P`` the longest element of the Young subgroup ``W_P``
of alpha's blocks) reaches tens of thousands of terms at n = 10.  The
two pairings agree.  Each factor is the Schubert polynomial of a
Grassmannian permutation with its descent at a cut ``a`` of ``alpha``, a
Schur polynomial in ``x1..xa``, so the product ``A`` is symmetric within
each block.  The extraction is ``d_w0 = d_u d_w0P`` with
``u = w0 . w0_P``, each ``d_i`` is linear over ``s_i``-symmetric
polynomials, and ``d_w0P`` sends both ``x^delta_P`` and ``S_{w0_P}`` to
1, so both products extract to ``d_u A`` (Bernstein-Gelfand-Gelfand;
Macdonald, *Notes on Schubert Polynomials*, ch. 2).

Dominance pruning: that signed sum reads only monomials whose exponent
vector permutes the staircase ``delta = (n-1, ..., 0)``.  Schubert
polynomials have non-negative exponents, so a factor only raises a
monomial's exponents, and by Hall's condition ``e <= s(delta)`` for some
permutation ``s`` exactly when ``e`` sorted in decreasing order is
componentwise at most ``delta``.  A monomial failing that bound can never
reach a permuted staircase, so the top-degree products of
``oracle_intersection_number``, ``oracle_coefficient`` and
``coefficient_identity_check`` drop it after every factor.  They multiply
with ``IntPolynomial.staircase_product``, which keeps each monomial
packed into one integer from the first factor to the last, tests the
bound on its packed fields and unpacks only the survivors of the last
factor.
``descent_support_check`` keeps the full product: its
``schubert_expand`` reads classes below top degree, which pruned
monomials can still reach.

Sub-flag dimension test: each class at a cut ``c`` is pulled back from
the Grassmannian ``Gr(c, n)``, so for any subset ``S`` of a problem's
cuts the classes at cuts in ``S`` are pulled back from the partial flag
manifold ``Fl(S; n)``, whose cohomology is 0 above ``dim Fl(S; n)``.
Their product, and with it the whole product, is then 0 once their total
content size exceeds that dimension.  ``oracle_intersection_number``
answers such problems 0 before any multiplication (a quadratic dynamic
program over the cuts, ``_sub_flag_excess``); it reads only cuts and
content sizes, so it shares nothing with the rule.  ``oracle_coefficient``
and ``coefficient_identity_check`` keep their full products.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, insort
from typing import Iterable, Sequence

from .partitions import (
    as_int,
    contains,
    cut_position,
    normalize_partition,
    partition_in_rectangle,
)
from .permutations import (
    ValleyPermutation,
    check_permutation,
    descent_set,
    dual,
    grassmannian_permutation,
    identity,
    length,
    longest_with_descents_in,
    swap_positions,
)
from .polynomials import IntPolynomial
# refine_to_full is unused here, but the layer tracer patches this module's name for it
from .problems import (
    ProblemError,
    SchubertProblem,
    dimension,
    refine_to_full,
    validate_problem,
)
from .tableaux import count_lr_tableaux

__all__ = [
    "schubert_polynomial",
    "staircase_coefficient",
    "oracle_intersection_number",
    "oracle_coefficient",
    "schubert_expand",
    "monk_multiply",
    "iterate_monk",
    "a_bruhat_leq",
    "descent_support_check",
    "restrict_shape",
    "coefficient_identity_check",
]


def _lehmer_code(w: Sequence[int]) -> list[int]:
    """The Lehmer code of ``w``: entry ``i`` counts the ``j > i`` with
    ``w[j] < w[i]``.  Read right to left, each entry is the position of
    ``w[i]`` among the values already seen, kept sorted.

    >>> _lehmer_code((3, 1, 4, 2))
    [2, 0, 1, 0]
    """
    code = [0] * len(w)
    seen: list[int] = []
    for i in range(len(w) - 1, -1, -1):
        code[i] = bisect_left(seen, w[i])
        insort(seen, w[i])
    return code


def schubert_polynomial(w: Sequence[int]) -> IntPolynomial:
    """The Schubert polynomial of ``w``, homogeneous of degree ``length(w)``.

    Computed by divided differences down from the monomial of the nearest
    dominant permutation: a permutation whose Lehmer code ``c`` is a
    partition has Schubert polynomial ``x^c``, and while some
    ``c_i < c_{i+1}``, position ``i`` is an ascent whose swap turns that
    code pair into ``(c_{i+1} + 1, c_i)``.  Independent of the order of
    the swaps.  Exponent tuples have length ``n`` but the last variable
    never occurs.

    Every word is checked before the cache is read.  The cache keeps up
    to 65,536 checked words, drops the least recently used, and holds
    only the words callers ask for, none met on the climb.

    >>> schubert_polynomial((2, 1, 3)).terms()
    {(1, 0, 0): 1}
    """
    return _schubert(check_permutation(w))


@functools.lru_cache(maxsize=1 << 16)
def _schubert(w: tuple[int, ...]) -> IntPolynomial:
    # climb first code ascents up to a dominant permutation, then divide back down
    code = _lehmer_code(w)
    steps = range(len(w) - 1)
    climbed = []
    while (i := next((k for k in steps if code[k] < code[k + 1]), None)) is not None:
        code[i], code[i + 1] = code[i + 1] + 1, code[i]
        climbed.append(i + 1)
    poly = IntPolynomial.monomial(code)
    for ascent in reversed(climbed):
        poly = poly.divided_difference(ascent)
    return poly


def staircase_coefficient(poly: IntPolynomial, n: int) -> int:
    """Coefficient of the point class: the staircase-monomial coefficient
    of the polynomial's image in the span of the S_n Schubert basis.

    Computed as the signed sum of the coefficients of the permutations of
    the staircase monomial, which kills multiples of positive-degree
    symmetric functions and leaves exactly that coefficient.  The
    polynomial must be homogeneous of the top degree ``n(n-1)/2``.
    """
    top = n * (n - 1) // 2
    if poly.nvars != n:
        raise ValueError(f"polynomial has {poly.nvars} variables, expected {n}")
    if poly.is_zero:
        return 0
    if not poly.is_homogeneous() or poly.total_degree() != top:
        raise ValueError(
            f"expected a homogeneous polynomial of degree {top}, "
            f"got degree {poly.total_degree()}"
        )
    # The cascade along w0 is Delta^-1 sum_s sgn(s) s, a constant in top
    # degree.  Delta has coefficient 1 on the staircase monomial, so that
    # constant is the staircase coefficient of sum_s sgn(s) s(poly).
    total = 0
    for exps, coeff in poly.terms().items():
        if max(exps) < n and len(set(exps)) == n:
            ascents = sum(exps[i] < exps[j] for i in range(n) for j in range(i + 1, n))
            total += -coeff if ascents % 2 else coeff
    return total


def _class_product(words: Iterable[tuple[int, ...]], n: int) -> IntPolynomial:
    poly = IntPolynomial.one(n)
    for w in words:
        poly = poly * schubert_polynomial(w)
    return poly


def _top_product(poly: IntPolynomial, words: Iterable[tuple[int, ...]]) -> IntPolynomial:
    """``poly`` times the classes of ``words``, less every monomial that
    cannot reach a permutation of the staircase ``delta = (n-1, ..., 0)``.

    ``IntPolynomial.staircase_product`` keeps, after each factor, only
    the monomials whose exponents, sorted in decreasing order, are
    componentwise at most ``delta``, testing them on their packed keys,
    and unpacks only the last factor's survivors.  Later factors only
    raise exponents, and by Hall's condition a monomial failing the bound
    divides no permuted staircase monomial, so ``staircase_coefficient``,
    which reads only those, gives the same answer here as on the full
    product.  Each factor's Schubert polynomial is built only when the
    product reaches it, and none once it is zero.  The bound says nothing
    about classes below top degree, so ``descent_support_check``
    multiplies with ``_class_product`` instead.
    """
    return poly.staircase_product(map(schubert_polynomial, words))


def _block_staircase(alpha: Sequence[int], n: int) -> IntPolynomial:
    """The monomial ``x^delta_P``: a block of size ``k`` between
    consecutive cuts of ``alpha`` (with 0 and ``n`` as ends) gets the
    exponents ``k-1, ..., 0``.

    >>> _block_staircase((2, 3, 5), 7).terms()
    {(1, 0, 0, 1, 0, 1, 0): 1}
    """
    ends = (0, *alpha, n)
    return IntPolynomial.monomial(
        e for lo, hi in zip(ends, ends[1:]) for e in range(hi - lo - 1, -1, -1)
    )


def _reduced_word(w: Sequence[int]) -> list[int]:
    """A reduced word for ``w``: repeatedly remove the first descent."""
    word = []
    u = list(w)
    while True:
        i = next((k for k in range(len(u) - 1) if u[k] > u[k + 1]), None)
        if i is None:
            return word
        word.append(i + 1)
        u[i], u[i + 1] = u[i + 1], u[i]


def class_coefficient(poly: IntPolynomial, w: Sequence[int]) -> int:
    """Coefficient of the class of ``w`` in a homogeneous polynomial of
    degree ``length(w)``.

    The divided differences along a reduced word of ``w`` send the basis
    member of ``w`` to 1 and every other basis member of that degree,
    anywhere in the stable basis, to zero, so the answer is the constant
    term of the cascade.
    """
    w = check_permutation(w)
    if poly.nvars != len(w):
        raise ValueError(f"polynomial has {poly.nvars} variables, expected {len(w)}")
    if poly.is_zero:
        return 0
    if not poly.is_homogeneous() or poly.total_degree() != length(w):
        raise ValueError(f"expected a homogeneous polynomial of degree {length(w)}")
    out = poly
    for i in _reduced_word(w):
        out = out.divided_difference(i)
        if out.is_zero:
            return 0
    return out.coefficient((0,) * poly.nvars)


def _term_words(terms: Iterable[tuple[int, tuple[int, ...]]], n: int) -> list[tuple[int, ...]]:
    return [grassmannian_permutation(a, lam, n) for a, lam in terms]


def _sub_flag_excess(problem: SchubertProblem) -> int:
    """The largest ``sum_{c in S} deg(c) - dim Fl(S; n)`` over nonempty
    subsets ``S`` of the problem's cuts, ``deg(c)`` the content size at
    ``c``; 0 for a problem without terms.

    A dynamic program over the sorted distinct cuts, quadratic in their
    number where listing the subsets is exponential.  ``best`` holds, for
    each cut seen so far, the largest excess of a subset ending there: a
    subset starting at ``c`` has dimension ``(n - c) c``, and one that
    reaches ``c`` from ``b`` adds ``(n - c)(c - b)``.

    >>> _sub_flag_excess(SchubertProblem(4, ((1, (3,)), (1, (1,)), (3, (1,)))))
    1
    """
    n = problem.n
    degree: dict[int, int] = {}
    for a, lam in problem.terms:  # sorted by cut
        degree[a] = degree.get(a, 0) + sum(lam)
    best: list[tuple[int, int]] = []
    for c, d in degree.items():
        best.append((c, d + max([-(n - c) * c] + [g - (n - c) * (c - b) for b, g in best])))
    return max((g for _, g in best), default=0)


def oracle_intersection_number(
    problem: SchubertProblem, alpha: Sequence[int] | None = None
) -> int:
    """Coefficient of the point class, computed without the tableau rule.

    One route for every cut set: starting from the block-staircase
    monomial ``x^delta_P`` of ``alpha`` (the problem's own cuts by
    default), multiply the Schubert polynomials of the problem's
    Grassmannian permutations, then take the staircase coefficient.  The
    product of those classes is symmetric within each block of ``alpha``,
    so pairing it with ``x^delta_P`` extracts the same number as pairing
    it with the dual class of the point class, which ``oracle_coefficient``
    does (see the module docstring).  A total size other than alpha's
    dimension gives 0.  So does a subset ``S`` of the problem's own cuts
    whose classes' total degree exceeds ``dim Fl(S; n)``: those classes
    are pulled back from ``Fl(S; n)``, where every class above its
    dimension is 0, so the product is 0 before any multiplication.
    """
    chosen = validate_problem(problem, alpha)
    n = problem.n
    if problem.total_size != dimension(chosen, n) or _sub_flag_excess(problem) > 0:
        return 0
    top = _top_product(_block_staircase(chosen, n), _term_words(problem.terms, n))
    return staircase_coefficient(top, n)


def oracle_coefficient(w: Sequence[int], problem: SchubertProblem) -> int:
    """Coefficient of the class of ``w`` in the problem's product.

    Poincare duality: multiply by the Schubert polynomial of ``w0 . w``
    and take the staircase coefficient.  Degree mismatch gives 0.
    """
    w = check_permutation(w)
    n = problem.n
    if len(w) != n:
        raise ProblemError(f"permutation size {len(w)} != problem ambient {n}")
    if length(w) != problem.total_size:
        return 0
    words = _term_words(problem.terms, n) + [dual(w)]
    return staircase_coefficient(_top_product(IntPolynomial.one(n), words), n)


def schubert_expand(poly: IntPolynomial, n: int) -> dict[tuple[int, ...], int]:
    """Expansion of a homogeneous polynomial in the Schubert basis.

    Extracts one coefficient per permutation of the matching length via
    duality; intended for small ``n`` (property tests, prefix checks).
    """
    n = as_int(n)
    if poly.is_zero:
        return {}
    if not poly.is_homogeneous():
        raise ValueError("expansion requires a homogeneous polynomial")
    degree = poly.total_degree()
    out: dict[tuple[int, ...], int] = {}
    for w in itertools.permutations(range(1, n + 1)):
        if length(w) != degree:
            continue
        coeff = class_coefficient(poly, w)
        if coeff:
            out[w] = coeff
    return out


def monk_multiply(w: Sequence[int], a: int) -> dict[tuple[int, ...], int]:
    """Monk's formula: the expansion of (class of ``w``) times the
    degree-one class pulled back from the ``a``-th Grassmannian.

    Returns each ``w r_{jk}`` with ``j <= a < k`` and length one higher,
    with coefficient 1.

    >>> sorted(monk_multiply((1, 2, 3), 1))
    [(2, 1, 3)]
    """
    w = check_permutation(w)
    n = len(w)
    a = cut_position(a, n)
    lw = length(w)
    out: dict[tuple[int, ...], int] = {}
    for j in range(1, a + 1):
        for k in range(a + 1, n + 1):
            cover = swap_positions(w, j, k)
            if length(cover) == lw + 1:
                out[cover] = 1
    return out


def iterate_monk(problem: SchubertProblem) -> int:
    """Iterate Monk's formula over an all-box problem.

    Starting from the identity class, multiply by one box class per term
    and return the coefficient of the longest permutation with descents
    in ``alpha`` (the point class of the partial flag manifold).
    """
    validate_problem(problem)
    if not problem.is_all_boxes():
        raise ProblemError("iterate_monk requires every content to be a single box")
    n = problem.n
    state: dict[tuple[int, ...], int] = {identity(n): 1}
    for a, _ in problem.terms:
        nxt: dict[tuple[int, ...], int] = {}
        for w, coeff in state.items():
            for cover in monk_multiply(w, a):
                nxt[cover] = nxt.get(cover, 0) + coeff
        state = nxt
    return state.get(longest_with_descents_in(problem.alpha, n), 0)


def a_bruhat_leq(v: Sequence[int], w: Sequence[int], a: int) -> bool:
    """The two-part order test governing multiplication by a pullback
    from the ``a``-th Grassmannian.

    (1) ``w(i) >= v(i)`` for ``i <= a`` and ``w(j) <= v(j)`` for ``j > a``;
    (2) within each side of the cut, ``v(i) < v(j)`` implies ``w(i) < w(j)``.
    """
    v = check_permutation(v)
    w = check_permutation(w)
    if len(v) != len(w):
        raise ValueError("permutations must have the same size")
    n = len(v)
    a = cut_position(a, n)
    for i in range(n):
        if i < a:
            if w[i] < v[i]:
                return False
        elif w[i] > v[i]:
            return False
    for lo, hi in ((0, a), (a, n)):
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                if v[i] < v[j] and w[i] >= w[j]:
                    return False
    return True


def descent_support_check(problem: SchubertProblem, t: int) -> bool:
    """Whether every class in the first ``t`` factors' product has all
    descents at or before the ``t``-th cut.

    Vacuously true for ``t = 0``; used as a property check, not in any
    counting path.
    """
    t = as_int(t, ProblemError)
    if not 0 <= t <= len(problem.terms):
        raise ProblemError(f"prefix length {t} out of range 0..{len(problem.terms)}")
    if t == 0:
        return True
    n = problem.n
    prefix = problem.terms[:t]
    poly = _class_product(_term_words(prefix, n), n)
    a_t = prefix[-1][0]
    for w, coeff in schubert_expand(poly, n).items():
        if coeff < 0:
            return False
        if coeff and any(d > a_t for d in descent_set(w)):
            return False
    return True


def restrict_shape(nu: Iterable[int], b: int, n: int) -> tuple[int, ...]:
    """Intersection of a shape in the full staircase with the rectangle
    ``b x (n-b)`` anchored at the region's upper-right corner.

    Row ``j`` of the shape spans grid columns ``j .. j + nu_j - 1``; the
    rectangle covers rows ``1..b`` and the last ``n - b`` grid columns,
    so row ``j`` of the restriction has ``nu_j + j - b`` cells, clamped
    to ``[0, n - b]``.

    >>> restrict_shape((5, 3, 2), 3, 6)
    (3, 2, 2)
    >>> restrict_shape((4, 2), 3, 6)
    (2, 1)
    """
    b = cut_position(b, n)
    nu = normalize_partition(nu)
    if len(nu) > b:
        raise ValueError(f"shape {nu} has more than {b} rows")
    if any(nu[j] <= nu[j + 1] for j in range(len(nu) - 1)) or (nu and nu[0] > n - 1):
        raise ValueError(f"{nu} is not a shape in the full staircase for n={n}")
    rows = [min(max(0, nu[j - 1] + j - b), n - b) for j in range(1, len(nu) + 1)]
    return normalize_partition(rows)


def coefficient_identity_check(
    v: ValleyPermutation, w: ValleyPermutation, lam: Iterable[int]
) -> bool:
    """Compare the oracle coefficient of ``w`` in (class of ``v``) times
    the pullback of ``lam`` with the Littlewood-Richardson count on the
    restricted skew shape.
    """
    if v.n != w.n or v.floor != w.floor:
        raise ValueError("valley permutations must share ambient size and floor")
    a, n = v.floor, v.n
    lam = partition_in_rectangle(lam, a, n)
    nu, mu = v.mu, w.mu
    if not contains(mu, nu):
        raise ValueError(f"shape {nu} is not contained in {mu}")
    if length(v.word) + sum(lam) != length(w.word):
        lhs = 0
    else:
        words = [v.word, grassmannian_permutation(a, lam, n), dual(w.word)]
        lhs = staircase_coefficient(_top_product(IntPolynomial.one(n), words), n)
    rhs = count_lr_tableaux(restrict_shape(mu, a, n), restrict_shape(nu, a, n), lam)
    return lhs == rhs

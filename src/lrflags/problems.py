"""Grassmannian Schubert problems.

A problem is a list of terms ``(a_i, lam_i)`` with cut positions sorted
``a_1 <= ... <= a_s`` and each ``lam_i`` inside the ``a_i x (n-a_i)``
rectangle.  Its cut set ``alpha = {a_1, ..., a_s}`` determines a
staircase region and a flag manifold of dimension

    dim(alpha) = sum (n - alpha_i)(alpha_i - alpha_{i-1}),

which equals the number of cells of the region.  The intersection-number
question is well posed exactly when the total content size matches this
dimension, and it vanishes on any strictly wider cut set.
:func:`validate_problem` alone decides the cut set to compute on and the
dimension condition; the rule and oracle compute the 0.  Structural validity
(sortedness, rectangle containment) is enforced at construction so that
coefficient computations against smaller target shapes, which do not
need the dimension condition, can share the type.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable

from .partitions import Staircase, as_int, cut_position, cut_set, partition_in_rectangle

__all__ = [
    "ProblemError",
    "DimensionMismatchError",
    "SchubertProblem",
    "dimension",
    "validate_problem",
    "refine_problem",
    "refine_to_full",
]


class ProblemError(ValueError):
    """A malformed Grassmannian Schubert problem."""


class DimensionMismatchError(ProblemError):
    """Total content size differs from dim(alpha)."""


def dimension(alpha: Iterable[int], n: int) -> int:
    """``dim(alpha) = sum (n - a_i)(a_i - a_{i-1})`` with ``a_0 = 0``.

    >>> dimension((2, 3, 5), 7)
    18
    >>> dimension((2, 3, 4), 6)
    13
    """
    total = 0
    prev = 0
    for a in cut_set(alpha, n, ProblemError):
        total += (n - a) * (a - prev)
        prev = a
    return total


@dataclass(frozen=True)
class SchubertProblem:
    """Terms ``(a_i, lam_i)``, sorted by cut position."""

    n: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_int(self.n, ProblemError))
        if self.n < 2:
            raise ProblemError(f"ambient dimension n={self.n} must be at least 2")
        cleaned = []
        prev_a = 0
        for a, lam in self.terms:
            lam = partition_in_rectangle(lam, a, self.n, ProblemError)
            a = index(a)  # an integer cut, as the gate above has checked
            if a < prev_a:
                raise ProblemError(
                    "sortedness violated: terms must be ordered by cut position"
                )
            prev_a = a
            cleaned.append((a, lam))
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def alpha(self) -> tuple[int, ...]:
        return tuple(sorted({a for a, _ in self.terms}))

    @property
    def total_size(self) -> int:
        return sum(sum(lam) for _, lam in self.terms)

    @property
    def staircase(self) -> Staircase:
        if not self.terms:
            raise ProblemError("problem has no terms, so alpha is empty")
        return Staircase(self.alpha, self.n)

    def is_all_boxes(self) -> bool:
        return bool(self.terms) and all(lam == (1,) for _, lam in self.terms)


def validate_problem(
    problem: SchubertProblem, alpha: Iterable[int] | None = None
) -> tuple[int, ...]:
    """Decide the cut set to compute on and return it, sorted.

    This function alone decides the cut set and the dimension condition.
    ``alpha`` defaults to the problem's own cut set; an explicit one must
    lie in ``1..n-1`` and contain every cut of the problem.  On the
    problem's own cut set the total content size must equal
    ``dim(alpha)``.  A strictly wider cut set skips that condition: the
    rule and the oracle each compute on it and get 0.
    """
    own = problem.alpha
    if alpha is None and not problem.terms:
        raise ProblemError("problem has no terms, so alpha is empty")
    chosen = own if alpha is None else cut_set(alpha, problem.n, ProblemError)
    want = dimension(chosen, problem.n)
    if not set(chosen) >= set(own):
        raise ProblemError(
            f"alpha {list(chosen)} does not contain every cut {list(own)}"
        )
    if chosen == own and problem.total_size != want:
        raise DimensionMismatchError(
            f"dimension condition violated: total content size {problem.total_size} != "
            f"dim(alpha) {want} for alpha={set(chosen)}"
        )
    return chosen


def refine_problem(problem: SchubertProblem, b: int) -> SchubertProblem:
    """Insert the cut ``b`` with its complementary rectangle.

    For ``alpha_i < b < alpha_{i+1}`` (with 0 and n as sentinels) the new
    term carries the rectangle with ``b - alpha_i`` rows and
    ``alpha_{i+1} - b`` columns; the intersection number is unchanged.

    >>> p = SchubertProblem(4, ((2, (1,)), (2, (1,)), (2, (1,)), (2, (1,))))
    >>> refine_problem(p, 3).terms[-1]
    (3, (1,))
    """
    if not problem.terms:
        raise ProblemError("cannot refine a problem with no terms")
    n = problem.n
    b = cut_position(b, n, ProblemError)
    alpha = problem.alpha
    if b in alpha:
        raise ProblemError(f"cut {b} already present in alpha {set(alpha)}")
    lower = max([a for a in alpha if a < b], default=0)
    upper = min([a for a in alpha if a > b], default=n)
    kappa = (upper - b,) * (b - lower)
    terms = list(problem.terms)
    at = next((i for i, (a, _) in enumerate(terms) if a > b), len(terms))
    terms.insert(at, (b, kappa))
    return SchubertProblem(n, tuple(terms))


def refine_to_full(problem: SchubertProblem) -> SchubertProblem:
    """Refine until ``alpha = {1, ..., n-1}``, one cut at a time, ascending."""
    refined = problem
    for b in range(1, problem.n):
        if b not in refined.alpha:
            refined = refine_problem(refined, b)
    return refined

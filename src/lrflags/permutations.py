"""Permutations of ``{1, ..., n}`` in one-line notation.

A permutation is a tuple ``(w(1), ..., w(n))``.  Conventions:

* ``length`` counts inversions, ``descent_set`` holds the 1-indexed
  positions ``i`` with ``w(i) > w(i+1)``.
* A Grassmannian permutation has at most one descent, at ``b``; it
  corresponds to the partition ``lam`` in the ``b x (n-b)`` rectangle
  through ``w(i) = i + lam(b+1-i)`` for ``i <= b``.
* A valley permutation with floor ``a`` decreases strictly through
  position ``a`` and increases strictly afterwards; its shape has rows
  ``w(1)-1 > w(2)-1 > ... > w(a)-1 >= 0`` and determines ``w`` together
  with the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .partitions import as_int, cut_position, cut_set, normalize_partition, partition_in_rectangle

__all__ = [
    "check_permutation",
    "identity",
    "length",
    "descent_set",
    "dual",
    "swap_positions",
    "grassmannian_permutation",
    "shape_of_grassmannian",
    "longest_with_descents_in",
    "ValleyPermutation",
    "valley_from_permutation",
    "valley_from_shape",
]


def check_permutation(word: Sequence[int]) -> tuple[int, ...]:
    """Validate and return ``word`` as a permutation of ``{1, ..., n}``."""
    w = tuple(map(as_int, word))
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{len(w)}")
    return w


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, as_int(n) + 1))


def length(w: Sequence[int]) -> int:
    """Number of inversions.

    >>> length((2, 4, 7, 1, 3, 5, 6))
    7
    """
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def descent_set(w: Sequence[int]) -> frozenset[int]:
    """1-indexed positions ``i`` with ``w(i) > w(i+1)``.

    >>> sorted(descent_set((1, 3, 5, 2, 4, 6, 7)))
    [3]
    """
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def dual(w: Sequence[int]) -> tuple[int, ...]:
    """``w0 . w``, the index of the Poincare-dual class; an involution."""
    n = len(w)
    return tuple(n + 1 - v for v in w)


def swap_positions(w: Sequence[int], j: int, k: int) -> tuple[int, ...]:
    """``w`` times the transposition of ``j`` and ``k`` (1-indexed positions)."""
    out = list(w)
    out[j - 1], out[k - 1] = out[k - 1], out[j - 1]
    return tuple(out)


def grassmannian_permutation(b: int, lam: Iterable[int], n: int) -> tuple[int, ...]:
    """The permutation with shape ``lam`` and unique descent at ``b``.

    >>> grassmannian_permutation(3, (2, 1), 7)
    (1, 3, 5, 2, 4, 6, 7)
    >>> grassmannian_permutation(3, (4, 2, 1), 7)
    (2, 4, 7, 1, 3, 5, 6)
    """
    lam = partition_in_rectangle(lam, b, n)
    padded = lam + (0,) * (b - len(lam))
    head = [i + padded[b - i] for i in range(1, b + 1)]
    used = set(head)
    tail = [v for v in range(1, n + 1) if v not in used]
    return tuple(head + tail)


def shape_of_grassmannian(w: Sequence[int], b: int) -> tuple[int, ...]:
    """Inverse of :func:`grassmannian_permutation`.

    >>> shape_of_grassmannian((1, 3, 7, 2, 4, 5, 6), 3)
    (4, 1)
    """
    w = check_permutation(w)
    b = cut_position(b, len(w))
    extra = descent_set(w) - {b}
    if extra:
        raise ValueError(f"{w} has descents {sorted(extra)} outside {{{b}}}")
    rows = [w[i - 1] - i for i in range(b, 0, -1)]
    return normalize_partition(rows)


def longest_with_descents_in(alpha: Iterable[int], n: int) -> tuple[int, ...]:
    """The longest permutation whose descent set lies in ``alpha``.

    Blocks of positions between consecutive cuts take descending ranges
    of values, increasing within each block; its length is the dimension
    of the corresponding partial flag manifold.

    >>> longest_with_descents_in((2, 3, 5), 7)
    (6, 7, 5, 3, 4, 1, 2)
    """
    word: list[int] = []
    prev = 0
    top = n
    for a in (*cut_set(alpha, n), n):
        size = a - prev
        word.extend(range(top - size + 1, top + 1))
        top -= size
        prev = a
    return tuple(word)


@dataclass(frozen=True)
class ValleyPermutation:
    """A valley permutation together with its floor.

    A word can be a valley for two consecutive floors (when the value at
    the lower floor's first ascent is 1), so the floor is part of the
    data; the derived shape is the same for every admissible floor.
    """

    word: tuple[int, ...]
    floor: int

    def __post_init__(self) -> None:
        w = check_permutation(self.word)
        n = len(w)
        a = as_int(self.floor)
        if not 1 <= a <= n:
            raise ValueError(f"floor {a} out of range 1..{n}")
        if any(w[i] <= w[i + 1] for i in range(a - 1)):
            raise ValueError(f"{w} does not decrease through position {a}")
        if any(w[i] >= w[i + 1] for i in range(a, n - 1)):
            raise ValueError(f"{w} does not increase after position {a}")
        object.__setattr__(self, "word", w)
        object.__setattr__(self, "floor", a)

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def mu(self) -> tuple[int, ...]:
        """The shape with rows ``w(i) - 1`` over the decreasing prefix.

        >>> ValleyPermutation((5, 3, 1, 2, 4, 6), 3).mu
        (4, 2)
        >>> ValleyPermutation((6, 4, 3, 1, 2, 5), 3).mu
        (5, 3, 2)
        """
        return normalize_partition([self.word[i] - 1 for i in range(self.floor)])

    @property
    def length(self) -> int:
        return length(self.word)


def valley_from_permutation(w: Sequence[int], a: int) -> ValleyPermutation:
    """Interpret ``w`` as a valley permutation with floor ``a``."""
    return ValleyPermutation(tuple(w), a)


def valley_from_shape(mu: Iterable[int], a: int, n: int) -> ValleyPermutation:
    """The valley permutation with floor ``a`` and shape ``mu``.

    >>> valley_from_shape((4, 2), 3, 6).word
    (5, 3, 1, 2, 4, 6)
    """
    mu = normalize_partition(mu)
    a, n = as_int(a), as_int(n)
    if not 1 <= a <= n:
        raise ValueError(f"floor {a} out of range 1..{n}")
    if len(mu) > a:
        raise ValueError(f"shape {mu} has more than {a} rows")
    if len(mu) < a - 1:
        raise ValueError(f"shape {mu} needs at least {a - 1} rows for floor {a}")
    padded = mu + (0,) * (a - len(mu))
    head = [padded[i] + 1 for i in range(a)]
    if len(set(head)) != a or (head and head[0] > n):
        raise ValueError(f"shape {mu} is not admissible for floor {a}, n={n}")
    tail = sorted(set(range(1, n + 1)) - set(head))
    return ValleyPermutation(tuple(head + tail), a)

"""Skew shapes, skew tableaux, and Littlewood-Richardson enumeration.

A filling of a skew shape ``outer/inner`` is a Littlewood-Richardson
tableau of content ``lam`` when

  (i)   entries weakly increase along rows and strictly increase down
        columns,
  (ii)  the entry ``j`` occurs exactly ``lam[j-1]`` times,
  (iii) reading the entries right-to-left along rows, top row first,
        every prefix of the resulting word contains at least as many
        ``i`` as ``i+1``, for every ``i`` (the ballot condition).

The number of such fillings is the Littlewood-Richardson coefficient
``c^{outer/inner}_{lam}``.

Counting and listing share one iterative backtracker that fills the
cells in row-major order with ascending entries, so the fillings come out
sorted lexicographically by row-major entry sequence, the package's
canonical order.  Rows weakly increase, so the ballot condition reduces
to a constant-time check per placed cell: no more ``v`` placed than
``v-1`` in the rows above.  :func:`count_lr_tableaux` counts the
backtracker's leaves and builds no tableau; the private ``_lr_rows`` cuts
each leaf into row tuples, which the rule's enumeration reads as they are
and :func:`enumerate_lr_tableaux` wraps in one tableau each, checking none
again.
:func:`is_lr_tableau` checks the definition cell by cell, on no hot path.

Before it runs the backtracker, :func:`count_lr_tableaux` applies the
dominance test, public as :func:`dominance_zero`:
``c^{outer/inner}_{lam} = 0`` unless the sorted row lengths of the skew
shape are dominated by ``lam`` and its sorted column lengths by the
conjugate of ``lam``, since the Schur support of a skew Schur function
lies in that dominance interval (McNamara and van Willigenburg, *Towards
a combinatorial classification of skew Schur functions*, 2009).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import lt, sub
from typing import Iterable, Iterator, Sequence

from .partitions import as_int, contains, normalize_partition

__all__ = [
    "SkewShape",
    "SkewTableau",
    "is_ballot",
    "is_lr_tableau",
    "enumerate_lr_tableaux",
    "count_lr_tableaux",
    "dominance_zero",
]


def _nested(outer: Iterable[int], inner: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``outer`` and ``inner`` normalized; raises unless ``inner`` fits inside."""
    outer, inner = normalize_partition(outer), normalize_partition(inner)
    if not contains(outer, inner):
        raise ValueError(f"inner {inner} is not contained in outer {outer}")
    return outer, inner


@dataclass(frozen=True)
class SkewShape:
    """The cells of ``outer`` not in ``inner``, for nested partitions."""

    outer: tuple[int, ...]
    inner: tuple[int, ...]

    def __post_init__(self) -> None:
        outer, inner = _nested(self.outer, self.inner)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def inner_row(self, r: int) -> int:
        """Length of row ``r`` (1-indexed) of the inner partition."""
        return self.inner[r - 1] if r - 1 < len(self.inner) else 0

    def row_span(self, r: int) -> tuple[int, int]:
        """Columns ``(first, last)`` of the skew cells in row ``r``; empty rows
        give ``first > last``."""
        return self.inner_row(r) + 1, self.outer[r - 1]

    def cells(self) -> Iterator[tuple[int, int]]:
        """All cells ``(row, column)`` in row-major order."""
        for r in range(1, len(self.outer) + 1):
            first, last = self.row_span(r)
            for c in range(first, last + 1):
                yield r, c


@dataclass(frozen=True)
class SkewTableau:
    """A skew shape together with one entry per cell.

    ``rows[r-1]`` holds the entries of row ``r`` left to right, one per
    skew cell of that row (possibly empty).
    """

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(as_int, row)) for row in self.rows)
        outer, inner = self.shape.outer, self.shape.inner
        if len(rows) != len(outer):
            raise ValueError("one entry row per shape row required")
        for r, (row, last) in enumerate(zip(rows, outer)):
            width = last - inner[r] if r < len(inner) else last
            if len(row) != width:
                raise ValueError(f"row {r + 1} must have {width} entries")
        object.__setattr__(self, "rows", rows)

    def entry(self, r: int, c: int) -> int:
        """The entry at cell ``(r, c)``; raises if the cell is not in the shape."""
        first, last = self.shape.row_span(r)
        if not first <= c <= last:
            raise KeyError(f"cell ({r}, {c}) not in skew shape")
        return self.rows[r - 1][c - first]

    def entry_sequence(self) -> tuple[int, ...]:
        """Row-major concatenation of the entries."""
        return tuple(v for row in self.rows for v in row)

    def reading_word(self) -> tuple[int, ...]:
        """Entries right-to-left along each row, top row first."""
        return tuple(v for row in self.rows for v in reversed(row))

    def content(self) -> tuple[int, ...]:
        """Multiplicity of each entry value ``1..max`` (trailing zeros kept off)."""
        seq = self.entry_sequence()
        if not seq:
            return ()
        counts = [0] * max(seq)
        for v in seq:
            counts[v - 1] += 1
        return tuple(counts)


def is_ballot(word: Sequence[int]) -> bool:
    """Whether every prefix of ``word`` has at least as many ``i`` as ``i+1``.

    >>> is_ballot((1, 2, 1))
    True
    >>> is_ballot((1, 2, 2))
    False
    """
    counts: dict[int, int] = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


def is_lr_tableau(tableau: SkewTableau, lam: Iterable[int]) -> bool:
    """Whether ``tableau`` is a Littlewood-Richardson filling of content ``lam``.

    Total predicate: malformed content or entries simply give ``False``.
    It checks the definition through the public accessors: every entry
    is at least 1, rows weakly increase and columns strictly increase
    (a neighbour outside the skew shape reads 0), the content is ``lam``
    and the reading word is a ballot word.
    """
    try:
        lam = normalize_partition(lam)
    except ValueError:
        return False
    entries = {(r, c): tableau.entry(r, c) for r, c in tableau.shape.cells()}
    for (r, c), v in entries.items():
        if v < 1 or entries.get((r, c - 1), 0) > v or entries.get((r - 1, c), 0) >= v:
            return False
    return tableau.content() == lam and is_ballot(tableau.reading_word())


def _lr_fillings(
    outer: tuple[int, ...], inner: tuple[int, ...], lam: tuple[int, ...]
) -> Iterator[list[int]]:
    """Every Littlewood-Richardson filling of ``outer/inner`` with content ``lam``.

    ``outer`` and ``lam`` must be normalized and ``inner`` inside ``outer``,
    with ``|outer| - |inner| == |lam|``; ``inner`` may end in zero rows,
    read as the rows past its end are.  At each filling it
    yields the same list of entries in row-major order (one slot past the
    last cell, always 0); the next step overwrites it.  Fillings come in
    row-major lexicographic order.
    """
    n, m = sum(lam), len(lam)
    # each cell's left and upper neighbour in the skew shape, from the row
    # spans; index n, a sentinel holding 0, stands for a missing one
    left: list[int] = []
    up: list[int] = []
    above_first = above_last = above_start = 0  # the previous row's span
    for r, last in enumerate(outer):
        first, start = inner[r] if r < len(inner) else 0, len(left)
        for c in range(first, last):
            left.append(start + c - first - 1 if c > first else n)
            up.append(above_start + c - above_first if above_first <= c < above_last else n)
        above_first, above_last, above_start = first, last, start

    val = [0] * (n + 1)  # entry per cell, 0 while unplaced
    run = [0] * (n + 1)  # entries equal to the cell's in its row, up to it
    below = [0] * n  # entries one less than the cell's, left of it in its row
    counts = [n + 1] + [0] * m  # counts[v]: entries v placed; counts[0] never binds
    k = 0
    while k >= 0:
        if k == n:
            yield val
            k -= 1
            continue
        v, west = val[k], left[k]
        if v:
            counts[v] -= 1
        v = max(v + 1, val[west], val[up[k]] + 1)
        # Ballot check.  A row weakly increases, so read right to left it
        # gives all its v before its v-1: (iii) holds iff, after placing v
        # in row r, the v placed so far number at most the v-1 in rows
        # 1..r-1.  Those are counts[v-1] less the v-1 left of this cell.
        # The placed entries form a ballot word, so counts[v] never grows
        # with v: once no v-1 is placed, no larger entry fits either.
        while v <= m and counts[v - 1]:
            in_row = below[west] if val[west] == v else run[west] if val[west] == v - 1 else 0
            if counts[v] < lam[v - 1] and counts[v] < counts[v - 1] - in_row:
                break
            v += 1
        else:
            val[k] = 0
            k -= 1
            continue
        val[k] = v
        counts[v] += 1
        run[k] = run[west] + 1 if val[west] == v else 1
        below[k] = in_row
        k += 1


def _lr_rows(
    outer: tuple[int, ...], inner: tuple[int, ...], lam: tuple[int, ...]
) -> list[tuple[tuple[int, ...], ...]]:
    """Each leaf of :func:`_lr_fillings`, cut into one tuple per row of ``outer``.

    The arguments are as :func:`_lr_fillings` takes them.  A row with no
    skew cell gives ``()``, so a filling has ``len(outer)`` rows, as a
    :class:`SkewTableau` on ``outer/inner`` holds them; no tableau is built.
    """
    widths = map(sub, outer, inner + (0,) * (len(outer) - len(inner)))
    ends = list(accumulate(widths, initial=0))
    spans = list(zip(ends, ends[1:]))
    found = []
    for val in _lr_fillings(outer, inner, lam):
        entries = tuple(val)
        found.append(tuple([entries[a:b] for a, b in spans]))
    return found


def enumerate_lr_tableaux(shape: SkewShape, lam: Iterable[int]) -> list[SkewTableau]:
    """All Littlewood-Richardson fillings of ``shape`` with content ``lam``.

    One tableau per leaf of the backtracker that :func:`count_lr_tableaux`
    counts, so the list's length is the coefficient ``c^{shape}_{lam}``,
    in row-major lexicographic order on entry sequences.  A size mismatch
    yields the empty list; the empty shape with empty content yields the
    single empty filling.
    """
    lam = normalize_partition(lam)
    if shape.size != sum(lam):
        return []
    return [SkewTableau(shape, rows) for rows in _lr_rows(shape.outer, shape.inner, lam)]


def _dominance_zero(outer: tuple[int, ...], inner: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """:func:`dominance_zero` on partitions with ``inner`` inside ``outer``.

    ``outer`` and ``lam`` are normalized.  ``inner`` need not be: it may
    end in zero rows, as the steps of :mod:`lrflags.filtered` give it, and
    a zero row counts as a row of the skew that starts at column 0, just
    as a row past ``inner``'s end does.  The first partial sums of the
    test are the stepper's two caps, row ``<= lam[0]`` and column
    ``<= len(lam)``.
    """
    if sum(outer) - sum(inner) != sum(lam):
        return True
    if not lam:  # the empty skew shape, with its one empty filling
        return False
    widths = list(map(sub, outer, inner))
    widths += outer[len(inner):]
    widths.sort(reverse=True)
    if any(map(lt, accumulate(lam), accumulate(widths))):
        return True
    # difference arrays over the columns: each row of the skew starts at
    # its inner end and stops at its outer end, each row of lam starts at
    # column 0; summing them gives the column lengths, summing again the
    # partial sums
    steps = [0] * (outer[0] + 1)
    steps[0] = len(outer) - len(inner)
    for c in inner:  # a zero row of inner starts at column 0 too
        steps[c] += 1
    for c in outer:
        steps[c] -= 1
    heights = sorted(accumulate(steps), reverse=True)
    cols = [0] * (lam[0] + 1)
    cols[0] = len(lam)
    for c in lam:
        cols[c] -= 1
    return any(map(lt, accumulate(accumulate(cols)), accumulate(heights)))


def dominance_zero(outer: Iterable[int], inner: Iterable[int], lam: Iterable[int]) -> bool:
    """Whether the sizes or the dominance test show ``c^{outer/inner}_{lam} = 0``.

    Each argument is normalized; ``inner`` not inside ``outer`` raises
    ``ValueError``.  The coefficient is 0 if ``|outer| - |inner|`` is not
    ``|lam|``.  It is also 0 unless the skew's row lengths, sorted, are
    dominated by ``lam`` (each partial sum at most ``lam``'s) and its
    column lengths, sorted, by the conjugate of ``lam``.  ``False`` leaves
    the coefficient open.  Here the rows ``(2, 2)`` are dominated by
    ``(3, 1)``, but the columns ``(2, 2)`` are not by ``(2, 1, 1)``; the
    rows ``(1, 1)`` of ``(2, 1) / (1)`` pass both tests, and the
    coefficient is 1:

    >>> dominance_zero((2, 2), (), (3, 1))
    True
    >>> dominance_zero([2, 1, 0], [1], (1, 1))
    False
    """
    outer, inner = _nested(outer, inner)
    return _dominance_zero(outer, inner, normalize_partition(lam))


def count_lr_tableaux(
    outer: tuple[int, ...], inner: tuple[int, ...], lam: tuple[int, ...]
) -> int:
    """The Littlewood-Richardson coefficient ``c^{outer/inner}_{lam}``.

    It is the number of fillings :func:`enumerate_lr_tableaux` lists,
    the leaves of the same backtracker, counted without building a
    tableau.  Each argument is normalized once; ``inner`` not inside
    ``outer`` raises ``ValueError``.  The backtracker runs only if
    :func:`dominance_zero` leaves the coefficient open:

    >>> count_lr_tableaux((2, 2), (), (3, 1))
    0
    """
    outer, inner = _nested(outer, inner)
    lam = normalize_partition(lam)
    if _dominance_zero(outer, inner, lam):
        return 0
    return sum(1 for _ in _lr_fillings(outer, inner, lam))

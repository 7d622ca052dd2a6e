"""Integer partitions and staircase regions.

A partition is stored as a tuple of weakly decreasing positive integers;
the empty partition is ``()``.  Boxes are addressed ``(row, column)``,
1-indexed, rows running downward (English orientation).

The staircase region for a set of cuts ``alpha`` inside ``{1, ..., n-1}``
is the union of the rectangles ``a x (n-a)`` over ``a in alpha``, all
placed so that they share a common upper-right corner.  The region has
``max(alpha)`` rows; counting from the top, row ``i`` consists of the
rightmost ``n - min{a in alpha : a >= i}`` cells of a grid of width
``n - min(alpha)``.  Equivalently row ``i`` is indented ``offset(i)``
cells from the left edge of the grid, where the offsets weakly increase
downward.

A shape inside the region is a subset of its cells that is left-justified
within each row span and upward closed in the grid columns.  Such a shape
is determined by its row lengths, but the geometry is easiest to work
with through the *embedded* diagram: record each non-empty row by the
grid column of its last cell (``offset + length``).  The embedded rows
form an ordinary partition, and upward closure is exactly the statement
that this partition is weakly decreasing.  All skew-shape and tableau
machinery downstream operates on embedded diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge, index
from typing import Iterable, Iterator

__all__ = [
    "normalize_partition",
    "contains",
    "conjugate",
    "partitions_in_box",
    "Staircase",
    "Shape",
]


def as_int(value: object, error: type[ValueError] = ValueError) -> int:
    """``value`` as an ``int`` by ``operator.index``, so ``2.7`` or ``"2"``
    raises ``error`` naming it rather than truncating or parsing.

    >>> as_int(2.7)
    Traceback (most recent call last):
    ...
    ValueError: 2.7 is not an integer
    """
    try:
        return index(value)
    except TypeError:
        raise error(f"{value!r} is not an integer") from None


def cut_position(a: object, n: object, error: type[ValueError] = ValueError) -> int:
    """``a`` as a cut of ``Fl(a; n)``: an integer in ``1..n-1``, else ``error``.

    >>> cut_position(5, 5)
    Traceback (most recent call last):
    ...
    ValueError: cut position 5 out of range 1..4
    """
    a, n = as_int(a, error), as_int(n, error)
    if not 1 <= a <= n - 1:
        raise error(f"cut position {a} out of range 1..{n - 1}")
    return a


def cut_set(
    alpha: Iterable[object], n: object, error: type[ValueError] = ValueError
) -> tuple[int, ...]:
    """The distinct cuts of ``alpha``, sorted, if they form a non-empty
    subset of ``1..n-1``; else ``error``.

    >>> cut_set((3, 1, 3), 5)
    (1, 3)
    >>> cut_set((), 5)
    Traceback (most recent call last):
    ...
    ValueError: alpha [] not contained in 1..4
    """
    cuts = sorted({as_int(a, error) for a in alpha})
    n = as_int(n, error)
    if not cuts or cuts[0] < 1 or cuts[-1] > n - 1:
        raise error(f"alpha {cuts} not contained in 1..{n - 1}")
    return tuple(cuts)


def normalize_partition(rows: Iterable[int]) -> tuple[int, ...]:
    """Return ``rows`` as a canonical partition tuple, without trailing zeros.

    A tuple of ints already in that form is returned itself, not copied.

    >>> normalize_partition([3, 1, 0, 0])
    (3, 1)
    >>> normalize_partition(())
    ()
    """
    if type(rows) is tuple and all(type(r) is int for r in rows):
        parts = rows
    else:
        parts = tuple(map(as_int, rows))
    if parts and min(parts) < 0:
        raise ValueError(f"partition rows must be non-negative: {parts}")
    if not all(map(ge, parts, parts[1:])):
        raise ValueError(f"partition rows must weakly decrease: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """True iff ``inner`` fits inside ``outer`` row by row."""
    return len(inner) <= len(outer) and all(map(ge, outer, inner))


def conjugate(partition: tuple[int, ...]) -> tuple[int, ...]:
    """The transposed partition (column lengths).

    >>> conjugate((4, 2, 1))
    (3, 2, 1, 1)
    """
    if not partition:
        return ()
    return tuple(sum(1 for r in partition if r > c) for c in range(partition[0]))


def partition_in_rectangle(
    lam: Iterable[int], b: int, n: int, error: type[ValueError] = ValueError
) -> tuple[int, ...]:
    """``lam`` normalized, if ``b`` is a cut position and ``lam`` fits in
    the ``b x (n-b)`` rectangle; else ``error``.

    >>> partition_in_rectangle((4, 1), 2, 5)
    Traceback (most recent call last):
    ...
    ValueError: rectangle containment violated: partition (4, 1) does not fit in 2 x 3
    """
    b = cut_position(b, n, error)
    lam = normalize_partition(lam)
    if len(lam) > b or (lam and lam[0] > n - b):
        raise error(
            f"rectangle containment violated: partition {lam or '()'} "
            f"does not fit in {b} x {n - b}"
        )
    return lam


def partitions_in_box(max_rows: int, max_cols: int) -> Iterator[tuple[int, ...]]:
    """All partitions with at most ``max_rows`` rows, each at most ``max_cols``.

    Deterministic order: ascending tuple order, so the empty partition
    first and each partition just before its extensions.  Both bounds are
    checked on the call, not on the first item drawn.

    >>> list(partitions_in_box(2, 2))
    [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    """
    return _partitions_in_box(as_int(max_rows), as_int(max_cols))


def _partitions_in_box(max_rows: int, max_cols: int) -> Iterator[tuple[int, ...]]:
    parts: list[int] = []
    while True:
        yield tuple(parts)
        if len(parts) < max_rows and max_cols > 0:
            parts.append(1)
            continue
        # the next partition raises the last part below its cap (the part
        # above it, or max_cols), dropping the parts after it
        while parts and parts[-1] == (parts[-2] if len(parts) > 1 else max_cols):
            parts.pop()
        if not parts:
            return
        parts[-1] += 1


def _staircase_rows(alpha: tuple[int, ...], n: int) -> tuple[int, ...]:
    # row i spans the rightmost n - min{a in alpha: a >= i} cells
    rows = []
    for i in range(1, alpha[-1] + 1):
        rows.append(n - min(a for a in alpha if a >= i))
    return tuple(rows)


@dataclass(frozen=True)
class Staircase:
    """The union of rectangles ``a x (n-a)``, ``a in alpha``, sharing an
    upper-right corner.

    ``alpha`` and ``n`` are both stored because distinct cut sets can
    produce identical row lengths while positioning their rectangles
    differently.

    >>> Staircase((2, 3, 5), 7).rows
    (5, 5, 4, 2, 2)
    >>> Staircase((1, 4, 5), 7).rows
    (6, 3, 3, 3, 2)
    """

    alpha: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_int(self.n))
        alpha = cut_set(self.alpha, self.n)
        object.__setattr__(self, "alpha", alpha)
        rows = _staircase_rows(alpha, self.n)
        width = self.n - alpha[0]
        # derived geometry, attached once; not dataclass fields
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "offsets", tuple(width - r for r in rows))

    @property
    def num_rows(self) -> int:
        return self.alpha[-1]

    @property
    def box_count(self) -> int:
        return sum(self.rows)

    def embed(self, rows: tuple[int, ...]) -> tuple[int, ...]:
        """Embedded diagram of a shape given by its row lengths."""
        if len(rows) > self.num_rows:
            raise ValueError(
                f"rows {rows} exceed the {self.num_rows} rows of the "
                f"staircase for alpha={self.alpha}, n={self.n}"
            )
        emb = []
        for i, r in enumerate(rows):
            emb.append(self.offsets[i] + r if r > 0 else 0)
        while emb and emb[-1] == 0:
            emb.pop()
        return tuple(emb)

    def extract(self, embedded: tuple[int, ...]) -> tuple[int, ...]:
        """Row lengths of the shape with the given embedded diagram."""
        rows = []
        for i, e in enumerate(embedded):
            rows.append(max(0, e - self.offsets[i]) if e > 0 else 0)
        while rows and rows[-1] == 0:
            rows.pop()
        return tuple(rows)

    def is_valid_embedded(self, embedded: tuple[int, ...]) -> bool:
        """Whether ``embedded`` is the embedded diagram of a shape in the region."""
        if len(embedded) > self.num_rows:
            return False
        prev = self.width
        for i, e in enumerate(embedded):
            if e == 0:
                prev = 0
                continue
            if prev < e or e <= self.offsets[i]:
                return False
            prev = e
        return True

    def column_counts(self, embedded: tuple[int, ...]) -> tuple[int, ...]:
        """Number of shape cells in each grid column, left to right."""
        counts = [0] * self.width
        for i, e in enumerate(embedded):
            for c in range(self.offsets[i], e):
                counts[c] += 1
        return tuple(counts)


@dataclass(frozen=True)
class Shape:
    """A shape inside a staircase region, recorded by its row lengths."""

    rows: tuple[int, ...]
    staircase: Staircase

    def __post_init__(self) -> None:
        rows = normalize_partition(self.rows)
        object.__setattr__(self, "rows", rows)
        emb = self.staircase.embed(rows)
        if not self.staircase.is_valid_embedded(emb):
            raise ValueError(
                f"rows {rows} do not form a shape inside the staircase for "
                f"alpha={self.staircase.alpha}, n={self.staircase.n}"
            )
        object.__setattr__(self, "embedded", emb)

    @classmethod
    def full(cls, staircase: Staircase) -> "Shape":
        """The whole region as a shape."""
        return cls(staircase.rows, staircase)

    @classmethod
    def empty(cls, staircase: Staircase) -> "Shape":
        return cls((), staircase)

    @property
    def size(self) -> int:
        return sum(self.rows)

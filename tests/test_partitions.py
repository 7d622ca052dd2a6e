from math import comb

import pytest

from lrflags.partitions import (
    Shape,
    Staircase,
    conjugate,
    contains,
    normalize_partition,
    partition_in_rectangle,
    partitions_in_box,
)


def test_normalize_strips_trailing_zeros():
    assert normalize_partition((3, 1, 0, 0)) == (3, 1)
    assert normalize_partition(()) == ()
    assert normalize_partition([2, 2]) == (2, 2)
    # an already normalized tuple is returned as is, so skew shapes share
    # their caller's tuples
    rows = (3, 1)
    assert normalize_partition(rows) is rows


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_partition((1, 2))
    with pytest.raises(ValueError):
        normalize_partition((2, -1))
    # the sign check comes first, so rows that break both get its message
    with pytest.raises(ValueError, match="non-negative: \\(3, -1, 2\\)"):
        normalize_partition((3, -1, 2))
    with pytest.raises(ValueError, match="weakly decrease"):
        normalize_partition(r for r in (1, 2))
    assert normalize_partition(r for r in (3, 1, 0)) == (3, 1)
    # rows are coerced by operator.index: a float or a digit string is
    # named, not truncated or parsed; ints of other types still pass
    with pytest.raises(ValueError, match="2.7 is not an integer"):
        normalize_partition([2.7, 1])
    with pytest.raises(ValueError, match="'2' is not an integer"):
        normalize_partition("21")
    with pytest.raises(ValueError, match="1.0 is not an integer"):
        normalize_partition((1.0,))
    assert normalize_partition([True, 0]) == (1,)


def test_contains_and_conjugate():
    assert contains((3, 2, 1), (2, 1))
    assert not contains((2, 2), (3,))
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(conjugate((5, 3, 3, 1))) == (5, 3, 3, 1)


def test_partition_in_rectangle_checks_containment_and_cut():
    assert partition_in_rectangle((2, 1), 3, 7) == (2, 1)
    assert partition_in_rectangle((4, 2, 1), 3, 7) == (4, 2, 1)
    assert partition_in_rectangle((), 1, 2) == ()
    with pytest.raises(ValueError, match=r"^rectangle containment violated: .* 3 x 4$"):
        partition_in_rectangle((5, 1), 3, 7)
    for b in (0, 5):
        with pytest.raises(ValueError, match=rf"^cut position {b} out of range 1\.\.4$"):
            partition_in_rectangle((1,), b, 5)


def test_partitions_in_box_counts():
    # binomial(rows + cols, rows) partitions in a rows x cols box
    assert len(list(partitions_in_box(2, 2))) == 6
    assert len(list(partitions_in_box(3, 2))) == 10
    assert list(partitions_in_box(0, 5)) == [()]


def test_partitions_in_box_lists_every_box_in_ascending_order():
    # the empty partition first, then ascending tuple order, with
    # binomial(rows + cols, rows) members, for every box up to 6 x 6
    for rows in range(7):
        for cols in range(7):
            listed = list(partitions_in_box(rows, cols))
            assert listed[0] == ()
            assert all(p < q for p, q in zip(listed, listed[1:])), (rows, cols)
            assert len(listed) == comb(rows + cols, rows), (rows, cols)


def test_partitions_in_box_tall_box_needs_no_recursion():
    # one row per level of a recursion would overflow the stack here
    assert list(partitions_in_box(1200, 1)) == [(1,) * k for k in range(1201)]


def test_staircase_row_examples():
    assert Staircase((2, 3, 5), 7).rows == (5, 5, 4, 2, 2)
    assert Staircase((1, 2, 3, 4, 5, 6), 7).rows == (6, 5, 4, 3, 2, 1)
    assert Staircase((1, 4, 5), 7).rows == (6, 3, 3, 3, 2)


def test_staircase_single_cut_is_rectangle():
    for n in range(2, 8):
        for b in range(1, n):
            assert Staircase((b,), n).rows == (n - b,) * b


def test_staircase_rejects_bad_alpha():
    with pytest.raises(ValueError):
        Staircase((), 5)
    with pytest.raises(ValueError):
        Staircase((5,), 5)
    with pytest.raises(ValueError):
        Staircase((0, 2), 5)
    with pytest.raises(ValueError, match="1.5 is not an integer"):
        Staircase((1.5, 3), 5)
    with pytest.raises(ValueError, match="5.0 is not an integer"):
        Staircase((1, 3), 5.0)


def test_staircase_offsets_and_embedding():
    s = Staircase((2, 3, 5), 7)
    assert s.width == 5
    assert s.offsets == (0, 0, 1, 3, 3)
    assert s.embed((5, 5, 4, 2, 2)) == (5, 5, 5, 5, 5)
    assert s.extract((5, 5, 5, 5, 5)) == (5, 5, 4, 2, 2)
    assert s.embed(()) == ()


def test_shape_validity_depends_on_staircase():
    # (2,2) is a shape over cuts {2,3} but not in the full staircase,
    # where row 2 starts one cell further right
    full = Staircase((1, 2, 3), 4)
    wide = Staircase((2, 3), 5)
    Shape((2, 2), wide)
    with pytest.raises(ValueError):
        Shape((2, 2), full)
    Shape((2, 1), full)


def test_shape_embedding_round_trip():
    s = Staircase((1, 2, 3, 4, 5), 6)
    shape = Shape((4, 2), s)
    assert shape.embedded == (4, 3)
    assert s.extract(shape.embedded) == (4, 2)
    assert Shape.full(s).embedded == (5, 5, 5, 5, 5)
    assert Shape.empty(s).size == 0


def test_shape_rejects_overflow():
    s = Staircase((2,), 4)
    with pytest.raises(ValueError):
        Shape((3,), s)
    with pytest.raises(ValueError, match=r"^rows \(2, 2, 1\) exceed the 2 rows of the staircase for alpha=\(2,\), n=4$"):
        Shape((2, 2, 1), s)


def test_column_counts():
    s = Staircase((1, 2, 3), 4)
    # shape (3,1): row 1 spans columns 1..3, row 2 holds column 2 only
    assert s.column_counts(Shape((3, 1), s).embedded) == (1, 2, 1)
    assert s.column_counts(Shape.full(s).embedded) == (1, 2, 3)

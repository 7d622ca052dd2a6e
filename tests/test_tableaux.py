import random
from itertools import combinations_with_replacement, product

import pytest

from lrflags import tableaux
from lrflags.partitions import contains, normalize_partition, partitions_in_box
from lrflags.tableaux import (
    SkewShape,
    SkewTableau,
    count_lr_tableaux,
    enumerate_lr_tableaux,
    is_ballot,
    is_lr_tableau,
)


def tableau(outer, inner, rows):
    return SkewTableau(SkewShape(outer, inner), tuple(tuple(r) for r in rows))


def brute_force_lr(shape: SkewShape, lam) -> list[SkewTableau]:
    """Every Littlewood-Richardson filling, by exhaustion; the reference oracle.

    Fills each row with weakly increasing entries up to len(lam), in
    row-major lexicographic order, then keeps the fillings whose columns
    strictly increase, whose content is ``lam`` and whose reading word
    (rows right to left, top row first) is a ballot word.  Written out
    naively, with no lrflags predicate.
    """
    lam = tuple(v for v in lam if v)
    if shape.size != sum(lam):
        return []
    outer = shape.outer
    inner = (shape.inner + (0,) * len(outer))[: len(outer)]
    rows_per_row = [list(combinations_with_replacement(range(1, len(lam) + 1), o - i))
                    for o, i in zip(outer, inner)]
    found = []
    for rows in product(*rows_per_row):
        # column c of row r holds rows[r][c - inner[r]], 0-indexed
        if any(rows[r][c - inner[r]] <= rows[r - 1][c - inner[r - 1]]
               for r in range(1, len(rows))
               for c in range(max(inner[r], inner[r - 1]), min(outer[r], outer[r - 1]))):
            continue
        word = [v for row in rows for v in reversed(row)]
        if any(word.count(v) != lam[v - 1] for v in range(1, len(lam) + 1)):
            continue
        seen = [0] * (len(lam) + 1)
        for v in word:
            seen[v] += 1
            if v > 1 and seen[v] > seen[v - 1]:
                break
        else:
            found.append(SkewTableau(shape, rows))
    return found


def test_skew_shape_basics():
    s = SkewShape((3, 2, 1), (2, 1))
    assert s.size == 3
    assert list(s.cells()) == [(1, 3), (2, 2), (3, 1)]
    with pytest.raises(ValueError):
        SkewShape((2, 1), (3,))


def test_tableau_entries_must_be_integers():
    # int() would truncate 1.5 to 1, making an LR filling of content (2,)
    with pytest.raises(ValueError, match="1.5 is not an integer"):
        tableau((2,), (), [(1, 1.5)])
    # is_lr_tableau stays total on content it cannot coerce
    t = tableau((2,), (), [(1, 1)])
    assert is_lr_tableau(t, (2,))
    assert not is_lr_tableau(t, "ab")
    assert not is_lr_tableau(t, (2.0,))


def test_tableau_rows_read_once_still_name_a_bad_entry():
    # rows are coerced in one C-level pass, then again only to name a bad
    # entry; one-shot iterators must not lose the entries the first pass read
    shape = SkewShape((1,), ())
    with pytest.raises(ValueError, match="1.5 is not an integer"):
        SkewTableau(shape, (row for row in [(1.5,), (1,)]))
    with pytest.raises(ValueError, match="1.5 is not an integer"):
        SkewTableau(shape, [iter((1.5, 1))])


def test_ballot_words():
    assert is_ballot(())
    assert is_ballot((1, 1, 2))
    assert is_ballot((1, 2, 1))
    assert not is_ballot((2, 1, 1))
    assert not is_ballot((1, 2, 2))


def test_antidiagonal_fillings():
    # both fillings of the three-cell antidiagonal with content (2,1)
    assert is_lr_tableau(tableau((3, 2, 1), (2, 1), [(1,), (1,), (2,)]), (2, 1))
    assert is_lr_tableau(tableau((3, 2, 1), (2, 1), [(1,), (2,), (1,)]), (2, 1))
    # content read as (1,2) is not even a partition-content match
    assert not is_lr_tableau(tableau((3, 2, 1), (2, 1), [(1,), (2,), (2,)]), (1, 2))
    assert not is_lr_tableau(tableau((3, 2, 1), (2, 1), [(2,), (1,), (1,)]), (2, 1))


def test_superstandard_filling():
    for lam in [(3, 1), (2, 2, 1), (4,)]:
        rows = tuple((i + 1,) * r for i, r in enumerate(lam))
        assert is_lr_tableau(tableau(lam, (), rows), lam)


def test_six_cell_fillings_from_worked_example():
    # three fillings of (4,3,3,2)/(3,2,1) with content (3,2,1)
    outer, inner = (4, 3, 3, 2), (3, 2, 1)
    for rows in ([(1,), (2,), (1, 3), (1, 2)],
                 [(1,), (1,), (2, 2), (1, 3)],
                 [(1,), (1,), (1, 2), (2, 3)]):
        assert is_lr_tableau(tableau(outer, inner, rows), (3, 2, 1))


def test_enumerate_antidiagonal():
    result = enumerate_lr_tableaux(SkewShape((3, 2, 1), (2, 1)), (2, 1))
    assert len(result) == 2
    # canonical order: row-major entry sequences ascending
    assert [t.entry_sequence() for t in result] == [(1, 1, 2), (1, 2, 1)]


def test_enumerate_straight_shapes():
    for lam in [(2, 1), (3, 2, 1), (2, 2)]:
        result = enumerate_lr_tableaux(SkewShape(lam, ()), lam)
        assert len(result) == 1
    assert enumerate_lr_tableaux(SkewShape((3, 1), ()), (2, 2)) == []


def test_enumerate_derived_example():
    assert len(enumerate_lr_tableaux(SkewShape((3, 2, 1), (1, 1)), (2, 2))) == 1


def test_size_mismatch_gives_empty():
    assert enumerate_lr_tableaux(SkewShape((3, 2), (1,)), (2, 1)) == []


def test_empty_shape_empty_content():
    result = enumerate_lr_tableaux(SkewShape((), ()), ())
    assert len(result) == 1
    assert result[0].entry_sequence() == ()


def test_enumerator_matches_brute_force():
    shapes = [
        ((3, 2, 1), (2, 1)), ((3, 2, 1), (1, 1)), ((3, 3, 1), (2,)),
        ((4, 3), (2,)), ((2, 2, 2), (1,)), ((4, 2, 1), ()),
        ((3, 3, 3), (2, 1)), ((4, 4), (2, 1)),
    ]
    for outer, inner in shapes:
        shape = SkewShape(outer, inner)
        for lam in partitions_in_box(shape.size, shape.size):
            if sum(lam) != shape.size:
                continue
            fast = enumerate_lr_tableaux(shape, lam)
            slow = brute_force_lr(shape, lam)
            assert [t.rows for t in fast] == [t.rows for t in slow], (outer, inner, lam)
            assert count_lr_tableaux(outer, inner, lam) == len(slow), (outer, inner, lam)


def test_straight_shape_uniqueness():
    # a straight shape supports exactly one filling, of its own content
    shapes = [p for p in partitions_in_box(4, 4) if 0 < sum(p) <= 4]
    for nu in shapes:
        for lam in shapes:
            if sum(nu) != sum(lam):
                continue
            expected = 1 if nu == lam else 0
            assert len(enumerate_lr_tableaux(SkewShape(nu, ()), lam)) == expected


def test_content_not_inside_outer_gives_zero():
    # c vanishes whenever lam does not fit inside the outer shape
    assert count_lr_tableaux((3, 3), (2,), (4,)) == 0
    assert count_lr_tableaux((2, 2, 2), (1, 1), (1, 1, 1, 1)) == 0


def test_size_eight_skew_against_brute_force():
    shape = SkewShape((4, 3, 1), ())
    for lam in ((4, 3, 1), (3, 3, 2), (2, 2, 2, 2), (4, 4)):
        fast = enumerate_lr_tableaux(shape, lam)
        slow = brute_force_lr(shape, lam)
        assert [t.rows for t in fast] == [t.rows for t in slow], lam
    skew = SkewShape((4, 3, 2, 1), (1, 1))
    for lam in ((3, 3, 2), (4, 2, 2), (2, 2, 2, 2)):
        fast = enumerate_lr_tableaux(skew, lam)
        slow = brute_force_lr(skew, lam)
        assert [t.rows for t in fast] == [t.rows for t in slow], lam


def test_count_small_known_coefficients():
    assert count_lr_tableaux((3, 2, 1), (2, 1), (2, 1)) == 2
    assert count_lr_tableaux((2, 2), (2,), (1,)) == 0
    assert count_lr_tableaux((2, 1), (), (2, 1)) == 1


def test_invalid_input_raises_before_the_dominance_test():
    with pytest.raises(ValueError):
        count_lr_tableaux((2,), (3,), ())
    with pytest.raises(ValueError):
        count_lr_tableaux((1, 2), (), (3,))


def test_dominance_test_drops_only_zero_coefficients(monkeypatch):
    # the dominance test, against the LR backtracker: on every triple with
    # outer, inner and content inside a 6 x 6 box and at most 9 cells in
    # outer, a miss that skips the backtracker has no filling
    fillings = tableaux._lr_fillings
    runs = []

    def counted(*args):
        runs.append(args)
        return fillings(*args)

    monkeypatch.setattr(tableaux, "_lr_fillings", counted)
    parts = [p for p in partitions_in_box(6, 6) if sum(p) <= 9]
    triples = zeros = dropped = 0
    for outer in parts:
        for inner in parts:
            if not contains(outer, inner):
                continue
            size = sum(outer) - sum(inner)
            for lam in parts:
                if sum(lam) != size:
                    continue
                before = len(runs)
                count = count_lr_tableaux(outer, inner, lam)
                if len(runs) == before:
                    assert count == 0 and next(fillings(outer, inner, lam), None) is None, (outer, inner, lam)
                    dropped += 1
                triples += 1
                zeros += count == 0
    assert (triples, zeros, dropped) == (7349, 4913, 4755)


# (outer, inner, content): steps shaped like the rule's, with middle rows
# empty (wholly inside inner), rows inside inner at the top, disconnected
# components and an inner with a trailing zero; then a size mismatch, the
# empty shape, an outer wholly inside inner, list arguments, trailing zeros
PARITY_CASES = [
    ((5, 5, 4, 4), (4, 4, 4, 3), (1, 1, 1)),
    ((5, 4, 3), (4, 4, 1), (2, 1)),
    ((5, 3, 3, 1), (3, 3, 1), (2, 2, 1)),
    ((5, 4, 3), (4, 3, 2), (2, 1)),
    ((5, 5, 5, 4), (5, 4, 4, 3), (1, 1, 1)),
    ((4, 4, 2, 2), (4, 2, 1), (2, 2, 1)),
    ((4, 2), (2,), (2, 2)),
    ((4, 2), (2,), (3, 1)),
    ((4, 3, 2, 1), (3, 2, 1), (3, 1)),
    ((3, 1), (2, 0), (2,)),
    ((3, 2), (1,), (2, 1)),
    ((), (), ()),
    ((2, 2), (2, 2), ()),
    ([3, 2, 1], [2, 1], [2, 1]),
    ((3, 2, 1, 0), (2, 1, 0, 0), (2, 1, 0)),
]


def test_count_equals_listing_equals_brute_force():
    nonzero = 0
    for outer, inner, lam in PARITY_CASES:
        shape = SkewShape(outer, inner)
        listed = enumerate_lr_tableaux(shape, lam)
        expected = len(brute_force_lr(shape, lam))
        assert count_lr_tableaux(outer, inner, lam) == len(listed) == expected, (outer, inner, lam)
        nonzero += expected > 0
    assert count_lr_tableaux((3, 2), (1,), (2, 1)) == 0
    assert count_lr_tableaux((), (), ()) == 1
    assert nonzero == len(PARITY_CASES) - 1


def test_count_equals_listing_up_to_seven_boxes():
    parts = [p for p in partitions_in_box(7, 7) if sum(p) <= 7]
    checked = 0
    for outer in parts:
        for inner in parts:
            if not contains(outer, inner):
                continue
            shape = SkewShape(outer, inner)
            for lam in parts:
                listed = len(enumerate_lr_tableaux(shape, lam))
                assert count_lr_tableaux(outer, inner, lam) == listed, (outer, inner, lam)
                checked += listed > 0
    assert checked > 600


def test_counting_builds_no_tableaux(monkeypatch):
    calls = {"SkewTableau": 0, "is_lr_tableau": 0, "normalize_partition": 0}
    for name in calls:
        original = getattr(tableaux, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(tableaux, name, counting)
    triples = [(o, i, l) for o, i, l in PARITY_CASES if isinstance(o, tuple)]
    triples += [((4, 3, 2, 1), (3, 2, 1), lam) for lam in ((4,), (2, 2), (2, 1, 1), (1, 1, 1, 1))]
    assert sum(count_lr_tableaux(*t) for t in triples) > len(triples)
    assert calls["SkewTableau"] == calls["is_lr_tableau"] == 0
    assert calls["normalize_partition"] <= 3 * len(triples)
    # listing builds one tableau per leaf of the same backtracker and
    # checks none of them again; each still passes the predicate
    calls["SkewTableau"] = 0
    shape = SkewShape((4, 3, 2, 1), (3, 2, 1))
    listed = enumerate_lr_tableaux(shape, (3, 1))
    assert calls["is_lr_tableau"] == 0
    assert calls["SkewTableau"] == len(listed) == count_lr_tableaux(shape.outer, shape.inner, (3, 1)) > 1
    assert all(is_lr_tableau(t, (3, 1)) for t in listed)


def test_lr_symmetric_sum_in_box():
    # summing c^{nu/mu}_lam over nu in a 3x3 box is symmetric in lam, mu
    box = [p for p in partitions_in_box(3, 3)]
    small = [p for p in box if sum(p) <= 4]
    for lam in small:
        for mu in small:
            total_lm = 0
            total_ml = 0
            for nu in box:
                if sum(nu) == sum(lam) + sum(mu):
                    from lrflags.partitions import contains

                    if contains(nu, mu):
                        total_lm += count_lr_tableaux(nu, mu, lam)
                    if contains(nu, lam):
                        total_ml += count_lr_tableaux(nu, lam, mu)
            assert total_lm == total_ml, (lam, mu)


def test_pieri_listing_matches_the_backtracker():
    # a one-row or one-column content is a strip with at most one
    # filling; on every skew shape with outer in a 6 x 6 box of at most
    # 10 cells and 1..8 skew cells, the listing is the backtracker's
    # leaves, cut into rows
    parts = [p for p in partitions_in_box(6, 6) if sum(p) <= 10]
    shapes = pairs = strips = 0
    for outer in parts:
        for inner in parts:
            k = sum(outer) - sum(inner)
            if not (contains(outer, inner) and 1 <= k <= 8):
                continue
            shape = SkewShape(outer, inner)
            widths = [o - i for o, i in zip(outer, inner + (0,) * len(outer))]
            shapes += 1
            for lam in ((k,), (1,) * k):
                expected = []
                for val in tableaux._lr_fillings(outer, inner, lam):
                    rows, start = [], 0
                    for w in widths:
                        rows.append(tuple(val[start:start + w]))
                        start += w
                    expected.append(tuple(rows))
                listed = [t.rows for t in enumerate_lr_tableaux(shape, lam)]
                assert listed == expected, (outer, inner, lam)
                pairs += 1
                strips += len(listed)
    assert (shapes, pairs, strips) == (2159, 4318, 1662)


def test_row_lister_gives_the_tableaux_rows():
    # the rule lists fillings as row tuples, with no tableau built: on every
    # skew in a 4 x 4 box, its inner as it is and padded with zero rows to
    # the outer's length, against every content of the skew's size, the
    # row lister gives the rows of the listed tableaux, one per outer row,
    # empty rows included
    box = list(partitions_in_box(4, 4))
    pairs = listed = 0
    for outer in box:
        for inner in box:
            if not contains(outer, inner):
                continue
            shape = SkewShape(outer, inner)
            padded = inner + (0,) * (len(outer) - len(inner))
            for lam in box:
                if sum(lam) != shape.size:
                    continue
                expected = [t.rows for t in enumerate_lr_tableaux(shape, lam)]
                assert tableaux._lr_rows(outer, inner, lam) == expected, (outer, inner, lam)
                assert tableaux._lr_rows(outer, padded, lam) == expected, (outer, padded, lam)
                pairs += 1
                listed += len(expected)
    assert (pairs, listed) == (8084, 3663)


def reference_is_lr_tableau(tableau: SkewTableau, lam) -> bool:
    """The per-cell definition of an LR filling, through the public accessors."""
    try:
        lam = normalize_partition(lam)
    except ValueError:
        return False
    shape = tableau.shape
    if any(v < 1 for row in tableau.rows for v in row):
        return False
    for r in range(1, len(shape.outer) + 1):
        row = tableau.rows[r - 1]
        if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
            return False
        if r == 1:
            continue
        first, last = shape.row_span(r)
        up_first, up_last = shape.row_span(r - 1)
        for c in range(max(first, up_first), min(last, up_last) + 1):
            if tableau.entry(r - 1, c) >= tableau.entry(r, c):
                return False
    if tableau.content() != lam:
        return False
    return is_ballot(tableau.reading_word())


# valid contents, then malformed ones: not decreasing, negative, a
# trailing zero in a list, not integers, and the empty content
CHECKED_CONTENTS = [
    (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2, 1), (4, 2),
    (1, 2), (-1,), [2, 1, 0], "ab", (),
]


def test_is_lr_tableau_agrees_with_the_per_cell_definition():
    rng = random.Random(19)
    parts = list(partitions_in_box(4, 4))
    shapes = verdicts = true = 0
    for outer in parts:
        for inner in parts:
            if not (contains(outer, inner) and sum(outer) - sum(inner) <= 6):
                continue
            shape = SkewShape(outer, inner)
            shapes += 1
            for _ in range(3):
                rows = []
                for o, i in zip(outer, inner + (0,) * len(outer)):
                    row = [rng.randint(0, 4) for _ in range(o - i)]
                    rows.append(sorted(row) if rng.random() < 0.8 else row)
                filling = SkewTableau(shape, rows)
                word = filling.entry_sequence()
                own = tuple(word.count(v) for v in range(1, max(word, default=0) + 1))
                for lam in [own, tuple(sorted(own, reverse=True))] + CHECKED_CONTENTS:
                    verdict = is_lr_tableau(filling, lam)
                    assert verdict == reference_is_lr_tableau(filling, lam), (outer, inner, rows, lam)
                    verdicts += 1
                    true += verdict
    assert (shapes, verdicts, true) == (1306, 70524, 1041)

import re

import pytest

from lrflags.oracle import (
    a_bruhat_leq,
    descent_support_check,
    monk_multiply,
    restrict_shape,
    schubert_expand,
)
from lrflags.partitions import Staircase, partitions_in_box
from lrflags.permutations import (
    ValleyPermutation,
    grassmannian_permutation,
    identity,
    longest_with_descents_in,
    shape_of_grassmannian,
    valley_from_shape,
)
from lrflags.polynomials import IntPolynomial
from lrflags.problems import (
    DimensionMismatchError,
    ProblemError,
    SchubertProblem,
    dimension,
    refine_problem,
    refine_to_full,
    validate_problem,
)


def test_dimension_examples():
    assert dimension((2, 3, 5), 7) == 18
    assert dimension((1, 2, 3), 4) == 6
    assert dimension((2, 3, 4), 6) == 13
    assert dimension((2,), 4) == 4


def test_dimension_equals_staircase_cells():
    from itertools import combinations

    from lrflags.partitions import Staircase

    for n in range(2, 9):
        for size in range(1, n):
            for alpha in combinations(range(1, n), size):
                assert dimension(alpha, n) == Staircase(alpha, n).box_count


def test_dimension_rejects_bad_alpha():
    with pytest.raises(ProblemError):
        dimension((), 5)
    with pytest.raises(ProblemError):
        dimension((5,), 5)


def test_problem_construction_normalizes():
    p = SchubertProblem(4, ((2, (1, 0)), (3, (1,))))
    assert p.terms == ((2, (1,)), (3, (1,)))
    assert p.alpha == (2, 3)
    assert p.total_size == 2


def test_problem_rejects_unsorted_terms():
    with pytest.raises(ProblemError, match="sortedness"):
        SchubertProblem(4, ((3, (1,)), (2, (1,))))


def test_problem_rejects_overflow_partition():
    with pytest.raises(ProblemError, match="rectangle containment"):
        SchubertProblem(4, ((1, (4,)),))
    with pytest.raises(ProblemError, match="rectangle containment"):
        SchubertProblem(7, ((3, (5, 1)),))


def test_problem_rejects_bad_cut():
    with pytest.raises(ProblemError, match="out of range"):
        SchubertProblem(4, ((4, (1,)),))
    # int() would truncate 2.9 to cut 2
    with pytest.raises(ProblemError, match="2.9 is not an integer"):
        SchubertProblem(4, ((2.9, (1,)),))
    # an unchecked n of 4.0 would make the rule fail deep inside
    with pytest.raises(ProblemError, match="4.0 is not an integer"):
        SchubertProblem(4.0, ((2, (1,)),) * 4)


def test_validate_problem_accepts(seven_term_problem):
    assert validate_problem(seven_term_problem) == (2, 3, 5)
    # a single full rectangle
    p = SchubertProblem(5, ((2, (3, 3)),))
    assert validate_problem(p) == (2,)


def test_validate_problem_dimension_mismatch():
    # five boxes at cuts (1,1,2,2,3) on n=4: 5 != dim({1,2,3}) = 6
    p = SchubertProblem(4, tuple((a, (1,)) for a in (1, 1, 2, 2, 3)))
    with pytest.raises(DimensionMismatchError, match="dimension condition"):
        validate_problem(p)


def test_validate_problem_rejects_non_integral_alpha():
    quad = SchubertProblem(4, ((2, (1,)),) * 4)
    with pytest.raises(ProblemError, match="1.5 is not an integer"):
        validate_problem(quad, (1.5, 2))


def test_validate_problem_empty():
    with pytest.raises(ProblemError, match="no terms"):
        validate_problem(SchubertProblem(4, ()))


def test_refine_inserts_complementary_rectangle():
    p = SchubertProblem(4, tuple((a, (1,)) for a in (2, 2, 2, 2)))
    refined = refine_problem(p, 3)
    assert refined.terms[-1] == (3, (1,))
    refined = refine_problem(p, 1)
    assert refined.terms[0] == (1, (1,))

    p2 = SchubertProblem(7, ((2, (1,)), (5, (1, 1)),))
    assert refine_problem(p2, 3).terms[1] == (3, (2,))


def test_refine_rejects_existing_or_bad_cut():
    p = SchubertProblem(4, ((2, (1,)),))
    with pytest.raises(ProblemError):
        refine_problem(p, 2)
    with pytest.raises(ProblemError):
        refine_problem(p, 4)


def test_refine_to_full():
    p = SchubertProblem(6, ((3, (2, 1)),))
    full = refine_to_full(p)
    assert full.alpha == (1, 2, 3, 4, 5)
    # refinement preserves validity of the dimension count
    from lrflags.problems import dimension as dim

    p_valid = SchubertProblem(4, tuple((a, (1,)) for a in (2, 2, 2, 2)))
    full_valid = refine_to_full(p_valid)
    assert full_valid.total_size == dim(full_valid.alpha, 4)


def test_refinement_preserves_intersection_number():
    from lrflags.filtered import intersection_number

    # dim({1,3}) = 5 on n=4, so five boxes make a valid problem
    base = SchubertProblem(4, tuple((a, (1,)) for a in (1, 1, 3, 3, 3)))
    validate_problem(base)
    before = intersection_number(base)
    after = intersection_number(refine_problem(base, 2))
    assert before == after
    assert before > 0


def _refine_quad(b):
    return refine_problem(SchubertProblem(4, ((2, (1,)),) * 4), b)


def _validate_quad(alpha):
    return validate_problem(SchubertProblem(4, ((2, (1,)),) * 4), alpha)


def _expand_x1(n):
    return schubert_expand(IntPolynomial.variable(1, 3), n)


def _quad_prefix(t):
    return descent_support_check(SchubertProblem(4, ((2, (1,)),) * 4), t)


def _named(value):
    return f"^{re.escape(repr(value))} is not an integer$"


_RANGE = r"^cut position -?\d+ out of range 1\.\.\d+$"
_SET = r"^alpha \[[\d, ]*\] not contained in 1\.\.\d+$"


# every public call that takes a cut, cut set, floor, n, a box bound or a
# prefix length: a non-integral value is named, not truncated, computed
# with or left to a TypeError, and a cut outside 1..n-1 is named too
_GATED = [
    (dimension, ((2.5,), 5), ProblemError, _named(2.5)),
    (dimension, ((2,), 5.0), ProblemError, _named(5.0)),
    (longest_with_descents_in, ((2.0,), 4), ValueError, _named(2.0)),
    (grassmannian_permutation, (2, (1,), 4.0), ValueError, _named(4.0)),
    (grassmannian_permutation, (2.0, (1,), 4), ValueError, _named(2.0)),
    (ValleyPermutation, ((3, 1, 2), 2.0), ValueError, _named(2.0)),
    (valley_from_shape, ((4, 2), 3.0, 6), ValueError, _named(3.0)),
    (shape_of_grassmannian, ((1, 3, 2), 2.0), ValueError, _named(2.0)),
    (monk_multiply, ((1, 2, 3), 1.5), ValueError, _named(1.5)),
    (restrict_shape, ((2, 1), 2.0, 4), ValueError, _named(2.0)),
    (a_bruhat_leq, ((1, 2, 3), (2, 1, 3), 1.0), ValueError, _named(1.0)),
    (partitions_in_box, (2.5, 2), ValueError, _named(2.5)),
    (identity, (2.5,), ValueError, _named(2.5)),
    (_expand_x1, (2.5,), ValueError, _named(2.5)),
    (_quad_prefix, (1.0,), ProblemError, _named(1.0)),
    (grassmannian_permutation, (0, (1,), 4), ValueError, _RANGE),
    (shape_of_grassmannian, ((1, 3, 2), 3), ValueError, _RANGE),
    (monk_multiply, ((1, 2, 3), 3), ValueError, _RANGE),
    (restrict_shape, ((2, 1), 4, 4), ValueError, _RANGE),
    (a_bruhat_leq, ((1, 2, 3), (2, 1, 3), 0), ValueError, _RANGE),
    (_refine_quad, (4,), ProblemError, _RANGE),
    (SchubertProblem, (4, ((4, (1,)),)), ProblemError, _RANGE),
    (dimension, ((2, 5), 5), ProblemError, _SET),
    (longest_with_descents_in, ((0, 2), 4), ValueError, _SET),
    (Staircase, ((), 5), ValueError, _SET),
    (_validate_quad, ((2, 4),), ProblemError, _SET),
]


@pytest.mark.parametrize(
    "call, args, error, message", _GATED, ids=[f"{c.__name__}{a}" for c, a, _, _ in _GATED]
)
def test_cut_floor_and_n_are_gated(call, args, error, message):
    with pytest.raises(error, match=message):
        call(*args)

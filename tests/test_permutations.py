import pytest

from conftest import all_valley_permutations, longest

from lrflags.partitions import partitions_in_box
from lrflags.permutations import (
    ValleyPermutation,
    check_permutation,
    descent_set,
    dual,
    grassmannian_permutation,
    identity,
    length,
    longest_with_descents_in,
    shape_of_grassmannian,
    swap_positions,
    valley_from_permutation,
    valley_from_shape,
)


def test_check_permutation():
    assert check_permutation([2, 1, 3]) == (2, 1, 3)
    with pytest.raises(ValueError):
        check_permutation((1, 1, 2))
    with pytest.raises(ValueError):
        check_permutation((0, 1, 2))
    # int() would truncate [2.5, 1] to the permutation (2, 1)
    with pytest.raises(ValueError, match="2.5 is not an integer"):
        check_permutation([2.5, 1])


def test_descent_sets():
    assert descent_set(identity(5)) == frozenset()
    assert descent_set((1, 3, 5, 2, 4, 6, 7)) == frozenset({3})
    assert descent_set(longest(5)) == frozenset({1, 2, 3, 4})


def test_grassmannian_permutation_examples():
    assert grassmannian_permutation(3, (2, 1), 7) == (1, 3, 5, 2, 4, 6, 7)
    assert grassmannian_permutation(3, (4, 2, 1), 7) == (2, 4, 7, 1, 3, 5, 6)
    assert grassmannian_permutation(3, (), 7) == identity(7)
    with pytest.raises(ValueError):
        grassmannian_permutation(3, (5, 1), 7)


def test_shape_of_grassmannian_examples():
    assert shape_of_grassmannian((1, 3, 7, 2, 4, 5, 6), 3) == (4, 1)
    assert shape_of_grassmannian(identity(5), 2) == ()
    assert shape_of_grassmannian((2, 4, 7, 1, 3, 5, 6), 3) == (4, 2, 1)
    with pytest.raises(ValueError):
        shape_of_grassmannian((2, 1, 4, 3), 1)


def test_grassmannian_round_trip_and_length():
    for n in range(2, 8):
        for b in range(1, n):
            for lam in partitions_in_box(b, n - b):
                w = grassmannian_permutation(b, lam, n)
                assert descent_set(w) <= {b}
                assert length(w) == sum(lam)
                assert shape_of_grassmannian(w, b) == lam


def test_dual_is_involution_with_complementary_length():
    for n in (3, 4, 5):
        import itertools

        top = n * (n - 1) // 2
        for w in itertools.permutations(range(1, n + 1)):
            assert dual(dual(w)) == w
            assert length(w) + length(dual(w)) == top


def test_swap_and_simple():
    assert swap_positions((1, 2, 3, 4), 2, 4) == (1, 4, 3, 2)


def test_longest_with_descents_in():
    assert longest_with_descents_in((2, 3, 5), 7) == (6, 7, 5, 3, 4, 1, 2)
    assert longest_with_descents_in(range(1, 6), 6) == longest(6)
    from lrflags.problems import dimension

    for n in range(2, 7):
        import itertools

        for size in range(1, n):
            for alpha in itertools.combinations(range(1, n), size):
                w = longest_with_descents_in(alpha, n)
                assert descent_set(w) <= set(alpha)
                assert length(w) == dimension(alpha, n)


def test_valley_examples():
    assert valley_from_permutation((5, 3, 1, 2, 4, 6), 3).mu == (4, 2)
    assert valley_from_permutation((6, 4, 3, 1, 2, 5), 3).mu == (5, 3, 2)
    assert valley_from_permutation(identity(4), 1).mu == ()
    with pytest.raises(ValueError):
        valley_from_permutation((1, 3, 2), 2)


def test_valley_from_shape_examples():
    assert valley_from_shape((4, 2), 3, 6).word == (5, 3, 1, 2, 4, 6)
    assert valley_from_shape((), 1, 4).word == identity(4)
    full = tuple(range(5, 0, -1))
    assert valley_from_shape(full, 5, 6).word == longest(6)
    assert valley_from_shape(full, 6, 6).word == longest(6)
    with pytest.raises(ValueError):
        valley_from_shape((2, 2), 2, 5)
    with pytest.raises(ValueError):
        valley_from_shape((1,), 3, 5)


def test_valley_round_trip():
    for n in (2, 3, 4, 5, 6):
        for valley in all_valley_permutations(n):
            assert valley.length == sum(valley.mu)
            again = valley_from_shape(valley.mu, valley.floor, n)
            assert again.word == valley.word
            assert again.floor == valley.floor


def test_valley_shape_floor_independent():
    # 4,2,1,3 is a valley with floor 2 and floor 3; same shape either way
    assert valley_from_permutation((4, 2, 1, 3), 2).mu == (3, 1)
    assert valley_from_permutation((4, 2, 1, 3), 3).mu == (3, 1)

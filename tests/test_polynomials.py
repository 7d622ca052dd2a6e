import random
from operator import add

import pytest

from lrflags.oracle import _block_staircase, schubert_polynomial
from lrflags.permutations import dual, grassmannian_permutation, longest_with_descents_in
from lrflags.polynomials import IntPolynomial


def x(i, n):
    return IntPolynomial.variable(i, n)


def test_constructors_drop_zeros():
    p = IntPolynomial(2, {(1, 0): 0, (0, 1): 3})
    assert p.terms() == {(0, 1): 3}
    assert IntPolynomial.zero(3).is_zero
    assert IntPolynomial.one(3).coefficient((0, 0, 0)) == 1


def test_non_integral_coefficients_and_exponents_raise():
    # a zero test before coercion would pass 0.5 and store int(0.5) == 0
    with pytest.raises(TypeError):
        IntPolynomial(2, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        IntPolynomial(2, {(1.0, 0): 1})
    # index, not a zero test, comes first, so a float exponent on a zero
    # coefficient raises too
    with pytest.raises(TypeError):
        IntPolynomial(2, {(1.5, 0): 0})
    assert IntPolynomial(2, {(True, 0): 2}) == 2 * x(1, 2)


def test_arity_checked():
    with pytest.raises(ValueError):
        IntPolynomial(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        x(1, 2) + x(1, 3)
    # a product names the mismatch too, a zero-variable operand included
    for left, right in ((x(1, 2), x(1, 3)), (x(1, 2), IntPolynomial.one(0))):
        with pytest.raises(ValueError, match="different numbers of variables"):
            left * right


def test_negative_exponent_rejected():
    with pytest.raises(ValueError, match=r"\(2, -1\)"):
        IntPolynomial(2, {(0, 1): 3, (2, -1): 1})
    with pytest.raises(ValueError, match=r"\(-3,\)"):
        IntPolynomial.monomial((-3,))
    # a zero coefficient is dropped before its exponents are looked at
    assert IntPolynomial(2, {(2, -1): 0}).is_zero


def test_ring_operations():
    a, b = x(1, 3), x(2, 3)
    p = (a + b) * (a - b)
    assert p == a * a - b * b
    assert (p - p).is_zero
    assert 2 * (a + b) == a + a + b + b
    assert (a + b) * IntPolynomial.one(3) == a + b


def test_exactness_large_coefficients():
    p = IntPolynomial.monomial((1, 0), 10**30)
    q = p * p
    assert q.coefficient((2, 0)) == 10**60


def test_degree_and_homogeneity():
    a, b = x(1, 2), x(2, 2)
    assert (a * a + a * b).is_homogeneous()
    assert not (a + a * b).is_homogeneous()
    assert (a * a * b).total_degree() == 3
    assert IntPolynomial.zero(2).is_homogeneous()


def test_divided_difference_basics():
    a, b, c = x(1, 3), x(2, 3), x(3, 3)
    # constant and symmetric inputs vanish
    assert IntPolynomial.one(3).divided_difference(1).is_zero
    assert (a + b).divided_difference(1).is_zero
    assert (a * b).divided_difference(1).is_zero
    # simple quotients
    assert a.divided_difference(1) == IntPolynomial.one(3)
    assert (a * a).divided_difference(1) == a + b
    assert (a * a * b).divided_difference(2) == a * a
    # x3 participates in the last difference
    assert (b * b).divided_difference(2) == b + c


def test_divided_difference_leibniz_like_identity():
    # partial(f) * (x_i - x_{i+1}) == f - swap(f)
    a, b = x(1, 3), x(2, 3)
    f = a * a * a + a * b
    lhs = f.divided_difference(1) * (a - b)
    swapped = IntPolynomial(3, {(e[1], e[0], e[2]): c for e, c in f.terms().items()})
    assert lhs == f - swapped


def test_divided_difference_index_bounds():
    with pytest.raises(ValueError):
        x(1, 2).divided_difference(2)


def naive_product(p, q):
    """Reference product: add exponent tuples pair by pair."""
    out = {}
    for e1, c1 in p.terms().items():
        for e2, c2 in q.terms().items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            out[exps] = out.get(exps, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def random_polynomial(rng, nvars, max_exp):
    coeffs = (1, -1, 2, -7, 2**64 + 3, -(2**70))
    terms = {}
    for _ in range(rng.randint(0, 8)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[exps] = terms.get(exps, 0) + rng.choice(coeffs)
    return IntPolynomial(nvars, terms)


def test_packed_product_matches_naive_reference():
    rng = random.Random(2024)
    for nvars in range(7):
        for max_exp in (0, 1, 3, 12):
            for _ in range(40):
                p = random_polynomial(rng, nvars, max_exp)
                q = random_polynomial(rng, nvars, max_exp)
                assert (p * q).terms() == naive_product(p, q), (p, q)
    # the constant polynomials of zero variables
    one = IntPolynomial.one(0)
    assert (one * one).terms() == {(): 1}
    assert (IntPolynomial(0, {(): 2**65}) * IntPolynomial(0, {(): -3})).terms() == {(): -3 * 2**65}
    assert (one * IntPolynomial.zero(0)).is_zero


def test_packed_product_at_a_field_width_boundary():
    # the largest exponent sum fills a k-bit field exactly (2**k - 1),
    # then needs one bit more (2**k); a field one bit too narrow carries
    # into the next variable's
    rng = random.Random(31)
    # k = 8 crosses from byte fields (top 255) to shifted ones (top 256)
    for k in (2, 3, 6, 8, 9):
        for top in (2**k - 1, 2**k):
            for _ in range(10):
                a = rng.randint(1, top - 1)
                p = random_polynomial(rng, 3, a) + IntPolynomial.monomial((a, 0, 0), 3)
                q = random_polynomial(rng, 3, top - a) + IntPolynomial.monomial((top - a, 0, 0), 5)
                product = (p * q).terms()
                assert product == naive_product(p, q), (p, q)
                assert max(map(max, product)) == top


def below_staircase(exps):
    return all(e <= i for i, e in enumerate(sorted(exps)))


def naive_staircase_chain(poly, factors):
    """Reference chain: tuple-sum products, each followed by the bound
    (exponents sorted increasingly at most ``(0, 1, ..., n-1)``), which
    the start's terms meet too."""
    terms = {e: c for e, c in poly.terms().items() if below_staircase(e)}
    for factor in factors:
        out = {}
        for e1, c1 in terms.items():
            for e2, c2 in factor.terms().items():
                exps = tuple(map(add, e1, e2))
                out[exps] = out.get(exps, 0) + c1 * c2
        terms = {e: c for e, c in out.items() if c and below_staircase(e)}
    return terms


def test_staircase_product_matches_the_naive_chain():
    rng = random.Random(29)
    for nvars in range(6):
        for max_exp in (0, 1, 3, 12):
            for _ in range(30):
                start = random_polynomial(rng, nvars, max_exp)
                factors = [random_polynomial(rng, nvars, max_exp) for _ in range(rng.randint(0, 3))]
                chain = start.staircase_product(factors).terms()
                assert chain == naive_staircase_chain(start, factors), (start, factors)
    # a factor's arity is checked; none is read once the product is zero
    with pytest.raises(ValueError):
        IntPolynomial.one(2).staircase_product([IntPolynomial.one(3)])
    read = []
    factors = (read.append(i) or f for i, f in enumerate([IntPolynomial.monomial((2, 0))] * 3))
    assert IntPolynomial.one(2).staircase_product(factors).is_zero
    assert read == [0]


def test_staircase_product_matches_the_naive_chain_on_problems():
    from conftest import all_valid_problems, nonzero_sample

    problems = [p for n in range(2, 5) for p in all_valid_problems(n)] + nonzero_sample(7, 77)
    for problem in problems:
        n = problem.n
        words = [grassmannian_permutation(a, lam, n) for a, lam in problem.terms]
        factors = [schubert_polynomial(w) for w in words]
        start = _block_staircase(problem.alpha, n)
        assert start.staircase_product(factors).terms() == naive_staircase_chain(start, factors), problem
        # the dual-class pairing, from 1
        factors.append(schubert_polynomial(dual(longest_with_descents_in(problem.alpha, n))))
        one = IntPolynomial.one(n)
        assert one.staircase_product(factors).terms() == naive_staircase_chain(one, factors), problem


@pytest.mark.parametrize("n", [128, 129])
def test_staircase_product_on_either_side_of_byte_fields(n):
    # field sums reach 2n - 2: 254 fits a byte at n = 128, 256 at n = 129 does not
    row = schubert_polynomial(grassmannian_permutation(2, (n - 2,), n))
    start = _block_staircase((2,), n)
    chain = start.staircase_product([row, row]).terms()
    assert chain == naive_staircase_chain(start, [row, row]) and len(chain) > 1
    # x1^(n-1) twice fills the first field to exactly 2n - 2, past the
    # bound; a field too narrow carries it into a surviving x2
    power = schubert_polynomial(grassmannian_permutation(1, (n - 1,), n))
    assert power.terms() == {(n - 1,) + (0,) * (n - 1): 1}
    assert IntPolynomial.one(n).staircase_product([power]) == power
    assert IntPolynomial.one(n).staircase_product([power, power]).is_zero


def test_packed_product_edge_cases():
    a, b = x(1, 3), x(2, 3)
    # the cross terms cancel and are not stored
    assert ((a - b) * (a + b)).terms() == {(2, 0, 0): 1, (0, 2, 0): -1}
    p = IntPolynomial(2, {(1, 0): 2**64, (0, 1): 1})
    q = IntPolynomial(2, {(1, 0): 2**64, (0, 1): -1})
    assert (p * q).terms() == {(2, 0): 2**128, (0, 2): -1}
    # the zero polynomial on either side
    zero = IntPolynomial.zero(3)
    assert (zero * (a - b)).is_zero and ((a - b) * zero).is_zero
    assert (zero * zero).is_zero
    # exponent sums past any single-digit base: 12 + 12 in one variable
    big = IntPolynomial.monomial((12, 0, 12), -5)
    assert (big * big).terms() == {(24, 0, 24): 25}
    assert (big * IntPolynomial.monomial((0, 12, 1))).terms() == {(12, 12, 13): -5}
    # scalar products on either side
    assert (3 * (a - b)).terms() == {(1, 0, 0): 3, (0, 1, 0): -3}
    assert ((a - b) * 3) == 3 * (a - b)
    assert ((a - b) * -(2**70)).terms() == {(1, 0, 0): -(2**70), (0, 1, 0): 2**70}
    assert (0 * (a - b)).is_zero and ((a - b) * 0).is_zero


def test_foreign_operands_raise_type_error():
    p = x(1, 2) + x(2, 2)
    for foreign in (2.5, "x", None, [1]):
        with pytest.raises(TypeError):
            p * foreign
        with pytest.raises(TypeError):
            foreign * p
        with pytest.raises(TypeError):
            p + foreign
        with pytest.raises(TypeError):
            foreign + p
    # an int adds to nothing; it only scales
    with pytest.raises(TypeError):
        p + 3
    with pytest.raises(TypeError):
        p - 3
    with pytest.raises(TypeError):
        3 + p
    assert p * 2 == 2 * p == p + p

import functools
import itertools
import random
from collections import Counter

import pytest

from conftest import all_valley_permutations, longest, simple_transposition, sum_of_first_variables

from lrflags import oracle
from lrflags.partitions import partitions_in_box
from lrflags.permutations import (
    descent_set,
    dual,
    grassmannian_permutation,
    identity,
    length,
    longest_with_descents_in,
    shape_of_grassmannian,
    swap_positions,
    valley_from_permutation,
)
from lrflags.polynomials import IntPolynomial
from lrflags.problems import DimensionMismatchError, ProblemError, SchubertProblem
from lrflags.oracle import (
    a_bruhat_leq,
    class_coefficient,
    coefficient_identity_check,
    descent_support_check,
    iterate_monk,
    monk_multiply,
    oracle_coefficient,
    oracle_intersection_number,
    restrict_shape,
    schubert_expand,
    schubert_polynomial,
    staircase_coefficient,
)


def test_schubert_polynomial_base_cases():
    n = 4
    staircase = tuple(range(n - 1, -1, -1))
    assert schubert_polynomial(longest(n)).terms() == {staircase: 1}
    assert schubert_polynomial(identity(n)) == IntPolynomial.one(n)
    for a in range(1, n):
        assert schubert_polynomial(simple_transposition(n, a)) == sum_of_first_variables(a, n)
    # every word is checked before the cache is read, a list included
    assert schubert_polynomial(list(longest(n))) == schubert_polynomial(longest(n))
    for word in ((1, 1), [2, 2], (1, 3)):
        with pytest.raises(ValueError):
            schubert_polynomial(word)


def test_schubert_cache_hit_checks_the_word_like_a_miss():
    # (1.0, 2.0) == (1, 2) and the two hash alike, so a cached (1, 2)
    # must not answer for the float word the check rejects
    oracle._schubert.cache_clear()
    with pytest.raises(ValueError, match=r"^1\.0 is not an integer$"):
        schubert_polynomial((1.0, 2.0))
    assert schubert_polynomial((1, 2)) == IntPolynomial.one(2)
    with pytest.raises(ValueError, match=r"^1\.0 is not an integer$"):
        schubert_polynomial((1.0, 2.0))
    # a word of integers the check accepts still hits
    assert schubert_polynomial((True, 2)) is schubert_polynomial((1, 2))


def test_schubert_polynomial_of_large_identity():
    # both codes are partitions, so neither climbs: 0 and the staircase
    assert schubert_polynomial(identity(46)) == IntPolynomial.one(46)
    assert schubert_polynomial(longest(46)).terms() == {tuple(range(45, -1, -1)): 1}


def test_climb_stops_at_the_nearest_dominant_permutation(monkeypatch):
    # a dominant permutation (Lehmer code a partition) is its own monomial,
    # and a Grassmannian one with descent at a climbs at most a(a-1)/2 steps
    calls = []
    divide = IntPolynomial.divided_difference
    monkeypatch.setattr(IntPolynomial, "divided_difference", lambda p, i: calls.append(i) or divide(p, i))
    for w in [identity(46), longest(46), *itertools.permutations(range(1, 6))]:
        oracle._schubert.cache_clear()
        calls.clear()
        poly = schubert_polynomial(w)
        code = [sum(v < u for v in w[i + 1:]) for i, u in enumerate(w)]
        if code == sorted(code, reverse=True):
            assert (calls, poly.terms()) == ([], {tuple(code): 1}), w
        if len(descent_set(w)) == 1:
            (a,) = descent_set(w)
            assert len(calls) <= a * (a - 1) // 2, w


def test_lehmer_code_matches_its_definition():
    # entry i counts the later, smaller values, for every w in S_n, n <= 5
    for n in range(6):
        for w in itertools.permutations(range(1, n + 1)):
            definition = [sum(w[j] < w[i] for j in range(i + 1, n)) for i in range(n)]
            assert oracle._lehmer_code(w) == definition, w


def test_schubert_polynomials_are_homogeneous_of_length_degree():
    for w in itertools.permutations(range(1, 6)):
        poly = schubert_polynomial(w)
        assert poly.is_homogeneous()
        if not poly.is_zero:
            assert poly.total_degree() == length(w)
        # the last variable never appears
        assert all(e[-1] == 0 for e in poly.terms())


def via_last_ascent(w, cache={}):
    """Schubert polynomial along the lexicographically last ascent instead
    of the first; the reference for the library's construction."""
    w = tuple(w)
    if w in cache:
        return cache[w]
    n = len(w)
    ascent = next((i for i in range(n - 2, -1, -1) if w[i] < w[i + 1]), None)
    if ascent is None:
        poly = IntPolynomial.monomial(tuple(range(n - 1, -1, -1)))
    else:
        poly = via_last_ascent(swap_positions(w, ascent + 1, ascent + 2)).divided_difference(ascent + 1)
    cache[w] = poly
    return poly


def test_schubert_independent_of_reduction_path():
    for n in (2, 3, 4, 5):
        for w in itertools.permutations(range(1, n + 1)):
            assert schubert_polynomial(w) == via_last_ascent(w), w


def test_schubert_cache_stays_bounded(monkeypatch):
    n = 4
    assert oracle._schubert.cache_info().maxsize == 1 << 16
    # the cache holds the permutations callers asked for, none met on the climb
    oracle._schubert.cache_clear()
    for asked, w in enumerate(itertools.permutations(range(1, n + 1)), 1):
        schubert_polynomial(w)
        assert oracle._schubert.cache_info().currsize == asked, w
    assert asked == 24
    # a full cache evicts, and what it keeps still answers right
    cap = 5
    monkeypatch.setattr(oracle, "_schubert", functools.lru_cache(maxsize=cap)(oracle._schubert.__wrapped__))
    for w in itertools.permutations(range(1, n + 1)):
        assert schubert_polynomial(w) == via_last_ascent(w), w
        assert 0 < oracle._schubert.cache_info().currsize <= cap


def test_grassmannian_schubert_is_schur_like():
    # for a Grassmannian permutation the polynomial is symmetric in x1..xb
    w = grassmannian_permutation(2, (2, 1), 4)
    poly = schubert_polynomial(w)
    swapped = IntPolynomial(4, {(e[1], e[0], e[2], e[3]): c for e, c in poly.terms().items()})
    assert poly == swapped


def test_staircase_coefficient_basics():
    n = 4
    assert staircase_coefficient(schubert_polynomial(longest(n)), n) == 1
    with pytest.raises(ValueError):
        staircase_coefficient(IntPolynomial.one(n), n)
    with pytest.raises(ValueError):
        staircase_coefficient(
            IntPolynomial.one(n) + schubert_polynomial(longest(n)), n
        )
    assert staircase_coefficient(IntPolynomial.zero(n), n) == 0


def test_staircase_coefficient_matches_cascade_on_random_polynomials():
    # arbitrary top-degree polynomials, not only products of Schubert
    # polynomials: every exponent (x_n included) and signed coefficients
    rng = random.Random(2024)
    for n in (2, 3, 4, 5):
        top = n * (n - 1) // 2
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 12)):
                cuts = sorted(rng.randint(0, top) for _ in range(n - 1))
                exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [top]))
                terms[exps] = rng.choice((-1, 1)) * rng.randint(1, 9)
            for _ in range(rng.randint(0, 4)):
                exps = rng.sample(range(n - 1, -1, -1), n)
                terms[tuple(exps)] = rng.choice((-1, 1)) * rng.randint(1, 9)
            poly = IntPolynomial(n, terms)
            if poly.is_zero:
                continue
            assert staircase_coefficient(poly, n) == class_coefficient(poly, longest(n)), terms


def test_staircase_coefficient_sees_through_the_ideal():
    # the six-box product contains basis members from beyond S_4 whose raw
    # staircase-monomial coefficient must not be counted
    n = 4
    poly = IntPolynomial.one(n)
    for a in (1, 1, 2, 2, 3, 3):
        poly = poly * sum_of_first_variables(a, n)
    assert poly.coefficient((3, 2, 1, 0)) == 6
    assert staircase_coefficient(poly, n) == 2


def test_orthogonality_of_dual_pairs():
    n = 4
    top = n * (n - 1) // 2
    for u in itertools.permutations(range(1, n + 1)):
        for v in itertools.permutations(range(1, n + 1)):
            if length(u) + length(v) != top:
                continue
            pairing = staircase_coefficient(
                schubert_polynomial(u) * schubert_polynomial(v), n
            )
            assert pairing == (1 if v == dual(u) else 0)


def test_oracle_intersection_numbers(six_box_problem, thirteen_box_problem,
                                     seven_term_problem, five_factor_problem):
    assert oracle_intersection_number(six_box_problem) == 2
    assert oracle_intersection_number(thirteen_box_problem) == 262
    assert oracle_intersection_number(seven_term_problem) == 18
    assert oracle_intersection_number(five_factor_problem) == 4


def test_oracle_alpha_override(six_box_problem):
    problem = SchubertProblem(4, tuple((2, (1,)) for _ in range(4)))
    assert oracle_intersection_number(problem, alpha=(1, 2)) == 0
    assert oracle_intersection_number(problem, alpha=(2, 3)) == 0
    # an explicit alpha equal to the problem's own cut set
    assert oracle_intersection_number(problem, alpha=(2,)) == 2
    assert oracle_intersection_number(six_box_problem, alpha=(1, 2, 3)) == 2
    # alpha is checked exactly as the rule checks it
    for bad in ((0, 2), (2, 4), (), (1, 3)):
        with pytest.raises(ProblemError):
            oracle_intersection_number(problem, alpha=bad)
    three_boxes = SchubertProblem(4, tuple((2, (1,)) for _ in range(3)))
    with pytest.raises(DimensionMismatchError):
        oracle_intersection_number(three_boxes, alpha=(2,))
    # a strictly wider cut set is computed on, unchecked, and gives 0
    assert oracle_intersection_number(three_boxes, alpha=(1, 2)) == 0
    assert oracle_intersection_number(SchubertProblem(4, ()), alpha=(1, 2)) == 0
    # every answer above agrees with the dual-class route
    for prob, alpha in ((problem, (1, 2)), (problem, (2, 3)), (problem, (2,)),
                        (six_box_problem, (1, 2, 3)), (three_boxes, (1, 2)),
                        (SchubertProblem(4, ()), (1, 2))):
        assert oracle_intersection_number(prob, alpha) == oracle_coefficient(
            longest_with_descents_in(alpha, prob.n), prob
        ), (prob, alpha)


def test_block_staircase_route_matches_dual_class_route():
    # the point class read by pairing with x^delta_P equals the one read by
    # Poincare duality, on the problem's own cut set and on every strictly
    # wider one (where the dimension differs and both give 0)
    from conftest import all_valid_problems

    nonzero = 0
    for n in range(2, 6):
        for problem in all_valid_problems(n):
            free = [c for c in range(1, n) if c not in problem.alpha]
            for k in range(len(free) + 1):
                for extra in itertools.combinations(free, k):
                    alpha = tuple(sorted(problem.alpha + extra))
                    got = oracle_intersection_number(problem, alpha)
                    want = oracle_coefficient(longest_with_descents_in(alpha, n), problem)
                    assert got == want, (problem, alpha)
                    nonzero += got != 0
    assert nonzero == 7037


def test_oracle_coefficient_top_and_identity(six_box_problem):
    assert oracle_coefficient(longest(4), six_box_problem) == 2
    empty = SchubertProblem(3, ())
    assert oracle_coefficient(identity(3), empty) == 1
    assert oracle_coefficient((1, 3, 2), empty) == 0


def test_monk_multiply_examples():
    assert monk_multiply(identity(3), 1) == {(2, 1, 3): 1}
    assert monk_multiply(identity(3), 2) == {(1, 3, 2): 1}
    assert monk_multiply(longest(4), 2) == {}
    covers = monk_multiply((2, 1, 3, 4), 2)
    assert all(length(w) == 2 for w in covers)


def test_monk_multiply_matches_polynomial_expansion():
    for n in (3, 4):
        for w in itertools.permutations(range(1, n + 1)):
            for a in range(1, n):
                product = schubert_polynomial(w) * sum_of_first_variables(a, n)
                if length(w) + 1 > n * (n - 1) // 2:
                    continue
                assert schubert_expand(product, n) == monk_multiply(w, a), (w, a)


def test_monk_polynomial_identity_in_larger_ring():
    # over S_{n+1} Monk's formula is an exact polynomial identity
    n = 5
    for w in [(2, 4, 1, 3, 5), (3, 1, 5, 2, 4), (5, 1, 4, 2, 3)]:
        embedded = w + (n + 1,)
        for a in range(1, n + 1):
            lhs = schubert_polynomial(embedded) * sum_of_first_variables(a, n + 1)
            rhs = IntPolynomial.zero(n + 1)
            for cover in monk_multiply(embedded, a):
                rhs = rhs + schubert_polynomial(cover)
            assert lhs == rhs, (w, a)


def test_iterate_monk_examples(six_box_problem, thirteen_box_problem):
    assert iterate_monk(six_box_problem) == 2
    assert iterate_monk(thirteen_box_problem) == 262


def test_a_bruhat_reflexive_and_monk_covers():
    for n in (3, 4, 5):
        for w in itertools.permutations(range(1, n + 1)):
            for a in range(1, n):
                assert a_bruhat_leq(w, w, a)
                for cover in monk_multiply(w, a):
                    assert a_bruhat_leq(w, cover, a), (w, cover, a)
    assert a_bruhat_leq(identity(3), simple_transposition(3, 2), 2)


def test_a_bruhat_soundness_on_positive_coefficients():
    # whenever the class of w appears in (class of v) * (pullback of lam),
    # the two-part order test must hold
    n = 4
    for v in itertools.permutations(range(1, n + 1)):
        for a in range(1, n):
            for lam in partitions_in_box(a, n - a):
                if not lam:
                    continue
                problem_degree = length(v) + sum(lam)
                if problem_degree > n * (n - 1) // 2:
                    continue
                product = schubert_polynomial(v) * schubert_polynomial(
                    grassmannian_permutation(a, lam, n)
                )
                for w, coeff in schubert_expand(product, n).items():
                    assert coeff > 0
                    assert a_bruhat_leq(v, w, a), (v, w, a, lam)


def test_descent_support_check(six_box_problem, seven_term_problem):
    assert descent_support_check(six_box_problem, 0)
    for t in range(1, len(six_box_problem.terms) + 1):
        assert descent_support_check(six_box_problem, t)
    for t in range(1, len(seven_term_problem.terms) + 1):
        assert descent_support_check(seven_term_problem, t)


def test_descent_support_check_sampled_n5():
    import random

    from conftest import random_valid_problem

    rng = random.Random(55)
    for _ in range(8):
        problem = random_valid_problem(rng, 5)
        for t in range(len(problem.terms) + 1):
            assert descent_support_check(problem, t), (problem, t)


def test_top_product_prunes_only_what_the_extraction_never_reads():
    from conftest import all_valid_problems, nonzero_sample

    from lrflags.oracle import _class_product, _top_product

    problems = [p for n in range(2, 6) for p in all_valid_problems(n)]
    problems += nonzero_sample(7, 77) + nonzero_sample(8, 78)
    pruned_somewhere = False
    for problem in problems:
        n = problem.n
        words = [grassmannian_permutation(a, lam, n) for a, lam in problem.terms]
        words.append(dual(longest_with_descents_in(problem.alpha, n)))
        top, full = _top_product(IntPolynomial.one(n), words), _class_product(words, n)
        assert staircase_coefficient(top, n) == staircase_coefficient(full, n), problem
        for exps in top.terms():
            assert all(e <= d for e, d in zip(sorted(exps, reverse=True), range(n - 1, -1, -1)))
        pruned_somewhere |= len(top.terms()) < len(full.terms())
    assert pruned_somewhere


def test_restrict_shape_values():
    assert restrict_shape((), 3, 6) == ()
    assert restrict_shape((5, 3, 2), 3, 6) == (3, 2, 2)
    assert restrict_shape((4, 2), 3, 6) == (2, 1)
    with pytest.raises(ValueError):
        restrict_shape((2, 2), 3, 6)


def test_restrict_shape_matches_prefix_reversal():
    # reversing the first b values of a valley permutation with floor b
    # produces the Grassmannian permutation of the restricted shape
    for n in (3, 4, 5, 6):
        for valley in all_valley_permutations(n):
            b = valley.floor
            if b >= n:
                continue
            x = valley.word[:b][::-1] + valley.word[b:]
            if any(d > b for d in descent_set(x)):
                continue
            assert shape_of_grassmannian(x, b) == restrict_shape(valley.mu, b, n)


def test_coefficient_identity_trivial_cases():
    v = valley_from_permutation((3, 1, 2, 4), 2)
    assert coefficient_identity_check(v, v, ())
    w = valley_from_permutation((4, 2, 1, 3), 2)
    assert coefficient_identity_check(v, w, (1, 1))


def test_coefficient_identity_exhaustive_small():
    from lrflags.partitions import contains

    for n in (3, 4, 5):
        valleys = list(all_valley_permutations(n))
        for v in valleys:
            for w in valleys:
                if v.floor != w.floor:
                    continue
                a = v.floor
                if a >= n:
                    continue
                if not contains(w.mu, v.mu):
                    continue
                for lam in partitions_in_box(a, n - a):
                    assert coefficient_identity_check(v, w, lam), (v, w, lam)


def _brute_sub_flag_excess(problem):
    from lrflags.problems import dimension

    n = problem.n
    degree = {a: 0 for a in problem.alpha}
    for a, lam in problem.terms:
        degree[a] += sum(lam)
    return max(
        sum(degree[c] for c in subset) - dimension(subset, n)
        for k in range(1, len(degree) + 1)
        for subset in itertools.combinations(sorted(degree), k)
    )


def test_sub_flag_excess_is_the_largest_over_every_cut_subset():
    from conftest import all_valid_problems, random_valid_problem

    problems = [p for n in range(2, 6) for p in all_valid_problems(n)]
    rng = random.Random(22)
    problems += [random_valid_problem(rng, n) for n in range(6, 10) for _ in range(75)]
    for problem in problems:
        assert oracle._sub_flag_excess(problem) == _brute_sub_flag_excess(problem), problem


def test_sub_flag_test_drops_only_products_that_extract_zero():
    # whatever the dimension test answers 0 must extract 0 from the full
    # product too, on the problem's own cut set and on a wider one of the
    # same dimension
    from conftest import all_valid_problems, equal_size_wider_pairs

    cases = [(p, "own", p.alpha) for n in range(2, 6) for p in all_valid_problems(n)]
    cases += [(p, "wider", wider) for p, wider in equal_size_wider_pairs()]
    flagged = Counter()
    for problem, kind, alpha in cases:
        if oracle._sub_flag_excess(problem) <= 0:
            continue
        n = problem.n
        words = [grassmannian_permutation(a, lam, n) for a, lam in problem.terms]
        top = oracle._top_product(oracle._block_staircase(alpha, n), words)
        assert staircase_coefficient(top, n) == 0, (problem, alpha)
        flagged[n, kind] += 1
    # n <= 3 has no zero answer to flag: every valid problem there is
    # nonzero, and no wider cut set matches a total size; every wider pair
    # is flagged, its own cuts being the subset
    assert flagged == {(4, "own"): 24, (5, "own"): 3161, (4, "wider"): 5, (5, "wider"): 193}


FULL_FLAG_ZERO_9 = SchubertProblem(9, tuple((a, (1,)) for a in range(1, 8)) + ((8, (1,)),) * 29)


def test_sub_flag_zero_needs_no_multiplication(monkeypatch, tmp_path):
    # 29 boxes at cut 8 exceed dim Gr(8, 9) = 8; multiplying out takes minutes
    import io
    from contextlib import redirect_stdout

    from lrflags import cli

    def no_product(*args):
        raise AssertionError("the product was computed")

    monkeypatch.setattr(oracle, "_top_product", no_product)
    assert oracle_intersection_number(FULL_FLAG_ZERO_9) == 0
    path = tmp_path / "full_flag_zero.txt"
    path.write_text("n = 9\n" + "".join(f"{a}: 1\n" for a, _ in FULL_FLAG_ZERO_9.terms))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify", str(path)])
    assert (code, out.getvalue()) == (0, "rule=0 oracle=0 OK\n")

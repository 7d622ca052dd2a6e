"""Cross-route consistency properties beyond the acceptance criteria."""

import random

from conftest import (
    all_valid_problems,
    all_valley_permutations,
    longest,
    monk_shape,
    nonempty_partitions_in_box,
    nonzero_sample,
    random_valid_problem,
)

from lrflags.partitions import Staircase
from lrflags.permutations import identity, length
from lrflags.problems import SchubertProblem, dimension, refine_problem
from lrflags.filtered import (
    _pad,
    _step_shapes,
    count_filtered_tableaux,
    count_monk_chains,
    enumerate_filtered_tableaux,
    intersection_number,
    valley_coefficient,
)
from lrflags.oracle import (
    monk_multiply,
    oracle_coefficient,
    oracle_intersection_number,
    schubert_expand,
    schubert_polynomial,
)


def test_count_equals_enumeration_everywhere_small():
    for n in (2, 3, 4):
        for problem in all_valid_problems(n):
            tableaux = list(enumerate_filtered_tableaux(problem))
            assert count_filtered_tableaux(problem) == len(tableaux)
            for ft in tableaux:
                ft.validate()


def test_count_equals_enumeration_random_n5():
    rng = random.Random(501)
    for _ in range(25):
        problem = random_valid_problem(rng, 5)
        assert count_filtered_tableaux(problem) == len(list(enumerate_filtered_tableaux(problem)))


def test_intersection_number_ignores_order_of_equal_cuts(seven_term_problem):
    base = seven_term_problem
    swapped = SchubertProblem(
        base.n,
        ((2, (2,)), (2, (2,)), (3, (2, 1)), (3, (2, 2)),
         (5, (1, 1, 1)), (5, (1,)), (5, (1, 1, 1))),
    )
    assert intersection_number(swapped) == intersection_number(base) == 18


def test_refinement_invariance_exhaustive_small():
    for n in (2, 3, 4):
        for problem in all_valid_problems(n):
            base = intersection_number(problem)
            for b in range(1, n):
                if b in problem.alpha:
                    continue
                assert intersection_number(refine_problem(problem, b)) == base, (problem, b)


def test_refinement_invariance_random_n6():
    rng = random.Random(66)
    for _ in range(10):
        problem = random_valid_problem(rng, 6)
        base = intersection_number(problem)
        for b in range(1, 6):
            if b not in problem.alpha:
                assert intersection_number(refine_problem(problem, b)) == base


def _three_routes(problem):
    """The rule's count, the oracle's, and the number of tableaux listed."""
    return (
        intersection_number(problem),
        oracle_intersection_number(problem),
        len(list(enumerate_filtered_tableaux(problem))),
    )


def test_empty_term_at_an_own_cut_changes_nothing():
    # an empty content at a cut the problem already has is the class 1:
    # every route keeps the original answer
    pairs = 0
    for n in (2, 3, 4):
        for problem in all_valid_problems(n):
            base = intersection_number(problem)
            for a in problem.alpha:
                k = [c for c, _ in problem.terms].index(a)
                padded = SchubertProblem(n, problem.terms[:k] + ((a, ()),) + problem.terms[k:])
                assert _three_routes(padded) == (base,) * 3, (problem, a)
                pairs += 1
    assert pairs == 405


def _random_problem_with_empty_terms(rng, n):
    """A random valid problem with at least one empty content.  A cut that
    draws no carrier has only empty terms; empty terms fall anywhere among
    their cut's terms."""
    while True:
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        carriers = [a for a in cuts if rng.random() < 0.85]
        if not carriers:
            continue
        terms = [(a, ()) for a in cuts if a not in carriers or rng.random() < 0.3]
        room = dimension(cuts, n)
        for a in carriers + rng.choices(carriers, k=50):
            fits = [lam for lam in nonempty_partitions_in_box(a, n - a) if sum(lam) <= room]
            if fits:
                lam = rng.choice(fits)
                terms.append((a, lam))
                room -= sum(lam)
        rng.shuffle(terms)
        problem = SchubertProblem(n, tuple(sorted(terms, key=lambda t: t[0])))
        if not room and problem.alpha == tuple(cuts) and any(not lam for _, lam in terms):
            return problem


def test_empty_terms_agree_on_every_route():
    # mixed empty and non-empty contents.  A cut carried by empty terms
    # alone still widens the region, but the other steps fill only the
    # union of their own rectangles, which has fewer cells: the answer is 0
    rng = random.Random(306)
    problems = carried_by_empty = nonzero = 0
    for n in range(3, 7):
        for _ in range(150):
            problem = _random_problem_with_empty_terms(rng, n)
            rule, oracle, listed = _three_routes(problem)
            assert rule == oracle == listed, problem
            problems += 1
            nonzero += rule > 0
            if any(not any(lam for c, lam in problem.terms if c == a) for a in problem.alpha):
                assert rule == 0, problem
                carried_by_empty += 1
    assert (problems, carried_by_empty, nonzero) == (600, 261, 246)


def test_box_specialization_chains_equal_rule():
    # every all-box problem with n <= 5: chain count equals the rule count,
    # and through n = 4 the Monk iteration over permutations as well
    from lrflags.oracle import iterate_monk

    for n in (2, 3, 4, 5):
        for problem in all_valid_problems(n):
            if not problem.is_all_boxes():
                continue
            rule = intersection_number(problem)
            assert count_monk_chains(problem) == rule
            if n <= 4:
                assert iterate_monk(problem) == rule


def test_rule_matches_oracle_on_nonzero_n7_sample():
    # beyond the acceptance sweep: taller ambients, biased to problems
    # whose answer is at least 2 so the agreement is informative
    for n, seed in ((7, 77), (8, 78), (9, 79), (10, 80)):
        for problem in nonzero_sample(n, seed):
            assert oracle_intersection_number(problem) == intersection_number(problem), problem


def test_valley_matches_oracle_even_below_floor():
    # the valley-coefficient statement assumes floors at or above the last
    # cut, but the geometry makes the counts agree for lower floors too
    for n in (3, 4):
        from conftest import all_contents

        for valley in all_valley_permutations(n):
            if valley.length == 0:
                continue
            for terms in all_contents(n, valley.length, n - 1):
                problem = SchubertProblem(n, terms)
                assert valley_coefficient(valley, problem) == oracle_coefficient(
                    valley.word, problem
                ), (valley.word, valley.floor, terms)


def test_point_class_equals_valley_of_longest_after_full_refinement():
    # refining to the full flag manifold and asking for the longest
    # permutation's class reproduces the intersection number
    from lrflags.permutations import valley_from_permutation
    from lrflags.problems import refine_to_full

    for n in (2, 3, 4):
        for problem in all_valid_problems(n):
            full = refine_to_full(problem)
            w0 = valley_from_permutation(longest(n), n - 1 if n > 1 else 1)
            assert valley_coefficient(w0, full) == intersection_number(problem), problem


def test_grading_and_nonnegativity_of_expansions():
    import itertools

    n = 4
    for u in itertools.permutations(range(1, n + 1)):
        for v in itertools.permutations(range(1, n + 1)):
            if length(u) + length(v) > n * (n - 1) // 2 or length(u) > 3:
                continue
            expansion = schubert_expand(
                schubert_polynomial(u) * schubert_polynomial(v), n
            )
            for w, coeff in expansion.items():
                assert coeff > 0
                assert length(w) == length(u) + length(v)


def test_monk_shape_cover_correspondence():
    # over every state reachable in the 262 problem: the shaped covers of a
    # shaped permutation are exactly the one-box extensions of its shape
    problem = SchubertProblem(6, tuple((a, (1,)) for a in (2,) * 4 + (3,) * 5 + (4,) * 4))
    alpha, n = problem.alpha, problem.n
    staircase = Staircase(alpha, n)
    target = staircase.embed(staircase.rows)
    reachable = {identity(n)}
    for a, _ in problem.terms:
        nxt = set()
        for w in reachable:
            shape = monk_shape(w, alpha, n)
            covers = monk_multiply(w, a)
            shaped_covers = sorted(
                monk_shape(u, alpha, n).embedded
                for u in covers
                if monk_shape(u, alpha, n) is not None
            )
            if shape is None:
                assert shaped_covers == []
            else:
                expected = sorted(
                    _step_shapes(shape.embedded, a, (1,), staircase, target, (0,) * len(target))
                )
                assert shaped_covers == expected, (w, a)
            nxt.update(covers)
        reachable = nxt


def test_monk_shape_none_propagates_along_chains(six_box_problem):
    # once a chain from the identity leaves shape territory it never returns;
    # this is a statement about reachable states, not arbitrary permutations
    problem = six_box_problem
    alpha, n = problem.alpha, problem.n
    reachable = {identity(n)}
    for a, _ in problem.terms:
        nxt = set()
        for w in reachable:
            covers = set(monk_multiply(w, a))
            if monk_shape(w, alpha, n) is None:
                assert all(monk_shape(u, alpha, n) is None for u in covers)
            nxt.update(covers)
        reachable = nxt


def test_oracle_agrees_on_reference_problems(six_box_problem, seven_term_problem,
                                         five_factor_problem):
    for problem in (six_box_problem, seven_term_problem, five_factor_problem):
        assert intersection_number(problem) == oracle_intersection_number(problem)


def test_enumeration_chain_prefix_shapes_are_valid(five_factor_problem):
    staircase = five_factor_problem.staircase
    for ft in enumerate_filtered_tableaux(five_factor_problem):
        for emb in ft.chain:
            assert staircase.is_valid_embedded(emb)

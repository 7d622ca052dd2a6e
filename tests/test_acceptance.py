"""Acceptance criteria: every published number, by every route, on a clock.

Each test prints one ``ACCEPTANCE <k> ... PASS`` line (visible with
``pytest -s`` or in the captured output).  Failures raise like any other
test.  Criterion 4's five-factor example lives on the cut set
``{1,...,5}`` of n=6 with total degree 15; no valid five-term problem
on n=5 over the cut set {1,...,4} even has intersection number 4, so
that is the only possible reading.
"""

import io
import random
import time
from collections import Counter
from contextlib import redirect_stdout

import pytest

from conftest import (
    all_contents,
    all_valid_problems,
    all_valley_permutations,
    random_valid_problem,
    sum_of_first_variables,
)

from lrflags import cli
from lrflags.permutations import length
from lrflags.partitions import Shape, Staircase, partitions_in_box
from lrflags.problems import SchubertProblem, refine_problem
from lrflags.filtered import (
    count_monk_chains,
    enumerate_filtered_tableaux,
    intersection_number,
    valley_coefficient,
)
from lrflags.oracle import (
    descent_support_check,
    iterate_monk,
    monk_multiply,
    oracle_coefficient,
    oracle_intersection_number,
    schubert_expand,
    schubert_polynomial,
)
from lrflags.tableaux import SkewShape, count_lr_tableaux, enumerate_lr_tableaux


def report(k, name, elapsed, limit):
    assert elapsed < limit, f"criterion {k} took {elapsed:.2f}s, limit {limit}s"
    print(f"ACCEPTANCE {k} {name}: PASS ({elapsed:.2f}s < {limit}s)")


def test_criterion_1_six_box_all_routes(six_box_problem):
    start = time.monotonic()
    assert intersection_number(six_box_problem) == 2
    assert count_monk_chains(six_box_problem) == 2
    assert iterate_monk(six_box_problem) == 2
    assert oracle_intersection_number(six_box_problem) == 2
    report(1, "six boxes on n=4 give 2 by all four routes", time.monotonic() - start, 1.0)


def test_criterion_2_thirteen_boxes_all_routes(thirteen_box_problem):
    start = time.monotonic()
    assert intersection_number(thirteen_box_problem) == 262
    assert count_monk_chains(thirteen_box_problem) == 262
    assert iterate_monk(thirteen_box_problem) == 262
    assert oracle_intersection_number(thirteen_box_problem) == 262
    report(2, "thirteen boxes on n=6 give 262 by all four routes", time.monotonic() - start, 30.0)


def test_criterion_3_eighteen_by_rule_oracle_and_cli(seven_term_problem, tmp_path):
    start = time.monotonic()
    assert intersection_number(seven_term_problem) == 18
    assert oracle_intersection_number(seven_term_problem) == 18
    path = tmp_path / "p18.txt"
    path.write_text("n = 7\n2: 2\n2: 2\n3: 2,2\n3: 2,1\n5: 1\n5: 1,1,1\n5: 1,1,1\n")
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["enumerate", str(path)])
    assert code == 0
    lines = buffer.getvalue().splitlines()
    assert sum(1 for l in lines if l.startswith("tableau ")) == 18
    assert lines[-1] == "count 18"
    report(3, "seven-term problem on n=7 gives 18, CLI emits 18 blocks", time.monotonic() - start, 60.0)


def test_criterion_4_five_factor_example(five_factor_problem):
    start = time.monotonic()
    tableaux = list(enumerate_filtered_tableaux(five_factor_problem))
    assert len(tableaux) == 4
    assert intersection_number(five_factor_problem) == 4
    per_chain = Counter(ft.chain for ft in tableaux)
    assert len(per_chain) == 3
    assert sorted(per_chain.values()) == [1, 1, 2]
    assert oracle_intersection_number(five_factor_problem) == 4
    report(4, "five-factor example gives 4 over 3 chains, one with 2 fillings",
           time.monotonic() - start, 5.0)


def test_criterion_5_oracle_equivalence_sweep():
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for problem in all_valid_problems(n):
            assert intersection_number(problem) == oracle_intersection_number(problem), problem
            checked += 1
    assert checked >= 100
    for n, seed in ((5, 1105), (6, 1106)):
        rng = random.Random(seed)
        for _ in range(200):
            problem = random_valid_problem(rng, n)
            assert intersection_number(problem) == oracle_intersection_number(problem), problem
            checked += 1
    report(5, f"rule == oracle on {checked} problems (n<=4 exhaustive, 200 each at n=5,6)",
           time.monotonic() - start, 600.0)


def test_criterion_6_valley_coefficients_match_oracle():
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for valley in all_valley_permutations(n):
            if valley.length == 0:
                continue
            for terms in all_contents(n, valley.length, min(valley.floor, n - 1)):
                problem = SchubertProblem(n, terms)
                assert valley_coefficient(valley, problem) == oracle_coefficient(
                    valley.word, problem
                ), (valley.word, valley.floor, terms)
                checked += 1
    rng = random.Random(65)
    sampled = 0
    while sampled < 200:
        n = 5
        valleys = [v for v in all_valley_permutations(n) if 0 < v.length <= 8]
        valley = rng.choice(valleys)
        pool = all_contents(n, valley.length, min(valley.floor, n - 1))
        if not pool:
            continue
        terms = rng.choice(pool)
        problem = SchubertProblem(n, terms)
        assert valley_coefficient(valley, problem) == oracle_coefficient(valley.word, problem)
        sampled += 1
    report(6, f"valley coefficients match the oracle ({checked} exhaustive + {sampled} sampled)",
           time.monotonic() - start, 600.0)


def test_criterion_7_structural_suites(tmp_path, six_box_problem, seven_term_problem):
    start = time.monotonic()

    # (a) LR enumerator against the naive filter
    from test_tableaux import brute_force_lr

    for outer, inner in [((3, 2, 1), (2, 1)), ((4, 3), (2,)), ((3, 3, 1), (2,)),
                         ((2, 2, 2), (1,)), ((4, 2, 1), ())]:
        shape = SkewShape(outer, inner)
        for lam in partitions_in_box(shape.size, shape.size):
            if sum(lam) != shape.size:
                continue
            fast = enumerate_lr_tableaux(shape, lam)
            slow = brute_force_lr(shape, lam)
            assert [t.rows for t in fast] == [t.rows for t in slow]
            # the listing and the count read the same backtracker's leaves
            assert count_lr_tableaux(outer, inner, lam) == len(slow)

    # (b) Monk's formula against polynomial products, n <= 5
    import itertools

    for n in (2, 3, 4, 5):
        top = n * (n - 1) // 2
        for w in itertools.permutations(range(1, n + 1)):
            for a in range(1, n):
                if length(w) + 1 > top:
                    continue
                product = schubert_polynomial(w) * sum_of_first_variables(a, n)
                assert schubert_expand(product, n) == monk_multiply(w, a), (w, a)

    # (c) order soundness on every positive coefficient, n <= 4
    from lrflags.oracle import a_bruhat_leq
    from lrflags.permutations import grassmannian_permutation

    for n in (3, 4):
        for v in itertools.permutations(range(1, n + 1)):
            for a in range(1, n):
                for lam in partitions_in_box(a, n - a):
                    if not lam or length(v) + sum(lam) > n * (n - 1) // 2:
                        continue
                    product = schubert_polynomial(v) * schubert_polynomial(
                        grassmannian_permutation(a, lam, n)
                    )
                    for w in schubert_expand(product, n):
                        assert a_bruhat_leq(v, w, a)

    # (d) refinement invariance, exhaustive through n = 5
    for n in (2, 3, 4, 5):
        for problem in all_valid_problems(n):
            base = intersection_number(problem)
            for b in range(1, n):
                if b not in problem.alpha:
                    assert intersection_number(refine_problem(problem, b)) == base

    # (e) descent support on every prefix of the worked problems and of
    # every valid problem with n <= 4
    for problem in [six_box_problem, seven_term_problem]:
        for t in range(len(problem.terms) + 1):
            assert descent_support_check(problem, t)
    for n in (2, 3, 4):
        for problem in all_valid_problems(n):
            for t in range(len(problem.terms) + 1):
                assert descent_support_check(problem, t)

    # (f) explicit superset cut sets vanish
    quad = SchubertProblem(4, tuple((2, (1,)) for _ in range(4)))
    assert intersection_number(quad, alpha=(1, 2)) == 0
    assert oracle_intersection_number(quad, alpha=(1, 2)) == 0
    assert intersection_number(quad, alpha=(1, 2, 3)) == 0
    assert list(enumerate_filtered_tableaux(quad, Shape.full(Staircase((1, 2), 4)))) == []

    # (g) byte-identical output across --threads settings
    path = tmp_path / "p18.txt"
    path.write_text("n = 7\n2: 2\n2: 2\n3: 2,2\n3: 2,1\n5: 1\n5: 1,1,1\n5: 1,1,1\n")
    outputs = []
    for k in ("1", "8"):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(["enumerate", "--threads", k, str(path)])
        assert code == 0
        outputs.append(buffer.getvalue())
    assert outputs[0] == outputs[1]

    report(7, "structural property suites", time.monotonic() - start, 600.0)


def length(w):
    from lrflags.permutations import length

    return length(w)

"""Shared fixtures: the worked examples, problem generators and the
permutation, polynomial and shape helpers only tests call."""

import random
from itertools import combinations, product

import pytest

from lrflags.filtered import intersection_number
from lrflags.partitions import Shape, Staircase, partitions_in_box
from lrflags.permutations import ValleyPermutation, identity, swap_positions
from lrflags.polynomials import IntPolynomial
from lrflags.problems import SchubertProblem, dimension


@pytest.fixture
def six_box_problem():
    """n=4, six single boxes at cuts 1,1,2,2,3,3; intersection number 2."""
    return SchubertProblem(4, tuple((a, (1,)) for a in (1, 1, 2, 2, 3, 3)))


@pytest.fixture
def thirteen_box_problem():
    """n=6, thirteen single boxes at cuts 2^4 3^5 4^4; intersection number 262."""
    return SchubertProblem(6, tuple((a, (1,)) for a in (2,) * 4 + (3,) * 5 + (4,) * 4))


@pytest.fixture
def seven_term_problem():
    """n=7 on cuts {2,3,5}; intersection number 18."""
    return SchubertProblem(
        7,
        ((2, (2,)), (2, (2,)), (3, (2, 2)), (3, (2, 1)),
         (5, (1,)), (5, (1, 1, 1)), (5, (1, 1, 1))),
    )


@pytest.fixture
def five_factor_problem():
    """n=6 on cuts {1,...,5}, all factors of degree three; intersection number 4."""
    return SchubertProblem(
        6,
        ((1, (3,)), (2, (3,)), (3, (2, 1)), (4, (1, 1, 1)), (5, (1, 1, 1))),
    )


def nonempty_partitions_in_box(rows, cols):
    return [p for p in partitions_in_box(rows, cols) if p]


def random_valid_problem(rng: random.Random, n: int) -> SchubertProblem:
    """A random valid problem: alpha random, total size exactly dim(alpha),
    every cut represented at least once."""
    while True:
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        target = dimension(cuts, n)
        terms = []
        total = 0
        for a in cuts:
            lam = rng.choice(nonempty_partitions_in_box(a, n - a))
            terms.append((a, lam))
            total += sum(lam)
        attempts = 0
        while total < target and attempts < 50:
            a = rng.choice(cuts)
            fits = [p for p in nonempty_partitions_in_box(a, n - a) if sum(p) <= target - total]
            if fits:
                lam = rng.choice(fits)
                terms.append((a, lam))
                total += sum(lam)
            attempts += 1
        if total == target:
            return SchubertProblem(n, tuple(sorted(terms, key=lambda t: t[0])))


def nonzero_sample(n: int, seed: int, count: int = 8) -> list[SchubertProblem]:
    """The first ``count`` random valid problems at ``n`` whose rule answer
    is at least 2, so that agreement on them is informative; at most 400
    draws."""
    rng = random.Random(seed)
    found = []
    for _ in range(400):
        problem = random_valid_problem(rng, n)
        if intersection_number(problem) >= 2:
            found.append(problem)
            if len(found) == count:
                return found
    raise AssertionError(f"only {len(found)} of {count} problems at n={n} have answer >= 2")


def all_contents(n: int, total: int, max_cut: int) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
    """Every sorted list of terms with non-empty contents of given total size,
    cuts at most ``max_cut``; duplicates-as-multisets appear once."""
    pools = {a: nonempty_partitions_in_box(a, n - a) for a in range(1, max_cut + 1)}
    out: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
    acc: list[tuple[int, tuple[int, ...]]] = []

    def walk(min_term, remaining):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for a in range(min_term[0], max_cut + 1):
            for lam in pools[a]:
                if sum(lam) > remaining:
                    continue
                if (a, lam) < min_term:
                    continue
                acc.append((a, lam))
                walk((a, lam), remaining - sum(lam))
                acc.pop()

    walk((1, ()), total)
    return out


def all_valid_problems(n: int) -> list[SchubertProblem]:
    """Every problem with non-empty contents over every cut set of [n-1],
    with total content size exactly the dimension."""
    problems = []
    for size in range(1, n):
        for cuts in combinations(range(1, n), size):
            target = dimension(cuts, n)
            pool = {a: nonempty_partitions_in_box(a, n - a) for a in cuts}
            acc: list[tuple[int, tuple[int, ...]]] = []

            def walk(i: int, idx: int, covered: bool, total: int) -> None:
                if i == len(cuts):
                    if total == target:
                        problems.append(SchubertProblem(n, tuple(acc)))
                    return
                if covered:
                    walk(i + 1, 0, False, total)
                choices = pool[cuts[i]]
                for j in range(idx, len(choices)):
                    lam = choices[j]
                    if total + sum(lam) > target:
                        continue
                    acc.append((cuts[i], lam))
                    walk(i, j, True, total + sum(lam))
                    acc.pop()

            walk(0, 0, False, 0)
    return problems


def strictly_wider(alpha, n):
    """Every cut set of [n-1] that strictly contains ``alpha``."""
    rest = [c for c in range(1, n) if c not in alpha]
    for k in range(1, len(rest) + 1):
        for extra in combinations(rest, k):
            yield tuple(sorted(set(alpha) | set(extra)))


def equal_size_wider_pairs():
    """Pairs ``(problem, wider)`` with n = 3..5: one term per cut of
    ``own``, empty contents allowed, and a strictly wider cut set whose
    dimension equals the problem's total size."""
    for n in range(3, 6):
        for size in range(1, n):
            for own in combinations(range(1, n), size):
                boxes = [partitions_in_box(a, n - a) for a in own]
                for lams in product(*boxes):
                    problem = SchubertProblem(n, tuple(zip(own, lams)))
                    for wider in strictly_wider(own, n):
                        if dimension(wider, n) == problem.total_size:
                            yield problem, wider


def longest(n):
    """The longest permutation ``n, n-1, ..., 1``."""
    return tuple(range(n, 0, -1))


def simple_transposition(n, a):
    """The simple transposition ``s_a`` of ``S_n``."""
    return swap_positions(identity(n), a, a + 1)


def all_valley_permutations(n):
    """All valley permutations of ``{1..n}``, one per (shape, floor) pair."""
    for a in range(1, n + 1):
        for prefix in combinations(range(1, n + 1), a):
            tail = sorted(set(range(1, n + 1)) - set(prefix))
            yield ValleyPermutation(prefix[::-1] + tuple(tail), a)


def sum_of_first_variables(a, n):
    """``x1 + ... + xa``: the degree-one class pulled back from the
    ``a``-th Grassmannian."""
    poly = IntPolynomial.zero(n)
    for i in range(1, a + 1):
        poly = poly + IntPolynomial.variable(i, n)
    return poly


def monk_shape(w, alpha, n):
    """The shape matched to the permutation ``w`` of ``1..n`` in a chain of
    single-box multiplications.

    Column ``j`` of the shape (grid column ``j - min(alpha) + 1``) must
    hold ``#{k <= j : w(k) > w(j+1)}`` cells for every
    ``j in {min(alpha), ..., n-1}``; returns ``None`` when no shape in
    the region does.
    """
    staircase = Staircase(tuple(alpha), n)
    counts = [sum(1 for k in range(j) if w[k] > w[j]) for j in range(staircase.alpha[0], n)]
    # cells of column c occupy the topmost rows among those whose span
    # includes c; upward closure forces exactly rows 1..count
    emb = [0] * staircase.num_rows
    for c0, cnt in enumerate(counts):
        for i in range(cnt):
            if i >= staircase.num_rows or staircase.offsets[i] > c0:
                return None
            emb[i] = max(emb[i], c0 + 1)
    trimmed = tuple(emb)
    while trimmed and trimmed[-1] == 0:
        trimmed = trimmed[:-1]
    if not staircase.is_valid_embedded(trimmed):
        return None
    if staircase.column_counts(trimmed) != tuple(counts):
        return None
    return Shape(staircase.extract(trimmed), staircase)

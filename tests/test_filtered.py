import hashlib
import random
from collections import Counter
from itertools import combinations, product

import pytest

from conftest import all_valley_permutations, longest, monk_shape

from lrflags.partitions import Shape, Staircase, partitions_in_box
from lrflags.permutations import identity, valley_from_permutation, valley_from_shape
from lrflags.problems import DimensionMismatchError, ProblemError, SchubertProblem
from lrflags.filtered import (
    count_filtered_tableaux,
    count_monk_chains,
    enumerate_filtered_tableaux,
    intersection_number,
    valley_coefficient,
)
from lrflags.oracle import iterate_monk, monk_multiply, oracle_coefficient


def test_six_box_problem_counts(six_box_problem):
    assert intersection_number(six_box_problem) == 2
    assert count_monk_chains(six_box_problem) == 2
    tableaux = list(enumerate_filtered_tableaux(six_box_problem))
    assert len(tableaux) == 2
    chains = {ft.shapes for ft in tableaux}
    assert chains == {
        ((), (1,), (2,), (2, 1), (3, 1), (3, 2), (3, 2, 1)),
        ((), (1,), (2,), (3,), (3, 1), (3, 2), (3, 2, 1)),
    }


def test_enumeration_is_canonical_and_validates(six_box_problem, seven_term_problem):
    for problem in (six_box_problem, seven_term_problem):
        tableaux = list(enumerate_filtered_tableaux(problem))
        keys = [(ft.chain, tuple(f.entry_sequence() for f in ft.fillings)) for ft in tableaux]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for ft in tableaux:
            ft.validate()


def test_enumeration_is_lazy(six_box_problem):
    tableaux = enumerate_filtered_tableaux(six_box_problem)
    assert iter(tableaux) is tableaux
    assert next(tableaux).chain[0] == ()


def test_enumerate_lists_each_edge_once(monkeypatch, six_box_problem, seven_term_problem):
    # each step's fillings are listed once, not once for the multiplicity
    # and again for the output
    import lrflags.filtered
    import lrflags.tableaux

    original = lrflags.tableaux._lr_rows
    for problem in (six_box_problem, seven_term_problem):
        expected = list(enumerate_filtered_tableaux(problem))
        listed = Counter()

        def recorder(outer, inner, lam):
            listed[outer, inner, tuple(lam)] += 1
            return original(outer, inner, lam)

        with monkeypatch.context() as patch:
            patch.setattr(lrflags.tableaux, "_lr_rows", recorder)
            patch.setattr(lrflags.filtered, "_lr_rows", recorder)
            assert list(enumerate_filtered_tableaux(problem)) == expected
        assert listed and max(listed.values()) == 1, listed.most_common(3)


def test_enumerate_lists_only_live_edges(
    monkeypatch, six_box_problem, seven_term_problem, thirteen_box_problem, five_factor_problem
):
    # enumerate weighs no edge apart from listing it: it never asks
    # count_lr_tableaux, lists each edge at most once, and only edges into a
    # shape with a path of nonzero edges to the target.  An edge whose zero
    # the dominance test misses is learned by listing it, and a shape
    # reached only through such edges can still complete to the target, so
    # listings may exceed the edges tableaux pass through.  count weighs
    # the same live edges in the same backward fold: each non-Pieri edge
    # enumerate lists, once, on the same carried skew
    import lrflags.filtered as filtered

    calls, listed, weighed = Counter(), Counter(), Counter()
    original_count, original_list = filtered.count_lr_tableaux, filtered._lr_rows
    original_step_shapes = filtered._step_shapes

    def counting(outer, inner, lam):
        weighed[outer, inner, tuple(lam)] += 1
        return original_count(outer, inner, lam)

    def listing(outer, inner, lam):
        listed[outer, inner, tuple(lam)] += 1
        return original_list(outer, inner, lam)

    def proposing(*args):
        proposed = original_step_shapes(*args)
        calls["proposed"] += len(proposed)
        return proposed

    monkeypatch.setattr(filtered, "count_lr_tableaux", counting)
    monkeypatch.setattr(filtered, "_lr_rows", listing)
    monkeypatch.setattr(filtered, "_step_shapes", proposing)
    # on Gr(3, 7) a shape's only edges into shapes that complete to the
    # target have no filling, though the dominance test misses it
    gr37 = SchubertProblem(7, ((3, (2, 1)), (3, (1,)), (3, (3, 3, 1)), (3, (1,))))
    totals = []
    for problem in (six_box_problem, seven_term_problem, thirteen_box_problem, five_factor_problem, gr37):
        calls.clear()
        listed.clear()
        weighed.clear()
        tableaux = list(enumerate_filtered_tableaux(problem))
        live = {(k, ft.chain[k], ft.chain[k + 1]) for ft in tableaux for k in range(len(problem.terms))}
        assert not weighed
        assert max(listed.values()) == 1, listed.most_common(3)
        assert calls["proposed"] >= sum(listed.values()) >= len(live)
        totals.append((calls["proposed"], sum(listed.values()), len(live)))
        target = Shape.full(problem.staircase).embedded
        completing = _completing(_weighed(problem.terms, problem.staircase, target), target)
        assert {outer for outer, _, _ in listed} <= completing
        assert count_filtered_tableaux(problem) == len(tableaux)
        assert set(weighed) == {key for key in listed if not filtered._pieri(key[2])}
        assert all(times == 1 for times in weighed.values()), weighed.most_common(3)
    # (proposals, listings, edges tableaux pass through): the 18 problem
    # lists 2 edges no tableau passes through, one into (5, 2, 2) whose
    # (2, 2) step has no filling, and the one out of that shape; Gr(3, 7)
    # lists one edge with no filling
    assert totals == [(8, 8, 8), (25, 23, 21), (42, 42, 42), (9, 9, 9), (8, 7, 6)]


def _weighed(terms, region, target):
    """Every level of ``_shape_graph``, each edge with the multiplicity
    ``count_lr_tableaux`` gives its step; edges of multiplicity 0 dropped."""
    from lrflags.filtered import _shape_graph, _step_inner
    from lrflags.tableaux import count_lr_tableaux

    levels = []
    for (_, lam), step in zip(terms, _shape_graph(terms, region, target)):
        weighed = {}
        for inner, succ in step.items():
            mults = [count_lr_tableaux(outer, _step_inner(outer, inner, region), lam) for outer, _ in succ]
            weighed[inner] = [(outer, m) for (outer, _), m in zip(succ, mults) if m]
        levels.append(weighed)
    return levels


def _reference_levels(terms, region, target):
    """The shape graph as a forward walk that weighs every edge builds it:
    from the empty shape through nonzero edges only, each level's inner
    shapes in the order their first edge reached them."""
    level = [()]
    for step in _weighed(terms, region, target):
        kept = {inner: step[inner] for inner in level}
        yield kept
        level = dict.fromkeys(outer for succ in kept.values() for outer, _ in succ)


def _completing(levels, target):
    """The shapes, at any level past the first, with a path of nonzero
    edges to ``target``."""
    live, seen = {target}, set()
    for step in reversed(levels):
        seen |= live
        live = {inner for inner, succ in step.items() if any(outer in live for outer, _ in succ)}
    return seen


def test_count_weighs_only_live_edges(monkeypatch, seven_term_problem, five_factor_problem):
    # count_lr_tableaux runs at most once per edge, and only on edges into a
    # shape with a path of nonzero edges to the target; the backward fold
    # agrees with a forward one over the reference levels
    import lrflags.filtered as filtered
    from conftest import random_valid_problem

    weighed = []
    original = filtered.count_lr_tableaux

    def counting(outer, inner, lam):
        weighed.append((outer, inner))
        return original(outer, inner, lam)

    monkeypatch.setattr(filtered, "count_lr_tableaux", counting)
    rng = random.Random(2401)
    problems = [seven_term_problem, five_factor_problem]
    problems += [random_valid_problem(rng, n) for n in (8, 9) for _ in range(12)]
    totals = []
    for problem in problems:
        weighed.clear()
        answer = count_filtered_tableaux(problem)
        region = problem.staircase
        target = Shape.full(region).embedded
        assert len(set(weighed)) == len(weighed)
        assert {outer for outer, _ in weighed} <= _completing(_weighed(problem.terms, region, target), target)
        ways = {(): 1}
        for step in _reference_levels(problem.terms, region, target):
            forward = Counter()
            for inner, succ in step.items():
                for outer, mult in succ:
                    forward[outer] += ways[inner] * mult
            ways = forward
        assert answer == ways[target]
        totals.append(len(weighed))
    # count_lr_tableaux calls per problem: the 18 problem weighs 12 edges,
    # one of them out of a shape reached only through an edge of
    # multiplicity 0; all-box and Pieri-only problems weigh none
    assert totals[:2] == [12, 3]
    assert totals[2:] == [0, 3, 0, 1, 0, 10, 0, 15, 0, 0, 0, 0, 3, 0, 2, 0, 0, 0, 8, 0, 0, 0, 2, 0]


def test_forward_dominance_test_matches_the_public_predicate(
    monkeypatch, seven_term_problem, five_factor_problem
):
    # the forward pass tests each non-Pieri proposal once, on the skew
    # _step_inner gives (not normalized: it may end in zero rows), with the
    # core that does not normalize; that must agree with the public,
    # normalizing dominance_zero, and the kept edges carry the same skew
    import lrflags.filtered as filtered
    from conftest import random_valid_problem
    from lrflags.filtered import _pieri, _shape_graph, _step_inner
    from lrflags.tableaux import dominance_zero

    proposed, tested = [], []
    original_step_shapes, original_zero = filtered._step_shapes, filtered._dominance_zero

    def proposing(inner, *args):
        succ = original_step_shapes(inner, *args)
        proposed.append((inner, succ))
        return succ

    def testing(outer, skew, lam):
        tested.append((outer, skew, lam))
        return original_zero(outer, skew, lam)

    monkeypatch.setattr(filtered, "_step_shapes", proposing)
    monkeypatch.setattr(filtered, "_dominance_zero", testing)
    rng = random.Random(2501)
    problems = [seven_term_problem, five_factor_problem]
    problems += [random_valid_problem(rng, n) for n in (7, 8, 9) for _ in range(12)]
    calls = zeros = trailing = 0
    for problem in problems:
        region, target = problem.staircase, Shape.full(problem.staircase).embedded
        tested.clear()
        expected_tests = []
        for (_, lam), step in zip(problem.terms, _shape_graph(problem.terms, region, target)):
            for inner, succ in proposed:
                if _pieri(lam):
                    assert step[inner] == [(outer, None) for outer in succ]
                    continue
                skews = [_step_inner(outer, inner, region) for outer in succ]
                expected_tests += [(outer, skew, lam) for outer, skew in zip(succ, skews)]
                kept = [(outer, skew) for outer, skew in zip(succ, skews) if not dominance_zero(outer, skew, lam)]
                assert step[inner] == kept
                zeros += len(succ) - len(kept)
                trailing += sum(skew[-1] == 0 for skew in skews)
            proposed.clear()
        assert tested == expected_tests
        calls += len(tested)
    # non-Pieri proposals tested, proved zero, and tested on a skew that
    # ends in a zero row
    assert (calls, zeros, trailing) == (135, 40, 41)


def _hosted(emb, target, off, later, alpha0):
    """Whether every target cell missing from ``emb`` fits a step at a cut
    in ``later``: one at least the cell's row, whose left wall (cut minus
    ``alpha0``) lies left of the cell's grid column."""
    padded = emb + (0,) * (len(target) - len(emb))
    return all(
        any(r <= cut and cut - alpha0 < c for cut in later)
        for r, (e, t, o) in enumerate(zip(padded, target, off), 1)
        for c in range(max(e, o) + 1, t + 1)
    )


def _strip(rows):
    rows = list(rows)
    while rows and rows[-1] == 0:
        rows.pop()
    return tuple(rows)


def _shapes_in(staircase, cap, inner=()):
    """Every embedded shape of the region containing ``inner``, with row
    ``i`` ending by ``cap[i]``."""
    nu = inner + (0,) * (len(cap) - len(inner))
    ends = [
        [0, *range(off + 1, top + 1)] if not v else range(v, top + 1)
        for off, top, v in zip(staircase.offsets, cap, nu)
    ]
    return [e for e in map(_strip, product(*ends)) if staircase.is_valid_embedded(e)]


def _random_shape(rng, staircase, inner=()):
    """A random embedded shape of the region containing ``inner``, each row
    ending at the largest of three uniform draws, so that rows often end
    where the row above does."""
    nu = inner + (0,) * (staircase.num_rows - len(inner))
    rows, prev = [], staircase.width
    for off, v in zip(staircase.offsets, nu):
        ends = ([] if v else [0]) + list(range(max(v, off + 1), prev + 1))
        prev = max(rng.choice(ends) for _ in range(3))
        rows.append(prev)
    return _strip(rows)


def _floors(alpha, n, target, a):
    """No floor, then the floor of each next cut ``b``, as a problem's later
    terms cover every cut from ``b`` on, and of the last step (no later
    cut), each with its later cuts (None for no floor)."""
    floors = [((0,) * len(target), None)]
    for b in [c for c in alpha if c >= a] + [n]:
        later = [c for c in alpha if c >= b]
        floor = tuple(min([t] + [c - alpha[0] for c in later if c > i]) for i, t in enumerate(target))
        floors.append((floor, later))
    return floors


def _contents(size):
    """A one-row, a one-column and a mixed content of ``size``, where they differ."""
    candidates = [(size,), (1,) * size, (size - size // 2, size // 2)]
    return list(dict.fromkeys(lam for lam in candidates if 0 not in lam))


def _new_cells(emb, inner, off):
    """The cells ``(row, grid column)`` a step from ``inner`` to ``emb`` adds."""
    padded = inner + (0,) * (len(emb) - len(inner))
    return [(r, c) for r, (e, v, o) in enumerate(zip(emb, padded, off)) for c in range(max(v, o) + 1, e + 1)]


def _may_hold(cells, lam):
    """Whether the new cells pass the caps a content ``lam`` puts on a step:
    no row longer than ``lam[0]`` and no column taller than ``len(lam)``
    (for a one-column content a vertical strip, for a one-row content a
    horizontal strip)."""
    widest_row = max(Counter(r for r, _ in cells).values(), default=0)
    tallest_column = max(Counter(c for _, c in cells).values(), default=0)
    return widest_row <= (lam[0] if lam else 0) and tallest_column <= len(lam)


def test_step_shapes_matches_brute_force():
    # every embedded row end a step could leave, filtered by the step's
    # definition: a shape in the region, containing the inner shape, new
    # cells only in rows 1..a and right of grid column a - min(alpha); with
    # a floor from the later cuts, also every target cell left empty must
    # fit a later step, at a cut c' >= its row with c' - min(alpha) < its
    # column; and the content's caps on the new cells (_may_hold)
    from lrflags.filtered import _step_shapes

    calls = 0
    for n in range(2, 6):
        for r in range(1, n):
            for alpha in combinations(range(1, n), r):
                staircase = Staircase(alpha, n)
                off = staircase.offsets
                full = staircase.embed(staircase.rows)
                for target in _shapes_in(staircase, full):
                    cap = target + (0,) * (len(full) - len(target))
                    for inner in _shapes_in(staircase, cap):
                        nu = inner + (0,) * (len(target) - len(inner))
                        grown = [
                            (sum(staircase.extract(emb)) - sum(staircase.extract(inner)), emb)
                            for emb in _shapes_in(staircase, target)
                            if all(e >= v for e, v in zip(emb + (0,) * len(nu), nu))
                        ]
                        for a in alpha:
                            legal = [
                                (size, emb)
                                for size, emb in grown
                                if all(
                                    i < a and max(v, off[i]) >= a - alpha[0]
                                    for i, (e, v) in enumerate(zip(emb + (0,) * len(nu), nu))
                                    if e != v
                                )
                            ]
                            floors = _floors(alpha, n, target, a)
                            for size in range(sum(staircase.extract(target)) + 1):
                                for floor, later in floors:
                                    hosted = [
                                        emb
                                        for s, emb in legal
                                        if s == size
                                        and (later is None or _hosted(emb, target, off, later, alpha[0]))
                                    ]
                                    for lam in _contents(size):
                                        want = sorted(
                                            emb for emb in hosted if _may_hold(_new_cells(emb, inner, off), lam)
                                        )
                                        got = _step_shapes(inner, a, lam, staircase, target, floor)
                                        assert got == want, (n, alpha, target, inner, a, lam, floor)
                                        calls += 1
    assert calls == 164490


def _cut(floor, b, off):
    """``floor`` cut the way the shape graph cuts it: after its last row
    whose floor exceeds the row's offset, but never before row ``b``."""
    return floor[: max([b] + [r + 1 for r, (f, o) in enumerate(zip(floor, off)) if f > o])]


def test_step_shapes_takes_cut_floors():
    # on the brute-force grid, each floor cut the way the shape graph cuts
    # it (b the next cut), or as short as the stepper allows (b = a, the
    # step's cut), proposes exactly what the full floor proposes
    from lrflags.filtered import _step_shapes

    calls = shorter = 0
    for n in range(2, 6):
        for r in range(1, n):
            for alpha in combinations(range(1, n), r):
                staircase = Staircase(alpha, n)
                off = staircase.offsets
                full = staircase.embed(staircase.rows)
                for target in _shapes_in(staircase, full):
                    cap = target + (0,) * (len(full) - len(target))
                    sizes = range(sum(staircase.extract(target)) + 1)
                    for inner in _shapes_in(staircase, cap):
                        for a in alpha:
                            for floor, later in _floors(alpha, n, target, a)[1:]:
                                cuts = {_cut(floor, later[0] if later else n, off), _cut(floor, a, off)}
                                for lam in (lam for size in sizes for lam in _contents(size)):
                                    want = _step_shapes(inner, a, lam, staircase, target, floor)
                                    for cut in cuts:
                                        assert _step_shapes(inner, a, lam, staircase, target, cut) == want, (
                                            n, alpha, target, inner, a, lam, floor, cut
                                        )
                                        calls += 1
                                        shorter += len(cut) < len(floor)
    assert (calls, shorter) == (143631, 41964)


def test_step_shapes_matches_reference_on_taller_regions():
    # the brute force above, on sampled shapes in regions with n = 6..8:
    # there rows with room for a cell often sit between rows without, and
    # a step's cells are often placed before its last row with room
    from lrflags.filtered import _step_shapes

    rng = random.Random(15)
    calls = 0
    for n in (6, 7, 8):
        for _ in range(120):
            alpha = tuple(sorted(rng.sample(range(1, n), rng.randint(1, n - 1))))
            staircase = Staircase(alpha, n)
            off = staircase.offsets
            inner = _random_shape(rng, staircase)
            target = _random_shape(rng, staircase, inner)
            nu = inner + (0,) * (len(target) - len(inner))
            # a step of at most 4 cells grows no row by more
            cap = [min(t, max(v, o) + 4) for t, v, o in zip(target, nu, off)]
            grown = [(_new_cells(emb, inner, off), emb) for emb in _shapes_in(staircase, cap, inner)]
            for a in alpha:
                legal = [(cells, emb) for cells, emb in grown if all(r < a and c > a - alpha[0] for r, c in cells)]
                for floor, later in _floors(alpha, n, target, a):
                    hosted = [
                        (cells, emb)
                        for cells, emb in legal
                        if later is None or _hosted(emb, target, off, later, alpha[0])
                    ]
                    for size in range(1, 5):
                        for lam in _contents(size):
                            want = sorted(
                                emb for cells, emb in hosted if len(cells) == size and _may_hold(cells, lam)
                            )
                            got = _step_shapes(inner, a, lam, staircase, target, floor)
                            assert got == want, (n, alpha, target, inner, a, lam, floor)
                            calls += 1
    assert calls == 51984


def test_step_caps_drop_only_zero_multiplicities():
    # Pieri's rule and the two caps (no row of the step longer than lam[0],
    # no column taller than len(lam)), against the LR backtracker: on every
    # cut set with n <= 5, every inner shape and every content of each cut,
    # a one-row or one-column step the stepper proposes has exactly one
    # filling, and a legal step it leaves out has none
    from lrflags.filtered import _step_shapes
    from lrflags.tableaux import count_lr_tableaux

    proposed = dropped = 0
    for n in range(2, 6):
        for r in range(1, n):
            for alpha in combinations(range(1, n), r):
                staircase = Staircase(alpha, n)
                off = staircase.offsets
                full = staircase.embed(staircase.rows)
                region = _shapes_in(staircase, full)
                for inner in region:
                    nu = inner + (0,) * (len(full) - len(inner))
                    for a in alpha:
                        legal = {}
                        for emb in region:
                            cells = _new_cells(emb, inner, off)
                            if all(e >= v for e, v in zip(emb + (0,) * len(nu), nu)) and all(
                                row < a and col > a - alpha[0] for row, col in cells
                            ):
                                legal.setdefault(len(cells), []).append(emb)
                        for lam in partitions_in_box(a, n - a):
                            got = set(_step_shapes(inner, a, lam, staircase, full, (0,) * len(full)))
                            for emb in legal.get(sum(lam), []):
                                padded = emb + (0,) * (len(nu) - len(emb))
                                step_inner = [min(e, max(v, o)) for e, v, o in zip(padded, nu, off)]
                                mult = count_lr_tableaux(emb, _strip(step_inner), lam)
                                if emb not in got:
                                    assert mult == 0, (n, alpha, inner, a, lam, emb)
                                    dropped += 1
                                elif len(lam) <= 1 or lam[0] == 1:
                                    assert mult == 1, (n, alpha, inner, a, lam, emb)
                                    proposed += 1
    assert (proposed, dropped) == (1329, 296)


def _valley_graphs(seed, per_valley):
    """``(terms, region, target)`` for every valley target with n = 4..6 in
    the full staircase, ``per_valley`` seeded random term lists each."""
    rng = random.Random(seed)
    for n in (4, 5, 6):
        full = Staircase(tuple(range(1, n)), n)
        for valley in all_valley_permutations(n):
            target = Shape(valley.mu, full).embedded
            for _ in range(per_valley):
                cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
                terms, left = [], sum(valley.mu)
                while left:
                    a = rng.choice(cuts)
                    lam = rng.choice([p for p in partitions_in_box(a, n - a) if 0 < sum(p) <= left])
                    terms.append((a, lam))
                    left -= sum(lam)
                terms.sort(key=lambda term: term[0])
                yield terms, full, target


def test_shape_graph_keeps_only_hostable_edges():
    # against a valley target the region is the full staircase, whose rows
    # outnumber the problem's cuts; every kept edge must still leave each
    # missing target cell to a later step of the problem
    from lrflags.filtered import _shape_graph

    proposed = edges = 0
    for terms, full, target in _valley_graphs(11, 4):
        for k, step in enumerate(_shape_graph(terms, full, target)):
            for outer, _ in (edge for succ in step.values() for edge in succ):
                assert _hosted(outer, target, full.offsets, [a for a, _ in terms[k + 1 :]], 1)
                proposed += 1
        edges += sum(len(succ) for step in _reference_levels(terms, full, target) for succ in step.values())
    assert edges == 106
    assert proposed >= edges


def test_shape_graph_digest_is_pinned(seven_term_problem, thirteen_box_problem, five_factor_problem):
    # every level of the shape graph (each inner shape with its successors
    # and their multiplicities, in order) as a forward walk that weighs each
    # edge builds it from _shape_graph, hashed over fixed problems: a change
    # to the stepper, its floors or the LR multiplicities that moves, adds,
    # drops or reorders any edge changes the digest

    full20 = SchubertProblem(20, tuple((a, (1,)) for a in range(1, 20) for _ in range(20 - a)))
    gr36 = SchubertProblem(6, ((3, (1,)),) * 9)
    graphs = [
        (p.terms, p.staircase, Shape.full(p.staircase).embedded)
        for p in (seven_term_problem, thirteen_box_problem, five_factor_problem, gr36, full20)
    ]
    wider = Staircase((1, 2), 4)
    graphs.append((((2, (1,)),) * 4, wider, Shape.full(wider).embedded))
    graphs += _valley_graphs(20, 3)
    digest, levels, edges = hashlib.sha256(), 0, 0
    for terms, region, target in graphs:
        digest.update(repr((terms, region, target)).encode())
        for step in _reference_levels(terms, region, target):
            digest.update(repr(list(step.items())).encode())
            levels += 1
            edges += sum(map(len, step.values()))
    assert (len(graphs), levels, edges) == (333, 1100, 363)
    assert digest.hexdigest() == "2a7732bd08d5ff83d2bc9276b4867af0270fa34d4f6c521f92e365f56aa9d7e3"


def test_shape_graph_cuts_each_floor_after_its_last_binding_row(monkeypatch, thirteen_box_problem):
    # counting the 262 problem and the full flag n = 20, every floor handed
    # to the stepper is the full floor of its next cut b, ending at
    # max(b, last row whose floor exceeds its offset + 1)
    import lrflags.filtered as filtered

    original_graph, original_step_shapes = filtered._shape_graph, filtered._step_shapes
    level, handed = [0], []

    def graph(terms, staircase, target):
        level[0] = 0
        for edges in original_graph(terms, staircase, target):
            yield edges
            level[0] += 1

    def step_shapes(inner, a, lam, staircase, target, floor):
        handed.append((level[0], a, staircase, target, list(floor)))
        return original_step_shapes(inner, a, lam, staircase, target, floor)

    monkeypatch.setattr(filtered, "_shape_graph", graph)
    monkeypatch.setattr(filtered, "_step_shapes", step_shapes)
    full20 = SchubertProblem(20, tuple((a, (1,)) for a in range(1, 20) for _ in range(20 - a)))
    counts = []
    for problem in (thirteen_box_problem, full20):
        handed.clear()
        assert count_filtered_tableaux(problem) == (262 if problem is thirteen_box_problem else 1)
        nexts = [a for a, _ in problem.terms[1:]] + [problem.n]
        rows = short = 0
        for k, a, staircase, target, floor in handed:
            b = nexts[k]
            floors = _floors(staircase.alpha, problem.n, target, a)[1:]
            full = next(f for f, later in floors if (later[0] if later else problem.n) == b)
            assert floor == list(_cut(full, b, staircase.offsets)), (problem.n, k, a)
            rows += len(floor)
            short += len(floor) < len(target)
        counts.append((len(handed), rows, short))
    # calls, floor rows handed over and floors cut short of the target
    assert counts == [(27, 87, 17), (190, 1348, 188)]


def test_count_matches_enumeration(six_box_problem, seven_term_problem, five_factor_problem):
    for problem in (six_box_problem, seven_term_problem, five_factor_problem):
        assert count_filtered_tableaux(problem) == len(list(enumerate_filtered_tableaux(problem)))


def test_seven_term_problem(seven_term_problem):
    assert intersection_number(seven_term_problem) == 18


def test_thirteen_box_problem(thirteen_box_problem):
    assert intersection_number(thirteen_box_problem) == 262
    assert count_monk_chains(thirteen_box_problem) == 262


def test_five_factor_problem_structure(five_factor_problem):
    tableaux = list(enumerate_filtered_tableaux(five_factor_problem))
    assert len(tableaux) == 4
    per_chain = Counter(ft.chain for ft in tableaux)
    assert len(per_chain) == 3
    assert sorted(per_chain.values()) == [1, 1, 2]
    # the double-filling step carries content (2,1) on a three-cell antidiagonal
    heavy_chain = max(per_chain, key=per_chain.get)
    heavy = [ft for ft in tableaux if ft.chain == heavy_chain]
    step = heavy[0].fillings[2].shape
    assert step.outer == (5, 4, 3) and step.inner == (4, 3, 2)
    assert {tuple(f.entry_sequence() for f in ft.fillings)[2] for ft in heavy} == {
        (1, 1, 2),
        (1, 2, 1),
    }


def test_gr24_four_boxes():
    problem = SchubertProblem(4, tuple((2, (1,)) for _ in range(4)))
    assert intersection_number(problem) == 2
    assert count_monk_chains(problem) == 2
    assert iterate_monk(problem) == 2


def test_grassmannian_specialization_is_iterated_lr():
    # single cut: chains of partitions in the rectangle with LR fillings
    problem = SchubertProblem(5, ((2, (2, 1)), (2, (2, 1))))
    assert intersection_number(problem) == len(list(enumerate_filtered_tableaux(problem)))
    from lrflags.tableaux import count_lr_tableaux

    by_hand = count_lr_tableaux((3, 3), (2, 1), (2, 1))
    assert intersection_number(problem) == by_hand


def iterated_lr_point_count(n, b, lams):
    """Two-factor LR multiplication iterated over plain partitions."""
    from lrflags.partitions import contains, partitions_in_box
    from lrflags.tableaux import count_lr_tableaux

    box = list(partitions_in_box(b, n - b))
    state = {(): 1}
    for lam in lams:
        nxt = {}
        for mu, ways in state.items():
            for nu in box:
                if sum(nu) != sum(mu) + sum(lam) or not contains(nu, mu):
                    continue
                c = count_lr_tableaux(nu, mu, lam)
                if c:
                    nxt[nu] = nxt.get(nu, 0) + ways * c
        state = nxt
    full = ((n - b),) * b
    return state.get(full, 0)


def test_grassmannian_specialization_more_cases():
    cases = [
        (5, 2, ((2, 1), (2, 1))),
        (6, 3, ((2, 1), (2, 1), (2, 1))),
        (6, 2, ((2,), (2, 1), (2, 1))),
        (4, 2, ((1,), (1,), (1,), (1,))),
    ]
    for n, b, lams in cases:
        problem = SchubertProblem(n, tuple((b, lam) for lam in lams))
        assert intersection_number(problem) == iterated_lr_point_count(n, b, lams), (n, b, lams)


def test_all_empty_contents_single_tableau():
    problem = SchubertProblem(4, ((2, ()), (2, ())))
    target = Shape.empty(Staircase((2,), 4))
    tableaux = list(enumerate_filtered_tableaux(problem, target))
    assert len(tableaux) == 1
    assert count_filtered_tableaux(problem, target) == 1


def test_size_mismatch_gives_empty_list(six_box_problem):
    target = Shape((2, 1), six_box_problem.staircase)
    assert list(enumerate_filtered_tableaux(six_box_problem, target)) == []
    assert count_filtered_tableaux(six_box_problem, target) == 0


@pytest.mark.parametrize(
    "problem, target, named",
    [
        # a class at cut 1 has no pullback to Gr(2, 4)
        (
            SchubertProblem(4, ((1, (1,)),) * 2),
            Shape((2,), Staircase((2,), 4)),
            r"alpha \[2\] lacks a cut of \[1\]",
        ),
        # an n = 4 problem counted in an n = 5 region
        (SchubertProblem(4, ((2, (1,)),) * 4), Shape((2, 2), Staircase((2,), 5)), "n=5, problem in n=4"),
    ],
)
def test_target_outside_the_problem_flag_manifold_raises(problem, target, named):
    # counting and listing share one gate; listing stays lazy, so it raises
    # on the first item drawn
    with pytest.raises(ProblemError, match=named):
        count_filtered_tableaux(problem, target)
    tableaux = enumerate_filtered_tableaux(problem, target)
    with pytest.raises(ProblemError, match=named):
        next(tableaux)


def test_superset_alpha_vanishes():
    problem = SchubertProblem(4, tuple((2, (1,)) for _ in range(4)))
    assert intersection_number(problem, alpha=(1, 2)) == 0
    assert intersection_number(problem, alpha=(2, 3)) == 0
    assert intersection_number(problem, alpha=(2,)) == 2
    with pytest.raises(ProblemError):
        intersection_number(problem, alpha=(1, 3))
    with pytest.raises(ProblemError):
        intersection_number(problem, alpha=(0, 2))
    with pytest.raises(ProblemError):
        intersection_number(problem, alpha=())
    three_boxes = SchubertProblem(4, tuple((2, (1,)) for _ in range(3)))
    with pytest.raises(DimensionMismatchError):
        intersection_number(three_boxes, alpha=(2,))
    # a strictly wider cut set vanishes before any dimension or term check
    assert intersection_number(three_boxes, alpha=(1, 2)) == 0
    assert intersection_number(SchubertProblem(4, ()), alpha=(1, 2)) == 0


def test_rule_vanishes_on_every_wider_region():
    # the rule itself gives the 0 of a strictly wider cut set: counted in
    # that set's full region, every valid problem with n <= 5 has none
    from conftest import all_valid_problems, strictly_wider

    pairs = 0
    for n in range(2, 6):
        for problem in all_valid_problems(n):
            for wider in strictly_wider(problem.alpha, n):
                target = Shape.full(Staircase(wider, n))
                assert count_filtered_tableaux(problem, target) == 0, (problem, wider)
                pairs += 1
    assert pairs == 10246


def test_wider_region_of_equal_size_vanishes_on_every_route():
    # one term per cut, total size equal to the dimension of a strictly
    # wider cut set: the size test passes, so the 0 comes from the
    # rectangles, and every route of the rule and the oracle must reach it
    from conftest import equal_size_wider_pairs

    from lrflags.oracle import oracle_intersection_number

    pairs = 0
    for problem, wider in equal_size_wider_pairs():
        target = Shape.full(Staircase(wider, problem.n))
        assert count_filtered_tableaux(problem, target) == 0
        assert list(enumerate_filtered_tableaux(problem, target)) == []
        assert intersection_number(problem, wider) == 0
        assert oracle_intersection_number(problem, wider) == 0
        pairs += 1
    assert pairs == 198


def test_wider_cut_set_runs_the_rule(monkeypatch):
    # intersection_number counts in the chosen set's region rather than
    # returning 0 for a wider set itself
    import lrflags.filtered as filtered

    targets = []
    original = filtered.count_filtered_tableaux

    def recording(problem, target=None):
        targets.append(target)
        return original(problem, target)

    monkeypatch.setattr(filtered, "count_filtered_tableaux", recording)
    quad = SchubertProblem(4, tuple((2, (1,)) for _ in range(4)))
    assert intersection_number(quad, alpha=(1, 2)) == 0
    assert [t.staircase.alpha for t in targets] == [(1, 2)]


def test_valley_coefficient_examples(six_box_problem):
    v = valley_from_permutation((2, 1), 1)
    assert valley_coefficient(v, SchubertProblem(2, ((1, (1,)),))) == 1

    w0 = valley_from_permutation(longest(4), 3)
    assert valley_coefficient(w0, six_box_problem) == 2

    v = valley_from_permutation((4, 3, 1, 2), 2)
    problem = SchubertProblem(4, ((1, (1,)), (2, (2, 1)), (2, (1,))))
    assert valley_coefficient(v, problem) == oracle_coefficient(v.word, problem)


def test_valley_coefficient_degree_mismatch(six_box_problem):
    v = valley_from_shape((2, 1), 2, 4)
    assert valley_coefficient(v, six_box_problem) == 0


def test_valley_coefficient_ambient_mismatch(six_box_problem):
    v = valley_from_shape((1,), 1, 5)
    with pytest.raises(ProblemError):
        valley_coefficient(v, six_box_problem)


def test_monk_shape_identity_and_longest():
    for n in (3, 4, 5):
        alpha = tuple(range(1, n))
        shape = monk_shape(identity(n), alpha, n)
        assert shape is not None and shape.rows == ()
        top = monk_shape(longest(n), alpha, n)
        assert top is not None and top.rows == Staircase(alpha, n).rows


def test_monk_shape_none_for_non_chain_permutation():
    # 3412 has column counts that are not upward closed
    assert monk_shape((3, 4, 1, 2), (1, 2, 3), 4) is None


def test_monk_shape_tracks_chains(six_box_problem):
    # walk the Monk expansion; permutations with shapes must match a
    # one-box-per-step dynamic program level by level
    problem = six_box_problem
    alpha = problem.alpha
    n = problem.n
    state = {identity(n): 1}
    shape_level = {(): 1}
    for a, _ in problem.terms:
        nxt = {}
        for w, coeff in state.items():
            for cover in monk_multiply(w, a):
                nxt[cover] = nxt.get(cover, 0) + coeff
        state = nxt
        shaped = {}
        for w, coeff in state.items():
            shape = monk_shape(w, alpha, n)
            if shape is not None:
                key = shape.rows
                shaped[key] = shaped.get(key, 0) + coeff
        # one-box DP step
        staircase = Staircase(alpha, n)
        from lrflags.filtered import _step_shapes

        target = staircase.embed(staircase.rows)
        nxt_shapes = {}
        for emb, ways in shape_level.items():
            for outer in _step_shapes(emb, a, (1,), staircase, target, (0,) * len(target)):
                nxt_shapes[outer] = nxt_shapes.get(outer, 0) + ways
        shape_level = nxt_shapes
        as_rows = {staircase.extract(emb): cnt for emb, cnt in shape_level.items()}
        assert shaped == as_rows


def test_validate_rejects_corrupted_tableaux(six_box_problem):
    import dataclasses

    ft = list(enumerate_filtered_tableaux(six_box_problem))[0]
    # swap two chain levels: the chain stops increasing
    bad_chain = ft.chain[:2] + (ft.chain[3], ft.chain[2]) + ft.chain[4:]
    broken = dataclasses.replace(ft, chain=bad_chain)
    with pytest.raises(ValueError):
        broken.validate()
    # tamper with a filling entry: the content no longer matches
    from lrflags.tableaux import SkewTableau

    filling = ft.fillings[2]
    rows = tuple(
        tuple(2 for _ in row) if any(row) else row for row in filling.rows
    )
    bad_fillings = ft.fillings[:2] + (SkewTableau(filling.shape, rows),) + ft.fillings[3:]
    broken = dataclasses.replace(ft, fillings=bad_fillings)
    with pytest.raises(ValueError):
        broken.validate()
    # a last step from (2, 2) to (2,) loses a row; its empty filling sits on
    # the skew shape the step's first row leaves, so only the chain test
    # can catch it
    ft = next(enumerate_filtered_tableaux(SchubertProblem(3, ((1, (1,)), (1, (1,)), (2, (1,))))))
    assert ft.chain[-1] == (2, 2)
    from lrflags.tableaux import SkewShape

    broken = dataclasses.replace(
        ft,
        terms=ft.terms + ((2, ()),),
        chain=ft.chain + ((2,),),
        fillings=ft.fillings + (SkewTableau(SkewShape((2,), (2,)), ((),)),),
    )
    with pytest.raises(ValueError, match="chain not increasing at step 4"):
        broken.validate()


def test_count_monk_chains_rejects_non_box(seven_term_problem):
    with pytest.raises(ProblemError):
        count_monk_chains(seven_term_problem)
    # no terms is its own reason, not a non-box content, in both Monk routes
    for monk in (count_monk_chains, iterate_monk):
        with pytest.raises(ProblemError, match="no terms"):
            monk(SchubertProblem(4, ()))
        with pytest.raises(ProblemError, match="single box"):
            monk(seven_term_problem)


def test_single_box_smallest_case():
    problem = SchubertProblem(2, ((1, (1,)),))
    assert count_monk_chains(problem) == 1
    assert intersection_number(problem) == 1
    assert iterate_monk(problem) == 1

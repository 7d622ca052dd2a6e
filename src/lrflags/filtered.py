"""Filtered tableaux and the combinatorial intersection-number rule.

A filtered tableau for a problem ``((a_1, lam_1), ..., (a_s, lam_s))``
and a target shape inside a staircase region is a chain of shapes

    empty = mu_0 <= mu_1 <= ... <= mu_s = target

with a Littlewood-Richardson filling of content ``lam_i`` on each skew
step ``mu_i / mu_{i-1}``, where step ``i`` must lie inside the rectangle
``a_i x (n - a_i)``.  Since the rectangles share the region's upper-right
corner, that means every cell of step ``i`` sits in the first ``a_i``
rows and strictly right of grid column ``a_i - min(alpha)``.

The number of filtered tableaux whose target is the full region is the
coefficient of the point class in the corresponding product of pulled
back Schubert classes; against the shape of a valley permutation ``w``
(inside the full staircase for ``{1, ..., n-1}``) it is the coefficient
of the Schubert class of ``w``.

Shapes travel through this module as embedded diagrams (see
:mod:`lrflags.partitions`): ordinary partitions recording, per region
row, the grid column of the last cell.  Counting and enumeration share
one walk of the shape graph: one forward pass (``_shape_graph``) and
one backward fold (``_fold_back``).  The forward pass steps from the
empty shape and weighs nothing: it keeps every proposed step except
those the dominance test of :mod:`lrflags.tableaux` proves to have no
Littlewood-Richardson filling (McNamara and van Willigenburg, 2009).
It computes each such step's skew once, tests it as the stepper gives
it, with no normalizing, and keeps it with the edge.  The backward fold
starts at the target and weighs only live edges, those into a shape
that reaches the target: at 1 by Pieri's rule for a one-row or
one-column content, whose steps the stepper's row and column caps leave
as strips (the caps are the dominance test's first partial sums), and
by the count or list of the fillings on the carried skew otherwise.
The stepper walks only the rows with room for a cell of the step: every
other row keeps its inner end, a path ends as soon as its cells are
placed, and no row takes an end that leaves the rows below it more
cells than they have room for.  Each row has a floor from the later
steps' rectangles, by one rule: a row whose inner end lies left of its
floor must gain cells, so it must be walked, and a path emits its shape
only once past the last such row.  The shape graph builds one floor per
next cut ``b`` and cuts it after its last row whose floor exceeds the
row's offset, never before row ``b``.  The fold takes the edge's weight
as an argument.  Counting weighs each live edge by its multiplicity;
enumeration weighs it by the number of its fillings, listed once as row
tuples cut from the backtracker's leaves with no tableau object built,
keeps the edges with any, each with its fillings wrapped by the caller
(``_trimmed_graph``), and walks the chains of what it kept depth first
on one path array indexed by level (``_chains``): in lexicographic
order on those diagrams, then the product of the steps' fillings, each
in row-major lexicographic order.  The library's generator wraps each
live edge's rows in tableaux once; the command line renders them to
text once, building no skew shape or tableau, and walks the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterator, Sequence

from .partitions import Shape, Staircase
from .permutations import ValleyPermutation
from .problems import ProblemError, SchubertProblem, validate_problem
# enumerate_lr_tableaux is unused here, but the layer tracer patches this module's name for it
from .tableaux import (
    SkewShape,
    SkewTableau,
    _dominance_zero,
    _lr_rows,
    count_lr_tableaux,
    enumerate_lr_tableaux,
    is_lr_tableau,
)

__all__ = [
    "FilteredTableau",
    "enumerate_filtered_tableaux",
    "count_filtered_tableaux",
    "intersection_number",
    "valley_coefficient",
    "count_monk_chains",
]


def _pad(emb: tuple[int, ...], rows: int) -> tuple[int, ...]:
    return emb + (0,) * (rows - len(emb))


def _step_inner(outer: tuple[int, ...], inner: tuple[int, ...], staircase: Staircase) -> tuple[int, ...]:
    """The inner boundary of the step ``outer / inner`` as an ordinary skew shape.

    Rows the inner shape leaves empty still start after their offset, so
    the boundary is ``max(inner, offset)`` per row, clipped to ``outer``;
    for legal steps it is itself a partition.
    """
    return tuple(map(min, outer, map(max, _pad(inner, len(outer)), staircase.offsets)))


def _step_shapes(
    inner: tuple[int, ...],
    a: int,
    lam: tuple[int, ...],
    staircase: Staircase,
    target: tuple[int, ...],
    floor: Sequence[int],
) -> list[tuple[int, ...]]:
    """Embedded shapes reachable from ``inner`` by one step at cut ``a``.

    The step adds ``sum(lam)`` cells for content ``lam``, all within rows
    ``1..a`` and strictly right of grid column ``a - min(alpha)``, staying
    inside ``target``.  Results are in ascending lexicographic order.

    ``floor`` gives row ``i`` a least end: it may end only at a grid column
    ``e`` with ``max(e, offset) >= floor[i]``, since left of ``floor[i]``
    the later steps cannot complete the row to ``target``.  One rule
    follows: a row whose inner end lies left of its floor must gain cells,
    so it must have room for one, and a path emits its shape only after
    passing the last such row.  A floor needs entries for at least the
    first ``min(a, len(target))`` rows; rows past its end, like rows whose
    floor is at most their offset, ask nothing.

    Two caps from the content drop only steps with no Littlewood-Richardson
    filling of content ``lam``.  No row of the step holds more than
    ``lam[0]`` cells: a row of the filling is an increasing subsequence of
    a word that rectifies to shape ``lam`` (Schensted, Greene).  No column
    holds more than ``len(lam)``: it strictly increases over ``1..len(lam)``.
    So one-column contents step by vertical strips, one-row contents by
    horizontal ones.

    The walk visits only the rows with room for a cell; every other row
    keeps its inner end.  A path ends as soon as its cells are placed: the
    rows below keep their inner ends too.  Each walked row's range starts
    where the walked rows below can take the cells still left, so no
    branch is pushed that cannot place them all, and a step with more
    cells than the walked rows have room for returns ``[]`` at once.

    >>> _step_shapes((), 3, (2, 1), Staircase((3,), 5), (2, 2, 2), (0, 0, 0))
    [(2, 1)]

    A single box goes to an addable corner; row 2 of ``(3, 3, 1)`` has no
    room, so only rows 1 and 3 are walked:

    >>> region = Staircase((3,), 7)
    >>> _step_shapes((3, 3, 1), 3, (1,), region, (4, 4, 4), (0, 0, 0))
    [(3, 3, 2), (4, 3, 1)]
    """
    # only the floor's rows are read: it covers every row the walk visits
    m = min(len(floor), len(target))
    nu = _pad(inner[:m], m)
    # max(end, offset): an empty row starts at its offset, and a nonempty
    # one ends past it
    start = [e or o for e, o in zip(nu, staircase.offsets)]
    # rows keep their inner ends from the first row past the first a, or
    # the first that starts left of the rectangle's wall, on: the rows
    # above the cut's block start left of it too, and the block's rows
    # cannot end past that row, which ends left of it.  Row i before it
    # gains cells right of grid column start[i] up to its top: inside the
    # target, at most lam[0] of them, and not past start[i - len(lam)], or
    # a column would gain len(lam) + 1 cells.  Only the rows with room are
    # walked.
    left_wall = a - staircase.alpha[0]
    widest, tallest = (lam[0] if lam else 0), len(lam)
    rows: list[int] = []
    tops: list[int] = []
    for i, (s, top) in enumerate(zip(start[:a], target)):
        if s < left_wall:
            break
        if s + widest < top:
            top = s + widest
        if i >= tallest and start[i - tallest] < top:
            top = start[i - tallest]
        if top > s:
            rows.append(i)
            tops.append(top)
    # the floor's one rule: a row left of its floor must gain cells, so it
    # must be walked, and a path emits only after the last such row
    short = [i for i, (s, f) in enumerate(zip(start, floor)) if s < f]
    if not set(short).issubset(rows):
        return []
    last = rows.index(short[-1]) + 1 if short else 0
    # slack[k]: the cells walked rows k.. can add, ignoring the
    # weak-decrease coupling
    slack = [0] * (len(rows) + 1)
    for k in range(len(rows) - 1, -1, -1):
        slack[k] = slack[k + 1] + tops[k] - start[rows[k]]
    size = sum(lam)
    if size > slack[0]:
        return []

    out: list[tuple[int, ...]] = []
    current = list(nu)
    # depth first on an explicit stack of (walked row k, its end, cells
    # left); a popped entry fixes current[rows[k]], and children are pushed
    # largest first, so shapes come out in ascending lexicographic order.
    # Every child leaves at most slack[k + 1] cells to the rows below it:
    # a row ends at least todo - slack[k + 1] cells past its start, and
    # keeps its inner end only if the rows below can take all todo
    stack = [(-1, 0, size)]
    while stack:
        k, e, todo = stack.pop()
        if k >= 0:
            current[rows[k]] = e
        k += 1
        if not todo:
            # the rows below the last one fixed keep their inner ends; the
            # stale ends other paths left there are never read
            if k >= last:
                j = rows[k - 1] + 1 if k else 0
                out.append(tuple(current[:j]) + inner[j:])
            continue
        i = rows[k]
        s = start[i]
        above = current[i - 1] if i else staircase.width  # weak decrease
        below = slack[k + 1]
        ends = range(min(tops[k], above, s + todo), max(s, floor[i] - 1, s + todo - below - 1), -1)
        stack += [(k, e, todo + s - e) for e in ends]
        if s >= floor[i] and todo <= below:
            stack.append((k, nu[i], todo))
    return out


@dataclass(frozen=True)
class FilteredTableau:
    """A chain of shapes with Littlewood-Richardson fillings per step."""

    staircase: Staircase
    terms: tuple[tuple[int, tuple[int, ...]], ...]
    chain: tuple[tuple[int, ...], ...]
    fillings: tuple[SkewTableau, ...]

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """Row-length view of the chain, one partition per level."""
        return tuple(self.staircase.extract(emb) for emb in self.chain)

    def validate(self) -> None:
        """Re-check every defining condition; raises ``ValueError`` if broken."""
        if len(self.chain) != len(self.terms) + 1 or len(self.fillings) != len(self.terms):
            raise ValueError("chain/filling lengths inconsistent with terms")
        if self.chain[0] != ():
            raise ValueError("chain must start at the empty shape")
        alpha0 = self.staircase.alpha[0]
        off = self.staircase.offsets
        for level, emb in enumerate(self.chain):
            if not self.staircase.is_valid_embedded(emb):
                raise ValueError(f"level {level} is not a shape in the region")
        for i, (a, lam) in enumerate(self.terms):
            inner, outer = self.chain[i], self.chain[i + 1]
            # pad both sides, so a row that outer drops reads as a decrease
            rows = max(len(inner), len(outer))
            for r0, (e_in, e_out) in enumerate(zip(_pad(inner, rows), _pad(outer, rows))):
                if e_in > e_out:
                    raise ValueError(f"chain not increasing at step {i + 1}")
                if e_in < e_out:
                    if r0 + 1 > a:
                        raise ValueError(f"step {i + 1} leaves the first {a} rows")
                    if max(e_in, off[r0]) < a - alpha0:
                        raise ValueError(f"step {i + 1} crosses the rectangle's left edge")
            filling = self.fillings[i]
            if filling.shape != SkewShape(outer, _step_inner(outer, inner, self.staircase)):
                raise ValueError(f"filling {i + 1} is not on the step's skew shape")
            if not is_lr_tableau(filling, lam):
                raise ValueError(f"filling {i + 1} is not an LR tableau of content {lam}")


def _pieri(lam: tuple[int, ...]) -> bool:
    """Whether ``lam`` is one row or one column: every step the stepper
    proposes for it is a strip, with multiplicity 1 by Pieri's rule."""
    return len(lam) <= 1 or lam[0] == 1


def _shape_graph(
    terms: Sequence[tuple[int, tuple[int, ...]]],
    staircase: Staircase,
    target: tuple[int, ...],
) -> Iterator[dict[tuple[int, ...], list[tuple[int, ...]]]]:
    """The shape graph, forward, one step at a time, with no multiplicity.

    For each term, yields every inner shape reachable from the empty
    shape, mapped to its edges ``(outer, skew)`` in ascending
    lexicographic order of ``outer``; the next level is every ``outer``.
    Successors that cannot host the remaining steps, or whose step has a
    row longer than ``lam[0]`` or a column taller than ``len(lam)``, are
    never proposed (see :func:`_step_shapes`).  For a one-row or
    one-column content one cap is 1, so every step is a strip with
    multiplicity 1 by Pieri's rule, and ``skew`` is ``None``.  For any
    other content ``skew`` is the step's inner boundary,
    :func:`_step_inner` computed once per proposal, and the successors
    whose step the dominance test proves to have no filling are left out.
    The test runs on that tuple as it is, trailing zero rows included,
    through the core of :func:`lrflags.tableaux.dominance_zero` that does
    not normalize.  An edge kept here may still have multiplicity 0 or
    lead nowhere: the callers weigh or list only the edges into shapes
    that reach the target, walking back from it, on the carried skew.
    """
    cuts = [a for a, _ in terms]
    n, alpha0, off = staircase.n, staircase.alpha[0], staircase.offsets
    distinct = set(cuts)
    # reach[r]: the least cut whose rectangle meets row r, n past the last
    reach = [min((c for c in distinct if c > r), default=n) for r in range(len(target))]
    # a target cell a step leaves empty in row r must fit a later step: one
    # at a cut c >= max(b, r + 1), b the next cut, whose left wall
    # c - min(alpha) lies left of the cell.  Walls move right as cuts grow,
    # so the least such cut binds: b for a row r < b, and for r >= b the
    # row's reach, the same for every b.  After the last step (b = n) every
    # row must reach the target.  No row ends left of its offset, so a
    # floor binds only where it exceeds the offset, and each floor is cut
    # after its last such row, but never before row b: a step at a cut
    # a <= b reads the floors of the rows before a.  In the problem's own
    # region a reach's wall is the row's offset, so rows r >= b never bind;
    # in a wider region or below a valley target they can.  tail[r] is the
    # floor of row r for every b <= r.
    tail = [min(t, c - alpha0) for t, c in zip(target, reach)]
    del tail[max([0] + [r + 1 for r, (f, o) in enumerate(zip(tail, off)) if f > o]) :]
    nexts = cuts[1:] + [n]
    floors = {b: [min(t, b - alpha0) for t in target[:b]] + tail[b:] for b in set(nexts)}
    level = [()]
    for (a, lam), b in zip(terms, nexts):
        pieri = _pieri(lam)
        edges: dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...] | None]]] = {}
        for inner in level:
            succ = _step_shapes(inner, a, lam, staircase, target, floors[b])
            if pieri:
                edges[inner] = [(outer, None) for outer in succ]
            else:
                edges[inner] = [
                    (outer, skew)
                    for outer in succ
                    if not _dominance_zero(outer, skew := _step_inner(outer, inner, staircase), lam)
                ]
        yield edges
        level = dict.fromkeys(outer for succ in edges.values() for outer, _ in succ)


def _target(problem: SchubertProblem, target: Shape | None) -> Shape:
    """``target``, by default the full region of the problem's cut set.

    An explicit target must lie in a region the problem's steps can fill:
    one of the same ``n`` whose cut set holds every cut of the problem.
    Any other raises ``ProblemError`` naming the mismatch.
    """
    if target is None:
        return Shape.full(problem.staircase)
    region = target.staircase
    if region.n != problem.n:
        raise ProblemError(f"target region is in n={region.n}, problem in n={problem.n}")
    if not {a for a, _ in problem.terms} <= set(region.alpha):
        raise ProblemError(f"target alpha {list(region.alpha)} lacks a cut of {list(problem.alpha)}")
    return target


def _fold_back(problem: SchubertProblem, target: Shape, weigh) -> int:
    """The shape graph folded back from ``target``, weighing only live edges.

    ``target`` must lie in a region the problem's steps can fill, as
    :func:`_target` checks; a size other than the total content size folds
    to 0.  Otherwise ``ways[inner]`` is the sum of ``ways[outer] * weigh(k,
    inner, outer, skew)`` over the edges of term ``k`` into shapes with
    nonzero ``ways``, level by level from the target back, with ``skew``
    the step's inner boundary as the forward pass carried it, ``None`` for
    a Pieri step.  So ``weigh`` sees each live edge once, in ascending
    order of ``outer`` per inner shape.  Returns ``ways[()]``.
    """
    if target.size != problem.total_size:
        return 0
    steps = list(_shape_graph(problem.terms, target.staircase, target.embedded))
    ways: dict[tuple[int, ...], int] = {target.embedded: 1}
    for k in range(len(steps) - 1, -1, -1):
        back: dict[tuple[int, ...], int] = {}
        for inner, succ in steps[k].items():
            total = 0
            for outer, skew in succ:
                if outer in ways:
                    total += ways[outer] * weigh(k, inner, outer, skew)
            if total:
                back[inner] = total
        ways = back
    return ways.get((), 0)


def _trimmed_graph(
    problem: SchubertProblem, target: Shape, wrap
) -> list[dict[tuple[int, ...], list[tuple[tuple[int, ...], object]]]] | None:
    """The live edges of the shape graph, each with its fillings wrapped once.

    Folds the graph back from ``target`` (:func:`_fold_back`), weighing
    each live edge by the number of its fillings, listed once as row
    tuples by ``_lr_rows`` on the skew the forward pass carried (a Pieri
    step computes its own); nothing is normalized again and no tableau is
    built.  Returns ``None`` when the fold is 0, since no tableau exists.
    Otherwise returns one dict per term ``k``, mapping each inner shape
    with an edge that has fillings to those edges ``(outer, wrap(k,
    outer, skew, rows))`` in ascending lexicographic order of ``outer``;
    an edge with no filling is dropped.  Every tableau through an edge
    shares what ``wrap`` made of its fillings.
    """
    staircase, terms = target.staircase, problem.terms
    levels: list[dict] = [{} for _ in terms]

    def weigh(k, inner, outer, skew):
        if skew is None:  # a Pieri step: the graph carries no skew for it
            skew = _step_inner(outer, inner, staircase)
        rows = _lr_rows(outer, skew, terms[k][1])
        if rows:
            levels[k].setdefault(inner, []).append((outer, wrap(k, outer, skew, rows)))
        return len(rows)

    return levels if _fold_back(problem, target, weigh) else None


def _chains(
    levels: Sequence[dict[tuple[int, ...], list[tuple[tuple[int, ...], object]]]]
) -> Iterator[list]:
    """Every chain from the empty shape through ``levels``, in lexicographic order.

    ``levels`` maps, per level, an inner shape to its edges ``(outer,
    payload)`` in ascending order of ``outer``, as :func:`_trimmed_graph`
    keeps them from the backward fold.  Yields one list per chain,
    indexed by level, holding the edge taken at each level.  The walk is
    depth first and overwrites that one list in place, so a chain costs
    one assignment per level it changes, and a yielded list is valid only
    until the next one.
    """
    depth = len(levels)
    path: list = [None] * depth
    if not depth:
        yield path
        return
    # edges[k] iterates the edges left to try at level k
    edges: list = [iter(levels[0][()])] + [None] * (depth - 1)
    last, k = depth - 1, 0
    while k >= 0:
        for edge in edges[k]:
            path[k] = edge
            if k == last:
                yield path
            else:
                k += 1
                edges[k] = iter(levels[k][edge[0]])
                break
        else:
            k -= 1


def enumerate_filtered_tableaux(
    problem: SchubertProblem, target: Shape | None = None
) -> Iterator[FilteredTableau]:
    """All filtered tableaux for ``problem`` with the given target shape, lazily.

    ``target`` defaults to the full staircase region of the problem's cut
    set.  A target region of another ``n``, or whose cut set lacks a cut of
    the problem, raises ``ProblemError`` on the first item drawn.  If the
    target size differs from the total content size nothing is yielded.
    Output order: lexicographic on the chain of embedded diagrams, then
    lexicographic per-step fillings.

    Takes the walk of :func:`count_filtered_tableaux`, but the backward
    fold lists each live edge's fillings once, as row tuples that become
    tableaux on one skew shape per edge (:func:`_trimmed_graph`).  The
    chains of the kept edges are walked depth first on one path array
    indexed by level (:func:`_chains`), so memory is bounded by the graph,
    not the output, and a chain costs time linear in its length.  Each
    chain yields the product of its steps' filling lists.
    """
    target = _target(problem, target)

    def wrap(k, outer, skew, rows):
        shape = SkewShape(outer, skew)
        return [SkewTableau(shape, filling) for filling in rows]

    levels = _trimmed_graph(problem, target, wrap)
    if levels is None:
        return
    staircase, terms = target.staircase, problem.terms
    for path in _chains(levels):
        chain = ((), *[outer for outer, _ in path])
        for combo in iter_product(*[found for _, found in path]):
            yield FilteredTableau(staircase, terms, chain, combo)


def count_filtered_tableaux(problem: SchubertProblem, target: Shape | None = None) -> int:
    """Number of filtered tableaux, by dynamic programming over shapes.

    Takes the walk of :func:`enumerate_filtered_tableaux`, with the same
    targets: the shape graph forward, then the fold back from the target
    (:func:`_fold_back`), which weighs each live edge at 1 for a one-row
    or one-column content and otherwise by :func:`count_lr_tableaux` on
    the skew the forward pass carried, so no multiplicity is counted on
    an edge that leads nowhere.
    """
    terms = problem.terms

    def weigh(k, inner, outer, skew):
        return 1 if skew is None else count_lr_tableaux(outer, skew, terms[k][1])

    return _fold_back(problem, _target(problem, target), weigh)


def intersection_number(
    problem: SchubertProblem, alpha: Sequence[int] | None = None
) -> int:
    """Coefficient of the point class, counted in the full region of the
    cut set :func:`validate_problem` chooses.  A strictly wider ``alpha``
    has cells outside the problem's rectangles, which no step fills: 0.

    >>> quad = SchubertProblem(4, ((2, (1,)),) * 4)
    >>> intersection_number(quad), intersection_number(quad, alpha=(1, 2))
    (2, 0)
    """
    chosen = validate_problem(problem, alpha)
    return count_filtered_tableaux(problem, Shape.full(Staircase(chosen, problem.n)))


def valley_coefficient(valley: ValleyPermutation, problem: SchubertProblem) -> int:
    """Coefficient of the valley permutation's Schubert class in the product.

    Counts filtered tableaux with target ``mu(valley)`` inside the full
    staircase; a total-size/length mismatch gives 0.
    """
    if valley.n != problem.n:
        raise ProblemError(
            f"valley permutation lives in S_{valley.n}, problem in S_{problem.n}"
        )
    full = Staircase(tuple(range(1, problem.n)), problem.n)
    return count_filtered_tableaux(problem, Shape(valley.mu, full))


def count_monk_chains(problem: SchubertProblem) -> int:
    """Chains of shapes adding one cell per step, step ``i`` inside its rectangle.

    Only defined for problems whose every content is a single box; equals
    the intersection number.  Implemented as its own one-cell dynamic
    program, independent of the Littlewood-Richardson machinery.
    """
    validate_problem(problem)
    if not problem.is_all_boxes():
        raise ProblemError("count_monk_chains requires every content to be a single box")
    staircase = problem.staircase
    target = _pad(staircase.embed(staircase.rows), staircase.num_rows)
    off = staircase.offsets
    alpha0 = staircase.alpha[0]
    level: dict[tuple[int, ...], int] = {(0,) * staircase.num_rows: 1}
    for a, _ in problem.terms:
        nxt: dict[tuple[int, ...], int] = {}
        for emb, ways in level.items():
            for i in range(min(a, staircase.num_rows)):
                new = emb[i] + 1 if emb[i] else off[i] + 1
                if new > target[i]:
                    continue
                if i > 0 and new > emb[i - 1]:
                    continue
                if new <= a - alpha0:
                    continue
                grown = emb[:i] + (new,) + emb[i + 1 :]
                nxt[grown] = nxt.get(grown, 0) + ways
        level = nxt
        if not level:
            return 0
    return level.get(target, 0)

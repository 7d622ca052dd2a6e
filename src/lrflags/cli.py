"""Command-line interface.

Problem files are plain text: the first payload line is ``n = <int>``,
optionally followed by ``alpha = {i,j,...}``, then one term per line as
``<a> : <r1,r2,...>`` (``-`` for the empty partition).  ``#`` starts a
comment anywhere; blank lines are ignored; terms may appear in any order
and are sorted stably by cut position.

Subcommands::

    count      print the intersection number
    enumerate  print every filtered tableau, then ``count <N>``
    verify     compare the rule against the polynomial oracle
    valley <w> coefficient of a valley permutation's class
    monk       all-box problems: chain count vs iterated Monk expansion

Exit status: 0 on success, 1 when a verification reports MISMATCH, 2 on
invalid input or when the computation runs out of memory.  Results go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass
from itertools import product as iter_product, repeat
from operator import mul

from . import filtered
# enumerate_filtered_tableaux is unused here, but the layer tracer patches this module's name for it
from .filtered import (
    count_monk_chains,
    enumerate_filtered_tableaux,
    intersection_number,
    valley_coefficient,
)
from .partitions import Shape, Staircase
from .permutations import valley_from_permutation
from .problems import ProblemError, SchubertProblem, validate_problem
from .oracle import iterate_monk, oracle_intersection_number

__all__ = ["ParseError", "ProblemDocument", "parse_problem", "render_filtered_tableau", "main"]


class ParseError(ValueError):
    """A syntax error with a 1-indexed source position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ProblemDocument:
    """A parsed problem file: ambient n, terms as written, optional alpha."""

    n: int
    terms_as_written: tuple[tuple[int, tuple[int, ...]], ...]
    alpha: tuple[int, ...] | None = None

    def problem(self) -> SchubertProblem:
        """Terms sorted stably by cut position, as the library requires."""
        ordered = sorted(self.terms_as_written, key=lambda term: term[0])
        return SchubertProblem(self.n, tuple(ordered))


_N_RE = re.compile(r"^\s*n\s*=\s*(\d+)\s*$", re.ASCII)
_ALPHA_RE = re.compile(r"^\s*alpha\s*=\s*\{([^}]*)\}\s*$", re.ASCII)
_TERM_RE = re.compile(r"^\s*(\d+)\s*:\s*(.*?)\s*$", re.ASCII)


def _parse_int_list(body: str, lineno: int, col0: int) -> tuple[int, ...]:
    values = []
    offset = 0
    for piece in body.split(","):
        stripped = piece.strip()
        pad = len(piece) - len(piece.lstrip())
        if not (stripped.isascii() and stripped.isdigit()):
            raise ParseError(lineno, col0 + offset + pad + 1, f"expected an integer, found {stripped!r}")
        values.append(int(stripped))
        offset += len(piece) + 1
    return tuple(values)


def parse_problem(text: str) -> ProblemDocument:
    """Parse a problem document; raises :class:`ParseError` with position."""
    n: int | None = None
    alpha: tuple[int, ...] | None = None
    terms: list[tuple[int, tuple[int, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if n is None:
            m = _N_RE.match(line)
            if not m:
                raise ParseError(lineno, len(line) - len(line.lstrip()) + 1, "expected 'n = <int>' as the first line")
            n = int(m.group(1))
            continue
        m = _ALPHA_RE.match(line)
        if m:
            if terms:
                raise ParseError(lineno, 1, "'alpha = {...}' must precede the terms")
            if alpha is not None:
                raise ParseError(lineno, 1, "duplicate 'alpha = {...}' line")
            alpha = _parse_int_list(m.group(1), lineno, line.index("{") + 1)
            continue
        m = _TERM_RE.match(line)
        if not m:
            raise ParseError(lineno, len(line) - len(line.lstrip()) + 1, "expected '<a> : <r1,r2,...>'")
        a = int(m.group(1))
        body = m.group(2)
        if body == "-":
            rows: tuple[int, ...] = ()
        elif not body:
            raise ParseError(lineno, m.start(2) + 1, "missing partition row list")
        else:
            rows = _parse_int_list(body, lineno, m.start(2))
        terms.append((a, rows))
    if n is None:
        raise ParseError(1, 1, "empty document: expected 'n = <int>'")
    return ProblemDocument(n, tuple(terms), alpha)


def _step_block(i: int, a: int, inner: tuple[int, ...], rows) -> list[str]:
    """The ``step i a=...`` line of one step, then its skew diagram.

    ``inner`` is the inner partition of the step's skew shape and
    ``rows`` the filling's entries, one tuple per row of its outer
    partition.
    """
    # each row's dots, then the digits of its entries, if it has any
    lines = [f"step {i} a={a}", *map(mul, repeat("."), inner), *repeat("", len(rows) - len(inner))]
    for r, row in enumerate(rows, 1):
        if row:
            lines[r] += "".join(map(str, row))
    return lines


def render_filtered_tableau(ft, index: int) -> list[str]:
    """The canonical text block for one filtered tableau.

    Each step prints its skew diagram with ``.`` for cells already filled
    (or left of the row's span) and the digit entries of the new cells.
    This is the reference for the ``enumerate`` output, which renders
    through the same step blocks, but from the row tuples the backward
    fold lists, each live edge's fillings once, with no tableau object,
    and joins the blocks along each chain.
    """
    lines = [f"tableau {index}"]
    for i, ((a, _), filling) in enumerate(zip(ft.terms, ft.fillings), 1):
        lines += _step_block(i, a, filling.shape.inner, filling.rows)
    return lines


def _load_document(path: str) -> ProblemDocument:
    if path == "-":
        return parse_problem(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _cut_set(doc: ProblemDocument, flag: str | None) -> tuple[int, ...] | None:
    """The ``--alpha`` cut set, parsed as the file's ``alpha`` line, else the file's."""
    if flag is None:
        return doc.alpha
    body = flag.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    try:
        return _parse_int_list(body, 1, 0)
    except ParseError as exc:
        raise ProblemError(f"bad --alpha value {flag!r}") from exc


def _parse_permutation_arg(text: str, n: int) -> tuple[int, ...]:
    if "," in text:
        body = text
    elif text.isascii() and text.isdigit() and n > 9:
        raise ProblemError("one-line digit notation only works for n <= 9; use commas")
    else:
        body = ",".join(text)  # one-line notation: one digit per entry
    try:
        values = _parse_int_list(body, 1, 0)
    except ParseError:
        raise ProblemError(f"cannot parse permutation {text!r}") from None
    if sorted(values) != list(range(1, n + 1)):
        raise ProblemError(f"{text!r} is not a permutation of 1..{n}")
    return values


def _cmd_count(doc: ProblemDocument, args) -> int:
    value = intersection_number(doc.problem(), _cut_set(doc, args.alpha))
    print(value)
    return 0


def _cmd_enumerate(doc: ProblemDocument, args) -> int:
    """Stream every filtered tableau as :func:`render_filtered_tableau`
    renders it, then ``count <N>``.

    Takes the walk of :func:`enumerate_filtered_tableaux`: as the
    backward fold lists each live edge's fillings, they become step-block
    text once, straight from the skew's inner boundary and the fillings'
    row tuples, so no skew shape or tableau object is built.  Then it
    walks the kept edges' chains in the same order, on one path array
    indexed by level, and writes each combination of the path's blocks as
    one tableau, joined at the leaf.
    """
    problem = doc.problem()
    chosen = validate_problem(problem, _cut_set(doc, args.alpha))
    terms = problem.terms

    def wrap(k, outer, skew, rows):
        return ["\n".join(_step_block(k + 1, terms[k][0], skew, filling)) for filling in rows]

    levels = filtered._trimmed_graph(problem, Shape.full(Staircase(chosen, problem.n)), wrap)
    write = sys.stdout.write
    total = 0
    if levels is not None:
        # the tableau line, one block per step, the blank line.  One list
        # serves every tableau: a tuple of the path's length built per
        # tableau can pile up to 2,000 freed copies on the interpreter's
        # free list, which shows as memory that grows with the output
        lines = [""] * (len(levels) + 1) + ["\n"]
        for path in filtered._chains(levels):
            for lines[1:-1] in iter_product(*[blocks for _, blocks in path]):
                total += 1
                lines[0] = f"tableau {total}"
                write("\n".join(lines))
    write(f"count {total}\n")
    return 0


def _cmd_verify(doc: ProblemDocument, args) -> int:
    problem = doc.problem()
    alpha = _cut_set(doc, args.alpha)
    rule = intersection_number(problem, alpha)
    oracle = oracle_intersection_number(problem, alpha)
    verdict = "OK" if rule == oracle else "MISMATCH"
    print(f"rule={rule} oracle={oracle} {verdict}")
    return 0 if verdict == "OK" else 1


def _cmd_valley(doc: ProblemDocument, args) -> int:
    problem = doc.problem()
    cuts = problem.staircase.alpha  # a termless problem raises here
    word = _parse_permutation_arg(args.w, problem.n)
    floor = args.floor if args.floor is not None else cuts[-1]
    try:
        valley = valley_from_permutation(word, floor)
    except ValueError as exc:
        raise ProblemError(f"not a valley permutation with floor {floor}: {exc}") from exc
    mu = ",".join(str(r) for r in valley.mu) if valley.mu else "-"
    print(f"floor={floor} mu={mu}")
    print(valley_coefficient(valley, problem))
    return 0


def _cmd_monk(doc: ProblemDocument, args) -> int:
    problem = doc.problem()
    chains = count_monk_chains(problem)
    monk = iterate_monk(problem)
    verdict = "OK" if chains == monk else "MISMATCH"
    print(f"chains={chains} monk={monk} {verdict}")
    return 0 if verdict == "OK" else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="lrflags",
        description="Intersection numbers of Grassmannian Schubert problems on flag manifolds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for interface compatibility; no effect on output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("count", _cmd_count), ("enumerate", _cmd_enumerate),
                     ("verify", _cmd_verify), ("monk", _cmd_monk)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("file", help="problem file, or - for stdin")
        if fn is not _cmd_monk:
            p.add_argument("--alpha", help="explicit cut set, e.g. '{2,3,5}' or '2,3,5'")
        p.set_defaults(fn=fn)
    p = sub.add_parser("valley", parents=[common])
    p.add_argument("w", help="one-line permutation: digits for n <= 9, else comma separated")
    p.add_argument("file", help="problem file, or - for stdin")
    p.add_argument("--floor", type=int, help="valley floor; defaults to the largest cut")
    p.set_defaults(fn=_cmd_valley)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    try:
        doc = _load_document(args.file)
        if doc.alpha is not None and "alpha" not in args:
            raise ProblemError(f"{args.command} reads no cut set; remove the file's 'alpha = {{...}}' line")
        return args.fn(doc, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # the oracle's product grows exponentially with n; what it held is
        # freed as the error unwinds, so the message can still be printed
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

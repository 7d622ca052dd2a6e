"""Per-layer spans, recorded from outside the program.

Each public function on the CLI's call paths is replaced, in the module
where its caller looks the name up, by a wrapper that times the call and
counts it.  A span's self time is its duration minus the time of the
spans it directly encloses; a recursive function's inclusive time counts
only its outermost call.  ``permutations`` and ``partitions`` are leaf
helpers cheaper than a wrapper call, so their time stays in their
callers' self time.

Span totals are kept in memory and written out once, when the pass ends.
An exception counts as an error of a span only at its outermost call, so
one uncaught exception counts once in every span it passes through.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name): the span name is "<layer>.<function>".
PATCHES = (
    ("lrflags.cli", "parse_problem", "cli.parse_problem"),
    ("lrflags.cli", "render_filtered_tableau", "cli.render_filtered_tableau"),
    ("lrflags.cli", "validate_problem", "problems.validate_problem"),
    ("lrflags.cli", "intersection_number", "filtered.intersection_number"),
    ("lrflags.cli", "enumerate_filtered_tableaux", "filtered.enumerate_filtered_tableaux"),
    ("lrflags.cli", "oracle_intersection_number", "oracle.oracle_intersection_number"),
    ("lrflags.filtered", "validate_problem", "problems.validate_problem"),
    ("lrflags.filtered", "count_filtered_tableaux", "filtered.count_filtered_tableaux"),
    ("lrflags.filtered", "count_lr_tableaux", "tableaux.count_lr_tableaux"),
    ("lrflags.filtered", "enumerate_lr_tableaux", "tableaux.enumerate_lr_tableaux"),
    ("lrflags.oracle", "validate_problem", "problems.validate_problem"),
    ("lrflags.oracle", "refine_to_full", "problems.refine_to_full"),
    ("lrflags.oracle", "schubert_polynomial", "oracle.schubert_polynomial"),
    ("lrflags.oracle", "staircase_coefficient", "oracle.staircase_coefficient"),
    ("lrflags.polynomials", "IntPolynomial.__mul__", "polynomials.mul"),
    ("lrflags.polynomials", "IntPolynomial.divided_difference", "polynomials.divided_difference"),
)

ROOT = "cli.main"


def _strip(partition) -> tuple[int, ...]:
    return tuple(part for part in partition if part)


class Tracer:
    """Span totals per name and extra operation counts."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s, errors]
        self.counts: dict[str, int] = {
            "polynomials.mul_term_pairs": 0,
            "polynomials.product_terms": 0,
            "polynomials.divdiff_terms": 0,
            "tableaux.lr_count_distinct": 0,
        }
        self._stack: list[float] = []
        self._depth: dict[str, int] = {}
        self._lr_keys: set = set()

    def wrap(self, name: str, fn, on_call=None):
        stats = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            level = depth.get(name, 0)
            depth[name] = level + 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(args, result)
                return result
            except BaseException:
                if level == 0:
                    stats[3] += 1
                raise
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                depth[name] = level
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[2] += elapsed - inner
                if level == 0:
                    stats[1] += elapsed

        return traced

    def install(self):
        """Patch every name in PATCHES; returns the traced ``lrflags.cli.main``."""
        hooks = {
            "polynomials.mul": self._count_mul,
            "polynomials.divided_difference": self._count_divdiff,
            "tableaux.count_lr_tableaux": self._count_lr,
        }
        for module_name, attr, name in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf), hooks.get(name)))
        cli = importlib.import_module("lrflags.cli")
        return self.wrap(ROOT, cli.main)

    def _count_mul(self, args, result) -> None:
        left, right = args
        if not isinstance(right, int):
            # _terms is the polynomial's monomial dict; terms() would copy it.
            self.counts["polynomials.mul_term_pairs"] += len(left._terms) * len(right._terms)
        self.counts["polynomials.product_terms"] += len(result._terms)

    def _count_divdiff(self, args, result) -> None:
        self.counts["polynomials.divdiff_terms"] += len(args[0]._terms)

    def _count_lr(self, args, result) -> None:
        key = tuple(_strip(p) for p in args)
        if key not in self._lr_keys:
            self._lr_keys.add(key)
            self.counts["tableaux.lr_count_distinct"] += 1

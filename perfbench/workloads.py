"""The benchmark's workloads and the problems they run.

Standard library only: nothing here imports ``lrflags``, so the program
under test receives only the problem files written from these
definitions.  Random problems are drawn from fixed pools (built from
``POOL_SEED``) whose answers and ``enumerate`` digests were recorded once
in ``golden.json``, in order of each call's recorded cost.  A workload
seed picks which pool members run: the costliest ``CERTAIN`` share of the
draw always runs, and one member is drawn from each pair of neighbours in
cost order below them.  The costliest problems set a pass's time and its
latency percentiles; on a machine whose speed drifts by tens of percent
they would otherwise make the seed, not the program, decide those
metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

POOL_SEED = 7081582
CERTAIN = 0.6
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# p90 latency needs at least ten samples above it.
MIN_PROBLEMS = 100


@lru_cache(maxsize=None)
def partitions_in_box(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """Every non-empty partition with at most ``rows`` parts, each at most ``cols``."""
    out = []

    def walk(prefix: tuple[int, ...], cap: int) -> None:
        if prefix:
            out.append(prefix)
        if len(prefix) < rows:
            for part in range(1, cap + 1):
                walk(prefix + (part,), part)

    walk((), cols)
    return tuple(sorted(out))


def dimension(cuts, n: int) -> int:
    """dim Fl(alpha; n) = sum (n - a_i)(a_i - a_{i-1})."""
    total, prev = 0, 0
    for a in sorted(cuts):
        total += (n - a) * (a - prev)
        prev = a
    return total


def random_terms(rng: random.Random, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """A random well-posed problem on Fl(alpha; n).

    The cut set is a random subset of 1..n-1, every cut carries at least
    one non-empty partition inside its rectangle, and more partitions are
    added until the total size equals dim(alpha).
    """
    while True:
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        target = dimension(cuts, n)
        terms = [(a, rng.choice(partitions_in_box(a, n - a))) for a in cuts]
        total = sum(sum(lam) for _, lam in terms)
        for _ in range(50):
            if total >= target:
                break
            a = rng.choice(cuts)
            fits = [lam for lam in partitions_in_box(a, n - a) if sum(lam) <= target - total]
            if fits:
                lam = rng.choice(fits)
                terms.append((a, lam))
                total += sum(lam)
        if total == target:
            return tuple(sorted(terms, key=lambda t: t[0]))


def render(n: int, terms) -> str:
    """The problem file text the CLI reads."""
    rows = [f"{a}: {','.join(map(str, lam))}" for a, lam in terms]
    return "\n".join([f"n = {n}", *rows]) + "\n"


def rectangle_tableaux(k: int, n: int) -> int:
    """Standard Young tableaux of the k x (n-k) rectangle, by the hook-length formula.

    This is the intersection number of k(n-k) boxes on Gr(k, n).
    """
    cols = n - k
    hooks = math.prod((k - r) + (cols - c) - 1 for r in range(k) for c in range(cols))
    return math.factorial(k * cols) // hooks


@dataclass(frozen=True)
class Problem:
    """One CLI call and what its stdout must be.

    ``answer`` is the intersection number (``count`` prints it, ``verify``
    prints it twice, ``enumerate`` ends with ``count <answer>``); ``digest``
    is the sha256 of the whole ``enumerate`` stdout, or None when unknown.
    """

    cmd: str
    name: str
    text: str
    answer: int | None = None
    digest: str | None = None

    @property
    def key(self) -> str:
        return hashlib.sha256(f"{self.cmd}\n{self.text}".encode()).hexdigest()[:16]


def grassmannian(k: int, n: int) -> tuple[str, str, int]:
    return f"gr{k}_{n}", render(n, [(k, (1,))] * (k * (n - k))), rectangle_tableaux(k, n)


def full_flag(n: int) -> tuple[str, str, int]:
    """All single boxes on Fl(n), cut a repeated n - a times; the answer is 1."""
    terms = [(a, (1,)) for a in range(1, n) for _ in range(n - a)]
    return f"full{n}", render(n, terms), 1


# The worked reference problems of the paper: 13 boxes on {2,3,4} and
# seven mixed terms on {2,3,5}.
REFERENCES = (
    ("ref262", render(6, [(2, (1,))] * 4 + [(3, (1,))] * 5 + [(4, (1,))] * 4), 262),
    ("ref18", render(7, [(2, (2,)), (2, (2,)), (3, (2, 2)), (3, (2, 1)),
                         (5, (1,)), (5, (1, 1, 1)), (5, (1, 1, 1))]), 18),
)


@dataclass(frozen=True)
class Workload:
    name: str
    cmd: str
    # (n, random problems per run)
    pools: tuple[tuple[int, int], ...]
    # (name, text, independently known answer)
    fixed: tuple[tuple[str, str, int], ...] = ()
    # Known defects: run once after the timed passes and reported, not timed.
    probes: tuple[tuple[str, str, int], ...] = ()

    def pool(self, n: int, draw: int) -> list[Problem]:
        """The distinct random problems at ``n`` that ``draw`` picks from,
        the same on every run."""
        certain = round(CERTAIN * draw)
        size = certain + 2 * (draw - certain)
        rng = random.Random(f"{POOL_SEED}:{self.name}:{n}")
        texts: dict[str, None] = {}
        while len(texts) < size:
            texts[render(n, random_terms(rng, n))] = None
        return [Problem(self.cmd, f"n{n}_{i}", text) for i, text in enumerate(texts)]

    def problems(self, seed: int, golden: dict) -> list[Problem]:
        """The fixed problems, then the pool members this seed picks."""
        out = []
        for name, text, answer in self.fixed:
            digest = golden["answers"][Problem(self.cmd, name, text).key].get("digest")
            out.append(Problem(self.cmd, name, text, answer, digest))
        rng = random.Random(seed)
        for n, draw in self.pools:
            members = {p.key: p for p in self.pool(n, draw)}
            ranked = golden["pools"][f"{self.name}:{n}"]
            if sorted(ranked) != sorted(members):
                raise RuntimeError(f"golden.json does not match the {self.name} n={n} pool; "
                                   "re-record it with --record-golden")
            cheaper = len(ranked) - round(CERTAIN * draw)
            keys = [rng.choice(ranked[s:s + 2]) for s in range(0, cheaper, 2)]
            for key in keys + ranked[cheaper:]:
                known = golden["answers"][key]
                out.append(Problem(self.cmd, members[key].name, members[key].text,
                                   known["answer"], known.get("digest")))
        return out

    def probe_problems(self) -> list[Problem]:
        return [Problem(self.cmd, name, text, answer) for name, text, answer in self.probes]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "count-mixed", "count",
            pools=((11, 40), (12, 40), (13, 40)),
            fixed=tuple(grassmannian(k, n) for n in range(4, 13) for k in range(2, n // 2 + 1))
            + tuple(full_flag(n) for n in (20, 30, 46)),
        ),
        Workload("verify-small", "verify", pools=((6, 70), (7, 40))),
        Workload(
            "enumerate-ladder", "enumerate",
            pools=((7, 96),),
            fixed=tuple(grassmannian(2, n) for n in range(4, 11))
            + (grassmannian(3, 6), grassmannian(3, 7)) + REFERENCES
            + tuple(full_flag(n) for n in (20, 30)),
            probes=(full_flag(46),),
        ),
    )
}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)

"""The lrflags benchmark: ``count``, ``verify`` and ``enumerate`` CLI workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --record-golden

A run writes the workload's problem files, then starts one fresh
interpreter per pass (worker.py) and keeps starting passes while they fit
in ``--seconds``.  One process, one thread, one caller in a closed loop:
each problem is one in-process ``lrflags.cli.main([cmd, file])`` call.
Call times are calibrated against a fixed loop run around each call (see
``calibrated``).  With ``--trace 0`` the passes are uninstrumented and the
run reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
it alternates uninstrumented and traced passes (trace_layers.py), then,
for ``enumerate``, makes one tracemalloc pass, and reports the per-layer
metrics and the tracing overhead.  Human-readable lines come first; the last line of
stdout is the JSON result.  Every run also writes a result file with its
context, per-pass data and spans under ``.perfbench/results/``, which
``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import POOL_SEED, WORKLOADS, Problem, grassmannian, load_golden  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
RUN_BUDGET_S = 170  # a run must end within 180 s
SETUP_PROBES = 3  # set-up probes before each pass
# A typical time of calibration.calibrate() on the machine the benchmark was
# defined on (Xeon, KVM guest, 2 vCPUs, Python 3.11.7).
CALIBRATION_REF_S = 2.0e-3
# Only built-in modules are loaded before the timed import.
IMPORT_PROBE = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "from calibration import calibrate\n"
    "before = calibrate()\n"
    "t = time.perf_counter()\n"
    "import lrflags, lrflags.cli\n"
    "took = time.perf_counter() - t\n"
    "print(took, before, calibrate())\n"
)


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(seed: int, started: str, passes: list[dict]) -> dict:
    """Where and when the run was made.  The calibration loop (see
    ``calibrated``) reads slower than ``CALIBRATION_REF_S`` while the
    machine is busy: its median and its first and last times are kept."""
    loops = [c for p in passes for c in p["calibration_s"]]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "started": started,
        "calibration_s": {"median": statistics.median(loops), "first": loops[0],
                          "last": loops[-1]},
    }


def write_manifest(problems: list[Problem], workdir: Path, label: str) -> Path:
    entries = []
    for i, p in enumerate(problems):
        path = workdir / f"{label}-{i:04d}-{p.name}.txt"
        path.write_text(p.text, encoding="utf-8")
        entries.append({"cmd": p.cmd, "name": p.name, "path": str(path),
                        "answer": p.answer, "digest": p.digest})
    manifest = workdir / f"{label}.json"
    manifest.write_text(json.dumps({"src": str(SRC), "problems": entries}), encoding="utf-8")
    return manifest


class Runner:
    """Starts worker passes and set-up probes within the run's time budget."""

    def __init__(self, workdir: Path, budget_s: float | None = RUN_BUDGET_S) -> None:
        self.workdir = workdir
        self.deadline = None if budget_s is None else time.perf_counter() + budget_s
        self.count = 0
        self.setup: list[float] = []

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise RuntimeError("the run is out of time")
        return left

    def worker(self, manifest: Path, mode: str) -> dict:
        self.count += 1
        out = self.workdir / f"pass-{self.count}.json"
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(manifest), str(out), mode],
            env=worker_env(), check=True, timeout=self.remaining(),
        )
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)

    def passes(self, manifest: Path, modes: tuple[str, ...], seconds: float) -> list[dict]:
        """Rounds of one pass per mode: at least one round, and another only
        while it is expected to end within ``seconds``.  Each round starts
        with ``SETUP_PROBES`` set-up probes (see ``import_time``)."""
        start = time.perf_counter()
        results = []
        rounds = 0
        while True:
            self.setup += [self.import_time() for _ in range(SETUP_PROBES)]
            results += [self.worker(manifest, mode) for mode in modes]
            rounds += 1
            if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
                return results

    def import_time(self) -> float:
        """Seconds to import ``lrflags`` and ``lrflags.cli`` in a fresh
        interpreter, calibrated like a call (see ``calibrated``) by the loop
        run in the same interpreter before and after the import."""
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=worker_env(), check=True,
            capture_output=True, text=True, timeout=self.remaining(),
        )
        took, before, after = map(float, done.stdout.split())
        return CALIBRATION_REF_S * took * 2 / (before + after)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def calibrated(passes: list[dict]) -> list[list[float]]:
    """Each pass's call times in reference-machine seconds.

    Other tenants slow the machine down by tens of percent, in bursts of a
    fraction of a second and in drifts over minutes.  The calibration loop
    that runs before and after each call slows down with the machine but
    not with the program, so a call's time divided by the mean of those two
    loop times, times ``CALIBRATION_REF_S``, is its time on a machine
    whose loop takes that long.
    """
    out = []
    for p in passes:
        loops = p["calibration_s"]
        out.append([CALIBRATION_REF_S * t * 2 / (loops[i] + loops[i + 1])
                     for i, t in enumerate(p["latencies_s"])])
    return out


def speed_scale(passes: list[dict]) -> float:
    """Reference over median calibration loop time: below 1 on a slow run."""
    return CALIBRATION_REF_S / statistics.median(c for p in passes for c in p["calibration_s"])


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """Throughput uses each problem's median calibrated call time over the
    passes; a latency percentile is taken in each pass, and the median over
    the passes is reported."""
    scale = speed_scale(passes)
    each = calibrated(passes)
    times = [statistics.median(t) for t in zip(*each)]
    correct = sum(p["attempted"] - len(p["failures"]) for p in passes) / len(passes)
    return {
        "problems_per_s": correct / sum(times),
        "latency_p50_ms": 1e3 * statistics.median(statistics.median(t) for t in each),
        "latency_p90_ms": 1e3 * statistics.median(percentile(t, 90) for t in each),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
        "tableaux_per_s": statistics.median(p["tableaux"] for p in passes) / sum(times),
        "speed_scale": scale,
    }


CALLS, INCLUSIVE, SELF, ERRORS = range(4)  # fields of a span total (trace_layers.Tracer)


def layer_total(traced: dict, layer: str, field: int):
    """A field of a traced pass's span totals, summed over one layer's spans."""
    return sum(v[field] for k, v in traced["span_totals"].items() if k.startswith(layer + "."))


def layer_metrics(traced: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    totals, counts = traced["span_totals"], traced["counts"]

    def span(name, field):
        return totals.get(name, [0, 0.0, 0.0, 0])[field]

    tableaux = traced["tableaux"]
    lr_calls = span("tableaux.count_lr_tableaux", CALLS)
    enum_calls = span("tableaux.enumerate_lr_tableaux", CALLS)
    metrics = {
        "cli.parse_s": span("cli.parse_problem", INCLUSIVE),
        "cli.render_s": span("cli.render_filtered_tableau", INCLUSIVE),
        "cli.render_calls": span("cli.render_filtered_tableau", CALLS),
        "cli.stdout_bytes": traced["stdout_bytes"],
        "problems.validate_s": span("problems.validate_problem", INCLUSIVE),
        "problems.refine_s": span("problems.refine_to_full", INCLUSIVE),
        "filtered.count_self_s": span("filtered.count_filtered_tableaux", SELF),
        "filtered.enumerate_self_s": span("filtered.enumerate_filtered_tableaux", SELF),
        "filtered.errors": layer_total(traced, "filtered", ERRORS),
        "tableaux.lr_count_s": span("tableaux.count_lr_tableaux", INCLUSIVE),
        "tableaux.lr_count_calls": lr_calls,
        "tableaux.lr_count_distinct_ratio":
            counts["tableaux.lr_count_distinct"] / lr_calls if lr_calls else 0.0,
        "tableaux.lr_enum_s": span("tableaux.enumerate_lr_tableaux", INCLUSIVE),
        "tableaux.lr_enum_calls": enum_calls,
        "tableaux.lr_enum_calls_per_tableau": enum_calls / tableaux if tableaux else 0.0,
        "oracle.extract_s": span("oracle.staircase_coefficient", INCLUSIVE),
        "oracle.schubert_s": span("oracle.schubert_polynomial", INCLUSIVE),
        "oracle.schubert_calls": span("oracle.schubert_polynomial", CALLS),
        "polynomials.mul_s": span("polynomials.mul", INCLUSIVE),
        "polynomials.mul_calls": span("polynomials.mul", CALLS),
        "polynomials.mul_term_pairs": counts["polynomials.mul_term_pairs"],
        "polynomials.product_terms": counts["polynomials.product_terms"],
        "polynomials.divdiff_s": span("polynomials.divided_difference", INCLUSIVE),
        "polynomials.divdiff_terms": counts["polynomials.divdiff_terms"],
    }
    for name in ("cli", "problems", "filtered", "tableaux", "oracle", "polynomials"):
        metrics[f"{name}.self_s"] = layer_total(traced, name, SELF)
    return metrics


def per_layer(untraced: list[dict], traced: list[dict], mem: dict | None,
              probe: dict | None) -> dict:
    """Medians over traced passes, times scaled by ``speed_scale``.
    ``filtered.errors`` adds the errors of the traced known-defect probe.

    The overhead is the median, over rounds, of a traced pass's wall time
    minus that of the untraced pass run just before it.  Neighbouring
    passes share the machine's drift, so the difference is not scaled: the
    calibration loop can read differently in a traced pass than in an
    untraced one, and scaling each pass by its own loop made the overhead
    negative on some runs.
    """
    each = []
    for p in traced:
        scale = speed_scale([p])
        each.append({k: v * scale if k.endswith("_s") else v
                     for k, v in layer_metrics(p).items()})
    metrics = {name: statistics.median(m[name] for m in each) for name in each[0]}
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
    metrics["filtered.enumerate_traced_peak_mb"] = max(mem["traced_peaks_mb"]) if mem else 0.0
    if probe is not None:
        metrics["filtered.errors"] += layer_total(probe, "filtered", ERRORS)
    metrics["speed_scale"] = speed_scale(untraced + traced)
    return metrics


def report(workload: str, seed: int, trace: int, metrics: dict, spec_metrics: list[dict],
           passes: list[dict], probes: list[dict], result_file: Path) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"workload {workload}  seed {seed}  trace {trace}  passes {len(passes)}  "
          f"problems per pass {passes[0]['attempted']}")
    out = {}
    for spec in spec_metrics:
        value = metrics[spec["name"]]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<38} {value:>14.6g} {spec['unit']}")
    print(f"  {'failed_frac':<38} {len(failures) / attempted:>14.6g} ratio "
          f"({len(failures)}/{attempted})")
    print(f"  {'speed_scale':<38} {metrics['speed_scale']:>14.6g} (times above are in reference-machine units)")
    if not trace and WORKLOADS[workload].cmd == "enumerate":
        print(f"  {'tableaux_per_s':<38} {metrics['tableaux_per_s']:>14.6g} 1/s")
    if trace:
        layers = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
        print("  self time by layer: " + ", ".join(
            f"{k.split('.')[0]} {v:.3f}s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    for failure in failures[:10]:
        print(f"  FAILED {failure['problem']}: {failure['why']} {failure['stderr'].strip()[:200]}")
    for probe in probes:
        print(f"  known-defect probe {probe['problem']}: {probe['outcome']}")
    print(f"  result file {result_file.relative_to(ROOT)}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": out}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> int:
    workload = WORKLOADS[name]
    spec = bench_spec()
    problems = workload.problems(seed, load_golden())
    if len(problems) < 100:
        raise RuntimeError(f"{name} has {len(problems)} problems; p90 needs at least 100")
    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        runner = Runner(workdir)
        manifest = write_manifest(problems, workdir, "problems")
        runner.import_time()  # may compile bytecode; not a sample
        if trace:
            pairs = runner.passes(manifest, ("time", "trace"), seconds)
            untraced, traced = pairs[0::2], pairs[1::2]
            mem = runner.worker(manifest, "mem") if workload.cmd == "enumerate" else None
            passes = pairs + ([mem] if mem else [])
            spec_metrics = spec["per_layer"]
        else:
            passes = runner.passes(manifest, ("time",), seconds)
            metrics = end_to_end(passes, runner.setup)
            metrics["failed_frac"] = (sum(len(p["failures"]) for p in passes)
                                      / sum(p["attempted"] for p in passes))
            spec_metrics = spec["end_to_end"]
        probe, probes = None, []
        if workload.probes:
            # Traced in a --trace 1 run, so that filtered.errors sees the defect.
            probe = runner.worker(write_manifest(workload.probe_problems(), workdir, "probes"),
                                  "trace" if trace else "time")
            failed = {f["problem"]: f for f in probe["failures"]}
            for p in workload.probe_problems():
                f = failed.get(p.name)
                outcome = ("ok" if f is None
                           else f"fails: {f['why']} {f['stderr'].strip()[-120:]}")
                if trace:
                    outcome += f"; filtered.errors {layer_total(probe, 'filtered', ERRORS)}"
                probes.append({"problem": p.name, "outcome": outcome})
        if trace:
            metrics = per_layer(untraced, traced, mem, probe)
        record = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
                  "problems": [p.name for p in problems],
                  "context": context(seed, started, passes), "setup_s": runner.setup,
                  "metrics": metrics, "probes": probes, "passes": passes}
        results = STATE / "results"
        results.mkdir(exist_ok=True)
        result_file = results / f"{name}-seed{seed}-trace{trace}-{int(time.time() * 1000)}.json"
        result_file.write_text(json.dumps(record), encoding="utf-8")
        print(json.dumps(report(name, seed, trace, metrics, spec_metrics, passes, probes,
                                result_file)))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_results(directory: str) -> dict[str, list[dict]]:
    """Untraced result files in ``directory``, grouped by workload."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if not record.get("trace"):
            by_workload.setdefault(record["workload"], []).append(record["metrics"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent_dir: str, change_dir: str) -> int:
    """One row per workload and end-to-end metric; exit 1 on any regression.

    A pair is ``unresolved`` when either side's spread (quartile distance
    over median) is wider than the metric's bound, unless every change
    run reads better than every parent run.
    """
    parent, change = load_results(parent_dir), load_results(change_dir)
    worse = False

    def cell(values):
        q1, med, q3 = quartiles(values)
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    print(f"{'workload':<17} {'metric':<15} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'change':>7} {'bound':>6} {'spread':>7}  verdict")
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            side = "parent" if workload not in parent else "change"
            print(f"{workload:<17} no results on the {side} side")
            continue
        for spec in bench_spec()["end_to_end"]:
            name, bound, lower = spec["name"], spec["bound"], spec["better"] == "lower"
            a = [m[name] for m in parent[workload]]
            b = [m[name] for m in change[workload]]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            change_frac = (bm - am) / am
            worse_frac = change_frac if lower else -change_frac
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            if all_better:
                verdict = "better"
            elif spread > bound:
                verdict = "unresolved"
            elif worse_frac > bound:
                verdict, worse = "WORSE", True
            else:
                verdict = "within bound"
            print(f"{workload:<17} {name:<15} {cell(a):<30} {cell(b):<30} "
                  f"{change_frac:>+7.1%} {bound:>6.0%} {spread:>7.1%}  {verdict}")
    return 1 if worse else 0


def selfcheck() -> int:
    """Show that a wrong golden value, wrong bytes, a forced exception and a
    non-zero exit each count as a failure without stopping the pass."""
    sys.path.insert(0, str(SRC))
    import lrflags.cli
    from worker import run_pass

    golden = load_golden()
    name, text, answer = grassmannian(2, 4)
    digest = golden["answers"][Problem("enumerate", name, text).key]["digest"]
    workdir = STATE / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        paths = []
        for i, body in enumerate((text, "n = 4\n2: 1\n")):
            paths.append(str(workdir / f"p{i}.txt"))
            Path(paths[-1]).write_text(body, encoding="utf-8")
        good = [
            {"cmd": "count", "name": "count", "path": paths[0], "answer": answer},
            {"cmd": "verify", "name": "verify", "path": paths[0], "answer": answer},
            {"cmd": "enumerate", "name": "enumerate", "path": paths[0], "answer": answer,
             "digest": digest},
        ]

        def raising(argv):
            if argv[0] == "verify":
                raise RuntimeError("forced")
            return lrflags.cli.main(argv)

        cases = [
            ("recorded answers", good, lrflags.cli.main, 0),
            ("wrong golden answer", [dict(good[0], answer=answer + 1), *good[1:]],
             lrflags.cli.main, 1),
            ("wrong golden digest", [*good[:2], dict(good[2], digest="0" * 64)],
             lrflags.cli.main, 1),
            ("forced exception", good, raising, 1),
            ("non-zero exit", [*good, {"cmd": "count", "name": "invalid", "path": paths[1],
                                       "answer": 0}], lrflags.cli.main, 1),
        ]
        ok = True
        for label, problems, main, want in cases:
            result = run_pass(problems, main)
            failed = len(result["failures"])
            passed = failed == want and len(result["latencies_s"]) == len(problems)
            ok &= passed
            whys = "; ".join(f"{f['problem']}: {f['why']}" for f in result["failures"])
            print(f"{'ok ' if passed else 'BAD'} {label:<20} failed_frac {failed}/{len(problems)}"
                  + (f"  ({whys})" if whys else ""))
        return 0 if ok else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_golden(rounds: int = 3) -> int:
    """Answer every workload's pool and fixed problems once and write them
    to golden.json, replacing what it held.

    Fixed problems must reproduce their independently known answers.  Each
    pool is then timed in ``rounds`` worker passes, like a benchmark run,
    and stored in order of each problem's best call time.
    """
    sys.path.insert(0, str(SRC))
    import lrflags.cli
    from worker import call

    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"golden-{os.getpid()}"
    workdir.mkdir()
    path = workdir / "problem.txt"

    def answer(problem: Problem) -> dict:
        path.write_text(problem.text, encoding="utf-8")
        code, out, err = call(lrflags.cli.main, [problem.cmd, str(path)])
        if code != 0:
            raise RuntimeError(f"{problem.cmd} {problem.name}: {code}: {err}")
        if problem.cmd == "count":
            return {"answer": int(out.head)}
        if problem.cmd == "verify":
            rule, oracle, verdict = out.head.split()
            if verdict != "OK" or rule[5:] != oracle[7:]:
                raise RuntimeError(f"verify {problem.name}: {out.head.strip()}")
            return {"answer": int(rule[5:])}
        return {"answer": int(out.tail.rsplit("count ", 1)[1]), "digest": out.sha.hexdigest()}

    answers, pools = {}, {}
    runner = Runner(workdir, budget_s=None)
    try:
        for workload in WORKLOADS.values():
            for name, text, known in workload.fixed:
                problem = Problem(workload.cmd, name, text, known)
                answers[problem.key] = answer(problem)
                if answers[problem.key]["answer"] != known:
                    raise RuntimeError(f"{workload.name} {name}: "
                                       f"{answers[problem.key]['answer']} != {known}")
            for n, draw in workload.pools:
                pool = workload.pool(n, draw)
                for problem in pool:
                    answers[problem.key] = answer(problem)
                recorded = [Problem(p.cmd, p.name, p.text, **answers[p.key]) for p in pool]
                manifest = write_manifest(recorded, workdir, f"{workload.name}-{n}")
                passes = [runner.worker(manifest, "time") for _ in range(rounds)]
                failures = [f for p in passes for f in p["failures"]]
                if failures:
                    raise RuntimeError(f"{workload.name} n={n}: {failures[0]}")
                best = [min(times) for times in zip(*(p["latencies_s"] for p in passes))]
                pools[f"{workload.name}:{n}"] = [p.key for _, p in
                                                 sorted(zip(best, pool), key=lambda bp: bp[0])]
                print(f"{workload.name} n={n}: {len(pool)} problems, {sum(best):.2f}s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    golden = {"pool_seed": POOL_SEED, "pools": pools, "answers": answers}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "lrflags" / "cli.py").is_file():
        print(f"error: {SRC / 'lrflags'} not found; run from the root of an lrflags checkout",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.record_golden:
        return record_golden()
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

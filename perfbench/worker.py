"""One timed pass over a problem set, in a fresh interpreter.

    python3 worker.py MANIFEST RESULT MODE

MODE is ``time`` (no instrumentation), ``trace`` (spans around each
module's public functions, see trace_layers.py) or ``mem`` (tracemalloc peak of
each call).  The pass imports ``lrflags`` itself, so its caches start cold
and stay warm across the problems of the pass.  Each problem is one
in-process call to ``lrflags.cli.main([cmd, file])`` with stdout going to
a sink that hashes and counts bytes without keeping them.  A wrong
answer, wrong bytes, a non-zero exit or an exception counts as a failed
problem and the pass goes on.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
import traceback

from calibration import calibrate


class HashSink(io.TextIOBase):
    """A text stream that keeps the sha256, the byte count, and the first
    and last few characters of what is written to it."""

    KEEP = 256

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.head = ""
        self.tail = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.nbytes += len(data)
        if len(self.head) < self.KEEP:
            self.head += text[: self.KEEP - len(self.head)]
        self.tail = (self.tail + text)[-self.KEEP:]
        return len(text)


def check(problem: dict, out: HashSink, code) -> str | None:
    """Why the call's result is wrong, or None when it is right."""
    if code != 0:
        return code if isinstance(code, str) else f"exit status {code}"
    answer, cmd = problem["answer"], problem["cmd"]
    if cmd == "enumerate":
        if not out.tail.endswith(f"count {answer}\n"):
            return f"expected 'count {answer}' as the last line"
        if problem.get("digest") and out.sha.hexdigest() != problem["digest"]:
            return "stdout differs from the recorded bytes"
        return None
    want = f"{answer}\n" if cmd == "count" else f"rule={answer} oracle={answer} OK\n"
    if out.nbytes != len(want) or out.head != want:
        return f"expected {want.strip()!r}, got {out.head[:80].strip()!r}"
    return None


def call(main, argv: list[str]) -> tuple[object, HashSink, str]:
    """Run ``main(argv)`` with stdout and stderr captured; returns
    (exit status, stdout sink, stderr text or exception)."""
    out, err = HashSink(), HashSink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception as exc:  # a program failure: record it and go on
        code = f"uncaught {type(exc).__name__}"
        err.write("".join(traceback.format_exception_only(exc)))
    finally:
        sys.stdout, sys.stderr = saved
    return code, out, err.head


def run_pass(problems: list[dict], main, on_problem=None) -> dict:
    """Call ``main`` on every problem in order and check each result.

    The calibration loop runs before the first problem and after each one,
    outside its timing; then ``on_problem(index)`` runs, when given.
    """
    latencies, failures, tableaux, stdout_bytes, calibration = [], [], 0, 0, [calibrate()]
    start = time.perf_counter()
    for i, problem in enumerate(problems):
        t0 = time.perf_counter()
        code, out, err = call(main, [problem["cmd"], problem["path"]])
        latencies.append(time.perf_counter() - t0)
        stdout_bytes += out.nbytes
        why = check(problem, out, code)
        if why is None:
            if problem["cmd"] == "enumerate":
                tableaux += problem["answer"]
        else:
            failures.append({"problem": problem["name"], "why": why, "stderr": err})
        calibration.append(calibrate())
        if on_problem is not None:
            on_problem(i)
    return {
        "wall_s": time.perf_counter() - start,
        "latencies_s": latencies,
        "attempted": len(problems),
        "failures": failures,
        "tableaux": tableaux,
        "stdout_bytes": stdout_bytes,
        "calibration_s": calibration,
    }


def main(argv: list[str]) -> int:
    manifest_path, result_path, mode = argv
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    problems = manifest["problems"]

    import lrflags
    import lrflags.cli

    if not lrflags.__file__.startswith(manifest["src"]):
        raise SystemExit(f"imported {lrflags.__file__}, expected lrflags from {manifest['src']}")

    tracer = on_problem = None
    cli_main = lrflags.cli.main
    if mode == "trace":
        from trace_layers import Tracer

        tracer = Tracer()
        cli_main = tracer.install()
    elif mode == "mem":
        import tracemalloc

        peaks = []

        def on_problem(i: int) -> None:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

        tracemalloc.start()
    elif mode != "time":
        raise SystemExit(f"unknown mode {mode!r}")

    result = run_pass(problems, cli_main, on_problem)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["span_totals"] = tracer.totals
        result["counts"] = tracer.counts
    if mode == "mem":
        result["traced_peaks_mb"] = [p / 2**20 for p in peaks]
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

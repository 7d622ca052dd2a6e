import argparse
import hashlib
import io
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import lrflags
from conftest import random_valid_problem
from lrflags import cli
from lrflags.cli import ParseError, parse_problem, render_filtered_tableau
from lrflags.filtered import FilteredTableau, enumerate_filtered_tableaux
from lrflags.partitions import Shape, Staircase
from lrflags.tableaux import SkewShape, SkewTableau

SIX_BOX = "n = 4\n1: 1\n1: 1\n2: 1\n2: 1\n3: 1\n3: 1\n"
SEVEN_TERM_18 = "n = 7\n2: 2\n2: 2\n3: 2,2\n3: 2,1\n5: 1\n5: 1,1,1\n5: 1,1,1\n"
THIRTEEN_BOX_262 = "n = 6\n" + "".join(f"{a}: 1\n" for a in (2,) * 4 + (3,) * 5 + (4,) * 4)
FIVE_FACTOR = "n = 6\n1: 3\n2: 3\n3: 2,1\n4: 1,1,1\n5: 1,1,1\n"


def run(args, monkeypatch=None, text=None, tmp_path=None):
    """Invoke main() with a problem written to a temp file; capture output."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    path = tmp_path / "problem.txt"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args + [str(path)])
    return code, out.getvalue(), err.getvalue()


def test_parse_six_box():
    doc = parse_problem(SIX_BOX)
    assert doc.n == 4
    assert doc.problem().terms == tuple((a, (1,)) for a in (1, 1, 2, 2, 3, 3))
    assert doc.alpha is None


def test_parse_with_comments_and_blank_lines():
    text = "# a comment\n\nn = 4  # ambient\n\n2: 1  # box\n2: 1\n2: 1\n2: 1\n"
    doc = parse_problem(text)
    assert doc.n == 4
    assert len(doc.terms_as_written) == 4


def test_parse_sorts_terms_stably():
    text = "n = 7\n5: 1\n2: 2\n3: 2,2\n2: 2\n3: 2,1\n5: 1,1,1\n5: 1,1,1\n"
    doc = parse_problem(text)
    p = doc.problem()
    assert p.terms == (
        (2, (2,)), (2, (2,)), (3, (2, 2)), (3, (2, 1)),
        (5, (1,)), (5, (1, 1, 1)), (5, (1, 1, 1)),
    )


def test_parse_empty_partition_dash():
    doc = parse_problem("n = 4\n2: -\n2: 2,2\n")
    assert doc.terms_as_written[0] == (2, ())


def test_parse_alpha_line():
    doc = parse_problem("n = 4\nalpha = {1, 2}\n2: 1\n2: 1\n")
    assert doc.alpha == (1, 2)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_problem("n = 4\n1: x\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="line 1"):
        parse_problem("m = 4\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_problem("")
    with pytest.raises(ParseError, match="precede"):
        parse_problem("n = 4\n2: 1\nalpha = {2}\n")
    # superscripts pass str.isdigit but not int()
    for text, column in (("n = 4\n2: ²\n", 4), ("n = 4\n2: 1,¹\n", 6), ("n = 4\nalpha = {²}\n", 10)):
        with pytest.raises(ParseError, match="expected an integer") as err:
            parse_problem(text)
        assert (err.value.line, err.value.column) == (2, column), text
    # Arabic-Indic and fullwidth digits pass str.isdigit and int() alike,
    # but <int> is ASCII digits only
    for text, line, column in (
        ("n = \u0664\n2: 1\n", 1, 1),
        ("n = 4\n2: \u0661\n", 2, 4),
        ("n = 4\nalpha = {\u0662}\n", 2, 10),
        ("n = 4\n2: \uff14\n", 2, 4),
        ("n = 4\n\u0662: 1\n", 2, 1),
    ):
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert (err.value.line, err.value.column) == (line, column), text


def test_count_command(tmp_path):
    code, out, err = run(["count"], text=SIX_BOX, tmp_path=tmp_path)
    assert (code, out, err) == (0, "2\n", "")
    code, out, _ = run(["count"], text=SEVEN_TERM_18, tmp_path=tmp_path)
    assert (code, out) == (0, "18\n")
    code, out, _ = run(["count"], text=FIVE_FACTOR, tmp_path=tmp_path)
    assert (code, out) == (0, "4\n")


def test_count_dimension_mismatch_exit_2(tmp_path):
    code, out, err = run(["count"], text="n = 4\n1: 1\n2: 1\n", tmp_path=tmp_path)
    assert code == 2
    assert out == ""
    assert "dimension condition" in err


def test_count_parse_error_exit_2(tmp_path):
    code, out, err = run(["count"], text="n = 4\n1: x\n", tmp_path=tmp_path)
    assert code == 2
    assert "line 2" in err


def test_verify_command(tmp_path):
    code, out, _ = run(["verify"], text=SIX_BOX, tmp_path=tmp_path)
    assert (code, out) == (0, "rule=2 oracle=2 OK\n")
    code, out, _ = run(["verify"], text=SEVEN_TERM_18, tmp_path=tmp_path)
    assert (code, out) == (0, "rule=18 oracle=18 OK\n")


def test_verify_mismatch_on_corrupted_rule(tmp_path, monkeypatch):
    # a broken counting rule must be caught by the oracle: exit 1, MISMATCH
    monkeypatch.setattr(cli, "intersection_number", lambda p, alpha=None: 17)
    code, out, _ = run(["verify"], text=SIX_BOX, tmp_path=tmp_path)
    assert code == 1
    assert out == "rule=17 oracle=2 MISMATCH\n"


def test_monk_command(tmp_path):
    code, out, _ = run(["monk"], text=SIX_BOX, tmp_path=tmp_path)
    assert (code, out) == (0, "chains=2 monk=2 OK\n")
    code, out, err = run(["monk"], text=SEVEN_TERM_18, tmp_path=tmp_path)
    assert code == 2
    assert "single box" in err


def test_valley_command(tmp_path):
    code, out, _ = run(["valley", "4321"], text=SIX_BOX, tmp_path=tmp_path)
    assert (code, out) == (0, "floor=3 mu=3,2,1\n2\n")
    code, out, err = run(["valley", "132", "--floor", "2"],
                         text="n = 3\n1: 1\n2: 1\n2: 1\n", tmp_path=tmp_path)
    assert code == 2
    assert "not a valley" in err
    # one-line notation takes ASCII digits only, as the file parser does
    code, out, err = run(["valley", "٣٢١"], text="n = 3\n1: 1\n2: 1\n2: 1\n", tmp_path=tmp_path)
    assert (code, out) == (2, "")
    assert "cannot parse permutation '٣٢١'" in err


def test_valley_with_explicit_floor(tmp_path):
    text = "n = 6\n1: 1\n2: 2\n3: 2,1\n"
    code, out, _ = run(["valley", "531246", "--floor", "3"], text=text, tmp_path=tmp_path)
    assert code == 0
    assert out.splitlines()[0] == "floor=3 mu=4,2"


def test_alpha_override_vanishes(tmp_path):
    text = "n = 4\n2: 1\n2: 1\n2: 1\n2: 1\n"
    code, out, _ = run(["count", "--alpha", "{1,2}"], text=text, tmp_path=tmp_path)
    assert (code, out) == (0, "0\n")
    code, out, _ = run(["verify", "--alpha", "1,2"], text=text, tmp_path=tmp_path)
    assert (code, out) == (0, "rule=0 oracle=0 OK\n")
    code, out, _ = run(["enumerate", "--alpha", "{1,2}"], text=text, tmp_path=tmp_path)
    assert (code, out) == (0, "count 0\n")
    # a bad alpha gets the same diagnostic from every command
    for bad in ("{0,2}", "{}", "{1}", "١,٢", "1,2,"):
        results = {run([cmd, "--alpha", bad], text=text, tmp_path=tmp_path)
                   for cmd in ("count", "enumerate", "verify")}
        assert len(results) == 1, results
        code, out, err = results.pop()
        assert (code, out) == (2, "") and "alpha" in err


def test_alpha_flag_only_where_it_is_read(tmp_path, capsys):
    # monk and valley never read a cut set, so argparse rejects the flag
    text = "n = 3\n1: 1\n2: 1\n2: 1\n"
    path = tmp_path / "problem.txt"
    path.write_text(text)
    for args in (["monk", "--alpha", "1,2"], ["valley", "321", "--alpha", "1,2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(args + [str(path)])
        assert exc.value.code == 2, args
        assert "unrecognized arguments: --alpha" in capsys.readouterr().err
    assert run(["monk"], text=text, tmp_path=tmp_path)[:2] == (0, "chains=1 monk=1 OK\n")
    # nor the file's alpha line, which makes count print 0 here
    wider = "n = 4\nalpha = {1,2}\n2: 1\n2: 1\n2: 1\n2: 1\n"
    for args in (["monk"], ["valley", "2413"]):
        code, out, err = run(args, text=wider, tmp_path=tmp_path)
        assert (code, out) == (2, ""), args
        assert f"{args[0]} reads no cut set" in err and "alpha" in err, err
    assert run(["count"], text=wider, tmp_path=tmp_path)[:2] == (0, "0\n")


def test_alpha_from_file(tmp_path):
    text = "n = 4\nalpha = {1, 2}\n2: 1\n2: 1\n2: 1\n2: 1\n"
    code, out, _ = run(["count"], text=text, tmp_path=tmp_path)
    assert (code, out) == (0, "0\n")


def test_enumerate_six_box_golden(tmp_path):
    code, out, _ = run(["enumerate"], text=SIX_BOX, tmp_path=tmp_path)
    assert code == 0
    expected = """tableau 1
step 1 a=1
1
step 2 a=1
.1
step 3 a=2
..
.1
step 4 a=2
..1
..
step 5 a=3
...
..1
step 6 a=3
...
...
..1

tableau 2
step 1 a=1
1
step 2 a=1
.1
step 3 a=2
..1
step 4 a=2
...
.1
step 5 a=3
...
..1
step 6 a=3
...
...
..1

count 2
"""
    assert out == expected


def test_enumerate_empty_step_golden(tmp_path):
    # an empty first step has no row to draw; a later one draws the rows of
    # the shape so far, all dots
    code, out, _ = run(["enumerate"], text="n = 3\n1: -\n1: 1\n1: 1\n2: 1\n", tmp_path=tmp_path)
    assert code == 0
    assert out == """tableau 1
step 1 a=1
step 2 a=1
1
step 3 a=1
.1
step 4 a=2
..
.1

count 1
"""
    code, out, _ = run(["enumerate"], text="n = 3\n1: 1\n1: -\n1: 1\n2: 1\n2: -\n", tmp_path=tmp_path)
    assert code == 0
    assert out == """tableau 1
step 1 a=1
1
step 2 a=1
.
step 3 a=1
.1
step 4 a=2
..
.1
step 5 a=2
..
..

count 1
"""


def test_enumerate_18_blocks(tmp_path):
    code, out, _ = run(["enumerate"], text=SEVEN_TERM_18, tmp_path=tmp_path)
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("tableau ")) == 18
    assert lines[-1] == "count 18"


def test_enumerate_full_flag_n46(tmp_path):
    # 1035 single boxes on Fl(46): one chain, far deeper than the recursion limit
    text = "n = 46\n" + "".join(f"{a}: 1\n" for a in range(1, 46) for _ in range(46 - a))
    code, out, _ = run(["enumerate"], text=text, tmp_path=tmp_path)
    assert code == 0
    assert out.splitlines()[-1] == "count 1"


def test_count_one_step_of_1024_cells(tmp_path):
    # 32 rows of 32 on Gr(32,64): one LR step of 1024 cells, far more than
    # the recursion limit
    text = "n = 64\n32: " + ",".join(["32"] * 32) + "\n"
    code, out, _ = run(["count"], text=text, tmp_path=tmp_path)
    assert (code, out) == (0, "1\n")


def test_count_one_term_of_1000_rows(tmp_path):
    # 1000 rows of 1 at cut 1000 of n = 1001: shape stepping walks one
    # region row at a time, far more rows than the recursion limit
    text = "n = 1001\n1000: " + ",".join(["1"] * 1000) + "\n"
    code, out, _ = run(["count"], text=text, tmp_path=tmp_path)
    assert (code, out) == (0, "1\n")


def test_running_out_of_memory_is_a_named_error(monkeypatch, tmp_path):
    # the oracle's product is exponential in n; a MemoryError it raises
    # ends the command with an error line and exit 2, not a traceback
    def exhausted(problem, alpha=None):
        raise MemoryError

    monkeypatch.setattr(cli, "oracle_intersection_number", exhausted)
    code, out, err = run(["verify"], text=SIX_BOX, tmp_path=tmp_path)
    assert (code, out, err) == (2, "", "error: out of memory running verify\n")


def reparse_enumeration(output: str, problem):
    """Test-only reader: rebuild FilteredTableau objects from cmd output."""
    staircase = problem.staircase
    blocks = output.strip().split("\n\n")
    count_line = blocks.pop()
    assert count_line == f"count {len(blocks)}"
    rebuilt = []
    for block in blocks:
        lines = block.splitlines()
        assert lines[0].startswith("tableau ")
        chain = [()]
        fillings = []
        pos = 1
        for i, (a, _) in enumerate(problem.terms):
            assert lines[pos] == f"step {i + 1} a={a}"
            pos += 1
            rows = []
            while pos < len(lines) and not lines[pos].startswith("step "):
                rows.append(lines[pos])
                pos += 1
            outer = tuple(len(r) for r in rows)
            inner = tuple(sum(1 for ch in r if ch == ".") for r in rows)
            entries = tuple(
                tuple(int(ch) for ch in r if ch != ".") for r in rows
            )
            fillings.append(SkewTableau(SkewShape(outer, inner), entries))
            chain.append(outer)
        rebuilt.append(
            FilteredTableau(staircase, problem.terms, tuple(chain), tuple(fillings))
        )
    return rebuilt


def test_enumeration_output_round_trips(tmp_path):
    for text in (SIX_BOX, SEVEN_TERM_18, FIVE_FACTOR):
        doc = parse_problem(text)
        problem = doc.problem()
        code, out, _ = run(["enumerate"], text=text, tmp_path=tmp_path)
        assert code == 0
        for ft in reparse_enumeration(out, problem):
            ft.validate()


def problem_text(problem):
    terms = [f"{a}: {','.join(map(str, lam)) or '-'}\n" for a, lam in problem.terms]
    return f"n = {problem.n}\n" + "".join(terms)


def reference_enumeration(text, alpha=None):
    """The enumerate output rendered tableau by tableau by the reference renderer."""
    problem = parse_problem(text).problem()
    staircase = problem.staircase if alpha is None else Staircase(alpha, problem.n)
    blocks = [
        "\n".join(render_filtered_tableau(ft, index)) + "\n\n"
        for index, ft in enumerate(enumerate_filtered_tableaux(problem, Shape.full(staircase)), 1)
    ]
    return "".join(blocks) + f"count {len(blocks)}\n"


def test_enumerate_stream_matches_reference_renderer(tmp_path):
    # the streamed output renders each filling once; it must equal rendering
    # every tableau in full
    rng = random.Random(6)
    cases = [(text, None) for text in (SIX_BOX, SEVEN_TERM_18, THIRTEEN_BOX_262, FIVE_FACTOR)]
    cases += [
        ("n = 6\n" + "3: 1\n" * 9, None),  # Gr(3,6) all boxes, 42 tableaux
        ("n = 4\n2: 2\n2: 1,1\n", None),  # a valid problem whose answer is 0
        (SEVEN_TERM_18, (5, 3, 2)),
        ("n = 4\n2: 1\n2: 1\n2: 1\n2: 1\n", (1, 2)),  # a wider alpha vanishes
        # the full flag's all-box problem: tall skews with one nonempty row
        ("n = 7\n" + "".join(f"{a}: 1\n" for a in range(1, 7) for _ in range(7 - a)), None),
        ("n = 3\n1: -\n1: 1\n1: 1\n2: 1\n", None),  # an empty content's empty step
    ]
    cases += [(problem_text(random_valid_problem(rng, 6)), None) for _ in range(12)]
    counts = set()
    for text, alpha in cases:
        args = ["enumerate"] if alpha is None else ["enumerate", "--alpha", ",".join(map(str, alpha))]
        code, out, err = run(args, text=text, tmp_path=tmp_path)
        assert (code, err) == (0, "")
        assert out == reference_enumeration(text, alpha and sorted(alpha))
        counts.add(out.rsplit("count ", 1)[1])
    assert {"0\n", "2\n", "18\n", "42\n", "262\n"} <= counts


def test_enumerate_builds_no_skew_objects(monkeypatch, tmp_path):
    # the CLI renders each live edge's fillings from the row tuples the
    # backward fold lists: it constructs no SkewShape and no SkewTableau
    built = Counter()
    for cls in (SkewShape, SkewTableau):

        def counting(self, _original=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    for text, count in ((SEVEN_TERM_18, 18), ("n = 6\n" + "3: 1\n" * 9, 42)):
        code, out, err = run(["enumerate"], text=text, tmp_path=tmp_path)
        assert (code, err) == (0, "")
        assert out.endswith(f"count {count}\n")
    assert not built, built
    # the counters do see the library's objects
    assert len(list(enumerate_filtered_tableaux(parse_problem(SEVEN_TERM_18).problem()))) == 18
    assert built["SkewShape"] and built["SkewTableau"] >= 18


class DiscardingSink(io.TextIOBase):
    """A text stream that keeps only the last characters written to it and
    a running sha256 of everything written."""

    tail = ""

    def __init__(self):
        self.sha = hashlib.sha256()

    def writable(self):
        return True

    def write(self, text):
        self.sha.update(text.encode("utf-8"))
        self.tail = (self.tail + text)[-32:]
        return len(text)


def test_enumerate_memory_is_independent_of_output(tmp_path):
    # Gr(4,8) all boxes: 24,024 tableaux, about 2.9 MB of output, from a
    # shape graph of 140 live edges
    path = tmp_path / "gr48.txt"
    path.write_text("n = 8\n" + "4: 1\n" * 16)
    sink = DiscardingSink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = cli.main(["enumerate", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.tail.endswith("\n\ncount 24024\n")
    assert peak < 1 << 20, peak
    # an independent pin of the bytes: the stream and the reference
    # renderer share the trimmed-graph builder, so only this catches a
    # fault in the builder itself
    assert sink.sha.hexdigest() == "78175e8a682e8c9125e30cf59033d3fc996bc367f5fae85c13774cf81a24ea20"


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        first = run(["verify", "--alpha", "1,2,3,5"], text=SEVEN_TERM_18, tmp_path=tmp_path)
        assert first == (0, "rule=0 oracle=0 OK\n", "")
        assert built
        after_first = len(built)
        # without --alpha the next calls must see the file's cut set again
        assert run(["count"], text=SEVEN_TERM_18, tmp_path=tmp_path) == (0, "18\n", "")
        code, out, _ = run(["enumerate"], text=SIX_BOX, tmp_path=tmp_path)
        assert (code, out.splitlines()[-1]) == (0, "count 2")
        assert run(["verify"], text=SEVEN_TERM_18, tmp_path=tmp_path) == (0, "rule=18 oracle=18 OK\n", "")
        assert len(built) == after_first
    finally:
        cli._parser.cache_clear()


def test_threads_flag_is_deterministic(tmp_path):
    runs = [
        run(["enumerate", "--threads", str(k)], text=SEVEN_TERM_18, tmp_path=tmp_path)
        for k in (1, 8)
    ]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    code, _, err = run(["count", "--threads", "0"], text=SIX_BOX, tmp_path=tmp_path)
    assert code == 2


def test_262_through_the_cli(tmp_path):
    code, out, _ = run(["count"], text=THIRTEEN_BOX_262, tmp_path=tmp_path)
    assert (code, out) == (0, "262\n")
    code, out, _ = run(["monk"], text=THIRTEEN_BOX_262, tmp_path=tmp_path)
    assert (code, out) == (0, "chains=262 monk=262 OK\n")
    code, out, _ = run(["verify"], text=THIRTEEN_BOX_262, tmp_path=tmp_path)
    assert (code, out) == (0, "rule=262 oracle=262 OK\n")


def test_document_without_terms_exits_2(tmp_path):
    code, out, err = run(["enumerate"], text="n = 2\n", tmp_path=tmp_path)
    assert code == 2
    assert "no terms" in err
    code, _, err = run(["count"], text="n = 2\n", tmp_path=tmp_path)
    assert code == 2
    code, out, err = run(["monk"], text="n = 4\n", tmp_path=tmp_path)
    assert (code, out) == (2, "") and "no terms" in err
    for floor in ([], ["--floor", "1"]):
        code, out, err = run(["valley", "21"] + floor, text="n = 2\n", tmp_path=tmp_path)
        assert (code, out) == (2, "") and "no terms" in err, floor


def test_comma_separated_permutation_parsing():
    from lrflags.cli import _parse_permutation_arg
    from lrflags.problems import ProblemError

    assert _parse_permutation_arg("10,9,8,7,6,5,4,3,2,1", 10) == tuple(range(10, 0, -1))
    assert _parse_permutation_arg("4321", 4) == (4, 3, 2, 1)
    with pytest.raises(ProblemError):
        _parse_permutation_arg("4321", 10)
    with pytest.raises(ProblemError):
        _parse_permutation_arg("4322", 4)
    for text in ("1,2,3,4,x", "1,,2,3"):
        with pytest.raises(ProblemError, match="cannot parse permutation"):
            _parse_permutation_arg(text, 4)


def child_env():
    """The environment for a child interpreter: it does not see pytest's
    pythonpath, so the directory holding the imported package goes first
    on its PYTHONPATH."""
    package_root = str(Path(lrflags.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return env


def test_cli_as_subprocess(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(SIX_BOX)
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "lrflags.cli", "verify", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "rule=2 oracle=2 OK\n"

    proc = subprocess.run(
        [sys.executable, "-m", "lrflags.cli", "count", "-"],
        input=SIX_BOX, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


def cap_address_space():
    """Limit the address space to 1 GB; a ``preexec_fn``, so it runs in
    the child only."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_verify_at_n_1000_in_bounded_memory(tmp_path):
    # Gr(1,n): the factor's Lehmer code (n-1, 0, ...) is already a
    # partition, so the oracle needs no climb towards w0 in S_n, which
    # costs about n^3 steps and overruns the timeout at n = 2000
    path = tmp_path / "p.txt"
    for n in (1000, 2000):
        path.write_text(f"n = {n}\n1: {n - 1}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "lrflags.cli", "verify", str(path)],
            capture_output=True, text=True, env=child_env(),
            preexec_fn=cap_address_space, timeout=20,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "rule=1 oracle=1 OK\n", ""), n


def test_verify_gr2_600_with_two_rows_in_bounded_time(tmp_path):
    # the oracle's products are in 600 variables, so each product term
    # unpacks 600 exponents from its packed key: by shift and mask this
    # answers in about 1 s, by a big-integer division each in about 15 s
    path = tmp_path / "p.txt"
    path.write_text("n = 600\n2: 598\n2: 598\n")
    proc = subprocess.run(
        [sys.executable, "-m", "lrflags.cli", "verify", str(path)],
        capture_output=True, text=True, env=child_env(),
        preexec_fn=cap_address_space, timeout=8,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "rule=1 oracle=1 OK\n", "")


def mutate(rng, text):
    """One random edit of a problem document: a character inserted,
    deleted or replaced, a number rewritten, a line dropped or repeated,
    or an alpha line added."""
    lines = text.splitlines(keepends=True)
    pos = rng.randrange(len(text) + 1)
    kind = rng.randrange(7)
    if kind == 0:
        return text[:pos] + rng.choice("0123456789,:;-={}# \t\nna\u00b2\u00e9") + text[pos:]
    if kind == 1:
        return text[:pos] + text[pos + 1:]
    if kind == 2:
        return text[:pos] + rng.choice("0,:-{}") + text[pos + 1:]
    if kind == 3:
        return re.sub(r"\d+", lambda m: str(rng.choice((0, 1, 2, 3, 9, 10, 99))) if rng.random() < 0.3 else m.group(), text)
    if kind == 4 and lines:
        del lines[rng.randrange(len(lines))]
    elif kind == 5 and lines:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    else:
        cuts = ",".join(str(rng.randrange(10)) for _ in range(rng.randrange(4)))
        lines.insert(rng.randrange(len(lines) + 1), f"alpha = {{{cuts}}}\n")
    return "".join(lines)


def test_fuzzed_documents_exit_cleanly(tmp_path):
    # every command on mutated fixtures: exit 0, 1 or 2, never an exception,
    # and every 2 says why on stderr; n stays at 8 or below so that a valid
    # mutant's verify stays fast
    rng = random.Random(2026)
    seeds = [SIX_BOX, SEVEN_TERM_18, THIRTEEN_BOX_262, FIVE_FACTOR, "n = 7\nalpha = {2,3,5}\n" + SEVEN_TERM_18[6:]]
    codes = Counter()
    inputs = 0
    while inputs < 400:
        text = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            text = mutate(rng, text)
        try:
            n = parse_problem(text).n
        except ParseError:
            n = 0
        if n > 8:
            continue
        inputs += 1
        word = "".join(map(str, rng.sample(range(1, n + 1), n))) if n and rng.random() < 0.8 else "21"
        for args in (["count"], ["enumerate"], ["verify"], ["monk"], ["valley", word]):
            try:
                code, _, err = run(args, text=text, tmp_path=tmp_path)
            except Exception as exc:
                pytest.fail(f"{args} on {text!r} raised {exc!r}")
            assert code in (0, 1, 2), (args, text)
            assert code != 2 or err.startswith("error:"), (args, text, err)
            codes[code] += 1
    # the mutants reach past the parser
    assert codes[0] > 0 and codes[2] > 0


def test_exit_codes_never_other(tmp_path):
    # spot checks: 0 success, 1 mismatch, 2 invalid; nothing else observed
    cases = [
        (["count"], SIX_BOX, 0),
        (["count"], "n = 4\n1: 1\n", 2),
        (["monk"], SEVEN_TERM_18, 2),
    ]
    for args, text, expected in cases:
        code, _, _ = run(args, text=text, tmp_path=tmp_path)
        assert code == expected

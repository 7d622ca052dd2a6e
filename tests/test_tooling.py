"""Checks on the repository's tooling that reads the library from outside."""

import importlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


def test_trace_patches_resolve():
    # the benchmark's layer tracer patches these names by lookup, with no
    # default, so a renamed or moved function breaks every traced pass
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    trace_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_layers)
    assert trace_layers.PATCHES
    for module_name, attr, _ in trace_layers.PATCHES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), (module_name, attr)
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_rule_looks_up_lr_layer_at_call_time(monkeypatch, six_box_problem):
    # the tracer patches these names on lrflags.filtered; a callable bound at
    # import time (say, a default argument) would bypass the patch and read 0
    import lrflags.filtered as filtered

    calls = {"count_lr_tableaux": 0, "enumerate_lr_tableaux": 0}
    for name in calls:
        original = getattr(filtered, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(filtered, name, counting)
    assert filtered.count_filtered_tableaux(six_box_problem) == 2
    assert calls["count_lr_tableaux"] > 0
    assert len(list(filtered.enumerate_filtered_tableaux(six_box_problem))) == 2
    assert calls["enumerate_lr_tableaux"] > 0


def test_cli_looks_up_enumeration_at_call_time(monkeypatch, tmp_path):
    # the tracer's enumerate span patches this name on lrflags.cli
    import lrflags.cli as cli

    calls = []
    original = cli.enumerate_filtered_tableaux

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "enumerate_filtered_tableaux", counting)
    path = tmp_path / "six_box.txt"
    path.write_text("n = 4\n1: 1\n1: 1\n2: 1\n2: 1\n3: 1\n3: 1\n")
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["enumerate", str(path)]) == 0
    assert len(calls) == 1
    assert out.getvalue().endswith("count 2\n")

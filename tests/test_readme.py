"""The README's examples, read from its code fences, hold as written."""

import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

from lrflags import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FENCES = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def fence(language, marker):
    """The lines of the one code fence in ``language`` that holds ``marker``."""
    (body,) = [body for lang, body in FENCES if lang == language and marker in body]
    return body.splitlines()


def verify_example():
    """The shell example's problem document and the line it shows."""
    command, shown = fence("", "| lrflags verify -")
    printed = re.fullmatch(r"\$ printf '(.*)' \| lrflags verify -", command)
    return printed.group(1).replace("\\n", "\n"), shown


def run(args, document, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(args + ["-"])
    return code, out.getvalue()


def test_library_example_runs():
    exec("\n".join(fence("python", "from lrflags import")), {})


def test_verify_example_prints_what_it_shows(monkeypatch):
    document, shown = verify_example()
    assert shown == "rule=2 oracle=2 OK"
    assert run(["verify"], document, monkeypatch) == (0, shown + "\n")


def test_enumerate_sample_begins_the_output(monkeypatch):
    # the sample is the start of enumerate on the verify example's six boxes
    *sample, ellipsis = fence("", "tableau 1")
    assert ellipsis == "..."
    document, _ = verify_example()
    code, out = run(["enumerate"], document, monkeypatch)
    assert code == 0
    assert out.splitlines()[:len(sample)] == sample

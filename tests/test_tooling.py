"""Checks on the repository's tooling that reads the library from outside."""

import ast
import importlib
import importlib.util
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import lrflags

ROOT = Path(__file__).resolve().parents[1]
TRACE_LAYERS = ROOT / "perfbench" / "trace_layers.py"


def _trace_patches():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    trace_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_layers)
    return trace_layers.PATCHES


def _all_names(tree):
    """The names a parsed module lists in its ``__all__``."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def test_trace_patches_resolve():
    # the benchmark's layer tracer patches these names by lookup, with no
    # default, so a renamed or moved function breaks every traced pass
    patches = _trace_patches()
    assert patches
    for module_name, attr, _ in patches:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), (module_name, attr)
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_rule_looks_up_lr_layer_at_call_time(monkeypatch, seven_term_problem):
    # the rule looks these names up on lrflags.filtered when called, so a
    # patch there sees every call; a callable bound at import time (say, a
    # default argument) would bypass it and read 0.  The 18 problem's (2, 2)
    # and (2, 1) contents take their multiplicities from count_lr_tableaux;
    # one-row and one-column steps do not.  Listing goes through _lr_rows
    # for every step.
    import lrflags.filtered as filtered

    calls = {"count_lr_tableaux": 0, "_lr_rows": 0}
    for name in calls:
        original = getattr(filtered, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(filtered, name, counting)
    assert filtered.count_filtered_tableaux(seven_term_problem) == 18
    assert calls["count_lr_tableaux"] > 0
    assert len(list(filtered.enumerate_filtered_tableaux(seven_term_problem))) == 18
    assert calls["_lr_rows"] > 0


def test_cli_looks_up_enumeration_at_call_time(monkeypatch, tmp_path):
    # enumerate iterates the live chains from their generator, looked up on
    # lrflags.filtered when called, so a patch there sees the one call
    import lrflags.cli as cli
    import lrflags.filtered as filtered

    calls = []
    original = filtered._live_chains

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(filtered, "_live_chains", counting)
    path = tmp_path / "six_box.txt"
    path.write_text("n = 4\n1: 1\n1: 1\n2: 1\n2: 1\n3: 1\n3: 1\n")
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["enumerate", str(path)]) == 0
    assert len(calls) == 1
    assert out.getvalue().endswith("count 2\n")


def test_cli_enumerates_in_the_wider_region(monkeypatch, tmp_path):
    # enumerate --alpha with a strictly wider cut set runs the rule on that
    # set's region, whose empty stream ends with count 0
    import lrflags.cli as cli
    import lrflags.filtered as filtered

    targets = []
    original = filtered._live_chains

    def recording(problem, target, *rest):
        targets.append(target)
        return original(problem, target, *rest)

    monkeypatch.setattr(filtered, "_live_chains", recording)
    path = tmp_path / "quad.txt"
    path.write_text("n = 4\n2: 1\n2: 1\n2: 1\n2: 1\n")
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["enumerate", "--alpha", "{1,2}", str(path)]) == 0
    assert [t.staircase.alpha for t in targets] == [(1, 2)]
    assert out.getvalue() == "count 0\n"


def test_library_imports_only_what_it_uses():
    # an imported name must be used, or re-exported through __all__ or a
    # "*" import; the one exception is a name the layer tracer patches on
    # that module
    patched = {(module, attr) for module, attr, _ in _trace_patches()}
    unused = []
    for path in sorted((ROOT / "src" / "lrflags").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            if alias.name != "*"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"lrflags.{path.stem}" if path.stem != "__init__" else "lrflags"
        unused += [
            (module, name) for name in sorted(imported - used - _all_names(tree))
            if (module, name) not in patched
        ]
    assert not unused, unused


def test_library_exports_have_a_caller():
    # a name in a module's __all__ must be used by library code outside its
    # own definition, re-exported by the package or patched by the layer
    # tracer; a helper only tests call lives in tests/conftest.py.  Each
    # name the package exports is named in README's Library section.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "lrflags").glob("*.py"))
    }
    del trees["__init__"]
    reexported = set(lrflags.__all__)
    patched = {attr.split(".")[0] for _, attr, _ in _trace_patches()}
    used = set()
    for stem, tree in trees.items():
        # "from .module import name" binds (module, name) to name, and
        # "from . import module" makes module.name a use of (module, name)
        imported, modules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
                    else:
                        modules.add(alias.asname or alias.name)
        for node in tree.body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id != own:
                    used.add(imported.get(sub.id, (stem, sub.id)))
                elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in modules:
                    used.add((sub.value.id, sub.attr))
    unused = [
        (stem, name)
        for stem, tree in trees.items()
        for name in sorted(_all_names(tree))
        if (stem, name) not in used and name not in reexported | patched
    ]
    assert not unused, unused
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n")[1].split("\n## ")[0]
    # named in backquotes in the prose, or used by the section's example
    named = set(re.findall(r"`(\w+)`", library)) | set(re.findall(r"\w+", library.split("```")[1]))
    unnamed = sorted(reexported - named)
    assert not unnamed, unnamed


def test_package_reexports_each_module_surface():
    # the package's surface is the union of its library modules' __all__
    # lists, each declared once in its module's source and never extended
    # at run time, and "from lrflags import *" binds exactly that surface
    stems = [
        path.stem for path in sorted((ROOT / "src" / "lrflags").glob("*.py"))
        if path.stem not in ("__init__", "cli")
    ]
    owner = {}
    for stem in stems:
        module = importlib.import_module(f"lrflags.{stem}")
        tree = ast.parse((ROOT / "src" / "lrflags" / f"{stem}.py").read_text(encoding="utf-8"))
        assert sorted(module.__all__) == sorted(_all_names(tree)), stem
        for name in module.__all__:
            assert owner.setdefault(name, stem) == stem, (name, owner[name], stem)
            assert getattr(lrflags, name) is getattr(module, name), (stem, name)
    assert sorted(lrflags.__all__) == sorted(owner)
    namespace = {}
    exec("from lrflags import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(lrflags.__all__)


def _sibling_imports(stem):
    """What library module ``stem`` imports from the package: module stem
    to the names it takes, ``"*"`` for the module itself; the package's
    own ``__init__`` is the stem ``"__init__"``."""
    tree = ast.parse((ROOT / "src" / "lrflags" / f"{stem}.py").read_text(encoding="utf-8"))
    stems = {path.stem for path in (ROOT / "src" / "lrflags").glob("*.py")}
    taken = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [
                (alias.name.partition(".")[2] or "__init__", "*")
                for alias in node.names
                if alias.name.split(".")[0] == "lrflags"
            ]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "lrflags"):
            module = (node.module or "").removeprefix("lrflags").lstrip(".")
            if module:
                pairs = [(module, alias.name) for alias in node.names]
            else:  # "from . import name": a module, or a name the package exports
                pairs = [(alias.name, "*") if alias.name in stems else ("__init__", alias.name) for alias in node.names]
        else:
            continue
        for module, name in pairs:
            taken.setdefault(module, set()).add(name)
    return taken


def test_oracle_shares_no_code_with_the_rule():
    # the oracle checks the rule only while the two compute apart: both use
    # the input gates of partitions, permutations and problems, but the
    # oracle and its polynomials take nothing from the rule, the command
    # line or the package, and from the LR core the oracle takes only the
    # count on the right-hand side of coefficient_identity_check
    for stem in ("oracle", "polynomials"):
        taken = _sibling_imports(stem)
        assert not taken.keys() & {"filtered", "cli", "__init__"}, (stem, taken)
    assert _sibling_imports("oracle").get("tableaux", set()) <= {"count_lr_tableaux"}
    for stem in ("filtered", "tableaux"):
        taken = _sibling_imports(stem)
        assert not taken.keys() & {"oracle", "polynomials", "__init__"}, (stem, taken)

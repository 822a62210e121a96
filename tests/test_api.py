import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import fneg

SRC = Path(fneg.__file__).parent

# The public surface: a change here is an API change and must say so.
PUBLIC_NAMES = [
    "CheckReport", "ClassLabel", "ClassificationError", "FnegError", "FockOperator",
    "LayoutError", "MeasureReport", "ModeLayout", "ParityError", "ParityType",
    "ProjectedState", "PureCoeffs", "SamplingError", "StateValidationError", "SubsystemSpec",
    "annihilation_op", "bipartite_report", "biseparable_example", "bosonic_pt",
    "canonical_state", "canonical_vector", "cayley_hdet", "check_identity_suite",
    "check_locc_monotonicity", "check_perturbation_expansion", "conjecture_scan",
    "creation_op", "embed_local", "entropy", "fermionic_pt", "fermionic_pt_majorana",
    "full_transpose", "graded_tensor", "identity_op", "j_abc", "log_negativity",
    "majorana_op", "mixed3_classify", "mutual_information", "n_abc", "negativity",
    "number_op", "parity_op", "parity_project", "partial_trace", "partial_transpose",
    "permute_modes", "pi_abc", "pi_inequality_scan", "pt_moment", "pure3_class",
    "random_density", "random_pure", "random_separable", "subsystem_parity_type",
    "three_tangle", "trace_norm", "tripartite_report", "two_mode_separable",
]


def test_all_is_pinned_and_resolves():
    assert len(PUBLIC_NAMES) == 59
    assert sorted(fneg.__all__) == PUBLIC_NAMES
    for name in fneg.__all__:
        assert getattr(fneg, name) is not None, name


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never references, outside ``__future__`` and ``__all__``."""
    tree = ast.parse(source)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            annotation = getattr(node, "annotation", None)  # of an ast.arg or ast.AnnAssign
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_all_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_string_annotations_and_exports():
    source = ("from __future__ import annotations\nimport os\nfrom x import A, B, C\n"
              "__all__ = ['C']\ndef f(a: 'A') -> None: ...\n")
    assert _unused_imports(source) == ["B (line 3)", "os (line 2)"]


def _unreferenced_functions(modules: dict[str, str], others: list[str], exempt: set[str]) -> list[str]:
    """Module-level functions of ``modules`` (file name -> source) that no source references.

    A reference is a name, an attribute, an imported name or a string equal to
    the function's name, outside the function's own body.  A private function
    (leading underscore) may be referenced anywhere in ``modules`` or
    ``others`` (the tests); any other must be referenced in ``modules``, so
    test-only public API is flagged.  Decorated functions are registered by
    their decorator (click commands), and ``exempt`` names (``__all__``, entry
    points) are public.
    """
    def names(tree: ast.AST) -> Counter:
        found = Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found[node.id] += 1
            elif isinstance(node, ast.Attribute):
                found[node.attr] += 1
            elif isinstance(node, ast.alias):
                found[node.name.split(".")[-1]] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found[node.value] += 1
        return found

    trees = {name: ast.parse(source) for name, source in modules.items()}
    in_src = sum((names(tree) for tree in trees.values()), Counter())
    anywhere = in_src + sum((names(ast.parse(source)) for source in others), Counter())
    return sorted(
        f"{module}:{node.name} (line {node.lineno})"
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.decorator_list
        and node.name not in exempt
        and (anywhere if node.name.startswith("_") else in_src)[node.name]
        == names(node)[node.name]
    )


def _entry_points() -> set[str]:
    """The functions named by ``[project.scripts]`` in ``pyproject.toml``."""
    text = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', scripts))


def test_every_module_function_is_referenced():
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    tests = [path.read_text(encoding="utf-8") for path in sorted(Path(__file__).parent.glob("*.py"))]
    assert _unreferenced_functions(modules, tests, set(fneg.__all__) | _entry_points()) == []


def test_unreferenced_function_check_rules():
    module = ("import click\n__all__ = ['api']\n"
              "def api():\n    return _used(), getattr(m, 'by_string')\n"
              "def main(): ...\n"
              "@click.command()\ndef cmd(): ...\n"
              "def _used(): ...\n"
              "def by_string(): ...\n"
              "def forked(n):\n    return forked(n - 1)\n"
              "def dead(): ...\n"
              "def test_only(): ...\n"
              "def _test_helper(): ...\n"
              "def _by_test_string(): ...\n")
    # tests reference private functions, never public ones
    others = ["from m import test_only, _test_helper\n", "m.test_only()\n",
              "setattr(m, '_by_test_string', None)\n"]
    assert _unreferenced_functions({"m.py": module}, others, {"api", "main"}) == [
        "m.py:dead (line 12)", "m.py:forked (line 10)", "m.py:test_only (line 13)"]


def test_private_names_cited_in_the_readme_resolve():
    # The README describes the batching through private names such as
    # `verify._STACK_BYTES`; deleting or renaming one must update the text too.
    text = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    cited = sorted(set(re.findall(r"`(?:fneg\.)?(\w+)\.(_\w+)`", text)))
    assert ("verify", "_STACK_BYTES") in cited and ("measures", "_pt_norms") in cited
    missing = [f"{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"fneg.{module}"), name)]
    assert missing == []


def _top_level_names(source: str) -> set[str]:
    """Names a module defines at its top level: functions, classes and assigned names."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return found - {"__all__"}


def test_no_top_level_name_is_defined_in_two_modules():
    # A private helper copied under one name into two modules drifts apart unseen.
    owners: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for name in _top_level_names(path.read_text(encoding="utf-8")):
            owners.setdefault(name, []).append(path.stem)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}

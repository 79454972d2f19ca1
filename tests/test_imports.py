"""Every name a module of the package imports is used in that module, and
every private module-level name is used somewhere in the package.

No linter runs on this repository, so this is the check. `__init__.py` is
left out of the first: its imports are the package's exports.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "logmgf"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = "import io\nimport os\nfrom dataclasses import dataclass, field\n\nos.sep\n@dataclass\nclass A: pass\n"
    assert _unused_imports(source) == ["io (line 1)", "field (line 3)"]


def _seedsequence_uses(source: str) -> list[str]:
    """Lines whose code names SeedSequence; docstrings and comments are not code."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "SeedSequence":
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "SeedSequence":
            lines.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] == "SeedSequence" for alias in node.names):
                lines.add(node.lineno)
    return [f"SeedSequence (line {line})" for line in sorted(lines)]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_streams_have_one_keying_algorithm(path):
    # RngSeed.substreams runs SeedSequence's hash itself on index arrays; a
    # second path through numpy's SeedSequence could drift from it unseen
    assert _seedsequence_uses(path.read_text()) == []


def test_the_check_finds_a_seedsequence_in_code():
    source = (
        '"""Keyed like SeedSequence((seed, i))."""\n'
        "import numpy as np\n"
        "from numpy.random import SeedSequence as S\n"
        "from numpy.random.bit_generator import ISeedSequence\n"
        "# SeedSequence in a comment\n"
        "np.random.SeedSequence((0, 1))\n"
        "SeedSequence\n"
    )
    assert _seedsequence_uses(source) == [
        "SeedSequence (line 3)", "SeedSequence (line 6)", "SeedSequence (line 7)",
    ]


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level `_name`s a module defines (dunder names excluded)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(n, line) for n, line in names if n.startswith("_") and not n.startswith("__")]


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """`module: _name (line n)` for each private module-level name that no
    module of `sources` loads, reads as an attribute or imports by name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in referenced
    ]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in sorted(_SRC.glob("*.py"))}
    assert _unreferenced_private_names(sources) == []


def test_the_check_finds_an_unreferenced_private_name():
    sources = {
        "a.py": (
            "_USED = 1\n_DEAD = 2\n_DEAD_TOO: int = 3\n\n"
            "def _helper():\n    return _USED\n\nclass _Gone: pass\n"
        ),
        "b.py": "from .a import _helper\n_helper()\n",
    }
    assert _unreferenced_private_names(sources) == [
        "a.py: _DEAD (line 2)", "a.py: _DEAD_TOO (line 3)", "a.py: _Gone (line 8)",
    ]


def test_the_benchmark_tracer_binds_names_the_package_keeps():
    # perfbench/tracing.py wraps these names in traced runs and skips a name it
    # cannot find, which would read as a zero per-layer metric, not an error
    import importlib
    import importlib.util

    path = _SRC.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # the standard library only
    missing = [
        f"{module}.{name}"
        for module, name in tracing._WRAPPED
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
    from logmgf.gaussian import RngSeed

    assert callable(getattr(RngSeed, "substream", None))


def test_cli_import_defers_threads_queues_and_random_streams():
    # each is imported where it is first used; at module level they would add
    # about 17 ms (2 vCPUs) to every cold `logmgf compute`
    deferred = ["concurrent.futures", "numpy.random", "queue"]
    code = f"import sys, logmgf.cli\nprint([m for m in {deferred!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"

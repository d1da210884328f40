"""What importing isoact does: every name a module under ``src/isoact``
imports is used in that module, and the native thread pools are pinned."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isoact"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> set:
    """Names bound by the import statements of a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out |= {alias.asname or alias.name for alias in node.names}
    return out


def annotations(tree: ast.Module):
    """Annotations of arguments, annotated assignments and return values."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns


def used_names(tree: ast.AST) -> set:
    """Names loaded anywhere, including inside quoted annotations."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out |= used_names(ast.parse(node.value, mode="eval"))
    return out


def exported_names(tree: ast.Module) -> set:
    """The module's ``__all__``: names imported to be re-exported."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = imported_names(tree) - used_names(tree) - exported_names(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def test_scan_sees_a_dead_import():
    tree = ast.parse("from typing import List, Tuple\nimport os\nx: 'Tuple[int]' = ()\n")
    assert imported_names(tree) - used_names(tree) == {"List", "os"}


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_PROBE = (
    "import os, sys; sys.path.insert(0, sys.argv[1]); import isoact; "
    "print(' '.join(os.environ.get(name, '-') for name in sys.argv[2:]))"
)


@pytest.mark.parametrize(
    "preset, expected",
    [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"])],
)
def test_import_pins_thread_pools_unless_set(preset, expected):
    # a fresh interpreter: once numpy is loaded, the variables no longer matter
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    done = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE, str(PACKAGE.parent), *THREAD_VARS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.split() == expected

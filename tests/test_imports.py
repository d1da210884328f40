"""Every name a module under ``src/isoact`` imports is used in that module."""

import ast
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

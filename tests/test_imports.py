"""What importing isoact does: every name a module under ``src/isoact``
imports is used in that module, every definition there is reachable from
what the package runs, every error class is raised or caught, every raised
error carries a message, and the native thread pools are pinned."""

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def referenced_names(node: ast.AST) -> set:
    """Names and attribute names loaded anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def attribute_names(node: ast.AST) -> set:
    """Attribute names loaded anywhere under ``node``: the only way to reach a method."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def is_command(node: ast.AST) -> bool:
    """A function registered with click by ``@<group>.command`` or ``@<group>.group``."""
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def unreachable(modules: dict) -> list:
    """Definitions in ``modules`` (name to parsed module) that nothing the package runs reaches.

    The roots are the names in ``__init__``'s ``__all__``, the click commands
    of ``cli``, and every module-level statement that is not a definition:
    those run on import, and in ``suites`` they register the suites.  From a
    reached function or class, every name and attribute name it loads reaches
    the top-level definitions of that name in any module, and every attribute
    name it loads reaches the methods of that name of reached classes; a bare
    name, such as a local variable, reaches no method.  A reached class also
    reaches its dunder methods.  Reported are top-level functions and
    classes, and the public methods of reached classes, as ``module.Name`` or
    ``module.Class.method``.
    """
    defs = {}
    names = set()
    attrs = set()

    def load(node):
        names.update(referenced_names(node))
        attrs.update(attribute_names(node))

    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, *FUNCTIONS)):
                defs[(module, node.name)] = node
                if module == "cli" and is_command(node):
                    names.add(node.name)
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, FUNCTIONS):
                            defs[(module, f"{node.name}.{sub.name}")] = sub
            else:
                load(node)
        if module == "__init__":
            names.update(exported_names(tree))
    reached = set()
    grew = True
    while grew:
        grew = False
        for (module, qualname), node in defs.items():
            if (module, qualname) in reached:
                continue
            owner, _, method = qualname.rpartition(".")
            if owner:
                if (module, owner) not in reached:
                    continue
                if method not in attrs and not (method.startswith("__") and method.endswith("__")):
                    continue
                load(node)
            elif qualname not in names:
                continue
            elif isinstance(node, ast.ClassDef):
                # the class body and decorators run on definition; methods only when reached
                for part in node.bases + node.decorator_list + node.body:
                    if isinstance(part, FUNCTIONS):
                        for decorator in part.decorator_list:
                            load(decorator)
                    else:
                        load(part)
            else:
                load(node)
            reached.add((module, qualname))
            grew = True
    out = []
    for (module, qualname) in defs:
        owner, _, method = qualname.rpartition(".")
        if (module, qualname) in reached:
            continue
        if owner and ((module, owner) not in reached or method.startswith("_")):
            continue
        out.append(f"{module}.{qualname}")
    return sorted(out)


def test_every_definition_is_reachable():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    dead = unreachable(modules)
    assert not dead, (
        "definitions under src/isoact that no suite, cli command or isoact.__all__ "
        f"reaches; move test-only code into tests/ or delete it: {dead}"
    )


def test_scan_sees_a_dead_function():
    modules = {
        "__init__": ast.parse("from .m import Shown\n__all__ = ['Shown']\n"),
        "cli": ast.parse(
            "@main.command()\ndef probe():\n    return helper()\n"
            "def helper():\n    unused = Shown().used()\n    return unused\n"
        ),
        "suites": ast.parse("REGISTRY = {'s': run_s}\ndef run_s():\n    return 0\n"),
        "m": ast.parse(
            "class Shown:\n"
            "    def __eq__(self, other):\n        return twin()\n"
            "    def used(self):\n        return 1\n"
            "    def unused(self):\n        return dead()\n"
            "    def _private(self):\n        return 2\n"
            "def twin():\n    return 3\n"
            "def dead():\n    return 4\n"
            "class Hidden:\n    def method(self):\n        return 5\n"
        ),
    }
    assert unreachable(modules) == ["m.Hidden", "m.Shown.unused", "m.dead"]


def exception_clauses(node: ast.AST):
    """Each ``raise`` and ``except`` clause under ``node``, with the class names it names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise) and sub.exc is not None:
            named = [sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc]
        elif isinstance(sub, ast.ExceptHandler) and sub.type is not None:
            named = sub.type.elts if isinstance(sub.type, ast.Tuple) else [sub.type]
        else:
            continue
        out = set()
        for name in named:
            if isinstance(name, ast.Name):
                out.add(name.id)
            elif isinstance(name, ast.Attribute):
                out.add(name.attr)
        yield sub, out


def exception_names(node: ast.AST) -> set:
    """Class names that a ``raise`` or an ``except`` clause under ``node`` names."""
    return set().union(*(names for _, names in exception_clauses(node)))


def error_classes(modules: dict) -> set:
    """``IsoactError`` and its subclasses in ``errors``."""
    errors = {"IsoactError"}
    for node in modules["errors"].body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in errors for base in node.bases
        ):
            errors.add(node.name)
    return errors


def unused_errors(modules: dict) -> list:
    """Subclasses of ``IsoactError`` in ``errors`` that no module raises or catches by name."""
    used = set().union(*(exception_names(tree) for tree in modules.values()))
    return sorted(error_classes(modules) - used - {"IsoactError"})


def silent_raises(modules: dict) -> list:
    """``module:line`` of each ``raise`` of an ``IsoactError`` class that passes no message."""
    errors = error_classes(modules)
    out = []
    for module, tree in modules.items():
        for clause, names in exception_clauses(tree):
            if isinstance(clause, ast.Raise) and names & errors:
                if not (isinstance(clause.exc, ast.Call) and clause.exc.args):
                    out.append(f"{module}:{clause.lineno}")
    return sorted(out)


def test_every_error_is_raised_or_caught():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    unused = unused_errors(modules)
    assert not unused, (
        f"IsoactError subclasses that no module under src/isoact raises or catches: {unused}"
    )


def test_scan_sees_an_orphan_error():
    modules = {
        "errors": ast.parse(
            "class IsoactError(Exception):\n    pass\n"
            "class Raised(IsoactError):\n    pass\n"
            "class Caught(IsoactError):\n    pass\n"
            "class Orphan(IsoactError):\n    pass\n"
            "class Grandchild(Raised):\n    pass\n"
            "class Unrelated(Exception):\n    pass\n"
        ),
        "m": ast.parse(
            "from . import errors\n"
            "def f(x):\n"
            "    try:\n        raise Raised(f'{x}')\n"
            "    except (errors.Caught, ValueError):\n        pass\n"
            "    # named, but neither raised nor caught\n"
            "    return Orphan, Grandchild\n"
        ),
    }
    assert unused_errors(modules) == ["Grandchild", "Orphan"]


def test_every_raised_error_has_a_message():
    # the CLI prints only the message, and two failures of one class differ only there
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    silent = silent_raises(modules)
    assert not silent, f"raises of an IsoactError class with no message: {silent}"


def test_scan_sees_a_silent_raise():
    modules = {
        "errors": ast.parse(
            "class IsoactError(Exception):\n    pass\n"
            "class Raised(IsoactError):\n    pass\n"
        ),
        "m": ast.parse(
            "from . import errors\n"
            "def f(x):\n"
            "    if x:\n        raise Raised()\n"
            "    if x > 1:\n        raise errors.Raised\n"
            "    if x > 2:\n        raise ValueError()\n"
            "    try:\n        raise Raised(f'{x}')\n"
            "    except Raised as exc:\n        raise IsoactError('again') from exc\n"
        ),
    }
    assert silent_raises(modules) == ["m:4", "m:6"]


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

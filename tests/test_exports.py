"""The package namespace exports exactly what its modules export, and
nothing that only tests reach."""

import ast
import importlib
import pkgutil
from pathlib import Path

import zygdist

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def test_package_all_is_the_union_of_module_all():
    union = set()
    for info in pkgutil.iter_modules(zygdist.__path__):
        module = importlib.import_module(f"zygdist.{info.name}")
        union |= set(getattr(module, "__all__", ()))
    assert set(zygdist.__all__) == union
    assert len(zygdist.__all__) == len(set(zygdist.__all__))
    assert all(hasattr(zygdist, name) for name in zygdist.__all__)


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names read as a bare name or as an attribute anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _benchmark_targets() -> set[str]:
    """Functions and methods that the benchmark's span tracer wraps, read
    from the ``FUNCTIONS`` and ``METHODS`` tables of ``bench/spans.py``."""
    targets = set()
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            table = node.targets[0]
            if isinstance(table, ast.Name) and table.id in ("FUNCTIONS", "METHODS"):
                targets |= {row[-2] for row in ast.literal_eval(node.value)}
    return targets


def test_every_export_is_reached_by_the_library():
    # a public name that no module of the library reads is API only tests call
    package = Path(zygdist.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _loaded_names(ast.parse(path.read_text()))
    unused = set(zygdist.__all__) - used - _benchmark_targets()
    assert not unused, f"exported but unused in src/zygdist: {sorted(unused)}"


def _module_definitions(tree: ast.Module) -> set[str]:
    """Functions, classes and constants that a module defines at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_every_module_level_name_is_read_by_the_library():
    # a private helper or constant that no module of the library reads is
    # dead code, or code kept in the library for tests alone
    package = Path(zygdist.__file__).parent
    defined, used = set(), set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= _module_definitions(tree)
        used |= _loaded_names(tree)
    exempt = {"__all__", "__version__"} | _benchmark_targets()
    unread = defined - used - exempt
    assert not unread, f"defined but never read in src/zygdist: {sorted(unread)}"

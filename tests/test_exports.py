"""The package namespace exports exactly what its modules export, and
nothing that only tests reach."""

import ast
import importlib
import inspect
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


def test_every_exported_function_is_read_outside_its_module():
    # a public function that only its own module reads is one of that
    # module's parts; classes are exempt, as their instances are the results
    package = Path(zygdist.__file__).parent
    reads = {
        f"zygdist.{path.stem}": _loaded_names(ast.parse(path.read_text()))
        for path in package.glob("*.py")
        if path.name != "__init__.py"
    }
    exports = [getattr(zygdist, name) for name in zygdist.__all__]
    internal = {
        f.__name__
        for f in exports
        if inspect.isfunction(f)
        and not any(f.__name__ in used for module, used in reads.items() if module != f.__module__)
    }
    internal -= _benchmark_targets()
    assert not internal, f"exported functions read only in their own module: {sorted(internal)}"


def _name(node: ast.AST) -> str | None:
    """The name a call or decorator refers to: ``f``, ``x.f`` or ``f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _defaulted_parameters(tree: ast.Module) -> dict[str, dict[str, int | None]]:
    """The public functions and methods of a module (a class's ``__init__``
    under the class name; dataclasses, whose defaults are fields, left
    out), each with its defaulted parameters and their call positions,
    ``None`` for keyword-only ones."""
    found = {}

    def add(name, fn, bound):
        args = fn.args
        positional = [a.arg for a in args.args][bound:]
        first = len(positional) - len(args.defaults)
        params = {p: i for i, p in enumerate(positional) if i >= first}
        params |= {a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d}
        if params:
            found[name] = params

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node.name, node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if any(_name(d) == "dataclass" for d in node.decorator_list):
                continue
            for item in node.body:  # methods and classmethods: skip self or cls
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    add(node.name, item, 1)
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    add(item.name, item, 1)
    return found


def _passed_parameters(trees) -> set[tuple]:
    """``(callee, keyword)`` and ``(callee, position)`` for every argument
    that a call in ``trees`` passes; positions after a ``*`` argument are
    unknown, and so is what a ``**`` argument passes."""
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = _name(node.func)
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    passed.add((callee, i))
                passed |= {(callee, k.arg) for k in node.keywords if k.arg}
    return passed


def test_every_defaulted_parameter_is_passed_by_the_library():
    # a default that no call in the library overrides is a knob that only
    # tests turn: it becomes a constant, or a required parameter where every
    # call passes it (the modulus checks take ``seed``, as the lemma suite
    # calls them through its table)
    package = Path(zygdist.__file__).parent
    trees = [ast.parse(path.read_text()) for path in package.glob("*.py")]
    passed = _passed_parameters(trees)
    # the benchmark drives its targets from outside (``cli.main(argv)``)
    targets = _benchmark_targets()
    bench = [
        ast.parse(path.read_text())
        for path in (ROOT / "bench").glob("*.py")
        if not path.name.startswith("test_")
    ]
    passed |= {call for call in _passed_parameters(bench) if call[0] in targets}
    unpassed = sorted(
        f"{name}.{param}"
        for tree in trees
        for name, params in _defaulted_parameters(tree).items()
        for param, position in params.items()
        if (name, param) not in passed and (name, position) not in passed
    )
    assert not unpassed, f"defaults that no call in src/zygdist overrides: {unpassed}"


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


def test_parent_sizes_are_formed_in_one_place():
    # the parent-size rule is applied where the tables are formed,
    # `martingale._parent_sizes`, and by `truncate_jumps` to the jumps it
    # already holds.  The level-set pipeline alone forms all N tables (it
    # passes the martingale and nothing else), reads their `_peaks` and
    # sorts them with `_dropped`; every other reader takes what it returns.
    # No function reads a star norm or default grid of a martingale whose
    # tables it formed by a second jump pass through `star_norm` or
    # `default_eps_grid`.  The pipeline alone certifies its residual table
    package = Path(zygdist.__file__).parent
    callers, readers, second_pass, arities, certifiers = [], set(), [], [], set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            calls = [node for node in ast.walk(top) if isinstance(node, ast.Call)]
            callers += [owner for node in calls if _name(node) == "_parent_deviation"]
            arities += [
                (len(node.args), len(node.keywords))
                for node in calls
                if _name(node) == "_parent_sizes"
            ]
            readers |= {
                owner for node in calls if _name(node) in ("_parent_sizes", "_peaks", "_dropped")
            }
            certifiers |= {owner for node in calls if _name(node) == "_table_exact"}
            formed = {
                node.args[0].id
                for node in calls
                if _name(node) == "_parent_sizes"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
            }
            second_pass += [
                owner
                for node in calls
                if _name(node) in ("star_norm", "default_eps_grid")
                and any(isinstance(a, ast.Name) and a.id in formed for a in node.args)
            ]
    assert sorted(callers) == ["approximation.truncate_jumps", "martingale._parent_sizes"]
    assert readers == {"functionals._level_set_tables"}
    assert set(arities) == {(1, 0)}
    assert certifiers == {"functionals._level_set_tables"}
    assert second_pass == []


def test_samples_are_padded_in_two_places():
    # the cone counts and the box energy read one padded copy, made by
    # their pipeline `functionals._cone_lattice`; the lemma checks stack
    # their own in `verification._lemma_table`
    package = Path(zygdist.__file__).parent
    callers = []
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            calls = [node for node in ast.walk(top) if isinstance(node, ast.Call)]
            callers += [owner for node in calls if _name(node) == "_zero_padded"]
    assert sorted(callers) == ["functionals._cone_lattice", "verification._lemma_table"]


def test_cli_reads_the_level_set_tables_through_one_pipeline():
    # `distance-ibmo` and `measure` take the tables, default grid,
    # thresholds and tree profile from `functionals._level_set_tables`, and
    # so does `measure_tree_levelset_density`; neither `cli` nor `measures`
    # imports or reads the helpers that wire them by hand
    helpers = {
        "_parent_sizes",
        "_peaks",
        "_dropped",
        "_tree_profile",
        "_geometric_grid",
        "_level_thresholds",
    }
    for module in ("cli.py", "measures.py"):
        tree = ast.parse((Path(zygdist.__file__).parent / module).read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not (imported | _loaded_names(tree)) & helpers, module

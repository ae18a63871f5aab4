"""Every third-party module the library imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parent.parent


def _imported_modules() -> set[str]:
    """Top-level names of the modules that ``src/zygdist/*.py`` import."""
    found = set()
    for path in (ROOT / "src" / "zygdist").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def _declared() -> set[str]:
    """The distribution names in ``pyproject.toml``'s ``dependencies``."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in project["dependencies"]}


def test_every_third_party_import_is_declared():
    third_party = _imported_modules() - sys.stdlib_module_names - {"zygdist"}
    assert {"numpy", "orjson"} <= third_party  # the scan sees the imports
    assert third_party <= _declared()

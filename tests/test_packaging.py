"""Every third-party package the library imports is a declared dependency."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level third-party module name -> the source files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def _declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = set()
    for requirement in project.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        names.add(re.sub(r"[-_.]+", "_", name).lower())
    return names


def test_scan_sees_the_core_imports():
    imports = _third_party_imports()
    assert "numpy" in imports
    assert "scipy" in imports  # the AR(1) filter's lfilter, imported inside a function


def test_every_third_party_import_is_declared():
    declared = _declared_dependencies()
    undeclared = {
        module: sorted(paths)
        for module, paths in _third_party_imports().items()
        if module.lower() not in declared
    }
    assert not undeclared, f"imported but missing from pyproject.toml dependencies: {undeclared}"

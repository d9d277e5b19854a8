"""Packaging: declared dependencies, shipped data, and the C kernel build.

Every third-party package the library imports is a declared dependency,
and numpy is the only one: no module imports scipy, and a fresh process
that walks the cold-start path loads none. The C kernel source ships as
package data and builds, on first import, from an empty cache
directory; without a C compiler the import fails with an ImportError
that says what to install.
"""

from __future__ import annotations

import ast
import ctypes
import errno
import fnmatch
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import _native

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
    assert "scipy" not in imports, imports.get("scipy")  # the AR(1) filter is in kernels.c


def test_numpy_is_the_only_declared_dependency():
    assert _declared_dependencies() == {"numpy"}


COLD_START = """
import sys
from datetime import datetime

import repro.cli
from repro import scenarios
from repro.markets import MarketConfig, generate_market
from repro.traffic import make_turn_of_year_trace

generate_market(MarketConfig(start=datetime(2008, 11, 1), months=1, seed=1))
make_turn_of_year_trace()
scenarios.open_rolling_session(scenarios.get("serve-smoke"), window_steps=288)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_the_cold_start_path_loads_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c", COLD_START],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_third_party_import_is_declared():
    declared = _declared_dependencies()
    undeclared = {
        module: sorted(paths)
        for module, paths in _third_party_imports().items()
        if module.lower() not in declared
    }
    assert not undeclared, f"imported but missing from pyproject.toml dependencies: {undeclared}"


def test_kernel_source_ships_as_package_data():
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    package_data = pyproject["tool"]["setuptools"]["package-data"]["repro"]
    source = _native.SOURCE.relative_to(SOURCE).as_posix()
    assert _native.SOURCE.is_file()
    assert any(fnmatch.fnmatch(source, pattern) for pattern in package_data)


def test_kernel_builds_from_an_empty_cache_directory(tmp_path):
    cache = tmp_path / "cache"
    library = _native.load(cache)
    built = sorted(path.name for path in cache.iterdir())
    assert built == [_native.library_name()]  # no temporary file left behind
    assert callable(library.greedy_walk) and library.greedy_walk.restype is ctypes.c_int
    assert callable(library.ar1_rows) and library.ar1_rows.restype is None
    assert _native.build(cache) == cache / built[0]  # a second build reuses it


def test_a_fresh_build_prunes_stale_libraries(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    # An older source's library, and the walk-only library this one replaced.
    stale = [cache / "kernels-0000000000000000.so", cache / "greedy_walk-0000000000000000.so"]
    for path in stale:
        path.write_bytes(b"built from an older source")
    unrelated = cache / "other.so"
    unrelated.write_bytes(b"")
    current = _native.build(cache)
    assert not any(path.exists() for path in stale)
    assert current == cache / _native.library_name() and current.is_file()
    assert unrelated.exists()


def test_missing_compiler_is_a_named_import_error(tmp_path, monkeypatch):
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    with pytest.raises(ImportError, match="needs a C compiler.*install"):
        _native.load(tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "refusal",
    [
        PermissionError(errno.EACCES, "Permission denied"),
        OSError(errno.EROFS, "Read-only file system"),
    ],
    ids=["no-permission", "read-only"],
)
def test_unwritable_package_cache_falls_back_to_the_home_cache(tmp_path, monkeypatch, refusal):
    real_build = _native.build
    package_cache = _native.SOURCE.parent / "__pycache__"

    def build(directory):
        if directory == package_cache:
            raise refusal
        return real_build(directory)

    monkeypatch.setattr(_native, "build", build)
    monkeypatch.setattr(Path, "home", lambda: tmp_path)
    assert callable(_native.load().ar1_rows)
    assert (tmp_path / ".cache" / "repro" / _native.library_name()).is_file()


def test_library_name_is_keyed_on_the_platform(monkeypatch):
    here = _native.library_name()
    monkeypatch.setattr(_native.platform, "machine", lambda: "some-other-machine")
    elsewhere = _native.library_name()
    monkeypatch.setattr(_native.sys, "platform", "some-other-os")
    assert len({here, elsewhere, _native.library_name()}) == 3

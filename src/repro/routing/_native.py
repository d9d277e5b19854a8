"""Build and load the C greedy walk (``greedy_walk.c``) through ctypes.

The kernel is compiled on first import with the system C compiler into
the package's ``__pycache__`` (or ``~/.cache/repro`` when that is not
writable), under a file name keyed on the sha256 of the source, the
compiler flags and the platform, so an edited source, changed flags or
another machine architecture build afresh and a stale or foreign
library is never loaded. The build writes a temporary file and
publishes it with ``os.replace``: processes that import at the same
moment each build and the last rename wins, harmlessly, with no lock.
A fresh build then deletes the directory's other ``greedy_walk-*.so``
files, built from an older source, flag set or platform, so the cache
holds one library (a checkout shared by two machine types rebuilds
when it switches); a process that still has one loaded keeps its mapping.

There is no pure-Python fallback: without a C compiler the import
fails with an :class:`ImportError` that says what to install.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("greedy_walk.c")

#: ``-ffp-contract=off`` keeps every take a separate IEEE-754 multiply
#: or subtract (no fused operations); ``-ffast-math`` would break the
#: bitwise contract and must never be added.
FLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-shared", "-fPIC")

COMPILERS = ("cc", "gcc", "clang")

#: ``greedy_walk`` return codes (see ``greedy_walk.c``).
WALK_OK, WALK_INFEASIBLE, WALK_BAD_INDEX, WALK_NOMEM = range(4)

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


def find_compiler() -> str | None:
    """Path of the first C compiler on ``PATH``, or None."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def library_name() -> str:
    """The built library's file name: keyed on source, flags and platform.

    The platform part (OS and machine) keeps a checkout shared between,
    say, an x86_64 and an arm64 host from loading the other's library.
    """
    key = " ".join((*FLAGS, sys.platform, platform.machine())).encode()
    digest = hashlib.sha256(SOURCE.read_bytes() + key).hexdigest()
    return f"greedy_walk-{digest[:16]}.so"


def build(directory: Path) -> Path:
    """The kernel library in ``directory``, compiling it if absent."""
    target = directory / library_name()
    if target.exists():
        return target
    compiler = find_compiler()
    if compiler is None:
        raise ImportError(
            "repro.routing needs a C compiler to build its greedy-walk kernel, and none of "
            f"{', '.join(COMPILERS)} is on PATH: install one (e.g. `apt install gcc`, "
            "`dnf install gcc` or `xcode-select --install`)"
        )
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", dir=directory)
    os.close(fd)
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True, text=True
        )
        if done.returncode != 0:
            raise ImportError(f"building {SOURCE.name} with {compiler} failed:\n{done.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in directory.glob("greedy_walk-*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)
    return target


def load(directory: Path | None = None):
    """The ctypes ``greedy_walk`` function, built into ``directory``.

    Without a directory, builds into the package's ``__pycache__``,
    falling back to ``~/.cache/repro`` when that cannot be written
    (no permission, or a read-only file system).
    """
    if directory is not None:
        path = build(directory)
    else:
        try:
            path = build(SOURCE.parent / "__pycache__")
        except OSError:
            path = build(Path.home() / ".cache" / "repro")
    walk = ctypes.CDLL(str(path)).greedy_walk
    walk.restype = ctypes.c_int
    walk.argtypes = [_I64] * 4 + [_PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _PTR, _PTR]
    return walk


greedy_walk = load()

"""Build and load repro's C kernels (``kernels.c``) through ctypes.

One library holds them all: ``greedy_walk``, the routers' greedy spill
walk; ``ar1_rows``, the AR(1) recursion of the market and traffic
noise; ``price_rank``, the price router's choice, fit test and spill
orders; and ``fold_rows``, the engine ledger's per-step loads and
running chunk sum. It is compiled on first import with the system C compiler into
the package's ``__pycache__`` (or ``~/.cache/repro`` when that is not
writable), under a file name keyed on the sha256 of the source, the
compiler flags and the platform, so an edited source, changed flags or
another machine architecture build afresh and a stale or foreign
library is never loaded. The build writes a temporary file and
publishes it with ``os.replace``: processes that import at the same
moment each build and the last rename wins, harmlessly, with no lock.
A fresh build then deletes the directory's other ``kernels-*.so``
files, built from an older source, flag set or platform, and any
``greedy_walk-*.so`` left by the walk-only library this one replaced,
so the cache holds one library (a checkout shared by two machine
types rebuilds when it switches); a process that still has one loaded
keeps its mapping.

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

SOURCE = Path(__file__).with_name("kernels.c")

#: ``-ffp-contract=off`` keeps every multiply, add and subtract a
#: separate IEEE-754 operation (no fused ones); ``-ffast-math`` would
#: break the bitwise contract and must never be added.
FLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-shared", "-fPIC")

COMPILERS = ("cc", "gcc", "clang")

#: ``greedy_walk`` return codes (see ``kernels.c``).
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
    return f"kernels-{digest[:16]}.so"


def build(directory: Path) -> Path:
    """The kernel library in ``directory``, compiling it if absent."""
    target = directory / library_name()
    if target.exists():
        return target
    compiler = find_compiler()
    if compiler is None:
        raise ImportError(
            "repro needs a C compiler to build its kernels, and none of "
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
    # greedy_walk-*.so: the walk-only library this one replaced.
    for pattern in ("kernels-*.so", "greedy_walk-*.so"):
        for stale in directory.glob(pattern):
            if stale != target:
                stale.unlink(missing_ok=True)
    return target


def load(directory: Path | None = None) -> ctypes.CDLL:
    """The kernel library, built into ``directory``, with typed functions.

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
    library = ctypes.CDLL(str(path))
    library.greedy_walk.restype = ctypes.c_int
    library.greedy_walk.argtypes = (
        [_I64] * 4 + [_PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _PTR, _PTR]
    )
    library.ar1_rows.restype = None
    library.ar1_rows.argtypes = [_I64, _I64, ctypes.c_double, _PTR]
    library.price_rank.restype = _I64
    library.price_rank.argtypes = (
        [_I64] * 4 + [_PTR] * 3 + [ctypes.c_double, _PTR, _PTR, _I64] + [_PTR] * 4
    )
    library.fold_rows.restype = None
    library.fold_rows.argtypes = [_I64] * 3 + [_PTR] * 3
    return library


_library = load()
greedy_walk = _library.greedy_walk
ar1_rows = _library.ar1_rows
price_rank = _library.price_rank
fold_rows = _library.fold_rows

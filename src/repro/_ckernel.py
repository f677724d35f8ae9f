"""Runtime-compiled C kernels, loaded through :mod:`ctypes`.

The serve, fit and featurize engines each ship a small C source string.
:func:`load` compiles one lazily on first use -- once per process, under
one lock -- with ``$CC`` (default: ``cc``, then ``gcc``) and returns the
loaded library, or ``None`` when anything on the way fails.  Every engine
runs its C kernel when :func:`load` returned a library and its NumPy
equivalent otherwise; both are bit-identical, so the only thing a missing
or broken compiler costs is speed.  ``CC=false`` reproduces a host
without one.

Engines call ``_ckernel.load(...)`` through the module attribute, so a
test can monkeypatch :func:`load` to return ``None`` and exercise the
NumPy engines in-process.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Any, Mapping, Sequence

#: ``{symbol: (argtypes, restype)}`` of the functions a kernel exports.
Signatures = Mapping[str, tuple[Sequence[Any], Any]]

_lock = threading.Lock()
_loaded: dict[str, "ctypes.CDLL | None"] = {}


def _compile(name: str, source: str, signatures: Signatures) -> "ctypes.CDLL | None":
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    build_dir = tempfile.mkdtemp(prefix=f"repro-{name}-kernel-")
    atexit.register(shutil.rmtree, build_dir, ignore_errors=True)
    src = os.path.join(build_dir, "kernel.c")
    lib_path = os.path.join(build_dir, "kernel.so")
    try:
        with open(src, "w") as handle:
            handle.write(source)
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", lib_path, src],
            check=True,
            capture_output=True,
            timeout=120,
        )
        lib = ctypes.CDLL(lib_path)
        for symbol, (argtypes, restype) in signatures.items():
            function = getattr(lib, symbol)
            function.argtypes = list(argtypes)
            function.restype = restype
        return lib
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None


def load(name: str, source: str, signatures: Signatures) -> "ctypes.CDLL | None":
    """The compiled kernel ``name``, or ``None`` if it cannot be built.

    The first call per ``name`` compiles ``source`` and declares the
    ``signatures``; every later call in the process returns that result,
    including a ``None``.
    """
    try:
        return _loaded[name]
    except KeyError:
        pass
    with _lock:
        if name not in _loaded:
            _loaded[name] = _compile(name, source, signatures)
        return _loaded[name]

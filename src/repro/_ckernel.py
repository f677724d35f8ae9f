"""Runtime-compiled C kernels, loaded through :mod:`ctypes`.

The serve, fit and featurize engines each ship a small C source string.
:func:`load` builds one lazily on first use -- once per process, under
one lock -- with ``$CC`` (default: ``cc``, then ``gcc``) and returns the
loaded library, or ``None`` when anything on the way fails.  Every engine
runs its C kernel when :func:`load` returned a library and its NumPy
equivalent otherwise; both are bit-identical, so the only thing a missing
or broken compiler costs is speed.  ``CC=false`` reproduces a host
without one.

Built libraries are shared between processes through a content-addressed
cache, ``<tempdir>/repro-kernels-<uid>/<name>-<key>.so``, so a host
compiles each kernel once rather than once per process.  The key is the
SHA-256 of the source, the resolved compiler path with its size and
mtime, and the flags; a changed kernel or compiler gets a new file.  The
directory is used only when it is a real directory owned by the caller
and writable by nobody else; otherwise the kernel is built privately, as
if there were no cache.  A build is written to a temporary file and
published with :func:`os.replace`, so concurrent builders never see a
partial library, and a failed build publishes nothing.  A cached file
that does not load is rebuilt.

Each process counts ``ckernel_builds{kernel=...}`` (compiler runs) and
``ckernel_loads{kernel=...}`` (libraries loaded, built or cached).

Engines call ``_ckernel.load(...)`` through the module attribute, so a
test can monkeypatch :func:`load` to return ``None`` and exercise the
NumPy engines in-process.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
from typing import Any, Mapping, Sequence

from .obs.metrics import counter

#: ``{symbol: (argtypes, restype)}`` of the functions a kernel exports.
Signatures = Mapping[str, tuple[Sequence[Any], Any]]

FLAGS: tuple[str, ...] = ("-O2", "-shared", "-fPIC")

_lock = threading.Lock()
_loaded: dict[str, "ctypes.CDLL | None"] = {}


def cache_dir() -> str | None:
    """The shared build directory, or ``None`` when it cannot be trusted."""
    path = os.path.join(tempfile.gettempdir(), f"repro-kernels-{os.getuid()}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    except OSError:
        return None
    try:
        info = os.lstat(path)
    except OSError:
        return None
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        return None
    return path


def _key(source: str, cc: str) -> str:
    real = os.path.realpath(cc)
    info = os.stat(real)
    digest = hashlib.sha256()
    for part in (source, real, str(info.st_size), str(info.st_mtime_ns), *FLAGS):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _build(name: str, source: str, cc: str, lib_path: str) -> bool:
    """Compile ``source`` into ``lib_path``, via temporary files beside it."""
    directory = os.path.dirname(lib_path)
    leftovers: list[str] = []
    try:
        fd, src = tempfile.mkstemp(prefix=f"{name}-", suffix=".c", dir=directory)
        leftovers.append(src)
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        fd, out = tempfile.mkstemp(prefix=f"{name}-", suffix=".so.tmp", dir=directory)
        leftovers.append(out)
        os.close(fd)
        counter("ckernel_builds", kernel=name).inc()
        subprocess.run(
            [cc, *FLAGS, "-o", out, src],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(out, lib_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        for leftover in leftovers:
            try:
                os.unlink(leftover)
            except FileNotFoundError:
                pass


def _open(lib_path: str, signatures: Signatures) -> "ctypes.CDLL | None":
    try:
        lib = ctypes.CDLL(lib_path)
        for symbol, (argtypes, restype) in signatures.items():
            function = getattr(lib, symbol)
            function.argtypes = list(argtypes)
            function.restype = restype
        return lib
    except (OSError, AttributeError):
        return None


def compiler() -> str | None:
    """Path of ``$CC`` (default: ``cc``, then ``gcc``), or ``None``."""
    name = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    return (name and shutil.which(name)) or None


def _compile(name: str, source: str, signatures: Signatures) -> "ctypes.CDLL | None":
    cc = compiler()
    if cc is None:
        return None
    directory = cache_dir()
    try:
        if directory is None:
            directory = tempfile.mkdtemp(prefix=f"repro-{name}-kernel-")
            atexit.register(shutil.rmtree, directory, ignore_errors=True)
        lib_path = os.path.join(directory, f"{name}-{_key(source, cc)}.so")
    except OSError:
        return None
    lib = _open(lib_path, signatures) if os.path.exists(lib_path) else None
    if lib is None and _build(name, source, cc, lib_path):
        lib = _open(lib_path, signatures)
    if lib is not None:
        counter("ckernel_loads", kernel=name).inc()
    return lib


def load(name: str, source: str, signatures: Signatures) -> "ctypes.CDLL | None":
    """The compiled kernel ``name``, or ``None`` if it cannot be built.

    The first call per ``name`` loads ``source``'s library from the build
    cache, or compiles it there, and declares the ``signatures``; every
    later call in the process returns that result, including a ``None``.
    """
    try:
        return _loaded[name]
    except KeyError:
        pass
    with _lock:
        if name not in _loaded:
            _loaded[name] = _compile(name, source, signatures)
        return _loaded[name]

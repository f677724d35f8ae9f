"""The kernel build cache of :mod:`repro._ckernel`.

A built kernel is published once per host under
``<tempdir>/repro-kernels-<uid>/`` and loaded from there by every later
process; an unloadable file is rebuilt, an untrusted directory is never
used, a failing compiler is never served a cached build, and concurrent
builders of one kernel all succeed.
"""

import ctypes
import os
import subprocess
import sys
import tempfile

import pytest

from repro import _ckernel
from repro.obs.metrics import get_registry

SOURCE = "int repro_test_add(int a, int b) { return a + b; }\n"
SIGNATURES = {"repro_test_add": ((ctypes.c_int, ctypes.c_int), ctypes.c_int)}

pytestmark = pytest.mark.skipif(
    _ckernel.compiler() is None, reason="no C compiler on this host"
)


def _count(kind: str, name: str) -> int:
    counters = get_registry().snapshot()["counters"]
    return counters.get(f"ckernel_{kind}{{kernel={name}}}", 0)


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    """A private temp root, and an empty in-process kernel table."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(_ckernel, "_loaded", {})
    return tmp_path / f"repro-kernels-{os.getuid()}"


def _load(name: str):
    _ckernel._loaded.pop(name, None)
    return _ckernel.load(name, SOURCE, SIGNATURES)


def _library(directory, name: str):
    return directory / f"{name}-{_ckernel._key(SOURCE, _ckernel.compiler())}.so"


class TestBuildCache:
    def test_second_load_is_served_from_the_cache(self, tmp_cache):
        builds, loads = _count("builds", "second"), _count("loads", "second")
        assert _load("second").repro_test_add(2, 3) == 5
        assert _count("builds", "second") == builds + 1
        assert _library(tmp_cache, "second").exists()
        assert oct(tmp_cache.stat().st_mode & 0o777) == oct(0o700)
        assert _load("second").repro_test_add(4, 5) == 9
        assert _count("builds", "second") == builds + 1
        assert _count("loads", "second") == loads + 2
        # No temporary file outlives its build.
        assert sorted(p.name for p in tmp_cache.iterdir()) == [
            _library(tmp_cache, "second").name
        ]

    def test_truncated_library_is_rebuilt(self, tmp_cache):
        tmp_cache.mkdir(mode=0o700)
        library = _library(tmp_cache, "truncated")
        library.write_bytes(b"\x7fELF\x02\x01\x01")
        builds = _count("builds", "truncated")
        assert _load("truncated").repro_test_add(1, 1) == 2
        assert _count("builds", "truncated") == builds + 1
        assert library.stat().st_size > 100

    @pytest.mark.parametrize("mode", [0o777, 0o770, 0o720])
    def test_shared_writable_directory_is_refused(self, tmp_cache, mode):
        tmp_cache.mkdir()
        tmp_cache.chmod(mode)
        assert _ckernel.cache_dir() is None
        assert _load("writable").repro_test_add(2, 2) == 4
        assert list(tmp_cache.iterdir()) == []

    def test_foreign_owned_directory_is_refused(self, tmp_cache, monkeypatch):
        foreign = os.getuid() + 1
        monkeypatch.setattr(os, "getuid", lambda: foreign)
        owned_by_us = tmp_cache.parent / f"repro-kernels-{foreign}"
        owned_by_us.mkdir(mode=0o700)
        assert _ckernel.cache_dir() is None
        assert _load("foreign").repro_test_add(3, 3) == 6
        assert list(owned_by_us.iterdir()) == []

    def test_symlinked_directory_is_refused(self, tmp_cache):
        target = tmp_cache.parent / "elsewhere"
        target.mkdir(mode=0o700)
        tmp_cache.symlink_to(target)
        assert _ckernel.cache_dir() is None

    def test_failing_compiler_is_never_served_a_cached_build(
        self, tmp_cache, monkeypatch
    ):
        assert _load("cc-false") is not None
        monkeypatch.setenv("CC", "false")
        assert _load("cc-false") is None
        monkeypatch.setenv("CC", "/nonexistent/cc")
        assert _load("cc-false") is None
        assert len(list(tmp_cache.iterdir())) == 1

    def test_concurrent_builders_both_succeed(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, TMPDIR=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")])
        )
        program = (
            "import ctypes\n"
            "from repro import _ckernel\n"
            f"lib = _ckernel.load('race', {SOURCE!r}, "
            "{'repro_test_add': ((ctypes.c_int, ctypes.c_int), ctypes.c_int)})\n"
            "print(lib.repro_test_add(20, 22))\n"
        )
        builders = [
            subprocess.Popen(
                [sys.executable, "-c", program],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for builder in builders:
            out, err = builder.communicate(timeout=120)
            assert builder.returncode == 0, err
            assert out.strip() == "42"
        cache = tmp_path / f"repro-kernels-{os.getuid()}"
        (library,) = cache.iterdir()
        assert library.suffix == ".so"

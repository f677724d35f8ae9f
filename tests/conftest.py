"""Shared fixtures: small-but-real designs and split views.

Benchmark generation is the expensive part of most tests, so the suite
shares session-scoped artifacts at a small scale.  Tests that need full
control build their own tiny designs instead.
"""

from __future__ import annotations

import os

import pytest

from repro import _ckernel
from repro.ml import fit_engine
from repro.runtime import set_default_cache
from repro.serve import engine as serve_engine
from repro.splitmfg import featurize_engine
from repro.splitmfg.vpin_features import make_split_view
from repro.synth.benchmarks import BENCHMARK_SPECS, build_benchmark

TEST_SCALE = 0.15


@pytest.fixture(scope="session", autouse=True)
def _redirect_feature_cache(tmp_path_factory):
    """Keep CLI-installed feature caches inside the test session tmp dir."""
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("feature-cache"))
    yield
    os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture(autouse=True)
def _reset_default_feature_cache():
    """CLI commands install a process-global cache; never leak it."""
    yield
    set_default_cache(None)


#: The engines' kernel getters; each returns ``None`` when its C kernel
#: did not load.
ENGINE_KERNELS = (fit_engine._kernel, featurize_engine._kernel, serve_engine._kernel)

#: Kernel modes, in the order :class:`Kernels` iterates them.
KERNEL_MODES = ("c", "numpy")


class Kernels:
    """Switch the compiled kernels on and off inside one test.

    ``"c"`` runs the engines as they load (the compiled kernels);
    ``"numpy"`` patches :func:`repro._ckernel.load` to return ``None``,
    so every engine takes its NumPy path.  Iterating runs the loop body
    once per mode (``"c"`` only when the kernels compiled); :meth:`use`
    selects one mode for a test parametrized over it.
    """

    def __init__(self, patch: pytest.MonkeyPatch) -> None:
        self._patch = patch

    def use(self, mode: str) -> str:
        self._patch.undo()
        if mode == "numpy":
            self._patch.setattr(_ckernel, "load", lambda *args: None)
        elif mode != "c":
            raise ValueError(f"unknown kernel mode {mode!r}")
        elif not self.compiled():
            pytest.skip("no C compiler")
        return mode

    @staticmethod
    def compiled() -> bool:
        return all(kernel() is not None for kernel in ENGINE_KERNELS)

    def __iter__(self):
        self._patch.undo()
        for mode in KERNEL_MODES:
            if mode == "numpy" or self.compiled():
                yield self.use(mode)


@pytest.fixture
def kernels():
    """A :class:`Kernels` switch, restored to the compiled kernels after."""
    with pytest.MonkeyPatch.context() as patch:
        yield Kernels(patch)


@pytest.fixture(scope="session")
def small_design():
    """One routed benchmark at test scale (sb1)."""
    return build_benchmark(BENCHMARK_SPECS[0], scale=TEST_SCALE)


@pytest.fixture(scope="session")
def small_suite():
    """Three routed benchmarks at test scale (sb1, sb5, sb18)."""
    specs = [s for s in BENCHMARK_SPECS if s.name in ("sb1", "sb5", "sb18")]
    return [build_benchmark(spec, scale=TEST_SCALE) for spec in specs]


@pytest.fixture(scope="session")
def views8(small_suite):
    """Split views of the small suite at the highest via layer."""
    return [make_split_view(d, 8) for d in small_suite]


@pytest.fixture(scope="session")
def views6(small_suite):
    """Split views of the small suite at via layer 6."""
    return [make_split_view(d, 6) for d in small_suite]


@pytest.fixture(scope="session")
def view8(views8):
    """The largest layer-8 view (most v-pins) of the small suite."""
    return max(views8, key=len)

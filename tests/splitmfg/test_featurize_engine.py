"""Bit-identity and boundary tests for the chunked featurize engines.

Every case compares against ``compute_pair_features`` and runs per
engine: ``c`` and ``numpy`` are :class:`PairFeaturizer` in the two modes
of the ``kernels`` fixture, ``reference`` is the oracle featurizer
(``featurize_oracle.py``) held to the same contract.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import _ckernel
from repro.attack.config import ML_9
from repro.attack.framework import train_attack
from repro.attack.topk import evaluate_attack_topk
from repro.layout.geometry import Point
from repro.obs.metrics import get_registry
from repro.splitmfg import featurize_engine
from repro.splitmfg.featurize_engine import (
    BASE_COLUMNS,
    FEATURE_CODES,
    PairFeaturizer,
)
from repro.splitmfg.pair_features import (
    FEATURE_SETS,
    FEATURES_9,
    FEATURES_11,
    compute_pair_features,
    legal_pair_mask,
)
from repro.splitmfg.sampling import iter_all_pairs, max_chunk_rows
from repro.splitmfg.split import SplitView, VPin

from .featurize_oracle import OracleFeaturizer


def _vpin(vid, vx, vy, px, py, w, in_area, out_area, pc=0.0, rc=0.0):
    return VPin(
        id=vid,
        net=f"n{vid}",
        location=Point(vx, vy),
        fragment_wirelength=w,
        pins=(),
        pin_location=Point(px, py),
        in_area=in_area,
        out_area=out_area,
        pc=pc,
        rc=rc,
    )


def _random_view(n=40, seed=0, driver_fraction=0.5):
    rng = np.random.default_rng(seed)
    drivers = rng.random(n) < driver_fraction
    vpins = [
        _vpin(
            k,
            vx=float(rng.uniform(0, 200)),
            vy=float(rng.uniform(0, 100)),
            px=float(rng.uniform(0, 200)),
            py=float(rng.uniform(0, 100)),
            w=float(rng.exponential(5.0)),
            in_area=0.0 if drivers[k] else float(rng.exponential(8.0)),
            out_area=float(rng.exponential(8.0)) if drivers[k] else 0.0,
            pc=float(rng.random()),
            rc=float(rng.random()),
        )
        for k in range(n)
    ]
    return SplitView(
        design_name=f"rv{seed}",
        split_layer=4,
        die_width=200,
        die_height=100,
        vpins=vpins,
    )


ENGINES = ["numpy", "reference", "c"]


@pytest.fixture()
def view():
    return _random_view()


@pytest.fixture()
def make_featurizer(kernels):
    """``make_featurizer(engine, view, features)`` for one of ``ENGINES``."""

    def make(engine, view, features):
        if engine == "reference":
            return OracleFeaturizer(view, features)
        kernels.use(engine)
        return PairFeaturizer(view, features)

    return make


def ml9_topk_digest(views) -> str:
    """SHA-256 of an ML-9 top-8 fold scored in 100-pair chunks."""
    trained = train_attack(ML_9, views[1:], seed=0)
    result = evaluate_attack_topk(trained, views[0], k=8, chunk_size=100)
    digest = hashlib.sha256(str(result.n_pairs_evaluated).encode())
    for array in (result.pair_i, result.pair_j, result.prob):
        digest.update(array.tobytes())
    return digest.hexdigest()


_NO_COMPILER_RUN = """
from repro.ml import fit_engine
from repro.obs.metrics import get_registry
from repro.serve import engine as serve_engine
from repro.splitmfg import featurize_engine
from repro.splitmfg.vpin_features import make_split_view
from repro.synth.benchmarks import BENCHMARK_SPECS, build_benchmark
from tests.conftest import TEST_SCALE
from tests.splitmfg.test_featurize_engine import ml9_topk_digest

kernels = (fit_engine._kernel, featurize_engine._kernel, serve_engine._kernel)
assert all(kernel() is None for kernel in kernels)
specs = [s for s in BENCHMARK_SPECS if s.name in ("sb1", "sb5", "sb18")]
digest = ml9_topk_digest(
    [make_split_view(build_benchmark(s, scale=TEST_SCALE), 8) for s in specs]
)
counters = get_registry().snapshot()["counters"]
assert counters.get("tree_fits{engine=numpy}", 0) > 0, counters
assert counters.get("featurize_chunks{engine=numpy}", 0) > 0, counters
assert not any("engine=c" in name for name in counters), counters
print(digest)
"""


class TestEngineResolution:
    """The engine is whichever kernel loaded; ``$CC`` is the only control."""

    def test_auto_prefers_kernel(self, view, kernels):
        for mode in kernels:
            assert PairFeaturizer(view, FEATURES_9).engine == mode

    def test_env_override(self, view, monkeypatch):
        monkeypatch.setattr(_ckernel, "_loaded", {})
        monkeypatch.setenv("CC", "/nonexistent/cc")
        fallbacks = get_registry().snapshot()["counters"].get(
            "featurize_kernel_fallbacks", 0
        )
        assert PairFeaturizer(view, FEATURES_9).engine == "numpy"
        after = get_registry().snapshot()["counters"]["featurize_kernel_fallbacks"]
        assert after == fallbacks + 1

    def test_no_ckernel_env_blocks_compilation(self, views8):
        """``CC=false``: all three engines fall back, bytes unchanged."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ, CC="false")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(root, "src"), root, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", _NO_COMPILER_RUN],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == ml9_topk_digest(views8)

    def test_feature_codes_cover_all_features(self):
        assert sorted(FEATURE_CODES) == sorted(FEATURES_11)
        assert sorted(FEATURE_CODES.values()) == list(range(11))

    def test_invalid_features_rejected(self, view):
        with pytest.raises(ValueError):
            PairFeaturizer(view, ("DiffPinX", "Bogus"))
        with pytest.raises(ValueError):
            PairFeaturizer(view, ("DiffPinX", "DiffPinX"))
        with pytest.raises(ValueError):
            PairFeaturizer(view, ())


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n_features", sorted(FEATURE_SETS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_match_reference_exactly(
        self, engine, n_features, seed, make_featurizer
    ):
        view = _random_view(seed=seed)
        features = FEATURE_SETS[n_features]
        rng = np.random.default_rng(seed + 100)
        i = rng.integers(0, len(view), 500)
        j = rng.integers(0, len(view), 500)
        expected = compute_pair_features(view, i, j, features)
        featurizer = make_featurizer(engine, view, features)
        out = featurizer.out_buffer(len(i))
        got = featurizer.rows_into(i, j, out)
        assert got.dtype == np.float64
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_partial_feature_tuples(self, engine, view, make_featurizer):
        # Unusual but legal tuples: a Manhattan feature without its
        # components, and a reordered subset.
        for features in (
            ("ManhattanPin",),
            ("ManhattanVpin", "DiffArea"),
            ("RoutingCongestion", "DiffPinY", "TotalArea"),
        ):
            i = np.arange(len(view) - 1)
            j = i + 1
            expected = compute_pair_features(view, i, j, features)
            featurizer = make_featurizer(engine, view, features)
            got = featurizer.rows_into(i, j, featurizer.out_buffer(len(i)))
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rows_allocating_convenience(self, engine, view, make_featurizer):
        i = np.array([0, 1, 2])
        j = np.array([3, 4, 5])
        featurizer = make_featurizer(engine, view, FEATURES_9)
        assert np.array_equal(
            featurizer.rows(i, j),
            compute_pair_features(view, i, j, FEATURES_9),
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_accepts_plain_column_mapping(self, engine, view, make_featurizer):
        # Pool workers featurize from shared-memory columns without a
        # SplitView; the mapping route must be byte-identical.
        cols = {name: view.arrays()[name] for name in BASE_COLUMNS}
        i = np.array([0, 5, 9])
        j = np.array([2, 7, 11])
        if engine == "reference":
            pytest.skip("the oracle reads a SplitView")
        featurizer = make_featurizer(engine, cols, FEATURES_11)
        assert np.array_equal(
            featurizer.rows(i, j),
            compute_pair_features(view, i, j, FEATURES_11),
        )


class TestLegalFusion:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_mask_then_featurize(self, engine, view, make_featurizer):
        rng = np.random.default_rng(7)
        i = rng.integers(0, len(view), 300)
        j = rng.integers(0, len(view), 300)
        legal = legal_pair_mask(view, i, j)
        featurizer = make_featurizer(engine, view, FEATURES_11)
        out = featurizer.out_buffer(len(i))
        ki, kj, rows = featurizer.legal_rows_into(i, j, out)
        assert np.array_equal(ki, i[legal])
        assert np.array_equal(kj, j[legal])
        assert np.array_equal(
            rows, compute_pair_features(view, i[legal], j[legal], FEATURES_11)
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_illegal_chunk(self, engine, make_featurizer):
        view = _random_view(driver_fraction=1.0)  # every v-pin drives
        featurizer = make_featurizer(engine, view, FEATURES_9)
        i = np.arange(len(view) - 1)
        j = i + 1
        out = featurizer.out_buffer(len(i))
        ki, kj, rows = featurizer.legal_rows_into(i, j, out)
        assert len(ki) == len(kj) == 0
        assert rows.shape == (0, 9)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_chunk(self, engine, view, make_featurizer):
        featurizer = make_featurizer(engine, view, FEATURES_9)
        empty = np.zeros(0, dtype=np.int64)
        out = featurizer.out_buffer(8)
        assert featurizer.rows_into(empty, empty, out).shape == (0, 9)
        ki, kj, rows = featurizer.legal_rows_into(empty, empty, out)
        assert len(ki) == 0 and rows.shape == (0, 9)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_kept_indices_outlive_buffer_reuse(
        self, engine, view, make_featurizer
    ):
        featurizer = make_featurizer(engine, view, FEATURES_9)
        out = featurizer.out_buffer(64)
        i = np.arange(30)
        j = i + 5
        ki1, kj1, rows = featurizer.legal_rows_into(i, j, out)
        snapshot_i, snapshot_j = ki1.copy(), kj1.copy()
        featurizer.legal_rows_into(j, i, out)  # reuse the buffer
        assert np.array_equal(ki1, snapshot_i)
        assert np.array_equal(kj1, snapshot_j)


class TestChunkReassembly:
    """Per-chunk featurization must reassemble to the one-shot matrix."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 100, 780, 5000])
    def test_exact_boundaries(self, engine, chunk_size, make_featurizer):
        view = _random_view(n=40, seed=3)
        n = len(view)
        featurizer = make_featurizer(engine, view, FEATURES_9)
        out = featurizer.out_buffer(max_chunk_rows(n, chunk_size))
        parts_i, parts_j, parts_X = [], [], []
        for i, j in iter_all_pairs(n, chunk_size):
            ki, kj, rows = featurizer.legal_rows_into(i, j, out)
            if len(ki) == 0:
                continue  # an all-illegal or empty chunk adds nothing
            parts_i.append(ki)
            parts_j.append(kj)
            parts_X.append(rows.copy())
        all_i = np.concatenate(parts_i)
        all_j = np.concatenate(parts_j)
        got = np.vstack(parts_X)
        full_i, full_j = next(iter_all_pairs(n, n * n))
        legal = legal_pair_mask(view, full_i, full_j)
        assert np.array_equal(all_i, full_i[legal])
        assert np.array_equal(all_j, full_j[legal])
        assert np.array_equal(
            got,
            compute_pair_features(
                view, full_i[legal], full_j[legal], FEATURES_9
            ),
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_last_partial_chunk(self, engine, make_featurizer):
        # 10 v-pins -> 45 pairs; chunk_size 40 leaves a 5-pair tail.
        view = _random_view(n=10, seed=4, driver_fraction=0.0)
        featurizer = make_featurizer(engine, view, FEATURES_11)
        chunks = list(iter_all_pairs(len(view), 40))
        assert len(chunks) == 2 and len(chunks[1][0]) < 40
        out = featurizer.out_buffer(max_chunk_rows(len(view), 40))
        i, j = chunks[1]
        ki, kj, rows = featurizer.legal_rows_into(i, j, out)
        assert np.array_equal(ki, i) and np.array_equal(kj, j)
        assert np.array_equal(
            rows, compute_pair_features(view, i, j, FEATURES_11)
        )


class TestBufferContract:
    def test_out_buffer_shapes(self, view, kernels):
        for _mode in kernels:
            for featurizer in (
                PairFeaturizer(view, FEATURES_9),
                OracleFeaturizer(view, FEATURES_9),
            ):
                buf = featurizer.out_buffer(17)
                assert buf.shape == (17, 9)
                assert buf.dtype == np.float64
            with pytest.raises(ValueError):
                PairFeaturizer(view, FEATURES_9).out_buffer(-1)

    def test_too_small_buffer_rejected(self, view):
        featurizer = PairFeaturizer(view, FEATURES_9)
        out = featurizer.out_buffer(2)
        i = np.array([0, 1, 2])
        with pytest.raises(ValueError):
            featurizer.rows_into(i, i + 1, out)

    def test_wrong_width_rejected(self, view):
        featurizer = PairFeaturizer(view, FEATURES_9)
        with pytest.raises(ValueError):
            featurizer.rows_into(
                np.array([0]), np.array([1]), np.empty((4, 7))
            )

    def test_c_engine_requires_c_contiguous(self, view, kernels):
        kernels.use("c")
        featurizer = PairFeaturizer(view, FEATURES_9)
        fortran = np.empty((9, 8)).T
        with pytest.raises(ValueError):
            featurizer.rows_into(np.array([0]), np.array([1]), fortran)

    def test_mismatched_ij_rejected(self, view):
        featurizer = PairFeaturizer(view, FEATURES_9)
        out = featurizer.out_buffer(4)
        with pytest.raises(ValueError):
            featurizer.rows_into(np.array([0, 1]), np.array([2]), out)


class TestMetrics:
    def test_chunk_counter_and_rows_histogram(self, view, kernels):
        kernels.use("numpy")
        registry = get_registry()
        before = registry.snapshot()["counters"]
        featurizer = PairFeaturizer(view, FEATURES_9)
        out = featurizer.out_buffer(16)
        i = np.arange(10)
        featurizer.rows_into(i, i + 1, out)
        featurizer.legal_rows_into(i, i + 1, out)
        after = registry.snapshot()["counters"]
        name = "featurize_chunks{engine=numpy}"
        assert after.get(name, 0) - before.get(name, 0) == 2
        hist = registry.snapshot()["histograms"].get("featurize_rows")
        assert hist is not None and hist["count"] >= 2

"""Tests for the experiment runner."""

import json

import pytest

from repro.experiments import common
from repro.experiments.run_all import (
    ALL_EXPERIMENTS,
    build_run_manifest,
    main,
    render_report,
    run_all,
)
from repro.obs import configure_logging, drain_spans, get_registry, reset_tracing


@pytest.fixture(autouse=True)
def _fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()


@pytest.fixture(autouse=True)
def _fresh_obs():
    import logging

    reset_tracing()
    get_registry().reset()
    yield
    reset_tracing()
    get_registry().reset()
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs", False):
            logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)


class TestRegistry:
    def test_every_paper_table_and_figure_registered(self):
        names = [name for name, _ in ALL_EXPERIMENTS]
        for expected in (
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "figure4",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
        ):
            assert expected in names

    def test_extensions_and_ablations_registered(self):
        names = [name for name, _ in ALL_EXPERIMENTS]
        assert "extension_matching" in names
        assert "ablation_neighborhood" in names
        assert "compare_paper" in names
        assert "illustrations" in names

    def test_every_module_has_run(self):
        for _name, module in ALL_EXPERIMENTS:
            assert callable(module.run)


class TestRunAll:
    def test_only_filter(self):
        outputs = run_all(scale=0.1, only=("figure4", "figure8"))
        assert set(outputs) == {"figure4", "figure8"}
        for output in outputs.values():
            assert output.report
            assert output.data["elapsed_seconds"] > 0

    def test_unknown_name_is_ignored(self):
        outputs = run_all(scale=0.1, only=("nonexistent",))
        assert outputs == {}


class TestParallelRunner:
    ONLY = ("figure4", "figure8")  # cheap and timing-free

    def test_jobs_report_bit_identical(self):
        serial = run_all(scale=0.1, seed=0, only=self.ONLY, jobs=1)
        parallel = run_all(scale=0.1, seed=0, only=self.ONLY, jobs=2)
        assert render_report(serial, timings=False) == render_report(
            parallel, timings=False
        )

    def test_jobs_zero_means_all_cores(self):
        outputs = run_all(scale=0.1, seed=0, only=("figure4",), jobs=0)
        assert set(outputs) == {"figure4"}

    def test_timed_report_carries_elapsed(self):
        outputs = run_all(scale=0.1, seed=0, only=("figure4",))
        assert "elapsed" in render_report(outputs, timings=True)
        assert "elapsed" not in render_report(outputs, timings=False)

    def test_report_identical_with_debug_logging(self, capsys):
        """DEBUG-level diagnostics must never leak into the report."""
        configure_logging(level="DEBUG")
        serial = run_all(scale=0.1, seed=0, only=("figure4",), jobs=1)
        parallel = run_all(scale=0.1, seed=0, only=("figure4",), jobs=2)
        assert render_report(serial, timings=False) == render_report(
            parallel, timings=False
        )
        assert capsys.readouterr().out == ""  # logs go to stderr only


class TestRunManifest:
    ONLY = ("figure4", "figure8")

    @pytest.fixture(autouse=True)
    def _no_default_cache(self):
        from repro.runtime import get_default_cache, set_default_cache

        saved = get_default_cache()
        yield
        set_default_cache(saved)

    def test_build_manifest_collects_spans_and_metrics(self):
        outputs = run_all(scale=0.1, seed=0, only=self.ONLY, jobs=2)
        manifest = build_run_manifest(
            outputs, scale=0.1, seed=0, jobs=2, only=self.ONLY
        )
        assert manifest["config"] == {
            "scale": 0.1,
            "seed": 0,
            "jobs": 2,
            "only": list(self.ONLY),
            "cache_dir": None,
            "shard": None,
            "checkpoint_dir": None,
            "task_timeout": None,
        }
        assert manifest["status"] == "completed"
        assert manifest["shard"] is None
        assert manifest["seeds"]["root"] == 0
        (root,) = manifest["spans"]
        assert root["name"] == "run_all"
        names = sorted(
            child["attrs"]["name"] for child in root["children"]
        )
        assert names == sorted(self.ONLY)  # worker spans were merged
        assert (
            manifest["metrics"]["counters"]["experiments_completed"] == 2
        )
        for name in self.ONLY:
            entry = manifest["experiments"][name]
            assert entry["elapsed_seconds"] > 0
            assert len(entry["report_sha256"]) == 64

    def test_manifest_proves_byte_identity_across_jobs(self):
        serial = build_run_manifest(
            run_all(scale=0.1, seed=0, only=("figure4",), jobs=1),
            scale=0.1, seed=0, jobs=1,
        )
        drain_spans()
        parallel = build_run_manifest(
            run_all(scale=0.1, seed=0, only=("figure4",), jobs=2),
            scale=0.1, seed=0, jobs=2,
        )
        assert (
            serial["experiments"]["figure4"]["report_sha256"]
            == parallel["experiments"]["figure4"]["report_sha256"]
        )

    def test_manifest_carries_cache_stats(self, tmp_path):
        from repro.runtime import set_default_cache

        set_default_cache(tmp_path / "feat")
        outputs = run_all(scale=0.1, seed=0, only=("figure4",), jobs=1)
        manifest = build_run_manifest(outputs, scale=0.1, seed=0, jobs=1)
        cache = manifest["cache"]
        assert cache["dir"] == str(tmp_path / "feat")
        assert set(cache["lifetime"]) >= {"hits", "misses", "puts"}

    def test_main_writes_parseable_manifest(self, tmp_path, capsys):
        main(
            [
                "--scale", "0.1",
                "--only", "figure4",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "feat"),
                "--manifest-dir", str(tmp_path / "runs"),
            ]
        )
        (path,) = (tmp_path / "runs").glob("*.json")
        with open(path) as handle:
            manifest = json.load(handle)
        assert manifest["command"] == "run_all"
        assert manifest["config"]["jobs"] == 2
        assert manifest["seeds"]["root"] == 0
        assert manifest["spans"][0]["name"] == "run_all"
        assert manifest["cache"]["dir"] == str(tmp_path / "feat")
        assert "figure4" in manifest["experiments"]
        captured = capsys.readouterr()
        assert "## figure4" in captured.out
        assert str(path) in captured.err  # announced on stderr, not stdout

    def test_no_manifest_flag(self, tmp_path, capsys):
        main(
            [
                "--scale", "0.1",
                "--only", "figure4",
                "--no-cache",
                "--no-manifest",
                "--checkpoint-dir", str(tmp_path / "cp"),
                "--manifest-dir", str(tmp_path / "runs"),
            ]
        )
        assert not (tmp_path / "runs").exists()
        capsys.readouterr()

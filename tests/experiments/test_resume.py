"""Tests for the resumable, sharded, fault-tolerant experiment runtime.

Covers checkpointing during a run, ``--resume`` (skipping experiments
with a verified checkpoint), ``--shard i/N`` partitioning plus
``repro merge-runs`` over the shards' checkpoint stores, the
interrupted partial manifest, and the chaos contract: a run surviving
SIGKILLed workers renders a report byte-identical to ``--jobs 1``.
"""

import argparse
import json

import pytest

from repro.cli import main as cli_main
from repro.experiments import common
from repro.experiments import run_all as run_all_module
from repro.experiments.run_all import (
    EXIT_INTERRUPTED,
    default_checkpoint_dir,
    execute,
    experiment_names,
    main,
    merge_runs,
    parse_shard,
    render_report,
    run_all,
    shard_slice,
)
from repro.obs import get_registry, reset_tracing
from repro.obs.manifest import build_manifest, load_manifest, write_manifest
from repro.runtime import CheckpointStore, RetryPolicy
from repro.runtime.faults import ENV_FAULT_PLAN

ONLY = ("figure4", "figure8")  # cheap and timing-free
SCALE = 0.1


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
    common.clear_caches()
    reset_tracing()
    get_registry().reset()
    yield
    common.clear_caches()
    reset_tracing()
    get_registry().reset()


class TestShardParsing:
    def test_parse_valid(self):
        assert parse_shard("1/2") == (1, 2)
        assert parse_shard("3/3") == (3, 3)

    @pytest.mark.parametrize("text", ["0/2", "3/2", "2", "a/b", "1/0", "-1/2"])
    def test_parse_invalid(self, text):
        with pytest.raises(ValueError, match="shard"):
            parse_shard(text)

    def test_slices_partition_exactly(self):
        names = [f"e{i}" for i in range(7)]
        shards = [shard_slice(names, (i, 3)) for i in (1, 2, 3)]
        flat = [name for shard in shards for name in shard]
        assert sorted(flat) == sorted(names)  # no overlap, no gap
        assert shards[0] == ["e0", "e3", "e6"]  # deterministic round-robin

    def test_experiment_names_filters_then_shards(self):
        names = experiment_names(ONLY, (2, 2))
        assert names == ["figure8"]


class TestCheckpointing:
    def test_run_writes_verified_checkpoints(self, tmp_path):
        store = CheckpointStore(tmp_path / "cp")
        outputs = run_all(
            scale=SCALE, seed=0, only=ONLY, jobs=1, checkpoints=store
        )
        for name in ONLY:
            record = store.load(name, scale=SCALE, seed=0)
            assert record["report"] == outputs[name].report

    def test_main_checkpoints_under_manifest_dir(self, tmp_path, capsys):
        rc = main(
            [
                "--scale", str(SCALE),
                "--only", *ONLY,
                "--no-cache",
                "--manifest-dir", str(tmp_path / "runs"),
            ]
        )
        assert rc == 0
        store = CheckpointStore(
            default_checkpoint_dir(tmp_path / "runs", SCALE, 0)
        )
        assert sorted(store.load_all(scale=SCALE, seed=0)) == sorted(ONLY)
        capsys.readouterr()


class TestResume:
    def _run(self, tmp_path, *extra):
        return main(
            [
                "--scale", str(SCALE),
                "--only", *ONLY,
                "--no-cache",
                "--manifest-dir", str(tmp_path / "runs"),
                "--out", str(tmp_path / f"out{len(extra)}.txt"),
                *extra,
            ]
        )

    def _forbid_reruns(self, monkeypatch):
        """Running either experiment again would explode."""

        def _explode(**kwargs):
            raise AssertionError("experiment re-ran despite --resume")

        for name in ONLY:
            monkeypatch.setattr(
                run_all_module.EXPERIMENTS_BY_NAME[name], "run", _explode
            )

    def test_resume_skips_proven_experiments(
        self, tmp_path, capsys, monkeypatch
    ):
        assert self._run(tmp_path) == 0
        first = (tmp_path / "out0.txt").read_bytes()
        self._forbid_reruns(monkeypatch)
        get_registry().reset()
        assert self._run(tmp_path, "--resume") == 0
        assert (tmp_path / "out1.txt").read_bytes() == first
        counters = get_registry().snapshot()["counters"]
        assert counters["experiments_resumed"] == len(ONLY)
        manifests = sorted((tmp_path / "runs").glob("*.json"))
        assert len(manifests) == 2
        resumed_manifest = max(manifests, key=lambda p: p.stat().st_mtime_ns)
        document = load_manifest(resumed_manifest)
        assert sorted(document["resumed"]) == sorted(ONLY)
        assert sorted(document["experiments"]) == sorted(ONLY)
        capsys.readouterr()

    def test_resume_needs_no_manifest(self, tmp_path, capsys, monkeypatch):
        """A runner SIGKILLed or OOM-killed writes no manifest; its
        verified checkpoints alone must carry a resume."""
        assert self._run(tmp_path) == 0
        first = (tmp_path / "out0.txt").read_bytes()
        for path in (tmp_path / "runs").glob("*.json"):
            path.unlink()
        self._forbid_reruns(monkeypatch)
        get_registry().reset()
        assert self._run(tmp_path, "--resume") == 0
        assert (tmp_path / "out1.txt").read_bytes() == first
        counters = get_registry().snapshot()["counters"]
        assert counters["experiments_resumed"] == len(ONLY)
        (path,) = (tmp_path / "runs").glob("*.json")
        assert sorted(load_manifest(path)["resumed"]) == sorted(ONLY)
        capsys.readouterr()

    def test_stale_checkpoint_forces_rerun(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        store = CheckpointStore(
            default_checkpoint_dir(tmp_path / "runs", SCALE, 0)
        )
        # Garble one checkpoint: it no longer verifies, so --resume must
        # re-run that experiment (and still produce the same bytes).
        path = store.path("figure4")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        get_registry().reset()
        assert self._run(tmp_path, "--resume") == 0
        assert (
            (tmp_path / "out1.txt").read_bytes()
            == (tmp_path / "out0.txt").read_bytes()
        )
        counters = get_registry().snapshot()["counters"]
        assert counters["experiments_resumed"] == 1  # figure8 only
        assert counters["checkpoints_invalid"] >= 1
        assert store.load("figure4", scale=SCALE, seed=0) is not None
        capsys.readouterr()


def _args(tmp_path, **overrides):
    """An execute()-shaped namespace with the CLI defaults."""
    values = {
        "scale": SCALE,
        "seed": 0,
        "only": list(ONLY),
        "jobs": 1,
        "out": None,
        "manifest_dir": str(tmp_path / "runs"),
        "no_manifest": False,
        "resume": False,
        "shard": None,
        "checkpoint_dir": None,
        "task_timeout": None,
    }
    values.update(overrides)
    return argparse.Namespace(**values)


class TestInterrupt:
    def test_partial_manifest_on_interrupt(self, tmp_path, monkeypatch, capsys):
        real_run_all = run_all_module.run_all

        def interrupted_run_all(*args, **kwargs):
            # Finish figure4 for real, then die like a Ctrl-C would.
            kwargs["only"] = ("figure4",)
            real_run_all(*args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(run_all_module, "run_all", interrupted_run_all)
        code, outputs = execute(_args(tmp_path))
        assert code == EXIT_INTERRUPTED
        assert outputs is None
        (path,) = (tmp_path / "runs").glob("*.json")
        document = load_manifest(path)
        assert document["status"] == "interrupted"
        assert list(document["experiments"]) == ["figure4"]
        entry = document["experiments"]["figure4"]
        assert len(entry["report_sha256"]) == 64
        assert "interrupted" in capsys.readouterr().err

    def test_resume_after_interrupt_completes_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        real_run_all = run_all_module.run_all

        def interrupted_run_all(*args, **kwargs):
            kwargs["only"] = ("figure4",)
            real_run_all(*args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(run_all_module, "run_all", interrupted_run_all)
        assert execute(_args(tmp_path))[0] == EXIT_INTERRUPTED
        monkeypatch.setattr(run_all_module, "run_all", real_run_all)
        get_registry().reset()
        out = tmp_path / "resumed.txt"
        code, outputs = execute(_args(tmp_path, resume=True, out=str(out)))
        assert code == 0
        assert sorted(outputs) == sorted(ONLY)
        counters = get_registry().snapshot()["counters"]
        assert counters["experiments_resumed"] == 1  # the finished figure4
        # The combined report matches a clean, uninterrupted serial run.
        clean = run_all(scale=SCALE, seed=0, only=ONLY, jobs=1)
        assert out.read_text() == render_report(clean, timings=False) + "\n"
        capsys.readouterr()

    def test_sigterm_reaches_interrupt_path(self):
        import os
        import signal

        with pytest.raises(KeyboardInterrupt):
            with run_all_module._sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)


class TestShardAndMerge:
    def test_sharded_runs_merge_byte_identical(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        clean = tmp_path / "clean.txt"
        assert main(
            [
                "--scale", str(SCALE), "--only", *ONLY, "--no-cache",
                "--no-manifest", "--checkpoint-dir", str(tmp_path / "clean"),
                "--out", str(clean),
            ]
        ) == 0
        for shard in ("1/2", "2/2"):
            assert main(
                [
                    "--scale", str(SCALE), "--only", *ONLY, "--no-cache",
                    "--manifest-dir", str(runs), "--shard", shard,
                ]
            ) == 0
        shard_manifests = sorted(runs.glob("*.json"))
        assert len(shard_manifests) == 2
        for path in shard_manifests:
            document = load_manifest(path)
            assert document["shard"]["count"] == 2
            assert len(document["experiments"]) == 1  # one name per shard
        merged_out = tmp_path / "merged.txt"
        rc = cli_main(
            [
                "merge-runs",
                *[str(p) for p in shard_manifests],
                "--out", str(merged_out),
                "--manifest-dir", str(runs),
            ]
        )
        assert rc == 0
        assert merged_out.read_bytes() == clean.read_bytes()
        merged_path = max(
            runs.glob("*.json"), key=lambda p: p.stat().st_mtime_ns
        )
        document = load_manifest(merged_path)
        assert document["command"] == "merge-runs"
        assert len(document["merged_from"]) == 2
        assert sorted(document["experiments"]) == sorted(ONLY)
        capsys.readouterr()

    def _shard(self, tmp_path, directory, reports, **config):
        """A shard manifest whose checkpoint store holds ``reports``."""
        store = CheckpointStore(tmp_path / directory)
        for name, report in reports.items():
            store.save(name, scale=SCALE, seed=0, report=report)
        document = build_manifest(
            command="run_all",
            config={
                "scale": SCALE,
                "seed": 0,
                "only": list(ONLY),
                "checkpoint_dir": str(store.root),
                **config,
            },
            seeds={"root": 0},
        )
        return write_manifest(document, tmp_path / "runs")

    def test_merge_rejects_coverage_gap(self, tmp_path):
        path = self._shard(tmp_path, "a", {"figure4": "r4"})
        with pytest.raises(ValueError, match="do not cover: figure8"):
            merge_runs([path])

    def test_merge_rejects_hash_conflict(self, tmp_path):
        a = self._shard(tmp_path, "a", {"figure4": "r4", "figure8": "r8"})
        b = self._shard(tmp_path, "b", {"figure4": "other"})
        with pytest.raises(ValueError, match="conflicting checkpoints"):
            merge_runs([a, b])

    def test_merge_rejects_mismatched_config(self, tmp_path):
        a = self._shard(tmp_path, "a", {"figure4": "r4"})
        b = self._shard(tmp_path, "b", {"figure8": "r8"}, seed=1)
        with pytest.raises(ValueError, match="scale/seed differs"):
            merge_runs([a, b])

    def test_merge_rejects_missing_checkpoint(self, tmp_path):
        """A checkpoint that fails verification covers nothing."""
        path = self._shard(tmp_path, "a", {"figure4": "r4", "figure8": "r8"})
        torn = CheckpointStore(tmp_path / "a").path("figure8")
        torn.write_bytes(torn.read_bytes()[:-20])
        with pytest.raises(ValueError, match="do not cover: figure8"):
            merge_runs([path])

    def test_merge_verifies_and_orders_from_checkpoints(self, tmp_path):
        # Shards arrive in reverse order; the merge must restore the
        # canonical one.  A report found in both stores agrees.
        b = self._shard(tmp_path, "b", {"figure8": "r8", "figure4": "r4"})
        a = self._shard(tmp_path, "a", {"figure4": "r4"})
        outputs, merged = merge_runs([b, a])
        assert list(outputs) == ["figure4", "figure8"]
        assert outputs["figure4"].report == "r4"
        assert outputs["figure8"].report == "r8"
        assert merged["command"] == "merge-runs"
        assert merged["status"] == "completed"
        assert len(merged["merged_from"]) == 2
        assert sorted(merged["experiments"]) == sorted(ONLY)


class TestChaosByteIdentity:
    """Satellite contract: SIGKILLed workers, report == --jobs 1 bytes."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_worker_kill_report_bit_identical(self, monkeypatch, jobs):
        serial = render_report(
            run_all(scale=SCALE, seed=0, only=ONLY, jobs=1), timings=False
        )
        monkeypatch.setenv(
            ENV_FAULT_PLAN,
            json.dumps({"faults": [{"op": "kill", "task": 0}]}),
        )
        get_registry().reset()
        chaotic = run_all(
            scale=SCALE,
            seed=0,
            only=ONLY,
            jobs=jobs,
            retry=RetryPolicy(backoff_s=0.01, max_backoff_s=0.05),
        )
        assert render_report(chaotic, timings=False) == serial
        counters = get_registry().snapshot()["counters"]
        assert counters["pool_worker_deaths"] >= 1

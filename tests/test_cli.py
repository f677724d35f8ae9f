"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.attack.config import CONFIGS_BY_NAME
from repro.cli import build_parser, main
from repro.serve.registry import ModelRegistry
from repro.serve.service import AttackService, train_model
from repro.splitmfg.challenge import challenge_to_dict

REPO = Path(__file__).resolve().parent.parent


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.out == "designs"
        assert args.scale == 0.3

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.config == "Imp-11"
        assert args.layer == 8

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.registry == "models"
        assert args.port == 8787
        assert args.quiet is True
        for removed in (["--workers", "4"], ["--batch-window", "0.002"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["serve", *removed])
            assert excinfo.value.code == 2

    def test_train_model_and_predict_defaults(self):
        args = build_parser().parse_args(["train-model"])
        assert args.config == "Imp-11"
        assert args.registry == "models"
        assert args.backend is None
        args = build_parser().parse_args(["predict", "challenge.json", "--top-k", "3"])
        assert args.top_k == 3
        assert args.model is None

    def test_backend_flag_parses(self):
        args = build_parser().parse_args(["attack", "--backend", "mlp"])
        assert args.backend == "mlp"
        args = build_parser().parse_args(["train-model", "--backend", "knn"])
        assert args.backend == "knn"

    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf", "abc"])
    def test_scale_must_be_positive_finite(self, bad):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["attack", "--scale", bad])
        assert excinfo.value.code == 2

    def test_obs_export_trace_defaults(self):
        args = build_parser().parse_args(["obs", "export-trace", "m.json"])
        assert args.manifest == "m.json"
        assert args.out == "trace.json"

    def test_obs_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_bench_compare_defaults(self):
        args = build_parser().parse_args(["bench", "compare"])
        assert args.baseline == "benchmarks/baseline.json"
        assert args.current is None
        assert args.fail_on_regression is None

    def test_cache_json_flag(self):
        args = build_parser().parse_args(["cache", "stats", "--json"])
        assert args.json is True

    def test_paper_scale_defaults(self):
        args = build_parser().parse_args(["paper-scale"])
        assert args.cells == 1_000_000
        assert args.layer == 8
        assert args.features == 9
        assert args.budget_mb is None


class TestCommands:
    def test_generate_and_split(self, tmp_path, capsys):
        rc = main(
            [
                "generate",
                "--out",
                str(tmp_path),
                "--scale",
                "0.05",
                "--names",
                "sb1",
            ]
        )
        assert rc == 0
        design_path = tmp_path / "sb1.json"
        assert design_path.exists()
        rc = main(["split", str(design_path), "--layer", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "v-pins" in out

    def test_challenge_command(self, tmp_path, capsys):
        main(
            [
                "generate",
                "--out",
                str(tmp_path),
                "--scale",
                "0.05",
                "--names",
                "sb18",
            ]
        )
        rc = main(
            [
                "challenge",
                str(tmp_path / "sb18.json"),
                "--layer",
                "6",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "sb18.L6.public.json").exists()
        assert (tmp_path / "out" / "sb18.L6.oracle.json").exists()

    def test_challenge_no_oracle(self, tmp_path, capsys):
        main(
            ["generate", "--out", str(tmp_path), "--scale", "0.05", "--names", "sb18"]
        )
        rc = main(
            [
                "challenge",
                str(tmp_path / "sb18.json"),
                "--out",
                str(tmp_path / "out"),
                "--no-oracle",
            ]
        )
        assert rc == 0
        assert not (tmp_path / "out" / "sb18.L8.oracle.json").exists()

    def test_attack_small(self, capsys):
        rc = main(
            ["attack", "--scale", "0.08", "--layer", "8", "--config", "Imp-9"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Imp-9 attack" in out
        assert "sb12" in out

    def test_attack_unknown_config(self, capsys):
        rc = main(["attack", "--config", "NOPE"])
        assert rc == 2

    def test_train_predict_models_flow(self, tmp_path, capsys):
        main(["generate", "--out", str(tmp_path), "--scale", "0.05", "--names", "sb1"])
        main(
            [
                "challenge",
                str(tmp_path / "sb1.json"),
                "--layer",
                "8",
                "--out",
                str(tmp_path),
                "--no-oracle",
            ]
        )
        rc = main(
            [
                "train-model",
                "--config",
                "Imp-7",
                "--layer",
                "8",
                "--designs",
                str(tmp_path / "sb1.json"),
                "--registry",
                str(tmp_path / "models"),
            ]
        )
        assert rc == 0
        assert "imp-7-v0001" in capsys.readouterr().out
        rc = main(
            [
                "predict",
                str(tmp_path / "sb1.L8.public.json"),
                "--registry",
                str(tmp_path / "models"),
                "--top-k",
                "2",
                "--out",
                str(tmp_path / "response.json"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "response.json").exists()
        assert "sb1 (layer 8)" in capsys.readouterr().out
        rc = main(["models", "--registry", str(tmp_path / "models")])
        assert rc == 0
        assert "imp-7-v0001" in capsys.readouterr().out

    def test_train_model_mlp_backend_flow(self, tmp_path, capsys):
        main(["generate", "--out", str(tmp_path), "--scale", "0.05", "--names", "sb1"])
        main(
            [
                "challenge",
                str(tmp_path / "sb1.json"),
                "--layer",
                "8",
                "--out",
                str(tmp_path),
                "--no-oracle",
            ]
        )
        rc = main(
            [
                "train-model",
                "--config",
                "Imp-7",
                "--backend",
                "mlp",
                "--layer",
                "8",
                "--designs",
                str(tmp_path / "sb1.json"),
                "--registry",
                str(tmp_path / "models"),
            ]
        )
        assert rc == 0
        assert "Imp-7+mlp" in capsys.readouterr().out
        from repro.serve import ModelRegistry

        entry = ModelRegistry(tmp_path / "models").latest()
        assert entry is not None
        assert entry.kind == "mlp"
        rc = main(
            [
                "predict",
                str(tmp_path / "sb1.L8.public.json"),
                "--registry",
                str(tmp_path / "models"),
                "--out",
                str(tmp_path / "response.json"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "response.json").exists()

    def test_unknown_backend_rejected(self, capsys):
        rc = main(["attack", "--config", "Imp-9", "--backend", "weka"])
        assert rc == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_predict_unknown_model(self, tmp_path, capsys):
        main(["generate", "--out", str(tmp_path), "--scale", "0.05", "--names", "sb1"])
        main(
            [
                "challenge",
                str(tmp_path / "sb1.json"),
                "--out",
                str(tmp_path),
                "--no-oracle",
            ]
        )
        main(
            [
                "train-model",
                "--config",
                "Imp-7",
                "--designs",
                str(tmp_path / "sb1.json"),
                "--registry",
                str(tmp_path / "models"),
            ]
        )
        rc = main(
            [
                "predict",
                str(tmp_path / "sb1.L8.public.json"),
                "--registry",
                str(tmp_path / "models"),
                "--model",
                "ghost",
            ]
        )
        assert rc == 2

    def test_experiments_only_figure4(self, tmp_path, capsys):
        rc = main(
            [
                "experiments",
                "--scale",
                "0.08",
                "--only",
                "figure4",
                "--manifest-dir",
                str(tmp_path / "runs"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        (manifest_path,) = (tmp_path / "runs").glob("*.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["command"] == "experiments"
        assert "figure4" in manifest["experiments"]

    def test_experiments_no_manifest(self, tmp_path, capsys):
        rc = main(
            [
                "experiments",
                "--scale",
                "0.08",
                "--only",
                "figure4",
                "--no-manifest",
                "--no-checkpoint",
                "--manifest-dir",
                str(tmp_path / "runs"),
            ]
        )
        assert rc == 0
        assert not (tmp_path / "runs").exists()
        capsys.readouterr()

    def test_cache_stats(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "feat"))
        rc = main(["cache", "stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert str(tmp_path / "feat") in out
        assert "0 entries" in out
        assert "hits" in out and "misses" in out

    def test_cache_clear(self, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "feat"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        cache_dir.mkdir(parents=True)
        (cache_dir / "deadbeef.npz").write_bytes(b"x")
        rc = main(["cache", "clear"])
        assert rc == 0
        assert "1" in capsys.readouterr().out
        assert not list(cache_dir.glob("*.npz"))

    def test_cache_stats_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "feat"))
        rc = main(["cache", "stats", "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["dir"] == str(tmp_path / "feat")
        assert document["entries"] == 0
        assert set(document["lifetime"]) >= {"hits", "misses", "puts"}

    def test_obs_export_trace_from_experiments_manifest(
        self, tmp_path, capsys
    ):
        rc = main(
            [
                "experiments",
                "--scale",
                "0.08",
                "--only",
                "figure4",
                "--manifest-dir",
                str(tmp_path / "runs"),
                "--no-cache",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        (manifest_path,) = (tmp_path / "runs").glob("*.json")
        out = tmp_path / "trace.json"
        rc = main(["obs", "export-trace", str(manifest_path), "-o", str(out)])
        assert rc == 0
        assert "perfetto" in capsys.readouterr().out
        with open(out) as handle:
            trace = json.load(handle)
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert events
        for event in events:
            for key in ("ph", "ts", "dur", "pid", "tid"):
                assert key in event

    def test_obs_export_trace_missing_manifest(self, tmp_path, capsys):
        rc = main(
            [
                "obs",
                "export-trace",
                str(tmp_path / "ghost.json"),
                "-o",
                str(tmp_path / "trace.json"),
            ]
        )
        assert rc == 2
        assert "ghost.json" in capsys.readouterr().err

    def _write_bench(self, path, cases):
        records = [
            {
                "suite": "benchmarks.test_x",
                "case": case,
                "wall_s": wall_s,
                "throughput_per_s": 1.0 / wall_s,
                "rounds": 1,
                "recorded_utc": "2026-01-01T00:00:00Z",
            }
            for case, wall_s in cases
        ]
        path.write_text(json.dumps(records))
        return path

    def test_bench_compare_ok_exit_zero(self, tmp_path, capsys):
        baseline = self._write_bench(tmp_path / "base.json", [("fit", 1.0)])
        current = self._write_bench(tmp_path / "cur.json", [("fit", 1.1)])
        rc = main(
            [
                "bench",
                "compare",
                "--baseline",
                str(baseline),
                "--current",
                str(current),
                "--fail-on-regression",
                "50",
            ]
        )
        assert rc == 0
        assert "benchmark trajectory" in capsys.readouterr().out

    def test_bench_compare_2x_slowdown_exits_nonzero(self, tmp_path, capsys):
        baseline = self._write_bench(tmp_path / "base.json", [("fit", 1.0)])
        current = self._write_bench(tmp_path / "cur.json", [("fit", 2.0)])
        out = tmp_path / "delta.txt"
        rc = main(
            [
                "bench",
                "compare",
                "--baseline",
                str(baseline),
                "--current",
                str(current),
                "--fail-on-regression",
                "50",
                "--out",
                str(out),
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "REGRESSION" in captured.err
        assert "REGRESSED" in out.read_text()

    def test_bench_compare_missing_baseline(self, tmp_path, capsys):
        current = self._write_bench(tmp_path / "cur.json", [("fit", 1.0)])
        rc = main(
            [
                "bench",
                "compare",
                "--baseline",
                str(tmp_path / "ghost.json"),
                "--current",
                str(current),
            ]
        )
        assert rc == 2

    def test_paper_scale_tiny_run_writes_manifest(self, tmp_path, capsys):
        rc = main(
            [
                "paper-scale",
                "--cells", "30000",
                "--train-cells", "20000",
                "--budget-mb", "4000",
                "--manifest-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "legal pairs scored" in out
        assert "peak RSS" in out
        manifests = list(tmp_path.glob("*.json"))
        assert len(manifests) == 1
        doc = json.loads(manifests[0].read_text())
        assert doc["command"] == "paper-scale"
        assert doc["resources"]["peak_rss_bytes"] > 0
        assert "process_peak_rss_bytes" in doc["metrics"]["gauges"]

    def test_paper_scale_budget_exceeded_exits_3(self, capsys):
        rc = main(
            [
                "paper-scale",
                "--cells", "30000",
                "--train-cells", "20000",
                "--budget-mb", "1",
                "--no-manifest",
            ]
        )
        assert rc == 3
        assert "RSS BUDGET EXCEEDED" in capsys.readouterr().err


def test_serve_process_answers_like_the_service(views6, tmp_path):
    """``repro serve`` scores a challenge exactly like the in-process
    service, then exits cleanly on SIGINT."""
    registry = ModelRegistry(tmp_path / "models")
    registry.save(train_model(CONFIGS_BY_NAME["Imp-7"], views6[:1], seed=0), name="m")
    challenge = challenge_to_dict(views6[0])
    expected = AttackService(registry).predict(challenge, top_k=3)
    expected.pop("time_s")
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--registry", str(registry.root), "--port", "0", "--quiet",
        ],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        match = re.search(r"on http://([\d.]+):(\d+)", proc.stdout.readline())
        assert match, "server did not announce its address"
        request = urllib.request.Request(
            f"http://{match.group(1)}:{match.group(2)}/predict",
            data=json.dumps({"challenge": challenge, "top_k": 3}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            served = json.load(response)
    finally:
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 0, stderr
    served.pop("time_s")
    assert served == expected

"""Tests of the benchmark harness itself (``pytest benchmarks/e2e``)."""

from __future__ import annotations

import json
import multiprocessing
import sys
import threading
import time
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from benchmarks.e2e import layers, probe, programs, stats, tracer, workloads
from benchmarks.e2e.probe import Probes

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _square(x: int) -> int:
    return x * x


def _bindings(target: tuple) -> list[tuple[object, str, object]]:
    """Every ``(owner, name, object)`` a target's install would patch."""
    _layer, module_name, qualname, _hook = target
    module = sys.modules[module_name]
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        return [(owner, attr, vars(owner)[attr])]
    original = vars(module)[attr]
    return [
        (namespace, name, value)
        for namespace in tracer._package_modules("repro")
        for name, value in vars(namespace).items()
        if value is original
    ]


def test_install_and_uninstall_restore_every_attribute_by_identity():
    probe = tracer.Tracer()
    probe.install(layers.TARGETS)  # imports every target module
    probe.uninstall()
    before = [binding for target in layers.TARGETS for binding in _bindings(target)]
    assert len(before) > len(layers.TARGETS)  # re-exports are patched too
    probe = tracer.Tracer()
    probe.install(layers.TARGETS)
    try:
        for owner, name, original in before:
            assert getattr(owner, name) is not original
            assert getattr(owner, name).__wrapped__ is original
    finally:
        probe.uninstall()
    for owner, name, original in before:
        assert getattr(owner, name) is original


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


def test_self_time_of_nested_calls(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(tracer, "time", types.SimpleNamespace(perf_counter=clock.perf_counter))
    probe = tracer.Tracer()

    def tick(seconds: float, then=None):
        clock.now += seconds
        if then is not None:
            then()

    inner = probe.wrap("inner", lambda: tick(2))
    same = probe.wrap("outer", lambda: tick(4))
    outer = probe.wrap("outer", lambda: (tick(1), inner(), same(), tick(8)))
    outer()
    assert probe.self_s == {"inner": 2, "outer": 13}
    assert probe.calls == {"inner": 1, "outer": 1}  # nested same-layer call is not outermost
    assert probe.top_s == 15


def test_self_time_of_threaded_calls():
    probe = tracer.Tracer()
    inner = probe.wrap("inner", lambda: time.sleep(0.1))
    outer = probe.wrap("outer", lambda: (time.sleep(0.05), inner()))
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert probe.calls == {"outer": 2, "inner": 2}
    assert probe.self_s["outer"] == pytest.approx(0.1, abs=0.04)
    assert probe.self_s["inner"] == pytest.approx(0.2, abs=0.04)
    assert probe.top_s == pytest.approx(sum(probe.self_s.values()))


def test_forked_workers_flush_their_own_records(tmp_path):
    probe = tracer.Tracer(tmp_path)
    probe.install([("work", __name__, "_square", None)], package=__name__)
    try:
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
            assert list(pool.map(_square, range(6))) == [x * x for x in range(6)]
    finally:
        probe.uninstall()
        probe.flush()
    records = tracer.load_records(tmp_path)
    workers = [record for record in records if not record["root"]]
    assert workers and sum(r["calls"].get("work", 0) for r in workers) == 6
    assert [r["calls"] for r in records if r["root"]] == [{}]


def _sleepy(argv: list[str]) -> int:
    time.sleep(0.2)
    return len(argv)


def test_root_span_covers_the_traced_process(tmp_path):
    started = time.perf_counter()
    assert tracer.main(["--out", str(tmp_path), f"{__name__}:_sleepy", "--", "a", "b"]) == 2
    wall = time.perf_counter() - started
    merged = layers.merge_records(tracer.load_records(tmp_path))
    # Import, wrapper installation and the entry all fall in the root span.
    assert merged["root_s"] >= 0.2
    assert merged["self_s"] == {"other": pytest.approx(merged["root_s"], abs=0.01)}
    assert 0.0 <= layers.outside_root_frac(merged, wall) < 0.05
    assert layers.outside_root_frac({"root_s": 15.0}, 20.0) == pytest.approx(0.25)


def test_passes_continue_until_the_window_lasts_the_run_length():
    now = time.perf_counter()
    assert programs.more_passes(0, now - 100.0, 0.0)  # the first pass always runs
    assert programs.more_passes(3, now, 20.0)
    assert not programs.more_passes(1, now - 20.5, 20.0)


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    def label(n: int) -> str:
        return stats.tail([float(i) for i in range(n)])[0]

    assert [label(n) for n in (1, 19, 20, 99, 100, 999, 1000)] == [
        "median", "median", "p50", "p50", "p90", "p90", "p99",
    ]
    assert stats.tail([1.0, 5.0, 3.0]) == ("median", 3.0)
    assert stats.tail([float(i) for i in range(1, 1001)])[1] == pytest.approx(990.99)


def test_durations_scale_by_the_speed_measured_during_them():
    probes = Probes.__new__(Probes)
    half = probe.REFERENCE_SPIN_S * 2  # a spin twice as slow as the reference
    probes.cpus = [0, 1]
    probes.samples = {0: [(0.5, half), (1.5, half)], 1: [(0.5, probe.REFERENCE_SPIN_S)]}
    assert probes.factor(0.0, 1.0) == pytest.approx(0.75)
    assert probes.factor(0.0, 2.0, [0]) == pytest.approx(0.5)
    assert probes.factor(5.0, 6.0) == 1.0  # no sample inside: as measured
    measurement = workloads.Measurement(
        ops=[(0.0, 2.0)], window=(0.0, 2.0), work_units=4, cpu_s_per_op=2.0,
        peak_rss_mb=1.0, setups=[[(0.0, 1.0), (1.0, 2.0)]], attempted=1, failed=0, cpus=[0],
    )
    metrics = measurement.end_to_end(probes)
    assert metrics["latency_p50_ms"] == pytest.approx(1000.0)
    assert metrics["throughput_per_s"] == pytest.approx(4.0)
    assert metrics["cpu_ms_per_op"] == pytest.approx(1000.0)
    assert metrics["setup_s"] == pytest.approx(1.0)
    assert measurement.end_to_end()["latency_p50_ms"] == pytest.approx(2000.0)


def test_program_histogram_quantiles_are_the_programs_bucket_bounds():
    program = {"histograms": {
        "h": {"count": 10, "min": 0.02, "max": 0.3, "buckets": {"0.01": 0, "0.05": 9, "+inf": 1}},
        "empty": {"count": 0, "min": None, "max": None, "buckets": {"+inf": 0}},
    }}
    assert layers.quantile_ms(program, "h", 0.5) == pytest.approx(50.0)  # bucket's upper bound
    assert layers.quantile_ms(program, "h", 0.99) == pytest.approx(300.0)  # overflow: the max
    assert layers.quantile_ms(program, "empty", 0.5) == 0.0
    assert layers.quantile_ms(program, "absent", 0.5) == 0.0


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert stats.compare(base, [v * 1.2 for v in base], "lower", 0.1)["verdict"] == "regression"
    assert stats.compare(base, [v * 0.8 for v in base], "lower", 0.1)["verdict"] == "gain"
    assert stats.compare(base, base, "lower", 0.1)["verdict"] == "within bound"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert stats.compare(base, noisy, "lower", 0.1)["verdict"] == "unresolved"


def test_emitted_names_match_benchmark_json():
    def spec(entries: list[dict]) -> list[tuple[str, str, str]]:
        return [(e["name"], e["unit"], e["better"]) for e in entries]

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert spec(BENCHMARK["end_to_end"]) == list(workloads.END_TO_END)
    assert spec(BENCHMARK["per_layer"]) == list(layers.PER_LAYER)
    measurement = workloads.Measurement(
        ops=[(0.0, 1.0), (1.0, 3.0)], window=(0.0, 3.0), work_units=2, cpu_s_per_op=1.0,
        peak_rss_mb=1.0, setups=[[(0.0, 0.5)]], attempted=2, failed=0,
    )
    assert list(measurement.end_to_end()) == [name for name, _, _ in workloads.END_TO_END]
    merged = layers.merge_records([tracer.Tracer().snapshot()])
    per_layer = layers.per_layer_metrics(merged, {}, 0.0)
    assert list(per_layer) == [name for name, _, _ in layers.PER_LAYER]
    # Every wrapped layer's self time is reported, so the layers add up.
    wrapped = {layer for layer, _module, _name, _hook in layers.TARGETS}
    assert set(layers.SELF_TIME.values()) == wrapped | {"other"}


def test_experiment_list_matches_the_runner():
    from repro.experiments.run_all import ALL_EXPERIMENTS

    assert layers.EXPERIMENTS == tuple(name for name, _ in ALL_EXPERIMENTS)


def test_tampered_report_hash_is_a_failure():
    good = {name: f"sha-{name}" for name in layers.EXPERIMENTS}
    assert workloads.check_reports([good, dict(good)], good) == (40, 0)
    tampered = dict(good, table1="other")
    assert workloads.check_reports([good, tampered], None) == (40, 1)
    assert workloads.check_reports([tampered], good) == (20, 1)
    assert workloads.check_reports([None], good) == (20, 20)
    timed = dict(good, table2="other")  # timing-dependent: presence only
    assert workloads.check_reports([timed], good) == (20, 0)
    assert workloads.check_digests(["a", "a"], "a") == (2, 0)
    assert workloads.check_digests(["a", "b"], None) == (2, 1)
    assert workloads.check_digests(["a"], "b") == (1, 1)


def test_tampered_response_is_a_failure():
    reference = {"design": "sb1", "locs": [{"vpin": 0, "candidates": [{"partner": 1, "prob": 0.5}]}]}
    body = json.dumps({**reference, "time_s": 0.25}).encode()
    slower = json.dumps({**reference, "time_s": 0.5}).encode()
    assert workloads.response_key(body) == workloads.response_key(slower)
    tampered = body.replace(b"0.5}", b"0.6}")
    records = [
        (0, 200, (0.0, 0.01), workloads.response_key(body)),
        (0, 200, (0.0, 0.01), workloads.response_key(slower)),
        (0, 200, (0.0, 0.01), workloads.response_key(tampered)),
        (0, 500, (0.0, 0.01), workloads.response_key(body)),
    ]
    bodies = {workloads.response_key(b): b for b in (body, tampered)}
    assert workloads.check_responses(records, bodies, [reference]) == (4, 2)

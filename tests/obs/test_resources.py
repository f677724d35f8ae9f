"""Tests for resource telemetry (repro.obs.resources)."""

import os

import numpy as np
import pytest

from repro.obs import (
    drain_spans,
    get_registry,
    reset_tracing,
    span,
)
from repro.obs import resources
from repro.obs.resources import (
    DEFAULT_INTERVAL_S,
    ResourceSampler,
    read_cpu_seconds,
    read_peak_rss_bytes,
    read_rss_bytes,
    resource_config,
    resource_sampling,
    resources_snapshot,
    start_resource_sampling,
    stop_resource_sampling,
    telemetry_source,
    update_resource_gauges,
)


needs_procfs = pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs procfs"
)


@pytest.fixture(autouse=True)
def _fresh_obs():
    stop_resource_sampling()
    reset_tracing()
    get_registry().reset()
    yield
    stop_resource_sampling()
    reset_tracing()
    get_registry().reset()


class TestReadings:
    def test_rss_positive(self):
        assert read_rss_bytes() > 0

    def test_peak_at_least_plausible(self):
        # VmHWM can briefly trail VmRSS between kernel updates; both
        # must at least be real measurements.
        assert read_peak_rss_bytes() > 0

    def test_cpu_seconds_monotonic(self):
        first = read_cpu_seconds()
        sum(i * i for i in range(200_000))  # burn a little CPU
        assert read_cpu_seconds() >= first >= 0.0

    def test_source_named(self):
        assert telemetry_source() in ("procfs", "getrusage")

    @needs_procfs
    def test_rss_matches_vmrss_within_a_page(self):
        page = os.sysconf("SC_PAGE_SIZE")
        before = resources._proc_status_kb(("VmRSS",))["VmRSS"]
        rss = read_rss_bytes()
        after = resources._proc_status_kb(("VmRSS",))["VmRSS"]
        assert min(before, after) - page <= rss <= max(before, after) + page

    @needs_procfs
    def test_forked_child_reads_its_own_rss(self):
        read_rss_bytes()  # the parent now holds an open descriptor
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                before = read_rss_bytes()
                block = np.ones(32 * 2**20 // 8)  # 32 MiB, touched
                after = read_rss_bytes()
                os.write(write_end, f"{before} {after} {block[-1]:.0f}".encode())
            finally:
                os._exit(0)
        os.close(write_end)
        os.waitpid(pid, 0)
        with os.fdopen(read_end, "rb") as handle:
            before, after, _ = map(int, handle.read().split())
        assert after - before >= 24 * 2**20

    def test_getrusage_fallback_without_procfs(self, monkeypatch, tmp_path):
        missing = str(tmp_path / "no-procfs")
        monkeypatch.setattr(resources, "_PROC_STATM", missing)
        monkeypatch.setattr(resources, "_PROC_STATUS", missing)
        monkeypatch.setattr(resources, "_statm", (-1, None))
        assert 0 < read_rss_bytes() <= resources._rusage_peak_bytes()
        assert 0 < read_peak_rss_bytes() <= resources._rusage_peak_bytes()
        assert telemetry_source() == "getrusage"


class TestGaugeUpdates:
    def test_update_sets_all_three_gauges(self):
        readings = update_resource_gauges()
        gauges = get_registry().snapshot()["gauges"]
        assert gauges["process_rss_bytes"]["value"] == readings["rss_bytes"]
        assert (
            gauges["process_peak_rss_bytes"]["value"]
            == readings["peak_rss_bytes"]
        )
        assert (
            gauges["process_cpu_seconds"]["value"] == readings["cpu_seconds"]
        )
        assert readings["rss_bytes"] > 0


class TestSampler:
    def test_start_samples_immediately(self):
        sampler = ResourceSampler(interval=60.0)
        try:
            sampler.start()
            assert sampler.samples >= 1
            assert sampler.running
        finally:
            sampler.stop()
        assert not sampler.running

    def test_stop_takes_final_sample(self):
        sampler = ResourceSampler(interval=60.0)
        sampler.start()
        seen = sampler.samples
        sampler.stop()
        assert sampler.samples > seen

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            ResourceSampler(interval=0.0)

    def test_start_is_idempotent(self):
        sampler = start_resource_sampling(interval=60.0)
        assert start_resource_sampling(interval=60.0) is sampler
        stop_resource_sampling()


class TestSpanWatermarks:
    def test_span_gains_peak_rss_attr(self):
        with resource_sampling(interval=60.0):
            with span("stage", design="sb1"):
                pass
        (document,) = drain_spans()
        assert document["attrs"]["design"] == "sb1"
        assert document["attrs"]["peak_rss_bytes"] > 0

    def test_nested_spans_each_get_watermarks(self):
        with resource_sampling(interval=60.0):
            with span("outer"):
                with span("inner"):
                    pass
        (outer,) = drain_spans()
        (inner,) = outer["children"]
        assert outer["attrs"]["peak_rss_bytes"] >= inner["attrs"]["peak_rss_bytes"]

    def test_no_watermark_without_sampling(self):
        with span("plain"):
            pass
        (document,) = drain_spans()
        assert "peak_rss_bytes" not in document["attrs"]

    def test_hook_uninstalled_after_context(self):
        with resource_sampling(interval=60.0):
            pass
        with span("after"):
            pass
        (document,) = drain_spans()
        assert "peak_rss_bytes" not in document["attrs"]


class TestConfigTransport:
    def test_config_none_when_not_sampling(self):
        assert resource_config() is None

    def test_config_carries_interval(self):
        with resource_sampling(interval=0.25):
            assert resource_config() == {"interval": 0.25}
        assert resource_config() is None

    def test_default_interval(self):
        with resource_sampling() as sampler:
            assert sampler.interval == DEFAULT_INTERVAL_S


class TestResourcesSnapshot:
    def test_snapshot_shape(self):
        with resource_sampling(interval=60.0):
            snapshot = resources_snapshot()
        assert snapshot["rss_bytes"] > 0
        assert snapshot["peak_rss_bytes"] >= snapshot["rss_bytes"] or (
            snapshot["peak_rss_bytes"] > 0
        )
        assert snapshot["cpu_seconds"] >= 0
        assert snapshot["samples"] >= 1
        assert snapshot["interval_s"] == 60.0
        assert snapshot["source"] in ("procfs", "getrusage")

    def test_snapshot_after_stop_keeps_sampler_metadata(self):
        with resource_sampling(interval=60.0):
            pass
        snapshot = resources_snapshot()
        assert snapshot["samples"] >= 2  # start + final stop sample
        assert snapshot["interval_s"] == 60.0

    def test_snapshot_prefers_merged_pool_peak(self):
        from repro.obs.metrics import gauge

        update_resource_gauges()
        # Simulate a pool merge that raised the gauge's max watermark
        # above anything this process will ever read.
        huge = 1 << 50
        gauge("process_peak_rss_bytes").set(huge)
        snapshot = resources_snapshot()
        assert snapshot["peak_rss_bytes"] == float(huge)

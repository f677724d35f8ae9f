"""Resource telemetry: RSS/CPU gauges and per-span peak-RSS watermarks.

ROADMAP's paper-scale target ("a full LOOCV run on a 1M-cell-class
config with bounded RSS") is unfalsifiable without memory telemetry;
this module is the measurement side of that contract, stdlib-only:

* :func:`read_rss_bytes` preads ``/proc/self/statm`` through a
  descriptor held per process and :func:`read_peak_rss_bytes` parses
  ``VmHWM`` from ``/proc/self/status``, both falling back to
  ``resource.getrusage`` where procfs is unavailable;
* :class:`ResourceSampler` is a background daemon thread feeding the
  ``process_rss_bytes`` / ``process_peak_rss_bytes`` /
  ``process_cpu_seconds`` gauges (:mod:`repro.obs.metrics`) on a fixed
  interval, so manifests and ``GET /metrics`` carry live footprints;
* a span resource hook (installed into :mod:`repro.obs.trace`) opens a
  watermark window per span and attaches the peak RSS observed during
  the span's lifetime as a ``peak_rss_bytes`` attribute -- every
  ``run_all -> experiment -> loo -> fold -> train/evaluate`` node in a
  manifest names the stage's memory high-water mark;
* :func:`resource_config` / :func:`apply_resource_config` travel in
  the ``runtime.pool`` task payload (like the logging config) so
  workers sample themselves and their gauges ride the existing
  snapshot/merge transport -- merged by element-wise max, a
  ``--jobs N`` run reports the same peak attribution as serial.

Like everything in ``repro.obs``, none of this touches report bytes:
gauges live in the registry, watermarks in span attributes, and both
only ever surface through manifests, ``/metrics``, and stderr.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

from .metrics import gauge
from .trace import ResourceHook, set_resource_hook

try:  # pragma: no cover - resource is present on every POSIX build
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None  # type: ignore[assignment]

#: Default gauge sampling period (seconds): frequent enough to catch
#: featurization peaks, cheap enough to be always-on (one procfs read).
DEFAULT_INTERVAL_S = 0.05

_PROC_STATUS = "/proc/self/status"
_PROC_STATM = "/proc/self/statm"

#: ``(pid, descriptor)`` of this process's ``/proc/self/statm`` (``None``
#: off procfs).  A forked child inherits its parent's descriptor, which
#: reads the *parent's* file, so a pid change opens a fresh one.  Threads
#: racing on that open each get a correct descriptor; one is left open.
_statm: tuple[int, int | None] = (-1, None)


def _statm_rss_bytes() -> int | None:
    """Resident bytes from ``/proc/self/statm``, or ``None`` off procfs."""
    global _statm
    pid, fd = _statm
    if pid != os.getpid():
        try:
            fd = os.open(_PROC_STATM, os.O_RDONLY | os.O_CLOEXEC)
        except OSError:
            fd = None
        _statm = (os.getpid(), fd)
    if fd is None:
        return None
    try:
        pages = int(os.pread(fd, 256, 0).split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE")


def _proc_status_kb(fields: tuple[str, ...]) -> dict[str, int] | None:
    """The requested ``Vm*`` fields of ``/proc/self/status``, in bytes.

    Returns ``None`` when procfs is unavailable (macOS, sandboxes) or
    carries none of the fields; the caller falls back to ``getrusage``.
    """
    try:
        with open(_PROC_STATUS, "rb") as handle:
            text = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    values: dict[str, int] = {}
    for line in text.splitlines():
        label, _, rest = line.partition(":")
        if label in fields:
            parts = rest.split()
            try:
                values[label] = int(parts[0]) * 1024  # reported in kB
            except (IndexError, ValueError):
                continue
    return values or None


def _rusage_peak_bytes() -> int:
    """Peak RSS from ``getrusage`` (kB on Linux, bytes on macOS)."""
    if _resource is None:  # pragma: no cover - non-POSIX
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def read_rss_bytes() -> int:
    """Current resident set size in bytes (0 when unmeasurable).

    The ``getrusage`` fallback only exposes the *peak*, so off-procfs
    platforms report the high-water mark as the current value -- an
    over-estimate, never an under-estimate, which keeps "bounded RSS"
    claims conservative.
    """
    rss = _statm_rss_bytes()
    return rss if rss is not None else _rusage_peak_bytes()


def read_peak_rss_bytes() -> int:
    """Lifetime peak resident set size in bytes (``VmHWM``)."""
    values = _proc_status_kb(("VmHWM",))
    if values:
        return values["VmHWM"]
    return _rusage_peak_bytes()


def read_cpu_seconds() -> float:
    """Process CPU time (user + system) in seconds."""
    if _resource is None:  # pragma: no cover - non-POSIX
        return time.process_time()
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    return float(usage.ru_utime + usage.ru_stime)


def telemetry_source() -> str:
    """Where readings come from: ``procfs`` or ``getrusage``."""
    return "procfs" if _statm_rss_bytes() is not None else "getrusage"


class _PeakTracker:
    """Open watermark windows over the RSS sample stream.

    One window per open span: ``open`` seeds it with the current
    reading, every sampler tick ``observe``\\ s all open windows, and
    ``close`` returns the window's peak.  The window count equals the
    live span depth across threads, so the dict stays tiny.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._windows: dict[int, int] = {}
        self._next = 0

    def open(self, rss: int) -> int:
        with self._lock:
            token = self._next
            self._next += 1
            self._windows[token] = rss
            return token

    def observe(self, rss: int) -> None:
        with self._lock:
            for token, peak in self._windows.items():
                if rss > peak:
                    self._windows[token] = rss

    def close(self, token: int, rss: int) -> int:
        with self._lock:
            return max(self._windows.pop(token, 0), rss)


class _SpanResourceHook(ResourceHook):
    """Attach ``peak_rss_bytes`` to every closing span.

    Samples at the span boundaries itself, so spans get a meaningful
    watermark even when the background sampler is not running (short
    spans between two ticks); with the sampler running, mid-span peaks
    land too.
    """

    def __init__(self, tracker: _PeakTracker) -> None:
        self._tracker = tracker

    def open_span(self) -> int:
        return self._tracker.open(read_rss_bytes())

    def close_span(self, token: Any) -> dict[str, Any]:
        peak = self._tracker.close(token, read_rss_bytes())
        return {"peak_rss_bytes": peak} if peak > 0 else {}


class ResourceSampler:
    """Background daemon thread feeding the ``process_*`` gauges."""

    def __init__(self, interval: float = DEFAULT_INTERVAL_S) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "ResourceSampler":
        """Take one sample immediately, then sample on a daemon thread."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self.sample_once()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def sample_once(self) -> dict[str, float]:
        """One reading: update gauges and open span watermark windows."""
        readings = update_resource_gauges()
        self.samples += 1
        return readings

    def stop(self) -> None:
        """Stop the thread (final sample included so gauges are fresh)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self.sample_once()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()


# Process-wide singletons.  Re-initialized after fork (see
# apply_resource_config): a forked worker inherits this module state but
# not the sampler thread, and must not share watermark windows with its
# parent's open spans.  ``_last_sampler`` survives a stop so a manifest
# built after the run can still report how many samples were taken.
_tracker = _PeakTracker()
_sampler: ResourceSampler | None = None
_last_sampler: ResourceSampler | None = None
_owner_pid: int | None = None


def update_resource_gauges() -> dict[str, float]:
    """Sample once into the gauges; returns the readings taken."""
    rss = read_rss_bytes()
    peak = read_peak_rss_bytes()
    cpu = read_cpu_seconds()
    gauge("process_rss_bytes").set(rss)
    gauge("process_peak_rss_bytes").set(peak)
    gauge("process_cpu_seconds").set(cpu)
    _tracker.observe(rss)
    return {
        "rss_bytes": float(rss),
        "peak_rss_bytes": float(peak),
        "cpu_seconds": cpu,
    }


def start_resource_sampling(
    interval: float = DEFAULT_INTERVAL_S,
) -> ResourceSampler:
    """Install the span hook and start (or reuse) the gauge sampler.

    Idempotent per process; after a ``fork`` the dead inherited sampler
    is replaced by a live one and the watermark windows are reset (the
    parent's open spans do not belong to the child).
    """
    global _sampler, _last_sampler, _tracker, _owner_pid
    pid = os.getpid()
    if _owner_pid != pid:
        _tracker = _PeakTracker()
        _sampler = None
        _last_sampler = None
        _owner_pid = pid
    set_resource_hook(_SpanResourceHook(_tracker))
    if _sampler is None or not _sampler.running:
        _sampler = ResourceSampler(interval)
        _sampler.start()
    _last_sampler = _sampler
    return _sampler


def stop_resource_sampling() -> None:
    """Stop the sampler and remove the span hook (tests, shutdown).

    The stopped sampler stays reachable as metadata: a manifest built
    after the run still reports its sample count and interval through
    :func:`resources_snapshot`.
    """
    global _sampler
    if _sampler is not None and _owner_pid == os.getpid():
        _sampler.stop()
    _sampler = None
    set_resource_hook(None)


@contextmanager
def resource_sampling(
    interval: float = DEFAULT_INTERVAL_S,
) -> Iterator[ResourceSampler]:
    """Sampler + span hook for the duration of a block."""
    sampler = start_resource_sampling(interval)
    try:
        yield sampler
    finally:
        stop_resource_sampling()


def resource_config() -> dict[str, Any] | None:
    """This process's sampling config, for the pool task payload."""
    if _sampler is None or _owner_pid != os.getpid():
        return None
    return {"interval": _sampler.interval}


def apply_resource_config(config: dict[str, Any] | None) -> None:
    """Adopt the parent's sampling config inside a pool worker.

    ``None`` (parent not sampling) leaves the worker untouched;
    otherwise the worker starts its own sampler so its gauges and span
    watermarks describe *its* address space, shipped back through the
    metrics delta and merged by max in the parent.
    """
    if not config:
        return
    start_resource_sampling(float(config.get("interval", DEFAULT_INTERVAL_S)))


def resources_snapshot() -> dict[str, Any]:
    """The manifest ``resources`` section: readings + sampler metadata."""
    readings = update_resource_gauges()
    peak_gauge = gauge("process_peak_rss_bytes").snapshot()["max"]
    if peak_gauge is not None:
        # The gauge's watermark may exceed our own reading: pool-worker
        # peaks were merged into it by max.
        readings["peak_rss_bytes"] = max(
            readings["peak_rss_bytes"], float(peak_gauge)
        )
    sampler = _sampler or _last_sampler
    return {
        **{key: value for key, value in sorted(readings.items())},
        "samples": sampler.samples if sampler is not None else 1,
        "interval_s": sampler.interval if sampler is not None else None,
        "source": telemetry_source(),
    }

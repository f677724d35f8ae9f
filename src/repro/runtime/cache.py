"""On-disk memoization of fitted models.

Fitting the attack classifier is the costly part of every
train-then-evaluate step, and the very same model is refit by every
table/figure that shares a (configuration, training views, sampling
decisions, seed) combination -- within one ``run_all`` invocation and
across invocations.  :class:`FeatureCache` stores each fitted model's
inference state as one ``.model`` entry keyed by a content hash of all of
those inputs *plus* a fingerprint of the featurization, sampling,
training-driver and classifier source code, so a code change silently
invalidates every stale entry.  Fitted models are the only entry kind:
training sets and candidate matrices are cheaper to rebuild than to
store and replay, so they are never cached.

Writes go through a temp file + ``os.replace`` so concurrent pool
workers (or concurrent CLI runs) can never observe a half-written
entry; two workers racing on the same key write the same model (the
entries differ only in the fit time they record, and either is a true
measurement), so last-write-wins is harmless.

The cache directory defaults to ``~/.cache/repro-splitmfg/features``
and is overridden by the ``REPRO_CACHE_DIR`` environment variable or
``--cache-dir`` on the CLIs.  Library calls never touch the disk unless
a cache is passed explicitly or installed with
:func:`set_default_cache` (the CLIs do the latter; ``--no-cache``
opts out).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..obs.logging import get_logger
from ..obs.metrics import counter, get_registry
from . import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..splitmfg.split import SplitView

logger = get_logger("runtime.cache")

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Sidecar file (inside the cache root) accumulating lifetime stats.
STATS_FILE = "stats.json"

#: Subdirectory corrupt entries are moved into (never globbed as entries).
QUARANTINE_DIR = "quarantine"

#: Counter names tracked per cache event; registry metrics are
#: ``cache_<name>`` and the sidecar/``stats()`` documents use the bare
#: names.
CACHE_COUNTERS = (
    "hits",
    "misses",
    "puts",
    "put_rejected",
    "evicted",
    "corrupt_entries",
    "hit_bytes",
    "put_bytes",
)

#: Entries whose arrays exceed this many bytes are not written (fitted
#: models stay far below it; the cap only guards pathological blowups).
MAX_ENTRY_BYTES = 256 * 1024 * 1024


def _aligned(offset: int) -> int:
    """``offset`` rounded up to the 64-byte boundary arrays start on."""
    return -(-offset // 64) * 64


def _encode(arrays: dict[str, np.ndarray]) -> bytearray | None:
    """One entry's bytes, or ``None`` when a dtype has no raw form.

    Layout: the CRC32 of the rest of the file and the header length (4
    bytes each, little-endian), a JSON header of ``[name, dtype.str,
    shape, offset, nbytes]`` rows, then each array's C-order bytes at
    its 64-byte aligned ``offset`` past the header.
    """
    arrays = {name: np.asarray(array) for name, array in arrays.items()}
    rows, end = [], 0
    for name, array in arrays.items():
        dtype, offset = array.dtype, _aligned(end)
        if dtype.hasobject or np.dtype(dtype.str) != dtype:
            return None  # objects and structured dtypes
        rows.append([name, dtype.str, array.shape, offset, array.nbytes])
        end = offset + array.nbytes
    header = json.dumps(rows).encode()
    base = _aligned(8 + len(header))
    buffer = bytearray(base + end)
    buffer[4 : 8 + len(header)] = len(header).to_bytes(4, "little") + header
    for (_, _, _, offset, nbytes), array in zip(rows, arrays.values()):
        buffer[base + offset : base + offset + nbytes] = array.tobytes()
    buffer[:4] = zlib.crc32(memoryview(buffer)[4:]).to_bytes(4, "little")
    return buffer


def _decode(buffer: bytearray) -> dict[str, np.ndarray]:
    """Writable, aligned views into ``buffer``; raises on a corrupt entry."""
    stored = int.from_bytes(buffer[:4], "little")
    if len(buffer) < 8 or zlib.crc32(memoryview(buffer)[4:]) != stored:
        raise ValueError("entry checksum mismatch")
    length = int.from_bytes(buffer[4:8], "little")
    base = _aligned(8 + length)
    rows = json.loads(buffer[8 : 8 + length].decode())
    return {
        name: np.ndarray(shape, dtype, buffer, base + offset)
        for name, dtype, shape, offset, _ in rows
    }


def _quarantine(path: Path) -> bool:
    """Move a corrupt file out of the entry namespace (self-heal).

    A truncated or garbled entry (torn write, checksum mismatch, disk
    corruption) is a *miss*, not an error: the caller recomputes and the
    fresh put replaces it.  The corrupt bytes are preserved under
    ``quarantine/`` for post-mortems rather than deleted -- and
    crucially they stop matching the ``*.model`` entry glob, so one bad
    file cannot fail every later lookup of its key.  Returns ``False``
    when a racing worker already healed it.
    """
    quarantine = path.parent / QUARANTINE_DIR
    try:
        quarantine.mkdir(exist_ok=True)
        os.replace(path, quarantine / path.name)
    except OSError:
        try:
            path.unlink()
        except OSError:
            return False
    logger.warning("quarantined corrupt cache file %s", path)
    return True


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-splitmfg/features``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-splitmfg" / "features"


_fingerprint: str | None = None


def code_fingerprint() -> str:
    """Digest of the sources that determine cached entry contents.

    Covers pair featurization, sample generation, the training driver
    (backend parameter forwarding, the sampling/model seed split and the
    "Y" limit), every classifier a cached model may hold (the
    tree-training engine, the ensembles, the alternative classifiers)
    and the backend layer, whose ``to_state``/``from_state`` decide what
    a cached model holds (a hit skips past model fitting, so fit-path and
    serialization edits must also invalidate); any edit to these
    modules changes every cache key, which is the invalidation story.
    """
    global _fingerprint
    if _fingerprint is None:
        from ..attack import framework
        from ..ml import (
            backends,
            bagging,
            fit_engine,
            forest,
            knn,
            logistic,
            mlp,
            tree,
        )
        from ..splitmfg import featurize_engine, pair_features, sampling

        digest = hashlib.sha256()
        for module in (
            pair_features,
            featurize_engine,
            sampling,
            tree,
            fit_engine,
            bagging,
            forest,
            knn,
            logistic,
            mlp,
            backends,
            framework,
        ):
            digest.update(inspect.getsource(module).encode())
        _fingerprint = digest.hexdigest()[:16]
    return _fingerprint


def _update_digest(digest: "hashlib._Hash", part: Any) -> None:
    """Feed one key part into the digest with an unambiguous encoding."""
    if part is None:
        digest.update(b"\x00N")
    elif isinstance(part, bool):
        digest.update(b"\x00B" + (b"1" if part else b"0"))
    elif isinstance(part, int):
        digest.update(b"\x00I" + str(part).encode())
    elif isinstance(part, float):
        digest.update(b"\x00F" + part.hex().encode())
    elif isinstance(part, str):
        digest.update(b"\x00S" + part.encode())
    elif isinstance(part, np.ndarray):
        digest.update(
            b"\x00A" + str(part.dtype).encode() + str(part.shape).encode()
        )
        digest.update(np.ascontiguousarray(part).tobytes())
    elif isinstance(part, (tuple, list)):
        digest.update(b"\x00L" + str(len(part)).encode())
        for item in part:
            _update_digest(digest, item)
    else:
        raise TypeError(f"unhashable cache key part: {type(part).__name__}")


def hash_key(*parts: Any) -> str:
    """Stable hex key from heterogeneous parts (ints, floats, arrays...)."""
    digest = hashlib.sha256()
    for part in parts:
        _update_digest(digest, part)
    return digest.hexdigest()


def view_content_hash(view: "SplitView") -> str:
    """Content hash of a split view (geometry, features, ground truth).

    Memoized on the view instance; ``SplitView.invalidate_cache`` drops
    it alongside the column arrays after in-place edits.
    """
    cached = getattr(view, "_content_hash", None)
    if cached is not None:
        return cached
    arr = view.arrays()
    pairs = view.match_pairs()
    pair_array = (
        np.array(pairs, dtype=np.int64)
        if pairs
        else np.zeros((0, 2), dtype=np.int64)
    )
    digest = hash_key(
        "split-view",
        view.design_name,
        int(view.split_layer),
        float(view.die_width),
        float(view.die_height),
        int(view.num_via_layers),
        view.top_metal_direction,
        sorted(arr),
        [arr[name] for name in sorted(arr)],
        pair_array,
    )
    try:
        view._content_hash = digest
    except AttributeError:  # exotic view stand-ins in tests
        pass
    return digest


class FeatureCache:
    """Directory of ``<key>.model`` entries holding fitted-model arrays.

    Every hit/miss/put/eviction increments both an instance attribute
    (``cache.hits`` etc.) and a process-wide ``cache_*`` counter in the
    :mod:`repro.obs.metrics` registry; pool workers' counts flow back
    to the parent through ``parallel_map``'s delta merging, and
    :func:`flush_cache_stats` folds the process totals into a sidecar
    file so ``repro cache stats`` sees the lifetime trajectory.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.put_rejected = 0
        self.evicted = 0
        self.corrupt_entries = 0
        self.hit_bytes = 0
        self.put_bytes = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.model"

    def _count(self, name: str, amount: int = 1) -> None:
        setattr(self, name, getattr(self, name) + amount)
        counter(f"cache_{name}").inc(amount)

    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """The stored arrays for ``key``, or ``None`` on a miss.

        A corrupt entry is quarantined and treated as a miss (counted in
        ``cache_corrupt_entries``), so a torn write never raises into
        the experiment that merely tried to reuse it.
        """
        path = self._path(key)
        try:
            with open(path, "rb", buffering=0) as handle:
                buffer = bytearray(os.fstat(handle.fileno()).st_size)
                handle.readinto(buffer)  # a short read fails the CRC
            arrays = _decode(buffer)
        except (OSError, ValueError, TypeError):
            if path.exists() and _quarantine(path):
                self._count("corrupt_entries")
            self._count("misses")
            return None
        self._count("hits")
        self._count(
            "hit_bytes", sum(array.nbytes for array in arrays.values())
        )
        return arrays

    def put(self, key: str, arrays: dict[str, np.ndarray]) -> bool:
        """Atomically store ``arrays``; returns whether it was written."""
        total = sum(np.asarray(a).nbytes for a in arrays.values())
        buffer = _encode(arrays) if total <= MAX_ENTRY_BYTES else None
        if buffer is None:
            self._count("put_rejected")
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".model"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(buffer)
            # Chaos hook: a matching REPRO_FAULT_PLAN torn_write rule
            # truncates the bytes here, publishing exactly the torn
            # entry a crash mid-write would leave for get() to heal.
            faults.maybe_tear_write(temp_name, key=key)
            os.replace(temp_name, self._path(key))
        except OSError:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            self._count("put_rejected")
            return False
        self._count("puts")
        self._count("put_bytes", total)
        return True

    def chunk_key(self, key: str, index: int) -> str:
        """Entry key of chunk ``index`` of the chunk-addressed family ``key``.

        Nothing in the pipeline stores chunked entries any more.  The
        three chunk methods remain only because the end-to-end
        benchmark's tracer pins ``get_chunk``/``put_chunk`` as targets
        (``benchmarks/e2e/layers.py``); they go once the benchmark
        unpins them.
        """
        return f"{key}-chunk{index:06d}"

    def put_chunk(
        self, key: str, index: int, arrays: dict[str, np.ndarray]
    ) -> bool:
        """Store one chunk of a chunk-addressed entry family."""
        return self.put(self.chunk_key(key, index), arrays)

    def get_chunk(self, key: str, index: int) -> dict[str, np.ndarray] | None:
        """Load one chunk of a chunk-addressed entry family."""
        return self.get(self.chunk_key(key, index))

    def entries(self) -> list[Path]:
        """All entry files currently in the cache directory."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.model"))

    def __len__(self) -> int:
        return len(self.entries())

    def total_bytes(self) -> int:
        """Disk footprint of all entries."""
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if removed:
            self._count("evicted", removed)
        return removed

    def stats(self) -> dict[str, Any]:
        """Live statistics: directory footprint plus process counters.

        The counter values come from the process-wide registry (so they
        include merged pool-worker activity), which conflates multiple
        cache directories used in one process -- in practice the CLIs
        install exactly one.
        """
        snapshot = get_registry().snapshot()["counters"]
        document: dict[str, Any] = {
            "dir": str(self.root),
            "entries": len(self.entries()),
            "total_bytes": self.total_bytes(),
        }
        for name in CACHE_COUNTERS:
            document[name] = snapshot.get(f"cache_{name}", 0)
        return document

    def persisted_stats(self) -> dict[str, int]:
        """Lifetime counters accumulated in the sidecar file."""
        return _read_sidecar(self.root)


def _read_sidecar(root: Path) -> dict[str, int]:
    """The sidecar totals (zeros when absent or unreadable).

    A corrupt sidecar (torn write) self-heals the same way a corrupt
    entry does: it is quarantined, counted in ``cache_corrupt_entries``,
    and the totals restart from zero -- the sidecar is advisory
    bookkeeping, so losing it must never fail a run.
    """
    totals = {name: 0 for name in CACHE_COUNTERS}
    path = Path(root) / STATS_FILE
    try:
        with open(path) as handle:
            stored = json.load(handle)
        if not isinstance(stored, dict):
            raise ValueError("sidecar is not a JSON object")
    except OSError:
        return totals
    except ValueError:
        _quarantine(path)
        counter("cache_corrupt_entries").inc()
        return totals
    for name in CACHE_COUNTERS:
        try:
            totals[name] = int(stored.get(name, 0))
        except (TypeError, ValueError):
            pass
    return totals


#: Registry counter values already flushed to a sidecar by this process.
_flush_baseline: dict[str, int] = {}


def flush_cache_stats(cache: FeatureCache) -> dict[str, int]:
    """Fold this process's un-flushed cache counters into the sidecar.

    Returns the updated lifetime totals.  Uses the registry counters
    (which include merged pool-worker deltas) against a module-level
    baseline, so calling it repeatedly never double-counts.  Concurrent
    CLI invocations race on read-modify-write and may lose each other's
    increment -- the sidecar is advisory bookkeeping, not a ledger.
    """
    snapshot = get_registry().snapshot()["counters"]
    current = {
        name: snapshot.get(f"cache_{name}", 0) for name in CACHE_COUNTERS
    }
    delta = {
        name: current[name] - _flush_baseline.get(name, 0)
        for name in CACHE_COUNTERS
    }
    _flush_baseline.update(current)
    totals = _read_sidecar(cache.root)
    for name in CACHE_COUNTERS:
        totals[name] += delta[name]
    if any(delta.values()) or not (cache.root / STATS_FILE).exists():
        try:
            cache.root.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(
                dir=cache.root, prefix=".tmp-", suffix=".stats"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(totals, handle)
            os.replace(temp_name, cache.root / STATS_FILE)
        except OSError:
            pass
    return totals


_default_cache: FeatureCache | None = None


def set_default_cache(cache: FeatureCache | str | Path | None) -> None:
    """Install (or clear, with ``None``) the process-wide default cache."""
    global _default_cache
    if cache is not None and not isinstance(cache, FeatureCache):
        cache = FeatureCache(cache)
    _default_cache = cache


def get_default_cache() -> FeatureCache | None:
    """The process-wide default cache, if one was installed."""
    return _default_cache

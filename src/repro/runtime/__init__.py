"""Execution layer: process pools, deterministic seeding, feature cache.

``repro.runtime`` is the home of everything that decides *how* the
attack pipeline runs, as opposed to *what* it computes:

* :mod:`repro.runtime.pool` -- :func:`parallel_map` fans work out over a
  ``ProcessPoolExecutor`` (``--jobs N`` on the CLIs) while preserving
  input order, so parallel output is indistinguishable from serial;
* :mod:`repro.runtime.seeding` -- :func:`spawn_seeds` derives per-fold
  RNG seeds with ``np.random.SeedSequence.spawn``; derivation depends
  only on ``(root seed, fold index)``, never on execution order, which
  is what makes ``--jobs N`` bit-identical to ``--jobs 1``;
* :mod:`repro.runtime.cache` -- :class:`FeatureCache` memoizes fitted
  models on disk, keyed by a content hash of (configuration, training
  views, neighborhood, alignment, seed) plus a fingerprint of the
  featurization, sampling, training and classifier code, so stale
  entries self-invalidate when that code changes.
"""

from .cache import (
    FeatureCache,
    code_fingerprint,
    default_cache_dir,
    flush_cache_stats,
    get_default_cache,
    hash_key,
    set_default_cache,
    view_content_hash,
)
from .checkpoint import CheckpointStore, run_key
from .faults import FaultPlan, FaultPlanError, InjectedFault
from .pool import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    parallel_map,
    resolve_jobs,
)
from .seeding import spawn_seeds, spawn_seedsequences
from .shared import SharedArray, release_arrays, share_arrays

__all__ = [
    "CheckpointStore",
    "DEFAULT_RETRY_POLICY",
    "FaultPlan",
    "FaultPlanError",
    "FeatureCache",
    "InjectedFault",
    "RetryPolicy",
    "SharedArray",
    "code_fingerprint",
    "default_cache_dir",
    "flush_cache_stats",
    "get_default_cache",
    "hash_key",
    "parallel_map",
    "release_arrays",
    "resolve_jobs",
    "run_key",
    "set_default_cache",
    "share_arrays",
    "spawn_seeds",
    "spawn_seedsequences",
    "view_content_hash",
]

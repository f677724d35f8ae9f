"""Model artifacts, registry, and attack-inference serving.

The paper's pipeline is train-once / infer-many: the classifier is fit on
N-1 designs and then scores millions of candidate pairs on the target
design (Section III-F, Table IV).  This package gives that shape a
production surface:

* :mod:`repro.serve.engine`    -- stacked-tree batched inference: every
  tree of an ensemble is flattened into one contiguous node table and
  candidate-pair matrices are scored in bounded-memory chunks (through a
  small compiled kernel when a C compiler is available, with a pure-NumPy
  fallback), bit-identical to the per-estimator loop it replaces;
* :mod:`repro.serve.artifacts` -- versioned, checksummed serialization of
  any fitted classifier backend: its ``to_state()`` arrays and params in
  a compact ``.npz`` + JSON bundle (see ``ARTIFACTS.md``);
* :mod:`repro.serve.registry`  -- a directory-backed model store with
  ``save``/``load``/``list``/``latest``, write-once model ids and
  integrity checks on load;
* :mod:`repro.serve.service`   -- :class:`AttackService`: accept a public
  challenge document, recompute pair features, score with a registry
  model, return LoCs / top-K candidates;
* :mod:`repro.serve.http`      -- the same service over a stdlib
  ``ThreadingHTTPServer`` JSON API: each connection's handler thread
  scores inline, behind a stalled-client watchdog;
* :mod:`repro.serve.batcher`   -- a standalone micro-batching queue that
  merges concurrent scoring calls into single kernel batches
  (bit-identical per-call results); the HTTP path does not use it.

CLI: ``python -m repro train-model / predict / serve / models``.
"""

from .artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactSchemaError,
    ModelArtifact,
    load_artifact,
)
from .batcher import BatcherClosedError, MicroBatcher
from .engine import StackedEnsemble
from .http import AttackHTTPServer, make_server
from .registry import ModelNotFoundError, ModelRegistry, RegistryEntry
from .service import AttackService, package_trained_attack, train_model

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactError",
    "ArtifactIntegrityError",
    "ArtifactSchemaError",
    "AttackHTTPServer",
    "AttackService",
    "BatcherClosedError",
    "MicroBatcher",
    "ModelArtifact",
    "ModelNotFoundError",
    "ModelRegistry",
    "RegistryEntry",
    "SUPPORTED_SCHEMA_VERSIONS",
    "StackedEnsemble",
    "load_artifact",
    "make_server",
    "package_trained_attack",
    "train_model",
]

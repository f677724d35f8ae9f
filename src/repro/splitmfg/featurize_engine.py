"""Chunked pair featurization into preallocated buffers: the scoring hot path.

:func:`repro.splitmfg.pair_features.compute_pair_features` builds one
temporary per feature (plus the gathers feeding it) and then copies
everything again through ``np.column_stack`` -- at paper scale (up to
~2e5 v-pins, tens of millions of candidate pairs per design) that is
both the dominant cost of a no-neighborhood scoring pass and an
unbounded source of transient RSS.  This module featurizes ``(i, j)``
chunks **into a caller-provided preallocated buffer** instead, through
one of two engines:

* ``c`` -- a small C kernel compiled on first use through
  :func:`repro._ckernel.load`.  One pass over the pairs: per pair it
  gathers the nine base columns once, evaluates the requested features,
  and writes the row directly into the output buffer -- no per-feature
  temporaries at all.  The paper's legality rule
  (:func:`~repro.splitmfg.pair_features.legal_pair_mask`) folds into the
  same pass: illegal pairs are skipped and surviving rows compacted in
  place.
* ``numpy`` -- used when the kernel did not load: every base column is
  gathered at most once per chunk and each feature is computed with
  ``out=`` ufunc calls straight into the buffer's columns (the buffer
  is allocated feature-major for this engine, so those writes are
  contiguous and the ``column_stack`` copy disappears entirely).

Bit-identity contract
---------------------

Both engines produce feature matrices **bit-identical** to
``compute_pair_features``, the oracle the tests hold them to.  Every
feature is an absolute difference or a left-to-right float64 sum of
gathered column values; C's ``fabs``/ordered ``+`` and NumPy's ufunc
loops perform the same IEEE-754 double operations on the same values
in the same order (the kernel is compiled without ``-ffast-math``, and
no expression here admits an FMA contraction), so the bytes match --
asserted over a feature-set x chunk-size grid in
``tests/splitmfg/test_featurize_engine.py``, and the reason cached
matrices and experiment report hashes do not depend on which engine
ran.

Observability: every chunk increments ``featurize_chunks{engine=...}``
and lands in the ``featurize_rows`` histogram; a featurizer built
without the kernel increments ``featurize_kernel_fallbacks`` (see
OBSERVABILITY.md).
"""

from __future__ import annotations

import ctypes
from typing import Any, Mapping

import numpy as np

from .. import _ckernel
from ..obs.metrics import ROW_COUNT_BUCKETS, counter, histogram
from .pair_features import FEATURES_11

#: The nine v-pin attribute columns every feature is built from, in the
#: order the packed ``(9, n)`` kernel matrix stores them.
BASE_COLUMNS: tuple[str, ...] = (
    "vx",
    "vy",
    "px",
    "py",
    "w",
    "in_area",
    "out_area",
    "pc",
    "rc",
)

#: Feature name -> C kernel feature code (the switch labels below).
FEATURE_CODES: dict[str, int] = {
    name: code for code, name in enumerate(FEATURES_11)
}

_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Featurize candidate pairs (pi[k], pj[k]) into a row-major out buffer.
 *
 * cols is the packed (9, n) base-column matrix in BASE_COLUMNS order;
 * codes selects and orders the features of each output row.  With
 * legal_only != 0 the paper's legality rule (two driver-side v-pins
 * never match) is applied in the same pass: illegal pairs are skipped,
 * surviving rows are compacted, and their indices are recorded in
 * keep_i/keep_j.  Returns the number of rows written.
 *
 * Every feature is a fabs of a difference or a left-to-right sum of
 * two/four gathered doubles -- the exact IEEE operations NumPy's ufunc
 * loops perform in compute_pair_features, so the output bytes match.
 */
int64_t repro_featurize(
    const double *cols, int64_t n,
    const int64_t *pi, const int64_t *pj, int64_t n_pairs,
    const int32_t *codes, int32_t n_feat,
    int32_t legal_only,
    double *out, int64_t *keep_i, int64_t *keep_j)
{
    const double *vx = cols + 0 * n, *vy = cols + 1 * n;
    const double *px = cols + 2 * n, *py = cols + 3 * n;
    const double *w  = cols + 4 * n;
    const double *ia = cols + 5 * n, *oa = cols + 6 * n;
    const double *pc = cols + 7 * n, *rc = cols + 8 * n;
    int64_t rows = 0;
    for (int64_t k = 0; k < n_pairs; k++) {
        const int64_t a = pi[k], b = pj[k];
        if (legal_only && oa[a] > 0.0 && oa[b] > 0.0) continue;
        const double dpx = fabs(px[a] - px[b]);
        const double dpy = fabs(py[a] - py[b]);
        const double dvx = fabs(vx[a] - vx[b]);
        const double dvy = fabs(vy[a] - vy[b]);
        double *row = out + rows * (int64_t)n_feat;
        for (int32_t c = 0; c < n_feat; c++) {
            double v;
            switch (codes[c]) {
            case 0:  v = dpx; break;               /* DiffPinX */
            case 1:  v = dpy; break;               /* DiffPinY */
            case 2:  v = dpx + dpy; break;         /* ManhattanPin */
            case 3:  v = dvx; break;               /* DiffVpinX */
            case 4:  v = dvy; break;               /* DiffVpinY */
            case 5:  v = dvx + dvy; break;         /* ManhattanVpin */
            case 6:  v = w[a] + w[b]; break;       /* TotalWirelength */
            case 7:  v = ((ia[a] + ia[b]) + oa[a]) + oa[b]; break;
            case 8:  v = (oa[a] + oa[b]) - (ia[a] + ia[b]); break;
            case 9:  v = pc[a] + pc[b]; break;     /* PlacementCongestion */
            default: v = rc[a] + rc[b]; break;     /* RoutingCongestion */
            }
            row[c] = v;
        }
        if (legal_only) { keep_i[rows] = a; keep_j[rows] = b; }
        rows++;
    }
    return rows;
}
"""

_I64 = ctypes.c_int64
_I32 = ctypes.c_int32
_PTR = ctypes.c_void_p
_SIGNATURES = {
    "repro_featurize": (
        [_PTR, _I64, _PTR, _PTR, _I64, _PTR, _I32, _I32, _PTR, _PTR, _PTR],
        _I64,
    ),
}


def _kernel() -> "ctypes.CDLL | None":
    """The compiled featurize kernel, or ``None`` (fused NumPy pass)."""
    return _ckernel.load("featurize", _KERNEL_SOURCE, _SIGNATURES)


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _as_index(indices: np.ndarray) -> np.ndarray:
    """Contiguous int64 view/copy of a pair-index array."""
    return np.ascontiguousarray(indices, dtype=np.int64)


class PairFeaturizer:
    """Featurize ``(i, j)`` chunks of one view into a reusable buffer.

    Construct once per (view, feature set), allocate one buffer with
    :meth:`out_buffer`, then stream chunks through :meth:`rows_into` /
    :meth:`legal_rows_into`: peak memory is the buffer plus the base
    columns, independent of how many chunks flow through.  The returned
    row block is a *view into the buffer* -- consume it (score it, copy
    it) before the next call.

    ``view`` may be a :class:`~repro.splitmfg.split.SplitView` or any
    mapping providing the nine ``BASE_COLUMNS`` arrays -- the latter is
    how pool workers featurize straight out of shared memory
    (:class:`repro.runtime.SharedArray`) without rebuilding v-pin
    objects.
    """

    def __init__(
        self,
        view: Any,
        features: tuple[str, ...] = FEATURES_11,
    ) -> None:
        self.features = tuple(features)
        if len(set(self.features)) != len(self.features):
            raise ValueError("duplicate feature names")
        unknown = [f for f in self.features if f not in FEATURE_CODES]
        if unknown:
            raise ValueError(f"unknown features: {unknown}")
        if not self.features:
            raise ValueError("need at least one feature")
        self._kernel = _kernel()
        self.engine = "numpy" if self._kernel is None else "c"
        if self._kernel is None:
            counter("featurize_kernel_fallbacks").inc()
        arrays: Mapping[str, np.ndarray] = (
            view.arrays() if hasattr(view, "arrays") else view
        )
        #: The nine base columns, contiguous float64, by name.
        self.columns = {
            name: np.ascontiguousarray(arrays[name], dtype=np.float64)
            for name in BASE_COLUMNS
        }
        self.n = len(self.columns["vx"])
        self._codes = np.array(
            [FEATURE_CODES[name] for name in self.features], dtype=np.int32
        )
        self._packed: np.ndarray | None = None
        self._chunks = counter("featurize_chunks", engine=self.engine)
        self._rows_hist = histogram(
            "featurize_rows", buckets=ROW_COUNT_BUCKETS
        )

    @property
    def n_features(self) -> int:
        return len(self.features)

    def _packed_cols(self) -> np.ndarray:
        """The ``(9, n)`` C-contiguous base-column matrix (lazy)."""
        if self._packed is None:
            self._packed = np.ascontiguousarray(
                np.stack([self.columns[name] for name in BASE_COLUMNS])
                if self.n
                else np.zeros((len(BASE_COLUMNS), 0))
            )
        return self._packed

    def out_buffer(self, capacity: int) -> np.ndarray:
        """A ``(capacity, n_features)`` float64 buffer for this engine.

        The C engine writes row-major (each pair's row is contiguous, as
        the classifier chunks want it); the fused NumPy engine gets a
        feature-major layout (``np.empty((F, cap)).T``) so its
        per-feature ``out=`` writes are contiguous.  Both are valid
        ``(capacity, F)`` arrays; consumers are layout-agnostic.
        """
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if self._kernel is None:
            return np.empty((self.n_features, capacity)).T
        return np.empty((capacity, self.n_features))

    def _check_out(self, out: np.ndarray, needed: int) -> None:
        if out.ndim != 2 or out.shape[1] != self.n_features:
            raise ValueError(
                f"out buffer must be (capacity, {self.n_features}), "
                f"got {out.shape}"
            )
        if out.shape[0] < needed:
            raise ValueError(
                f"out buffer holds {out.shape[0]} rows, chunk needs {needed}"
            )

    def _observe(self, rows: int) -> None:
        self._chunks.inc()
        self._rows_hist.observe(float(rows))

    def rows_into(
        self, i: np.ndarray, j: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Write the feature rows of pairs ``(i[k], j[k])`` into ``out``.

        Returns ``out[:len(i)]`` -- a view, valid until the next call
        reuses the buffer.  Bit-identical to
        ``compute_pair_features(view, i, j, features)``.
        """
        i = _as_index(i)
        j = _as_index(j)
        if len(i) != len(j):
            raise ValueError("i and j disagree on pair count")
        self._check_out(out, len(i))
        if self._kernel is not None:
            self._c_rows(i, j, out, legal_only=False)
        else:
            self._numpy_rows(i, j, out)
        self._observe(len(i))
        return out[: len(i)]

    def legal_rows_into(
        self, i: np.ndarray, j: np.ndarray, out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused legality filter + featurization of one chunk.

        Drops the pairs ``legal_pair_mask`` would drop (two driver-side
        v-pins), featurizes the survivors into ``out``, and returns
        ``(i_kept, j_kept, rows)`` where ``rows`` is the ``out[:m]``
        view.  The kept-index arrays are freshly allocated (they outlive
        the buffer); order is preserved, so the result is identical to
        masking first and featurizing second.
        """
        i = _as_index(i)
        j = _as_index(j)
        if len(i) != len(j):
            raise ValueError("i and j disagree on pair count")
        self._check_out(out, len(i))
        if self._kernel is not None:
            keep_i = np.empty(len(i), dtype=np.int64)
            keep_j = np.empty(len(j), dtype=np.int64)
            rows = self._c_rows(
                i, j, out, legal_only=True, keep_i=keep_i, keep_j=keep_j
            )
            self._observe(rows)
            return keep_i[:rows].copy(), keep_j[:rows].copy(), out[:rows]
        out_area = self.columns["out_area"]
        legal = ~((out_area[i] > 0.0) & (out_area[j] > 0.0))
        i, j = i[legal], j[legal]
        self._numpy_rows(i, j, out)
        self._observe(len(i))
        return i, j, out[: len(i)]

    def rows(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Allocating convenience: a fresh exact-size feature matrix."""
        out = self.out_buffer(len(np.asarray(i)))
        return self.rows_into(i, j, out)

    # -- engine back ends -------------------------------------------------

    def _c_rows(
        self,
        i: np.ndarray,
        j: np.ndarray,
        out: np.ndarray,
        legal_only: bool,
        keep_i: np.ndarray | None = None,
        keep_j: np.ndarray | None = None,
    ) -> int:
        if not out.flags.c_contiguous:
            raise ValueError(
                "the C featurize engine needs a C-contiguous out buffer "
                "(allocate it with out_buffer())"
            )
        rows = self._kernel.repro_featurize(
            _ptr(self._packed_cols()),
            ctypes.c_int64(self.n),
            _ptr(i),
            _ptr(j),
            ctypes.c_int64(len(i)),
            _ptr(self._codes),
            ctypes.c_int32(self.n_features),
            ctypes.c_int32(1 if legal_only else 0),
            _ptr(out),
            _ptr(keep_i) if keep_i is not None else None,
            _ptr(keep_j) if keep_j is not None else None,
        )
        return int(rows)

    def _numpy_rows(
        self, i: np.ndarray, j: np.ndarray, out: np.ndarray
    ) -> None:
        """Fused single-pass fallback: shared gathers, ``out=`` writes.

        Per feature this performs the exact elementwise float64
        operations of ``compute_pair_features`` (same values, same
        left-to-right order), writing results straight into the buffer
        columns; base columns are gathered at most once per chunk and
        the only temporaries are those gathers (plus one scratch column
        when a Manhattan feature appears without its components).
        """
        m = len(i)
        o = out[:m]
        pos = {name: k for k, name in enumerate(self.features)}
        need = set(self.features)
        cols = self.columns

        def dest(name: str) -> np.ndarray:
            k = pos.get(name)
            return o[:, k] if k is not None else np.empty(m)

        dpx = dpy = dvx = dvy = None
        if need & {"DiffPinX", "ManhattanPin"}:
            dpx = dest("DiffPinX")
            np.subtract(cols["px"][i], cols["px"][j], out=dpx)
            np.abs(dpx, out=dpx)
        if need & {"DiffPinY", "ManhattanPin"}:
            dpy = dest("DiffPinY")
            np.subtract(cols["py"][i], cols["py"][j], out=dpy)
            np.abs(dpy, out=dpy)
        if "ManhattanPin" in need:
            np.add(dpx, dpy, out=dest("ManhattanPin"))
        if need & {"DiffVpinX", "ManhattanVpin"}:
            dvx = dest("DiffVpinX")
            np.subtract(cols["vx"][i], cols["vx"][j], out=dvx)
            np.abs(dvx, out=dvx)
        if need & {"DiffVpinY", "ManhattanVpin"}:
            dvy = dest("DiffVpinY")
            np.subtract(cols["vy"][i], cols["vy"][j], out=dvy)
            np.abs(dvy, out=dvy)
        if "ManhattanVpin" in need:
            np.add(dvx, dvy, out=dest("ManhattanVpin"))
        if "TotalWirelength" in need:
            d = dest("TotalWirelength")
            np.add(cols["w"][i], cols["w"][j], out=d)
        if need & {"TotalArea", "DiffArea"}:
            ia_i, ia_j = cols["in_area"][i], cols["in_area"][j]
            oa_i, oa_j = cols["out_area"][i], cols["out_area"][j]
            if "TotalArea" in need:
                d = dest("TotalArea")
                np.add(ia_i, ia_j, out=d)
                np.add(d, oa_i, out=d)
                np.add(d, oa_j, out=d)
            if "DiffArea" in need:
                d = dest("DiffArea")
                np.add(oa_i, oa_j, out=d)
                np.subtract(d, np.add(ia_i, ia_j), out=d)
        if "PlacementCongestion" in need:
            np.add(cols["pc"][i], cols["pc"][j], out=dest("PlacementCongestion"))
        if "RoutingCongestion" in need:
            np.add(cols["rc"][i], cols["rc"][j], out=dest("RoutingCongestion"))

"""Presorted tree-training engine: the fitting hot path.

The straightforward tree grower (kept as the test oracle) re-sorts
every candidate feature column at every node -- an
``O(nodes x F x n log n)`` Python-level loop that dominates the runtime
of every Bagging fit (and therefore every experiment: each LOO fold fits
10 REPTrees).  This module replaces the per-node argsorts with a
*presort-once* scheme:

* each feature column is stably argsorted exactly once at the root;
* node partitions stably split the per-feature sorted index sets by the
  chosen split mask (an ``O(F x n)`` scan), so every node always sees
  its rows in the same order the reference grower would have obtained
  from ``np.argsort(x, kind="stable")`` on its subset.

Two split-search kernels run on top of the presorted orders:

* a small C kernel, compiled on first use through
  :func:`repro._ckernel.load`, which fuses the cumulative class counts,
  candidate enumeration and split scoring into one pass per node;
* a pure-NumPy scan (:func:`_search_numpy`) -- used when the kernel did
  not load, and by the C path for nodes it declares uncertain.

Bit-identity contract
---------------------

Trees grown through this engine are **node-for-node identical** to the
per-node-argsort reference grower kept as the test oracle
(``tests/ml/tree_oracle.py``) -- same feature, threshold and class
counts at every node, ties and duplicated feature values included -- so
which kernel ran never moves a report byte.  The NumPy path achieves
this by performing the exact same float64 operations on the exact same
values in the same order.  The C kernel cannot call NumPy's
``log`` (libm's ``log`` differs from it in the last ulp), so it scores
candidates on an order-equivalent integer-count statistic
``S = -(sum of k*ln(k) terms)`` built from a NumPy-precomputed
``k -> k*ln(k)`` table, and *selects* rather than scores: whenever the
winning margin is within a guard band (``~1e-6`` nats of gain, orders
of magnitude above both kernels' rounding error) -- or the winner sits
within the band of the ``min_gain`` acceptance threshold -- the node is
declared uncertain and re-searched with the NumPy scan.  Exact ties
(mirrored or duplicated count partitions, the common case on real data)
are recognised structurally and resolved first-wins, exactly like the
reference's ``argmax``/strict-``>`` scan.

Every fit counts ``tree_fits{engine=c|numpy}``, labelled with the kernel
that actually ran.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import _ckernel
from ..obs.metrics import counter

_EPS = 1e-12

#: Guard band (in nats of information gain) around split-selection
#: decisions made by the C kernel.  Both kernels' rounding errors are
#: below ~1e-12 nats, so a margin above the band is decided identically
#: by both; anything inside it falls back to the NumPy scan.
UNCERTAIN_GAIN_MARGIN = 1e-6


def _entropy_terms(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Binary entropy (in nats) of count vectors, elementwise."""
    total = pos + neg
    total = np.maximum(total, _EPS)
    p = pos / total
    q = neg / total
    return -(p * np.log(np.maximum(p, _EPS)) + q * np.log(np.maximum(q, _EPS)))


def _entropy_scalar(pos: float, neg: float) -> float:
    """Binary entropy of one count pair, without throwaway arrays.

    Bit-identical to ``_entropy_terms(np.array([pos]), np.array([neg]))[0]``
    (asserted over a count grid in the tests): scalar ``np.log`` runs the
    same ufunc loop as the 1-element array, and the surrounding float64
    arithmetic is the same IEEE operations in the same order.
    """
    total = pos + neg
    if total < _EPS:
        total = _EPS
    p = pos / total
    q = neg / total
    log_p = np.log(p if p > _EPS else _EPS)
    log_q = np.log(q if q > _EPS else _EPS)
    return float(-(p * log_p + q * log_q))


@dataclass
class _Node:
    """Mutable tree node used while growing/pruning."""

    grow_pos: float
    grow_neg: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    prune_pos: float = 0.0
    prune_neg: float = 0.0
    total_pos: float = 0.0
    total_neg: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def majority_positive(self) -> bool:
        return self.grow_pos >= self.grow_neg

    def make_leaf(self) -> None:
        self.feature = -1
        self.left = None
        self.right = None


# -- compiled split-search kernel ---------------------------------------

_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Split search over presorted per-feature index sets.
 *
 * Candidates are scored on S = -(sum of k*ln(k) terms), an affine
 * transform of the reference information gain with positive scale, via
 * the caller-precomputed xlogx table (xlogx[k] = k*ln(k), xlogx[0]=0).
 * Selection mirrors the reference scan: first-wins argmax per feature
 * order, strict > across candidates.  Exact S ties are kept only when
 * the candidate's count partition equals or mirrors the incumbent's
 * (those are exact ties in any IEEE implementation); any other
 * within-band rival makes the node "uncertain" and the caller
 * re-searches it with the NumPy reference scan.
 *
 * Returns 1 = split found, 0 = no admissible split, -1 = uncertain.
 */
int repro_fit_best_split(
    const double *xcols,    /* (n_feat_total, n_total): presorted columns */
    const double *y,        /* (n_total,) 0/1 labels */
    int64_t n_total,
    const int32_t *orders,  /* (n_feat_total, m): node rows, sorted per feature */
    int64_t m,
    const int32_t *feat, int32_t n_feat,
    int64_t min_samples_leaf,
    int64_t total_pos,      /* node positive count (exact) */
    double parent_entropy, double min_gain,
    const double *xlogx,    /* (n_total + 1,) */
    int32_t *out_feature, double *out_threshold)
{
    double s_best = -INFINITY, s_second = -INFINITY;
    double thr_best = 0.0;
    int32_t f_best = -1;
    int64_t L_best = 0, lp_best = 0;
    /* gain <= min_gain  <=>  S <= -m * (parent_entropy - min_gain) */
    const double s_mingain = -((double)m) * (parent_entropy - min_gain);
    const double tol = UNCERTAIN_GAIN_MARGIN * (double)m;

    for (int32_t fi = 0; fi < n_feat; fi++) {
        const int64_t f = (int64_t)feat[fi];
        const int32_t *ord = orders + f * m;
        const double *x = xcols + f * n_total;
        if (x[ord[0]] == x[ord[m - 1]]) continue;  /* constant feature */
        double cum = 0.0;
        for (int64_t i = 0; i + 1 < m; i++) {
            const int32_t r = ord[i];
            cum += y[r];
            const double xi = x[r], xn = x[ord[i + 1]];
            if (!(xi < xn)) continue;
            const int64_t L = i + 1, R = m - L;
            if (L < min_samples_leaf || R < min_samples_leaf) continue;
            const int64_t lp = (int64_t)cum;
            const int64_t ln_ = L - lp;
            const int64_t rp = total_pos - lp;
            const int64_t rn = R - rp;
            const double s = -((xlogx[L] - xlogx[lp] - xlogx[ln_])
                             + (xlogx[R] - xlogx[rp] - xlogx[rn]));
            if (s > s_best) {
                if (s_best > s_second) s_second = s_best;
                s_best = s;
                f_best = (int32_t)f;
                L_best = L;
                lp_best = lp;
                thr_best = (xi + xn) / 2.0;
            } else if (s == s_best && f_best >= 0) {
                const int same = (L == L_best && lp == lp_best);
                const int mirror = (L == m - L_best && lp == total_pos - lp_best);
                if (!same && !mirror) s_second = s;  /* suspicious exact tie */
            } else if (s > s_second) {
                s_second = s;
            }
        }
    }
    if (f_best < 0) return 0;
    if (s_best <= s_mingain)
        return (s_mingain - s_best < tol) ? -1 : 0;
    if (s_best - s_mingain < tol) return -1;
    if (s_best - s_second < tol) return -1;
    *out_feature = f_best;
    *out_threshold = thr_best;
    return 1;
}

/* Stable partition of every feature's sorted index set by the split
 * mask x_split[row] <= threshold -- the presort invariant: each child's
 * per-feature order is exactly the stable argsort of its subset. */
void repro_fit_partition(
    const double *xsplit,   /* (n_total,): column of the split feature */
    double threshold,
    const int32_t *orders,  /* (n_feat_total, m) */
    int64_t m, int32_t n_feat_total,
    int64_t m_left,
    int32_t *left_out,      /* (n_feat_total, m_left) */
    int32_t *right_out)     /* (n_feat_total, m - m_left) */
{
    const int64_t m_right = m - m_left;
    for (int32_t f = 0; f < n_feat_total; f++) {
        const int32_t *ord = orders + (int64_t)f * m;
        int32_t *lo = left_out + (int64_t)f * m_left;
        int32_t *ro = right_out + (int64_t)f * m_right;
        int64_t li = 0, ri = 0;
        for (int64_t i = 0; i < m; i++) {
            const int32_t r = ord[i];
            if (xsplit[r] <= threshold) lo[li++] = r;
            else ro[ri++] = r;
        }
    }
}
""".replace("UNCERTAIN_GAIN_MARGIN", repr(UNCERTAIN_GAIN_MARGIN))

_I64 = ctypes.c_int64
_I32 = ctypes.c_int32
_PTR = ctypes.c_void_p
_SIGNATURES = {
    "repro_fit_best_split": (
        [_PTR, _PTR, _I64, _PTR, _I64, _PTR, _I32, _I64, _I64,
         ctypes.c_double, ctypes.c_double, _PTR, _PTR, _PTR],
        ctypes.c_int,
    ),
    "repro_fit_partition": (
        [_PTR, ctypes.c_double, _PTR, _I64, _I32, _I64, _PTR, _PTR],
        None,
    ),
}


def _kernel() -> "ctypes.CDLL | None":
    """The compiled split-search kernel, or ``None`` (NumPy scan)."""
    return _ckernel.load("fit", _KERNEL_SOURCE, _SIGNATURES)


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _search_numpy(
    Xcols: np.ndarray,
    y: np.ndarray,
    orders: np.ndarray,
    feats: np.ndarray,
    min_samples_leaf: int,
    min_gain: float,
    parent_entropy: float,
    total_pos: float,
) -> tuple[int, float] | None:
    """Best (feature, threshold) via the presorted NumPy scan.

    All candidate features are scored in one 2-D pass: candidates are
    value boundaries inside the ``min_samples_leaf`` window, gathered
    with ``nonzero`` in row-major = (feature order, sorted position)
    order, so a flat ``argmax`` over their gains reproduces the
    reference selection exactly -- per-feature first maximum, strict
    ``>`` across features.  Per-candidate gains are the same elementwise
    float64 operations on the same values as the reference per-feature
    scan, hence bit-identical; on quantized features (grid coordinates,
    pin counts) the candidate set shrinks by orders of magnitude.
    """
    m = orders.shape[1]
    if m < 2 * min_samples_leaf:
        return None
    IDX = orders[feats]
    XS = Xcols[feats[:, None], IDX]
    varying = XS[:, 0] != XS[:, -1]
    if not varying.all():
        if not varying.any():
            return None
        feats = feats[varying]
        IDX = IDX[varying]
        XS = XS[varying]
    YS = y[IDX]
    cum_pos = np.cumsum(YS, axis=1)
    lo = min_samples_leaf - 1
    hi = m - min_samples_leaf  # last admissible candidate is hi - 1
    rows, cols = np.nonzero(XS[:, lo:hi] < XS[:, lo + 1 : hi + 1])
    if len(rows) == 0:
        return None
    cols += lo
    left_n = cols + 1
    left_pos = cum_pos[rows, cols]
    left_neg = left_n - left_pos
    right_n = m - left_n
    right_pos = total_pos - left_pos
    right_neg = right_n - right_pos
    child_entropy = (
        left_n * _entropy_terms(left_pos, left_neg)
        + right_n * _entropy_terms(right_pos, right_neg)
    ) / m
    gain = parent_entropy - child_entropy
    j = int(np.argmax(gain))
    if float(gain[j]) <= min_gain:
        return None
    r, k = int(rows[j]), int(cols[j])
    return int(feats[r]), float((XS[r, k] + XS[r, k + 1]) / 2.0)


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    candidate_features: Callable[[int], np.ndarray],
    max_depth: int | None,
    min_samples_leaf: int,
    min_gain: float,
    depth: int = 0,
) -> tuple[_Node, dict[str, int]]:
    """Grow a (sub)tree from presorted feature orders.

    Node processing order, pre-split checks, candidate-feature sampling
    (``candidate_features`` is consulted once per expandable node, in the
    same order as the reference grower -- which keeps RandomTree's RNG
    stream identical) and split selection all mirror the reference
    grower exactly.  Uses the C kernel when it loaded.  Returns the root
    node plus ``{"nodes", "splits", "fallbacks"}`` counters, which are
    also added to the process metrics.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
    n, n_features = X.shape
    Xcols = np.ascontiguousarray(X.T)
    orders = np.empty((n_features, n), dtype=np.int32)
    for f in range(n_features):
        orders[f] = np.argsort(Xcols[f], kind="stable")

    lib = _kernel()
    if lib is not None:
        k = np.arange(n + 1, dtype=np.float64)
        xlogx = k * np.log(np.maximum(k, 1.0))
        out_feature = np.zeros(1, dtype=np.int32)
        out_threshold = np.zeros(1, dtype=np.float64)
    flags = np.empty(n, dtype=bool)

    stats = {"nodes": 0, "splits": 0, "fallbacks": 0}
    root_pos = float(y.sum())
    root = _Node(grow_pos=root_pos, grow_neg=float(n - root_pos))
    stack: list[tuple[_Node, np.ndarray, int]] = [(root, orders, depth)]
    while stack:
        node, node_orders, d = stack.pop()
        stats["nodes"] += 1
        m = node_orders.shape[1]
        pos, neg = node.grow_pos, node.grow_neg
        if (
            m < 2 * min_samples_leaf
            or pos == 0
            or neg == 0
            or (max_depth is not None and d >= max_depth)
        ):
            continue
        feats = np.asarray(candidate_features(n_features))
        parent_entropy = _entropy_scalar(pos, neg)
        split: tuple[int, float] | None
        if lib is not None:
            feats32 = np.ascontiguousarray(feats, dtype=np.int32)
            status = lib.repro_fit_best_split(
                _ptr(Xcols), _ptr(y), n,
                _ptr(node_orders), m,
                _ptr(feats32), len(feats32),
                min_samples_leaf, int(pos),
                parent_entropy, min_gain,
                _ptr(xlogx), _ptr(out_feature), _ptr(out_threshold),
            )
            if status < 0:  # uncertain: margin inside the guard band
                stats["fallbacks"] += 1
                split = _search_numpy(
                    Xcols, y, node_orders, feats,
                    min_samples_leaf, min_gain, parent_entropy, pos,
                )
            elif status == 0:
                split = None
            else:
                split = (int(out_feature[0]), float(out_threshold[0]))
        else:
            split = _search_numpy(
                Xcols, y, node_orders, feats,
                min_samples_leaf, min_gain, parent_entropy, pos,
            )
        if split is None:
            continue
        feature, threshold = split
        ord_split = node_orders[feature]
        go_left = Xcols[feature][ord_split] <= threshold
        m_left = int(np.count_nonzero(go_left))
        pos_left = float(y[ord_split[go_left]].sum())
        if lib is not None:
            left_orders = np.empty((n_features, m_left), dtype=np.int32)
            right_orders = np.empty((n_features, m - m_left), dtype=np.int32)
            lib.repro_fit_partition(
                _ptr(Xcols[feature]), threshold,
                _ptr(node_orders), m, n_features, m_left,
                _ptr(left_orders), _ptr(right_orders),
            )
        else:
            # Row-major boolean selection keeps each feature's order
            # stable, and every row keeps exactly m_left entries, so the
            # flat selections reshape back into per-feature orders.
            flags[ord_split] = go_left
            sel = flags[node_orders]
            left_orders = node_orders[sel].reshape(n_features, m_left)
            right_orders = node_orders[~sel].reshape(n_features, m - m_left)
        stats["splits"] += 1
        node.feature = feature
        node.threshold = threshold
        node.left = _Node(grow_pos=pos_left, grow_neg=float(m_left - pos_left))
        node.right = _Node(
            grow_pos=pos - pos_left,
            grow_neg=float((m - m_left) - (pos - pos_left)),
        )
        stack.append((node.left, left_orders, d + 1))
        stack.append((node.right, right_orders, d + 1))
    counter("tree_fits", engine="numpy" if lib is None else "c").inc()
    counter("fit_split_nodes").inc(stats["splits"])
    if stats["fallbacks"]:
        counter("fit_kernel_fallbacks").inc(stats["fallbacks"])
    return root, stats

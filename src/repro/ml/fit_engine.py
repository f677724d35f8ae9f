"""Tree-training engines: the fitting hot path.

The straightforward tree grower (kept as the test oracle) re-sorts
every candidate feature column at every node -- an
``O(nodes x F x n log n)`` Python-level loop.  Both engines here
replace the per-node argsorts with a *presort-once* scheme: each feature
column is stably argsorted exactly once, and every split stably
partitions each feature's sorted index set by the split mask, so every
node always sees its rows in the order the reference grower would have
obtained from ``np.argsort(x, kind="stable")`` on its subset.

Two engines fit a tree:

* **C** (:func:`fit_tree_kernel`): one ``repro_fit_tree`` call, compiled
  on first use through :func:`repro._ckernel.load`, runs the whole
  pipeline -- grow over one ``(F, n)`` order matrix (each node owns a
  ``[start, start + m)`` segment of every row, partitioned in place with
  one ``(n,)`` scratch buffer), route the pruning fold and prune
  (REPTree), route every row for the leaf counts, and emit the pre-order
  arrays of the frozen tree into buffers Python allocates once the
  surviving node count is known.  Besides that allocation it calls
  back into Python for two things only: a node's candidate features
  when the tree samples them (RandomTree's ``rng.choice``, drawn in the
  same node order as the NumPy engine, so the RNG stream is unchanged),
  and the NumPy split search (:func:`_search_numpy`) for the nodes it
  declares uncertain.  An exception raised inside a callback aborts the
  kernel and is re-raised to the caller.
* **NumPy** (:func:`grow_tree`, when the kernel did not load): the same
  presorted grower as a Python node loop over :func:`_search_numpy`;
  ``DecisionTreeBase`` then routes, prunes and freezes the ``_Node``
  tree in Python.

Bit-identity contract
---------------------

Both engines produce trees **node-for-node identical** to the
per-node-argsort reference pipeline kept as the test oracle
(``tests/ml/tree_oracle.py``) -- same feature, threshold and class
counts at every node, ties and duplicated feature values included -- so
which engine ran never moves a report byte.  The NumPy engine achieves
this by performing the exact same float64 operations on the exact same
values in the same order.  The C kernel cannot call NumPy's ``log``
(libm's ``log`` differs from it in the last ulp), so it scores
candidates on an order-equivalent integer-count statistic
``S = -(sum of k*ln(k) terms)`` built from a NumPy-precomputed
``k -> k*ln(k)`` table, and *selects* rather than scores: whenever the
winning margin is within a guard band (``~1e-6`` nats of gain, orders
of magnitude above both kernels' rounding error) -- or the winner sits
within the band of the ``min_gain`` acceptance threshold -- the node is
declared uncertain and re-searched with the NumPy scan.  The parent
entropy the kernel compares against comes from the same table; it only
positions the band.  Exact ties (mirrored or duplicated count
partitions, the common case on real data) are recognised structurally
and resolved first-wins, exactly like the reference's
``argmax``/strict-``>`` scan.  Class counts are exact integers held in
float64 on both engines, and a node collapsed by pruning keeps its
split's threshold with feature ``-1`` (a grown leaf has threshold
``0.0``).

Every fit counts ``tree_fits{engine=c|numpy}`` -- one kernel call per
tree on the C engine -- plus ``fit_split_nodes``; the C engine also
counts its callback searches in ``fit_kernel_fallbacks``.
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


# -- compiled whole-tree kernel -----------------------------------------

_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* Python callbacks.  draw() writes a node's candidate features into the
 * shared feats buffer and returns their count; search() re-searches an
 * uncertain node with the NumPy scan and returns 1 (split written to
 * the shared result buffers) or 0 (no split); alloc(k) allocates the
 * output arrays.  Each returns -1 when it raised; the kernel then
 * aborts and Python re-raises. */
typedef int32_t (*draw_fn)(void);
typedef int32_t (*search_fn)(int64_t start, int64_t m, int32_t n_feat,
                             double pos, double neg);
typedef int32_t (*alloc_fn)(int64_t n_nodes);

enum { ERR_CALLBACK = -1, ERR_FEATURE = -2, ERR_MEMORY = -3 };

/* Split search over one node's segment [start, start + m) of the
 * presorted (F, n) order matrix.
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
static int best_split(
    const double *xcols, const double *y, int64_t n,
    const int32_t *orders, int64_t start, int64_t m,
    const int32_t *feat, int32_t n_feat,
    int64_t min_samples_leaf, int64_t total_pos,
    double parent_entropy, double min_gain, const double *xlogx,
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
        const int32_t *ord = orders + f * n + start;
        const double *x = xcols + f * n;
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

/* The growing tree, struct-of-arrays, indexed by node id. */
typedef struct {
    int64_t cap;
    int32_t *feature;   /* -1 at leaves */
    double *threshold;  /* 0.0 at grown leaves */
    int64_t *left;      /* left child id (right = left + 1), -1 at leaves */
    int64_t *start, *size, *depth, *gpos;  /* order segment, grow counts */
    int64_t *count, *cpos;  /* routed rows and positives */
    int64_t *stack;
} Tree;

#define TREE_FIELDS(X) X(feature) X(threshold) X(left) X(start) X(size) \
    X(depth) X(gpos) X(count) X(cpos) X(stack)

static int tree_reserve(Tree *t, int64_t cap)
{
#define GROW(field) { \
        void *p = realloc(t->field, cap * sizeof(*t->field)); \
        if (!p) return 0; \
        t->field = p; }
    TREE_FIELDS(GROW)
#undef GROW
    t->cap = cap;
    return 1;
}

static void tree_free(Tree *t)
{
#define FREE(field) free(t->field);
    TREE_FIELDS(FREE)
#undef FREE
}

/* Route rows [0, n_rows) -- or the listed ones -- down to a leaf,
 * counting rows and positives at every node on the path. */
static void route(
    const Tree *t, int64_t n_nodes, const double *x_rows,
    const double *y_rows, int32_t n_feat, const int64_t *rows, int64_t n_rows)
{
    memset(t->count, 0, n_nodes * sizeof(int64_t));
    memset(t->cpos, 0, n_nodes * sizeof(int64_t));
    for (int64_t j = 0; j < n_rows; j++) {
        const int64_t r = rows ? rows[j] : j;
        const double *x = x_rows + r * n_feat;
        const int64_t label = (int64_t)y_rows[r];
        int64_t node = 0;
        for (;;) {
            t->count[node]++;
            t->cpos[node] += label;
            if (t->left[node] < 0) break;
            node = t->left[node]
                 + (x[t->feature[node]] <= t->threshold[node] ? 0 : 1);
        }
    }
}

/* Grow, prune, count and emit one tree.
 *
 * Grows on the presorted columns (xcols, y, orders: the n grow rows),
 * LIFO like the NumPy grower: a split node's children get the next two
 * ids, left then right, and the right child is expanded first.  When
 * fold is non-NULL, the fold rows of x_rows are routed through the
 * grown tree and reduced-error pruning runs as one reverse sweep over
 * node ids (a child's id always exceeds its parent's).  Every row of
 * x_rows is then routed for the leaf counts, alloc(k) has Python
 * allocate the output for the k surviving nodes -- a (3, k) int64 block
 * (feature, left, right) and a (3, k) float64 block (threshold, pos,
 * neg), their addresses written to out -- and the tree is written there
 * in pre-order, left first.  stats receives {nodes, splits, fallbacks}.
 *
 * A split's midpoint threshold can round onto the upper value, so a
 * child may be empty; node storage grows as needed.
 *
 * Returns the number of emitted nodes, or a negative ERR_* code.
 */
int64_t repro_fit_tree(
    const double *xcols, const double *y, int64_t n, int32_t n_feat,
    int32_t *orders, const double *xlogx,
    int64_t max_depth, int64_t min_samples_leaf, double min_gain,
    draw_fn draw, search_fn search, alloc_fn alloc, int32_t *feats,
    const int32_t *result_feature, const double *result_threshold,
    void *const *out,
    const double *x_rows, const double *y_rows, int64_t n_rows,
    const int64_t *fold, int64_t n_fold, int64_t *stats)
{
    int64_t status = ERR_MEMORY;
    Tree t = {0};
    int32_t *scratch = malloc((n > 0 ? n : 1) * sizeof(int32_t));
    uint8_t *go_left = malloc((n > 0 ? n : 1) * sizeof(uint8_t));
    if (!scratch || !go_left || !tree_reserve(&t, 2 * n + 1))
        goto done;

    int64_t n_nodes = 1, sp = 0, splits = 0, fallbacks = 0;
    int32_t n_cand = n_feat;
    if (!draw)
        for (int32_t f = 0; f < n_feat; f++) feats[f] = f;
    int64_t root_pos = 0;
    for (int64_t i = 0; i < n; i++) root_pos += (int64_t)y[i];
    t.start[0] = 0; t.size[0] = n; t.depth[0] = 0; t.gpos[0] = root_pos;
    t.stack[sp++] = 0;

    /* -- grow -- */
    while (sp > 0) {
        const int64_t id = t.stack[--sp];
        const int64_t start = t.start[id], m = t.size[id];
        const int64_t pos = t.gpos[id], neg = m - pos;
        t.feature[id] = -1;
        t.threshold[id] = 0.0;
        t.left[id] = -1;
        if (m < 2 * min_samples_leaf || pos == 0 || neg == 0
            || (max_depth >= 0 && t.depth[id] >= max_depth))
            continue;
        if (draw) {
            n_cand = draw();
            if (n_cand < 0) { status = ERR_CALLBACK; goto done; }
            for (int32_t i = 0; i < n_cand; i++)
                if (feats[i] < 0 || feats[i] >= n_feat) { status = ERR_FEATURE; goto done; }
        }
        const double parent_entropy =
            (xlogx[m] - xlogx[pos] - xlogx[neg]) / (double)m;
        int32_t f = -1;
        double thr = 0.0;
        int found = best_split(xcols, y, n, orders, start, m, feats, n_cand,
                               min_samples_leaf, pos, parent_entropy, min_gain,
                               xlogx, &f, &thr);
        if (found < 0) {  /* uncertain: margin inside the guard band */
            fallbacks++;
            found = search(start, m, n_cand, (double)pos, (double)neg);
            if (found < 0) { status = ERR_CALLBACK; goto done; }
            f = *result_feature;
            thr = *result_threshold;
            if (found && (f < 0 || f >= n_feat)) { status = ERR_FEATURE; goto done; }
        }
        if (!found) continue;
        if (n_nodes + 2 > t.cap && !tree_reserve(&t, 2 * t.cap)) goto done;

        /* Stable in-place partition of every feature's segment: left
         * rows compact forward, right rows go through scratch. */
        const double *xs = xcols + (int64_t)f * n;
        const int32_t *ord_f = orders + (int64_t)f * n + start;
        int64_t m_left = 0, pos_left = 0;
        for (int64_t i = 0; i < m; i++) {
            const int32_t r = ord_f[i];
            const uint8_t go = xs[r] <= thr;
            go_left[r] = go;
            if (go) { m_left++; pos_left += (int64_t)y[r]; }
        }
        for (int32_t g = 0; g < n_feat; g++) {
            int32_t *ord = orders + (int64_t)g * n + start;
            int64_t li = 0, ri = 0;
            for (int64_t i = 0; i < m; i++) {
                const int32_t r = ord[i];
                if (go_left[r]) ord[li++] = r;
                else scratch[ri++] = r;
            }
            memcpy(ord + li, scratch, ri * sizeof(int32_t));
        }
        splits++;
        t.feature[id] = f;
        t.threshold[id] = thr;
        const int64_t l = n_nodes, r = n_nodes + 1;
        n_nodes += 2;
        t.left[id] = l;
        t.start[l] = start;          t.size[l] = m_left;
        t.start[r] = start + m_left; t.size[r] = m - m_left;
        t.depth[l] = t.depth[r] = t.depth[id] + 1;
        t.gpos[l] = pos_left;
        t.gpos[r] = pos - pos_left;
        t.stack[sp++] = l;
        t.stack[sp++] = r;  /* popped first */
    }

    /* -- reduced-error pruning against the fold -- */
    if (fold) {
        route(&t, n_nodes, x_rows, y_rows, n_feat, fold, n_fold);
        int64_t *error = t.stack;  /* the grow stack is free again */
        for (int64_t id = n_nodes - 1; id >= 0; id--) {
            const int64_t grow_neg = t.size[id] - t.gpos[id];
            const int64_t collapsed = (t.gpos[id] >= grow_neg)
                ? t.count[id] - t.cpos[id] : t.cpos[id];
            if (t.left[id] < 0) {
                error[id] = collapsed;
                continue;
            }
            const int64_t children = error[t.left[id]] + error[t.left[id] + 1];
            if (collapsed <= children) {  /* keeps the split's threshold */
                t.feature[id] = -1;
                t.left[id] = -1;
                error[id] = collapsed;
            } else {
                error[id] = children;
            }
        }
    }

    /* -- leaf counts over every row -- */
    route(&t, n_nodes, x_rows, y_rows, n_feat, NULL, n_rows);

    /* -- pre-order emission, left first -- */
    int64_t n_out = 0;
    sp = 0;
    t.stack[sp++] = 0;
    while (sp > 0) {  /* count the surviving nodes */
        const int64_t id = t.stack[--sp];
        n_out++;
        if (t.left[id] >= 0) {
            t.stack[sp++] = t.left[id];
            t.stack[sp++] = t.left[id] + 1;
        }
    }
    if (alloc(n_out) < 0) { status = ERR_CALLBACK; goto done; }
    int64_t *out_feature = out[0], *out_left = out_feature + n_out,
            *out_right = out_left + n_out;
    double *out_threshold = out[1], *out_pos = out_threshold + n_out,
           *out_neg = out_pos + n_out;
    int64_t *parent = t.start, *side = t.size;  /* free after growing */
    int64_t k = 0;
    sp = 0;
    t.stack[sp] = 0; parent[sp] = -1; side[sp] = 0; sp++;
    while (sp > 0) {
        sp--;
        const int64_t id = t.stack[sp], p = parent[sp], s = side[sp];
        const int64_t idx = k++;
        out_feature[idx] = t.feature[id];
        out_threshold[idx] = t.threshold[id];
        out_left[idx] = -1;
        out_right[idx] = -1;
        out_pos[idx] = (double)t.cpos[id];
        out_neg[idx] = (double)(t.count[id] - t.cpos[id]);
        if (p >= 0) {
            if (s == 0) out_left[p] = idx;
            else out_right[p] = idx;
        }
        if (t.left[id] >= 0) {
            t.stack[sp] = t.left[id] + 1; parent[sp] = idx; side[sp] = 1; sp++;
            t.stack[sp] = t.left[id];     parent[sp] = idx; side[sp] = 0; sp++;
        }
    }
    stats[0] = n_nodes;
    stats[1] = splits;
    stats[2] = fallbacks;
    status = k;

done:
    tree_free(&t);
    free(scratch);
    free(go_left);
    return status;
}
""".replace("UNCERTAIN_GAIN_MARGIN", repr(UNCERTAIN_GAIN_MARGIN))

_I64 = ctypes.c_int64
_I32 = ctypes.c_int32
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p
_DRAW = ctypes.CFUNCTYPE(_I32)
_SEARCH = ctypes.CFUNCTYPE(_I32, _I64, _I64, _I32, _F64, _F64)
_ALLOC = ctypes.CFUNCTYPE(_I32, _I64)
_NO_DRAW = _DRAW()  # NULL: examine every feature
_SIGNATURES = {
    "repro_fit_tree": (
        [_PTR, _PTR, _I64, _I32, _PTR, _PTR,
         _I64, _I64, _F64,
         _DRAW, _SEARCH, _ALLOC, _PTR, _PTR, _PTR, _PTR,
         _PTR, _PTR, _I64, _PTR, _I64, _PTR],
        _I64,
    ),
}

#: ``repro_fit_tree`` error codes without a Python exception to re-raise.
_KERNEL_ERRORS = {
    -2: (IndexError, "candidate feature index out of range"),
    -3: (MemoryError, "fit kernel could not allocate its node arrays"),
}


def _kernel() -> "ctypes.CDLL | None":
    """The compiled whole-tree kernel, or ``None`` (NumPy engine)."""
    return _ckernel.load("fit", _KERNEL_SOURCE, _SIGNATURES)



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


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature-major columns of ``X`` and their stable per-feature argsort."""
    Xcols = np.ascontiguousarray(X.T)
    return Xcols, np.argsort(Xcols, axis=1, kind="stable").astype(np.int32)


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    candidate_features: Callable[[int], np.ndarray],
    max_depth: int | None,
    min_samples_leaf: int,
    min_gain: float,
) -> tuple[_Node, dict[str, int]]:
    """Grow a tree from presorted feature orders: the NumPy engine.

    Node processing order, pre-split checks, candidate-feature sampling
    (``candidate_features`` is consulted once per expandable node, in the
    same order as the reference grower -- which keeps RandomTree's RNG
    stream identical) and split selection all mirror the reference
    grower exactly.  Returns the root node plus ``{"nodes", "splits"}``
    counters; the fit is also counted in the process metrics.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    Xcols, orders = _presort(np.asarray(X, dtype=np.float64))
    n_features, n = orders.shape
    flags = np.empty(n, dtype=bool)

    stats = {"nodes": 0, "splits": 0}
    root_pos = float(y.sum())
    root = _Node(grow_pos=root_pos, grow_neg=float(n - root_pos))
    stack: list[tuple[_Node, np.ndarray, int]] = [(root, orders, 0)]
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
        split = _search_numpy(
            Xcols, y, node_orders, feats,
            min_samples_leaf, min_gain, _entropy_scalar(pos, neg), pos,
        )
        if split is None:
            continue
        feature, threshold = split
        ord_split = node_orders[feature]
        go_left = Xcols[feature][ord_split] <= threshold
        m_left = int(np.count_nonzero(go_left))
        pos_left = float(y[ord_split[go_left]].sum())
        # Row-major boolean selection keeps each feature's order stable,
        # and every row keeps exactly m_left entries, so the flat
        # selections reshape back into per-feature orders.
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
    counter("tree_fits", engine="numpy").inc()
    counter("fit_split_nodes").inc(stats["splits"])
    return root, stats


def fit_tree_kernel(
    lib: ctypes.CDLL,
    X: np.ndarray,
    y: np.ndarray,
    grow_rows: np.ndarray | None,
    fold: np.ndarray | None,
    candidate_features: Callable[[int], np.ndarray] | None,
    max_depth: int | None,
    min_samples_leaf: int,
    min_gain: float,
) -> tuple[tuple[np.ndarray, ...], dict[str, int]]:
    """Grow, prune, count and emit one tree in one ``repro_fit_tree`` call.

    The tree grows on ``X[grow_rows]`` (all rows when ``None``), is
    pruned against ``X[fold]`` when ``fold`` is given, and counts every
    row of ``X`` at its nodes.  ``candidate_features`` is called back
    once per expandable node; ``None`` examines every feature without a
    callback.  Returns the frozen tree's pre-order
    ``(feature, threshold, left, right, pos, neg)`` arrays plus
    ``{"nodes", "splits", "fallbacks"}`` counters, which are also added
    to the process metrics.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if grow_rows is None:
        X_grow, y_grow = X, y
    else:
        X_grow, y_grow = X[grow_rows], y[grow_rows]
    Xcols, orders = _presort(X_grow)
    n_features, n = orders.shape
    k = np.arange(n + 1, dtype=np.float64)
    xlogx = k * np.log(np.maximum(k, 1.0))
    feats = np.empty(max(n_features, 1), dtype=np.int32)
    result_feature = np.zeros(1, dtype=np.int32)
    result_threshold = np.zeros(1, dtype=np.float64)
    errors: list[BaseException] = []

    def draw() -> int:
        try:
            drawn = np.asarray(candidate_features(n_features))
            feats[: len(drawn)] = drawn
            return len(drawn)
        except BaseException as exc:  # re-raised once the kernel returns
            errors.append(exc)
            return -1

    def search(start: int, m: int, n_cand: int, pos: float, neg: float) -> int:
        try:
            split = _search_numpy(
                Xcols, y_grow, orders[:, start : start + m], feats[:n_cand],
                min_samples_leaf, min_gain, _entropy_scalar(pos, neg), pos,
            )
            if split is None:
                return 0
            result_feature[0], result_threshold[0] = split
            return 1
        except BaseException as exc:
            errors.append(exc)
            return -1

    out: list[np.ndarray] = []
    out_ptrs = np.zeros(2, dtype=np.uintp)

    def alloc(n_nodes: int) -> int:
        try:
            out.append(np.empty((3, n_nodes), dtype=np.int64))
            out.append(np.empty((3, n_nodes), dtype=np.float64))
            out_ptrs[0] = out[0].ctypes.data
            out_ptrs[1] = out[1].ctypes.data
            return 0
        except BaseException as exc:
            errors.append(exc)
            return -1

    # The callbacks and every buffer stay referenced until the call returns.
    draw_cb = _NO_DRAW if candidate_features is None else _DRAW(draw)
    search_cb, alloc_cb = _SEARCH(search), _ALLOC(alloc)
    stats = np.zeros(3, dtype=np.int64)
    if fold is not None:
        fold = np.ascontiguousarray(fold, dtype=np.int64)
    status = lib.repro_fit_tree(
        Xcols.ctypes.data, y_grow.ctypes.data, n, n_features,
        orders.ctypes.data, xlogx.ctypes.data,
        -1 if max_depth is None else max_depth, min_samples_leaf, min_gain,
        draw_cb, search_cb, alloc_cb, feats.ctypes.data,
        result_feature.ctypes.data, result_threshold.ctypes.data,
        out_ptrs.ctypes.data,
        X.ctypes.data, y.ctypes.data, len(y),
        None if fold is None else fold.ctypes.data,
        0 if fold is None else len(fold),
        stats.ctypes.data,
    )
    if errors:
        raise errors[0]
    if status < 0:
        error, message = _KERNEL_ERRORS[status]
        raise error(message)
    nodes, splits, fallbacks = (int(v) for v in stats)
    counter("tree_fits", engine="c").inc()
    counter("fit_split_nodes").inc(splits)
    if fallbacks:
        counter("fit_kernel_fallbacks").inc(fallbacks)
    (feature, left, right), (threshold, pos, neg) = out
    return (feature, threshold, left, right, pos, neg), {
        "nodes": nodes, "splits": splits, "fallbacks": fallbacks,
    }

"""Attack result container: candidate pairs, probabilities, LoC machinery.

The classifier is run once; all LoC-size/accuracy trade-offs of Sections
III-F and IV are then pure post-processing on the recorded pair
probabilities (exactly the "without re-running the entire classification
process" workflow the paper describes).

Definitions used throughout (matching the paper):

* a v-pin's **LoC** at threshold ``t`` is the set of partners ``u`` with
  a recorded pair probability ``p(v, u) >= t``;
* **accuracy** is the fraction of v-pins whose LoC contains a true match;
* **LoC fraction** is the average LoC size divided by the number of
  v-pins in the design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..splitmfg.split import SplitView


@dataclass
class AttackResult:
    """Pair probabilities for one (configuration, test design) run."""

    view: SplitView
    pair_i: np.ndarray
    pair_j: np.ndarray
    prob: np.ndarray
    config_name: str = ""
    train_time: float = 0.0
    test_time: float = 0.0
    n_pairs_evaluated: int = 0
    _cover_p: np.ndarray | None = field(default=None, repr=False)
    _is_match: np.ndarray | None = field(default=None, repr=False)
    _csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )
    _groups: list[tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if not (len(self.pair_i) == len(self.pair_j) == len(self.prob)):
            raise ValueError("pair arrays disagree on length")

    def is_match(self) -> np.ndarray:
        """Boolean array: whether each recorded pair is a true match."""
        if self._is_match is None:
            self._is_match = self.view.are_matches(self.pair_i, self.pair_j)
        return self._is_match

    @property
    def n_vpins(self) -> int:
        return len(self.view)

    @property
    def n_matched_vpins(self) -> int:
        """V-pins that actually have a hidden connection (accuracy
        denominator; differs from ``n_vpins`` only under dummy-v-pin
        defenses)."""
        return sum(1 for v in self.view.vpins if v.matches)

    @property
    def runtime(self) -> float:
        return self.train_time + self.test_time

    # ------------------------------------------------------------------
    # Core curves
    # ------------------------------------------------------------------

    def cover_probability(self) -> np.ndarray:
        """Per v-pin: highest probability among its true-match pairs.

        The v-pin's true match is inside its LoC at threshold ``t`` iff
        this value is ``>= t``; ``-inf`` when no true-match pair was even
        evaluated (the saturation effect of the Imp neighborhoods).
        """
        if self._cover_p is None:
            cover = np.full(self.n_vpins, -np.inf)
            hit = self.is_match()
            np.maximum.at(cover, self.pair_i[hit], self.prob[hit])
            np.maximum.at(cover, self.pair_j[hit], self.prob[hit])
            self._cover_p = cover
        return self._cover_p

    def accuracy_at_threshold(self, threshold: float) -> float:
        """Fraction of v-pins whose LoC (at ``threshold``) has the match."""
        if self.n_vpins == 0:
            return 0.0
        matched = self.n_matched_vpins
        if matched == 0:
            return 0.0
        cover = self.cover_probability()
        # -inf means the match was never evaluated: not covered even at
        # threshold -inf (the Imp saturation effect).
        covered = int((np.isfinite(cover) & (cover >= threshold)).sum())
        return covered / matched

    def mean_loc_size_at_threshold(self, threshold: float) -> float:
        """Average LoC size at ``threshold`` (each pair feeds both sides)."""
        if self.n_vpins == 0:
            return 0.0
        kept = int((self.prob >= threshold).sum())
        return 2.0 * kept / self.n_vpins

    def loc_fraction_at_threshold(self, threshold: float) -> float:
        return self.mean_loc_size_at_threshold(threshold) / max(self.n_vpins, 1)

    def saturation_accuracy(self) -> float:
        """Best achievable accuracy (threshold -> -inf), < 1 when the
        neighborhood excluded some true matches from testing."""
        matched = self.n_matched_vpins
        if matched == 0:
            return 0.0
        return int(np.isfinite(self.cover_probability()).sum()) / matched

    # ------------------------------------------------------------------
    # Inverse lookups (Table IV columns)
    # ------------------------------------------------------------------

    def threshold_for_accuracy(self, accuracy: float) -> float | None:
        """Smallest LoC threshold achieving at least ``accuracy``.

        ``None`` when the accuracy is unreachable (saturation), which the
        paper renders as a dash.
        """
        cover = self.cover_probability()
        finite = np.sort(cover[np.isfinite(cover)])[::-1]
        needed = int(np.ceil(accuracy * self.n_matched_vpins))
        if needed == 0:
            return float("inf")
        if needed > len(finite):
            return None
        return float(finite[needed - 1])

    def threshold_for_loc_fraction(self, fraction: float) -> float:
        """Threshold whose LoC fraction is closest to ``fraction`` from below."""
        target_pairs = fraction * self.n_vpins * self.n_vpins / 2.0
        k = int(np.floor(target_pairs))
        if k <= 0:
            return float("inf")
        if k >= len(self.prob):
            return -float("inf")
        sorted_probs = np.sort(self.prob)[::-1]
        return float(sorted_probs[k - 1])

    def loc_fraction_for_accuracy(self, accuracy: float) -> float | None:
        threshold = self.threshold_for_accuracy(accuracy)
        if threshold is None:
            return None
        return self.loc_fraction_at_threshold(threshold)

    def mean_loc_size_for_accuracy(self, accuracy: float) -> float | None:
        threshold = self.threshold_for_accuracy(accuracy)
        if threshold is None:
            return None
        return self.mean_loc_size_at_threshold(threshold)

    def accuracy_at_loc_fraction(self, fraction: float) -> float:
        return self.accuracy_at_threshold(self.threshold_for_loc_fraction(fraction))

    def accuracy_at_mean_loc_size(self, size: float) -> float:
        if self.n_vpins == 0:
            return 0.0
        return self.accuracy_at_loc_fraction(size / self.n_vpins)

    def curve(
        self, fractions: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(LoC fraction, accuracy) trade-off series (Figs. 9/10)."""
        if fractions is None:
            fractions = np.logspace(-5, -0.5, 40)
        accuracies = np.array(
            [self.accuracy_at_loc_fraction(f) for f in fractions]
        )
        return np.asarray(fractions, dtype=float), accuracies

    # ------------------------------------------------------------------
    # Per-v-pin adjacency (for the proximity attack)
    # ------------------------------------------------------------------

    def grouped(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every v-pin's candidates as one CSR layout ``(offsets, partners, probs)``.

        V-pin ``v``'s partners are ``partners[offsets[v]:offsets[v + 1]]``
        with their pair probabilities at the same positions, in pair
        order (a pair ``(v, v)`` lists ``v`` twice); the proximity
        attack's top-K boundary and tie-breaks depend on that order.
        Built once per result with one stable sort over the interleaved
        owners ``(i0, j0, i1, j1, ...)`` -- a radix sort on 16-bit keys
        when the ids fit -- and the arrays are read-only.
        """
        if self._csr is None:
            owners = np.column_stack([self.pair_i, self.pair_j]).ravel()
            partners = np.column_stack([self.pair_j, self.pair_i]).ravel()
            keys = owners.astype(np.uint16) if self.n_vpins <= 1 << 16 else owners
            order = np.argsort(keys, kind="stable")
            partners = partners[order].astype(int)
            probs = np.repeat(np.asarray(self.prob, np.float64), 2)[order]
            offsets = np.zeros(self.n_vpins + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(owners.astype(np.int64), minlength=self.n_vpins),
                out=offsets[1:],
            )
            for array in (offsets, partners, probs):
                array.flags.writeable = False
            self._csr = (offsets, partners, probs)
        return self._csr

    def per_vpin_candidates(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each v-pin, its (partner ids, pair probabilities).

        Views into :meth:`grouped`'s arrays, built once per result and
        shared by every caller.
        """
        if self._groups is None:
            offsets, partners, probs = self.grouped()
            bounds = offsets.tolist()
            self._groups = [
                (partners[lo:hi], probs[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        return self._groups


@dataclass(frozen=True)
class AttackSummary:
    """Compact, memory-light summary of an :class:`AttackResult`."""

    design_name: str
    config_name: str
    split_layer: int
    n_vpins: int
    train_time: float
    test_time: float
    n_pairs_evaluated: int
    curve_fractions: tuple[float, ...]
    curve_accuracies: tuple[float, ...]
    saturation_accuracy: float
    loc_at_default_threshold: float
    accuracy_at_default_threshold: float

    @property
    def runtime(self) -> float:
        return self.train_time + self.test_time


def summarize(result: AttackResult, fractions: np.ndarray | None = None) -> AttackSummary:
    """Build the compact summary (drops the raw pair arrays)."""
    xs, ys = result.curve(fractions)
    return AttackSummary(
        design_name=result.view.design_name,
        config_name=result.config_name,
        split_layer=result.view.split_layer,
        n_vpins=result.n_vpins,
        train_time=result.train_time,
        test_time=result.test_time,
        n_pairs_evaluated=result.n_pairs_evaluated,
        curve_fractions=tuple(float(x) for x in xs),
        curve_accuracies=tuple(float(y) for y in ys),
        saturation_accuracy=result.saturation_accuracy(),
        loc_at_default_threshold=result.mean_loc_size_at_threshold(0.5),
        accuracy_at_default_threshold=result.accuracy_at_threshold(0.5),
    )

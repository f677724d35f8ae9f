"""Two-level pruning (paper Section III-E).

A Level-2 classifier is trained on "high-quality" negatives: for every
v-pin of the *training* designs, one random non-matching v-pin from its
Level-1 LoC -- i.e. a pair the Level-1 model could not tell apart.  At
test time the Level-2 model re-scores only the pairs inside the Level-1
LoC of the held-out design.

The cross-validation legality subtlety the paper stresses is respected:
the Level-1 LoCs used to mine hard negatives are generated on the
*training* designs only; the held-out design is touched exactly once, at
final testing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..splitmfg.featurize_engine import PairFeaturizer
from ..splitmfg.sampling import axis_aligned, positive_pairs
from ..splitmfg.split import SplitView
from .config import AttackConfig
from .framework import TrainedAttack, evaluate_attack, make_classifier, train_attack
from .result import AttackResult


@dataclass
class TwoLevelOutcome:
    """Both results for one fold: plain Level-1 and two-level pruning."""

    level1: AttackResult
    two_level: AttackResult


def _hard_negatives(
    result: AttackResult,
    rng: np.random.Generator,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One random non-matching Level-1-LoC partner per v-pin."""
    keep = result.prob >= threshold
    pair_i = result.pair_i[keep]
    pair_j = result.pair_j[keep]
    is_match = result.is_match()[keep]
    candidates: list[list[int]] = [[] for _ in range(result.n_vpins)]
    for i, j, m in zip(pair_i, pair_j, is_match):
        if m:
            continue
        candidates[i].append(int(j))
        candidates[j].append(int(i))
    out_i: list[int] = []
    out_j: list[int] = []
    for v, partners in enumerate(candidates):
        if partners:
            out_i.append(v)
            out_j.append(int(partners[rng.integers(len(partners))]))
    return np.array(out_i, dtype=int), np.array(out_j, dtype=int)


def train_two_level(
    config: AttackConfig,
    training_views: list[SplitView],
    seed: int = 0,
    level1_threshold: float = 0.5,
) -> tuple[TrainedAttack, "TrainedLevel2"]:
    """Fit Level-1 normally, then Level-2 on LoC-mined hard negatives."""
    rng = np.random.default_rng(seed)
    level1 = train_attack(config, training_views, seed=seed)
    blocks_X: list[np.ndarray] = []
    blocks_y: list[np.ndarray] = []
    for view in training_views:
        result = evaluate_attack(level1, view)
        neg_i, neg_j = _hard_negatives(result, rng, level1_threshold)
        pos_i, pos_j = positive_pairs(view)
        if config.limit_top_axis and len(pos_i):
            keep = axis_aligned(view.arrays(), pos_i, pos_j, level1.limit_axis)
            pos_i, pos_j = pos_i[keep], pos_j[keep]
        # Keep the Level-2 set balanced (the paper's [4] principle): one
        # hard negative per v-pin can exceed the positive count, since
        # every *pair* contributes two v-pins.
        if len(neg_i) > len(pos_i) > 0:
            pick = rng.choice(len(neg_i), size=len(pos_i), replace=False)
            neg_i, neg_j = neg_i[pick], neg_j[pick]
        featurizer = PairFeaturizer(view, config.features)
        if len(pos_i):
            blocks_X.append(featurizer.rows(pos_i, pos_j))
            blocks_y.append(np.ones(len(pos_i)))
        if len(neg_i):
            blocks_X.append(featurizer.rows(neg_i, neg_j))
            blocks_y.append(np.zeros(len(neg_i)))
    if not blocks_X:
        raise ValueError("no Level-2 training samples")
    model = make_classifier(config, seed=int(rng.integers(2**63)))
    model.fit(np.vstack(blocks_X), np.concatenate(blocks_y))
    return level1, TrainedLevel2(config=config, model=model)


@dataclass
class TrainedLevel2:
    """The Level-2 re-scorer."""

    config: AttackConfig
    model: object  # Bagging


def apply_two_level(
    level1: TrainedAttack,
    level2: TrainedLevel2,
    view: SplitView,
    level1_threshold: float = 0.5,
) -> TwoLevelOutcome:
    """Score the held-out view with both levels.

    The two-level result keeps only pairs inside the Level-1 LoC and
    carries the Level-2 probabilities, so LoC-size control applies to the
    final (pruned) candidate lists.
    """
    level1_result = evaluate_attack(level1, view)
    start = time.perf_counter()
    keep = level1_result.prob >= level1_threshold
    pair_i = level1_result.pair_i[keep]
    pair_j = level1_result.pair_j[keep]
    if len(pair_i):
        X = PairFeaturizer(view, level2.config.features).rows(pair_i, pair_j)
        prob = level2.model.predict_proba(X)
    else:
        prob = np.zeros(0)
    two_level_result = AttackResult(
        view=view,
        pair_i=pair_i,
        pair_j=pair_j,
        prob=prob,
        config_name=f"{level2.config.name}+2L",
        train_time=level1_result.train_time,
        test_time=level1_result.test_time + time.perf_counter() - start,
        n_pairs_evaluated=level1_result.n_pairs_evaluated + len(pair_i),
    )
    return TwoLevelOutcome(level1=level1_result, two_level=two_level_result)


def run_two_level_fold(
    config: AttackConfig,
    views: list[SplitView],
    test_index: int,
    seed: int = 0,
    level1_threshold: float = 0.5,
) -> TwoLevelOutcome:
    """One leave-one-out fold of the two-level procedure."""
    test_view = views[test_index]
    training_views = views[:test_index] + views[test_index + 1 :]
    level1, level2 = train_two_level(
        config, training_views, seed=seed, level1_threshold=level1_threshold
    )
    return apply_two_level(level1, level2, test_view, level1_threshold)

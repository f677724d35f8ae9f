"""Netlist-recovery evaluation: from pair predictions to a stolen design.

The attack's business end is not a candidate list but a reconstructed
netlist.  This module closes that loop: an assignment of v-pin pairs
(e.g. from the proximity or global-matching attack) is translated into
recovered BEOL connections, and the reconstruction is scored against the
ground truth at the *net* level -- a net counts as fully recovered only
when every one of its hidden connections was guessed correctly, which is
what an attacker needs before the logic function of that net's cone can
be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..splitmfg.split import SplitView
from .proximity import proximity_picks
from .result import AttackResult


@dataclass(frozen=True)
class RecoveryReport:
    """Netlist-level scoring of one reconstruction."""

    design_name: str
    n_connections: int
    n_guessed: int
    n_correct_connections: int
    n_nets: int
    n_fully_recovered_nets: int

    @property
    def connection_rate(self) -> float:
        """Fraction of hidden connections guessed correctly."""
        if self.n_connections == 0:
            return 0.0
        return self.n_correct_connections / self.n_connections

    @property
    def net_recovery_rate(self) -> float:
        """Fraction of cut nets with *all* connections correct."""
        if self.n_nets == 0:
            return 0.0
        return self.n_fully_recovered_nets / self.n_nets


def score_assignment(
    view: SplitView,
    assignment: dict[int, int],
) -> RecoveryReport:
    """Score a per-v-pin partner assignment against the ground truth.

    ``assignment`` maps v-pin id to its guessed partner id (symmetric
    entries are fine; missing entries count as unguessed).
    """
    # Connection = unordered true-match pair.
    true_pairs = {tuple(sorted((v.id, m))) for v in view.vpins for m in v.matches}
    guessed_pairs = {
        tuple(sorted((a, b))) for a, b in assignment.items()
    }
    correct = true_pairs & guessed_pairs
    # Net-level: group true pairs by net.
    by_net: dict[str, set[tuple[int, int]]] = {}
    for pair in true_pairs:
        by_net.setdefault(view.vpins[pair[0]].net, set()).add(pair)
    fully = sum(1 for pairs in by_net.values() if pairs <= correct)
    return RecoveryReport(
        design_name=view.design_name,
        n_connections=len(true_pairs),
        n_guessed=len(guessed_pairs),
        n_correct_connections=len(correct),
        n_nets=len(by_net),
        n_fully_recovered_nets=fully,
    )


def recover_from_matching(
    result: AttackResult,
    min_probability: float = 0.5,
) -> RecoveryReport:
    """Reconstruct via the global matching attack and score it."""
    keep = result.prob >= min_probability
    order = np.argsort(result.prob[keep])[::-1]
    pair_i = result.pair_i[keep][order]
    pair_j = result.pair_j[keep][order]
    assignment: dict[int, int] = {}
    for a, b in zip(pair_i, pair_j):
        a, b = int(a), int(b)
        if a in assignment or b in assignment:
            continue
        assignment[a] = b
        assignment[b] = a
    return score_assignment(result.view, assignment)


def recover_from_proximity(
    result: AttackResult,
    pa_fraction: float = 0.02,
    rng: np.random.Generator | None = None,
) -> RecoveryReport:
    """Reconstruct via independent proximity picks and score them.

    Every v-pin takes its proximity-attack pick (:func:`proximity_picks`:
    nearest, then most probable, then ``rng``).  Unlike matching,
    proximity picks need not be mutually consistent -- two v-pins can
    claim the same partner -- which is precisely what this evaluation
    exposes at the net level.
    """
    picks = proximity_picks(result, pa_fraction=pa_fraction, rng=rng)
    assignment = {v: int(pick) for v, pick in enumerate(picks) if pick >= 0}
    return score_assignment(result.view, assignment)

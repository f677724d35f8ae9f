"""Runnable counterparts of the paper's illustrative figures (2, 3, 5, 6).

These figures define concepts rather than report data; here each becomes
a small, executable demonstration on real generated geometry:

* **Fig. 2/3** -- per-v-pin feature extraction: pick one cut net and
  print its route stack layer by layer, the two v-pins, and every
  feature value with the quantities it is computed from;
* **Fig. 5** -- two-level pruning: sizes of the candidate sets entering
  and leaving each level for one design;
* **Fig. 6** -- the PA set grid: for one target v-pin, count the
  S1..S8 sets defined by (probability, distance) relative to its true
  match, and show the resulting PA verdict.
"""

from __future__ import annotations

import numpy as np

from ..attack.config import IMP_11
from ..attack.framework import evaluate_attack, train_attack
from ..reporting import ascii_table
from ..splitmfg.featurize_engine import PairFeaturizer
from ..splitmfg.pair_features import FEATURES_11
from .common import DEFAULT_SCALE, ExperimentOutput, get_suite, get_views, standard_cli


def _figure2_3(views, designs, layer: int) -> str:
    """One cut net, its stack, and its pair features spelled out."""
    view = views[0]
    design = designs[0]
    vpin = next(v for v in view.vpins if v.is_driver_side and len(v.matches) == 1)
    partner = view.vpins[next(iter(vpin.matches))]
    route = design.routes[vpin.net]
    lines = [f"Fig. 2/3 -- feature extraction for net {vpin.net!r} (split V{layer})"]
    by_layer: dict[int, float] = {}
    for seg in route.segments:
        by_layer[seg.layer] = by_layer.get(seg.layer, 0.0) + seg.length
    for metal in sorted(by_layer, reverse=True):
        side = "BEOL (hidden)" if metal > layer else "FEOL (visible)"
        lines.append(f"  M{metal}: {by_layer[metal]:8.1f} wire units   [{side}]")
    lines.append(
        f"  vias per layer: "
        + ", ".join(
            f"V{k}:{len(route.vias_on(k))}"
            for k in range(1, design.technology.num_via_layers + 1)
            if route.vias_on(k)
        )
    )
    for side, v in (("driver-side", vpin), ("sink-side", partner)):
        lines.append(
            f"  {side} v-pin v{v.id}: (vx,vy)=({v.location.x:.0f},{v.location.y:.0f}) "
            f"(px,py)=({v.pin_location.x:.0f},{v.pin_location.y:.0f}) "
            f"W={v.fragment_wirelength:.1f} InArea={v.in_area:.0f} "
            f"OutArea={v.out_area:.0f} PC={v.pc:.4f} RC={v.rc:.4f}"
        )
    X = PairFeaturizer(view, FEATURES_11).rows(
        np.array([vpin.id]), np.array([partner.id])
    )[0]
    rows = [[name, f"{value:.2f}"] for name, value in zip(FEATURES_11, X)]
    lines.append(ascii_table(("pair feature", "value"), rows))
    return "\n".join(lines)


def _figure5(views, layer: int, seed: int) -> str:
    """Candidate-set sizes through the two pruning levels."""
    from ..attack.two_level import run_two_level_fold

    outcome = run_two_level_fold(IMP_11, views, 0, seed=seed)
    n = outcome.level1.n_vpins
    all_pairs = n * (n - 1) // 2
    level1 = int((outcome.level1.prob >= 0.5).sum())
    level2 = int((outcome.two_level.prob >= 0.5).sum())
    return "\n".join(
        [
            f"Fig. 5 -- two-level pruning funnel ({views[0].design_name}, V{layer})",
            f"  all v-pin pairs:            {all_pairs}",
            f"  evaluated by Level-1:       {outcome.level1.n_pairs_evaluated}",
            f"  Level-1 LoC (p >= 0.5):     {level1}",
            f"  Level-2 final (p >= 0.5):   {level2}",
        ]
    )


def _figure6(views, layer: int, seed: int) -> str:
    """S1..S8 census for one target v-pin (paper Fig. 6)."""
    training = views[1:]
    trained = train_attack(IMP_11, training, seed=seed)
    result = evaluate_attack(trained, views[0])
    view = views[0]
    arr = view.arrays()
    candidates = result.per_vpin_candidates()
    # Pick a covered target with several candidates.
    target = None
    for vpin in view.vpins:
        partners, probs = candidates[vpin.id]
        if len(partners) >= 5 and any(int(p) in vpin.matches for p in partners):
            target = vpin
            break
    if target is None:
        return "Fig. 6 -- no suitable target v-pin at this scale"
    partners, probs = candidates[target.id]
    match = next(iter(target.matches))
    in_list = np.nonzero(partners == match)[0]
    p0 = float(probs[in_list[0]])
    d = np.abs(arr["vx"][partners] - arr["vx"][target.id]) + np.abs(
        arr["vy"][partners] - arr["vy"][target.id]
    )
    d0 = float(d[in_list[0]])
    others = partners != match
    cells = {
        "S1 (p<p0, d<d0)": int(((probs < p0) & (d < d0) & others).sum()),
        "S2 (p<p0, d=d0)": int(((probs < p0) & (d == d0) & others).sum()),
        "S3 (p<p0, d>d0)": int(((probs < p0) & (d > d0) & others).sum()),
        "S4 (p=p0, d<d0)": int(((probs == p0) & (d < d0) & others).sum()),
        "S5 (p=p0, d>d0)": int(((probs == p0) & (d > d0) & others).sum()),
        "S6 (p>p0, d<d0)": int(((probs > p0) & (d < d0) & others).sum()),
        "S7 (p>p0, d=d0)": int(((probs > p0) & (d == d0) & others).sum()),
        "S8 (p>p0, d>d0)": int(((probs > p0) & (d > d0) & others).sum()),
    }
    doomed = cells["S4 (p=p0, d<d0)"] + cells["S6 (p>p0, d<d0)"] + cells["S7 (p>p0, d=d0)"]
    rows = [[k, v] for k, v in cells.items()]
    verdict = (
        "PA can succeed (no closer/likelier competitor)"
        if doomed == 0
        else f"PA doomed: |S4|+|S6|+|S7| = {doomed} > 0"
    )
    return (
        f"Fig. 6 -- candidate census around v{target.id} "
        f"(match v{match}: p0={p0:.2f}, d0={d0:.0f})\n"
        + ascii_table(("set", "count"), rows)
        + f"\n  {verdict}"
    )


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    layer: int = 6,
) -> ExperimentOutput:
    """Render the illustrative figures at ``scale``."""
    designs = get_suite(scale)
    views = get_views(layer, scale)
    blocks = [
        _figure2_3(views, designs, layer),
        _figure5(views, layer, seed),
        _figure6(views, layer, seed),
    ]
    return ExperimentOutput(
        experiment="illustrations", report="\n\n".join(blocks), data={}
    )


if __name__ == "__main__":
    args = standard_cli("Illustrative figures 2/3/5/6")
    print(run(scale=args.scale, seed=args.seed).report)

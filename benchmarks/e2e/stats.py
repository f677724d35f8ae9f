"""Order statistics and the rule for comparing two sets of runs."""

from __future__ import annotations

import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail(values: Sequence[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    p99 needs 1000 samples, p90 100 and p50 20.  With fewer than 20 no
    tail is supported and the median is reported, labelled ``median``.
    """
    for label, parts in (("p99", 100), ("p90", 10), ("p50", 2)):
        if len(values) / parts >= 10:
            return label, statistics.quantiles(values, n=parts)[-1]
    return "median", statistics.median(values)


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and count of a list of measurements."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def compare(
    base: Sequence[float],
    head: Sequence[float],
    better: str,
    bound: float,
) -> dict[str, object]:
    """Judge ``head`` against ``base`` for one (metric, workload).

    Pairs are ``(base[i], head[i])`` in run order.  The verdict is

    * ``regression`` -- head's median is worse than base's by more
      than ``bound`` (a share of base's median);
    * ``unresolved`` -- either side spreads wider than ``bound`` and
      head does not read better than base on every run;
    * ``gain`` -- head wins at least nine tenths of the pairs, ties
      counting for neither, and the medians differ by more than the
      distance between base's quartiles;
    * ``within bound`` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    b_q1, b_median, b_q3 = quartiles(base)
    h_median = quartiles(head)[1]
    worse_by = -sign * (h_median - b_median) / abs(b_median) if b_median else 0.0
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if worse_by > bound:
        verdict = "regression"
    elif max(spread(base), spread(head)) > bound and not all_better:
        verdict = "unresolved"
    elif pairs and wins >= 0.9 * len(pairs) and abs(h_median - b_median) > b_q3 - b_q1:
        verdict = "gain"
    else:
        verdict = "within bound"
    return {
        "verdict": verdict,
        "base": summary(base),
        "head": summary(head),
        "worse_by": worse_by,
        "wins": wins,
        "pairs": len(pairs),
    }

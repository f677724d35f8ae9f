"""Child-process programs that call the library API of ``repro``.

``score`` runs the score-paper workload's program side: synthesize the
paper-scale views and train ML-9 (``SETUPS`` times), then repeat
``evaluate_attack_scaled`` passes until ``--seconds`` have passed.
``serve-prep`` trains the two serving models into a registry and writes
the public challenges with their in-process ``AttackService.predict``
references.  Both write one JSON document for the harness; ``score``
may run under the tracer.

    python -m benchmarks.e2e.programs score --seed S --seconds T --out F
    python -m benchmarks.e2e.programs serve-prep --seed S --registry D --out F
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from typing import Any

#: The scored design: the paper's largest class, split at via 8.
SCORE_CELLS = 1_000_000
#: The separate design the classifier is trained on.
TRAIN_CELLS = 100_000
#: Per-v-pin candidates kept by the top-K scorer.
TOP_K = 64
#: Pool workers for the scoring pass (the 2-core yardstick host).
SCORE_JOBS = 2
#: Set-ups per run; the median is reported.  A set-up takes only
#: 0.6-0.8 s, so it is noisy (up to 13 % spread over ten runs even as a
#: median of five); more would not fit the benchmark's time cap.
SETUPS = 5
#: Suite scale of the serving workload's designs and challenges.
SERVE_SCALE = 0.08
SERVE_CONFIG = "Imp-11"
SERVE_LAYERS = (8, 6)
SERVE_TOP_K = 3


def _cpu_s() -> float:
    """CPU of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def more_passes(done: int, window_start: float, seconds: float) -> bool:
    """Whether to start another pass: always the first one, then until
    the timed window has lasted ``seconds``, so it lasts at least that."""
    return done == 0 or time.perf_counter() - window_start < seconds


def result_digest(result: Any) -> str:
    """SHA-256 over the scored ``(pair_i, pair_j, prob)`` arrays."""
    digest = hashlib.sha256()
    for array in (result.pair_i, result.pair_j, result.prob):
        digest.update(array.tobytes())
    return digest.hexdigest()


def score(argv: list[str]) -> int:
    """Set up ``SETUPS`` times, then score passes for ``--seconds``."""
    from repro.attack.config import AttackConfig
    from repro.attack.framework import train_attack
    from repro.attack.scale import evaluate_attack_scaled
    from repro.obs.metrics import get_registry
    from repro.synth.paper_scale import PaperScaleConfig, build_paper_scale_view

    parser = argparse.ArgumentParser(prog="score")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        train_view = build_paper_scale_view(
            PaperScaleConfig(n_cells=TRAIN_CELLS, split_layer=8, seed=args.seed + 1)
        )
        view = build_paper_scale_view(
            PaperScaleConfig(n_cells=SCORE_CELLS, split_layer=8, seed=args.seed)
        )
        trained = train_attack(
            AttackConfig(name="ML-9", n_features=9), [train_view], seed=args.seed
        )
        setups.append((started, time.perf_counter()))
    passes = []
    window_start = time.perf_counter()
    while more_passes(len(passes), window_start, args.seconds):
        started, cpu = time.perf_counter(), _cpu_s()
        result = evaluate_attack_scaled(trained, view, k=TOP_K, jobs=SCORE_JOBS)
        passes.append({
            "start": started,
            "end": time.perf_counter(),
            "cpu_s": _cpu_s() - cpu,
            "pairs": result.n_pairs_evaluated,
            "digest": result_digest(result),
        })
    document = {
        "setups": setups,
        "passes": passes,
        "window": (window_start, time.perf_counter()),
        "program": get_registry().snapshot(),
    }
    with open(args.out, "w") as handle:
        json.dump(document, handle)
    return 0


def serve_prep(argv: list[str]) -> int:
    """Train the serving models; write challenges plus references."""
    from repro.attack.config import CONFIGS_BY_NAME
    from repro.experiments.common import get_views
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import AttackService, train_model
    from repro.splitmfg.challenge import challenge_to_dict

    parser = argparse.ArgumentParser(prog="serve-prep")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--registry", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    registry = ModelRegistry(args.registry)
    views = {layer: get_views(layer, SERVE_SCALE) for layer in SERVE_LAYERS}
    for layer in SERVE_LAYERS:
        artifact = train_model(CONFIGS_BY_NAME[SERVE_CONFIG], views[layer], seed=args.seed)
        registry.save(artifact, name=f"serve-L{layer}")
    service = AttackService(ModelRegistry(args.registry, create=False))
    challenges = []
    for layer in SERVE_LAYERS:
        for view in views[layer]:
            public = challenge_to_dict(view)
            reference = service.predict(public, model_id=f"serve-L{layer}", top_k=SERVE_TOP_K)
            reference.pop("time_s")
            challenges.append({
                "request": {"challenge": public, "model": f"serve-L{layer}", "top_k": SERVE_TOP_K},
                "reference": reference,
            })
    with open(args.out, "w") as handle:
        json.dump(challenges, handle)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    commands = {"score": score, "serve-prep": serve_prep}
    if not argv or argv[0] not in commands:
        print(f"usage: programs {{{','.join(commands)}}} ...", file=sys.stderr)
        return 2
    return commands[argv[0]](argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())

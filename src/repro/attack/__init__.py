"""The machine-learning split-manufacturing attack (paper core)."""

from .baselines import PriorResult, PriorWorkAttack, naive_nearest_pa
from .config import (
    ALL_CONFIGS,
    CONFIGS_BY_NAME,
    IMP_7,
    IMP_7Y,
    IMP_9,
    IMP_9Y,
    IMP_11,
    IMP_11Y,
    LIMIT_CONFIGS,
    ML_9,
    ML_9Y,
    PRIMARY_CONFIGS,
    AttackConfig,
)
from .defenses import (
    apply_defense_suite,
    with_dummy_vpins,
    with_feature_scrambling,
    with_xy_noise,
)
from .framework import (
    TrainedAttack,
    evaluate_attack,
    loo_folds,
    make_classifier,
    run_loo,
    train_attack,
)
from .matching import (
    MatchingOutcome,
    connected_component_sizes,
    distance_weighted_matching_attack,
    global_matching_attack,
)
from .obfuscation import obfuscate_suite, with_y_noise
from .proximity import (
    DEFAULT_PA_FRACTIONS,
    ValidatedPA,
    pa_success_rate,
    pa_success_rates,
    proximity_picks,
    run_validated_pa,
    validate_pa_fraction,
)
from .recovery import (
    RecoveryReport,
    recover_from_matching,
    recover_from_proximity,
    score_assignment,
)
from .result import AttackResult, AttackSummary, summarize
from .scale import evaluate_attack_scaled, shard_rows
from .topk import TopKTracker, evaluate_attack_topk
from .two_level import (
    TrainedLevel2,
    TwoLevelOutcome,
    apply_two_level,
    run_two_level_fold,
    train_two_level,
)

__all__ = [
    "ALL_CONFIGS",
    "AttackConfig",
    "AttackResult",
    "AttackSummary",
    "CONFIGS_BY_NAME",
    "DEFAULT_PA_FRACTIONS",
    "IMP_11",
    "IMP_11Y",
    "IMP_7",
    "IMP_7Y",
    "IMP_9",
    "IMP_9Y",
    "LIMIT_CONFIGS",
    "ML_9",
    "ML_9Y",
    "MatchingOutcome",
    "PRIMARY_CONFIGS",
    "PriorResult",
    "PriorWorkAttack",
    "RecoveryReport",
    "TopKTracker",
    "TrainedAttack",
    "TrainedLevel2",
    "TwoLevelOutcome",
    "ValidatedPA",
    "apply_defense_suite",
    "apply_two_level",
    "connected_component_sizes",
    "distance_weighted_matching_attack",
    "evaluate_attack",
    "evaluate_attack_scaled",
    "evaluate_attack_topk",
    "global_matching_attack",
    "loo_folds",
    "make_classifier",
    "naive_nearest_pa",
    "obfuscate_suite",
    "pa_success_rate",
    "pa_success_rates",
    "proximity_picks",
    "recover_from_matching",
    "recover_from_proximity",
    "run_loo",
    "run_two_level_fold",
    "run_validated_pa",
    "score_assignment",
    "shard_rows",
    "summarize",
    "train_attack",
    "train_two_level",
    "validate_pa_fraction",
    "with_dummy_vpins",
    "with_feature_scrambling",
    "with_xy_noise",
    "with_y_noise",
]

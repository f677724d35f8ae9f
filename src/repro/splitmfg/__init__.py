"""Split-manufacturing core: the cut, v-pins, features, and samples."""

from .challenge import (
    challenge_from_dicts,
    challenge_to_dict,
    load_challenge,
    oracle_to_dict,
    save_challenge,
)
from .featurize_engine import PairFeaturizer
from .pair_features import (
    FEATURE_SETS,
    FEATURES_7,
    FEATURES_9,
    FEATURES_11,
    compute_pair_features,
    legal_pair_mask,
    manhattan_vpin,
)
from .sampling import (
    COORD_TOL,
    DEFAULT_NEIGHBORHOOD_PERCENTILE,
    NeighborhoodIndex,
    TrainingSet,
    axis_aligned,
    build_training_set,
    iter_all_pairs,
    max_chunk_rows,
    neighborhood_fraction,
    neighborhood_negative_pairs,
    neighborhood_radius,
    positive_pairs,
    random_negative_pairs,
)
from .split import SplitView, VPin, split_design
from .statistics import SplitStatistics, compute_statistics, describe
from .vpin_features import (
    attach_congestion,
    make_split_view,
    placement_congestion,
    routing_congestion,
)

__all__ = [
    "COORD_TOL",
    "DEFAULT_NEIGHBORHOOD_PERCENTILE",
    "FEATURES_11",
    "FEATURES_7",
    "FEATURES_9",
    "FEATURE_SETS",
    "NeighborhoodIndex",
    "PairFeaturizer",
    "SplitStatistics",
    "SplitView",
    "TrainingSet",
    "VPin",
    "attach_congestion",
    "axis_aligned",
    "build_training_set",
    "challenge_from_dicts",
    "challenge_to_dict",
    "compute_pair_features",
    "compute_statistics",
    "describe",
    "iter_all_pairs",
    "legal_pair_mask",
    "load_challenge",
    "make_split_view",
    "manhattan_vpin",
    "max_chunk_rows",
    "neighborhood_fraction",
    "neighborhood_negative_pairs",
    "neighborhood_radius",
    "oracle_to_dict",
    "placement_congestion",
    "positive_pairs",
    "random_negative_pairs",
    "routing_congestion",
    "save_challenge",
    "split_design",
]

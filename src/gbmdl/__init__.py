"""Granular-ball clustering by local description-length model competition."""

from .backends import (
    BallClustering,
    agglomerative_ward,
    cluster_or_passthrough,
    kmeanspp,
    labels_to_samples,
)
from .core import (
    BallStats,
    Dataset,
    GenerationResult,
    GranularBall,
    ModelChoice,
    ModelVerdict,
)
from .errors import ConfigurationError, CsvParseError, DataQualityError, GbmdlError
from .generation import (
    GenerationConfig,
    adaptive_n_min,
    assign_samples,
    farthest_point_bisect,
    generate,
    generate_stable_balls,
    initial_ball_count,
    initialize_balls,
    reassign_residuals,
)
from .metrics import ContingencyTable, acc, ari, nmi
from .models import (
    PeelCandidate,
    SplitCandidate,
    l1_length,
    l2_best_split,
    l3_best_peel,
    select_model,
)
from .preprocess import NormalizationRecord, background_log_volume, minmax_normalize

__version__ = "0.1.0"

__all__ = [
    "BallClustering",
    "BallStats",
    "ConfigurationError",
    "ContingencyTable",
    "CsvParseError",
    "DataQualityError",
    "Dataset",
    "GbmdlError",
    "GenerationConfig",
    "GenerationResult",
    "GranularBall",
    "ModelChoice",
    "ModelVerdict",
    "NormalizationRecord",
    "PeelCandidate",
    "SplitCandidate",
    "acc",
    "adaptive_n_min",
    "agglomerative_ward",
    "ari",
    "assign_samples",
    "background_log_volume",
    "cluster_or_passthrough",
    "farthest_point_bisect",
    "generate",
    "generate_stable_balls",
    "initial_ball_count",
    "initialize_balls",
    "kmeanspp",
    "l1_length",
    "l2_best_split",
    "l3_best_peel",
    "labels_to_samples",
    "minmax_normalize",
    "nmi",
    "reassign_residuals",
    "select_model",
]

"""Granular-ball clustering by local description-length model competition."""

from .backends import (
    BallClustering,
    agglomerative_ward,
    cluster_or_passthrough,
    kmeanspp,
)
from .core import (
    BallStats,
    Dataset,
    GenerationResult,
    GranularBall,
    ModelChoice,
    ModelVerdict,
    minmax_normalize,
)
from .errors import ConfigurationError, CsvParseError, DataQualityError, GbmdlError
from .generation import (
    adaptive_n_min,
    assign_samples,
    farthest_point_bisect,
    generate,
    generate_stable_balls,
    initial_ball_count,
    initialize_balls,
    reassign_residuals,
)
from .metrics import acc, ari, contingency, nmi
from .models import evaluate_ball, l1_length, l2_best_split, l3_best_peel

__version__ = "0.1.0"

__all__ = [
    "BallClustering",
    "BallStats",
    "ConfigurationError",
    "CsvParseError",
    "DataQualityError",
    "Dataset",
    "GbmdlError",
    "GenerationResult",
    "GranularBall",
    "ModelChoice",
    "ModelVerdict",
    "acc",
    "adaptive_n_min",
    "agglomerative_ward",
    "ari",
    "assign_samples",
    "cluster_or_passthrough",
    "contingency",
    "evaluate_ball",
    "farthest_point_bisect",
    "generate",
    "generate_stable_balls",
    "initial_ball_count",
    "initialize_balls",
    "kmeanspp",
    "l1_length",
    "l2_best_split",
    "l3_best_peel",
    "minmax_normalize",
    "nmi",
    "reassign_residuals",
]

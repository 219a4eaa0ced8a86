"""Granular-ball clustering by local description-length model competition."""

from .backends import cluster_or_passthrough, kmeanspp
from .core import Dataset, minmax_normalize
from .errors import ConfigurationError, CsvParseError, DataQualityError, GbmdlError
from .generation import generate, generate_stable_balls
from .metrics import acc, ari, nmi

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "CsvParseError",
    "DataQualityError",
    "Dataset",
    "GbmdlError",
    "acc",
    "ari",
    "cluster_or_passthrough",
    "generate",
    "generate_stable_balls",
    "kmeanspp",
    "minmax_normalize",
    "nmi",
]

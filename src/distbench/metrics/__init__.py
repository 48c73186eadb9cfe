"""Distance measure kernels and the metric registry."""

from . import kernels
from .kernels import EPSILON
from .registry import (
    REGISTRY,
    Cell,
    Family,
    MetricDescriptor,
    describe,
    evaluate,
    list_metrics,
    pairwise,
    similarity,
)

__all__ = [
    "Cell",
    "EPSILON",
    "Family",
    "MetricDescriptor",
    "REGISTRY",
    "describe",
    "evaluate",
    "kernels",
    "list_metrics",
    "pairwise",
    "similarity",
]

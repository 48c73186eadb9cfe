"""Distance measure kernels and the metric registry."""

from . import kernels
from .kernels import DEFAULT_GUARD, EPSILON, GuardPolicy
from .registry import (
    REGISTRY,
    Cell,
    CoreKernel,
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
    "CoreKernel",
    "DEFAULT_GUARD",
    "EPSILON",
    "Family",
    "GuardPolicy",
    "MetricDescriptor",
    "REGISTRY",
    "describe",
    "evaluate",
    "kernels",
    "list_metrics",
    "pairwise",
    "similarity",
]

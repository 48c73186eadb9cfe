"""Distance measure kernels and the metric registry."""

from . import kernels
from .kernels import DEFAULT_GUARD, EPSILON, GuardPolicy
from .registry import (
    REGISTRY,
    CoreKernel,
    CoreStore,
    Family,
    MetricDescriptor,
    describe,
    evaluate,
    list_metrics,
    pairwise,
    similarity,
)

__all__ = [
    "CoreKernel",
    "CoreStore",
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

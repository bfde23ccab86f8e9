"""Exact verification kernel for lattice-valued function spaces.

Scalars are d-tuples of exact rationals with pointwise arithmetic and the
componentwise order; integrals on finite atomic spaces are mass-weighted
sums; p-th roots carry certified error brackets.  See the README for the
module map and the command line front end.
"""

from .falgebra import (
    ApproxReal,
    DimensionMismatch,
    LElement,
    ToleranceConfig,
)
from .lmodule import ModuleSpace, ModuleVector, NormKind
from .measure import MeasurableSet, MeasureSpace, Partition, TooManyAtoms
from .bochner import INF, LFunction, LpHandle
from .vecmeasure import NotAbsolutelyContinuous, VectorMeasure
from .duality import LpOperator, ZeroNorm

__version__ = "0.1.0"

__all__ = [
    "ApproxReal",
    "DimensionMismatch",
    "INF",
    "LElement",
    "LFunction",
    "LpHandle",
    "LpOperator",
    "MeasurableSet",
    "MeasureSpace",
    "ModuleSpace",
    "ModuleVector",
    "NormKind",
    "NotAbsolutelyContinuous",
    "Partition",
    "ToleranceConfig",
    "TooManyAtoms",
    "VectorMeasure",
    "ZeroNorm",
    "__version__",
]

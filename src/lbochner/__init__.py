"""Exact verification kernel for lattice-valued function spaces.

Scalars are d-tuples of exact rationals with pointwise arithmetic and the
componentwise order; integrals on finite atomic spaces are mass-weighted
sums; p-th roots carry certified error brackets.  See the README for the
module map and the command line front end.

Importing the package loads no submodule: each name in ``__all__`` imports
its module on first access.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    "ApproxReal": "falgebra",
    "DimensionMismatch": "falgebra",
    "LElement": "falgebra",
    "ToleranceConfig": "falgebra",
    "ModuleSpace": "lmodule",
    "ModuleVector": "lmodule",
    "NormKind": "lmodule",
    "MeasurableSet": "measure",
    "MeasureSpace": "measure",
    "Partition": "measure",
    "TooManyAtoms": "measure",
    "INF": "bochner",
    "LFunction": "bochner",
    "VectorMeasure": "vecmeasure",
    "LpOperator": "duality",
    "ZeroNorm": "duality",
}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    # a submodule name falls through to the import system
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value

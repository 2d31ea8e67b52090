"""Outage probability of an EH MIMO-NOMA downlink with joint antenna selection.

`op_closed_form` and `op_numerical` resolve on first access, through the
module `__getattr__`, to the analytic engine's own functions, which are then
bound here: the engine loads scipy.special and mpmath, which a Monte Carlo
run never needs.
"""

import importlib

from .link import (InfeasibleConfigError, SystemConfig, UnresolvedNumericsError,
                   UnsupportedModelError)
from .montecarlo import McEstimate, estimate_op

__version__ = "0.1.0"


def __getattr__(name):
    # only these names: "analysis" itself must raise, so that `from . import
    # analysis` imports the submodule instead of recursing into this hook
    if name in ("op_closed_form", "op_numerical"):
        value = getattr(importlib.import_module(".analysis", __package__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Outage probability of an EH MIMO-NOMA downlink with joint antenna selection."""

from .analysis import UnresolvedNumericsError, op_closed_form, op_numerical
from .fading import MAJORITY_RANK_COEFFS, UnsupportedModelError, theta
from .link import (
    InfeasibleConfigError,
    SystemConfig,
    sinr,
    tau_star,
)
from .montecarlo import McEstimate, estimate_op

__version__ = "0.1.0"

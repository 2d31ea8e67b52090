"""Outage probability of an EH MIMO-NOMA downlink with joint antenna selection."""

from .analysis import (UnresolvedNumericsError, UnsupportedModelError, op_closed_form,
                       op_numerical)
from .link import InfeasibleConfigError, SystemConfig
from .montecarlo import McEstimate, estimate_op

__version__ = "0.1.0"

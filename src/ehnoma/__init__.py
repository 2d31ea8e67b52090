"""Outage probability of an EH MIMO-NOMA downlink with joint antenna selection."""

from .analysis import op_closed_form, op_numerical
from .fading import (
    MAJORITY_RANK_COEFFS,
    NakagamiParams,
    UnsupportedModelError,
    cdf_best_first_hop,
    cdf_majority_user,
    cdf_squared_gain,
    pdf_best_first_hop,
    pdf_squared_gain,
    sample_squared_gain,
    theta,
)
from .link import (
    InfeasibleConfigError,
    SystemConfig,
    outage_event,
    sinr,
    tau_star,
)
from .montecarlo import McEstimate, estimate_op, sample_realization
from .selection import (
    ChannelRealization,
    SelectionOutcome,
    jtras_maj,
    jtras_opt,
    order_users,
    select,
)

__version__ = "0.1.0"

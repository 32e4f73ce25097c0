"""Effective-capacity power allocation for two-way HD/FD relays with
finite-blocklength packets."""

from .capacity import EcPoint, ec_point, effective_capacity, per_sample_rates
from .channel import ChannelSamples, Geometry, load_csv, sample_channels, save_csv
from .fbl import fbl_rate, inverse_q, q_tail
from .link import (
    PowerAllocation,
    RelayMode,
    SystemParams,
    optimal_relay_power_fd,
    optimal_relay_power_hd,
    sinr_fd,
    snr_hd,
    threshold_roots_hd,
)
from .solver import (
    ParetoFrontier,
    SolveMethod,
    SolveReport,
    apply_threshold_policy,
    maximize_unimodal,
    pareto_epsilon_constraint,
    pareto_weighted,
    solve_approx,
    solve_exact,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSamples",
    "EcPoint",
    "Geometry",
    "ParetoFrontier",
    "PowerAllocation",
    "RelayMode",
    "SolveMethod",
    "SolveReport",
    "SystemParams",
    "apply_threshold_policy",
    "ec_point",
    "effective_capacity",
    "fbl_rate",
    "inverse_q",
    "load_csv",
    "maximize_unimodal",
    "optimal_relay_power_fd",
    "optimal_relay_power_hd",
    "pareto_epsilon_constraint",
    "pareto_weighted",
    "per_sample_rates",
    "q_tail",
    "sample_channels",
    "save_csv",
    "sinr_fd",
    "snr_hd",
    "solve_approx",
    "solve_exact",
    "threshold_roots_hd",
]

"""Effective-capacity power allocation for two-way HD/FD relays with
finite-blocklength packets."""

from .capacity import EcPoint, ec_point, effective_capacity
from .channel import ChannelSamples, Geometry, load_csv, sample_channels, save_csv
from .fbl import fbl_rate, inverse_q
from .link import (
    PowerAllocation,
    RelayMode,
    SystemParams,
    optimal_relay_power_fd,
    optimal_relay_power_hd,
    sinr_fd,
    snr_hd,
)
from .solver import (
    ParetoFrontier,
    SolveMethod,
    SolveReport,
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
    "sample_channels",
    "save_csv",
    "sinr_fd",
    "snr_hd",
    "solve_approx",
    "solve_exact",
]

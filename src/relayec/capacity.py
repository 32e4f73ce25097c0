"""Monte-Carlo effective-capacity estimators and the two scalarized
power-allocation objectives built on them.

The effective capacity of a node is the largest constant arrival rate its
transmit buffer can sustain while the delay tail decays with QoS exponent
theta.  Over a set of fading samples it is estimated as

    R_E = -(1 / (m theta)) * ln( mean_i[ exp(-r_i c theta) (1 - eps) + eps ] )

where r_i is the per-sample finite-blocklength rate and c counts the
channel uses one packet exchange occupies: m/2 in HD (two slots share the
frame) and m in FD.  Natural logarithm throughout.  Per-sample rates can
be negative in deep fades; they are kept as-is because the exponential
handles them exactly and truncation would bias the estimate.

The ``*_fn`` factories return closures over a fixed sample set with every
loop-invariant constant hoisted (the exact objective on two per-node
capacity closures); the solvers evaluate them inside their line searches.
The plain functions produce bit identical values through the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ChannelSamples
from .fbl import _rate_raw, rate_blocklength_bonus, rate_dispersion_scale
from .link import (
    PowerAllocation,
    RelayMode,
    SystemParams,
    _sinr_fd_raw,
    _snr_hd_raw,
)


@dataclass(frozen=True)
class EcPoint:
    """Per-node effective capacities attained at one allocation."""

    r_ea: float
    r_eb: float
    alloc: PowerAllocation

    def __post_init__(self):
        if not (np.isfinite(self.r_ea) and np.isfinite(self.r_eb)):
            raise ValueError("effective capacities must be finite")

    def weighted_sum(self, w: float) -> float:
        return w * self.r_ea + (1.0 - w) * self.r_eb


def rate_blocklength(params: SystemParams, mode: RelayMode) -> float:
    """Channel uses handed to the rate formula for one packet."""
    if mode is RelayMode.FD:
        return float(params.m)
    return params.m / 2.0 if params.hd_rate_blocklength == "m/2" else float(params.m)


def exponent_blocklength(params: SystemParams, mode: RelayMode) -> float:
    """Channel uses in the effective-capacity exponent (m/2 in HD, m in FD)."""
    return float(params.m) if mode is RelayMode.FD else params.m / 2.0


@dataclass(frozen=True)
class _NodeTerms:
    """Loop-invariant pieces of one node's estimator."""

    hr: np.ndarray
    ho: np.ndarray
    qscale: float
    bonus: float
    c_theta: float
    m_theta: float
    log1m_eps: float
    log_eps: float


def _node_terms(
    mode: RelayMode, samples: ChannelSamples, params: SystemParams, node: str
) -> _NodeTerms:
    if node not in ("A", "B"):
        raise ValueError(f"node must be 'A' or 'B', got {node!r}")
    hr, ho = (
        (samples.h_a, samples.h_b) if node == "A" else (samples.h_b, samples.h_a)
    )
    m_cu = rate_blocklength(params, mode)
    eps = params.eps_for(node)
    theta = params.theta_for(node)
    return _NodeTerms(
        hr=hr,
        ho=ho,
        qscale=rate_dispersion_scale(m_cu, eps),
        bonus=rate_blocklength_bonus(m_cu),
        c_theta=exponent_blocklength(params, mode) * theta,
        m_theta=params.m * theta,
        log1m_eps=math.log1p(-eps),
        log_eps=math.log(eps),
    )


def _gamma(mode: RelayMode, omega: float, p_r: float, p: float, t: _NodeTerms):
    if mode is RelayMode.HD:
        return _snr_hd_raw(p_r, p, t.hr, t.ho)
    return _sinr_fd_raw(p_r, p, omega, t.hr, t.ho)


def _log_mean_term(rates: np.ndarray, t: _NodeTerms) -> float:
    """ln( mean[exp(-r c theta)] (1 - eps) + eps ), computed without overflow."""
    z = -t.c_theta * rates
    zmax = float(z.max())
    log_mean_exp = math.log(float(np.mean(np.exp(z - zmax)))) + zmax
    return float(np.logaddexp(t.log1m_eps + log_mean_exp, t.log_eps))


def _capacity(mode: RelayMode, omega: float, p_r: float, p: float, t: _NodeTerms) -> float:
    rates = _rate_raw(_gamma(mode, omega, p_r, p, t), t.qscale, t.bonus)
    return -(_log_mean_term(rates, t) / t.m_theta)


def per_sample_rates(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    alloc: PowerAllocation,
    node: str,
) -> np.ndarray:
    """Finite-blocklength rate of one node for every fading sample."""
    t = _node_terms(mode, samples, params, node)
    gamma = _gamma(mode, params.omega, alloc.p_r, alloc.p_node, t)
    return _rate_raw(gamma, t.qscale, t.bonus)


def effective_capacity(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    alloc: PowerAllocation,
    node: str,
) -> float:
    """Monte-Carlo effective capacity of one node, in bits per channel use."""
    t = _node_terms(mode, samples, params, node)
    return _capacity(mode, params.omega, alloc.p_r, alloc.p_node, t)


def ec_point(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    alloc: PowerAllocation,
) -> EcPoint:
    return EcPoint(
        r_ea=effective_capacity(mode, samples, params, alloc, "A"),
        r_eb=effective_capacity(mode, samples, params, alloc, "B"),
        alloc=alloc,
    )


def weighted_objective_exact(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    alloc: PowerAllocation,
) -> float:
    """The scalarized minimization objective J = -w R_EA - (1-w) R_EB.

    Built from the same estimator kernels as :func:`effective_capacity`,
    so the identity J + w R_EA + (1-w) R_EB == 0 holds exactly.
    """
    return weighted_objective_fn(mode, samples, params)(alloc.p_r)


def surrogate_objective(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    alloc: PowerAllocation,
) -> float:
    """Min-max surrogate of the exact objective.

    Drops the expectation: tau is the worst sample's weighted rate term,

        tau = max_i[ -(w/2) r_A_i - ((1-w)/2) r_B_i ].

    Additive constants of the underlying log-mean-exp bound are omitted,
    so the value is comparable across allocations but not across parameter
    sets.  Much cheaper per evaluation than the exact objective: no
    per-sample exponentials or logarithms beyond the rate itself.
    """
    return surrogate_objective_fn(mode, samples, params)(alloc.p_r)


def node_capacity_fn(
    mode: RelayMode, samples: ChannelSamples, params: SystemParams, node: str
) -> Callable[[float], float]:
    """Closure evaluating one node's effective capacity at a relay power, bit
    identical to :func:`effective_capacity` at ``from_relay_power(p_r, p_tot)``."""
    t = _node_terms(mode, samples, params, node)
    omega = params.omega
    p_tot = params.p_tot

    def capacity(p_r: float) -> float:
        return _capacity(mode, omega, p_r, (p_tot - p_r) / 2.0, t)

    return capacity


def weighted_objective_fn(
    mode: RelayMode, samples: ChannelSamples, params: SystemParams
) -> Callable[[float], float]:
    """Closure evaluating the exact objective J at a relay power."""
    r_ea = node_capacity_fn(mode, samples, params, "A")
    r_eb = node_capacity_fn(mode, samples, params, "B")
    w = params.w

    def objective(p_r: float) -> float:
        return -(w * r_ea(p_r) + (1.0 - w) * r_eb(p_r))

    return objective


def surrogate_objective_fn(
    mode: RelayMode, samples: ChannelSamples, params: SystemParams
) -> Callable[[float], float]:
    """Closure evaluating the min-max surrogate tau at a relay power."""
    t_a = _node_terms(mode, samples, params, "A")
    t_b = _node_terms(mode, samples, params, "B")
    w = params.w
    omega = params.omega
    p_tot = params.p_tot

    def objective(p_r: float) -> float:
        p = (p_tot - p_r) / 2.0
        r_a = _rate_raw(_gamma(mode, omega, p_r, p, t_a), t_a.qscale, t_a.bonus)
        r_b = _rate_raw(_gamma(mode, omega, p_r, p, t_b), t_b.qscale, t_b.bonus)
        # max of -0.5 (w r_a + (1-w) r_b) without an extra array pass; the
        # half scale is a power of two, so this is the exact same value.
        return -0.5 * float(np.min(w * r_a + (1.0 - w) * r_b))

    return objective

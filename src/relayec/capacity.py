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

Every estimate runs through one blocked kernel.  Per ``_BLOCK`` samples it
computes the node-symmetric SINR pieces once, then each requested node's
SINR, rate and exponent z = -r c theta in place in one block buffer, and
keeps the block's maximum z_b and shifted sum s_b = sum exp(z - z_b).  The
blocks combine by the max-shifted sum ln mean exp(z) = Z + ln(sum_b s_b
exp(z_b - Z) / n), Z = max_b z_b, so no block can overflow or underflow the
total (Blanchard, Higham & Higham 2021, "Accurately computing the
log-sum-exp and softmax functions").  Memory stays a few block buffers.

The ``*_fn`` factories return closures over a fixed sample set with every
loop-invariant constant hoisted; the solvers evaluate them inside their
line searches.  A node's capacity does not depend on which other node is
evaluated with it, so the plain functions, the closures and ``ec_point``
agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ChannelSamples
from .fbl import _rate_into, fbl_rate, rate_blocklength_bonus, rate_dispersion_scale
from .link import (
    NODES,
    PowerAllocation,
    RelayMode,
    SystemParams,
    _sinr_node,
    _sinr_shared,
    sinr_fd,
)

_BLOCK = 2**15


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
    qscale: float
    bonus: float
    c_theta: float
    m_theta: float
    log1m_eps: float
    log_eps: float


def _node_terms(
    mode: RelayMode, samples: ChannelSamples, params: SystemParams, node: str
) -> _NodeTerms:
    if node not in NODES:
        raise ValueError(f"node must be 'A' or 'B', got {node!r}")
    m_cu = rate_blocklength(params, mode)
    eps = params.eps_for(node)
    theta = params.theta_for(node)
    return _NodeTerms(
        hr=samples.h_a if node == "A" else samples.h_b,
        qscale=rate_dispersion_scale(m_cu, eps),
        bonus=rate_blocklength_bonus(m_cu),
        c_theta=exponent_blocklength(params, mode) * theta,
        m_theta=params.m * theta,
        log1m_eps=math.log1p(-eps),
        log_eps=math.log(eps),
    )


def _block_rates_fn(mode: RelayMode, samples: ChannelSamples, params: SystemParams, nodes):
    """The terms of ``nodes`` and a generator function yielding, block by
    block, one rate array per node at (p_r, p).  The arrays are block
    buffers owned by the closure, overwritten by the next block."""
    terms = [_node_terms(mode, samples, params, node) for node in nodes]
    omega = params.omega_for(mode)
    n = len(samples)
    bufs = np.empty((3 + len(terms), min(n, _BLOCK)))
    blocks = []  # per block: buffer rows, both gains and each node's own gains
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        views = list(bufs[:, : hi - lo])
        blocks.append((views, samples.h_a[lo:hi], samples.h_b[lo:hi], [t.hr[lo:hi] for t in terms]))

    def rates(p_r: float, p: float):
        for (num, common, tmp, *out), h_a, h_b, h_rs in blocks:
            _, _, relay = _sinr_shared(p_r, p, omega, h_a, h_b, num, common)
            yield [
                _rate_into(_sinr_node(num, common, relay, h_r, o), t.qscale, t.bonus, tmp)
                for t, h_r, o in zip(terms, h_rs, out)
            ]

    return terms, rates


def _capacities_fn(
    mode: RelayMode, samples: ChannelSamples, params: SystemParams, nodes
) -> Callable[[float, float], list]:
    """Closure evaluating the effective capacities of ``nodes`` at (p_r, p)."""
    terms, rates = _block_rates_fn(mode, samples, params, nodes)
    n = len(samples)

    def capacities(p_r: float, p: float) -> list:
        per_node = [[] for _ in terms]
        for block in rates(p_r, p):
            for z, t, kept in zip(block, terms, per_node):
                z *= -t.c_theta
                z_max = float(np.maximum.reduce(z))
                z -= z_max
                kept.append((z_max, float(np.add.reduce(np.exp(z, out=z)))))
        out = []
        for t, kept in zip(terms, per_node):
            top = max(z_max for z_max, _ in kept)
            total = math.fsum(s * math.exp(z_max - top) for z_max, s in kept)
            # -ln( mean[exp(-r c theta)] (1 - eps) + eps ) / (m theta), by logaddexp
            a, b = t.log1m_eps + math.log(total / n) + top, t.log_eps
            out.append(-(max(a, b) + math.log1p(math.exp(-abs(a - b)))) / t.m_theta)
        return out

    return capacities


def per_sample_rates(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    alloc: PowerAllocation,
    node: str,
) -> np.ndarray:
    """Finite-blocklength rate of one node for every fading sample."""
    gamma = sinr_fd(alloc, params.omega_for(mode), samples.h_a, samples.h_b, node)
    return fbl_rate(gamma, rate_blocklength(params, mode), params.eps_for(node))


def effective_capacity(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    alloc: PowerAllocation,
    node: str,
) -> float:
    """Monte-Carlo effective capacity of one node, in bits per channel use."""
    return _capacities_fn(mode, samples, params, (node,))(alloc.p_r, alloc.p_node)[0]


def ec_point(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    alloc: PowerAllocation,
) -> EcPoint:
    r_ea, r_eb = _capacities_fn(mode, samples, params, NODES)(alloc.p_r, alloc.p_node)
    return EcPoint(r_ea=r_ea, r_eb=r_eb, alloc=alloc)


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
    capacities = _capacities_fn(mode, samples, params, (node,))
    p_tot = params.p_tot

    def capacity(p_r: float) -> float:
        return capacities(p_r, (p_tot - p_r) / 2.0)[0]

    return capacity


def weighted_objective_fn(
    mode: RelayMode, samples: ChannelSamples, params: SystemParams
) -> Callable[[float], float]:
    """Closure evaluating the exact objective J at a relay power."""
    capacities = _capacities_fn(mode, samples, params, NODES)
    w = params.w
    p_tot = params.p_tot

    def objective(p_r: float) -> float:
        r_ea, r_eb = capacities(p_r, (p_tot - p_r) / 2.0)
        return -(w * r_ea + (1.0 - w) * r_eb)

    return objective


def surrogate_objective_fn(
    mode: RelayMode, samples: ChannelSamples, params: SystemParams
) -> Callable[[float], float]:
    """Closure evaluating the min-max surrogate tau at a relay power."""
    _, rates = _block_rates_fn(mode, samples, params, NODES)
    w = params.w
    p_tot = params.p_tot

    def objective(p_r: float) -> float:
        # max of -0.5 (w r_a + (1-w) r_b); the half scale is a power of two,
        # so scaling the minimum gives the exact same value.
        low = math.inf
        for r_a, r_b in rates(p_r, (p_tot - p_r) / 2.0):
            r_a *= w
            r_b *= 1.0 - w
            low = min(low, float(np.minimum.reduce(np.add(r_a, r_b, out=r_a))))
        return -0.5 * low

    return objective

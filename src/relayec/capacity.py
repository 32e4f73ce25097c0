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

Every estimate runs through one blocked kernel over K >= 1 relay powers.
Per block of samples and chunk of relay powers it computes the
node-symmetric SINR pieces once, then every requested node's SINR, rate and
exponent z = -r c theta in place in one buffer, and keeps each row's block
maximum z_b and shifted sum s_b = sum exp(z - z_b).  The blocks combine by
ln mean exp(z) = Z + ln(sum_b s_b exp(z_b - Z) / n), Z = max_b z_b, so no
block can overflow or underflow the total (Blanchard, Higham & Higham 2021,
"Accurately computing the log-sum-exp and softmax functions").

The scalar functions and ``*_fn`` closures are its one-row case; the
solvers evaluate many line-search probes per call.  Neither a node's
capacity nor a row's depends on what else is evaluated with it, so every
entry point agrees bit for bit, and memory stays a few block buffers.
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
    _sinr_coefficients,
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


def _row_chunk(rows: list, r0: int, k: int):
    """Rows r0 .. r0 + k of per-row tuples as one column per field; one row
    stays plain floats, which keeps its pass on numpy's scalar paths."""
    return rows[r0] if k == 1 else np.array(rows[r0 : r0 + k]).T[:, :, None]


def _per_node(values: list) -> dict:
    """Per-node constants along the node axis, keyed by the rank of the
    arrays they scale; one node's stays a plain float."""
    col = np.array(values).reshape(-1, 1, 1) if len(values) > 1 else values[0]
    return {2: col[:, 0] if len(values) > 1 else col, 3: col}


def _kernel(mode: RelayMode, samples: ChannelSamples, params: SystemParams, nodes):
    """The blocked kernel for ``nodes`` as two closures over K >= 1 relay
    powers p_r with node powers p (by default the budget left after p_r,
    split): ``capacities(p_r, p)``, per row a list of per-node capacities,
    and, for both nodes, ``taus(p_r, w, p)``, per row the min-max surrogate
    at the row's weight, each bit for bit what a one-row call returns.

    A pass covers k rows and a block of samples in one (nodes, k, samples)
    array (no k axis for one row) of a buffer sized at the largest chunk
    served; k times the block's samples stays within ``_BLOCK`` for any n, K."""
    terms = [_node_terms(mode, samples, params, node) for node in nodes]
    qscale, neg_c_theta = _per_node([t.qscale for t in terms]), _per_node([-t.c_theta for t in terms])
    bonus = terms[0].bonus  # the blocklength is the same at both nodes
    omega = params.omega_for(mode)
    n = len(samples)
    width = min(n, _BLOCK)
    rows = _BLOCK // width
    blocks = [
        (samples.h_a[lo : lo + width], samples.h_b[lo : lo + width], [t.hr[lo : lo + width] for t in terms])
        for lo in range(0, n, width)
    ]
    slots = 2 + len(terms)  # num, common, one SINR per node, then one scratch per node
    bufs = np.empty((slots + len(terms), 1, width))
    cached = {}  # rows per pass -> per block: gains and buffer views

    def views(k: int) -> list:
        if k not in cached:
            buf = bufs[:, :k] if k > 1 else bufs[:, 0]
            cached[k] = [
                (h_a, h_b, *buf[:2, ..., : len(h_a)], list(zip(h_rs, buf[2:slots, ..., : len(h_a)])),
                 buf[2:slots, ..., : len(h_a)], buf[slots:, ..., : len(h_a)])
                for h_a, h_b, h_rs in blocks
            ]
        return cached[k]

    def rates(p_r, p):
        """Per pass: its first row, its row count and its rate array."""
        nonlocal bufs
        p = [(params.p_tot - x) / 2.0 for x in p_r] if p is None else p
        coef = [_sinr_coefficients(x, y, omega) for x, y in zip(p_r, p)]
        if bufs.shape[1] < min(len(p_r), rows):
            bufs = np.empty((len(bufs), min(len(p_r), rows), width))
            cached.clear()
        for r0 in range(0, len(p_r), rows):
            k = min(rows, len(p_r) - r0)
            chunk = _row_chunk(coef, r0, k)
            for h_a, h_b, num, common, outs, gamma, tmp in views(k):
                _, _, relay = _sinr_shared(chunk, h_a, h_b, num, common)
                for h_r, out in outs:
                    _sinr_node(num, common, relay, h_r, out)
                yield r0, k, _rate_into(gamma, qscale[gamma.ndim], bonus, tmp)

    def capacities(p_r, p=None) -> list:
        kept = [[[] for _ in terms] for _ in p_r]  # per row and node: (z_b, s_b) per block
        for r0, k, z in rates(p_r, p):
            z *= neg_c_theta[z.ndim]
            z_max = np.maximum.reduce(z, axis=-1, keepdims=True)
            z -= z_max
            sums = np.add.reduce(np.exp(z, out=z), axis=-1)
            pairs = zip(z_max.reshape(len(terms), k).T.tolist(), sums.reshape(len(terms), k).T.tolist())
            for row, (z_bs, s_bs) in zip(kept[r0:], pairs):
                for node_blocks, z_b, s_b in zip(row, z_bs, s_bs):
                    node_blocks.append((z_b, s_b))
        out = []
        for row in kept:
            out.append([])
            for t, node_blocks in zip(terms, row):
                top = max(z_b for z_b, _ in node_blocks)
                total = math.fsum(s * math.exp(z_b - top) for z_b, s in node_blocks)
                # -ln( mean[exp(-r c theta)] (1 - eps) + eps ) / (m theta), by logaddexp
                a, b = t.log1m_eps + math.log(total / n) + top, t.log_eps
                out[-1].append(-(max(a, b) + math.log1p(math.exp(-abs(a - b)))) / t.m_theta)
        return out

    def taus(p_r, w, p=None) -> list:
        low = []
        weights = [(x, 1.0 - x) for x in w]
        for r0, k, (r_a, r_b) in rates(p_r, p):
            w_a, w_b = _row_chunk(weights, r0, k)
            r_a *= w_a
            r_b *= w_b
            block_low = np.minimum.reduce(np.add(r_a, r_b, out=r_a), axis=-1).reshape(k).tolist()
            # a chunk's first block opens its rows, later blocks lower them
            low[r0:] = map(min, low[r0:], block_low) if r0 < len(low) else block_low
        # max of -0.5 (w r_a + (1-w) r_b); the half scale is a power of two,
        # so scaling the minimum gives the exact same value.
        return [-0.5 * x for x in low]

    return capacities, taus


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
    return _kernel(mode, samples, params, (node,))[0]([alloc.p_r], [alloc.p_node])[0][0]


def ec_point(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    alloc: PowerAllocation,
) -> EcPoint:
    [(r_ea, r_eb)] = _kernel(mode, samples, params, NODES)[0]([alloc.p_r], [alloc.p_node])
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
    capacities, _ = _kernel(mode, samples, params, (node,))
    return lambda p_r: capacities([p_r])[0][0]


def weighted_objective_fn(
    mode: RelayMode, samples: ChannelSamples, params: SystemParams
) -> Callable[[float], float]:
    """Closure evaluating the exact objective J at a relay power."""
    capacities, _ = _kernel(mode, samples, params, NODES)
    w = params.w

    def objective(p_r: float) -> float:
        [(r_ea, r_eb)] = capacities([p_r])
        return -(w * r_ea + (1.0 - w) * r_eb)

    return objective


def surrogate_objective_fn(
    mode: RelayMode, samples: ChannelSamples, params: SystemParams
) -> Callable[[float], float]:
    """Closure evaluating the min-max surrogate tau at a relay power."""
    _, taus = _kernel(mode, samples, params, NODES)
    w = params.w
    return lambda p_r: taus([p_r], [w])[0]

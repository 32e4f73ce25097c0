"""Monte-Carlo effective-capacity estimators and the min-max surrogate the
approximate solver searches.

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
Per block of samples and chunk of relay powers it computes every requested
node's SINR, rate and exponent z = -r c theta in place in one buffer, with
a node axis for two nodes, and keeps each row's block maximum z_b and
shifted sum s_b = sum exp(z - z_b) in arrays.  The blocks combine by
ln mean exp(z) = Z + ln(sum_b s_b exp(z_b - Z) / n), Z = max_b z_b, so no
block can overflow or underflow the total (Blanchard, Higham & Higham 2021,
"Accurately computing the log-sum-exp and softmax functions").

Every pass forms the node-symmetric SINR pieces num and common once per
row, as (k, samples) arrays shared by the nodes, and finishes each node's
SINR from them in its slice of a (nodes, k, samples) array.  When the
samples fit one block (n <= ``_BLOCK``), every pass reuses it, so H_A H_B
and H_A + H_B are computed once.  For a one-row two-node pass the rate's
per-node scale is then laid out as a full (nodes, n) array; a pass of k > 1
rows takes every per-node constant as a (nodes, 1, 1) column instead,
because spreading the full row to (nodes, 1, n) is slow under any buffer.
Above one block the products would be n-sized arrays held per kernel, so
each pass forms them in its block buffer instead, and memory stays a few
blocks.

A call of more than one relay power runs under a ufunc buffer of
``_BUFSIZE`` elements, set by ``np.setbufsize`` and restored on return.
numpy 2 sends a ufunc whose inner dimension is below a third of its
buffer (2731 samples at the default 8192) through buffered copies, which
made each (k, 1) column broadcast over a 1000-sample row about 4x slower
than its unbuffered loop.  Under the smaller buffer num, common, the per-node
denominators, z - z_max and the weight columns run on the unbuffered
strided loops; every element goes through the same IEEE operations, so
no bit moves.  One-row calls keep the caller's buffer: setting and
restoring it costs more than it saves there.

``effective_capacity`` and ``ec_point`` are its one-row case; the
solvers evaluate many line-search probes per call.  Neither a node's capacity nor a row's
depends on what else is evaluated with it, so every entry point agrees
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
# ufunc buffer, in elements, of multi-row calls (see the module docstring)
_BUFSIZE = 1024


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


class _NodeTerms(NamedTuple):
    """Loop-invariant pieces of one node's estimator."""

    hr: np.ndarray
    qscale: float
    c_theta: float
    m_theta: float
    log1m_eps: float
    log_eps: float

    def capacity(self, peak: float, total: float, n: int) -> float:
        """-ln( mean[exp(-r c theta)] (1 - eps) + eps ) / (m theta), by
        logaddexp, from the mean's ln(total / n) + peak."""
        a, b = self.log1m_eps + math.log(total / n) + peak, self.log_eps
        return -(max(a, b) + math.log1p(math.exp(-abs(a - b)))) / self.m_theta


def _node_terms(samples: ChannelSamples, params: SystemParams, node: str, m_cu: float, c: float) -> _NodeTerms:
    """One node's terms at rate blocklength ``m_cu`` and exponent blocklength ``c``."""
    if node not in NODES:
        raise ValueError(f"node must be 'A' or 'B', got {node!r}")
    eps, theta = params.eps_for(node), params.theta_for(node)
    hr = samples.h_a if node == "A" else samples.h_b
    return _NodeTerms(hr, rate_dispersion_scale(m_cu, eps), c * theta, params.m * theta, math.log1p(-eps), math.log(eps))


def _rows(fn):
    """A kernel closure ``fn(p_r, *columns)`` that rejects a column whose
    length is not p_r's and runs a call of several rows under the ufunc
    buffer ``_BUFSIZE``, restoring the caller's buffer size on return."""

    def call(p_r, *columns):
        for col in columns:
            if col is not None and len(col) != len(p_r):
                raise ValueError(f"got {len(col)} entries for {len(p_r)} relay powers")
        if len(p_r) < 2:
            return fn(p_r, *columns)
        old = np.setbufsize(_BUFSIZE)  # not np.errstate: numpy < 2 does not restore it there
        try:
            return fn(p_r, *columns)
        finally:
            np.setbufsize(old)

    return call


def _kernel(mode: RelayMode, samples: ChannelSamples, params: SystemParams, nodes):
    """The blocked kernel for ``nodes`` as two closures over K >= 1 relay
    powers p_r with node powers p (by default the budget left after p_r,
    split): ``capacities(p_r, p)``, per row a list of per-node capacities,
    and, for both nodes, ``taus(p_r, w, p)``, per row the min-max surrogate
    at the row's weight, each bit for bit what a one-row call returns.

    The surrogate drops the expectation: tau is the worst sample's weighted
    rate term,

        tau = max_i[ -(w/2) r_A_i - ((1-w)/2) r_B_i ],

    without the additive constants of the log-mean-exp bound it stands in
    for, so it compares allocations but not parameter sets.  It needs no
    per-sample exponential or logarithm beyond the rate itself.

    A pass covers k rows and a block of samples in one (nodes, k, samples)
    array, with no node axis for one node and no k axis for one row, of a
    buffer sized at the largest chunk served; k times the block's samples
    stays within ``_BLOCK`` for any n, K.  Its SINR pieces num and common
    are (k, samples) arrays shared by the nodes.  A call of several rows
    runs under the ufunc buffer ``_BUFSIZE``, and its passes take the
    per-node constants as (nodes, 1, 1) columns (module docstring); a
    p or w whose length is not p_r's raises ValueError."""
    m_cu, c = rate_blocklength(params, mode), exponent_blocklength(params, mode)
    bonus = rate_blocklength_bonus(m_cu)
    terms = [_node_terms(samples, params, node, m_cu, c) for node in nodes]
    omega, p_tot = params.omega_for(mode), params.p_tot
    n, lanes = len(samples), len(terms)
    width = min(n, _BLOCK)
    rows = _BLOCK // width
    h_a, h_b = samples.h_a, samples.h_b
    hoisted = n <= _BLOCK  # one block, reused by every pass (module docstring)
    neg_c_theta, qscale = [-t.c_theta for t in terms], [t.qscale for t in terms]
    if lanes == 1:
        neg_c_theta, qscale = neg_c_theta[0], qscale[0]
    else:  # per-node columns
        neg_c_theta, qscale = np.array(neg_c_theta)[:, None], np.array(qscale)[:, None]
    if not hoisted:  # per block: the gains, whose product and sum each pass forms
        blocks = [
            (h_a[lo : lo + width], h_b[lo : lo + width], [t.hr[lo : lo + width] for t in terms])
            for lo in range(0, n, width)
        ]
    else:
        blocks = [(h_a * h_b, h_a + h_b, [t.hr for t in terms])]
    # a one-row two-node pass over the one block takes qscale as a full (nodes, n) row
    q_row = np.repeat(qscale, width, 1) if hoisted and lanes > 1 else qscale
    # num and common, then the SINRs; the rate's scratch reuses num and common
    bufs = np.empty((2 + lanes, 1, width))
    node_axis = slice(None) if lanes > 1 else 0
    cached = {}  # rows per pass -> per block: gains, buffer views, per-node constants

    def views(k: int) -> list:
        """Per block: its gains, buffer views and per-node constants for k rows."""
        buf = bufs[:, :k] if k > 1 else bufs[:, 0]
        # only one block serves k > 1 rows; two nodes' constants are then (nodes, 1, 1) columns
        if k > 1 and lanes > 1:
            q, scale = qscale[:, None], neg_c_theta[:, None]
        else:
            q, scale = q_row, neg_c_theta
        cached[k] = []
        for g1, g2, own in blocks:
            sub = buf[..., : g1.shape[-1]]
            # one num and common row per relay power, shared by the nodes
            num, common, gamma = sub[0], sub[1], sub[2:] if lanes > 1 else sub[2]
            tmp = sub[:lanes] if lanes > 1 else sub[0]
            # each node's SINR from the shared pieces, one node at a time
            steps = list(zip(own, gamma if lanes > 1 else [gamma]))
            cached[k].append((g1, g2, num, common, steps, gamma, tmp, q, scale))
        return cached[k]

    def rates(p_r, p):
        """Per pass: its block, its rows (an index, or a slice when k > 1),
        its rate array and the per-node exponent scale -c theta shaped to it."""
        nonlocal bufs
        if bufs.shape[1] < min(len(p_r), rows):  # grow the buffer to the largest chunk
            bufs = np.empty((len(bufs), min(len(p_r), rows), width))
            cached.clear()
        for r0 in range(0, len(p_r), rows):
            xs = p_r[r0 : r0 + rows]
            ys = [(p_tot - x) / 2.0 for x in xs] if p is None else p[r0 : r0 + rows]
            # the SINR factors per row, as columns; one row's stay floats, on numpy's scalar paths
            coef = [_sinr_coefficients(x, y, omega) for x, y in zip(xs, ys)]
            k = len(coef)
            at, chunk = (r0, coef[0]) if k == 1 else (slice(r0, r0 + k), np.array(coef).T[:, :, None])
            for b, (hh, hs, num, common, steps, gamma, tmp, q, scale) in enumerate(cached.get(k) or views(k)):
                if not hoisted:  # the block's gain product and sum
                    hh, hs = np.multiply(hh, hs, num), np.add(hh, hs, common)
                _, _, relay = _sinr_shared(chunk, hh, hs, num, common)
                for h_r, out in steps:
                    _sinr_node(num, common, relay, h_r, out)
                yield b, at, _rate_into(gamma, q, bonus, tmp), scale

    @_rows
    def capacities(p_r, p=None) -> list:
        kept = np.empty((2, len(blocks), lanes, len(p_r)))  # per block, node and row: z_b and s_b
        for b, at, z, neg_c_theta in rates(p_r, p):
            np.multiply(z, neg_c_theta, z)
            z_max = np.maximum.reduce(z, -1, None, kept[0, b, node_axis, at, ...])
            np.exp(np.subtract(z, z_max[..., None], z), z)
            np.add.reduce(z, -1, None, kept[1, b, node_axis, at, ...])
        top, sums = kept[:, 0].tolist()  # per node and row
        if len(blocks) > 1:  # Z = max_b z_b and sum_b s_b exp(z_b - Z)
            for i, r in np.ndindex(lanes, len(p_r)):
                z_bs, s_bs = kept[:, :, i, r].tolist()
                top[i][r] = z_max = max(z_bs)
                sums[i][r] = math.fsum([s * math.exp(z_b - z_max) for z_b, s in zip(z_bs, s_bs)])
        return [
            [t.capacity(peak, total, n) for t, peak, total in zip(terms, z_row, s_row)]
            for z_row, s_row in zip(zip(*top), zip(*sums))
        ]

    @_rows
    def taus(p_r, w, p=None) -> list:
        low = np.empty((len(blocks), len(p_r)))  # per block and row: the minimum
        for b, at, (r_a, r_b), _ in rates(p_r, p):
            w_a = w[at] if isinstance(at, int) else np.array(w[at])[:, None]
            np.multiply(r_a, w_a, r_a)
            np.multiply(r_b, 1.0 - w_a, r_b)
            np.minimum.reduce(np.add(r_a, r_b, r_a), -1, None, low[b, at, ...])
        # max of -0.5 (w r_a + (1-w) r_b); the half scale is a power of two,
        # so scaling the minimum gives the exact same value.
        return (-0.5 * (np.minimum.reduce(low, 0) if len(blocks) > 1 else low[0])).tolist()

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

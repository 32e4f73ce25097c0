"""Monte-Carlo effective-capacity estimators and the min-max surrogate the
approximate solver searches.

The effective capacity of a node is the largest constant arrival rate its
transmit buffer can sustain while the delay tail decays with QoS exponent
theta.  Over a set of fading samples it is estimated as

    R_E = -(1 / (m theta)) * ln( mean_i[ exp(-r_i c theta) (1 - eps) + eps ] )

where r_i is the per-sample finite-blocklength rate and c counts the
channel uses one packet exchange occupies (``link._mode_terms``).  Natural
logarithm throughout.  Per-sample rates can be negative in deep fades; they
are kept as-is because the exponential handles them exactly and truncation
would bias the estimate.

Every estimate runs through one blocked kernel over K >= 1 relay powers.
Per block of samples and chunk of relay powers it computes every requested
node's SINR, rate and exponent z = -r c theta in place in one buffer, with
a node axis for one node as for two, and keeps each row's block maximum z_b and
shifted sum s_b = sum exp(z - z_b) in arrays.  The blocks combine by
ln mean exp(z) = Z + ln(sum_b s_b exp(z_b - Z) / n), Z = max_b z_b, so no
block can overflow or underflow the total (Blanchard, Higham & Higham 2021,
"Accurately computing the log-sum-exp and softmax functions").

Every pass forms the node-symmetric SINR pieces num and common once per
row, as (k, samples) arrays shared by the nodes, and finishes each node's
SINR from them in its slice of a (nodes, k, samples) array, in views it
takes afresh of its worker's buffer.  When the samples fit one block
(n <= ``_BLOCK``), every pass reuses it, so H_A H_B, H_A + H_B and the
nodes' own gains are formed once, each as a full (nodes, n) array.  A
one-row pass there, each exact line-search probe, is one straight run of
ufuncs: with the rate's per-node scale and the exponent scale -c theta also
full rows, only z - z_b broadcasts, a (nodes, 1) column through numpy 2's
buffered path (below), which slows an (n,) row spread over the nodes as
well.  It writes z_b and s_b into arrays the kernel owns and allocates no
array memory.  Every other pass takes each per-node constant as a column,
(nodes, 1), or (nodes, 1, 1) for k > 1 rows, for one node as for two,
because spreading the full row to (nodes, 1, n) is slow under any buffer.
Above one block the full rows would be n-sized arrays held per kernel, so
each pass forms the products in its block buffer, and memory stays one
block buffer per worker.

A pass over two or more blocks splits them between ``_WORKERS`` workers,
min(2, the CPUs this process may run on, the blocks): the calling thread
takes blocks 0, 2, ... and one pool thread, started on the first such
pass, takes blocks 1, 3, ..., each in its own block buffer.  numpy
releases the interpreter lock inside each ufunc, so the two overlap; on
2 vCPUs an ``ec_point`` at n = 10^6 ran 1.4-1.7x faster.  A block's z_b
and s_b (or its minimum) land in its own slot, and the slots combine in
block order after both workers are done, so the result is the same bit
for bit at any worker count.  The pool thread runs under a copy of the
caller's context, which in numpy 2 carries ``np.errstate`` and
``np.setbufsize``, and an exception it raises reaches the caller
unchanged.  Passes of one block run on the calling thread alone.

A call of three or more relay powers runs under a ufunc buffer of
``_BUFSIZE`` elements, set by ``np.setbufsize`` and restored on return.
numpy 2 sends a ufunc whose inner dimension is below a third of its
buffer (2731 samples at the default 8192) through buffered copies, which
made each (k, 1) column broadcast over a 1000-sample row about 4x slower
than its unbuffered loop.  Under the smaller buffer num, common, the per-node
denominators, z - z_max and the weight columns run on the unbuffered
strided loops; every element goes through the same IEEE operations, so
no bit moves.  One- and two-row calls keep the caller's buffer: setting
and restoring it costs more than it saves there.

``effective_capacity`` and ``ec_point`` are its one-row case; the
solvers evaluate many line-search probes per call.  Neither a node's
capacity nor a row's depends on what else is evaluated with it, so every
entry point agrees bit for bit.  The approximate solver's surrogate is
evaluated by ``_surrogate`` instead: one O(n) prune per solve keeps the
few samples that can attain its minimum over the search span, and each
probe evaluates only those, in Python floats or, above
``_FLOAT_SAMPLES`` of them, by this kernel over them.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from itertools import cycle
from typing import NamedTuple

import numpy as np

from .channel import ChannelSamples
from .fbl import _rate_into, rate_blocklength_bonus, rate_dispersion_scale
from .link import (
    NODES,
    PowerAllocation,
    RelayMode,
    SystemParams,
    _mode_terms,
    _oriented,
    _sinr_coefficients,
    _sinr_node,
    _sinr_shared,
    optimal_relay_power_fd,
)

_BLOCK = 2**15
# workers of a pass over two or more blocks: the caller and at most one pool thread (module docstring)
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
_pool = None  # the pool thread's executor, made by _submit
_pool_lock = threading.Lock()
# ufunc buffer, in elements, of calls of three or more rows (see the module docstring)
_BUFSIZE = 1024
# kept samples up to which the surrogate is evaluated in Python floats, not by the kernel
_FLOAT_SAMPLES = 24
# relative rounding margin of the surrogate prune's threshold
_MARGIN = 1e-9


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
    hr, _ = _oriented(samples.h_a, samples.h_b, node)
    eps, theta = params.eps_for(node), params.theta_for(node)
    return _NodeTerms(hr, rate_dispersion_scale(m_cu, eps), c * theta, params.m * theta, math.log1p(-eps), math.log(eps))


def _end_capacities(mode: RelayMode, samples: ChannelSamples, params: SystemParams) -> list:
    """Both nodes' capacities at p_r = 0 and at p_r = p_tot, where every SINR is 0
    and every rate the blocklength bonus: the kernel's values there, bit for bit."""
    _, m_cu, c = _mode_terms(mode, params)
    bonus, n = rate_blocklength_bonus(m_cu), len(samples)
    terms = [_node_terms(samples, params, node, m_cu, c) for node in NODES]
    return [t.capacity(bonus * -t.c_theta, n, n) for t in terms]


def _submit(fn, *args):
    """``fn(*args)`` as a future on the kernel's pool thread, under a copy of
    the caller's context; the thread starts on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(1, "relayec-kernel")
    return _pool.submit(contextvars.copy_context().run, fn, *args)


def _forget_pool():
    """In a forked child: the pool thread did not survive the fork, so its
    executor would queue work that never runs; the next pass starts a new one."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _kernel(mode: RelayMode, samples: ChannelSamples, params: SystemParams, nodes):
    """The blocked kernel for ``nodes`` as two closures over K >= 1 relay
    powers p_r: ``capacities(p_r, p)``, per row a list of per-node capacities
    at node powers p (by default the budget left after p_r, split), and, for
    both nodes, ``taus(p_r, w)``, per row the min-max surrogate at the row's
    weight and default split, each bit for bit what a one-row call returns.

    The surrogate drops the expectation: tau is the worst sample's weighted
    rate term,

        tau = max_i[ -(w/2) r_A_i - ((1-w)/2) r_B_i ],

    without the additive constants of the log-mean-exp bound it stands in
    for, so it compares allocations but not parameter sets.  It needs no
    per-sample exponential or logarithm beyond the rate itself.

    A pass covers k rows and a block of samples in one (nodes, k, samples)
    view (no k axis for one row), taken afresh, of its worker's buffer, sized
    at the largest chunk served; k times the block's samples stays within
    ``_BLOCK``.  The module docstring gives the buffer scope, the per-node
    columns (for any node count) and the workers.  A p or w whose length is
    not p_r's raises ValueError.  One closure must not be called from two
    threads at once: its workers' buffers serve one call at a time."""
    omega, m_cu, c = _mode_terms(mode, params)
    bonus = rate_blocklength_bonus(m_cu)
    terms = [_node_terms(samples, params, node, m_cu, c) for node in nodes]
    n, lanes = len(samples), len(terms)
    width = min(n, _BLOCK)
    rows = _BLOCK // width
    h_a, h_b = samples.h_a, samples.h_b
    hoisted = n <= _BLOCK  # one block, reused by every pass (module docstring)
    # per-node (nodes, 1) columns: the rate's scale and the exponent scale -c theta
    qscale, neg_c_theta = np.array([[t.qscale] for t in terms]), np.array([[-t.c_theta] for t in terms])
    if hoisted:  # the one-row pass's full rows: gain product, sum and own gains, rate and exponent scales
        hh, hs, gains = np.array([h_a * h_b] * lanes), np.array([h_a + h_b] * lanes), np.array([t.hr for t in terms])
        q_row, scale_row = np.repeat(qscale, n, 1), np.repeat(neg_c_theta, n, 1)
        blocks = [(hh[0], hs[0], gains)]
    else:  # per block: the gains, whose product and sum each pass forms
        blocks = [
            (h_a[lo : lo + width], h_b[lo : lo + width], [t.hr[lo : lo + width] for t in terms])
            for lo in range(0, n, width)
        ]
    # per worker: num and common, then the SINRs; the rate's scratch reuses num
    # and common.  One allocation: a buffer per worker, freed after every
    # ec_point, made glibc trim and refault its heap (480 page faults a call).
    bufs = np.empty((min(_WORKERS, len(blocks)), 2 + lanes, 1, width))
    row_top, row_sums = np.empty((2, lanes))  # per node: the one-row pass's z_b and s_b

    def run(worker: int, bs, k: int, at, chunk, reduce):
        """Blocks ``bs`` of one chunk's pass in views of the worker's buffer: the
        SINR pieces and rate, handed to ``reduce(b, at, z, scale)`` with the
        chunk's rows ``at`` (an index, or a slice when k > 1) and the
        per-node exponent scale -c theta shaped to the rate array z."""
        buf = bufs[worker, :, :k] if k > 1 else bufs[worker, :, 0]
        # only one block serves k > 1 rows; its per-node constants are then (nodes, 1, 1) columns
        q, scale = (qscale[:, None], neg_c_theta[:, None]) if k > 1 else (qscale, neg_c_theta)
        for b in bs:
            hh, hs, hrs = blocks[b]
            sub = buf[..., : hh.shape[-1]]
            # one num and common row per relay power, shared by the nodes, then their SINRs
            num, common, gamma = sub[0], sub[1], sub[2:]
            if not hoisted:  # the block's gain product and sum
                hh, hs = np.multiply(hh, hs, num), np.add(hh, hs, common)
            _, _, relay = _sinr_shared(chunk, hh, hs, num, common)
            for h_r, out in zip(hrs, gamma):  # one node at a time
                _sinr_node(num, common, relay, h_r, out)
            reduce(b, at, _rate_into(gamma, q, bonus, sub[:lanes]), scale)

    def passes(p_r, p, reduce):
        """Every chunk of rows over every block, by ``run``, at node powers p of
        p_r's length (None: the budget left, split), three or more rows under
        ``_BUFSIZE``.  A chunk of two or more blocks runs them on up to ``_WORKERS``
        workers: the caller takes blocks 0, 2, ..., the pool thread 1, 3, ..., each
        in its own buffer, and the call returns once both are done."""
        nonlocal bufs
        if bufs.shape[2] < min(len(p_r), rows):  # grow the buffer to the largest chunk (one worker)
            bufs = np.empty((1, 2 + lanes, min(len(p_r), rows), width))
        old = np.setbufsize(_BUFSIZE) if len(p_r) >= 3 else None  # not np.errstate: numpy < 2 does not restore it there
        try:
            for r0 in range(0, len(p_r), rows):
                xs = np.array(p_r[r0 : r0 + rows], float)[:, None]  # the chunk's powers, and SINR factors, as columns
                ys = (params.p_tot - xs) / 2.0 if p is None else np.array(p[r0 : r0 + rows], float)[:, None]
                k = len(xs)
                if k == 1:  # one row's SINR factors stay floats, on numpy's scalar paths
                    xs, ys = float(xs[0, 0]), float(ys[0, 0])
                at, chunk = (r0 if k == 1 else slice(r0, r0 + k)), _sinr_coefficients(xs, ys, omega)
                if len(bufs) == 1:
                    run(0, range(len(blocks)), k, at, chunk, reduce)
                    continue
                task = _submit(run, 1, range(1, len(blocks), 2), k, at, chunk, reduce)
                try:
                    run(0, range(0, len(blocks), 2), k, at, chunk, reduce)
                finally:
                    task.exception()  # waits: the pool thread is done with the chunk
                task.result()  # re-raises the pool thread's exception
        finally:
            if old is not None:
                np.setbufsize(old)

    def row(p_r: float, p) -> np.ndarray:
        """The one-row pass over the one block: every node's rate at p_r and node
        power p (None: the budget left, split), a (nodes, n) array in the buffer.
        Its SINR takes the ops of ``_sinr_shared`` and ``_sinr_node`` on full rows."""
        gamma, tmp = bufs[0, 2:, 0], bufs[0, :lanes, 0]
        pp, p_leak, leaks, relay = _sinr_coefficients(p_r, (params.p_tot - p_r) / 2.0 if p is None else p, omega)
        np.add(np.multiply(hs, p_leak, tmp), leaks, tmp)  # common
        np.add(np.multiply(gains, relay, gamma), tmp, gamma)  # relay h_r + common
        np.divide(np.multiply(hh, pp, tmp), gamma, gamma)  # num / (relay h_r + common)
        return _rate_into(gamma, q_row, bonus, tmp)

    def fold(z, scale, top, sums):
        """z = r scale in place, then per node (and row) z_b into ``top`` and s_b into ``sums``."""
        np.multiply(z, scale, z)
        np.maximum.reduce(z, -1, None, top)
        np.exp(np.subtract(z, top[..., None], z), z)
        np.add.reduce(z, -1, None, sums)

    def capacities(p_r, p=None) -> list:
        if p is not None and len(p) != len(p_r):
            raise ValueError(f"got {len(p)} entries for {len(p_r)} relay powers")
        if hoisted and len(p_r) == 1:  # the one-row pass, into the kernel's z_b and s_b
            fold(row(p_r[0], None if p is None else p[0]), scale_row, row_top, row_sums)
            return [[t.capacity(peak, total, n) for t, peak, total in zip(terms, row_top.tolist(), row_sums.tolist())]]
        kept = np.empty((2, len(blocks), lanes, len(p_r)))  # per block, node and row: z_b and s_b
        passes(p_r, p, lambda b, at, z, scale: fold(z, scale, kept[0, b, :, at, ...], kept[1, b, :, at, ...]))
        top, sums = kept[:, 0].tolist()  # per node and row
        if len(blocks) > 1:  # Z = max_b z_b and sum_b s_b exp(z_b - Z)
            for i, r in np.ndindex(lanes, len(p_r)):
                z_bs, s_bs = kept[:, :, i, r].tolist()
                top[i][r] = z_max = max(z_bs)
                sums[i][r] = math.fsum([s * math.exp(z_b - z_max) for z_b, s in zip(z_bs, s_bs)])
        per_node = [[t.capacity(peak, total, n) for peak, total in zip(zs, ss)] for t, zs, ss in zip(terms, top, sums)]
        return [list(caps) for caps in zip(*per_node)]

    def weigh(rs, w_a, low=None):
        """The least w r_A + (1 - w) r_B over the samples, into ``low`` when given."""
        r_a, r_b = rs
        np.multiply(r_a, w_a, r_a)
        np.multiply(r_b, 1.0 - w_a, r_b)
        return np.minimum.reduce(np.add(r_a, r_b, r_a), -1, None, low)

    def taus(p_r, w) -> list:
        if len(w) != len(p_r):
            raise ValueError(f"got {len(w)} entries for {len(p_r)} relay powers")
        # max of -0.5 (w r_a + (1-w) r_b); the half scale is a power of two,
        # so scaling the minimum gives the exact same value.
        if hoisted and len(p_r) == 1:
            return [-0.5 * float(weigh(row(p_r[0], None), w[0]))]
        # per block and row: the minimum; the weights as a column
        low, w_col = np.empty((len(blocks), len(p_r))), np.array(w, float)[:, None]
        passes(p_r, None, lambda b, at, rs, _: weigh(rs, w_col[at], low[b, at, ...]))
        return (-0.5 * (np.minimum.reduce(low, 0) if len(blocks) > 1 else low[0])).tolist()

    return capacities, taus


def _sinr_floats(p_r: float, p_tot: float, omega: float, pts: list) -> list:
    """u = 1 + SINR of both nodes at p_r per sample (h_a, h_b, h_a h_b, h_a + h_b), flat, by the kernel's ops."""
    pp, p_leak, leaks, relay = _sinr_coefficients(p_r, (p_tot - p_r) / 2.0, omega)
    us = []
    for h_a, h_b, hh, hs in pts:
        num, common = hh * pp, hs * p_leak + leaks
        us += (num / (h_a * relay + common) + 1.0, num / (h_b * relay + common) + 1.0)
    return us


def _surrogate(mode: RelayMode, samples: ChannelSamples, params: SystemParams, weights, lo: float, hi: float):
    """``taus(p_r, w)`` of :func:`_kernel`, bit for bit, for p_r in [lo, hi] and w
    in ``weights``, over only the samples whose g_i = w r_A_i + (1-w) r_B_i
    can be the least.  Per sample, each SINR is single-peaked in p_r, so on
    [lo, hi] it runs from its smaller end value to its value at its clipped
    closed-form peak, and the rate is quasiconvex in the SINR; that bounds
    g_i below by L_i, and above by U_j for each weight's three samples of
    least L_j.  A sample with L_i > min U_j plus a rounding margin is never
    the least; a weight batch keeps the union.  Up to ``_FLOAT_SAMPLES``
    kept samples are evaluated in Python floats, one ``np.log2`` call per
    probe (+, -, *, / and sqrt round as numpy's), more by the kernel."""
    (omega, m_cu, _), p_tot = _mode_terms(mode, params), params.p_tot
    qs, bonus = [rate_dispersion_scale(m_cu, params.eps_for(node)) for node in NODES], rate_blocklength_bonus(m_cu)
    h_a, h_b, n = samples.h_a, samples.h_b, len(samples)
    a_max, b_max = float(h_a.max()), float(h_b.max())
    # above this bound an SINR piece may overflow; then no bound holds, and NaN propagates as the kernel's
    if not (a_max * b_max + 2.0 * (a_max + b_max) + 1.0) * (p_tot + 1.0) ** 2 < 1e300:
        return _kernel(mode, samples, params, NODES)[1]
    r_low = np.empty((2, n))  # per node and sample: the least rate on [lo, hi]
    coefs = [_sinr_coefficients(x, (p_tot - x) / 2.0, omega) for x in (lo, hi)]
    # the rate falls in gamma until u sqrt(u^2 - 1) = q ln 2, u = 1 + gamma, and rises after
    turns = [math.sqrt(0.5 + 0.5 * math.sqrt(1.0 + 4.0 * (q * math.log(2.0)) ** 2)) - 1.0 for q in qs]
    for b0 in range(0, n, _BLOCK):  # memory stays a few blocks
        ha, hb = h_a[b0 : b0 + _BLOCK], h_b[b0 : b0 + _BLOCK]
        g, hh, hs = np.empty((2, 2, len(ha))), ha * hb, ha + hb  # g per end, node and sample
        for end, coef in zip(g, coefs):
            num, common, relay = _sinr_shared(coef, hh, hs)
            for h, out in zip((ha, hb), end):
                _sinr_node(num, common, relay, h, out)
        # per node, the smaller end value, then the least rate above it
        for r_i, g_lo, g_hi, turn, q in zip(r_low[:, b0 : b0 + _BLOCK], *g, turns, qs):
            _rate_into(np.maximum(np.minimum(g_lo, g_hi, out=r_i), turn, out=r_i), q, bonus, g_lo)
    tops, keep = {}, np.zeros(n, bool)  # per candidate j: each node's largest rate on [lo, hi]
    for w in weights:
        low = w * r_low[0] + (1.0 - w) * r_low[1]  # L_i
        for j in set(np.argpartition(low, min(2, n - 1))[:3].tolist()) - tops.keys():  # at an end or a clipped peak
            a, b = float(h_a[j]), float(h_b[j])
            peaks = [min(max(optimal_relay_power_fd(a, b, p_tot, omega, node), lo), hi) for node in NODES]
            us = [_sinr_floats(x, p_tot, omega, [(a, b, a * b, a + b)]) for x in (lo, hi, *peaks)]
            tops[j] = [max(math.log2(u[i]) - math.sqrt(1.0 - 1.0 / (u[i] * u[i])) * q + bonus for u in us)
                       for i, q in enumerate(qs)]
        top = min(w * t_a + (1.0 - w) * t_b for t_a, t_b in tops.values())  # min U_j
        keep |= low <= top + _MARGIN * (1.0 + abs(top))
    kept = np.flatnonzero(keep)
    if len(kept) > _FLOAT_SAMPLES:
        return _kernel(mode, ChannelSamples(h_a[kept], h_b[kept]), params, NODES)[1]
    pts = [(a, b, a * b, a + b) for a, b in zip(h_a[kept].tolist(), h_b[kept].tolist())]

    def taus(p_r, w) -> list:
        out = []
        for x, wk in zip(p_r, w):
            us = _sinr_floats(x, p_tot, omega, pts)
            rs = (v - math.sqrt(1.0 - 1.0 / (u * u)) * q + bonus for u, v, q in zip(us, np.log2(us).tolist(), cycle(qs)))
            out.append(-0.5 * min([r_a * wk + r_b * (1.0 - wk) for r_a, r_b in zip(rs, rs)]))
        return out

    return taus


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

"""Scalar power-allocation solvers over the relay-power axis.

All optimization here is one-dimensional: pick the relay power p_r in (0,
p_tot), the node power follows from the budget.  The exact solver maximizes
the Monte-Carlo weighted capacity by golden-section search, then compares
its answer with the kernel's own values at the budget's ends, where every
SINR is 0 and the rate is the positive blocklength bonus: every node
capacity has a local maximum there, which below about 0.3 W can beat every
interior point, and an end win reports p_r = 0.  In FD a weighted sum can
also peak twice, and the search can stop on the lower peak (a strict xfail
in test_solver).  The approximate solver minimizes the cheap min-max
surrogate instead, but only between the two closed-form single-node optima:
outside that interval the surrogate develops spurious minima (worst-sample
artifacts and a funnel where every SNR collapses to zero yet the
blocklength term keeps the rate positive), so the search is deliberately
local around the closed-form warm start.  A surrogate probe costs O(kept
samples): one O(n) prune per solve keeps the few samples that can attain
the minimum over that span.  Frontier tracing runs either solver across a
weight grid, or maximizes one node's capacity under a floor on the other,
with one peak search per node and a bracketing secant per floor crossing
that can bind: the one on node A's side of node B's peak.

Every search is a generator that yields its next probe and takes the value
back, so many run in lockstep: each round gathers every unfinished search's
probe and evaluates them all in one batched kernel call.  A weight sweep's
searches and a floor trace's crossings each advance that way; a single
solve is the one-search case.  No search's probe sequence depends on the
others, so lockstep changes no result.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .capacity import EcPoint, _Kernel, _kernel, _surrogate
from .channel import ChannelSamples
from .link import NODES, PowerAllocation, RelayMode, SystemParams, _mode_terms, optimal_relay_power_fd, sinr_fd

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GROWTH = 1.0 + INVPHI
MAX_ITER = 500

DOMINANCE_TOL = 1e-6


class SolveMethod(enum.Enum):
    EXACT = "exact"
    APPROXIMATE = "approx"


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one allocation solve."""

    alloc: PowerAllocation
    ec: EcPoint
    method: SolveMethod
    silenced: Optional[str]
    iterations: int
    objective_evals: int
    degenerate: bool = False


@dataclass(frozen=True)
class ParetoFrontier:
    """Non-dominated capacity pairs traced over a scalarization grid.

    ``parameter_grid`` holds the weight or floor value behind each
    surviving point, index-aligned with ``points``; floors that were
    infeasible are listed separately.
    """

    points: tuple[EcPoint, ...]
    parameter_grid: tuple[float, ...]
    infeasible: tuple[float, ...] = ()


@dataclass
class _SearchResult:
    x: float
    iterations: int
    probes: list[tuple[float, float]]


def _probe(probes: list, x: float):
    fx = yield x
    probes.append((x, fx))
    return fx


def _line_search(lo: float, hi: float, tol: float, x0: Optional[float]):
    """Golden-section maximization as a generator: yields each probe x,
    takes f(x) back by ``send`` and returns a :class:`_SearchResult`.  The
    search stops once its bracket is no wider than ``tol``, or after
    ``MAX_ITER`` iterations, and returns the bracket's midpoint unprobed."""
    probes: list[tuple[float, float]] = []
    iters = 0
    a, b = lo, hi

    if x0 is not None:
        # Bracket a maximum around the start point by geometric expansion.
        step = max(tol, 1e-2 * (hi - lo))
        xm = min(max(x0, lo), hi)
        a = max(lo, xm - step)
        b = min(hi, xm + step)
        fa = yield from _probe(probes, a)
        fm = yield from _probe(probes, xm)
        fb = yield from _probe(probes, b)
        while not (fm >= fa and fm >= fb):
            iters += 1
            if iters >= MAX_ITER or (a <= lo and b >= hi):
                a, b = lo, hi
                break
            step *= GROWTH
            if fa >= fb:
                b, fb = xm, fm
                xm, fm = a, fa
                a = max(lo, xm - step)
                fa = yield from _probe(probes, a)
            else:
                a, fa = xm, fm
                xm, fm = b, fb
                b = min(hi, xm + step)
                fb = yield from _probe(probes, b)

    # Golden-section shrink of [a, b].
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    if b - a > tol:
        fc = yield from _probe(probes, c)
        fd = yield from _probe(probes, d)
        while b - a > tol and iters < MAX_ITER:
            iters += 1
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - INVPHI * (b - a)
                fc = yield from _probe(probes, c)
            else:
                a, c, fc = c, d, fd
                d = a + INVPHI * (b - a)
                fd = yield from _probe(probes, d)

    return _SearchResult(x=0.5 * (a + b), iterations=max(iters, 1), probes=probes)


def _lockstep(searches: Sequence, evaluate: Callable[[list, list], list]) -> list:
    """Run search generators side by side and return their results.  Each
    round hands every unfinished search's probe to one ``evaluate(indices,
    xs)`` call, which returns their values in order, and sends them back."""
    results = [None] * len(searches)
    rows, values = range(len(searches)), [None] * len(searches)  # values aligned with rows
    while rows:
        live, xs = [], []
        for i, value in zip(rows, values):
            try:
                xs.append(searches[i].send(value))
                live.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        rows, values = live, evaluate(live, xs) if live else []
    return results


def _single_node_optima(mode: RelayMode, gains: tuple[float, float], params: SystemParams) -> tuple[float, float]:
    # The FD closed form at omega = 0 is the HD one bit for bit.
    omega = _mode_terms(mode, params)[0]
    return tuple(optimal_relay_power_fd(*gains, params.p_tot, omega, node) for node in NODES)


def line_search_tolerance(params: SystemParams) -> float:
    # The objectives are flat near their optimum; tighter tolerances only
    # burn evaluations.
    tol = 1e-6 * params.p_tot
    if not tol > 0.0:  # a subnormal budget underflows it; no bracket shrinks to zero width
        raise ValueError(f"line search tolerance must be > 0, got {tol} at p_tot={params.p_tot}")
    return tol


def _solve_weights(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    weights: Sequence[float],
    method: SolveMethod,
    *,
    apply_policy: bool = True,
) -> list[SolveReport]:
    """Solve the exact or the approximate problem at every weight, with all
    line searches in lockstep over one batched evaluator.  Each weight's
    probes, iterations and evaluations are those of a solve on its own."""
    tol = line_search_tolerance(params)
    gains = samples.mean_gains()
    optima = p_a, p_b = _single_node_optima(mode, gains, params)
    kernel = _kernel(mode, samples, params, NODES)
    exact = method is SolveMethod.EXACT
    if exact:
        def evaluate(rows: list, xs: list) -> list:
            return [weights[i] * r_a + (1.0 - weights[i]) * r_b for i, (r_a, r_b) in zip(rows, kernel.capacities(xs))]

        # Warm started at the weight's blend of the closed-form single-node optima.
        searches = [_line_search(0.0, params.p_tot, tol, w * p_a + (1.0 - w) * p_b) for w in weights]
    else:
        def evaluate(rows: list, xs: list) -> list:
            return [-tau for tau in taus(xs, [weights[i] for i in rows])]

        lo, hi = min(p_a, p_b), max(p_a, p_b)
        # The closed-form optima localize the search: a plain golden section over
        # their span, every probe in [lo, hi].  A span within tol probes nothing.
        taus = _surrogate(mode, samples, params, weights, lo, hi, kernel) if hi - lo > tol else None
        searches = [_line_search(lo, hi, tol, None) for _ in weights]
    results = _lockstep(searches, evaluate)

    # One full-sample pass at the returned relay powers gives the capacities
    # reported, each solve's last evaluation.  An exact answer gives way to the
    # budget's ends when the kernel's own values there weigh strictly more.
    ends, reports = kernel.ends, []
    for w, res, caps in zip(weights, results, kernel.capacities([res.x for res in results])):
        end_win = exact and w * ends[0] + (1.0 - w) * ends[1] > w * caps[0] + (1.0 - w) * caps[1]
        x, caps = (0.0, ends) if end_win else (res.x, caps)
        alloc = PowerAllocation.from_relay_power(x, params.p_tot)
        report = SolveReport(alloc, EcPoint(*caps, alloc), method, None, res.iterations, len(res.probes) + 1)
        reports.append(_threshold_policy(report, params, gains, optima, kernel) if apply_policy else report)
    return reports


def solve_exact(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    *,
    apply_policy: bool = True,
) -> SolveReport:
    """Maximize the exact Monte-Carlo weighted capacity over relay power.

    The search runs over the whole open budget interval, warm started at
    the closed-form blend; in FD it can stop on the lower of two peaks.  Its
    answer gives way to the budget's ends when they weigh strictly more, and
    an end win reports p_r = 0 (module docstring).  The capacities reported
    come from one full-sample pass at the relay power the search returns, the
    solve's last objective evaluation, or are the kernel's own end values.
    """
    return _solve_weights(mode, samples, params, (params.w,), SolveMethod.EXACT, apply_policy=apply_policy)[0]


def solve_approx(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    *,
    apply_policy: bool = True,
) -> SolveReport:
    """Minimize the min-max surrogate over relay power.

    The surrogate is searched only on the interval spanned by the two
    closed-form single-node optima: a priority-weighted compromise between
    single-peaked per-node objectives lies between their maximizers, and
    beyond them the surrogate's worst-sample structure turns multimodal
    (see module docstring).  One O(n) prune before the search keeps the
    samples whose weighted rate can be the worst on that interval, so each
    probe costs O(kept samples).  The capacities reported come from one
    full-sample pass at the relay power the search returns, the solve's
    last objective evaluation.
    """
    return _solve_weights(mode, samples, params, (params.w,), SolveMethod.APPROXIMATE, apply_policy=apply_policy)[0]


def _threshold_policy(
    report: SolveReport, params: SystemParams, gains: tuple[float, float], optima: tuple[float, float], kernel: _Kernel
) -> SolveReport:
    """Silence a node whose operating SNR falls below its threshold.

    SNRs are evaluated at the sample-mean gains ``gains`` and the solve's
    omega, matching the closed forms.  When one node falls below its
    threshold its stream is dropped (capacity reported as zero), the relay
    power is reset to the other node's closed-form optimum in ``optima`` and
    that node's capacity is read off the solve's ``kernel``; node powers
    still follow the budget.  When both fall below, the solution is returned
    unchanged with the degenerate flag set, which keeps sweeps comparable
    instead of transmitting nothing.
    """
    below_a, below_b = (
        float(sinr_fd(report.alloc, kernel.omega, *gains, node)) <= params.gamma_t_for(node) for node in NODES
    )
    if below_a and below_b:
        return replace(report, degenerate=True)
    if not (below_a or below_b):
        return report

    p_r = optima[1] if below_a else optima[0]  # the kept node's
    alloc = PowerAllocation.from_relay_power(p_r, params.p_tot)
    [(r_ea, r_eb)] = kernel.capacities([p_r])  # at the default node power, alloc's
    caps, silenced = ((0.0, r_eb), "A") if below_a else ((r_ea, 0.0), "B")
    return replace(report, alloc=alloc, ec=EcPoint(*caps, alloc), silenced=silenced)


def _frontier(points: Sequence[EcPoint], grid: Sequence[float], infeasible=()) -> ParetoFrontier:
    """The points no other beats by ``DOMINANCE_TOL`` in both capacities, with their grid values."""
    mask = [
        not any(q.r_ea >= p.r_ea + DOMINANCE_TOL and q.r_eb >= p.r_eb + DOMINANCE_TOL for q in points)
        for p in points
    ]
    return ParetoFrontier(
        points=tuple(p for p, keep in zip(points, mask) if keep),
        parameter_grid=tuple(float(x) for x, keep in zip(grid, mask) if keep),
        infeasible=infeasible,
    )


def pareto_weighted(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    w_grid: Sequence[float],
    method: SolveMethod = SolveMethod.APPROXIMATE,
) -> ParetoFrontier:
    """Trace the capacity frontier by sweeping the priority weight."""
    if method not in (SolveMethod.EXACT, SolveMethod.APPROXIMATE):
        raise ValueError(f"method must be SolveMethod.EXACT or SolveMethod.APPROXIMATE, got {method!r}")
    if len(w_grid) == 0:
        raise ValueError("w_grid must not be empty")
    for w in w_grid:
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"weights must lie in [0, 1], got {w}")
    reports = _solve_weights(mode, samples, params, list(w_grid), method)
    return _frontier([report.ec for report in reports], w_grid)


def _crossing(x_bad: float, f_bad: float, x_good: float, f_good: float, tol: float):
    """Feasible end of a bracket no wider than ``tol`` around the root of a
    monotone f, from x_bad (f < 0) and x_good (f >= 0) and their values; a
    generator like :func:`_line_search`, yielding each probe x and taking
    f(x) back.

    Illinois regula falsi: probes at the secant root, held tol/2 inside
    the bracket so that a probe next to the root closes it from the far
    side; an end kept twice in a row has its value halved.  When the good
    end has just moved onto a zero of f (a plateau at the floor), the
    secant root is that end itself, so the probe bisects instead of
    creeping by tol/2 while the bad value halves towards zero.
    """
    last = 0
    while abs(x_good - x_bad) > tol:
        h = 0.5 * tol / abs(x_good - x_bad)
        frac = 0.5 if last > 0 and f_good == 0.0 else f_good / (f_good - f_bad)
        x = x_good + min(max(frac, h), 1.0 - h) * (x_bad - x_good)
        fx = yield x
        if fx >= 0.0:
            if last > 0:
                f_bad *= 0.5
            x_good, f_good, last = x, fx, 1
        else:
            if last < 0:
                f_good *= 0.5
            x_bad, f_bad, last = x, fx, -1
    return x_good


def pareto_epsilon_constraint(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    mu_grid: Sequence[float],
) -> ParetoFrontier:
    """Trace the frontier by maximizing node A's capacity under a floor on
    node B's.

    Node B's capacity is single-peaked in relay power, so each feasible
    floor cuts out one interval [left, right] around B's peak x_peak.  Node
    A's capacity is single-peaked too, so its maximum inside is its peak
    x_A, searched once per call, clipped into the interval.  The clip reads
    only the end on x_A's side of x_peak, so only that end is located, by
    :func:`_crossing` from the budget's end on that side towards the peak,
    every floor's in lockstep.  Floors above the attainable maximum are
    skipped and reported.
    """
    if len(mu_grid) == 0:
        raise ValueError("mu_grid must not be empty")
    if not all(math.isfinite(mu) for mu in mu_grid):
        raise ValueError(f"floors must be finite, got {tuple(mu_grid)}")
    tol = line_search_tolerance(params)
    p_a, p_b = _single_node_optima(mode, samples.mean_gains(), params)

    def peak(capacities, x0: float) -> float:
        """Where a one-node capacity peaks, searched from its closed-form optimum."""
        search = _line_search(0.0, params.p_tot, tol, x0)
        return _lockstep([search], lambda _, xs: [ec for [ec] in capacities(xs)])[0].x

    eb_at = _kernel(mode, samples, params, ("B",)).capacities
    ea_at = _kernel(mode, samples, params, ("A",)).capacities
    x_peak = peak(eb_at, p_b)
    x_a = peak(ea_at, p_a)
    clip, x_end = (min, params.p_tot) if x_a >= x_peak else (max, 0.0)  # x_A's side of x_peak
    # B's value at its peak and at the budget's end on that side, in one pass
    [eb_peak], [eb_end] = eb_at([x_peak, x_end])
    feasible_mu = [float(mu) for mu in mu_grid if mu <= eb_peak]
    below = [mu for mu in feasible_mu if eb_end < mu]  # the floors whose interval ends short of x_end
    found = iter(_lockstep(
        [_crossing(x_end, eb_end - mu, x_peak, eb_peak - mu, tol) for mu in below],
        lambda rows, xs: [eb - below[r] for r, [eb] in zip(rows, eb_at(xs))],
    ))
    xs = [clip(x_a, x_end if eb_end >= mu else next(found)) for mu in feasible_mu]

    points = [
        EcPoint(r_ea=r_ea, r_eb=r_eb, alloc=PowerAllocation.from_relay_power(x, params.p_tot))
        for x, [r_ea], [r_eb] in zip(xs, ea_at(xs), eb_at(xs))
    ]
    infeasible = tuple(float(mu) for mu in mu_grid if mu > eb_peak)
    return _frontier(points, feasible_mu, infeasible)

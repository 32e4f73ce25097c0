"""The benchmark's workloads: a fixed universe of operations per workload,
the set-up that builds them, the call that runs one, and the check of its
output against the reference stored in ``reference/``.

Each workload's universe is generated once from ``MASTER_SEED`` and never
changes; the reference file lists the universe entries and what this
library returned for each when the reference was made.  A run's ``--seed``
picks the order in which the universe is walked, so different seeds time
different subsets and orders of operations, and every operation a run
makes still has a reference output.

Outputs are compared within tolerances derived from the line-search
tolerance ``1e-6 * P_tot``: a relay power may move by ``TOL_PR_SHARE *
P_tot`` and a capacity by what such a move changes it by (measured on the
reference model when the reference was made, stored per point).  A
correct change to a search therefore passes, a changed model does not.
Universe entries whose outcome flips within those tolerances (a threshold
or dominance decision on a knife edge) were left out when the reference
was made, so every operation has one right answer.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import relayec.capacity as capacity
import relayec.solver as solver
from relayec import (
    Geometry,
    PowerAllocation,
    RelayMode,
    SolveMethod,
    SystemParams,
    sample_channels,
    sinr_fd,
    snr_hd,
)

MASTER_SEED = 220102774
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ALPHA = 4.0
N_SMALL = 1000
N_LARGE = 10**6
TOL_PR_SHARE = 2e-6  # two line-search tolerances: each search lands within one
REL_TOL = 1e-9  # float reassociation at the same relay power

# solve_sweep: d_a = 0.5 is drawn twice as often, it is the placement c09 times.
SWEEP_DA = (0.2, 0.3, 0.5, 0.5, 0.7, 0.8)
SWEEP_CANDIDATES = 13000
POLICY_SHARE = 0.25  # share of scenarios with one SNR threshold near the operating SNR

FRONTIER_DA = (0.2, 0.3, 0.5, 0.7, 0.8)
FRONTIER_CANDIDATES = 420
W_GRID = tuple(float(w) for w in np.linspace(0.0, 1.0, 21))

LARGE_DA = (0.3, 0.5, 0.7)
LARGE_OMEGA = (None, 0.01, 0.05, 0.10)  # None is HD
LARGE_PR = tuple(float(p) for p in np.linspace(1.0, 999.0, 200))


@dataclass
class Workload:
    """Everything one run needs: the universe of op inputs, the call that
    runs one op, and the reference each output is checked against."""

    name: str
    ops: list  # op inputs, one per universe entry
    run_op: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]  # (output, reference entry) -> correct
    reference: list
    sample_ms: float  # time spent drawing the channel sample sets

    def op_failed(self, i: int, out) -> bool:
        """True when universe op ``i`` raised (output None) or its output
        misses the reference."""
        return out is None or not self.check(out, self.reference[i])


def load_reference(name: str) -> dict:
    with gzip.open(REFERENCE_DIR / f"{name}.json.gz", "rt") as fh:
        return json.load(fh)


def draw_samples(d_as, n: int) -> tuple[dict, float]:
    """One sample set per placement, from a seed fixed per placement."""
    t0 = perf_counter()
    sets = {d: sample_channels(Geometry(d, ALPHA), n, MASTER_SEED + i) for i, d in enumerate(d_as)}
    return sets, 1e3 * (perf_counter() - t0)


def mean_gain_snr(mode: RelayMode, samples, params: SystemParams, p_r: float, node: str) -> float:
    ha, hb = samples.mean_gains()
    alloc = PowerAllocation.from_relay_power(p_r, params.p_tot)
    if mode is RelayMode.HD:
        return float(snr_hd(alloc, ha, hb, node))
    return float(sinr_fd(alloc, params.omega, ha, hb, node))


# --------------------------------------------------------------------------
# solve_sweep: one solve_exact or solve_approx call per op

def sweep_candidate(u: np.ndarray, sample_sets: dict):
    """Scenario from 12 uniforms: mode, method, placement, eps, theta,
    omega, w, and for a share of them a threshold near the operating SNR
    of one node, so that the threshold policy fires on part of the sweep."""
    d_a = SWEEP_DA[int(u[0] * len(SWEEP_DA))]
    mode = RelayMode.HD if u[1] < 0.5 else RelayMode.FD
    method = SolveMethod.EXACT if u[2] < 0.5 else SolveMethod.APPROXIMATE
    params = SystemParams.reference(
        d_a=d_a,
        eps_a=10.0 ** (-8.0 + 6.0 * u[3]),
        eps_b=10.0 ** (-8.0 + 6.0 * u[4]),
        theta_a=10.0 ** (-4.0 + 3.0 * u[5]),
        theta_b=10.0 ** (-4.0 + 3.0 * u[6]),
        omega=0.01 + 0.09 * u[7],
        w=float(u[8]),
    )
    samples = sample_sets[d_a]
    if u[9] < POLICY_SHARE:
        node = "A" if u[10] < 0.5 else "B"
        g = mean_gain_snr(mode, samples, params, params.p_tot / 3.0, node)
        params = params.with_(**{f"gamma_t_{node.lower()}": g * 10.0 ** (u[11] - 0.5)})
    return method, mode, samples, params


def sweep_uniforms() -> np.ndarray:
    return np.random.default_rng(MASTER_SEED).random((SWEEP_CANDIDATES, 12))


def run_solve(op):
    method, mode, samples, params = op
    fn = solver.solve_exact if method is SolveMethod.EXACT else solver.solve_approx
    return fn(mode, samples, params)


def close(point, ref) -> bool:
    """EcPoint against a reference row [p_r, r_ea, r_eb, tol_p, tol_a, tol_b]."""
    return (
        abs(point.alloc.p_r - ref[0]) <= ref[3]
        and abs(point.r_ea - ref[1]) <= ref[4]
        and abs(point.r_eb - ref[2]) <= ref[5]
    )


def check_solve(report, ref) -> bool:
    point, silenced, degenerate = ref
    return (
        close(report.ec, point)
        and (report.silenced or "") == silenced
        and bool(report.degenerate) == bool(degenerate)
    )


def setup_solve_sweep() -> Workload:
    ref = load_reference("solve_sweep")
    sample_sets, sample_ms = draw_samples(sorted(set(SWEEP_DA)), N_SMALL)
    u = sweep_uniforms()
    ops = [sweep_candidate(u[k], sample_sets) for k in ref["k"]]
    return Workload("solve_sweep", ops, run_solve, check_solve, ref["entries"], sample_ms)


# --------------------------------------------------------------------------
# frontier: one fig8-style FD trace per op

def frontier_candidate(u: np.ndarray, sample_sets: dict):
    d_a = FRONTIER_DA[int(u[0] * len(FRONTIER_DA))]
    params = SystemParams.reference(d_a=d_a, omega=0.01 + 0.09 * u[1])
    return sample_sets[d_a], params


def frontier_uniforms() -> np.ndarray:
    return np.random.default_rng([MASTER_SEED, 1]).random((FRONTIER_CANDIDATES, 2))


def run_frontier(op):
    """The weighted trace with the exact solver, then the floor trace over
    the node-B capacities it reached, as fig8 runs them."""
    samples, params = op
    weighted = solver.pareto_weighted(RelayMode.FD, samples, params, W_GRID, method=SolveMethod.EXACT)
    floors = tuple(sorted({p.r_eb for p in weighted.points}))
    constrained = solver.pareto_epsilon_constraint(RelayMode.FD, samples, params, floors)
    return weighted, floors, constrained


def floor_status(mu: float, constrained) -> str:
    if mu in constrained.infeasible:
        return "infeasible"
    return "kept" if mu in constrained.parameter_grid else "dropped"


def check_frontier(out, ref) -> bool:
    """Kept weights and every floor's status must match; kept points must
    lie within tolerance of the reference point for the same weight or
    floor.  The top floor sits on node B's peak, so it may come out
    feasible or infeasible."""
    weighted, floors, constrained = out
    kept = {round(w * (len(W_GRID) - 1)): p for w, p in zip(weighted.parameter_grid, weighted.points)}
    if set(kept) != set(ref["kept_w"]):
        return False
    if not all(close(p, ref["weighted"][i]) for i, p in kept.items()):
        return False
    if len(floors) != len(ref["floors"]):
        return False
    points = dict(zip(constrained.parameter_grid, constrained.points))
    for mu, (ref_mu, tol_mu, status, point) in zip(floors, ref["floors"]):
        got = floor_status(mu, constrained)
        allowed = ("kept", "infeasible") if status == "top" else (status,)
        if abs(mu - ref_mu) > tol_mu or got not in allowed:
            return False
        if got == "kept" and not close(points[mu], point):
            return False
    return True


def setup_frontier() -> Workload:
    ref = load_reference("frontier")
    sample_sets, sample_ms = draw_samples(FRONTIER_DA, N_SMALL)
    u = frontier_uniforms()
    ops = [frontier_candidate(u[e["k"]], sample_sets) for e in ref["entries"]]
    return Workload("frontier", ops, run_frontier, check_frontier, ref["entries"], sample_ms)


# --------------------------------------------------------------------------
# capacity_large_n: one ec_point at a fixed relay power per op

def large_universe(sample_sets: dict) -> list:
    ops = []
    for d_a in LARGE_DA:
        for omega in LARGE_OMEGA:
            mode = RelayMode.HD if omega is None else RelayMode.FD
            params = SystemParams.reference(d_a=d_a) if omega is None else SystemParams.reference(d_a=d_a, omega=omega)
            for p_r in LARGE_PR:
                ops.append((mode, sample_sets[d_a], params, PowerAllocation.from_relay_power(p_r, params.p_tot)))
    return ops


def run_ec_point(op):
    return capacity.ec_point(*op)


def check_ec_point(point, ref) -> bool:
    return all(abs(got - want) <= REL_TOL * (1.0 + abs(want)) for got, want in zip((point.r_ea, point.r_eb), ref))


def setup_capacity_large_n() -> Workload:
    ref = load_reference("capacity_large_n")
    sample_sets, sample_ms = draw_samples(LARGE_DA, N_LARGE)
    return Workload(
        "capacity_large_n", large_universe(sample_sets), run_ec_point, check_ec_point, ref["entries"], sample_ms
    )


SETUPS = {
    "solve_sweep": setup_solve_sweep,
    "frontier": setup_frontier,
    "capacity_large_n": setup_capacity_large_n,
}


def op_order(n_universe: int, seed: int) -> np.ndarray:
    """The run's walk through the universe, from the benchmark's seed."""
    return np.random.default_rng(seed).permutation(n_universe)

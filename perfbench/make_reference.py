"""Regenerate the reference outputs in ``reference/`` from the library in
``src/``.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Run it only on a commit whose outputs are the intended truth: the
benchmark counts every later output that strays from these files beyond
the stored tolerances as a failed op.  For each universe candidate it
records the outputs, a tolerance per relay power and per capacity, and
drops the candidate when a threshold, dominance or feasibility decision
lies within those tolerances of flipping.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from relayec import PowerAllocation, RelayMode, SolveMethod  # noqa: E402
from relayec.capacity import effective_capacity  # noqa: E402
from relayec.solver import DOMINANCE_TOL, pareto_epsilon_constraint, solve_approx, solve_exact  # noqa: E402

THRESHOLD_MARGIN = 1e-3  # relative distance an SNR must keep from its threshold


def g12(x: float) -> float:
    return float(f"{x:.12g}")


def tol3(x: float) -> float:
    return float(f"{1.01 * x:.3g}")


def capacity_tol(mode, samples, params, p_r: float, node: str, value: float, t_p: float) -> float:
    """Largest change of one node's capacity when p_r moves by t_p."""
    if value == 0.0:  # silenced by the threshold policy
        return W.REL_TOL
    shifts = []
    for x in (p_r - t_p, p_r + t_p):
        alloc = PowerAllocation.from_relay_power(min(max(x, 0.0), params.p_tot), params.p_tot)
        shifts.append(abs(effective_capacity(mode, samples, params, alloc, node) - value))
    return max(shifts) + W.REL_TOL * (1.0 + abs(value))


def point_row(mode, samples, params, point, t_p: float) -> list:
    p_r = point.alloc.p_r
    return [
        g12(p_r), g12(point.r_ea), g12(point.r_eb), tol3(t_p),
        tol3(capacity_tol(mode, samples, params, p_r, "A", point.r_ea, t_p)),
        tol3(capacity_tol(mode, samples, params, p_r, "B", point.r_eb, t_p)),
    ]


def dominance_may_flip(points, rows) -> bool:
    """True when some 'q dominates p' decision can change within tolerance."""
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            if i == j:
                continue
            da = q.r_ea - p.r_ea - DOMINANCE_TOL
            db = q.r_eb - p.r_eb - DOMINANCE_TOL
            sa = rows[i][4] + rows[j][4]
            sb = rows[i][5] + rows[j][5]
            surely = da - sa >= 0.0 and db - sb >= 0.0
            surely_not = da + sa < 0.0 or db + sb < 0.0
            if not (surely or surely_not):
                return True
    return False


def kept_mask(points) -> list[bool]:
    return [
        not any(q.r_ea >= p.r_ea + DOMINANCE_TOL and q.r_eb >= p.r_eb + DOMINANCE_TOL for q in points)
        for p in points
    ]


def make_solve_sweep() -> dict:
    sample_sets, _ = W.draw_samples(sorted(set(W.SWEEP_DA)), W.N_SMALL)
    u = W.sweep_uniforms()
    ks, entries = [], []
    for k in range(W.SWEEP_CANDIDATES):
        op = W.sweep_candidate(u[k], sample_sets)
        method, mode, samples, params = op
        report = W.run_solve(op)
        fn = solve_exact if method is SolveMethod.EXACT else solve_approx
        unpoliced = fn(mode, samples, params, apply_policy=False)
        margins = [
            abs(W.mean_gain_snr(mode, samples, params, unpoliced.alloc.p_r, node) / params.gamma_t_for(node) - 1.0)
            for node in ("A", "B")
        ]
        if min(margins) < THRESHOLD_MARGIN:
            continue
        t_p = W.TOL_PR_SHARE * params.p_tot
        ks.append(k)
        entries.append([point_row(mode, samples, params, report.ec, t_p), report.silenced or "", int(report.degenerate)])
    return {"k": ks, "entries": entries}


def frontier_entry(k: int, op) -> dict | None:
    samples, params = op
    mode = RelayMode.FD
    weighted, floors, constrained = W.run_frontier(op)
    tol_pr = W.TOL_PR_SHARE * params.p_tot
    raw_w = [solve_exact(mode, samples, params.with_(w=w)).ec for w in W.W_GRID]
    w_rows = [point_row(mode, samples, params, p, tol_pr) for p in raw_w]
    if dominance_may_flip(raw_w, w_rows):
        return None
    kept_w = [round(w * (len(W.W_GRID) - 1)) for w in weighted.parameter_grid]
    if [raw_w[i] for i in kept_w] != list(weighted.points):
        raise RuntimeError(f"candidate {k}: per-weight solves disagree with pareto_weighted")

    floor_rows, raw_e, e_rows = [], [], []
    for j, mu in enumerate(floors):
        i = next(i for i in kept_w if raw_w[i].r_eb == mu)
        t_mu = w_rows[i][5]
        single = pareto_epsilon_constraint(mode, samples, params, (mu,))
        feasible = bool(single.points)
        point = single.points[0] if feasible else raw_w[i]
        # A floor that moves by t_mu moves a binding constraint by t_mu / slope.
        p_r = point.alloc.p_r
        slope = capacity_tol(mode, samples, params, p_r, "B", point.r_eb, tol_pr) / tol_pr
        t_p = min(2.0 * tol_pr + t_mu / max(slope, 1e-300), 1e-3 * params.p_tot)
        row = point_row(mode, samples, params, point, t_p)
        top = j == len(floors) - 1
        if not feasible and not top:
            return None
        status = "top" if top else W.floor_status(mu, constrained)
        floor_rows.append([g12(mu), t_mu, status, row])
        if feasible:
            raw_e.append(point)
            e_rows.append(row)
    if any(b[0] - a[0] <= a[1] + b[1] for a, b in zip(floor_rows, floor_rows[1:])):
        return None
    if dominance_may_flip(raw_e, e_rows):
        return None
    # The top floor may turn infeasible; that must not change what is kept below it.
    if len(raw_e) == len(floors) and kept_mask(raw_e)[:-1] != kept_mask(raw_e[:-1]):
        return None
    return {"k": k, "weighted": w_rows, "kept_w": kept_w, "floors": floor_rows}


def make_frontier() -> dict:
    sample_sets, _ = W.draw_samples(W.FRONTIER_DA, W.N_SMALL)
    u = W.frontier_uniforms()
    entries = []
    for k in range(W.FRONTIER_CANDIDATES):
        entry = frontier_entry(k, W.frontier_candidate(u[k], sample_sets))
        if entry is not None:
            entries.append(entry)
    return {"entries": entries}


def make_capacity_large_n() -> dict:
    sample_sets, _ = W.draw_samples(W.LARGE_DA, W.N_LARGE)
    entries = []
    for op in W.large_universe(sample_sets):
        point = W.run_ec_point(op)
        entries.append([g12(point.r_ea), g12(point.r_eb)])
    return {"entries": entries}


MAKERS = {
    "solve_sweep": make_solve_sweep,
    "frontier": make_frontier,
    "capacity_large_n": make_capacity_large_n,
}


def main(names) -> None:
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or MAKERS:
        ref = MAKERS[name]()
        path = W.REFERENCE_DIR / f"{name}.json.gz"
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(ref, separators=(",", ":")).encode())
        print(f"{name}: {len(ref['entries'])} entries -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])

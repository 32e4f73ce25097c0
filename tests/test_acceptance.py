"""Acceptance suite.

One test per criterion (criteria 7 and 8 split into their sub-claims),
each printing a PASS/FAIL line with the measured quantities (run with
``pytest -s`` to see every line).  Monte-Carlo checks run with n = 1000
samples, seed 7, and the reference scenario (m=100, P_tot=1000, alpha=4,
eps=1e-4, theta=1e-3, d_a=0.5, gamma_t=1) unless the criterion states
otherwise.

Criteria 6, 7b, and 8b pin absolute capacity anchors that the documented
parameter set does not produce; they are asserted at their stated
tolerances anyway and fail.  See the "Acceptance status" section of the
README for the measurements reconciling them.
"""

import time

import numpy as np

from relayec import (
    Geometry,
    PowerAllocation,
    RelayMode,
    SystemParams,
    effective_capacity,
    fbl_rate,
    optimal_relay_power_fd,
    optimal_relay_power_hd,
    pareto_epsilon_constraint,
    pareto_weighted,
    sample_channels,
    sinr_fd,
    snr_hd,
    solve_approx,
    solve_exact,
)
from relayec.capacity import _kernel
from relayec.cli import ExperimentConfig, bench_rows, main
from relayec.solver import SolveMethod

N = 1000
SEED = 7


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def reference(d_a=0.5, **kw):
    return SystemParams.reference(d_a=d_a, **kw)


def ref_samples(d_a=0.5, n=N, seed=SEED):
    return sample_channels(Geometry(d_a=d_a, alpha=4.0), n, seed)


def node_a_curve(mode, samples, params, grid01) -> np.ndarray:
    """Node A's effective capacity at relay powers grid01 * P_tot, from one
    batched kernel call: each row is bit for bit the one-shot
    effective_capacity value (tests/test_capacity.py, TestBatchedKernel)."""
    allocs = [PowerAllocation.from_relay_power(float(x * params.p_tot), params.p_tot) for x in grid01]
    caps = _kernel(mode, samples, params, ("A",))[0]([a.p_r for a in allocs], [a.p_node for a in allocs])
    return np.array([cap for (cap,) in caps])


def down_flips(values: np.ndarray) -> int:
    d = np.diff(values)
    scale = max(1.0, float(np.max(np.abs(values))))
    signs = np.sign(d[np.abs(d) > 1e-13 * scale])
    return int(np.sum((signs[:-1] > 0) & (signs[1:] < 0)))


def up_flips(values: np.ndarray) -> int:
    d = np.diff(values)
    scale = max(1.0, float(np.max(np.abs(values))))
    signs = np.sign(d[np.abs(d) > 1e-13 * scale])
    return int(np.sum((signs[:-1] < 0) & (signs[1:] > 0)))


def test_c01_closed_forms_match_grid_argmax():
    """Criterion 1: closed-form relay powers vs 1e6-point grid, 200 scenarios."""
    rng = np.random.default_rng(101)
    t = np.linspace(0.0, 1.0, 1_000_000)
    worst = 0.0
    t0 = time.perf_counter()
    for k in range(200):
        ha = float(rng.exponential(1.0) * rng.uniform(0.2, 30.0)) + 1e-4
        hb = float(rng.exponential(1.0) * rng.uniform(0.2, 30.0)) + 1e-4
        p_tot = float(rng.uniform(10.0, 2000.0))
        omega = float(rng.uniform(0.0, 0.5))
        node = "A" if k % 2 == 0 else "B"
        hr, ho = (ha, hb) if node == "A" else (hb, ha)
        step = p_tot / (t.size - 1)

        # independent oracle: the SNR quotients written out literally
        p_r = p_tot * t
        p = (p_tot - p_r) / 2.0
        g_hd = p * p_r * hr * ho / (p_r * hr + p * hr + p * ho + 1.0)
        x_grid = p_r[np.argmax(g_hd)]
        diff = abs(optimal_relay_power_hd(ha, hb, p_tot, node) - x_grid)
        worst = max(worst, diff / step)
        assert diff <= step, ("hd", ha, hb, p_tot, node)

        g_fd = (
            p * p_r * hr * ho
            / (p_r ** 2 * hr * omega + p_r * hr
               + (p * omega + 1.0) * (p * hr + p * ho + p_r * omega + 1.0))
        )
        x_grid = p_r[np.argmax(g_fd)]
        diff = abs(optimal_relay_power_fd(ha, hb, p_tot, omega, node) - x_grid)
        worst = max(worst, diff / step)
        assert diff <= step, ("fd", ha, hb, p_tot, omega, node)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _report(
        "criterion 1 (closed forms vs grid)",
        ok,
        f"200 scenarios, worst offset {worst:.3f} grid steps, {elapsed:.1f}s (< 30s)",
    )
    assert ok


def test_c02_fd_reduces_to_hd_at_zero_interference():
    """Criterion 2: sinr_fd(omega=0) equals snr_hd to machine precision."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        ha = rng.exponential(5.0, size=1000)
        hb = rng.exponential(0.5, size=1000)
        p_tot = float(rng.uniform(10.0, 2000.0))
        for p_r in np.linspace(0.0, p_tot, 10):
            alloc = PowerAllocation.from_relay_power(float(p_r), p_tot)
            for node in ("A", "B"):
                d = np.max(np.abs(
                    sinr_fd(alloc, 0.0, ha, hb, node) - snr_hd(alloc, ha, hb, node)
                ))
                worst = max(worst, float(d))
    ok = worst == 0.0
    _report("criterion 2 (FD->HD reduction)", ok, f"max |difference| = {worst}")
    assert ok


def test_c03_shape_property_suite():
    """Criterion 3: rate shape, SNR concavity, EC shape, unimodality,
    each over at least 200 randomized scenarios with zero violations."""
    rng = np.random.default_rng(303)
    violations = {"rate": 0, "snr_concave": 0, "ec_in_rate": 0, "hd_unimodal": 0, "fd_single_peak": 0}

    # rate strictly increasing and concave in SNR on the safe region
    for _ in range(200):
        m = int(rng.integers(101, 4000))
        eps = float(10 ** rng.uniform(-20.0, np.log10(0.4)))
        g_hi = float(10 ** rng.uniform(0.5, 3.0))
        grid = np.linspace(1.01, g_hi, 256)
        r = fbl_rate(grid, m, eps)
        if not np.all(np.diff(r) > 0.0):
            violations["rate"] += 1
        d2 = r[2:] - 2.0 * r[1:-1] + r[:-2]
        if not np.all(d2 <= 1e-9):
            violations["rate"] += 1

    # HD SNR concave in relay power
    for _ in range(200):
        ha = float(rng.exponential(1.0)) + 1e-4
        hb = float(rng.exponential(1.0)) + 1e-4
        p_tot = float(rng.uniform(1.0, 2000.0))
        vals = np.array([
            snr_hd(PowerAllocation.from_relay_power(float(x), p_tot), ha, hb, "A")
            for x in np.linspace(0.0, p_tot, 512)
        ])
        d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        if not np.all(d2 <= 1e-9):
            violations["snr_concave"] += 1

    # effective capacity increasing and concave in the rate (single-rate
    # form); strict increase is only checkable where the exponential term
    # still registers against eps at double precision, past that the curve
    # sits exactly on its -ln(eps)/(m theta) ceiling
    r_grid = np.linspace(-2.0, 12.0, 512)
    for _ in range(200):
        m = int(rng.integers(50, 1000))
        theta = float(10 ** rng.uniform(-5.0, -1.0))
        eps = float(10 ** rng.uniform(-8.0, np.log10(0.5)))
        term = np.exp(-r_grid * (m / 2.0) * theta) * (1.0 - eps)
        ec = -np.log(term + eps) / (m * theta)
        d = np.diff(ec)
        resolvable = term[:-1] > eps * 1e-12
        if not (np.all(d >= 0.0) and np.all(d[resolvable] > 0.0)):
            violations["ec_in_rate"] += 1
        d2 = ec[2:] - 2.0 * ec[1:-1] + ec[:-2]
        if not np.all(d2 <= 1e-12):
            violations["ec_in_rate"] += 1

    # HD effective capacity: one descent from a single interior peak
    grid01 = np.linspace(0.0, 1.0, 512)
    for _ in range(200):
        p = reference(
            d_a=float(rng.uniform(0.1, 0.9)),
            p_tot=float(rng.uniform(100.0, 2000.0)),
            eps_a=float(10 ** rng.uniform(-8.0, -2.0)),
            theta_a=float(10 ** rng.uniform(-4.0, -2.0)),
        )
        s = sample_channels(p.geom, 150, seed=int(rng.integers(1, 1 << 30)))
        vals = node_a_curve(RelayMode.HD, s, p, grid01)
        if down_flips(vals) != 1 or not 0 < int(np.argmax(vals)) < vals.size - 1:
            violations["hd_unimodal"] += 1

    # FD SINR and effective capacity: single +/- slope transition
    omegas = (0.01, 0.1, 0.5)
    for i in range(200):
        om = omegas[i % 3]
        p = reference(
            d_a=float(rng.uniform(0.1, 0.9)),
            p_tot=float(rng.uniform(100.0, 2000.0)),
            omega=om,
        )
        s = sample_channels(p.geom, 150, seed=int(rng.integers(1, 1 << 30)))
        ha, hb = s.mean_gains()
        sinr = np.array([
            sinr_fd(PowerAllocation.from_relay_power(float(x * p.p_tot), p.p_tot), om, ha, hb, "A")
            for x in grid01
        ])
        if down_flips(sinr) != 1 or up_flips(sinr) != 0:
            violations["fd_single_peak"] += 1
        vals = node_a_curve(RelayMode.FD, s, p, grid01)
        if down_flips(vals) != 1 or not 0 < int(np.argmax(vals)) < vals.size - 1:
            violations["fd_single_peak"] += 1

    total = sum(violations.values())
    ok = total == 0
    _report("criterion 3 (shape property suite)", ok, f"violations by check: {violations}")
    assert ok


def _exact_and_approx(mode, samples, params):
    exact = solve_exact(mode, samples, params)
    approx = solve_approx(mode, samples, params)
    w = params.w
    return exact.ec.weighted_sum(w), approx.ec.weighted_sum(w)


def test_c04_approximate_within_five_percent():
    """Criterion 4: exact objective at the approximate allocation within 5%."""
    s = ref_samples()
    gaps = []
    for eps in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        w_e, w_a = _exact_and_approx(RelayMode.HD, s, reference(eps_a=eps, eps_b=eps))
        gaps.append(("hd", eps, abs(w_e - w_a) / w_e))
    for om in (0.01, 0.05, 0.10):
        w_e, w_a = _exact_and_approx(RelayMode.FD, s, reference(omega=om))
        gaps.append(("fd", om, abs(w_e - w_a) / w_e))
    worst = max(g for _, _, g in gaps)
    ok = all(g < 0.05 for _, _, g in gaps)
    _report("criterion 4 (approx within 5%)", ok, f"worst gap {worst * 100:.2f}%")
    assert ok


def test_c05_solved_beats_equal_split():
    """Criterion 5: solved weighted EC beats P_tot/3 everywhere; margin is
    largest away from the midpoint."""
    margins = {}
    all_positive = True
    for d_a in (0.5, 0.2):
        s = ref_samples(d_a=d_a)
        cell_margins = []
        for mode, key, values in (
            (RelayMode.HD, "eps", (1e-8, 1e-6, 1e-4, 1e-2)),
            (RelayMode.FD, "omega", (0.01, 0.05, 0.10)),
        ):
            for v in values:
                p = reference(d_a=d_a, **({key + "_a": v, key + "_b": v} if key == "eps" else {key: v}))
                rep = solve_exact(mode, s, p)
                eq = PowerAllocation.equal_split(p.p_tot)
                w_eq = (
                    p.w * effective_capacity(mode, s, p, eq, "A")
                    + (1 - p.w) * effective_capacity(mode, s, p, eq, "B")
                )
                w_solved = rep.ec.weighted_sum(p.w)
                all_positive &= w_solved > w_eq
                cell_margins.append((w_solved - w_eq) / w_solved)
        margins[d_a] = float(np.mean(cell_margins))
    ok = all_positive and margins[0.2] > margins[0.5]
    _report(
        "criterion 5 (beats equal split)",
        ok,
        f"all points positive: {all_positive}, mean margin d_a=0.2: "
        f"{margins[0.2] * 100:.2f}% vs d_a=0.5: {margins[0.5] * 100:.2f}%",
    )
    assert ok


def test_c06_fd_to_hd_ratio_band():
    """Criterion 6: FD/HD weighted-EC ratio in [1.7, 2.05] at low
    interference."""
    s = ref_samples()
    p = reference(omega=0.01)
    hd = solve_exact(RelayMode.HD, s, p).ec.weighted_sum(p.w)
    fd = solve_exact(RelayMode.FD, s, p).ec.weighted_sum(p.w)
    ratio = fd / hd
    ok = 1.7 <= ratio <= 2.05
    _report(
        "criterion 6 (FD about twice HD)",
        ok,
        f"ratio {ratio:.3f} (HD {hd:.3f}, FD {fd:.3f}), band [1.70, 2.05]",
    )
    assert ok


def test_c07a_fd_anchor_value():
    """Criterion 7: FD mean EC at d_a=0.3, w=0.5, omega=0.1 near 3.46."""
    s = ref_samples(d_a=0.3)
    p = reference(d_a=0.3, omega=0.1)
    got = solve_exact(RelayMode.FD, s, p).ec.weighted_sum(p.w)
    ok = abs(got - 3.46) / 3.46 <= 0.12
    _report("criterion 7a (FD anchor 3.46 +/-12%)", ok, f"measured {got:.3f}")
    assert ok


def test_c07b_hd_anchor_value():
    """Criterion 7: HD mean EC at d_a=0.3, w=0.5 near 2.61."""
    s = ref_samples(d_a=0.3)
    p = reference(d_a=0.3, omega=0.1)
    got = solve_exact(RelayMode.HD, s, p).ec.weighted_sum(p.w)
    ok = abs(got - 2.61) / 2.61 <= 0.12
    _report("criterion 7b (HD anchor 2.61 +/-12%)", ok, f"measured {got:.3f}")
    assert ok


def test_c07c_weight_tuning_gain():
    """Criterion 7: best-weight FD weighted sum beats the w=0.5 value by
    at least 15% at d_a=0.3."""
    s = ref_samples(d_a=0.3)
    base = reference(d_a=0.3, omega=0.1)
    mid = solve_exact(RelayMode.FD, s, base).ec.weighted_sum(0.5)
    best = max(
        solve_exact(RelayMode.FD, s, base.with_(w=float(w))).ec.weighted_sum(float(w))
        for w in np.linspace(0.0, 1.0, 21)
    )
    gain = best / mid
    ok = gain >= 1.15
    _report("criterion 7c (best weight beats w=0.5 by 15%)", ok, f"gain {gain:.3f}x")
    assert ok


FIG8_CASES = ((0.5, 0.01), (0.2, 0.01), (0.2, 0.10))


def _fig8_frontiers(d_a, omega):
    p = reference(d_a=d_a, omega=omega)
    s = ref_samples(d_a=d_a)
    weighted = pareto_weighted(
        RelayMode.FD, s, p, np.linspace(0.0, 1.0, 21), method=SolveMethod.EXACT
    )
    mu = sorted({pt.r_eb for pt in weighted.points})
    constrained = pareto_epsilon_constraint(RelayMode.FD, s, p, mu)
    return weighted, constrained


def test_c08a_frontier_methods_agree():
    """Criterion 8: weighted-sum and floor-constraint frontiers agree
    pointwise within 3% after nearest-R_EB matching."""
    worst = 0.0
    for d_a, omega in FIG8_CASES:
        weighted, constrained = _fig8_frontiers(d_a, omega)
        for src, dst in ((constrained, weighted), (weighted, constrained)):
            for pt in src.points:
                near = min(dst.points, key=lambda q: abs(q.r_eb - pt.r_eb))
                worst = max(worst, abs(near.r_ea - pt.r_ea) / pt.r_ea)
    ok = worst < 0.03
    _report("criterion 8a (frontier methods agree 3%)", ok, f"worst mismatch {worst * 100:.2f}%")
    assert ok


def test_c08b_frontier_span_anchors():
    """Criterion 8: the d_a=0.2, omega=0.01 frontier spans the reference
    capacity ranges within 15%."""
    weighted, _ = _fig8_frontiers(0.2, 0.01)
    ea = [pt.r_ea for pt in weighted.points]
    eb = [pt.r_eb for pt in weighted.points]
    spans = (min(ea), max(ea), min(eb), max(eb))
    targets = (2.1, 3.7, 4.9, 6.0)
    rel = [abs(s - t) / t for s, t in zip(spans, targets)]
    ok = all(r <= 0.15 for r in rel)
    _report(
        "criterion 8b (frontier span anchors +/-15%)",
        ok,
        f"R_EA [{spans[0]:.2f}, {spans[1]:.2f}] vs [2.1, 3.7]; "
        f"R_EB [{spans[2]:.2f}, {spans[3]:.2f}] vs [4.9, 6.0]",
    )
    assert ok


def test_c09_timing_ratio():
    """Criterion 9: exact/approx mean wall-time ratio > 1.5 in every cell."""
    rows = bench_rows(ExperimentConfig(samples=N, seed=SEED), repeats=100)
    ratios = {(r["mode"], r["param_value"]): r["time_ratio"] for r in rows}
    ok = all(v > 1.5 for v in ratios.values())
    detail = ", ".join(f"{m}@{p:g}: {v:.2f}" for (m, p), v in ratios.items())
    _report("criterion 9 (time ratio > 1.5)", ok, detail)
    assert ok


SUBCOMMANDS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "bench")


def test_c10_deterministic_outputs(tmp_path):
    """Criterion 10: every subcommand is byte-identical across reruns."""
    results = {}
    for i, cmd in enumerate(SUBCOMMANDS):
        fmt = "json" if i % 2 else "csv"
        paths = [tmp_path / f"{cmd}_{k}.{fmt}" for k in (1, 2)]
        for path in paths:
            argv = [cmd, "--samples", "60", "--seed", "11", "--format", fmt, "--out", str(path)]
            if cmd == "bench":
                argv += ["--repeats", "2"]
            assert main(argv) == 0
        results[cmd] = paths[0].read_bytes() == paths[1].read_bytes()
    ok = all(results.values())
    _report("criterion 10 (byte-identical reruns)", ok, f"{results}")
    assert ok

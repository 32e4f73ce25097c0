import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import drive, threshold_roots_hd
from relayec import (
    ChannelSamples,
    EcPoint,
    Geometry,
    PowerAllocation,
    RelayMode,
    SystemParams,
    ec_point,
    effective_capacity,
    fbl_rate,
    optimal_relay_power_hd,
    pareto_epsilon_constraint,
    pareto_weighted,
    sample_channels,
    sinr_fd,
    snr_hd,
    solve_approx,
    solve_exact,
)
import relayec.capacity as capacity_module
import relayec.solver as solver_module
from relayec.capacity import _kernel
from relayec.solver import (
    DOMINANCE_TOL,
    SolveMethod,
    _crossing,
    _dominance_mask,
    _line_search,
    _single_node_optima,
    line_search_tolerance,
)


def reference_samples(n=400, seed=7, d_a=0.5):
    return sample_channels(Geometry(d_a=d_a, alpha=4.0), n, seed)


class TestMaximizeUnimodal:
    """The golden-section line search maximizes unimodal scalar functions."""

    def test_quadratic(self):
        f = lambda x: -((x - 3.0) ** 2)
        x = drive(_line_search(0.0, 10.0, 1e-8, None), f).x
        assert x == pytest.approx(3.0, abs=1e-8)
        assert f(x) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_with_start_point(self):
        x = drive(_line_search(0.0, 10.0, 1e-8, 9.5), lambda x: -((x - 3.0) ** 2)).x
        assert x == pytest.approx(3.0, abs=1e-8)

    def test_snr_matches_closed_form(self):
        # localization of a smooth peak bottoms out near sqrt(eps), so ask
        # for 1e-6 watts rather than the bracket tolerance itself
        f = lambda p_r: snr_hd(PowerAllocation.from_relay_power(p_r, 10.0), 2.0, 1.0, "A")
        x = drive(_line_search(0.0, 10.0, 1e-7, None), f).x
        assert x == pytest.approx(optimal_relay_power_hd(2.0, 1.0, 10.0, "A"), abs=1e-6)

    def test_ec_matches_fine_grid(self):
        # broadcast grid oracle over 1e5 relay powers at modest sample count,
        # from the public SINR and rate; sinr_fd reads only p_r and p_node,
        # so a namespace of power columns, with the gains broadcast to match,
        # evaluates it over the grid
        p = SystemParams.reference(omega=0.1)
        s = reference_samples(100, seed=11)
        grid = np.linspace(0.0, p.p_tot, 100_000)
        c_theta = p.m * p.theta_a  # in FD the exponent and the normalization both use m

        def ec_rows(p_r):
            powers = SimpleNamespace(p_r=p_r[:, None], p_node=(p.p_tot - p_r)[:, None] / 2.0)
            h_a, h_b = (np.broadcast_to(h, (p_r.size, len(s))) for h in (s.h_a, s.h_b))
            rates = fbl_rate(sinr_fd(powers, p.omega, h_a, h_b, "A"), p.m, p.eps_a)
            z = -c_theta * rates
            zmax = z.max(axis=1, keepdims=True)
            lme = np.log(np.mean(np.exp(z - zmax), axis=1)) + zmax[:, 0]
            return -np.logaddexp(math.log1p(-p.eps_a) + lme, math.log(p.eps_a)) / c_theta

        ec = np.concatenate([ec_rows(chunk) for chunk in np.array_split(grid, 20)])
        x_grid = grid[np.argmax(ec)]

        f = lambda p_r: effective_capacity(
            RelayMode.FD, s, p, PowerAllocation.from_relay_power(p_r, p.p_tot), "A"
        )
        x = drive(_line_search(0.0, p.p_tot, 1e-6 * p.p_tot, None), f).x
        assert abs(x - x_grid) <= p.p_tot / (grid.size - 1) + 1e-6 * p.p_tot

    def test_full_output_counts(self):
        f = lambda x: -((x - 3.0) ** 2)
        res = drive(_line_search(0.0, 10.0, 1e-6, None), f)
        assert all(fx == f(x) for x, fx in res.probes)  # each probe got its own value back
        assert res.iterations >= 1 and res.evals >= res.iterations
        assert len(res.probes) == res.evals


class TestSolveExact:
    def test_single_sample_single_objective_reduces_to_closed_form(self):
        # one sample, w = 1: the optimum is the SNR maximizer of node A
        s = ChannelSamples(h_a=np.array([2.0]), h_b=np.array([1.0]))
        p = SystemParams.reference(w=1.0, p_tot=100.0, gamma_t_a=0.0, gamma_t_b=0.0)
        rep = solve_exact(RelayMode.HD, s, p)
        want = optimal_relay_power_hd(2.0, 1.0, 100.0, "A")
        assert rep.alloc.p_r == pytest.approx(want, abs=2.0 * line_search_tolerance(p))

    def test_allocation_invariants(self):
        s = reference_samples()
        for mode in RelayMode:
            for w in (0.0, 0.5, 1.0):
                rep = solve_exact(mode, s, SystemParams.reference(w=w))
                assert 0.0 < rep.alloc.p_r < 1000.0
                assert rep.alloc.p_node == (1000.0 - rep.alloc.p_r) / 2.0
                assert rep.iterations >= 1
                assert rep.objective_evals >= rep.iterations
                assert rep.wall_time > 0.0
                assert rep.method is SolveMethod.EXACT

    def test_warm_start_does_not_change_answer(self):
        # the solve starts at the closed-form blend; a cold golden section over
        # the whole budget finds the same peak
        rng = np.random.default_rng(21)
        tol_cases = []
        for _ in range(100):
            d_a = float(rng.uniform(0.15, 0.85))
            p_tot = float(rng.uniform(50.0, 2000.0))
            omega = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
            mode = RelayMode.HD if rng.random() < 0.5 else RelayMode.FD
            p = SystemParams.reference(d_a=d_a, p_tot=p_tot, omega=omega)
            s = sample_channels(p.geom, 100, seed=int(rng.integers(1, 10_000)))
            warm = solve_exact(mode, s, p, apply_policy=False)
            f = lambda x: ec_point(mode, s, p, PowerAllocation.from_relay_power(x, p_tot)).weighted_sum(p.w)
            cold = drive(_line_search(0.0, p_tot, line_search_tolerance(p), None), f).x
            tol_cases.append(abs(warm.alloc.p_r - cold) <= 2.0 * line_search_tolerance(p))
        assert all(tol_cases)

    def test_pure_weights_recover_single_node_optima(self):
        s = reference_samples(400, d_a=0.3)
        for mode in RelayMode:
            for w, node in ((1.0, "A"), (0.0, "B")):
                p = SystemParams.reference(d_a=0.3, w=w)
                rep = solve_exact(mode, s, p)
                f = lambda p_r: effective_capacity(
                    mode, s, p, PowerAllocation.from_relay_power(p_r, p.p_tot), node
                )
                best = f(drive(_line_search(0.0, p.p_tot, line_search_tolerance(p), None), f).x)
                assert abs(rep.ec.weighted_sum(w) - best) <= 1e-6

    def test_beats_equal_split(self):
        s = reference_samples(1000, d_a=0.2)
        for mode in RelayMode:
            p = SystemParams.reference(d_a=0.2)
            rep = solve_exact(mode, s, p)
            eq = PowerAllocation.equal_split(p.p_tot)
            eq_w = (
                p.w * effective_capacity(mode, s, p, eq, "A")
                + (1 - p.w) * effective_capacity(mode, s, p, eq, "B")
            )
            assert rep.ec.weighted_sum(p.w) > eq_w

    def test_solved_fd_capacity_falls_with_interference(self):
        s = reference_samples(1000)
        sums = [
            solve_exact(RelayMode.FD, s, SystemParams.reference(omega=om)).ec.weighted_sum(0.5)
            for om in (0.01, 0.05, 0.10)
        ]
        assert sums[0] > sums[1] > sums[2]

    @pytest.mark.parametrize("solver", [solve_exact, solve_approx])
    def test_policy_flag_is_keyword_only(self, solver):
        # a positional fourth argument is an error, never read as apply_policy
        with pytest.raises(TypeError):
            solver(RelayMode.FD, reference_samples(50), SystemParams.reference(), False)


class TestSolveApprox:
    def test_within_five_percent_of_exact(self):
        s = reference_samples(1000)
        for mode, key, values in (
            (RelayMode.HD, "eps", (1e-8, 1e-5, 1e-2)),
            (RelayMode.FD, "omega", (0.01, 0.05, 0.10)),
        ):
            for v in values:
                p = (
                    SystemParams.reference(eps_a=v, eps_b=v)
                    if key == "eps"
                    else SystemParams.reference(omega=v)
                )
                exact = solve_exact(mode, s, p)
                approx = solve_approx(mode, s, p)
                w_e = exact.ec.weighted_sum(p.w)
                w_a = approx.ec.weighted_sum(p.w)
                assert abs(w_e - w_a) / w_e < 0.05

    def test_never_beats_exact(self):
        s = reference_samples(1000)
        for d_a in (0.5, 0.3):
            for mode in RelayMode:
                p = SystemParams.reference(d_a=d_a)
                sam = reference_samples(1000, d_a=d_a)
                w_e = solve_exact(mode, sam, p).ec.weighted_sum(p.w)
                w_a = solve_approx(mode, sam, p).ec.weighted_sum(p.w)
                assert w_a <= w_e + 1e-9

    def test_fewer_objective_evals_than_exact(self):
        s = reference_samples(1000)
        for mode in RelayMode:
            p = SystemParams.reference()
            exact = solve_exact(mode, s, p)
            approx = solve_approx(mode, s, p)
            assert approx.objective_evals < exact.objective_evals

    def test_report_method(self):
        s = reference_samples(100)
        rep = solve_approx(RelayMode.FD, s, SystemParams.reference())
        assert rep.method is SolveMethod.APPROXIMATE


class TestBudgetScale:
    """A search stops on its bracket width, tol = 1e-6 * P_tot, whatever the
    budget: the objective's slope scales as 1 / P_tot, so a stop on an
    absolute slope would keep shrinking a small budget's bracket."""

    @pytest.mark.parametrize("p_tot", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("mode", list(RelayMode))
    @pytest.mark.parametrize("d_a", [0.1, 0.9])
    def test_evals_bounded_at_every_budget(self, p_tot, mode, d_a):
        s = reference_samples(400, d_a=d_a)
        p = SystemParams.reference(d_a=d_a, p_tot=p_tot, w=0.5)
        # a golden section over a span no wider than P_tot: 2 probes,
        # ceil(ln 1e6 / ln phi) = 29 iterations, then the final capacity pass
        assert solve_approx(mode, s, p).objective_evals <= 32
        if p_tot == 1e-3:
            assert solve_exact(mode, s, p).objective_evals <= 40

    def test_subnormal_budget_rejected(self):
        # 1e-6 * P_tot underflows to a zero tolerance, which no bracket reaches
        s, p = reference_samples(50), SystemParams.reference(p_tot=1e-320)
        for run in (solve_exact, solve_approx, lambda *args: pareto_epsilon_constraint(*args, (0.0,))):
            with pytest.raises(ValueError, match="tol"):
                run(RelayMode.FD, s, p)


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


class TestMirror:
    """Swapping the nodes (their gains, error targets, QoS exponents and SNR
    thresholds) and the weight w for 1 - w mirrors every output bit for bit:
    a slip that treats the nodes unequally in the kernel's node axis, the
    prune's per-node bounds or the threshold policy breaks it."""

    SWAP = {None: None, "A": "B", "B": "A"}

    @pytest.mark.parametrize("mode", list(RelayMode))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_node_swap_mirrors_capacities_and_solves(self, mode, data):
        d_a = data.draw(st.floats(0.05, 0.95))
        s = reference_samples(data.draw(st.integers(1, 1500)), seed=data.draw(st.integers(0, 2**16)), d_a=d_a)
        draws = {
            "eps": log_uniform(-8.0, -2.0),
            "theta": log_uniform(-4.0, -1.0),
            "gamma_t": st.one_of(st.just(0.0), log_uniform(-1.0, 3.0)),
        }
        one, two = ({key: data.draw(draw) for key, draw in draws.items()} for _ in range(2))
        w = data.draw(st.integers(0, 16)) / 16.0  # dyadic, so 1 - (1 - w) == w
        omega = data.draw(st.floats(0.0, 0.2))

        def scenario(node_a: dict, node_b: dict, weight: float) -> SystemParams:
            fields = {f"{key}_a": v for key, v in node_a.items()} | {f"{key}_b": v for key, v in node_b.items()}
            return SystemParams.reference(d_a=d_a, omega=omega, w=weight, **fields)

        p, q = scenario(one, two, w), scenario(two, one, 1.0 - w)
        mirrored = ChannelSamples(s.h_b, s.h_a)
        for share in (0.1, 0.37, 0.8):
            alloc = PowerAllocation.from_relay_power(share * p.p_tot, p.p_tot)
            got, want = ec_point(mode, mirrored, q, alloc), ec_point(mode, s, p, alloc)
            assert (got.r_ea, got.r_eb) == (want.r_eb, want.r_ea)
        for solve in (solve_exact, solve_approx):
            got, want = solve(mode, mirrored, q), solve(mode, s, p)
            kept = lambda r: (r.alloc, r.iterations, r.objective_evals, r.degenerate)  # what the swap leaves alone
            assert kept(got) == kept(want)
            assert (got.ec.r_ea, got.ec.r_eb, got.silenced) == (want.ec.r_eb, want.ec.r_ea, self.SWAP[want.silenced])


@pytest.mark.parametrize("mode", list(RelayMode))
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 600),
    seed=st.integers(0, 2**16),
    d_a=st.floats(0.05, 0.95),
    p_tot=log_uniform(-3.0, 4.0),
    omega=st.floats(0.0, 1.0),
    w=st.floats(0.0, 1.0),
    gamma_t=st.one_of(st.just(0.0), log_uniform(-1.0, 3.0)),
)
def test_solved_relay_power_stays_in_budget(mode, n, seed, d_a, p_tot, omega, w, gamma_t):
    s = reference_samples(n, seed=seed, d_a=d_a)
    p = SystemParams.reference(d_a=d_a, p_tot=p_tot, omega=omega, w=w, gamma_t_a=gamma_t, gamma_t_b=gamma_t)
    for solve in (solve_exact, solve_approx):
        rep = solve(mode, s, p)
        assert 0.0 <= rep.alloc.p_r <= p.p_tot, (solve.__name__, rep.alloc)


# Found by this test at a larger example budget.  In the low-SNR regime the
# finite-blocklength rate is positive at SINR 0 and dips negative above it,
# so node B's capacity here is highest at the budget's ends and has a small
# interior bump at p_r = 0.303, where the exact solve stops, 11.6% below the
# equal split's (-0.0293 against -0.0263).  The assertion stays as it is.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="exact solve misses the sup at low SNR")
@settings(max_examples=50, deadline=None)
@given(
    mode=st.sampled_from(list(RelayMode)),
    n=st.integers(1, 600),
    seed=st.integers(0, 2**16),
    d_a=st.floats(0.05, 0.95),
    p_tot=log_uniform(-3.0, 4.0),
    omega=st.floats(0.0, 1.0),
    w=st.floats(0.0, 1.0),
)
@example(mode=RelayMode.HD, n=1, seed=0, d_a=0.125, p_tot=10.0**-0.5, omega=0.0, w=0.0)
def test_exact_solve_beats_equal_split(mode, n, seed, d_a, p_tot, omega, w):
    # the equal split lies on the searched line p_node = (p_tot - p_r) / 2
    s = reference_samples(n, seed=seed, d_a=d_a)
    p = SystemParams.reference(d_a=d_a, p_tot=p_tot, omega=omega, w=w)
    solved = solve_exact(mode, s, p, apply_policy=False).ec.weighted_sum(w)
    equal = ec_point(mode, s, p, PowerAllocation.equal_split(p_tot)).weighted_sum(w)
    assert solved >= equal - 1e-12 * abs(equal)


class TestThresholdPolicy:
    def test_zero_thresholds_leave_report_alone(self):
        s = reference_samples()
        p = SystemParams.reference(gamma_t_a=0.0, gamma_t_b=0.0)
        rep = solve_exact(RelayMode.HD, s, p, apply_policy=False)
        capacities = _kernel(RelayMode.HD, s, p, ("A", "B"))[0]
        assert solver_module._threshold_policy(rep, RelayMode.HD, p, s.mean_gains(), capacities) == rep

    def test_unreachable_threshold_silences_node(self):
        s = reference_samples()
        p = SystemParams.reference(gamma_t_a=1e9)
        rep = solve_exact(RelayMode.HD, s, p)
        assert rep.silenced == "A"
        assert rep.ec.r_ea == 0.0
        ha, hb = s.mean_gains()
        assert rep.alloc.p_r == pytest.approx(optimal_relay_power_hd(ha, hb, p.p_tot, "B"))
        assert rep.ec.r_eb == pytest.approx(
            effective_capacity(RelayMode.HD, s, p, rep.alloc, "B")
        )

    def test_both_unreachable_degenerate(self):
        s = reference_samples()
        p = SystemParams.reference(gamma_t_a=1e9, gamma_t_b=1e9)
        rep = solve_exact(RelayMode.HD, s, p)
        assert rep.degenerate and rep.silenced is None

    def test_snr_decision_matches_bracket_test(self):
        # silencing via the SNR comparison must agree with the level-set
        # bracket on the solved relay power
        rng = np.random.default_rng(31)
        for _ in range(200):
            ha, hb = rng.exponential(10.0, size=2) + 1e-3
            p_tot = float(rng.uniform(20.0, 2000.0))
            p_r = float(rng.uniform(1e-3, 1.0)) * p_tot
            alloc = PowerAllocation.from_relay_power(p_r, p_tot)
            g = float(snr_hd(alloc, ha, hb, "A"))
            gamma_t = float(rng.uniform(0.2, 3.0)) * g
            snr_says_silence = g <= gamma_t
            roots = threshold_roots_hd(ha, hb, p_tot, gamma_t, "A")
            if roots is None:
                bracket_says_silence = True
            else:
                bracket_says_silence = not (roots[0] <= p_r <= roots[1])
            if abs(g - gamma_t) / gamma_t < 1e-9:
                continue  # knife edge, either call is fine
            assert snr_says_silence == bracket_says_silence


class TestOneKernel:
    """Each solve and floor trace evaluates only through the kernels it builds."""

    @staticmethod
    def spy(monkeypatch) -> list:
        """The nodes of every kernel built from here on, by the solver or the capacity module."""
        built = []

        def build(mode, samples, params, nodes):
            built.append(tuple(nodes))
            return _kernel(mode, samples, params, nodes)

        for module in (solver_module, capacity_module):
            monkeypatch.setattr(module, "_kernel", build)
        return built

    @pytest.mark.parametrize("solve", [solve_exact, solve_approx])
    @pytest.mark.parametrize("mode", list(RelayMode))
    def test_silenced_solve_builds_no_one_node_kernel(self, solve, mode, monkeypatch):
        s, p = reference_samples(), SystemParams.reference(gamma_t_a=1e9)
        built = self.spy(monkeypatch)
        assert solve(mode, s, p).silenced == "A"
        assert built == [("A", "B")]

    @pytest.mark.parametrize("silenced", ["A", "B"])
    @pytest.mark.parametrize("solve", [solve_exact, solve_approx])
    @pytest.mark.parametrize("mode", list(RelayMode))
    def test_silenced_solve_reports_kept_node_capacity(self, mode, solve, silenced):
        # off the midpoint the two nodes' capacities differ, so the other node's entry fails
        s = reference_samples(d_a=0.3)
        p = SystemParams.reference(d_a=0.3, **{"gamma_t_" + silenced.lower(): 1e9})
        rep = solve(mode, s, p)
        kept = "B" if silenced == "A" else "A"
        caps = {"A": rep.ec.r_ea, "B": rep.ec.r_eb}
        assert rep.silenced == silenced and caps[silenced] == 0.0
        assert caps[kept] == effective_capacity(mode, s, p, rep.alloc, kept)
        assert caps[kept] != effective_capacity(mode, s, p, rep.alloc, silenced)

    @pytest.mark.parametrize("mode", list(RelayMode))
    def test_floor_trace_builds_one_kernel_per_node(self, mode, monkeypatch):
        s, p = reference_samples(d_a=0.3), SystemParams.reference(d_a=0.3, omega=0.05)
        floors = sorted({pt.r_eb for pt in pareto_weighted(mode, s, p, np.linspace(0.0, 1.0, 6)).points})
        built = self.spy(monkeypatch)
        front = pareto_epsilon_constraint(mode, s, p, floors + [1e3])
        assert sorted(built) == [("A",), ("B",)]
        assert front.points and front.infeasible == (1e3,)

    def test_floor_trace_kernel_calls(self, monkeypatch):
        # FD, d_a = 0.3, omega = 0.05, n = 1000, floors as fig8 takes them: the exact 21-weight trace's
        s, p = reference_samples(1000, d_a=0.3), SystemParams.reference(d_a=0.3, omega=0.05)
        weighted = pareto_weighted(RelayMode.FD, s, p, np.linspace(0.0, 1.0, 21), method=SolveMethod.EXACT)
        floors = sorted({pt.r_eb for pt in weighted.points})
        calls = {"A": [], "B": []}  # per node, the relay powers of each call in order

        def build(mode, samples, params, nodes):
            capacities, taus = _kernel(mode, samples, params, nodes)
            [node] = nodes
            return (lambda p_r: calls[node].append(list(p_r)) or capacities(p_r)), taus

        monkeypatch.setattr(solver_module, "_kernel", build)
        front = pareto_epsilon_constraint(RelayMode.FD, s, p, floors)
        # node A: its peak search's one-row probes, then the final pass; none at x_A in between
        assert [len(xs) for xs in calls["A"]] == [1] * 28 + [len(floors)]
        assert len(calls["B"]) == 41
        trace = FloorTrace(RelayMode.FD, s, p)
        # B's peak value and both budget ends come from one 3-row call
        assert [xs for xs in calls["B"] if len(xs) == 3] == [[trace.x_peak, 0.0, p.p_tot]]
        assert [xs for xs in calls["B"] if 0.0 in xs or p.p_tot in xs] == [[trace.x_peak, 0.0, p.p_tot]]
        assert (front.points, front.parameter_grid, front.infeasible) == trace.run(floors)


class TestParetoWeighted:
    def test_endpoints_are_single_objective_optima(self):
        s = reference_samples(400, d_a=0.3)
        p = SystemParams.reference(d_a=0.3)
        front = pareto_weighted(RelayMode.FD, s, p, (0.0, 1.0), method=SolveMethod.EXACT)
        only_b = solve_exact(RelayMode.FD, s, p.with_(w=0.0))
        only_a = solve_exact(RelayMode.FD, s, p.with_(w=1.0))
        points = sorted(front.points, key=lambda q: q.r_ea)
        assert points[0].r_eb == pytest.approx(only_b.ec.r_eb, rel=1e-9)
        assert points[-1].r_ea == pytest.approx(only_a.ec.r_ea, rel=1e-9)

    def test_no_dominated_points(self):
        s = reference_samples(400, d_a=0.2)
        p = SystemParams.reference(d_a=0.2, omega=0.01)
        front = pareto_weighted(RelayMode.FD, s, p, np.linspace(0, 1, 11))
        for a in front.points:
            for b in front.points:
                assert not (a.r_ea > b.r_ea + 1e-6 and a.r_eb > b.r_eb + 1e-6)

    def test_symmetric_frontier_at_midpoint(self):
        s = reference_samples(1000, d_a=0.5)
        p = SystemParams.reference(d_a=0.5)
        ws = np.linspace(0.0, 1.0, 9)
        front = pareto_weighted(RelayMode.FD, s, p.with_(omega=0.01), ws, method=SolveMethod.EXACT)
        pts = list(front.points)
        assert len(pts) == len(ws)
        for i, w in enumerate(ws):
            j = len(ws) - 1 - i
            assert pts[i].r_ea == pytest.approx(pts[j].r_eb, rel=0.02)

    def test_empty_grid_rejected(self):
        s = reference_samples(50)
        with pytest.raises(ValueError):
            pareto_weighted(RelayMode.HD, s, SystemParams.reference(), ())


class TestLockstep:
    # (iterations, objective_evals, p_r) of each solve, as the one-solve-at-a-
    # time golden section returned them: lockstep changes no probe sequence
    REPORTS = {
        ("HD", "solve_exact"): (25, 31, 578.033347635145),
        ("HD", "solve_approx"): (27, 30, 678.2981010266556),
        ("FD", "solve_exact"): (21, 27, 540.2438072015175),
        ("FD", "solve_approx"): (27, 30, 743.5235934723071),
    }

    @pytest.mark.parametrize("key", sorted(REPORTS, key=str))
    def test_single_solve_reports_unchanged(self, key):
        mode, name = key
        s = reference_samples(400, d_a=0.3)
        report = getattr(solver_module, name)(RelayMode[mode], s, SystemParams.reference(d_a=0.3))
        assert (report.iterations, report.objective_evals, report.alloc.p_r) == self.REPORTS[key]

    def test_degenerate_approx_span_probed_once(self, monkeypatch):
        def unused(*args):  # the surrogate is not probed, so no prune runs
            raise AssertionError("pruned a span that is not probed")

        monkeypatch.setattr(solver_module, "_surrogate", unused)
        s = ChannelSamples(h_a=np.array([2.0, 3.0]), h_b=np.array([3.0, 2.0]))
        report = solve_approx(RelayMode.FD, s, SystemParams.reference())
        assert (report.iterations, report.objective_evals, report.alloc.p_r) == (1, 1, 415.4093492798492)

    @pytest.mark.parametrize("mode", list(RelayMode))
    def test_prune_changes_no_report(self, mode, monkeypatch):
        """A solve and a fig7-style weight batch report what they report when
        the prune keeps every sample (an infinite margin), wall time aside."""
        s = reference_samples(1000, d_a=0.3)
        p = SystemParams.reference(d_a=0.3, omega=0.05, eps_a=1e-7, eps_b=1e-3)
        ws = [float(w) for w in np.linspace(0.0, 1.0, 21)]

        def reports():
            batch = solver_module._solve_weights(mode, s, p, ws, SolveMethod.APPROXIMATE)
            return [replace(r, wall_time=0.0) for r in [solve_approx(mode, s, p), *batch]]

        pruned = reports()
        monkeypatch.setattr(capacity_module, "_MARGIN", math.inf)
        assert reports() == pruned

    @pytest.mark.parametrize("method", [SolveMethod.EXACT, SolveMethod.APPROXIMATE])
    def test_weighted_trace_matches_single_solves(self, method):
        s = reference_samples(300, d_a=0.3)
        p = SystemParams.reference(d_a=0.3, omega=0.05)
        solver = solve_exact if method is SolveMethod.EXACT else solve_approx
        ws = tuple(float(w) for w in np.linspace(0.0, 1.0, 9))
        want = {w: solver(RelayMode.FD, s, p.with_(w=w)).ec for w in ws}
        shuffled = tuple(np.random.default_rng(3).permutation(ws))
        kept = None
        for grid in (ws, shuffled, ws[::-1] + ws):
            front = pareto_weighted(RelayMode.FD, s, p, grid, method=method)
            assert all(point == want[w] for w, point in zip(front.parameter_grid, front.points))
            assert kept is None or set(front.parameter_grid) == kept
            kept = set(front.parameter_grid)
        assert len(kept) >= 5

    def test_valley_fallback_in_batch_matches_scalar_fallback(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_has_interior_valley", lambda probes: True)
        s = reference_samples(200, d_a=0.3)
        p = SystemParams.reference(d_a=0.3, omega=0.05)
        tol = line_search_tolerance(p)
        ws = (0.2, 0.5, 0.8)
        front = pareto_weighted(RelayMode.FD, s, p, ws, method=SolveMethod.EXACT)
        assert front.parameter_grid == ws
        for w, point in zip(ws, front.points):
            # the fallback written out on one-row calls: search, grid scan, refine
            capacities = _kernel(RelayMode.FD, s, p, ("A", "B"))[0]

            def f(x):
                [(r_ea, r_eb)] = capacities([x])
                return w * r_ea + (1.0 - w) * r_eb

            p_a, p_b = _single_node_optima(RelayMode.FD, s.mean_gains(), p)
            first = drive(_line_search(0.0, p.p_tot, tol, w * p_a + (1.0 - w) * p_b), f)
            grid = np.linspace(0.0, p.p_tot, 1024)
            k = int(np.argmax([f(g) for g in grid]))
            refine = drive(_line_search(grid[max(k - 1, 0)], grid[min(k + 1, 1023)], tol, None), f)
            report = solve_exact(RelayMode.FD, s, p.with_(w=w))
            assert report.alloc.p_r == refine.x
            assert (report.iterations, report.objective_evals) == (
                first.iterations + refine.iterations + 1, first.evals + 1024 + refine.evals + 1
            )
            assert report.ec == ec_point(RelayMode.FD, s, p, report.alloc) == point


class TestParetoEpsilonConstraint:
    def test_zero_floor_is_unconstrained_optimum(self):
        s = reference_samples(400, d_a=0.3)
        p = SystemParams.reference(d_a=0.3, omega=0.01)
        front = pareto_epsilon_constraint(RelayMode.FD, s, p, (0.0,))
        f = lambda p_r: effective_capacity(
            RelayMode.FD, s, p, PowerAllocation.from_relay_power(p_r, p.p_tot), "A"
        )
        best = f(drive(_line_search(0.0, p.p_tot, 1e-6 * p.p_tot, None), f).x)
        assert front.points[0].r_ea == pytest.approx(best, rel=1e-6)

    def test_tight_floor_matches_weighted_endpoint(self):
        s = reference_samples(400, d_a=0.3)
        p = SystemParams.reference(d_a=0.3, omega=0.01)
        only_b = solve_exact(RelayMode.FD, s, p.with_(w=0.0))
        mu = only_b.ec.r_eb * (1.0 - 1e-4)
        front = pareto_epsilon_constraint(RelayMode.FD, s, p, (mu,))
        assert front.points[0].r_eb >= mu - 1e-9
        assert front.points[0].r_ea == pytest.approx(only_b.ec.r_ea, rel=0.05)

    def test_infeasible_floors_recorded(self):
        s = reference_samples(200)
        p = SystemParams.reference()
        front = pareto_epsilon_constraint(RelayMode.FD, s, p, (0.0, 1e6))
        assert front.infeasible == (1e6,)
        assert len(front.points) == 1
        none = pareto_epsilon_constraint(RelayMode.FD, s, p, (1e6,))
        assert (none.points, none.parameter_grid, none.infeasible) == ((), (), (1e6,))

    def test_constraint_holds_on_frontier(self):
        s = reference_samples(400, d_a=0.2)
        p = SystemParams.reference(d_a=0.2, omega=0.01)
        mus = (4.0, 5.0, 6.0)
        front = pareto_epsilon_constraint(RelayMode.FD, s, p, mus)
        kept = [m for m in mus if m not in front.infeasible]
        for mu, pt in zip(kept, front.points):
            assert pt.r_eb >= mu - 1e-6

    def test_nonfinite_floor_rejected(self):
        s = reference_samples(50)
        p = SystemParams.reference()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                pareto_epsilon_constraint(RelayMode.FD, s, p, (bad, 3.0))

    def test_point_per_floor_independent_of_grid_order(self):
        s = reference_samples(300, d_a=0.3)
        p = SystemParams.reference(d_a=0.3, omega=0.05)
        mus = (0.0, 3.0, 4.0, 5.0, 5.5, 1e6)

        def by_floor(grid):
            front = pareto_epsilon_constraint(RelayMode.FD, s, p, grid)
            return dict(zip(front.parameter_grid, front.points)), set(front.infeasible)

        want = by_floor(mus)
        assert len(want[0]) >= 3
        shuffled = tuple(np.random.default_rng(1).permutation(mus))
        assert by_floor(shuffled) == want
        assert by_floor(mus[::-1] + mus) == want

    @pytest.mark.parametrize("d_a", [0.3, 0.7])  # x_A on either side of node B's peak
    @pytest.mark.parametrize("mode", list(RelayMode))
    @settings(max_examples=20)
    @given(data=st.data())
    def test_matches_two_sided_oracle(self, mode, d_a, data):
        s = reference_samples(60, seed=data.draw(st.integers(0, 2**16)), d_a=d_a)
        p = SystemParams.reference(d_a=d_a, omega=data.draw(st.floats(0.0, 0.1)))
        trace = FloorTrace(mode, s, p)
        assert (trace.x_a < trace.x_peak) == (d_a < 0.5)
        lowest, highest = sorted(trace.eb(x) for x in (0.0, p.p_tot))
        offsets = st.floats(-trace.tol, trace.tol)
        floor = st.one_of(
            st.floats(0.0, 1.02 * trace.eb_peak),  # random, a few infeasible
            st.floats(trace.eb(trace.x_a), trace.eb_peak),  # x_A clipped to the interval
            st.just(trace.eb_peak),
            offsets.map(lambda d: trace.eb(trace.x_peak + d)),  # crossings within tol of the peak
            st.floats(0.0, 1.0).map(lambda u: u * lowest),  # below both ends
            st.floats(0.0, 1.0).map(lambda u: lowest + u * (highest - lowest)),  # below one end
        )
        mus = data.draw(st.lists(floor, min_size=1, max_size=6))
        mus += data.draw(st.lists(st.sampled_from(mus), max_size=2))  # duplicates
        front = pareto_epsilon_constraint(mode, s, p, mus)
        assert (front.points, front.parameter_grid, front.infeasible) == trace.run(mus)

    def test_far_crossing_only_for_narrow_floors(self, monkeypatch):
        calls = []

        def counted(x_bad, f_bad, x_good, f_good, tol):
            calls.append((x_bad, f_good))
            return _crossing(x_bad, f_bad, x_good, f_good, tol)

        monkeypatch.setattr(solver_module, "_crossing", counted)
        for d_a in (0.3, 0.7):
            s = reference_samples(200, d_a=d_a)
            p = SystemParams.reference(d_a=d_a, omega=0.05)
            trace = FloorTrace(RelayMode.FD, s, p)
            highest = max(trace.eb(x) for x in (0.0, p.p_tot))
            mus = [highest + u * (trace.eb_peak - highest) for u in (0.2, 0.5, 0.8)]  # intervals wider than tol
            near_side = trace.x_a < trace.x_peak
            calls.clear()
            pareto_epsilon_constraint(RelayMode.FD, s, p, mus)
            assert len(calls) == len(mus)
            assert all((x_bad < trace.x_peak) == near_side for x_bad, _ in calls)
            calls.clear()
            pareto_epsilon_constraint(RelayMode.FD, s, p, mus + [trace.eb_peak])
            assert len(calls) == len(mus) + 2
            assert sorted(x_bad for x_bad, f_good in calls if f_good == 0.0) == [0.0, p.p_tot]


class FloorTrace:
    """The floor trace written out on one-row calls of one-node kernels,
    locating both ends of every floor's interval."""

    def __init__(self, mode, samples, params):
        self.mode, self.samples, self.params = mode, samples, params
        self.tol = line_search_tolerance(params)
        self.ea, self.eb = (
            lambda x, f=_kernel(mode, samples, params, (node,))[0]: f([x])[0][0] for node in ("A", "B")
        )
        p_a, p_b = _single_node_optima(mode, samples.mean_gains(), params)
        self.x_peak = drive(_line_search(0.0, params.p_tot, self.tol, p_b), self.eb).x
        self.eb_peak = self.eb(self.x_peak)
        self.x_a = drive(_line_search(0.0, params.p_tot, self.tol, p_a), self.ea).x

    def end(self, x_end, mu):
        eb_end = self.eb(x_end)
        if eb_end >= mu:
            return x_end
        search = _crossing(x_end, eb_end - mu, self.x_peak, self.eb_peak - mu, self.tol)
        return drive(search, lambda x: self.eb(x) - mu)

    def run(self, mus):
        """(points, parameter_grid, infeasible) as pareto_epsilon_constraint reports them."""
        p_tot = self.params.p_tot
        feasible = [float(mu) for mu in mus if mu <= self.eb_peak]
        xs = []
        for mu in feasible:
            left, right = self.end(0.0, mu), self.end(p_tot, mu)
            xs.append(self.x_peak if right - left <= self.tol else min(max(self.x_a, left), right))
        points = [ec_point(self.mode, self.samples, self.params, PowerAllocation.from_relay_power(x, p_tot)) for x in xs]
        mask = _dominance_mask(points, DOMINANCE_TOL)
        return (
            tuple(pt for pt, keep in zip(points, mask) if keep),
            tuple(mu for mu, keep in zip(feasible, mask) if keep),
            tuple(float(mu) for mu in mus if mu > self.eb_peak),
        )


class TestCrossing:
    TOL = 1e-6

    @pytest.mark.parametrize("x_bad, x_good", [(0.0, 3.0), (3.0, 0.0)])
    def test_feasible_side_within_tol_in_few_evals(self, x_bad, x_good):
        # Monotone between the ends and flat at the feasible one, like a
        # capacity near its peak; bisection would need log2(3 / TOL) probes.
        root = x_good + math.copysign(0.5 ** 0.5, x_bad - x_good)
        f = lambda x: 0.5 - (x - x_good) ** 2
        calls = []
        x = drive(_crossing(x_bad, f(x_bad), x_good, f(x_good), self.TOL), lambda x: calls.append(x) or f(x))
        assert f(x) >= 0.0
        assert abs(x - root) <= self.TOL
        assert len(calls) < math.ceil(math.log2(abs(x_good - x_bad) / self.TOL))

    def test_feasible_end_at_root(self):
        f = lambda x: x - 1.0
        x = drive(_crossing(0.0, -1.0, 1.0, 0.0, self.TOL), f)
        assert 1.0 - self.TOL <= x <= 1.0

    @pytest.mark.parametrize("x_bad, x_good", [(1000.0, 300.0), (0.0, 300.0)])
    def test_plateau_at_floor_bisects(self, x_bad, x_good):
        # zero on a plateau around the good end, like a capacity saturated at
        # its ceiling under a floor equal to it: the secant root is the good
        # end itself, so regula falsi alone would creep by tol/2
        p_tot, tol = 1000.0, 1e-6 * 1000.0
        root = x_good + math.copysign(200.0, x_bad - x_good)
        f = lambda x: min(0.0, 200.0 - abs(x - x_good))
        calls = []
        x = drive(_crossing(x_bad, f(x_bad), x_good, 0.0, tol), lambda x: calls.append(x) or f(x))
        assert f(x) == 0.0
        assert abs(x - root) <= tol
        assert len(calls) <= 2 * math.log2(p_tot / tol)


class TestFilterDominated:
    def test_drops_strictly_dominated(self):
        a = PowerAllocation(1.0, 1.0)
        pts = [
            EcPoint(1.0, 5.0, a),
            EcPoint(3.0, 3.0, a),
            EcPoint(0.5, 4.0, a),  # dominated by the first
            EcPoint(5.0, 1.0, a),
        ]
        assert _dominance_mask(pts, DOMINANCE_TOL) == [True, True, False, True]

    def test_keeps_ties_within_tolerance(self):
        a = PowerAllocation(1.0, 1.0)
        pts = [EcPoint(1.0, 1.0, a), EcPoint(1.0 + 1e-7, 1.0 + 1e-7, a)]
        assert _dominance_mask(pts, DOMINANCE_TOL) == [True, True]


class TestValleyDetector:
    def test_patterns(self):
        from relayec.solver import _has_interior_valley

        assert _has_interior_valley([(0.0, 1.0), (1.0, 0.5), (2.0, 0.8)])
        assert not _has_interior_valley([(0.0, 0.1), (1.0, 0.9), (2.0, 0.5)])
        # duplicate abscissas collapse instead of faking a valley
        assert not _has_interior_valley([(0.0, 0.1), (0.0, 0.1), (1.0, 0.2)])
        # steps within 1e-12 of the largest |f| count as flat
        assert _has_interior_valley([(0.0, 1.0), (1.0, 1.0 - 5e-12), (2.0, 1.0)])
        assert not _has_interior_valley([(0.0, 1.0), (1.0, 1.0 - 5e-13), (2.0, 1.0)])

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from((0.0, 1.0, 2.0, 3.0)) | st.floats(-1e3, 1e3),
                st.sampled_from((0.0, 1.0, 1.0 + 1e-13, 1.0 + 5e-12, -1.0, 1e-300)) | st.floats(-1e3, 1e3),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_array_oracle(self, probes):
        """Same decision as the detector written with arrays: sort, keep the
        first of equal abscissas, drop steps within 1e-12 of the largest
        |f|, and look for a fall followed by a rise."""
        from relayec.solver import _has_interior_valley

        pts = sorted(probes)
        xs, fs = np.array([x for x, _ in pts]), np.array([f for _, f in pts])
        fs = fs[np.concatenate(([True], np.diff(xs) > 0))]
        want = False
        if fs.size >= 3:
            d = np.diff(fs)
            signs = np.sign(d[np.abs(d) > 1e-12 * (float(np.max(np.abs(fs))) or 1.0)])
            want = bool(np.any((signs[:-1] < 0) & (signs[1:] > 0)))
        assert _has_interior_valley(probes) == want


class TestWarmStart:
    def test_blend_of_closed_forms(self):
        s = reference_samples(300, d_a=0.3)
        p = SystemParams.reference(d_a=0.3, w=0.25)
        ha, hb = s.mean_gains()
        want = 0.25 * optimal_relay_power_hd(ha, hb, p.p_tot, "A") + 0.75 * optimal_relay_power_hd(
            ha, hb, p.p_tot, "B"
        )
        p_a, p_b = _single_node_optima(RelayMode.HD, s.mean_gains(), p)
        assert p.w * p_a + (1.0 - p.w) * p_b == pytest.approx(want, rel=1e-12)

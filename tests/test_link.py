import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from oracles import threshold_roots_hd
from relayec import (
    Geometry,
    PowerAllocation,
    SystemParams,
    optimal_relay_power_fd,
    optimal_relay_power_hd,
    sinr_fd,
    snr_hd,
)


def alloc_of(p_r, p_tot=1000.0):
    return PowerAllocation.from_relay_power(p_r, p_tot)


def grid_argmax_hd(h_a, h_b, p_tot, node, n=100_000):
    # independent oracle written straight from the SNR quotient
    p_r = np.linspace(0.0, p_tot, n)
    p = (p_tot - p_r) / 2.0
    hr, ho = (h_a, h_b) if node == "A" else (h_b, h_a)
    g = p * p_r * hr * ho / (p_r * hr + p * hr + p * ho + 1.0)
    return p_r[np.argmax(g)], p_tot / (n - 1)


def grid_argmax_fd(h_a, h_b, p_tot, omega, node, n=100_000):
    p_r = np.linspace(0.0, p_tot, n)
    p = (p_tot - p_r) / 2.0
    hr, ho = (h_a, h_b) if node == "A" else (h_b, h_a)
    den = (
        p_r ** 2 * hr * omega
        + p_r * hr
        + (p * omega + 1.0) * (p * hr + p * ho + p_r * omega + 1.0)
    )
    g = p * p_r * hr * ho / den
    return p_r[np.argmax(g)], p_tot / (n - 1)


class TestPowerAllocation:
    def test_budget_split(self):
        a = PowerAllocation.from_relay_power(400.0, 1000.0)
        assert a.p_node == 300.0
        assert a.p_tot == 1000.0

    def test_equal_split(self):
        a = PowerAllocation.equal_split(900.0)
        assert a.p_r == 300.0
        assert a.p_node == 300.0

    def test_domain(self):
        with pytest.raises(ValueError):
            PowerAllocation.from_relay_power(-1.0, 100.0)
        with pytest.raises(ValueError):
            PowerAllocation.from_relay_power(101.0, 100.0)
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                PowerAllocation(p_r=bad, p_node=1.0)

    @pytest.mark.parametrize("name", ["p_r", "p_node"])
    def test_rejects_non_scalar(self, name):
        # a one-element array passed the range check and built an allocation
        for value in (np.array([1.0]), np.array([1.0, 2.0])):
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                PowerAllocation(**{"p_r": 1.0, "p_node": 2.0, name: value})
        assert PowerAllocation(**{"p_r": 1.0, "p_node": 2.0, name: np.float64(3.0)}) == PowerAllocation(
            **{"p_r": 1.0, "p_node": 2.0, name: 3.0}
        )


class TestSystemParams:
    def test_reference_set(self):
        p = SystemParams.reference()
        assert (p.m, p.p_tot, p.geom.alpha, p.geom.d_a) == (100, 1000.0, 4.0, 0.5)
        assert (p.eps_a, p.theta_a, p.gamma_t_a, p.w) == (1e-4, 1e-3, 1.0, 0.5)

    def test_field_defaults_are_readme_reference_set(self):
        assert SystemParams() == SystemParams.reference()
        # README: "... resets the scenario constants to the reference set (m=100, P_tot=1000 W, ...)"
        readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
        named = re.search(r"the reference set \(([^)]*)\)", readme).group(1)
        defaults = {f.name: f.default for f in fields(SystemParams)}
        covered = set()
        for key, value in (item.split("=") for item in named.split(", ")):
            if key in ("d_a", "alpha"):
                names, got = ["geom"], [getattr(defaults["geom"], key)]
            else:
                names = [key + "_a", key + "_b"] if key + "_a" in defaults else [key.lower()]
                got = [defaults[name] for name in names]
            assert got == [float(value.split()[0])] * len(names), key
            covered.update(names)
        assert covered == set(defaults) - {"hd_rate_blocklength"}

    def test_reference_overrides(self):
        p = SystemParams.reference(d_a=0.2, omega=0.05, w=0.9)
        assert p.geom.d_a == 0.2 and p.omega == 0.05 and p.w == 0.9

    def test_reference_geometry(self):
        geom = Geometry(d_a=0.2, alpha=3.0)
        assert SystemParams.reference(geom=geom, d_a=0.7, alpha=2.0).geom is geom  # geom wins
        assert SystemParams.reference(geom=None).geom == Geometry(d_a=0.5, alpha=4.0)
        p = SystemParams.reference(d_a=0.7, alpha=2.0, m=50, hd_rate_blocklength="m")
        assert p.geom == Geometry(d_a=0.7, alpha=2.0) and (p.m, p.hd_rate_blocklength) == (50, "m")

    def test_reference_rejects_unknown_key(self):
        with pytest.raises(TypeError):
            SystemParams.reference(d_b=0.5)

    def test_per_node_accessors(self):
        p = SystemParams.reference(eps_a=1e-3, eps_b=1e-5, theta_b=0.01)
        assert p.eps_for("A") == 1e-3 and p.eps_for("B") == 1e-5
        assert p.theta_for("B") == 0.01

    def test_domain(self):
        nan, inf = float("nan"), float("inf")
        for bad in (
            dict(m=0),
            dict(m=nan),
            dict(m=inf),
            dict(m=2.5),
            dict(omega=1.5),
            dict(w=-0.1),
            dict(eps_a=0.9),
            dict(hd_rate_blocklength="half"),
            dict(p_tot=nan),
            dict(p_tot=inf),
            dict(theta_a=nan),
            dict(theta_b=nan),
            dict(gamma_t_a=nan),
            dict(gamma_t_b=nan),
        ):
            with pytest.raises(ValueError):
                SystemParams.reference(**bad)

    @pytest.mark.parametrize(
        "name", ["m", "p_tot", "omega", "eps_a", "eps_b", "theta_a", "theta_b", "gamma_t_a", "gamma_t_b", "w"]
    )
    def test_rejects_non_scalar(self, name):
        # a one-element array passes every range check; the first solve then
        # failed inside the kernel build, or solved on without complaint (w)
        value = getattr(SystemParams.reference(), name)
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            SystemParams.reference(**{name: np.array([value])})
        assert getattr(SystemParams.reference(**{name: np.float64(value)}), name) == value


class TestSnrHd:
    def test_zero_relay_power(self):
        assert snr_hd(alloc_of(0.0), 2.0, 3.0, "A") == 0.0

    def test_zero_node_power(self):
        assert snr_hd(alloc_of(1000.0), 2.0, 3.0, "A") == 0.0

    def test_hand_value(self):
        # P = 300, P_R = 400, unit gains: 300*400 / (400 + 300 + 300 + 1)
        got = snr_hd(alloc_of(400.0), 1.0, 1.0, "A")
        assert got == pytest.approx(120000.0 / 1001.0, rel=1e-12)

    def test_node_role_swap(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ha, hb = rng.exponential(2.0, size=2)
            a = alloc_of(float(rng.uniform(1.0, 999.0)))
            assert snr_hd(a, ha, hb, "B") == snr_hd(a, hb, ha, "A")
            assert sinr_fd(a, 0.2, ha, hb, "B") == sinr_fd(a, 0.2, hb, ha, "A")
            assert optimal_relay_power_hd(ha, hb, 1000.0, "B") == optimal_relay_power_hd(
                hb, ha, 1000.0, "A"
            )
            assert optimal_relay_power_fd(ha, hb, 1000.0, 0.2, "B") == optimal_relay_power_fd(
                hb, ha, 1000.0, 0.2, "A"
            )

    def test_vectorized_over_gains(self):
        ha = np.array([1.0, 2.0])
        hb = np.array([3.0, 4.0])
        a = alloc_of(500.0)
        out = snr_hd(a, ha, hb, "A")
        assert out.shape == (2,)
        assert out[1] == snr_hd(a, 2.0, 4.0, "A")

    def test_bad_node(self):
        with pytest.raises(ValueError):
            snr_hd(alloc_of(1.0), 1.0, 1.0, "C")


class TestSinrFd:
    def test_hand_value(self):
        # P = 300, P_R = 400, omega = 0.1, unit gains:
        # 120000 / (16000 + 400 + 31 * 641)
        got = sinr_fd(alloc_of(400.0), 0.1, 1.0, 1.0, "A")
        assert got == pytest.approx(120000.0 / 36271.0, rel=1e-12)

    def test_zero_relay_power(self):
        assert sinr_fd(alloc_of(0.0), 0.3, 2.0, 3.0, "A") == 0.0

    def test_zero_interference_reduces_to_hd_exactly(self):
        rng = np.random.default_rng(1)
        ha = rng.exponential(5.0, size=200)
        hb = rng.exponential(0.5, size=200)
        for p_r in np.linspace(0.0, 1000.0, 23):
            a = alloc_of(float(p_r))
            for node in ("A", "B"):
                fd = sinr_fd(a, 0.0, ha, hb, node)
                hd = snr_hd(a, ha, hb, node)
                assert np.max(np.abs(fd - hd)) == 0.0

    def test_decreasing_in_omega(self):
        a = alloc_of(400.0)
        vals = [sinr_fd(a, om, 2.0, 1.0, "A") for om in (0.0, 0.01, 0.1, 0.5, 1.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_omega_domain(self):
        with pytest.raises(ValueError):
            sinr_fd(alloc_of(1.0), 1.2, 1.0, 1.0, "A")


class TestOptimalRelayPowerHd:
    def test_symmetric_gains_take_half(self):
        for h in (0.01, 1.0, 50.0):
            assert optimal_relay_power_hd(h, h, 10.0, "A") == pytest.approx(5.0, rel=1e-12)

    def test_near_singular_gains_stay_finite(self):
        h = 2.0
        p = optimal_relay_power_hd(h, h * (1.0 + 1e-13), 10.0, "A")
        assert p == pytest.approx(5.0, rel=1e-6)

    def test_matches_grid_argmax(self):
        x, step = grid_argmax_hd(2.0, 1.0, 10.0, "A", n=1_000_000)
        assert abs(optimal_relay_power_hd(2.0, 1.0, 10.0, "A") - x) <= step

    def test_randomized_grid_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ha, hb = rng.exponential(1.0, size=2) + 1e-3
            p_tot = float(rng.uniform(5.0, 2000.0))
            for node in ("A", "B"):
                x, step = grid_argmax_hd(ha, hb, p_tot, node)
                assert abs(optimal_relay_power_hd(ha, hb, p_tot, node) - x) <= step

    def test_interior(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ha, hb = rng.exponential(1.0, size=2) + 1e-6
            p_tot = float(rng.uniform(1.0, 5000.0))
            p = optimal_relay_power_hd(ha, hb, p_tot, "A")
            assert 0.0 < p < p_tot

    def test_concave_at_optimum(self):
        p_tot = 10.0
        p = optimal_relay_power_hd(2.0, 1.0, p_tot, "A")
        h = 1e-4
        f = lambda x: snr_hd(alloc_of(x, p_tot), 2.0, 1.0, "A")
        assert f(p + h) - 2.0 * f(p) + f(p - h) <= 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_relay_power_hd(0.0, 1.0, 10.0, "A")


class TestOptimalRelayPowerFd:
    def test_zero_interference_equals_hd(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ha, hb = rng.exponential(1.0, size=2) + 1e-3
            p_tot = float(rng.uniform(5.0, 2000.0))
            assert optimal_relay_power_fd(ha, hb, p_tot, 0.0, "A") == optimal_relay_power_hd(
                ha, hb, p_tot, "A"
            )

    def test_matches_grid_argmax(self):
        x, step = grid_argmax_fd(2.0, 1.0, 10.0, 0.1, "A", n=1_000_000)
        assert abs(optimal_relay_power_fd(2.0, 1.0, 10.0, 0.1, "A") - x) <= step

    def test_randomized_grid_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ha, hb = rng.exponential(1.0, size=2) + 1e-3
            p_tot = float(rng.uniform(5.0, 2000.0))
            om = float(rng.uniform(0.0, 0.5))
            for node in ("A", "B"):
                x, step = grid_argmax_fd(ha, hb, p_tot, om, node)
                assert abs(optimal_relay_power_fd(ha, hb, p_tot, om, node) - x) <= step

    def test_slope_changes_sign_at_optimum(self):
        p = optimal_relay_power_fd(1.0, 1.0, 10.0, 0.05, "A")
        f = lambda x: sinr_fd(alloc_of(x, 10.0), 0.05, 1.0, 1.0, "A")
        h = 1e-5
        assert f(p - 10 * h) < f(p - 10 * h + h)
        assert f(p + 10 * h) > f(p + 10 * h + h)


class TestThresholdRootsHd:
    def test_roots_reproduce_threshold(self):
        roots = threshold_roots_hd(2.0, 1.0, 10.0, 1.0, "A")
        assert roots is not None
        p1, p2 = roots
        assert p1 <= p2
        for p in roots:
            assert snr_hd(alloc_of(p, 10.0), 2.0, 1.0, "A") == pytest.approx(1.0, abs=1e-8)

    def test_matches_polynomial_oracle(self):
        # independent solve via numpy roots of the cleared-fraction quadratic
        rng = np.random.default_rng(6)
        for _ in range(50):
            ha, hb = rng.exponential(1.0, size=2) + 1e-3
            p_tot = float(rng.uniform(5.0, 500.0))
            peak_p = optimal_relay_power_hd(ha, hb, p_tot, "A")
            peak = snr_hd(alloc_of(peak_p, p_tot), ha, hb, "A")
            g_t = float(rng.uniform(0.1, 1.2)) * peak
            got = threshold_roots_hd(ha, hb, p_tot, g_t, "A")
            if g_t > peak:
                assert got is None
                continue
            coeffs = [ha * hb, g_t * (ha - hb) - ha * hb * p_tot, g_t * ((ha + hb) * p_tot + 2.0)]
            expected = sorted(np.roots(coeffs).real)
            assert got is not None
            assert got[0] == pytest.approx(expected[0], rel=1e-9, abs=1e-9)
            assert got[1] == pytest.approx(expected[1], rel=1e-9, abs=1e-9)

    def test_no_solution_above_peak(self):
        p = optimal_relay_power_hd(2.0, 1.0, 10.0, "A")
        peak = snr_hd(alloc_of(p, 10.0), 2.0, 1.0, "A")
        assert threshold_roots_hd(2.0, 1.0, 10.0, 1.01 * peak, "A") is None

    def test_roots_bracket_maximizer(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ha, hb = rng.exponential(1.0, size=2) + 1e-3
            p_tot = float(rng.uniform(5.0, 500.0))
            p_star = optimal_relay_power_hd(ha, hb, p_tot, "B")
            peak = snr_hd(alloc_of(p_star, p_tot), ha, hb, "B")
            roots = threshold_roots_hd(ha, hb, p_tot, 0.5 * peak, "B")
            assert roots is not None and roots[0] <= p_star <= roots[1]

    def test_domain(self):
        with pytest.raises(ValueError):
            threshold_roots_hd(1.0, 1.0, 10.0, 0.0, "A")


class TestShapeProperties:
    def test_hd_snr_concave_in_relay_power(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(0.0, 1.0, 512)
        for _ in range(200):
            ha, hb = rng.exponential(1.0, size=2) + 1e-4
            p_tot = float(rng.uniform(1.0, 2000.0))
            p_r = grid * p_tot
            vals = np.array([snr_hd(alloc_of(float(x), p_tot), ha, hb, "A") for x in p_r])
            d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            assert np.all(d2 <= 1e-9)

    def test_fd_sinr_single_peak(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 1.0, 512)
        for _ in range(60):
            ha, hb = rng.exponential(1.0, size=2) + 1e-4
            p_tot = float(rng.uniform(1.0, 2000.0))
            for om in (0.01, 0.1, 0.5):
                vals = np.array(
                    [sinr_fd(alloc_of(float(x * p_tot), p_tot), om, ha, hb, "A") for x in grid]
                )
                d = np.diff(vals)
                signs = np.sign(d[np.abs(d) > 1e-14 * max(1.0, float(np.max(vals)))])
                flips_down = int(np.sum((signs[:-1] > 0) & (signs[1:] < 0)))
                flips_up = int(np.sum((signs[:-1] < 0) & (signs[1:] > 0)))
                assert flips_down == 1 and flips_up == 0

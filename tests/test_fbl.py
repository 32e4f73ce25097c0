import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import q_tail
from relayec import fbl_rate, inverse_q

LOG2E = math.log2(math.e)

# frozen with an independent high-precision bisection on the erfc-based
# tail (40-digit arithmetic, interval width 1e-30)
QINV_1E4 = 3.7190164854556805644
QINV_1E8 = 5.6120012441747887315
QINV_03 = 0.52440051270804078404
Q_AT_2 = 0.0227501319481792072
RATE_10_100_1E4 = 2.9915512264954242528
RATE_2P5_50_1E4 = 1.1930789505473483916


def q_oracle(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def qinv_bisect(p: float) -> float:
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_oracle(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInverseQ:
    def test_median(self):
        assert inverse_q(0.5) == 0.0

    def test_frozen_values(self):
        assert inverse_q(1e-4) == pytest.approx(QINV_1E4, rel=1e-12)
        assert inverse_q(1e-8) == pytest.approx(QINV_1E8, rel=1e-12)
        assert inverse_q(0.3) == pytest.approx(QINV_03, rel=1e-12)
        assert inverse_q(Q_AT_2) == pytest.approx(2.0, rel=1e-12)

    def test_matches_bisection_oracle(self):
        for p in (1e-10, 1e-6, 1e-3, 0.02, 0.2, 0.5, 0.8, 0.999):
            assert inverse_q(p) == pytest.approx(qinv_bisect(p), abs=1e-10)

    def test_round_trip(self):
        ps = np.logspace(-12, np.log10(0.5), 40)
        ps = np.concatenate([ps, 1.0 - ps])
        for p in ps:
            assert abs(q_tail(inverse_q(p)) - p) / p <= 1e-10

    def test_odd_symmetry(self):
        for p in np.logspace(-3, np.log10(0.5), 25):
            assert inverse_q(1.0 - p) == pytest.approx(-inverse_q(p), abs=1e-10)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                inverse_q(bad)

    def test_nan_rejected(self):
        # NaN fails every comparison, so a check for the bad side lets it through
        for bad in (math.nan, np.float64("nan")):
            with pytest.raises(ValueError):
                inverse_q(bad)
        # a numpy float scalar is taken as its float; a list or an array is
        # rejected, NaN-free or not
        assert inverse_q(np.float32(1e-3)) == inverse_q(float(np.float32(1e-3)))
        for bad in (np.float32("nan"), [math.nan], [0.5], np.array([0.5, math.nan]), np.array(0.5)):
            with pytest.raises(ValueError):
                inverse_q(bad)


class TestMatchesScipy:
    """inverse_q is AS241 and scipy's ndtri is Cephes: two approximations of
    one function, each within a few ulp of the 40-digit root, so they agree
    to ULPS ulp (the largest gap seen over 2e6 draws was 8); q_tail's erfc
    is a different implementation and agrees to rounding only."""

    EXPM2 = math.exp(-2.0)
    ULPS = 12

    def assert_within_ulps(self, p: float):
        got, want = inverse_q(p), -float(scipy.special.ndtri(p))
        assert abs(got - want) <= self.ULPS * math.ulp(want), p

    def test_fixed_points(self):
        # the branch edges of both: Cephes' exp(-2), 1 - exp(-2) and exp(-32)
        # (z = 8), AS241's 0.075, 0.925 (|p - 0.5| = 0.425) and exp(-25)
        # (r = 5), each with its float neighbours
        edges = [0.5, self.EXPM2, 1.0 - self.EXPM2, math.exp(-32.0), 0.075, 0.925, math.exp(-25.0)]
        neighbours = [math.nextafter(p, toward) for p in edges for toward in (0.0, 1.0)]
        for p in edges + neighbours + [5e-324, 1e-300, 1e-15, 1e-13, 1.0 - 2.0**-53]:
            self.assert_within_ulps(p)

    @settings(max_examples=300)
    @given(st.floats(min_value=math.log(5e-324), max_value=0.0).map(math.exp).filter(lambda p: 0.0 < p < 1.0))
    def test_log_uniform(self, p):
        self.assert_within_ulps(p)

    @settings(max_examples=300)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_uniform(self, p):
        self.assert_within_ulps(p)

    def test_array_draws(self):
        # scipy's array ndtri against the float path, draw by draw
        rng = np.random.default_rng(5)
        p = np.concatenate([10.0 ** rng.uniform(-300.0, 0.0, 4000), rng.uniform(0.0, 1.0, 4000)])
        p = p[(p > 0.0) & (p < 1.0)]
        want = -scipy.special.ndtri(p)
        got = np.array([inverse_q(v) for v in p.tolist()])
        assert np.all(np.abs(got - want) <= self.ULPS * np.spacing(np.abs(want)))

    def test_q_tail(self):
        x = np.concatenate([np.linspace(-8.0, 8.0, 801), np.logspace(-6.0, np.log10(37.0), 200)])
        want = 0.5 * scipy.special.erfc(x / np.sqrt(2.0))
        np.testing.assert_allclose(q_tail(x), want, rtol=1e-13, atol=0.0)
        assert all(q_tail(float(v)) == got for v, got in zip(x, q_tail(x)))


class TestFblRate:
    def test_half_eps_kills_dispersion(self):
        # Qinv(0.5) = 0, leaving capacity plus the blocklength bonus
        assert fbl_rate(3.0, 100, 0.5) == pytest.approx(
            2.0 + math.log2(100) / 100, rel=1e-12
        )

    def test_zero_snr(self):
        assert fbl_rate(0.0, 100, 1e-4) == pytest.approx(math.log2(100) / 100, rel=1e-12)

    def test_frozen_high_precision_values(self):
        assert fbl_rate(10.0, 100, 1e-4) == pytest.approx(RATE_10_100_1E4, rel=1e-9)
        assert fbl_rate(2.5, 50, 1e-4) == pytest.approx(RATE_2P5_50_1E4, rel=1e-9)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = float(rng.uniform(0.0, 200.0))
            m = float(rng.integers(2, 2000))
            eps = float(10 ** rng.uniform(-9, np.log10(0.5)))
            direct = (
                math.log2(1.0 + g)
                - math.sqrt(g * (g + 2.0) / (m * (g + 1.0) ** 2))
                * qinv_bisect(eps) * LOG2E
                + math.log2(m) / m
            )
            assert fbl_rate(g, m, eps) == pytest.approx(direct, abs=1e-9)

    def test_can_be_negative_in_deep_fade(self):
        assert fbl_rate(0.1, 50, 1e-8) < 0.0

    def test_vector_matches_scalar(self):
        g = np.array([0.0, 1.0, 10.0, 500.0])
        vec = fbl_rate(g, 100, 1e-4)
        for i, gi in enumerate(g):
            assert vec[i] == fbl_rate(float(gi), 100, 1e-4)

    def test_increasing_in_eps(self):
        eps = np.logspace(-9, np.log10(0.5), 30)
        r = np.array([fbl_rate(5.0, 200, float(e)) for e in eps])
        assert np.all(np.diff(r) > 0.0)

    def test_shannon_limit_for_long_packets(self):
        for g in np.linspace(1.0, 100.0, 12):
            assert abs(fbl_rate(g, 1e8, 1e-4) - math.log2(1.0 + g)) < 1e-3

    def test_monotone_concave_on_safe_region(self):
        grid = np.logspace(np.log10(1.01), 3.0, 200)
        for m in (101, 200, 1000):
            for eps in (1e-9, 1e-4, 0.4):
                r = fbl_rate(grid, m, eps)
                assert np.all(np.diff(r) > 0.0), (m, eps)
                # concavity on the unevenly spaced grid: slopes never increase
                slopes = np.diff(r) / np.diff(grid)
                assert np.all(np.diff(slopes) <= 1e-9), (m, eps)

    def test_domain(self):
        with pytest.raises(ValueError):
            fbl_rate(1.0, 0, 1e-4)
        with pytest.raises(ValueError):
            fbl_rate(1.0, 100, 0.7)
        with pytest.raises(ValueError):
            fbl_rate(1.0, 100, 0.0)
        with pytest.raises(ValueError):
            fbl_rate(-0.5, 100, 1e-4)
        for gamma, m_cu in ((math.nan, 100), (np.array([1.0, math.nan]), 100), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError):
                fbl_rate(gamma, m_cu, 1e-4)


class TestRateShape:
    def test_reference_points(self):
        # increasing and concave in the SNR: central differences, with the
        # second allowed 1e-12 of rounding noise from the cancellation
        for gamma, m_cu, eps, step in ((5.0, 200, 1e-4, 1e-3), (2.0, 1000, 1e-2, 1e-3), (1000.0, 100, 0.5, 1e-2)):
            lo, mid, hi = (fbl_rate(g, m_cu, eps) for g in (gamma - step, gamma, gamma + step))
            assert hi - lo > 0.0 and hi - 2.0 * mid + lo <= 1e-12, (gamma, m_cu, eps)

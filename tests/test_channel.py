import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from relayec import (
    ChannelSamples,
    Geometry,
    PowerAllocation,
    RelayMode,
    SystemParams,
    ec_point,
    load_csv,
    sample_channels,
    save_csv,
)
from relayec.capacity import _BLOCK


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGeometry:
    def test_d_b_derived(self):
        g = Geometry(d_a=0.3, alpha=4.0)
        assert g.d_b == pytest.approx(0.7)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                Geometry(d_a=bad, alpha=4.0)
        for bad in (0.0, float("nan")):
            with pytest.raises(ValueError):
                Geometry(d_a=0.5, alpha=bad)

    @pytest.mark.parametrize("d_a", [0.05, 0.95, np.float64(0.05)])
    def test_rejects_overflowing_path_gain(self, d_a):
        # 20 ** 300 overflows a float: sample_channels raised OverflowError.  20 ** 236 ~ 1e307
        # is finite, but a draw of up to 36.74 times it is not: mean_gains overflowed
        for alpha in (300.0, 236.0):
            with pytest.raises(ValueError, match="path gain d \\*\\* -alpha overflows"):
                Geometry(d_a=d_a, alpha=alpha)
        assert Geometry(d_a=d_a, alpha=235.0).alpha == 235.0  # 36.74 * 20 ** 235 ~ 2e307

    @pytest.mark.parametrize("name", ["d_a", "alpha"])
    def test_rejects_non_scalar(self, name):
        # a one-element array passed the range checks and a solve ran on it;
        # a longer one failed with numpy's truth-value message, not a field name
        for value in (np.array([0.5]), np.array([0.2, 0.3])):
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                Geometry(**{"d_a": 0.5, "alpha": 4.0, name: value})
        assert Geometry(**{"d_a": 0.5, "alpha": 4.0, name: np.float64(0.25)}) == Geometry(
            **{"d_a": 0.5, "alpha": 4.0, name: 0.25}
        )


class TestSampling:
    def test_seed_determinism(self):
        g = Geometry(d_a=0.5, alpha=4.0)
        s1 = sample_channels(g, 100, seed=42)
        s2 = sample_channels(g, 100, seed=42)
        assert np.array_equal(s1.h_a, s2.h_a)
        assert np.array_equal(s1.h_b, s2.h_b)
        s3 = sample_channels(g, 100, seed=43)
        assert not np.array_equal(s1.h_a, s3.h_a)

    def test_mean_gain_midpoint(self):
        # E[H_A] = d_a^-alpha = 16; the sample mean sits in the 3-sigma band
        n = 100_000
        s = sample_channels(Geometry(d_a=0.5, alpha=4.0), n, seed=7)
        band = 3.0 * 16.0 / np.sqrt(n)
        assert abs(s.h_a.mean() - 16.0) < band
        assert abs(s.h_b.mean() - 16.0) < band

    def test_mean_gain_ratio_asymmetric(self):
        s = sample_channels(Geometry(d_a=0.2, alpha=4.0), 100_000, seed=7)
        ratio = s.h_a.mean() / s.h_b.mean()
        assert ratio == pytest.approx((0.8 / 0.2) ** 4, rel=0.2)

    def test_normalized_gains_are_unit_exponential(self):
        g = Geometry(d_a=0.35, alpha=4.0)
        s = sample_channels(g, 10_000, seed=3)
        ks_a = stats.kstest(s.h_a * g.d_a ** g.alpha, "expon").statistic
        ks_b = stats.kstest(s.h_b * g.d_b ** g.alpha, "expon").statistic
        assert ks_a < 0.02
        assert ks_b < 0.02

    def test_links_uncorrelated(self):
        s = sample_channels(Geometry(d_a=0.5, alpha=4.0), 10_000, seed=5)
        rho = np.corrcoef(s.h_a, s.h_b)[0, 1]
        assert abs(rho) < 0.05

    def test_strictly_positive(self):
        s = sample_channels(Geometry(d_a=0.9, alpha=6.0), 50_000, seed=1)
        assert np.all(s.h_a > 0.0)
        assert np.all(s.h_b > 0.0)

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            sample_channels(Geometry(d_a=0.5, alpha=4.0), 0, seed=1)

    @pytest.mark.parametrize("n, seed", [(100.7, 1), (100.0, 1), (100, 1.5), (100, "1"), ("100", 1)])
    def test_non_integer_count_or_seed_rejected(self, n, seed):
        with pytest.raises(ValueError, match="integers"):
            sample_channels(Geometry(d_a=0.5, alpha=4.0), n, seed)

    def test_numpy_integer_count_and_seed_accepted(self):
        g = Geometry(d_a=0.5, alpha=4.0)
        s = sample_channels(g, np.int64(100), np.uint32(42))
        assert np.array_equal(s.h_a, sample_channels(g, 100, 42).h_a)

    @pytest.mark.parametrize("n", (1, 17, _BLOCK + 3))
    @pytest.mark.parametrize("geom", (Geometry(d_a=0.3, alpha=4.0), Geometry(d_a=0.65, alpha=2.7)))
    def test_stream_pinned(self, n, geom):
        # the inverse-CDF formula written out on the A-then-B uniform stream
        rng = np.random.default_rng(11)
        u_a, u_b = rng.random(n), rng.random(n)
        want = []
        for u, d in ((u_a, geom.d_a), (u_b, geom.d_b)):
            e = -np.log1p(-u)
            e[e == 0.0] = np.finfo(float).tiny
            want.append(e * d**-geom.alpha)
        s = sample_channels(geom, n, seed=11)
        assert s.h_a.tobytes() == want[0].tobytes()
        assert s.h_b.tobytes() == want[1].tobytes()

    def test_zero_draw_clamped_to_tiny(self, monkeypatch):
        class ZeroGenerator:
            def random(self, n):
                return np.zeros(n)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroGenerator())
        g = Geometry(d_a=0.3, alpha=4.0)
        s = sample_channels(g, 5, seed=1)
        tiny = np.finfo(float).tiny
        assert s.h_a.tolist() == [tiny * g.d_a**-g.alpha] * 5
        assert s.h_b.tolist() == [tiny * g.d_b**-g.alpha] * 5

    def test_memory_is_the_output(self):
        # two 8 MiB gain arrays; the draw is finished in place, with no temporaries
        assert traced_peak(lambda: sample_channels(Geometry(d_a=0.5, alpha=4.0), 2**20, seed=4)) < 17 * 2**20

    def test_mean_gains(self):
        s = sample_channels(Geometry(d_a=0.5, alpha=4.0), 500, seed=2)
        ma, mb = s.mean_gains()
        assert ma == pytest.approx(s.h_a.mean())
        assert mb == pytest.approx(s.h_b.mean())
        assert len(s) == 500


class TestSampleValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ChannelSamples(h_a=np.array([1.0, 0.0]), h_b=np.array([1.0, 1.0]))

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            for h_a, h_b in ((np.array([1.0, bad]), np.ones(2)), (np.ones(2), np.array([bad, 1.0]))):
                with pytest.raises(ValueError):
                    ChannelSamples(h_a=h_a, h_b=h_b)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChannelSamples(h_a=np.array([]), h_b=np.array([]))

    def test_rejects_overflowing_gain_sum(self):
        # each gain is finite, but their sum, which mean_gains forms, is not
        big = np.full(3, sys.float_info.max / 2.5)
        with pytest.raises(ValueError, match="their sums"):
            ChannelSamples(h_a=big, h_b=np.ones(3))
        with pytest.raises(ValueError, match="their sums"):
            ChannelSamples(h_a=np.ones(3), h_b=big)
        assert ChannelSamples(h_a=big[:2], h_b=np.ones(2)).mean_gains() == (big[0], 1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ChannelSamples(h_a=np.ones(3), h_b=np.ones(4))

    def test_strided_input_stored_contiguous(self):
        s = sample_channels(Geometry(d_a=0.3, alpha=4.0), 1000, seed=6)
        pairs = np.stack([s.h_a, s.h_b], axis=1)
        strided = ChannelSamples(h_a=pairs[:, 0], h_b=pairs[:, 1])
        assert strided.h_a.flags.c_contiguous and strided.h_b.flags.c_contiguous
        p = SystemParams.reference(d_a=0.3, omega=0.05)
        alloc = PowerAllocation.from_relay_power(300.0, p.p_tot)
        for mode in RelayMode:
            assert ec_point(mode, strided, p, alloc) == ec_point(mode, s, p, alloc)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        s = sample_channels(Geometry(d_a=0.4, alpha=4.0), 256, seed=9)
        path = tmp_path / "samples.csv"
        save_csv(s, path)
        back = load_csv(path)
        assert np.array_equal(back.h_a, s.h_a)
        assert np.array_equal(back.h_b, s.h_b)
        assert path.read_text().splitlines()[0] == "h_a,h_b"

    def test_exact_bytes(self, tmp_path):
        # shortest round-trip reprs, a denormal and both extremes included
        gains = [5e-324, 1e-300, 0.1, 1.0 / 3.0, 1e300]
        path = tmp_path / "samples.csv"
        save_csv(ChannelSamples(np.array(gains), np.array(gains[::-1])), path)
        assert path.read_bytes() == (
            b"h_a,h_b\n5e-324,1e+300\n1e-300,0.3333333333333333\n0.1,0.1\n0.3333333333333333,1e-300\n1e+300,5e-324\n"
        )

    @settings(max_examples=50, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(*[st.floats(min_value=5e-324, max_value=1.7976931348623157e308, allow_subnormal=True)] * 2),
            min_size=1,
            max_size=20,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, pairs):
        # every positive finite double, subnormals included, comes back as itself
        h_a, h_b = (list(column) for column in zip(*pairs))
        if max(h_a + h_b) * len(pairs) == math.inf:  # no sample set: its gain sum can overflow
            with pytest.raises(ValueError, match="their sums"):
                ChannelSamples(np.array(h_a), np.array(h_b))
            return
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        save_csv(ChannelSamples(np.array(h_a), np.array(h_b)), path)
        back = load_csv(path)
        assert (back.h_a.tolist(), back.h_b.tolist()) == (h_a, h_b)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_rejects_nan_row(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("h_a,h_b\n1.0,2.0\nnan,2.0\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_loaded_gains_contiguous(self, tmp_path):
        path = tmp_path / "samples.csv"
        save_csv(sample_channels(Geometry(d_a=0.4, alpha=4.0), 64, seed=9), path)
        back = load_csv(path)
        assert back.h_a.flags.c_contiguous and back.h_b.flags.c_contiguous

    def test_load_memory_near_result(self, tmp_path):
        # 2^16 rows make a 1 MiB result; a row-by-row parse peaks near 10 MiB
        path = tmp_path / "samples.csv"
        save_csv(sample_channels(Geometry(d_a=0.4, alpha=4.0), 2**16, seed=9), path)
        assert traced_peak(lambda: load_csv(path)) < 3 * 2**20

    @pytest.mark.parametrize(
        "body",
        ("1.0,2.0\n3.0\n", "1.0,2.0\n3.0,4.0,5.0\n", "1.0\n2.0\n", "1.0,2.0\nabc,4.0\n", "1.0,\n", "# note\n1.0,2.0\n"),
        ids=("short-row", "long-row", "one-column", "non-numeric", "empty-field", "comment"),
    )
    def test_rejects_malformed_rows(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("h_a,h_b\n" + body)
        with pytest.raises(ValueError):
            load_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("h_a,h_b\n")
        with pytest.raises(ValueError):
            load_csv(path)

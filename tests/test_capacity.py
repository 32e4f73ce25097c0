import csv
import functools
import math
import os
import re
import select
import signal
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from oracles import per_sample_rates
from relayec import (
    ChannelSamples,
    Geometry,
    PowerAllocation,
    RelayMode,
    SystemParams,
    ec_point,
    effective_capacity,
    fbl_rate,
    sample_channels,
    save_csv,
    sinr_fd,
    snr_hd,
)
import relayec.capacity as capacity
from relayec.capacity import _BLOCK, _BUFSIZE, _kernel

# frozen independently (bisection on the Gaussian tail at 40 digits)
QINV = {1e-4: 3.7190164854556805644, 1e-2: 2.3263478740408408034}
LOG2E = math.log2(math.e)


def reference_samples(n=1000, seed=7, d_a=0.5):
    return sample_channels(Geometry(d_a=d_a, alpha=4.0), n, seed)


def closed_form_ec(rate, m, theta, eps, c):
    """Single-rate effective capacity, written independently."""
    return -math.log(math.exp(-rate * c * theta) * (1.0 - eps) + eps) / (m * theta)


class TestEffectiveCapacity:
    def test_zero_relay_power_collapses_to_constant_rate(self):
        p = SystemParams.reference()
        s = reference_samples(200)
        alloc = PowerAllocation.from_relay_power(0.0, p.p_tot)
        r0 = fbl_rate(0.0, p.m / 2.0, p.eps_a)
        want = closed_form_ec(r0, p.m, p.theta_a, p.eps_a, p.m / 2.0)
        got = effective_capacity(RelayMode.HD, s, p, alloc, "A")
        assert got == pytest.approx(want, rel=1e-12)

    def test_half_eps_drops_dispersion(self):
        # at eps = 0.5 the rates are pure capacity plus blocklength bonus;
        # recompute the estimator from those rates by hand
        p = SystemParams.reference(eps_a=0.5, eps_b=0.5)
        s = reference_samples(300)
        alloc = PowerAllocation.from_relay_power(400.0, p.p_tot)
        from relayec import snr_hd

        g = snr_hd(alloc, s.h_a, s.h_b, "A")
        m_cu = p.m / 2.0
        rates = np.log2(1.0 + g) + math.log2(m_cu) / m_cu
        c_theta = (p.m / 2.0) * p.theta_a
        mean_term = np.mean(np.exp(-rates * c_theta) * 0.5 + 0.5)
        want = -math.log(mean_term) / (p.m * p.theta_a)
        got = effective_capacity(RelayMode.HD, s, p, alloc, "A")
        assert got == pytest.approx(want, rel=1e-10)

    def test_matches_straight_line_oracle_over_csv(self, tmp_path):
        # export the samples, then recompute the HD estimator from the CSV
        # with plain python floats and the frozen inverse-Q constant
        p = SystemParams.reference()
        s = reference_samples(1000, seed=7)
        path = tmp_path / "samples.csv"
        save_csv(s, path)

        with path.open() as fh:
            reader = csv.DictReader(fh)
            rows = [(float(r["h_a"]), float(r["h_b"])) for r in reader]

        p_r, p_tot, m = p.p_tot / 3.0, p.p_tot, p.m
        pn = (p_tot - p_r) / 2.0
        m_cu = m / 2.0
        qinv = QINV[1e-4]
        acc = []
        for h_a, h_b in rows:
            gamma = pn * p_r * h_a * h_b / (p_r * h_a + pn * h_a + pn * h_b + 1.0)
            rate = (
                math.log2(1.0 + gamma)
                - math.sqrt(gamma * (gamma + 2.0) / (m_cu * (gamma + 1.0) ** 2))
                * qinv * LOG2E
                + math.log2(m_cu) / m_cu
            )
            acc.append(math.exp(-rate * (m / 2.0) * p.theta_a) * (1.0 - p.eps_a) + p.eps_a)
        oracle = -math.log(math.fsum(acc) / len(acc)) / (m * p.theta_a)

        alloc = PowerAllocation.from_relay_power(p_r, p_tot)
        got = effective_capacity(RelayMode.HD, s, p, alloc, "A")
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_monotone_in_omega(self):
        p = SystemParams.reference()
        s = reference_samples(500)
        alloc = PowerAllocation.from_relay_power(400.0, p.p_tot)
        vals = [
            effective_capacity(RelayMode.FD, s, p.with_(omega=om), alloc, "A")
            for om in (0.0, 0.01, 0.05, 0.1, 0.3, 0.5)
        ]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_monotone_in_theta(self):
        p = SystemParams.reference()
        s = reference_samples(500)
        alloc = PowerAllocation.from_relay_power(400.0, p.p_tot)
        for mode in RelayMode:
            vals = [
                effective_capacity(mode, s, p.with_(theta_a=th, theta_b=th), alloc, "A")
                for th in np.logspace(-5, -0.5, 12)
            ]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_small_theta_limit_is_mean_rate(self):
        p = SystemParams.reference(theta_a=1e-8, theta_b=1e-8)
        s = reference_samples(500)
        alloc = PowerAllocation.from_relay_power(400.0, p.p_tot)
        for mode, c_over_m in ((RelayMode.HD, 0.5), (RelayMode.FD, 1.0)):
            rates = per_sample_rates(mode, s, p, alloc, "A")
            got = effective_capacity(mode, s, p, alloc, "A")
            assert abs(got - c_over_m * rates.mean()) < 1e-3

    def test_upper_bound_by_best_sample(self):
        p = SystemParams.reference()
        s = reference_samples(500)
        for mode, c_over_m in ((RelayMode.HD, 0.5), (RelayMode.FD, 1.0)):
            for p_r in (100.0, 500.0, 900.0):
                alloc = PowerAllocation.from_relay_power(p_r, p.p_tot)
                rates = per_sample_rates(mode, s, p, alloc, "A")
                margin = -math.log1p(-p.eps_a) / (p.m * p.theta_a)
                got = effective_capacity(mode, s, p, alloc, "A")
                assert got <= c_over_m * rates.max() + margin + 1e-12

    def test_single_descent_from_peak_in_relay_power(self):
        # exactly one +/- slope flip: one interior peak.  (Tiny dips hug the
        # budget edges where all SNRs collapse and the dispersion term bends
        # the rate model; they never add a second descent.)
        p = SystemParams.reference()
        s = reference_samples(300)
        grid = np.linspace(0.0, p.p_tot, 512)
        for mode, omegas in ((RelayMode.HD, (0.0,)), (RelayMode.FD, (0.01, 0.1, 0.5))):
            for om in omegas:
                q = p.with_(omega=om)
                vals = np.array(
                    [
                        effective_capacity(
                            mode, s, q, PowerAllocation.from_relay_power(float(x), q.p_tot), "A"
                        )
                        for x in grid
                    ]
                )
                d = np.diff(vals)
                signs = np.sign(d[np.abs(d) > 1e-13 * max(1.0, float(np.max(np.abs(vals))))])
                down = int(np.sum((signs[:-1] > 0) & (signs[1:] < 0)))
                assert down == 1, (mode, om)
                assert 0 < int(np.argmax(vals)) < grid.size - 1

    def test_hd_rate_blocklength_switch(self):
        s = reference_samples(200)
        alloc = PowerAllocation.from_relay_power(400.0, 1000.0)
        half = SystemParams.reference()
        full = SystemParams.reference(hd_rate_blocklength="m")
        r_half = per_sample_rates(RelayMode.HD, s, half, alloc, "A")
        r_full = per_sample_rates(RelayMode.HD, s, full, alloc, "A")
        assert not np.allclose(r_half, r_full)
        # larger blocklength means a smaller dispersion penalty
        assert np.all(r_full >= r_half)
        # the switch must not touch FD
        assert np.array_equal(
            per_sample_rates(RelayMode.FD, s, half, alloc, "A"),
            per_sample_rates(RelayMode.FD, s, full, alloc, "A"),
        )

    def test_empty_sample_set_unconstructible(self):
        with pytest.raises(ValueError):
            ChannelSamples(h_a=np.array([]), h_b=np.array([]))


def weighted_sum(mode, samples, params, p_r):
    """The exact solver's objective, w R_EA + (1-w) R_EB, from a one-row call."""
    [(r_ea, r_eb)] = _kernel(mode, samples, params, ("A", "B"))[0]([p_r])
    return params.w * r_ea + (1.0 - params.w) * r_eb


def tau(mode, samples, params, p_r):
    """The min-max surrogate from a one-row call."""
    return _kernel(mode, samples, params, ("A", "B"))[1]([p_r], [params.w])[0]


class TestWeightedObjective:
    def test_pure_node_weights(self):
        s = reference_samples(300)
        alloc = PowerAllocation.from_relay_power(350.0, 1000.0)
        for mode in RelayMode:
            p1 = SystemParams.reference(w=1.0)
            assert weighted_sum(mode, s, p1, alloc.p_r) == effective_capacity(mode, s, p1, alloc, "A")
            p0 = SystemParams.reference(w=0.0)
            assert weighted_sum(mode, s, p0, alloc.p_r) == effective_capacity(mode, s, p0, alloc, "B")

    def test_identity_with_capacities(self):
        s = reference_samples(400)
        for mode in RelayMode:
            for w in (0.0, 0.3, 0.5, 0.9, 1.0):
                p = SystemParams.reference(w=w)
                for p_r in (50.0, 400.0, 950.0):
                    alloc = PowerAllocation.from_relay_power(p_r, p.p_tot)
                    j = -weighted_sum(mode, s, p, p_r)
                    ea = effective_capacity(mode, s, p, alloc, "A")
                    eb = effective_capacity(mode, s, p, alloc, "B")
                    assert abs(j + w * ea + (1.0 - w) * eb) <= 1e-12


class TestSurrogateObjective:
    def test_single_sample(self):
        p = SystemParams.reference(w=0.3)
        s = ChannelSamples(h_a=np.array([2.0]), h_b=np.array([5.0]))
        alloc = PowerAllocation.from_relay_power(400.0, p.p_tot)
        r_a = per_sample_rates(RelayMode.HD, s, p, alloc, "A")[0]
        r_b = per_sample_rates(RelayMode.HD, s, p, alloc, "B")[0]
        want = -(0.3 / 2.0) * r_a - (0.7 / 2.0) * r_b
        assert tau(RelayMode.HD, s, p, alloc.p_r) == pytest.approx(want, rel=1e-12)

    def test_zero_relay_power_single_node(self):
        p = SystemParams.reference(w=1.0)
        s = reference_samples(200)
        r0 = fbl_rate(0.0, p.m / 2.0, p.eps_a)
        assert tau(RelayMode.HD, s, p, 0.0) == pytest.approx(-0.5 * r0, rel=1e-12)

    def test_matches_loop_oracle(self):
        p = SystemParams.reference(w=0.4)
        s = reference_samples(1000)
        for mode in RelayMode:
            alloc = PowerAllocation.from_relay_power(420.0, p.p_tot)
            r_a = per_sample_rates(mode, s, p, alloc, "A")
            r_b = per_sample_rates(mode, s, p, alloc, "B")
            best = max(
                -(p.w / 2.0) * ra - ((1.0 - p.w) / 2.0) * rb for ra, rb in zip(r_a, r_b)
            )
            assert tau(mode, s, p, alloc.p_r) == pytest.approx(best, rel=1e-12)


class TestEcPoint:
    def test_weighted_sum(self):
        p = SystemParams.reference()
        s = reference_samples(100)
        pt = ec_point(RelayMode.HD, s, p, PowerAllocation.from_relay_power(300.0, p.p_tot))
        assert pt.weighted_sum(1.0) == pt.r_ea
        assert pt.weighted_sum(0.0) == pt.r_eb
        assert pt.weighted_sum(0.5) == pytest.approx(0.5 * (pt.r_ea + pt.r_eb))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            from relayec import EcPoint

            EcPoint(r_ea=float("nan"), r_eb=1.0, alloc=PowerAllocation(1.0, 1.0))


@pytest.mark.parametrize("mode", list(RelayMode))
@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 600),
    seed=st.integers(0, 2**16),
    d_a=st.floats(0.05, 0.95),
    share=st.floats(0.0, 1.0),
    omega=st.floats(0.0, 1.0),
    m=st.integers(2, 400),
    log_eps=st.floats(-8.0, math.log10(0.5)),
    log_theta=st.floats(-4.0, 0.0),
)
def test_capacity_below_best_sample_rate(mode, n, seed, d_a, share, omega, m, log_eps, log_theta):
    """R_E <= (c/m) max(0, max_i r_i), c/m = 1 in FD and 1/2 in HD: every
    exp(-r_i c theta) is at least the best sample's, and mixing in eps
    moves the mean toward 1 = exp(0).  The margin allows the kernel's
    rounding against the public rate's."""
    s = reference_samples(n, seed=seed, d_a=d_a)
    p = SystemParams.reference(d_a=d_a, omega=omega, m=m, eps_a=10.0**log_eps, theta_b=10.0**log_theta)
    alloc = PowerAllocation.from_relay_power(share * p.p_tot, p.p_tot)
    pt = ec_point(mode, s, p, alloc)
    omega, m_cu, c_m = (p.omega, p.m, 1.0) if mode is RelayMode.FD else (0.0, p.m / 2.0, 0.5)
    for node, got in (("A", pt.r_ea), ("B", pt.r_eb)):
        best = max(0.0, float(np.max(fbl_rate(sinr_fd(alloc, omega, s.h_a, s.h_b, node), m_cu, p.eps_for(node)))))
        assert got <= c_m * best + 1e-12 * (1.0 + c_m * best), (node, got, best)


def plain_capacity(mode, samples, params, alloc, node):
    """The estimator without blocks: public SINR, public rate, then scipy's
    log-sum-exp over the whole sample set."""
    if mode is RelayMode.FD:
        gamma, m_cu, c = sinr_fd(alloc, params.omega, samples.h_a, samples.h_b, node), params.m, params.m
    else:
        gamma, m_cu, c = snr_hd(alloc, samples.h_a, samples.h_b, node), params.m / 2.0, params.m / 2.0
    eps, theta = params.eps_for(node), params.theta_for(node)
    lme = logsumexp(-c * theta * fbl_rate(gamma, m_cu, eps)) - math.log(len(samples))
    return -np.logaddexp(math.log1p(-eps) + lme, math.log(eps)) / (params.m * theta)


class TestBlockedKernel:
    SIZES = (1, 1000, _BLOCK, 2 * _BLOCK + 17)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_plain_reference(self, n):
        s = reference_samples(n, seed=5, d_a=0.3)
        for mode in RelayMode:
            p = SystemParams.reference(d_a=0.3, omega=0.05, w=0.3)
            for p_r in (50.0, 400.0, 900.0):
                alloc = PowerAllocation.from_relay_power(p_r, p.p_tot)
                pt = ec_point(mode, s, p, alloc)
                for node, got in (("A", pt.r_ea), ("B", pt.r_eb)):
                    want = plain_capacity(mode, s, p, alloc, node)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (n, mode, p_r, node)

    @pytest.mark.parametrize("faded_block", (0, 1))
    def test_blocks_far_apart_in_exponent(self, faded_block):
        # one block of deep fades among strong ones: its rates are near 0,
        # the others' tens of bits, so its exponent maximum lies further
        # above every other block's than exp's range
        rng = np.random.default_rng(9)
        n = 2 * _BLOCK + 17
        scale = np.full(n, 1e6)
        scale[faded_block * _BLOCK : (faded_block + 1) * _BLOCK] = 1e-6
        s = ChannelSamples(h_a=scale * rng.exponential(size=n), h_b=scale * rng.exponential(size=n))
        p = SystemParams.reference(theta_a=2.0, theta_b=2.0)
        alloc = PowerAllocation.from_relay_power(400.0, p.p_tot)
        for mode, c in ((RelayMode.HD, p.m / 2.0), (RelayMode.FD, p.m)):
            z = -c * p.theta_a * per_sample_rates(mode, s, p, alloc, "A")
            maxima = [z[lo : lo + _BLOCK].max() for lo in range(0, n, _BLOCK)]
            faded = maxima.pop(faded_block)
            assert all(faded - m > 710.0 for m in maxima)
            pt = ec_point(mode, s, p, alloc)
            for node, got in (("A", pt.r_ea), ("B", pt.r_eb)):
                want = plain_capacity(mode, s, p, alloc, node)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (mode, node)

    def test_identities_bit_exact_across_blocks(self):
        n = 2 * _BLOCK + 17
        s = reference_samples(n, seed=13)
        for mode in RelayMode:
            p = SystemParams.reference(w=0.3)
            cap = {node: _kernel(mode, s, p, (node,))[0] for node in ("A", "B")}
            for p_r in (0.0, 123.4, 650.0, p.p_tot):
                alloc = PowerAllocation.from_relay_power(p_r, p.p_tot)
                pt = ec_point(mode, s, p, alloc)
                for node, in_point in (("A", pt.r_ea), ("B", pt.r_eb)):
                    assert cap[node]([p_r])[0][0] == effective_capacity(mode, s, p, alloc, node) == in_point
                assert weighted_sum(mode, s, p, p_r) == p.w * pt.r_ea + (1.0 - p.w) * pt.r_eb
                for node in ("A", "B"):
                    assert np.array_equal(snr_hd(alloc, s.h_a, s.h_b, node), sinr_fd(alloc, 0.0, s.h_a, s.h_b, node))


def test_fd_ec_point_memory_stays_in_blocks():
    # the blocked kernel holds a few block buffers, not full-length temporaries
    # (an unblocked FD ec_point at this size peaks at 40 MB)
    p = SystemParams.reference()
    s = reference_samples(2**20, seed=3)
    alloc = PowerAllocation.from_relay_power(300.0, p.p_tot)
    tracemalloc.start()
    try:
        ec_point(RelayMode.FD, s, p, alloc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@functools.lru_cache(maxsize=None)
def worker_samples(n):
    return reference_samples(n, seed=29, d_a=0.3)


def kernel_outputs(mode, s, p):
    """One- and two-node capacities for one row and for three, and taus for three rows."""
    xs, ys, ws = [40.0, 440.0, 900.0], [480.0, 250.0, 50.0], [0.25, 0.5, 0.8]
    capacities, taus = _kernel(mode, s, p, ("A", "B"))[:2]
    one_node = _kernel(mode, s, p, ("B",))[0]
    rows = [one_node(xs, ys), capacities([xs[1]]), capacities(xs), capacities(xs, ys), taus(xs, ws)]
    return [one_node([x]) for x in xs] + rows


class TestWorkers:
    """A pass over two or more blocks splits them between the calling
    thread and a pool thread; every output is the same bit for bit at one
    worker and at two, whichever worker computes the block maximum that
    sets Z, and the pool thread sees the caller's numpy state."""

    @pytest.mark.parametrize("n", (2 * _BLOCK + 17, 2**20))
    @pytest.mark.parametrize("mode", list(RelayMode))
    def test_same_bits_at_one_and_two_workers(self, n, mode, monkeypatch):
        p = SystemParams.reference(d_a=0.3, omega=0.05, eps_a=1e-3, eps_b=1e-6, theta_a=2e-3, theta_b=5e-4)
        s = worker_samples(n)
        threads = set()

        def spy(*args):
            threads.add(threading.get_ident())
            return rate_into(*args)

        rate_into = capacity._rate_into
        monkeypatch.setattr(capacity, "_rate_into", spy)
        outputs = {}
        for workers in (1, 2):
            monkeypatch.setattr(capacity, "_WORKERS", workers)
            threads.clear()
            outputs[workers] = kernel_outputs(mode, s, p)
            assert len(threads) == workers
        assert outputs[1] == outputs[2]

    @pytest.mark.parametrize("mode", list(RelayMode))
    def test_pool_thread_sets_the_exponent_maximum(self, mode, monkeypatch):
        # block 1, the pool thread's, holds the deep fades whose exponent
        # maximum lies further above every other block's than exp's range
        rng = np.random.default_rng(9)
        n = 2 * _BLOCK + 17
        scale = np.full(n, 1e6)
        scale[_BLOCK : 2 * _BLOCK] = 1e-6
        s = ChannelSamples(h_a=scale * rng.exponential(size=n), h_b=scale * rng.exponential(size=n))
        p = SystemParams.reference(theta_a=2.0, theta_b=2.0)
        outputs = {}
        for workers in (1, 2):
            monkeypatch.setattr(capacity, "_WORKERS", workers)
            outputs[workers] = kernel_outputs(mode, s, p)
        assert outputs[1] == outputs[2]
        alloc = PowerAllocation.from_relay_power(440.0, p.p_tot)
        assert outputs[2][4][0][1] == pytest.approx(plain_capacity(mode, s, p, alloc, "B"), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_caller_errstate_reaches_the_pool_thread(self, workers, monkeypatch):
        # h_a h_b overflows at one sample of block 1; every other step stays in range
        s = worker_samples(2 * _BLOCK + 17)
        h_a, h_b = s.h_a.copy(), s.h_b.copy()
        h_a[_BLOCK + 5] = h_b[_BLOCK + 5] = 1e300
        monkeypatch.setattr(capacity, "_WORKERS", workers)
        p = SystemParams.reference()
        with np.errstate(all="raise"):
            kernel_outputs(RelayMode.FD, s, p)
            with pytest.raises(FloatingPointError, match="overflow"):
                _kernel(RelayMode.FD, ChannelSamples(h_a, h_b), p, ("A", "B"))[0]([440.0])

    def test_caller_bufsize_reaches_the_pool_thread(self, monkeypatch):
        seen = []

        def spy(*args):
            seen.append(np.getbufsize())
            return rate_into(*args)

        rate_into = capacity._rate_into
        monkeypatch.setattr(capacity, "_rate_into", spy)
        monkeypatch.setattr(capacity, "_WORKERS", 2)
        _kernel(RelayMode.HD, worker_samples(2 * _BLOCK + 17), SystemParams.reference(), ("A", "B"))[0]([1.0, 2.0, 3.0])
        assert seen == [_BUFSIZE] * 9

    def test_pool_thread_exception_reaches_the_caller(self, monkeypatch):
        raised = LookupError("raised on the pool thread")
        caller = threading.get_ident()

        def fail_off_caller(*args):
            if threading.get_ident() != caller:
                raise raised
            return rate_into(*args)

        rate_into = capacity._rate_into
        monkeypatch.setattr(capacity, "_rate_into", fail_off_caller)
        monkeypatch.setattr(capacity, "_WORKERS", 2)
        capacities = _kernel(RelayMode.FD, worker_samples(2 * _BLOCK + 17), SystemParams.reference(), ("A", "B"))[0]
        with pytest.raises(LookupError) as info:
            capacities([440.0])
        assert info.value is raised

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        # the parent's pool thread does not survive a fork; a child that
        # queued work on its executor would wait forever
        monkeypatch.setattr(capacity, "_WORKERS", 2)
        p = SystemParams.reference()
        s = worker_samples(2 * _BLOCK + 17)
        want = kernel_outputs(RelayMode.FD, s, p)  # the pool thread is running now
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child writes whether its outputs match, then exits without pytest's teardown
            try:
                os.write(write, b"1" if kernel_outputs(RelayMode.FD, s, p) == want else b"0")
            finally:
                os._exit(0)
        os.close(write)
        ready = []
        try:
            ready, _, _ = select.select([read], [], [], 30.0)
            assert ready, "the forked child did not finish within 30 s"
            assert os.read(read, 1) == b"1"
        finally:
            os.close(read)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        # more calling threads than CPUs, each with its own closures, under a
        # short switch interval: every call reads what a serial call reads
        monkeypatch.setattr(capacity, "_WORKERS", 2)
        p = SystemParams.reference(omega=0.05)
        s = worker_samples(2 * _BLOCK + 17)
        want = {mode: kernel_outputs(mode, s, p) for mode in RelayMode}
        got = {}

        def caller(i):
            mode = list(RelayMode)[i % 2]
            got[i] = [kernel_outputs(mode, s, p) == want[mode] for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == {i: [True] * 3 for i in range(4)}


class TestBatchedKernel:
    """Every row of a batched call is bit for bit what the scalar entry
    points return.  K = 1024 runs at n = 1 (one pass of 1024 rows) and n =
    1000 (32 passes), K = 33 at n = 1000 ends on a one-row pass; at 2 _BLOCK
    + 17 samples a pass holds one row, which K = 2 and 21 already exercise.
    n = 2730 and 2731 sit on either side of numpy's buffering edge (see
    TestMultiRowBuffer), each with one pass of two rows and with more rows
    than one pass holds.  At n = _BLOCK and 20000 one block holds a single
    row, so K = 3 runs every pass of a one-block call one row at a time."""

    @pytest.mark.parametrize(
        "n, k",
        [(n, k) for n in (1, 1000) for k in (1, 2, 21, 1024)] + [(1000, 33)] + [(2 * _BLOCK + 17, k) for k in (1, 2, 21)]
        + [(n, k) for n in (2730, 2731, 4096, 8193) for k in (2, _BLOCK // n + 3)]
        + [(_BLOCK, 3), (20000, 3)],
    )
    @pytest.mark.parametrize("mode", list(RelayMode))
    def test_rows_match_scalar_entry_points(self, n, k, mode):
        s = reference_samples(n, seed=5, d_a=0.3)
        p = SystemParams.reference(d_a=0.3, omega=0.05)
        xs = [float(x) for x in np.linspace(0.0, p.p_tot, k + 2)[1:-1]]
        allocs = [PowerAllocation.from_relay_power(x, p.p_tot) for x in xs]
        for nodes in (("A",), ("B",), ("A", "B")):
            rows = _kernel(mode, s, p, nodes)[0](xs)
            assert rows == [[effective_capacity(mode, s, p, a, node) for node in nodes] for a in allocs]
        explicit = _kernel(mode, s, p, ("A", "B"))[0](xs, [a.p_node for a in allocs])
        assert explicit == [[pt.r_ea, pt.r_eb] for pt in (ec_point(mode, s, p, a) for a in allocs)]
        ws = [float(w) for w in np.random.default_rng(k).random(k)]
        taus = _kernel(mode, s, p, ("A", "B"))[1](xs, ws)
        assert taus == [tau(mode, s, p.with_(w=w), x) for x, w in zip(xs, ws)]


def test_batched_memory_stays_in_blocks():
    # a pass holds at most _BLOCK samples times rows, so 1024 relay powers
    # at n = 2^15 walk one row at a time
    p = SystemParams.reference()
    s = reference_samples(2**15, seed=3)
    xs = [float(x) for x in np.linspace(1.0, 999.0, 1024)]
    tracemalloc.start()
    try:
        _kernel(RelayMode.FD, s, p, ("A", "B"))[0](xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_one_row_calls_allocate_no_sample_row():
    # a one-row pass on one block works in the kernel's buffer and writes
    # into arrays the kernel owns, so 200 calls hold less than one row of samples
    n = 2**15
    capacities, taus = _kernel(RelayMode.FD, reference_samples(n, seed=3), SystemParams.reference(), ("A", "B"))[:2]
    tracemalloc.start()
    try:
        for x in np.linspace(1.0, 999.0, 100).tolist():
            capacities([x])
            taus([x], [0.3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


class TestMultiRowBuffer:
    """A call of three or more rows runs under the ufunc buffer
    ``_BUFSIZE``.  numpy 2 sends a broadcast whose inner dimension is below
    a third of the buffer size (2731 samples at the default 8192) through
    buffered copies; the smaller buffer changes no bit (TestBatchedKernel),
    and the caller's size comes back on every exit.  One- and two-row calls
    keep the caller's buffer, where the scope costs more than it saves."""

    @staticmethod
    def closures():
        return _kernel(RelayMode.FD, reference_samples(), SystemParams.reference(), ("A", "B"))[:2]

    def test_smaller_buffer_only_in_multi_row_calls(self, monkeypatch):
        seen, rate_into = [], capacity._rate_into

        def spy(*args):
            seen.append(np.getbufsize())
            return rate_into(*args)

        monkeypatch.setattr(capacity, "_rate_into", spy)
        capacities, taus = self.closures()
        default = np.getbufsize()
        capacities([300.0])
        taus([300.0], [0.5])
        capacities([300.0, 400.0])
        taus([300.0, 400.0], [0.5, 0.2])
        assert seen == [default] * 4
        capacities([300.0, 400.0, 500.0])
        taus([300.0, 400.0, 500.0], [0.5, 0.2, 0.7])
        assert seen[4:] == [_BUFSIZE] * 2
        assert np.getbufsize() == default

    def test_buffer_restored_when_a_pass_raises(self, monkeypatch):
        def failing(*args):
            raise FloatingPointError("pass failed")

        monkeypatch.setattr(capacity, "_rate_into", failing)
        capacities, taus = self.closures()
        default = np.getbufsize()
        with pytest.raises(FloatingPointError):
            capacities([300.0, 400.0, 500.0])
        assert np.getbufsize() == default
        with pytest.raises(FloatingPointError):
            taus([300.0, 400.0, 500.0], [0.5, 0.2, 0.7])
        assert np.getbufsize() == default

    def test_callers_buffer_size_restored(self):
        capacities, taus = self.closures()
        old = np.setbufsize(4096)
        try:
            capacities([300.0, 400.0, 500.0])
            assert np.getbufsize() == 4096
            taus([300.0, 400.0, 500.0], [0.5, 0.2, 0.7])
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(old)


@pytest.mark.parametrize("mode", list(RelayMode))
def test_rejects_columns_not_matching_relay_powers(mode):
    # such a call once read leftover buffer contents, or reused one weight for every row
    capacities, taus = _kernel(mode, reference_samples(), SystemParams.reference(), ("A", "B"))[:2]
    with pytest.raises(ValueError, match="1 entries for 3 relay powers"):
        capacities([100.0, 200.0, 300.0], [450.0])
    with pytest.raises(ValueError, match="2 entries for 1 relay powers"):
        capacities([100.0], [450.0, 400.0])
    with pytest.raises(ValueError, match="1 entries for 2 relay powers"):
        taus([100.0, 200.0], [0.5])


@functools.lru_cache(maxsize=None)
def property_samples(n):
    return reference_samples(n, seed=17, d_a=0.3)


# one hoisted block with several rows per pass, the largest one block (a row per
# pass), and two blocks walked per pass
@pytest.mark.parametrize("n", (1, 2, 150, 1000, _BLOCK, _BLOCK + 1))
@settings(max_examples=20)
@given(
    mode=st.sampled_from(list(RelayMode)),
    rows=st.lists(  # per row: relay power, node power, weight
        st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0), st.floats(0.0, 1.0)), min_size=1, max_size=5
    ),
    explicit=st.booleans(),
)
def test_rows_and_nodes_agree_bit_for_bit(n, mode, rows, explicit):
    """Each row of a K-row call is the one-row call, and a one-node call, of
    K rows or of one, is that node's entry of the two-node call, bit for bit.
    One closure serves its K rows, then the first two, then the K rows again,
    each pass in its own views of the closure's buffer."""
    # every per-node constant differs between the nodes, so a mixed-up node shows
    p = SystemParams.reference(d_a=0.3, omega=0.05, eps_a=1e-3, eps_b=1e-6, theta_a=2e-3, theta_b=5e-4)
    s = property_samples(n)
    xs = [x for x, _, _ in rows]
    node_p = [y for _, y, _ in rows] if explicit else None
    ws = [w for _, _, w in rows]
    one = [None] * len(rows) if node_p is None else [[y] for y in node_p]
    capacities, taus = _kernel(mode, s, p, ("A", "B"))[:2]
    calls = [capacities(xs, node_p), capacities(xs[:2], node_p and node_p[:2]), capacities(xs, node_p)]
    tau_calls = [taus(xs, ws), taus(xs[:2], ws[:2]), taus(xs, ws)]
    both = [capacities([x], y)[0] for x, y in zip(xs, one)]
    assert calls == [both, both[:2], both]
    tau_rows = [taus([x], [w])[0] for x, w in zip(xs, ws)]
    assert tau_calls == [tau_rows, tau_rows[:2], tau_rows]
    for i, node in enumerate(("A", "B")):
        single = _kernel(mode, s, p, (node,))[0]
        assert [row[0] for row in single(xs, node_p)] == [row[i] for row in both]
        assert [single([x], y)[0][0] for x, y in zip(xs, one)] == [row[i] for row in both]


# one block (one- and three-row calls) and three blocks walked per pass
@pytest.mark.parametrize("n", (1, 1000, 2 * _BLOCK + 17))
@pytest.mark.parametrize("mode", list(RelayMode))
def test_end_capacities_are_the_kernels_bit_for_bit(n, mode):
    """At p_r = 0 and at p_r = p_tot every SINR is 0, and the end values a
    kernel hands out are its own rows there, for either node alone and for both."""
    p = SystemParams.reference(d_a=0.3, omega=0.05, eps_a=1e-3, eps_b=1e-6, theta_a=2e-3, theta_b=5e-4)
    s = property_samples(n)
    both = _kernel(mode, s, p, ("A", "B")).ends
    assert both[0] != both[1]  # a mixed-up node shows
    for nodes in (("A", "B"), ("A",), ("B",)):
        kernel = _kernel(mode, s, p, nodes)
        assert kernel.ends == [both["AB".index(node)] for node in nodes]
        for xs in ([0.0], [p.p_tot], [0.0, p.p_tot, 0.0]):
            assert kernel.capacities(xs) == [kernel.ends] * len(xs)


@functools.lru_cache(maxsize=None)
def prune_samples(n):
    return reference_samples(n, seed=23, d_a=0.4)


# the float path (every kept set) and the kernel path (no kept set is that small)
@pytest.mark.parametrize("crossover", (10**9, 0))
@pytest.mark.parametrize("n", (1, 7, 1000, _BLOCK + 5))
@settings(max_examples=12)
@given(
    mode=st.sampled_from(list(RelayMode)),
    log_p_tot=st.floats(-3.0, 3.0),  # down to SINRs below the rate's turning point
    m=st.integers(2, 400),
    log_eps=st.tuples(st.floats(-8.0, math.log10(0.5)), st.floats(-8.0, math.log10(0.5))),
    omega=st.floats(0.0, 1.0),
    span=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda t: t[0] != t[1]),
    weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    probes=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 3)), min_size=1, max_size=4),
)
def test_pruned_surrogate_matches_full_kernel(crossover, n, mode, log_p_tot, m, log_eps, omega, span, weights, probes):
    """Over the samples the prune keeps, tau at any relay power in [lo, hi]
    and any weight of the batch is the full kernel's, bit for bit."""
    p = SystemParams.reference(
        p_tot=10.0**log_p_tot, m=m, eps_a=10.0 ** log_eps[0], eps_b=10.0 ** log_eps[1], omega=omega
    )
    lo, hi = sorted(f * p.p_tot for f in span)
    xs = [lo + f * (hi - lo) for f, _ in probes]
    ws = [weights[i % len(weights)] for _, i in probes]
    s = prune_samples(n)
    kernel = _kernel(mode, s, p, ("A", "B"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "_FLOAT_SAMPLES", crossover)
        pruned = capacity._surrogate(mode, s, p, weights, lo, hi, kernel)
    assert pruned(xs, ws) == kernel.taus(xs, ws)


@pytest.mark.parametrize("mode", list(RelayMode))
def test_prune_keeps_few_samples(mode, monkeypatch):
    # at the reference scenario a handful of samples can attain the surrogate's minimum
    p = SystemParams.reference(d_a=0.3, omega=0.05)
    s = reference_samples(1000, d_a=0.3)
    xs, ws = [float(x) for x in np.linspace(400.0, 700.0, 7)], [0.2] * 7
    kernel = _kernel(mode, s, p, ("A", "B"))
    full = kernel.taus(xs, ws)
    built = []

    def spy(mode, samples, params, nodes):
        built.append(len(samples))
        return _kernel(mode, samples, params, nodes)

    monkeypatch.setattr(capacity, "_FLOAT_SAMPLES", 0)  # the kept samples go to the kernel, through the spy
    monkeypatch.setattr(capacity, "_kernel", spy)
    assert capacity._surrogate(mode, s, p, [0.2, 0.5], 400.0, 700.0, kernel)(xs, ws) == full
    assert len(built) == 1 and 1 <= built[0] <= 30


def test_readme_float_crossover_matches_code():
    # README's solver list gives the kept-sample count above which the surrogate runs in the kernel
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (count,) = re.findall(r"for more than (\d+) of\s+them, in the capacity kernel", readme)
    assert int(count) == capacity._FLOAT_SAMPLES


def test_prune_bound_counts_clipped_peaks(monkeypatch):
    # At w = 1 on [50, 950], sample 0's rate reads 4.88 and 4.02 at the ends and
    # 6.78 at its clipped closed-form peak; sample 1's reads 4.95 at both ends.
    # U_0 must count the peak: from the end values alone it would read 4.88,
    # which g_0 exceeds inside the span, and keep sample 0 only.  tau cannot
    # tell (sample 0 stays the least here), so the kept count is what shows it.
    s = ChannelSamples(np.array([1e3, 2.0]), np.array([1.0, 2.0]))
    p = SystemParams.reference(w=1.0)
    kernel = _kernel(RelayMode.HD, s, p, ("A", "B"))
    built = []

    def spy(mode, samples, params, nodes):
        built.append(len(samples))
        return _kernel(mode, samples, params, nodes)

    monkeypatch.setattr(capacity, "_FLOAT_SAMPLES", 0)  # the kept samples go to the kernel, through the spy
    monkeypatch.setattr(capacity, "_kernel", spy)
    capacity._surrogate(RelayMode.HD, s, p, [1.0], 50.0, 950.0, kernel)
    assert built == [2]

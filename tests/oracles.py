"""Reference implementations that only the tests use: a per-sample rate
array, the Gaussian tail and the HD threshold-crossing relay powers,
each written out independently of the library's kernels, and a driver that
runs one of the solver's searches on a scalar function."""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from relayec import ChannelSamples, PowerAllocation, RelayMode, SystemParams, fbl_rate, sinr_fd, snr_hd
from relayec.capacity import rate_blocklength
from relayec.link import _oriented, optimal_relay_power_hd
from relayec.solver import _lockstep


def per_sample_rates(
    mode: RelayMode,
    samples: ChannelSamples,
    params: SystemParams,
    alloc: PowerAllocation,
    node: str,
) -> np.ndarray:
    """Finite-blocklength rate of one node for every fading sample."""
    gamma = sinr_fd(alloc, params.omega_for(mode), samples.h_a, samples.h_b, node)
    return fbl_rate(gamma, rate_blocklength(params, mode), params.eps_for(node))


def q_tail(x):
    """Gaussian tail probability Q(x) = P{N(0,1) > x} of a scalar or an array."""
    x = np.asarray(x, dtype=float)
    out = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in x.ravel().tolist()]).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def threshold_roots_hd(
    h_a: float, h_b: float, p_tot: float, gamma_t: float, node: str = "A"
) -> Optional[tuple[float, float]]:
    """The two relay powers at which the HD SNR crosses ``gamma_t``.

    The SNR is concave in relay power with a single peak, so the level set
    gamma = gamma_t is either empty (peak below the threshold, returns
    None) or a pair p1 <= p2 bracketing the maximizer.  Solved directly
    from the quadratic

        H_A H_B p_r^2 + (gamma_t (H_r - H_o) - H_A H_B p_tot) p_r
            + gamma_t K = 0,    K = (H_A + H_B) p_tot + 2,

    using the cancellation-free two-branch formula.
    """
    if h_a <= 0.0 or h_b <= 0.0:
        raise ValueError(f"gains must be positive, got H_A={h_a}, H_B={h_b}")
    if gamma_t <= 0.0:
        raise ValueError(f"gamma_t must be positive, got {gamma_t}")
    p_star = optimal_relay_power_hd(h_a, h_b, p_tot, node)
    peak = snr_hd(PowerAllocation.from_relay_power(p_star, p_tot), h_a, h_b, node)
    if peak < gamma_t:
        return None
    hr, ho = _oriented(h_a, h_b, node)
    hh = h_a * h_b
    k = (h_a + h_b) * p_tot + 2.0
    b = gamma_t * (hr - ho) - hh * p_tot
    c = gamma_t * k
    # Crossings exist inside (0, p_tot), hence both roots are positive and
    # b < 0; the discriminant is clamped against rounding at the tangent case.
    disc = max(b * b - 4.0 * hh * c, 0.0)
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    r1 = q / hh
    r2 = c / q
    return (r1, r2) if r1 <= r2 else (r2, r1)


def drive(search, f: Callable[[float], float]):
    """Run one search generator of the solver (a golden-section
    ``_line_search`` or a floor ``_crossing``) on a scalar function through
    ``_lockstep``, the driver the solver runs them by, one probe per round,
    and return the search's result."""
    return _lockstep([search], lambda _, xs: [f(x) for x in xs])[0]

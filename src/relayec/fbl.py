"""Finite-blocklength achievable rate for short-packet transmission.

Implements the normal approximation to the maximal coding rate of a
Gaussian channel when a packet occupies ``m_cu`` channel uses and must be
decoded with error probability at most ``eps``:

    r(gamma) = log2(1 + gamma)
               - sqrt(gamma (gamma + 2) / (m_cu (gamma + 1)^2))
                 * Qinv(eps) * log2(e)
               + log2(m_cu) / m_cu

Rates are returned unclamped.  For tiny SNR combined with a strict error
target the dispersion penalty exceeds the capacity term and r goes
negative; the effective-capacity estimator downstream relies on the raw
value, so clamping here would bias it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfc, ndtri

LOG2E = float(np.log2(np.e))


def q_tail(x):
    """Gaussian tail probability Q(x) = P{N(0,1) > x}.

    Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x / np.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def inverse_q(p):
    """Inverse of the Gaussian tail: the x with Q(x) = p.

    Accepts scalars or arrays; every entry must lie strictly inside (0, 1).
    Odd symmetry holds: inverse_q(1 - p) == -inverse_q(p).
    """
    scalar = isinstance(p, float)  # skips the array round trip, ~80x ndtri's cost
    arr = p if scalar else np.asarray(p, dtype=float)
    inside = 0.0 < arr < 1.0 if scalar else np.all((arr > 0.0) & (arr < 1.0))  # False for NaN
    if not inside:
        raise ValueError(f"inverse_q requires 0 < p < 1, got {p!r}")
    out = -ndtri(arr)
    return float(out) if scalar or out.ndim == 0 else out


def rate_dispersion_scale(m_cu: float, eps: float) -> float:
    """Coefficient of the dispersion penalty: Qinv(eps) log2(e) / sqrt(m_cu)."""
    return inverse_q(eps) * LOG2E / math.sqrt(m_cu)


def rate_blocklength_bonus(m_cu: float) -> float:
    """The log2(m_cu) / m_cu correction term of the rate formula."""
    return float(np.log2(m_cu) / m_cu)


def _rate_into(gamma: np.ndarray, qscale: float, bonus: float, tmp: np.ndarray) -> np.ndarray:
    """Overwrite the SNR array ``gamma`` with its rate, using the scratch
    array ``tmp`` of the same shape, and return it.

    Uses gamma (gamma + 2) / (gamma + 1)^2 == 1 - 1 / (gamma + 1)^2, which
    needs one transcendental less; the line-search objectives evaluate
    this thousands of times per solve.
    """
    gamma += 1.0
    np.multiply(gamma, gamma, tmp)
    dispersion = np.sqrt(np.subtract(1.0, np.reciprocal(tmp, tmp), tmp), tmp)
    np.subtract(np.log2(gamma, gamma), np.multiply(dispersion, qscale, tmp), gamma)
    gamma += bonus
    return gamma


def fbl_rate(gamma, m_cu, eps):
    """Achievable rate in bits per channel use at finite blocklength.

    Args:
        gamma: linear SNR, scalar or array, each entry >= 0.
        m_cu: number of channel uses the packet occupies (>= 1; fractional
            values are accepted so a half-frame blocklength stays exact).
        eps: packet error probability in (0, 0.5].

    Returns:
        Rate(s), same shape as ``gamma``.  May be negative (see module
        docstring).
    """
    if not 1 <= m_cu < math.inf:
        raise ValueError(f"blocklength must be finite and >= 1, got {m_cu}")
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"error probability must lie in (0, 0.5], got {eps}")
    g = np.array(gamma, dtype=float)
    if not np.all(g >= 0.0):
        raise ValueError("SNR must be non-negative, not NaN")
    qscale, bonus = rate_dispersion_scale(m_cu, eps), rate_blocklength_bonus(m_cu)
    r = _rate_into(g, qscale, bonus, np.empty_like(g))
    return float(r) if r.ndim == 0 else r


@dataclass(frozen=True)
class FblPoint:
    """One operating point of the finite-blocklength rate formula."""

    gamma: float
    m_cu: int
    eps: float

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.m_cu < 1:
            raise ValueError(f"m_cu must be a positive integer, got {self.m_cu}")
        if not 0.0 < self.eps <= 0.5:
            raise ValueError(f"eps must lie in (0, 0.5], got {self.eps}")

    def rate(self) -> float:
        return float(fbl_rate(self.gamma, self.m_cu, self.eps))


class RateShape(NamedTuple):
    increasing: bool
    concave: bool


def check_rate_shape(point: FblPoint, step: float, tol: float = 1e-12) -> RateShape:
    """Probe monotonicity and concavity of the rate in SNR at one point.

    Central finite differences with spacing ``step``: increasing means the
    first difference is positive, concave means the second difference does
    not exceed ``tol`` (absorbs rounding noise in the cancellation).
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    g = point.gamma
    lo = max(g - step, 0.0)
    f_lo = fbl_rate(lo, point.m_cu, point.eps)
    f_mid = fbl_rate(g, point.m_cu, point.eps)
    f_hi = fbl_rate(g + step, point.m_cu, point.eps)
    first = f_hi - f_lo
    second = f_hi - 2.0 * f_mid + f_lo
    return RateShape(increasing=bool(first > 0.0), concave=bool(second <= tol))

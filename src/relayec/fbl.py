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

Qinv ports Cephes ``ndtri`` (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989) to Python and equals ``-scipy.special.ndtri``
bit for bit; importing scipy would double the package's start-up time.
"""

from __future__ import annotations

import math

import numpy as np

LOG2E = float(np.log2(np.e))
_EXPM2 = 0.13533528323661269189  # exp(-2)


def _ndtri(y: float) -> float:
    """Cephes ``ndtri``, the x with Phi(x) = y for 0 < y < 1: its P0/Q0, P1/Q1
    and P2/Q2 unrolled by Horner's rule as ``polevl``/``p1evl`` run them."""
    upper = y > 1.0 - _EXPM2
    y = 1.0 - y if upper else y
    if y > _EXPM2:
        y -= 0.5
        y2 = y * y
        num = ((((-5.99633501014107895267e1 * y2 + 9.80010754185999661536e1) * y2 - 5.66762857469070293439e1)
                * y2 + 1.39312609387279679503e1) * y2 - 1.23916583867381258016e0)
        den = (((((((y2 + 1.95448858338141759834e0) * y2 + 4.67627912898881538453e0) * y2 + 8.63602421390890590575e1)
                   * y2 - 2.25462687854119370527e2) * y2 + 2.00260212380060660359e2) * y2 - 8.20372256168333339912e1)
                * y2 + 1.59056225126211695515e1) * y2 - 1.18331621121330003142e0
        return (y + y * (y2 * num / den)) * 2.50662827463100050242  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        num = ((((((((4.05544892305962419923e0 * z + 3.15251094599893866154e1) * z + 5.71628192246421288162e1)
                    * z + 4.40805073893200834700e1) * z + 1.46849561928858024014e1) * z + 2.18663306850790267539e0)
                 * z - 1.40256079171354495875e-1) * z - 3.50424626827848203418e-2) * z - 8.57456785154685413611e-4)
        den = (((((((z + 1.57799883256466749731e1) * z + 4.53907635128879210584e1) * z + 4.13172038254672030440e1)
                   * z + 1.50425385692907503408e1) * z + 2.50464946208309415979e0) * z - 1.42182922854787788574e-1)
                * z - 3.80806407691578277194e-2) * z - 9.33259480895457427372e-4
    else:
        num = ((((((((3.23774891776946035970e0 * z + 6.91522889068984211695e0) * z + 3.93881025292474443415e0)
                    * z + 1.33303460815807542389e0) * z + 2.01485389549179081538e-1) * z + 1.23716634817820021358e-2)
                 * z + 3.01581553508235416007e-4) * z + 2.65806974686737550832e-6) * z + 6.23974539184983293730e-9)
        den = (((((((z + 6.02427039364742014255e0) * z + 3.67983563856160859403e0) * z + 1.37702099489081330271e0)
                   * z + 2.16236993594496635890e-1) * z + 1.34204006088543189037e-2) * z + 3.28014464682127739104e-4)
                * z + 2.89247864745380683936e-6) * z + 6.79019408009981274425e-9
    x = x - math.log(x) / x - z * num / den
    return x if upper else -x


def inverse_q(p: float) -> float:
    """Inverse of the Gaussian tail: the x with Q(x) = p, i.e. -ndtri(p).

    ``p`` must be a float (or numpy floating scalar) strictly inside
    (0, 1).  Odd symmetry holds: inverse_q(1 - p) == -inverse_q(p).
    """
    if not (isinstance(p, (float, np.floating)) and 0.0 < p < 1.0):  # False for NaN
        raise ValueError(f"inverse_q requires a float 0 < p < 1, got {p!r}")
    return -_ndtri(float(p))


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

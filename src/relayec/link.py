"""Per-sample SNR/SINR models of the two-way relay and their closed-form
relay-power maximizers.

Both nodes transmit with the same power P and the relay with P_R, under
the total budget P_R + 2P = P_tot.  In half-duplex (HD) operation the
exchange occupies two slots and each receiver sees noise only.  In
full-duplex (FD) operation everything happens in one slot and the nodes
and relay leak a fraction of their own transmission into their receivers;
``omega`` is the mean residual self-interference power coefficient left
after cancellation.  Noise power is normalized to one throughout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
import numpy as np

from .channel import Geometry, _require_real

NODES = ("A", "B")
_NUMBER_FIELDS = ("m", "p_tot", "omega", "eps_a", "eps_b", "theta_a", "theta_b", "gamma_t_a", "gamma_t_b", "w")


class RelayMode(enum.Enum):
    HD = "hd"
    FD = "fd"


@dataclass(frozen=True)
class SystemParams:
    """All scenario constants of one experiment, by default those of the
    reference scenario.  The relay sits at ``d_a`` on the unit segment under
    path-loss exponent ``alpha``; :attr:`geom` is that placement."""

    m: int = 100
    p_tot: float = 1000.0
    omega: float = 0.1
    eps_a: float = 1e-4
    eps_b: float = 1e-4
    theta_a: float = 1e-3
    theta_b: float = 1e-3
    d_a: float = 0.5
    alpha: float = 4.0
    gamma_t_a: float = 1.0
    gamma_t_b: float = 1.0
    w: float = 0.5
    # Blocklength handed to the rate formula in HD mode: each hop occupies
    # half the frame, so the default is "m/2"; set "m" to rate the full frame.
    hd_rate_blocklength: str = "m/2"

    def __post_init__(self):
        _require_real(self, _NUMBER_FIELDS)
        geom = Geometry(self.d_a, self.alpha)  # rejects a bad d_a or alpha with its own message
        if not (self.m >= 1 and float(self.m).is_integer()):  # False for NaN; inf is no integer
            raise ValueError(f"m must be a positive integer, got {self.m}")
        if not 0.0 < self.p_tot < math.inf:
            raise ValueError(f"p_tot must be positive and finite, got {self.p_tot}")
        if not _sinr_pieces_fit(*geom.top_draws, self.p_tot):
            raise ValueError(f"p_tot={self.p_tot} can overflow an SINR at the placement's largest gain draws")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        for name in ("eps_a", "eps_b"):
            v = getattr(self, name)
            if not 0.0 < v <= 0.5:
                raise ValueError(f"{name} must lie in (0, 0.5], got {v}")
        for name in ("theta_a", "theta_b"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not (0.0 <= self.gamma_t_a < math.inf and 0.0 <= self.gamma_t_b < math.inf):
            raise ValueError("SNR thresholds must be >= 0 and finite")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"w must lie in [0, 1], got {self.w}")
        if self.hd_rate_blocklength not in ("m", "m/2"):
            raise ValueError("hd_rate_blocklength must be 'm' or 'm/2'")

    @property
    def geom(self) -> Geometry:
        return Geometry(self.d_a, self.alpha)

    def eps_for(self, node: str) -> float:
        return _oriented(self.eps_a, self.eps_b, node)[0]

    def theta_for(self, node: str) -> float:
        return _oriented(self.theta_a, self.theta_b, node)[0]

    def gamma_t_for(self, node: str) -> float:
        return _oriented(self.gamma_t_a, self.gamma_t_b, node)[0]

    def with_(self, **changes) -> "SystemParams":
        return replace(self, **changes)

    @classmethod
    def reference(cls, **overrides) -> "SystemParams":
        """The reference scenario (the field defaults) with the given fields overridden."""
        return cls(**overrides)


@dataclass(frozen=True)
class PowerAllocation:
    """Split of the total budget: relay power p_r, per-node power p_node."""

    p_r: float
    p_node: float

    def __post_init__(self):
        _require_real(self, ("p_r", "p_node"))
        if not (0.0 <= self.p_r < math.inf and 0.0 <= self.p_node < math.inf):
            raise ValueError(
                f"powers must be non-negative and finite, got p_r={self.p_r}, p_node={self.p_node}"
            )

    @property
    def p_tot(self) -> float:
        return self.p_r + 2.0 * self.p_node

    @classmethod
    def from_relay_power(cls, p_r: float, p_tot: float) -> "PowerAllocation":
        if not 0.0 <= p_r <= p_tot:
            raise ValueError(f"p_r must lie in [0, p_tot], got {p_r} of {p_tot}")
        return cls(p_r=p_r, p_node=(p_tot - p_r) / 2.0)

    @classmethod
    def equal_split(cls, p_tot: float) -> "PowerAllocation":
        """Baseline third/third/third split between the relay and both nodes."""
        return cls(p_r=p_tot / 3.0, p_node=p_tot / 3.0)


def _mode_terms(mode: RelayMode, params: SystemParams) -> tuple:
    """(omega, m_cu, c): the self-interference the SINR sees and one packet's
    channel uses in the rate formula and in the capacity's exponent.  HD is
    FD at omega = 0 over half the frame, its two slots: c = m/2, and m_cu =
    m/2 or m by ``hd_rate_blocklength``.  Any other mode raises ValueError."""
    if mode is RelayMode.FD:
        return params.omega, float(params.m), float(params.m)
    if mode is RelayMode.HD:
        m_cu = params.m / 2.0 if params.hd_rate_blocklength == "m/2" else float(params.m)
        return 0.0, m_cu, params.m / 2.0
    raise ValueError(f"mode must be RelayMode.HD or RelayMode.FD, got {mode!r}")


def _sinr_pieces_fit(g_a: float, g_b: float, p_tot: float) -> bool:
    """Whether every SINR piece under budget p_tot stays below 1e300 at gains
    up to g_a and g_b: num, common and relay h_r (:func:`_sinr_coefficients`)
    are each at most (g_a g_b + 2 (g_a + g_b) + 1)(p_tot + 1)^2, formed
    without ``**``, which raises on overflow; an overflowing bound fails."""
    return (g_a * g_b + 2.0 * (g_a + g_b) + 1.0) * (p_tot + 1.0) * (p_tot + 1.0) < 1e300


def _oriented(h_a, h_b, node: str):
    """Gains seen from the given receiving node; node B swaps the roles."""
    if node == "A":
        return h_a, h_b
    if node == "B":
        return h_b, h_a
    raise ValueError(f"node must be 'A' or 'B', got {node!r}")


def _sinr_coefficients(p_r: float, p: float, omega: float) -> tuple:
    """Power factors (p p_r, p leak, leak_r leak, relay) of the FD SINR at one
    allocation, or elementwise over arrays, with leak = p omega + 1 and leak_r
    = p_r omega + 1.  The SINR at the node with own gain h_r is num / (relay
    h_r + common), with num = p p_r H_A H_B, common = p leak (H_A + H_B) +
    leak_r leak and relay = p_r leak_r; every factor holding omega is exactly
    1 at omega = 0."""
    leak_r = p_r * omega + 1.0
    leak = p * omega + 1.0
    return p * p_r, p * leak, leak_r * leak, p_r * leak_r


def _sinr_shared(coef, hh, hs, num=None, common=None):
    """Node-symmetric pieces num and common of the FD SINR from the gain
    product hh = H_A H_B, the gain sum hs = H_A + H_B and the factors of
    :func:`_sinr_coefficients` (floats, or one column per allocation),
    written into ``num`` and ``common`` when given (which may be hh and hs)."""
    pp, p_leak, leaks, relay = coef
    # Without buffers, plain operators keep scalar calls cheap.
    num = hh * pp if num is None else np.multiply(hh, pp, num)
    common = hs * p_leak if common is None else np.multiply(hs, p_leak, common)
    common += leaks
    return num, common, relay


def _sinr_node(num, common, relay, h_r, out=None):
    """One node's SINR from the shared pieces, written into ``out`` when given."""
    den = h_r * relay if out is None else np.multiply(h_r, relay, out)
    den += common
    return num / den if out is None else np.divide(num, den, out)


def snr_hd(alloc: PowerAllocation, h_a, h_b, node: str = "A"):
    """Post-combining SNR at one node of the HD two-way relay: FD at omega = 0.

    Vectorized over the gain arguments.  Zero when either the relay or the
    nodes get no power, since the amplified signal carries a factor of each.
    """
    return sinr_fd(alloc, 0.0, h_a, h_b, node)


def sinr_fd(alloc: PowerAllocation, omega: float, h_a, h_b, node: str = "A"):
    """Post-combining SINR at one node of the FD two-way relay.

    Residual self-interference enters twice: re-amplified by the relay
    (quadratic in p_r) and locally at the receiving node.  With omega = 0
    this is :func:`snr_hd`.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    hr, _ = _oriented(h_a, h_b, node)
    # 1.0 * makes integer gains float, exactly
    shared = _sinr_shared(_sinr_coefficients(alloc.p_r, alloc.p_node, omega), 1.0 * h_a * h_b, 1.0 * h_a + h_b)
    return _sinr_node(*shared, hr)


def optimal_relay_power_hd(h_a: float, h_b: float, p_tot: float, node: str = "A") -> float:
    """Relay power maximizing the HD SNR of one node, in closed form.

    Solving the stationarity condition gives a quadratic whose admissible
    root is evaluated here in a conjugate form that has no singularity at
    H_A == H_B (where the maximizer degenerates to p_tot / 2):

        p_r* = K p_tot / (K + sqrt(2 K (H_r p_tot + 1))),
        K = (H_A + H_B) p_tot + 2,

    with H_r the receiving node's own gain.  The result always lies
    strictly inside (0, p_tot).  It is :func:`optimal_relay_power_fd` at
    omega = 0 bit for bit, whose terms are these scaled by powers of two.
    """
    return optimal_relay_power_fd(h_a, h_b, p_tot, 0.0, node)


def optimal_relay_power_fd(
    h_a: float, h_b: float, p_tot: float, omega: float, node: str = "A"
) -> float:
    """Relay power maximizing the FD SINR of one node, in closed form.

    The stationarity condition is again quadratic; the admissible root in
    conjugate form is

        p_r* = G K p_tot / (G K + 2 sqrt(G K (H_r p_tot + 1)(omega p_tot + 1))),
        G = omega p_tot + 2,  K = (H_A + H_B) p_tot + 2.

    At omega = 0 this collapses to the HD expression exactly, and the
    leading-coefficient sign change of the quadratic (possible for
    H_A < H_B at large omega) cancels out of this form altogether.  Where
    the radicand, of order p_tot^4, overflows, the form is divided through
    by sqrt(G K); a root outside (0, p_tot) raises ValueError.
    """
    if not (0.0 < h_a < math.inf and 0.0 < h_b < math.inf):
        raise ValueError(f"gains must be positive and finite, got H_A={h_a}, H_B={h_b}")
    if not 0.0 < p_tot < math.inf:
        raise ValueError(f"p_tot must be positive and finite, got {p_tot}")
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    hr, _ = _oriented(h_a, h_b, node)
    g = omega * p_tot + 2.0
    k = (h_a + h_b) * p_tot + 2.0
    gk = g * k
    disc = gk * 4.0 * (hr * p_tot + 1.0) * (omega * p_tot + 1.0)
    if disc == math.inf:  # divided through by sqrt(G K) only here: its bits differ at ordinary budgets
        gk, disc = math.sqrt(gk), 4.0 * (hr * p_tot + 1.0) * (omega * p_tot + 1.0)
    p_r = gk * p_tot / (gk + math.sqrt(disc))
    if not 0.0 < p_r < p_tot:
        raise ValueError(f"no finite optimum at p_tot={p_tot}, omega={omega}, H_A={h_a}, H_B={h_b}")
    return p_r

"""Seeded Monte-Carlo generation of Rayleigh flat-fading channel gains.

Both node-to-relay links fade independently.  A link at distance d from
the relay has power gain H = E * d**(-alpha) where E is the squared
magnitude of a unit-variance complex Gaussian coefficient, i.e. an
Exponential(1) variate.  Node distances satisfy d_a + d_b = 1.

Each link's gains are drawn and finished in place in one float64 array,
so a sample set peaks at its own 16 bytes per sample; sample sets store
their gains contiguous, as the blocked capacity kernels read them.
"""

from __future__ import annotations

import csv
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# rows save_csv converts to Python floats at once, so memory stays a block's, not the set's
_CSV_BLOCK = 2**15
_REAL = (float, int, numbers.Real)  # builtins first: the ABC's own check costs several times more


def _require_real(obj, names) -> None:
    """Reject a field of ``obj`` that is no real number: a one-element array passes range checks."""
    for name in names:
        v = getattr(obj, name)
        if not isinstance(v, _REAL):
            raise ValueError(f"{name} must be a real number, got {v!r}")


@dataclass(frozen=True)
class Geometry:
    """Relay placement on the unit segment between the two nodes."""

    d_a: float
    alpha: float

    def __post_init__(self):
        _require_real(self, ("d_a", "alpha"))
        if not 0.0 < self.d_a < 1.0:
            raise ValueError(f"d_a must lie in (0, 1), got {self.d_a}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        try:  # math.pow raises on overflow, where a numpy float returns inf
            top = 36.74 * math.pow(min(self.d_a, self.d_b), -self.alpha)
        except OverflowError:
            top = math.inf
        if top == math.inf:  # the largest draw: 36.74 > 53 ln 2 bounds -log1p(-u) for float64 u < 1
            raise ValueError(f"path gain d ** -alpha overflows a draw at d_a={self.d_a}, alpha={self.alpha}")

    @property
    def d_b(self) -> float:
        return 1.0 - self.d_a


@dataclass(frozen=True)
class ChannelSamples:
    """A batch of fading realizations, one gain pair per sample.

    The gains are stored as C-contiguous float64 arrays: an input that
    already is one is kept without a copy, any other (a strided column, a
    list) is copied once.
    """

    h_a: np.ndarray
    h_b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_a", np.ascontiguousarray(self.h_a, dtype=float))
        object.__setattr__(self, "h_b", np.ascontiguousarray(self.h_b, dtype=float))
        if self.h_a.shape != self.h_b.shape or self.h_a.ndim != 1:
            raise ValueError("h_a and h_b must be 1-D arrays of equal length")
        if self.h_a.size == 0:
            raise ValueError("sample set must not be empty")
        # min and max propagate NaN, which fails both tests, and allocate nothing; n max bounds the gain sum
        if not all(h.min() > 0.0 and float(h.max()) * h.size < math.inf for h in (self.h_a, self.h_b)):
            raise ValueError("channel power gains must be strictly positive and finite, and so must their sums")

    def __len__(self) -> int:
        return int(self.h_a.size)

    def mean_gains(self) -> tuple[float, float]:
        """Sample-mean gain pair for warm starts and threshold checks (``mean``'s bits, less overhead)."""
        return float(np.add.reduce(self.h_a)) / self.h_a.size, float(np.add.reduce(self.h_b)) / self.h_b.size


def sample_channels(geom: Geometry, n: int, seed: int) -> ChannelSamples:
    """Draw ``n`` independent gain pairs, reproducibly.

    The generator is numpy's PCG64 seeded with ``seed``; the stream is
    consumed as n uniforms for the A link followed by n uniforms for the
    B link.  Exponential variates come from the inverse CDF, -log(1 - U),
    so the same seed reproduces the same sequence bit for bit.  A draw
    that would underflow to zero gain is clamped to the smallest positive
    normal double, preserving H > 0.  Each link's uniforms are drawn into
    the array that becomes its gains and finished there, so the returned
    arrays are the only full-length allocations.
    """
    if not (isinstance(n, numbers.Integral) and isinstance(seed, numbers.Integral)):  # numpy integers pass
        raise ValueError(f"n and seed must be integers, got n={n!r}, seed={seed!r}")
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    rng = np.random.default_rng(seed)
    tiny = np.finfo(float).tiny
    gains = []
    for d in (geom.d_a, geom.d_b):
        h = rng.random(n)
        np.negative(h, out=h)
        np.log1p(h, out=h)
        np.negative(h, out=h)
        np.maximum(h, tiny, out=h)
        np.multiply(h, d ** -geom.alpha, out=h)
        gains.append(h)
    return ChannelSamples(*gains)


def save_csv(samples: ChannelSamples, path) -> None:
    """Export a sample set as CSV with header ``h_a,h_b``.

    Values are written with shortest round-trip precision so a re-import
    reproduces the exact doubles.
    """
    with Path(path).open("w", newline="") as fh:
        fh.write("h_a,h_b\n")
        for lo in range(0, len(samples), _CSV_BLOCK):
            pairs = zip(samples.h_a[lo : lo + _CSV_BLOCK].tolist(), samples.h_b[lo : lo + _CSV_BLOCK].tolist())
            fh.writelines(f"{a!r},{b!r}\n" for a, b in pairs)


def load_csv(path) -> ChannelSamples:
    """Import a sample set written by :func:`save_csv`.

    The header must read ``h_a,h_b`` and every body row must hold two
    numbers; a ragged or non-numeric row, a ``#`` line, an empty body and
    any value that :class:`ChannelSamples` rejects all raise ValueError.
    Blank lines are skipped.  The body is parsed straight into one float
    array whose columns are copied out contiguous, so peak memory is about
    twice the result's.
    """
    path = Path(path)
    with path.open("r", newline="") as fh:
        header = next(csv.reader([fh.readline()]), None)
        if header != ["h_a", "h_b"]:
            raise ValueError(f"unexpected CSV header {header!r}, want ['h_a', 'h_b']")
        with warnings.catch_warnings():  # loadtxt only warns on an empty body
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    if arr.size == 0:
        raise ValueError(f"no samples in {path}")
    if arr.shape[1] != 2:
        raise ValueError(f"want two columns h_a,h_b in {path}, got {arr.shape[1]}")
    return ChannelSamples(h_a=arr[:, 0], h_b=arr[:, 1])

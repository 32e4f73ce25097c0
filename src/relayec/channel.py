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
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Geometry:
    """Relay placement on the unit segment between the two nodes."""

    d_a: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.d_a < 1.0:
            raise ValueError(f"d_a must lie in (0, 1), got {self.d_a}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

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
        # min and max propagate NaN, which fails both tests, and allocate nothing
        if not all(h.min() > 0.0 and h.max() < math.inf for h in (self.h_a, self.h_b)):
            raise ValueError("channel power gains must be strictly positive and finite")

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
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["h_a", "h_b"])
        for a, b in zip(samples.h_a, samples.h_b):
            writer.writerow([repr(float(a)), repr(float(b))])


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

"""Spans for the benchmark's traced run, and direct kernel probes.

The traced run replaces, for its duration, the names through which one
relayec module calls the next one down (solver -> capacity, solver ->
link, capacity -> fbl, capacity -> link) with wrappers that record a span
per call: name, start, end, parent span and operation id.  The library
itself is untouched; the originals are put back on exit.  A span's name
starts with the layer it times, and a layer's self time is its spans'
time minus the part covered by their child spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from statistics import median
from time import perf_counter

import numpy as np

import relayec.capacity as capacity
import relayec.solver as solver
from relayec import (
    Geometry, PowerAllocation, RelayMode, SystemParams, fbl_rate, sample_channels, sinr_fd, snr_hd,
)

LAYERS = ("solver", "capacity", "link", "fbl")


class Tracer:
    """In-memory span store, one list per field; span names are stored as
    indices into ``span_names``."""

    def __init__(self):
        self.span_names: list[str] = []
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.solves: list = []  # every SolveReport returned inside a span

    def wrap(self, name: str, fn, on_result=None):
        names, starts, ends, parents, op_ids, stack = (
            self.names, self.starts, self.ends, self.parents, self.op_ids, self.stack
        )
        if name not in self.span_names:
            self.span_names.append(name)
        name_id = self.span_names.index(name)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            return out if on_result is None else on_result(out)

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        covered = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        ids = np.asarray(self.names)
        k = len(self.span_names)
        calls = np.bincount(ids, minlength=k)
        own = np.bincount(ids, weights=dur - covered, minlength=k)
        return {n: (int(c), float(s)) for n, c, s in zip(self.span_names, calls, own) if c}


# (module, attribute, span name, result hook).  Hook "report" keeps the
# returned SolveReport; a span name wraps the returned closure under it.
BOUNDARIES = (
    # The benchmark calls into solver through these; pareto_weighted also
    # reaches solve_exact through its module global.
    (solver, "solve_exact", "solver.solve_exact", "report"),
    (solver, "solve_approx", "solver.solve_approx", "report"),
    (solver, "pareto_weighted", "solver.pareto_weighted", None),
    (solver, "pareto_epsilon_constraint", "solver.pareto_epsilon_constraint", None),
    # solver -> capacity (and benchmark -> capacity on capacity_large_n).
    (solver, "ec_point", "capacity.ec_point", None),
    (capacity, "ec_point", "capacity.ec_point", None),
    (solver, "effective_capacity", "capacity.effective_capacity", None),
    (solver, "weighted_objective_fn", "capacity.weighted_objective_fn", "capacity.exact_eval"),
    (solver, "surrogate_objective_fn", "capacity.surrogate_objective_fn", "capacity.surrogate_eval"),
    # solver -> link: closed forms and mean-gain SNRs.
    (solver, "optimal_relay_power_hd", "link.optimal_relay_power_hd", None),
    (solver, "optimal_relay_power_fd", "link.optimal_relay_power_fd", None),
    (solver, "snr_hd", "link.snr_hd", None),
    (solver, "sinr_fd", "link.sinr_fd", None),
    # capacity -> fbl and capacity -> link: the per-sample kernels.
    (capacity, "_rate_raw", "fbl.rate_kernel", None),
    (capacity, "rate_dispersion_scale", "fbl.rate_dispersion_scale", None),
    (capacity, "rate_blocklength_bonus", "fbl.rate_blocklength_bonus", None),
    (capacity, "_sinr_fd_raw", "link.sinr_kernel", None),
    (capacity, "_snr_hd_raw", "link.snr_kernel", None),
)


def _hook(tracer: Tracer, kind):
    if kind == "report":
        def record(report):
            tracer.solves.append(report)
            return report
        return record
    if kind is not None:
        return lambda fn: tracer.wrap(kind, fn)
    return None


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block.  A boundary the
    library no longer has is skipped, and its metrics read 0."""
    patches = [
        (module, attr, tracer.wrap(span, getattr(module, attr), _hook(tracer, kind)))
        for module, attr, span, kind in BOUNDARIES
        if hasattr(module, attr)
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, fn in patches:
        setattr(module, attr, fn)
    try:
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def layer_self_times(spans: dict[str, tuple[int, float]]) -> dict[str, float]:
    return {layer: sum(s for n, (_, s) in spans.items() if n.split(".")[0] == layer) for layer in LAYERS}


# --------------------------------------------------------------------------
# direct probes

def _ns_per_sample(fn, n: int, repeats: int) -> float:
    """Median over blocks of the time per call per sample, caches warm."""
    fn()
    calls = max(1, 10**6 // n)
    blocks = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((perf_counter() - t0) / (calls * n))
    return 1e9 * median(blocks)


def kernel_probes(seed: int) -> dict[str, float]:
    """fbl_rate, sinr_fd, snr_hd and sample_channels timed on their own at
    n = 1e3 and 1e6, on SINRs of a seeded mid-relay sample set."""
    params = SystemParams.reference()
    alloc = PowerAllocation.from_relay_power(params.p_tot / 3.0, params.p_tot)
    geom = Geometry(0.5, 4.0)
    out = {}
    for label, n, repeats in (("n1e3", 10**3, 7), ("n1e6", 10**6, 7)):
        s = sample_channels(geom, n, seed)
        gamma = sinr_fd(alloc, params.omega, s.h_a, s.h_b)
        out[f"fbl.rate_ns_per_sample.{label}"] = _ns_per_sample(lambda: fbl_rate(gamma, params.m, params.eps_a), n, repeats)
        out[f"link.sinr_ns_per_sample.{label}"] = _ns_per_sample(
            lambda: sinr_fd(alloc, params.omega, s.h_a, s.h_b), n, repeats)
        if label == "n1e6":
            out["link.snr_ns_per_sample.n1e6"] = _ns_per_sample(lambda: snr_hd(alloc, s.h_a, s.h_b), n, repeats)
    out["channel.sample_ns_per_draw"] = _ns_per_sample(lambda: sample_channels(geom, 10**6, seed), 10**6, 5)
    return out


def bytes_per_sample(seed: int) -> float:
    """Bytes of the arrays that cross the capacity -> kernel boundary in one
    FD ec_point, per channel sample; computed from array sizes, not
    measured traffic."""
    n = 10**4
    s = sample_channels(Geometry(0.5, 4.0), n, seed)
    params = SystemParams.reference()
    total = 0

    def counting(fn):
        def wrapped(*args):
            nonlocal total
            out = fn(*args)
            total += sum(a.nbytes for a in args if isinstance(a, np.ndarray)) + out.nbytes
            return out
        return wrapped

    kernels = [attr for attr in ("_rate_raw", "_sinr_fd_raw") if hasattr(capacity, attr)]
    saved = {attr: getattr(capacity, attr) for attr in kernels}
    for attr, fn in saved.items():
        setattr(capacity, attr, counting(fn))
    try:
        capacity.ec_point(RelayMode.FD, s, params, PowerAllocation.from_relay_power(300.0, params.p_tot))
    finally:
        for attr, fn in saved.items():
            setattr(capacity, attr, fn)
    return total / n


def closure_probe(seed: int, calls: int = 300) -> dict[str, float]:
    """Self time per call of the exact and surrogate objective closures at
    n = 1e3, for workloads whose ops make no such calls.  Reads 0 once the
    library no longer has the closure factories (a planned refactor folds
    them into one capacity model)."""
    names = ("capacity.exact_eval", "capacity.surrogate_eval")
    if not (hasattr(solver, "weighted_objective_fn") and hasattr(solver, "surrogate_objective_fn")):
        return dict.fromkeys(names, 0.0)
    s = sample_channels(Geometry(0.5, 4.0), 1000, seed)
    params = SystemParams.reference()
    grid = np.linspace(100.0, 900.0, calls)
    tracer = Tracer()
    with traced(tracer):
        exact = solver.weighted_objective_fn(RelayMode.FD, s, params)
        surrogate = solver.surrogate_objective_fn(RelayMode.FD, s, params)
        for p_r in grid:
            exact(p_r)
            surrogate(p_r)
    spans = tracer.self_times()
    return {name: 1e6 * spans[name][1] / spans[name][0] for name in names}

"""Run one workload of the relayec benchmark and print its metrics.

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  One process, one compute thread, one caller in a closed loop:
each op starts when the previous one has returned.  Every output is
checked against the stored reference as soon as its op has returned.  With ``--trace 0``
the end-to-end metrics are reported, with ``--trace 1`` the per-layer
ones (see README.md).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import mean, median, quantiles
from time import perf_counter

# One compute thread, also in any BLAS numpy may call into.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 7  # fresh processes timed for setup_s, median reported
WARMUP_OPS = 2  # run and checked but not timed
MIN_OPS = 110  # leaves at least 10 ops beyond p90
MIN_TRACED_OPS = 10
MAX_SECONDS = 150.0  # a run ends here even short of MIN_OPS
MAX_TRACEBACKS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="do the set-up, print the clock reading when it is done, exit (times setup_s)")
    return p.parse_args(argv)


def import_library():
    if not (SRC / "relayec" / "__init__.py").is_file():
        sys.exit(f"error: no relayec sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import relayec

    if Path(relayec.__file__).resolve().parent != SRC / "relayec":
        sys.exit(f"error: imported relayec from {relayec.__file__}, not from {SRC}")


def setup_seconds(args) -> float:
    """Process start to ready-for-the-first-op, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


class Loop:
    """Runs ops one after another and records (universe index, output,
    seconds) per op.  Each output is checked as soon as its op has returned,
    outside the op's time, and kept only with ``keep_outputs``, so that
    memory does not grow with the number of ops.  An op that raises has
    output None."""

    def __init__(self, workload, tracer=None, keep_outputs=False):
        self.workload = workload
        self.tracer = tracer
        self.keep_outputs = keep_outputs
        self.records: list[tuple[int, object, float]] = []
        self.failed = 0
        self.tracebacks = 0

    def op(self, i: int) -> None:
        if self.tracer is not None:
            self.tracer.op_id = len(self.records)
        t0 = perf_counter()
        try:
            out = self.workload.run_op(self.workload.ops[i])
        except Exception:
            out = None
            if self.tracebacks < MAX_TRACEBACKS:
                self.tracebacks += 1
                traceback.print_exc(file=sys.stderr)
        seconds = perf_counter() - t0
        self.failed += self.workload.op_failed(i, out)
        self.records.append((i, out if self.keep_outputs else None, seconds))


def run_until(step, seconds: float, enough) -> float:
    """Call ``step(pos)`` for pos = WARMUP_OPS, WARMUP_OPS + 1, ... until
    ``seconds`` have passed and ``enough()`` holds, or MAX_SECONDS have
    passed.  Returns the elapsed time."""
    t_begin = perf_counter()
    pos = WARMUP_OPS
    while True:
        step(pos)
        pos += 1
        elapsed = perf_counter() - t_begin
        if (elapsed >= seconds and enough()) or elapsed >= MAX_SECONDS:
            return elapsed


def warm_up(workload, order) -> Loop:
    warm = Loop(workload)
    for i in order[:WARMUP_OPS]:
        warm.op(int(i))
    return warm


def end_to_end(args, workload, order) -> tuple[dict, list[Loop]]:
    # Set-ups are timed before and after the loop so that a slow spell of
    # the host does not cover all of them.
    setups = [setup_seconds(args) for _ in range(SETUP_REPEATS // 2 + 1)]
    warm = warm_up(workload, order)
    loop = Loop(workload)
    elapsed = run_until(
        lambda pos: loop.op(int(order[pos % len(order)])), args.seconds, lambda: len(loop.records) >= MIN_OPS)
    setups += [setup_seconds(args) for _ in range(SETUP_REPEATS - len(setups))]
    times = [t for _, _, t in loop.records]
    metrics = {
        "ops_per_s": (len(times) / elapsed, "1/s"),
        "op_ms.p50": (1e3 * median(times), "ms"),
        "op_ms.p90": (1e3 * quantiles(times, n=10)[-1], "ms"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"timed ops: {len(times)} in {elapsed:.3f} s; set-up samples: {len(setups)}")
    return metrics, [warm, loop]


def solve_time_ratios(records, workload) -> dict:
    """Mean exact over mean approx op time, by mode and placement."""
    from relayec import SolveMethod

    times: dict = {}
    for i, _, t in records:
        method, mode, _, params = workload.ops[i]
        place = "mid" if params.geom.d_a == 0.5 else "off"
        times.setdefault((mode.value, place, method), []).append(t)
    out = {}
    for mode in ("hd", "fd"):
        for place in ("mid", "off"):
            exact = times.get((mode, place, SolveMethod.EXACT))
            approx = times.get((mode, place, SolveMethod.APPROXIMATE))
            ratio = mean(exact) / mean(approx) if exact and approx else 0.0
            out[f"solver.exact_approx_time_ratio.{mode}_{place}"] = (ratio, "ratio")
    return out


def frontier_ratios(records) -> dict:
    floors = feasible = kept = attempted = 0
    for _, out, _ in records:
        if out is None:
            continue
        weighted, fl, constrained = out
        floors += len(fl)
        feasible += len(fl) - len(constrained.infeasible)
        kept += len(weighted.points) + len(constrained.points)
        attempted += len(weighted.parameter_grid) + len(fl) - len(constrained.infeasible)
    return {
        "solver.floor_feasible_ratio": (feasible / floors if floors else 0.0, "ratio"),
        "solver.frontier_kept_ratio": (kept / attempted if attempted else 0.0, "ratio"),
    }


def per_layer(args, workload, order) -> tuple[dict, list[Loop]]:
    import tracing
    from relayec import SolveMethod

    warm = warm_up(workload, order)
    tracer = tracing.Tracer()
    plain, traced = Loop(workload, keep_outputs=True), Loop(workload, tracer, keep_outputs=True)

    def traced_op(i):
        with tracing.traced(tracer):
            traced.op(i)

    def op_pair(pos):
        # Each op runs untraced and traced, in alternating order, so that
        # the host's speed drift and the second run's warmer caches cancel
        # out of the overhead.
        i = int(order[pos % len(order)])
        for run_op in ((plain.op, traced_op) if pos % 2 else (traced_op, plain.op)):
            run_op(i)

    run_until(op_pair, args.seconds, lambda: len(plain.records) >= MIN_TRACED_OPS)

    spans = tracer.self_times()
    calls = {name: c for name, (c, _) in spans.items()}
    own = {name: s for name, (_, s) in spans.items()}
    layers = tracing.layer_self_times(spans)
    n_ops = len(traced.records)
    t_plain = sum(t for _, _, t in plain.records)
    t_traced = sum(t for _, _, t in traced.records)

    def per_solve(method, field):
        values = [getattr(r, field) for r in tracer.solves if r.method is method]
        return mean(values) if values else 0.0

    def per_op(*names, weight=1):
        return weight * sum(calls.get(n, 0) for n in names) / n_ops

    solves = tracer.solves
    probe = {}
    if not calls.get("capacity.exact_eval") or not calls.get("capacity.surrogate_eval"):
        probe = tracing.closure_probe(args.seed)

    def eval_us(name):
        return 1e6 * own[name] / calls[name] if calls.get(name) else probe[name]

    m = {
        "solver.evals_per_solve.exact": (per_solve(SolveMethod.EXACT, "objective_evals"), "count"),
        "solver.evals_per_solve.approx": (per_solve(SolveMethod.APPROXIMATE, "objective_evals"), "count"),
        "solver.iters_per_solve.exact": (per_solve(SolveMethod.EXACT, "iterations"), "count"),
        "solver.iters_per_solve.approx": (per_solve(SolveMethod.APPROXIMATE, "iterations"), "count"),
        "solver.policy_fired_frac": (
            sum(bool(r.silenced) or r.degenerate for r in solves) / len(solves) if solves else 0.0, "share"),
        "solver.fallback_solves": (sum(r.objective_evals >= 1024 for r in solves), "count"),
        "capacity.objective_evals_per_op": (per_op("capacity.exact_eval", "capacity.surrogate_eval"), "count"),
        "capacity.exact_eval_us": (eval_us("capacity.exact_eval"), "us"),
        "capacity.surrogate_eval_us": (eval_us("capacity.surrogate_eval"), "us"),
        "capacity.ec_calls_per_op": (per_op("capacity.effective_capacity"), "count"),
        "capacity.node_setups_per_op": (
            per_op("capacity.effective_capacity")
            + per_op("capacity.ec_point", "capacity.weighted_objective_fn", "capacity.surrogate_objective_fn",
                     weight=2), "count"),
        "link.closed_form_calls_per_op": (
            per_op("link.optimal_relay_power_hd", "link.optimal_relay_power_fd"), "count"),
        "capacity.bytes_per_sample.computed": (tracing.bytes_per_sample(args.seed), "B"),
        "channel.sample_ms": (workload.sample_ms, "ms"),
        "trace.overhead_frac": ((t_traced - t_plain) / t_plain, "share"),
        "trace.layer_sum_ratio": (sum(layers.values()) / t_traced, "ratio"),
    }
    for layer, seconds in layers.items():
        m[f"{layer}.self_share"] = (seconds / t_traced, "share")
    # Metrics of one workload's traffic read 0 on the others.
    m.update(solve_time_ratios(plain.records if workload.name == "solve_sweep" else [], workload))
    m.update(frontier_ratios(plain.records + traced.records if workload.name == "frontier" else []))
    m.update({k: (v, "ns") for k, v in tracing.kernel_probes(args.seed).items()})
    print(f"ops: {n_ops}, each run untraced and traced; spans: {len(tracer.names)}")
    if not 0.8 <= m["trace.layer_sum_ratio"][0] <= 1.2:
        print("warning: layer self times do not account for the traced op time within 20%", file=sys.stderr)
    return m, [warm, plain, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads

    setup = workloads.SETUPS.get(args.workload)
    if setup is None:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.SETUPS)}")
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    if args.setup_only:
        setup()
        print(repr(perf_counter()))
        return 0

    workload = setup()
    order = workloads.op_order(len(workload.ops), args.seed)
    metrics, loops = (per_layer if args.trace else end_to_end)(args, workload, order)

    attempted = sum(len(loop.records) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"workload {workload.name}, seed {args.seed}, universe {len(workload.ops)} ops")
    print(f"fail_frac {failed / attempted:.6g} (of {attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment runner: deterministic sweeps, frontier traces and a solver
benchmark, emitted as CSV or JSON tables.

Subcommands map onto the standard experiment set (fig2 .. fig8, bench);
every run is reproducible from its config and seed, and repeated runs
write byte-identical files.  Wall-clock timing therefore never goes into
output files; the bench subcommand prints its timing table to stdout and
stores only the deterministic part.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from statistics import mean, stdev
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .capacity import EcPoint, _kernel
from .channel import sample_channels
from .link import NODES, PowerAllocation, RelayMode, SystemParams
from .solver import SolveMethod, SolveReport, _solve_weights, pareto_epsilon_constraint, pareto_weighted
from .solver import solve_approx, solve_exact

EPS_GRID = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
PR_GRID_POINTS = 200
FIG8_SCENARIOS = ((0.5, 0.01), (0.2, 0.01), (0.2, 0.10), (0.5, 0.10))
# the config fields fig8_rows sets per scenario or never reads: it sweeps w and traces exactly
FIG8_FIXED = {"mode", "d_a", "omega", "w", "method"}
BENCH_EPS = (1e-8, 1e-5, 1e-2)
BENCH_OMEGA = (0.01, 0.05, 0.10)
# the config fields bench_rows sets per cell or never reads: it runs both modes and both solvers
BENCH_FIXED = {"mode", "omega", "method"}
W_GRID = tuple(np.linspace(0.0, 1.0, 21))
THETA_GRID = tuple(np.logspace(-4.0, -1.0, 10))
# the config fields a sweep axis sets; a p_r sweep fixes the allocation instead
SWEEP_FIELDS = {
    "p_r": (), "eps": ("eps_a", "eps_b"), "theta": ("theta_a", "theta_b"),
    "w": ("w",), "omega": ("omega",), "d_a": ("d_a",),
}

SWEEP_COLUMNS = [
    "sweep_param", "sweep_value", "mode", "method",
    "m", "p_tot", "alpha", "d_a", "omega",
    "eps_a", "eps_b", "theta_a", "theta_b", "gamma_t_a", "gamma_t_b", "w",
    "samples", "seed", "hd_rate_blocklength",
    "p_r", "p_node", "r_ea", "r_eb", "weighted_sum",
    "silenced", "degenerate", "iterations", "objective_evals",
]
PARETO_COLUMNS = [
    "d_a", "omega", "method", "parameter",
    "p_r", "r_ea", "r_eb", "samples", "seed",
]
BENCH_FILE_COLUMNS = [
    "mode", "param_name", "param_value", "samples", "seed", "repeats",
    "p_r_exact", "p_r_approx", "wsum_exact", "wsum_approx",
    "evals_exact", "evals_approx",
]


class ConfigError(Exception):
    pass


# the config fields that make up the scenario
_SCENARIO_KEYS = tuple(f.name for f in fields(SystemParams))


@dataclass(frozen=True)
class ExperimentConfig(SystemParams):
    """A scenario, the fields of SystemParams with the relay placement as
    ``d_a`` and ``alpha`` (by default the reference scenario), plus run controls."""

    mode: str = "hd"
    samples: int = 1000
    seed: int = 7
    method: str = "approx"
    sweep_param: str = ""
    sweep_values: tuple = ()
    out: str = ""
    format: str = "csv"

    def __post_init__(self):
        if self.mode not in ("hd", "fd"):
            raise ConfigError(f"mode must be 'hd' or 'fd', got {self.mode!r}")
        if self.method not in ("exact", "approx", "equal"):
            raise ConfigError(f"method must be exact|approx|equal, got {self.method!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv|json, got {self.format!r}")
        if not (isinstance(self.samples, numbers.Integral) and self.samples >= 1):  # numpy integers pass
            raise ConfigError(f"samples must be an integer >= 1, got {self.samples!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.sweep_param and self.sweep_param not in SWEEP_FIELDS:
            raise ConfigError(f"unknown sweep parameter {self.sweep_param!r}")
        for v in self.sweep_values:
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"sweep_values must be finite, got {v}")
        if self.sweep_values and list(self.sweep_values) != sorted(self.sweep_values):
            raise ConfigError("sweep_values must be sorted ascending")
        try:  # the scenario's own range checks reject every non-finite value
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.sweep_param == "p_r" and not all(0.0 <= x <= self.p_tot for x in self.sweep_values):
            raise ConfigError(f"p_r sweep values must lie in [0, p_tot = {self.p_tot}]")


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_KINDS = {  # field type -> parser of a config value or flag; a tuple is comma-separated floats
    "int": int, "float": float, "str": str,
    "tuple": lambda text: tuple(float(x) for x in text.split(",")) if text else (),
}


def load_config(path) -> dict:
    """The config fields a file of ``key = value`` lines sets, each parsed as its field's type."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            out[key] = _KINDS[_FIELD_TYPES[key]](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return out


# ---------------------------------------------------------------------------
# table emission

def _si12(x: float) -> str:
    return format(float(x), ".12g")


def emit_table(rows: Sequence[dict], fmt: str, path, columns: Optional[Sequence[str]] = None) -> None:
    """Write rows as CSV or JSON with a stable column order.

    Floats carry 12 significant digits; identical inputs produce byte
    identical files.  Refuses empty row sets before touching the path.
    """
    if not rows:
        raise ValueError("refusing to emit an empty table")
    cols = list(columns) if columns is not None else list(rows[0].keys())
    for i, row in enumerate(rows):
        missing = [c for c in cols if c not in row]
        if missing:
            raise ValueError(f"row {i} is missing columns {missing}")
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(_cell_csv(row[c]) for c in cols))
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        data = [{c: _cell_json(row[c]) for c in cols} for row in rows]
        path.write_text(json.dumps(data, indent=1) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _cell_csv(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return _si12(v)
    return str(v)


def _cell_json(v):
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, float):
        return float(_si12(v))
    return v


# ---------------------------------------------------------------------------
# sweep engine

def _apply_sweep_value(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    names = SWEEP_FIELDS[axis]
    return replace(cfg, **dict.fromkeys(names, value)) if names else cfg


def run_sweep(config: ExperimentConfig) -> list[dict]:
    """One row per grid point of the configured sweep axis.

    For a ``p_r`` sweep the capacities are evaluated at the fixed
    allocation; for every other axis the allocation is solved per point
    with the configured method (``equal`` takes the third/third/third
    split unsolved).  A ``p_r`` or ``w`` curve keeps one scenario, so its
    points share one kernel: one lockstep batch, each point as on its own,
    or one capacity call.  Every grid point is validated before any solve.
    Rows come out in grid order, fully deterministic under a fixed seed.
    """
    if not config.sweep_param:
        raise ConfigError("config has no sweep axis")
    if not config.sweep_values:
        raise ConfigError("sweep grid is empty")
    mode = RelayMode(config.mode)
    cfgs = [_apply_sweep_value(config, config.sweep_param, float(value)) for value in config.sweep_values]
    geoms = {cfg.d_a: cfg.geom for cfg in cfgs}  # one sample set per placement
    drawn = {d_a: sample_channels(geom, config.samples, config.seed) for d_a, geom in geoms.items()}
    samples = [drawn[cfg.d_a] for cfg in cfgs]

    method = "fixed" if config.sweep_param == "p_r" else config.method
    shared = config.sweep_param in ("p_r", "w")  # one scenario: the curve's points share one kernel
    reports = []
    for group in [range(len(cfgs))] if shared else [[i] for i in range(len(cfgs))]:
        s, p = samples[group[0]], cfgs[group[0]]  # the group's scenario, up to w, which no kernel reads
        if method in ("exact", "approx"):
            reports += _solve_weights(mode, s, p, [cfgs[i].w for i in group], SolveMethod(method))
            continue
        if method == "fixed":
            allocs = [PowerAllocation.from_relay_power(float(config.sweep_values[i]), p.p_tot) for i in group]
        else:
            allocs = [PowerAllocation.equal_split(p.p_tot)] * len(group)
        caps = _kernel(mode, s, p, NODES)[0]([a.p_r for a in allocs], [a.p_node for a in allocs])
        reports += [  # no search
            SolveReport(a, EcPoint(r_ea, r_eb, a), None, None, 0, 0) for a, (r_ea, r_eb) in zip(allocs, caps)
        ]

    rows = []
    for value, cfg, report in zip(config.sweep_values, cfgs, reports):
        row = dict(
            vars(cfg),
            sweep_value=float(value),
            method=method,
            p_r=report.alloc.p_r,
            p_node=report.alloc.p_node,
            r_ea=report.ec.r_ea,
            r_eb=report.ec.r_eb,
            weighted_sum=report.ec.weighted_sum(cfg.w),
            silenced=report.silenced or "",
            degenerate=report.degenerate,
            iterations=report.iterations,
            objective_evals=report.objective_evals,
        )
        rows.append({c: row[c] for c in SWEEP_COLUMNS})
    return rows


def bench_rows(config: ExperimentConfig, repeats: int) -> list[dict]:
    """Exact against approximate solve times per benchmark cell, HD then FD.

    One row per cell (error-probability grid in HD, residual self-interference
    grid in FD) with mean and standard deviation of each solve call's wall
    time over ``repeats`` runs, the exact/approx time ratio, and the solved
    outputs, which do not vary across repeats; also printed to stdout.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    cells = [(RelayMode.HD, "eps", e) for e in BENCH_EPS] + [(RelayMode.FD, "omega", o) for o in BENCH_OMEGA]
    rows = []
    for mode, param_name, value in cells:
        cfg = _apply_sweep_value(config, param_name, value)
        samples = sample_channels(cfg.geom, cfg.samples, cfg.seed)

        t_exact, t_approx = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            rep_e = solve_exact(mode, samples, cfg)
            t1 = time.perf_counter()
            rep_a = solve_approx(mode, samples, cfg)
            t_exact.append(t1 - t0)
            t_approx.append(time.perf_counter() - t1)

        mean_e = mean(t_exact)
        mean_a = mean(t_approx)
        rows.append({
            "mode": mode.value,
            "param_name": param_name,
            "param_value": float(value),
            "samples": cfg.samples,
            "seed": cfg.seed,
            "repeats": repeats,
            "p_r_exact": rep_e.alloc.p_r,
            "p_r_approx": rep_a.alloc.p_r,
            "wsum_exact": rep_e.ec.weighted_sum(cfg.w),
            "wsum_approx": rep_a.ec.weighted_sum(cfg.w),
            "evals_exact": rep_e.objective_evals,
            "evals_approx": rep_a.objective_evals,
            "mean_ms_exact": 1e3 * mean_e,
            "std_ms_exact": 1e3 * (stdev(t_exact) if repeats > 1 else 0.0),
            "mean_ms_approx": 1e3 * mean_a,
            "std_ms_approx": 1e3 * (stdev(t_approx) if repeats > 1 else 0.0),
            "time_ratio": mean_e / mean_a,
        })
    print(f"{'mode':<5} {'param':<6} {'value':>8} {'exact ms':>12} {'approx ms':>12} {'ratio':>7}")
    for r in rows:
        print(
            f"{r['mode']:<5} {r['param_name']:<6} {r['param_value']:>8g} "
            f"{r['mean_ms_exact']:>8.2f}±{r['std_ms_exact']:<5.2f} "
            f"{r['mean_ms_approx']:>8.2f}±{r['std_ms_approx']:<5.2f} "
            f"{r['time_ratio']:>7.2f}"
        )
    return rows


# ---------------------------------------------------------------------------
# figure subcommands

def _pr_grid(cfg: ExperimentConfig) -> tuple:
    if cfg.sweep_param == "p_r" and cfg.sweep_values:
        return cfg.sweep_values
    if cfg.p_tot < 2.0:  # the default grid would run backwards
        raise ConfigError(f"the default p_r grid [1, p_tot - 1] needs p_tot >= 2, got {cfg.p_tot}; "
                          "set sweep_param = p_r and sweep_values = a,b,... in a config file")
    return tuple(np.linspace(1.0, cfg.p_tot - 1.0, PR_GRID_POINTS))


class Figure(NamedTuple):
    """A sweep figure: its help line, swept axis, grid (empty: the p_r grid),
    the overrides of each curve in emission order, and scenario defaults
    that apply unless the config file or a flag sets them."""

    help: str
    axis: str
    grid: tuple
    curves: tuple
    defaults: dict = {}

    @property
    def fixed(self) -> set:
        """The config fields it sets itself: the axis's, every curve's, and an unsolved p_r axis's method."""
        every_curve = set.intersection(*map(set, self.curves))
        return every_curve.union(SWEEP_FIELDS[self.axis], ["method"] if self.axis == "p_r" else [])


STRATEGIES = ("exact", "approx", "equal")
FIGURES = {
    "fig2": Figure(
        "HD capacity of both nodes versus relay power, one curve per relay placement.",
        "p_r", (), tuple({"mode": "hd", "d_a": d_a} for d_a in (0.1, 0.5, 0.8)),
    ),
    "fig3": Figure(
        "FD capacity versus relay power, one curve per self-interference level.",
        "p_r", (), tuple({"mode": "fd", "omega": omega} for omega in (0.1, 0.3, 0.5)), {"d_a": 0.1},
    ),
    "fig4": Figure(
        "HD weighted capacity versus error probability for the three allocation strategies.",
        "eps", EPS_GRID, tuple({"mode": "hd", "method": method} for method in STRATEGIES),
    ),
    "fig5": Figure(
        "FD weighted capacity versus error probability, per self-interference level and allocation strategy.",
        "eps", EPS_GRID,
        tuple({"mode": "fd", "omega": o, "method": method} for o in (0.01, 0.05, 0.10) for method in STRATEGIES),
    ),
    "fig6": Figure(
        "Weighted capacity versus QoS exponent, HD against FD at several self-interference levels.",
        "theta", THETA_GRID, ({"mode": "hd"},) + tuple({"mode": "fd", "omega": omega} for omega in (0.01, 0.05, 0.10)),
    ),
    "fig7": Figure(
        "Weighted capacity versus priority weight, per relay placement, HD and FD.",
        "w", W_GRID, tuple({"mode": mode, "d_a": d_a} for d_a in (0.3, 0.5, 0.7) for mode in ("hd", "fd")),
    ),
}


def figure_rows(name: str, cfg: ExperimentConfig) -> list[dict]:
    """The rows of sweep figure ``name``: one sweep per curve, in order."""
    fig = FIGURES[name]
    base = replace(cfg, sweep_param=fig.axis, sweep_values=fig.grid or _pr_grid(cfg))
    return [row for curve in fig.curves for row in run_sweep(replace(base, **curve))]


def fig8_rows(cfg: ExperimentConfig) -> list[dict]:
    """FD capacity frontiers by the weighted-sum and floor-constraint
    methods, per (placement, self-interference) scenario.

    Both traces run on the exact estimator objectives, whatever method a
    config file names, so the comparison isolates the scalarization; the
    floor grid reuses the weighted frontier's node-B capacities so the two
    traces sample the same frontier locations.
    """
    method = SolveMethod.EXACT
    rows = []
    for d_a, omega in FIG8_SCENARIOS:
        sub = replace(cfg, mode="fd", d_a=d_a, omega=omega)
        samples = sample_channels(sub.geom, sub.samples, sub.seed)
        weighted = pareto_weighted(RelayMode.FD, samples, sub, W_GRID, method=method)
        mu_grid = tuple(sorted({p.r_eb for p in weighted.points}))
        constrained = pareto_epsilon_constraint(RelayMode.FD, samples, sub, mu_grid)
        for kind, front in (("weighted", weighted), ("epsilon", constrained)):
            rows.extend(
                dict(
                    d_a=d_a, omega=omega, method=kind, parameter=float(x), p_r=point.alloc.p_r,
                    r_ea=point.r_ea, r_eb=point.r_eb, samples=sub.samples, seed=sub.seed,
                )
                for x, point in zip(front.parameter_grid, front.points)
            )
    return rows


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="relayec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # per subcommand: its help line and the config fields it sets itself
    commands = {name: (fig.help, fig.fixed) for name, fig in FIGURES.items()}
    for name, fn, fixed in (("fig8", fig8_rows, FIG8_FIXED), ("bench", bench_rows, BENCH_FIXED)):
        commands[name] = (fn.__doc__.split("\n\n")[0], fixed)
    choices = {"mode": ("hd", "fd"), "format": ("csv", "json"), "method": ("exact", "approx")}
    for name, (text, fixed) in commands.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=str, default=None)
        # a flag per config field the subcommand does not set itself, parsed as that field's type
        for key in ("seed", "samples", "mode", "omega", "w", "d_a", "out", "format", "method"):
            if key not in fixed:
                kind = _KINDS[_FIELD_TYPES[key]]
                p.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices.get(key), default=None)
        p.add_argument(
            "--paper-defaults", action="store_true",
            help="reset the scenario to the reference parameter set, the defaults of SystemParams",
        )
        if name == "bench":
            p.add_argument("--repeats", type=int, default=100)
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    given = load_config(args.config) if args.config else {}
    if args.paper_defaults:  # the file's scenario keys go back to the defaults the class holds
        given = {key: getattr(ExperimentConfig, key) if key in _SCENARIO_KEYS else v for key, v in given.items()}
    flags = {key: v for key, v in vars(args).items() if key in _FIELD_TYPES and v is not None}
    fig = FIGURES.get(args.command)
    try:  # a figure's defaults yield to the file and the flags, not to --paper-defaults
        return ExperimentConfig(**{**(fig.defaults if fig else {}), **given, **flags})
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        if args.command in FIGURES:
            rows, columns = figure_rows(args.command, cfg), SWEEP_COLUMNS
        elif args.command == "fig8":
            rows, columns = fig8_rows(cfg), PARETO_COLUMNS
        else:
            rows, columns = bench_rows(cfg, args.repeats), BENCH_FILE_COLUMNS
    except (ConfigError, ValueError) as exc:  # a ValueError: inputs the model cannot evaluate
        print(f"relayec: config error: {exc}", file=sys.stderr)
        return 1
    out = cfg.out or f"{args.command}.{cfg.format}"
    try:
        emit_table(rows, cfg.format, out, columns)
    except OSError as exc:
        print(f"relayec: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

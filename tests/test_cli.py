import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relayec.capacity as capacity_module
import relayec.cli as cli
from relayec import (
    Geometry, PowerAllocation, RelayMode, SystemParams, ec_point, sample_channels, solve_approx, solve_exact,
)
from relayec.capacity import _kernel
from relayec.cli import (
    BENCH_FILE_COLUMNS,
    FIGURES,
    PARETO_COLUMNS,
    SWEEP_COLUMNS,
    SWEEP_FIELDS,
    W_GRID,
    ConfigError,
    ExperimentConfig,
    _build_parser,
    bench_rows,
    emit_table,
    figure_rows,
    load_config,
    main,
    run_sweep,
)


def config_text(cfg: ExperimentConfig) -> str:
    """A config file naming every field of ``cfg`` as ``key = value``."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.name == "sweep_values":
            v = ",".join(repr(float(x)) for x in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def small_cfg(**kw):
    base = dict(samples=150, seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        cfg = ExperimentConfig(
            m=120, p_tot=500.0, d_a=0.25, omega=0.07, w=0.8, mode="fd",
            samples=64, seed=3, method="exact", sweep_param="eps",
            sweep_values=(1e-6, 1e-5, 1e-4), out="x.csv", format="json",
        )
        path = tmp_path / "run.cfg"
        path.write_text(config_text(cfg))
        assert ExperimentConfig(**load_config(path)) == cfg

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, tmp_path_factory, data):
        positive = st.floats(0.0, 1e300, exclude_min=True)
        fraction = st.floats(0.0, 1.0)
        d_a = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        # alpha up to where the product of the links' largest draws, 36.74^2 (d_a d_b) ** -alpha,
        # reaches 1e299, and p_tot below the bound SystemParams puts on a budget at those draws
        top = math.log(1e299 / 36.74**2) / -math.log(d_a * (1.0 - d_a))
        alpha = data.draw(st.floats(0.0, top, exclude_min=True))
        g_a, g_b = Geometry(d_a, alpha).top_draws
        p_max = 0.99 * (math.sqrt(1e300 / (g_a * g_b + 2.0 * (g_a + g_b) + 1.0)) - 1.0)
        cfg = data.draw(st.builds(
            ExperimentConfig,
            m=st.integers(1, 10**6), p_tot=st.floats(0.0, p_max, exclude_min=True), alpha=st.just(alpha),
            d_a=st.just(d_a), omega=fraction,
            eps_a=st.floats(0.0, 0.5, exclude_min=True), eps_b=st.floats(0.0, 0.5, exclude_min=True),
            theta_a=positive, theta_b=positive, gamma_t_a=st.floats(0.0, 1e300), gamma_t_b=st.floats(0.0, 1e300),
            w=fraction, hd_rate_blocklength=st.sampled_from(["m", "m/2"]),
            mode=st.sampled_from(["hd", "fd"]), samples=st.integers(1, 2**40), seed=st.integers(0, 2**63),
            method=st.sampled_from(["exact", "approx", "equal"]), sweep_param=st.sampled_from(["", *SWEEP_FIELDS]),
            # a value in a config file keeps no line break, and no space at either end: the parser strips those
            out=st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))).filter(lambda t: t == t.strip()),
            format=st.sampled_from(["csv", "json"]),
        ))
        grid = st.floats(0.0, cfg.p_tot) if cfg.sweep_param == "p_r" else st.floats(allow_nan=False, allow_infinity=False)
        cfg = replace(cfg, sweep_values=tuple(sorted(data.draw(st.lists(grid, max_size=6)))))
        path = tmp_path_factory.mktemp("config") / "run.cfg"
        path.write_text(config_text(cfg))
        assert ExperimentConfig(**load_config(path)) == cfg

    def test_defaults_are_reference_scenario(self):
        p = ExperimentConfig()
        assert (p.m, p.p_tot, p.geom.alpha, p.geom.d_a) == (100, 1000.0, 4.0, 0.5)
        assert (p.eps_a, p.theta_a, p.gamma_t_a) == (1e-4, 1e-3, 1.0)

    def test_is_a_scenario(self):
        assert isinstance(ExperimentConfig(), SystemParams)
        defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        assert {f.name: defaults.get(f.name) for f in fields(SystemParams)} == {
            f.name: f.default for f in fields(SystemParams)
        }

    @pytest.mark.parametrize("kwargs", [
        {"w": 2.0}, {"d_a": 1.5}, {"sweep_param": "bogus"},
        # a run_sweep on these once failed late, inside numpy
        {"samples": 150.5}, {"samples": 150.0}, {"seed": 1.5}, {"seed": "7"},
    ])
    def test_rejected_when_built(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_numpy_integer_samples_and_seed_accepted(self):
        assert ExperimentConfig(samples=np.int64(150), seed=np.uint8(7)) == ExperimentConfig(samples=150, seed=7)

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nm = 50\nd_a = 0.3\nsweep_values = 1.0,2.0\n")
        got = load_config(path)
        assert got == {"m": 50, "d_a": 0.3, "sweep_values": (1.0, 2.0)}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("power = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = many\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="duplex")
        with pytest.raises(ConfigError):
            ExperimentConfig(method="magic")
        with pytest.raises(ConfigError):
            ExperimentConfig(sweep_values=(2.0, 1.0))
        with pytest.raises(ConfigError):
            ExperimentConfig(samples=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=-1)
        for grid in ((-1.0, 500.0), (0.0, 1000.5)):
            with pytest.raises(ConfigError):
                ExperimentConfig(sweep_param="p_r", sweep_values=grid)
        ExperimentConfig(sweep_param="p_r", sweep_values=(0.0, 1000.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sweep_param": "d_a", "sweep_values": (0.7, float("nan"), 0.2)},
            {"sweep_param": "d_a", "sweep_values": (0.2, float("inf"))},
            {"p_tot": float("inf")},
            {"omega": float("nan")},
            {"w": float("-inf")},
            {"theta_a": float("nan")},
        ],
    )
    def test_nonfinite_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_numpy_nan_sweep_value_rejected(self):
        with pytest.raises(ConfigError, match="sweep_values must be finite"):
            ExperimentConfig(sweep_param="d_a", sweep_values=(0.2, np.float64("nan")))


class TestEmitTable:
    ROWS = [
        {"name": "a", "value": 1.0 / 3.0, "count": 2},
        {"name": "b", "value": 2.5e-13, "count": 3},
    ]

    def test_empty_rows_refused_without_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            emit_table([], "csv", path)
        assert not path.exists()

    def test_csv_round_trip_to_12_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_table(self.ROWS, "csv", path)
        with path.open() as fh:
            back = list(csv.DictReader(fh))
        for row, orig in zip(back, self.ROWS):
            assert row["name"] == orig["name"]
            assert float(row["value"]) == pytest.approx(orig["value"], rel=1e-11)
            assert int(row["count"]) == orig["count"]

    def test_byte_identical_rewrites(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_table(self.ROWS, "csv", p1)
        emit_table(self.ROWS, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_table(self.ROWS, "json", j1)
        emit_table(self.ROWS, "json", j2)
        assert j1.read_bytes() == j2.read_bytes()

    def test_json_values(self, tmp_path):
        path = tmp_path / "out.json"
        emit_table(self.ROWS, "json", path)
        data = json.loads(path.read_text())
        assert data[0]["name"] == "a"
        assert data[0]["value"] == pytest.approx(1.0 / 3.0, rel=1e-11)

    def test_missing_column_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_table([{"a": 1}, {"b": 2}], "csv", tmp_path / "x.csv")


class TestRunSweep:
    def test_needs_sweep_axis(self):
        with pytest.raises(ConfigError):
            run_sweep(small_cfg())

    def test_fixed_power_sweep(self):
        cfg = small_cfg(sweep_param="p_r", sweep_values=(100.0, 500.0, 900.0))
        rows = run_sweep(cfg)
        assert [r["sweep_value"] for r in rows] == [100.0, 500.0, 900.0]
        assert all(r["method"] == "fixed" for r in rows)
        assert all(r["p_r"] == r["sweep_value"] for r in rows)
        mid = rows[1]
        assert mid["weighted_sum"] == pytest.approx(
            0.5 * (mid["r_ea"] + mid["r_eb"])
        )

    @pytest.mark.parametrize("mode", ["hd", "fd"])
    def test_relay_power_axis_rows_match_ec_point(self, mode, monkeypatch):
        builds = []
        kernel = cli._kernel
        monkeypatch.setattr(cli, "_kernel", lambda *args: builds.append(args) or kernel(*args))
        cfg = small_cfg(mode=mode, d_a=0.3, sweep_param="p_r", sweep_values=tuple(np.linspace(0.0, 1000.0, 41)))
        rows = run_sweep(cfg)
        assert len(builds) == 1  # one kernel for the curve
        samples = sample_channels(cfg.geom, cfg.samples, cfg.seed)
        for row in rows:
            point = ec_point(RelayMode(mode), samples, cfg, PowerAllocation.from_relay_power(row["p_r"], cfg.p_tot))
            assert (row["r_ea"], row["r_eb"], row["p_node"]) == (point.r_ea, point.r_eb, point.alloc.p_node)

    @pytest.mark.parametrize("mode", ["hd", "fd"])
    def test_equal_weight_axis_rows_match_ec_point(self, mode, monkeypatch):
        builds = []
        for module in (cli, capacity_module):
            monkeypatch.setattr(module, "_kernel", lambda *args: builds.append(args) or _kernel(*args))
        cfg = small_cfg(mode=mode, d_a=0.3, method="equal", sweep_param="w", sweep_values=W_GRID)
        rows = run_sweep(cfg)
        assert len(builds) == 1  # one kernel call for the curve, not one per weight
        samples = sample_channels(cfg.geom, cfg.samples, cfg.seed)
        for row in rows:
            params = replace(cfg, w=row["sweep_value"])
            point = ec_point(RelayMode(mode), samples, params, PowerAllocation.equal_split(params.p_tot))
            assert (row["p_r"], row["p_node"], row["r_ea"], row["r_eb"]) == (
                point.alloc.p_r, point.alloc.p_node, point.r_ea, point.r_eb
            )

    def test_solved_sweep_has_solver_fields(self):
        cfg = small_cfg(sweep_param="eps", sweep_values=(1e-5, 1e-3), method="exact")
        rows = run_sweep(cfg)
        assert all(r["objective_evals"] > 0 for r in rows)
        assert all(0.0 < r["p_r"] < 1000.0 for r in rows)
        assert rows[0]["eps_a"] == 1e-5 and rows[1]["eps_a"] == 1e-3

    def test_equal_method(self):
        cfg = small_cfg(sweep_param="omega", sweep_values=(0.1,), mode="fd", method="equal")
        (row,) = run_sweep(cfg)
        assert row["p_r"] == pytest.approx(1000.0 / 3.0)

    def test_deterministic(self):
        cfg = small_cfg(sweep_param="w", sweep_values=(0.2, 0.8), method="approx")
        assert run_sweep(cfg) == run_sweep(cfg)

    @pytest.mark.parametrize("grid", [(0.5, 1.5), (-0.1, 0.5)])
    def test_weight_outside_unit_interval_rejected_before_solving(self, monkeypatch, grid):
        calls = []
        monkeypatch.setattr(cli, "_solve_weights", lambda *args: calls.append(args))
        with pytest.raises(ConfigError):
            run_sweep(small_cfg(sweep_param="w", sweep_values=grid))
        assert calls == []

    @pytest.mark.parametrize("mode, gamma_t_a", [("hd", 600.0), ("fd", 15.0)])
    @pytest.mark.parametrize("method", ["exact", "approx"])
    def test_weight_axis_rows_match_single_solves(self, mode, gamma_t_a, method):
        # node A's operating SNR grows with its weight and crosses its
        # threshold, so the batch holds silenced and unsilenced solves
        cfg = small_cfg(
            mode=mode, method=method, d_a=0.3, gamma_t_a=gamma_t_a,
            sweep_param="w", sweep_values=tuple(np.linspace(0.0, 1.0, 11)),
        )
        rows = run_sweep(cfg)
        samples = sample_channels(cfg.geom, cfg.samples, cfg.seed)
        solver = solve_exact if method == "exact" else solve_approx
        silenced = set()
        for row in rows:
            params = replace(cfg, w=row["sweep_value"])
            report = solver(RelayMode(mode), samples, params)
            silenced.add(row["silenced"])
            assert (row["p_r"], row["r_ea"], row["r_eb"]) == (report.alloc.p_r, report.ec.r_ea, report.ec.r_eb)
            assert row["silenced"] == (report.silenced or "") and row["degenerate"] == report.degenerate
            assert (row["iterations"], row["objective_evals"]) == (report.iterations, report.objective_evals)
        assert silenced == {"", "A"}

    def test_weight_sweep_flat_at_midpoint(self):
        # symmetric placement: the weighted sum barely moves with the weight
        cfg = small_cfg(
            samples=400, sweep_param="w",
            sweep_values=tuple(np.linspace(0.0, 1.0, 11)), method="exact",
        )
        for mode in ("hd", "fd"):
            rows = run_sweep(ExperimentConfig(**{**cfg.__dict__, "mode": mode}))
            ws = [r["weighted_sum"] for r in rows]
            assert (max(ws) - min(ws)) / max(ws) < 0.05


class TestFigures:
    def test_fig2_argmax_power_grows_with_distance(self):
        cfg = small_cfg(
            samples=300,
            sweep_param="p_r",
            sweep_values=tuple(np.linspace(1.0, 999.0, 40)),
        )
        rows = figure_rows("fig2", cfg)
        argmax = {}
        for d_a in (0.1, 0.5, 0.8):
            curve = [r for r in rows if r["d_a"] == d_a]
            best = max(curve, key=lambda r: r["r_ea"])
            argmax[d_a] = best["p_r"]
        assert argmax[0.1] < argmax[0.5] < argmax[0.8]

    def test_fig3_single_peak_per_omega(self):
        cfg = small_cfg(
            samples=200,
            sweep_param="p_r",
            sweep_values=tuple(np.linspace(1.0, 999.0, 60)),
            d_a=0.1,
        )
        rows = figure_rows("fig3", cfg)
        for omega in (0.1, 0.3, 0.5):
            curve = np.array([r["r_ea"] for r in rows if r["omega"] == omega])
            d = np.diff(curve)
            signs = np.sign(d[np.abs(d) > 1e-12])
            down = int(np.sum((signs[:-1] > 0) & (signs[1:] < 0)))
            assert down == 1


class TestRunBench:
    def test_results_independent_of_repeats(self):
        cfg = small_cfg(samples=100)
        r1 = bench_rows(cfg, repeats=1)
        r3 = bench_rows(cfg, repeats=3)
        for a, b in zip(r1, r3):
            assert a["p_r_exact"] == b["p_r_exact"]
            assert a["p_r_approx"] == b["p_r_approx"]
            assert a["wsum_exact"] == b["wsum_exact"]

    def test_cells(self):
        rows = bench_rows(small_cfg(samples=100), repeats=1)
        assert [(r["mode"], r["param_name"], r["param_value"]) for r in rows] == [
            ("hd", "eps", 1e-8), ("hd", "eps", 1e-5), ("hd", "eps", 1e-2),
            ("fd", "omega", 0.01), ("fd", "omega", 0.05), ("fd", "omega", 0.10),
        ]
        assert all(r["mean_ms_exact"] > 0 for r in rows)

    def test_bad_repeats(self):
        with pytest.raises(ConfigError):
            bench_rows(small_cfg(), repeats=0)


class TestMain:
    def test_fig4_writes_table(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code = main(["fig4", "--samples", "60", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 7  # header + strategies x eps grid
        assert "wrote" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fig2", "--samples", "40", "--out", str(a)]) == 0
        assert main(["fig2", "--samples", "40", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fig_outputs_match_committed_digests(self, tmp_path):
        # fig_digests.sha256 holds the SHA-256 of fig2-fig8 and of bench (one
        # repeat) at --samples 60 --seed 11 (sha256sum format); a change that
        # moves any printed digit must update it and say which columns moved
        digests = Path(__file__).with_name("fig_digests.sha256").read_text().split()
        for digest, name in zip(digests[::2], digests[1::2]):
            out = tmp_path / name
            repeats = ["--repeats", "1"] if out.stem == "bench" else []
            assert main([out.stem, "--samples", "60", "--seed", "11", *repeats, "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["fig4", "--format", "xx", "--out", str(tmp_path / "x.csv")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, source):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = -3\n")
        args = ["--seed", "-1"] if source == "flag" else ["--config", str(cfgfile)]
        out = tmp_path / "x.csv"
        assert main(["fig4", *args, "--samples", "40", "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"seed = 3\n\xff\xfe\x80 = 1\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(cfgfile)
        out = tmp_path / "x.csv"
        assert main(["fig4", "--config", str(cfgfile), "--out", str(out)]) == 1
        assert "config error: cannot read config" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_path_gain_exit_code(self, tmp_path, capsys):
        # the placement's path gain overflows: once an OverflowError traceback from sample_channels
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("d_a = 0.05\nalpha = 300\n")
        out = tmp_path / "x.csv"
        assert main(["fig4", "--config", str(cfgfile), "--out", str(out)]) == 1
        assert "relayec: config error: path gain d ** -alpha overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_draw_exit_code(self, tmp_path, capsys):
        # the path gain 20 ** 236 ~ 1e307 is finite, but its draws overflowed mean_gains' sum: a
        # RuntimeWarning, which this suite's filter raises, or else exit 1 with "H_A=inf"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("d_a = 0.05\nalpha = 236\nsamples = 1000\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:  # keeps the suite's filters
            assert main(["fig4", "--config", str(cfgfile), "--out", str(out)]) == 1
        assert caught == []
        assert "relayec: config error: path gain d ** -alpha overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_unevaluable_config_exit_code(self, tmp_path):
        # a budget whose SINRs can overflow at the placement's largest draws: the
        # error is reported, not raised (a subprocess, so any warning stays a warning)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("p_tot = 1e300\nsamples = 40\n")
        out = tmp_path / "x.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "relayec.cli", "fig4", "--config", str(cfgfile), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 1
        assert "relayec: config error: p_tot=1e+300 can overflow an SINR" in run.stderr
        assert "Traceback" not in run.stderr and not out.exists()

    def test_unevaluable_config_in_process(self, tmp_path, capsys):
        # the same budget is rejected before any kernel runs: once numpy's overflow
        # warnings, which this suite's filter raises inside the library, came first
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("p_tot = 1e300\nsamples = 40\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:  # keeps the suite's filters
            assert main(["fig4", "--config", str(cfgfile), "--out", str(out)]) == 1
        assert caught == []
        assert "relayec: config error: p_tot=1e+300 can overflow an SINR" in capsys.readouterr().err
        assert not out.exists()

    def test_import_leaves_scipy_unloaded(self):
        # scipy.special alone would add ~0.35 s to every command's start-up, and
        # concurrent.futures ~9 ms: the kernel's pool starts on its first multi-block pass
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys, relayec, relayec.cli; "
            "assert not {'scipy', 'concurrent.futures'} & set(sys.modules), sorted(sys.modules)"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    @pytest.mark.parametrize("flag", ["--omega", "--w", "--d-a"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_flag_exit_code(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        assert main(["fig4", flag, value, "--samples", "40", "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(["fig4", "--samples", "40", "--out", str(out)])
        assert code == 2

    def test_config_file_and_flag_priority(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("samples = 50\nseed = 5\nd_a = 0.3\n")
        out = tmp_path / "f2.csv"
        code = main(["fig4", "--config", str(cfgfile), "--seed", "9", "--out", str(out)])
        assert code == 0
        with out.open() as fh:
            row = next(csv.DictReader(fh))
        assert row["seed"] == "9"          # flag wins
        assert row["samples"] == "50"      # file applies
        assert row["d_a"] == "0.3"

    def test_paper_defaults_reset_scenario(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("m = 64\nd_a = 0.3\nsamples = 40\n")
        out = tmp_path / "f4.csv"
        code = main(
            ["fig4", "--config", str(cfgfile), "--paper-defaults", "--out", str(out)]
        )
        assert code == 0
        with out.open() as fh:
            row = next(csv.DictReader(fh))
        assert row["m"] == "100" and row["d_a"] == "0.5"
        assert row["samples"] == "40"  # run controls stay

    def test_subcommand_help_lines(self):
        text = _build_parser().format_help()
        for name in (*FIGURES, "fig8", "bench"):
            line = next(line for line in text.splitlines() if line.split()[:1] == [name])
            assert len(line.split()) > 1, name

    @pytest.mark.parametrize("command, text", [("fig4", "sweep_param = bogus\n"), ("fig7", "w = 2.0\n")])
    def test_invalid_field_the_subcommand_sets_from_file(self, tmp_path, capsys, command, text):
        # the subcommand overrides the field, but a config file's value must still be valid
        cfgfile, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        cfgfile.write_text(text)
        assert main([command, "--config", str(cfgfile), "--samples", "20", "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_relay_power_from_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("sweep_param = p_r\nsweep_values = 0,2000\n")
        out = tmp_path / "x.csv"
        assert main(["fig2", "--config", str(cfgfile), "--samples", "40", "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, flags, d_a",
        [
            ("", ["--paper-defaults"], "0.1"),
            ("d_a = 0.3\n", [], "0.3"),
            ("d_a = 0.3\n", ["--paper-defaults"], "0.5"),
        ],
    )
    def test_fig3_default_placement_precedence(self, tmp_path, text, flags, d_a):
        # fig3's d_a = 0.1 yields to a config file's d_a, not to --paper-defaults
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text + "samples = 40\n")
        out = tmp_path / "f3.csv"
        assert main(["fig3", "--config", str(cfgfile), *flags, "--out", str(out)]) == 0
        with out.open() as fh:
            assert {row["d_a"] for row in csv.DictReader(fh)} == {d_a}

    def test_fig3_defaults_near_node_a(self, tmp_path):
        out = tmp_path / "f3.json"
        code = main(["fig3", "--samples", "40", "--format", "json", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert all(r["d_a"] == 0.1 for r in data)

    def test_fig3_honors_explicit_distance(self, tmp_path):
        out = tmp_path / "f3.csv"
        code = main(["fig3", "--samples", "40", "--d-a", "0.9", "--out", str(out)])
        assert code == 0
        with out.open() as fh:
            row = next(csv.DictReader(fh))
        assert row["d_a"] == "0.9"

    @pytest.mark.parametrize("command", ["fig2", "fig3"])
    def test_small_budget_needs_a_relay_power_grid(self, tmp_path, capsys, command):
        # below p_tot = 2 the default grid linspace(1, p_tot - 1) would run backwards
        cfgfile, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        argv = [command, "--config", str(cfgfile), "--samples", "20", "--out", str(out)]
        cfgfile.write_text("p_tot = 1.5\n")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "default p_r grid" in err and "sweep_values" in err
        assert not out.exists()
        cfgfile.write_text("p_tot = 1.5\nsweep_param = p_r\nsweep_values = 0.2,0.5,1.0\n")
        assert main(argv) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 3  # header + curves x grid

    def test_fig8_with_capacity_at_its_ceiling(self, tmp_path):
        # at theta = 0.1 node B's capacity saturates at -ln(eps_b) / (m theta_b),
        # so the top floor equals its peak on a plateau
        cfgfile = tmp_path / "plateau.cfg"
        cfgfile.write_text("theta_a = 0.1\ntheta_b = 0.1\n")
        out = tmp_path / "f8.csv"
        assert main(["fig8", "--config", str(cfgfile), "--samples", "5", "--seed", "7", "--out", str(out)]) == 0
        with out.open() as fh:
            assert len(list(csv.DictReader(fh))) > 0


@pytest.mark.parametrize(
    "section, columns",
    (("Sweep tables", SWEEP_COLUMNS), ("Frontier table", PARETO_COLUMNS), ("Benchmark table", BENCH_FILE_COLUMNS)),
)
def test_columns_doc_matches_code(section, columns):
    # docs/columns.md promises its tables list the columns in emission order
    doc = (Path(__file__).resolve().parents[1] / "docs" / "columns.md").read_text()
    body = doc.split(f"## {section}", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in body.splitlines() if line.startswith("| `")]
    assert [name for cell in rows for name in re.findall(r"`([^`]+)`", cell)] == columns


# a value other than the default of each config field a flag can set; --out is left out, as it moves the file
FLAG_PROBES = {
    "seed": "8", "samples": "21", "mode": "fd", "omega": "0.2",
    "w": "0.3", "d_a": "0.3", "format": "json", "method": "exact",
}


@pytest.mark.parametrize("command", (*FIGURES, "fig8", "bench"))
def test_offered_flags_are_the_fields_read(tmp_path, capsys, command):
    """A flag a subcommand offers changes its output file; one it does not
    offer is rejected, and the same field in a config file changes nothing."""
    out, cfgfile = tmp_path / "out", tmp_path / "run.cfg"

    def run(*args):
        extra = ["--repeats", "1"] if command == "bench" else []
        code = main([command, "--samples", "20", *extra, "--out", str(out), *args])
        return code, out.read_bytes() if code == 0 else None

    code, base = run()
    assert code == 0
    for key, value in FLAG_PROBES.items():
        code, data = run("--" + key.replace("_", "-"), value)
        if code == 0:
            assert data != base, key
            continue
        assert code == 1 and "unrecognized arguments" in capsys.readouterr().err, key
        cfgfile.write_text(f"{key} = {value}\n")
        assert run("--config", str(cfgfile)) == (0, base), key


def test_readme_flags_match_parser():
    # README's "Command line" section lists the flags every subcommand takes, then each one's own
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    body = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    common = next(par for par in body.split("\n\n") if par.startswith("Every subcommand takes"))
    listed = {
        line.split("`")[1]: set(re.findall(r"`(--[a-z-]+)", common + line))
        for line in body.splitlines()
        if line.startswith("- `")
    }
    (commands,) = [a.choices for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {
        name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, p in commands.items()
    }
    assert listed == offered

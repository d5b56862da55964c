"""Command-line front-end: config handling, artifacts, exit codes,
byte-level determinism."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pboltz import cli, evolution, hydrodynamics, linearized
from pboltz.cli import (
    COMMANDS,
    SCHEMA,
    build_parser,
    main,
    parse_config_file,
    resolve_config,
)
from pboltz.collision import CollisionOperator, DeltaKernel, FourierCollision
from pboltz.evolution import stable_step
from pboltz.linearized import assemble_L

FAST = ["--n", "8"]


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(list(argv) + ["--outdir", str(out)])
    return code, out


def read_manifest(out):
    with open(out / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def captured(monkeypatch, name):
    """The results of the calls of ``cli.<name>`` made while the test runs."""
    results = []
    original = getattr(cli, name)

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, recording)
    return results


def run_gaussian_config_file(tmp_path):
    """A spectrum run whose config file names the kernel shape."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta_shape = gaussian\nn = 8\n", encoding="utf-8")
    code, out = run(tmp_path, "o", "spectrum", "--config", str(cfg))
    assert code == 0
    return out


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # only the exact-shell validator root-finds, and imports it itself
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, pboltz.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


class TestConfigHandling:
    def test_config_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nn = 8\n\nr = 1.5\n", encoding="utf-8")
        assert parse_config_file(cfg) == {"n": "8", "r": "1.5"}

    def test_malformed_line_raises(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n 8\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_config_file(cfg)

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8\nseed = 5\n", encoding="utf-8")
        code, out = run(
            tmp_path, "o", "collision-check", "--config", str(cfg),
            "--samples", "1", "--seed", "9"
        )
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["config"]["n"] == "8"
        assert manifest["config"]["seed"] == "9"  # flag beat the file

    def test_environment_variable_overrides_outdir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("PBOLTZ_OUTDIR", str(env_dir))
        code = main(["spectrum"] + FAST)
        assert code == 0
        assert (env_dir / "manifest.json").exists()

    def test_explicit_flag_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PBOLTZ_OUTDIR", str(tmp_path / "ignored"))
        code, out = run(tmp_path, "flagged", "spectrum", *FAST)
        assert code == 0
        assert (out / "manifest.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_invalid_values_exit_2(self, tmp_path, capsys):
        assert main(["spectrum", "--n", "-3"]) == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["kind"] == "config"
        assert main(["spectrum", "--r", "nope"]) == 2
        assert main(["dispersion-relation", "--p-min", "0.2",
                     "--p-max", "0.1"]) == 2
        assert main(["evolve", "--ripple", "1.5"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--d", "4"],
            ["spectrum", "--n", "9"],
            ["spectrum", "--n", "6"],
            ["spectrum", "--r", "inf"],
            ["evolve", "--ripple", "nan"],
            ["hydro-limit", "--tau-amplitude", "nan"],
            ["spectrum", "--delta-shape", "triangular"],
            ["collision-check", "--delta-shape", "triangular"],
            ["evolve", "--delta-shape", "triangular"],
            ["hydro-limit", "--delta-shape", "triangular"],
            ["validate-kernel", "--d", "3"],
            ["semigroup-bounds", "--p-factors", "0.5,1.0,"],
            ["hydro-limit", "--eps-list", "0.4,,0.2"],
            ["validate-kernel", "--eta-chain", "0.5,0.25,"],
            ["semigroup-bounds", "--t-factors", "1.0"],
            ["semigroup-bounds", "--t-factors", "1.0,1.0"],
            ["validate-kernel", "--eta-chain", "0.25"],
            ["semigroup-bounds", "--p-factors", "0.5,0.5"],
        ],
        ids=["d", "n-odd", "n-small", "r-inf", "ripple-nan", "tau-amplitude-nan",
             "spectrum-triangular", "collision-check-triangular",
             "evolve-triangular", "hydro-triangular", "validate-kernel-d3",
             "p-factors-empty-entry", "eps-list-empty-entry",
             "eta-chain-empty-entry", "t-factors-single",
             "t-factors-one-distinct", "eta-chain-single", "p-factors-repeated"],
    )
    def test_rejected_before_output_directory(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, "o", *argv)
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["kind"] == "config"
        assert not out.exists()

    def test_hydro_limit_positivity_checked_before_the_response_solver(
        self, tmp_path, capsys, monkeypatch
    ):
        # tau_amplitude = 1 passes the schema, but on this grid the initial
        # data 1/omega + tau0 u^T dips below zero
        def refuse(*args, **kwargs):
            raise AssertionError("CollisionResponse built before the check")

        monkeypatch.setattr(cli, "CollisionResponse", refuse)
        code, out = run(tmp_path, "o", "hydro-limit", *FAST, "--n-x", "8",
                        "--tau-amplitude", "1.0")
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["kind"] == "config"
        assert "positivity" in payload["error"]
        # exit 2 writes nothing: the directory main made is gone again, and
        # one that existed before is kept
        assert not out.exists()
        out.mkdir()
        code, _ = run(tmp_path, "o", "hydro-limit", *FAST, "--n-x", "8",
                      "--tau-amplitude", "1.0")
        assert code == 2
        assert out.is_dir() and not any(out.iterdir())

    def test_gaussian_delta_shape_in_a_config_file_runs(self, tmp_path):
        out = run_gaussian_config_file(tmp_path)
        manifest = read_manifest(out)
        assert manifest["status"] == "ok"
        assert manifest["config"]["delta_shape"] == "gaussian"
        assert manifest["delta"]["shape"] == "gaussian"

    def test_manifest_config_rebuilds_the_stack(self, tmp_path):
        # what the benchmark's collision checker does with a run's manifest
        manifest = read_manifest(run_gaussian_config_file(tmp_path))
        grid, disp, delta = cli.build_stack(manifest["config"], cli.StageClock())
        assert (grid.d, grid.n) == (2, 8)
        assert disp.params.r == 1.0
        assert delta == DeltaKernel(manifest["delta"]["eta"])

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 7\n", encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg)]) == 2
        assert "bogus_key" in capsys.readouterr().err


# Strings drawn for the config property test: valid values, values at and
# beside each key's declared bounds, out-of-range numbers, non-numbers,
# nan/inf, empty list entries, odd or small n and axis >= d.  The checks in
# `assert_preconditions` are stated apart from the schema, so a draw just
# inside a wrong bound in the table fails there.  `workers` only takes small
# values, so no draw asks for a large thread pool.
SPECIALS = ["nan", "-nan", "inf", "-inf", "", " ", "x", "1e999", "1.5.0", "0.5",
            "-0.0", "1e-8"]
LIST_ENTRIES = ["0.5", "0.25", "1", "3.0", "", " ", "0", "-1", "nan", "inf", "x"]
WORDS = {
    "d": ["2.0"],
    "n": ["8", "10", "12", "6", "7", "9", "-8"],
    "axis": ["0", "1", "2", "3"],
    "delta_shape": ["gaussian", "triangular", "box", "", "Gaussian"],
    "eta": ["auto", "Auto", "0.3"],
    "dt": ["auto", "0.1"],
    "workers": ["1", "2", "0", "-1", "x", "", "1.0"],
}


def beside_bounds(key):
    """Numbers at and beside the bounds the schema declares for ``key``."""
    kind, bounds, _ = SCHEMA[key]
    out = []
    for b in bounds or ():
        if kind == "int":
            out += [str(int(b) + k) for k in (-1, 0, 1)] if math.isfinite(b) else []
        elif math.isfinite(b):
            out += [repr(b + step) for step in (-1.0, -0.5, -1e-9, 0.0, 1e-9, 0.5, 1.0)]
    return out


def drawn_value(key):
    if key == "workers":
        return st.sampled_from(WORDS[key])
    kind = SCHEMA[key][0]
    near = st.sampled_from(WORDS.get(key, []) + beside_bounds(key) or SPECIALS)
    if kind == "reals":
        entries = st.sampled_from(LIST_ENTRIES + beside_bounds(key))
        return st.lists(entries, min_size=1, max_size=4).map(",".join)
    if kind == "int":
        wide = st.integers(-3, 40).map(str)
    else:
        wide = st.floats(allow_nan=True, allow_infinity=True).map(repr)
    return st.one_of(near, near, st.sampled_from(SPECIALS), wide)


def positive(x):
    return isinstance(x, float) and math.isfinite(x) and x > 0


def assert_preconditions(command, v):
    """Every module precondition the subcommand's typed config must meet."""
    assert v.d in (2, 3) and type(v.d) is int
    assert v.n >= 8 and v.n % 2 == 0 and type(v.n) is int
    assert positive(v.r)
    assert v.delta_shape == "gaussian"
    assert v.eta is None or positive(v.eta)
    assert type(v.workers) is int and v.workers >= 1
    assert type(v.seed) is int and v.seed >= 0
    if command in ("evolve", "hydro-limit"):
        assert type(v.n_x) is int and v.n_x >= 2
        assert positive(v.box_length)
    if command == "collision-check":
        assert type(v.samples) is int and v.samples >= 1
    if command in ("dispersion-relation", "semigroup-bounds"):
        assert type(v.axis) is int and 0 <= v.axis < v.d
    if command == "dispersion-relation":
        assert positive(v.p_min) and positive(v.p_max) and v.p_min < v.p_max
        assert type(v.p_count) is int and v.p_count >= 2
    if command == "semigroup-bounds":
        for values in (v.p_factors, v.t_factors):
            assert len(values) >= 1 and all(positive(x) for x in values)
        assert len(set(v.t_factors)) >= 2
        assert len(set(v.p_factors)) == len(v.p_factors)
    if command == "evolve":
        assert positive(v.t_max) and positive(v.t_min)
        assert type(v.n_times) is int and v.n_times >= 2
        assert math.isfinite(v.ripple) and abs(v.ripple) < 1.0
        assert v.dt is None or positive(v.dt)
        assert positive(v.contamination) and v.contamination < 1.0
    if command == "hydro-limit":
        assert len(v.eps_list) >= 1 and all(positive(x) for x in v.eps_list)
        assert positive(v.t_compare) and positive(v.dt_base)
        assert positive(v.dt_reference)
        assert isinstance(v.tau_amplitude, float) and math.isfinite(v.tau_amplitude)
    if command == "validate-kernel":
        assert v.d == 2
        assert type(v.pairs) is int and v.pairs >= 1
        assert type(v.quad_m) is int and v.quad_m >= 8
        assert positive(v.refine_tol)
        assert len(v.eta_chain) >= 2 and all(positive(x) for x in v.eta_chain)
        assert positive(v.min_sin) and v.min_sin < 1.0


class TestConfigSchemaProperty:
    @pytest.mark.parametrize("command", list(COMMANDS))
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_resolves_to_checked_values_or_exits_2_up_front(
        self, tmp_path, command, data
    ):
        # no example may create the output directory, so one tmp_path serves all
        out = tmp_path / "o"
        parser = build_parser()
        text, _ = resolve_config(command, parser.parse_args([command]))
        settable = sorted(set(text) - {"outdir"})
        # one key, and sometimes a second one for the cross-key rules
        keys = {data.draw(st.sampled_from(settable), label="key"),
                data.draw(st.none() | st.sampled_from(settable), label="second")}
        argv = [command, f"--outdir={out}"] + [
            f"--{key.replace('_', '-')}={data.draw(drawn_value(key), label=key)}"
            for key in sorted(keys - {None})
        ]
        try:
            _, values = resolve_config(command, parser.parse_args(argv))
        except ValueError:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(argv) == 2
            assert json.loads(err.getvalue().splitlines()[-1])["kind"] == "config"
            assert not out.exists()
            return
        assert set(vars(values)) == set(text)
        assert_preconditions(command, values)


class TestArtifacts:
    def test_spectrum_outputs(self, tmp_path, stack8):
        grid, _, _ = stack8
        code, out = run(tmp_path, "spec", "spectrum", *FAST)
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["status"] == "ok"
        assert manifest["command"] == "spectrum"
        assert set(manifest["artifacts"]) == {
            "eigenvalues.csv", "spectrum_summary.csv"
        }
        header, rows = read_csv(out / "eigenvalues.csv")
        assert header == ["index [-]", "eigenvalue [1/time]"]
        assert len(rows) == grid.size
        assert manifest["fitted_constants"]["gap_a"] > 0
        assert manifest["checks"]["exact_null_mode"] is True

    def test_default_eta_is_the_auto_width_rule(self, tmp_path, stack8):
        grid, disp, _ = stack8
        code, out = run(tmp_path, "spec", "spectrum", *FAST)
        assert code == 0
        eta = read_manifest(out)["delta"]["eta"]
        assert eta == DeltaKernel.auto(grid, disp).width

    def test_csv_is_rfc4180_utf8_crlf(self, tmp_path):
        code, out = run(tmp_path, "spec", "spectrum", *FAST)
        assert code == 0
        raw = (out / "eigenvalues.csv").read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n")
        assert raw.decode("utf-8").splitlines()[0].startswith("index")

    def test_floats_printed_with_17_significant_digits(self, tmp_path):
        code, out = run(tmp_path, "spec", "spectrum", *FAST)
        _, rows = read_csv(out / "eigenvalues.csv")
        for _, cell in rows:
            assert cell == f"{float(cell):.17g}"

    def test_kappa_json(self, tmp_path, monkeypatch):
        kappas = captured(monkeypatch, "compute_kappa")
        code, out = run(tmp_path, "kap", "kappa", *FAST)
        assert code == 0
        with open(out / "kappa.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        op = np.array(payload["kappa_op"])
        assert op.shape == (2, 2)
        # kappa_op is symmetrized by construction: test the pairing matrix
        ab = np.array(payload["kappa_ab"])
        assert np.abs(ab - ab.T).max() <= 1e-8 * np.abs(ab).max()
        mu = np.array(payload["mu"])
        assert np.all(mu > 0)
        checks = read_manifest(out)["checks"]
        assert checks["positive_definite"] is True
        (kappa,) = kappas
        assert checks == {"positive_definite": kappa.positive_definite,
                          "axis_isotropy": kappa.cross_free}

    def test_collision_check_table(self, tmp_path):
        code, out = run(
            tmp_path, "cc", "collision-check", *FAST, "--samples", "3"
        )
        assert code == 0
        header, rows = read_csv(out / "collision_checks.csv")
        assert len(rows) == 3
        assert header[-3:] == [
            "pass_number [bool]", "pass_energy [bool]", "pass_entropy [bool]"
        ]
        for row in rows:
            assert row[5] == "true"  # number exchange cancels (~1e-17 sup|C|)
            assert row[7] == "true"  # entropy production nonnegative
        manifest = read_manifest(out)
        assert manifest["checks"]["number_conserved"] is True
        assert manifest["checks"]["entropy_nonnegative"] is True

    def test_dispersion_relation_table(self, tmp_path, monkeypatch):
        sweeps = captured(monkeypatch, "dispersion_relation_sweep")
        code, out = run(
            tmp_path, "dr", "dispersion-relation", *FAST, "--p-count", "4"
        )
        assert code == 0
        _, rows = read_csv(out / "dispersion_relation.csv")
        assert len(rows) == 4
        manifest = read_manifest(out)
        fc = manifest["fitted_constants"]
        assert fc["quad_coef_1"] <= fc["quad_coef_2"]
        assert fc["mu_1"] > 0
        (sweep,) = sweeps
        assert (manifest["checks"]["quadratic_coefficients_match_conductivity"]
                == sweep.quadratic_coefficients_match_conductivity)

    def test_semigroup_bounds_tables(self, tmp_path, monkeypatch):
        sweeps = captured(monkeypatch, "semigroup_bound_sweep")
        code, out = run(tmp_path, "sg", "semigroup-bounds", *FAST)
        assert code == 0
        _, rows = read_csv(out / "semigroup_bounds.csv")
        assert len(rows) == 9  # 3 p-values x 3 times
        _, halving = read_csv(out / "semigroup_halving.csv")
        assert len(halving) == 6  # 2 adjacent p-pairs x 3 times
        fc = read_manifest(out)["fitted_constants"]
        assert fc["p0"] > 0
        assert fc["floor_b"] > 0
        assert fc["rate_c"] > 0
        checks = read_manifest(out)["checks"]
        assert checks["energy_norm_contraction"] is True
        (sweep,) = sweeps
        assert (checks["fast_block_scales_with_p_squared"]
                == sweep.fast_block_scales_with_p_squared)

    def test_evolve_trajectory(self, tmp_path, monkeypatch):
        reports = captured(monkeypatch, "decay_diagnostics")
        code, out = run(
            tmp_path, "ev", "evolve", *FAST,
            "--n-x", "8", "--t-max", "2.0", "--n-times", "4",
        )
        assert code == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header[0] == "t [time]"
        assert len(rows) == 4
        manifest = read_manifest(out)
        assert manifest["fitted_constants"]["t_box"] > 0
        # unit-time fits on a 200-box are outside the diffusive window
        assert manifest["checks"]["fit_window_nonempty"] is False
        (report,) = reports
        assert manifest["checks"]["slow_decay_rate"] == report.slow_decay_rate
        assert manifest["checks"]["fast_decay_rate"] == report.fast_decay_rate

    @pytest.mark.parametrize("dt", ["auto", "0.01"])
    def test_evolve_reports_the_step_it_took(self, tmp_path, monkeypatch, stack8, dt):
        grid, disp, delta = stack8
        calls = []

        def counted(*args):
            calls.append(args)
            return stable_step(*args)

        monkeypatch.setattr(cli, "stable_step", counted)
        monkeypatch.setattr(evolution, "stable_step", counted)
        code, out = run(
            tmp_path, "ev", "evolve", *FAST,
            "--n-x", "8", "--t-max", "0.5", "--n-times", "2", "--dt", dt,
        )
        assert code == 0
        step_dt = read_manifest(out)["fitted_constants"]["step_dt"]
        if dt == "auto":
            model = hydrodynamics.LinearModel(assemble_L(grid, disp, delta), disp)
            assert step_dt == stable_step(model, 8, 200.0)
            assert len(calls) == 1  # the step is computed once
        else:
            assert step_dt == 0.01
            assert calls == []

    def test_hydro_limit_table(self, tmp_path, monkeypatch):
        studies = captured(monkeypatch, "hydro_limit_study")
        code, out = run(
            tmp_path, "hl", "hydro-limit", *FAST,
            "--n-x", "8", "--eps-list", "0.5,0.25",
            "--t-compare", "0.2", "--dt-base", "0.05",
            "--dt-reference", "0.02",
        )
        assert code == 0
        _, rows = read_csv(out / "hydro_limit.csv")
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["0.5", "0.25"]
        assert int(rows[0][3]) == 8  # ceil(0.2 / (0.05 * 0.5))
        (study,) = studies
        assert (read_manifest(out)["checks"]["distance_scales_with_eps"]
                == study.distance_scales_with_eps)

    def test_validate_kernel_table(self, tmp_path):
        code, out = run(
            tmp_path, "vk", "validate-kernel", *FAST,
            "--pairs", "1", "--quad-m", "64", "--refine-tol", "1e-5",
            "--eta-chain", "0.5,0.25",
        )
        assert code == 0
        header, rows = read_csv(out / "kernel_validation.csv")
        assert len(rows) == 1
        assert header[-1] == "pass [bool]"
        assert "error_ratio_1 [-]" in header
        assert float(rows[0][5]) != 0.0  # the exact reduction value

    def test_unconverged_exact_reduction_exits_3(self, tmp_path, monkeypatch):
        # no doubling allowed: the line sums never meet refine_tol
        monkeypatch.setattr(linearized, "MAX_DOUBLINGS", 0)
        code, out = run(
            tmp_path, "vk", "validate-kernel", *FAST,
            "--pairs", "1", "--quad-m", "64", "--eta-chain", "0.5,0.25",
        )
        assert code == 3
        manifest = read_manifest(out)
        assert manifest["status"] == "numerical-failure"
        assert "did not converge" in manifest["diagnostic"]

    def test_numerical_failure_exits_3_with_diagnostic(self, tmp_path):
        code, out = run(
            tmp_path, "boom", "evolve", *FAST,
            "--n-x", "4", "--t-max", "200", "--n-times", "2", "--dt", "200",
        )
        assert code == 3
        manifest = read_manifest(out)
        assert manifest["status"] == "numerical-failure"
        assert "positivity" in manifest["diagnostic"]

    def test_semigroup_bounds_at_a_split_conjugate_pair_exits_3(self, tmp_path):
        # at 10 p0 on this grid the second and third eigenvalues are a
        # conjugate pair: the spectral projector onto the two slowest would
        # take one member only
        code, out = run(tmp_path, "sg", "semigroup-bounds", *FAST,
                        "--p-factors", "0.5,10")
        assert code == 3
        manifest = read_manifest(out)
        assert manifest["status"] == "numerical-failure"
        assert "conjugate pair" in manifest["diagnostic"]


class TestOneLinearModelPerRun:
    """Each linear subcommand assembles L once and diagonalizes it once: one
    `LinearModel`, one `spectrum_L` call and one `SlowBasis` per run.  Only
    the subcommands whose outputs read the conductivity solve for it, once."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum"],
            ["kappa"],
            ["dispersion-relation", "--p-count", "3"],
            ["semigroup-bounds"],
            ["evolve", "--n-x", "8", "--t-max", "0.5", "--n-times", "2"],
            ["hydro-limit", "--n-x", "8", "--eps-list", "0.5,0.25",
             "--t-compare", "0.2", "--dt-base", "0.05", "--dt-reference", "0.02"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_one_spectrum_and_one_model(self, tmp_path, monkeypatch, argv):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for owner in (cli, hydrodynamics):
            monkeypatch.setattr(owner, "spectrum_L",
                                counted("spectrum_L", owner.spectrum_L))
        for cls in (hydrodynamics.LinearModel, hydrodynamics.SlowBasis):
            monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
        monkeypatch.setattr(cli, "compute_kappa",
                            counted("compute_kappa", cli.compute_kappa))
        code, _ = run(tmp_path, "o", argv[0], *FAST, *argv[1:])
        assert code == 0
        kappa_solves = 0 if argv[0] in ("spectrum", "semigroup-bounds",
                                        "hydro-limit") else 1
        # a Counter equals another with the zero counts left out
        assert calls == Counter({"spectrum_L": 1, "LinearModel": 1, "SlowBasis": 1,
                                 "compute_kappa": kappa_solves})


def direct_collision_table(out):
    """collision-check's cells and equilibrium tolerance recomputed with the
    direct O(N^3) evaluator from the run's own manifest config."""
    manifest = read_manifest(out)
    cfg = manifest["config"]
    grid, disp, delta = cli.build_stack(cfg, cli.StageClock())
    op = CollisionOperator(grid, disp, delta)
    rng = np.random.default_rng(int(cfg["seed"]))
    rows = []
    for sample in range(int(cfg["samples"])):
        W = 0.2 + 1.3 * rng.random(grid.size)
        C = op.apply(W)
        sup = float(np.abs(C).max())
        number, energy = op.conservation_residuals(W, C)
        sigma = op.entropy_production(W)
        passes = (abs(number) <= 1e-10 * sup, abs(energy) <= 1e-10 * sup,
                  sigma >= -1e-15)
        rows.append((sample, sup, number, energy, sigma,
                     *("true" if ok else "false" for ok in passes)))
    return rows, op.equilibrium_tolerance(), manifest


class TestCollisionCheckOracle:
    """collision-check runs the FFT evaluator; its table is checked against
    the direct sums here, independently of the benchmark's own check."""

    ARGS = ["collision-check", *FAST, "--samples", "2", "--seed", "3"]

    def test_gaussian_table_matches_the_direct_sums(self, tmp_path):
        code, out = run(tmp_path, "fft", *self.ARGS)
        assert code == 0
        _, rows = read_csv(out / "collision_checks.csv")
        expect, tau, manifest = direct_collision_table(out)
        assert len(rows) == len(expect) == 2
        for row, ref in zip(rows, expect):
            sample, sup, number, energy, sigma = (float(c) for c in row[:5])
            assert sample == ref[0]
            assert abs(sup - ref[1]) <= 1e-12 * ref[1]
            assert abs(number - ref[2]) <= 1e-12 * ref[1]
            assert abs(energy - ref[3]) <= 1e-12 * ref[1]
            assert abs(sigma - ref[4]) <= 1e-12 * ref[4]
            assert tuple(row[5:]) == ref[5:]
        got_tau = manifest["fitted_constants"]["equilibrium_tolerance"]
        assert abs(got_tau - tau) <= 1e-12 * tau

    def test_disagreement_with_the_direct_sum_exits_3(self, tmp_path, monkeypatch):
        fft_apply = FourierCollision.apply
        monkeypatch.setattr(
            FourierCollision, "apply", lambda self, W: (1 + 1e-9) * fft_apply(self, W)
        )
        code, out = run(tmp_path, "off", *self.ARGS)
        assert code == 3
        manifest = read_manifest(out)
        assert manifest["status"] == "numerical-failure"
        assert "direct sum" in manifest["diagnostic"]

    def test_runs_in_three_dimensions(self, tmp_path):
        code, out = run(
            tmp_path, "d3", "collision-check", "--d", "3", "--n", "8",
            "--samples", "2",
        )
        assert code == 0
        _, rows = read_csv(out / "collision_checks.csv")
        assert len(rows) == 2
        checks = read_manifest(out)["checks"]
        assert checks["number_conserved"] is True
        assert checks["entropy_nonnegative"] is True


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["collision-check", *FAST, "--samples", "2", "--seed", "3"]
        code, out = run(tmp_path, "same", *args)
        assert code == 0
        first_csv = (out / "collision_checks.csv").read_bytes()
        first_manifest = read_manifest(out)
        code2 = main(args + ["--outdir", str(out)])
        assert code2 == 0
        assert (out / "collision_checks.csv").read_bytes() == first_csv
        second_manifest = read_manifest(out)
        first_manifest.pop("execution")
        second_manifest.pop("execution")
        assert first_manifest == second_manifest

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        # `workers` threads only collision-check's direct oracle
        base = ["collision-check", *FAST, "--samples", "2"]
        code, out1 = run(tmp_path, "w1", *base, "--workers", "1")
        code2, out2 = run(tmp_path, "w2", *base, "--workers", "3")
        assert code == 0 and code2 == 0
        assert (out1 / "collision_checks.csv").read_bytes() == (
            out2 / "collision_checks.csv"
        ).read_bytes()
        m1, m2 = read_manifest(out1), read_manifest(out2)
        for manifest in (m1, m2):
            manifest.pop("execution")
            manifest["config"].pop("outdir")
        assert m1 == m2

    @pytest.mark.parametrize("command", ["semigroup-bounds",
                                         "dispersion-relation"])
    def test_three_dimensional_mode_runs_repeat_byte_for_byte(self, tmp_path,
                                                              command):
        args = [command, "--d", "3", "--n", "8"]
        code, out1 = run(tmp_path, "a", *args)
        code2, out2 = run(tmp_path, "b", *args)
        assert code == 0 and code2 == 0
        m1, m2 = read_manifest(out1), read_manifest(out2)
        assert m1["artifacts"]
        for name in m1["artifacts"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for manifest in (m1, m2):
            manifest.pop("execution")
            manifest["config"].pop("outdir")
        assert m1 == m2

    def test_seed_changes_sampled_tables(self, tmp_path):
        args = ["collision-check", *FAST, "--samples", "2"]
        _, out1 = run(tmp_path, "sa", *args, "--seed", "1")
        _, out2 = run(tmp_path, "sb", *args, "--seed", "2")
        a = (out1 / "collision_checks.csv").read_bytes()
        b = (out2 / "collision_checks.csv").read_bytes()
        assert a != b

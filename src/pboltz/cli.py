"""Batch front-end: config parsing, run orchestration, report emission.

Commands build the operator stack for one grid, run one scenario, and emit
plot-ready CSV tables plus a single ``manifest.json``.  Config is a flat
``key = value`` file; command-line flags override file values; the
``PBOLTZ_OUTDIR`` environment variable overrides the configured output
directory unless ``--outdir`` is given explicitly.

Exit codes: 0 success, 2 invalid configuration (machine-readable error on
stderr), 3 numerical failure (diagnostic recorded in the manifest).

Determinism: identical config and seed reproduce every CSV byte-for-byte,
for any worker count.  The manifest's ``execution`` section (worker count
and wall-clock seconds per stage) is the only volatile content.
"""

import argparse
import csv
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

from .collision import (
    AUTO_WIDTH_COEF,
    CollisionOperator,
    DeltaKernel,
    FourierCollision,
)
from .dispersion import DispersionField, DispersionParams
from .evolution import (  # count_slow_eigenvalues: bench/tracer.py wraps it here
    ModeOperator,
    count_slow_eigenvalues,
    decay_diagnostics,
    dispersion_relation_sweep,
    evolve_nonlinear,
    find_p0,
    hydro_limit_study,
    semigroup_bound_sweep,
    spectrum_D,
    stable_step,
)
from .hydrodynamics import CollisionResponse, compute_kappa
from .linearized import assemble_L, i1_exact, i1_mollified, spectrum_L
from .torus_grid import TorusGrid

TWO_PI = 2.0 * np.pi

try:
    from importlib.metadata import version as _pkg_version

    ARTIFACT_VERSION = _pkg_version("artifact")
except Exception:  # pragma: no cover - metadata missing in odd installs
    ARTIFACT_VERSION = "unknown"


# ----------------------------------------------------------------------
# configuration

GLOBAL_DEFAULTS = {
    "d": "2",
    "n": "12",
    "r": "1.0",
    "delta_shape": "gaussian",
    "eta": "auto",
    "outdir": "runs",
    "workers": "1",
    "seed": "1",
}

SCENARIO_DEFAULTS = {
    "spectrum": {},
    "kappa": {},
    "collision-check": {"samples": "20"},
    "dispersion-relation": {
        "p_min": "0.02",
        "p_max": "0.1",
        "p_count": "9",
        "axis": "0",
    },
    "semigroup-bounds": {
        "p_factors": "0.25,0.5,1.0",
        "t_factors": "0.3,1.0,3.0",
        "axis": "0",
    },
    "evolve": {
        "n_x": "32",
        "box_length": "200.0",
        "t_max": "30.0",
        "n_times": "16",
        "ripple": "0.01",
        "dt": "auto",
        "t_min": "10.0",
        "contamination": "0.1",
    },
    "hydro-limit": {
        "n_x": "16",
        "box_length": "200.0",
        "eps_list": "0.4,0.2,0.1,0.05",
        "t_compare": "1.0",
        "dt_base": "0.02",
        "dt_reference": "0.001",
        "tau_amplitude": "0.001",
    },
    "validate-kernel": {
        "pairs": "10",
        "quad_m": "1024",
        "refine_tol": "1e-8",
        "eta_chain": "0.25,0.125,0.0625",
        "min_sin": "0.3",
    },
}


def parse_config_file(path):
    """Flat ``key = value`` lines; blank lines and '#' comments ignored."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _to_int(cfg, key, minimum=None):
    try:
        value = int(cfg[key])
    except ValueError:
        raise ValueError(f"config key {key!r}: not an integer: {cfg[key]!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"config key {key!r}: must be >= {minimum}")
    return value


def _to_float(cfg, key, positive=False):
    try:
        value = float(cfg[key])
    except ValueError:
        raise ValueError(f"config key {key!r}: not a number: {cfg[key]!r}")
    if not np.isfinite(value):
        raise ValueError(f"config key {key!r}: not finite: {cfg[key]!r}")
    if positive and not value > 0:
        raise ValueError(f"config key {key!r}: must be positive")
    return value


def _to_float_list(cfg, key, positive=False):
    try:
        values = [float(tok) for tok in cfg[key].split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"config key {key!r}: not a comma list: {cfg[key]!r}")
    if not values:
        raise ValueError(f"config key {key!r}: empty list")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"config key {key!r}: entries must be finite")
    if positive and any(v <= 0 for v in values):
        raise ValueError(f"config key {key!r}: entries must be positive")
    return values


def resolve_config(command, args):
    """Merge defaults < config file < environment < explicit flags.

    Returns the merged string-valued config (echoed verbatim into the
    manifest).  Raises ValueError on unknown keys or malformed values.
    """
    allowed = dict(GLOBAL_DEFAULTS)
    allowed.update(SCENARIO_DEFAULTS[command])
    cfg = dict(allowed)

    if args.config is not None:
        file_cfg = parse_config_file(args.config)
        unknown = sorted(set(file_cfg) - set(allowed))
        if unknown:
            raise ValueError(
                f"unknown config keys for {command!r}: {', '.join(unknown)}"
            )
        cfg.update(file_cfg)

    env_outdir = os.environ.get("PBOLTZ_OUTDIR")
    if env_outdir:
        cfg["outdir"] = env_outdir

    for key in allowed:
        flag_value = getattr(args, key.replace("-", "_"), None)
        if flag_value is not None:
            cfg[key] = flag_value

    validate_config(command, cfg)
    return cfg


def validate_config(command, cfg):
    """Check every module precondition reachable from the config, before
    any heavy compute."""
    if _to_int(cfg, "d") not in (2, 3):
        raise ValueError("config key 'd': must be 2 or 3")
    if _to_int(cfg, "n", minimum=8) % 2:
        raise ValueError("config key 'n': must be even")
    _to_float(cfg, "r", positive=True)
    if cfg["delta_shape"] not in ("gaussian", "triangular"):
        raise ValueError(f"config key 'delta_shape': {cfg['delta_shape']!r}")
    if cfg["eta"] != "auto":
        _to_float(cfg, "eta", positive=True)
    _to_int(cfg, "workers", minimum=1)
    _to_int(cfg, "seed", minimum=0)

    d = int(cfg["d"])
    if command in ("evolve", "hydro-limit") and cfg["delta_shape"] != "gaussian":
        raise ValueError(
            f"config key 'delta_shape': {command} runs the FFT collision "
            f"evaluator, which needs the gaussian kernel"
        )
    if command == "validate-kernel" and d != 2:
        raise ValueError(
            "config key 'd': validate-kernel's exact-shell reduction is d = 2 only"
        )
    if command == "collision-check":
        _to_int(cfg, "samples", minimum=1)
    elif command == "dispersion-relation":
        lo = _to_float(cfg, "p_min", positive=True)
        hi = _to_float(cfg, "p_max", positive=True)
        if not lo < hi:
            raise ValueError("config: p_min must be below p_max")
        _to_int(cfg, "p_count", minimum=2)
        if not 0 <= _to_int(cfg, "axis", minimum=0) < d:
            raise ValueError("config key 'axis': out of range for the grid")
    elif command == "semigroup-bounds":
        _to_float_list(cfg, "p_factors", positive=True)
        _to_float_list(cfg, "t_factors", positive=True)
        if not 0 <= _to_int(cfg, "axis", minimum=0) < d:
            raise ValueError("config key 'axis': out of range for the grid")
    elif command == "evolve":
        _to_int(cfg, "n_x", minimum=2)
        _to_float(cfg, "box_length", positive=True)
        _to_float(cfg, "t_max", positive=True)
        _to_int(cfg, "n_times", minimum=2)
        _to_float(cfg, "ripple")
        if abs(float(cfg["ripple"])) >= 1.0:
            raise ValueError("config key 'ripple': |amplitude| must be < 1")
        if cfg["dt"] != "auto":
            _to_float(cfg, "dt", positive=True)
        _to_float(cfg, "t_min", positive=True)
        contamination = _to_float(cfg, "contamination", positive=True)
        if contamination >= 1.0:
            raise ValueError("config key 'contamination': must be < 1")
    elif command == "hydro-limit":
        _to_int(cfg, "n_x", minimum=2)
        _to_float(cfg, "box_length", positive=True)
        _to_float_list(cfg, "eps_list", positive=True)
        _to_float(cfg, "t_compare", positive=True)
        _to_float(cfg, "dt_base", positive=True)
        _to_float(cfg, "dt_reference", positive=True)
        _to_float(cfg, "tau_amplitude")
    elif command == "validate-kernel":
        _to_int(cfg, "pairs", minimum=1)
        _to_int(cfg, "quad_m", minimum=8)
        _to_float(cfg, "refine_tol", positive=True)
        _to_float_list(cfg, "eta_chain", positive=True)
        sin_floor = _to_float(cfg, "min_sin", positive=True)
        if sin_floor >= 1.0:
            raise ValueError("config key 'min_sin': must be < 1")


# ----------------------------------------------------------------------
# report emission


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, header, rows):
    """RFC-4180-style CSV: UTF-8, CRLF, mandatory header, 17 significant
    digits on every float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


class StageClock:
    """Wall-clock seconds per named stage (volatile output)."""

    def __init__(self):
        self.seconds = {}

    @contextmanager
    def stage(self, name):
        start = time.perf_counter()
        yield
        self.seconds[name] = time.perf_counter() - start


# ----------------------------------------------------------------------
# shared stack construction


def build_stack(cfg, clock):
    d = int(cfg["d"])
    n = int(cfg["n"])
    with clock.stage("grid"):
        grid = TorusGrid(d, n)
        disp = DispersionField(grid, DispersionParams(d, float(cfg["r"])))
    if cfg["eta"] == "auto":
        width = AUTO_WIDTH_COEF * disp.max_grad * np.sqrt(n)
    else:
        width = float(cfg["eta"])
    delta = DeltaKernel(cfg["delta_shape"], width)
    return grid, disp, delta


def build_linear(cfg, clock):
    grid, disp, delta = build_stack(cfg, clock)
    with clock.stage("assemble_linearized"):
        L = assemble_L(grid, disp, delta, workers=int(cfg["workers"]))
    with clock.stage("spectrum"):
        summary = spectrum_L(L, disp)
    return grid, disp, delta, L, summary


def _axis_direction(d, axis):
    e = np.zeros(d)
    e[axis] = 1.0
    return e


# ----------------------------------------------------------------------
# subcommands


def cmd_spectrum(cfg, out, manifest, clock):
    _, disp, delta, L, summary = build_linear(cfg, clock)
    rows = [(i, lam) for i, lam in enumerate(summary.eigenvalues)]
    write_csv(
        out / "eigenvalues.csv",
        ["index [-]", "eigenvalue [1/time]"],
        rows,
    )
    res1, res2 = summary.zero_mode_residuals
    write_csv(
        out / "spectrum_summary.csv",
        [
            "gap_a [1/time]",
            "zero_mode_residual_winv [relative]",
            "zero_mode_residual_winv2 [relative]",
        ],
        [(summary.gap, res1, res2)],
    )
    manifest["delta"]["eta"] = delta.width
    manifest["fitted_constants"] = {
        "gap_a": summary.gap,
        "zero_mode_residual_winv": res1,
        "zero_mode_residual_winv2": res2,
    }
    manifest["checks"] = {
        "gap_positive": summary.gap > 0.0,
        "exact_null_mode": res2 < 1e-12,
        "near_null_mode": res1 < 1e-4,
    }
    return ["eigenvalues.csv", "spectrum_summary.csv"]


def cmd_kappa(cfg, out, manifest, clock):
    _, disp, delta, L, summary = build_linear(cfg, clock)
    with clock.stage("conductivity"):
        kappa = compute_kappa(L, disp, summary)
    payload = {
        "kappa_op": kappa.kappa_op,
        "kappa_ab": kappa.kappa_ab,
        "mu": kappa.mu,
        "axis": kappa.axis,
        "solve_residual": kappa.solve_residual,
        "cross_direction_sup": kappa.cross_direction_sup,
    }
    write_json(out / "kappa.json", payload)
    mu = np.sort(np.asarray(kappa.mu))
    manifest["delta"]["eta"] = delta.width
    manifest["fitted_constants"] = {
        "mu_1": float(mu[0]),
        "mu_2": float(mu[1]),
        "solve_residual": kappa.solve_residual,
    }
    manifest["checks"] = {
        "positive_definite": bool(mu[0] > 0.0),
        "axis_isotropy": bool(
            kappa.cross_direction_sup < 1e-6 * np.abs(kappa.kappa_op).max()
        ),
    }
    return ["kappa.json"]


def cmd_collision_check(cfg, out, manifest, clock):
    grid, disp, delta = build_stack(cfg, clock)
    with clock.stage("collision_tables"):
        op = CollisionOperator(grid, disp, delta, workers=int(cfg["workers"]))
        rng = np.random.default_rng(int(cfg["seed"]))
        rows = []
        all_number = all_energy = all_entropy = True
        for sample in range(int(cfg["samples"])):
            W = 0.2 + 1.3 * rng.random(grid.size)
            C = op.apply(W)
            sup = float(np.abs(C).max())
            r_number, r_energy = op.conservation_residuals(W, C)
            sigma = op.entropy_production(W)
            ok_number = abs(r_number) <= 1e-10 * sup
            ok_energy = abs(r_energy) <= 1e-10 * sup
            ok_entropy = sigma >= -1e-15
            all_number &= ok_number
            all_energy &= ok_energy
            all_entropy &= ok_entropy
            rows.append(
                (
                    sample,
                    sup,
                    r_number,
                    r_energy,
                    sigma,
                    ok_number,
                    ok_energy,
                    ok_entropy,
                )
            )
    write_csv(
        out / "collision_checks.csv",
        [
            "sample [-]",
            "sup_norm_C [1/time]",
            "number_exchange [1/time]",
            "energy_exchange [1/time]",
            "entropy_production [1/time]",
            "pass_number [bool]",
            "pass_energy [bool]",
            "pass_entropy [bool]",
        ],
        rows,
    )
    manifest["delta"]["eta"] = delta.width
    manifest["fitted_constants"] = {
        "equilibrium_tolerance": op.equilibrium_tolerance()
    }
    manifest["checks"] = {
        "number_conserved": bool(all_number),
        "energy_conserved": bool(all_energy),
        "entropy_nonnegative": bool(all_entropy),
    }
    return ["collision_checks.csv"]


def cmd_dispersion_relation(cfg, out, manifest, clock):
    _, disp, delta, L, summary = build_linear(cfg, clock)
    with clock.stage("conductivity"):
        kappa = compute_kappa(L, disp, summary)
    axis = int(cfg["axis"])
    p_values = np.linspace(
        float(cfg["p_min"]), float(cfg["p_max"]), int(cfg["p_count"])
    )
    with clock.stage("eigenvalue_sweep"):
        sweep = dispersion_relation_sweep(
            L, disp, kappa, p_values,
            direction=_axis_direction(disp.grid.d, axis),
        )
    rows = [
        (p, l1.real, l1.imag, l2.real, l2.imag)
        for p, l1, l2 in zip(sweep.p_values, sweep.lam1, sweep.lam2)
    ]
    write_csv(
        out / "dispersion_relation.csv",
        [
            "p [1/length]",
            "re_lambda_1 [1/time]",
            "im_lambda_1 [1/time]",
            "re_lambda_2 [1/time]",
            "im_lambda_2 [1/time]",
        ],
        rows,
    )
    manifest["delta"]["eta"] = delta.width
    manifest["fitted_constants"] = {
        "quad_coef_1": float(sweep.quad_coef[0]),
        "quad_coef_2": float(sweep.quad_coef[1]),
        "mu_1": float(sweep.mu[0]),
        "mu_2": float(sweep.mu[1]),
        "rel_err_1": float(sweep.rel_err[0]),
        "rel_err_2": float(sweep.rel_err[1]),
    }
    manifest["checks"] = {
        "quadratic_coefficients_match_conductivity": bool(
            np.all(sweep.rel_err <= 0.05)
        ),
    }
    return ["dispersion_relation.csv"]


def cmd_semigroup_bounds(cfg, out, manifest, clock):
    _, disp, delta, L, summary = build_linear(cfg, clock)
    with clock.stage("conductivity"):
        kappa = compute_kappa(L, disp, summary)
    axis = int(cfg["axis"])
    direction = _axis_direction(disp.grid.d, axis)
    with clock.stage("two_mode_boundary"):
        p0 = find_p0(L, disp, summary.gap, direction=direction)
        floor_mode = ModeOperator.build(L, disp, 2.0 * p0 * direction)
        floor = spectrum_D(floor_mode).eigenvalues.real
        b = float(floor.min())
        n_slow = int(np.count_nonzero(floor < 0.5 * summary.gap))
    p_factors = np.array([float(v) for v in cfg["p_factors"].split(",")])
    t_factors = np.array([float(v) for v in cfg["t_factors"].split(",")])
    p_values = p_factors * p0
    t_values = t_factors / summary.gap
    with clock.stage("norm_sweep"):
        sweep = semigroup_bound_sweep(
            L, disp, summary, kappa, p_values, t_values, direction=direction
        )
    rows = []
    for i, p in enumerate(sweep.p_values):
        for j, t in enumerate(sweep.t_values):
            rows.append(
                (
                    p,
                    t,
                    sweep.full_norm[i, j],
                    sweep.full_norm_sup[i, j],
                    sweep.pq_norm[i, j],
                    sweep.qp_norm[i, j],
                    sweep.qq_norm[i, j],
                    sweep.qq_deflated_norm[i, j],
                    sweep.qtilde_norm[i, j],
                )
            )
    write_csv(
        out / "semigroup_bounds.csv",
        [
            "p [1/length]",
            "t [time]",
            "full_norm [-]",
            "full_norm_sup [-]",
            "pq_norm [-]",
            "qp_norm [-]",
            "qq_norm [-]",
            "qq_deflated_norm [-]",
            "qtilde_norm [-]",
        ],
        rows,
    )
    halving_rows = []
    for i in range(sweep.qq_halving_ratios.shape[0]):
        for j, t in enumerate(sweep.t_values):
            halving_rows.append(
                (sweep.p_values[i], sweep.p_values[i + 1], t,
                 sweep.qq_halving_ratios[i, j])
            )
    write_csv(
        out / "semigroup_halving.csv",
        [
            "p_low [1/length]",
            "p_high [1/length]",
            "t [time]",
            "qq_ratio_per_p_squared [-]",
        ],
        halving_rows,
    )
    ratios = sweep.qq_halving_ratios
    manifest["delta"]["eta"] = delta.width
    manifest["fitted_constants"] = {
        "gap_a": summary.gap,
        "p0": p0,
        "floor_b": b,
        "rate_c": sweep.c_hat,
        "prefactor_C_pq": float(sweep.bound_ratio_pq.max()),
        "prefactor_C_full": float(sweep.bound_ratio_full.max()),
    }
    manifest["checks"] = {
        "two_slow_modes_at_p0": bool(n_slow < 2),
        "positive_floor_beyond_p0": bool(b > 0.0),
        "energy_norm_contraction": bool(
            np.all(sweep.full_norm <= 1.0 + 1e-10)
        ),
        "fast_block_scales_with_p_squared": bool(
            ratios.size > 0 and np.all((0.7 <= ratios) & (ratios <= 1.3))
        ),
    }
    return ["semigroup_bounds.csv", "semigroup_halving.csv"]


def cmd_evolve(cfg, out, manifest, clock):
    grid, disp, delta, L, summary = build_linear(cfg, clock)
    with clock.stage("conductivity"):
        kappa = compute_kappa(L, disp, summary)
    n_x = int(cfg["n_x"])
    box = float(cfg["box_length"])
    times = np.linspace(0.0, float(cfg["t_max"]), int(cfg["n_times"]))
    x = np.arange(n_x) / n_x
    ripple = float(cfg["ripple"]) * np.sin(TWO_PI * x)
    W0 = disp.winv[None, :] * (1.0 + ripple[:, None])
    dt = None if cfg["dt"] == "auto" else float(cfg["dt"])
    with clock.stage("integrate"):
        evaluator = FourierCollision(grid, disp, delta)
        traj = evolve_nonlinear(evaluator, L, disp, W0, times, box, dt=dt)
    with clock.stage("decay_report"):
        report = decay_diagnostics(
            traj,
            disp,
            summary,
            kappa,
            t_min=float(cfg["t_min"]),
            contamination=float(cfg["contamination"]),
        )
    diag = traj.diagnostics
    rows = [
        (
            t,
            report.norm_T[j],
            report.norm_v[j],
            diag["T_sup"][j, 0],
            diag["T_sup"][j, 1],
            diag["conservation_sup"][j, 0],
            diag["conservation_sup"][j, 1],
            diag["current_sup"][j],
        )
        for j, t in enumerate(traj.times)
    ]
    write_csv(
        out / "trajectory.csv",
        [
            "t [time]",
            "slow_deviation_norm [-]",
            "fast_deviation_norm [-]",
            "T1_sup [-]",
            "T2_sup [-]",
            "number_exchange_sup [1/time]",
            "energy_exchange_sup [1/time]",
            "current_sup [1/time]",
        ],
        rows,
    )
    manifest["delta"]["eta"] = delta.width
    manifest["fitted_constants"] = {
        "t_box": report.t_box,
        "slope_T": report.slope_T,
        "slope_v": report.slope_v,
        "step_dt": dt if dt is not None else stable_step(L, disp, n_x, box),
    }
    manifest["checks"] = {
        "fit_window_nonempty": bool(not report.window_empty),
        "slow_decay_rate": bool(
            not report.window_empty and abs(report.slope_T + 1.0) <= 0.15
        ),
        "fast_decay_rate": bool(
            not report.window_empty and abs(report.slope_v + 1.5) <= 0.15
        ),
    }
    return ["trajectory.csv"]


def cmd_hydro_limit(cfg, out, manifest, clock):
    grid, disp, delta, L, summary = build_linear(cfg, clock)
    with clock.stage("conductivity"):
        kappa = compute_kappa(L, disp, summary)
    with clock.stage("response_solver"):
        evaluator = FourierCollision(grid, disp, delta)
        response = CollisionResponse(evaluator, L, disp, summary)
    n_x = int(cfg["n_x"])
    x = np.arange(n_x) / n_x
    tau0 = np.zeros((n_x, 2))
    tau0[:, 0] = float(cfg["tau_amplitude"]) * np.sin(TWO_PI * x)
    v0 = np.zeros((n_x, grid.size))
    with clock.stage("scaling_study"):
        study = hydro_limit_study(
            evaluator,
            L,
            disp,
            summary,
            response,
            kappa,
            tau0,
            v0,
            float(cfg["box_length"]),
            eps_list=tuple(float(v) for v in cfg["eps_list"].split(",")),
            t_compare=float(cfg["t_compare"]),
            dt_base=float(cfg["dt_base"]),
            dt_reference=float(cfg["dt_reference"]),
        )
    rows = [
        (row.eps, row.distance_T, row.distance_v, row.n_steps,
         row.newton_iterations)
        for row in study.rows
    ]
    write_csv(
        out / "hydro_limit.csv",
        [
            "eps [-]",
            "distance_T [-]",
            "distance_v [-]",
            "n_steps [-]",
            "newton_iterations [-]",
        ],
        rows,
    )
    manifest["delta"]["eta"] = delta.width
    manifest["fitted_constants"] = {
        "t_compare": study.t_compare,
        "final_vs_first": study.final_vs_first,
    }
    manifest["checks"] = {
        "distances_shrink_monotonically": bool(study.monotone),
        "distance_scales_with_eps": bool(
            study.monotone and study.final_vs_first <= 0.5
        ),
    }
    return ["hydro_limit.csv"]


def cmd_validate_kernel(cfg, out, manifest, clock):
    grid, disp, delta = build_stack(cfg, clock)
    params = DispersionParams(grid.d, float(cfg["r"]))
    rng = np.random.default_rng(int(cfg["seed"]))
    chain = [float(v) for v in cfg["eta_chain"].split(",")]
    sin_floor = float(cfg["min_sin"])
    rows = []
    all_pass = True
    with clock.stage("quadrature_cross_check"):
        accepted = 0
        while accepted < int(cfg["pairs"]):
            k = -np.pi + TWO_PI * rng.random(2)
            kp = -np.pi + TWO_PI * rng.random(2)
            if not np.all(np.abs(np.sin((k - kp) / 2.0)) > sin_floor):
                continue
            exact = i1_exact(
                k,
                kp,
                params,
                m=int(cfg["quad_m"]),
                refine_tol=float(cfg["refine_tol"]),
                max_doublings=4,
            )
            errors = []
            for eta in chain:
                approx = i1_mollified(
                    k, kp, params, DeltaKernel(cfg["delta_shape"], eta)
                )
                errors.append(abs(approx - exact))
            ratios = [
                errors[i] / errors[i + 1] if errors[i + 1] > 0 else np.inf
                for i in range(len(errors) - 1)
            ]
            # halving the width should divide the error by ~4 (second-order
            # mollification); accept a generous band around that
            ok = all(2.0 <= ratio <= 8.0 for ratio in ratios)
            all_pass &= ok
            rows.append(
                (accepted, k[0], k[1], kp[0], kp[1], exact)
                + tuple(errors)
                + tuple(ratios)
                + (ok,)
            )
            accepted += 1
    header = (
        ["pair [-]", "k_1 [1/length]", "k_2 [1/length]",
         "kp_1 [1/length]", "kp_2 [1/length]", "exact_reduction [-]"]
        + [f"error_eta_{eta:g} [-]" for eta in chain]
        + [f"error_ratio_{i + 1} [-]" for i in range(len(chain) - 1)]
        + ["pass [bool]"]
    )
    write_csv(out / "kernel_validation.csv", header, rows)
    ratio_cols = np.array(
        [row[6 + len(chain):6 + 2 * len(chain) - 1] for row in rows], dtype=float
    )
    manifest["delta"]["eta"] = delta.width
    manifest["fitted_constants"] = {
        "mean_error_ratio": float(ratio_cols.mean()) if ratio_cols.size else 0.0,
    }
    manifest["checks"] = {"width_refinement_second_order": bool(all_pass)}
    return ["kernel_validation.csv"]


COMMANDS = {
    "spectrum": cmd_spectrum,
    "kappa": cmd_kappa,
    "collision-check": cmd_collision_check,
    "dispersion-relation": cmd_dispersion_relation,
    "semigroup-bounds": cmd_semigroup_bounds,
    "evolve": cmd_evolve,
    "hydro-limit": cmd_hydro_limit,
    "validate-kernel": cmd_validate_kernel,
}


# ----------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pboltz",
        description="Phonon collision laboratory: batch scenarios and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="flat key = value config file")
        keys = dict(GLOBAL_DEFAULTS)
        keys.update(SCENARIO_DEFAULTS[command])
        for key in keys:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        cfg = resolve_config(command, args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"kind": "config", "error": str(exc)}), file=sys.stderr)
        return 2

    out = Path(cfg["outdir"])
    out.mkdir(parents=True, exist_ok=True)
    clock = StageClock()
    config_echo = {k: v for k, v in cfg.items() if k != "workers"}
    manifest = {
        "command": command,
        "status": "ok",
        "config": config_echo,
        "grid": {"d": int(cfg["d"]), "n": int(cfg["n"]),
                 "size": int(cfg["n"]) ** int(cfg["d"])},
        "dispersion": {"r": float(cfg["r"])},
        "delta": {"shape": cfg["delta_shape"], "eta": cfg["eta"]},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "artifact": ARTIFACT_VERSION,
        },
        "fitted_constants": {},
        "checks": {},
        "artifacts": [],
    }
    try:
        manifest["artifacts"] = COMMANDS[command](cfg, out, manifest, clock)
    except (ValueError,) as exc:
        print(json.dumps({"kind": "config", "error": str(exc)}), file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        manifest["status"] = "numerical-failure"
        manifest["diagnostic"] = str(exc)
        manifest["execution"] = {
            "workers": int(cfg["workers"]),
            "wall_clock_s": clock.seconds,
        }
        write_json(out / "manifest.json", manifest)
        return 3
    manifest["execution"] = {
        "workers": int(cfg["workers"]),
        "wall_clock_s": clock.seconds,
    }
    write_json(out / "manifest.json", manifest)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

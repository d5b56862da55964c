"""Batch front-end: config schema, run orchestration, report emission.

Commands build the operator stack for one grid, run one scenario, and emit
plot-ready CSV tables plus a single ``manifest.json``.  Config is a flat
``key = value`` file; command-line flags override file values; the
``PBOLTZ_OUTDIR`` environment variable overrides the configured output
directory unless ``--outdir`` is given explicitly.

Every key is declared once, in ``SCHEMA`` (kind, bounds, and the
subcommands that take it with their defaults), and the few cross-key rules
in ``RULES``.  The flags come from that table, and `resolve_config` parses
each value once into the typed values the commands read.  A malformed,
non-finite or out-of-range value, an empty entry in a comma list (``0.5,``
or ``0.4,,0.2``) and a broken cross-key rule are all rejected before the
output directory is made.

Exit codes: 0 success, 2 invalid configuration (machine-readable error on
stderr, nothing written), 3 numerical failure (diagnostic recorded in the
manifest).

Determinism: identical config and seed reproduce every CSV byte-for-byte,
for any worker count.  The manifest's ``execution`` section (worker count
and wall-clock seconds per stage) is the only volatile content.
"""

import argparse
import csv
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

from .collision import CollisionOperator, DeltaKernel, FourierCollision
from .dispersion import DispersionField, DispersionParams
from .evolution import (  # count_slow_eigenvalues: bench/tracer.py wraps it here
    ModeFamily,
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
from .hydrodynamics import TWO_PI, CollisionResponse, LinearModel, compute_kappa
from .linearized import WIDTH_HALVING_MIN_RATIO, assemble_L, i1_exact, i1_mollified
from .linearized import spectrum_L  # bench/tracer.py wraps it here
from .torus_grid import TorusGrid

try:
    from importlib.metadata import version as _pkg_version

    ARTIFACT_VERSION = _pkg_version("artifact")
except Exception:  # pragma: no cover - metadata missing in odd installs
    ARTIFACT_VERSION = "unknown"


# ----------------------------------------------------------------------
# configuration

INF = np.inf
POSITIVE = (0.0, INF)

# One entry per key: (kind, bounds, default).  Kinds: "int", "real",
# "real|auto" ("auto" reads as None), "reals" (a comma list, every entry
# checked), "text", or a tuple of allowed words.  Integer bounds are
# inclusive, real bounds exclusive, so nan and +-inf fail every real bound.
# A string default means every subcommand takes the key; a dict names the
# subcommands that take it, each with its default.
SCHEMA = {
    "d": ("int", (2, 3), "2"),
    "n": ("int", (8, INF), "12"),
    "r": ("real", POSITIVE, "1.0"),
    "delta_shape": (("gaussian",), None, "gaussian"),
    "eta": ("real|auto", POSITIVE, "auto"),
    "outdir": ("text", None, "runs"),
    "workers": ("int", (1, INF), "1"),
    "seed": ("int", (0, INF), "1"),
    "samples": ("int", (1, INF), {"collision-check": "20"}),
    "p_min": ("real", POSITIVE, {"dispersion-relation": "0.02"}),
    "p_max": ("real", POSITIVE, {"dispersion-relation": "0.1"}),
    "p_count": ("int", (2, INF), {"dispersion-relation": "9"}),
    "p_factors": ("reals", POSITIVE, {"semigroup-bounds": "0.25,0.5,1.0"}),
    "t_factors": ("reals", POSITIVE, {"semigroup-bounds": "0.3,1.0,3.0"}),
    "axis": ("int", (0, INF), {"dispersion-relation": "0", "semigroup-bounds": "0"}),
    "n_x": ("int", (2, INF), {"evolve": "32", "hydro-limit": "16"}),
    "box_length": ("real", POSITIVE, {"evolve": "200.0", "hydro-limit": "200.0"}),
    "t_max": ("real", POSITIVE, {"evolve": "30.0"}),
    "n_times": ("int", (2, INF), {"evolve": "16"}),
    "ripple": ("real", (-1.0, 1.0), {"evolve": "0.01"}),
    "dt": ("real|auto", POSITIVE, {"evolve": "auto"}),
    "t_min": ("real", POSITIVE, {"evolve": "10.0"}),
    "contamination": ("real", (0.0, 1.0), {"evolve": "0.1"}),
    "eps_list": ("reals", POSITIVE, {"hydro-limit": "0.4,0.2,0.1,0.05"}),
    "t_compare": ("real", POSITIVE, {"hydro-limit": "1.0"}),
    "dt_base": ("real", POSITIVE, {"hydro-limit": "0.02"}),
    "dt_reference": ("real", POSITIVE, {"hydro-limit": "0.001"}),
    "tau_amplitude": ("real", (-INF, INF), {"hydro-limit": "0.001"}),
    "pairs": ("int", (1, INF), {"validate-kernel": "10"}),
    "quad_m": ("int", (8, INF), {"validate-kernel": "1024"}),
    "refine_tol": ("real", POSITIVE, {"validate-kernel": "1e-8"}),
    "eta_chain": ("reals", POSITIVE, {"validate-kernel": "0.25,0.125,0.0625"}),
    "min_sin": ("real", (0.0, 1.0), {"validate-kernel": "0.3"}),
}

# Cross-key rules: (subcommands, or None for every one; rule; message).
RULES = (
    (None, lambda v: v.n % 2 == 0, "config key 'n': must be even"),
    (("dispersion-relation",), lambda v: v.p_min < v.p_max,
     "config: p_min must be below p_max"),
    (("dispersion-relation", "semigroup-bounds"), lambda v: v.axis < v.d,
     "config key 'axis': out of range for the grid"),
    (("validate-kernel",), lambda v: v.d == 2,
     "config key 'd': validate-kernel's exact-shell reduction is d = 2 only"),
    (("semigroup-bounds",), lambda v: len(set(v.t_factors)) >= 2,
     "config key 't_factors': the rate fit needs two distinct times"),
    (("semigroup-bounds",), lambda v: len(set(v.p_factors)) == len(v.p_factors),
     "config key 'p_factors': a repeated value makes a halving ratio of 1 "
     "by construction"),
    (("validate-kernel",), lambda v: len(v.eta_chain) >= 2,
     "config key 'eta_chain': the error ratio needs at least two widths"),
)


def command_defaults(command):
    """The keys a subcommand takes, with their default strings."""
    return {
        key: default if isinstance(default, str) else default[command]
        for key, (_, _, default) in SCHEMA.items()
        if isinstance(default, str) or command in default
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


def _number(key, text, kind, bounds):
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"config key {key!r}: not {what}: {text!r}") from None
    lo, hi = bounds
    if kind is int and not lo <= value <= hi:
        raise ValueError(f"config key {key!r}: {text!r} not in [{lo:g}, {hi:g}]")
    if kind is float and not lo < value < hi:
        raise ValueError(f"config key {key!r}: {text!r} not in ({lo:g}, {hi:g})")
    return value


def _parse_value(key, text):
    """The typed value of one config string; ValueError when it is invalid."""
    kind, bounds, _ = SCHEMA[key]
    if kind == "text":
        return text
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"config key {key!r}: {text!r} is not one of {kind}")
        return text
    if kind == "real|auto" and text == "auto":
        return None
    if kind == "reals":
        return tuple(_number(key, tok, float, bounds) for tok in text.split(","))
    return _number(key, text, int if kind == "int" else float, bounds)


def parse_config(command, text):
    """Parse every key of a string config once and check the cross-key rules
    (only the rules for every subcommand when ``command`` is None).

    Returns an ``argparse.Namespace`` of the typed values; raises ValueError.
    """
    values = argparse.Namespace(**{k: _parse_value(k, v) for k, v in text.items()})
    for commands, rule, message in RULES:
        if (commands is None or command in commands) and not rule(values):
            raise ValueError(message)
    return values


def resolve_config(command, args):
    """Merge defaults < config file < environment < explicit flags, then
    parse and check each key once (`parse_config`).

    Returns ``(text, values)``: the merged string config, echoed verbatim
    into the manifest, and its typed values.  Raises ValueError on unknown
    keys, malformed or out-of-range values and broken cross-key rules.
    """
    text = command_defaults(command)

    if args.config is not None:
        file_cfg = parse_config_file(args.config)
        unknown = sorted(set(file_cfg) - set(text))
        if unknown:
            raise ValueError(
                f"unknown config keys for {command!r}: {', '.join(unknown)}"
            )
        text.update(file_cfg)

    env_outdir = os.environ.get("PBOLTZ_OUTDIR")
    if env_outdir:
        text["outdir"] = env_outdir

    for key in text:
        flag_value = getattr(args, key)
        if flag_value is not None:
            text[key] = flag_value

    return text, parse_config(command, text)


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
    """Grid, dispersion and kernel.  ``cfg`` holds the typed values from
    `resolve_config`, or is a string config as echoed in a manifest."""
    if isinstance(cfg, dict):
        cfg = parse_config(None, cfg)
    with clock.stage("grid"):
        grid = TorusGrid(cfg.d, cfg.n)
        disp = DispersionField(grid, DispersionParams(cfg.d, cfg.r))
    width = DeltaKernel.auto(grid, disp).width if cfg.eta is None else cfg.eta
    return grid, disp, DeltaKernel(width)


def build_linear(cfg, stack, clock):
    """The run's one `LinearModel`: L assembled once and diagonalized once."""
    grid, disp, delta = stack
    with clock.stage("assemble_linearized"):
        L = assemble_L(grid, disp, delta)
    with clock.stage("spectrum"):
        return LinearModel(L, disp)


# ----------------------------------------------------------------------
# subcommands
#
# Each takes (cfg, stack, out, clock), writes its tables into ``out`` and
# returns (artifact names, fitted constants, checks) for the manifest.


def cmd_spectrum(cfg, stack, out, clock):
    summary = build_linear(cfg, stack, clock).summary
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
    fitted = {
        "gap_a": summary.gap,
        "zero_mode_residual_winv": res1,
        "zero_mode_residual_winv2": res2,
    }
    checks = {
        "gap_positive": summary.gap > 0.0,
        "exact_null_mode": res2 < 1e-12,
        "near_null_mode": res1 < 1e-4,
    }
    return ["eigenvalues.csv", "spectrum_summary.csv"], fitted, checks


def cmd_kappa(cfg, stack, out, clock):
    model = build_linear(cfg, stack, clock)
    with clock.stage("conductivity"):
        kappa = compute_kappa(model)
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
    fitted = {
        "mu_1": float(mu[0]),
        "mu_2": float(mu[1]),
        "solve_residual": kappa.solve_residual,
    }
    checks = {
        "positive_definite": bool(mu[0] > 0.0),
        "axis_isotropy": bool(
            kappa.cross_direction_sup < 1e-6 * np.abs(kappa.kappa_op).max()
        ),
    }
    return ["kappa.json"], fitted, checks


# agreement collision-check demands of the FFT evaluator with the direct sum,
# relative to sup|C| (observed: <= 3e-13, largest at n = 8)
DIRECT_ORACLE_RTOL = 1e-10


def cmd_collision_check(cfg, stack, out, clock):
    grid, disp, delta = stack
    rng = np.random.default_rng(cfg.seed)
    states = [0.2 + 1.3 * rng.random(grid.size) for _ in range(cfg.samples)]
    # the FFT evaluator is trusted only where it reproduces one direct O(N^3)
    # evaluation, that of the first sample; `workers` reaches only this one
    direct = CollisionOperator(grid, disp, delta, workers=cfg.workers)
    with clock.stage("direct_oracle"):
        reference = direct.apply(states[0])
    op = FourierCollision(grid, disp, delta)
    with clock.stage("collision_tables"):
        rows = []
        all_number = all_energy = all_entropy = True
        for sample, W in enumerate(states):
            C = op.apply(W)
            sup = float(np.abs(C).max())
            if sample == 0:
                deviation = float(np.abs(C - reference).max())
                if not deviation <= DIRECT_ORACLE_RTOL * sup:
                    raise RuntimeError(
                        f"FFT collision evaluator disagrees with the direct sum on "
                        f"sample 0: max|C_fft - C_direct| = {deviation:.3e} exceeds "
                        f"{DIRECT_ORACLE_RTOL:g} * sup|C| = {DIRECT_ORACLE_RTOL * sup:.3e}"
                    )
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
    fitted = {"equilibrium_tolerance": op.equilibrium_tolerance()}
    checks = {
        "number_conserved": bool(all_number),
        "energy_conserved": bool(all_energy),
        "entropy_nonnegative": bool(all_entropy),
    }
    return ["collision_checks.csv"], fitted, checks


def cmd_dispersion_relation(cfg, stack, out, clock):
    model = build_linear(cfg, stack, clock)
    with clock.stage("conductivity"):
        kappa = compute_kappa(model)
    p_values = np.linspace(cfg.p_min, cfg.p_max, cfg.p_count)
    with clock.stage("eigenvalue_sweep"):
        sweep = dispersion_relation_sweep(kappa, p_values, direction=cfg.axis)
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
    fitted = {
        "quad_coef_1": float(sweep.quad_coef[0]),
        "quad_coef_2": float(sweep.quad_coef[1]),
        "mu_1": float(sweep.mu[0]),
        "mu_2": float(sweep.mu[1]),
        "rel_err_1": float(sweep.rel_err[0]),
        "rel_err_2": float(sweep.rel_err[1]),
    }
    checks = {
        "quadratic_coefficients_match_conductivity": bool(
            np.all(sweep.rel_err <= 0.05)
        ),
    }
    return ["dispersion_relation.csv"], fitted, checks


def cmd_semigroup_bounds(cfg, stack, out, clock):
    model = build_linear(cfg, stack, clock)
    gap = model.summary.gap
    with clock.stage("two_mode_boundary"):
        modes = ModeFamily(model, cfg.axis)
        p0 = find_p0(modes, gap)
        floor = spectrum_D(modes, 2.0 * p0).real
        b = float(floor.min())
        n_slow = int(np.count_nonzero(floor < 0.5 * gap))
    p_values = np.array(cfg.p_factors) * p0
    t_values = np.array(cfg.t_factors) / gap
    with clock.stage("norm_sweep"):
        sweep = semigroup_bound_sweep(modes, p_values, t_values)
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
    fitted = {
        "gap_a": gap,
        "p0": p0,
        "floor_b": b,
        "rate_c": sweep.c_hat,
        "prefactor_C_pq": float(sweep.bound_ratio_pq.max()),
        "prefactor_C_full": float(sweep.bound_ratio_full.max()),
    }
    checks = {
        "two_slow_modes_at_p0": bool(n_slow < 2),
        "positive_floor_beyond_p0": bool(b > 0.0),
        "energy_norm_contraction": bool(
            np.all(sweep.full_norm <= 1.0 + 1e-10)
        ),
        "fast_block_scales_with_p_squared": bool(
            ratios.size > 0 and np.all((0.7 <= ratios) & (ratios <= 1.3))
        ),
    }
    return ["semigroup_bounds.csv", "semigroup_halving.csv"], fitted, checks


def cmd_evolve(cfg, stack, out, clock):
    grid, disp, delta = stack
    model = build_linear(cfg, stack, clock)
    with clock.stage("conductivity"):
        kappa = compute_kappa(model)
    times = np.linspace(0.0, cfg.t_max, cfg.n_times)
    x = np.arange(cfg.n_x) / cfg.n_x
    ripple = cfg.ripple * np.sin(TWO_PI * x)
    W0 = disp.winv[None, :] * (1.0 + ripple[:, None])
    with clock.stage("integrate"):
        dt = cfg.dt
        if dt is None:
            dt = stable_step(model, cfg.n_x, cfg.box_length)
        evaluator = FourierCollision(grid, disp, delta)
        traj = evolve_nonlinear(evaluator, W0, times, cfg.box_length, dt)
    with clock.stage("decay_report"):
        report = decay_diagnostics(
            traj, kappa, t_min=cfg.t_min, contamination=cfg.contamination
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
    fitted = {
        "t_box": report.t_box,
        "slope_T": report.slope_T,
        "slope_v": report.slope_v,
        "step_dt": dt,
    }
    checks = {
        "fit_window_nonempty": bool(not report.window_empty),
        "slow_decay_rate": bool(
            not report.window_empty and abs(report.slope_T + 1.0) <= 0.15
        ),
        "fast_decay_rate": bool(
            not report.window_empty and abs(report.slope_v + 1.5) <= 0.15
        ),
    }
    return ["trajectory.csv"], fitted, checks


def cmd_hydro_limit(cfg, stack, out, clock):
    grid, disp, delta = stack
    model = build_linear(cfg, stack, clock)
    x = np.arange(cfg.n_x) / cfg.n_x
    tau0 = np.zeros((cfg.n_x, 2))
    tau0[:, 0] = cfg.tau_amplitude * np.sin(TWO_PI * x)
    if (disp.winv[None, :] + tau0 @ model.basis.u.T).min() <= 0:
        # the bound depends on the grid, so the schema cannot check it
        raise ValueError("initial data breaks positivity: lower tau_amplitude")
    with clock.stage("response_solver"):
        response = CollisionResponse(FourierCollision(grid, disp, delta), model)
    v0 = np.zeros((cfg.n_x, grid.size))
    with clock.stage("scaling_study"):
        study = hydro_limit_study(
            response,
            tau0,
            v0,
            cfg.box_length,
            eps_list=cfg.eps_list,
            t_compare=cfg.t_compare,
            dt_base=cfg.dt_base,
            dt_reference=cfg.dt_reference,
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
    fitted = {
        "t_compare": study.t_compare,
        "final_vs_first": study.final_vs_first,
    }
    checks = {
        "distances_shrink_monotonically": bool(study.monotone),
        "distance_scales_with_eps": bool(
            study.monotone and study.final_vs_first <= 0.5
        ),
    }
    return ["hydro_limit.csv"], fitted, checks


def cmd_validate_kernel(cfg, stack, out, clock):
    _, disp, _ = stack
    rng = np.random.default_rng(cfg.seed)
    chain = cfg.eta_chain
    rows = []
    all_pass = True
    with clock.stage("quadrature_cross_check"):
        accepted = 0
        while accepted < cfg.pairs:
            k = -np.pi + TWO_PI * rng.random(2)
            kp = -np.pi + TWO_PI * rng.random(2)
            if not np.all(np.abs(np.sin((k - kp) / 2.0)) > cfg.min_sin):
                continue
            exact = i1_exact(k, kp, disp.params, m=cfg.quad_m,
                             refine_tol=cfg.refine_tol)
            errors = []
            for eta in chain:
                approx = i1_mollified(k, kp, disp.params, DeltaKernel(eta))
                errors.append(abs(approx - exact))
            ratios = [
                errors[i] / errors[i + 1] if errors[i + 1] > 0 else np.inf
                for i in range(len(errors) - 1)
            ]
            ok = all(ratio >= WIDTH_HALVING_MIN_RATIO for ratio in ratios)
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
    fitted = {"mean_error_ratio": float(ratio_cols.mean())}
    checks = {"width_refinement_second_order": bool(all_pass)}
    return ["kernel_validation.csv"], fitted, checks


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
        for key in command_defaults(command):
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        text, cfg = resolve_config(command, args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"kind": "config", "error": str(exc)}), file=sys.stderr)
        return 2

    out = Path(cfg.outdir)
    # the outermost directory this call creates, removed again on exit 2
    created = next((d for d in reversed((out, *out.parents)) if not d.exists()),
                   None)
    out.mkdir(parents=True, exist_ok=True)
    clock = StageClock()
    manifest = {
        "command": command,
        "status": "ok",
        "config": {k: v for k, v in text.items() if k != "workers"},
        "grid": {"d": cfg.d, "n": cfg.n, "size": cfg.n ** cfg.d},
        "dispersion": {"r": cfg.r},
        "delta": {"shape": cfg.delta_shape, "eta": text["eta"]},
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
    code = 0
    try:
        stack = build_stack(cfg, clock)
        artifacts, fitted, checks = COMMANDS[command](cfg, stack, out, clock)
        manifest.update(artifacts=artifacts, fitted_constants=fitted, checks=checks)
        manifest["delta"]["eta"] = stack[2].width
    except ValueError as exc:
        # a precondition that depends on the computed stack, such as the
        # positivity of hydro-limit's initial data, fails only here
        print(json.dumps({"kind": "config", "error": str(exc)}), file=sys.stderr)
        if created is not None:
            shutil.rmtree(created)
        return 2
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        manifest["status"] = "numerical-failure"
        manifest["diagnostic"] = str(exc)
        code = 3
    manifest["execution"] = {"workers": cfg.workers, "wall_clock_s": clock.seconds}
    write_json(out / "manifest.json", manifest)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""End-to-end acceptance suite: fourteen numbered checks over the full pipeline.

Each test prints one ``acceptance NN <name>: PASS/FAIL`` line (visible with
``pytest -rA`` or on failure) and then asserts, so the suite doubles as a
readable report.  Numbering:

01  equilibrium family is annihilated; tolerance improves under refinement
02  collision invariants (number, energy) vanish on random states
03  entropy production: nonnegative, flat on equilibria, active off them
04  assembled linearization matches finite differences of the nonlinear map
05  conserved pair in the kernel; spectral gap stable under refinement
06  kernel row identity and row-sup stability
07  mollified pair reduction converges to the semi-analytic line integral
08  conductivity matrix symmetric positive definite and axis-isotropic
09  mode-eigenvalue curvature agrees with the conductivity eigenvalues
10  semigroup block bounds and the |p|^2 law for the fast block
11  finite-box decay exponents of the conserved and fast parts
12  Fourier law: slaved closure residual and late-time trajectory currents
13  kinetic-to-heat distance shrinks along the scaling sequence
14  command-line pipeline reproduces outputs byte-identically across workers

Scales: operator-level checks run on 16-, 24- and 32-point grids per axis
(the largest the O(n^{3d}) assemblies support inside this suite's time
budget); the space-time box studies run on a 12-point grid where the
relevant effects are already resolved.  Failures are honest measurements of
the discretized system at finite kernel width, not loosened tolerances: the
energy invariant, the row identity, the macroscopic curvature match, the
uniform block prefactor, and the box decay window all carry finite-width
floors that the stated bounds do not meet at these scales.  Comments on the
individual tests record the measured values.

A check that a CLI subcommand also writes into its manifest (02, 07-11, 13)
has one definition, which the subcommand and the test both call: a predicate
of the result it judges, such as `DecayReport.slow_decay_rate`, with its
bound a module constant beside it; 07 runs `validate-kernel` itself.
"""

import csv
import json

import numpy as np
import pytest

from pboltz.cli import main as cli_main
from pboltz.collision import (
    CONSERVATION_RTOL,
    EQUILIBRIUM_FAMILY,
    CollisionOperator,
    DeltaKernel,
    equilibrium,
    exchange_conserved,
)
from pboltz.dispersion import DispersionField
from pboltz.evolution import (
    ModeFamily,
    box_modes,
    decay_diagnostics,
    dispersion_relation_sweep,
    evolve_nonlinear,
    find_p0,
    hydro_limit_study,
    semigroup_bound_sweep,
    stable_step,
)
from pboltz.hydrodynamics import (
    ISOTROPY_TOL,
    LinearModel,
    SlowState,
    compute_kappa,
    currents,
    fourier_law_check,
    slaved_state,
)
from pboltz.linearized import (
    assemble_K,
    assemble_L,
    assemble_M,
    fd_linearization_check,
    kernel_row_sup,
    row_identity_residual,
    spectrum_L,
)
from pboltz.torus_grid import TorusGrid, sup_norm

# Threads of the direct collision oracles (tau16/tau24/tau32).  On a 2-vCPU
# host 2 threads beat 3 (1.17-1.19 s against 1.25-1.34 s at n = 24); the
# bytes do not depend on the count, which acceptance 14 checks with 1 and 3.
WORKERS = 2
BOX_LENGTH = 200.0


def report(num, name, passed, detail=""):
    line = f"acceptance {num:02d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def random_states(grid, count=20, seed=7):
    """Seeded positive test states in [0.2, 1.5] per node."""
    rng = np.random.default_rng(seed)
    return [0.2 + 1.3 * rng.random(grid.size) for _ in range(count)]


# ----------------------------------------------------------------------
# graded stacks (module scope; built once, lazily, per grid size)


@pytest.fixture(scope="module")
def stack16(params):
    grid = TorusGrid(2, 16)
    disp = DispersionField(grid, params)
    return grid, disp, DeltaKernel.auto(grid, disp)


@pytest.fixture(scope="module")
def stack24(params):
    grid = TorusGrid(2, 24)
    disp = DispersionField(grid, params)
    return grid, disp, DeltaKernel.auto(grid, disp)


@pytest.fixture(scope="module")
def stack32(params):
    grid = TorusGrid(2, 32)
    disp = DispersionField(grid, params)
    return grid, disp, DeltaKernel.auto(grid, disp)


@pytest.fixture(scope="module")
def op16(stack16):
    return CollisionOperator(*stack16, workers=WORKERS)


@pytest.fixture(scope="module")
def tau16(op16):
    return op16.equilibrium_tolerance()


@pytest.fixture(scope="module")
def tau24(stack24):
    return CollisionOperator(*stack24, workers=WORKERS).equilibrium_tolerance()


@pytest.fixture(scope="module")
def tau32(stack32):
    return CollisionOperator(*stack32, workers=WORKERS).equilibrium_tolerance()


@pytest.fixture(scope="module")
def L16(stack16):
    return assemble_L(*stack16)


@pytest.fixture(scope="module")
def L24(stack24):
    return assemble_L(*stack24)


@pytest.fixture(scope="module")
def model24(L24, stack24):
    return LinearModel(L24, stack24[1])


@pytest.fixture(scope="module")
def gap32(stack32):
    L32 = assemble_L(*stack32)
    return spectrum_L(L32, stack32[1]).gap


@pytest.fixture(scope="module")
def kappa24(model24):
    return compute_kappa(model24)


@pytest.fixture(scope="module")
def traj12(stack12, fourier12, model12):
    """Nonlinear box run started from a small gaussian bump of the first
    conserved field (relative amplitude 1e-2)."""
    _, disp, _ = stack12
    n_x = 32
    x = np.arange(n_x) * (BOX_LENGTH / n_x)
    bump = 1e-2 * np.exp(-0.5 * ((x - BOX_LENGTH / 2) / (BOX_LENGTH / 16.0)) ** 2)
    W0 = disp.winv[None, :] * (1.0 + bump[:, None])
    times = np.linspace(0.0, 30.0, 9)
    return evolve_nonlinear(fourier12, W0, times, BOX_LENGTH,
                            stable_step(model12, n_x, BOX_LENGTH))


# ----------------------------------------------------------------------
# 01-03: the nonlinear collision operator


def test_01_equilibrium_annihilation(stack16, op16, tau16, tau32):
    _, disp, _ = stack16
    sups = [
        sup_norm(op16.apply(equilibrium(disp, T, A))) for T, A in EQUILIBRIUM_FAMILY
    ]
    family_ok = all(s <= tau16 for s in sups)
    refines = tau32 < tau16
    report(
        1,
        "equilibrium-annihilation",
        family_ok and refines,
        f"tau16={tau16:.3e}, tau32={tau32:.3e}",
    )


def test_02_collision_invariants(stack16, op16):
    grid, disp, _ = stack16
    conserved = True
    worst = 0.0
    for W in random_states(grid):
        C = op16.apply(W)
        sup = sup_norm(C)
        for residual in op16.conservation_residuals(W, C):
            conserved &= exchange_conserved(residual, sup)
            worst = max(worst, abs(residual) / (CONSERVATION_RTOL * sup))
    # The plain-number invariant cancels exactly (~1e-12 of the bound); the
    # energy-weighted one carries the finite-width smearing of the energy
    # constraint, which on rough random states is a few percent of sup|C| —
    # around 1e9 times the stated 1e-10 * sup|C| bound.
    report(
        2,
        "collision-invariants",
        conserved,
        f"worst residual = {worst:.2e} x bound",
    )


def test_03_entropy_production(stack16, op16, tau16):
    grid, disp, _ = stack16
    sigmas = [op16.entropy_production(W) for W in random_states(grid)]
    # collision-check's entropy_nonnegative allows sigma >= -1e-15 instead;
    # the two sign tests stay apart, since bench/outputs.py re-derives that
    # pass column with -1e-15
    nonneg = all(s >= 0.0 for s in sigmas)
    flat = all(
        op16.entropy_production(equilibrium(disp, T, A)) <= tau16
        for T, A in EQUILIBRIUM_FAMILY
    )
    # Designated non-stationary probe: 10% cosine ripple on the first axis
    # (relative, so the state stays positive).  Its production is genuinely
    # positive but quadratically small in the ripple, measured near 0.01 of
    # the equilibrium tolerance — far from the required factor 10 above it.
    probe = equilibrium(disp, 1.0, 0.0) * (1.0 + 0.1 * np.cos(grid.coords[:, 0]))
    sigma_probe = op16.entropy_production(probe)
    active = sigma_probe > 10.0 * tau16
    report(
        3,
        "entropy-production",
        nonneg and flat and active,
        f"min sigma = {min(sigmas):.2e}, probe/tau = {sigma_probe / tau16:.2f}",
    )


# ----------------------------------------------------------------------
# 04-06: the linearized operator


def test_04_linearization_consistency(op16, L16):
    worst = fd_linearization_check(op16, L16, directions=10, eps=1e-5, seed=1234)
    report(4, "linearization-consistency", worst < 1e-4, f"worst rel = {worst:.2e}")


def test_05_conserved_pair_and_gap(model24, tau24, gap32):
    res1, res2 = model24.summary.zero_mode_residuals
    pair_ok = res1 <= tau24 and res2 <= tau24
    a24 = model24.summary.gap
    drift = abs(gap32 - a24) / a24
    report(
        5,
        "conserved-pair-and-gap",
        pair_ok and a24 > 0 and drift < 0.10,
        f"residuals = ({res1:.2e}, {res2:.2e}), a = {a24:.3e}, drift = {drift:.1%}",
    )


def test_06_kernel_row_identity(stack16, stack24):
    grid24, disp24, delta24 = stack24
    M24 = assemble_M(grid24, disp24, delta24)
    K24 = assemble_K(grid24, disp24, delta24)
    rowres = row_identity_residual(M24, K24, grid24, disp24)
    # The diagonal weight pairs each row against the energy profile of the
    # *other* leg of the pair kernel; the two quadratures agree only up to
    # the mollifier width, which leaves an order-one relative defect rather
    # than the requested 1e-8.
    identity_ok = rowres <= 1e-8

    grid16, disp16, delta16 = stack16
    K16 = assemble_K(grid16, disp16, delta16)
    s16 = kernel_row_sup(K16, grid16)
    s24 = kernel_row_sup(K24, grid24)
    ratio = s24 / s16
    stable = 0.5 <= ratio <= 2.0
    report(
        6,
        "kernel-row-identity",
        identity_ok and stable,
        f"row residual = {rowres:.2e}, row-sup ratio 24/16 = {ratio:.3f}",
    )


# ----------------------------------------------------------------------
# 07: quadrature of the pair reduction


def test_07_reduced_integral_convergence(tmp_path):
    # validate-kernel at 10 seeded pairs with |sin((k - k')/2)| > 0.3 per
    # axis, widths 0.25, 0.125, 0.0625 and the exact reduction at m = 1024,
    # refined to 1e-8
    out = tmp_path / "kernel"
    code = cli_main([
        "validate-kernel", "--d", "2", "--r", "1.0", "--seed", "3",
        "--pairs", "10", "--min-sin", "0.3", "--eta-chain", "0.25,0.125,0.0625",
        "--quad-m", "1024", "--refine-tol", "1e-8", "--outdir", str(out),
    ])
    assert code == 0
    with open(out / "manifest.json", encoding="utf-8") as fh:
        passed = json.load(fh)["checks"]["width_refinement_second_order"]
    with open(out / "kernel_validation.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    worst = min(float(v) for row in rows for key, v in row.items()
                if key.startswith("error_ratio_"))
    report(
        7,
        "reduced-integral-convergence",
        passed,
        f"min error ratio per width halving = {worst:.2f}",
    )


# ----------------------------------------------------------------------
# 08-09: transport coefficients


def test_08_conductivity_matrix(model24, kappa24):
    K = kappa24.kappa_op
    Kab = kappa24.kappa_ab
    scale = np.max(np.abs(Kab))
    # kappa_op is symmetrized by construction: test the pairing matrix
    sym = np.max(np.abs(Kab - Kab.T)) <= 1e-8 * scale
    other = compute_kappa(model24, axis=1)
    axis_dev = np.max(np.abs(other.kappa_ab - Kab)) / scale
    cross = kappa24.cross_direction_sup / scale
    report(
        8,
        "conductivity-matrix",
        sym and kappa24.positive_definite and axis_dev <= ISOTROPY_TOL
        and kappa24.cross_free,
        f"eigs = {np.linalg.eigvalsh(K)}, axis dev = {axis_dev:.1e}, "
        f"cross = {cross:.1e}",
    )


def test_09_mode_curvature_matches_conductivity(kappa24):
    sweep = dispersion_relation_sweep(kappa24, np.linspace(0.02, 0.1, 9))
    # The two slow eigenvalue branches saturate at the relaxation scale well
    # below |p| ~ 0.02, so their fitted curvature is orders of magnitude
    # smaller than the conductivity eigenvalues (helper-level tests cover the
    # small-|p| regime where the quadratic law does hold).
    report(
        9,
        "mode-curvature-vs-conductivity",
        sweep.quadratic_coefficients_match_conductivity,
        f"rel err = {sweep.rel_err}, quad = {sweep.quad_coef}, mu = {sweep.mu}",
    )


# ----------------------------------------------------------------------
# 10: semigroup block structure


def test_10_semigroup_block_bounds(model24):
    gap = model24.summary.gap
    modes = ModeFamily(model24)
    p0 = find_p0(modes, gap)
    sweep = semigroup_bound_sweep(
        modes,
        p0 * np.array([0.25, 0.5, 1.0]),
        np.array([0.3, 1.0, 3.0]) / gap,
    )
    # "Bounded" must mean a moderate uniform prefactor; the measured ratio
    # grows ~1/p^2 as p -> 0 (an order-one channel of the fast block decays
    # at the slow rate), so no such prefactor exists.
    ratio_max = float(np.max(sweep.bound_ratio_pq))
    cross_ok = sweep.c_hat > 0 and ratio_max <= 1e3
    # The halving ratios are divided by (p_high / p_low)^2, so a |p|^2 law
    # reads 1; they cluster near 1/4 (measured 0.25-0.32), the mark of a
    # frequency-independent fast tail, so the law fails too.
    ratios = sweep.qq_halving_ratios
    report(
        10,
        "semigroup-block-bounds",
        cross_ok and sweep.fast_block_scales_with_p_squared,
        f"c_hat = {sweep.c_hat:.2e}, max cross ratio = {ratio_max:.1e}, "
        f"qq halving in [{ratios.min():.3f}, {ratios.max():.3f}]",
    )


# ----------------------------------------------------------------------
# 11-12: finite box


def test_11_box_decay_exponents(traj12, kappa12):
    rep = decay_diagnostics(traj12, kappa12, t_min=10.0)
    # The box-validity horizon t_box ~ 1/(p_min^2 mu_min) is ~1e-5 here
    # (macroscopic diffusion is fast because the gap is tiny), so the
    # requested fit window [10, t_box] is empty and the slopes are NaN.
    report(
        11,
        "box-decay-exponents",
        rep.slow_decay_rate and rep.fast_decay_rate,
        f"t_box = {rep.t_box:.2e}, slope_T = {rep.slope_T}, "
        f"slope_v = {rep.slope_v}",
    )


def test_12_fourier_law(model24, kappa24, traj12, stack12, kappa12):
    # (a) the slaved closure reproduces the conductivity prediction exactly
    # at the solver's roundoff floor.
    cases = [
        (SlowState(1.0, 0.0), (0.03, 0.0)),
        (SlowState(0.0, 1.0), (0.0, 0.05)),
        (SlowState(0.7, -0.3), (0.02, 0.04)),
    ]
    worst = 0.0
    slaved_ok = True
    for state, p in cases:
        v = slaved_state(model24, state, p)
        rep = fourier_law_check(kappa24, state, p, v)
        slaved_ok = slaved_ok and rep.passed
        worst = max(worst, rep.residual / rep.bound)

    # (b) currents of the simulated late-time state against the conductivity
    # prediction from its per-cell slow coefficients.  The run ends at
    # t = 30, far short of the relaxation time 1/gap ~ 4e7 on this n = 12
    # grid, while the prediction carries kappa ~ 1/gap: the printed relative
    # defect is ~3e6, not order one, against the requested 10%.
    disp = stack12[1]
    W = traj12.states[-1]
    n_x = W.shape[0]
    st = kappa12.basis.state_from_field(W)
    j1, j2 = currents(disp, W)
    jhat = np.stack([np.fft.fft(j1[:, 0]), np.fft.fft(j2[:, 0])]) / n_x
    that = np.stack([np.fft.fft(st.t1), np.fft.fft(st.t2)]) / n_x
    p = box_modes(n_x, BOX_LENGTH)
    pred = 1j * p[None, :] * (kappa12.kappa_ab @ that)
    mask = p != 0.0
    traj_rel = float(
        np.max(np.abs(jhat[:, mask] - pred[:, mask])) / np.max(np.abs(jhat[:, mask]))
    )
    report(
        12,
        "fourier-law",
        slaved_ok and traj_rel <= 0.10,
        f"slaved residual = {worst:.2e} x bound, trajectory rel = {traj_rel:.2f}",
    )


# ----------------------------------------------------------------------
# 13: kinetic-to-heat comparison


def test_13_hydrodynamic_limit(stack12, response12):
    _, disp, _ = stack12
    n_x = 16
    x = np.arange(n_x) * (BOX_LENGTH / n_x)
    tau0 = np.zeros((n_x, 2))
    tau0[:, 0] = 1e-3 * np.sin(2.0 * np.pi * x / BOX_LENGTH)
    v0 = np.zeros((n_x, disp.grid.size))
    study = hydro_limit_study(
        response12,
        tau0,
        v0,
        BOX_LENGTH,
        eps_list=(0.4, 0.2, 0.1, 0.05),
        t_compare=1.0,
        dt_base=0.05,
        dt_reference=2e-3,
    )
    # The distance to the heat reference does not shrink with eps: it grows
    # as eps falls (printed 5.1e-4, 5.5e-4, 6.8e-4, 9.9e-4 for
    # eps = 0.4 ... 0.05, final/first ~ 1.9).
    dists = [row.distance_T for row in study.rows]
    report(
        13,
        "hydrodynamic-limit",
        study.distance_scales_with_eps,
        f"distances = {np.array(dists)}, final/first = {study.final_vs_first:.2f}",
    )


# ----------------------------------------------------------------------
# 14: pipeline determinism


def _manifest_core(path):
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest.pop("execution", None)
    manifest.get("config", {}).pop("outdir", None)
    return manifest


def test_14_pipeline_determinism(tmp_path):
    jobs = [
        ("spectrum", ["--n", "8"], ["eigenvalues.csv", "spectrum_summary.csv"]),
        (
            "collision-check",
            ["--n", "8", "--samples", "5", "--seed", "11"],
            ["collision_checks.csv"],
        ),
    ]
    identical = True
    for name, args, artifacts in jobs:
        outs = []
        for tag, workers in (("a", "1"), ("b", "3")):
            out = tmp_path / f"{name}-{tag}"
            code = cli_main(
                [name, *args, "--workers", workers, "--outdir", str(out)]
            )
            assert code == 0
            outs.append(out)
        for artifact in artifacts:
            identical = identical and (
                (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
            )
        identical = identical and (
            _manifest_core(outs[0] / "manifest.json")
            == _manifest_core(outs[1] / "manifest.json")
        )
    report(14, "pipeline-determinism", identical, "workers 1 vs 3, seeded tables")

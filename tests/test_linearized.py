"""Linearized operator assembly, spectrum, identities, and the kernel validator."""

import csv

import numpy as np
import pytest
from scipy.special import ellipk

from pboltz import cli, linearized
from pboltz.collision import DeltaKernel
from pboltz.dispersion import DispersionField, DispersionParams
from pboltz.hydrodynamics import LinearModel, compute_kappa
from pboltz.linearized import (
    assemble_I1,
    assemble_L,
    assemble_M,
    fd_linearization_check,
    i1_exact,
    i1_mollified,
    kernel_row_sup,
    row_identity_residual,
    spectrum_L,
)
from pboltz.torus_grid import TorusGrid

import direct_sums
from level_tracer import traced_i1

TERMS = ("M", "I1", "I2")


def _stack(d, n):
    grid = TorusGrid(d, n)
    disp = DispersionField(grid, DispersionParams(d=d, r=1.0))
    return grid, disp, DeltaKernel.auto(grid, disp)


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestAssembly:
    def test_matches_collision_jacobian(self, collision12, operators12):
        _, _, L = operators12
        err = fd_linearization_check(collision12, L, directions=4)
        assert err < 1e-4

    def test_h_self_adjoint(self, stack12, operators12):
        _, disp, _ = stack12
        _, _, L = operators12
        B = disp.similarity(L)
        defect = np.linalg.norm(B - B.T) / np.linalg.norm(B)
        assert defect < 1e-12

    def test_positive_semidefinite(self, model12):
        lam = model12.summary.eigenvalues
        assert lam[0] > -1e-18
        assert lam[2] > 0.0

    def test_exact_null_direction(self, stack12, operators12):
        _, disp, _ = stack12
        _, _, L = operators12
        ip = disp.weighted_inner()
        resid = ip.norm(L @ disp.winv2) / ip.norm(disp.winv2)
        assert resid < 1e-14 * np.abs(L).max()

    def test_commutes_with_axis_reflections(self, stack12, operators12):
        grid, _, _ = stack12
        _, _, A = operators12
        for ax in range(grid.d):
            perm = grid.axis_reflection(ax)
            assert np.abs(A[np.ix_(perm, perm)] - A).max() < 1e-14 * np.abs(A).max()

    def test_kernel_pointwise_symmetric(self, operators12):
        _, A, _ = operators12
        assert np.abs(A - A.T).max() < 1e-10 * np.abs(A).max()


class TestSeriesAssembly:
    """The cosine-series assembly against the direct O(N^3) sums."""

    @pytest.mark.parametrize("n", [12, 16])
    def test_matches_direct_sums(self, n, monkeypatch):
        grid, disp, delta = _stack(2, n)
        L = assemble_L(grid, disp, delta)
        for term in TERMS:
            series = getattr(linearized, f"assemble_{term}")(grid, disp, delta)
            direct = getattr(direct_sums, f"assemble_{term}")
            assert _rel(series, direct(grid, disp, delta)) <= 1e-12
            monkeypatch.setattr(linearized, f"assemble_{term}", direct)
        assert _rel(L, assemble_L(grid, disp, delta)) <= 1e-12

    def test_narrow_kernel_matches_direct_sums(self, stack8):
        # a width a third of the auto rule's or less, whose cosine series
        # needs more than twice the t-nodes
        grid, disp, _ = stack8
        narrow = DeltaKernel(2.0)
        for term in TERMS:
            series = getattr(linearized, f"assemble_{term}")(grid, disp, narrow)
            direct = getattr(direct_sums, f"assemble_{term}")(grid, disp, narrow)
            assert _rel(series, direct) <= 1e-12


class TestThreeDimensions:
    """The linearization at d = 3, n = 8 (N = 512)."""

    @pytest.fixture(scope="class")
    def stack(self):
        return _stack(3, 8)

    @pytest.fixture(scope="class")
    def L(self, stack):
        return assemble_L(*stack)

    @pytest.fixture(scope="class")
    def model(self, stack, L):
        return LinearModel(L, stack[1])

    def test_zero_mode_residuals(self, L, model):
        r1, r2 = model.summary.zero_mode_residuals
        assert r2 < 1e-14 * np.abs(L).max()  # exact null w^-2
        assert r2 < r1 < 1e-3  # w^-1 only up to the mollification bias

    def test_h_self_adjoint(self, stack, L):
        B = stack[1].similarity(L)
        assert np.linalg.norm(B - B.T) / np.linalg.norm(B) < 1e-12

    def test_positive_semidefinite(self, model):
        lam = model.summary.eigenvalues
        assert lam.min() >= -1e-12 * lam.max()
        assert model.summary.gap > 0.0

    def test_conductivity_is_positive_definite(self, model):
        kappa = compute_kappa(model)
        assert np.array_equal(kappa.kappa_op, kappa.kappa_op.T)
        assert kappa.mu.min() > 0.0

    def test_matches_sampled_direct_sums(self, stack):
        # a full direct M takes seconds at N = 512: sample rows of M and
        # difference diagonals I1(k' + D, k') of I1
        grid, disp, delta = stack
        sample = np.random.default_rng(3).choice(grid.size, size=8, replace=False)
        M = assemble_M(grid, disp, delta)
        direct_M = np.zeros(grid.size)
        direct_sums.M_rows(grid, disp, delta, direct_M, sample)
        assert _rel(M[sample], direct_M[sample]) <= 1e-12
        I1 = assemble_I1(grid, disp, delta)
        direct_I1 = np.full(I1.shape, np.nan)
        direct_sums.I1_diagonals(grid, disp, delta, direct_I1, sample)
        filled = ~np.isnan(direct_I1)
        assert np.count_nonzero(filled) == sample.size * grid.size
        assert _rel(I1[filled], direct_I1[filled]) <= 1e-12


class TestRowIdentities:
    def test_printed_identity_does_not(self, stack12, operators12):
        # the unweighted row sum does not reproduce the multiplier; kept as
        # a measured fact (the acceptance suite asserts the stated form and
        # reports it red)
        grid, disp, _ = stack12
        M, K, _ = operators12
        assert row_identity_residual(M, K, grid, disp) > 0.1

    def test_row_sup_finite_and_stable(self, stack8, stack12, params):
        from pboltz.linearized import assemble_K

        vals = []
        for grid, disp, delta in (stack8, stack12):
            K = assemble_K(grid, disp, delta)
            vals.append(kernel_row_sup(K, grid))
        assert all(v > 0 for v in vals)
        assert 0.5 < vals[0] / vals[1] < 2.0 * (12 / 8) ** 2


class TestSpectrum:
    def test_two_low_modes_then_gap(self, model12):
        lam = model12.summary.eigenvalues
        # one exact null, a bias-lifted second mode below the gap
        assert lam[0] < 1e-8 * lam[2]
        assert lam[1] < lam[2]
        assert model12.summary.gap == lam[2]
        assert model12.summary.gap > 0.0

    def test_zero_mode_residuals(self, model12):
        r1, r2 = model12.summary.zero_mode_residuals
        assert r2 < 1e-18  # exact null
        assert 1e-8 < r1 < 1e-3  # mollifier-biased quasi-null

    def test_exact_null_angle_small(self, stack12, operators12, model12):
        # the lowest eigenvector aligns with the exact null direction;
        # the two-dimensional principal angle to the slow span is O(1)
        # because the quasi-null bias exceeds the gap (diagnostic only)
        # (in real frame coordinates: the pair lies in the even sector)
        _, disp, _ = stack12
        summary = model12.summary
        assert summary.low[0] == 2
        V0 = summary.sectors[0][1][:, 0]
        target = summary.frame.real_coordinates(disp.w * disp.winv2)
        target = target[summary.frame.sectors[0]] / np.linalg.norm(target)
        assert abs(abs(V0 @ target) - 1.0) < 1e-8

    def test_rejects_a_matrix_that_is_not_h_self_adjoint(self, operators12, stack12):
        # K is pointwise symmetric, so its omega-similarity transform is not
        _, disp, _ = stack12
        _, K, _ = operators12
        with pytest.raises(ValueError, match="symmetrization residual"):
            spectrum_L(K, disp)

    def test_rejects_a_matrix_that_breaks_the_axis_flips(self, operators12, stack12, rng):
        # a diagonal is H-self-adjoint; a random one commutes with no flip
        grid, disp, _ = stack12
        L = operators12[2]
        bent = L + np.diag(1e-6 * np.abs(L).max() * rng.random(grid.size))
        with pytest.raises(ValueError, match="axis-flip leak"):
            spectrum_L(bent, disp)

    @pytest.mark.parametrize("d,n", [(2, 12), (2, 24), (3, 8)])
    def test_sector_spectra_match_the_dense_eigh(self, d, n):
        # the oracle: one dense eigh of the whole omega-similarity transform
        grid, disp, delta = _stack(d, n)
        L = assemble_L(grid, disp, delta)
        B = disp.similarity(L)
        dense = np.linalg.eigvalsh(0.5 * (B + B.T))
        summary = spectrum_L(L, disp)
        scale = np.abs(dense).max()
        assert np.abs(summary.eigenvalues - dense).max() <= 1e-13 * scale
        assert abs(summary.gap - dense[2]) <= 1e-13 * scale
        assert len(summary.sectors) == 2**d


class TestKernelValidator:
    PARAMS = DispersionParams(2, 1.0)
    # the test pair, and pair 6 (0-based, as in kernel_validation.csv) of
    # acceptance 07 (seed 3)
    PAIRS = (
        ((0.9, -2.0), (-1.1, 0.4)),
        ((2.4611932424806, 0.5350945326387717),
         (-0.18026669018758001, 1.717050091815417)),
    )

    def test_exact_curve_integral_converges(self):
        # doubling the number of lines keeps the value stable
        k = np.array([0.9, -2.0])
        kp = np.array([-1.1, 0.4])
        a = i1_exact(k, kp, self.PARAMS, m=256, refine_tol=1e-5)
        b = i1_exact(k, kp, self.PARAMS, m=512, refine_tol=1e-6)
        assert np.isclose(a, b, rtol=1e-4)

    @pytest.mark.parametrize("E", [0.5, 1.0, 1.5])
    def test_line_sums_give_the_square_lattice_density_of_states(self, E):
        # (2 pi)^-2 int delta(cos q1 + cos q2 - E) d^2q = K(1 - E^2/4) / pi^2
        # (K with parameter m = k^2), away from the van Hove point E = 0
        def G(q1, q2):
            return np.cos(q1) + np.cos(q2) - E

        def dG(q1, q2):
            return -np.sin(q1) + 0.0 * q2, -np.sin(q2) + 0.0 * q1

        def g(q1, q2):
            return np.ones(np.broadcast(q1, q2).shape)

        value = linearized._level_integral(g, G, dG, 2048)
        exact = ellipk(1.0 - E * E / 4.0) / np.pi**2
        assert abs(value / exact - 1.0) <= 1e-9  # measured <= 1.7e-10

    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    def test_line_sums_match_the_level_set_tracer(self, pair):
        # the tracer's O(h^2) values at two arc steps, extrapolated, against
        # the line sums at acceptance 07's m and refine_tol; measured 2.5e-10
        # and 3.3e-10 relative
        k, kp = (np.array(x) for x in self.PAIRS[pair])
        exact = i1_exact(k, kp, self.PARAMS, m=1024, refine_tol=1e-8)
        traced = traced_i1(k, kp, self.PARAMS, n_arc=256)
        assert abs(traced / exact - 1.0) <= 1e-8

    def test_unconverged_line_sum_raises(self, monkeypatch):
        monkeypatch.setattr(linearized, "MAX_DOUBLINGS", 0)
        with pytest.raises(RuntimeError, match="did not converge"):
            i1_exact(np.array([0.9, -2.0]), np.array([-1.1, 0.4]), self.PARAMS)

    def test_mollified_approaches_exact(self):
        k = np.array([0.9, -2.0])
        kp = np.array([-1.1, 0.4])
        exact = i1_exact(k, kp, self.PARAMS, m=512, refine_tol=1e-7)
        errs = [
            abs(i1_mollified(k, kp, self.PARAMS, DeltaKernel(w)) - exact)
            for w in (0.25, 0.125)
        ]
        assert errs[1] < errs[0] / 2.0

    def test_separated_arguments_required(self, tmp_path):
        # the integrand geometry degenerates when k ~ k': every pair that
        # validate-kernel writes keeps |sin((k - k') / 2)| > min_sin per axis
        out = tmp_path / "vk"
        code = cli.main([
            "validate-kernel", "--pairs", "4", "--min-sin", "0.6",
            "--quad-m", "64", "--refine-tol", "1e-5", "--eta-chain", "1.0,0.5",
            "--outdir", str(out),
        ])
        assert code == 0
        with open(out / "kernel_validation.csv", newline="", encoding="utf-8") as fh:
            rows = np.array([row[1:5] for row in list(csv.reader(fh))[1:]], float)
        assert len(rows) == 4
        sep = np.abs(np.sin((rows[:, :2] - rows[:, 2:]) / 2.0))
        assert np.all(sep > 0.6)

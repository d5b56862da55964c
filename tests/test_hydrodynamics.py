"""Slow projections, conductivity, Fourier law, and shifted-background response."""

import dataclasses

import numpy as np
import pytest

from pboltz import hydrodynamics
from pboltz.hydrodynamics import (
    CollisionResponse,
    DiffusivityModel,
    LinearModel,
    SlowBasis,
    SlowState,
    compute_kappa,
    currents,
    fourier_law_check,
    nonlinear_diffusivity,
    observables,
    slaved_state,
)


@pytest.fixture(scope="module")
def basis12(stack12):
    _, disp, _ = stack12
    return SlowBasis(disp)


class TestSlowBasis:
    def test_gram_entries_are_dispersion_moments(self, stack12, basis12):
        grid, disp, _ = stack12
        G = basis12.gram
        assert np.isclose(G[0, 0], 1.0)
        assert np.isclose(G[0, 1], grid.integrate(disp.winv))
        assert np.isclose(G[1, 1], grid.integrate(disp.winv2))

    def test_orthonormal_pair(self, basis12):
        ip = basis12.inner
        for i in range(2):
            for j in range(2):
                val = ip.inner(basis12.u[:, i], basis12.u[:, j])
                assert np.isclose(val, float(i == j), atol=1e-12)

    def test_projection_idempotent_and_orthogonal(self, basis12, rng):
        f = rng.standard_normal(basis12.e.shape[0])
        Pf = basis12.project_P(f)
        assert np.allclose(basis12.project_P(Pf), Pf, atol=1e-14)
        assert abs(basis12.inner.inner(Pf, f - basis12.project_P(f))) < 1e-12

    def test_projects_members_to_themselves(self, stack12, basis12):
        _, disp, _ = stack12
        assert np.allclose(basis12.project_P(disp.winv), disp.winv)

    def test_annihilates_odd_fields(self, stack12, basis12):
        _, disp, _ = stack12
        odd = disp.grad[:, 0] * disp.winv2
        assert np.abs(basis12.project_P(odd)).max() < 1e-14

    def test_gradient_of_slow_stays_orthogonal(self, stack12, basis12, rng):
        # odd times even is odd: P(d1 omega * P f) = 0
        grid, disp, _ = stack12
        f = rng.standard_normal(grid.size)
        g = disp.grad[:, 0] * basis12.project_P(f)
        assert np.abs(basis12.project_P(g)).max() < 1e-10

    def test_state_round_trip(self, stack12, basis12):
        _, disp, _ = stack12
        state = SlowState(0.7, -0.3)
        back = basis12.state_from_field(state.as_field(disp))
        assert np.isclose(back.t1, 0.7)
        assert np.isclose(back.t2, -0.3)


class TestObservables:
    def test_slow_members(self, stack12, basis12):
        grid, disp, _ = stack12
        t1, t2 = observables(disp, disp.winv)
        assert np.isclose(t1, 1.0)
        assert np.isclose(t2, grid.integrate(disp.winv))

    def test_odd_fields_have_zero_observables(self, stack12):
        _, disp, _ = stack12
        odd = disp.grad[:, 0] * disp.winv
        t1, t2 = observables(disp, odd)
        assert abs(t1) < 1e-15
        assert abs(t2) < 1e-15

    def test_axiswise_even_fields_have_near_eps_currents(self, stack12, rng):
        # per-axis even fields cancel pairwise in the averaged quadrature;
        # the only leak is the self-paired -pi plane where sin(-pi) ~ 1e-16
        grid, disp, _ = stack12
        even = rng.standard_normal(grid.size)
        for axis in range(grid.d):
            even = 0.5 * (even + even[grid.axis_reflection(axis)])
        j1, j2 = currents(disp, even)
        assert np.abs(j1).max() < 1e-13
        assert np.abs(j2).max() < 1e-13

    def test_point_even_fields_have_tiny_currents(self, stack12, rng):
        # even under the full point reflection only: cancellation happens in
        # the global sum, leaving roundoff at the 1e-15 level
        grid, disp, _ = stack12
        f = rng.standard_normal(grid.size)
        even = 0.5 * (f + f[grid.flatten(-grid.multi_index)])
        j1, j2 = currents(disp, even)
        assert np.abs(j1).max() < 1e-12
        assert np.abs(j2).max() < 1e-12

    def test_current_of_odd_test_field(self, stack12):
        # w = d1 omega * omega^-3 gives a nonzero first component with a
        # quadrature-oracle value, and an exactly zero second component
        grid, disp, _ = stack12
        w = disp.grad[:, 0] * disp.winv2 * disp.winv
        j1, _ = currents(disp, w)
        expect = -grid.integrate(disp.grad[:, 0] ** 2 * disp.winv2) / (2 * np.pi)
        assert np.isclose(j1[0], expect, rtol=1e-12)
        assert abs(j1[1]) < 1e-15


def _dense_deflated_solve(L, disp, g, parity):
    """The oracle of `LinearModel.apply`: L^-1 g on the complement of the two
    lowest eigenvectors of one dense eigh of the omega-similarity transform,
    averaged over the axis reflections into the per-axis ``parity`` (+-1)
    of g, which roundoff through the near-null directions leaks otherwise."""
    B = disp.similarity(L)
    lam, V = np.linalg.eigh(0.5 * (B + B.T))
    V = V[:, 2:]
    x = (V @ ((V.T @ (g * disp.w)) / lam[2:])) / disp.w
    for axis, sign in enumerate(parity):
        x = 0.5 * (x + sign * x[disp.grid.axis_reflection(axis)])
    return x


class TestLinearModel:
    def test_annihilates_the_exact_null_direction(self, stack12, model12):
        _, disp, _ = stack12
        out = model12.apply(disp.winv2)
        assert np.linalg.norm(out) < 1e-6 * np.linalg.norm(model12.apply(disp.winv))

    def test_inverts_on_the_fast_directions(self, stack12, operators12, model12):
        # a fast eigenvector of the last sector, as a node field
        _, disp, _ = stack12
        frame = model12.summary.frame
        _, U = model12.summary.sectors[-1]
        y = np.zeros(disp.grid.size)
        y[frame.sectors[-1]] = U[:, 10]
        v = frame.from_real_coordinates(y) / disp.w
        dev = np.linalg.norm(operators12[2] @ model12.apply(v) - v)
        assert dev < 1e-8 * np.linalg.norm(v)

    def test_keeps_the_parity_of_the_right_hand_side(self, stack12, model12):
        # odd in axis 0 and even in axis 1; the dense deflated inverse of the
        # whole space leaked 2.3e-13 of the other parities into the solution
        grid, disp, _ = stack12
        x = model12.apply(disp.grad[:, 0] * disp.winv)
        scale = np.abs(x).max()
        assert np.abs(x[grid.axis_reflection(0)] + x).max() <= 1e-14 * scale
        assert np.abs(x[grid.axis_reflection(1)] - x).max() <= 1e-14 * scale

    def test_holds_views_of_its_operator_and_eigenvectors(self, operators12, model12):
        # the model adds no copy of L or of the sector eigenvectors
        assert model12.L is operators12[2]
        for (lam, U), (_, V_low), (_, V_rest, lam_rest) in zip(
                model12.summary.sectors, model12._low, model12._rest):
            assert np.shares_memory(V_rest, U) and np.shares_memory(lam_rest, lam)
            assert V_low.size == 0 or np.shares_memory(V_low, U)

    def test_conductivity_carries_the_model(self, model12, kappa12):
        assert kappa12.model is model12
        assert kappa12.basis is model12.basis


class TestKappa:
    def test_matches_the_dense_deflated_inverse(self, operators12, kappa12):
        basis = kappa12.basis
        disp = basis.disp
        g = disp.grad[:, 0][:, None] * basis.e
        X = np.stack([_dense_deflated_solve(operators12[2], disp, g[:, b], (-1, +1))
                      for b in (0, 1)], axis=1)
        oracle = hydrodynamics.pairing(basis, g, X)
        dev = np.abs(kappa12.kappa_ab - oracle).max()
        assert dev < 1e-12 * np.abs(oracle).max()

    def test_symmetric_positive_definite(self, kappa12):
        K = kappa12.kappa_op
        assert np.allclose(K, K.T)
        assert kappa12.mu.min() > 0.0

    def test_pairing_matrix_symmetric_positive_diagonal(self, kappa12):
        K = kappa12.kappa_ab
        assert abs(K[0, 1] - K[1, 0]) < 1e-8 * np.abs(K).max()
        assert K[0, 0] > 0.0 and K[1, 1] > 0.0

    def test_direction_invariance(self, model12, kappa12):
        other = compute_kappa(model12, axis=1)
        dev = np.abs(other.kappa_op - kappa12.kappa_op).max()
        assert dev < 1e-8 * np.abs(kappa12.kappa_op).max()

    def test_cross_direction_elements_vanish(self, kappa12):
        assert kappa12.cross_direction_sup < 1e-8 * np.abs(kappa12.kappa_ab).max()

    def test_solve_residual_small(self, kappa12):
        assert kappa12.solve_residual < 1e-8

    @pytest.mark.parametrize("mu, cross, holds", [
        ([1e-9, 1.0], 2e-8, (True, True)),
        ([0.0, 1.0], 3e-8, (False, False)),
    ])
    def test_check_predicates(self, kappa12, mu, cross, holds):
        # cross-free means at most 1e-8 of max|kappa_ab| = 2
        kappa = dataclasses.replace(
            kappa12, mu=np.array(mu), kappa_ab=np.array([[2.0, 0.0], [0.0, 1.0]]),
            cross_direction_sup=cross,
        )
        assert (kappa.positive_definite, kappa.cross_free) == holds


class TestFourierLaw:
    def test_zero_state_gives_zero(self, model12, kappa12):
        state = SlowState(0.0, 0.0)
        v = slaved_state(model12, state, np.array([0.05, 0.0]))
        assert np.abs(v).max() == 0.0
        rep = fourier_law_check(kappa12, state, np.array([0.05, 0.0]), v)
        assert rep.residual == 0.0

    @pytest.mark.parametrize(
        "tvec,p",
        [
            ((1.0, 0.0), (0.05, 0.0)),
            ((0.3, -0.2), (0.0, 0.05)),
            ((0.1, 0.4), (0.03, 0.04)),
        ],
    )
    def test_slaved_states_satisfy_law(self, model12, kappa12, tvec, p):
        state = SlowState(*tvec)
        p = np.asarray(p)
        v = slaved_state(model12, state, p)
        rep = fourier_law_check(kappa12, state, p, v)
        assert rep.passed
        assert rep.residual < 0.1 * rep.bound

    def test_slaved_state_lies_in_fast_subspace(self, model12, basis12):
        v = slaved_state(model12, SlowState(1.0, 0.0), np.array([0.05, 0.0]))
        overlap = np.abs(basis12.project_P(v)).max() / np.abs(v).max()
        assert overlap < 1e-12


class TestCollisionResponse:
    def test_zero_shift_matches_deflated_inverse(self, response12, model12, stack12):
        _, disp, _ = stack12
        g = disp.grad[:, 0] * disp.winv
        x, diag = response12.solve(np.zeros_like(g), g)
        assert diag["residual"] < 1e-10
        y = model12.apply(g)
        assert np.linalg.norm(x - y) < 1e-9 * np.linalg.norm(y)

    def test_solves_with_the_model_it_was_given(
        self, fourier12, operators12, stack12, monkeypatch
    ):
        # the response diagonalizes nothing itself: its preconditioner and
        # deflation are the deflated inverse of the model it holds
        _, disp, _ = stack12
        model = LinearModel(operators12[2], disp)
        applied = []

        def recorded(g):
            applied.append(np.shape(g))
            return LinearModel.apply(model, g)

        def refuse(*args):
            raise AssertionError("L diagonalized a second time")

        monkeypatch.setattr(model, "apply", recorded)
        monkeypatch.setattr(hydrodynamics, "spectrum_L", refuse)
        response = CollisionResponse(fourier12, model)
        assert response.model is model
        g = disp.grad[:, 0] * disp.winv
        x, diag = response.solve(np.zeros_like(g), g)
        assert diag["residual"] < 1e-10 and applied
        applied.clear()
        xb, _ = response.solve_batch(np.zeros((1, g.size)), g[None, :])
        assert applied
        assert np.linalg.norm(xb[0] - x) < 1e-9 * np.linalg.norm(x)

    def test_shift_term_vanishes_at_zero(self, response12, stack12, rng):
        grid, _, _ = stack12
        v = rng.standard_normal(grid.size)
        m = response12.shift_term(np.zeros(grid.size), v)
        assert np.abs(m).max() == 0.0

    def test_shift_term_linear_in_direction(self, response12, stack12, rng):
        grid, disp, _ = stack12
        Tf = SlowState(0.01, 0.0).as_field(disp)
        v = rng.standard_normal(grid.size)
        m1 = response12.shift_term(Tf, v)
        m2 = response12.shift_term(Tf, 2.0 * v)
        assert np.allclose(m2, 2.0 * m1, rtol=1e-10)

    def test_shift_term_matches_the_four_point_rule(self, response12, stack12,
                                                     jacobian_fd):
        grid, disp, _ = stack12
        gen = np.random.default_rng(11)
        Ts = 0.01 * gen.standard_normal((2, 1)) * disp.winv2
        v = gen.standard_normal((2, grid.size))
        C = response12.evaluator.apply_batch
        W0 = np.broadcast_to(disp.winv, v.shape)
        fd = jacobian_fd(C, W0 + Ts, v) - jacobian_fd(C, W0, v)
        m = response12.shift_term(Ts, v)
        # the difference of two rules cancels most of their size, so
        # their rounding is amplified (measured 7.9e-12)
        assert np.abs(m - fd).max() <= 1e-10 * np.abs(fd).max()

    def test_batch_solve_matches_single(self, response12, stack12, rng):
        grid, disp, _ = stack12
        Ts = 0.01 * rng.standard_normal((3, 1)) * disp.winv2
        rhs = disp.grad[:, 0] * disp.winv
        xb, diag = response12.solve_batch(Ts, np.broadcast_to(rhs, (3, grid.size)))
        for i in range(3):
            xi, _ = response12.solve(Ts[i], rhs)
            assert np.linalg.norm(xb[i] - xi) < 1e-8 * np.linalg.norm(xi)
        # the reported residual is the relative weighted norm of the defect
        # of the returned x, per field.  The defect is a difference of terms
        # of the size of rhs, so another summation order moves it by a few
        # eps of |rhs| whatever its own size: eps in units of the relative
        # residual (measured 2e-3 eps at a defect of 3e-11 and 4e-3 eps at
        # 3.7e-14), far below the step from one iterate to the next
        ip = disp.weighted_inner()
        rhs_p = response12.model.project_out_low(rhs)
        defect = response12.model.project_out_low(
            rhs_p - (xb @ response12.model.L.T - response12.shift_term(Ts, xb)))
        expect = [ip.norm(defect[i]) / ip.norm(rhs_p) for i in range(3)]
        assert diag["residual"].shape == (3,)
        np.testing.assert_allclose(diag["residual"], expect, rtol=0.0,
                                   atol=np.finfo(float).eps)
        assert np.all(diag["residual"] <= hydrodynamics.RESPONSE_TOL)

    def test_rejects_nonpositive_background(self, response12, stack12, rng):
        grid, disp, _ = stack12
        v = rng.standard_normal(grid.size)
        with pytest.raises(ValueError):
            response12.shift_term(-2.0 * disp.winv, v)


class TestNonlinearDiffusivity:
    def test_zero_shift_reproduces_conductivity(self, response12, kappa12):
        K0 = nonlinear_diffusivity(response12, SlowState(0.0, 0.0))
        dev = np.abs(K0.matrix_op - kappa12.kappa_op).max()
        assert dev < 1e-8 * np.abs(kappa12.kappa_op).max()

    def test_shifted_matrix_positive(self, response12):
        K = nonlinear_diffusivity(response12, SlowState(0.01, 0.0))
        sym = 0.5 * (K.matrix_op + K.matrix_op.T)
        assert np.linalg.eigvalsh(sym).min() > 0.0

    def test_continuity_under_halving(self, response12):
        K0 = nonlinear_diffusivity(response12, SlowState(0.0, 0.0)).matrix_op
        K1 = nonlinear_diffusivity(response12, SlowState(0.01, 0.0)).matrix_op
        K2 = nonlinear_diffusivity(response12, SlowState(0.005, 0.0)).matrix_op
        d1 = np.abs(K1 - K0).max()
        d2 = np.abs(K2 - K0).max()
        assert 1.6 < d1 / d2 < 2.4

    def test_rejects_nonpositive_background(self, response12, stack12):
        with pytest.raises(ValueError):
            nonlinear_diffusivity(response12, SlowState(-2.0, 0.0))

    def test_residual_is_the_solvers_own(self, response12, monkeypatch):
        # the defect is measured once, by the solver: no shift term is
        # evaluated after it returns
        shift_term, solve_batch = response12.shift_term, response12.solve_batch
        calls, seen = [], {}

        def counted(Tfield, v):
            calls.append(1)
            return shift_term(Tfield, v)

        def recorded(Tfields, rhs):
            x, diag = solve_batch(Tfields, rhs)
            seen.update(diag, calls=len(calls))
            return x, diag

        monkeypatch.setattr(response12, "shift_term", counted)
        monkeypatch.setattr(response12, "solve_batch", recorded)
        K = nonlinear_diffusivity(response12, SlowState(0.01, 0.0))
        assert len(calls) == seen["calls"] > 0
        assert K.solve_residual == float(np.max(seen["residual"]))
        assert K.solve_residual <= hydrodynamics.RHS_TOL

    def test_response_surface_matches_direct(self, response12):
        model = DiffusivityModel(response12)
        direct = nonlinear_diffusivity(response12, SlowState(0.01, 0.0)).matrix_op
        dev = np.abs(model.evaluate(0.01, 0.0) - direct).max()
        assert dev < 1e-3 * np.abs(direct).max()
        assert model.curvature > 0.0

"""Collision operator: equilibria, conservation, entropy, fast path."""

import sys

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from pboltz.collision import (
    _CHUNK_VALUES,
    AUTO_WIDTH_COEF,
    EQUILIBRIUM_FAMILY,
    OMEGA_SYMMETRY_RTOL,
    PREFACTOR,
    CollisionOperator,
    DeltaKernel,
    FourierCollision,
    _rev_fft,
    equilibrium,
    exchange_conserved,
)
from pboltz.dispersion import DispersionField, DispersionParams
from pboltz.torus_grid import TorusGrid, sup_norm

import direct_sums


class TestDeltaKernel:
    def test_gaussian_has_unit_mass(self):
        k = DeltaKernel(2.0)
        assert np.isclose(k.mass(), 1.0, rtol=1e-8)

    def test_gaussian_truncated_beyond_eight_widths(self):
        k = DeltaKernel(1.0)
        assert k.weights(np.array([8.5]))[0] == 0.0
        assert k.weights(np.array([7.5]))[0] > 0.0

    @pytest.mark.parametrize("width", [0.0, -1.0, np.nan])
    def test_rejects_bad_width(self, width):
        with pytest.raises(ValueError):
            DeltaKernel(width)

    def test_auto_width_rule(self, stack8):
        grid, disp, delta = stack8
        expect = AUTO_WIDTH_COEF * disp.max_grad * np.sqrt(grid.n)
        assert np.isclose(delta.width, expect)

    def test_width_grows_slower_than_spacing_shrinks(self, params):
        widths = []
        for n in (8, 16, 32):
            grid = TorusGrid(2, n)
            disp = DispersionField(grid, params)
            widths.append(DeltaKernel.auto(grid, disp).width)
        # ~sqrt(n) growth (the gradient sup also sharpens slightly with n):
        # doubling n grows the width by ~sqrt(2), not 2
        assert 1.35 < widths[1] / widths[0] < 1.5
        assert 1.35 < widths[2] / widths[1] < 1.5


class TestEquilibrium:
    def test_first_member_is_inverse_dispersion(self, stack8):
        _, disp, _ = stack8
        assert np.allclose(equilibrium(disp, 1.0, 0.0), disp.winv)

    def test_point_values(self, stack8):
        grid, disp, _ = stack8
        W = equilibrium(disp, 2.0, 0.5)
        i0 = int(np.argmin(np.abs(grid.coords).sum(axis=1)))
        assert np.isclose(W[i0], 2.0 / 1.5)

    def test_positivity_guards(self, stack8):
        _, disp, _ = stack8
        with pytest.raises(ValueError):
            equilibrium(disp, -1.0, 0.0)
        with pytest.raises(ValueError):
            equilibrium(disp, 1.0, -1.0)  # A <= -r^2

    @given(
        T=st.floats(0.2, 5.0, allow_nan=False),
        A=st.floats(-0.9, 5.0, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_family_is_positive(self, stack8, T, A):
        _, disp, _ = stack8
        assert equilibrium(disp, T, A).min() > 0.0


class TestCollisionOperator:
    def test_equilibria_annihilated_to_tolerance(self, stack12, collision12, rng):
        # Only 1/omega is annihilated to roundoff (measured 5.8e-17 of the
        # random-state scale; 1.4e-16 by the full-plane rows).  The
        # mollified delta leaves the A != 0 members at ~0.94x the
        # random-state scale on this grid; equilibrium_tolerance() is the
        # sup of those residuals.
        grid, disp, _ = stack12
        scale = sup_norm(collision12.apply(0.1 + rng.random(grid.size)))
        assert sup_norm(collision12.apply(disp.winv)) <= 1e-14 * scale

    @pytest.mark.parametrize("evaluator", ["collision12", "fourier12"])
    def test_tolerance_is_the_sup_over_the_whole_family(self, stack12, evaluator, request):
        # equilibrium_tolerance skips W = 1/omega, whose C is zero up to
        # rounding; the sup is the same with it
        _, disp, _ = stack12
        op = request.getfixturevalue(evaluator)
        residuals = [sup_norm(op.apply(equilibrium(disp, T, A)))
                     for T, A in EQUILIBRIUM_FAMILY]
        assert op.equilibrium_tolerance() == max(residuals)

    def test_equilibrium_tolerance_decreases_with_n(self, params):
        tols = []
        for n in (8, 16):
            grid = TorusGrid(2, n)
            disp = DispersionField(grid, params)
            op = CollisionOperator(grid, disp, DeltaKernel.auto(grid, disp))
            tols.append(op.equilibrium_tolerance())
        assert tols[1] < tols[0]

    def test_zeroth_moment_cancels_exactly(self, stack12, collision12, rng):
        grid, disp, _ = stack12
        for _ in range(5):
            W = 0.1 + rng.random(grid.size)
            c = collision12.apply(W)
            m0, _ = collision12.conservation_residuals(W, c)
            assert abs(m0) <= 1e-14 * sup_norm(c)

    def test_energy_moment_reflects_mollifier_bias(self, stack12, collision12, rng):
        # the omega-weighted moment picks up the off-shell bias of the
        # energy mollifier; it is far from machine zero but bounded by the
        # collision scale
        grid, _, _ = stack12
        W = 0.1 + rng.random(grid.size)
        c = collision12.apply(W)
        _, m1 = collision12.conservation_residuals(W, c)
        assert abs(m1) < sup_norm(c)
        assert abs(m1) > 1e-12 * sup_norm(c)

    @pytest.mark.parametrize("residual, holds", [
        (2e-10, True), (-2e-10, True), (3e-10, False), (np.nan, False),
    ])
    def test_exchange_conserved_to_1e_10_of_sup(self, residual, holds):
        assert exchange_conserved(residual, 2.0) is holds

    def test_commutes_with_reflection(self, stack12, collision12, rng):
        grid, _, _ = stack12
        W = 0.1 + rng.random(grid.size)
        for perm in (grid.flatten(-grid.multi_index), grid.axis_reflection(0)):
            lhs = collision12.apply(W[perm])
            rhs = collision12.apply(W)[perm]
            assert np.allclose(lhs, rhs, atol=1e-15 + 1e-12 * sup_norm(rhs))

    @pytest.mark.parametrize("d, n", [(2, 12), (3, 8)])
    def test_worker_count_does_not_change_output(self, d, n):
        # more threads than cores, switching often: a lost or misplaced
        # shell write would change the bytes
        grid, disp, delta = _stack(d, n)
        W = 0.1 + np.random.default_rng(n).random(grid.size)
        one = CollisionOperator(grid, disp, delta, workers=1)
        three = CollisionOperator(grid, disp, delta, workers=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert np.array_equal(one.apply(W), three.apply(W))
            assert one.entropy_production(W) == three.entropy_production(W)
        finally:
            sys.setswitchinterval(interval)


class TestShellSums:
    """The direct sums by momentum shell, one kernel matrix per orbit of the
    point group on the shells, against the full-plane rows of
    `direct_sums`: the same summands, factored per pair and summed in
    another order."""

    @pytest.mark.parametrize("n, width", [(8, "auto"), (12, "auto"), (16, "auto"),
                                          (12, "narrow")])
    def test_apply_and_entropy_match_the_full_plane_sums(self, n, width):
        grid, disp, delta = _stack(2, n)
        if width == "narrow":  # more of the weights truncated
            delta = DeltaKernel(2.0)
        op = CollisionOperator(grid, disp, delta)
        rng = np.random.default_rng(n)
        states = [0.1 + rng.random(grid.size) for _ in range(2)]
        states += [equilibrium(disp, T, A) for T, A in EQUILIBRIUM_FAMILY]
        scale = 0.0
        for W in states:
            ref = direct_sums.collision_apply(grid, disp, delta, W)
            # measured <= 6.1e-16 of the largest sup|C| so far; the
            # random states come first, and 1/omega's C is ~1e-21 either way
            scale = max(scale, sup_norm(ref))
            bound = 2e-15 * scale
            assert sup_norm(op.apply(W) - ref) <= bound
            # measured <= 1.9e-15 relative
            sigma = direct_sums.entropy_production(grid, disp, delta, W)
            assert _relative(op.entropy_production(W), sigma) <= 1e-14

    def test_sampled_rows_match_the_full_plane_in_three_dimensions(self):
        # d = 3, n = 8: 512 shells in 35 orbits of the order-48 group.  Every
        # row sums over every shell, so sampled rows see every member's
        # columns; the entropy production is the full sum.
        grid, disp, delta = _stack(3, 8)
        op = CollisionOperator(grid, disp, delta)
        assert len(grid.point_group()) == 48 and len(op._orbits) == 35
        rng = np.random.default_rng(8)
        W = 0.1 + rng.random(grid.size)
        rows = rng.choice(grid.size, size=8, replace=False)
        for state in (W, equilibrium(disp, 2.0, 0.5)):
            got = op.apply(state)
            ref = direct_sums.collision_apply(grid, disp, delta, state, rows)
            # measured 4.2e-17 (random) and 1.8e-18 (equilibrium) of sup|C|
            assert sup_norm(got[rows] - ref) <= 2e-15 * sup_norm(got)
        sigma = direct_sums.entropy_production(grid, disp, delta, W)
        # measured 0 relative (the same double)
        assert _relative(op.entropy_production(W), sigma) <= 1e-14

    @pytest.mark.parametrize("d, n", [(2, 12), (3, 8)])
    def test_orbits_partition_the_shells_into_their_own_pairs(self, d, n):
        # each shell lies in exactly one orbit, and the representative's
        # pairs mapped by a member's group element are that member's own
        # unordered pairs {a, m - a}, with the same multiplicities
        grid, disp, delta = _stack(d, n)
        op = CollisionOperator(grid, disp, delta)
        nodes = np.arange(grid.size)
        seen = np.zeros(grid.size, dtype=int)
        for members, A, B, mult, K in op._orbit_pairs(range(len(op._orbits))):
            seen[members] += 1
            assert K.shape == (mult.size, mult.size)
            for j, m in enumerate(members):
                partner = grid.flatten(grid.multi_index[m] - grid.multi_index)
                own = np.flatnonzero(nodes <= partner)
                lo = np.minimum(A[:, j], B[:, j])
                order = np.argsort(lo)
                assert np.array_equal(lo[order], own)
                hi = np.maximum(A[:, j], B[:, j])[order]
                assert np.array_equal(hi, partner[own])
                assert np.array_equal(mult[order],
                                      np.where(own == partner[own], 1.0, 2.0))
        assert np.all(seen == 1)

    def test_rejects_a_dispersion_off_the_point_group(self):
        # omega is exactly invariant at n = 8; one node moved by half the
        # bound is accepted, by twice the bound rejected
        grid, disp, delta = _stack(2, 8)
        assert np.array_equal(disp.w[grid.point_group()], np.tile(disp.w, (8, 1)))
        step = OMEGA_SYMMETRY_RTOL * disp.w.max()
        w = disp.w.copy()
        disp.w = w + np.where(np.arange(grid.size) == 1, 0.5 * step, 0.0)
        CollisionOperator(grid, disp, delta)
        disp.w = w + np.where(np.arange(grid.size) == 1, 2.0 * step, 0.0)
        with pytest.raises(ValueError, match="point group"):
            CollisionOperator(grid, disp, delta)


class TestEntropy:
    def test_nonnegative_on_random_states(self, stack12, collision12, rng):
        grid, _, _ = stack12
        for _ in range(5):
            W = 0.1 + rng.random(grid.size)
            assert collision12.entropy_production(W) >= 0.0

    def test_small_on_equilibria(self, stack12, collision12):
        _, disp, _ = stack12
        tol = collision12.equilibrium_tolerance()
        for T, A in EQUILIBRIUM_FAMILY:
            assert collision12.entropy_production(equilibrium(disp, T, A)) <= tol

    def test_positive_on_noninvariant_perturbation(self, stack12, collision12):
        # the mollifier contributes a positive off-shell floor at any state,
        # so only positivity and the scale (same order as the equilibrium
        # floor, far below the collision sup) can be asserted here
        grid, disp, _ = stack12
        W = disp.winv + 0.1 / (2.0 + np.cos(2.0 * grid.coords[:, 0]))
        s = collision12.entropy_production(W)
        assert s > 0.0
        assert s < collision12.equilibrium_tolerance()

    def test_requires_positive_state(self, stack12, collision12):
        grid, _, _ = stack12
        W = np.ones(grid.size)
        W[0] = -1.0
        with pytest.raises(ValueError):
            collision12.entropy_production(W)


class TestFourierPath:
    def test_matches_direct_evaluator(self, stack12, collision12, fourier12, rng):
        grid, _, _ = stack12
        for _ in range(3):
            W = 0.1 + rng.random(grid.size)
            direct = collision12.apply(W)
            fast = fourier12.apply(W)
            assert sup_norm(fast - direct) <= 1e-10 * max(sup_norm(direct), 1e-300)

    def test_matches_direct_evaluator_for_a_narrow_kernel(self, stack12, rng):
        # a width a third of the auto rule's or less, whose cosine series
        # needs more than twice the t-nodes
        grid, disp, _ = stack12
        narrow = DeltaKernel(2.0)
        W = 0.1 + rng.random(grid.size)
        direct = CollisionOperator(grid, disp, narrow).apply(W)
        fast = FourierCollision(grid, disp, narrow).apply(W)
        assert sup_norm(fast - direct) <= 1e-10 * sup_norm(direct)

    def test_kernel_series_matches_gaussian(self, stack12, fourier12):
        _, _, delta = stack12
        u = np.linspace(-3 * delta.width, 3 * delta.width, 101)
        assert np.allclose(_kernel_values(fourier12, u), delta.weights(u), atol=1e-12)

    def test_batch_agrees_with_single(self, stack12, fourier12, rng):
        grid, _, _ = stack12
        Wb = 0.1 + rng.random((3, grid.size))
        cb = fourier12.apply_batch(Wb)
        for i in range(3):
            assert np.allclose(cb[i], fourier12.apply(Wb[i]), atol=1e-15)

    @pytest.mark.parametrize("n", [12, 16])
    def test_rows_do_not_depend_on_the_batch(self, params, rng, n):
        grid = TorusGrid(2, n)
        disp = DispersionField(grid, params)
        fourier = FourierCollision(grid, disp, DeltaKernel.auto(grid, disp))
        Wb = 0.1 + rng.random((32, grid.size))
        # the t-node chunking must take both extremes: every node in one
        # transform call at B = 1, one node per call at B = 32
        n_t = len(fourier.t_nodes)
        if n == 12:
            assert n_t * grid.size <= _CHUNK_VALUES
        assert 2 * 32 * grid.size > _CHUNK_VALUES
        full = fourier.apply_batch(Wb)
        for B in (1, 2, 3, 7, 16):
            assert np.array_equal(full[:B], fourier.apply_batch(Wb[:B]))
        lead = fourier.apply_batch(Wb[:6].reshape(2, 3, grid.size))
        assert np.array_equal(lead.reshape(6, grid.size), full[:6])

    @pytest.mark.parametrize("d, n, batches", [
        (2, 12, (1, 2, 3, 16, 32)), (2, 16, (1, 2, 3, 16, 32)), (3, 8, (1, 3))])
    def test_matches_the_four_call_oracle_bitwise(self, d, n, batches):
        grid, disp, delta, fourier = _fourier(d, n)
        gen = np.random.default_rng(n)
        for B in batches:
            Wb = 0.1 + gen.random((B, grid.size))
            assert np.array_equal(fourier.apply_batch(Wb),
                                  _four_call_apply_batch(fourier, Wb))

    def test_matches_direct_rows_in_three_dimensions(self):
        grid = TorusGrid(3, 8)
        disp = DispersionField(grid, DispersionParams(d=3, r=1.0))
        delta = DeltaKernel.auto(grid, disp)
        rng = np.random.default_rng(3)
        W = 0.1 + rng.random(grid.size)
        fast = FourierCollision(grid, disp, delta).apply(W)
        # a full direct apply at N = 512 is too slow here: sample rows
        rows = rng.choice(grid.size, size=8, replace=False)
        direct = direct_sums.collision_apply(grid, disp, delta, W, rows)
        assert sup_norm(fast[rows] - direct) <= 1e-10 * sup_norm(fast)


def _stack(d, n):
    grid = TorusGrid(d, n)
    disp = DispersionField(grid, DispersionParams(d=d, r=1.0))
    return grid, disp, DeltaKernel.auto(grid, disp)


def _kernel_values(fourier, u):
    """The cosine-series kernel of `fourier` at energies u."""
    return np.tensordot(fourier.t_weights,
                        np.cos(np.multiply.outer(fourier.t_nodes, u)), axes=(0, 0))


def _fourier(d, n):
    grid, disp, delta = _stack(d, n)
    return grid, disp, delta, FourierCollision(grid, disp, delta)


def _four_call_apply_batch(fourier, Wb):
    """`FourierCollision.apply_batch` with one transform call per leg and
    per back product in each chunk of t-nodes, a fresh array per operation:
    the oracle of the stacked, buffered evaluator."""
    Wb = np.asarray(Wb, dtype=float)
    lead = Wb.shape[:-1]
    N = fourier.grid.size
    W = Wb.reshape((-1,) + fourier._shape)
    axes = fourier._axes
    acc = np.zeros(W.shape)
    step = max(1, _CHUNK_VALUES // max(1, W.size))
    for j0 in range(0, len(fourier.t_nodes), step):
        nodes = slice(j0, j0 + step)
        b = fourier._b[nodes, None]
        a = b * W
        c = fourier._phase[nodes, None] * W
        R = _rev_fft(a, axes)
        D = fourier._rev_Fb[nodes, None] - _rev_fft(c, axes)
        Rc = np.conj(R)
        R2 = R.real * R.real + R.imag * R.imag
        SB = scipy.fft.ifftn(R2 * Rc, axes=axes)
        SA = scipy.fft.ifftn(Rc * Rc * D - 2.0 * R2 * np.conj(D), axes=axes)
        term = np.real((b - c) * SB + a * SA)
        for i, weight in enumerate(fourier.t_weights[nodes]):
            acc += weight * term[i]
    return (PREFACTOR / N**2) * acc.reshape(lead + (N,))


class TestFourierJacobian:
    """FourierCollision.jvp against the four-point rule and against L."""

    @pytest.mark.parametrize("B", [2, 16])
    def test_matches_the_four_point_rule(self, stack12, fourier12, jacobian_fd, B):
        grid, _, _ = stack12
        rng = np.random.default_rng(B)
        W = 0.1 + rng.random((B, grid.size))
        v = rng.standard_normal((B, grid.size))
        fd = jacobian_fd(fourier12.apply_batch, W, v)
        # the rule's own rounding dominates (measured 3.9e-13 and 6.5e-13)
        assert sup_norm(fourier12.jvp(W, v) - fd) <= 1e-12 * sup_norm(fd)

    def test_is_minus_L_at_the_equilibrium(self, stack12, fourier12, operators12):
        grid, disp, _ = stack12
        L = operators12[2]
        v = np.random.default_rng(7).standard_normal((3, grid.size))
        Lv = v @ L.T
        J = fourier12.jvp(disp.winv, v)
        # J(1/omega) = -L exactly; measured 5.4e-16 relative
        assert sup_norm(J + Lv) <= 1e-13 * sup_norm(Lv)

    def test_rows_do_not_depend_on_the_batch(self):
        grid, disp, delta, fourier = _fourier(2, 8)
        gen = np.random.default_rng(8)
        Wb = 0.1 + gen.random((72, grid.size))
        vb = gen.standard_normal((72, grid.size))
        # the chunk counts four legs: every node in one call at B = 1, one
        # node per call at B = 72
        assert 2 * len(fourier.t_nodes) * grid.size <= _CHUNK_VALUES
        assert 2 * 72 * grid.size > _CHUNK_VALUES
        full = fourier.jvp(Wb, vb)
        for B in (1, 2, 3, 16):
            assert np.array_equal(full[:B], fourier.jvp(Wb[:B], vb[:B]))
        # a single background broadcasts against a batch of directions
        one = fourier.jvp(Wb[0], vb[:3])
        assert np.array_equal(one[0], full[0])
        assert np.array_equal(one[1], fourier.jvp(Wb[0], vb[1]))


class TestInvariantsInThreeDimensions:
    """The FFT evaluator at d = 3, n = 8 (N = 512)."""

    @pytest.fixture(scope="class")
    def fourier3(self):
        return _fourier(3, 8)

    def test_equilibria_annihilated_up_to_the_width_bias(self, fourier3):
        grid, disp, delta, fourier = fourier3
        W_random = 0.1 + np.random.default_rng(4).random(grid.size)
        scale = sup_norm(fourier.apply(W_random))
        _, disp12, _, fourier12 = _fourier(3, 12)
        rows = np.random.default_rng(5).choice(grid.size, size=4, replace=False)
        for T, A in EQUILIBRIUM_FAMILY:
            W = equilibrium(disp, T, A)
            c = fourier.apply(W)
            if A == 0.0:
                # the bracket vanishes identically at T / omega
                assert sup_norm(c) <= 1e-14 * scale
                continue
            # otherwise only on the energy shell: the residual is the
            # direct operator's own mollifier bias, and it shrinks as the
            # grid is refined at the production width rule
            ref = direct_sums.collision_apply(grid, disp, delta, W, rows)
            assert sup_norm(c[rows] - ref) <= 1e-10 * sup_norm(c)
            assert sup_norm(fourier12.apply(equilibrium(disp12, T, A))) < sup_norm(c)

    def test_number_is_conserved(self, fourier3):
        grid, _, _, fourier = fourier3
        W = 0.1 + np.random.default_rng(6).random((5, grid.size))
        c = fourier.apply_batch(W)
        assert np.all(np.abs(c.mean(axis=1)) <= 1e-14 * sup_norm(c))


def _relative(fast, direct):
    return abs(fast - direct) / abs(direct)


class TestFourierEntropy:
    """FourierCollision.entropy_production against the direct sum."""

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_matches_direct_sum_on_random_states(self, n):
        grid, disp, delta = _stack(2, n)
        direct = CollisionOperator(grid, disp, delta)
        fourier = FourierCollision(grid, disp, delta)
        rng = np.random.default_rng(n)
        for _ in range(2):
            W = 0.2 + 1.3 * rng.random(grid.size)
            rel = _relative(fourier.entropy_production(W), direct.entropy_production(W))
            assert rel <= 1e-12

    def test_matches_direct_sum_on_the_equilibria(self, stack12, collision12, fourier12):
        _, disp, _ = stack12
        for T, A in EQUILIBRIUM_FAMILY:
            W = equilibrium(disp, T, A)
            rel = _relative(fourier12.entropy_production(W),
                            collision12.entropy_production(W))
            assert rel <= 1e-12

    def test_matches_direct_sum_on_the_ripple_probe(self, stack12, collision12, fourier12):
        # acceptance 03's probe: a 10% ripple on 1/omega, where the
        # 4 R0^2 + 4 R0 R1 - 8 R0 R2 combination cancels the most
        grid, disp, _ = stack12
        W = equilibrium(disp, 1.0, 0.0) * (1.0 + 0.1 * np.cos(grid.coords[:, 0]))
        fast = fourier12.entropy_production(W)
        assert _relative(fast, collision12.entropy_production(W)) <= 1e-12
        assert fast > 0.0

    def test_matches_direct_sum_in_three_dimensions(self):
        grid, disp, delta = _stack(3, 8)
        W = 0.2 + 1.3 * np.random.default_rng(7).random(grid.size)
        fast = FourierCollision(grid, disp, delta).entropy_production(W)
        direct = CollisionOperator(grid, disp, delta).entropy_production(W)
        assert _relative(fast, direct) <= 1e-12

    def test_repeated_calls_are_bitwise_equal(self, stack12, fourier12, rng):
        grid, _, _ = stack12
        W = 0.2 + 1.3 * rng.random(grid.size)
        assert fourier12.entropy_production(W) == fourier12.entropy_production(W.copy())

    def test_rejects_wrong_length_and_nonpositive_states(self, stack12, fourier12):
        grid, _, _ = stack12
        with pytest.raises(ValueError):
            fourier12.entropy_production(np.ones(grid.size + 1))
        for bad in (0.0, -1.0):
            W = np.ones(grid.size)
            W[3] = bad
            with pytest.raises(ValueError):
                fourier12.entropy_production(W)

    def test_shares_the_diagnostics_of_the_direct_operator(
        self, stack12, collision12, fourier12, rng
    ):
        grid, _, _ = stack12
        W = 0.2 + 1.3 * rng.random(grid.size)
        C = fourier12.apply(W)
        number, energy = fourier12.conservation_residuals(W)
        assert (number, energy) == fourier12.conservation_residuals(W, C)
        _, energy_direct = collision12.conservation_residuals(W)
        assert abs(number) <= 1e-14 * sup_norm(C)
        assert abs(energy - energy_direct) <= 1e-12 * sup_norm(C)
        tau = fourier12.equilibrium_tolerance()
        assert _relative(tau, collision12.equilibrium_tolerance()) <= 1e-12


def _arithmetic_leg3(grid, i0):
    """The flat index of k3 = k0 + k1 - k2 by per-axis integer arithmetic,
    the way the direct sums computed it before they gathered it."""
    mi = grid.multi_index
    return ((mi[i0] + (mi[:, None, :] - mi[None, :, :])) % grid.n) @ grid.strides


def _arithmetic_M_rows(grid, disp, delta, out, rows):
    """`direct_sums.M_rows` with the arithmetic index."""
    N = grid.size
    w, winv2 = disp.w, disp.winv2
    pref12 = winv2[:, None] * winv2[None, :]
    for i0 in rows:
        i3 = _arithmetic_leg3(grid, i0)
        u = (w[i0] + w[:, None]) - (w[None, :] + w[i3])
        out[i0] = PREFACTOR * np.sum(pref12 * winv2[i3] * delta.weights(u)) / N**2


class TestGatheredLegThree:
    """The full-plane oracle sums gather k3 from an index table; each
    result is bitwise the one of the per-axis arithmetic index with the same
    operations."""

    def test_shift_permutation(self):
        grid = TorusGrid(2, 8)
        delta = np.array([3, -2])
        perm = direct_sums.shift_permutation(grid, delta)
        expect = grid.flatten(grid.multi_index + delta)
        assert np.array_equal(perm, expect)

    def test_gaussian_weights_are_the_closed_form(self):
        k = DeltaKernel(0.7)
        u = np.concatenate([
            np.random.default_rng(6).standard_normal(4096) * 3.0,
            [0.0, -0.0, 5.6, -5.6, 5.6000001, 1e-300, -1e300, np.inf, -np.inf, np.nan],
        ])
        with np.errstate(over="ignore"):  # z * z at |u| = 1e300
            z = u / k.width
            vals = np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * k.width)
            expect = np.where(np.abs(z) <= k.TRUNCATION, vals, 0.0)
            got = k.weights(u)
        assert np.array_equal(got, expect)
        assert k.weights(u[0]).shape == ()

    @pytest.mark.parametrize("d, n, count", [(2, 8, None), (2, 12, None), (3, 8, 8)])
    def test_direct_M_rows_match_the_arithmetic_index(self, d, n, count):
        grid, disp, delta = _stack(d, n)
        rows = np.arange(grid.size)
        if count is not None:
            rows = np.random.default_rng(9).choice(grid.size, size=count, replace=False)
        got, expect = np.zeros(grid.size), np.zeros(grid.size)
        direct_sums.M_rows(grid, disp, delta, got, rows)
        _arithmetic_M_rows(grid, disp, delta, expect, rows)
        assert np.array_equal(got, expect)

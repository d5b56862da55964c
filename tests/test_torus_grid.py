"""Grid, quadrature, and index-permutation behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboltz.dispersion import DispersionField, DispersionParams, omega
from pboltz.torus_grid import (
    TorusGrid,
    WeightedInnerProduct,
    sup_norm,
)


def cos_power_constant_term(power):
    """Constant Fourier coefficient of (5 - 2cos a - 2cos b)^power, by sympy.

    Independent oracle for the quadrature of dispersion powers: the grid
    trapezoid rule integrates trigonometric polynomials of degree < n
    exactly, so integrate(omega^m) must equal this constant term.
    """
    import sympy as sp

    a, b = sp.symbols("a b")
    expr = sp.expand_trig(sp.expand((5 - 2 * sp.cos(a) - 2 * sp.cos(b)) ** power))
    val = sp.integrate(sp.integrate(expr, (a, -sp.pi, sp.pi)), (b, -sp.pi, sp.pi))
    return float(val / (4 * sp.pi**2))


class TestTorusGrid:
    def test_basic_shapes(self):
        grid = TorusGrid(2, 8)
        assert grid.size == 64
        assert grid.coords.shape == (64, 2)
        assert grid.multi_index.shape == (64, 2)
        assert np.isclose(grid.h, 2 * np.pi / 8)

    def test_coords_cover_half_open_box(self):
        grid = TorusGrid(2, 8)
        assert np.isclose(grid.coords.min(), -np.pi)
        assert np.isclose(grid.coords.max(), np.pi - grid.h)

    @pytest.mark.parametrize("bad", [(1, 8), (2, 7), (2, 4), (4, 8)])
    def test_rejects_bad_dimensions(self, bad):
        d, n = bad
        with pytest.raises(ValueError):
            TorusGrid(d, n)

    def test_integrate_constant(self):
        grid = TorusGrid(2, 8)
        assert grid.integrate(np.ones(grid.size)) == 1.0

    def test_integrate_matches_symbolic_moments(self):
        # omega = (2 sum(1-cos) + r)^2; its first two moments for d=2, r=1
        # have closed forms 29 and 1261 (constant terms of the expanded
        # trigonometric polynomial), exact on any admissible grid.
        grid = TorusGrid(2, 8)
        disp = DispersionField(grid, DispersionParams(2, 1.0))
        assert np.isclose(grid.integrate(disp.w), 29.0, rtol=1e-14)
        assert np.isclose(grid.integrate(disp.w_sq), 1261.0, rtol=1e-14)
        assert np.isclose(cos_power_constant_term(2), 29.0)
        assert np.isclose(cos_power_constant_term(4), 1261.0)

    def test_integrate_exact_under_refinement(self):
        vals = []
        for n in (8, 12, 16):
            grid = TorusGrid(2, n)
            disp = DispersionField(grid, DispersionParams(2, 1.0))
            vals.append(grid.integrate(disp.w_sq))
        assert np.allclose(vals, 1261.0, rtol=1e-13)

    def test_integrate_batch_leading_axes(self, rng):
        grid = TorusGrid(2, 8)
        f = rng.standard_normal((3, 5, grid.size))
        out = grid.integrate(f)
        assert out.shape == (3, 5)
        assert np.allclose(out, f.mean(axis=-1))

    def test_integrate_rejects_wrong_length(self):
        grid = TorusGrid(2, 8)
        with pytest.raises(ValueError):
            grid.integrate(np.ones(grid.size + 1))

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_integrate_linear(self, a, b, seed):
        grid = TorusGrid(2, 8)
        r = np.random.default_rng(seed)
        f, g = r.standard_normal((2, grid.size))
        lhs = grid.integrate(a * f + b * g)
        rhs = a * grid.integrate(f) + b * grid.integrate(g)
        assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestPermutations:
    def test_reflection_is_involution(self):
        grid = TorusGrid(2, 8)
        perm = grid.reflection()
        assert np.array_equal(perm[perm], np.arange(grid.size))

    def test_axis_reflections_compose_to_full(self):
        grid = TorusGrid(2, 8)
        p0 = grid.axis_reflection(0)
        p1 = grid.axis_reflection(1)
        assert np.array_equal(p0[p1], grid.reflection())

    def test_axis_reflection_negates_coordinate(self):
        grid = TorusGrid(2, 8)
        perm = grid.axis_reflection(0)
        k = grid.coords
        kr = k[perm]
        # -pi maps to itself (mod 2 pi); interior points flip sign
        interior = np.abs(k[:, 0] + np.pi) > 1e-12
        assert np.allclose(kr[interior, 0], -k[interior, 0])
        assert np.allclose(kr[:, 1], k[:, 1])

    def test_shift_permutation(self):
        grid = TorusGrid(2, 8)
        delta = np.array([3, -2])
        perm = grid.shift(delta)
        expect = grid.flatten(grid.multi_index + delta)
        assert np.array_equal(perm, expect)

    def test_axis_permutation_swaps(self):
        grid = TorusGrid(2, 8)
        perm = grid.axis_permutation((1, 0))
        assert np.allclose(grid.coords[perm][:, 0], grid.coords[:, 1])

    def test_flatten_wraps_modulo(self):
        grid = TorusGrid(2, 8)
        mi = grid.multi_index
        assert np.array_equal(grid.flatten(mi + 8), np.arange(grid.size))

    @pytest.mark.parametrize("d, n", [(2, 8), (2, 10), (3, 8)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_pair_index_is_the_flat_index_of_the_sum(self, d, n, sign):
        grid = TorusGrid(d, n)
        mi = grid.multi_index
        expect = grid.flatten(mi[:, None, :] + sign * mi[None, :, :])
        index = grid.pair_index(sign)
        assert index.shape == (grid.size, grid.size)
        assert np.array_equal(index, expect)


class TestRealFrameCoordinates:
    def test_round_trip(self, rng):
        grid = TorusGrid(2, 8)
        frame = grid.symmetry_frame(range(2))
        f = rng.standard_normal((3, grid.size))
        back = frame.from_real_coordinates(frame.real_coordinates(f))
        assert np.abs(back - f).max() < 1e-14

    def test_a_field_of_definite_parity_fills_one_sector_exactly(self, rng):
        # odd in axis 0, even in axis 1: the character of sector 1
        grid = TorusGrid(2, 8)
        frame = grid.symmetry_frame(range(2))
        f = rng.standard_normal(grid.size)
        f = f - f[grid.axis_reflection(0)]
        f = f + f[grid.axis_reflection(1)]
        y = frame.real_coordinates(f)
        for k, s in enumerate(frame.sectors):
            assert np.all(y[s] == 0.0) != (k == 1)


class TestWeightedInnerProduct:
    def test_weight_must_be_positive(self):
        grid = TorusGrid(2, 8)
        w = np.ones(grid.size)
        w[0] = 0.0
        with pytest.raises(ValueError):
            WeightedInnerProduct(grid, w)

    def test_inner_conjugate_linear_first_slot(self, rng):
        grid = TorusGrid(2, 8)
        ip = WeightedInnerProduct(grid, np.ones(grid.size))
        f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        g = rng.standard_normal(grid.size)
        assert np.isclose(ip.inner(1j * f, g), -1j * ip.inner(f, g))

    def test_norm_of_indicator(self):
        grid = TorusGrid(2, 8)
        ip = WeightedInnerProduct(grid, np.full(grid.size, 4.0))
        f = np.zeros(grid.size)
        f[5] = 1.0
        assert np.isclose(ip.norm(f), np.sqrt(4.0 / grid.size))


class TestHelpers:
    def test_sup_norm(self, rng):
        f = rng.standard_normal(32)
        assert sup_norm(f) == np.abs(f).max()

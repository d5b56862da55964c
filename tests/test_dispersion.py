"""Dispersion values, gradients, and field caches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboltz.dispersion import (
    DispersionField,
    DispersionParams,
    grad_omega,
    omega,
    omega0_sq,
)
from pboltz.torus_grid import TorusGrid


class TestPointValues:
    """Closed-form anchors of omega(k) = (2 sum_j (1 - cos k_j) + r)^2."""

    def test_origin(self):
        p = DispersionParams(2, 1.0)
        assert omega(np.zeros(2), p) == 1.0

    def test_corner(self):
        p = DispersionParams(2, 1.0)
        assert np.isclose(omega(np.array([np.pi, np.pi]), p), 81.0)

    def test_half_pi(self):
        p = DispersionParams(2, 1.0)
        assert np.isclose(omega(np.array([np.pi / 2, 0.0]), p), 9.0)

    def test_gradient_at_half_pi(self):
        p = DispersionParams(2, 1.0)
        g = grad_omega(np.array([np.pi / 2, 0.0]), p)
        assert np.allclose(g, [12.0, 0.0])

    def test_range(self):
        grid = TorusGrid(2, 16)
        p = DispersionParams(2, 1.0)
        w = omega(grid.coords, p)
        assert np.isclose(w.min(), p.r**2)
        assert np.isclose(w.max(), (4 * p.d + p.r) ** 2)

    def test_base_relation(self):
        grid = TorusGrid(2, 8)
        p = DispersionParams(2, 1.0)
        assert np.allclose(omega(grid.coords, p), omega0_sq(grid.coords, p) ** 2)

    @given(r=st.floats(0.1, 4.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_minimum_scales_with_pinning(self, r):
        p = DispersionParams(2, r)
        assert np.isclose(omega(np.zeros(2), p), r**2)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        """Central-difference oracle with step halving: error drops ~4x."""
        p = DispersionParams(2, 1.0)
        pts = -np.pi + 2 * np.pi * rng.random((20, 2))
        g = grad_omega(pts, p)
        errors = []
        for h in (1e-3, 5e-4):
            fd = np.empty_like(g)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[:, j] = (omega(pts + e, p) - omega(pts - e, p)) / (2 * h)
            errors.append(np.max(np.abs(fd - g)))
        assert errors[0] < 1e-4
        assert errors[0] / errors[1] > 3.0

    def test_odd_under_reflection(self):
        grid = TorusGrid(2, 8)
        p = DispersionParams(2, 1.0)
        g = grad_omega(grid.coords, p)
        perm = grid.flatten(-grid.multi_index)
        assert np.allclose(g[perm], -g, atol=1e-12)


class TestParams:
    @pytest.mark.parametrize("bad", [{"d": 1}, {"d": 4}, {"r": 0.0}, {"r": -1.0}])
    def test_validation(self, bad):
        kw = {"d": 2, "r": 1.0}
        kw.update(bad)
        with pytest.raises(ValueError):
            DispersionParams(**kw)

    def test_frozen(self):
        p = DispersionParams(2, 1.0)
        with pytest.raises(Exception):
            p.r = 2.0


class TestField:
    def test_caches_consistent(self, stack8):
        grid, disp, _ = stack8
        assert np.allclose(disp.w, omega(grid.coords, disp.params))
        assert np.allclose(disp.w_sq, disp.w**2)
        assert np.allclose(disp.winv * disp.w, 1.0)
        assert np.allclose(disp.winv2 * disp.w_sq * disp.w_sq, disp.w_sq)
        assert disp.grad.shape == (grid.size, 2)
        assert np.isclose(disp.max_grad, np.max(np.abs(disp.grad)))

    def test_moments(self, stack8):
        grid, disp, _ = stack8
        assert np.isclose(grid.integrate(disp.w), 29.0)
        assert np.isclose(grid.integrate(disp.w_sq), 1261.0)

    def test_weighted_inner_uses_square_weight(self, stack8):
        grid, disp, _ = stack8
        ip = disp.weighted_inner()
        # ||omega^-1||_H = sqrt(integrate(1)) = 1
        assert np.isclose(ip.norm(disp.winv), 1.0)
        # (omega^-1, omega^-2)_H = integrate(omega^-1)
        assert np.isclose(
            ip.inner(disp.winv, disp.winv2), grid.integrate(disp.winv)
        )

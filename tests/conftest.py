"""Shared fixtures: small grids with assembled operators, reused per session,
and a seeded generator per test."""

import numpy as np
import pytest

from pboltz.collision import CollisionOperator, DeltaKernel, FourierCollision
from pboltz.dispersion import DispersionField, DispersionParams
from pboltz.hydrodynamics import CollisionResponse, LinearModel, compute_kappa
from pboltz.linearized import assemble_K, assemble_L, assemble_M
from pboltz.torus_grid import TorusGrid


@pytest.fixture(scope="session")
def params():
    return DispersionParams(d=2, r=1.0)


@pytest.fixture(scope="session")
def stack8(params):
    grid = TorusGrid(2, 8)
    disp = DispersionField(grid, params)
    delta = DeltaKernel.auto(grid, disp)
    return grid, disp, delta


@pytest.fixture(scope="session")
def stack12(params):
    grid = TorusGrid(2, 12)
    disp = DispersionField(grid, params)
    delta = DeltaKernel.auto(grid, disp)
    return grid, disp, delta


@pytest.fixture(scope="session")
def collision12(stack12):
    grid, disp, delta = stack12
    return CollisionOperator(grid, disp, delta)


@pytest.fixture(scope="session")
def fourier12(stack12):
    grid, disp, delta = stack12
    return FourierCollision(grid, disp, delta)


@pytest.fixture(scope="session")
def operators12(stack12):
    grid, disp, delta = stack12
    M = assemble_M(grid, disp, delta)
    K = assemble_K(grid, disp, delta)
    L = assemble_L(grid, disp, delta)
    return M, K, L


@pytest.fixture(scope="session")
def model12(operators12, stack12):
    _, disp, _ = stack12
    return LinearModel(operators12[2], disp)


@pytest.fixture(scope="session")
def kappa12(model12):
    return compute_kappa(model12)


@pytest.fixture(scope="session")
def response12(fourier12, model12):
    return CollisionResponse(fourier12, model12)


@pytest.fixture
def rng():
    """A fresh generator per test, so what a test draws does not depend on
    which tests ran before it."""
    return np.random.default_rng(20260823)


def _jacobian_fd(apply_batch, W, v):
    """Four-point central rule at +-eps, +-2eps, eps = 1e-3 / max|v| per
    field: no truncation error for the quartic collision rate, so it is the
    exact Jacobian action up to roundoff.  The oracle of
    `FourierCollision.jvp`."""
    scale = np.max(np.abs(v), axis=-1, keepdims=True)
    eps = 1e-3 / np.where(scale == 0.0, 1.0, scale)
    c1 = apply_batch(W + eps * v) - apply_batch(W - eps * v)
    c2 = apply_batch(W + 2.0 * eps * v) - apply_batch(W - 2.0 * eps * v)
    return (8.0 * c1 - c2) / (12.0 * eps)


@pytest.fixture(scope="session")
def jacobian_fd():
    return _jacobian_fd

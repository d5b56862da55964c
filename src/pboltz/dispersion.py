"""Pinned-lattice dispersion and its gradient.

The oscillator band is ``omega(k) = (2*sum_j(1 - cos k_j) + r)**2`` with
pinning r > 0: omega is even and bounded between r^2 (at k = 0) and
(4d + r)^2 (at the zone corner), and its gradient
``d_j omega = 4 sin(k_j) * (2*sum(1 - cos) + r)`` is odd and closed-form —
the transport term uses the analytic gradient, never a numerical one, so
parity identities downstream hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DispersionParams", "omega0_sq", "omega", "grad_omega", "DispersionField"]


@dataclass(frozen=True)
class DispersionParams:
    d: int = 2
    r: float = 1.0

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.r <= 0:
            raise ValueError(f"pinning r must be > 0, got {self.r}")


def omega0_sq(k, params):
    """``2*sum_j (1 - cos k_j) + r`` — the squared acoustic-like band.

    Accepts a point of shape (d,) or a batch (..., d); returns values >= r.
    """
    k = np.asarray(k, dtype=float)
    return 2.0 * np.sum(1.0 - np.cos(k), axis=-1) + params.r


def omega(k, params):
    """The dispersion: square of :func:`omega0_sq`.  Even in k, >= r^2."""
    return omega0_sq(k, params) ** 2


def grad_omega(k, params):
    """Analytic gradient, ``4 sin(k_j) * omega0_sq(k)`` per component.

    Odd in k; vanishes at all points with every k_j in {0, pi}.
    """
    k = np.asarray(k, dtype=float)
    return 4.0 * np.sin(k) * omega0_sq(k, params)[..., None]


class DispersionField:
    """Dispersion data tabulated on a grid (flat node order).

    Attributes
    ----------
    w        : omega at the nodes
    winv     : 1/omega  (the T = 1, A = 0 equilibrium state)
    winv2    : 1/omega^2
    grad     : (size, d) array of the gradient
    w_sq     : omega^2, the inner-product weight
    max_grad : max over nodes and components of |d_j omega|
    """

    def __init__(self, grid, params):
        if params.d != grid.d:
            raise ValueError("grid and dispersion dimensions differ")
        self.grid = grid
        self.params = params
        base = omega0_sq(grid.coords, params)
        self.base = base
        self.w = base**2
        self.w_sq = self.w**2
        self.winv = 1.0 / self.w
        self.winv2 = self.winv**2
        self.grad = 4.0 * np.sin(grid.coords) * base[:, None]
        self.max_grad = float(np.abs(self.grad).max())

    def weighted_inner(self):
        """The omega^2-weighted inner product on this grid."""
        from .torus_grid import WeightedInnerProduct

        return WeightedInnerProduct(self.grid, self.w_sq)

    def similarity(self, A):
        """diag(omega) A diag(omega)^-1: symmetric iff A is H-self-adjoint."""
        return (self.w[:, None] / self.w[None, :]) * A

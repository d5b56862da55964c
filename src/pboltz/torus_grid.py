"""Uniform tensor grids on the d-torus, normalized quadrature, and the
weighted inner product.

Conventions used throughout the package:

* the torus is [-pi, pi)^d with node ``k_j = -pi + j*h``, ``h = 2*pi/n``;
* the measure is normalized, ``int dk = 1``, so node-mean quadrature is the
  exact trapezoid rule on the torus (exact for trigonometric polynomials of
  degree < n);
* a "k-field" is a flat numpy array of length ``n**d`` in C order over the
  axes; helper permutations on :class:`TorusGrid` implement reflections and
  axis swaps as index relabelings (the lattice is closed under both).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TorusGrid",
    "WeightedInnerProduct",
    "sup_norm",
    "parity_split",
]


class TorusGrid:
    """Uniform lattice on the d-torus with normalized measure.

    Parameters
    ----------
    d : spatial dimension, 2 or 3.
    n : nodes per axis; even and >= 8 so that k = 0 and the axis midpoints
        are nodes and reflection k -> -k maps the lattice to itself.
    """

    def __init__(self, d, n):
        if d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {d}")
        if n < 8 or n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {n}")
        self.d = int(d)
        self.n = int(n)
        self.h = 2.0 * np.pi / self.n
        self.size = self.n**self.d
        self.axis_coords = -np.pi + self.h * np.arange(self.n)

        # Flat C-order enumeration of nodes: multi_index[i] are the per-axis
        # integer coordinates of node i, coords[i] the k-point.
        mesh = np.meshgrid(*([np.arange(self.n)] * self.d), indexing="ij")
        self.multi_index = np.stack([m.ravel() for m in mesh], axis=1)
        self.coords = -np.pi + self.h * self.multi_index.astype(float)
        self.strides = self.n ** np.arange(self.d - 1, -1, -1)

    # ------------------------------------------------------------------
    # quadrature

    def integrate(self, f):
        """Normalized torus quadrature: n^{-d} * sum of node values.

        Node-mean = trapezoid on the torus; numpy's pairwise summation keeps
        the reduction order fixed, so repeated evaluations are bit-identical.
        """
        f = np.asarray(f)
        if f.shape[-1] != self.size:
            raise ValueError(
                f"field length {f.shape[-1]} does not match grid size {self.size}"
            )
        return f.mean(axis=-1)

    # ------------------------------------------------------------------
    # index maps (all pure relabelings, cached on first use)

    def flatten(self, multi):
        """Flat index of per-axis integer coordinates (taken mod n)."""
        return (np.asarray(multi) % self.n) @ self.strides

    def reflection(self):
        """Index permutation realizing k -> -k (an involution)."""
        perm = getattr(self, "_reflection", None)
        if perm is None:
            perm = self.flatten(-self.multi_index)
            self._reflection = perm
        return perm

    def axis_reflection(self, axis):
        """Index permutation flipping the sign of one coordinate only."""
        mi = self.multi_index.copy()
        mi[:, axis] = -mi[:, axis] % self.n
        return self.flatten(mi)

    def axis_permutation(self, perm):
        """Index permutation realizing k -> (k_{perm[0]}, k_{perm[1]}, ...)."""
        assert sorted(perm) == list(range(self.d))
        return self.flatten(self.multi_index[:, list(perm)])

    def shift(self, delta_multi):
        """Index permutation realizing k -> k + delta for a lattice vector."""
        return self.flatten(self.multi_index + np.asarray(delta_multi))

    def pair_index(self, sign):
        """(size, size) table: flat index of k + sign k' (per axis mod n)
        for every pair (k, k')."""
        index = np.zeros((self.size, self.size), dtype=np.intp)
        for axis, stride in enumerate(self.strides):
            m = self.multi_index[:, axis]
            index += (m[:, None] + sign * m[None, :]) % self.n * stride
        return index


class WeightedInnerProduct:
    """The inner product of L^2(T^d, omega^2 dk).

    ``inner(f, g) = integrate(conj(f) * g * weight)`` with ``weight = omega**2``;
    conjugate-linear in the first argument.  The weight must be strictly
    positive (for the pinned dispersion its minimum is r^4 > 0).
    """

    def __init__(self, grid, weight):
        weight = np.asarray(weight, dtype=float)
        if weight.shape != (grid.size,):
            raise ValueError("weight length does not match grid")
        if weight.min() <= 0.0:
            raise ValueError("inner-product weight must be strictly positive")
        self.grid = grid
        self.weight = weight

    def inner(self, f, g):
        f = np.asarray(f)
        g = np.asarray(g)
        if f.shape[-1] != self.grid.size or g.shape[-1] != self.grid.size:
            raise ValueError("field length does not match grid")
        return self.grid.integrate(np.conj(f) * g * self.weight)

    def norm(self, f):
        return float(np.sqrt(np.real(self.inner(f, f))))


def sup_norm(f):
    """Max over nodes of |f| (the discrete C^0 norm)."""
    return float(np.max(np.abs(f)))


def parity_split(grid, f):
    """Even/odd parts of a field under k -> -k (exact index reflection)."""
    fr = np.asarray(f)[..., grid.reflection()]
    return 0.5 * (f + fr), 0.5 * (f - fr)

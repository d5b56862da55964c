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

from itertools import groupby

import numpy as np
from scipy.linalg import block_diag
from scipy.sparse import csr_array, diags_array

__all__ = [
    "TorusGrid",
    "SymmetryFrame",
    "WeightedInnerProduct",
    "sup_norm",
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

    def axis_reflection(self, axis):
        """Index permutation flipping the sign of one coordinate only."""
        mi = self.multi_index.copy()
        mi[:, axis] = -mi[:, axis] % self.n
        return self.flatten(mi)

    def axis_permutation(self, perm):
        """Index permutation realizing k -> (k_{perm[0]}, k_{perm[1]}, ...).
        Raises ValueError unless `perm` is a permutation of range(d)."""
        if sorted(perm) != list(range(self.d)):
            raise ValueError(f"{perm} is not a permutation of the {self.d} axes")
        return self.flatten(self.multi_index[:, list(perm)])

    def pair_index(self, sign):
        """(size, size) table: flat index of k + sign k' (per axis mod n)
        for every pair (k, k')."""
        index = np.zeros((self.size, self.size), dtype=np.intp)
        for axis, stride in enumerate(self.strides):
            m = self.multi_index[:, axis]
            index += (m[:, None] + sign * m[None, :]) % self.n * stride
        return index

    def symmetry_frame(self):
        """The `SymmetryFrame` of the sign flips of all axes, cached."""
        frame = getattr(self, "_frame", None)
        if frame is None:
            frame = self._frame = SymmetryFrame.of_flips(self)
        return frame


class SymmetryFrame:
    """Unitary basis of C^N in which a matrix commuting with the sign flips
    of the axes and with inversion-plus-conjugation is real and
    block-diagonal.

    The flips of the d axes form an abelian group G of order 2^d, element g
    flipping the axes of the set bits of g.  Each character chi_t of G
    (chi_t(g) = -1 when t & g has an odd number of set bits) is one sector
    t (`of_flips`).  In it, the G-orbit O_r of a representative node r (its
    smallest index) gives the unit column v_r = |O_r|^-1/2 sum_x
    chi_t(g_x) e_x over x in O_r, g_x the flip taking r to x; v_r vanishes,
    and r is skipped, unless chi_t is trivial on the flips that fix r.
    Inversion k -> -k is the product of all the flips, so it maps v_r to
    (-1)^popcount(t) v_r, and the antiunitary J v = conj(v)[-k] fixes the
    column v_r for even popcount(t) and i v_r for odd.

    Each column lives on one orbit, so `basis` (N x N, columns grouped by
    sector, `sectors` their slices) is sparse, and each is real or i times
    real: basis = R diag(eps) with R real and eps in {1, i}.  A matrix that
    commutes with the flips of some axes only is block-diagonal in a view of
    the frame that merges the sectors differing only in the characters of
    the other axes (`merged`; `groups` lists the characters t of each
    sector).  The mode matrix D(p) commutes with the flips of the axes
    where p vanishes, and with J because omega is even and grad omega odd;
    so in the view that merges the axes where p does not vanish,
    basis^H D(p) basis is block-diagonal with real blocks.  For a real M,
    basis^H M basis = conj(eps) eps^T * `image`(M) and
    basis^H i diag(f) basis = i conj(eps) eps^T * `diagonal_image`(f); the
    entries of conj(eps) eps^T are 1 or +-i, so each real block entry is an
    entry of the image or its negative (`sector_blocks`).  A field constant
    on orbits of the flips, like omega, is constant on the support of every
    column (`column_values`).
    """

    def __init__(self, real, eps, sizes, groups):
        self.eps = eps
        self.groups = groups
        self._real = real
        self._real_t = real.T.tocsr()
        self.basis = real @ diags_array(eps)
        bounds = np.cumsum([0, *sizes]).tolist()
        self.sectors = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._sector_bases = [self.basis[:, s] for s in self.sectors]
        self._sector_of = np.repeat(np.arange(len(self.sectors)), sizes)
        self._is_imag = self.eps.imag != 0.0
        self._vanish = {}  # per `leak` kind, the entries that must vanish
        # real and imaginary parts of conj(eps) eps^T per sector: 0 or +-1
        self._units = []
        for s in self.sectors:
            unit = np.outer(self.eps[s].conj(), self.eps[s])
            self._units.append((unit.real.copy(), unit.imag.copy()))

    @classmethod
    def of_flips(cls, grid):
        """The frame of the flips of all axes of `grid`, sector t the
        character chi_t.  Built from the index maps `axis_reflection`."""
        nodes = np.arange(grid.size)
        perms = [nodes]  # element g flips the axes of the set bits of g
        for axis in range(grid.d):
            flip = grid.axis_reflection(axis)
            perms += [flip[q] for q in perms]
        perms = np.array(perms)
        order = len(perms)
        rep = perms.min(axis=0)
        flip_to = np.argmax(perms[:, rep] == nodes, axis=0)  # g_x
        orbit_size = np.bincount(rep, minlength=grid.size)[rep]
        fixes = perms == nodes  # (order, N): g fixes x

        rows, cols, vals, sizes = [], [], [], []
        eps = np.ones(grid.size, dtype=complex)
        for t in range(order):
            chi = np.array([1 - 2 * (bin(t & g).count("1") % 2)
                            for g in range(order)])
            keep = ~np.any(fixes & (chi < 0)[:, None], axis=0)
            lead = keep & (rep == nodes)  # one column per kept orbit
            start = sum(sizes)
            col = start + np.cumsum(lead) - 1
            x = nodes[keep]
            rows.append(x)
            cols.append(col[rep[x]])
            vals.append(chi[flip_to[x]] / np.sqrt(orbit_size[x]))
            sizes.append(int(lead.sum()))
            if bin(t).count("1") % 2:  # inversion is odd: J fixes i v_r
                eps[start:start + sizes[-1]] = 1j
        if sum(sizes) != grid.size:
            raise RuntimeError("symmetry frame is not a basis")
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        real = csr_array((vals, (rows, cols)), shape=(grid.size, grid.size))
        return cls(real, eps, sizes, [(t,) for t in range(order)])

    def merged(self, axes):
        """The view of this frame in which the sectors whose characters
        differ only on the flips of `axes` (equal key t & ~mask, mask the
        bits of `axes`) are one.  The sectors are ordered by that key and
        by characters inside, so the trivial sector stays in sector 0; the
        columns are the same, reordered.  Raises ValueError when a sector
        of this frame already merges characters of different keys."""
        mask = sum(1 << int(b) for b in axes)
        if any(len({t & ~mask for t in g}) != 1 for g in self.groups):
            raise ValueError(f"axes {list(axes)} do not cover this view's merges")

        def key(s):
            return self.groups[s][0] & ~mask

        order = sorted(range(len(self.sectors)), key=lambda s: (key(s), self.groups[s]))
        merged = [list(g) for _, g in groupby(order, key=key)]
        cols = [np.r_[tuple(self.sectors[s] for s in g)] for g in merged]
        perm = np.concatenate(cols)
        groups = [sum((self.groups[s] for s in g), ()) for g in merged]
        return SymmetryFrame(self._real[:, perm], self.eps[perm],
                             [c.size for c in cols], groups)

    def image(self, M):
        """R^T M R for a real N x N M (dense), basis = R diag(eps)."""
        return (self._real_t @ (self._real_t @ M).T).T

    def diagonal_image(self, f):
        """R^T diag(f) R for a real field f (dense, from sparse products)."""
        return (self._real_t.multiply(f) @ self._real).toarray()

    def sector_blocks(self, image, imaginary=False):
        """The real parts of the sector blocks of basis^H M basis, from
        image = R^T M R for a real M, or of basis^H (i M) basis when
        `imaginary`: image * Re(conj(eps) eps^T), or image * -Im(...)."""
        return [image[s, s] * (-ci if imaginary else cr)
                for s, (cr, ci) in zip(self.sectors, self._units)]

    def leak(self, image, imaginary=False):
        """Largest |entry| of `image` that basis^H M basis (or
        basis^H (i M) basis when `imaginary`) puts off the sector blocks or
        into the imaginary part of a block; 0 for an M that commutes with the
        flips and with J."""
        if imaginary not in self._vanish:
            sector, imag = self._sector_of, self._is_imag
            self._vanish[imaginary] = (
                (sector[:, None] != sector[None, :])
                | ((imag[:, None] != imag[None, :]) != imaginary))
        return float(np.abs(image[self._vanish[imaginary]]).max(initial=0.0))

    def column_values(self, field):
        """Per frame column, the value of a field constant on the column's
        support, read at the support's first node."""
        return np.asarray(field)[self._real_t.indices[self._real_t.indptr[:-1]]]

    def coordinates(self, X, sector):
        """basis[:, sector]^H X for an N x k X that J fixes column by
        column, so that its frame coordinates are real."""
        return (self._sector_bases[sector].conj().T @ X).real

    def real_coordinates(self, F):
        """F R for node fields F (N or k x N), basis = R diag(eps).  Each
        coordinate is a signed sum over one orbit, so the parts of F with
        another sector's parity cancel in it exactly."""
        return (self._real_t @ np.asarray(F).T).T

    def from_real_coordinates(self, Y):
        """Y R^T: node fields of real frame coordinates Y (N or k x N)."""
        return (self._real @ np.asarray(Y).T).T

    def sector_columns(self, sector, X):
        """basis[:, sector] X: node rows of frame columns of one sector."""
        return self._sector_bases[sector] @ X

    def sector_rows(self, sector, Y):
        """Y basis[:, sector]^H: node columns of frame rows of one sector."""
        return (self._sector_bases[sector].conj() @ Y.T).T

    def columns(self, blocks):
        """basis diag(blocks): node rows, frame columns."""
        return self.basis @ block_diag(*blocks)

    def rows(self, blocks):
        """diag(blocks) basis^H: frame rows, node columns."""
        return (self.basis.conj() @ block_diag(*blocks).T).T

    def to_nodes(self, blocks):
        """basis diag(blocks) basis^H, the node-space matrix of a
        block-diagonal frame matrix."""
        return self.basis @ self.rows(blocks)


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

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
from scipy.linalg import block_diag
from scipy.sparse import csr_array

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

    def symmetry_frame(self, axes):
        """The `SymmetryFrame` of the sign flips of `axes`, cached per set
        of axes."""
        axes = tuple(sorted({int(b) for b in axes}))
        frames = self.__dict__.setdefault("_frames", {})
        if axes not in frames:
            frames[axes] = SymmetryFrame(self, axes)
        return frames[axes]


class SymmetryFrame:
    """Unitary basis of C^N in which a matrix commuting with the sign flips
    of some axes and with inversion-plus-conjugation is real and
    block-diagonal.

    The flips of `axes` form an abelian group G of order 2^len(axes).  Each
    character chi of G (one per subset T of the axes, chi(g) = -1 when g
    flips an odd number of axes in T) is one sector.  In it, the G-orbit
    O_r of a representative node r (its smallest index) gives the unit
    vector v_r = |O_r|^-1/2 sum_x chi(g_x) e_x over x in O_r, g_x the flip
    taking r to x; v_r vanishes, and r is skipped, unless chi is trivial on
    the flips that fix r.  Inversion k -> -k maps v_r to s v_r', where r'
    represents the orbit of -r and s = chi(g_{-r}), so the antiunitary
    J v = conj(v)[-k] keeps each sector and fixes the columns

        (v_r + s v_r') / sqrt(2) and i (v_r - s v_r') / sqrt(2)   (r < r'),
        v_r (s = 1) or i v_r (s = -1)                             (r = r').

    Each column lives on one or two orbits, so `basis` (N x N, columns
    grouped by sector, `sectors` their slices) is sparse, and each is real
    or i times real: basis = R diag(eps) with R real and eps in {1, i}.
    The mode matrix D(p) commutes with the flips of the axes where p
    vanishes, and with J because omega is even and grad omega odd; so
    basis^H D(p) basis is block-diagonal with real blocks.  For a real M,
    basis^H M basis = conj(eps) eps^T * `image`(M) and
    basis^H i diag(f) basis = i conj(eps) eps^T * `diagonal_image`(f); the
    entries of conj(eps) eps^T are 1 or +-i, so each real block entry is an
    entry of the image or its negative (`sector_blocks`).  A field constant
    on orbits of the flips and of inversion, like omega, is constant on the
    support of every column (`column_values`).  Built from the index maps
    `axis_reflection` and `reflection` only.
    """

    def __init__(self, grid, axes):
        self.axes = tuple(axes)
        nodes = np.arange(grid.size)
        perms = [nodes]  # element g flips the axes of the set bits of g
        for axis in self.axes:
            flip = grid.axis_reflection(axis)
            perms += [flip[q] for q in perms]
        perms = np.array(perms)
        order = len(perms)
        rep = perms.min(axis=0)
        flip_to = np.argmax(perms[:, rep] == nodes, axis=0)  # g_x
        orbit_size = np.bincount(rep, minlength=grid.size)[rep]
        fixes = perms == nodes  # (order, N): g fixes x
        partner = rep[grid.reflection()]  # representative of -x's orbit
        lead = np.minimum(rep, partner)
        single = rep == partner
        second = rep > partner
        is_lead = (rep == nodes) & ~second
        inv_flip = flip_to[grid.reflection()]

        rows, cols, vals, imag, bounds = [], [], [], [], [0]
        for t in range(order):
            chi = np.array([1 - 2 * (bin(t & g).count("1") % 2)
                            for g in range(order)])
            keep = ~np.any(fixes & (chi < 0)[:, None], axis=0)
            # one column per lead of a single orbit, two per lead of a pair
            width = np.where(single, 1, 2) * (keep & is_lead)
            start = bounds[-1] + np.cumsum(width) - width
            x = nodes[keep]
            c = chi[flip_to[x]] / np.sqrt(orbit_size[x])
            col = start[lead[x]]
            one = single[x]
            # real parts of the pair columns: v_r + s v_r' and v_r - s v_r'
            s = chi[inv_flip[lead[x]]]
            half = c / np.sqrt(2.0)
            plus = np.where(second[x], s, 1) * half
            minus = np.where(second[x], -s, 1) * half
            rows += [x[one], x[~one], x[~one]]
            cols += [col[one], col[~one], col[~one] + 1]
            vals += [c[one], plus[~one], minus[~one]]
            # the columns that are i times their real part
            r = nodes[keep & is_lead]
            imag += [start[r[single[r] & (chi[inv_flip[r]] < 0)]],
                     start[r[~single[r]]] + 1]
            bounds.append(bounds[-1] + int(width.sum()))
        if bounds[-1] != grid.size:
            raise RuntimeError("symmetry frame is not a basis")
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        # basis = real diag(eps): every column is real or i times real
        self.eps = np.ones(grid.size, dtype=complex)
        self.eps[np.concatenate(imag)] = 1j
        shape = (grid.size, grid.size)
        self._real = csr_array((vals, (rows, cols)), shape=shape)
        self._real_t = self._real.T.tocsr()
        self.basis = csr_array((vals * self.eps[cols], (rows, cols)), shape=shape)
        self.sectors = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])
                        if b > a]
        self._sector_bases = [self.basis[:, s] for s in self.sectors]
        self._sector_of = np.repeat(np.arange(len(self.sectors)),
                                    [s.stop - s.start for s in self.sectors])
        self._is_imag = self.eps.imag != 0.0
        self._vanish = {}  # per `leak` kind, the entries that must vanish
        # real and imaginary parts of conj(eps) eps^T per sector: 0 or +-1
        self._units = []
        for s in self.sectors:
            unit = np.outer(self.eps[s].conj(), self.eps[s])
            self._units.append((unit.real.copy(), unit.imag.copy()))

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

"""Assembly and spectral analysis of the linearized collision operator.

L = -DC(W0) at W0 = 1/omega splits as L = M + K: a strictly positive
multiplier M(k) plus a compact-kernel part K acting by

    (K f)(k) = sum_{k'} K(k, k') f(k') omega(k')^2 n^{-d},
    K(k,k')  = -(9 pi / 4) (omega(k) omega(k'))^{-2} (I1 + I2),

where I1 and I2 are one-lattice-sum integrals over the interaction set (see
`assemble_K`).  L is self-adjoint and positive semidefinite in the
omega^2-weighted inner product, annihilates span{1/omega, 1/omega^2} up to
the mollification bias, and has a spectral gap above that pair.
`assemble_K` and `assemble_L` return plain (N, N) arrays in the node basis;
`spectrum_L` checks that L is H-self-adjoint and commutes with the axis
sign flips, then diagonalizes the omega-similarity transform
(`DispersionField.similarity`) one real block per sector of the flips.

M, I1 and I2 are assembled from the cosine series of the kernel
(`FourierCollision`): every sum over k1 is a lattice convolution of one node
field, so the cost is a few FFTs per series node plus an O(n_t N^2) fill
(N = n^d) instead of O(N^3) kernel evaluations.  The direct O(N^3) sums
live in the tests, as the oracle of this assembly.

The module also carries two independent validators:

* a central finite-difference derivative of the collision evaluator
  (`fd_linearization_check`) — the primary correctness gate tying L to C;
* the I1 integral on the exact energy shell (`i1_exact`, by co-area sums
  over the grid lines of both axes) against the same integral with the
  regularized delta (`i1_mollified`) — quantifies the mollification bias of
  the delta kernel at sampled (k, k').
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.linalg import eigh

from .collision import PREFACTOR, _cosine_series
from .dispersion import omega
from .torus_grid import SymmetryFrame

__all__ = [
    "SpectralSummary",
    "assemble_M",
    "assemble_I1",
    "assemble_I2",
    "assemble_K",
    "assemble_L",
    "spectrum_L",
    "fd_linearization_check",
    "row_identity_residual",
    "kernel_row_sup",
    "i1_exact",
    "i1_mollified",
    "WIDTH_HALVING_MIN_RATIO",
]


@dataclass
class SpectralSummary:
    """Eigenvalues of L (sorted), zero-mode residuals, and the gap.

    `zero_mode_residuals` holds ||L w^-a||_H / ||w^-a||_H for a = 1, 2; the
    `gap` is the third-smallest eigenvalue.  `sectors` holds per sector of
    `frame` (the axis flips) the ascending eigenvalues and eigenvectors
    (columns, real frame coordinates) of its omega-similarity block; `low`
    counts the two smallest eigenvalues per sector (its leading ones).
    """

    eigenvalues: np.ndarray
    zero_mode_residuals: tuple
    gap: float
    frame: SymmetryFrame
    sectors: list
    low: np.ndarray


# ----------------------------------------------------------------------
# assembly
#
# The energy delta is the cosine series delta_eta(u) ~= sum_j c_j cos(t_j u)
# of `FourierCollision`.  With E_j = exp(i t_j w), b_j = w^-2 conj(E_j) and
# B_j = fftn(b_j), each sum over k1 is a circular convolution or correlation
# of b_j on the lattice (indices mod n):
#
#   M(k)     = (9pi/4) N^-2 Re sum_j c_j E_j(k) S_j(k),        S_j = ifftn(|B_j|^2 B_j)
#   I1(k,k') = 2 N^-1 Re sum_j c_j E_j(k) conj E_j(k') G_j(k-k'), G_j = ifftn(|B_j|^2)
#   I2(k,k') = -N^-1 Re sum_j c_j E_j(k) E_j(k') H_j(k+k'),     H_j = ifftn(B_j^2)
#
# with N = n^d (Mouhot & Pareschi, Math. Comp. 75, 2006).  The nodes are
# summed one at a time in node order.


def _node_spectra(grid, disp, delta):
    """Series weights c_j, phases E_j (n_t, N) and the spectra
    fftn(b_j) (n_t, n, ..., n) of b_j = w^-2 conj(E_j)."""
    t, c = _cosine_series(disp, delta)
    E = np.exp(1j * np.outer(t, disp.w))
    b = (disp.winv2 * np.conj(E)).reshape((len(t),) + (grid.n,) * grid.d)
    return c, E, scipy.fft.fftn(b, axes=tuple(range(1, b.ndim)))


def _node_fields(spectra):
    """Inverse transforms of stacked node spectra, as flat node fields."""
    fields = scipy.fft.ifftn(spectra, axes=tuple(range(1, spectra.ndim)))
    return fields.reshape(len(spectra), -1)


def _pair_sum(c, left, right, F, index):
    """Re sum_j c_j left_j(k) right_j(k') F_j(index[k, k']), node by node."""
    out = np.zeros(index.shape)
    for cj, lj, rj, Fj in zip(c, left, right, F):
        term = Fj[index]
        term *= (cj * lj)[:, None]
        term *= rj
        out += term.real
    return out


def assemble_M(grid, disp, delta):
    """The multiplier: M(k) = (9pi/4) n^{-2d} sum_{k1,k2} (w1 w2 w3)^{-2}
    delta_eta(w+w1-w2-w3), k3 = k+k1-k2.  Strictly positive."""
    c, E, B = _node_spectra(grid, disp, delta)
    S = _node_fields((B.real * B.real + B.imag * B.imag) * B)
    acc = np.zeros(grid.size)
    for cj, Ej, Sj in zip(c, E, S):
        acc += cj * (Ej * Sj).real
    return PREFACTOR * acc / grid.size**2


def assemble_I1(grid, disp, delta):
    """I1(k,k') = 2 n^{-d} sum_{k1} (w(k1) w(k1+k-k'))^{-2}
    delta_eta(w(k1) - w(k1+k-k') + w(k) - w(k'))."""
    c, E, B = _node_spectra(grid, disp, delta)
    G = _node_fields(B.real * B.real + B.imag * B.imag)
    return 2.0 * _pair_sum(c, E, np.conj(E), G, grid.pair_index(-1)) / grid.size


def assemble_I2(grid, disp, delta):
    """I2(k,k') = - n^{-d} sum_{k1} (w(k1) w(k+k'-k1))^{-2}
    delta_eta(w(k) + w(k') - w(k1) - w(k+k'-k1))."""
    c, E, B = _node_spectra(grid, disp, delta)
    H = _node_fields(B * B)
    return -_pair_sum(c, E, E, H, grid.pair_index(1)) / grid.size


def assemble_K(grid, disp, delta):
    """The kernel matrix K(k,k') (values, not yet including the measure)."""
    I1 = assemble_I1(grid, disp, delta)
    I2 = assemble_I2(grid, disp, delta)
    winv2 = disp.winv2
    return -PREFACTOR * (winv2[:, None] * winv2[None, :]) * (I1 + I2)


def assemble_L(grid, disp, delta):
    """L = diag(M) + K with the kernel's omega^2 n^{-d} measure folded in."""
    M = assemble_M(grid, disp, delta)
    K = assemble_K(grid, disp, delta)
    L = K * (disp.w_sq[None, :] / grid.size)
    L[np.diag_indices_from(L)] += M
    return L


# ----------------------------------------------------------------------
# spectra and identities


# Largest relative asymmetry of the omega-similarity transform of L that
# `spectrum_L` accepts as H-self-adjoint.
SYM_TOL = 1e-8


def spectrum_L(L, disp):
    """Eigen-decomposition of the symmetrized L per sector of the axis flips,
    plus zero-mode residuals.  Raises ValueError when L is not H-self-adjoint
    to `SYM_TOL` relative, or leaks off the sector blocks by `SYM_TOL` max |L|."""
    B = disp.similarity(L)
    defect = np.linalg.norm(B - B.T) / max(np.linalg.norm(B), 1e-300)
    if defect > SYM_TOL:
        raise ValueError(
            f"symmetrization residual {defect:.2e} exceeds {SYM_TOL:.0e}"
        )
    frame = disp.grid.symmetry_frame()
    image = frame.image(L)
    leak = frame.leak(image) / max(float(np.abs(L).max()), 1e-300)
    if leak > SYM_TOL:
        raise ValueError(
            f"L breaks the lattice symmetry: axis-flip leak {leak:.2e} of "
            f"max |L| exceeds {SYM_TOL:.0e}"
        )
    w = frame.column_values(disp.w)  # omega is constant on every column
    sectors = []
    for s, block in zip(frame.sectors, frame.sector_blocks(image)):
        block = (w[s, None] / w[None, s]) * block
        sectors.append(eigh(0.5 * (block + block.T)))
    ev = np.concatenate([lam for lam, _ in sectors])
    order = np.argsort(ev, kind="stable")
    owner = np.repeat(np.arange(len(sectors)), [lam.size for lam, _ in sectors])
    hs = disp.weighted_inner()
    res = []
    for mode in (disp.winv, disp.winv2):
        res.append(hs.norm(L @ mode) / hs.norm(mode))
    return SpectralSummary(
        eigenvalues=ev[order],
        zero_mode_residuals=(res[0], res[1]),
        gap=float(ev[order[2]]),
        frame=frame,
        sectors=sectors,
        low=np.bincount(owner[order[:2]], minlength=len(sectors)),
    )


def fd_linearization_check(collision_op, L, directions=10, eps=1e-5, seed=1234):
    """Max relative error of -L f against the centered finite difference
    (C(W0 + eps f) - C(W0 - eps f)) / (2 eps) at W0 = 1/omega."""
    rng = np.random.default_rng(seed)
    disp = collision_op.disp
    W0 = disp.winv
    worst = 0.0
    for _ in range(directions):
        f = rng.standard_normal(W0.size)
        fd = (collision_op.apply(W0 + eps * f) - collision_op.apply(W0 - eps * f)) / (
            2.0 * eps
        )
        Lf = L @ f
        worst = max(worst, float(np.abs(fd + Lf).max() / np.abs(Lf).max()))
    return worst


def row_identity_residual(M, K, grid, disp):
    """Relative residual of the row identity M(k) = sum_{k'} K(k,k') w(k')^2 n^{-d}."""
    rows = K @ disp.w_sq / grid.size
    return float(np.abs(rows - M).max() / np.abs(M).max())


def kernel_row_sup(K, grid):
    """sup_k of the row integral sum_{k'} |K(k,k')| n^{-d}."""
    return float(np.abs(K).sum(axis=1).max() / grid.size)


# ----------------------------------------------------------------------
# exact-shell validator for I1
#
# int g delta(G) d^2q by the co-area formula along the grid lines of both
# axes, split by the partition of unity w_a = |d_a G|^2k / sum_b |d_b G|^2k.
# On a line q_1 = const the w_2 share is the sum over the roots q_2 of
# g |d_2 G|^(2k-1) / sum_b |d_b G|^2k, and the same with the axes swapped.
# The weight vanishes where a line touches the level set, which is where a
# plain line sum has its inverse-square-root singularity and where roots
# merge; so each line sum is smooth in the line's position, the periodic
# trapezoid rule over the lines converges fast, and a root pair that the
# sampling misses near a tangency carries no measurable weight.

# The exponent k of the partition of unity.
LINE_WEIGHT_POWER = 3
# Samples of G per line; their sign changes bracket the roots.
LINE_SAMPLES = 256
# Bisection steps: from a bracket of 2 pi / LINE_SAMPLES to the float
# spacing at pi.
BISECTIONS = 48


def _level_integral(g, G, dG, m):
    """(2 pi)^-2 int g(q) delta(G(q)) d^2q over the torus, by line sums on m
    uniform lines per axis."""
    lines = -np.pi + 2.0 * np.pi * np.arange(m) / m
    step = 2.0 * np.pi / LINE_SAMPLES
    samples = -np.pi + step * np.arange(LINE_SAMPLES)
    k = LINE_WEIGHT_POWER
    total = 0.0
    for axis in (0, 1):

        def point(line, t):  # (q1, q2) on the line q_axis = line
            return (line, t) if axis == 0 else (t, line)

        sign = np.signbit(G(*point(lines[:, None], samples[None, :])))
        i, j = np.nonzero(sign != np.roll(sign, -1, axis=1))
        line, lo, lo_sign = lines[i], samples[j], sign[i, j]
        hi = lo + step
        for _ in range(BISECTIONS):
            mid = 0.5 * (lo + hi)
            beyond = np.signbit(G(*point(line, mid))) == lo_sign
            lo = np.where(beyond, mid, lo)
            hi = np.where(beyond, hi, mid)
        root = point(line, 0.5 * (lo + hi))
        slope = np.abs(np.array(dG(*root)))
        along = slope[1 - axis]
        total += float(np.sum(
            g(*root) * along ** (2 * k - 1) / (slope ** (2 * k)).sum(axis=0)
        ))
    return total / (2.0 * np.pi * m)


def _i1_geometry(kpoint, kppoint, params):
    kpoint = np.asarray(kpoint, float)
    kppoint = np.asarray(kppoint, float)
    D = kpoint - kppoint
    c = float(omega(kpoint, params) - omega(kppoint, params))
    r = params.r

    def base(q1, q2):
        return 2.0 * ((1 - np.cos(q1)) + (1 - np.cos(q2))) + r

    def G(q1, q2):
        return base(q1, q2) ** 2 - base(q1 + D[0], q2 + D[1]) ** 2 + c

    def dG(q1, q2):
        b = base(q1, q2)
        bs = base(q1 + D[0], q2 + D[1])
        return (
            4.0 * np.sin(q1) * b - 4.0 * np.sin(q1 + D[0]) * bs,
            4.0 * np.sin(q2) * b - 4.0 * np.sin(q2 + D[1]) * bs,
        )

    def g(q1, q2):
        return 1.0 / (base(q1, q2) ** 2 * base(q1 + D[0], q2 + D[1]) ** 2) ** 2

    return G, dG, g


# Halving the kernel width must divide the error of `i1_mollified` against
# `i1_exact` by at least this factor (second order would divide it by ~4).
WIDTH_HALVING_MIN_RATIO = 2.0
# `i1_exact` doubles its number of lines at most this many times.
MAX_DOUBLINGS = 4


def i1_exact(kpoint, kppoint, params, m=512, refine_tol=1e-6):
    """Exact-delta value of the I1 integrand at (k, k') in d=2: the co-area
    line sum of `_level_integral` on m lines per axis, doubled (at most
    `MAX_DOUBLINGS` times) until successive values agree to `refine_tol`
    relative.  Raises RuntimeError when they never do."""
    if params.d != 2:
        raise ValueError("the exact-shell validator is worked out for d=2")
    G, dG, g = _i1_geometry(kpoint, kppoint, params)
    prev = None
    for _ in range(MAX_DOUBLINGS + 1):
        val = 2.0 * _level_integral(g, G, dG, m)
        if prev is not None and abs(val - prev) <= refine_tol * max(abs(val), 1e-300):
            return val
        prev = val
        m *= 2
    raise RuntimeError(
        f"exact-shell line sum did not converge to {refine_tol:.0e} relative "
        f"within {MAX_DOUBLINGS} doublings ({m // 2} lines per axis)"
    )


def i1_mollified(kpoint, kppoint, params, delta):
    """The same integral with the regularized delta, on an internal fine
    grid independent of any production lattice.  The resolution scales like
    1/width so the mollified shell stays resolved.

    The integrand is separable in 1-D cosine arrays (outer sums), and the
    exponential is only evaluated on the shell |G| <= 8 width, so large
    internal grids stay cheap.
    """
    if params.d != 2:
        raise ValueError("the exact-shell validator is worked out for d=2")
    # ~8 quadrature points across the shell width / |grad G|
    grad_scale = 16.0 * (2.0 * params.d * 2.0 + params.r)  # ~ 2 max|grad w|
    m = int(max(1024, np.ceil(8.0 * grad_scale / delta.width)))
    D = np.asarray(kpoint, float) - np.asarray(kppoint, float)
    c = float(omega(kpoint, params) - omega(kppoint, params))
    q = -np.pi + 2.0 * np.pi * np.arange(m) / m
    A1 = 2.0 * (1.0 - np.cos(q))
    A2 = 2.0 * (1.0 - np.cos(q + D[1]))
    A1s = 2.0 * (1.0 - np.cos(q + D[0]))
    acc = 0.0
    for rows in np.array_split(np.arange(m), max(1, m // 512)):
        B1 = A1[rows, None] + A1[None, :] + params.r  # base(q1, q2)
        B2 = A1s[rows, None] + A2[None, :] + params.r  # base(q1 + D1, q2 + D2)
        G = B1 * B1 - B2 * B2 + c
        mask = np.abs(G) <= delta.TRUNCATION * delta.width
        if not mask.any():
            continue
        vals = delta.weights(G[mask]) / (B1[mask] * B2[mask]) ** 4
        acc += float(np.sum(vals))
    return 2.0 * acc / m**2

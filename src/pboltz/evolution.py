"""Per-mode dynamics and time integration.

A spatial Fourier mode p turns the transport term into a diagonal phase and
the linear dynamics into the dense complex array D(p) = L + (i/2pi)
diag(p . grad omega) (`mode_matrix`, L a plain array).  D(p) commutes with
the sign flips of the axes where p vanishes and, because omega is even and
grad omega odd, with inversion k -> -k composed with complex conjugation.
So in the symmetry frame of p (`TorusGrid.symmetry_frame`) it splits into
real blocks, one per character of the flips (`mode_blocks`, which checks
that split against `SYM_TOL`), and its spectrum, slow-eigenvalue count and
semigroup are taken block by block (`spectrum_D`, `count_slow_eigenvalues`,
`ModeSemigroup`); the complex eigendecomposition of the full D(p) is only
the tests' oracle.  This module also checks the slow/fast block structure
of the propagator, integrates the full nonlinear equation on a 1-D
periodic box (method of lines, spectral transport), produces the
diffusive-decay diagnostics, and runs the diffusive-scaling study against
a nonlinear heat reference; the box integrators read the dispersion field
from the collision evaluator, and `hydro_limit_study` the evaluator and L
from its `CollisionResponse`.  The slow/fast frame is that of `hydrodynamics`
(`SlowBasis`, `DeflatedInverse`, `slaved_state`); no N x N projector or
inverse is formed.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eig, expm, lu_factor, lu_solve
from scipy.sparse.linalg import svds

from .hydrodynamics import (
    TWO_PI,
    DeflatedInverse,
    DiffusivityModel,
    SlowState,
    slaved_state,
)
from .linearized import SYM_TOL

# `find_p0` bisects |p| in (1e-14, FIND_P0_MAX] to FIND_P0_REL_TOL relative
# width; an explicit step is STEP_SAFETY over the fastest rate (`stable_step`);
# NEWTON_TOL and MAX_NEWTON stop the Newton solve of each backward-Euler
# collision step (`_imex_kinetic`).
FIND_P0_MAX = 1.0
FIND_P0_REL_TOL = 1e-3
STEP_SAFETY = 0.4
NEWTON_TOL = 1e-11
MAX_NEWTON = 12


def _krylov_start(n, dtype):
    """Fixed start vector for ARPACK, so runs repeat bit for bit.  It comes
    from a seeded generator rather than being constant, so it shares no
    lattice symmetry with the operator: a symmetric start would never see
    the singular vectors odd under that symmetry."""
    return np.random.default_rng(0).standard_normal(n).astype(dtype)


def _spectral_norm(X):
    """Largest singular value by Lanczos on X^H X (`svds`, k = 1).

    X is scaled by a power of two (exact) so that X^H X neither underflows
    nor overflows.  An all-zero X, on which ARPACK stops with "starting
    vector is zero", has norm 0.
    """
    amax = float(np.abs(X).max())
    if amax == 0.0:
        return 0.0
    scale = 2.0 ** np.frexp(amax)[1]
    s = svds(X / scale, k=1, tol=0, v0=_krylov_start(min(X.shape), X.dtype),
             return_singular_vectors=False)
    return float(s[0]) * scale


# ----------------------------------------------------------------------
# mode matrix and spectrum


def unit_direction(d, direction=None):
    """Unit d-vector along `direction`: a vector (normalized), an axis
    index in [0, d), or None for the first axis.  Raises ValueError for an
    axis outside [0, d), a vector of another length than d, and a zero or
    non-finite vector."""
    if direction is None:
        direction = 0
    if np.ndim(direction) == 0:
        if not 0 <= direction < d:
            raise ValueError(f"axis {direction} is outside [0, {d})")
        return np.eye(d)[direction]
    e = np.asarray(direction, dtype=float)
    if e.shape != (d,):
        raise ValueError(f"expected a {d}-vector direction, got shape {e.shape}")
    norm = np.linalg.norm(e)
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(f"direction {direction} has no finite nonzero length")
    return e / norm


def _frequency(disp, p):
    """(p, p . grad omega / 2pi) for a d-vector frequency p."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.shape != (disp.grid.d,):
        raise ValueError(f"expected a {disp.grid.d}-vector frequency")
    return p, (disp.grad @ p) / TWO_PI


def mode_matrix(L, disp, p):
    """D(p) = L + (i/2pi) diag(p . grad omega), the complex array of one
    spatial frequency p (a d-vector).  In the omega-similarity frame
    (`DispersionField.similarity`) it is H + iK with H symmetric positive
    semidefinite and K = diag(p . grad omega / 2pi)."""
    _, phase = _frequency(disp, p)
    return L.astype(complex) + 1j * np.diag(phase)


def mode_blocks(L, disp, p):
    """(frame, blocks): D(p) in the symmetry frame of p, as the real blocks
    X_chi = B_chi^H D(p) B_chi of its sectors.

    The frame is that of the sign flips of the axes where p vanishes
    (`TorusGrid.symmetry_frame`); B^H D(p) B is formed by sparse products
    in real arithmetic (`SymmetryFrame.to_frame`).  Raises
    ValueError when the part of B^H D(p) B off the blocks, or the imaginary
    part of a block, exceeds `SYM_TOL` relative to max |D(p)|: an L without
    the lattice symmetry is never split.
    """
    p, phase = _frequency(disp, p)
    frame = disp.grid.symmetry_frame(np.flatnonzero(p == 0.0))
    Y = frame.to_frame(L, phase)
    off = np.abs(Y)
    defect = 0.0
    blocks = []
    for sector in frame.sectors:
        X = Y[sector, sector]
        defect = max(defect, float(np.abs(X.imag).max()))
        off[sector, sector] = 0.0
        blocks.append(np.ascontiguousarray(X.real))
    defect = max(defect, float(off.max()))
    # max |D(p)|, with D(p) = L + i diag(phase) never formed
    scale = max(float(np.abs(L).max()), float(np.hypot(np.diag(L), phase).max()))
    if defect > SYM_TOL * scale:
        raise ValueError(
            f"mode matrix breaks the lattice symmetry: residual "
            f"{defect / scale:.2e} of max |D| exceeds {SYM_TOL:.0e}"
        )
    return frame, blocks


def spectrum_D(L, disp, p):
    """Eigenvalues of D(p), sorted by increasing real part and, within a
    complex-conjugate pair (equal real parts), by imaginary part: the union
    of the eigenvalues of its real sector blocks (`mode_blocks`)."""
    _, blocks = mode_blocks(L, disp, p)
    ev = np.concatenate([np.linalg.eigvals(X) for X in blocks])
    return ev[np.lexsort((ev.imag, ev.real))]


def count_slow_eigenvalues(L, disp, p, threshold):
    """Number of eigenvalues of D(p) with real part below the threshold,
    summed over its real sector blocks (`mode_blocks`)."""
    _, blocks = mode_blocks(L, disp, p)
    return sum(int(np.count_nonzero(np.linalg.eigvals(X).real < threshold))
               for X in blocks)


def find_p0(L, disp, gap, direction=None):
    """Largest |p| at which exactly two eigenvalues sit below half the gap.

    Log-space bisection along the given direction (default first axis); the
    value is an artifact of the grid and kernel width, reported, never
    asserted against any external constant.
    """
    e = unit_direction(disp.grid.d, direction)
    half = 0.5 * gap

    def count(p_abs):
        return count_slow_eigenvalues(L, disp, p_abs * e, half)

    if count(FIND_P0_MAX) == 2:
        return FIND_P0_MAX
    lo, hi = 1e-14, FIND_P0_MAX
    if count(lo) != 2:
        raise RuntimeError("no two-mode regime found even at |p| = 1e-14")
    while hi / lo > 1.0 + FIND_P0_REL_TOL:
        mid = np.sqrt(lo * hi)
        if count(mid) == 2:
            lo = mid
        else:
            hi = mid
    return float(lo)


# ----------------------------------------------------------------------
# semigroup


class ModeSemigroup:
    """Propagator exp(-t D(p)), block by block in the symmetry frame of p.

    Each real sector block X (`mode_blocks`) is diagonalized, X = V w V^-1
    (`eig`, `inv`).  The propagator is exp(-t X) = V exp(-t w) V^-1 per
    block, or the scaled-and-squared Pade exponential of the block when the
    eigenbasis condition number cond = max ||V||_2 * max ||V^-1||_2 over the
    blocks exceeds `cond_limit`; that is the condition number of the
    node-space eigenbasis, since the frame is unitary.  The node-space w, V
    and V^-1 stay available; they give the spectral projector onto the two
    eigenvalues of smallest real part in rank-2 form, P~ = a b with
    a = V[:, sel] (N x 2) and b = V^-1[sel, :] (2 x N).  Its complement
    Q~ = I - P~ is never formed: S Q~ = S - (S a) b.
    """

    def __init__(self, L, disp, p, cond_limit=1e8):
        self.frame, self.blocks = mode_blocks(L, disp, p)
        pairs = [eig(X) for X in self.blocks]
        self._w = [w for w, _ in pairs]
        self._V = [V for _, V in pairs]
        self.w = np.concatenate(self._w)
        self._Vinv = [np.linalg.inv(V) for V in self._V]
        # ||V_chi^-1||_2 is 1 / the smallest singular value of V_chi
        sv = [np.linalg.svd(V, compute_uv=False) for V in self._V]
        self.cond = max(s[0] for s in sv) / min(s[-1] for s in sv)
        self.method = "eig" if self.cond <= cond_limit else "expm"

    @cached_property
    def V(self):
        return self.frame.columns(self._V)

    @cached_property
    def Vinv(self):
        return self.frame.rows(self._Vinv)

    def propagator(self, t):
        if t < 0:
            raise ValueError("propagator requires t >= 0")
        if self.method == "eig":
            # exp(-t X) of a real block is real: drop the rounding in .imag
            blocks = [((V * np.exp(-t * w)) @ Vinv).real
                      for w, V, Vinv in zip(self._w, self._V, self._Vinv)]
        else:
            blocks = [expm(-t * X) for X in self.blocks]
        return self.frame.to_nodes(blocks)

    def slow_factors(self):
        """(a, b) with P~ = a @ b, the spectral projector onto the
        eigenvectors of the two eigenvalues of smallest real part."""
        sel = np.argsort(self.w.real, kind="stable")[:2]
        return self.V[:, sel], self.Vinv[sel, :]


def semigroup(L, disp, p, t, cond_limit=1e8):
    """One-shot propagator exp(-t D(p))."""
    return ModeSemigroup(L, disp, p, cond_limit).propagator(t)


def h_operator_norm(disp, mat):
    """Operator norm in the omega^2-weighted inner product: the spectral
    norm of the omega-similarity transform, by Lanczos (`_spectral_norm`)."""
    return _spectral_norm(disp.similarity(mat))


def h_low_rank_norm(disp, left, right):
    """`h_operator_norm` of left @ right for thin factors (N x k, k x N).

    With D = diag(omega), thin QRs D left = Q1 R1 and (right D^-1)^H = Q2 R2
    give D left right D^-1 = Q1 (R1 R2^H) Q2^H, whose norm is that of the
    k x k core.
    """
    w = disp.w
    r_left = np.linalg.qr(w[:, None] * left, mode="r")
    r_right = np.linalg.qr((right / w[None, :]).conj().T, mode="r")
    return float(np.linalg.norm(r_left @ r_right.conj().T, 2))


def sup_operator_norm(mat):
    """Operator norm induced by the sup norm on fields (max row sum)."""
    return float(np.abs(mat).sum(axis=1).max())


# ----------------------------------------------------------------------
# slow/fast block algebra


class SlowFastBlocks:
    """Blocks of a node-space matrix S against the slow pair, in thin form.

    The slow projection P = u to_coef (`SlowBasis`) is H-orthogonal and of
    rank 2: with D = diag(omega) and u~ = D u / sqrt(N), whose columns are
    l2-orthonormal, D P D^-1 = u~ u~^T.  The spectral projector
    P~ = a b (`ModeSemigroup.slow_factors`) has rank 2 as well.  So
    Q = I - P and Q~ = I - P~ act as rank-2 updates in O(N^2), the
    off-diagonal blocks are P S Q = u (to_coef S Q) and
    Q S P = (Q S u) to_coef, and no N x N sandwich product is formed.
    """

    def __init__(self, basis, sg):
        self.u, self.to_coef = basis.u, basis.to_coef
        self.a, self.b = sg.slow_factors()

    def q_left(self, X):
        """Q X for an N x k factor."""
        return X - self.u @ (self.to_coef @ X)

    def q_right(self, Y):
        """Y Q for a k x N factor."""
        return Y - (Y @ self.u) @ self.to_coef

    def split(self, S):
        """(to_coef S Q, Q S u, Q S Q); the last as
        Q S Q = S - u (to_coef S) - (Q S u) to_coef."""
        Y = self.to_coef @ S
        QZ = self.q_left(S @ self.u)
        QSQ = S - self.u @ Y
        QSQ -= QZ @ self.to_coef
        return self.q_right(Y), QZ, QSQ

    def deflation(self, S):
        """Thin factors (N x 4, 4 x N) of QSQ - Q Q~ S Q~ Q.

        That difference is Q (P~ S + S P~ - P~ S P~) Q
        = Q [a, S a] [b S - (b S a) b; b] Q.  P~ S = S P~ is not assumed:
        when S comes from the Pade fallback it holds only to that
        exponential's accuracy.
        """
        a, b = self.a, self.b
        Sa = S @ a
        left = self.q_left(np.hstack([a, Sa]))
        right = self.q_right(np.vstack([b @ S - (b @ Sa) @ b, b]))
        return left, right

    def fast(self, S):
        """S Q~ = S - (S a) b."""
        return S - (S @ self.a) @ self.b


@dataclass(frozen=True)
class BlockResiduals:
    t: float
    pp: float
    pq: float
    qp: float
    qq: float
    slow_norm: float


def block_decomposition_check(L, summary, kappa, p, times, cond_limit=1e8):
    """Residuals of the four propagator blocks against their leading terms.

    The slow-slow block is compared to K_t = u k_t to_coef with
    k_t = exp(-t p^2 kappa), the off-diagonal blocks to its compositions with
    the couplings A = -(i/2pi) L^-1 diag(p . grad omega) and
    B = -(i/2pi) P diag(p . grad omega) L^-1, and the fast-fast block to
    A K_t B plus the doubly-projected remainder Q Q~ S Q~ Q from the spectral
    projection onto the two slowest eigenvectors.  Only thin factors are
    formed: A u is the slaving map of the orthonormal pair (`slaved_state`),
    and since L^-1 is H-self-adjoint, to_coef B = ((A u) omega^2)^T / N.  The
    pp, pq and qp residuals have rank <= 2, the qq residual
    Q (P~ S + S P~ - P~ S P~) Q - (A u) k_t (to_coef B) rank <= 6; all are
    weighted operator norms (`SlowFastBlocks`, `h_low_rank_norm`).
    """
    basis = kappa.basis
    disp = basis.disp
    p = np.asarray(p, dtype=float)
    p2 = float(p @ p)
    sg = ModeSemigroup(L, disp, p, cond_limit)
    blocks = SlowFastBlocks(basis, sg)
    u, to_coef = blocks.u, blocks.to_coef
    solver = DeflatedInverse(L, disp, summary)
    Au = slaved_state(solver, SlowState(*basis.coeff_map), p).T
    TB = (Au * disp.w_sq[:, None]).T / disp.grid.size

    rows = []
    for t in times:
        S = sg.propagator(t)
        k_t = expm(-t * p2 * kappa.kappa_op)
        YQ, QZ, _ = blocks.split(S)
        left, right = blocks.deflation(S)
        rows.append(
            BlockResiduals(
                t=float(t),
                pp=h_low_rank_norm(disp, u @ (to_coef @ S @ u - k_t), to_coef),
                pq=h_low_rank_norm(disp, u, YQ - k_t @ TB),
                qp=h_low_rank_norm(disp, QZ - Au @ k_t, to_coef),
                qq=h_low_rank_norm(
                    disp, np.hstack([left, Au @ k_t]), np.vstack([right, -TB])
                ),
                slow_norm=h_low_rank_norm(disp, u @ k_t, to_coef),
            )
        )
    return rows


# ----------------------------------------------------------------------
# semigroup bound sweep


@dataclass
class SemigroupSweep:
    """Measured block norms over a (p, t) grid plus fitted decay constants.

    `c_hat` is fitted from the time decay of the spectrally-projected fast
    part; `bound_ratio_*` are the measured norms divided by the claimed
    envelopes at the fitted constants.  The constants are artifacts of the
    grid and kernel width.
    """

    p_values: np.ndarray
    t_values: np.ndarray
    full_norm: np.ndarray
    full_norm_sup: np.ndarray
    pq_norm: np.ndarray
    qp_norm: np.ndarray
    qq_norm: np.ndarray
    qq_deflated_norm: np.ndarray
    qtilde_norm: np.ndarray
    c_hat: float
    bound_ratio_pq: np.ndarray
    bound_ratio_full: np.ndarray
    qq_halving_ratios: np.ndarray


def semigroup_bound_sweep(L, kappa, p_values, t_values, direction=None,
                          cond_limit=1e8):
    """Measure the propagator block norms over a (p, t) grid.

    For each p (magnitudes along `direction`, default first axis) and t the
    sweep records the weighted norms of the full propagator S, the
    slow-to-fast and fast-to-slow blocks, the fast-fast block, and the
    spectrally-projected remainder; it then fits the exponential rate from
    the remainder decay and reports measured-over-envelope ratios.

    The blocks come from rank-2 factors (`SlowFastBlocks`): P S Q and
    Q S P have rank <= 2, the deflated block QSQ - Q Q~ S Q~ Q has rank
    <= 4, and Q S Q and S Q~ are rank-2 updates of S.  S itself is formed
    per sector block (`ModeSemigroup.propagator`); the norms of S, Q S Q and
    S Q~ are Lanczos iterations of O(N^2) matvecs each (`h_operator_norm`).
    """
    basis = kappa.basis
    disp = basis.disp
    e = unit_direction(disp.grid.d, direction)
    p_values = np.asarray(p_values, dtype=float)
    t_values = np.asarray(t_values, dtype=float)
    n_p, n_t = p_values.size, t_values.size

    shape = (n_p, n_t)
    full = np.zeros(shape)
    full_sup = np.zeros(shape)
    pq = np.zeros(shape)
    qp = np.zeros(shape)
    qq = np.zeros(shape)
    qq_defl = np.zeros(shape)
    qtil = np.zeros(shape)

    for i, p_abs in enumerate(p_values):
        sg = ModeSemigroup(L, disp, p_abs * e, cond_limit)
        blocks = SlowFastBlocks(basis, sg)
        for j, t in enumerate(t_values):
            S = sg.propagator(t)
            full[i, j] = h_operator_norm(disp, S)
            full_sup[i, j] = sup_operator_norm(S)
            YQ, QZ, QSQ = blocks.split(S)
            pq[i, j] = h_low_rank_norm(disp, basis.u, YQ)
            qp[i, j] = h_low_rank_norm(disp, QZ, basis.to_coef)
            qq[i, j] = h_operator_norm(disp, QSQ)
            # the p-independent remainder (doubly projected off the slow
            # pair) is subtracted before measuring the p^2 scaling
            qq_defl[i, j] = h_low_rank_norm(disp, *blocks.deflation(S))
            qtil[i, j] = h_operator_norm(disp, blocks.fast(S))

    # rate from the remainder decay: log qtilde ~ -c t (averaged over p)
    logq = np.log(np.maximum(qtil, 1e-300))
    slopes = [np.polyfit(t_values, logq[i], 1)[0] for i in range(n_p)]
    c_hat = float(max(-np.mean(slopes), 0.0))

    pv = p_values[:, None]
    tv = t_values[None, :]
    envelope = np.exp(-c_hat * tv * pv**2) + np.exp(-c_hat * tv)
    ratio_pq = pq / np.maximum(pv * envelope, 1e-300)
    ratio_full = full / np.maximum(envelope, 1e-300)

    halving = []
    for i in range(n_p - 1):
        num, den = qq_defl[i + 1], qq_defl[i]
        scale = (p_values[i + 1] / p_values[i]) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            halving.append(np.where(den > 0, num / den / scale, np.nan))
    halving = np.array(halving) if halving else np.zeros((0, n_t))

    return SemigroupSweep(
        p_values=p_values,
        t_values=t_values,
        full_norm=full,
        full_norm_sup=full_sup,
        pq_norm=pq,
        qp_norm=qp,
        qq_norm=qq,
        qq_deflated_norm=qq_defl,
        qtilde_norm=qtil,
        c_hat=c_hat,
        bound_ratio_pq=ratio_pq,
        bound_ratio_full=ratio_full,
        qq_halving_ratios=halving,
    )


# ----------------------------------------------------------------------
# dispersion-relation sweep (quadratic eigenvalue coefficients vs kappa)


@dataclass(frozen=True)
class DispersionRelationSweep:
    p_values: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray
    quad_coef: np.ndarray
    mu: np.ndarray
    rel_err: np.ndarray


def dispersion_relation_sweep(L, kappa, p_values, direction=None):
    """Fit the two lowest eigenvalues of the mode operator to c * p^2 and
    compare the coefficients with the conductivity eigenvalues."""
    disp = kappa.basis.disp
    e = unit_direction(disp.grid.d, direction)
    p_values = np.asarray(p_values, dtype=float)
    lam1 = np.zeros(p_values.size, dtype=complex)
    lam2 = np.zeros(p_values.size, dtype=complex)
    for i, p_abs in enumerate(p_values):
        lam1[i], lam2[i] = spectrum_D(L, disp, p_abs * e)[:2]
    p2 = p_values**2
    coef = np.array(
        [
            float(np.dot(p2, lam1.real) / np.dot(p2, p2)),
            float(np.dot(p2, lam2.real) / np.dot(p2, p2)),
        ]
    )
    coef_sorted = np.sort(coef)
    mu = np.sort(np.asarray(kappa.mu, dtype=float))
    rel = np.abs(coef_sorted - mu) / np.abs(mu)
    return DispersionRelationSweep(
        p_values=p_values,
        lam1=lam1,
        lam2=lam2,
        quad_coef=coef_sorted,
        mu=mu,
        rel_err=rel,
    )


# ----------------------------------------------------------------------
# weighted norms and trajectories


@dataclass(frozen=True)
class WeightedNormSpec:
    """Envelope (1 + (t+1) p^2)^(-n_w) and the induced sup-over-modes norm."""

    d: int
    n_w: int = 0

    def __post_init__(self):
        if self.n_w == 0:
            object.__setattr__(self, "n_w", self.d // 2 + 1)
        if 2 * self.n_w <= self.d:
            raise ValueError("weight exponent must exceed d/2")

    def envelope(self, p_abs, t):
        p_abs = np.asarray(p_abs, dtype=float)
        return (1.0 + (t + 1.0) * p_abs**2) ** (-self.n_w)

    def norm_t(self, p_abs, fields, t):
        """sup_p envelope^{-1} sup_k |f(p, k)| for stacked mode fields."""
        sup_k = np.abs(np.asarray(fields)).max(axis=-1)
        return float((sup_k / self.envelope(p_abs, t)).max())


@dataclass
class EvolutionTrajectory:
    """Snapshots on a strictly increasing time grid plus diagnostics streams.

    `states` is (n_times, n_modes_or_cells, n_k); mode-space trajectories are
    complex per spatial frequency, box trajectories real per cell.
    """

    times: np.ndarray
    states: np.ndarray
    representation: str
    p_values: np.ndarray = None
    box_length: float = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly increasing")


def box_modes(n_x, box_length):
    """Spatial frequencies of the periodic box, in FFT order."""
    return TWO_PI * np.fft.fftfreq(n_x, d=box_length / n_x)


def evolve_linear(L, disp, p_values, w0, times, direction=None, cond_limit=1e8):
    """Propagate each mode with its own semigroup: w(p, t) = exp(-tD(p)) w(p, 0)."""
    e = unit_direction(disp.grid.d, direction)
    p_values = np.asarray(p_values, dtype=float)
    w0 = np.asarray(w0, dtype=complex)
    times = np.asarray(times, dtype=float)
    states = np.zeros((times.size, p_values.size, disp.grid.size), dtype=complex)
    for i, p_abs in enumerate(p_values):
        sg = ModeSemigroup(L, disp, p_abs * e, cond_limit)
        for j, t in enumerate(times):
            states[j, i] = sg.propagator(t) @ w0[i]
    return EvolutionTrajectory(
        times=times, states=states, representation="mode", p_values=p_values
    )


# ----------------------------------------------------------------------
# nonlinear box evolution (method of lines, spectral transport, RK4)


def stable_step(L, disp, n_x, box_length):
    """Step heuristic: STEP_SAFETY / (collision diagonal rate + transport
    rate)."""
    rate_coll = float(np.diag(L).real.max())
    rate_trans = (
        np.abs(disp.grad[:, 0]).max() / TWO_PI * np.pi * n_x / box_length
    )
    return STEP_SAFETY / (rate_coll + rate_trans)


def _transport_rhs(disp, W, ik):
    dW = np.fft.irfft(ik[:, None] * np.fft.rfft(W, axis=0), n=W.shape[0], axis=0)
    return -(disp.grad[:, 0][None, :] / TWO_PI) * dW


def evolve_nonlinear(evaluator, L, W0, times, box_length, dt=None):
    """Method-of-lines RK4 for the full equation on a 1-D periodic box.

    Transport acts along the first axis only, differentiated spectrally;
    collisions act per cell through `evaluator.apply_batch`.  The step is
    `dt`, or `stable_step` of L when dt is None.  Positivity loss aborts with
    the failing time in the message.
    """
    disp = evaluator.disp
    W = np.array(W0, dtype=float)
    if W.ndim != 2 or W.shape[1] != disp.grid.size:
        raise ValueError("initial state must be (n_cells, n_k)")
    if W.min() <= 0:
        raise ValueError("initial state must be positive")
    n_x = W.shape[0]
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if dt is None:
        dt = stable_step(L, disp, n_x, box_length)
    ik = 1j * TWO_PI * np.fft.rfftfreq(n_x, d=box_length / n_x)

    def rhs(W):
        return _transport_rhs(disp, W, ik) + evaluator.apply_batch(W)

    slow = np.stack([disp.winv, disp.winv2], axis=1)
    pair = slow * disp.w_sq[:, None] / disp.grid.size  # (N, 2): field -> (T1, T2)

    states = np.zeros((times.size,) + W.shape)
    diag = {
        "T_mean": np.zeros((times.size, 2)),
        "T_sup": np.zeros((times.size, 2)),
        "conservation_sup": np.zeros((times.size, 2)),
        "current_sup": np.zeros(times.size),
    }

    def record(j, W):
        states[j] = W
        T = W @ pair  # (n_x, 2)
        diag["T_mean"][j] = T.mean(axis=0)
        diag["T_sup"][j] = np.abs(T - T.mean(axis=0)).max(axis=0)
        C = evaluator.apply_batch(W)
        r0 = np.abs(C.mean(axis=1)).max()
        r1 = np.abs(C @ disp.w).max() / disp.grid.size
        diag["conservation_sup"][j] = (r0, r1)
        jcur = (W * disp.w_sq) @ disp.grad[:, 0] / disp.grid.size / TWO_PI
        diag["current_sup"][j] = np.abs(jcur).max()

    record(0, W)
    t = 0.0
    for j in range(1, times.size):
        span = times[j] - t
        n_sub = max(1, int(np.ceil(span / dt)))
        h = span / n_sub
        for _ in range(n_sub):
            k1 = rhs(W)
            k2 = rhs(W + 0.5 * h * k1)
            k3 = rhs(W + 0.5 * h * k2)
            k4 = rhs(W + h * k3)
            W = W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            if W.min() <= 0:
                raise FloatingPointError(
                    f"state positivity lost at t = {t:.6g}"
                )
        record(j, W)
    return EvolutionTrajectory(
        times=times,
        states=states,
        representation="space",
        p_values=box_modes(n_x, box_length),
        box_length=box_length,
        diagnostics=diag,
    )


# ----------------------------------------------------------------------
# diffusive-decay diagnostics


@dataclass
class DecayReport:
    """Distance of the slow/fast parts from their leading-order laws.

    Slopes are fitted on log-log axes after dividing out the planar
    logarithmic correction; `t_box` is where the largest-box-mode decay
    first exceeds the contamination budget, and the fit window is the
    trajectory times inside [t_min, t_box].
    """

    times: np.ndarray
    norm_T: np.ndarray
    norm_v: np.ndarray
    t_box: float
    fit_times: np.ndarray
    slope_T: float
    slope_v: float
    window_empty: bool
    contamination: float


def loglog_slope(ts, ys):
    """Least-squares slope of log y against log t."""
    ts = np.asarray(ts, dtype=float)
    ys = np.maximum(np.asarray(ys, dtype=float), 1e-300)
    return float(np.polyfit(np.log(ts), np.log(ys), 1)[0])


def _to_modes(traj):
    if traj.representation == "mode":
        return traj.p_values, np.asarray(traj.states, dtype=complex)
    n_x = traj.states.shape[1]
    modes = np.fft.fft(traj.states, axis=1) / n_x
    return traj.p_values, modes


def decay_diagnostics(traj, kappa, t_min=10.0, contamination=0.1):
    """Per-time distances from the explicit leading-order evolution.

    The slow part is compared against the conductivity heat flow of the
    initial slow data (sharp cutoff at |p| = 1), the fast part against the
    slaved gradient response of that flow, L^-1 (d_1 omega * u), which is
    the conductivity's own solve: ``kappa`` must be taken along the
    transport axis 0.  Log-log decay slopes are fitted on times in
    [t_min, t_box] after removing the log(1+t) factor; an empty window is
    reported as such, with slopes NaN.
    """
    if kappa.axis != 0:
        raise ValueError(f"kappa must be taken along axis 0, not {kappa.axis}")
    norm_spec = WeightedNormSpec(d=kappa.basis.disp.grid.d)
    p_values, modes = _to_modes(traj)
    p_abs = np.abs(p_values)
    n_t = traj.times.size

    U = kappa.basis.u

    # slow heat flow of the initial data, in orthonormal coordinates
    muv, O = np.linalg.eigh(kappa.kappa_op)
    coef0 = modes[0] @ kappa.basis.to_coef.T  # (n_p, 2)
    cut = (p_abs <= 1.0).astype(float)
    coef0 = coef0 * cut[:, None]

    slave = kappa.response_fields @ kappa.basis.coeff_map  # (N, 2)

    norm_T = np.zeros(n_t)
    norm_v = np.zeros(n_t)
    for j, t in enumerate(traj.times):
        Tfields = kappa.basis.project_P(modes[j])
        vfields = modes[j] - Tfields
        decay = np.exp(-t * p_abs[:, None] ** 2 * muv[None, :])
        coef_ref = ((coef0 @ O) * decay) @ O.T
        T0fields = coef_ref @ U.T
        v0fields = (-1j / TWO_PI) * p_values[:, None] * (coef_ref @ slave.T)
        norm_T[j] = norm_spec.norm_t(p_abs, Tfields - T0fields, t)
        norm_v[j] = norm_spec.norm_t(p_abs, vfields - v0fields, t)

    nonzero = p_abs[p_abs > 0]
    if nonzero.size:
        p_min = float(nonzero.min())
        t_box = -np.log1p(-contamination) / (p_min**2 * muv.min())
    else:
        t_box = np.inf

    mask = (traj.times >= t_min) & (traj.times <= t_box)
    fit_times = traj.times[mask]
    if fit_times.size >= 3:
        corr = np.log1p(fit_times)
        slope_T = loglog_slope(fit_times, norm_T[mask] / corr)
        slope_v = loglog_slope(fit_times, norm_v[mask] / corr)
        empty = False
    else:
        slope_T = slope_v = float("nan")
        empty = True
    return DecayReport(
        times=traj.times,
        norm_T=norm_T,
        norm_v=norm_v,
        t_box=float(t_box),
        fit_times=fit_times,
        slope_T=slope_T,
        slope_v=slope_v,
        window_empty=empty,
        contamination=contamination,
    )


# ----------------------------------------------------------------------
# diffusive-scaling study


@dataclass(frozen=True)
class HydroStudyRow:
    eps: float
    distance_T: float
    distance_v: float
    n_steps: int
    newton_iterations: int


@dataclass
class HydroStudy:
    rows: list
    t_compare: float
    monotone: bool
    final_vs_first: float


def _heat_reference(model, tau0, box_length, t_final, dt):
    """Nonlinear heat flow of the slow coefficients on the box.

    The mean diffusivity is integrated implicitly per spatial mode (2x2
    solves); the state-dependent remainder of the response surface is
    explicit.  Returns the coefficient field at t_final.
    """
    tau = np.array(tau0, dtype=float)  # (n_x, 2)
    n_x = tau.shape[0]
    ik = 1j * box_modes(n_x, box_length)
    K0 = model.K0
    p2 = np.abs(ik) ** 2
    n_steps = max(1, int(np.ceil(t_final / dt)))
    h = t_final / n_steps
    inv = np.linalg.inv(
        np.eye(2)[None, :, :] + h * p2[:, None, None] * K0[None, :, :]
    )  # (n_x, 2, 2)
    for _ in range(n_steps):
        grad = np.fft.ifft(ik[:, None] * np.fft.fft(tau, axis=0), axis=0).real
        Kx = model.evaluate(tau[:, 0], tau[:, 1])  # (n_x, 2, 2)
        flux = np.einsum("xab,xb->xa", Kx - K0[None, :, :], grad)
        rem = np.fft.ifft(
            ik[:, None] * np.fft.fft(flux, axis=0), axis=0
        ).real
        rhs_hat = np.fft.fft(tau + h * rem, axis=0)
        tau = np.fft.ifft(
            np.einsum("xab,xb->xa", inv, rhs_hat), axis=0
        ).real
    return tau


def _imex_kinetic(evaluator, L, W0, eps, t_final, dt, box_length):
    """Rescaled kinetic solve: exact spectral transport at rate 1/eps,
    backward-Euler collisions at rate 1/eps^2 via frozen-Jacobian Newton."""
    disp = evaluator.disp
    W = np.array(W0, dtype=float)
    n_x = W.shape[0]
    n_steps = max(1, int(np.ceil(t_final / dt)))
    h = t_final / n_steps
    scale = h / eps**2

    # transport phase: exp(-i h p grad1 / (2 pi eps)) per (p, k)
    p_half = TWO_PI * np.fft.rfftfreq(n_x, d=box_length / n_x)
    phase = np.exp(
        -1j * h * p_half[:, None] * disp.grad[:, 0][None, :] / (TWO_PI * eps)
    )

    lu = lu_factor(np.eye(disp.grid.size) + scale * L)
    total_newton = 0
    for _ in range(n_steps):
        W = np.fft.irfft(phase * np.fft.rfft(W, axis=0), n=n_x, axis=0)
        target = W
        for it in range(MAX_NEWTON):
            F = W - target - scale * evaluator.apply_batch(W)
            err = np.abs(F).max()
            if err <= NEWTON_TOL:
                break
            W = W - lu_solve(lu, F.T).T
            total_newton += 1
        else:
            raise RuntimeError(
                f"implicit collision solve stalled at residual {err:.2e}"
            )
        if W.min() <= 0:
            raise FloatingPointError("state positivity lost in scaled solve")
    return W, n_steps, total_newton


def hydro_limit_study(response, kappa, tau0, v0_fields, box_length,
                      eps_list=(0.4, 0.2, 0.1, 0.05), t_compare=1.0,
                      dt_base=0.02, dt_reference=1e-3):
    """Distance of the rescaled kinetic solutions from the heat reference.

    For each eps the kinetic equation is solved with transport scaled by
    1/eps and collisions by 1/eps^2 (exact spectral transport, implicit
    collisions); the reference is the nonlinear heat flow of the slow
    coefficients plus the shifted-background slaved fast part.  Distances
    are weighted-envelope mode norms at t_compare.  The collision evaluator,
    L and the dispersion field are those of ``response``.
    """
    disp = response.disp
    norm_spec = WeightedNormSpec(d=disp.grid.d)
    tau0 = np.asarray(tau0, dtype=float)
    v0_fields = np.asarray(v0_fields, dtype=float)
    n_x = tau0.shape[0]
    U = kappa.basis.u
    p_values = box_modes(n_x, box_length)
    p_abs = np.abs(p_values)
    ik = 1j * p_values

    model = DiffusivityModel(response)
    tau_ref = _heat_reference(model, tau0, box_length, t_compare, dt_reference)
    T_ref = tau_ref @ U.T  # (n_x, N)

    grad_ref = np.fft.ifft(ik[:, None] * np.fft.fft(tau_ref, axis=0), axis=0).real
    rhs = -(1.0 / TWO_PI) * disp.grad[:, 0][None, :] * (grad_ref @ U.T)
    v_ref = response.solve_batch(T_ref, rhs)

    ref_T_modes = np.fft.fft(T_ref, axis=0) / n_x
    ref_v_modes = np.fft.fft(v_ref, axis=0) / n_x

    rows = []
    distances = []
    for eps in eps_list:
        W0 = disp.winv[None, :] + tau0 @ U.T + eps * v0_fields
        if W0.min() <= 0:
            raise ValueError("initial data breaks positivity")
        W, n_steps, n_newton = _imex_kinetic(
            response.evaluator, response.L, W0, eps, t_compare, dt_base * eps,
            box_length,
        )
        w = W - disp.winv[None, :]
        T_eps = kappa.basis.project_P(w)
        v_eps = (w - T_eps) / eps
        dT = norm_spec.norm_t(
            p_abs, np.fft.fft(T_eps, axis=0) / n_x - ref_T_modes, t_compare
        )
        dv = norm_spec.norm_t(
            p_abs, np.fft.fft(v_eps, axis=0) / n_x - ref_v_modes, t_compare
        )
        rows.append(
            HydroStudyRow(
                eps=float(eps),
                distance_T=dT,
                distance_v=dv,
                n_steps=n_steps,
                newton_iterations=n_newton,
            )
        )
        distances.append(dT)
    distances = np.array(distances)
    monotone = bool(np.all(np.diff(distances) < 0))
    return HydroStudy(
        rows=rows,
        t_compare=float(t_compare),
        monotone=monotone,
        final_vs_first=float(distances[-1] / distances[0])
        if distances[0] > 0
        else 0.0,
    )

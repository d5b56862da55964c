"""Per-mode dynamics and time integration.

A spatial Fourier mode p turns the transport term into a diagonal phase and
the linear dynamics into the dense complex array D(p) = L + (i/2pi)
diag(p . grad omega) (`mode_matrix`, L a plain array).  Along one direction
e, D(|p| e) commutes with the sign flips of the axes where e vanishes and,
because omega is even and grad omega odd, with inversion k -> -k composed
with complex conjugation.  So in the symmetry frame of e
(`TorusGrid.symmetry_frame`) it splits into real blocks, one per character
of the flips.  `ModeFamily(model, direction)` holds what does not depend on
|p|: the image of the model's L in that frame, the L part of the `SYM_TOL`
check and each sector's Bendixson floor; per |p| only the sparse image of
the phase is added and checked.  The spectrum, the slow-eigenvalue count
(which never diagonalizes a sector whose floor clears the threshold) and
the semigroup are taken block by block (`spectrum_D`,
`count_slow_eigenvalues`, `ModeSemigroup`), and so are the weighted norms
of the propagator and of its fast blocks (`h_operator_norm`); the complex
eigendecomposition of the full D(p) is only the tests' oracle.

The run's `LinearModel` is the one source of L, omega and the slow frame:
`semigroup_bound_sweep` and `evolve_linear` read it from the family,
`block_decomposition_check` and `dispersion_relation_sweep` build the family
from ``kappa.model``, and `stable_step` takes it.  The box integrator
`evolve_nonlinear` reads omega from the collision evaluator, and the
diffusive-scaling study `hydro_limit_study` the evaluator and the model from
its `CollisionResponse`.  No N x N projector or inverse is formed.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eig, eigvalsh, expm, lu_factor, lu_solve

from .hydrodynamics import TWO_PI, DiffusivityModel, SlowState, slaved_state
from .linearized import SYM_TOL

# `find_p0` bisects |p| in (1e-14, FIND_P0_MAX] to FIND_P0_REL_TOL relative
# width; `ModeSemigroup` takes the Pade path past COND_LIMIT; an explicit step
# is STEP_SAFETY over the fastest rate (`stable_step`); NEWTON_TOL and
# MAX_NEWTON stop the Newton solve of each backward-Euler collision step.
FIND_P0_MAX = 1.0
FIND_P0_REL_TOL = 1e-3
COND_LIMIT = 1e8
STEP_SAFETY = 0.4
NEWTON_TOL = 1e-11
MAX_NEWTON = 12


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


class ModeFamily:
    """The mode matrices D(|p| e) of the L of ``model`` (`LinearModel`) along
    one direction e (`unit_direction`), as real blocks
    X_chi = B_chi^H D(|p| e) B_chi in the symmetry frame of the sign flips of
    the axes where e vanishes (`TorusGrid.symmetry_frame`).

    With B = R diag(eps), the p-independent image R^T L R is formed once
    and split into the L parts of the blocks; per |p| only the sparse image
    R^T diag(phase) R is added (`blocks`), so the blocks are the real
    parts of B^H D B.  The symmetry check is split the same way: the part
    of L's image that B^H L B would put off the blocks or into their
    imaginary parts is measured once (`spectrum_L` has rejected an L that
    breaks the axis flips); at each |p| it is added to the phase image's
    part and held to `SYM_TOL` of max |D|.

    omega is constant on the support of every frame column (`omega`, one
    array per sector), so diag(omega_chi) X_chi diag(omega_chi)^-1 is the
    block of the omega-similarity form H + iK, whose symmetric part is that
    of L's block alone: the block of iK is antisymmetric (up to rounding).
    Its smallest eigenvalue (`floors`) bounds from below the real part of
    every eigenvalue of the sector at every |p| (Bendixson).
    """

    def __init__(self, model, direction=None):
        self.model = model
        L, disp = model.L, model.disp
        self.e = unit_direction(disp.grid.d, direction)
        self.frame = frame = disp.grid.symmetry_frame(np.flatnonzero(self.e == 0.0))
        image = frame.image(L)
        self._L_blocks = frame.sector_blocks(image)
        self._L_leak = frame.leak(image)
        self._L_max = float(np.abs(L).max())
        self._L_diag = np.diag(L)
        w = frame.column_values(disp.w)
        self.omega = [w[sector] for sector in frame.sectors]
        self.floors = []
        for X, w_chi in zip(self._L_blocks, self.omega):
            H = (w_chi[:, None] / w_chi[None, :]) * X
            low = eigvalsh(0.5 * (H + H.T), subset_by_index=[0, 0])
            self.floors.append(float(low[0]))

    def blocks(self, p_abs):
        """The real sector blocks of D(|p| e).  Raises ValueError when the
        part of B^H D B off the blocks or in their imaginary parts exceeds
        `SYM_TOL` of max |D|."""
        _, phase = _frequency(self.model.disp, p_abs * self.e)
        image = self.frame.diagonal_image(phase)
        leak = self._L_leak + self.frame.leak(image, imaginary=True)
        # max |D|, with D = L + i diag(phase) never formed
        scale = max(self._L_max, float(np.hypot(self._L_diag, phase).max()))
        if leak > SYM_TOL * scale:
            raise ValueError(
                f"mode matrix breaks the lattice symmetry: residual "
                f"{leak / scale:.2e} of max |D| exceeds {SYM_TOL:.0e}"
            )
        return [X + Y for X, Y in zip(
            self._L_blocks, self.frame.sector_blocks(image, imaginary=True))]


def spectrum_D(modes, p_abs):
    """Eigenvalues of D(|p| e), sorted by increasing real part and, within a
    complex-conjugate pair (equal real parts), by imaginary part: the union
    of the eigenvalues of its real sector blocks (`ModeFamily.blocks`)."""
    ev = np.concatenate([np.linalg.eigvals(X) for X in modes.blocks(p_abs)])
    return ev[np.lexsort((ev.imag, ev.real))]


def count_slow_eigenvalues(modes, p_abs, threshold):
    """Number of eigenvalues of D(|p| e) with real part below the threshold,
    summed over its real sector blocks (`ModeFamily.blocks`).  A sector
    whose Bendixson floor is at or above the threshold has no such
    eigenvalue and is never diagonalized."""
    return sum(int(np.count_nonzero(np.linalg.eigvals(X).real < threshold))
               for X, floor in zip(modes.blocks(p_abs), modes.floors)
               if floor < threshold)


def find_p0(modes, gap):
    """Largest |p| at which exactly two eigenvalues sit below half the gap.

    Log-space bisection along the family's direction; the value is an
    artifact of the grid and kernel width, reported, never asserted against
    any external constant.
    """
    half = 0.5 * gap

    def count(p_abs):
        return count_slow_eigenvalues(modes, p_abs, half)

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
    """Propagator exp(-t D(|p| e)), block by block in the symmetry frame.

    Each real sector block X (`ModeFamily.blocks`) is diagonalized,
    X = V w V^-1 (`eig`, `inv`).  The propagator is exp(-t X) =
    V exp(-t w) V^-1 per block (`propagator_blocks`), or the
    scaled-and-squared Pade exponential of the block when the eigenbasis
    condition number cond = max ||V||_2 * max ||V^-1||_2 over the blocks
    exceeds `COND_LIMIT`; that is the condition number of the node-space
    eigenbasis, since the frame is unitary.  The spectral projector onto the
    two eigenvalues of smallest real part is P~ = a b, a = V[:, sel]
    (N x 2) and b = V^-1[sel, :] (2 x N); its sectors hold it in pieces
    (`sector_slow_factors`), since the two eigenvalues need not share a
    sector.  Q~ = I - P~ is never formed: S Q~ = S - (S a) b.
    """

    def __init__(self, modes, p_abs):
        self.p_abs = p_abs
        self.frame = modes.frame
        self.blocks = modes.blocks(p_abs)
        pairs = [eig(X) for X in self.blocks]
        self._w = [w for w, _ in pairs]
        self._V = [V for _, V in pairs]
        self.w = np.concatenate(self._w)
        self._Vinv = [np.linalg.inv(V) for V in self._V]
        # ||V_chi^-1||_2 is 1 / the smallest singular value of V_chi
        sv = [np.linalg.svd(V, compute_uv=False) for V in self._V]
        self.cond = max(s[0] for s in sv) / min(s[-1] for s in sv)
        self.method = "eig" if self.cond <= COND_LIMIT else "expm"

    @cached_property
    def V(self):
        return self.frame.columns(self._V)

    @cached_property
    def Vinv(self):
        return self.frame.rows(self._Vinv)

    def propagator_blocks(self, t):
        """The real sector blocks of exp(-t D)."""
        if t < 0:
            raise ValueError("propagator requires t >= 0")
        if self.method == "eig":
            # exp(-t X) of a real block is real: drop the rounding in .imag
            return [((V * np.exp(-t * w)) @ Vinv).real
                    for w, V, Vinv in zip(self._w, self._V, self._Vinv)]
        return [expm(-t * X) for X in self.blocks]

    def propagator(self, t):
        """exp(-t D) in node space."""
        return self.frame.to_nodes(self.propagator_blocks(t))

    def sector_slow_factors(self):
        """Per sector, None when neither of the two eigenvalues of smallest
        real part (a stable sort of all of them) sits in it, else
        (a_chi, b_chi) with P~ = diag(a_chi b_chi) in the frame: the columns
        of V_chi and rows of V_chi^-1 of those that do.  a_chi b_chi, a
        spectral projector of a real block, is real, since RuntimeError is
        raised when the second eigenvalue's conjugate partner is left out
        (P~ would pick one member of a pair by the eigensolver's order)."""
        sel = np.argsort(self.w.real, kind="stable")[:2]
        factors, start = [], 0
        for w, V, Vinv in zip(self._w, self._V, self._Vinv):
            local = [int(g) - start for g in sel if start <= g < start + w.size]
            start += w.size
            if not local:
                factors.append(None)
                continue
            if not np.all(np.isin(w[local].conj(), w[local])):
                raise RuntimeError(
                    f"the two slowest eigenvalues at |p| = {self.p_abs:.6g} "
                    f"split a complex-conjugate pair: {self.w[sel]}")
            factors.append((V[:, local], Vinv[local, :]))
        return factors


def h_operator_norm(modes, blocks):
    """Operator norm in the omega^2-weighted inner product of a matrix that
    is block-diagonal in the frame of `modes`, given by its sector blocks:
    the largest over the sectors of ||Y_chi||_2 with
    Y_chi = diag(omega_chi) X_chi diag(omega_chi)^-1, since the frame is
    unitary and omega is constant on each frame column.  ||Y||_2^2 is the
    largest eigenvalue of Y^H Y, which the symmetric eigensolver returns
    to a relative accuracy of a few eps times the block size; Y is first
    scaled by a power of two (exact) so that Y^H Y neither underflows nor
    overflows."""
    norm = 0.0
    for w, X in zip(modes.omega, blocks):
        Y = (w[:, None] / w[None, :]) * X
        amax = float(np.abs(Y).max(initial=0.0))
        if amax == 0.0:
            continue
        scale = 2.0 ** np.frexp(amax)[1]
        Y = Y / scale
        top = eigvalsh(Y.conj().T @ Y, subset_by_index=[w.size - 1] * 2)[0]
        norm = max(norm, float(np.sqrt(max(top, 0.0))) * scale)
    return norm


def h_low_rank_norm(disp, left, right):
    """Operator norm of left @ right in the omega^2-weighted inner product,
    for thin node-space factors (N x k, k x N).

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
    """Blocks of a propagator S against the slow pair, in thin or sector form.

    The slow projection P = u to_coef (`SlowBasis`) is H-orthogonal and of
    rank 2: with D = diag(omega) and u~ = D u / sqrt(N), whose columns are
    l2-orthonormal, D P D^-1 = u~ u~^T.  The spectral projector
    P~ = a b (from `ModeSemigroup.sector_slow_factors`, taken once) has
    rank 2 as well.  So Q = I - P and Q~ = I - P~ act as rank-2 updates,
    the off-diagonal blocks are P S Q = u (to_coef S Q) and
    Q S P = (Q S u) to_coef, and no N x N sandwich product is formed.  u and
    to_coef are even and real, so in the symmetry frame they live in the
    trivial sector 0 (`u0`, `t0`): Q S Q and S Q~ are block-diagonal there,
    Q acting on sector 0 only and Q~ on the sectors of its two eigenvalues
    (`qq_blocks`, `fast_blocks`).
    """

    def __init__(self, basis, sg):
        self.u, self.to_coef = basis.u, basis.to_coef
        self.u0 = sg.frame.coordinates(basis.u, 0)
        self.t0 = sg.frame.coordinates(basis.to_coef.T, 0).T
        self._slow = sg.sector_slow_factors()
        # (a, b) with P~ = a @ b in node space: N x 2 and 2 x N
        pieces = [(c, f) for c, f in enumerate(self._slow) if f is not None]
        self.a = np.hstack([sg.frame.sector_columns(c, f[0]) for c, f in pieces])
        self.b = np.vstack([sg.frame.sector_rows(c, f[1]) for c, f in pieces])

    def q_left(self, X):
        """Q X for an N x k factor."""
        return X - self.u @ (self.to_coef @ X)

    def q_right(self, Y):
        """Y Q for a k x N factor."""
        return Y - (Y @ self.u) @ self.to_coef

    def couplings(self, S):
        """(to_coef S Q, Q S u)."""
        return self.q_right(self.to_coef @ S), self.q_left(S @ self.u)

    def qq_blocks(self, blocks):
        """The sector blocks of Q S Q from those of S: in sector 0
        Q S Q = S - u0 (t0 S) - (Q S u0) t0, elsewhere S."""
        S0, u0, t0 = blocks[0], self.u0, self.t0
        QZ = S0 @ u0
        QZ -= u0 @ (t0 @ QZ)
        return [S0 - u0 @ (t0 @ S0) - QZ @ t0] + list(blocks[1:])

    def fast_blocks(self, blocks):
        """The sector blocks of S Q~: the real part of S_chi - (S_chi a_chi)
        b_chi (a_chi b_chi is real), and S_chi in a sector that P~ misses."""
        fast = []
        for S, slow in zip(blocks, self._slow):
            if slow is not None:
                a, b = slow
                S = (S - (S @ a) @ b).real
            fast.append(S)
        return fast

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


@dataclass(frozen=True)
class BlockResiduals:
    t: float
    pp: float
    pq: float
    qp: float
    qq: float
    slow_norm: float


def block_decomposition_check(kappa, p_abs, times, direction=None):
    """Residuals of the four propagator blocks against their leading terms,
    at p = |p| e along ``direction`` (`unit_direction`), for the mode family
    of ``kappa.model`` (`ModeFamily`).

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
    weighted operator norms (`SlowFastBlocks`, `h_low_rank_norm`).  The slow
    frame is that of ``kappa.model``.
    """
    model = kappa.model
    basis, disp = model.basis, model.disp
    modes = ModeFamily(model, direction)
    p = p_abs * modes.e
    p2 = float(p @ p)
    sg = ModeSemigroup(modes, p_abs)
    blocks = SlowFastBlocks(basis, sg)
    u, to_coef = blocks.u, blocks.to_coef
    Au = slaved_state(model, SlowState(*basis.coeff_map), p).T
    TB = (Au * disp.w_sq[:, None]).T / disp.grid.size

    rows = []
    for t in times:
        S = sg.propagator(t)
        k_t = expm(-t * p2 * kappa.kappa_op)
        YQ, QZ = blocks.couplings(S)
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


def semigroup_bound_sweep(modes, p_values, t_values):
    """Measure the propagator block norms over a (p, t) grid.

    For each p (magnitudes along the direction of `modes`, a `ModeFamily`)
    and t the sweep records the weighted norms of the full propagator S, the
    slow-to-fast and fast-to-slow blocks, the fast-fast block, and the
    spectrally-projected remainder; it then fits the exponential rate from
    the remainder decay and reports measured-over-envelope ratios.

    S is formed per sector block (`ModeSemigroup.propagator_blocks`), and
    S, Q S Q and S Q~ are block-diagonal in the frame, so their norms are
    the largest of their blocks' norms (`h_operator_norm`,
    `SlowFastBlocks.qq_blocks` and `fast_blocks`).  S in node space gives
    the sup norm and the thin blocks: P S Q and Q S P have rank <= 2 and
    the deflated block QSQ - Q Q~ S Q~ Q rank <= 4 (`h_low_rank_norm`).
    The slow frame is that of ``modes.model``.
    """
    basis = modes.model.basis
    disp = basis.disp
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
        sg = ModeSemigroup(modes, p_abs)
        blocks = SlowFastBlocks(basis, sg)
        for j, t in enumerate(t_values):
            S_blocks = sg.propagator_blocks(t)
            S = sg.frame.to_nodes(S_blocks)
            full[i, j] = h_operator_norm(modes, S_blocks)
            full_sup[i, j] = sup_operator_norm(S)
            YQ, QZ = blocks.couplings(S)
            pq[i, j] = h_low_rank_norm(disp, basis.u, YQ)
            qp[i, j] = h_low_rank_norm(disp, QZ, basis.to_coef)
            qq[i, j] = h_operator_norm(modes, blocks.qq_blocks(S_blocks))
            # the p-independent remainder (doubly projected off the slow
            # pair) is subtracted before measuring the p^2 scaling
            qq_defl[i, j] = h_low_rank_norm(disp, *blocks.deflation(S))
            qtil[i, j] = h_operator_norm(modes, blocks.fast_blocks(S_blocks))

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


def dispersion_relation_sweep(kappa, p_values, direction=None):
    """Fit the two lowest eigenvalues of the mode operator of
    ``kappa.model``'s L to c * p^2 and compare the coefficients with the
    conductivity eigenvalues."""
    modes = ModeFamily(kappa.model, direction)
    p_values = np.asarray(p_values, dtype=float)
    lam1 = np.zeros(p_values.size, dtype=complex)
    lam2 = np.zeros(p_values.size, dtype=complex)
    for i, p_abs in enumerate(p_values):
        lam1[i], lam2[i] = spectrum_D(modes, p_abs)[:2]
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


def evolve_linear(modes, p_values, w0, times):
    """Propagate each mode with its own semigroup: w(p, t) = exp(-tD(p)) w(p, 0),
    p = |p| e along the direction of `modes` (a `ModeFamily`)."""
    p_values = np.asarray(p_values, dtype=float)
    w0 = np.asarray(w0, dtype=complex)
    times = np.asarray(times, dtype=float)
    states = np.zeros((times.size, p_values.size, modes.model.disp.grid.size),
                      dtype=complex)
    for i, p_abs in enumerate(p_values):
        sg = ModeSemigroup(modes, p_abs)
        for j, t in enumerate(times):
            states[j, i] = sg.propagator(t) @ w0[i]
    return EvolutionTrajectory(
        times=times, states=states, representation="mode", p_values=p_values
    )


# ----------------------------------------------------------------------
# nonlinear box evolution (method of lines, spectral transport, RK4)


def stable_step(model, n_x, box_length):
    """Step heuristic: STEP_SAFETY / (collision diagonal rate of the model's
    L + transport rate)."""
    disp = model.disp
    rate_coll = float(np.diag(model.L).real.max())
    rate_trans = (
        np.abs(disp.grad[:, 0]).max() / TWO_PI * np.pi * n_x / box_length
    )
    return STEP_SAFETY / (rate_coll + rate_trans)


def _transport_rhs(disp, W, ik):
    dW = np.fft.irfft(ik[:, None] * np.fft.rfft(W, axis=0), n=W.shape[0], axis=0)
    return -(disp.grad[:, 0][None, :] / TWO_PI) * dW


def evolve_nonlinear(evaluator, W0, times, box_length, dt):
    """Method-of-lines RK4 for the full equation on a 1-D periodic box.

    Transport acts along the first axis only, differentiated spectrally;
    collisions act per cell through `evaluator.apply_batch`.  The step is at
    most `dt` (`stable_step` gives one).  Positivity loss aborts with the
    failing time in the message.
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
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    ik = 1j * TWO_PI * np.fft.rfftfreq(n_x, d=box_length / n_x)

    def rhs(W, C=None):
        if C is None:
            C = evaluator.apply_batch(W)
        return _transport_rhs(disp, W, ik) + C

    slow = np.stack([disp.winv, disp.winv2], axis=1)
    pair = slow * disp.w_sq[:, None] / disp.grid.size  # (N, 2): field -> (T1, T2)

    states = np.zeros((times.size,) + W.shape)
    diag = {
        "T_mean": np.zeros((times.size, 2)),
        "T_sup": np.zeros((times.size, 2)),
        "conservation_sup": np.zeros((times.size, 2)),
        "current_sup": np.zeros(times.size),
    }

    def record(j, W, C):
        states[j] = W
        T = W @ pair  # (n_x, 2)
        diag["T_mean"][j] = T.mean(axis=0)
        diag["T_sup"][j] = np.abs(T - T.mean(axis=0)).max(axis=0)
        r0 = np.abs(C.mean(axis=1)).max()
        r1 = np.abs(C @ disp.w).max() / disp.grid.size
        diag["conservation_sup"][j] = (r0, r1)
        jcur = (W * disp.w_sq) @ disp.grad[:, 0] / disp.grid.size / TWO_PI
        diag["current_sup"][j] = np.abs(jcur).max()

    # C(W) of the current state serves both its record and the first RK4
    # stage of the step that leaves it
    C = evaluator.apply_batch(W)
    record(0, W, C)
    t = 0.0
    for j in range(1, times.size):
        span = times[j] - t
        n_sub = max(1, int(np.ceil(span / dt)))
        h = span / n_sub
        for _ in range(n_sub):
            k1 = rhs(W, C)
            k2 = rhs(W + 0.5 * h * k1)
            k3 = rhs(W + 0.5 * h * k2)
            k4 = rhs(W + h * k3)
            W = W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            if W.min() <= 0:
                raise FloatingPointError(
                    f"state positivity lost at t = {t:.6g}"
                )
            C = evaluator.apply_batch(W)
        record(j, W, C)
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
    transport axis 0.  At t = 0 the slow distance is exactly the part of
    the data that the cutoff removes.  Log-log decay slopes are fitted on
    times in [t_min, t_box] after removing the log(1+t) factor; an empty
    window is reported as such, with slopes NaN.
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
        if t == 0:
            # the data itself: decay is 1 there, but O O^T is the identity
            # only up to rounding
            coef_ref = coef0
        else:
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


def _heat_reference(diffusivity, tau0, box_length, t_final, dt):
    """Nonlinear heat flow of the slow coefficients on the box.

    The mean diffusivity is integrated implicitly per spatial mode (2x2
    solves); the state-dependent remainder of the response surface is
    explicit.  Returns the coefficient field at t_final.
    """
    tau = np.array(tau0, dtype=float)  # (n_x, 2)
    n_x = tau.shape[0]
    ik = 1j * box_modes(n_x, box_length)
    K0 = diffusivity.K0
    p2 = np.abs(ik) ** 2
    n_steps = max(1, int(np.ceil(t_final / dt)))
    h = t_final / n_steps
    inv = np.linalg.inv(
        np.eye(2)[None, :, :] + h * p2[:, None, None] * K0[None, :, :]
    )  # (n_x, 2, 2)
    for _ in range(n_steps):
        grad = np.fft.ifft(ik[:, None] * np.fft.fft(tau, axis=0), axis=0).real
        Kx = diffusivity.evaluate(tau[:, 0], tau[:, 1])  # (n_x, 2, 2)
        flux = np.einsum("xab,xb->xa", Kx - K0[None, :, :], grad)
        rem = np.fft.ifft(
            ik[:, None] * np.fft.fft(flux, axis=0), axis=0
        ).real
        rhs_hat = np.fft.fft(tau + h * rem, axis=0)
        tau = np.fft.ifft(
            np.einsum("xab,xb->xa", inv, rhs_hat), axis=0
        ).real
    return tau


def _imex_kinetic(response, W0, eps, t_final, dt, box_length):
    """Rescaled kinetic solve: exact spectral transport at rate 1/eps,
    backward-Euler collisions at rate 1/eps^2 via frozen-Jacobian Newton on
    the evaluator and the model's L of ``response``."""
    evaluator = response.evaluator
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

    lu = lu_factor(np.eye(disp.grid.size) + scale * response.model.L)
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


def hydro_limit_study(response, tau0, v0_fields, box_length,
                      eps_list=(0.4, 0.2, 0.1, 0.05), t_compare=1.0,
                      dt_base=0.02, dt_reference=1e-3):
    """Distance of the rescaled kinetic solutions from the heat reference.

    For each eps the kinetic equation is solved with transport scaled by
    1/eps and collisions by 1/eps^2 (exact spectral transport, implicit
    collisions); the reference is the nonlinear heat flow of the slow
    coefficients plus the shifted-background slaved fast part.  Distances
    are weighted-envelope mode norms at t_compare.  The collision evaluator
    and the linear model (L, the slow basis) are those of ``response``.  The
    distances shrink monotonically only when there are at least two and each
    is below the one before.
    """
    disp, basis = response.model.disp, response.model.basis
    norm_spec = WeightedNormSpec(d=disp.grid.d)
    tau0 = np.asarray(tau0, dtype=float)
    v0_fields = np.asarray(v0_fields, dtype=float)
    n_x = tau0.shape[0]
    U = basis.u
    p_values = box_modes(n_x, box_length)
    p_abs = np.abs(p_values)
    ik = 1j * p_values

    diffusivity = DiffusivityModel(response)
    tau_ref = _heat_reference(diffusivity, tau0, box_length, t_compare, dt_reference)
    T_ref = tau_ref @ U.T  # (n_x, N)

    grad_ref = np.fft.ifft(ik[:, None] * np.fft.fft(tau_ref, axis=0), axis=0).real
    rhs = -(1.0 / TWO_PI) * disp.grad[:, 0][None, :] * (grad_ref @ U.T)
    v_ref, _ = response.solve_batch(T_ref, rhs)

    ref_T_modes = np.fft.fft(T_ref, axis=0) / n_x
    ref_v_modes = np.fft.fft(v_ref, axis=0) / n_x

    rows = []
    distances = []
    for eps in eps_list:
        W0 = disp.winv[None, :] + tau0 @ U.T + eps * v0_fields
        if W0.min() <= 0:
            raise ValueError("initial data breaks positivity")
        W, n_steps, n_newton = _imex_kinetic(
            response, W0, eps, t_compare, dt_base * eps, box_length)
        w = W - disp.winv[None, :]
        T_eps = basis.project_P(w)
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
    monotone = bool(distances.size >= 2 and np.all(np.diff(distances) < 0))
    return HydroStudy(
        rows=rows,
        t_compare=float(t_compare),
        monotone=monotone,
        final_vs_first=float(distances[-1] / distances[0])
        if distances[0] > 0
        else 0.0,
    )

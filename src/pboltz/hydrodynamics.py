"""Slow/fast decomposition, conductivity, currents, and the Fourier law.

The two conserved directions omega^-1 and omega^-2 span the slow subspace E.
One `LinearModel` per run holds L at equilibrium, its spectrum (the one
diagonalization, one block per sector of the axis sign flips), the one
slow frame `SlowBasis` (the H-orthogonal projection onto E) and the one
deflated inverse (L^-1 on the complement of the two lowest eigenvectors
over all sectors, solved sector by sector, so that it keeps the per-axis
parity of its right-hand side exactly).  On it this module builds the
slaving map -(i/2pi) L^-1 (p . grad omega) of a slow mode, the diffusion
matrix (2 pi)^-2 <g_a, L^-1 g_b>_H, observables and currents, the per-mode
Fourier-law residual, and the state-dependent diffusivity at a shifted
background.  L is a plain (N, N) array, used only through products
``L @ x``; `ConductivityMatrix` carries the model it was solved with, and
`CollisionResponse` takes the batched collision evaluator and the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .linearized import spectrum_L

TWO_PI = 2.0 * np.pi

# The shifted-background solves' tolerance and caps; the largest low-mode
# overlap and residual of the conductivity solves; the Fourier-law bound per
# unit |p| ||T||; the largest relative deviation of a per-axis conductivity,
# and of the cross-direction pairing (`ConductivityMatrix.cross_free`); the
# stencil half-width of `DiffusivityModel`.
RESPONSE_TOL = 1e-10
GMRES_MAXITER = 200
MAX_SWEEPS = 60
RHS_TOL = 1e-8
FOURIER_TOL_SCALE = 1e-6
ISOTROPY_TOL = 1e-8
CALIBRATION_STEP = 5e-3


# ----------------------------------------------------------------------
# slow subspace


@dataclass(frozen=True)
class SlowState:
    """Coefficients (t1, t2) of a slow field t1*omega^-1 + t2*omega^-2.

    The coefficients may be scalars or arrays (per space point or per
    spatial mode); ``as_field`` broadcasts them against the node axis.
    """

    t1: object
    t2: object

    def as_field(self, disp):
        t1 = np.asarray(self.t1)[..., None]
        t2 = np.asarray(self.t2)[..., None]
        return t1 * disp.winv + t2 * disp.winv2


class SlowBasis:
    """The slow pair {omega^-1, omega^-2}, its Gram matrix, and projections.

    ``gram[a, b] = inner_H(omega^-(a+1), omega^-(b+1))``; ``u`` holds the
    Gram-Schmidt orthonormal pair as columns, ``coeff_map`` the 2x2
    matrix S with u[:, j] = e1*S[0, j] + e2*S[1, j], and ``to_coef`` the
    (2, N) dual of ``u``: ``f @ to_coef.T`` are the coordinates of the slow
    part of f, and ``u @ to_coef`` is the slow projection matrix.
    """

    def __init__(self, disp):
        self.disp = disp
        self.inner = disp.weighted_inner()
        self.e = np.stack([disp.winv, disp.winv2], axis=1)
        g11 = float(self.inner.inner(self.e[:, 0], self.e[:, 0]))
        g12 = float(self.inner.inner(self.e[:, 0], self.e[:, 1]))
        g22 = float(self.inner.inner(self.e[:, 1], self.e[:, 1]))
        self.gram = np.array([[g11, g12], [g12, g22]])
        if np.linalg.eigvalsh(self.gram).min() <= 0.0:
            raise ValueError("slow-basis Gram matrix is not positive definite")
        # Cholesky of G = R^T R gives S = R^{-1} with S^T G S = I.
        self.coeff_map = np.linalg.inv(np.linalg.cholesky(self.gram).T)
        self.u = self.e @ self.coeff_map
        self.to_coef = (self.u * disp.w_sq[:, None]).T / disp.grid.size

    def project_P(self, f):
        """Weighted-orthogonal projection onto the slow pair (batched)."""
        return (np.asarray(f) @ self.to_coef.T) @ self.u.T

    def state_from_field(self, w):
        """Coefficients of the slow part of ``w`` (batched)."""
        t = (np.asarray(w) @ self.to_coef.T) @ self.coeff_map.T
        return SlowState(t[..., 0], t[..., 1])


# ----------------------------------------------------------------------
# observables and currents


def observables(disp, w):
    """Conserved-field coordinates: T_a = inner_H(omega^-a, w), a = 1, 2."""
    ip = disp.weighted_inner()
    return ip.inner(disp.winv, w), ip.inner(disp.winv2, w)


def currents(disp, w):
    """Currents of the conserved fields.

    j_a[..., i] = -(2 pi)^-1 inner_H(omega^-a, d_i omega * w).  For fields in
    mode representation the same pairing applies (the gradient becomes the
    i*p factor supplied by the caller's transport term).  The quadrature for
    component i is averaged over the reflection in axis i: the integrand
    carries the antisymmetric factor d_i omega, so contributions that vanish
    by parity cancel pairwise instead of through the global sum (exactly, up
    to the self-paired -pi hyperplane where sin(-pi) leaves ~1e-16).
    """
    grid = disp.grid
    w = np.asarray(w)
    out = []
    for a in (1, 2):
        ea = disp.winv if a == 1 else disp.winv2
        comps = []
        for i in range(grid.d):
            s = ea * disp.grad[:, i] * w * disp.w_sq
            perm = grid.axis_reflection(i)
            comps.append(grid.integrate(0.5 * (s + s[..., perm])))
        out.append(np.stack(comps, axis=-1))
    return -out[0] / TWO_PI, -out[1] / TWO_PI


# ----------------------------------------------------------------------
# the linear model: L, its spectrum, the slow frame and the deflated inverse


class LinearModel:
    """The linearized operator at equilibrium, built once per run.

    Holds L, the dispersion field, the spectral summary of L (`spectrum_L`,
    its one diagonalization) and the slow frame ``basis`` (`SlowBasis`).  It
    is also the inverse of L on the complement of its low pair (the two
    smallest eigenvalues over all sectors), solved sector by sector in the
    summary's real frame coordinates times omega (the omega-similarity
    transform: omega is constant on every frame column).  A right-hand side
    of definite parity in every axis has exactly zero coordinates in the
    other sectors, and so has its solution.  The eigenvector blocks are
    views of the summary's: the model copies neither L nor its eigenvectors.
    """

    def __init__(self, L, disp):
        self.L = L
        self.disp = disp
        self.summary = spectrum_L(L, disp)
        self.basis = SlowBasis(disp)
        self._frame = frame = self.summary.frame
        self._w = frame.column_values(disp.w)
        pairs = list(zip(frame.sectors, self.summary.sectors, self.summary.low))
        self._low = [(s, U[:, :k]) for s, (_, U), k in pairs]
        self._rest = [(s, U[:, k:], lam[k:]) for s, (lam, U), k in pairs]

    def low_mode_overlap(self, g):
        """Relative overlap of ``g`` with the dropped low modes."""
        y = self._frame.real_coordinates(g) * self._w
        num = np.linalg.norm(np.concatenate(
            [y[..., s] @ V for s, V in self._low], axis=-1), axis=-1)
        den = np.linalg.norm(y, axis=-1)
        return num / np.where(den == 0.0, 1.0, den)

    def apply(self, g):
        """Solve L x = g on the deflated complement (batched over leading axes)."""
        y = self._frame.real_coordinates(g) * self._w
        x = np.empty_like(y)
        for s, U, lam in self._rest:
            x[..., s] = ((y[..., s] @ U) / lam) @ U.T
        return self._frame.from_real_coordinates(x / self._w)

    def residual(self, x, g):
        """Weighted relative residual of the solve."""
        ip = self.disp.weighted_inner()
        return ip.norm(self.L @ x - np.asarray(g)) / ip.norm(g)

    def project_out_low(self, f):
        """Projection onto the complement of the dropped low modes."""
        y = self._frame.real_coordinates(f) * self._w
        for s, V in self._low:
            y[..., s] -= (y[..., s] @ V) @ V.T
        return self._frame.from_real_coordinates(y / self._w)


# ----------------------------------------------------------------------
# conductivity


def axis_response(model, axis):
    """Right-hand sides g_b = d_axis omega * e_b and deflated solves
    X_b = L^-1 g_b of the slow pair, as (N, 2) columns."""
    g = model.disp.grad[:, axis][:, None] * model.basis.e
    # one solve per column: the arithmetic of `slaved_state`'s solve of the
    # same right-hand side, so `fourier_law_check` compares like with like
    return g, np.stack([model.apply(g[:, b]) for b in (0, 1)], axis=1)


def pairing(basis, g, X):
    """kappa_ab = (2 pi)^-2 <g_a, X_b>_H for (N, 2) columns g and X."""
    ip = basis.inner
    return np.array(
        [[ip.inner(g[:, a], X[:, b]).real for b in (0, 1)] for a in (0, 1)]
    ) / TWO_PI**2


@dataclass(frozen=True)
class ConductivityMatrix:
    """The diffusion matrix of the slow pair, in two bases.

    ``kappa_op`` is the matrix of the diffusion operator on the slow
    subspace in the orthonormal basis; ``kappa_ab`` the same object paired
    against {omega^-1, omega^-2}.  ``mu`` are the eigenvalues of
    ``kappa_op``; ``response_fields`` caches the deflated solves along
    ``axis`` (one column per slow direction, see `axis_response`), so
    ``response_fields @ basis.coeff_map`` is L^-1 (d_axis omega * u).
    ``model`` is the `LinearModel` the solves ran on, and ``basis`` its
    slow frame.
    """

    kappa_op: np.ndarray
    kappa_ab: np.ndarray
    mu: np.ndarray
    axis: int
    solve_residual: float
    cross_direction_sup: float
    model: LinearModel = field(repr=False)
    response_fields: np.ndarray = field(repr=False)

    @property
    def basis(self):
        return self.model.basis

    @property
    def positive_definite(self):
        return bool(self.mu.min() > 0.0)

    @property
    def cross_free(self):
        """The pairings against the other gradient axes (`cross_direction_sup`)
        are at most `ISOTROPY_TOL` of max|kappa_ab|."""
        scale = np.abs(self.kappa_ab).max()
        return bool(self.cross_direction_sup <= ISOTROPY_TOL * scale)


def compute_kappa(model, axis=0):
    """Diffusion matrix by deflated solves against the gradient-weighted pair.

    For each slow direction e, forms g = d_axis omega * e (odd, hence in the
    complement), solves the linearized operator on the deflated complement,
    and pairs back: kappa_ab[a, b] = (2 pi)^-2 inner_H(g_a, x_b).  The same
    pairing against the other gradient axes gives ``cross_direction_sup``.
    Raises if the right-hand side leaks into the dropped modes or the solve
    residual exceeds `RHS_TOL`.
    """
    basis, disp = model.basis, model.disp
    g, X = axis_response(model, axis)
    overlap = model.low_mode_overlap(g.T)
    if overlap.max() > RHS_TOL:
        raise RuntimeError(
            f"gradient-weighted slow direction overlaps the conserved modes "
            f"by {overlap.max():.2e} (tolerance {RHS_TOL:.0e})"
        )
    resid = max(model.residual(X[:, b], g[:, b]) for b in (0, 1))
    if resid > RHS_TOL:
        raise RuntimeError(
            f"deflated solve residual {resid:.2e} exceeds {RHS_TOL:.0e}"
        )
    kappa_ab = pairing(basis, g, X)
    S = basis.coeff_map
    kappa_op = S.T @ kappa_ab @ S
    kappa_op = 0.5 * (kappa_op + kappa_op.T)
    mu = np.linalg.eigvalsh(kappa_op)
    cross = max(
        (float(np.abs(pairing(basis, disp.grad[:, j][:, None] * basis.e, X)).max())
         for j in range(disp.grid.d) if j != axis),
        default=0.0,
    )
    return ConductivityMatrix(
        kappa_op=kappa_op,
        kappa_ab=kappa_ab,
        mu=mu,
        axis=axis,
        solve_residual=float(resid),
        cross_direction_sup=float(cross),
        model=model,
        response_fields=X,
    )


# ----------------------------------------------------------------------
# slaved fast state and the Fourier law


def slaved_state(model, state, p):
    """Fast component enslaved to a slow mode: -(i/2pi) L^-1 (p . grad omega) T.

    Solved axis by axis: each piece of the right-hand side has definite
    reflection parity (odd in the gradient axis, even in the rest), which the
    model's sector-wise inverse keeps exactly.
    """
    disp = model.disp
    p = np.atleast_1d(np.asarray(p, dtype=float))
    Tfield = state.as_field(disp)
    x = np.zeros(np.shape(Tfield), dtype=complex)
    for i in range(disp.grid.d):
        if p[i] == 0.0:
            continue
        x = x + p[i] * model.apply(disp.grad[:, i] * Tfield)
    return -1j / TWO_PI * x


@dataclass(frozen=True)
class FourierLawReport:
    residual: float
    bound: float
    currents: np.ndarray
    predicted: np.ndarray

    @property
    def passed(self):
        return self.residual <= self.bound


def fourier_law_check(kappa, state, p, v):
    """Residual of the currents of ``v`` against the conductivity prediction.

    ``v`` must be the slaved fast state for the slow coefficients in
    ``state`` at spatial mode ``p``; the prediction is
    j_a = sum_b kappa_ab[a, b] * (i p_i) * t_b, checked componentwise against
    the bound ``FOURIER_TOL_SCALE * |p| * ||T||``.

    The prediction for a component i off ``kappa.axis`` is evaluated with
    the response solves of gradient axis i on ``kappa.model``.  The per-axis
    matrices agree with ``kappa.kappa_ab`` up to the isotropy defect (checked
    against `ISOTROPY_TOL`); re-pairing per axis keeps the comparison at the
    roundoff floor instead of amplifying that defect through the bound.
    """
    disp = kappa.basis.disp
    p = np.atleast_1d(np.asarray(p, dtype=float))
    j1, j2 = currents(disp, v)
    j = np.stack([j1, j2], axis=0)
    tvec = np.array([state.t1, state.t2])
    kappa_scale = float(np.max(np.abs(kappa.kappa_ab)))
    predicted = np.zeros(j.shape, dtype=complex)
    for i in range(disp.grid.d):
        if p[i] == 0.0:
            continue
        if i == kappa.axis:
            K_i = kappa.kappa_ab
        else:
            K_i = pairing(kappa.basis, *axis_response(kappa.model, i))
            defect = float(np.max(np.abs(K_i - kappa.kappa_ab))) / kappa_scale
            if defect > ISOTROPY_TOL:
                raise RuntimeError(
                    f"axis-{i} conductivity deviates from the reported matrix "
                    f"by {defect:.2e} relative (tolerance {ISOTROPY_TOL:.0e})"
                )
        predicted[:, i] = 1j * p[i] * (K_i @ tvec)
    residual = float(np.max(np.abs(j - predicted)))
    tnorm = kappa.basis.inner.norm(state.as_field(disp))
    bound = FOURIER_TOL_SCALE * float(np.linalg.norm(p)) * tnorm
    return FourierLawReport(residual, bound, j, predicted)


# ----------------------------------------------------------------------
# collision response at a shifted background


class CollisionResponse:
    """Solves (L - m(T, .)) x = rhs on the deflated complement.

    ``m(T, v)`` is the background-shift part of the collision Jacobian at
    W = omega^-1 + T: the exact Jacobian action (`FourierCollision.jvp`) at
    the shifted background minus the one at the unshifted background.  The
    two cancel exactly at T = 0, so the zero-shift solve reduces to the
    assembled linearized matrix (the unshifted action is -L v only up to
    roundoff, so adding L v instead would not cancel exactly).  Single
    solves use preconditioned GMRES; batches use the preconditioned
    fixed-point iteration, which contracts at rate O(||T||).  L, its
    deflated inverse (the preconditioner) and the dispersion field are those
    of ``model`` (`LinearModel`); ``evaluator`` is the batched collision
    evaluator (`FourierCollision`) on the same dispersion field.
    """

    def __init__(self, evaluator, model):
        self.evaluator = evaluator
        self.model = model
        self.disp = model.disp
        self._W0 = self.disp.winv

    def shift_term(self, Tfield, v):
        """m(T, v): the background-shift part of the collision Jacobian."""
        W = self._W0 + Tfield
        if np.min(W) <= 0.0:
            raise ValueError("shifted background is not positive")
        jvp = self.evaluator.jvp
        return jvp(W, v) - jvp(self._W0, v)

    def solve(self, Tfield, rhs):
        """GMRES solve of (L - m(T, .)) x = rhs; returns (x, diagnostics)."""
        N = self.disp.grid.size
        project = self.model.project_out_low
        rhs = project(np.asarray(rhs, dtype=float))
        calls = {"n": 0}

        def matvec(v):
            calls["n"] += 1
            return project(self.model.L @ v - self.shift_term(Tfield, v))

        A = LinearOperator((N, N), matvec=matvec, dtype=float)
        M = LinearOperator((N, N), matvec=self.model.apply, dtype=float)
        bnorm = np.linalg.norm(rhs)
        x, info = gmres(A, rhs, M=M, rtol=RESPONSE_TOL, atol=RESPONSE_TOL * bnorm,
                        restart=60, maxiter=GMRES_MAXITER)
        if info != 0:
            raise RuntimeError(
                f"collision-response GMRES did not converge (info={info})"
            )
        ip = self.disp.weighted_inner()
        resid = ip.norm(matvec(x) - rhs) / max(ip.norm(rhs), 1e-300)
        return x, {"matvec_calls": calls["n"], "residual": float(resid)}

    def solve_batch(self, Tfields, rhs):
        """Fixed-point solve of (L - m(T, .)) x = rhs for a batch of cells;
        returns (x, diagnostics), whose ``residual`` holds each field's
        relative weighted norm of the defect of the returned x.

        Iterates x <- x + L^-1 (rhs - (L - m) x) on the deflated complement;
        the preconditioned defect is O(||T||) so a few sweeps suffice.
        Raises when the iteration stalls (contraction lost).
        """
        project = self.model.project_out_low
        rhs = project(np.asarray(rhs, dtype=float))
        x = self.model.apply(rhs)

        def h_norms(f):
            return np.sqrt(np.abs(
                self.disp.grid.integrate(np.abs(f) ** 2 * self.disp.w_sq)))

        rhs_norms = h_norms(rhs)
        scale = float(np.max(rhs_norms))
        prev = np.inf
        for _ in range(MAX_SWEEPS):
            defect = rhs - (x @ self.model.L.T - self.shift_term(Tfields, x))
            defect = project(defect)
            norms = h_norms(defect)
            err = float(np.max(norms))
            if err <= RESPONSE_TOL * max(scale, 1e-300):
                resid = norms / np.where(rhs_norms == 0.0, 1.0, rhs_norms)
                return x, {"residual": resid}
            if err >= 0.5 * prev:
                raise RuntimeError(
                    f"batched collision-response iteration stalled at "
                    f"defect {err:.2e} (scale {scale:.2e})"
                )
            prev = err
            x = x + self.model.apply(defect)
        raise RuntimeError("batched collision-response iteration did not converge")


# ----------------------------------------------------------------------
# state-dependent diffusivity


@dataclass(frozen=True)
class NonlinearDiffusivity:
    """Diffusion matrix at a shifted background, in both slow bases."""

    matrix_op: np.ndarray
    matrix_ab: np.ndarray
    solve_residual: float
    matvec_calls: int
    background_min: float


def nonlinear_diffusivity(response, state):
    """Diffusion matrix at background omega^-1 + (slow field of ``state``).

    Solves (L - m(T, .)) x_b = d_1 omega * e_b on the deflated complement —
    both right-hand sides at once through the batched fixed-point iteration,
    falling back to preconditioned GMRES if the contraction stalls — and
    pairs back as in the zero-shift conductivity; at zero shift this
    reproduces it exactly.  Raises when the solver's own relative residual
    exceeds `RHS_TOL`.
    """
    disp, basis = response.model.disp, response.model.basis
    Tfield = state.as_field(disp)
    Wmin = float(np.min(disp.winv + Tfield))
    if Wmin <= 0.0:
        raise ValueError("background omega^-1 + T is not positive")
    dwa = disp.grad[:, 0]
    g = (dwa[:, None] * basis.e).T
    calls = 0
    try:
        X, diag = response.solve_batch(np.broadcast_to(Tfield, g.shape), g)
        resid = float(np.max(diag["residual"]))
    except RuntimeError:
        X, resid = np.empty_like(g), 0.0
        for b in (0, 1):
            X[b], diag = response.solve(Tfield, g[b])
            calls += diag["matvec_calls"]
            resid = max(resid, diag["residual"])
    if resid > RHS_TOL:
        raise RuntimeError(
            f"shifted-background solve residual {resid:.2e} exceeds {RHS_TOL:.0e}"
        )
    K_ab = pairing(basis, g.T, X.T)
    S = basis.coeff_map
    K_op = S.T @ K_ab @ S
    return NonlinearDiffusivity(
        matrix_op=K_op,
        matrix_ab=K_ab,
        solve_residual=float(resid),
        matvec_calls=calls,
        background_min=Wmin,
    )


class DiffusivityModel:
    """First-order response surface for the state-dependent diffusivity.

    Calibrated by full shifted-background solves at +-`CALIBRATION_STEP`
    along each slow coefficient; evaluation is then a matrix-valued affine map, suitable
    for inner loops of the heat-equation reference solver.  The quadratic
    calibration residual is recorded for error budgeting.
    """

    def __init__(self, response):
        h = CALIBRATION_STEP
        self.K0 = nonlinear_diffusivity(response, SlowState(0.0, 0.0)).matrix_op
        self.dK = []
        self.curvature = 0.0
        for b in range(2):
            tp = SlowState(*(h if j == b else 0.0 for j in range(2)))
            tm = SlowState(*(-h if j == b else 0.0 for j in range(2)))
            Kp = nonlinear_diffusivity(response, tp).matrix_op
            Km = nonlinear_diffusivity(response, tm).matrix_op
            self.dK.append((Kp - Km) / (2 * h))
            self.curvature = max(
                self.curvature,
                float(np.max(np.abs(Kp + Km - 2 * self.K0))) / h**2,
            )

    def evaluate(self, t1, t2):
        """K(T) to first order in the slow coefficients (batched)."""
        t1 = np.asarray(t1)[..., None, None]
        t2 = np.asarray(t2)[..., None, None]
        return self.K0 + t1 * self.dK[0] + t2 * self.dK[1]

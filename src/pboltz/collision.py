"""The four-phonon collision operator, equilibria, conservation residuals,
and entropy production, by the direct sums and by their FFT factorization.

For each output node k0 the integral sums over lattice nodes (k1, k2) with
k3 = k0 + k1 - k2 resolved exactly mod 2pi (the grid is closed under that
arithmetic; only the energy delta is regularized).  The accumulated weight is

    (9 pi / 4) * (w0 w1 w2 w3)^{-1} * delta_eta(w0 + w1 - w2 - w3) * bracket

with measure n^{-2d}, where the bracket is the symmetrized product form

    bracket = W0 W1 W2 W3 * (1/W0 + 1/W1 - 1/W2 - 1/W3 - u),
    u       = w0 + w1 - w2 - w3.

The trailing -u counterterm vanishes on the exact energy shell and makes the
evaluator an exact derivative partner of the assembled linearization: at
W = 1/omega the bracket vanishes pointwise, so the Jacobian there contains no
off-shell contamination from the mollified delta.  The sign pattern of the
bracket is antisymmetric under swapping the pair (k0,k1) with (k2,k3) while
all other factors are symmetric, so the number moment int C dk cancels
exactly at the discrete level, independent of the delta width.

The direct evaluator sums by momentum shell k0 + k1 = k2 + k3 = m, on which
the summand is a symmetric kernel matrix between the shell's pairs
(`CollisionOperator`); the FFT evaluator factorizes the same kernel by its
cosine series (`FourierCollision`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft

__all__ = [
    "DeltaKernel",
    "AUTO_WIDTH_COEF",
    "equilibrium",
    "EQUILIBRIUM_FAMILY",
    "CollisionOperator",
    "FourierCollision",
]

PREFACTOR = 9.0 * np.pi / 4.0

# FourierCollision stacks its t-nodes into transform calls of at most twice
# this many complex values (at least one node per call): two legs of at most
# this many in `apply_batch`, four of at most half as many in `jvp`.  Small
# batches pay the per-call overhead a few times instead of once per node,
# and large batches keep their buffers small.
_CHUNK_VALUES = 8192

# Truncation and aliasing level of the cosine series of the gaussian kernel,
# relative to its peak (`_cosine_series`).
SERIES_RTOL = 1e-12

# Width coefficient for DeltaKernel.auto.  Calibrated on the measured
# behavior of the scheme (d=2, r=1): the equilibrium bias decays like
# 1/width at fixed physics while the spectral gap of the linearization is
# maximal on a plateau near width ~ 0.4 * max|grad omega|; a width growing
# like sqrt(n) keeps the bias shrinking under grid refinement with the gap
# still on its plateau (drift < 3% from n=24 to n=32).
AUTO_WIDTH_COEF = 3.0 * np.pi / 24.0**1.5


# Sample count of the trapezoid rule in DeltaKernel.mass.
MASS_RESOLUTION = 200001


@dataclass(frozen=True)
class DeltaKernel:
    """Regularized energy delta: a gaussian of standard deviation `width`,
    with unit Lebesgue mass in the energy variable, truncated at
    `TRUNCATION` widths (where the lost mass is ~1e-15).

    Its cosine series (`_cosine_series`) is what every production path
    evaluates; `weights` is the closed form that the direct sums use.
    """

    width: float

    TRUNCATION = 8.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"kernel width must be positive, got {self.width}")

    def weights(self, u):
        # exp(-z z / 2) / (sqrt(2 pi) width) where |z| <= TRUNCATION, else 0,
        # with z = u / width; evaluated in place, one operation at a time in
        # that order
        u = np.asarray(u, dtype=float)
        z = np.divide(u, self.width, out=np.empty(u.shape))
        vals = np.multiply(-0.5, z, out=np.empty(u.shape))
        vals *= z
        np.exp(vals, out=vals)
        vals /= np.sqrt(2.0 * np.pi) * self.width
        # zero where not |z| <= TRUNCATION, so a NaN z gives 0 too
        outside = np.logical_not(np.abs(z, out=z) <= self.TRUNCATION)
        np.copyto(vals, 0.0, where=outside)
        return vals

    def mass(self):
        """Quadrature of the kernel over its support (invariant: ~1)."""
        span = self.TRUNCATION * self.width
        u = np.linspace(-span, span, MASS_RESOLUTION)
        return float(np.trapezoid(self.weights(u), u))

    @classmethod
    def auto(cls, grid, disp):
        """Production width rule: AUTO_WIDTH_COEF * max|grad omega| * sqrt(n)."""
        return cls(AUTO_WIDTH_COEF * disp.max_grad * np.sqrt(grid.n))


# The stationary two-parameter family W_{T,A} = T/(omega + A).
EQUILIBRIUM_FAMILY = ((1.0, 0.0), (2.0, 0.5), (0.5, -0.5))


def equilibrium(disp, T, A):
    """The stationary state T/(omega + A); requires T > 0 and A > -r^2."""
    if not T > 0:
        raise ValueError(f"temperature scale must be positive, got {T}")
    if not A > -disp.params.r**2:
        raise ValueError(
            f"shift A must exceed -r^2 = {-disp.params.r ** 2} for positivity"
        )
    return T / (disp.w + A)


# An exchange (one of `conservation_residuals`) counts as conserved when it is
# at most this fraction of sup|C|.
CONSERVATION_RTOL = 1e-10


def exchange_conserved(residual, sup):
    """Whether |residual| <= `CONSERVATION_RTOL` * sup, sup being sup|C|."""
    return bool(abs(residual) <= CONSERVATION_RTOL * sup)


class CollisionDiagnostics:
    """The checks shared by both evaluators; they need only `apply`, `grid`
    and `disp`."""

    def conservation_residuals(self, W, C=None):
        """(int C dk, int omega C dk) — both ~0 is the conservation check."""
        if C is None:
            C = self.apply(W)
        g = self.grid
        return float(g.integrate(C)), float(g.integrate(self.disp.w * C))

    def equilibrium_tolerance(self):
        """tau_eq: sup of sup_norm(C(W_{T,A})) over `EQUILIBRIUM_FAMILY`.

        The floor for every downstream "approximately zero" assertion.  The
        member (T, A) = (1, 0), W = 1/omega, is not evaluated: its bracket
        vanishes pointwise, so its C is zero up to rounding (exactly 0 on
        the FFT path, ~1e-21 on the direct one, against tau = 9.2e-5 at
        d = 2, n = 16) and never sets the sup.
        """
        return max(float(np.abs(self.apply(equilibrium(self.disp, T, A))).max())
                   for T, A in EQUILIBRIUM_FAMILY if (T, A) != (1.0, 0.0))


class CollisionOperator(CollisionDiagnostics):
    """Direct evaluator of the collision integral, one momentum shell at a
    time.

    The oracle for `FourierCollision` (in the tests, and in
    `collision-check`, which checks one FFT evaluation against it).
    Threads over shells (disjoint writes, deterministic for any worker
    count); `workers=1` by default.

    The summand of row k0 at (k1, k2), with k3 = k0 + k1 - k2, depends on
    its two momentum pairs p = (k0, k1) and q = (k2, k3), both of total
    momentum m = k0 + k1, only through per-pair numbers: with
    s = w_a + w_b, Pi = W_a W_b, sigma = W_a + W_b - Pi s and
    y = 1 / (w_a w_b), the bracket times the weight is

        S(p, q) = y_p y_q delta_eta(s_p - s_q) (Pi_q sigma_p - Pi_p sigma_q),

    antisymmetric under p <-> q, which is why int C dk vanishes (Spohn,
    J. Stat. Phys. 124, 2006).  Per shell m the unordered pairs {a, m - a}
    (about N / 2 of them, N = n^d) share one symmetric kernel matrix
    K = delta_eta(s_p - s_q), and the shell's contribution to C at both
    members of pair p is

        G_p = y_p (sigma_p (K h1)_p - Pi_p (K h2)_p),
        h1 = mult y Pi,  h2 = mult y sigma,

    where mult counts the ordered pairs (2, or 1 where a = m - a).  That is
    about N^3 / 4 kernel weights instead of N^3 summands; the FFT path is
    the rank-n_t cosine-series factorization of the same K (Mouhot &
    Pareschi, Math. Comp. 75, 2006).  G is written into column m of an
    (N, N) table, and C is its row sum: summed pairwise along contiguous
    rows, which keeps C within ~1e-16 of sup|C| of the exact sum (adding
    the shells one after another loses about ten times that at N = 256).
    """

    def __init__(self, grid, disp, delta, workers=1):
        if disp.grid is not grid:
            raise ValueError("dispersion field tabulated on a different grid")
        self.grid = grid
        self.disp = disp
        self.delta = delta
        self.workers = max(1, int(workers))

    def _shells(self, shells):
        """(m, a, b, mult, K) for every shell m in `shells`: the unordered
        pairs {a, b} of total momentum m (flat a <= flat b), the number of
        ordered pairs each stands for, and the kernel matrix of their
        energies."""
        g, w = self.grid, self.disp.w
        for m in shells:
            partner = g.flatten(g.multi_index[m] - g.multi_index)
            a = np.flatnonzero(np.arange(g.size) <= partner)
            b = partner[a]
            s = w[a] + w[b]
            K = self.delta.weights(s[:, None] - s[None, :])
            yield m, a, b, np.where(a == b, 1.0, 2.0), K

    def apply(self, W):
        """collision_C: the collision integral of a real field W."""
        W = _field(self.grid, W)
        w, winv = self.disp.w, self.disp.winv
        N = self.grid.size
        T = np.zeros((N, N))

        def columns(shells):
            for m, a, b, mult, K in self._shells(shells):
                Pi = W[a] * W[b]
                sigma = (W[a] + W[b]) - Pi * (w[a] + w[b])
                y = winv[a] * winv[b]
                Kh = K @ (np.stack([Pi, sigma], axis=1) * (mult * y)[:, None])
                T[a, m] = T[b, m] = y * (sigma * Kh[:, 0] - Pi * Kh[:, 1])

        _chunked(columns, N, self.workers)
        return PREFACTOR * T.sum(axis=1) / N**2

    def entropy_production(self, W):
        """The nonnegative quadratic form

            n^{-3d} sum (prod_i W_i / w_i) delta_eta(u) (1/W0+1/W1-1/W2-1/W3)^2,

        zero exactly when 1/W is a collisional invariant; requires W > 0.
        By shells it is the sum over m of sum_{p,q} e_p e_q K_pq (r_p - r_q)^2
        with e = mult x_a x_b, x = W / w and r = 1/W_a + 1/W_b; the squared
        difference is formed as such, so nothing cancels near equilibrium.
        """
        W = _field(self.grid, W, positive=True)
        x = self.disp.winv * W
        R = 1.0 / W
        N = self.grid.size
        sums = np.zeros(N)

        def shell_sums(shells):
            for m, a, b, mult, K in self._shells(shells):
                e = mult * (x[a] * x[b])
                r = R[a] + R[b]
                J = r[:, None] - r[None, :]
                J *= J
                J *= K
                sums[m] = e @ (J @ e)

        _chunked(shell_sums, N, self.workers)
        return float(sums.sum() / N**3)


class FourierCollision(CollisionDiagnostics):
    """FFT fast path for the same collision integral and its entropy
    production.

    The gaussian energy kernel is written as a cosine series
    delta_eta(u) ~= sum_j c_j cos(u t_j) (trapezoid in t with a tail cut and
    node spacing chosen so both truncation and aliasing errors are below
    `SERIES_RTOL` times the kernel peak).  Each bracket monomial then factorizes
    into per-leg node fields, and the (k1, k2) sum with k3 = k0 + k1 - k2
    becomes circular convolutions evaluated by d-dimensional FFTs:
    O(n_t n^d log n) per field instead of O(n^{3d}) (Mouhot & Pareschi,
    Math. Comp. 75, 2006).  Used by `evolve`, `hydro-limit` and
    `collision-check`; `CollisionOperator` is its oracle in the tests and on
    `collision-check`'s first sample.

    Per node t_j the legs are a = W E / omega, b = E / omega and c = W E
    with E = exp(i t_j omega).  W and 1/omega are real, so the legs at -t_j
    are the conjugates of these, and the transform of a conjugate is the
    conjugate of the reversed transform.  Every product therefore follows
    from R = rev F[a] and D = rev F[b] - rev F[c] (rev F is the
    unnormalized inverse transform); rev F[b] does not depend on W and is
    computed once here.  That leaves 2 forward FFTs (rev F[a], rev F[c]) and
    2 inverse ones per node and field.  The nodes are stacked into chunks of
    at most `_CHUNK_VALUES` complex values per leg; each chunk takes one
    forward call on both legs and one back call on both products, and the
    nodes are summed one at a time in node order, so each output row is
    bitwise the same whatever batch it is evaluated in.  The rate is a
    quartic polynomial in W, so the product rule over the same legs gives
    the exact Jacobian action (`jvp`) at the same cost per leg.

    The entropy production factorizes the same way.  With R = 1/W the
    squared bracket J = R0 + R1 - R2 - R3 is summed against a measure that
    is symmetric under k0 <-> k1, k2 <-> k3 and the pair swap (the kernel
    is even), so J^2 may be replaced by 4 R0^2 + 4 R0 R1 - 8 R0 R2.  A sum
    over k0 + k1 = k2 + k3 of four leg fields is N^{-1} times the sum over
    xi of the product of their transforms (in either direction), two of
    them conjugated; with X = rev F[W E / omega], Y = rev F[E / (omega W)]
    and the cached Z = rev F[b],

        sigma = 4 N^{-4} sum_j c_j sum_xi [Re(conj(X) (Y |X|^2 + Z^2 conj(X)))
                                           - 2 |Z|^2 |X|^2],

    which is 2 transforms per node and field and none back.
    """

    def __init__(self, grid, disp, delta):
        self.grid = grid
        self.disp = disp
        self.delta = delta
        self.t_nodes, self.t_weights = _cosine_series(disp, delta)

        shape = (grid.n,) * grid.d
        self._shape = shape
        self._axes = tuple(range(-grid.d, 0))
        self._phase = np.exp(1j * np.outer(self.t_nodes, disp.w)).reshape(
            (len(self.t_nodes),) + shape
        )
        self._b = disp.winv.reshape(shape) * self._phase
        self._rev_Fb = _rev_fft(self._b, self._axes)

    def apply_batch(self, Wb):
        """Collision integral of a batch of fields, shape (..., n^d)."""
        Wb = np.asarray(Wb, dtype=float)
        lead = Wb.shape[:-1]
        N = self.grid.size
        W = Wb.reshape((-1,) + self._shape)
        axes = self._axes
        acc = np.zeros(W.shape)
        step = max(1, _CHUNK_VALUES // max(1, W.size))
        # per chunk: the legs a and c in one forward call, the two back
        # products in one back call, every ufunc writing into these buffers
        legs, prods = self._buffers(2, step, W.shape)
        reals = np.empty((2,) + legs.shape[1:])
        for nodes, k in self._node_chunks(step):
            b = self._b[nodes, None]
            a, c = legs[:, :k]
            np.multiply(b, W, out=a)
            np.multiply(self._phase[nodes, None], W, out=c)
            R, D = _rev_fft(legs[:, :k], axes)
            np.subtract(self._rev_Fb[nodes, None], D, out=D)
            P, T = reals[:, :k]
            # P = |R|^2, then R <- conj(R)
            np.multiply(R.real, R.real, out=P)
            np.multiply(R.imag, R.imag, out=T)
            np.add(P, T, out=P)
            Rc = np.conjugate(R, out=R)
            pB, pA = prods[:, :k]
            np.multiply(P, Rc, out=pB)
            # pA = Rc Rc D - 2 P conj(D)
            np.multiply(Rc, Rc, out=pA)
            np.multiply(pA, D, out=pA)
            np.multiply(2.0, P, out=T)
            np.multiply(T, np.conjugate(D, out=D), out=D)
            np.subtract(pA, D, out=pA)
            SB, SA = scipy.fft.ifftn(prods[:, :k], axes=axes, overwrite_x=True)
            # term = Re((b - c) SB + a SA), in c
            np.subtract(b, c, out=c)
            np.multiply(c, SB, out=c)
            np.multiply(a, SA, out=SA)
            term = np.add(c, SA, out=c).real
            for i, weight in enumerate(self.t_weights[nodes]):
                acc += weight * term[i]
        return (PREFACTOR / N**2) * acc.reshape(lead + (N,))

    def jvp(self, W, v):
        """Directional derivative of `apply_batch` at W along v (broadcast
        against each other, shape (..., n^d)).

        The rate is a quartic polynomial in W, so the product rule over the
        legs of each node gives the exact derivative.  With P = |R|^2,
        dR = rev F[b v], dD = -rev F[E v] and dP = 2 Re(conj(R) dR), the node
        term Re((b - c) SB + a SA) has the derivative
        Re((b - c) dSB + a dSA - E v SB + b v SA), where
        SB = F^-1[P conj(R)], SA = F^-1[conj(R)^2 D - 2 P conj(D)] and

            dSB = F^-1[dP conj(R) + P conj(dR)],
            dSA = F^-1[2 conj(R) conj(dR) D + conj(R)^2 dD - 2 dP conj(D)
                       - 2 P conj(dD)].

        Per chunk of nodes the four legs take one forward call and the four
        products one back call; the chunk counts all four legs.  Nodes are
        summed in node order, so rows do not depend on the batch.
        """
        W, v = np.broadcast_arrays(np.asarray(W, dtype=float),
                                   np.asarray(v, dtype=float))
        lead = W.shape[:-1]
        N = self.grid.size
        W = W.reshape((-1,) + self._shape)
        v = v.reshape(W.shape)
        axes = self._axes
        acc = np.zeros(W.shape)
        step = max(1, _CHUNK_VALUES // (2 * W.size))
        legs, prods = self._buffers(4, step, W.shape)
        for nodes, k in self._node_chunks(step):
            b = self._b[nodes, None]
            E = self._phase[nodes, None]
            a, c, da, dc = legs[:, :k]
            np.multiply(b, W, out=a)
            np.multiply(E, W, out=c)
            np.multiply(b, v, out=da)
            np.multiply(E, v, out=dc)
            R, D, dR, dD = _rev_fft(legs[:, :k], axes)
            D = self._rev_Fb[nodes, None] - D
            np.negative(dD, out=dD)
            Rc, dRc, Dc = np.conj(R), np.conj(dR), np.conj(D)
            P = R.real * R.real + R.imag * R.imag
            dP = 2.0 * (R.real * dR.real + R.imag * dR.imag)
            Rc2 = Rc * Rc
            pB, pA, dpB, dpA = prods[:, :k]
            np.multiply(P, Rc, out=pB)
            np.multiply(Rc2, D, out=pA)
            pA -= 2.0 * P * Dc
            np.multiply(dP, Rc, out=dpB)
            dpB += P * dRc
            np.multiply(2.0 * Rc * dRc, D, out=dpA)
            dpA += Rc2 * dD
            dpA -= 2.0 * (dP * Dc + P * np.conj(dD))
            SB, SA, dSB, dSA = scipy.fft.ifftn(prods[:, :k], axes=axes,
                                               overwrite_x=True)
            term = np.real((b - c) * dSB + a * dSA - dc * SB + da * SA)
            for i, weight in enumerate(self.t_weights[nodes]):
                acc += weight * term[i]
        return (PREFACTOR / N**2) * acc.reshape(lead + (N,))

    def _node_chunks(self, step):
        """(slice, count) of each run of `step` t-nodes, in node order."""
        n_t = len(self.t_nodes)
        for j0 in range(0, n_t, step):
            yield slice(j0, j0 + step), min(step, n_t - j0)

    def _buffers(self, n_legs, step, shape):
        """The leg and product buffers of a call, (n_legs, k) + shape each,
        k = the largest chunk of `step` nodes."""
        k = min(step, len(self.t_nodes))
        legs = np.empty((n_legs, k) + shape, dtype=complex)
        return legs, np.empty_like(legs)

    def apply(self, W):
        return self.apply_batch(np.asarray(W)[None, :])[0]

    def entropy_production(self, W):
        """The quadratic form of `CollisionOperator.entropy_production` by
        the cosine-series factorization; requires W > 0."""
        W = _field(self.grid, W, positive=True)
        axes = self._axes
        x = (self.disp.winv * W).reshape(self._shape)
        y = (self.disp.winv / W).reshape(self._shape)
        sigma = 0.0
        step = max(1, _CHUNK_VALUES // W.size)
        for j0 in range(0, len(self.t_nodes), step):
            nodes = slice(j0, j0 + step)
            E = self._phase[nodes]
            X = _rev_fft(x * E, axes)
            Y = _rev_fft(y * E, axes)
            Z = self._rev_Fb[nodes]
            Xc = np.conj(X)
            X2 = X.real * X.real + X.imag * X.imag
            Z2 = Z.real * Z.real + Z.imag * Z.imag
            terms = np.real(Xc * (Y * X2 + Z * Z * Xc)) - 2.0 * Z2 * X2
            for weight, term in zip(self.t_weights[nodes], terms.sum(axis=axes)):
                sigma += weight * term
        return float(4.0 * sigma / W.size**4)


def _cosine_series(disp, delta):
    """Nodes t_j and weights c_j of delta_eta(u) ~= sum_j c_j cos(t_j u),
    valid for every energy sum |u| <= 2 (max w - min w) of four legs.

    Trapezoid rule on the Fourier integral of the gaussian, cut where its
    transform falls below `SERIES_RTOL` of its peak, with a node spacing fine
    enough that the periodic images of the kernel stay below the same
    level on that energy range.
    """
    eta = delta.width
    w = disp.w
    umax = 2.0 * float(w.max() - w.min())
    z = np.sqrt(-2.0 * np.log(SERIES_RTOL))
    t_end = z / eta
    n_t = int(np.ceil(t_end * (umax + z * eta) / (2.0 * np.pi))) + 2
    t = np.linspace(0.0, t_end, n_t)
    dt = t[1] - t[0]
    cw = (dt / np.pi) * np.exp(-0.5 * (eta * t) ** 2)
    cw[0] *= 0.5
    cw[-1] *= 0.5
    return t, cw


def _field(grid, W, positive=False):
    """W as a float array, checked to be one value per grid node (and
    strictly positive when `positive`)."""
    W = np.asarray(W, dtype=float)
    if W.shape != (grid.size,):
        raise ValueError("field length does not match grid")
    if positive and W.min() <= 0:
        raise ValueError("entropy production needs a strictly positive field")
    return W


def _chunked(loop_body, count, workers):
    """Run loop_body(indices) over range(count), in one contiguous chunk per
    worker thread.  Output slices written by distinct indices are disjoint,
    so threading is deterministic."""
    if workers <= 1:
        loop_body(range(count))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        chunks = np.array_split(np.arange(count), workers)
        for f in [pool.submit(loop_body, c) for c in chunks]:
            f.result()


def _rev_fft(x, axes):
    """rev F[x]: the forward transform at -xi, i.e. the unnormalized inverse."""
    return scipy.fft.ifftn(x, axes=axes, norm="forward")


"""The direct O(N^3) sums of the linearized operator's terms, one kernel
evaluation per term: the oracle of the cosine-series assembly in
`pboltz.linearized` (same signatures as its `assemble_M/I1/I2`); and the
collision integral and its entropy production summed over the full
(k1, k2) plane of every row: the oracle of the momentum-shell sums of
`pboltz.collision.CollisionOperator`."""

import numpy as np

from pboltz.collision import PREFACTOR


def assemble_M(grid, disp, delta):
    """M by the direct double sum."""
    M = np.empty(grid.size)
    M_rows(grid, disp, delta, M, np.arange(grid.size))
    return M


def M_rows(grid, disp, delta, out, rows):
    """Write M(k) into out[k] for every k in `rows`."""
    N = grid.size
    w = disp.w
    winv2 = disp.winv2
    diff = grid.pair_index(-1)  # k1 - k2
    pref12 = winv2[:, None] * winv2[None, :]
    for i0 in rows:
        shift = grid.shift(grid.multi_index[i0])  # x[shift][diff] = x[k0 + k1 - k2]
        u = (w[i0] + w[:, None]) - (w[None, :] + w[shift][diff])
        winv2_3 = winv2[shift][diff]
        out[i0] = PREFACTOR * np.sum(pref12 * winv2_3 * delta.weights(u)) / N**2


def assemble_I1(grid, disp, delta):
    """I1 by direct sums."""
    I1 = np.empty((grid.size, grid.size))
    I1_diagonals(grid, disp, delta, I1, np.arange(grid.size))
    return I1


def I1_diagonals(grid, disp, delta, out, deltas):
    """Write I1(k' + D, k') into `out` for every k' and every difference D
    (flat index) in `deltas`.  All pairs on one diagonal share the
    k1-profile, so the work vectorizes per diagonal."""
    N = grid.size
    w = disp.w
    winv2 = disp.winv2
    cols = np.arange(N)
    for idelta in deltas:
        S = grid.shift(grid.multi_index[idelta])  # k -> k + D
        pref = winv2 * winv2[S]
        du = w - w[S]
        off = w[S] - w  # w(k) - w(k') along the diagonal, per k'
        vals = pref[None, :] * delta.weights(du[None, :] + off[:, None])
        out[S, cols] = 2.0 * vals.sum(axis=1) / N


def assemble_I2(grid, disp, delta):
    """I2 by direct sums, grouped by the sum s = k + k'; note the second
    argument pairs k1 with s - k1 (the partner within the colliding pair)."""
    N = grid.size
    w = disp.w
    winv2 = disp.winv2
    I2 = np.empty((N, N))
    for isum in range(N):
        R = grid.flatten(grid.multi_index[isum] - grid.multi_index)  # s - k1
        pref = winv2 * winv2[R]
        du = w + w[R]  # w(k1) + w(s-k1)
        # pairs (k, k') with k + k' = s use the same map: k' = s - k,
        # and w(k) + w(k') is the same profile du evaluated at k
        vals = pref[None, :] * delta.weights(du[:, None] - du[None, :])
        I2[np.arange(N), R] = -vals.sum(axis=1) / N
    return I2


def collision_apply(grid, disp, delta, W, rows=None):
    """The collision integral of W at the nodes `rows` (default: all), each
    row k0 summed over the whole (k1, k2) plane in one `np.sum`."""
    rows = np.arange(grid.size) if rows is None else np.asarray(rows)
    out = np.empty(rows.size)
    w = disp.w
    winv = disp.winv
    diff = grid.pair_index(-1)  # k1 - k2
    W1 = W[:, None]
    W2 = W[None, :]
    W12 = W1 * W2
    bw12 = winv[:, None] * winv[None, :]
    for r, i0 in enumerate(rows):
        shift = grid.shift(grid.multi_index[i0])  # x[shift][diff] = x[k0 + k1 - k2]
        W3 = W[shift][diff]
        u = (w[i0] + w[:, None]) - (w[None, :] + w[shift][diff])
        W0 = W[i0]
        F = W12 * W3 - W0 * ((W12 + W1 * W3) - W2 * W3)
        G = F - ((W0 * W1) * W2 * W3) * u
        out[r] = np.sum(winv[i0] * bw12 * winv[shift][diff] * delta.weights(u) * G)
    return PREFACTOR * out / grid.size**2


def entropy_production(grid, disp, delta, W):
    """The entropy production of W, summed over every triple."""
    w = disp.w
    winv = disp.winv
    diff = grid.pair_index(-1)
    R = 1.0 / W
    x = winv * W
    P12 = x[:, None] * x[None, :]
    J12 = R[:, None] - R[None, :]
    acc = 0.0
    for i0 in range(grid.size):
        shift = grid.shift(grid.multi_index[i0])
        u = (w[i0] + w[:, None]) - (w[None, :] + w[shift][diff])
        J = (R[i0] + J12) - R[shift][diff]
        P = x[i0] * P12 * x[shift][diff]
        acc += np.sum(P * delta.weights(u) * J * J)
    return float(acc / grid.size**3)

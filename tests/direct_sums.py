"""The direct O(N^3) sums of the linearized operator's terms, one kernel
evaluation per term: the oracle of the cosine-series assembly in
`pboltz.linearized` (same signatures as its `assemble_M/I1/I2`)."""

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

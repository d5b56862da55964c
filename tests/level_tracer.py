"""The level-set tracer: the oracle of the co-area line sums behind
`pboltz.linearized.i1_exact`.  It seeds points on G = 0 from sign changes
along grid lines, marches once around every closed component with an RK4
predictor along the unit tangent plus Newton projection, and integrates
g / |grad G| along arc length (trapezoid rule, O(h^2) in the arc step h)."""

import numpy as np
from scipy.optimize import brentq

from pboltz.linearized import _i1_geometry


def _seed_points(Gfun, m=96):
    """Rough points on the level set G = 0, from sign changes along grid
    lines in both axis directions."""
    seeds = []
    lines = -np.pi + 2.0 * np.pi * np.arange(m) / m
    ns = 4 * m
    samples = -np.pi + 2.0 * np.pi * np.arange(ns + 1) / ns
    for axis in (0, 1):
        for q_other in lines:
            if axis == 0:
                f = lambda t: Gfun(t, q_other)
            else:
                f = lambda t: Gfun(q_other, t)
            vals = f(samples)
            for idx in np.nonzero(np.diff(np.signbit(vals)))[0]:
                try:
                    root = brentq(f, samples[idx], samples[idx + 1], xtol=1e-13)
                except ValueError:
                    continue
                seeds.append((root, q_other) if axis == 0 else (q_other, root))
    return seeds


def _torus_dist(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b))
    d = np.minimum(d, 2.0 * np.pi - d)
    return float(np.hypot(*d))


def _project_to_level(Gfun, dG, x, tol=1e-13):
    x = np.array(x, dtype=float)
    for _ in range(8):
        val = Gfun(*x)
        g1, g2 = dG(*x)
        norm_sq = g1 * g1 + g2 * g2
        if norm_sq == 0.0:
            return None
        x -= val * np.array([g1, g2]) / norm_sq
        if abs(Gfun(*x)) < tol * max(1.0, np.sqrt(norm_sq)):
            return x
    return x if abs(Gfun(*x)) < 1e-9 else None


def _trace_component(Gfun, dG, gfun, start, h):
    """March once around a closed level-set component with arc step ~h;
    returns (integral of g/|grad G| ds, list of visited points).

    The curve may wind around the torus; closure is detected in the torus
    metric.  Chord-length trapezoid on near-equal arc steps is O(h^2).
    """

    def tangent(x):
        g1, g2 = dG(*x)
        nrm = np.hypot(g1, g2)
        return np.array([-g2, g1]) / nrm

    def integrand(x):
        g1, g2 = dG(*x)
        return gfun(*x) / np.hypot(g1, g2)

    x0 = _project_to_level(Gfun, dG, start)
    if x0 is None:
        return 0.0, []
    pts = [x0]
    fvals = [integrand(x0)]
    acc = 0.0
    x = x0
    max_steps = int(40.0 * np.pi / h) + 16
    for step in range(max_steps):
        k1 = tangent(x)
        k2 = tangent(x + 0.5 * h * k1)
        k3 = tangent(x + 0.5 * h * k2)
        k4 = tangent(x + h * k3)
        x_new = _project_to_level(Gfun, dG, x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        if x_new is None:
            return 0.0, []
        ds = _torus_dist(x, x_new)
        f_new = integrand(x_new)
        acc += 0.5 * (fvals[-1] + f_new) * ds
        pts.append(x_new)
        fvals.append(f_new)
        x = x_new
        if step >= 3 and _torus_dist(x, x0) < 0.75 * h:
            ds = _torus_dist(x, x0)
            acc += 0.5 * (f_new + fvals[0]) * ds
            return acc, pts
    raise RuntimeError("level-set tracing did not close; degenerate geometry?")


def traced_level_integral(gfun, Gfun, dG, n_arc):
    """(2 pi)^-2 int g delta(G) d^2q over the torus by tracing every
    component of the level set with arc step 2 pi / n_arc."""
    h = 2.0 * np.pi / n_arc
    seeds = _seed_points(Gfun)
    traced = []  # one (P, 2) array of visited points per component
    total = 0.0

    def on_traced(seed):
        for pts in traced:
            d = np.abs(pts - np.asarray(seed))
            d = np.minimum(d, 2.0 * np.pi - d)
            if np.min(np.hypot(d[:, 0], d[:, 1])) < 1.2 * h:
                return True
        return False

    for seed in seeds:
        if on_traced(seed):
            continue
        val, pts = _trace_component(Gfun, dG, gfun, seed, h)
        if pts:
            traced.append(np.asarray(pts))
            total += val
    return total / (2.0 * np.pi) ** 2


def traced_i1(kpoint, kppoint, params, n_arc):
    """I1 with the exact delta by tracing at arc steps h = 2 pi / n_arc and
    h / 2, Richardson-extrapolated in h^2 (the trapezoid's error law)."""
    G, dG, g = _i1_geometry(kpoint, kppoint, params)
    coarse, fine = (2.0 * traced_level_integral(g, G, dG, n) for n in (n_arc, 2 * n_arc))
    return (4.0 * fine - coarse) / 3.0

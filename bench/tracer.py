"""Outside-in layer trace of one in-process ``pboltz.cli.main`` call.

The tracer wraps the public entry points of ``collision``, ``linearized``,
``hydrodynamics`` and ``evolution`` at the name where each is looked up at
call time: ``cli`` binds its imports with ``from .x import y``, so
``assemble_L`` is wrapped as ``pboltz.cli.assemble_L`` while ``assemble_M``
(called from inside ``linearized``) is wrapped as
``pboltz.linearized.assemble_M``; methods are wrapped on their class.
Nothing under ``src/`` is edited, and every wrapper is removed on exit.

Each call records a span ``[name, start, end, parent, rss_growth_kb,
counts]`` in memory; spans are written out only when the run ends.  Self
time is a span's duration minus the time its child spans cover (one thread
at ``workers = 1``, so children never overlap).  Counters sit at the same
wrappers: ``counts`` holds the work a call was handed, e.g. the number of
fields passed to ``FourierCollision.apply_batch``.
"""

import functools
import resource
import time
from math import prod

import numpy as np

# FourierCollision.apply_batch runs 6 forward and 2 inverse n^d-point FFTs
# per cosine-series node per field (collision.py); the count is computed.
FFTS_PER_NODE_FIELD = 8


def _fields(args):
    shape = np.shape(args[1])
    fields = prod(shape[:-1]) if len(shape) > 1 else 1
    return {
        "fields": fields,
        "ffts": fields * FFTS_PER_NODE_FIELD * len(args[0].t_nodes),
    }


def _elements(args):
    return {"evals": int(np.size(args[1]))}


def wrap_points():
    """(owner, attribute, span name, counter) for every traced entry point."""
    from pboltz import cli, collision, evolution, hydrodynamics, linearized

    return [
        (cli, "main", "cli.main", None),
        (collision.FourierCollision, "apply_batch", "collision.fft_apply", _fields),
        (collision.CollisionOperator, "apply", "collision.direct_apply", None),
        (collision.CollisionOperator, "entropy_production", "collision.entropy", None),
        (collision.DeltaKernel, "weights", "collision.delta_weights", _elements),
        (cli, "assemble_L", "linearized.assemble_L", None),
        (linearized, "assemble_M", "linearized.assemble_M", None),
        (linearized, "assemble_I1", "linearized.assemble_I1", None),
        (linearized, "assemble_I2", "linearized.assemble_I2", None),
        (cli, "spectrum_L", "linearized.spectrum_L", None),
        (hydrodynamics, "spectrum_L", "linearized.spectrum_L", None),
        (cli, "compute_kappa", "hydrodynamics.compute_kappa", None),
        (hydrodynamics.DiffusivityModel, "__init__", "hydrodynamics.diffusivity_model", None),
        (hydrodynamics.CollisionResponse, "solve_batch", "hydrodynamics.solve_batch", None),
        (hydrodynamics.CollisionResponse, "shift_term", "hydrodynamics.shift_term", None),
        (hydrodynamics.CollisionResponse, "solve", "hydrodynamics.gmres_fallback", None),
        (cli, "evolve_nonlinear", "evolution.evolve_nonlinear", None),
        (cli, "hydro_limit_study", "evolution.hydro_study", None),
        (evolution, "lu_solve", "evolution.lu_solve", None),
        (cli, "find_p0", "evolution.find_p0", None),
        (cli, "semigroup_bound_sweep", "evolution.semigroup_sweep", None),
        (cli, "count_slow_eigenvalues", "evolution.slow_count", None),
        (evolution, "count_slow_eigenvalues", "evolution.slow_count", None),
        (evolution, "eig", "evolution.eig", None),
        (evolution.ModeSemigroup, "propagator", "evolution.propagator", None),
        (evolution, "h_operator_norm", "evolution.h_norm", None),
    ]


def _peak_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Context manager: installs the wrappers on entry, removes them on exit."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._saved = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, _peak_kb(),
                    counter(args) if counter else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                span[4] = _peak_kb() - span[4]

        return traced

    def __enter__(self):
        for owner, attr, name, counter in wrap_points():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def _ancestors(spans, parent):
    names = []
    while parent >= 0:
        names.append(spans[parent][0])
        parent = spans[parent][3]
    return names


def covered_s(spans, names):
    """Seconds spent inside spans with any of ``names``, nesting counted once."""
    return sum(end - start for name, start, end, parent, _, _ in spans
               if name in names and not set(_ancestors(spans, parent)) & set(names))


def _blank():
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "rss_growth_kb": 0,
            "fft_fields_below": 0}


def layer_totals(spans):
    """Per span name: calls, self_s, total_s (outermost spans only), summed
    counters, peak-RSS growth (outermost spans, kB), and fields handed to
    ``collision.fft_apply`` beneath each name."""
    totals = {}
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for i, (name, start, end, parent, rss_kb, counts) in enumerate(spans):
        t = totals.setdefault(name, _blank())
        t["calls"] += 1
        t["self_s"] += (end - start) - child_s[i]
        ancestors = _ancestors(spans, parent)
        if name not in ancestors:
            t["total_s"] += end - start
            t["rss_growth_kb"] += rss_kb
        for key, value in (counts or {}).items():
            t[key] = t.get(key, 0) + value
        if name == "collision.fft_apply":
            for above in set(ancestors):
                totals.setdefault(above, _blank())["fft_fields_below"] += counts["fields"]
    return totals


def layer_metrics(totals):
    """The per-layer metrics the trace itself measures, as name -> (value, unit).

    ``run.py`` adds the ones read from elsewhere (``evolution.imex.*`` from
    ``hydro_limit.csv``, ``cli.cpu_s`` and ``trace.overhead_s`` from the
    paired untraced run).
    """

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    fields = get("collision.fft_apply", "fields")
    fft_self = get("collision.fft_apply", "self_s")
    return {
        "collision.fft_apply.calls": (get("collision.fft_apply", "calls"), "count"),
        "collision.fft_apply.fields": (fields, "count"),
        "collision.fft_apply.self_s": (fft_self, "s"),
        "collision.fft_apply.ms_per_field": (1e3 * fft_self / fields if fields else 0.0, "ms"),
        "collision.fft_apply.ffts": (get("collision.fft_apply", "ffts"), "count"),
        "collision.direct_apply.calls": (get("collision.direct_apply", "calls"), "count"),
        "collision.direct_apply.self_s": (get("collision.direct_apply", "self_s"), "s"),
        "collision.entropy.calls": (get("collision.entropy", "calls"), "count"),
        "collision.entropy.self_s": (get("collision.entropy", "self_s"), "s"),
        "collision.delta_weights.evals": (get("collision.delta_weights", "evals"), "count"),
        "collision.delta_weights.self_s": (get("collision.delta_weights", "self_s"), "s"),
        "linearized.assemble_M.self_s": (get("linearized.assemble_M", "self_s"), "s"),
        "linearized.assemble_I1.self_s": (get("linearized.assemble_I1", "self_s"), "s"),
        "linearized.assemble_I2.self_s": (get("linearized.assemble_I2", "self_s"), "s"),
        "linearized.assemble_L.rss_growth_mb": (
            get("linearized.assemble_L", "rss_growth_kb") / 1024.0, "MB"),
        "linearized.spectrum_L.self_s": (get("linearized.spectrum_L", "self_s"), "s"),
        "hydrodynamics.compute_kappa.self_s": (get("hydrodynamics.compute_kappa", "self_s"), "s"),
        "hydrodynamics.diffusivity_model.total_s": (
            get("hydrodynamics.diffusivity_model", "total_s"), "s"),
        "hydrodynamics.solve_batch.calls": (get("hydrodynamics.solve_batch", "calls"), "count"),
        "hydrodynamics.solve_batch.total_s": (get("hydrodynamics.solve_batch", "total_s"), "s"),
        "hydrodynamics.shift_term.calls": (get("hydrodynamics.shift_term", "calls"), "count"),
        "hydrodynamics.gmres_fallback.calls": (
            get("hydrodynamics.gmres_fallback", "calls"), "count"),
        "evolution.evolve_nonlinear.self_s": (get("evolution.evolve_nonlinear", "self_s"), "s"),
        "evolution.evolve_nonlinear.collision_fields": (
            get("evolution.evolve_nonlinear", "fft_fields_below"), "count"),
        "evolution.hydro_study.collision_fields": (
            get("evolution.hydro_study", "fft_fields_below"), "count"),
        "evolution.lu_solve.calls": (get("evolution.lu_solve", "calls"), "count"),
        "evolution.lu_solve.self_s": (get("evolution.lu_solve", "self_s"), "s"),
        "evolution.find_p0.total_s": (get("evolution.find_p0", "total_s"), "s"),
        "evolution.slow_count.calls": (get("evolution.slow_count", "calls"), "count"),
        "evolution.eig.calls": (get("evolution.eig", "calls"), "count"),
        "evolution.propagator.self_s": (get("evolution.propagator", "self_s"), "s"),
        "evolution.h_norm.calls": (get("evolution.h_norm", "calls"), "count"),
        "evolution.h_norm.self_s": (get("evolution.h_norm", "self_s"), "s"),
    }

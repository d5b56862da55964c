"""Benchmark of the ``pboltz`` CLI: four workloads, end-to-end and per-layer.

usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a batch laboratory, so a closed loop with one client.  Each
measured run is a fresh child process that calls ``pboltz.cli.main(argv)``
in-process and pays what a real CLI call pays; the next child starts only
after the previous one has exited.  ``workers`` stays at 1 and the child's
BLAS/OpenMP thread count is pinned to ``BLAS_THREADS``.

``--trace 0`` repeats the untraced workload for ``--seconds`` (at least
twice) and reports ``wall_s``, ``setup_s`` and ``peak_rss_mb`` as medians.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of ``tracer.py``.  Every run's artifacts are checked
(``outputs.py``), and all runs of one invocation, traced or not, must be
byte-identical; a run that fails either counts in ``failed``.  The last
stdout line is the JSON result; the lines before it print every metric
with its unit and sample count, ``fail_share``, and the environment.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outputs
import tracer

BENCH = Path(__file__).resolve().parent
BLAS_THREADS = 1
SETUP_PROBES = 2
# every invocation must exit within 180 s; children are killed past this
HARD_LIMIT_S = 165.0

# name -> (CLI argv, consumes the seed).  The mechanism-defining inputs
# follow the workload's reason in BENCHMARK.json; run lengths are cut so
# that at least two repeats fit in one run.
WORKLOADS = {
    "linear": (["semigroup-bounds", "--n", "20"], False),
    "evolve": (["evolve", "--n", "12", "--n-x", "32", "--dt", "auto",
                "--t-max", "5", "--n-times", "2"], False),
    "hydro": (["hydro-limit", "--n", "12", "--n-x", "16", "--eps-list", "0.4,0.2",
               "--t-compare", "0.25"], False),
    "collision-direct": (["collision-check", "--n", "16", "--samples", "2"], True),
}


class Run:
    """One child process: its measurements, its artifacts and its verdict."""

    def __init__(self, directory, result, returncode):
        self.directory = directory
        self.result = result or {}
        self.returncode = returncode
        self.problems = []

    @property
    def outdir(self):
        return self.directory / "out"


class Harness:
    """Spawns the children of one invocation and checks their artifacts."""

    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        argv, seeded = WORKLOADS[workload]
        self.argv = argv + ["--outdir", "out"] + (["--seed", str(seed)] if seeded else [])
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.workdir = root / ".bench_runs" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.env = {k: v for k, v in os.environ.items() if k != "PBOLTZ_OUTDIR"}
        self.env["PYTHONPATH"] = str(root / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.count = 0
        self.reference_digest = None

    def child(self, traced=False, cli=True):
        """Spawn one child, wait for it, and return its Run."""
        self.count += 1
        directory = self.workdir / f"run{self.count}"
        directory.mkdir(parents=True)
        result_path = directory / "result.json"
        options = (["--trace"] if traced else []) + (["--"] + self.argv if cli else [])
        limit = self.start + HARD_LIMIT_S - time.monotonic()
        if limit <= 0:
            raise TimeoutError("no time left for another child")
        cmd = [sys.executable, str(BENCH / "child.py"), repr(time.monotonic()),
               str(result_path)] + options
        # the child's stdout goes to stderr: the last stdout line is the result
        proc = subprocess.Popen(cmd, cwd=directory, env=self.env, stdout=sys.stderr)
        try:
            returncode = proc.wait(timeout=limit)
        except subprocess.TimeoutExpired:
            raise TimeoutError(f"child exceeded the {HARD_LIMIT_S:.0f} s limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        result = None
        if result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
            if Path(result["pboltz"]).resolve() != (self.root / "src/pboltz/cli.py").resolve():
                raise RuntimeError(f"child imported pboltz from {result['pboltz']}")
        return Run(directory, result, returncode)

    def measured(self, traced=False):
        """One CLI run with its output checked against the reference and
        against the other runs of this invocation."""
        run = self.child(traced=traced)
        if run.returncode != 0 or run.result.get("rc") != 0:
            run.problems.append(f"exit code {run.returncode}, cli.main returned "
                                f"{run.result.get('rc')}")
            return run
        try:
            run.problems += check_artifacts(self.workload, run.outdir)
            digest = outputs.digest(run.outdir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            run.problems.append(f"artifacts unreadable: {exc!r}")
            return run
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            run.problems.append("artifacts differ from the first run of this set")
        return run

    def setup_probe(self):
        """Seconds of set-up of one child that only imports ``pboltz.cli``."""
        run = self.child(cli=False)
        if run.returncode != 0 or "setup_s" not in run.result:
            raise RuntimeError(f"set-up probe exited {run.returncode}")
        return run.result["setup_s"]

    def warm_up(self):
        """One untimed child while the bytecode cache is cold (the first run
        in a fresh checkout); a user pays that once, not per call."""
        if not any((self.root / "src" / "pboltz" / "__pycache__").glob("cli.*.pyc")):
            self.setup_probe()

    def time_left(self):
        return self.deadline - time.monotonic()


def check_artifacts(workload, outdir):
    manifest = outputs.manifest_minus_execution(outdir)
    if manifest.get("status") != "ok":
        return [f"manifest status {manifest.get('status')!r}"]
    if workload == "collision-direct":
        return outputs.check_collision(outdir)
    return outputs.compare_to_reference(outdir, BENCH / "reference" / workload)


def median(values):
    return statistics.median(values) if values else None


def run_untraced(h):
    h.warm_up()
    setups = [h.setup_probe() for _ in range(SETUP_PROBES)]
    runs = []
    while len(runs) < 2 or (est is not None and h.time_left() > est):
        runs.append(h.measured())
        est = median([r.result["wall_s"] + r.result["setup_s"]
                      for r in runs if "wall_s" in r.result])
    ok = [r.result for r in runs if "wall_s" in r.result]
    if not ok:
        return runs, {}
    setups += [r["setup_s"] for r in ok]
    metrics = {
        "wall_s": (median([r["wall_s"] for r in ok]), "s", len(ok)),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in ok]), "MB", len(ok)),
    }
    return runs, metrics


def imex_counts(outdir):
    rows = outputs.read_csv(outdir / "hydro_limit.csv")
    cols = rows[0]
    steps = sum(int(r[cols.index("n_steps [-]")]) for r in rows[1:])
    newton = sum(int(r[cols.index("newton_iterations [-]")]) for r in rows[1:])
    return steps, newton


def run_traced(h):
    h.warm_up()
    runs, plain, traced, layers = [], [], [], []
    pair_s = None
    while not runs or (pair_s is not None and h.time_left() > pair_s):
        t0 = time.monotonic()
        for is_traced in (False, True):
            run = h.measured(traced=is_traced)
            runs.append(run)
            if "wall_s" in run.result:
                (traced if is_traced else plain).append(run.result)
                if is_traced:
                    totals = tracer.layer_totals(run.result["spans"])
                    layers.append((tracer.layer_metrics(totals), run.outdir,
                                   run.result["spans"]))
        pair_s = time.monotonic() - t0
    if not layers or not plain:
        return runs, {}, {}
    metrics = {}
    for name, (_, unit) in layers[0][0].items():
        metrics[name] = (median([m[name][0] for m, _, _ in layers]), unit, len(layers))
    steps = newton = 0
    if h.workload == "hydro":
        steps, newton = imex_counts(layers[-1][1])
    metrics["evolution.imex.steps"] = (steps, "count", 1)
    metrics["evolution.imex.newton_iters"] = (newton, "count", 1)
    metrics["cli.cpu_s"] = (median([r["cpu_s"] for r in plain]), "s", len(plain))
    plain_wall = median([r["wall_s"] for r in plain])
    metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced]) - plain_wall, "s",
                                   len(traced))
    return runs, metrics, shares(layers[-1][2])


# the layer each workload was chosen for, as traced span names
TARGET_LAYERS = {
    "fft_apply": ("collision.fft_apply",),
    "assembly_and_dense_linear_algebra": (
        "linearized.assemble_L", "linearized.spectrum_L", "evolution.find_p0",
        "evolution.semigroup_sweep", "evolution.slow_count", "evolution.eig",
        "evolution.propagator", "evolution.h_norm"),
    "direct_apply_and_entropy": ("collision.direct_apply", "collision.entropy"),
}


def shares(spans):
    """Share of the traced ``cli.main`` time spent in each target layer."""
    wall = tracer.covered_s(spans, ("cli.main",))
    return {layer: tracer.covered_s(spans, names) / wall
            for layer, names in TARGET_LAYERS.items()}


def git_commit(root):
    """The checked-out commit, read from ``.git`` if the checkout has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "commit": git_commit(root),
        "load": "closed loop, 1 client, 1 child at a time, workers=1",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "pboltz" / "cli.py").is_file():
        print("bench: no pboltz source tree at ./src/pboltz; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    h = Harness(root, args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            runs, metrics, share = run_traced(h)
        else:
            runs, metrics = run_untraced(h)
            share = None
    except (TimeoutError, RuntimeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(h.workdir, ignore_errors=True)
    failed = [r for r in runs if r.problems]
    for r in failed:
        print(f"bench: run {r.directory.name} failed: {'; '.join(r.problems[:5])}",
              file=sys.stderr)
    if not metrics:
        print("bench: no run produced a measurement", file=sys.stderr)
        return 1
    seeded = WORKLOADS[args.workload][1]
    print(f"workload {args.workload}: pboltz {' '.join(h.argv)}"
          + ("" if seeded else "  (deterministic config; --seed not consumed)"))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit:6s} median of {n}")
    print(f"  {'fail_share':48s} {len(failed) / len(runs):>14.6g} ratio  "
          f"{len(failed)} failed of {len(runs)} attempted")
    if share:
        print("  shares of traced cli.main time: "
              + ", ".join(f"{k} {v:.3f}" for k, v in share.items()))
    print("env " + json.dumps(environment(root), sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

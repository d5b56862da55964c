"""Output checks for every measured CLI run.

A run passes when it exits 0 with ``status: ok`` and its artifacts pass the
workload's check:

* deterministic workloads: every CSV and the manifest minus ``execution``
  agree with the reference artifacts in ``reference/<workload>/``, captured
  at the commit that introduced the benchmark.  Numeric cells agree when
  ``|got - ref| <= RTOL * |ref| + ATOL``; booleans (the manifest's
  ``checks`` included), strings and keys must match exactly.
* the seeded direct-collision workload: each sample row is recomputed with
  the FFT evaluator (an independent factorisation of the same integral), and
  the invariant checks that hold for this scheme at any seed
  (``number_conserved``, ``entropy_nonnegative``) must be true.  The
  ``energy_conserved`` check is not required: it is false at every seed
  because the mollified energy delta smears the energy invariant (README,
  acceptance 02); its ``energy_exchange`` values are checked against the
  oracle instead.

Repeats in one set must also be byte-identical (``digest``).
"""

import csv
import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-15
# agreement of the direct and FFT collision evaluators, relative to sup|C|
ORACLE_RTOL = 1e-9


def manifest_minus_execution(outdir):
    manifest = json.loads((Path(outdir) / "manifest.json").read_text(encoding="utf-8"))
    manifest.pop("execution", None)
    return manifest


def digest(outdir):
    """sha256 over the artifacts' bytes and the manifest minus ``execution``."""
    outdir = Path(outdir)
    manifest = manifest_minus_execution(outdir)
    h = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
    for name in sorted(manifest.get("artifacts", [])):
        h.update(name.encode())
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


def _close(got, ref):
    if math.isnan(ref) or math.isinf(ref):
        return got == ref or (math.isnan(got) and math.isnan(ref))
    return abs(got - ref) <= RTOL * abs(ref) + ATOL


def _compare(where, got, ref, problems):
    if isinstance(ref, bool) or isinstance(got, bool) or isinstance(ref, str):
        if got != ref:
            problems.append(f"{where}: {got!r} != reference {ref!r}")
    elif isinstance(ref, (int, float)):
        if not isinstance(got, (int, float)) or not _close(float(got), float(ref)):
            problems.append(f"{where}: {got!r} not within tolerance of {ref!r}")
    elif isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            problems.append(f"{where}: keys differ from the reference")
            return
        for key in ref:
            _compare(f"{where}.{key}", got[key], ref[key], problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{where}: length differs from the reference")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare(f"{where}[{i}]", g, r, problems)
    elif got != ref:
        problems.append(f"{where}: {got!r} != reference {ref!r}")


def _cell(text):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def compare_to_reference(outdir, refdir):
    """Problems found comparing a run's artifacts with the reference set."""
    outdir, refdir = Path(outdir), Path(refdir)
    problems = []
    ref_manifest = json.loads((refdir / "manifest.json").read_text(encoding="utf-8"))
    _compare("manifest", manifest_minus_execution(outdir), ref_manifest, problems)
    for name in ref_manifest["artifacts"]:
        got, ref = read_csv(outdir / name), read_csv(refdir / name)
        if got[:1] != ref[:1] or len(got) != len(ref):
            problems.append(f"{name}: header or row count differs from the reference")
            continue
        for i, (grow, rrow) in enumerate(zip(got[1:], ref[1:]), 1):
            _compare(f"{name}[{i}]", [_cell(c) for c in grow], [_cell(c) for c in rrow],
                     problems)
    return problems


def check_collision(outdir):
    """Problems found checking a ``collision-check`` run against the FFT oracle."""
    import numpy as np
    from pboltz.cli import StageClock, build_stack
    from pboltz.collision import EQUILIBRIUM_FAMILY, FourierCollision, equilibrium

    outdir = Path(outdir)
    manifest = manifest_minus_execution(outdir)
    cfg = manifest["config"]
    problems = [f"check {k} is false" for k in ("number_conserved", "entropy_nonnegative")
                if manifest["checks"].get(k) is not True]
    grid, disp, delta = build_stack(cfg, StageClock())
    oracle = FourierCollision(grid, disp, delta)
    rng = np.random.default_rng(int(cfg["seed"]))
    rows = read_csv(outdir / "collision_checks.csv")[1:]
    if len(rows) != int(cfg["samples"]):
        problems.append("collision_checks.csv: row count differs from samples")
    passes = {"number": True, "energy": True, "entropy": True}
    for sample, row in enumerate(rows):
        W = 0.2 + 1.3 * rng.random(grid.size)
        C = oracle.apply(W)
        sup = float(np.abs(C).max())
        expect = (sample, sup, grid.integrate(C), grid.integrate(disp.w * C))
        got = [_cell(c) for c in row]
        for col, (g, e) in enumerate(zip(got[:4], expect)):
            if not abs(g - e) <= ORACLE_RTOL * sup:
                problems.append(f"collision_checks.csv[{sample + 1}][{col}]: {g!r} "
                                f"disagrees with the FFT oracle {e!r}")
        number, energy, entropy = got[2:5]
        derived = (abs(number) <= 1e-10 * got[1], abs(energy) <= 1e-10 * got[1],
                   entropy >= -1e-15)
        if tuple(got[5:8]) != derived:
            problems.append(f"collision_checks.csv[{sample + 1}]: pass columns "
                            f"inconsistent with the values")
        for key, ok in zip(passes, got[5:8]):
            passes[key] &= ok
    if [manifest["checks"].get(f"{k}_{v}") for k, v in
            (("number", "conserved"), ("energy", "conserved"), ("entropy", "nonnegative"))] \
            != list(passes.values()):
        problems.append("manifest checks inconsistent with the per-sample pass columns")
    tau = max(float(np.abs(oracle.apply(equilibrium(disp, T, A))).max())
              for T, A in EQUILIBRIUM_FAMILY)
    got_tau = manifest["fitted_constants"]["equilibrium_tolerance"]
    if not abs(got_tau - tau) <= ORACLE_RTOL * tau:
        problems.append(f"equilibrium_tolerance {got_tau!r} disagrees with the "
                        f"FFT oracle {tau!r}")
    return problems

"""Tests of the benchmark itself: tracing leaves the program and its
artifacts untouched, the output checks catch a changed output, and the
metric lists in BENCHMARK.json, the tracer and layer_map.json agree.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest bench``.
"""

import csv
import json
import shutil
from pathlib import Path

import pytest

import outputs
import tracer
from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# each workload's subcommand on a small grid, so the test stays quick
SMALL = {
    "linear": ["semigroup-bounds", "--n", "8"],
    "evolve": ["evolve", "--n", "8", "--n-x", "4", "--t-max", "1", "--n-times", "2"],
    "hydro": ["hydro-limit", "--n", "8", "--n-x", "4", "--eps-list", "0.4",
              "--t-compare", "0.1"],
    "collision-direct": ["collision-check", "--n", "8", "--samples", "1", "--seed", "3"],
}


def run_cli(directory, argv, monkeypatch, trace=None):
    from pboltz import cli

    directory.mkdir()
    monkeypatch.chdir(directory)
    if trace is None:
        assert cli.main(argv + ["--outdir", "out"]) == 0
    else:
        with trace:
            assert cli.main(argv + ["--outdir", "out"]) == 0
    return directory / "out"


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_trace_keeps_artifacts_and_removes_every_wrapper(workload, tmp_path, monkeypatch):
    points = tracer.wrap_points()
    originals = [vars(owner)[attr] for owner, attr, _, _ in points]
    plain = run_cli(tmp_path / "plain", SMALL[workload], monkeypatch)
    trace = tracer.Tracer()
    traced = run_cli(tmp_path / "traced", SMALL[workload], monkeypatch, trace)

    assert outputs.digest(traced) == outputs.digest(plain)
    for (owner, attr, _, _), original in zip(points, originals):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still wrapped"
    totals = tracer.layer_totals(trace.spans)
    assert totals["cli.main"]["calls"] == 1
    layer = {"linear": "evolution.find_p0", "evolve": "evolution.evolve_nonlinear",
             "hydro": "evolution.hydro_study", "collision-direct": "collision.direct_apply"}
    assert totals[layer[workload]]["calls"] >= 1


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, 0, None],
             ["b", 1.0, 4.0, 0, 0, None],
             ["collision.fft_apply", 2.0, 3.0, 1, 0, {"fields": 5, "ffts": 40}],
             ["b", 5.0, 6.0, 0, 0, None]]
    totals = tracer.layer_totals(spans)
    assert totals["a"]["self_s"] == pytest.approx(6.0)
    assert totals["b"]["self_s"] == pytest.approx(3.0)
    assert totals["b"]["total_s"] == pytest.approx(4.0)
    assert totals["a"]["fft_fields_below"] == 5
    assert totals["b"]["fft_fields_below"] == 5


def _edit_cell(path, row, col, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = edit(rows[row][col])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def test_reference_check_flags_changed_outputs(tmp_path):
    ref = BENCH / "reference" / "evolve"
    got = tmp_path / "out"
    shutil.copytree(ref, got)
    assert outputs.compare_to_reference(got, ref) == []

    _edit_cell(got / "trajectory.csv", 2, 1, lambda c: repr(float(c) * (1 + 1e-9)))
    assert outputs.compare_to_reference(got, ref) == []
    _edit_cell(got / "trajectory.csv", 2, 1, lambda c: repr(float(c) * (1 + 1e-4)))
    assert outputs.compare_to_reference(got, ref) != []

    shutil.copyfile(ref / "trajectory.csv", got / "trajectory.csv")
    manifest = json.loads((ref / "manifest.json").read_text(encoding="utf-8"))
    manifest["checks"]["fit_window_nonempty"] = True
    (got / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert outputs.compare_to_reference(got, ref) != []


def test_collision_check_flags_a_changed_value(tmp_path, monkeypatch):
    out = run_cli(tmp_path / "run", SMALL["collision-direct"], monkeypatch)
    assert outputs.check_collision(out) == []
    _edit_cell(out / "collision_checks.csv", 1, 3, lambda c: repr(float(c) * 1.001))
    assert outputs.check_collision(out) != []


def test_metric_lists_agree():
    traced_here = set(tracer.layer_metrics({}))
    added_by_run = {"evolution.imex.steps", "evolution.imex.newton_iters",
                    "cli.cpu_s", "trace.overhead_s"}
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(per_layer) == sorted(traced_here | added_by_run)
    mapped = [name for entry in json.loads(
        (BENCH / "layer_map.json").read_text(encoding="utf-8"))["layer_map"]
        for name in entry["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

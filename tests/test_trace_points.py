"""The entry points that the benchmark's layer tracer wraps still exist.

``bench/tracer.py`` wraps each ``(owner, attribute)`` of ``wrap_points()``
by looking it up in ``vars(owner)``; a renamed or moved function would
otherwise surface only in the slow traced benchmark test.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.wrap_points()


@pytest.mark.parametrize("point", _wrap_points(), ids=lambda p: f"{p[2]}@{p[1]}")
def test_wrapped_name_resolves_on_its_owner(point):
    owner, attr, _, _ = point
    assert callable(vars(owner)[attr])

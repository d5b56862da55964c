"""One measured CLI call, run in a fresh interpreter by ``run.py``.

usage: child.py SPAWN_TIME RESULT_JSON [--trace] [-- CLI_ARGV...]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it spawned this
process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks agree).
Set-up ends once ``pboltz.cli`` is imported.  With no CLI argv the child
only measures set-up.  The result (and, traced, the spans) is written to
RESULT_JSON when the call has returned.
"""

import sys
import time

spawned = float(sys.argv[1])
from pboltz import cli  # noqa: E402  (set-up ends here)

setup_s = time.monotonic() - spawned

import json  # noqa: E402
import resource  # noqa: E402

from tracer import Tracer  # noqa: E402

result_path = sys.argv[2]
rest = sys.argv[3:]
traced = rest[:1] == ["--trace"]
argv = rest[rest.index("--") + 1:] if "--" in rest else []
result = {"setup_s": setup_s, "pboltz": cli.__file__}
if argv:
    tracer = Tracer()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if traced:
        with tracer:
            rc = cli.main(argv)
    else:
        rc = cli.main(argv)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - cpu0
    result["rc"] = rc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        result["spans"] = tracer.spans
with open(result_path, "w", encoding="utf-8") as fh:
    json.dump(result, fh)

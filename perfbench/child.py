"""One benchmark child process: import polarlab, run the items it is
given, and report each result as one JSON line on stdout.

Usage (started by run.py, never by hand):
    python3 perfbench/child.py '<json spec>'

The spec holds the workload, the (item, sample seed) list, the trace mode
("off", "spans" or "count"), a scratch directory, and the CLOCK_MONOTONIC
time at which the parent spawned this process.  The last line reports the
child's own set-up time, peak RSS and, when traced, its spans and counters.
With tracing off, times are in reference seconds (hostspeed.py); traced
children do not sample, so that sampling does not inflate any span.
"""

import json
import sys
import time

from hostspeed import Sampler

SPEC = json.loads(sys.argv[1])
SAMPLER = Sampler()
if SPEC["mode"] == "off":
    SAMPLER.start()

import polarlab.cli  # noqa: E402  (the CLI import loads every module)

IMPORTED = time.monotonic()
SETUP_WINDOW = SAMPLER.window()

import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import run_item  # noqa: E402


def main() -> int:
    spec = SPEC
    root = Path(__file__).resolve().parents[1]
    if not Path(polarlab.cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"polarlab imported from {polarlab.cli.__file__}, not {root}/src",
              file=sys.stderr)
        return 2
    scale, sampled = SETUP_WINDOW
    setup_s = (IMPORTED - spec["spawn"] - SAMPLER.build_s - sampled) * scale
    tracer = None if spec["mode"] == "off" else Tracer(spec["mode"])
    if tracer is not None:
        tracer.install()
    from polarlab.polarspace import get_space
    hits = misses = 0
    for item, sample_seed in spec["items"]:
        if tracer is not None:
            tracer.item = item
        before = get_space.cache_info()
        mark = SAMPLER.mark()
        start = time.perf_counter()
        try:
            output, error = run_item(spec["workload"], item, sample_seed,
                                     spec["scratch"]), None
        except Exception:
            output, error = None, traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - start
        scale, sampled = SAMPLER.window(mark)
        after = get_space.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
        print(json.dumps({"item": item, "output": output, "error": error,
                          "time_s": (elapsed - sampled) * scale}), flush=True)
    SAMPLER.stop()
    scale, sampled = SAMPLER.window()
    report = {
        "setup_s": setup_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "get_space": [hits, misses],
        "scale": scale,          # reference seconds per sample-free second
        "sampled_s": sampled,
    }
    if tracer is not None:
        report.update(spans=tracer.spans, counters=tracer.counters,
                      scalar_ops=tracer.scalar_ops,
                      overhead_s=tracer.overhead_s())
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Outside-in benchmark of polarlab.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

WORKLOAD is scan-ladder, kspace-enum or construct-verify (see README.md).
The load is closed-loop and single-threaded: this process starts one child
at a time and waits for it.  Every item output is checked against
reference.json; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 repeats whole passes for at least S seconds and reports the
end-to-end metrics (medians over passes), with times in reference seconds:
scaled by the host speed each child samples (hostspeed.py).  --trace 1 runs one pass with
spans and the same pass counting scalar field operations, and reports the
per-layer metrics; its spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import METRICS as LAYER_UNITS, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check, plan_pass  # noqa: E402

REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
RUN_BUDGET_S = 170      # per workload; a run must end within 180 s
CHILD_TIMEOUT_S = 120   # one child: an instance, or a construct-verify pass

END_TO_END_UNITS = {"wall_s": "s", "slowest_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


@dataclass
class Pass:
    """One pass over a workload, every output checked."""
    wall_s: float = 0.0             # in reference seconds (hostspeed.py)
    raw_wall_s: float = 0.0         # as measured
    item_s: dict = field(default_factory=dict)      # reference seconds
    setup_s: list = field(default_factory=list)     # one per child, likewise
    attempted: int = 0
    failures: list = field(default_factory=list)   # (item, reason)
    outputs: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)    # children's last lines


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # no thread pool may outgrow the two cores of the reference machine
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(workload: str, work: list, mode: str, timeout: float):
    """Start one child, wait for it, and return (per-item result lines,
    final report or None, error text or None)."""
    scratch = OUT / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "items": work, "mode": mode,
            "scratch": str(scratch)}
    spec["spawn"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    error = None
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        error = f"timeout after {timeout:.0f} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    results, report = {}, None
    for line in out.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue        # not one of the child's report lines
        if "item" in msg:
            results[msg["item"]] = msg
        else:
            report = msg
    if error is None and (proc.returncode != 0 or report is None):
        tail = err.strip().splitlines()[-1:] or ["no output"]
        error = f"child exited {proc.returncode}: {tail[0]}"
    return results, report, error


def run_pass(workload: str, plan: list, mode: str, reference: dict,
             deadline: float) -> Pass:
    """Run the children of one pass, one after the other, and check every
    output."""
    p = Pass()
    for work in plan:
        p.attempted += len(work)
        left = deadline - time.monotonic()
        if left <= 0:
            p.failures += [(item, "not run: run budget exhausted")
                           for item, _seed in work]
            continue
        start = time.monotonic()
        results, report, error = run_child(workload, work, mode,
                                           min(CHILD_TIMEOUT_S, left))
        p.failures += _check_child(workload, work, results, error, reference, p)
        elapsed = time.monotonic() - start
        p.raw_wall_s += elapsed
        p.item_s.update((item, r["time_s"]) for item, r in results.items())
        if report is None:
            p.wall_s += elapsed
            continue
        p.wall_s += (elapsed - report["sampled_s"]) * report["scale"]
        p.setup_s.append(report["setup_s"])
        p.reports.append(report)
    return p


def _check_child(workload: str, work: list, results: dict, error, reference: dict,
                 p: Pass) -> list:
    """The failures among one child's items; correct outputs go to p."""
    failures = []
    for item, _seed in work:
        r = results.get(item)
        if r is None:
            failures.append((item, error or "no result"))
            continue
        if r["error"]:
            failures.append((item, r["error"].strip().splitlines()[-1]))
            continue
        p.outputs[item] = r["output"]
        reason = check(workload, item, r["output"], reference)
        if reason:
            failures.append((item, reason))
    return failures


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 reference: dict) -> tuple[list, dict]:
    """All passes of one run; returns (passes, metrics)."""
    rng = random.Random(seed)
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        plan = plan_pass(workload, rng)
        traced = run_pass(workload, plan, "spans", reference, deadline)
        counted = run_pass(workload, plan, "count", reference, deadline)
        values = layer_metrics(
            traced.reports, sum(r["scalar_ops"] for r in counted.reports))
        write_trace(workload, seed, traced.reports, values)
        metrics = {k: _metric(values[k], unit) for k, unit in LAYER_UNITS.items()}
        return [traced, counted], metrics
    passes = []
    start = time.monotonic()
    while True:
        p = run_pass(workload, plan_pass(workload, rng), "off", reference,
                     deadline)
        passes.append(p)
        now = time.monotonic()
        if now - start >= seconds or now + p.raw_wall_s > deadline:
            break
    reports = [r for p in passes for r in p.reports]
    setups = [s for p in passes for s in p.setup_s]
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "slowest_s": statistics.median(max(p.item_s.values(), default=0.0)
                                       for p in passes),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max((r["maxrss_mb"] for r in reports), default=0.0),
    }
    return passes, {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def write_trace(workload: str, seed: int, reports: list, metrics: dict):
    """Spans of a traced pass, parent indices made global across children."""
    spans = []
    for child, report in enumerate(reports):
        base = len(spans)
        for name, start, end, parent, item in report["spans"]:
            spans.append([name, start, end,
                          parent + base if parent >= 0 else -1, item, child])
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "item", "child"],
                   "spans": spans, "metrics": metrics}, fh)


def _summary(workload: str, passes: list, metrics: dict) -> str:
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    lines = [f"{workload}: {len(passes)} pass(es), {attempted} items attempted"]
    lines.append(f"  {'pass wall_s, unscaled':34} "
                 + ", ".join(f"{p.raw_wall_s:.6g}" for p in passes) + " s")
    for name, m in metrics.items():
        lines.append(f"  {name:34} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'fail_ratio':34} {failed / attempted:.6g} "
                 f"({failed}/{attempted})")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "polarlab" / "cli.py").is_file():
        print(f"no polarlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        passes, wl_metrics = run_workload(workload, args.seed, args.seconds,
                                          bool(args.trace), reference)
        for p in passes:
            for item, reason in p.failures:
                print(f"FAIL {workload} / {item}: {reason}", file=sys.stderr)
            attempted += p.attempted
            failed += len(p.failures)
        print(_summary(workload, passes, wl_metrics))
        if len(workloads) == 1:
            metrics = wl_metrics
        else:
            metrics.update({f"{workload}.{k}": v for k, v in wl_metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

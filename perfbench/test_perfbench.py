"""Tests of the benchmark itself, on its cheapest items.

Run with: python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(HERE / "reference.json") as fh:
    REFERENCE = json.load(fh)

CHEAP = {
    "scan-ladder": ["Q(4,2) k=1", "Qplus(5,2) k=1", "Qminus(5,2) k=1"],
    "construct-verify": ["two-reguli q=2", "W(2) ovoid+pair",
                         "covers Q(4,2)", "minihyper Q(4,8) #1"],
}


def _pass(workload, seed, mode="off", reference=REFERENCE):
    plan = workloads.plan_pass(workload, random.Random(seed), CHEAP[workload])
    return run.run_pass(workload, plan, mode, reference, time.monotonic() + 120)


def test_corrupted_reference_is_a_failure():
    bad = copy.deepcopy(REFERENCE)
    bad["scan-ladder"]["Qplus(5,2) k=1"]["rank"] += 1
    bad["construct-verify"]["covers Q(4,2)"]["cases"] += 1
    for workload in CHEAP:
        good = _pass(workload, 1)
        assert good.failures == []
        broken = _pass(workload, 1, reference=bad)
        assert broken.attempted == len(CHEAP[workload])
        assert [item for item, _why in broken.failures] == [
            "Qplus(5,2) k=1" if workload == "scan-ladder" else "covers Q(4,2)"]


def test_metric_names():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert per_layer == list(tracing.METRICS)
    for name in end_to_end + per_layer:
        assert pattern.fullmatch(name) and len(name) <= 64, name


def test_seeds_change_order_not_outputs():
    for workload in CHEAP:
        a, b = _pass(workload, 1), _pass(workload, 2)
        assert a.failures == [] and b.failures == []
        assert a.outputs == b.outputs
        assert set(a.outputs) == set(CHEAP[workload])
    for workload in workloads.WORKLOADS:
        plan = workloads.plan_pass(workload, random.Random(7))
        again = workloads.plan_pass(workload, random.Random(7))
        assert plan == again
        assert sorted(i for work in plan for i, _s in work) == sorted(
            workloads.items(workload))
    # items that share one process keep their order whatever the seed
    for seed in (1, 2):
        (work,) = workloads.plan_pass("construct-verify", random.Random(seed))
        assert [i for i, _s in work] == workloads.items("construct-verify")


def test_traced_and_untraced_outputs_identical():
    for workload in CHEAP:
        off = _pass(workload, 3)
        spans = _pass(workload, 3, "spans")
        count = _pass(workload, 3, "count")
        for p in (off, spans, count):
            assert p.failures == []
        assert off.outputs == spans.outputs == count.outputs
        assert all(r["spans"] for r in spans.reports)
        assert sum(r["scalar_ops"] for r in count.reports) > 0
        metrics = tracing.layer_metrics(spans.reports, 1)
        assert list(metrics) == list(tracing.METRICS)
        assert metrics["trace.overhead_s"] > 0


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1, "x"), ("b", 1.0, 4.0, 0, "x"),
             ("a", 2.0, 3.0, 1, "x"), ("b", 5.0, 6.0, 0, "x")]
    own = tracing.self_times(spans)
    assert own == {"a": 10.0 - 3.0 - 1.0 + 1.0, "b": 3.0 - 1.0 + 1.0}


def test_host_speed_scaling():
    sampler = hostspeed.Sampler()
    ref = hostspeed.REF_S
    sampler.samples = [ref] * 5 + [2 * ref] * 5
    # the latest window ran at half speed: its sample-free time counts half
    scale, sampled = sampler.window(5)
    assert scale == pytest.approx(0.5) and sampled == pytest.approx(10 * ref)
    # too few samples inside: the latest MIN_SAMPLES stand in for them
    scale, sampled = sampler.window(9)
    assert scale == pytest.approx(0.5) and sampled == pytest.approx(2 * ref)
    assert hostspeed.Sampler().window() == (1.0, 0)

"""Spans and counters around the calls into each polarlab layer.

The wrappers are installed from the benchmark's own files; polarlab is not
changed.  A wrapper replaces a function wherever a module bound it, the
defining module and every `from ... import` binding alike, so that calls
such as `constructions.get_space` or `polarspace.span` are seen too.

Two modes, never mixed in one process:
- "spans": one span per call to a layer function, kept in memory as
  (name, start, end, parent, item), with hooks that count work done;
- "count": only a counter on the FieldSpec scalar operations, so that
  counting does not inflate any span.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time
from collections import Counter

SCALAR_OPS = ("add", "sub", "neg", "mul", "inv", "pow", "conj")

# span name -> (module, attribute path) of the wrapped callable
LAYER_CALLS = {
    "gf.make_field": ("polarlab.gf", "make_field"),
    "projspace.enumerate_points": ("polarlab.projspace", "enumerate_points"),
    "projspace.span": ("polarlab.projspace", "span"),
    "projspace.subspace_points": ("polarlab.projspace", "subspace_points"),
    "polarspace.build": ("polarlab.polarspace", "PolarSpace.__init__"),
    "polarspace.adjacency": ("polarlab.polarspace", "PolarSpace.adjacency"),
    "polarspace.kspaces": ("polarlab.polarspace",
                           "PolarSpace.singular_kspaces_with_supports"),
    "gfcode.build_incidence": ("polarlab.gfcode", "build_incidence"),
    "gfcode.rank": ("polarlab.gfcode", "rank_and_nullspace"),
    "gfcode.scan": ("polarlab.gfcode", "scan_dual_weights"),
    "gfcode.is_dual": ("polarlab.gfcode", "is_dual_codeword"),
    "gfcode.export": ("polarlab.gfcode", "export_alist"),
}
# every public function of these modules is a span "<module>.<function>"
WHOLE_MODULES = ("polarlab.kleinmap", "polarlab.verify")

# the per-layer metrics of a traced run, with units
METRICS = {
    "gf.make_field.s": "s",
    "gf.scalar_ops": "count",
    "projspace.enumerate_points.s": "s",
    "projspace.points": "count",
    "projspace.span.s": "s",
    "projspace.span.calls": "count",
    "projspace.subspace_points.s": "s",
    "polarspace.build.s": "s",
    "polarspace.get_space.hit_ratio": "ratio",
    "polarspace.adjacency.s": "s",
    "polarspace.collinear_pairs": "count",
    "polarspace.kspaces.s": "s",
    "polarspace.kspaces.out": "count",
    "polarspace.kspaces.per_s": "1/s",
    "polarspace.kspaces.rss_mb": "MB",
    "gfcode.build_incidence.s": "s",
    "gfcode.incidence.nnz": "count",
    "gfcode.rank.s": "s",
    "gfcode.rank.cells": "count",
    "gfcode.scan.s": "s",
    "gfcode.scan.words": "count",
    "gfcode.scan.words_per_s": "1/s",
    "gfcode.scan.refused": "count",
    "gfcode.scan.refused_s": "s",
    "gfcode.is_dual.s": "s",
    "gfcode.is_dual.rows": "count",
    "gfcode.export.s": "s",
    "gfcode.export.bytes": "bytes",
    "kleinmap.s": "s",
    "kleinmap.calls": "count",
    # constructions.<key>.s are added below, one per CONSTRUCTIONS key
    "verify.s": "s",
    "verify.calls": "count",
    "verify.decompose_sum_of_lines.s": "s",
    "trace.overhead_s": "s",
}
CONSTRUCTION_KEYS = ("two-reguli", "two-pencils", "regulus-combination",
                     "regulus-switch", "complement-ovoid", "wq-example",
                     "hermitian-pair", "disjoint-cones", "polar-pair",
                     "complement-cone")
for _key in CONSTRUCTION_KEYS:
    METRICS[f"constructions.{_key}.s"] = "s"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Per-process recorder.  Create one, install it once, then set
    `item` before each item runs."""

    def __init__(self, mode: str):
        if mode not in ("spans", "count"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.item = None
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._seen: list = []       # results already counted, kept alive
        self._seen_ids: set[int] = set()
        self._scalar = [0]
        self.hook_s = 0.0           # time spent in the counting hooks

    # -- installation ------------------------------------------------------

    def install(self):
        if self.mode == "count":
            self._install_scalar_counter()
            return
        import polarlab.constructions as constructions
        targets = {}
        for name, (modname, attr) in LAYER_CALLS.items():
            targets[name] = (sys.modules[modname], attr)
        for modname in WHOLE_MODULES:
            mod = sys.modules[modname]
            short = modname.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == modname):
                    targets[f"{short}.{attr}"] = (mod, attr)
        for key, fn in list(constructions.CONSTRUCTIONS.items()):
            targets[f"constructions.{key}"] = (constructions, fn.__name__)
        for name, (mod, attr) in targets.items():
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            original = getattr(holder, leaf)
            wrapper = self._wrap(name, original)
            if owner:
                setattr(holder, leaf, wrapper)
            else:
                _rebind(original, wrapper)

    def _install_scalar_counter(self):
        from polarlab.gf import FieldSpec
        ticks = self._scalar
        for op in SCALAR_OPS:
            original = getattr(FieldSpec, op)

            def counted(*args, _original=original):
                ticks[0] += 1
                return _original(*args)

            setattr(FieldSpec, op, counted)

    @property
    def scalar_ops(self) -> int:
        return self._scalar[0]

    # -- span recording ----------------------------------------------------

    def _wrap(self, name: str, original):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as e:
                error = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
                if hook is not None:
                    hook(self, args, None if error else result, error,
                         end - start)
                    self.hook_s += clock() - end
            return result

        return wrapper

    def overhead_s(self) -> float:
        """Time the spans added to this process: the spans recorded times
        the cost of one span, timed here on a no-op call, plus the time
        spent in the hooks."""
        return len(self.spans) * _span_cost_s() + self.hook_s

    def first_time(self, result) -> bool:
        """True the first time this result object is returned; a cached
        result comes back as the same object and is counted once."""
        if id(result) in self._seen_ids:
            return False
        self._seen.append(result)
        self._seen_ids.add(id(result))
        return True


def _span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one,
    the fastest of a few repeats."""
    def noop():
        return None

    wrapped = Tracer("spans")._wrap("noop", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / calls


def _rebind(original, wrapper):
    """Replace `original` in every polarlab module that binds it, and in
    the CONSTRUCTIONS registry."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "polarlab"
                               or modname.startswith("polarlab.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, wrapper)
        registry = vars(mod).get("CONSTRUCTIONS")
        if isinstance(registry, dict):
            for key, obj in registry.items():
                if obj is original:
                    registry[key] = wrapper


# -- hooks: work counted at the layer boundary -----------------------------


def _points_hook(tr, _args, result, _error, _dt):
    if result is not None and tr.first_time(result):
        tr.counters["projspace.points"] += len(result)


def _adjacency_hook(tr, _args, result, _error, _dt):
    if result is not None and tr.first_time(result):
        tr.counters["polarspace.collinear_pairs"] += (
            sum(m.bit_count() for m in result) // 2)


def _kspaces_hook(tr, _args, result, _error, dt):
    if result is not None and tr.first_time(result):
        tr.counters["polarspace.kspaces.out"] += len(result)
        tr.counters["polarspace.kspaces.computed_s"] += dt
        tr.counters["polarspace.kspaces.rss_mb"] = max(
            tr.counters["polarspace.kspaces.rss_mb"], _maxrss_mb())


def _incidence_hook(tr, _args, result, _error, _dt):
    if result is not None and tr.first_time(result):
        tr.counters["gfcode.incidence.nnz"] += sum(map(len, result.supports))


def _rank_hook(tr, args, _result, _error, _dt):
    A = args[0]
    tr.counters["gfcode.rank.cells"] += A.n_rows * A.n_cols


def _scan_hook(tr, _args, result, error, dt):
    from polarlab.gfcode import ScanRefused
    if error is not None:
        if isinstance(error, ScanRefused):
            tr.counters["gfcode.scan.refused"] += 1
            tr.counters["gfcode.scan.refused_s"] += dt
        return
    tr.counters["gfcode.scan.words"] += sum(result["weights"].values())


def _is_dual_hook(tr, args, result, _error, _dt):
    if result is not None:
        ok, row = result
        tr.counters["gfcode.is_dual.rows"] += args[1].n_rows if ok else row + 1


def _export_hook(tr, args, result, _error, _dt):
    if result is not None:
        tr.counters["gfcode.export.bytes"] += os.path.getsize(args[1])


_HOOKS = {
    "projspace.enumerate_points": _points_hook,
    "polarspace.adjacency": _adjacency_hook,
    "polarspace.kspaces": _kspaces_hook,
    "gfcode.build_incidence": _incidence_hook,
    "gfcode.rank": _rank_hook,
    "gfcode.scan": _scan_hook,
    "gfcode.is_dual": _is_dual_hook,
    "gfcode.export": _export_hook,
}


# -- aggregation (parent side) ---------------------------------------------


def self_times(spans) -> Counter:
    """Seconds per span name, each span's duration minus the part its
    child spans cover.  Spans are (name, start, end, parent, item) with
    parent the index of the enclosing span in the same list, or -1."""
    own = [end - start for _name, start, end, _parent, _item in spans]
    for _name, start, end, parent, _item in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: Counter = Counter()
    for (name, *_rest), t in zip(spans, own):
        out[name] += t
    return out


def layer_metrics(children: list[dict], scalar_ops: int) -> dict[str, float]:
    """Per-layer metrics from the span-mode children of one pass.  Each
    child dict has "spans", "counters", "get_space" (hits, misses) and
    "overhead_s"."""
    own: Counter = Counter()
    calls: Counter = Counter()
    counters: Counter = Counter()
    hits = misses = 0
    for child in children:
        own.update(self_times(child["spans"]))
        calls.update(name for name, *_rest in child["spans"])
        counters.update(child["counters"])
        hits += child["get_space"][0]
        misses += child["get_space"][1]

    def layer(prefix):
        names = [n for n in calls if n.startswith(prefix + ".")]
        return sum(own[n] for n in names), sum(calls[n] for n in names)

    kleinmap_s, kleinmap_calls = layer("kleinmap")
    verify_s, verify_calls = layer("verify")
    m = {
        "gf.make_field.s": own["gf.make_field"],
        "gf.scalar_ops": scalar_ops,
        "projspace.enumerate_points.s": own["projspace.enumerate_points"],
        "projspace.points": counters["projspace.points"],
        "projspace.span.s": own["projspace.span"],
        "projspace.span.calls": calls["projspace.span"],
        "projspace.subspace_points.s": own["projspace.subspace_points"],
        "polarspace.build.s": own["polarspace.build"],
        "polarspace.get_space.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "polarspace.adjacency.s": own["polarspace.adjacency"],
        "polarspace.collinear_pairs": counters["polarspace.collinear_pairs"],
        "polarspace.kspaces.s": own["polarspace.kspaces"],
        "polarspace.kspaces.out": counters["polarspace.kspaces.out"],
        "polarspace.kspaces.per_s": _rate(counters["polarspace.kspaces.out"],
                                          counters["polarspace.kspaces.computed_s"]),
        "polarspace.kspaces.rss_mb": max(
            (c["counters"].get("polarspace.kspaces.rss_mb", 0.0) for c in children),
            default=0.0),
        "gfcode.build_incidence.s": own["gfcode.build_incidence"],
        "gfcode.incidence.nnz": counters["gfcode.incidence.nnz"],
        "gfcode.rank.s": own["gfcode.rank"],
        "gfcode.rank.cells": counters["gfcode.rank.cells"],
        "gfcode.scan.s": own["gfcode.scan"],
        "gfcode.scan.words": counters["gfcode.scan.words"],
        "gfcode.scan.words_per_s": _rate(counters["gfcode.scan.words"],
                                         own["gfcode.scan"]),
        "gfcode.scan.refused": counters["gfcode.scan.refused"],
        "gfcode.scan.refused_s": counters["gfcode.scan.refused_s"],
        "gfcode.is_dual.s": own["gfcode.is_dual"],
        "gfcode.is_dual.rows": counters["gfcode.is_dual.rows"],
        "gfcode.export.s": own["gfcode.export"],
        "gfcode.export.bytes": counters["gfcode.export.bytes"],
        "kleinmap.s": kleinmap_s,
        "kleinmap.calls": kleinmap_calls,
        "verify.s": verify_s,
        "verify.calls": verify_calls,
        "verify.decompose_sum_of_lines.s": own["verify.decompose_sum_of_lines"],
        "trace.overhead_s": sum(c["overhead_s"] for c in children),
    }
    for key in CONSTRUCTION_KEYS:
        m[f"constructions.{key}.s"] = own[f"constructions.{key}"]
    return m


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0

"""The benchmark's workloads: their items, how a child process runs one
item, and the checks an item's output must pass.

An item is one instance (scan-ladder, kspace-enum), one construction row
or one seeded oracle batch (construct-verify).  Item runners call only the
public functions of polarlab, the way scripts/scan_small_codes.py,
scripts/weight_table.py and the acceptance battery call them.  polarlab is
imported inside the runners, so the parent process never loads it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

# The inputs below are copies, not imports, of the scripts' tables, so that
# an edit to a script cannot change what the benchmark measures.

# (family, ambient dimension, field order, k): the codes of
# scripts/scan_small_codes.py, scanned at the library's default nullity limit
SCAN_LADDER = [
    ("Q", 4, 2, 1),
    ("W", 3, 2, 1),
    ("Qplus", 5, 2, 1),
    ("Qplus", 5, 2, 2),
    ("Qminus", 5, 2, 1),
    ("Qplus", 7, 2, 1),
    ("Qplus", 7, 2, 2),
    ("Qplus", 7, 2, 3),
    ("H", 4, 4, 1),
    ("H", 5, 4, 1),
    ("H", 5, 4, 2),
    ("Q", 4, 3, 1),
]

# the deep levels extend each node by every point of its common perp and
# keep one candidate in 208 (planes of Q(6,4) and H(5,4)) or in 52
# (solids of Q(8,2)); the k=1 instance has no such level; no instance
# eliminates a matrix
KSPACE_ENUM = [
    ("Q", 6, 4, 2),
    ("H", 5, 4, 2),
    ("Q", 8, 2, 3),
    ("Qplus", 7, 3, 1),
]

# the 33 rows of scripts/weight_table.py as (label, CONSTRUCTIONS key, args)
CONSTRUCTION_ROWS = [
    ("two-reguli q=2", "two-reguli", (2,)),
    ("two-reguli q=3", "two-reguli", (3,)),
    ("two-reguli q=4", "two-reguli", (4,)),
    ("two-pencils q=2", "two-pencils", (2,)),
    ("two-pencils q=3", "two-pencils", (3,)),
    ("two-pencils q=4", "two-pencils", (4,)),
    ("regulus-switch q=2 i=0", "regulus-switch", (2, 0)),
    ("regulus-switch q=2 i=1", "regulus-switch", (2, 1)),
    ("regulus-switch q=4 i=0", "regulus-switch", (4, 0)),
    ("regulus-switch q=4 i=1", "regulus-switch", (4, 1)),
    ("regulus-switch q=4 i=2", "regulus-switch", (4, 2)),
    ("complement-ovoid Q(4,2)", "complement-ovoid", ("Q", 2)),
    ("complement-ovoid Q(4,4)", "complement-ovoid", ("Q", 4)),
    ("complement-ovoid Q+(5,2)", "complement-ovoid", ("Qplus", 2)),
    ("W(2) affine", "wq-example", (2, "affine")),
    ("W(2) affine+pair", "wq-example", (2, "affine_plus_pair")),
    ("W(2) ovoid+pair", "wq-example", (2, "ovoid_plus_pair")),
    ("W(4) affine", "wq-example", (4, "affine")),
    ("W(4) affine+pair", "wq-example", (4, "affine_plus_pair")),
    ("W(4) ovoid+pair", "wq-example", (4, "ovoid_plus_pair")),
    ("hermitian curve pair q=2", "hermitian-pair", (2, "curve_pair")),
    ("hermitian cone pair q=2", "hermitian-pair", (2, "cone_pair")),
    ("perp cones Q-(5,2)", "disjoint-cones", ("Qminus", 2)),
    ("perp cones H(4,4)", "disjoint-cones", ("H", 2)),
    ("polar pair Q+(5,2)", "polar-pair", ("Qplus", 2, 2)),
    ("polar pair Q+(7,2)", "polar-pair", ("Qplus", 3, 2)),
    ("complement Q+(7,2) parabolic", "complement-cone", ("Qplus", 3, 2, 1, "parabolic")),
    ("complement Q+(7,2) tangent", "complement-cone", ("Qplus", 3, 2, 1, "tangent")),
    ("complement Q+(7,2) k=2", "complement-cone", ("Qplus", 3, 2, 2)),
    ("complement Q(6,2)", "complement-cone", ("Q", 3, 2, 1)),
    ("complement Q-(7,2)", "complement-cone", ("Qminus", 3, 2, 1)),
    ("complement H(4,4)", "complement-cone", ("H", 4, 2, 1)),
    ("complement H(5,4)", "complement-cone", ("H", 5, 2, 1)),
]
# no weight_table.py row calls regulus-combination; these two rows call it
# as tests/test_constructions.py does (weights 12 and 10)
CONSTRUCTION_ROWS += [
    ("regulus-combination q=2 c=0", "regulus-combination", (2, 0)),
    ("regulus-combination q=2 c=1", "regulus-combination", (2, 1)),
]

# seeded oracle batches modelled on acceptance criteria 8 and 9
COVER_SAMPLES = 5          # random covers per excess r, and ovoid extensions
MINIHYPER_BATCHES = 4
MINIHYPER_CASES = 25       # sums of at most 3 lines of Q(4,8) per batch
ORACLES = {f"covers Q(4,{q})": q for q in (2, 4)}
ORACLES.update({f"minihyper Q(4,8) #{b}": 8
                for b in range(1, MINIHYPER_BATCHES + 1)})

WORKLOADS = ("scan-ladder", "kspace-enum", "construct-verify")


def _instance_id(family, n, order, k) -> str:
    return f"{family}({n},{order}) k={k}"


def items(workload: str) -> list[str]:
    """Item ids of a workload, in their canonical order."""
    if workload == "scan-ladder":
        return [_instance_id(*t) for t in SCAN_LADDER]
    if workload == "kspace-enum":
        return [_instance_id(*t) for t in KSPACE_ENUM]
    if workload == "construct-verify":
        return [label for label, _key, _args in CONSTRUCTION_ROWS] + list(ORACLES)
    raise ValueError(f"unknown workload {workload!r}")


def plan_pass(workload: str, rng: random.Random,
              order: list[str] | None = None) -> list[list[tuple[str, int]]]:
    """One pass over `order` (default: every item of the workload): the
    children to start, in order, each with its (item id, sample seed) list.
    The seed never changes what a correct output is.  It shuffles the
    instances, each of which runs in a fresh process.  construct-verify
    runs in one process whose caches the items share, so its items keep
    the weight_table.py order, and the seed picks only the oracle samples;
    otherwise which item pays for a shared cold build would depend on it."""
    order = list(items(workload) if order is None else order)
    if workload != "construct-verify":
        rng.shuffle(order)
    work = [(item, rng.randrange(1 << 30)) for item in order]
    if workload == "construct-verify":
        return [work]       # one process per pass, as weight_table.py runs
    return [[w] for w in work]  # a fresh process per instance


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# -- item runners (child side) ---------------------------------------------


def _parse_instance(item: str):
    for t in SCAN_LADDER + KSPACE_ENUM:
        if _instance_id(*t) == item:
            return t
    raise KeyError(item)


def _run_scan(item: str, _sample_seed: int, scratch: str) -> dict:
    from polarlab.gfcode import (ScanRefused, build_incidence, export_alist,
                                 scan_dual_weights)
    from polarlab.polarspace import get_space

    family, n, order, k = _parse_instance(item)
    A = build_incidence(get_space(family, n, order), k)
    out = {"rows": A.n_rows, "cols": A.n_cols, "p": A.p}
    try:
        rep = scan_dual_weights(A)
    except ScanRefused as e:
        out["refused"] = str(e)
    else:
        out.update(mode=rep["mode"], rank=rep["rank"], nullity=rep["nullity"],
                   weights={str(w): m for w, m in sorted(rep["weights"].items())})
    if A.p == 2:
        path = os.path.join(scratch, f"code-{os.getpid()}.alist")
        try:
            out["alist_sha256"] = export_alist(A, path)
        finally:
            if os.path.exists(path):
                os.remove(path)
    return out


def _run_kspaces(item: str, _sample_seed: int, _scratch: str) -> dict:
    from polarlab.polarspace import get_space, polar_space_order, prop_counts
    from polarlab.projspace import theta

    family, n, order, k = _parse_instance(item)
    P = get_space(family, n, order)
    spaces = P.singular_kspaces_with_supports(k)
    M, _N = prop_counts(P.family, P.rank_param, k, P.q)
    closed = polar_space_order(P.family, P.n, P.F.order) * M / theta(k, P.F.order)
    return {"count": len(spaces), "closed_form": str(closed),
            "supports_sha256": _sha256([list(sup) for _S, sup in spaces])}


def _run_row(item: str, _sample_seed: int, _scratch: str) -> dict:
    from polarlab.constructions import CONSTRUCTIONS
    from polarlab.polarspace import bound_min_weight_dual

    _label, key, args = next(r for r in CONSTRUCTION_ROWS if r[0] == item)
    r = CONSTRUCTIONS[key](*args)
    weight_ok, dual_ok, witness = r.check()
    bound = bound_min_weight_dual(r.space.family, r.space.rank_param, r.k,
                                  r.space.q)
    return {"weight": r.codeword.weight, "predicted": r.predicted_weight,
            "bound": bound, "weight_ok": weight_ok, "dual_ok": dual_ok,
            "witness": witness,
            "support_sha256": _sha256(sorted(r.codeword.support.items()))}


def _run_covers(q: int, rng: random.Random) -> tuple[int, int]:
    """Spread plus r <= q random extra lines of Q(4,q): total excess
    r(q+1), a good line when r > 0, and the spread extracted back; an
    ovoid plus r <= q random points: the ovoid extracted back."""
    from polarlab import constructions, verify
    from polarlab.polarspace import get_space

    P = get_space("Q", 4, q)
    spread = verify.find_spread(P)
    cases, passed = 1, 0
    if spread is not None and verify.is_spread(P, spread):
        passed = 1
        lines = [L for L, _sup in P.singular_kspaces_with_supports(1)]
        pool = [L for L in lines if L not in spread]
        for r in range(q + 1):
            for _ in range(COVER_SAMPLES):
                cover = spread + rng.sample(pool, r)
                _exc, _line_exc, total = verify.excess_profile(P, cover)
                ok = total == r * (q + 1)
                if r > 0:
                    ok &= verify.find_good_line(P, cover) is not None
                back = verify.extract_spread(P, cover)
                ok &= back is not None and verify.is_spread(P, back)
                cases += 1
                passed += ok
    ovoid = constructions.elliptic_hyperplane_section(P)
    outside = [i for i in range(len(P.points)) if i not in ovoid]
    for r in range(1, q + 1):
        for _ in range(COVER_SAMPLES):
            back = verify.extract_ovoid(P, list(ovoid) + rng.sample(outside, r))
            cases += 1
            passed += back is not None and verify.is_ovoid(P, back)
    return cases, passed


def _run_minihypers(rng: random.Random) -> tuple[int, int]:
    """Sums of x <= 3 random lines of Q(4,8): a minihyper with parameters
    (x(q+1), x) that decomposes back into exactly the same weights."""
    from polarlab import verify
    from polarlab.polarspace import get_space

    q = 8
    P = get_space("Q", 4, q)
    lines = P.singular_kspaces_with_supports(1)
    table = dict(lines)
    passed = 0
    for _ in range(MINIHYPER_CASES):
        x = rng.choice([1, 2, 3])
        w = {}
        for _L, sup in (lines[rng.randrange(len(lines))] for _ in range(x)):
            for i in sup:
                w[P.points[i]] = w.get(P.points[i], 0) + 1
        W = verify.WeightedPointSet(dict(w), 4, P.F)
        ok = verify.is_minihyper(W, x * (q + 1), x)
        dec = verify.decompose_sum_of_lines(P, W)
        ok &= dec is not None and len(dec) == x
        if dec is not None:
            resum = {}
            for S in dec:
                for i in table[S]:
                    resum[P.points[i]] = resum.get(P.points[i], 0) + 1
            ok &= resum == w
        passed += ok
    return MINIHYPER_CASES, passed


def _run_oracle(item: str, sample_seed: int, _scratch: str) -> dict:
    rng = random.Random(sample_seed)
    if item.startswith("covers"):
        cases, passed = _run_covers(ORACLES[item], rng)
    else:
        cases, passed = _run_minihypers(rng)
    return {"cases": cases, "passed": passed}


def run_item(workload: str, item: str, sample_seed: int, scratch: str) -> dict:
    """Run one item in this process and return its checked output."""
    if workload == "scan-ladder":
        return _run_scan(item, sample_seed, scratch)
    if workload == "kspace-enum":
        return _run_kspaces(item, sample_seed, scratch)
    if item in ORACLES:
        return _run_oracle(item, sample_seed, scratch)
    return _run_row(item, sample_seed, scratch)


# -- checks (parent side) --------------------------------------------------


def check(workload: str, item: str, output: dict,
          reference: dict) -> str | None:
    """None when the output is correct, else what is wrong with it."""
    if workload == "kspace-enum" and str(output.get("count")) != output.get("closed_form"):
        return f"count {output.get('count')} != closed form {output.get('closed_form')}"
    if workload == "construct-verify":
        if item in ORACLES:
            if output.get("passed") != output.get("cases"):
                return f"{output.get('passed')} of {output.get('cases')} oracle cases passed"
        elif not (output.get("weight_ok") and output.get("dual_ok")
                  and output.get("weight", -1) >= output.get("bound", 0)):
            return "construction verdict FAIL"
    want = reference.get(workload, {}).get(item)
    if want is None:
        return "no reference output recorded"
    if output != want:
        diff = sorted(k for k in set(want) | set(output)
                      if want.get(k) != output.get(k))
        return "differs from reference in " + ", ".join(diff)
    return None

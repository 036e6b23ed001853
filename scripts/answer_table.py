#!/usr/bin/env python3
"""The answer table: every small polar-space code with its exact
dual-weight distribution, when the dual fits a full scan of at most
2^gfcode.FULL_SCAN_BITS words, or refused; and under each code the
constructed dual codewords on it, with their weights, closed-form
predictions, the 1 + M/N lower bound, verification verdicts and their
standing in the scanned distribution: min, max, interior, or open when
the scan is refused.  Each code is scanned once; the exit status is 1
when a construction fails.

Usage: python3 scripts/answer_table.py
"""

import sys
import time

from polarlab import constructions as C
from polarlab.gfcode import ScanRefused, build_incidence, scan_dual_weights
from polarlab.polarspace import bound_min_weight_dual, get_space


ROWS = [
    ("two-reguli q=2", lambda: C.cw_two_reguli(2)),
    ("two-reguli q=3", lambda: C.cw_two_reguli(3)),
    ("two-reguli q=4", lambda: C.cw_two_reguli(4)),
    ("two-pencils q=2", lambda: C.cw_two_pencils(2)),
    ("two-pencils q=3", lambda: C.cw_two_pencils(3)),
    ("two-pencils q=4", lambda: C.cw_two_pencils(4)),
    ("regulus-switch q=2 i=0", lambda: C.cw_regulus_switch(2, 0)),
    ("regulus-switch q=2 i=1", lambda: C.cw_regulus_switch(2, 1)),
    ("regulus-switch q=4 i=0", lambda: C.cw_regulus_switch(4, 0)),
    ("regulus-switch q=4 i=1", lambda: C.cw_regulus_switch(4, 1)),
    ("regulus-switch q=4 i=2", lambda: C.cw_regulus_switch(4, 2)),
    ("complement-ovoid Q(4,2)", lambda: C.cw_complement_ovoid("Q", 2)),
    ("complement-ovoid Q(4,4)", lambda: C.cw_complement_ovoid("Q", 4)),
    ("complement-ovoid Q+(5,2)", lambda: C.cw_complement_ovoid("Qplus", 2)),
    ("W(2) affine", lambda: C.cw_wq_examples(2, "affine")),
    ("W(2) affine+pair", lambda: C.cw_wq_examples(2, "affine_plus_pair")),
    ("W(2) ovoid+pair", lambda: C.cw_wq_examples(2, "ovoid_plus_pair")),
    ("W(4) affine", lambda: C.cw_wq_examples(4, "affine")),
    ("W(4) affine+pair", lambda: C.cw_wq_examples(4, "affine_plus_pair")),
    ("W(4) ovoid+pair", lambda: C.cw_wq_examples(4, "ovoid_plus_pair")),
    ("hermitian curve pair q=2", lambda: C.cw_hermitian_pair(2, "curve_pair")),
    ("hermitian cone pair q=2", lambda: C.cw_hermitian_pair(2, "cone_pair")),
    ("perp cones Q-(5,2)", lambda: C.cw_disjoint_perp_cones("Qminus", 2)),
    ("perp cones H(4,4)", lambda: C.cw_disjoint_perp_cones("H", 2)),
    ("polar pair Q+(5,2)", lambda: C.cw_polar_pair("Qplus", 2, 2)),
    ("polar pair Q+(7,2)", lambda: C.cw_polar_pair("Qplus", 3, 2)),
    ("complement Q+(7,2) parabolic", lambda: C.cw_complement_cone("Qplus", 3, 2, 1, "parabolic")),
    ("complement Q+(7,2) tangent", lambda: C.cw_complement_cone("Qplus", 3, 2, 1, "tangent")),
    ("complement Q+(7,2) k=2", lambda: C.cw_complement_cone("Qplus", 3, 2, 2)),
    ("complement Q(6,2)", lambda: C.cw_complement_cone("Q", 3, 2, 1)),
    ("complement Q-(7,2)", lambda: C.cw_complement_cone("Qminus", 3, 2, 1)),
    ("complement H(4,4)", lambda: C.cw_complement_cone("H", 4, 2, 1)),
    ("complement H(5,4)", lambda: C.cw_complement_cone("H", 5, 2, 1)),
]

# codes no row is on, after those of the rows: two more of the scan
# ladder, then the rest of the codes whose dual fits a full scan
MORE_CODES = [("Qplus", 5, 2, 1), ("Q", 4, 3, 1), ("W", 3, 3, 1), ("H", 3, 4, 1),
              ("Q", 8, 2, 1), ("Qplus", 9, 2, 1), ("Qminus", 9, 2, 1),
              ("Q", 10, 2, 1), ("W", 5, 2, 1), ("W", 7, 2, 1)]


def main() -> int:
    codes, failures = {}, 0
    for label, build in ROWS:
        t0 = time.time()
        r = build()
        weight_ok, dual_ok, _witness = r.check()
        bound = bound_min_weight_dual(
            r.space.family, r.space.rank_param, r.k, r.space.q)
        ok = weight_ok and dual_ok and r.codeword.weight >= bound
        failures += not ok
        codes.setdefault((r.space, r.k), []).append(
            (label, r, bound, "PASS" if ok else "FAIL", time.time() - t0))
    for family, n, order, k in MORE_CODES:
        codes.setdefault((get_space(family, n, order), k), [])
    print(f"  {'construction':34} {'weight':>7} {'predicted':>9} "
          f"{'bound':>6} verdict standing")
    for (P, k), rows in codes.items():
        try:
            rep = scan_dual_weights(build_incidence(P, k))
        except ScanRefused as e:
            print(f"{P!r} k={k}: refused ({e})")
            nz = None
        else:
            nz = sorted(w for w in rep["weights"] if w)
            dist = ", ".join(f"{w}:{rep['weights'][w]}" for w in sorted(rep["weights"]))
            print(f"{P!r} k={k}: rank={rep['rank']} nullity={rep['nullity']} "
                  f"min={nz[0] if nz else '-'} max={nz[-1] if nz else '-'}")
            print(f"  distribution: {dist}")
        for label, r, bound, verdict, seconds in rows:
            w = r.codeword.weight
            standing = ("open" if nz is None else "min" if w == nz[0]
                        else "max" if w == nz[-1] else "interior")
            print(f"  {label:34} {w:7d} {r.predicted_weight:9d} {bound:6d} "
                  f"{verdict:7} {standing:8} ({seconds:.2f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

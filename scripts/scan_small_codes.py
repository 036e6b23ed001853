#!/usr/bin/env python3
"""Exhaustive dual-weight distributions for every small polar-space code
whose nullspace fits a full scan, of at most 2^gfcode.FULL_SCAN_BITS
dual words; the others are listed as refused.

Usage: python3 scripts/scan_small_codes.py
"""

import sys

from polarlab.polarspace import get_space
from polarlab.gfcode import ScanRefused, build_incidence, scan_dual_weights

SPACES = [
    ("Q", 4, 2, [1]),
    ("W", 3, 2, [1]),
    ("Qplus", 5, 2, [1, 2]),
    ("Qminus", 5, 2, [1]),
    ("Qplus", 7, 2, [1, 2, 3]),
    ("H", 4, 4, [1]),
    ("H", 5, 4, [1, 2]),
    ("Q", 4, 3, [1]),
]


def main() -> int:
    for family, n, order, ks in SPACES:
        P = get_space(family, n, order)
        for k in ks:
            A = build_incidence(P, k)
            label = f"{P!r} k={k}"
            try:
                rep = scan_dual_weights(A)
            except ScanRefused as e:
                print(f"{label}: refused ({e})")
                continue
            nz = sorted(w for w in rep["weights"] if w)
            dist = ", ".join(f"{w}:{rep['weights'][w]}" for w in sorted(rep["weights"]))
            print(f"{label}: rank={rep['rank']} nullity={rep['nullity']} "
                  f"min={nz[0] if nz else '-'} max={nz[-1] if nz else '-'}")
            print(f"  distribution: {dist}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

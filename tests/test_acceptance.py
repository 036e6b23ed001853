"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line on the live terminal, so the
whole battery reads as a ten-line report.
"""

import random
import time
from math import ceil

import numpy as np

from polarlab.gf import field_of_order
from polarlab.projspace import span, subspace_points
from polarlab.polarspace import (
    bound_min_weight_dual,
    get_space,
    prop_counts,
    tanner_bound_elliptic_5,
    tanner_bound_hermitian_4,
)
from polarlab.gfcode import build_incidence, rank_and_nullspace, scan_dual_weights
from polarlab.kleinmap import klein_point
from polarlab import constructions as C
from polarlab import verify
from references import contains_point, count_kspaces_through, dense, intersect


def report(capsys, n, ok, msg):
    with capsys.disabled():
        print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, msg


def test_criterion_1_geometry_counts(capsys):
    t0 = time.time()
    cases = [("Q", 4, 2, 15, 1, 15), ("Qplus", 5, 2, 35, 2, 30),
             ("Qminus", 5, 2, 27, 1, 45), ("Qplus", 7, 2, 135, 3, 270),
             ("H", 5, 4, 693, 2, 891), ("H", 4, 4, 165, 1, 297)]
    ok = True
    for family, n, order, npts, gdim, ngens in cases:
        P = get_space(family, n, order)
        ok &= len(P.points) == npts
        ok &= len(P.singular_kspaces_with_supports(gdim)) == ngens
    elapsed = time.time() - t0
    ok &= elapsed < 5
    report(capsys, 1, ok, f"geometry counts exact in {elapsed:.2f}s")


def test_criterion_2_klein_correspondence(capsys):
    ok = True
    for q in (2, 3):
        F = field_of_order(q)
        P = get_space("Qplus", 5, q)
        from polarlab.projspace import enumerate_lines
        lines = enumerate_lines(3, F)
        line_of = {klein_point(L, F): L for L in lines}
        ok &= len(line_of) == len(lines) and set(line_of) == set(P.points)
        for L1 in lines[:10]:
            for L2 in lines[:10]:
                if L1 is L2:
                    continue
                ok &= ((intersect(L1, L2, F) is not None)
                       == P.collinear(klein_point(L1, F), klein_point(L2, F)))
        # generators pull back to pencils: all lines through one point,
        # or all lines inside one plane
        stars = planes = 0
        for S, sup in P.singular_kspaces_with_supports(2):
            pre = [line_of[P.points[i]] for i in sup]
            meet = pre[0]
            for L in pre[1:]:
                meet = meet if meet is None else intersect(meet, L, F)
            if meet is not None:  # a common point: star of lines
                stars += 1
                ok &= all(contains_point(L, meet.basis[0], F) for L in pre)
            else:
                planes += 1
                plane = span(pre[0].basis + pre[1].basis, F)
                ok &= plane.dim == 2
                ok &= all(
                    all(contains_point(plane, x, F)
                        for x in subspace_points(L, F)) for L in pre)
        from polarlab.projspace import theta
        ok &= stars == planes == theta(3, q)
    report(capsys, 2, ok,
           "Klein map: bijection, incidence transfer, pencil pullback (q=2,3)")


def test_criterion_3_codeword_table(capsys):
    t0 = time.time()
    table = [
        (C.cw_two_reguli(2), 6), (C.cw_two_reguli(3), 8),
        (C.cw_two_reguli(4), 10),
        (C.cw_two_pencils(2), 8), (C.cw_two_pencils(3), 12),
        (C.cw_two_pencils(4), 16),
        (C.cw_regulus_switch(2, 0), 30), (C.cw_regulus_switch(2, 1), 28),
        (C.cw_regulus_switch(4, 0), 340), (C.cw_regulus_switch(4, 1), 338),
        (C.cw_regulus_switch(4, 2), 336),
        (C.cw_complement_ovoid("Q", 2), 10),
        (C.cw_complement_ovoid("Q", 4), 68),
        (C.cw_wq_examples(2, "affine"), 8),
        (C.cw_wq_examples(2, "affine_plus_pair"), 10),
        (C.cw_wq_examples(2, "ovoid_plus_pair"), 8),
        (C.cw_wq_examples(4, "affine"), 64),
        (C.cw_wq_examples(4, "affine_plus_pair"), 66),
        (C.cw_wq_examples(4, "ovoid_plus_pair"), 62),
        (C.cw_hermitian_pair(2, "curve_pair"), 18),
        (C.cw_hermitian_pair(2, "cone_pair"), 24),
        (C.cw_disjoint_perp_cones("Qminus", 2), 12),
        (C.cw_disjoint_perp_cones("H", 2), 56),
        (C.cw_complement_cone("Qplus", 3, 2, 1, "parabolic"), 72),
        (C.cw_complement_cone("Qplus", 3, 2, 1, "tangent"), 64),
        (C.cw_complement_cone("Qplus", 3, 2, 2), 108),
        (C.cw_complement_cone("H", 5, 2, 1), 528),
    ]
    ok = True
    for result, expected in table:
        weight_ok, dual_ok, _w = result.check()
        ok &= weight_ok and dual_ok
        ok &= result.codeword.weight == expected
    elapsed = time.time() - t0
    ok &= elapsed < 120
    report(capsys, 3, ok,
           f"{len(table)} codewords: exact weights, dual membership, "
           f"{elapsed:.1f}s")


def test_criterion_4_bound_consistency(capsys):
    cases = [
        (C.cw_two_reguli(2), ("hyperbolic", 2, 2, 2)),
        (C.cw_two_pencils(3), ("hyperbolic", 2, 2, 3)),
        (C.cw_complement_ovoid("Q", 2), ("parabolic", 2, 1, 2)),
        (C.cw_wq_examples(2, "ovoid_plus_pair"), ("symplectic", 2, 1, 2)),
        (C.cw_hermitian_pair(2, "curve_pair"), ("hermitian", 5, 2, 2)),
        (C.cw_hermitian_pair(2, "cone_pair"), ("hermitian", 5, 2, 2)),
        (C.cw_disjoint_perp_cones("Qminus", 2), ("elliptic", 2, 1, 2)),
        (C.cw_disjoint_perp_cones("H", 2), ("hermitian", 4, 1, 2)),
        (C.cw_complement_cone("Qplus", 3, 2, 1, "tangent"),
         ("hyperbolic", 3, 1, 2)),
        (C.cw_complement_cone("H", 5, 2, 1), ("hermitian", 5, 1, 2)),
    ]
    ok = all(r.codeword.weight >= bound_min_weight_dual(*params)
             for r, params in cases)
    elliptic = C.cw_disjoint_perp_cones("Qminus", 2)
    tight = bound_min_weight_dual("elliptic", 2, 1, 2)
    ok &= elliptic.codeword.weight == tight == 12
    report(capsys, 4, ok,
           "all weights >= dual-code bound; equality 12 on the elliptic GQ")


def test_criterion_5_full_scan_q42(capsys):
    P = get_space("Q", 4, 2)
    A = build_incidence(P, 1)
    rank, D = rank_and_nullspace(A)
    ok = rank == 10 and len(D) == 5  # regression constants
    ok &= not (dense(A) @ D.T % 2).any()
    rep = scan_dual_weights(A)
    ok &= rep["mode"] == "FULL"
    nz = sorted(w for w in rep["weights"] if w)
    ok &= nz[0] == 6 and nz[-1] == 10
    # enumerate the maximum-weight words and test each complement
    packed = [sum(1 << int(i) for i in np.flatnonzero(row)) for row in D]
    n_max = 0
    for x in range(1, 1 << len(D)):
        acc = 0
        for i, m in enumerate(packed):
            if (x >> i) & 1:
                acc ^= m
        if acc.bit_count() == 10:
            n_max += 1
            comp = [i for i in range(15) if not (acc >> i) & 1]
            ok &= verify.is_ovoid(P, comp)
    ok &= n_max == rep["weights"][10] == 6
    report(capsys, 5, ok,
           "Q(4,2) dual scan: min 6, max 10, all max-weight complements "
           "are ovoids")


def test_criterion_6_even_weights(capsys):
    t0 = time.time()
    P = get_space("Qplus", 5, 2)
    A = build_incidence(P, 2)
    _rank, D = rank_and_nullspace(A)
    ok = not (dense(A) @ D.T % 2).any()
    ok &= all(np.count_nonzero(row) % 2 == 0 for row in D)
    packed = [sum(1 << int(i) for i in np.flatnonzero(row)) for row in D]
    rng = random.Random(0)
    for _ in range(10 ** 4):
        acc = 0
        for m in packed:
            if rng.getrandbits(1):
                acc ^= m
        ok &= acc.bit_count() % 2 == 0
    elapsed = time.time() - t0
    ok &= elapsed < 30
    report(capsys, 6, ok,
           f"hyperbolic dual: basis and 10^4 seeded combinations all even "
           f"({elapsed:.1f}s)")


def test_criterion_7_counting_formulas(capsys):
    cases = [
        ("hyperbolic", "Qplus", 5, 2, 2, [1, 2]),
        ("hyperbolic", "Qplus", 7, 2, 3, [1, 2, 3]),
        ("hyperbolic", "Qplus", 5, 3, 2, [1, 2]),
        ("parabolic", "Q", 4, 2, 2, [1]),
        ("parabolic", "Q", 4, 3, 2, [1]),
        ("elliptic", "Qminus", 5, 2, 2, [1]),
        ("elliptic", "Qminus", 5, 3, 2, [1]),
        ("hermitian", "H", 4, 4, 4, [1]),
        ("hermitian", "H", 5, 4, 5, [1, 2]),
    ]
    ok = True
    for fam, cli, ambient, order, n, ks in cases:
        P = get_space(cli, ambient, order)
        pt = P.points[0]
        other = next(x for x in P.points[1:] if P.collinear(pt, x))
        for k in ks:
            M, N = prop_counts(fam, n, k, P.q)
            ok &= M == count_kspaces_through(P, k, pt)
            ok &= N == count_kspaces_through(P, k, (pt, other))
            base = ceil(1 + M / N)
            special = {("elliptic", 2, 1): tanner_bound_elliptic_5,
                       ("hermitian", 4, 1): tanner_bound_hermitian_4}
            fn = special.get((fam, n, k))
            want = max(base, fn(P.q)) if fn else base
            ok &= bound_min_weight_dual(fam, n, k, P.q) == want
    report(capsys, 7, ok,
           "closed-form k-space counts match enumeration; bound = 1 + M/N")


def test_criterion_8_cover_machinery(capsys):
    ok = True
    for q, n_samples in ((2, None), (4, 5)):
        P = get_space("Q", 4, q)
        spread = verify.find_spread(P)
        ok &= spread is not None and verify.is_spread(P, spread)
        lines = [L for L, _ in P.singular_kspaces_with_supports(1)]
        extras_pool = [L for L in lines if L not in spread]
        rng = random.Random(q)
        samples = []
        for r in range(0, q + 1):
            if n_samples is None:
                samples.append(extras_pool[:r])
            else:
                for _ in range(n_samples):
                    samples.append(rng.sample(extras_pool, r))
        for extras in samples:
            cover = spread + list(extras)
            r = len(extras)
            _exc, _le, total = verify.excess_profile(P, cover)
            ok &= total == r * (q + 1)
            if r > 0:
                ok &= verify.find_good_line(P, cover) is not None
            back = verify.extract_spread(P, cover)
            ok &= back is not None and verify.is_spread(P, back)
        ovoid = C.elliptic_hyperplane_section(P)
        outside = [i for i in range(len(P.points)) if i not in ovoid]
        for r in range(1, q + 1):
            extra_pts = (outside[:r] if n_samples is None
                         else rng.sample(outside, r))
            backo = verify.extract_ovoid(P, list(ovoid) + list(extra_pts))
            ok &= backo is not None and verify.is_ovoid(P, backo)
    report(capsys, 8, ok,
           "cover excess r(q+1), good lines, spread/ovoid extraction "
           "(q=2 exhaustive, q=4 seeded)")


def test_criterion_9_minihyper_oracle(capsys):
    q = 8
    P = get_space("Q", 4, q)
    lines = P.singular_kspaces_with_supports(1)
    rng = random.Random(0)
    ok = True
    for case in range(100):
        x = rng.choice([1, 2, 3])
        chosen = [lines[rng.randrange(len(lines))] for _ in range(x)]
        w = {}
        for _L, sup in chosen:
            for i in sup:
                pt = P.points[i]
                w[pt] = w.get(pt, 0) + 1
        W = verify.WeightedPointSet(dict(w), 4, P.F)
        ok &= verify.is_minihyper(W, x * (q + 1), x)
        dec = verify.decompose_sum_of_lines(P, W)
        ok &= dec is not None and len(dec) == x
        if dec is not None:
            resum = {}
            table = dict(lines)
            for S in dec:
                for i in table[S]:
                    pt = P.points[i]
                    resum[pt] = resum.get(pt, 0) + 1
            ok &= resum == w
    report(capsys, 9, ok,
           "100 seeded sums of x lines of Q(4,8): minihyper parameters "
           "(x(q+1), x) and exact re-decomposition")


def test_criterion_10_weight_gap_vacuous(capsys):
    # open interval between the scaled cubic threshold and q^3+q contains
    # no even integer at these field sizes, so the gap statement has no
    # checkable instance here; it is recorded as vacuous, not confirmed.
    ok = True
    notes = []
    for q in (2, 4):
        lo = q ** 3 + (5 * q - 4) / 6
        hi = q ** 3 + q
        evens = [w for w in range(q ** 3, q ** 3 + 2 * q)
                 if w % 2 == 0 and lo < w < hi]
        ok &= evens == []
        notes.append(f"q={q}: no even weight in ({lo:g},{hi})")
    report(capsys, 10, ok, "weight gap VACUOUS at q=2,4 — " + "; ".join(notes))

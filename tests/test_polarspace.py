import gc
import hashlib
import json
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import isqrt

import numpy as np
import pytest

from polarlab import polarspace, projspace
from polarlab.gf import field_of_order
from polarlab.projspace import (
    GeometryError,
    ResourceError,
    Subspace,
    rref,
    span,
    subspace_points,
    theta,
)
from polarlab.polarspace import (
    bound_min_weight_dual,
    canonical_family,
    classify_plane_section,
    generator_dimension,
    get_space,
    make_cone,
    polar_image,
    polar_space_order,
    prop_counts,
    standard_polar_space,
    tanner_bound_elliptic_5,
    tanner_bound_hermitian_4,
)
from references import (
    bit_indices,
    collinearity_masks,
    count_kspaces_through,
    kspaces_by_int_masks,
    nucleus,
)

# (family, ambient n, field order, points, generators, gen_dim)
CASES = [
    ("Q", 4, 2, 15, 15, 1),
    ("Q", 4, 3, 40, 40, 1),
    ("Qplus", 5, 2, 35, 30, 2),
    ("Qminus", 5, 2, 27, 45, 1),
    ("Qplus", 7, 2, 135, 270, 3),
    ("H", 4, 4, 165, 297, 1),
    ("H", 5, 4, 693, 891, 2),
    ("W", 3, 2, 15, 15, 1),
    ("W", 3, 4, 85, 85, 1),
]


@pytest.mark.parametrize("family,n,order,npts,ngens,gdim", CASES)
def test_point_and_generator_counts(family, n, order, npts, ngens, gdim):
    P = get_space(family, n, order)
    assert len(P.points) == npts
    assert P.gen_dim == gdim
    assert len(P.singular_kspaces_with_supports(gdim)) == ngens


def test_family_aliases():
    assert canonical_family("Qplus") == "hyperbolic"
    assert canonical_family("hyperbolic") == "hyperbolic"
    assert canonical_family("W") == "symplectic"
    with pytest.raises(GeometryError):
        canonical_family("nope")


@pytest.mark.parametrize("family,n,order", [("Q", 4, 2), ("Qplus", 5, 3),
                                            ("H", 4, 4), ("W", 3, 2)])
def test_singular_kspaces_really_singular(family, n, order):
    P = get_space(family, n, order)
    F = P.F
    for S, sup in P.singular_kspaces_with_supports(1):
        pts = subspace_points(S, F)
        assert all(x in P.index for x in pts)
        assert sorted(P.index[x] for x in pts) == sorted(sup)
        for x in pts:
            for y in pts:
                assert P.collinear(x, y)


def test_every_point_on_equally_many_lines():
    P = get_space("Q", 4, 3)
    per_point = [0] * len(P.points)
    for _S, sup in P.singular_kspaces_with_supports(1):
        for i in sup:
            per_point[i] += 1
    assert set(per_point) == {P.q + 1}


def test_polar_image_is_an_incidence_reversing_involution():
    P = get_space("Qplus", 5, 2)
    F = P.F
    for pt in P.points[:8]:
        S = span([pt], F)
        perp = polar_image(P, S)
        assert perp.dim == P.n - 1
        assert polar_image(P, perp) == S


def test_polar_image_refused_for_even_parabolic():
    P = get_space("Q", 4, 2)
    with pytest.raises(GeometryError):
        polar_image(P, span([P.points[0]], P.F))


def test_nucleus_of_even_parabolic_quadric():
    P = get_space("Q", 4, 2)
    N = nucleus(P)
    assert N not in P.index  # the nucleus is never singular
    # the nucleus is collinear (in the polarized form) with every point
    assert all(P.form.pair(N, x) == 0 for x in P.points)


@pytest.mark.parametrize("q", [2])
def test_plane_section_classification(q):
    P = get_space("H", 5, q * q)
    F = P.F
    seen = set()
    for S, _sup in P.singular_kspaces_with_supports(2)[:3]:
        seen.add(classify_plane_section(P, S))
    assert seen == {"generator"}
    pi = span([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], F)
    assert classify_plane_section(P, pi) == "hermitian_curve"


def test_make_cone_sizes():
    # cone over an elliptic-quadric base from a singular vertex point
    P = get_space("Qminus", 5, 2)
    F = P.F
    base_amb = span([(0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                     (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)], F)
    base = [x for x in subspace_points(base_amb, F) if x in P.index]
    vertex = span([(0, 0, 1, 0, 0, 0)], F)
    # vertex lies inside the base span: size check must refuse
    with pytest.raises(GeometryError):
        make_cone(vertex, base, F)
    vertex = span([(1, 0, 0, 0, 0, 0)], F)
    cone = make_cone(vertex, base, F)
    assert len(cone) == P.q * len(base) + 1 and list(cone) == sorted(cone)


def test_count_kspaces_through_point_and_pair():
    P = get_space("Qplus", 5, 2)
    pt = P.points[0]
    assert count_kspaces_through(P, 2, pt) == 6
    # a collinear pair spans a singular line; 2 planes through each
    other = next(x for x in P.points[1:] if P.collinear(pt, x))
    assert count_kspaces_through(P, 2, (pt, other)) == 2


def test_prop_counts_match_enumeration():
    for family, n, k, ambient, order in [
        ("hyperbolic", 2, 1, 5, 2),
        ("hyperbolic", 2, 2, 5, 2),
        ("parabolic", 2, 1, 4, 3),
        ("elliptic", 2, 1, 5, 2),
        ("hermitian", 5, 2, 5, 4),
    ]:
        fam_cli = {"hyperbolic": "Qplus", "parabolic": "Q",
                   "elliptic": "Qminus", "hermitian": "H"}[family]
        P = get_space(fam_cli, ambient, order)
        M, N = prop_counts(family, n, k, P.q)
        pt = P.points[0]
        assert M == count_kspaces_through(P, k, pt)
        other = next(x for x in P.points[1:] if P.collinear(pt, x))
        assert N == count_kspaces_through(P, k, (pt, other))
        assert M == Fraction(int(M)) and N == Fraction(int(N))


# closed forms on a grid of all five families, every k <= gen_dim:
# (family, ambient n, field order, points, gen_dim, [(M, N) for each k])
CLOSED_FORMS = [
    ("hyperbolic", 3, 2, 9, 1, [(1, 1), (2, 1)]),
    ("hyperbolic", 5, 3, 130, 2, [(1, 1), (16, 1), (8, 2)]),
    ("hyperbolic", 7, 2, 135, 3, [(1, 1), (35, 1), (105, 9), (30, 6)]),
    ("hyperbolic", 9, 4, 87637, 4,
     [(1, 1), (5525, 1), (394485, 357), (469625, 1785), (11050, 170)]),
    ("parabolic", 2, 3, 4, 0, [(1, 1)]),
    ("parabolic", 4, 5, 156, 1, [(1, 1), (6, 1)]),
    ("parabolic", 6, 3, 364, 2, [(1, 1), (40, 1), (40, 4)]),
    ("parabolic", 8, 2, 255, 3, [(1, 1), (63, 1), (315, 15), (135, 15)]),
    ("elliptic", 3, 4, 17, 0, [(1, 1)]),
    ("elliptic", 5, 3, 112, 1, [(1, 1), (10, 1)]),
    ("elliptic", 7, 2, 119, 2, [(1, 1), (27, 1), (45, 5)]),
    ("elliptic", 9, 3, 9760, 3, [(1, 1), (1066, 1), (29848, 112), (22960, 280)]),
    ("hermitian", 2, 4, 9, 0, [(1, 1)]),
    ("hermitian", 3, 9, 280, 1, [(1, 1), (4, 1)]),
    ("hermitian", 4, 4, 165, 1, [(1, 1), (9, 1)]),
    ("hermitian", 5, 4, 693, 2, [(1, 1), (45, 1), (27, 3)]),
    ("hermitian", 6, 9, 199108, 2, [(1, 1), (2440, 1), (6832, 28)]),
    ("hermitian", 7, 4, 10965, 3, [(1, 1), (693, 1), (6237, 45), (891, 27)]),
    ("symplectic", 3, 2, 15, 1, [(1, 1), (3, 1)]),
    ("symplectic", 3, 7, 400, 1, [(1, 1), (8, 1)]),
    ("symplectic", 5, 2, 63, 2, [(1, 1), (15, 1), (15, 3)]),
    ("symplectic", 5, 3, 364, 2, [(1, 1), (40, 1), (40, 4)]),
    ("symplectic", 5, 4, 1365, 2, [(1, 1), (85, 1), (85, 5)]),
    ("symplectic", 7, 2, 255, 3, [(1, 1), (63, 1), (315, 15), (135, 15)]),
]


@pytest.mark.parametrize("family,n,order,npts,gdim,counts", CLOSED_FORMS)
def test_closed_forms_pinned(family, n, order, npts, gdim, counts):
    assert polar_space_order(family, n, order) == npts
    assert generator_dimension(family, n) == gdim
    # the counting parameter of PolarSpace.rank_param
    m = {"hermitian": n, "parabolic": n // 2, "symplectic": (n + 1) // 2}.get(
        family, (n - 1) // 2)
    q = isqrt(order) if family == "hermitian" else order
    got = [prop_counts(family, m, k, q) for k in range(gdim + 1)]
    assert all(type(x) is Fraction for MN in got for x in MN)
    assert got[0][1] == 1
    assert got == counts


@pytest.mark.parametrize("family,n,order,npts,gdim,counts", CLOSED_FORMS)
def test_kspace_count_is_the_count_through_a_point(family, n, order, npts, gdim,
                                                   counts):
    # kspace_count against |P| M / theta(k), M the k-spaces through a point
    P = standard_polar_space(family, n, field_of_order(order))
    for k in range(gdim + 1):
        M, _N = prop_counts(family, P.rank_param, k, P.q)
        assert P.kspace_count(k) == len(P.points) * M / theta(k, order)
    with pytest.raises(GeometryError):
        P.kspace_count(gdim + 1)


def test_bounds():
    assert bound_min_weight_dual("hyperbolic", 2, 2, 2) == 4
    assert bound_min_weight_dual("hermitian", 5, 2, 2) == 10
    assert bound_min_weight_dual("elliptic", 2, 1, 2) == tanner_bound_elliptic_5(2) == 12
    assert bound_min_weight_dual("hermitian", 4, 1, 2) == tanner_bound_hermitian_4(2) == 30
    assert tanner_bound_elliptic_5(3) == 32


def test_field_tables_refused_before_allocation():
    # Q+(1,q) has two points, but evaluating its form over GF(3163) needs
    # 3163^2 table entries, more than the points of PG(2,3163)
    with pytest.raises(ResourceError):
        get_space("Qplus", 1, 3163)


@pytest.mark.parametrize("family,n,order", [("Q", 4, 3), ("W", 3, 4), ("H", 3, 4)])
def test_adjacency_matches_pairwise_collinear(family, n, order):
    P = get_space(family, n, order)
    adj = P.adjacency()
    for i, x in enumerate(P.points):
        want = [j for j, y in enumerate(P.points) if j != i and P.collinear(x, y)]
        assert bit_indices(adj[i]) == want


@pytest.mark.parametrize("family,n,order", [
    ("Q", 4, 8), ("Q", 4, 9), ("H", 3, 9), ("W", 3, 5), ("Qminus", 5, 4), ("H", 5, 4)])
def test_adjacency_matches_form_pairs(family, n, order):
    # p = 2 with h = 3, odd p with h = 2, and the hermitian family
    P = get_space(family, n, order)
    assert P.adjacency() == collinearity_masks(P)


def test_adjacency_has_no_square_temporary():
    # the whole 1365 x 1365 collinearity array peaked at 5.7 MB
    P = standard_polar_space("Q", 6, field_of_order(4))
    tracemalloc.start()
    try:
        P.adjacency()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.7e6 / 2


@pytest.mark.parametrize("family,n,order", [
    ("Qplus", 5, 4), ("Q", 4, 8), ("H", 5, 4), ("Qplus", 5, 8)])
def test_adjacency_peak_within_charge(family, n, order, monkeypatch):
    # the pairing of the points and an N-bit int per point: the ints of the
    # 4,745 points of Q+(5,8) take 3.2 MB of its 5.2 MB peak
    P = standard_polar_space(family, n, field_of_order(order))
    charges = []
    refuse = projspace.refuse_over_budget
    monkeypatch.setattr(polarspace, "refuse_over_budget", lambda size, subject, what:
                        charges.append(size + projspace._FIXED_BYTES)
                        or refuse(size, subject, what))
    tracemalloc.start()
    try:
        P.adjacency()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(charges) == 1 and peak <= charges[0]


def test_adjacency_is_not_kept():
    P = get_space("Q", 4, 3)
    first, second = P.adjacency(), P.adjacency()
    assert first == second and first is not second


def brute_force_kspaces(P, k):
    """{subspace: support} of every span of k+1 points of P that has
    dimension k and is totally singular: all its points lie on P and are
    pairwise collinear.  Only tuples of pairwise collinear points are
    spanned, as no other tuple lies in a totally singular space."""
    pts = P.points
    coll = {(i, j) for i, j in combinations(range(len(pts)), 2)
            if P.collinear(pts[i], pts[j])}
    found = {}
    for tup in combinations(range(len(pts)), k + 1):
        if not all(pair in coll for pair in combinations(tup, 2)):
            continue
        S = span([pts[i] for i in tup], P.F)
        if S.dim != k or S in found:
            continue
        on = subspace_points(S, P.F)
        if all(x in P.index for x in on) and all(
                P.collinear(x, y) for x, y in combinations(on, 2)):
            found[S] = tuple(sorted(P.index[x] for x in on))
    return found


@pytest.mark.parametrize("family,n,order,k", [
    ("Q", 4, 2, 1), ("W", 3, 2, 1), ("Qminus", 5, 2, 1), ("H", 3, 4, 1),
    ("Qplus", 5, 2, 1), ("Qplus", 5, 2, 2), ("Q", 6, 2, 2),
    ("Qplus", 5, 3, 2), ("Q", 4, 3, 1), ("W", 3, 3, 1), ("Q", 4, 4, 1),
])
def test_kspaces_match_brute_force(family, n, order, k):
    P = get_space(family, n, order)
    spaces = P.singular_kspaces_with_supports(k)
    assert dict(spaces) == brute_force_kspaces(P, k)
    assert [sup for _S, sup in spaces] == sorted(sup for _S, sup in spaces)


GRID = ([("Q", 4, q) for q in (2, 3, 4)] + [("Qplus", 5, q) for q in (2, 3)]
        + [("Qminus", 5, q) for q in (2, 3)] + [("Q", 6, q) for q in (2, 3)]
        + [("Qplus", 7, 2), ("H", 4, 4), ("H", 5, 4)]
        + [("W", 3, q) for q in (2, 3, 4)])


@pytest.mark.parametrize("family,n,order", GRID)
def test_kspace_counts_match_closed_form(family, n, order):
    P = get_space(family, n, order)
    for k in range(P.gen_dim + 1):
        M, _N = prop_counts(P.family, P.rank_param, k, P.q)
        closed = polar_space_order(P.family, P.n, order) * M / theta(k, order)
        supports = [sup for _S, sup in P.singular_kspaces_with_supports(k)]
        assert len(supports) == closed == P.kspace_count(k)
        assert len(set(supports)) == len(supports)


# supports sha256 of the kspace-enum benchmark instances (perfbench/reference.json)
def rebuilt_pair(P, basis):
    """(Subspace, support) of the singular space with this RREF basis,
    rebuilt from the basis alone."""
    assert rref(basis, P.F) == basis
    S = Subspace(P.n, basis)
    return S, tuple(sorted(P.index[x] for x in subspace_points(S, P.F)))


# the spaces of test_closed_forms_pinned with at most 1000 points; the
# others cannot be enumerated within the k-space budget or in tier-1 time
VIEW_SPACES = [(f, n, order) for f, n, order, npts, _g, _c in CLOSED_FORMS
               if npts <= 1000]


@pytest.mark.parametrize("family,n,order", VIEW_SPACES)
def test_kspace_view_is_the_pair_list(family, n, order):
    P = get_space(family, n, order)
    for k in range(P.gen_dim + 1):
        view = P.singular_kspaces_with_supports(k)
        assert P.singular_kspaces_with_supports(k) is view
        pairs = list(view)
        assert pairs == [rebuilt_pair(P, S.basis) for S, _sup in pairs]
        supports = [sup for _S, sup in pairs]
        assert supports == sorted(set(supports))
        assert len(view) == len(pairs) == P.kspace_count(k)
        m = len(pairs)
        for i in {0, 1, m // 2, m - 1}:
            assert view[i] == pairs[i] and view[i - m] == pairs[i]
        assert view[-1] == pairs[-1]
        for a, b in [(0, m), (1, 3), (m // 3, m - 1), (-2, None), (5, 2)]:
            assert view[a:b] == pairs[a:b]
        with pytest.raises(IndexError):
            view[m]
        assert all(pair in pairs for pair in random.Random(k).sample(view, 3))


@pytest.mark.parametrize("family,n,order", VIEW_SPACES)
def test_kspace_arrays_match_int_mask_levels(family, n, order):
    P = get_space(family, n, order)
    for k in range(P.gen_dim + 1):
        view = P.singular_kspaces_with_supports(k)
        rows, supports = kspaces_by_int_masks(P, k)
        # the RREF row R_i is the point c R with c = e_i, at theta(k - 1 - i)
        at = [theta(k - 1 - i, P.F.order) for i in range(k + 1)]
        assert view.supports.dtype == supports.dtype
        assert np.array_equal(view.supports[:, at], rows)
        assert np.array_equal(view.supports, supports)


@pytest.mark.parametrize("family,n,order", [
    ("Q", 4, 8), ("Qplus", 3, 16), ("Qplus", 3, 25), ("Qplus", 3, 27)])
def test_line_arrays_match_int_mask_levels_over_larger_fields(family, n, order):
    # the digit codes over GF(8), GF(16), GF(25) and GF(27), which no
    # VIEW_SPACES space is defined over
    P = get_space(family, n, order)
    rows, supports = kspaces_by_int_masks(P, 1)
    assert np.array_equal(P.singular_kspaces_with_supports(1).supports, supports)


# sha256 of repr(list(view)), recorded when Subspace was a frozen, ordered
# dataclass of the same two fields
@pytest.mark.parametrize("family,n,order,k,sha", [
    ("Q", 4, 3, 1, "965387a67a665537c310723ed36f7690c77423a5223decb8f1bea4968146d207"),
    ("Qplus", 7, 2, 3, "e6eb2fd7243adcbb5869d7d87eb686ebe15d1a3361cb951e752b37778b8777d4"),
])
def test_subspace_keeps_the_dataclass_rules(family, n, order, k, sha):
    view = get_space(family, n, order).singular_kspaces_with_supports(k)
    pairs = list(view)
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == sha
    spaces = [S for S, _sup in pairs]
    assert all(type(S) is Subspace for S in spaces) and type(view[0][0]) is Subspace
    for S, T in zip(spaces, spaces[::-1]):
        assert repr(S) == f"Subspace(ambient={S.ambient!r}, basis={S.basis!r})"
        assert hash(S) == hash((S.ambient, S.basis))
        assert (S < T) == ((S.ambient, S.basis) < (T.ambient, T.basis))
        assert (S == T) == (S.basis == T.basis)
        R = pickle.loads(pickle.dumps(S))
        assert type(R) is Subspace and R == S and R.dim == S.dim == k
    with pytest.raises(AttributeError):
        spaces[0].basis = ()
    # unlike the dataclass, a Subspace equals the plain tuple of its fields
    assert spaces[0] == (spaces[0].ambient, spaces[0].basis)


def test_kspace_view_keeps_only_arrays():
    # the 36,400 lines of Q+(7,3): a pass over them leaves under 1 MB
    P = standard_polar_space("Qplus", 7, field_of_order(3))
    gc.collect()
    tracemalloc.start()
    try:
        for _S, _sup in P.singular_kspaces_with_supports(1):
            pass
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(P.singular_kspaces_with_supports(1)) == 36400
    assert retained < 1e6


@pytest.mark.parametrize("family,n,order,k,sha", [
    ("Q", 6, 4, 2, "23074a271d4c56165d2cb7a2250208a0c4aef58d748d0883160b03001c72f6c7"),
    ("H", 5, 4, 2, "cf52a1721c787b13e328e314b9abb76350cb154e25fe298524589644701d3b36"),
    ("Q", 8, 2, 3, "478a037b47d1fc749a41a76fef7b4c93b703165dd32227ef61f5bbdab459c7b5"),
    ("Qplus", 7, 3, 1, "b1ba5a8f3b917010b9ea9a58969799ba769e91b2ebcdb7081cecb58003f558c5"),
    # the deepest levels, as the greedy-basis enumerator before the pivot
    # rule gave them
    ("Qplus", 7, 3, 3, "e942a566b4f0ea37ad5c3a652d44a7993cf35790a6515a1fc78087964a31d5e2"),
    ("Qplus", 9, 2, 4, "d4928c2738ceca62ba4a3ac6f05eaa999600a5c72b112ff5cccc6a6d08f59779"),
])
def test_kspace_enum_supports_pinned(family, n, order, k, sha):
    P = get_space(family, n, order)
    supports = [list(sup) for _S, sup in P.singular_kspaces_with_supports(k)]
    assert hashlib.sha256(json.dumps(supports).encode()).hexdigest() == sha


# sha256 of the RREF bases of the same instances, in the same order
@pytest.mark.parametrize("family,n,order,k,sha", [
    ("Q", 6, 4, 2, "64df2a234be8a528d6a00660636074745bf60bb5b46f216d8f02e6018e8d67bd"),
    ("H", 5, 4, 2, "e4be4342e2978662b6197c711c21b1911302c6273ea4355b5a1990bedd291cc6"),
    ("Q", 8, 2, 3, "9fd31380417d49358e51ebda494725a9e9258d8a475252db84daab4e11145aca"),
    ("Qplus", 7, 3, 1, "6328957c6c4af899a6faec04c88169f0ea4d60f48ff32f378481199df3e990c2"),
    ("Qplus", 7, 3, 3, "e9c0ec29b886a98cdfedebba331071020d272eb2ddf98b637919d3548ab005ec"),
    ("Qplus", 9, 2, 4, "bcbc73e3347b2031465d755456242d771a03a279d4c73e1d7026b7aeb82a84fa"),
])
def test_kspace_enum_bases_pinned(family, n, order, k, sha):
    P = get_space(family, n, order)
    spaces = P.singular_kspaces_with_supports(k)
    bases = [[list(v) for v in S.basis] for S, _sup in spaces]
    assert hashlib.sha256(json.dumps(bases).encode()).hexdigest() == sha
    # the rows share the point tuples and the index ints: one object each
    index = {}
    for S, sup in spaces:
        assert type(S) is Subspace and S.ambient == P.n
        assert all(v is P.points[P.index[v]] for v in S.basis)
        assert all(type(i) is int and index.setdefault(i, i) is i for i in sup)


@pytest.mark.parametrize("family,n,order", [("Q", 6, 2), ("Qplus", 5, 3)])
def test_each_basis_is_an_rref_over_its_canonical_parent(family, n, order):
    P = get_space(family, n, order)
    parents = {S for S, _sup in P.singular_kspaces_with_supports(1)}
    for S, _sup in P.singular_kspaces_with_supports(2):
        assert rref(S.basis, P.F) == S.basis
        assert Subspace(P.n, S.basis[1:]) in parents


def test_enumeration_eliminates_nothing(monkeypatch):
    P = standard_polar_space("Qplus", 7, field_of_order(2))
    calls = []
    real = projspace.rref
    monkeypatch.setattr(projspace, "rref",
                        lambda *args: calls.append(args) or real(*args))
    for k in range(P.gen_dim + 1):
        P.singular_kspaces_with_supports(k)
    assert calls == []


def test_refused_before_allocating(monkeypatch):
    P = standard_polar_space("Q", 4, field_of_order(2))
    monkeypatch.setattr(projspace, "BYTE_BUDGET", 8)
    with pytest.raises(ResourceError):
        P.singular_kspaces_with_supports(1)
    assert P._kspace_cache == {}


def test_largest_level_refused_before_allocating(monkeypatch):
    # the solids of Q+(7,2) fit a budget of 8000 bytes beside the fixed
    # allowance, its planes do not
    P = standard_polar_space("Qplus", 7, field_of_order(2))
    assert P.kspace_count(3) * theta(3, 2) < 8000 < P.kspace_count(2) * theta(2, 2)
    monkeypatch.setattr(projspace, "BYTE_BUDGET",
                        8000 + 4 * projspace._BLOCK + projspace._FIXED_BYTES)
    with pytest.raises(ResourceError, match=f"^{P.kspace_count(2)} singular 2-spaces"):
        P.singular_kspaces_with_supports(3)
    assert P._kspace_cache == {}


def test_pairing_tables_charged_with_the_masks(monkeypatch):
    # level 0 holds per point a mask of ceil(N / 64) words, its intp lead
    # and level-0 row, its fresh flags and coordinates, beside the pairing
    # of the lead column with the most fresh points, 91 of them: a one-byte
    # code per element of GF(9) and nonzero row of the form for each, the
    # coordinates of the 820 points it is read against, two blocks of
    # scratch and the zeros and selection of a block of 820 x 91 one-byte
    # sums, and the intp indices of an eighth of a block of 2,880 rows.
    # For the 820 points of Q(4,9) that is 106,600 + 4,095 + 4,100 +
    # 298,480 + 262,080 bytes, more than the masks of its 820 lines
    P = standard_polar_space("Q", 4, field_of_order(9))
    N, X = len(P.points), np.array(P.points)
    lead = np.argmax(X != 0, axis=1)
    fresh = max(np.count_nonzero((lead < c) & (X[:, c] == 0)) for c in range(5))
    assert fresh == 91
    masks = 8 * -(-N // 64)
    held = N * (masks + 16 + 2 * 5)
    rows = projspace._BLOCK // fresh
    pairing = (fresh * 5 * 9 + N * 5 + fresh * min(N, rows) * (2 + 2)
               + 8 * fresh * min(N, rows // 8))
    assert P.kspace_count(1) * masks < pairing
    allowance = 4 * projspace._BLOCK + projspace._FIXED_BYTES
    monkeypatch.setattr(projspace, "BYTE_BUDGET", held + pairing - 1 + allowance)
    with pytest.raises(ResourceError, match=rf"^820 singular 0-spaces of Q\(4,9\): "
                       rf"point masks needs {held + pairing + allowance} bytes"):
        P.singular_kspaces_with_supports(1)
    assert P._kspace_cache == {}
    monkeypatch.setattr(projspace, "BYTE_BUDGET", held + pairing + allowance)
    assert len(P.singular_kspaces_with_supports(1)) == P.kspace_count(1)


@pytest.mark.parametrize("family,n,order", VIEW_SPACES)
def test_kspaces_form_no_adjacency(family, n, order, monkeypatch):
    # every level of a fresh space whose adjacency cannot be formed, against
    # the int-mask levels of the reference, which read the form values
    P = get_space(family, n, order)
    want = [kspaces_by_int_masks(P, k)[1] for k in range(P.gen_dim + 1)]
    monkeypatch.setattr(polarspace.PolarSpace, "adjacency",
                        lambda self: pytest.fail("the adjacency was formed"))
    P = standard_polar_space(family, n, field_of_order(order))
    for k, supports in enumerate(want):
        assert np.array_equal(P.singular_kspaces_with_supports(k).supports, supports)


def test_lines_of_q4_25_peak_under_45_mb():
    # the 16,276 lines of Q(4,25): beside their masks the adjacency, a list
    # of 16,926 ints of 16,926 bits formed first, made them peak at 70.7 MB
    P = standard_polar_space("Q", 4, field_of_order(25))
    tracemalloc.start()
    try:
        P.singular_kspaces_with_supports(1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 45e6


def test_output_rows_are_charged():
    # the 621,712 lines of H(5,9) fit the supports and adjacency budgets,
    # but one point mask per line does not
    P = standard_polar_space("H", 5, field_of_order(9))
    with pytest.raises(ResourceError, match="point masks"):
        P.singular_kspaces_with_supports(1)
    assert P._kspace_cache == {}


def test_space_build_refused_before_allocating(monkeypatch):
    # Q(4,9) fits the default budget; one byte under its build charge it
    # is refused before the point array of PG(4,9) is formed
    F = field_of_order(9)
    charge = get_space("Q", 4, 9)._build_bytes(820) + projspace._FIXED_BYTES
    calls = []
    monkeypatch.setattr(polarspace, "point_array",
                        lambda *args: calls.append(args) or pytest.fail())
    monkeypatch.setattr(projspace, "BYTE_BUDGET", charge - 1)
    with pytest.raises(ResourceError, match=rf"^Q\(4,9\): space build needs {charge} bytes"):
        standard_polar_space("Q", 4, F)
    assert calls == []
    monkeypatch.undo()
    monkeypatch.setattr(projspace, "BYTE_BUDGET", charge)
    assert len(standard_polar_space("Q", 4, F).points) == 820


@pytest.mark.parametrize("family,n,order", [
    ("Q", 4, 27), ("W", 3, 27), ("H", 3, 25), ("Qplus", 5, 7), ("H", 2, 529)])
def test_space_build_peak_within_charge(family, n, order, monkeypatch):
    # the point array, the form values, the point tuples and the index.
    # Q(4,27) and W(3,27) peaked at 7.3 and 3.7 MB while the tuples were
    # formed from a list per point, and H(2,529) has coordinates past the
    # small ints.  The field tables, formed once per field and not charged
    # here, are formed first
    F = field_of_order(order)
    projspace._tables(F)
    charges = []
    refuse = projspace.refuse_over_budget
    monkeypatch.setattr(polarspace, "refuse_over_budget", lambda size, subject, what:
                        charges.append(size + projspace._FIXED_BYTES)
                        or refuse(size, subject, what))
    tracemalloc.start()
    try:
        standard_polar_space(family, n, F)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(charges) == 1 and peak <= charges[0]


@pytest.mark.parametrize("family,n,order,k", [
    ("Q", 6, 4, 2), ("Qplus", 7, 3, 1), ("Q", 8, 2, 3), ("Qplus", 9, 2, 4),
    ("Q", 4, 9, 1), ("Q", 6, 3, 2), ("Qplus", 3, 31, 1), ("Q", 4, 8, 1),
    ("Qplus", 3, 127, 1), ("H", 3, 49, 1)])
def test_kspaces_peak_within_charge(family, n, order, k, monkeypatch):
    # the pairings that form the masks, the nonzero masks of a level, those
    # of the next formed beside them, and the row blocks stay within the
    # charges.  Q(4,9), Q(6,3) and Q+(3,31) peaked at 3.32, 1.50 and 3.50 MB
    # while each block of pairs was cast to intp to look up its zeros, and
    # Q(4,8) at 1.91 MB against 1.30 MB while the adjacency was formed
    # first; Q+(3,127) and H(3,49), refused while the charge counted the
    # adjacency, peak at about 35 and 38 MB
    P = standard_polar_space(family, n, field_of_order(order))
    charges = []
    refuse = projspace.refuse_over_budget
    monkeypatch.setattr(polarspace, "refuse_over_budget", lambda size, subject, what:
                        charges.append(size + projspace._FIXED_BYTES)
                        or refuse(size, subject, what))
    tracemalloc.start()
    try:
        P.singular_kspaces_with_supports(k)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(charges) == 2 and peak <= max(charges)


@pytest.mark.parametrize("family,n,order", [("Qplus", 3, 127), ("W", 3, 25), ("Qplus", 3, 181)])
def test_points_peak_within_their_charge(family, n, order, monkeypatch):
    # for k = 0 the supports are the point indices.  Forming the intp
    # coordinates, codes and lead columns as well, 8(n + 3) bytes per
    # point, the first two peaked at 1.90 and 1.88 MB against charges of
    # 1.15 MB.  The view's point tuple and index int objects are charged:
    # without them Q+(3,181) peaked at 1.91 MB against 1.18 MB
    P = standard_polar_space(family, n, field_of_order(order))
    charges = []
    refuse = projspace.refuse_over_budget
    monkeypatch.setattr(polarspace, "refuse_over_budget", lambda size, subject, what:
                        charges.append(size + projspace._FIXED_BYTES)
                        or refuse(size, subject, what))
    tracemalloc.start()
    try:
        P.singular_kspaces_with_supports(0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(charges) == 1 and peak <= charges[0]


@pytest.mark.parametrize("family,n,order", [
    ("elliptic", 0, 2), ("elliptic", 1, 3), ("parabolic", 3, 2), ("parabolic", 0, 3),
    ("hyperbolic", 4, 2), ("hyperbolic", -1, 2), ("symplectic", 4, 2),
    ("symplectic", 6, 3), ("hermitian", 0, 4),
])
def test_closed_forms_refuse_what_has_no_polar_space(family, n, order):
    with pytest.raises(GeometryError):
        polar_space_order(family, n, order)
    with pytest.raises(GeometryError):
        generator_dimension(family, n)
    with pytest.raises(GeometryError):
        standard_polar_space(family, n, field_of_order(order))


# sha256 of repr of the list of standard matrices of a family, n ascending and
# then the order, over every n <= 11 and order in (2, 3, 4, 5, 7, 8, 9) at which
# the family had a standard form before the forms were built from one rule of a
# head and hyperbolic pairs; the symplectic family then had only PG(3,q)
STANDARD_FORMS = {
    "hyperbolic": (range(1, 12, 2),
                   "0e43733ff65956d1b4e17bdf2eee5b93f00e367fd0437fa2a8cf78be61658408"),
    "parabolic": (range(2, 11, 2),
                  "05f225c456026ac0d35caf89e90acef5c65506aec9c44c892fb288a5a8e1b05c"),
    "elliptic": (range(3, 12, 2),
                 "402e8a8c0cc56caba932f1d694dd6bc9a4fbb470d2f059de8e130074dab02418"),
    "hermitian": (range(1, 12),
                  "c51022485e8977a100b812003932fa8eba8814e804df9ecafe86617a4e04df05"),
    "symplectic": ((3,),
                   "de6cafb57004fc2a6f77d5ab41b8235efcffa5970f6469230a698140fcdd4942"),
}


@pytest.mark.parametrize("family", sorted(STANDARD_FORMS))
def test_standard_forms_pinned(family):
    ns, sha = STANDARD_FORMS[family]
    orders = (4, 9) if family == "hermitian" else (2, 3, 4, 5, 7, 8, 9)
    forms = [polarspace._standard_matrix(family, n, field_of_order(q))
             for n in ns for q in orders]
    assert hashlib.sha256(repr(forms).encode()).hexdigest() == sha
    for n in ns:
        generator_dimension(family, n)  # each is still admitted


@pytest.mark.parametrize("q", [2, 3, 4])
def test_symplectic_line_is_a_rank_one_space(q):
    P = standard_polar_space("W", 1, field_of_order(q))
    assert (len(P.points), P.gen_dim) == (q + 1, 0)


def test_count_off_the_closed_form_is_an_error(monkeypatch):
    P = standard_polar_space("Q", 4, field_of_order(2))
    monkeypatch.setattr(polarspace, "_singular_count", lambda *args: Fraction(4))
    with pytest.raises(GeometryError):
        P.singular_kspaces_with_supports(1)
    assert P._kspace_cache == {}


def test_every_level_below_k_is_checked(monkeypatch):
    # only the line count is off; the planes are the generators
    P = standard_polar_space("Qplus", 5, field_of_order(2))
    count = P.kspace_count
    monkeypatch.setattr(P, "kspace_count", lambda k: count(k) + (k == 1))
    with pytest.raises(GeometryError, match="singular 1-spaces"):
        P.singular_kspaces_with_supports(P.gen_dim)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_degenerate_forms_are_refused(q):
    F = field_of_order(q)

    def form(family, n, zeroed):
        m = [list(row) for row in polarspace._standard_matrix(family, n, F)]
        for i, j in zeroed:
            m[i][j] = 0
        return polarspace.FormSpec(family, n, F, tuple(map(tuple, m)))

    # every point of PG(3,q) is singular for an alternating form, so W(3,q)
    # with a hyperbolic pair zeroed has the point count of W(3,q)
    with pytest.raises(GeometryError, match="^degenerate form$"):
        polarspace.PolarSpace(form("symplectic", 3, [(2, 3), (3, 2)]))
    # x0^2 + x1x2 in PG(4,q) is a cone with a line as vertex over a conic:
    # (q+1) + (q+1)q^2 points, as many as Q(4,q) has
    with pytest.raises(GeometryError, match="^singular quadric$"):
        polarspace.PolarSpace(form("parabolic", 4, [(3, 4)]))

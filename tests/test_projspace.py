import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarlab import projspace
from polarlab.gf import MAX_DEGREE, MAX_ORDER, field_of_order, is_prime
from polarlab.polarspace import FormSpec, _standard_matrix, get_space, standard_polar_space
from polarlab.projspace import (
    GeometryError,
    Pairing,
    ResourceError,
    _hyperplane_pairing,
    _tables,
    combine,
    digit_sums,
    enumerate_lines,
    enumerate_points,
    form_values,
    hyperplane_sums,
    normalize_point,
    nullspace,
    point_array,
    scaled_codes,
    span,
    subspace_points,
    theta,
)
from references import annihilator, contains_point, intersect


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 4)])
def test_point_counts(n, q):
    F = field_of_order(q)
    pts = enumerate_points(n, F)
    assert len(pts) == theta(n, q)
    assert len(set(pts)) == len(pts)
    for p in pts:
        assert normalize_point(p, F) == p
    assert pts == tuple(sorted(pts))


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_point_array_is_the_sorted_enumeration(n, q):
    F = field_of_order(q)
    pts = sorted((0,) * lead + (1,) + tail for lead in range(n + 1)
                 for tail in product(range(q), repeat=n - lead))
    A = point_array(n, F)
    assert A.dtype == np.uint8 and A.tolist() == [list(p) for p in pts]
    assert enumerate_points(n, F) == tuple(pts)


def test_space_built_without_the_point_tuples(monkeypatch):
    monkeypatch.setattr(projspace, "enumerate_points", lambda *args: pytest.fail())
    P = standard_polar_space("Q", 4, field_of_order(5))
    P.singular_kspaces_with_supports(1)
    assert len(P.points) == theta(3, 5)


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (3, 3)])
def test_line_counts(n, q):
    F = field_of_order(q)
    lines = enumerate_lines(n, F)
    expected = theta(n, q) * (theta(n, q) - 1) // ((q + 1) * q)
    assert len(lines) == expected
    for L in lines[:20]:
        assert len(subspace_points(L, F)) == q + 1


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_lines_match_brute_force(n, q):
    # reference: the span of every pair of points, duplicates removed
    F = field_of_order(q)
    pts = enumerate_points(n, F)
    spans = {span([x, y], F) for i, x in enumerate(pts) for y in pts[i + 1:]}
    assert enumerate_lines(n, F) == tuple(sorted(spans))


@given(st.sampled_from([2, 3, 4]), st.data())
@settings(max_examples=40, deadline=None)
def test_normalize_scaling_invariance(q, data):
    F = field_of_order(q)
    vec = tuple(data.draw(st.integers(0, q - 1)) for _ in range(4))
    if all(v == 0 for v in vec):
        return
    s = data.draw(st.integers(1, q - 1))
    scaled = tuple(F.mul(s, v) for v in vec)
    assert normalize_point(vec, F) == normalize_point(scaled, F)


def test_span_rref_is_canonical():
    F = field_of_order(2)
    A = span([(1, 0, 0, 0), (0, 1, 0, 0)], F)
    B = span([(1, 1, 0, 0), (0, 1, 0, 0)], F)
    assert A == B
    assert A.dim == 1


def test_span_of_dependent_vectors():
    F = field_of_order(3)
    S = span([(1, 2, 0), (2, 1, 0)], F)
    assert S.dim == 0


def test_intersect_and_annihilator():
    F = field_of_order(2)
    pi1 = span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], F)
    pi2 = span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)], F)
    meet = intersect(pi1, pi2, F)
    assert meet == span([(1, 0, 0, 0), (0, 1, 0, 0)], F)
    ann = annihilator(pi1, F)
    assert len(ann) == 1 and ann[0] == (0, 0, 0, 1)
    skew1 = span([(1, 0, 0, 0), (0, 1, 0, 0)], F)
    skew2 = span([(0, 0, 1, 0), (0, 0, 0, 1)], F)
    assert intersect(skew1, skew2, F) is None


def test_nullspace_dimensions():
    F = field_of_order(2)
    rows = ((1, 0, 1, 0), (0, 1, 0, 1))
    ns = nullspace(rows, 4, F)
    assert len(ns) == 2


@pytest.mark.parametrize("q", [2, 3])
def test_hyperplane_incidence_counts(q):
    F = field_of_order(q)
    pts = enumerate_points(2, F)
    # every line of PG(2,q) has q+1 points; every point lies on q+1 lines
    assert hyperplane_sums(pts, [1] * len(pts), 2, F).tolist() == [q + 1] * len(pts)
    assert all(hyperplane_sums([x], [1], 2, F).sum() == q + 1 for x in pts)


def test_hyperplane_sums_peak_over_all_points():
    # the 4,369 points of PG(3,16), 60 a block, tables formed here included:
    # their point x hyperplane incidence matrix peaked at 21.75 MB
    F = field_of_order(16)
    pts = enumerate_points(3, F)
    _tables(F)
    _hyperplane_pairing.cache_clear()
    tracemalloc.start()
    try:
        sums = hyperplane_sums(pts, [1] * len(pts), 3, F)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sums.tolist() == [theta(2, 16)] * len(pts)
    assert peak < 8_000_000


def test_hyperplane_tables_refused_before_allocating():
    # 6 x 16 x 1,118,481 uint16 codes, 214.7 MB, would be kept for PG(5,16)
    F = field_of_order(16)
    _tables(F)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError,
                           match=r"^PG\(5,16\): hyperplane tables needs 279685786 bytes"):
            hyperplane_sums([(1, 0, 0, 0, 0, 0)], [1], 5, F)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n,q", [(4, 8), (3, 16)])
def test_hyperplane_sums_peak_within_charge(n, q, monkeypatch):
    # the sums over every point of PG(n,q), the tables formed in the call:
    # with the summed codes, their copy and the masked codes formed afresh
    # for each block, both peaked 2.77 MB above the tables
    F = field_of_order(q)
    pts = enumerate_points(n, F)
    _tables(F)
    _hyperplane_pairing.cache_clear()
    charges = []
    refuse = projspace.refuse_over_budget
    monkeypatch.setattr(projspace, "refuse_over_budget", lambda size, subject, what:
                        charges.append(size + projspace._FIXED_BYTES)
                        or refuse(size, subject, what))
    tracemalloc.start()
    try:
        sums = hyperplane_sums(pts, [1] * len(pts), n, F)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _hyperplane_pairing.cache_clear()
    assert sums.tolist() == [theta(n - 1, q)] * len(pts)
    assert len(charges) == 1 and peak <= charges[0]


def test_warm_hyperplane_sums_allocate_no_block():
    # 27 points of PG(4,8) and weights 1 to 3: the pairing keeps the block
    # of summed codes and its scratch, so a second call allocates no array
    # of their size.  Formed afresh, they made each such call fault in
    # fresh pages once numpy's temporaries had fallen below glibc's mmap
    # threshold
    F = field_of_order(8)
    pts = random.Random(8).sample(enumerate_points(4, F), 27)
    weights = [1 + i % 3 for i in range(27)]
    first = hyperplane_sums(pts, weights, 4, F)
    block = 27 * theta(4, 8) * _hyperplane_pairing(4, F).rows[0].itemsize
    tracemalloc.start()
    try:
        again = hyperplane_sums(pts, weights, 4, F)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, first)
    assert peak < block


@pytest.mark.parametrize("n,q", [(4, 16), (3, 27), (6, 3)])
def test_hyperplane_tables_peak_within_charge(n, q, monkeypatch):
    # PG(4,16) keeps 11.2 MB of tables and is admitted.  __wrapped__ keeps
    # the tables out of the cache
    F = field_of_order(q)
    _tables(F)
    charges = []
    refuse = projspace.refuse_over_budget
    monkeypatch.setattr(projspace, "refuse_over_budget", lambda size, subject, what:
                        charges.append(size + projspace._FIXED_BYTES)
                        or refuse(size, subject, what))
    tracemalloc.start()
    try:
        pairing = _hyperplane_pairing.__wrapped__(n, F)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(charges) == 1 and peak <= charges[0]
    assert len(pairing.rows) == n + 1 and pairing.rows[0].shape == (q, theta(n, q))


def test_subspace_points_of_full_space():
    F = field_of_order(2)
    S = span([(1, 0, 0), (0, 1, 0), (0, 0, 1)], F)
    assert set(subspace_points(S, F)) == set(enumerate_points(2, F))


def _random_subspace(n, d, F, rng):
    """A subspace of PG(n,q) of dimension d spanned by random vectors."""
    while True:
        S = span([[rng.randrange(F.order) for _ in range(n + 1)]
                  for _ in range(d + 1)], F)
        if S.dim == d:
            return S


@pytest.mark.parametrize("n,q", [(4, q) for q in (2, 3, 4, 5, 7, 8, 9)]
                         + [(3, q) for q in (16, 25, 27)])
def test_subspace_points_match_brute_force(n, q):
    # reference: the points of PG(n,q) that the subspace contains, in the
    # global order; compared as lists, so the order is checked too
    F = field_of_order(q)
    rng = random.Random(q)
    pts = enumerate_points(n, F)
    for d in range(n + 1):
        S = _random_subspace(n, d, F, rng)
        want = [x for x in pts if contains_point(S, x, F)]
        assert subspace_points(S, F) == want, S


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_combine_matches_scalar_reference(q):
    # coefficients (a, 1, m) against rows (b, m, w): the leading axes
    # broadcast to (a, b); all-(q-1) entries give the largest table indices
    F = field_of_order(q)
    rng = random.Random(q)
    m, w = 4, 5
    C = [[q - 1] * m, [1] + [0] * (m - 1)] + [
        [rng.randrange(q) for _ in range(m)] for _ in range(4)]
    B = [[[q - 1] * w] * m] + [
        [[rng.randrange(q) for _ in range(w)] for _ in range(m)] for _ in range(2)]
    got = combine(np.array(C)[:, None], B, F)
    assert got.shape == (len(C), len(B), w)
    for c, row in zip(C, got.tolist()):
        for R, v in zip(B, row):
            want = [0] * w
            for ci, r in zip(c, R):
                want = [F.add(x, F.mul(ci, y)) for x, y in zip(want, r)]
            assert v == want


def _code_width(n, p, h):
    """Bits of the code of a vector of PG(n, p^h): (n + 1) h digits of
    1 + ceil(log2 p) bits."""
    return (n + 1) * h * (1 + (p - 1).bit_length())


def test_point_codes_fit_a_word():
    # every field and dimension that k-spaces are enumerated in: n >= 3
    # (no polar space below has a line) and theta(n,q) within POINT_CAP
    width = {}
    for p in filter(is_prime, range(2, MAX_ORDER + 1)):
        for h in range(1, MAX_DEGREE + 1):
            n = 3
            while p ** h <= MAX_ORDER and theta(n, p ** h) <= projspace.POINT_CAP:
                width[p ** h, n] = _code_width(n, p, h)
                n += 1
    assert max(width.values()) == width[4, 11] == 48 <= 64


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_point_codes_ascend_in_point_order(q):
    F = field_of_order(q)
    X = point_array(3 if q > 3 else 5, F)
    codes = scaled_codes(X, F)
    assert codes.shape == (q, len(X)) and codes.dtype == np.uint64
    assert (np.diff(codes[1].astype(object)) > 0).all()
    # the vector of q - 1s, every digit p - 1, sets each digit's bit below
    # its top bit, which only a sum of two digits may set
    top = scaled_codes(np.full((1, X.shape[1]), q - 1), F)[1, 0]
    assert int(top).bit_length() == _code_width(X.shape[1] - 1, F.p, F.h) - 1
    # row c holds the codes of the vectors c x
    for c in range(q):
        cX = combine([[c]], X[:, None], F)
        assert np.array_equal(codes[c], scaled_codes(cX, F)[1])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 25, 27, 121])
def test_digit_sums_match_combine(q):
    # any vectors, not only points, and up to four terms: the vector of
    # q - 1s, all digits p - 1, taken once per term makes every digit of
    # each sum reach 2(p - 1) before it is reduced
    F = field_of_order(q)
    rng = np.random.default_rng(q)
    X = np.vstack([np.full((1, 6), q - 1), rng.integers(q, size=(40, 6))])
    codes = scaled_codes(X, F)
    for m in range(1, 5):
        C = np.vstack([np.ones((1, m), dtype=int), rng.integers(q, size=(7, m))])
        rows = np.vstack([np.zeros((1, m), dtype=int), rng.integers(len(X), size=(30, m))])
        V = combine(C, X[rows][:, None], F)
        want = scaled_codes(V.reshape(-1, 6), F)[1].reshape(len(rows), len(C))
        assert np.array_equal(digit_sums(C, rows, codes, F), want)


def test_bad_dimension_errors():
    F = field_of_order(2)
    with pytest.raises(GeometryError):
        span([], F)


def _form_reference(x, y, M, F, conj):
    """Sum of M[i][j] x_i y_j^s with FieldSpec scalar operations."""
    acc = 0
    for i, row in enumerate(M):
        for j, m in enumerate(row):
            t = F.conj(y[j]) if conj else y[j]
            acc = F.add(acc, F.mul(m, F.mul(x[i], t)))
    return acc


@pytest.mark.parametrize("family,n,order", [
    (fam, n, q) for q in (2, 3, 4)
    for fam, n in (("Qplus", 3), ("Q", 4), ("Qminus", 3), ("W", 3))
] + [("H", 3, 4), ("H", 2, 9)])
def test_form_values_match_scalar_reference(family, n, order):
    form = get_space(family, n, order).form
    F = form.field
    conj = form.family == "hermitian"
    # every vector of a small sample, zero and non-normalized ones included
    vecs = [v for v in product(F.elements(), repeat=n + 1)][::7]
    X = np.array(vecs)
    for M in (form.matrix, form.bilinear_matrix):
        got = form_values(X[:, None], X[None], M, F, conj)
        assert got.shape == (len(vecs), len(vecs))
        want = [[_form_reference(x, y, M, F, conj) for y in vecs] for x in vecs]
        assert got.tolist() == want
    assert form.evaluate(X).tolist() == [
        _form_reference(x, x, form.matrix, F, conj) for x in vecs]


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27])
def test_field_tables_match_scalar_operations(q):
    F = field_of_order(q)
    mul, add, conj = _tables(F)
    assert mul.dtype == add.dtype == np.uint8
    assert mul.tolist() == [[F.mul(a, b) for b in range(q)] for a in range(q)]
    assert add.tolist() == [[F.add(a, b) for b in range(q)] for a in range(q)]
    if F.has_conjugation:
        assert conj.tolist() == [F.conj(a) for a in range(q)]
    else:
        assert conj is None


@pytest.mark.parametrize("q", [241, 1009])
def test_field_tables_peak_within_charge(q, monkeypatch):
    # by tracemalloc about 10 and 12 bytes per entry: GF(1009) peaks at
    # 12.23 MB.  __wrapped__ keeps the tables out of the cache
    charges = []
    refuse = projspace.refuse_over_budget
    monkeypatch.setattr(projspace, "refuse_over_budget", lambda size, subject, what:
                        charges.append(size + projspace._FIXED_BYTES)
                        or refuse(size, subject, what))
    F = field_of_order(q)
    tracemalloc.start()
    try:
        _tables.__wrapped__(F)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(charges) == 1 and peak <= charges[0]


def test_field_tables_over_budget_refused_before_allocating():
    # 2999^2 entries at about 12 bytes each would peak near 108 MB
    F = field_of_order(2999)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError,
                           match=r"^GF\(2999\): field tables needs 125981550 bytes"):
            _tables.__wrapped__(F)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def _standard_forms(width, F):
    """The standard forms of every family that lives in PG(width-1, q)."""
    n = width - 1
    families = ["hyperbolic", "elliptic", "symplectic"] if n % 2 else ["parabolic"]
    families += ["hermitian"] * F.has_conjugation
    return [FormSpec(fam, n, F, _standard_matrix(fam, n, F)) for fam in families]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_pairing_matches_scalar_reference(q):
    # zero, all-ones and all-(q-1) vectors and random non-normalized ones;
    # against the all-ones matrix every term of the all-(q-1) pair has the
    # largest digits, so a digit carry or a dtype wrap would show there
    F = field_of_order(q)
    rng = random.Random(q)
    for width in range(2, 9):
        vecs = [(0,) * width, (1,) * width, (q - 1,) * width] + [
            tuple(rng.randrange(q) for _ in range(width)) for _ in range(9)]
        X, Y = vecs[:8], vecs[:3] + vecs[8:]
        ones = ((1,) * width,) * width
        dense = tuple(tuple(rng.randrange(q) for _ in range(width))
                      for _ in range(width))
        cases = [(ones, False), (dense, False)]
        for form in _standard_forms(width, F):
            conj = form.family == "hermitian"
            cases += [(form.matrix, conj), (form.bilinear_matrix, conj)]
        if F.has_conjugation:
            cases += [(ones, True), (dense, True)]
        for M, conj in cases:
            got = np.concatenate([Z for _lo, Z in Pairing(Y, M, F, conj).blocks(X)])
            want = [[_form_reference(x, y, M, F, conj) == 0 for y in Y] for x in X]
            assert got.tolist() == want, (width, M, conj)


@pytest.mark.parametrize("q", [4, 9])
def test_pairing_scratch_serves_calls_of_any_length(q, monkeypatch):
    # one pairing read over 5 rows, then over 37 in blocks of 16 (for odd
    # p, sub-blocks of 2) and over 5 again: each call grows or reuses the
    # scratch the earlier ones left, and every yielded block is a new array
    # that later blocks leave as it was
    monkeypatch.setattr(projspace, "_BLOCK", 16 * 11)
    F = field_of_order(q)
    form = get_space("W", 3, q).form
    rng = random.Random(q)
    Y = [tuple(rng.randrange(q) for _ in range(4)) for _ in range(11)]
    pairing = Pairing(Y, form.bilinear_matrix, F)
    for rows in (5, 37, 5):
        X = [tuple(rng.randrange(q) for _ in range(4)) for _ in range(rows)]
        blocks = [(lo, Z, Z.copy()) for lo, Z in pairing.blocks(X)]
        assert [lo for lo, _Z, _C in blocks] == list(range(0, rows, len(blocks[0][1])))
        assert all(np.array_equal(Z, C) for _lo, Z, C in blocks)
        got = np.concatenate([Z for _lo, Z, _C in blocks])
        want = [[_form_reference(x, y, form.bilinear_matrix, F, False) == 0 for y in Y]
                for x in X]
        assert got.tolist() == want


def test_pairing_blocks_cover_every_row():
    form = get_space("Q", 6, 3).form
    Y = np.array(enumerate_points(6, form.field))
    X = Y[:300]
    blocks = list(Pairing(Y, form.bilinear_matrix, form.field).blocks(X))
    assert len(blocks) > 1
    assert all(Z.size <= 1 << 18 for _lo, Z in blocks)
    assert [lo for lo, _Z in blocks] == list(range(0, len(X), len(blocks[0][1])))
    got = np.concatenate([Z for _lo, Z in blocks])
    assert (got == (form.pair(X[:, None], Y[None]) == 0)).all()

import hashlib
import json
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from references import (
    dense,
    export_alist_by_line,
    is_dual_codeword_by_row,
    rref_gf2_by_column,
)

from polarlab import gfcode, projspace
from polarlab.gf import field_of_order
from polarlab.polarspace import bound_min_weight_dual, get_space, standard_polar_space
from polarlab.projspace import ResourceError, hyperplane_sums
from polarlab.gfcode import (
    CodeError,
    CodewordVec,
    IncidenceMatrix,
    PARTIAL_SUPPORT_BOUND,
    ScanRefused,
    _block,
    _fill,
    _nonzero_mask,
    _planes,
    _popcount_histogram,
    _rref_gf2,
    _rref_mod_p,
    _scan_partial,
    _tail_size,
    _words,
    build_incidence,
    codeword_payload,
    export_alist,
    export_json,
    geometry_payload,
    is_dual_codeword,
    rank_and_nullspace,
    scan_dual_weights,
)


def test_incidence_shape_and_row_weights():
    P = get_space("Q", 4, 2)
    A = build_incidence(P, 1)
    assert A.n_cols == 15 and len(A.supports) == 15
    M = dense(A)
    assert M.shape == (15, 15)
    assert all(M[i].sum() == 3 for i in range(15))


def test_incidence_is_cached():
    P = get_space("Q", 4, 2)
    assert build_incidence(P, 1) is build_incidence(P, 1)


@pytest.mark.parametrize("family,n,q,k", [("Q", 4, 2, 1), ("Qplus", 5, 2, 2),
                                          ("H", 4, 4, 1)])
def test_incidence_is_the_kspace_support_array(family, n, q, k):
    P = get_space(family, n, q)
    A = build_incidence(P, k)
    assert A.supports is P.singular_kspaces_with_supports(k).supports
    assert not A.supports.flags.writeable
    with pytest.raises(ValueError):
        A.supports[0, 0] = 0


@pytest.mark.parametrize("col", [15, 20, -1])
def test_codeword_columns_outside_the_code_refused(col):
    with pytest.raises(CodeError):
        CodewordVec({col: 1}, 15, 2)
    with pytest.raises(CodeError):
        CodewordVec({0: 1, col: 0}, 15, 2)


def test_codewords_of_different_fields_or_widths_do_not_mix():
    A = build_incidence(get_space("Q", 4, 2), 1)
    with pytest.raises(CodeError, match="incompatible codeword vectors"):
        CodewordVec({0: 1}, 15, 2) + CodewordVec({0: 1}, 15, 3)
    for word in (CodewordVec({0: 1}, 14, 2), CodewordVec({0: 1}, 15, 3)):
        with pytest.raises(CodeError, match="dimension or field mismatch"):
            is_dual_codeword(word, A)


@given(st.lists(st.tuples(st.integers(0, 14), st.integers(1, 1)),
                min_size=0, max_size=8, unique_by=lambda t: t[0]))
def test_codeword_arithmetic_gf2(items):
    a = CodewordVec(dict(items), 15, 2)
    z = a + a
    assert z.weight == 0  # char 2: everything cancels
    assert (a + CodewordVec({}, 15, 2)).support == a.support


def test_codeword_mod_p_cleanup():
    c = CodewordVec({0: 3, 1: 2, 2: 4}, 10, 3)
    assert c.support == {1: 2, 2: 1}
    assert c.weight == 2


def test_dual_membership_witness():
    P = get_space("Q", 4, 2)
    A = build_incidence(P, 1)
    ok, row = is_dual_codeword(CodewordVec({0: 1}, 15, 2), A)
    assert not ok and row is not None
    zero = CodewordVec({}, 15, 2)
    assert is_dual_codeword(zero, A) == (True, None)


# Q(4,p) k=1 for p = 2, 3, 5: 15, 40 and 156 lines
DUAL_CHECK_SPACES = {p: build_incidence(get_space("Q", 4, p), 1)
                     for p in (2, 3, 5)}


@st.composite
def _words_to_check(draw):
    """A code of Q(4,p) and a word: a combination of the rows of its D,
    so a dual word, or a random word, almost never one."""
    p = draw(st.sampled_from(sorted(DUAL_CHECK_SPACES)))
    A = DUAL_CHECK_SPACES[p]
    if draw(st.booleans()):
        D = rank_and_nullspace(A)[1].astype(np.int64)
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(D),
                               max_size=len(D)))
        word = np.array(coeffs, dtype=np.int64) @ D % p
        return A, CodewordVec(dict(enumerate(word.tolist())), A.n_cols, p)
    support = draw(st.dictionaries(st.integers(0, A.n_cols - 1),
                                   st.integers(1, p - 1), max_size=12))
    return A, CodewordVec(support, A.n_cols, p)


@settings(deadline=None)
@given(_words_to_check())
@example((DUAL_CHECK_SPACES[5], CodewordVec({}, 156, 5)))
@example((DUAL_CHECK_SPACES[3], CodewordVec({39: 2}, 40, 3)))
def test_dual_check_matches_row_reference(Ac):
    A, c = Ac
    assert is_dual_codeword(c, A) == is_dual_codeword_by_row(c, A)


def test_rank_and_nullspace_q42():
    P = get_space("Q", 4, 2)
    A = build_incidence(P, 1)
    rank, D = rank_and_nullspace(A)
    assert rank == 10 and D.shape == (5, 15)
    _assert_dual_generator(A, D)
    for row in D:
        word = CodewordVec(dict(enumerate(row.tolist())), 15, 2)
        assert is_dual_codeword(word, A) == (True, None)


def test_full_scan_q42():
    P = get_space("Q", 4, 2)
    A = build_incidence(P, 1)
    rep = scan_dual_weights(A)
    assert rep["mode"] == "FULL"
    assert rep["weights"] == {0: 1, 6: 10, 8: 15, 10: 6}


def test_scan_odd_characteristic():
    # points vs lines of PG(2,3), mod 3: nullity small enough to scan
    from polarlab.gf import field_of_order
    from polarlab.projspace import enumerate_lines, enumerate_points
    from polarlab.gfcode import IncidenceMatrix

    F = field_of_order(3)
    idx = {x: i for i, x in enumerate(enumerate_points(2, F))}
    from polarlab.projspace import subspace_points
    supports = np.array([sorted(idx[x] for x in subspace_points(L, F))
                         for L in enumerate_lines(2, F)])
    A = IncidenceMatrix(supports, 13, 3)
    rep = scan_dual_weights(A)
    assert rep["mode"] == "FULL"
    assert rep["rank"] + rep["nullity"] == 13
    weights = rep["weights"]
    assert sum(weights.values()) == 3 ** rep["nullity"]
    assert weights[0] == 1
    # nonzero codewords come in scalar-multiple pairs over GF(3)
    assert all(m % 2 == 0 for w, m in weights.items() if w)


def test_scan_refusal_and_partial():
    P = get_space("H", 5, 4)
    A = build_incidence(P, 2)
    with pytest.raises(ScanRefused):
        scan_dual_weights(A)
    _rank, D = rank_and_nullspace(A)
    counts = _scan_partial(D, 2, 1)
    assert counts.sum() == len(D) + 1


def test_alist_export(tmp_path):
    P = get_space("Q", 4, 2)
    A = build_incidence(P, 1)
    path = tmp_path / "q42.alist"
    sha1 = export_alist(A, str(path))
    sha2 = export_alist(A, str(path))
    assert sha1 == sha2  # deterministic bytes
    lines = path.read_text().splitlines()
    assert lines[0] == "15 15"
    assert lines[1] == "3 3"


def _assert_alist_matches_reference(A, tmp_path):
    sha = export_alist(A, str(tmp_path / "new.alist"))
    want = export_alist_by_line(A, str(tmp_path / "ref.alist"))
    assert (tmp_path / "new.alist").read_bytes() == \
        (tmp_path / "ref.alist").read_bytes()
    assert sha == want


@st.composite
def _irregular_incidences(draw):
    """Binary incidences with rows of one width but uneven column degrees,
    supports in any order, duplicate rows and one column, `empty`, of
    degree 0."""
    n_cols = draw(st.integers(1, 30))
    empty = draw(st.integers(0, n_cols - 1))
    others = [c for c in range(n_cols) if c != empty]
    width = draw(st.integers(0, len(others)))
    row = st.permutations(others).map(lambda cols: cols[:width])
    supports = draw(st.lists(row, max_size=25))
    if supports:
        supports += draw(st.lists(st.sampled_from(supports), max_size=3))
    supports = np.array(supports, dtype=np.intp).reshape(len(supports), width)
    return IncidenceMatrix(supports, n_cols, 2)


@settings(deadline=None)
@given(_irregular_incidences())
@example(IncidenceMatrix(np.zeros((0, 3), dtype=np.intp), 3, 2))
@example(IncidenceMatrix(np.zeros((2, 0), dtype=np.intp), 2, 2))
@example(IncidenceMatrix(np.array([[11, 0, 4], [4, 9, 0], [11, 0, 4]]), 12, 2))
def test_alist_matches_line_reference(tmp_path_factory, A):
    assert 0 in np.bincount(A.supports.ravel(), minlength=A.n_cols)
    _assert_alist_matches_reference(A, tmp_path_factory.mktemp("alist"))


def test_json_roundtrip(tmp_path):
    P = get_space("Q", 4, 2)
    path = tmp_path / "geom.json"
    sha1 = export_json(geometry_payload(P, 1), str(path))
    payload = json.loads(path.read_text())
    assert payload["schema"] == "polar-code-lab/v1"
    path2 = tmp_path / "geom2.json"
    sha2 = export_json(payload, str(path2))
    assert sha1 == sha2 and path.read_bytes() == path2.read_bytes()


def test_codeword_payload_roundtrip(tmp_path):
    c = CodewordVec({3: 1, 7: 1}, 15, 2)
    payload = codeword_payload(c, {"note": "test"})
    path = tmp_path / "cw.json"
    export_json(payload, str(path))
    back = json.loads(path.read_text())
    assert back["schema"] == "polar-code-lab/v1"
    assert back["meta"] == {"note": "test"}
    cw = back["codeword"]
    assert {col: s for col, s in cw["support"]} == c.support
    assert cw["n_cols"] == c.n_cols and cw["p"] == c.p


def _assert_dual_generator(A, D):
    """D is the systematic generator of the dual of A: the identity at the
    non-pivot columns of A, and A D^T = 0 over GF(p)."""
    free = np.setdiff1d(np.arange(A.n_cols), _rref(dense(A), A.p)[1])
    assert D.shape == (free.size, A.n_cols)
    assert (D[:, free] == np.eye(free.size)).all()
    assert not (dense(A).astype(np.int64) @ D.T % A.p).any()


def _reference_rref(rows, p):
    """Reduced row echelon form over GF(p) with Python ints, one entry at
    a time: (nonzero rows, pivot columns)."""
    mat = [[x % p for x in r] for r in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def _rref(A, p):
    if p == 2:
        return _rref_gf2(_words(A % 2), A.shape[1])
    return _rref_mod_p((A % p).astype(np.min_scalar_type(-(p - 1) ** 2)), p)


def _incidence(A, p):
    """The rows of A as supports of one width, that of the widest row: the
    nonzero columns of each row, then its first zero columns."""
    width = int(np.count_nonzero(A, axis=1).max(initial=0))
    nonzero_first = np.argsort(A == 0, axis=1, kind="stable")
    return IncidenceMatrix(nonzero_first[:, :width], A.shape[1], p)


@st.composite
def _matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(1, 70))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                            max_size=rows * cols))
    return p, np.array(entries, dtype=np.int64).reshape(rows, cols)


def _seeded_matrix(p, rows, cols, rank, seed):
    """A sparse product of rank at most `rank`: pivots are seldom in their
    own row, so rows must be swapped, and some rows reduce to zero."""
    rng = np.random.default_rng(seed)
    B = rng.integers(0, p, size=(rows, rank)) * (rng.random((rows, rank)) < 0.05)
    return p, B @ rng.integers(0, p, size=(rank, cols)) % p


def _with_blocks(seed):
    """Random GF(2) rows whose column block 8..15 is zero, so it has no
    pivot, and whose block 16..23 holds an identity, so all eight of its
    columns are pivots."""
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, size=(40, 70))
    A[:, 8:16] = 0
    A[:8, :24] = 0
    A[:8, 16:24] = np.eye(8, dtype=np.int64)
    return 2, A


def _all_bytes(seed):
    """512 random GF(2) rows whose first byte runs through each of the 256
    values twice."""
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, size=(512, 24))
    A[:, :8] = np.unpackbits(np.arange(512).astype(np.uint8)[:, None],
                             axis=1, bitorder="little")
    return 2, A


@settings(deadline=None)  # the seeded examples take up to a second each
@given(_matrices())
@example(_seeded_matrix(2, 200, 150, 150, 1))  # tall: three words per row
@example(_seeded_matrix(2, 140, 260, 90, 2))   # wide, rank <= 90
@example(_seeded_matrix(3, 90, 140, 60, 3))
@example(_seeded_matrix(2, 100, 65, 65, 4))    # one column past a word
@example(_seeded_matrix(2, 90, 129, 60, 5))
@example(_seeded_matrix(2, 150, 135, 150, 6))  # 135: not a multiple of 8
@example(_with_blocks(7))
@example(_all_bytes(8))
@example((2, np.zeros((0, 20), dtype=np.int64)))
@example((2, np.ones((5, 1), dtype=np.int64)))
def test_rref_matches_scalar_reference(pA):
    p, A = pA
    M, pivots = _rref(A, p)
    want_rows, want_pivots = _reference_rref(A.tolist(), p)
    assert pivots == want_pivots
    assert M.tolist() == want_rows
    assert len(_rref(A.T, p)[1]) == len(pivots)  # rank(A) = rank(A^T)
    # the rows of A as an incidence code: a basis of its dual
    I = _incidence(A, p)
    rank, D = rank_and_nullspace(I)
    assert rank == len(_reference_rref(dense(I).tolist(), p)[1])
    assert rank + len(D) == A.shape[1]
    _assert_dual_generator(I, D)


def _tall_incidence(p, seed):
    """200 rows of 7 columns out of 14, so more than 3 * 14 // 2 + 64 = 85
    and eliminated in rounds, with supports in any order.  Each many times:
    the 11 cyclic shifts of columns 0..6 within 0..10, of determinant 7,
    so they span columns 0..10 over GF(2), GF(3) and GF(5), and two rows
    through 12 and 13, so those make one pivot and one free column.  In the
    row that the stride order takes last, the only 1 of column 11, outside
    the span of all the others and so past the first round."""
    rng = np.random.default_rng(seed)
    r = 200
    base = np.concatenate([(np.arange(11)[:, None] + np.arange(7)) % 11,
                           [[12, 13, 0, 1, 2, 3, 4], [12, 13, 5, 6, 7, 8, 9]]])
    supports = rng.permuted(base[rng.permutation(r) % len(base)], axis=1)
    supports[gfcode._stride_order(r)[-1]] = [*range(6), 11]
    return IncidenceMatrix(supports, 14, p)


@pytest.mark.parametrize("p,seed", [(2, 1), (2, 2), (3, 3), (3, 4), (5, 5)])
def test_rounds_match_scalar_reference(p, seed, monkeypatch):
    A = _tall_incidence(p, seed)
    rounds = []
    for name in ("_rref_gf2", "_rref_mod_p"):
        rref = getattr(gfcode, name)
        monkeypatch.setattr(gfcode, name, lambda M, x, rref=rref:
                            rounds.append(len(M)) or rref(M, x))
    rank, D = rank_and_nullspace(A)
    assert len(rounds) >= 2 and rounds[0] == 3 * 14 // 2 + 64
    want_rows, pivots = _reference_rref(dense(A).tolist(), p)
    free = [c for c in range(A.n_cols) if c not in pivots]
    want = np.zeros((len(free), A.n_cols), dtype=np.int64)
    want[:, pivots] = (-np.array(want_rows, dtype=np.int64)[:, free].T) % p
    want[np.arange(len(free)), free] = 1
    assert rank == len(pivots) and 11 in pivots
    assert D.dtype == (np.uint8 if p == 2 else np.int8)
    assert D.tolist() == want.tolist()


# the sha256 of D.tobytes() for codes eliminated in rounds, with rank,
# shape and dtype, as the elimination of every row gave them: Q(6,4) k=1
# takes two rounds, the others one
TALL_CODES = [
    ("H", 5, 4, 1, 615, (78, 693), "uint8",
     "7895c6466d14117282965e890a7bfa3045f27d30de7e7ffad46bb4c89bbfa8fe"),
    ("Q", 6, 3, 1, 337, (27, 364), "int8",
     "5e81d2a990ee718ffda3e8bdfe1bf85dbb3277613809bf207ce14f1972f2d54d"),
    ("Q", 6, 4, 1, 1260, (105, 1365), "uint8",
     "c7e79b6099b23f09513119f3818dc9f964d4469025349f533544fe4e21b4be72"),
    ("Qplus", 9, 2, 2, 473, (54, 527), "uint8",
     "7bc5c5aa02774a5dd23cb9c8864d6debbe9164408b53df76f4439d7a625d192a"),
]


@pytest.mark.parametrize("family,n,q,k,rank,shape,dtype,sha", TALL_CODES,
                         ids=["-".join(map(str, c[:4])) for c in TALL_CODES])
def test_tall_codes_pinned(family, n, q, k, rank, shape, dtype, sha):
    got_rank, D = rank_and_nullspace(build_incidence(get_space(family, n, q), k))
    assert (got_rank, D.shape, D.dtype.name) == (rank, shape, dtype)
    assert hashlib.sha256(D.tobytes()).hexdigest() == sha


# (family, n, q, k, bytes of the arrays charged before the elimination,
# bytes of those charged before the first D, rows of D); each charge adds
# projspace._FIXED_BYTES to its arrays.  The first four take one round, since
# they have at most 3n/2 + 64 rows.  Q(4,2) k=1: 15 rows of one word; its
# peak is a pass, holding a copy of them with an index, a table of 256
# rows and twice at most 15 pivot rows.  Then 10 reduced rows of 15
# bytes, D of 5 uint8 rows, two 10 x 5 arrays of their free columns and
# 32 bytes of indices per column.  Q+(5,2) k=2: 30 rows of one word; its
# peak is a pass too, with at most 30 pivot rows.  Q(4,3) k=1: 40 x 40
# int8 symbols, and per pivot two arrays as large and four indices into
# the 40 rows; D is formed in int8 beside a copy of the 25 reduced rows.
# H(5,4) k=2: 891 rows of 11 words; its peak is their end, at most 693
# pivot rows packed and unpacked.  Then 251 reduced rows and D of 442 rows
# outweigh the elimination.  Q+(7,2) k=1: 1575 lines of 3 points on 135
# columns, more than 3 * 135 // 2 + 64 = 266, so it runs in rounds: a
# round holds 266 lines beside at most 134 reduced rows, 400 rows of 3
# words, and its peak is their fill: a flat index and a byte for each of
# 266 x 3 ones, the start of each of the 266 rows, the 134 reduced rows
# unpacked and packed by bytes, the stride order of the 1575 rows and the
# round's 266 x 3 supports of one byte.  Then 127 reduced rows and D of 8
# rows beside the check of the other 1309 lines: D^T in one word and in
# one byte per column, a column byte and a word for each of at most
# 266 x 3 ones, 8 + 1 bytes for each of 266 rows of a block and 17 bytes
# for each of the 1575 rows.
CHARGES = [("Q", 4, 2, 1, 15 * 8 + 15 * 8 + 15 * 8 + 256 * 8 + 2 * 15 * 8,
            10 * 15 + 5 * 15 + 32 * 15 + 2 * 10 * 5, 5),
           ("Qplus", 5, 2, 2, 30 * 8 + 30 * 8 + 30 * 8 + 256 * 8 + 2 * 30 * 8,
            15 * 35 + 20 * 35 + 32 * 35 + 2 * 15 * 20, 20),
           ("Q", 4, 3, 1, 3 * 40 * 40 + 32 * 40,
            25 * 40 + 15 * 40 + 32 * 40 + 2 * 25 * 15, 15),
           ("H", 5, 4, 2, 891 * 88 + 693 * 88 + 693 * 693,
            251 * 693 + 442 * 693 + 32 * 693 + 2 * 251 * 442, 442),
           ("Qplus", 7, 2, 1, 400 * 24 + (8 + 1) * 266 * 3 + 8 * 266
            + 134 * 135 + 134 * 17 + 8 * 1575 + 266 * 3,
            127 * 135 + 8 * 135 + 135 * (8 + 1) + 266 * 3 * (1 + 8)
            + 266 * (8 + 1) + 17 * 1575, 8)]


def test_elimination_refused_before_allocating():
    for family, n, q, k, arrays, d_arrays, d_rows in CHARGES:
        charge = arrays + projspace._FIXED_BYTES
        d_charge = d_arrays + projspace._FIXED_BYTES
        A = build_incidence(get_space(family, n, q), k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(projspace, "BYTE_BUDGET", charge - 1)
            mp.setattr(gfcode, "_fill", lambda *a: pytest.fail())
            with pytest.raises(ResourceError,
                               match=f"elimination needs {charge} bytes"):
                rank_and_nullspace(A)
            with pytest.raises(ResourceError):
                scan_dual_weights(A)
        if d_charge > charge:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(projspace, "BYTE_BUDGET", charge)
                with pytest.raises(ResourceError, match=f"dual generator "
                                   f"needs {d_charge} bytes"):
                    rank_and_nullspace(A)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(projspace, "BYTE_BUDGET", max(charge, d_charge))
            rank, D = rank_and_nullspace(A)
        assert D.shape == (d_rows, A.n_cols) and rank + d_rows == A.n_cols


def test_refusal_messages_pinned(monkeypatch):
    # every refusal comes from projspace.refuse_over_budget.  The lines of
    # W(3,27) are over the budget at level 1, where a mask per point, the
    # point arrays and a mask per line are charged
    P = standard_polar_space("W", 3, field_of_order(27))
    with pytest.raises(ResourceError) as refused:
        P.singular_kspaces_with_supports(1)
    assert str(refused.value) == ("20440 singular 1-spaces of W(3,27): point "
                                  "masks needs 106257472 bytes, over the budget of 80000000")
    with pytest.raises(ResourceError) as refused:
        rank_and_nullspace(build_incidence(standard_polar_space(
            "Qminus", 3, field_of_order(61)), 0))
    assert str(refused.value) == ("3722x3722 incidence matrix: elimination needs "
                                  "83304344 bytes, over the budget of 80000000")
    # the budget of the elimination of H(5,4) k=2 of CHARGES
    monkeypatch.setattr(projspace, "BYTE_BUDGET", 685177)
    with pytest.raises(ResourceError) as refused:
        rank_and_nullspace(build_incidence(get_space("H", 5, 4), 2))
    assert str(refused.value) == ("891x693 incidence matrix: dual generator needs "
                                  "789845 bytes, over the budget of 685177")


# codes whose arrays outweigh the fixed costs of the elimination, all of
# them eliminated in rounds: over GF(2) the peak is the check of the rows
# that the first round leaves (5,134 lines of H(5,4), 117,721 planes of
# Q+(9,2)) or a pass over the first of two rounds of Q(6,4), over GF(3) a
# pivot step of the round of int8 rows of Q(6,3).  Then two small codes
# whose peaks exceeded their arrays' charges by 697 bytes (the 40 x 40
# int8 rows of Q(4,3)) and by 37,662 bytes (the 2,295 solids of Q(8,2)),
# which the fixed allowance covers
@pytest.mark.parametrize("family,n,q,k", [("H", 5, 4, 1), ("Q", 6, 4, 1),
                                          ("Q", 6, 3, 1), ("Qplus", 9, 2, 2),
                                          ("Q", 4, 3, 1), ("Q", 8, 2, 3)])
def test_elimination_peak_within_charge(family, n, q, k, monkeypatch):
    A = build_incidence(get_space(family, n, q), k)
    charges = []
    refuse = projspace.refuse_over_budget
    monkeypatch.setattr(gfcode, "refuse_over_budget", lambda size, subject, what:
                        charges.append(size + projspace._FIXED_BYTES)
                        or refuse(size, subject, what))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rank_and_nullspace(A)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # one charge before the elimination, then one for each round
    assert len(charges) >= 2 and peak <= max(charges)


def test_scan_keeps_numpy_ma_unloaded():
    # Q+(7,2) k=1 is eliminated in rounds, on a sample of its rows
    code = ("import sys\n"
            "from polarlab.gfcode import build_incidence, scan_dual_weights\n"
            "from polarlab.polarspace import get_space\n"
            "scan_dual_weights(build_incidence(get_space('Q', 4, 2), 1))\n"
            "scan_dual_weights(build_incidence(get_space('Qplus', 7, 2), 1))\n"
            "print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "False False\n"


def test_kspace_enumeration_keeps_numpy_ma_unloaded():
    # np.unique, for one, loads numpy.ma on its first call (8.9 ms in a
    # fresh process).  k = 1, 2 and 3 over GF(2) and GF(3) and k = 1 and 2
    # over GF(4): no space over GF(4) has solids within the budget
    code = ("import sys\n"
            "from polarlab.polarspace import get_space\n"
            "for family, n, q, top in [('Qplus', 7, 2, 3), ('Qplus', 7, 3, 3),\n"
            "                          ('H', 5, 4, 2), ('Qplus', 5, 4, 2)]:\n"
            "    for k in range(1, top + 1):\n"
            "        get_space(family, n, q).singular_kspaces_with_supports(k)\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def _brute_force_weights(D, p):
    """Weights of all p^nullity combinations of the rows of D, by digits,
    2^16 combinations at a time."""
    k, weights = len(D), Counter()
    for lo in range(0, p ** k, 1 << 16):
        x = np.arange(lo, min(lo + (1 << 16), p ** k), dtype=np.int64)
        words = x[:, None] // p ** np.arange(k) % p @ D % p
        weights.update(np.count_nonzero(words, axis=1).tolist())
    return weights


@settings(max_examples=40)
@given(_matrices())
def test_small_scans_match_brute_force(pA):
    p, A = pA
    A = A[:, :7]
    I = _incidence(A, p)
    rep = scan_dual_weights(I)
    _rank, D = rank_and_nullspace(I)
    assert rep["mode"] == "FULL"
    assert rep["weights"] == _brute_force_weights(D, p)


def _reference_partial_weights(D, p, bound):
    """Weights of the zero word and of every combination of at most
    `bound` rows of D with nonzero coefficients, one word at a time."""
    weights = Counter({0: 1})
    for size in range(1, bound + 1):
        for idxs in combinations(range(len(D)), size):
            for coeffs in product(range(1, p), repeat=size):
                word = sum(c * D[i] for i, c in zip(idxs, coeffs)) % p
                weights[int(np.count_nonzero(word))] += 1
    return weights


@settings(max_examples=40, deadline=None)
@given(_matrices(), st.integers(1, 3))
def test_partial_scans_match_scalar_reference(pA, bound):
    p, A = pA
    I = _incidence(A[:, :12], p)
    _rank, D = rank_and_nullspace(I)
    counts = _scan_partial(D, p, bound)
    weights = Counter({w: int(m) for w, m in enumerate(counts) if m})
    assert weights == _reference_partial_weights(D, p, bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gfcode, "FULL_SCAN_BITS", 0)
        rep = scan_dual_weights(I, allow_partial=True)
    assert rep["mode"] == ("FULL" if len(D) == 0 else "PARTIAL")
    if len(D):
        assert rep["weights"] == _reference_partial_weights(
            D, p, PARTIAL_SUPPORT_BOUND)


@pytest.mark.parametrize("p,rows,cols,seed", [
    (2, 2, 20, 1),   # nullity 18: three heads beside the block
    (2, 50, 67, 1),  # nullity 17, two words per mask
    (3, 1, 13, 2),   # nullity 12, two head vectors and a scalar factor 2
    (5, 1, 9, 3),    # nullity 8, a smaller tail, scalar factor 4
    (5, 61, 68, 4),  # nullity 7, two words per mask
    (7, 1, 7, 5),    # nullity 6, a tail of 4 rows and 8 heads
    (3, 55, 66, 6),  # nullity 11, two words per plane, one head
])
def test_scans_with_a_head_match_brute_force(p, rows, cols, seed):
    # rows of cols // 2 random columns
    rng = np.random.default_rng(seed)
    columns = rng.permuted(np.tile(np.arange(cols), (rows, 1)), axis=1)
    I = IncidenceMatrix(columns[:, :cols // 2], cols, p)
    rep = scan_dual_weights(I)
    _rank, D = rank_and_nullspace(I)
    # a scan block holds at most 2^16 words, so the head loop runs
    assert p ** rep["nullity"] > 1 << 16
    assert rep["weights"] == _brute_force_weights(D, p)
    if p > 2:
        assert all(m % (p - 1) == 0 for w, m in rep["weights"].items() if w)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 150), st.integers(0, 2 ** 32 - 1))
@example(2, 64, 0)
@example(3, 100, 1)
@example(7, 129, 2)
def test_plane_kernels_match_residues(p, n, seed):
    # words u and h over GF(p) of n columns, and the rows D of a block
    rng = np.random.default_rng(seed)
    u, h = rng.integers(0, p, size=(2, 9, n))
    Pu = _planes(u, p).swapaxes(0, 1)  # (p - 1, 9, words)
    assert Pu.shape == (p - 1, 9, -(-n // 64))
    out, tmp = np.empty((2,) + Pu.shape[1:], dtype=np.uint64)
    mask = _nonzero_mask(Pu, _planes(-h % p, p).swapaxes(0, 1), out, tmp)
    assert (mask == _words((u + h) % p != 0)).all()
    assert (np.bitwise_count(mask).sum(axis=1)
            == np.count_nonzero((u + h) % p, axis=1)).all()
    # word x of the block: the digits of x times the rows of D, each row b
    # adding u + c*b for every c and every earlier word u
    t = 3 if p < 7 else 2
    D = rng.integers(0, p, size=(t, n))
    block = _block(D, p, np.empty((p ** t, -(-n // 64)), dtype=np.uint64))
    words = np.arange(p ** t)[:, None] // p ** np.arange(t) % p @ D % p
    for v in range(1, p):
        assert (block[v - 1] == _words(words == v)).all()


@pytest.mark.parametrize("n", [1, 64, 255, 256, 300, 1000])
def test_popcount_histogram_counts_past_255(n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, size=(50, n)).astype(bool)
    bits[0], bits[1] = True, False
    counts = np.zeros(n + 1, dtype=np.intp)
    add = _popcount_histogram(60, n)
    add(counts, _words(bits))
    add(counts, _words(bits[:7]))  # fewer rows than the buffers hold
    want = np.bincount(bits.sum(axis=1), minlength=n + 1)
    want += np.bincount(bits[:7].sum(axis=1), minlength=n + 1)
    assert counts[n] >= 2 and (counts == want).all()


# word_bytes: one word of a scan block, p - 1 residue planes of uint64 words
@pytest.mark.parametrize("p,n_cols,word_bytes", [
    (2, 35, 8), (2, 3, 8), (2, 67, 16), (3, 40, 16), (5, 9, 32),
    (7, 5, 48)])
def test_scan_blocks_are_no_larger_than_int16_blocks(p, n_cols, word_bytes):
    for nullity in range(12):
        t0 = max(t for t in range(nullity + 1) if p ** t <= 1 << 16)
        t = _tail_size(p, nullity, n_cols)
        assert t <= t0
        assert t == 0 or p ** t * word_bytes <= p ** t0 * 2 * n_cols
        assert t == t0 or p ** (t + 1) * word_bytes > p ** t0 * 2 * n_cols


# rank, nullity and distribution of the codes of scripts/scan_small_codes.py
# as that script prints them; None where the full scan is refused
SCAN_LADDER = [
    ("Q", 4, 2, 1, 10, 5, "0:1, 6:10, 8:15, 10:6"),
    ("W", 3, 2, 1, 10, 5, "0:1, 6:10, 8:15, 10:6"),
    ("Qplus", 5, 2, 1, 29, 6, "0:1, 16:35, 20:28"),
    ("Qplus", 5, 2, 2, 15, 20,
     "0:1, 6:280, 8:735, 10:11648, 12:52290, 14:140360, 16:244895, "
     "18:282240, 20:195916, 22:89320, 24:26145, 26:4480, 28:210, 30:56"),
    ("Qminus", 5, 2, 1, 21, 6, "0:1, 12:36, 16:27"),
    ("Qplus", 7, 2, 1, 127, 8, "0:1, 64:135, 72:120"),
    ("Qplus", 7, 2, 2, 100, 35, None),
    ("Qplus", 7, 2, 3, 51, 84, None),
    ("H", 4, 4, 1, 120, 45, None),
    ("H", 5, 4, 1, 615, 78, None),
    ("H", 5, 4, 2, 251, 442, None),
    ("Q", 4, 3, 1, 25, 15,
     "0:1, 10:432, 12:540, 15:3600, 16:21870, 18:39360, 19:155520, "
     "21:305280, 22:1062720, 24:1228320, 25:3242592, 27:1982240, "
     "28:3602880, 30:1017648, 31:1296000, 33:193680, 34:174960, "
     "36:11580, 37:8640, 39:720, 40:324"),
]


BINARY_LADDER = [c[:4] for c in SCAN_LADDER if c[2] % 2 == 0]


def _packed(A):
    """All rows of a binary A as one round packs them."""
    return _fill(A.supports, np.zeros((0, A.n_cols), dtype=np.uint8), 2)


@pytest.mark.parametrize("family,n,order,k", BINARY_LADDER)
def test_binary_ladder_rref_pinned(family, n, order, k):
    A = build_incidence(get_space(family, n, order), k)
    assert (_packed(A) == _words(dense(A))).all()
    M, pivots = _rref_gf2(_packed(A), A.n_cols)
    want_M, want_pivots = rref_gf2_by_column(_packed(A), A.n_cols)
    assert pivots == want_pivots
    assert M.dtype == want_M.dtype and (M == want_M).all()


@pytest.mark.parametrize("family,n,order,k", BINARY_LADDER)
def test_binary_ladder_alist_matches_line_reference(family, n, order, k,
                                                     tmp_path):
    A = build_incidence(get_space(family, n, order), k)
    _assert_alist_matches_reference(A, tmp_path)


@pytest.mark.parametrize("family,n,order,k,rank,nullity,dist", SCAN_LADDER)
def test_scan_ladder_pinned(family, n, order, k, rank, nullity, dist):
    A = build_incidence(get_space(family, n, order), k)
    if dist is None:
        with pytest.raises(ScanRefused, match=f"nullity {nullity} over"):
            scan_dual_weights(A)
        got_rank, D = rank_and_nullspace(A)
        assert (got_rank, D.shape) == (rank, (nullity, A.n_cols))
        _assert_dual_generator(A, D)
        return
    rep = scan_dual_weights(A)
    w = rep["weights"]
    assert (rep["mode"], rep["rank"], rep["nullity"]) == ("FULL", rank, nullity)
    assert ", ".join(f"{x}:{w[x]}" for x in sorted(w)) == dist


def _sastry_sin_rank(q):
    """1 + s_{2e} for q = 2^e, with s_0 = 2, s_1 = 1 and
    s_m = s_{m-1} + 4 s_{m-2}: the 2-rank of the point-line incidence of
    W(3,q) (N. S. N. Sastry and P. Sin), equal to that of Q(4,q)."""
    s = [2, 1]
    while len(s) <= 2 * (q.bit_length() - 1):
        s.append(s[-1] + 4 * s[-2])
    return 1 + s[2 * (q.bit_length() - 1)]


@pytest.mark.parametrize("family,n", [("W", 3), ("Q", 4)])
@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_two_rank_is_sastry_sin(family, n, q):
    A = build_incidence(get_space(family, n, q), 1)
    rank, D = rank_and_nullspace(A)
    assert rank == _sastry_sin_rank(q) == {2: 10, 4: 50, 8: 298, 16: 1890}[q]
    assert D.shape == (A.n_cols - rank, A.n_cols) and D.dtype == np.uint8


# W(2n-1,q) and Q(2n,q) for even q are one polar space in two embeddings, so
# the codes of their points and k-spaces have the same rank and bound at every
# k, and the same dual distribution; {k: rank}, and the k = 1 distribution
@pytest.mark.parametrize("n,q,ranks,dist", [
    (5, 2, {0: 63, 1: 56, 2: 36}, {0: 1, 28: 36, 32: 63, 36: 28}),
    (7, 2, {0: 255, 1: 246, 2: 211, 3: 135}, {0: 1, 120: 136, 128: 255, 136: 120}),
    (5, 4, {1: 1260, 2: 666}, None),
])
def test_symplectic_codes_are_those_of_the_parabolic_quadric(n, q, ranks, dist):
    W, Q = get_space("W", n, q), get_space("Q", n + 1, q)
    for k, rank in ranks.items():
        A, B = build_incidence(W, k), build_incidence(Q, k)
        assert len(A.supports) == len(B.supports) and A.n_cols == B.n_cols
        assert rank_and_nullspace(A)[0] == rank_and_nullspace(B)[0] == rank
        assert (bound_min_weight_dual("symplectic", W.rank_param, k, q)
                == bound_min_weight_dual("parabolic", Q.rank_param, k, q))
    if dist:
        rep = scan_dual_weights(build_incidence(W, 1))
        assert rep == scan_dual_weights(build_incidence(Q, 1))
        assert (rep["mode"], rep["nullity"]) == ("FULL", n + 2)
        assert rep["weights"] == dist


@pytest.mark.parametrize("k,rows,rank", [(1, 3640, 343), (2, 1120, 196)])
def test_symplectic_w53_codes_pinned(k, rows, rank):
    A = build_incidence(get_space("W", 5, 3), k)
    got, D = rank_and_nullspace(A)
    assert (len(A.supports), A.n_cols, got, len(D)) == (rows, 364, rank, 364 - rank)
    _assert_dual_generator(A, D)


# over GF(2) a line meets a hyperplane in one point or lies in it, so the points
# off a hyperplane meet every line evenly: a dual word of the line code.  For
# these quadrics the dual has nullity n + 1, so the functionals x -> h.x span
# it, and its words are the complements of the hyperplane sections, the maximum
# ones those of the smallest sections
@pytest.mark.parametrize("family,n", [
    ("Q", 4), ("Qplus", 5), ("Qminus", 5), ("Q", 6), ("Qplus", 7), ("Qminus", 7),
    ("Q", 8), ("Qplus", 9), ("Qminus", 9), ("Q", 10)])
def test_binary_quadric_line_duals_are_hyperplane_complements(family, n):
    P = get_space(family, n, 2)
    N = len(P.points)
    sections = hyperplane_sums(P.points, [1] * N, n, P.F)
    rep = scan_dual_weights(build_incidence(P, 1))
    assert (rep["mode"], rep["rank"], rep["nullity"]) == ("FULL", N - (n + 1), n + 1)
    assert rep["weights"] == Counter((N - sections).tolist()) + Counter({0: 1})

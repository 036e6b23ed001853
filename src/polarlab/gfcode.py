"""GF(p) linear algebra for point versus k-space incidence codes.

The code of a polar space is spanned by the rows of its point/k-space
incidence matrix A over the prime field.  A is held as the support array
of the k-spaces itself, read-only and shared with the polar space: one
row of theta_k point indices per k-space, so every reader indexes it
with numpy.  The dual is the right nullspace, passed around as one
systematic generator array D (nullity x n_cols) in the dtype of the
eliminated rows.  These matrices are tall, so the
elimination reduces a sample of the rows and certifies each of the others
by its syndrome against D, taking those outside the span into a further
round (Las Vegas rank by row compression, after Cheung, Kwok and Lau,
J. ACM 60, 2013).  The elimination and each D are refused before they
allocate when over the byte budget of `projspace`.  The same syndrome check, against a single word as D,
decides `is_dual_codeword`.  Weight scans enumerate the span of D
exhaustively when the nullity is small enough and otherwise refuse, or,
when asked, count the words of at most a few rows of D, whose extreme
weights are then only bounds.
`CodewordVec` is the sparse form of single words: constructions,
witnesses and `--out` payloads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product
from math import gcd

import numpy as np

from .polarspace import PolarSpace
from .projspace import _words, refuse_over_budget

# a full scan enumerates at most 2^FULL_SCAN_BITS dual words
FULL_SCAN_BITS = 24
# a PARTIAL scan counts the words of at most this many dual generator rows
PARTIAL_SUPPORT_BOUND = 3

JSON_SCHEMA = "polar-code-lab/v1"


class CodeError(ValueError):
    pass


class ScanRefused(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """0/1 incidence of polar-space points (columns) vs k-spaces (rows):
    row i is 1 at the columns supports[i], an integer array with one row
    per k-space and as many distinct column indices in each."""
    supports: np.ndarray
    n_cols: int
    p: int

    @property
    def n_rows(self) -> int:
        return len(self.supports)


@dataclass
class CodewordVec:
    """Sparse vector over GF(p): column index -> nonzero symbol."""
    support: dict[int, int]
    n_cols: int
    p: int

    def __post_init__(self):
        if not all(0 <= c < self.n_cols for c in self.support):
            raise CodeError(f"a codeword column outside 0..{self.n_cols - 1}")
        self.support = {c: s % self.p for c, s in self.support.items()
                        if s % self.p}

    @property
    def weight(self) -> int:
        return len(self.support)

    def __add__(self, other: "CodewordVec") -> "CodewordVec":
        if (self.n_cols, self.p) != (other.n_cols, other.p):
            raise CodeError("incompatible codeword vectors")
        out = dict(self.support)
        for c, s in other.support.items():
            t = (out.get(c, 0) + s) % self.p
            if t:
                out[c] = t
            else:
                out.pop(c, None)
        return CodewordVec(out, self.n_cols, self.p)


@lru_cache(maxsize=None)
def build_incidence(P: PolarSpace, k: int) -> IncidenceMatrix:
    """The incidence of the points and singular k-spaces of P, its rows
    the k-spaces' support array itself, read-only, in support order."""
    return IncidenceMatrix(P.singular_kspaces_with_supports(k).supports,
                           len(P.points), P.F.p)


def is_dual_codeword(c: CodewordVec, A: IncidenceMatrix):
    """(True, None) or (False, index of the first violating row): the
    syndrome of each row of A against c as a one-row D."""
    if c.n_cols != A.n_cols or c.p != A.p:
        raise CodeError("codeword/matrix dimension or field mismatch")
    word = np.zeros((1, A.n_cols), dtype=np.min_scalar_type(A.p - 1))
    word[0, list(c.support)] = list(c.support.values())
    bad = np.flatnonzero(_outside_span(A, np.arange(A.n_rows), word))
    return (False, int(bad[0])) if bad.size else (True, None)


def _fill(supports: np.ndarray, R: np.ndarray, p: int) -> np.ndarray:
    """The rows of one round of elimination: the reduced rows R, then the
    rows with these supports, set straight from their flat indices.  Over
    GF(2) they are packed into uint64 words as `_words` packs them, each 1
    ORed into its byte, otherwise held in the dtype of R."""
    m, n = len(R) + len(supports), R.shape[1]
    at = supports.astype(np.intp)  # in place from here on
    if p != 2:
        out = np.zeros((m, n), dtype=R.dtype)
        out[:len(R)] = R
        at += np.arange(len(R) * n, m * n, n)[:, None]
        out.reshape(-1)[at] = 1
        return out
    w = -(-n // 64) * 8  # bytes per packed row
    out = np.zeros((m, w), dtype=np.uint8)
    out[:len(R), :(n + 7) // 8] = np.packbits(R, axis=1, bitorder="little")
    bits = at.astype(np.uint8)  # one byte per 1
    bits &= 7
    np.left_shift(1, bits, out=bits)
    at >>= 3
    at += np.arange(len(R) * w, m * w, w)[:, None]
    np.bitwise_or.at(out.reshape(-1), at, bits)
    return out.view("<u8")


def _stride_order(r: int) -> np.ndarray:
    """0..r-1 as i*s mod r, s the integer nearest 0.618 r that is prime to
    r: rows taken in this order land far apart, as the golden-ratio points
    do, so a round's sample is spread over rows that `build_incidence` lists
    by support."""
    s = round(0.6180339887498949 * r)
    while gcd(s, r) != 1:
        s += 1
    order = np.arange(r)
    order *= s
    order %= r
    return order


def _outside_span(A: IncidenceMatrix, rows: np.ndarray, D: np.ndarray) -> np.ndarray:
    """For each of the rows `rows` of A, whether it lies outside the span of
    the rows whose dual generator is D, that is, whether its syndrome, the
    sum of the rows of D^T over its support, is nonzero (over a field the
    span of a set of rows is the dual of their nullspace).  Over GF(2) the
    rows of D^T are packed into words and summed by XOR, otherwise they are
    summed in a dtype that holds p - 1 times the width of a row of A.  The
    rows go `_round_size` at a time."""
    p, block = A.p, _round_size(A.n_cols)
    if p == 2:
        DT, add = _words(D.T), np.bitwise_xor
    else:
        width = A.supports.shape[1]
        DT, add = D.T.astype(np.min_scalar_type(width * (p - 1))), np.add
    out = np.zeros(len(rows), dtype=bool)
    for b in range(0, len(rows), block):
        syndromes = add.reduce(DT[A.supports[rows[b:b + block]]], axis=1,
                               dtype=DT.dtype)
        if p != 2:
            syndromes %= p
        out[b:b + block] = syndromes.any(axis=1)
    return out


def _byte_basis(S: np.ndarray):
    """A basis in RREF of the span of the bytes S of the rows, bit j being
    column j: (pivot bits, ascending; for each basis byte, the rows whose
    XOR it is)."""
    rep = np.zeros(256, dtype=np.intp)
    rep[S] = np.arange(len(S))  # a row holding each byte value
    present = np.bincount(S, minlength=256)
    present[0] = 0
    basis = []  # [byte, its lowest bit, its rows as a set]
    for v in np.flatnonzero(present).tolist():
        comb = {int(rep[v])}
        for b in basis:
            if v & b[1]:
                v ^= b[0]
                comb ^= b[2]
        if v:
            low = v & -v
            for b in basis:
                if b[0] & low:
                    b[0] ^= v
                    b[2] = b[2] ^ comb
            basis.append([v, low, comb])
            if len(basis) == 8:
                break
    basis.sort(key=lambda b: b[1])
    return [b[1] for b in basis], [sorted(b[2]) for b in basis]


def _rref_gf2(M: np.ndarray, n: int):
    """Row reduction over GF(2) of n columns packed into uint64 words M
    (consumed): (reduced nonzero rows as uint8, pivot columns).  Each
    pass eliminates one byte of columns, as the table step of the Method
    of Four Russians does: the new pivot rows of that byte and the 2^m
    XOR table T of them are formed once, and every row, the earlier
    pivot rows too, is cleared with one lookup T[lut[its byte]]."""
    W = M.shape[1]
    R = np.zeros((0, W), dtype=M.dtype)  # the pivot rows so far
    pivots = []
    values = np.arange(256)
    for byte in range((n + 7) // 8):
        bits, combs = _byte_basis(M.view(np.uint8)[:, byte])
        if not bits:
            continue
        w0 = byte >> 3  # the rows of M are zero before this word
        T = np.zeros((1, W - w0), dtype=M.dtype)
        for comb in combs:
            T = np.concatenate([T, T ^ np.bitwise_xor.reduce(M[comb, w0:])])
        # the row of T with the same bits as a byte at the pivots
        lut = sum((values & b != 0) << j for j, b in enumerate(bits))
        for rows in (M, R):
            rows[:, w0:] ^= T[lut[rows.view(np.uint8)[:, byte]]]
        new = np.zeros((len(bits), W), dtype=M.dtype)
        new[:, w0:] = T[1 << np.arange(len(bits))]
        R = np.concatenate([R, new])
        pivots += [8 * byte + b.bit_length() - 1 for b in bits]
    return np.unpackbits(R.view(np.uint8), axis=1, count=n,
                         bitorder="little"), pivots


def _rref_mod_p(M: np.ndarray, p: int):
    """Row reduction over odd GF(p) of M (consumed), with entries in
    0..p-1 on a signed dtype that holds -(p-1)^2: (a copy of the reduced
    nonzero rows, pivot columns).  Each pivot updates all rows it hits in
    one numpy step on a copy of the rows it hits, from column c of the
    pivot on: the pivot row is zero left of c."""
    pivots = []
    for c in range(M.shape[1]):
        r = len(pivots)
        nz = np.flatnonzero(M[r:, c])
        if not nz.size:
            continue
        M[[r, r + nz[0]]] = M[[r + nz[0], r]]
        M[r, c:] = M[r, c:] * pow(int(M[r, c]), -1, p) % p
        hit = np.flatnonzero(M[:, c])
        hit = hit[hit != r]
        rows = M[hit, c:]  # a copy, updated in place beside one product
        rows -= np.outer(rows[:, 0], M[r, c:])
        rows %= p
        M[hit, c:] = rows
        pivots.append(c)
    return M[:len(pivots)].copy(), pivots  # frees the rest of M


def _round_size(n: int) -> int:
    """The most rows of A that one round of elimination takes besides the
    reduced rows so far: half as many again as A has columns, and 64."""
    return 3 * n // 2 + 64


def _elimination_bytes(A: IncidenceMatrix, item: int) -> int:
    """Bytes that one round of the elimination of A holds at its peak, with
    `item` bytes per entry of the unpacked rows.  A round's rows, over
    GF(2) packed 64 columns to a word, are held throughout: at most
    `_round_size` rows of A and, after the first round, fewer than n
    reduced rows.  While they are filled: the flat index of every 1, over
    GF(2) also one byte for it, the start of every row, and the reduced
    rows of the round before, over GF(2) also packed.  Over GF(2), per
    pass: a copy of the rows with its index, the XOR table and the pivot
    rows twice while they grow, and at the end the pivot rows unpacked
    too.  Over GF(p), p odd, per pivot: a copy of the rows it hits, their
    product with the pivot row, and four indices into the rows; at the end
    a copy of the reduced rows.  When there is more than one round, the
    stride order of the rows and the supports of the round are held too."""
    n, r = A.n_cols, A.n_rows
    new, width = min(r, _round_size(n)), A.supports.shape[1]
    kept = n - 1 if r > new else 0  # r > n then
    m = new + kept
    fill = 8 * new * width + 8 * new + kept * n * item
    if A.p == 2:
        w, piv = -(-n // 64) * 8, min(m, n)  # bytes per packed row, pivots
        rows = m * w
        fill += new * width + kept * ((n + 7) // 8)
        step = max(rows + 8 * m + 256 * w + 2 * piv * w, piv * w + piv * n)
    else:
        rows = m * n * item
        step = 2 * rows + 32 * m
    held = 8 * r + new * width * A.supports.itemsize if r > new else 0
    return rows + max(fill, step) + held


def _check_bytes(A: IncidenceMatrix, nullity: int) -> int:
    """Bytes that `_outside_span` holds at its peak, besides the reduced
    rows and D, checking rows of A against a D of `nullity` rows in blocks
    of `_round_size` rows: D^T as it is summed, over GF(2) also packed by
    bytes; per block the supports of its rows and the row of D^T that each
    of their 1s gathers, and per row its syndrome and a flag; for each row
    of A at most its index, a flag and its index once more if it stays
    pending."""
    n, r = A.n_cols, A.n_rows
    block, width = min(r, _round_size(n)), A.supports.shape[1]
    if A.p == 2:
        row = -(-nullity // 64) * 8
        DT = n * (row + (nullity + 7) // 8)
    else:
        row = nullity * np.min_scalar_type(width * (A.p - 1)).itemsize
        DT = n * row
    col = A.supports.itemsize
    return DT + block * (width * (col + row) + row + 1) + 17 * r


def rank_and_nullspace(A: IncidenceMatrix):
    """Rank of A over GF(p) and the systematic generator D of the dual
    code: row j of D is 1 at the j-th free column, minus that column of
    the RREF at the pivots, and 0 elsewhere.

    The elimination runs in rounds, since the code of points and k-spaces
    has far more rows than columns.  A round eliminates the reduced rows
    kept so far together with at most `_round_size(n)` rows of A not yet
    known to lie in their span, taken in `_stride_order`, and forms D from
    the result; every row of A not yet eliminated whose syndrome against D
    is nonzero goes into the next round, and the others are dropped.  When
    none is left, the span of the reduced rows is that of A, so they are
    its RREF.  With at most `_round_size(n)` rows, one round takes them all
    and nothing is checked.  Refused before allocating when a round, or
    forming D and checking the rows against it, would hold more than the
    byte budget at its peak."""
    p, n, r = A.p, A.n_cols, A.n_rows
    dtype = np.dtype(np.uint8) if p == 2 else np.min_scalar_type(-(p - 1) ** 2)
    item, size = dtype.itemsize, _round_size(n)
    subject = f"{r}x{n} incidence matrix"
    # D has a row for each free column, at least n - n_rows of them
    refuse_over_budget(max(_elimination_bytes(A, item), max(n - r, 0) * n * item),
                       subject, "elimination")
    if r <= size:
        take, pending = A.supports, np.zeros(0, dtype=np.intp)
    else:
        order = _stride_order(r)
        take = A.supports[order[:size]]
        pending = order[size:]
    R = np.zeros((0, n), dtype=dtype)  # the reduced rows so far
    while True:
        M = _fill(take, R, p)
        del take, R  # their rows are in M
        R, pivots = _rref_gf2(M, n) if p == 2 else _rref_mod_p(M, p)
        del M  # consumed by the elimination
        rank, nullity = len(pivots), n - len(pivots)
        # D beside the reduced rows, and either two arrays of their free
        # columns and the indices of the pivot and free columns, or the
        # check of the rows still pending against D
        refuse_over_budget(R.nbytes + nullity * n * item + max(
            32 * n + 2 * rank * nullity * item,
            _check_bytes(A, nullity) if pending.size else 0),
            subject, "dual generator")
        is_free = np.ones(n, dtype=bool)
        is_free[pivots] = False
        free = np.flatnonzero(is_free)
        D = np.zeros((nullity, n), dtype=dtype)
        D[:, pivots] = (p - R[:, free].T) % p
        D[np.arange(nullity), free] = 1
        if pending.size:
            pending = pending[_outside_span(A, pending, D)]
        if not pending.size:
            return rank, D
        take = A.supports[pending[:size]]
        pending = pending[size:]
        del D  # superseded by the next round


def _popcount_histogram(rows: int, n: int):
    """The histogram step of the scans, on buffers allocated once: a
    function adding to counts[w] how many of at most `rows` rows of uint64
    words over n columns have popcount w.  Rows of more than one word are
    summed in a dtype that holds n."""
    bits = np.empty((rows, -(-n // 64)), dtype=np.uint8)
    weights = np.empty(rows, dtype=np.min_scalar_type(n))

    def add(counts: np.ndarray, words: np.ndarray):
        b = np.bitwise_count(words, out=bits[:len(words)])
        w = b[:, 0] if b.shape[1] == 1 else b.sum(
            axis=1, dtype=weights.dtype, out=weights[:len(words)])
        counts += np.bincount(w, minlength=n + 1)
    return add


def _planes(X: np.ndarray, p: int) -> np.ndarray:
    """The residue planes of words X over GF(p), on a new axis before the
    last: plane v - 1 packs the columns where X = v, for v = 1..p-1."""
    return _words(X[..., None, :] == np.arange(1, p)[:, None])


def _nonzero_mask(U: np.ndarray, H: np.ndarray, out: np.ndarray, tmp: np.ndarray):
    """Where u + h != 0, that is where u and -h differ: OR_v U[v] ^ H[v] for the
    residue planes U of words u and H of -h (planes first), into out; tmp: scratch."""
    np.bitwise_xor(U[0], H[0], out=out)
    for v in range(1, len(U)):
        out |= np.bitwise_xor(U[v], H[v], out=tmp)
    return out


def _tail_size(p: int, nullity: int, n_cols: int) -> int:
    """The t for a scan block of p^t words of p - 1 residue planes each:
    the largest whose block takes no more bytes than p^t0 words of n_cols
    int16 symbols, t0 <= nullity the largest with p^t0 <= 2^16."""
    word_bytes = (p - 1) * -(-n_cols // 64) * 8
    t0 = max(t for t in range(nullity + 1) if p ** t <= 1 << 16)
    return max(t for t in range(t0 + 1)
               if t == 0 or p ** t * word_bytes <= p ** t0 * 2 * n_cols)


def _block(D: np.ndarray, p: int, tmp: np.ndarray) -> np.ndarray:
    """The planes of the span of the rows of D, word x = sum_i x_i D[i] for
    the base-p digits x_i of x: row b adds u + c*b for the earlier words u,
    plane s != 0 of it where u = s - c*b.  tmp is scratch of p^len(D) words."""
    block = np.zeros((p - 1, p ** len(D), tmp.shape[1]), dtype=np.uint64)
    columns = _words(np.ones(D.shape[1], dtype=bool))
    cs = list(product(range(1, p), repeat=2))
    for i, b in enumerate(D.astype(np.intp)):
        u, size = block[:, :p ** i], p ** i
        for (c, s), H in zip(cs, _planes(np.array([s - c * b for c, s in cs]) % p, p)):
            part = block[s - 1, c * size:(c + 1) * size]
            np.invert(_nonzero_mask(u, H[:, None], part, tmp[:size]), out=part)
            part &= columns
    return block


def _scan_mod_p(D: np.ndarray, p: int) -> np.ndarray:
    """Weight counts of the GF(p) span of the rows of D: the span of the
    first t rows is a `_block`, and a block word u plus a head h of the
    other rows weighs the popcount of `_nonzero_mask` against the planes of
    -h.  Only heads with last nonzero coefficient 1 are visited, counted p-1
    times, as a*(block + h) = block + a*h and weight(a*w) = weight(w)."""
    nullity, n = D.shape
    t = _tail_size(p, nullity, n)
    out, tmp = np.empty((2, p ** t, -(-n // 64)), dtype=np.uint64)
    block = _block(D[:t], p, tmp)
    # x in [p^j, 2p^j): the heads over rows t.. with last coefficient 1
    x = np.fromiter(chain.from_iterable(range(p ** j, 2 * p ** j)
                                        for j in range(nullity - t)),
                    dtype=np.intp)
    heads = (x[:, None] // p ** np.arange(nullity - t) % p) @ D[t:]
    add = _popcount_histogram(p ** t, n)
    counts = np.zeros(n + 1, dtype=np.intp)
    for H in _planes(-heads % p, p):
        add(counts, _nonzero_mask(block, H, out, tmp))
    counts *= p - 1
    add(counts, np.bitwise_or.reduce(block, axis=0, out=out))
    return counts


def _scan_partial(D: np.ndarray, p: int, bound: int) -> np.ndarray:
    """Weight counts of the zero word and the words sum c_i D[i] over at most
    `bound` rows with every c_i nonzero.  A word u + c*D[j], u a prefix on fewer
    rows, weighs as u/c + D[j], and u/c runs p - 1 times over those prefixes, so
    each prefix u counts p - 1 times, against all later D[j] at once by `_nonzero_mask`."""
    nullity, n = D.shape
    planes = _planes(D, p).swapaxes(0, 1)  # planes[v - 1, j]: where D[j] = v
    out, tmp = np.empty((2,) + planes.shape[1:], dtype=np.uint64)
    add = _popcount_histogram(nullity, n)
    counts = np.zeros(n + 1, dtype=np.intp)
    for size in range(bound):
        coeffs = np.array(list(product(range(1, p), repeat=size)), dtype=np.int64)
        for idxs in combinations(range(nullity), size):
            later = planes[:, idxs[-1] + 1 if idxs else 0:]
            m = later.shape[1]
            for H in _planes(-(coeffs @ D[list(idxs)]) % p, p):
                add(counts, _nonzero_mask(later, H[:, None], out[:m], tmp[:m]))
    counts *= p - 1
    counts[0] += 1
    return counts


def scan_dual_weights(A: IncidenceMatrix, allow_partial: bool = False) -> dict:
    """Weight multiset of the dual code.

    Full scan when p^nullity <= 2^FULL_SCAN_BITS.  Otherwise a partial
    report over combinations of at most PARTIAL_SUPPORT_BOUND rows of the
    dual generator, but only when explicitly allowed."""
    rank, D = rank_and_nullspace(A)
    nullity, p = len(D), A.p
    full = p ** nullity <= 2 ** FULL_SCAN_BITS
    if not full and not allow_partial:
        raise ScanRefused(
            f"dual has nullity {nullity} over GF({p}); full scan needs "
            f"p^nullity <= 2^{FULL_SCAN_BITS}")
    counts = _scan_mod_p(D, p) if full else _scan_partial(D, p, PARTIAL_SUPPORT_BOUND)
    return {
        "mode": "FULL" if full else "PARTIAL",
        "rank": rank,
        "nullity": nullity,
        "weights": Counter({w: int(m) for w, m in enumerate(counts) if m}),
    }


def _padded(keys: np.ndarray, values: np.ndarray, deg: np.ndarray):
    """Row j: the values whose key is j, in their order, then zeros to the
    longest row; keys nondecreasing, deg[j] of them equal to j."""
    out = np.zeros((len(deg), deg.max(initial=0)), dtype=values.dtype)
    pos = np.arange(len(keys))
    pos -= (np.cumsum(deg) - deg)[keys]
    out[keys, pos] = values
    return out


def _alist_tables(A: IncidenceMatrix) -> list[np.ndarray]:
    """The numbers of the alist lines of A, one table row per line."""
    dtype = np.min_scalar_type(max(A.n_rows, A.n_cols))
    (r, width), cols = A.supports.shape, A.supports.ravel()
    rows = np.repeat(np.arange(r, dtype=dtype), width)
    col_deg = np.bincount(cols, minlength=A.n_cols)
    row_deg = np.full(r, width)
    by_row = A.supports.astype(dtype) + 1
    order = np.argsort(cols, kind="stable")  # by column, rows ascending
    by_col = _padded(cols[order], rows[order] + 1, col_deg)
    head = [[A.n_cols, r], [by_col.shape[1], row_deg.max(initial=0)]]
    return [np.array(head), col_deg[None], row_deg[None], by_col, by_row]


def export_alist(A: IncidenceMatrix, path: str) -> str:
    """Sparse parity-check text format; rows of A are the checks.  The
    lines are formed from index tables and written a block at a time,
    each number looked up in one table of decimal strings."""
    import hashlib
    if A.p != 2:
        raise CodeError("alist export is defined for binary codes only")
    tables = _alist_tables(A)  # their index temporaries freed by now
    # token v is the decimal v, v + top that decimal after a space, and
    # 2 * top the end of a line
    top = max(A.n_rows, A.n_cols) + 1
    decimal = list(map(str, range(top)))
    tokens = np.array(decimal + [" " + d for d in decimal] + ["\n"],
                      dtype=object)
    sha = hashlib.sha256()
    with open(path, "w") as fh:
        for table in tables:
            w = table.shape[1]
            for i in range(0, len(table), 1024):
                block = table[i:i + 1024]
                idx = np.full((len(block), w + 1), 2 * top)
                idx[:, :w] = block
                idx[:, 1:w] += top
                text = "".join(tokens[idx].ravel().tolist())
                fh.write(text)
                sha.update(text.encode())
    return sha.hexdigest()


def geometry_payload(P: PolarSpace, k: int) -> dict:
    A = build_incidence(P, k)
    return {
        "schema": JSON_SCHEMA,
        "geometry": {
            "family": P.family,
            "ambient_dim": P.n,
            "order": P.F.order,
            "k": k,
        },
        "points": [list(pt) for pt in P.points],
        "kspaces": A.supports.tolist(),
    }


def codeword_payload(c: CodewordVec, meta: dict | None = None) -> dict:
    return {
        "schema": JSON_SCHEMA,
        "codeword": {
            "n_cols": c.n_cols,
            "p": c.p,
            "support": sorted(c.support.items()),
        },
        **({"meta": meta} if meta else {}),
    }


def export_json(payload: dict, path: str) -> str:
    import hashlib
    import json
    data = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(data)
    return hashlib.sha256(data.encode()).hexdigest()


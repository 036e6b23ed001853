"""Points and subspaces of PG(n,q) with canonical representatives.

Points are tuples of field-element ints, normalized so the first nonzero
coordinate is 1.  Subspaces are named tuples (ambient, basis) holding a
reduced row-echelon basis, which is the unique canonical representative:
equality of subspaces is equality of basis matrices.

The global point order (lexicographic on normalized coordinate tuples)
defines the column indexing used everywhere downstream.  Every step that
is charged before it allocates is refused against the byte budget here.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .gf import FieldSpec

POINT_CAP = 10 ** 7
# the peak bytes of a charged step: a 64-bit word per point the cap admits
BYTE_BUDGET = 8 * POINT_CAP
# bytes a charged step holds besides its arrays: numpy's iterator buffers
# (8192 elements of at most 8 bytes) and Python objects; by tracemalloc at
# most 38,942 bytes (the elimination of Q(8,2) k=3, 2,295 rows over GF(2))
_FIXED_BYTES = 1 << 16

# entries of one row block of a pairwise array
_BLOCK = 1 << 18


def _words(bits: np.ndarray) -> np.ndarray:
    """A boolean array packed along its last axis into uint64 words."""
    n = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (-(-n // 64) * 8,), dtype=np.uint8)
    out[..., :(n + 7) // 8] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view("<u8")


class GeometryError(ValueError):
    pass


class ResourceError(RuntimeError):
    pass


def refuse_over_budget(size: int, subject: str, what: str):
    """ResourceError, before anything is allocated, when `what` for
    `subject` needs more than BYTE_BUDGET bytes, `_FIXED_BYTES` included."""
    size += _FIXED_BYTES
    if size > BYTE_BUDGET:
        raise ResourceError(f"{subject}: {what} needs {size} bytes, "
                            f"over the budget of {BYTE_BUDGET}")


def theta(d: int, q: int) -> int:
    """Number of points of PG(d,q); theta(-1)=0, theta(0)=1."""
    if d < -1:
        raise GeometryError(f"theta undefined for d={d}")
    return (q ** (d + 1) - 1) // (q - 1)


def normalize_point(vec, F: FieldSpec) -> tuple[int, ...]:
    for c in vec:
        if c:
            if c == 1:
                return tuple(vec)
            s = F.inv(c)
            return tuple(F.mul(s, x) for x in vec)
    raise GeometryError("zero vector is not a projective point")


def point_array(n: int, F: FieldSpec) -> np.ndarray:
    """The points of PG(n,q) in the global order, one row each, in the
    narrowest unsigned dtype that holds the field elements.  For each lead
    column, from the last to the first, a 1 there and the tails after it
    in the order of `np.indices`: the rows come out sorted, with no sort."""
    q = F.order
    if theta(n, q) > POINT_CAP:
        raise ResourceError(f"theta({n},{q}) exceeds point cap {POINT_CAP}")
    out = np.zeros((theta(n, q), n + 1), dtype=np.min_scalar_type(q - 1))
    for m in range(n + 1):  # the points with lead column n - m
        rows = out[theta(m - 1, q):theta(m, q)]
        rows[:, n - m] = 1
        rows[:, n - m + 1:] = np.indices((q,) * m, dtype=out.dtype).reshape(m, q ** m).T
    return out


@lru_cache(maxsize=None)
def enumerate_points(n: int, F: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """`point_array` as tuples, kept for the life of the process."""
    return tuple(map(tuple, point_array(n, F).tolist()))


class Subspace(NamedTuple):
    """A subspace of PG(ambient, q) by its RREF rows.  Its repr, hash,
    order and pickle round trip are those of a frozen, ordered dataclass
    of these two fields; unlike one, a Subspace also equals the plain
    tuple (ambient, basis).  Being a tuple, it is built with no Python
    frame by `tuple.__new__(Subspace, (ambient, basis))`."""

    ambient: int
    basis: tuple[tuple[int, ...], ...]  # RREF rows

    @property
    def dim(self) -> int:
        return len(self.basis) - 1


def rref(rows, F: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon form; zero rows dropped."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        s = F.inv(mat[rank][col])
        if s != 1:
            mat[rank] = [F.mul(s, x) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rank] if any(r))


def span(vectors, F: FieldSpec) -> Subspace:
    vectors = list(vectors)
    if not vectors:
        raise GeometryError("span of empty set")
    return Subspace(len(vectors[0]) - 1, rref(vectors, F))


def subspace_points(S: Subspace, F: FieldSpec) -> list[tuple[int, ...]]:
    """All theta(dim,q) points of S, in the global point order.

    The points are c R for the RREF rows R and the points c of PG(dim,q):
    c R is normalized and equals c at the pivot columns, and the columns
    left of a pivot take only the rows above it, so the order of the c
    is the order of the points."""
    V = combine(enumerate_points(S.dim, F), S.basis, F)
    return [tuple(v) for v in V.tolist()]


def nullspace(rows, width: int, F: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """RREF basis of {v : row . v = 0 for all rows}."""
    mat = rref(rows, F)
    pivots = [next(i for i, x in enumerate(r) if x) for r in mat]
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * width
        v[fc] = 1
        for r, pc in zip(mat, pivots):
            v[pc] = F.neg(r[fc])
        basis.append(tuple(v))
    return rref(basis, F)


@lru_cache(maxsize=None)
def enumerate_lines(n: int, F: FieldSpec) -> tuple[Subspace, ...]:
    """All lines of PG(n,q), sorted by basis.  The RREF rows (a, b) of a
    line are points with lead(a) < lead(b) and a zero in a at lead(b);
    pairing the points in the global order lists each line once, sorted."""
    pts = enumerate_points(n, F)
    lead = [p.index(1) for p in pts]
    return tuple(Subspace(n, (a, b)) for a, la in zip(pts, lead)
                 for b, lb in zip(pts, lead) if la < lb and not a[lb])


@lru_cache(maxsize=None)
def _tables(F: FieldSpec):
    """numpy mul, add and conjugation tables of F (conj None when F has no
    square order), uint8 for q <= 256; charged per entry: both, two int32s and a cast."""
    q = F.order
    dt = np.uint8 if q <= 256 else np.uint16
    refuse_over_budget((3 * np.dtype(dt).itemsize + 8) * q * q, f"GF({q})", "field tables")
    exp = np.array([F.pow(F.generator, e) for e in range(q - 1)], dtype=dt)
    log = np.zeros(q, dtype=np.int32)
    log[exp] = np.arange(q - 1)
    mul = exp[np.add.outer(log, log) % (q - 1)]
    mul[0] = mul[:, 0] = 0
    # elements are base-p digit strings added digit by digit mod p
    elements = np.arange(q, dtype=np.int32)
    add = np.zeros((q, q), dtype=dt)
    for i in range(F.h):
        d = elements // F.p ** i % F.p
        add += (np.add.outer(d, d) % F.p * F.p ** i).astype(dt)
    conj = np.array([F.conj(a) for a in range(q)], dtype=dt) if F.has_conjugation else None
    return mul, add, conj


def _element_codes(F: FieldSpec, bits: int) -> np.ndarray:
    """Each element's base-p digits, the lowest first, `bits` apart."""
    digits = np.arange(F.order)[:, None] // F.p ** np.arange(F.h) % F.p
    return (digits << bits * np.arange(F.h)).sum(axis=1)


def scaled_codes(X, F: FieldSpec) -> np.ndarray:
    """uint64 [c, i]: the code of c X[i], c in F: the vector's base-p digits
    in coordinate order, 1 + ceil(log2 p) bits apart (at most 48 bits under
    POINT_CAP), so points in the global order have ascending codes."""
    bits = 1 + (F.p - 1).bit_length()
    element = _element_codes(F, bits).astype(np.uint64)[_tables(F)[0]]  # [c, a]: c a
    out = np.zeros((F.order, len(X)), dtype=np.uint64)
    for i, col in enumerate(np.asarray(X, dtype=np.intp).T[::-1]):  # lowest digits last
        for c, row in enumerate(element << np.uint64(bits * F.h * i)):
            out[c] += row[col]
    return out


def digit_sums(C, rows, codes: np.ndarray, F: FieldSpec) -> np.ndarray:
    """uint64 [r, m]: the code of the sum over j of C[m, j] X[rows[r, j]], for
    codes = scaled_codes(X, F).  Each sum of b-bit digits is reduced mod p with
    no carry: 2^(b-1) - p is added, and p taken where that sets the top bit."""
    bits = 1 + (F.p - 1).bit_length()
    low = np.uint64(sum(1 << bits * j for j in range(64 // bits)))  # each digit's lowest bit
    offset = low * np.uint64((1 << bits - 1) - F.p)
    C = np.asarray(C, dtype=np.intp) * codes.shape[1]
    acc = codes.take(C[:, 0] + rows[:, :1])
    for j in range(1, C.shape[1]):
        acc += codes.take(C[:, j] + rows[:, j:j + 1])
        acc -= ((acc + offset) >> np.uint64(bits - 1) & low) * np.uint64(F.p)
    return acc


def combine(C, B, F: FieldSpec) -> np.ndarray:
    """Sum over i of C[..., i] B[..., i, :] in GF(q), the leading axes of C
    and B broadcast: the combinations with coefficients C of the rows of B.
    C and B are cast to intp once; a product or a sum is one lookup in a
    flat table at the intp index q a + b."""
    mul, add, _cj = _tables(F)
    q = F.order
    mul, add = mul.ravel(), add.ravel()
    C = np.asarray(C, dtype=np.intp) * q
    B = np.asarray(B, dtype=np.intp)
    acc = mul[C[..., 0, None] + B[..., 0, :]]
    for i in range(1, C.shape[-1]):
        at = np.multiply(acc, q, dtype=np.intp)
        at += mul[C[..., i, None] + B[..., i, :]]
        acc = add[at]
    return acc


def form_values(X, Y, M, F: FieldSpec, conj: bool = False) -> np.ndarray:
    """Sum over i, j of M[i][j] x_i y_j^s in GF(q), s the involution
    y -> y^sqrt(q) when conj is set and the identity otherwise.

    The vectors run along the last axis of X and Y; their leading axes
    broadcast against each other, and the result has the broadcast shape.
    One nonzero entry of M is added at a time, so no temporary is larger
    than the result: none keeps the coordinate axis."""
    mul, add, cj = _tables(F)
    X = np.asarray(X, dtype=mul.dtype)
    Y = np.asarray(Y, dtype=mul.dtype)
    if conj:
        Y = cj[Y]
    acc = np.zeros(np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]), dtype=mul.dtype)
    for i, row in enumerate(M):
        for j, m in enumerate(row):
            if m:
                acc = add[acc, mul[mul[m, X[..., i]], Y[..., j]]]
    return acc


class Pairing:
    """Zeros of the pairing (x, y) -> sum over a, b of M[a][b] x_a y_b^s in
    GF(q) between any vectors x and the fixed vectors Y (rows), s the
    involution y -> y^sqrt(q) when conj is set and the identity otherwise.

    Each y is first folded into its linear form r = M y^s, so the pairing
    is the sum of x_a r_a over the w rows a of M that are not zero.  Each
    element is coded by its base-p digits, spaced `bits` apart with
    2^bits > w(p-1), so a sum of w codes never carries from one digit into
    the next.  The rows T_a[v] = code(v r_a), over all y, are formed once;
    the pairing of x with every y is then the sum of the rows T_a[x_a], and
    it is zero exactly when each digit of that sum is 0 mod p: for p = 2,
    when the sum shares no bit with the code of the all-ones digit string."""

    def __init__(self, Y, M, F: FieldSpec, conj: bool = False):
        mul, add, cj = _tables(F)
        Y = np.asarray(Y, dtype=mul.dtype)
        if conj:
            Y = cj[Y]
        self.F = F
        self.cols = [a for a in range(len(M)) if any(M[a])]
        p, h, bits = F.p, F.h, (len(self.cols) * (F.p - 1)).bit_length()
        dtype = np.min_scalar_type((1 << bits * h) - 1)
        code = _element_codes(F, bits).astype(dtype)
        products = code[mul]  # [v, r]: code(v r)
        self.rows = []
        for a in self.cols:  # T_a from r_a = sum_b M[a][b] y_b^s, by take
            terms = [mul[m].take(Y[:, b]) for b, m in enumerate(M[a]) if m]
            self.rows.append(products.take(reduce(lambda r, t: add[r, t], terms), axis=1))
            self.rows[-1].setflags(write=False)
        self._scratch = np.empty((2, 0, len(Y)), dtype=dtype)
        if p == 2:
            self.mask = code[-1]
        else:
            # zero[s]: every bits-wide digit field of s is 0 mod p
            digit_zero = np.arange(1 << bits) % p == 0
            self.zero = digit_zero
            for _ in range(h - 1):
                self.zero = np.logical_and.outer(digit_zero, self.zero).ravel()

    def blocks(self, X):
        """(lo, Z) for consecutive row blocks of X, Z[i, j] true when
        x = X[lo + i] pairs to zero with Y[j]; a block has as many rows as
        fit in _BLOCK entries, and at least one; for odd p, an eighth of that.
        The sums are formed in scratch that the pairing keeps from call to
        call, so it serves one generator at a time; each Z is a new array."""
        X = np.asarray(X, dtype=_tables(self.F)[0].dtype)
        step = max(1, _BLOCK // max(1, self.rows[0].shape[1]))
        sub = step if self.F.p == 2 else max(1, step // 8)  # take copies the indices to intp
        step -= step % sub
        if self._scratch.shape[1] < min(step, len(X)):
            self._scratch = np.empty((2, min(step, len(X)), self._scratch.shape[2]),
                                     dtype=self._scratch.dtype)
        for lo in range(0, len(X), step):
            block = X[lo:lo + step, self.cols]
            # mode "wrap": with the default "raise", take fills a copy of out
            acc, term = self._scratch[:, :len(block)]
            np.take(self.rows[0], block[:, 0], axis=0, out=acc, mode="wrap")
            for T, l in zip(self.rows[1:], block[:, 1:].T):
                acc += np.take(T, l, axis=0, out=term, mode="wrap")
            for i in range(0, len(acc), sub):
                part = acc[i:i + sub]
                yield lo + i, (np.bitwise_and(part, self.mask, out=part) == 0
                               if self.F.p == 2 else self.zero.take(part))


def pairing_bytes(M, F: FieldSpec, fixed: int, vectors: int) -> int:
    """Peak bytes of a `Pairing` of `fixed` vectors read against `vectors`
    others: tables, scratch, their coordinates, a byte per block entry for the
    zeros and a reader's selection, for odd p a sub-block's intp indices."""
    rows = Pairing([[0] * len(M)], M, F).rows
    step = max(1, _BLOCK // max(1, fixed))
    sub = 8 * fixed * min(vectors, max(1, step // 8)) if F.p > 2 else 0
    return (fixed * sum(T.nbytes for T in rows) + vectors * len(M) * _tables(F)[0].itemsize
            + sub + fixed * min(vectors, step) * (2 * rows[0].itemsize + 2))


@lru_cache(maxsize=None)
def _hyperplane_pairing(n: int, F: FieldSpec) -> Pairing:
    """The points of PG(n,q) as dual coordinates of its hyperplanes, charged
    before they exist: the pairing, and per point a second copy of its
    coordinates, its weight, place in weight order, sum and two counts."""
    unit, points = np.eye(n + 1, dtype=np.int64).tolist(), theta(n, F.order)
    refuse_over_budget(pairing_bytes(unit, F, points, points) + points * (
        (n + 1) * _tables(F)[0].itemsize + 40), f"PG({n},{F.order})", "hyperplane tables")
    return Pairing(point_array(n, F), unit, F)


def hyperplane_sums(points, weights, n: int, F: FieldSpec) -> np.ndarray:
    """int64 [j]: the total weight of the points on hyperplane j, in the
    canonical dual order (that of point_array(n, F)); summed a block of points
    at a time in weight order, each weight's zeros a slice of the block's."""
    pairing = _hyperplane_pairing(n, F)
    X = np.array(points, dtype=_tables(F)[0].dtype).reshape(-1, n + 1)
    w = np.asarray(weights, dtype=np.int64)
    order = np.argsort(w, kind="stable")
    out = np.zeros(theta(n, F.order), dtype=np.int64)
    for lo, zero in pairing.blocks(X[order]):
        part = w[order[lo:lo + len(zero)]]
        for c in set(part.tolist()):
            out += c * np.count_nonzero(zero[slice(*np.searchsorted(part, (c, c + 1)))],
                                        axis=0)
    return out

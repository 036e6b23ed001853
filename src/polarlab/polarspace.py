"""Classical polar spaces: quadrics, Hermitian varieties, symplectic space.

Standard coordinate forms (fixed for reproducibility):

  hyperbolic  Q+(2n+1,q):  x0 x1 + x2 x3 + ... + x_{2n} x_{2n+1}
  parabolic   Q(2n,q):     x0^2 + x1 x2 + ... + x_{2n-1} x_{2n}
  elliptic    Q-(2n+1,q):  f(x0,x1) + x2 x3 + ... + x_{2n} x_{2n+1},
              f the lexicographically least irreducible binary quadratic
  symplectic  W(2n-1,q):   x0 y1 - x1 y0 + ... - x_{2n-1} y_{2n-2}
  hermitian   H(n,q^2):    x0^{q+1} + ... + x_n^{q+1}

Each form but H's is an anisotropic head of width 0, 1 or 2 followed by one
hyperbolic pair per unit of rank, as in D. E. Taylor, The Geometry of the
Classical Groups (1992).

Singular k-spaces are generated level by level from the points, each
exactly once (canonical augmentation, McKay 1998).  A subspace C with
RREF rows R_0, ..., R_m has the canonical parent S = <R_1, ..., R_m>,
its intersection with x_c = 0 for the first pivot column c: the greedy
basis of C (each point the lowest outside the span of the earlier ones)
is R_m, ..., R_0.  So S is extended by exactly the points p of its
common perp whose lead column lies left of the pivots of S and which are
zero at those pivots, and (p, R_1, ..., R_m) is then the RREF of the
child: no candidate is rejected and nothing is eliminated.  A node keeps
only its RREF rows and a mask of these points, packed into uint64 words:
a child's is its parent's AND the mask of p, the points in the perp of p
fresh at its lead column c (lead column left of c, zero at c).  Each is
formed by pairing the points of lead c with those fresh at c alone, so no
N x N array exists.  A level is one array of words, one row per node,
whose set bits are found by `np.nonzero` on the words and `np.unpackbits`
on the nonzero ones; a node whose mask is zero has no children, and a
level keeps only the others.  The points of a
k-space are formed once, at level k, as the combinations c R of its rows
R with the points c of PG(k,q), in the point order, each found by the
digitwise sum mod p of the codes of the c_i R_i.  The count is predicted
from the closed forms first: a space whose build or largest level would
not fit the byte budget of `projspace` is refused before it is
allocated, and a count that misses the prediction is an error.

A space keeps its k-spaces as one array in support order, the supports
(`KSpaces`), which hold the points of the RREF rows too; the pairs
(Subspace, support) that callers walk are built from it on access and
not kept, so one pass leaves no object behind for the collector to
scan again.  A Subspace is a named tuple, so the pairs are built with no
Python call per row.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from math import ceil, isqrt

import numpy as np

from .gf import FieldSpec, field_of_order
from .projspace import (
    _BLOCK,
    GeometryError,
    Pairing,
    Subspace,
    digit_sums,
    form_values,
    nullspace,
    pairing_bytes,
    point_array,
    refuse_over_budget,
    scaled_codes,
    span,
    subspace_points,
    theta,
)

FAMILIES = ("hyperbolic", "parabolic", "elliptic", "hermitian", "symplectic")

FAMILY_ALIASES = {
    "Qplus": "hyperbolic",
    "Q": "parabolic",
    "Qminus": "elliptic",
    "H": "hermitian",
    "W": "symplectic",
}
_SHORT = {v: k for k, v in FAMILY_ALIASES.items()}


def canonical_family(name: str) -> str:
    fam = FAMILY_ALIASES.get(name, name)
    if fam not in FAMILIES:
        raise GeometryError(f"unknown family {name!r}")
    return fam


@lru_cache(maxsize=None)
def least_irreducible_binary_quadratic(F: FieldSpec) -> tuple[int, int]:
    """Least (b,c) with t^2 + b t + c irreducible over F."""
    for b in F.elements():
        for c in F.elements():
            # f(t) = t^2 + b t + c has no root in F
            if all(F.add(F.add(F.mul(t, t), F.mul(b, t)), c) for t in F.elements()):
                return b, c
    raise GeometryError("no irreducible binary quadratic found")


@dataclass(frozen=True)
class FormSpec:
    family: str
    ambient_dim: int
    field: FieldSpec
    matrix: tuple[tuple[int, ...], ...]

    def evaluate(self, X):
        """Value of the form at each vector along the last axis of X:
        Q(x), h(x,x), or b(x,x)=0."""
        return form_values(X, X, self.matrix, self.field,
                           conj=self.family == "hermitian")

    @cached_property
    def bilinear_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Matrix of the associated reflexive form: the polarized form
        A + A^T for quadrics, the form matrix itself otherwise."""
        F = self.field
        A = self.matrix
        n = len(A)
        if self.family in ("hermitian", "symplectic"):
            return A
        return tuple(
            tuple(F.add(A[i][j], A[j][i]) for j in range(n)) for i in range(n)
        )

    def pair(self, X, Y):
        """b(x,y), or h(x,y) for the hermitian family, for the vectors
        along the last axes of X and Y, broadcast against each other."""
        return form_values(X, Y, self.bilinear_matrix, self.field,
                           conj=self.family == "hermitian")


# each non-hermitian standard form: an anisotropic head on the first `width`
# coordinates, then hyperbolic pairs m[i][i+1] = 1, m[i+1][i] = -skew
_HEADS = {"hyperbolic": (0, 0), "parabolic": (1, 0), "elliptic": (2, 0),
          "symplectic": (0, 1)}


def _standard_matrix(family: str, n: int, F: FieldSpec):
    m = [[0] * (n + 1) for _ in range(n + 1)]
    if family == "hermitian":
        for i in range(n + 1):
            m[i][i] = 1
    else:
        width, skew = _HEADS[family]
        if width:
            m[0][0] = 1
        if width == 2:
            m[0][1], m[1][1] = least_irreducible_binary_quadratic(F)
        for i in range(width, n, 2):
            m[i][i + 1], m[i + 1][i] = 1, F.neg(skew)
    return tuple(tuple(r) for r in m)


def _counting_param(family: str, n: int) -> int:
    """The parameter m of the family in PG(n,q) used by the counting
    formulas: Q+(2m+1,q), Q(2m,q), Q-(2m+1,q), W(2m-1,q), H(m,q^2)."""
    if family == "hermitian":
        return n
    if family == "parabolic":
        return n // 2
    if family == "symplectic":
        return (n + 1) // 2
    return (n - 1) // 2


def _rank_e2(family: str, m: int) -> tuple[int, int]:
    """Rank r and 2e of the family with counting parameter m; see
    prop_counts."""
    if family == "hyperbolic":
        return m + 1, 0
    if family in ("parabolic", "symplectic"):
        return m, 2
    if family == "elliptic":
        return m, 4
    if family == "hermitian":
        return (m + 1) // 2, 1 if m % 2 else 3
    raise GeometryError(f"unknown family {family!r}")


def _singular_count(r: int, e2: int, j: int, q: int) -> Fraction:
    """Totally singular subspaces of vector dimension j of a polar space of
    rank r over GF(q): [r, j]_q prod_{i<j} (q^{r-1-i} q^e + 1)."""
    qe = isqrt(q ** e2)
    if qe * qe != q ** e2:
        raise GeometryError(f"hermitian family needs a square field order, got {q}")
    count = Fraction(1)
    for i in range(j):
        count *= (Fraction(q ** (r - i) - 1, q ** (i + 1) - 1)
                  * (q ** (r - 1 - i) * qe + 1))
    return count


def _rank_of(family: str, n: int) -> tuple[int, int]:
    """Rank r and 2e of the standard polar space of the family in PG(n,q);
    GeometryError when the family has none there."""
    if family in _HEADS and (n + 1 - _HEADS[family][0]) % 2:
        parity = "even" if n % 2 else "odd"
        raise GeometryError(f"{family} space needs {parity} ambient dimension")
    r, e2 = _rank_e2(family, _counting_param(family, n))
    if r < 1:
        raise GeometryError(f"{family} with n={n} has no singular points")
    return r, e2


def polar_space_order(family: str, n: int, q: int) -> int:
    """Closed-form point count; q is the field order (q^2 for hermitian
    counts in terms of the square root parameter)."""
    r, e2 = _rank_of(family, n)
    return int(_singular_count(r, e2, 1, q))


def generator_dimension(family: str, n: int) -> int:
    return _rank_of(family, n)[0] - 1


def _build_bytes(family: str, n: int, F: FieldSpec, N: int) -> int:
    """Peak bytes of the build with N points: per point of PG(n,q) its
    coordinates, its tails or four form values and hermitian conjugates, a
    flag; per point of the space its tuple, slot, coordinate lists, ints
    past the small ones, an index int and 4.5 dict slots of 20 bytes."""
    q = F.order
    item = np.min_scalar_type(q - 1).itemsize
    temps = max(n + 1, 4 + (n + 1) * (family == "hermitian")) * item
    point = (sys.getsizeof((0,) * (n + 1)) + 8 * (n + 2) + 90 + sys.getsizeof(N)
             + (n + 1) * sys.getsizeof(q) * (q > 257))
    return theta(n, q) * ((n + 1) * item + temps + 1) + N * point


class PolarSpace:
    """A polar space with its singular points indexed in the PG order.

    Instances are immutable after construction and cached per parameter
    set, so identity hashing is safe for memoized enumeration.  The build
    is charged by `standard_polar_space`, before the form matrix exists."""

    def __init__(self, form: FormSpec):
        self.form = form
        self.family = form.family
        self.n = form.ambient_dim
        self.F = form.field
        self.q = self.F.sqrt_order if self.family == "hermitian" else self.F.order
        self.gen_dim = generator_dimension(self.family, self.n)
        expected = polar_space_order(self.family, self.n, self.F.order)
        ambient = point_array(self.n, self.F)
        self.coordinates = ambient[form.evaluate(ambient) == 0]  # dtype of point_array
        self.points = tuple(zip(*self.coordinates.T.tolist()))
        if len(self.points) != expected:
            raise GeometryError(
                f"point count {len(self.points)} != closed form {expected}")
        self.index = {p: i for i, p in enumerate(self.points)}
        self._check_nondegenerate()
        self._kspace_cache = {}

    def __repr__(self):
        return f"{_SHORT[self.family]}({self.n},{self.F.order})"

    def _check_nondegenerate(self):
        rad = nullspace(self.form.bilinear_matrix, self.n + 1, self.F)
        if self.family in ("hermitian", "symplectic"):
            if rad:
                raise GeometryError("degenerate form")
        else:
            # even-q parabolic has a bilinear radical (the nucleus), but the
            # quadric itself is non-singular: no radical point lies on it
            for v in rad:
                if self.form.evaluate(v) == 0:
                    raise GeometryError("singular quadric")

    @property
    def rank_param(self) -> int:
        """The family parameter n used by the counting formulas: ambient
        dimension for hermitian spaces, half the (adjusted) ambient
        dimension for the others."""
        return _counting_param(self.family, self.n)

    def points_on(self, S: Subspace) -> list[int]:
        """The indices, ascending, of the points of the space in S."""
        return [i for i in map(self.index.get, subspace_points(S, self.F)) if i is not None]

    def collinear(self, x, y) -> bool:
        return bool(self.form.pair(x, y) == 0)

    def adjacency(self):
        """Per-point bitmask of other points joined by a singular line, a new
        list on every call that the space does not keep.  It is charged before
        it is formed: the pairing of the points, read a block of rows at a
        time, so no N x N array exists, and per point an N-bit int and its
        list slot.  The k-space enumeration does not use it."""
        N, M = len(self.points), self.form.bilinear_matrix
        per_point = sys.getsizeof((1 << N) - 1) + 8
        refuse_over_budget(pairing_bytes(M, self.F, N, N) + N * per_point,
                           f"{self!r}", "adjacency")
        pairing = Pairing(self.coordinates, M, self.F, conj=self.family == "hermitian")
        adj = []
        for lo, zero in pairing.blocks(self.coordinates):
            zero[np.arange(len(zero)), np.arange(lo, lo + len(zero))] = False
            packed = np.packbits(zero, axis=1, bitorder="little")
            adj += [int.from_bytes(row.tobytes(), "little") for row in packed]
        return adj

    def _fresh(self) -> tuple[np.ndarray, np.ndarray]:
        """(lead, fresh): each point's lead column, and fresh[c] true at the
        points with lead column left of c and a zero at c."""
        lead = np.argmax(self.coordinates != 0, axis=1)
        return lead, (lead < np.arange(self.n + 1)[:, None]) & (self.coordinates.T == 0)

    def kspace_count(self, k: int) -> int:
        """Closed-form number of singular k-spaces: the totally singular
        subspaces of vector dimension k + 1."""
        if not 0 <= k <= self.gen_dim:
            raise GeometryError(f"k={k} out of range [0, {self.gen_dim}]")
        return int(_singular_count(*_rank_of(self.family, self.n), k + 1, self.F.order))

    def _charges(self, k: int) -> list[tuple[int, int, str]]:
        """(bytes, level, what) of each charge of an enumeration up to level k:
        the supports of the level that needs the most, with the view's tuple
        pointer and index int per point and, for k >= 1, the word per scalar and
        point of `scaled_codes`; for k >= 1 also the point masks: `down` and the
        point arrays, beside the `Pairing` of the lead column that needs the
        most or beside the masks of the level that needs the most, a mask of
        ceil(N / 64) words per subspace below level k and as much per output
        row at level k.  Each charge adds four row blocks of _BLOCK bytes, in
        which the levels and the supports are formed."""
        N, q = len(self.points), self.F.order
        counts = [self.kspace_count(m) for m in range(k + 1)]
        item = np.min_scalar_type(N).itemsize
        beside = N * (16 + sys.getsizeof(N) + 8 * q * (k > 0))
        need = [max((c * theta(m, q) * item + beside, m, "supports")
                    for m, c in enumerate(counts))]
        if k:
            # per point: its mask, intp lead and level-0 row, fresh flags and coordinates
            size = 8 * -(-N // 64)
            held = N * (size + 16 + 2 * (self.n + 1))
            pairing = pairing_bytes(self.form.bilinear_matrix, self.F,
                                    int(self._fresh()[1].sum(axis=1).max()), N)
            need.append(max((held + extra, m, "point masks") for m, extra in
                            enumerate([pairing] + [c * size for c in counts[1:]])))
        return [(size + 4 * _BLOCK, m, what) for size, m, what in need]

    def singular_kspaces_with_supports(self, k: int):
        """All totally singular k-spaces with their point-index supports,
        ordered by support tuple, as a `KSpaces` sequence of (Subspace,
        support) pairs.  The space keeps the sequence, the same object for
        every call, and it keeps only the support array: each pair is built
        when it is indexed or iterated over.  The number of subspaces at
        every level up to k has been checked against `kspace_count`."""
        if k in self._kspace_cache:
            return self._kspace_cache[k]
        self.kspace_count(k)  # refuses a k out of range
        for size, m, what in self._charges(k):
            refuse_over_budget(size, f"{self.kspace_count(m)} singular {m}-spaces "
                               f"of {self!r}", what)
        out = self._kspaces(k)
        self._kspace_cache[k] = out
        return out

    def _kspaces(self, k: int):
        """Singular k-spaces as `KSpaces`, grown from the points by the
        pivot rule of the module docstring.  Per level, `rows` holds the
        point indices of each node's RREF rows and `cands`, one row of
        uint64 words per node, the points that extend it; below level k
        only the nodes with candidates are kept.  The supports are formed
        at level k only, and they alone are kept, in support order.  Each
        level's count is checked against the closed form."""
        N = len(self.points)
        rows = np.arange(N, dtype=np.min_scalar_type(N))[:, None]
        if not k:
            return KSpaces(self, 0, rows)  # the supports are the points
        X, F = self.coordinates, self.F
        # down[p]: the points of fresh[c], c = lead(p), in the perp of p.  The
        # points of lead c, consecutive, are paired with fresh[c] alone, and
        # each block's zeros are shifted to their bits and ORed into bytes
        lead, fresh = self._fresh()
        down = np.zeros((N, 8 * -(-N // 64)), dtype=np.uint8)
        for c in range(1, self.n + 1):  # no point is fresh at column 0
            ys = np.flatnonzero(fresh[c])
            first = np.flatnonzero(np.diff(ys >> 3, prepend=-1))
            start, shift = np.count_nonzero(lead > c), (ys & 7).astype(np.uint8)
            pairing = Pairing(X[ys], self.form.bilinear_matrix, F,
                              conj=self.family == "hermitian")
            for lo, zero in pairing.blocks(X[lead == c]):
                bits = zero.view(np.uint8)
                bits <<= shift
                down[start + lo:start + lo + len(zero), (ys >> 3)[first]] = (
                    np.bitwise_or.reduceat(bits, first, axis=1))
        cands = down = down.view("<u8")
        for level in range(1, k + 1):
            par, new = _set_bits(cands)
            rows = np.concatenate([new.astype(rows.dtype)[:, None], rows[par]], axis=1)
            want = self.kspace_count(level)
            if len(rows) != want:
                raise GeometryError(f"{len(rows)} singular {level}-spaces of "
                                    f"{self!r}, closed form {want}")
            if level < k:
                # a node without candidates has no children: keep the others
                cands, live = _nonzero_and(cands, par, down, new)
                rows = rows[live]
            else:
                del cands, down  # before the supports are formed
        # the support of rows R: the points c R, c in PG(k,q), in the point order;
        # c = e_j gives R_j (the units come e_k, ..., e_0), any other c R by its code.
        # Block arrays over _BLOCK / 2 bytes raised the H(5,4) lines' peak RSS 0.2 MB
        coeffs, codes = point_array(k, F), scaled_codes(X, F)
        unit = np.count_nonzero(coeffs, axis=1) == 1
        sup = np.empty((len(rows), len(coeffs)), dtype=rows.dtype)
        sup[:, unit] = rows[:, ::-1]
        step = max(1, _BLOCK // (16 * np.count_nonzero(~unit)))
        for lo in range(0, len(rows), step):
            sums = digit_sums(coeffs[~unit], rows[lo:lo + step], codes, F)
            sup[lo:lo + step, ~unit] = np.searchsorted(codes[1], sums)
        del rows  # each row is in the supports
        # the output in support order, equal-length distinct supports making
        # lexsort's order the tuple order
        order = np.lexsort(sup.T[::-1])
        return KSpaces(self, k, sup[order])


# rows of pairs that one step of an iteration forms.  In fresh processes a
# pass over the 36,400 lines of Q+(7,3) that keeps a list per support took
# 0.03-0.04 s in blocks of 64 or 128 rows, 0.05 s in blocks of 256 and
# 0.07 s in blocks of 1024: larger blocks hold more young objects through
# each collection, and brought on a full one
_CHUNK = 128


class KSpaces(Sequence):
    """The singular k-spaces of a polar space in support order, kept as one
    read-only array `supports`, the sorted point indices of each k-space.
    An item is a pair (Subspace, support tuple), built when it is asked
    for and not kept; the RREF row R_i is the point c R with c = e_i, the
    support entry at column theta(k - 1 - i).  The pairs are formed a block
    of rows at a time, a column at a time: each point tuple and each index
    int is one object shared by every row, and each Subspace comes from
    `tuple.__new__` mapped over the block, with no Python call per row."""

    def __init__(self, P: PolarSpace, k: int, supports: np.ndarray):
        supports.flags.writeable = False
        self.supports = supports
        self._basis = [theta(k - 1 - i, P.F.order) for i in range(k + 1)]
        self._ambient = P.n
        self._pts = np.fromiter(P.points, dtype=object, count=len(P.points))
        self._idx = np.arange(len(P.points)).astype(object)

    def __len__(self):
        return len(self.supports)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._pairs(self.supports[i])
        sup = self.supports[operator.index(i)]
        return (Subspace(self._ambient, tuple(self._pts[sup[self._basis]].tolist())),
                tuple(self._idx[sup].tolist()))

    def __iter__(self):
        blocks = (self.supports[lo:lo + _CHUNK] for lo in range(0, len(self), _CHUNK))
        return chain.from_iterable(map(self._pairs, blocks))

    def _pairs(self, supports: np.ndarray) -> list:
        bases = zip(*self._pts[supports.T[self._basis]].tolist())
        sups = zip(*self._idx[supports].T.tolist())
        spaces = zip(repeat(self._ambient), bases)
        return list(zip(map(tuple.__new__, repeat(Subspace), spaces), sups))


def _set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, index) of every set bit of the rows of uint64 words, in row
    order and ascending within a row.  The rows are read a block of at
    most _BLOCK / 64 words at a time: `np.nonzero` finds the nonzero
    words, and only those are unpacked."""
    # counted a block of at most _BLOCK words at a time, a byte per word
    step = max(1, _BLOCK // words.shape[1])
    total = sum(int(np.bitwise_count(words[lo:lo + step]).sum())
                for lo in range(0, len(words), step))
    rows, bits = np.empty(total, dtype=np.intp), np.empty(total, dtype=np.intp)
    step, end = max(1, _BLOCK // 64 // words.shape[1]), 0
    for lo in range(0, len(words), step):
        block = words[lo:lo + step]
        row, col = np.nonzero(block)
        at = np.flatnonzero(np.unpackbits(block[row, col].view(np.uint8),
                                          bitorder="little"))
        # in place, not `(at >> 6) + lo`: to elide a temporary of 256 kB or
        # more numpy takes a backtrace, which faulted in 0.5 MB of unwind
        # tables (the max RSS of the lines of Q+(7,3))
        i = at >> 6
        at &= 63
        out = rows[end:end + len(at)]
        np.take(row, i, out=out)
        out += lo
        out = bits[end:end + len(at)]
        np.take(col, i, out=out)
        out <<= 6
        out |= at
        end += len(at)
    return rows, bits


def _nonzero_and(A: np.ndarray, ia: np.ndarray, B: np.ndarray,
                 ib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, live): live the indices i, ascending, at which A[ia[i]] & B[ib[i]]
    is not zero, and C those rows.  They are formed a block of at most
    _BLOCK bytes at a time, and only each block's nonzero rows are kept."""
    step = max(1, _BLOCK // A[:1].nbytes)
    rows, live = [A[:0]], [ia[:0]]
    for lo in range(0, len(ia), step):
        block = A[ia[lo:lo + step]]
        block &= B[ib[lo:lo + step]]
        at = np.flatnonzero(block.any(axis=1))
        rows.append(block[at])
        at += lo
        live.append(at)
    return np.concatenate(rows), np.concatenate(live)


def standard_polar_space(family: str, n: int, F: FieldSpec) -> PolarSpace:
    fam = canonical_family(family)
    if fam == "hermitian" and not F.has_conjugation:
        raise GeometryError("hermitian family needs a field of square order")
    N = polar_space_order(fam, n, F.order)  # refuses an n with no polar space
    refuse_over_budget(_build_bytes(fam, n, F, N), f"{_SHORT[fam]}({n},{F.order})", "space build")
    return PolarSpace(FormSpec(fam, n, F, _standard_matrix(fam, n, F)))


@lru_cache(maxsize=None)
def get_space(family: str, n: int, order: int) -> PolarSpace:
    """Cached standard polar space; order is the defining field order
    (q^2 for the hermitian family)."""
    return standard_polar_space(family, n, field_of_order(order))


def polar_image(P: PolarSpace, S: Subspace) -> Subspace:
    """The perp of S under the polarity of P."""
    F = P.F
    if P.family == "parabolic" and F.p == 2:
        raise GeometryError(
            "parabolic quadric in even characteristic has no polarity: "
            "its polarized form has a radical point")
    # row r holds y -> b(y, x_r) for the basis vector x_r: a linear form
    # with the same zeros as b(x_r, .), whose kernel is the perp
    unit = np.eye(P.n + 1, dtype=np.int64)
    rows = P.form.pair(unit[None], np.array(S.basis)[:, None])
    basis = nullspace(rows.tolist(), P.n + 1, F)
    return Subspace(P.n, basis)


def classify_plane_section(H: PolarSpace, plane: Subspace) -> str:
    """Kind of section of H(5,q^2) by a plane, decided by point count."""
    if H.family != "hermitian" or H.n != 5:
        raise GeometryError("plane section classification needs H(5,q^2)")
    if plane.dim != 2:
        raise GeometryError("expected a plane")
    q = H.q
    count = len(H.points_on(plane))
    kinds = {
        q ** 3 + 1: "hermitian_curve",
        q ** 3 + q ** 2 + 1: "baer_cone",
        q ** 2 + 1: "single_line",
        q ** 4 + q ** 2 + 1: "generator",
    }
    if count not in kinds:
        raise GeometryError(f"unexpected hermitian plane section size {count}")
    return kinds[count]


def make_cone(P: PolarSpace, vertex: Subspace, base) -> list[int]:
    """The indices in P, ascending, of the points on the union of the lines
    joining vertex points to the base points, given by their indices.

    Outside the vertex the size must come out to q^(v+1)*|B|; anything
    else means the base meets the vertex span badly."""
    F = P.F
    vertex_pts = set(subspace_points(vertex, F))
    pts = set()
    for b in base:
        pts.update(subspace_points(span(vertex.basis + (P.points[b],), F), F))
    pts -= vertex_pts
    expected = F.order ** (vertex.dim + 1) * len(base)
    if len(pts) != expected:
        raise GeometryError(
            f"degenerate cone: {len(pts)} points, expected {expected}")
    cone = [P.index.get(x) for x in pts | vertex_pts]
    if None in cone:
        raise GeometryError("cone is not contained in the polar space")
    return sorted(cone)


def prop_counts(family: str, n: int, k: int, q: int) -> tuple[Fraction, Fraction]:
    """Closed-form counts (M, N): singular k-spaces through one point and
    through a collinear pair.  n as in Q+(2n+1,q), Q(2n,q), Q-(2n+1,q),
    W(2n-1,q); ambient dimension for H(n,q^2); q the square-root parameter for the
    hermitian family.

    A classical polar space of rank r over GF(q) is fixed by e
    (Hirschfeld-Thas), and has [r, j]_q prod_{i<j} (q^{r-1-i+e} + 1)
    totally singular subspaces of vector dimension j:

        family        rank r    e
        Q+(2n+1,q)    n+1       0
        Q(2n,q)       n         1
        W(2n-1,q)     n         1
        Q-(2n+1,q)    n         2
        H(n,q^2)      n/2       3/2   (n even; over GF(q^2))
        H(n,q^2)      (n+1)/2   1/2   (n odd)

    A point has a quotient of rank r-1 and a line one of rank r-2, so
    M = count(j=k, rank r-1), N = count(j=k-1, rank r-2), and the number
    of points is count(j=1, rank r)."""
    fam = canonical_family(family)
    r, e2 = _rank_e2(fam, n)
    order = q * q if fam == "hermitian" else q
    M = _singular_count(r - 1, e2, k, order)
    N = _singular_count(r - 2, e2, k - 1, order)
    assert M.denominator == 1 and N.denominator == 1
    return M, N


def tanner_bound_elliptic_5(q: int) -> int:
    return q ** 3 + q + 2


def tanner_bound_hermitian_4(q: int) -> int:
    return q ** 5 - q ** 4 + q ** 3 + q ** 2 + 2


def bound_min_weight_dual(family: str, n: int, k: int, q: int) -> int:
    """Lower bound on the minimum weight of the dual code of points versus
    singular k-spaces: ceil(1 + M/N), upgraded to the eigenvalue-based
    constants for point-line codes of Q-(5,q) and H(4,q^2)."""
    fam = canonical_family(family)
    M, N = prop_counts(fam, n, k, q)
    bound = ceil(1 + Fraction(M, N))
    if fam == "elliptic" and n == 2 and k == 1:
        bound = max(bound, tanner_bound_elliptic_5(q))
    if fam == "hermitian" and n == 4 and k == 1:
        bound = max(bound, tanner_bound_hermitian_4(q))
    return bound

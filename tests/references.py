"""Reference implementations that the tests compare the library against:
the k-space levels on Python int masks, scalar subspace membership and
intersection, brute-force k-space counts, a blocking-set predicate, the
nucleus of an even-order parabolic quadric, exact-cover ovoid and spread
searches, the spread and ovoid greedies that recount after every
removal, the regular spread of PG(3,q) and its reguli built as lines,
the dense form of an incidence matrix, the dual-codeword check one row
at a time, GF(2) row reduction one pivot column at a time, the alist
export formed line by line, and the MacWilliams transform of a dual
weight distribution."""

import hashlib
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache

import numpy as np

from polarlab.gf import FieldSpec, field_of_order
from polarlab.gfcode import CodewordVec, IncidenceMatrix
from polarlab.polarspace import PolarSpace, least_irreducible_binary_quadratic
from polarlab.projspace import (
    GeometryError,
    Subspace,
    combine,
    normalize_point,
    nullspace,
    span,
    subspace_points,
    theta,
)
from polarlab.verify import _as_index_set, _line_supports, is_ovoid, is_spread


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    i = 0
    while mask:
        s = (mask & -mask).bit_length()
        i += s - 1
        mask >>= s
        out.append(i)
        i += 1
    return out


def collinearity_masks(P: PolarSpace) -> list[int]:
    """Per point the int mask of the other points collinear with it, from
    the form's value at every pair of points (`form_values`), not from the
    `projspace.Pairing` that `PolarSpace.adjacency` and the enumeration use."""
    X = np.array(P.points)
    zero = P.form.pair(X[:, None], X[None]) == 0
    np.fill_diagonal(zero, False)
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(zero, axis=1, bitorder="little")]


def kspaces_by_int_masks(P: PolarSpace, k: int):
    """(rows, supports) of the singular k-spaces of P in support order, by
    the pivot rule on Python int masks: rows the point indices of the RREF
    rows, which `KSpaces` reads from the supports.  A node's candidates
    are one int, a child's are its parent's AND the int `down` of its new
    point, and `bit_indices` lists them; the masks are the
    `collinearity_masks`.  Each support is formed from the k-space's rows
    by `subspace_points`."""
    X = np.array(P.points)
    N, width = X.shape
    lead = np.argmax(X != 0, axis=1)
    rows = [[p] for p in range(N)]
    if k:
        fresh = [sum(1 << int(i) for i in np.flatnonzero((lead < c) & (X[:, c] == 0)))
                 for c in range(width)]
        masks = collinearity_masks(P)
        cands = down = [a & fresh[c] for a, c in zip(masks, lead.tolist())]
    for _level in range(k):
        children, nxt = [], []
        for row, cand in zip(rows, cands):
            for p in bit_indices(cand):
                children.append([p] + row)
                nxt.append(cand & down[p])
        rows, cands = children, nxt
    supports = [sorted(P.index[x] for x in subspace_points(
        Subspace(P.n, tuple(P.points[i] for i in row)), P.F)) for row in rows]
    order = sorted(range(len(rows)), key=supports.__getitem__)
    dtype = np.min_scalar_type(N)
    return (np.array([rows[i] for i in order], dtype=dtype).reshape(-1, k + 1),
            np.array([supports[i] for i in order], dtype=dtype).reshape(
                -1, theta(k, P.F.order)))


def contains_point(S: Subspace, pt, F: FieldSpec) -> bool:
    v = list(pt)
    for row in S.basis:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            c = v[lead]
            v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
    return not any(v)


def annihilator(S: Subspace, F: FieldSpec) -> tuple[tuple[int, ...], ...]:
    return nullspace(S.basis, S.ambient + 1, F)


def intersect(S: Subspace, T: Subspace, F: FieldSpec) -> Subspace | None:
    """Intersection via stacked dual constraints; None if empty."""
    rows = annihilator(S, F) + annihilator(T, F)
    basis = nullspace(rows, S.ambient + 1, F)
    if not basis:
        return None
    return Subspace(S.ambient, basis)


def count_kspaces_through(P: PolarSpace, k: int, anchor) -> int:
    """Exact count of singular k-spaces through a point or through a
    collinear point pair, by enumeration."""
    if isinstance(anchor[0], tuple):
        idxs = []
        for pt in anchor:
            if pt not in P.index:
                raise GeometryError(f"{pt} is not a point of {P!r}")
            idxs.append(P.index[pt])
        if len(idxs) == 2 and not P.collinear(anchor[0], anchor[1]):
            raise GeometryError("anchor pair is not collinear")
        need = set(idxs)
    else:
        if anchor not in P.index:
            raise GeometryError(f"{anchor} is not a point of {P!r}")
        need = {P.index[anchor]}
    return sum(1 for _S, sup in P.singular_kspaces_with_supports(k)
               if need.issubset(sup))


def is_blocking_set(P: PolarSpace, B, k: int):
    """(True, None) or (False, first k-space missed by B)."""
    idx = _as_index_set(P, B)
    for S, sup in P.singular_kspaces_with_supports(k):
        if idx.isdisjoint(sup):
            return False, S
    return True, None


def nucleus(P: PolarSpace):
    """The radical point of the polarized form of an even-order parabolic
    quadric; lies on every tangent hyperplane."""
    if P.family != "parabolic" or P.F.p != 2:
        raise GeometryError("nucleus is defined for parabolic quadrics, q even")
    rad = nullspace(P.form.bilinear_matrix, P.n + 1, P.F)
    assert len(rad) == 1
    return normalize_point(rad[0], P.F)


def find_ovoid(P: PolarSpace):
    """First ovoid in canonical order, by exact-cover backtracking:
    pick pairwise non-collinear points hitting every generator once."""
    gens = [set(sup) for _S, sup in
            P.singular_kspaces_with_supports(P.gen_dim)]
    adj = collinearity_masks(P)
    want = P.q ** 2 + 1

    def rec(chosen, blocked, hit):
        if len(hit) == len(gens):
            return sorted(chosen) if len(chosen) == want else None
        gi = min((i for i in range(len(gens)) if i not in hit),
                 key=lambda i: len(gens[i] - blocked))
        for x in sorted(gens[gi] - blocked):
            newly = {i for i in range(len(gens))
                     if i not in hit and x in gens[i]}
            if any(not gens[i].isdisjoint(chosen) for i in newly):
                continue
            got = rec(chosen | {x},
                      blocked | {x, *bit_indices(adj[x])}, hit | newly)
            if got is not None:
                return got
        return None

    return rec(set(), set(), set())


def _lines_from(lines, s):
    """The lines, sorted by support, whose support starts at point s."""
    lo = bisect_left(lines, s, key=lambda line: line[1][0])
    return lines[lo:bisect_right(lines, s, lo, key=lambda line: line[1][0])]


def find_spread(P: PolarSpace):
    """First spread in canonical order, by exact-cover backtracking over
    the singular lines; None if the space has no spread.  The lines are
    listed once: the search bisects them at every node."""
    lines = list(P.singular_kspaces_with_supports(1))
    n_pts = len(P.points)
    want = n_pts // (P.q + 1)

    def rec(covered, chosen):
        if len(chosen) == want:
            return list(chosen)
        # every point below the lowest uncovered one is covered, so a line
        # through it that misses the covered points starts at it
        lowest = next(i for i in range(n_pts) if i not in covered)
        for S, sup in _lines_from(lines, lowest):
            if covered.isdisjoint(sup):
                got = rec(covered | set(sup), chosen + [S])
                if got is not None:
                    return got
        return None

    return rec(set(), [])


def extract_spread(P: PolarSpace, cover):
    """Drop redundant cover lines, highest canonical index first,
    restarting after each removal; a spread if minimality lands there."""
    lines = sorted(set(cover))
    sups = {L: sup for L, sup in zip(lines, _line_supports(P, lines))}
    changed = True
    while changed:
        changed = False
        mult = [0] * len(P.points)
        for L in lines:
            for i in sups[L]:
                mult[i] += 1
        for L in reversed(lines):
            if all(mult[i] > 1 for i in sups[L]):
                lines.remove(L)
                changed = True
                break
    if is_spread(P, lines):
        return lines
    return None


def extract_ovoid(P: PolarSpace, blocking):
    """Drop redundant points of a generator-blocking set, highest index
    first; an ovoid if minimality lands on one."""
    pts = sorted(_as_index_set(P, blocking))
    gens = [set(sup) for _S, sup in
            P.singular_kspaces_with_supports(P.gen_dim)]
    changed = True
    while changed:
        changed = False
        chosen = set(pts)
        for x in reversed(pts):
            if all(len(g.intersection(chosen)) > 1
                   for g in gens if x in g):
                pts.remove(x)
                changed = True
                break
    if is_ovoid(P, pts):
        return pts
    return None


# The regular spread is PG(1,q^2) read over GF(q), with GF(q) arithmetic
# only: xi, a root of the least irreducible t^2 + bt + c, multiplies each
# coordinate pair (x0, x1) = x0 + x1 xi of GF(q)^4 as (-c x1, x0 - b x1),
# and each point of PG(1,q^2) is a line <v, xi v>.  Its reguli through a
# spread line are the Baer sublines through it.


def _times_xi(v, F: FieldSpec) -> tuple[int, ...]:
    """Multiplication by xi on each coordinate pair (x0, x1) = x0 + x1 xi,
    where xi is a root of the least irreducible t^2 + bt + c over F."""
    b, c = least_irreducible_binary_quadratic(F)
    out = []
    for x0, x1 in zip(v[::2], v[1::2]):
        out += [F.mul(F.neg(c), x1), F.sub(x0, F.mul(b, x1))]
    return tuple(out)


def _xi_line(v, F: FieldSpec) -> Subspace:
    """The line <v, xi v>: the GF(q^2)-point of v as a line of PG(3,q)."""
    return span([v, _times_xi(v, F)], F)


@lru_cache(maxsize=None)
def regular_spread(q: int) -> tuple[Subspace, ...]:
    """The q^2+1 points of PG(1,q^2) as pairwise skew lines <v, xi v>:
    v = (1, 0, b0, b1) in lexicographic order, then v = (0, 0, 1, 0)."""
    F = field_of_order(q)
    vs = [(1, 0, b0, b1) for b0 in F.elements() for b1 in F.elements()]
    return tuple(_xi_line(v, F) for v in vs + [(0, 0, 1, 0)])


def reguli_partition_through(L: Subspace, q: int) -> list[list[Subspace]]:
    """q reguli of the regular spread through its line L, pairwise sharing
    only L and jointly covering the spread.

    With u = L.basis[0] and w not on L, the spread lines other than L
    are those of z u + w for z in GF(q^2); the regulus for a1 takes the
    coset z = x0 + a1 xi of GF(q), a Baer subline through L."""
    if L not in regular_spread(q):
        raise GeometryError("line is not in the regular spread")
    F = field_of_order(q)
    u = L.basis[0]
    w = (1, 0, 0, 0) if u == (0, 0, 1, 0) else (0, 0, 1, 0)
    coeffs = [(x0, a1, 1) for a1 in F.elements() for x0 in F.elements()]
    V = combine(coeffs, [u, _times_xi(u, F), w], F).reshape(q, q, 4)
    return [sorted([L] + [_xi_line(v, F) for v in vs]) for vs in V.tolist()]


def dense(A: IncidenceMatrix) -> np.ndarray:
    """The incidence matrix A as a dense uint8 0/1 array."""
    out = np.zeros((A.n_rows, A.n_cols), dtype=np.uint8)
    for i, sup in enumerate(A.supports.tolist()):
        out[i, sup] = 1
    return out


def is_dual_codeword_by_row(c: CodewordVec, A: IncidenceMatrix):
    """`gfcode.is_dual_codeword` one row at a time with Python ints:
    (True, None) or (False, index of the first row over whose support c
    does not sum to 0 mod p)."""
    for i, row in enumerate(A.supports.tolist()):
        if sum(c.support.get(col, 0) for col in row) % A.p:
            return False, i
    return True, None


def rref_gf2_by_column(M: np.ndarray, n: int):
    """`gfcode._rref_gf2` one pivot column at a time, on the same packed
    uint64 rows M (consumed): each pivot is swapped into place and clears
    its column from every row it hits with one XOR.  Fast enough for the
    large codes that the scalar reference cannot reach."""
    pivots = []
    for c in range(n):
        r = len(pivots)
        nz = np.flatnonzero(M[r:, c >> 6] >> (c & 63) & 1)
        if not nz.size:
            continue
        M[[r, r + nz[0]]] = M[[r + nz[0], r]]
        hit = np.flatnonzero(M[:, c >> 6] >> (c & 63) & 1)
        hit = hit[hit != r]
        M[hit] ^= M[r]
        pivots.append(c)
    return np.unpackbits(M[:len(pivots)].view(np.uint8), axis=1, count=n,
                         bitorder="little"), pivots


def export_alist_by_line(A: IncidenceMatrix, path: str) -> str:
    """`gfcode.export_alist` one line at a time from Python lists: the
    column degrees and lists, then the rows, each padded with zeros."""
    supports = A.supports.tolist()
    col_deg = [0] * A.n_cols
    for sup in supports:
        for c in sup:
            col_deg[c] += 1
    cols = [[] for _ in range(A.n_cols)]
    for i, sup in enumerate(supports):
        for c in sup:
            cols[c].append(i + 1)
    max_col = max(col_deg) if col_deg else 0
    max_row = max((len(s) for s in supports), default=0)
    lines = [
        f"{A.n_cols} {A.n_rows}",
        f"{max_col} {max_row}",
        " ".join(map(str, col_deg)),
        " ".join(str(len(s)) for s in supports),
    ]
    for cl in cols:
        lines.append(" ".join(map(str, cl + [0] * (max_col - len(cl)))))
    for sup in supports:
        row = [c + 1 for c in sup]
        lines.append(" ".join(map(str, row + [0] * (max_row - len(row)))))
    data = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(data)
    return hashlib.sha256(data.encode()).hexdigest()


def macwilliams(weights, n: int, p: int) -> list[Fraction]:
    """A_0..A_n, the weight distribution of the length-n code C over GF(p)
    whose dual has the distribution weights ({i: B_i}), by the MacWilliams
    identity (MacWilliams and Sloane, The Theory of Error-Correcting Codes,
    1977, ch. 5): |C^perp| sum_j A_j y^j = sum_i B_i (1+(p-1)y)^(n-i) (1-y)^i.
    The sum is formed in Python integers as acc_i = acc_(i-1) (1+(p-1)y)
    + B_i (1-y)^i, so a distribution that is no dual's shows as a
    fraction."""
    def times(poly, c):  # poly * (1 + c y)
        return [x + c * y for x, y in zip(poly + [0], [0] + poly)]
    acc, power = [weights.get(0, 0)], [1]
    for i in range(1, n + 1):
        acc, power = times(acc, p - 1), times(power, -1)
        if weights.get(i):
            acc = [a + weights[i] * b for a, b in zip(acc, power)]
    return [Fraction(a, sum(weights.values())) for a in acc]

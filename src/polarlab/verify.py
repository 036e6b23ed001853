"""Geometric predicates: ovoids, spreads, line covers and their excess,
minihypers, and line-sum decompositions."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .gf import FieldSpec
from .projspace import GeometryError, incidence_with_hyperplanes
from .polarspace import PolarSpace


def _as_index_set(P: PolarSpace, pts):
    out = set()
    for x in pts:
        if isinstance(x, int):
            out.add(x)
        else:
            out.add(P.index[x])
    return out


def is_ovoid(P: PolarSpace, O) -> bool:
    """Every generator meets O exactly once."""
    idx = _as_index_set(P, O)
    return all(len(idx.intersection(sup)) == 1
               for _S, sup in P.singular_kspaces_with_supports(P.gen_dim))


def _line_supports(P: PolarSpace, lines):
    table = {S: sup for S, sup in P.singular_kspaces_with_supports(1)}
    out = []
    for L in lines:
        if L not in table:
            raise GeometryError("not a singular line of the space")
        out.append(table[L])
    return out


def is_spread(P: PolarSpace, lines) -> bool:
    """Pairwise disjoint lines partitioning the point set."""
    sups = _line_supports(P, lines)
    seen: set[int] = set()
    for sup in sups:
        if seen.intersection(sup):
            return False
        seen.update(sup)
    return len(seen) == len(P.points)


def excess_profile(P: PolarSpace, cover):
    """Point excesses mu(P)-1 of a line cover, the excess of every line of
    the space, and the total excess."""
    sups = _line_supports(P, cover)
    mult = [0] * len(P.points)
    for sup in sups:
        for i in sup:
            mult[i] += 1
    if any(m == 0 for m in mult):
        raise GeometryError("line set is not a cover")
    excess = {i: m - 1 for i, m in enumerate(mult)}
    line_excess = {S: sum(excess[i] for i in sup)
                   for S, sup in P.singular_kspaces_with_supports(1)}
    return excess, line_excess, sum(excess.values())


def find_good_line(P: PolarSpace, cover):
    """A line outside the cover all of whose points have excess zero."""
    q = P.q
    r = len(cover) - (q * q + 1)
    if not 0 <= r <= q:
        raise GeometryError(f"cover size {len(cover)} out of range")
    excess, _le, _tot = excess_profile(P, cover)
    in_cover = set(cover)
    for S, sup in P.singular_kspaces_with_supports(1):
        if S not in in_cover and all(excess[i] == 0 for i in sup):
            return S
    return None


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
    if len(lines) == P.q ** 2 + 1 and is_spread(P, lines):
        return lines
    return None


def extract_ovoid(P: PolarSpace, blocking):
    """Drop redundant points of a generator-blocking set, highest index
    first; an ovoid if minimality lands at q^2+1 points."""
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
    if len(pts) == P.q ** 2 + 1 and is_ovoid(P, pts):
        return pts
    return None


@dataclass
class WeightedPointSet:
    weights: dict  # point tuple -> positive integer
    ambient: int
    field: FieldSpec

    def __post_init__(self):
        self.weights = {pt: w for pt, w in self.weights.items() if w > 0}

    @property
    def total(self) -> int:
        return sum(self.weights.values())


def hyperplane_weights(W: WeightedPointSet) -> np.ndarray:
    """Total weight of W in each hyperplane of PG(n,q), in the canonical
    dual order."""
    pts = list(W.weights)
    wts = np.array([W.weights[p] for p in pts], dtype=np.int64)
    on = incidence_with_hyperplanes(pts, W.ambient, W.field)
    return (on * wts[:, None]).sum(axis=0)


def is_minihyper(W: WeightedPointSet, f: int, m: int) -> bool:
    """Total weight f and minimum hyperplane weight exactly m."""
    if W.total != f:
        return False
    hw = hyperplane_weights(W)
    return int(hw.min()) == m


def _lines_from(lines, s):
    """The lines, sorted by support, whose support starts at point s."""
    lo = bisect_left(lines, s, key=lambda line: line[1][0])
    return lines[lo:bisect_right(lines, s, lo, key=lambda line: line[1][0])]


def decompose_sum_of_lines(P: PolarSpace, W: WeightedPointSet):
    """Write a weight function on Q(4,q) as a sum of x singular lines,
    by peeling a fully-covered line and recursing; None if impossible."""
    q = P.q
    total = W.total
    if total % (q + 1):
        raise GeometryError(f"total weight {total} is not a multiple of q+1")
    lines = P.singular_kspaces_with_supports(1)
    w0 = {P.index[pt]: wt for pt, wt in W.weights.items()}

    def peel(w, x):
        if x == 0:
            return [] if not w else None
        # a fully covered line starts at a point of w
        for s in sorted(w):
            for S, sup in _lines_from(lines, s):
                if all(w.get(i, 0) > 0 for i in sup):
                    w2 = dict(w)
                    for i in sup:
                        w2[i] -= 1
                        if not w2[i]:
                            del w2[i]
                    rest = peel(w2, x - 1)
                    if rest is not None:
                        return [S] + rest
        return None

    return peel(w0, total // (q + 1))


def find_spread(P: PolarSpace):
    """First spread in canonical order, by exact-cover backtracking over
    the singular lines; None if the space has no spread."""
    lines = P.singular_kspaces_with_supports(1)
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

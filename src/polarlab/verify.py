"""Geometric predicates: ovoids, spreads, line covers and their excess,
minihypers, and line-sum decompositions.  One backtracking search peels
lines off a weight function at its lowest point (a spread decomposes the
all-ones weight); one descending minimality pass serves both extractions.
Each space's lines, as {line: support}, are tabled once, on first use;
the generators are read from their support array."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import FieldSpec
from .projspace import GeometryError, hyperplane_sums
from .polarspace import PolarSpace


def _point_index(P: PolarSpace, x) -> int:
    i = x if isinstance(x, int) else P.index.get(x)
    if i is None or not 0 <= i < len(P.points):
        raise GeometryError("not a point of the space")
    return i


def _as_index_set(P: PolarSpace, pts):
    return {_point_index(P, x) for x in pts}


@lru_cache(maxsize=None)
def _line_table(P: PolarSpace) -> dict:
    """{line: support} of the singular lines of P, in support order."""
    return dict(P.singular_kspaces_with_supports(1))


def is_ovoid(P: PolarSpace, O) -> bool:
    """Every generator meets O exactly once."""
    on = np.zeros(len(P.points), dtype=bool)
    on[list(_as_index_set(P, O))] = True
    gens = P.singular_kspaces_with_supports(P.gen_dim).supports
    return bool((on[gens].sum(axis=1) == 1).all())


def _line_supports(P: PolarSpace, lines):
    table = _line_table(P)
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


def _point_excess(P: PolarSpace, cover) -> dict:
    """Point excesses mu(P)-1 of a line cover, by point index."""
    mult = [0] * len(P.points)
    for sup in _line_supports(P, cover):
        for i in sup:
            mult[i] += 1
    if any(m == 0 for m in mult):
        raise GeometryError("line set is not a cover")
    return {i: m - 1 for i, m in enumerate(mult)}


def excess_profile(P: PolarSpace, cover):
    """Point excesses mu(P)-1 of a line cover, the excess of every line of
    the space, and the total excess."""
    excess = _point_excess(P, cover)
    line_excess = {S: sum(excess[i] for i in sup)
                   for S, sup in _line_table(P).items()}
    return excess, line_excess, sum(excess.values())


def find_good_line(P: PolarSpace, cover):
    """A line outside the cover all of whose points have excess zero."""
    q = P.q
    r = len(cover) - (q * q + 1)
    if not 0 <= r <= q:
        raise GeometryError(f"cover size {len(cover)} out of range")
    excess = _point_excess(P, cover)
    in_cover = set(cover)
    for S, sup in _line_table(P).items():
        if S not in in_cover and all(excess[i] == 0 for i in sup):
            return S
    return None


def _minimal(sets, n: int) -> list[int]:
    """Positions of the sets kept by one pass from the last set to the
    first, which drops a set when every element of range(n) in it lies in
    another set still kept.  Dropping only lowers multiplicities, so a set
    kept stays needed: this is the greedy that restarts after each drop."""
    mult = [0] * n
    for s in sets:
        for i in s:
            mult[i] += 1
    keep = []
    for j in reversed(range(len(sets))):
        if all(mult[i] > 1 for i in sets[j]):
            for i in sets[j]:
                mult[i] -= 1
        else:
            keep.append(j)
    return keep[::-1]


def extract_spread(P: PolarSpace, cover):
    """Drop redundant cover lines, highest canonical index first; a spread
    if minimality lands on one, of whatever size."""
    lines = sorted(set(cover))
    keep = _minimal(_line_supports(P, lines), len(P.points))
    lines = [lines[j] for j in keep]
    return lines if is_spread(P, lines) else None


def extract_ovoid(P: PolarSpace, blocking):
    """Drop redundant points of a generator-blocking set, highest index
    first; an ovoid if minimality lands on one, of whatever size."""
    pts = sorted(_as_index_set(P, blocking))
    gens = P.singular_kspaces_with_supports(P.gen_dim).supports
    through = [np.flatnonzero((gens == x).any(axis=1)).tolist() for x in pts]
    pts = [pts[j] for j in _minimal(through, len(gens))]
    return pts if is_ovoid(P, pts) else None


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


def is_minihyper(W: WeightedPointSet, f: int, m: int) -> bool:
    """Total weight f and minimum hyperplane weight exactly m."""
    pts, wts = list(W.weights), list(W.weights.values())
    return W.total == f and int(hyperplane_sums(pts, wts, W.ambient, W.field).min()) == m


@lru_cache(maxsize=None)
def _lines_by_first_point(P: PolarSpace) -> dict:
    """The singular lines as (line, support, support set), grouped by their
    first support point, in support order."""
    index = {}
    for S, sup in _line_table(P).items():
        index.setdefault(sup[0], []).append((S, sup, frozenset(sup)))
    return index


def decompose_sum_of_lines(P: PolarSpace, W: WeightedPointSet):
    """Write a weight function on the points of P as a sum of singular
    lines; None if impossible.  The first decomposition in the order of
    the lines through the lowest point, recursively, is returned."""
    q = P.F.order
    total = W.total
    if total % (q + 1):
        raise GeometryError(f"total weight {total} is not a multiple of q+1")
    index = _lines_by_first_point(P)
    w = {_point_index(P, pt): wt for pt, wt in W.weights.items()}

    def peel():
        # a line through the lowest point of w starts there, and one of
        # them is in every decomposition: no other branch is needed
        if not w:
            return []
        for S, sup, members in index.get(min(w), ()):
            if w.keys() >= members:
                for i in sup:
                    w[i] -= 1
                    if not w[i]:
                        del w[i]
                rest = peel()
                for i in sup:
                    w[i] = w.get(i, 0) + 1
                if rest is not None:
                    return [S] + rest
        return None

    return peel()


def find_spread(P: PolarSpace):
    """First spread in canonical order: the decomposition of the all-ones
    weight, whose lines are disjoint; None if the space has no spread."""
    if len(P.points) % (P.F.order + 1):
        return None
    ones = WeightedPointSet(dict.fromkeys(P.points, 1), P.n, P.F)
    return decompose_sum_of_lines(P, ones)

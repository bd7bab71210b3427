"""Reference copies of the covering digraph, and of the decomposition of an
``Arc`` into basic intervals that it is built from, kept for equivalence
tests only.

``cover_digraph`` builds it from ``Arc`` traversals: the image of each
basic interval is the arc between the successor images of its endpoints,
as ``patterns.arc`` traverses it, and J is a successor of I when that
traversal passes through J.  It shares with ``certify`` only the vertex
list and the digraph type, and reads no realization.

``cover_rows_from_pieces`` reads the same rows off a realization instead:
the image of a basic interval is the union of the integer images of its
pieces.  Its agreement with the rows of ``patterns._tables`` is the Markov
property of the canonical map.

``_interval_ends`` and ``_arc_masks`` are the earlier forms of the basic
intervals and of the k x k arc matrix, built by sorting the placements;
``patterns._descent`` derives both in one pass, and its descent vector
carries the matrix as ``down[a] ^ down[b]``.

``find_cascade`` is the full-scan cascade search: one breadth-first search
per self-loop vertex, every vertex scanned; ``certify._find_cascade`` stops
at the first vertex whose shortest return has length 2.
"""

import functools
import itertools
from operator import or_

from stardyn.certify import Cascade, CoverDigraph, basic_intervals
from stardyn.patterns import CENTER_INDEX, Arc, MarkedPoint, PatternError, StarPattern, arc


def _interval_ends(p: StarPattern) -> list[tuple[MarkedPoint, MarkedPoint]]:
    """The (inner, outer) ends of every basic interval, ordered by (branch,
    rank from the center): one per marked point, which is its outer end."""
    point = {e: i for i, e in enumerate(p.placements, start=1)}
    return [(point.get((b, r - 1), CENTER_INDEX), point[b, r]) for b, r in sorted(p.placements)]


def _arc_masks(p: StarPattern) -> list[list[int]]:
    """``masks[a][b]`` is the arc between marked points a and b as a
    bitmask of basic intervals: bit i stands for ``basic_intervals(p)[i]``,
    branch by branch outward from the center.  The intervals between a
    point of rank r and the center are the r low bits of its branch's
    block, and in a tree the arc between two points is the symmetric
    difference of their paths to the center."""
    index = {e: i for i, e in enumerate(sorted(p.placements))}  # as in ``basic_intervals``
    down = [0] + [((1 << r) - 1) << (index[b, r] - r + 1) for b, r in p.placements]
    return [[x ^ y for y in down] for x in down]


def basic_ids(self: Arc) -> frozenset[tuple[int, int]]:
    """Decomposition into basic intervals, as (branch, outer rank) ids."""
    ids = set()
    for x, y in itertools.pairwise(self.points):
        ids.add(_segment_id(self.pattern, x, y))
    return frozenset(ids)


def _segment_id(p: StarPattern, x: MarkedPoint, y: MarkedPoint) -> tuple[int, int]:
    # x, y adjacent marked points (one may be the center)
    if x == CENTER_INDEX:
        return (p.branch_of(y), p.rank_of(y))
    if y == CENTER_INDEX:
        return (p.branch_of(x), p.rank_of(x))
    bx, by = p.branch_of(x), p.branch_of(y)
    if bx != by:
        raise PatternError("segment endpoints straddle the center")
    return (bx, max(p.rank_of(x), p.rank_of(y)))


def arc_contains(outer: Arc, inner: Arc) -> bool:
    """Whether ``inner`` lies inside ``outer`` (same pattern required)."""
    if outer.pattern != inner.pattern:
        raise PatternError("arcs belong to different patterns")
    return basic_ids(inner) <= basic_ids(outer)


def cover_digraph(p):
    verts = tuple(basic_intervals(p))
    image_ids = [
        basic_ids(arc(p.successor(v.inner), p.successor(v.outer), p)) for v in verts
    ]
    adjacency = tuple(
        tuple(j for j, w in enumerate(verts) if (w.branch, w.outer_rank) in image_ids[i])
        for i in range(len(verts))
    )
    return CoverDigraph(p, verts, adjacency)


def cover_rows_from_pieces(m):
    """The image of every basic interval of the realization ``m`` as a
    bitmask in the layout of ``_arc_masks``: the union of the
    integer images ``m.images`` of the pieces in its cell of ``m.cells``."""
    offsets = list(itertools.accumulate(m.branch_lengths, initial=0))
    spans = [
        ((1 << (hi - lo)) - 1) << (offsets[q.dst] + lo) for q, (lo, hi) in zip(m.pieces, m.images)
    ]
    return [
        functools.reduce(or_, [spans[i] for i, _, _ in cell]) for row in m.cells for cell in row
    ]


def find_cascade(adjacency, ends):
    """The shortest cycle of length >= 2 through a self-loop vertex, ties
    broken by vertex order, as a ``Cascade`` with ``ends`` the endpoints
    of each vertex; None when there is none."""
    best = None
    for w, row in enumerate(adjacency):
        if w not in row:
            continue
        # breadth-first search for the shortest simple return w -> ... -> w
        parents = {j: w for j in row if j != w}
        frontier, found = list(parents), None
        while frontier and found is None:
            nxt = []
            for j in frontier:
                if w in adjacency[j]:
                    found = j
                    break
                for j2 in adjacency[j]:
                    if j2 != w and j2 not in parents:
                        parents[j2] = j
                        nxt.append(j2)
            frontier = nxt
        if found is None:
            continue
        path = [found]
        while path[-1] != w:
            path.append(parents[path[-1]])
        cycle = list(reversed(path)) + [w]  # w, ..., found, w
        m = len(cycle) - 1
        if best is None or m < best[0]:
            best = (m, w, cycle)
    if best is None:
        return None
    m, w, cycle = best
    return Cascade(ends[w], tuple(ends[i] for i in cycle), m)

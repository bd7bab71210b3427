"""Reference copy of the covering digraph built from ``Arc`` traversals,
kept for equivalence tests only.

The image of each basic interval is the arc between the successor images
of its endpoints, as ``patterns.arc`` traverses it, and J is a successor
of I when that traversal passes through J.  It shares with ``certify``
only the vertex list and the digraph type, and reads no realization.
"""

from stardyn.certify import CoverDigraph, basic_intervals
from stardyn.patterns import arc


def cover_digraph(p):
    verts = tuple(basic_intervals(p))
    image_ids = [
        arc(p.successor(v.inner), p.successor(v.outer), p).basic_ids() for v in verts
    ]
    adjacency = tuple(
        tuple(j for j, w in enumerate(verts) if (w.branch, w.outer_rank) in image_ids[i])
        for i in range(len(verts))
    )
    return CoverDigraph(p, verts, adjacency)

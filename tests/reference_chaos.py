"""Reference copy of the chaos-certificate search and replay in
``Fraction`` subtrees, kept for equivalence tests only.

Every arc is a ``Subtree`` of the realization, every image is computed
piece by piece with ``image_of_arc`` (both from ``reference_loop``),
containment compares segment endpoints, and "meets the open (u, v)" is a
positive-length overlap.  The ordering test reads positions off ``Arc``
traversals.  It shares with ``certify`` only the certificate type and the
theorem checks.
"""

import itertools

from reference_loop import image_of_arc, subtree_of_arc
from stardyn.certify import (
    CenterTheoremCase,
    Genscramble,
    InconsistencyError,
    _theorem,
    basic_intervals,
)
from stardyn.patterns import Arc, MarkedPoint, _tables, arc
from stardyn.plmap import realize


def position_of(self: Arc, x: MarkedPoint) -> int | None:
    """Traversal index of x on the arc (arclength from a), or None."""
    try:
        return self.points.index(x)
    except ValueError:
        return None


def _overlaps_open_segment(tree, branch, lo, hi):
    """Whether the subtree meets the open interval (lo, hi) on branch."""
    return any(
        b == branch and max(slo, lo) < min(shi, hi) for b, slo, shi in tree.segments
    )


def _iterate_index(p, i, t):
    for _ in range(t):
        i = p.successor(i)
    return i


def ordering_holds(p, u, v, t):
    """g(v) < u < v <= g(u) read along the arc from g(u) to g(v), by the
    traversal positions of ``Arc``."""
    gu, gv = _iterate_index(p, u, t), _iterate_index(p, v, t)
    if gu == gv:
        return False
    span = arc(gu, gv, p)
    pos_u, pos_v = position_of(span, u), position_of(span, v)
    if pos_u is None or pos_v is None:
        return False
    return pos_v < pos_u < len(span.points) - 1


def find_genscramble(p, max_iterate=2):
    if max_iterate < 1:
        raise ValueError("max_iterate must be positive")
    m = realize(p)
    theorem = _theorem(_tables(p))
    if theorem is not None:
        middle = (theorem.back,) if isinstance(theorem, CenterTheoremCase) else theorem.chain
        cert = Genscramble(1, theorem.u, theorem.v, (theorem.span,) + middle + (theorem.span,))
        if not verify(p, m, cert):
            raise InconsistencyError(f"theorem-derived {cert!r} fails its replay")
        return cert
    pairs = [
        (a, b)
        for a in range(p.k)
        for b in range(a + 1, p.k)
        if not arc(a, b, p).through_center
    ]
    trees = {e: subtree_of_arc(m, arc(*e, p)) for e in pairs}
    cap = 2 * len(basic_intervals(p)) + 2
    for t in range(1, max_iterate + 1):
        images = {e: image_of_arc(m, arc(*e, p), power=t) for e in pairs}
        for u in range(p.k):
            for v in range(p.k):
                if u == v or tuple(sorted((u, v))) not in trees:
                    continue
                if not ordering_holds(p, u, v, t):
                    continue
                loop = _loop_search(p, m, u, v, t, pairs, trees, images, cap)
                if loop is not None:
                    return Genscramble(t, u, v, loop)
    return None


def _loop_search(p, m, u, v, t, pairs, trees, images, cap):
    b0 = tuple(sorted((u, v)))
    gv = _iterate_index(p, v, t)
    first_region = subtree_of_arc(m, arc(gv, u, p)) if gv != u else None
    b0_image = images[b0]
    ((ubranch, ulo, uhi),) = trees[b0].segments
    start = [
        e
        for e in pairs
        if first_region is not None
        and first_region.contains(trees[e])
        and b0_image.contains(trees[e])
    ]
    parents = {e: None for e in start}
    frontier = start
    depth = 1
    while frontier and depth <= cap:
        for e in frontier:
            if not _overlaps_open_segment(trees[e], ubranch, ulo, uhi):
                closing = next(
                    (f for f in pairs if images[e].contains(trees[f])
                     and trees[f].contains(trees[b0])),
                    None,
                )
                if closing is not None:
                    path = [closing, e]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])
                    path.append(b0)
                    return tuple(reversed(path))
        nxt = []
        for e in frontier:
            for f in pairs:
                if f not in parents and images[e].contains(trees[f]):
                    parents[f] = e
                    nxt.append(f)
        frontier = nxt
        depth += 1
    return None


def verify_genscramble(p, cert):
    return verify(p, realize(p), cert)


def verify(p, m, cert):
    """The replay of ``cert`` on the realization ``m`` of ``p``."""
    t, u, v = cert.iterate, cert.u, cert.v
    if not cert.loop or cert.loop[0] != tuple(sorted((u, v))) and cert.loop[0] != (u, v):
        return False
    if not ordering_holds(p, u, v, t):
        return False
    arcs = [arc(*e, p) for e in cert.loop]
    if arc(u, v, p).through_center:
        return False
    if any(a.through_center for a in arcs[1:]):
        return False
    trees = [subtree_of_arc(m, a) for a in arcs]
    for s, d in itertools.pairwise(range(len(arcs))):
        if not image_of_arc(m, arcs[s], power=t).contains(trees[d]):
            return False
    if not trees[-1].contains(trees[0]):
        return False
    gv = _iterate_index(p, v, t)
    if gv == u or not subtree_of_arc(m, arc(gv, u, p)).contains(trees[1]):
        return False
    ((b, lo, hi),) = subtree_of_arc(m, arc(u, v, p)).segments
    if _overlaps_open_segment(trees[-2], b, lo, hi):
        return False
    return True

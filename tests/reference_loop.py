"""Reference copy of the ``Fraction`` subtree images and of the covering
loop point search, kept for equivalence tests only.

An arc is a ``Subtree`` of the realization: closed branch segments with
``Fraction`` ends.  Its image is computed piece by piece, and containment
compares segment ends.  ``loop_point`` subdivides the loop's first arc by
forward ``Fraction`` intervals, constrained at each step to the next arc,
keeps degenerate (single point) cylinders, and verifies every candidate
by iterating the map.  It relies on nothing from ``plmap`` but its data
types, the ``Piece`` table and ``PLMap.iterate``; its fixed-point rule is
the ``Fraction`` copy in ``reference_scan``.
"""

from dataclasses import dataclass
from fractions import Fraction

from reference_scan import _IDENTITY, _affine_fixed_point
from stardyn.patterns import Arc
from stardyn.plmap import (
    CENTER,
    InconsistencyError,
    LoopError,
    PLMap,
    RationalPoint,
    make_point,
)


@dataclass(frozen=True)
class Subtree:
    """A closed connected union of branch segments, e.g. the exact image
    of an arc.  Segments are (branch, lo, hi) with lo < hi; when two or
    more branches appear, every segment starts at the center."""

    segments: tuple[tuple[int, Fraction, Fraction], ...]

    @property
    def touches_center(self) -> bool:
        return any(lo == 0 for _, lo, _ in self.segments)

    def contains(self, other: "Subtree") -> bool:
        for b, lo, hi in other.segments:
            if not any(
                sb == b and slo <= lo and hi <= shi
                for sb, slo, shi in self.segments
            ):
                return False
        return True

    def contains_point(self, pt: RationalPoint) -> bool:
        if pt == CENTER:
            return self.touches_center
        return any(
            b == pt.branch and lo <= pt.coord <= hi
            for b, lo, hi in self.segments
        )


def subtree_from_segments(segs: dict[int, tuple[Fraction, Fraction]]) -> Subtree:
    cleaned = {b: (lo, hi) for b, (lo, hi) in segs.items() if lo < hi}
    if len(cleaned) > 1 and any(lo != 0 for lo, _ in cleaned.values()):
        raise ValueError("disconnected subtree: multi-branch segments must reach the center")
    return Subtree(tuple(sorted((b, lo, hi) for b, (lo, hi) in cleaned.items())))


def _pieces_on(m: PLMap, b: int):
    """The (index, piece) pairs of branch b, in the order of ``pieces``."""
    return [(idx, q) for idx, q in enumerate(m.pieces) if q.src == b]


def subtree_of_arc(m: PLMap, a: Arc) -> Subtree:
    """The arc as a geometric subtree of the realization."""
    x, y = sorted((m.marked_point(a.a), m.marked_point(a.b)))
    if x.branch in (0, y.branch):
        return subtree_from_segments({y.branch: (x.coord, y.coord)})
    return subtree_from_segments(
        {x.branch: (Fraction(0), x.coord), y.branch: (Fraction(0), y.coord)}
    )


def image_of_subtree(m: PLMap, s: Subtree) -> Subtree:
    """Exact image of a subtree under one application of the map."""
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for b, lo, hi in s.segments:
        for _, q in _pieces_on(m, b):
            olo, ohi = max(lo, q.lo), min(hi, q.hi)
            if olo >= ohi:
                continue
            y1, y2 = q.slope * olo + q.offset, q.slope * ohi + q.offset
            ilo, ihi = (y1, y2) if y1 <= y2 else (y2, y1)
            if q.dst in out:
                plo, phi = out[q.dst]
                out[q.dst] = (min(plo, ilo), max(phi, ihi))
            else:
                out[q.dst] = (ilo, ihi)
    return subtree_from_segments(out)


def image_of_arc(m: PLMap, a: Arc, power: int = 1) -> Subtree:
    """Exact image of an arc under ``power`` applications of the map."""
    s = subtree_of_arc(m, a)
    for _ in range(power):
        s = image_of_subtree(m, s)
    return s


def loop_point(m: PLMap, loop: list[Arc]) -> RationalPoint:
    """A point realizing a covering loop: given arcs I_0, ..., I_p with
    f(I_{i-1}) containing I_i, the center interior to no arc after the
    first, and I_p containing I_0, returns x with f^p(x) = x and
    f^i(x) in I_i, found by exact forward subdivision constrained to the
    loop (equivalent to the nested-preimage shrink construction).
    """
    if len(loop) == 1:
        # a single self-covered arc is the one-step loop I, I
        loop = [loop[0], loop[0]]
    if len(loop) < 2:
        raise LoopError("a loop needs at least one arc")
    for a in loop:
        if a.pattern != m.pattern:
            raise LoopError("loop arcs belong to a different pattern")
    for i, a in enumerate(loop):
        if i >= 1 and a.through_center:
            raise LoopError(f"arc {i} has the center in its interior")
    targets = [subtree_of_arc(m, a) for a in loop]
    for i in range(1, len(loop)):
        if not image_of_subtree(m, targets[i - 1]).contains(targets[i]):
            raise LoopError(f"covering fails at step {i}: f(I_{i - 1}) does not contain I_{i}")
    if not targets[-1].contains(targets[0]):
        raise LoopError("last arc does not contain the first")

    p = len(loop) - 1
    candidates: list[RationalPoint] = []
    # constrained cylinders; degenerate (single point) cylinders are kept
    # so orbits passing exactly through the center are not lost
    stack = []
    for b, lo, hi in targets[0].segments:
        stack.append((0, b, lo, hi, 1, 0, b))
    while stack:
        depth, b0, lo, hi, s, d, cur = stack.pop()
        if depth == p:
            t = _affine_fixed_point(s, d, b0, cur, lo, hi)
            if t is not None:
                candidates.append(make_point(b0, lo if t is _IDENTITY else t))
            continue
        ilo, ihi = (s * lo + d, s * hi + d) if s >= 0 else (s * hi + d, s * lo + d)
        tb, tlo, thi = _single_segment(targets[depth + 1])
        for _, q in _pieces_on(m, cur):
            olo, ohi = max(ilo, q.lo), min(ihi, q.hi)
            if olo > ohi:
                continue
            # constrain the next point to lie in the target arc
            if q.dst == tb:
                y1, y2 = q.slope * olo + q.offset, q.slope * ohi + q.offset
                ylo, yhi = (y1, y2) if y1 <= y2 else (y2, y1)
                clo, chi = max(ylo, tlo), min(yhi, thi)
            elif tlo == 0:
                # the target touches the center; a crossing at exactly 0 counts
                y1, y2 = q.slope * olo + q.offset, q.slope * ohi + q.offset
                ylo, yhi = (y1, y2) if y1 <= y2 else (y2, y1)
                clo, chi = (Fraction(0), Fraction(0)) if ylo <= 0 <= yhi else (Fraction(1), Fraction(0))
            else:
                continue
            if clo > chi:
                continue
            ns, nd = q.slope * s, q.slope * d + q.offset
            t1, t2 = (clo - nd) / ns, (chi - nd) / ns
            nlo, nhi = (t1, t2) if t1 <= t2 else (t2, t1)
            nlo, nhi = max(nlo, lo), min(nhi, hi)
            if nlo > nhi:
                continue
            stack.append((depth + 1, b0, nlo, nhi, ns, nd, q.dst))
    for pt in sorted(set(candidates)):
        if m.iterate(pt, p) != pt:
            continue
        ok = all(
            targets[i].contains_point(m.iterate(pt, i)) for i in range(p + 1)
        )
        if ok:
            return pt
    raise InconsistencyError("verified loop yielded no fixed point — this is a bug")


def _single_segment(s: Subtree) -> tuple[int, Fraction, Fraction]:
    if len(s.segments) != 1:
        raise LoopError("loop arcs after the first must lie in one branch")
    return s.segments[0]

"""Reference copies of the realization and of the exhaustive
periodic-point scan in ``Fraction`` arithmetic, kept for equivalence tests
only.

``realize`` builds the piece table from ``Fraction`` marked-point
coordinates, sorts it by (src, lo) and reads the piece graph off the
``Fraction`` ends.  The scan subdivides cylinders by intersecting
their images with every piece of the current branch, solves the
fixed-point equation on the cylinder's domain, locates a point's piece by
a linear scan of its branch and checks least periods divisor by divisor.
It relies on nothing from ``plmap`` but its data types, the ``Piece``
table, and the cap reader; the pattern's table comes from
``patterns._tables``, which validates it.

``walk_cylinders`` is the stream the tests compare against that
reference: the cylinders of the integer piece-graph walks of
``plmap._walks``.  ``oracle_work`` reads the oracle's cylinder-cap count
off that full tree.
"""

import math
from fractions import Fraction

from stardyn.patterns import CENTER_INDEX, _Record, _tables
from stardyn.plmap import (
    CENTER,
    CylinderCapExceeded,
    DomainError,
    InconsistencyError,
    PeriodicWitness,
    Piece,
    PLMap,
    RationalPoint,
    ScanResult,
    _walks,
    cylinder_cap,
    make_point,
)

_IDENTITY = "identity"


class Cylinder(_Record):
    """A maximal interval on which the p-th iterate is a single affine map:
    t in [lo, hi] on branch ``b0`` maps to slope*t + offset on ``branch``."""

    b0: int
    lo: Fraction
    hi: Fraction
    slope: int
    offset: int
    branch: int
    itinerary: tuple[int, ...]


def _domain(m: PLMap, s: int, d: int, last: int) -> tuple[Fraction, Fraction]:
    """The cylinder [lo, hi] of a walk: the preimage under t -> s*t + d of
    the image of its last piece."""
    ilo, ihi = m.images[last]
    t1, t2 = Fraction(ilo - d, s), Fraction(ihi - d, s)
    return (t1, t2) if s > 0 else (t2, t1)


def walk_cylinders(m: PLMap, p: int, cap: int | None = None):
    """Depth-first stream of the monotone cylinders of the p-th iterate.
    Raises CylinderCapExceeded when more than the cap are expanded (env
    STARDYN_CYLINDER_CAP overrides the default of 10**6)."""
    for b0, s, d, last, path, _ in _walks(m, p, cap):
        lo, hi = _domain(m, s, d, last)
        yield Cylinder(b0, lo, hi, s, d, m.pieces[last].dst, tuple(path))


def _marked_point(p, i):
    if i == CENTER_INDEX:
        return CENTER
    return RationalPoint(p.branch_of(i), Fraction(p.rank_of(i)))


def realize(p):
    """Each basic interval [r-1, r] maps arclength-linearly onto the arc
    between its endpoints' images, split at the preimage of the center
    when that arc crosses it."""
    tables = _tables(p)
    lengths = [0] + [p.branch_size(b) for b in range(1, p.n + 1)]
    pieces = []
    for b in range(1, p.n + 1):
        chain = (CENTER_INDEX,) + p.branch_points(b)
        for r in range(1, len(chain)):
            inner, outer = chain[r - 1], chain[r]
            a_img = _marked_point(p, p.successor(inner))
            b_img = _marked_point(p, p.successor(outer))
            lo, hi = Fraction(r - 1), Fraction(r)
            if a_img.branch == b_img.branch or a_img == CENTER or b_img == CENTER:
                dst = b_img.branch if a_img == CENTER else a_img.branch
                slope = int(b_img.coord - a_img.coord)
                offset = int(a_img.coord - slope * (r - 1))
                pieces.append(Piece(b, lo, hi, dst, slope, offset))
            else:
                total = int(a_img.coord + b_img.coord)
                split = lo + Fraction(int(a_img.coord), total)
                down_offset = int(a_img.coord + (r - 1) * total)
                pieces.append(Piece(b, lo, split, a_img.branch, -total, down_offset))
                pieces.append(Piece(b, split, hi, b_img.branch, total, -down_offset))
    pieces.sort(key=lambda q: (q.src, q.lo))
    return PLMap(p, tuple(lengths), tuple(pieces), *_piece_graph(pieces, lengths), tables)


def _piece_graph(pieces, lengths):
    """``(images, successors, cells)`` of a piece list sorted by (src, lo),
    read off the ``Fraction`` ends of each piece."""
    cells = [[[] for _ in range(length)] for length in lengths]
    images = []
    for idx, q in enumerate(pieces):
        cells[q.src][int(q.lo)].append((idx, q.hi.numerator, q.hi.denominator))
        ends = sorted(q.slope * t + q.offset for t in (q.lo, q.hi))
        if any(y.denominator != 1 for y in ends):
            raise InconsistencyError(f"piece {idx} has a non-integer image endpoint")
        images.append(tuple(map(int, ends)))
    successors = tuple(
        tuple(i for cell in cells[q.dst][ilo:ihi] for i, _, _ in cell)
        for q, (ilo, ihi) in zip(pieces, images)
    )
    return tuple(images), successors, tuple(tuple(map(tuple, row)) for row in cells)


def evaluate(m, x):
    """f(x) by a linear scan of the pieces of x's branch."""
    if x == CENTER:
        return m.marked_point(1 % m.pattern.k)
    if not 1 <= x.branch <= m.pattern.n or not 0 <= x.coord <= m.branch_lengths[x.branch]:
        raise DomainError(f"{x} is outside the realized star")
    for q in m.pieces:
        if q.src == x.branch and q.lo <= x.coord <= q.hi:
            return make_point(q.dst, q.slope * x.coord + q.offset)
    raise DomainError(f"{x} is outside the realized star")


def iterate(m, x, steps):
    for _ in range(steps):
        x = evaluate(m, x)
    return x


def least_period_is(m, pt, p):
    """The divisor rule: no proper divisor d has f^d(pt) = pt, and f^p does."""
    for d in range(1, p):
        if p % d == 0 and iterate(m, pt, d) == pt:
            return False
    return iterate(m, pt, p) == pt


def _on_center_orbit(m, pt):
    if pt == CENTER:
        return True
    if pt.coord.denominator != 1:
        return False
    return any(
        m.pattern.placements[i - 1] == (pt.branch, int(pt.coord)) for i in range(1, m.pattern.k)
    )


def _affine_fixed_point(s, d, b0, cur, lo, hi):
    if s == 1:
        if d != 0:
            return None
        if cur == b0:
            return _IDENTITY
        return Fraction(0) if lo <= 0 <= hi else None
    t = Fraction(d, 1 - s)
    return t if lo <= t <= hi and (cur == b0 or t == 0) else None


def iter_cylinders(m, p, cap=None):
    """Depth-first cylinders of f^p, subdividing each image by the pieces
    of its branch in ``Fraction`` arithmetic."""
    if p < 1:
        raise ValueError("period must be positive")
    limit = cylinder_cap(cap)
    count = 0
    stack = [
        (1, q.src, q.lo, q.hi, q.slope, q.offset, q.dst, (idx,))
        for idx, q in reversed(list(enumerate(m.pieces)))
    ]
    while stack:
        depth, b0, lo, hi, s, d, cur, itin = stack.pop()
        count += 1
        if count > limit:
            raise CylinderCapExceeded(limit)
        if depth == p:
            yield Cylinder(b0, lo, hi, s, d, cur, itin)
            continue
        ilo, ihi = (s * lo + d, s * hi + d) if s > 0 else (s * hi + d, s * lo + d)
        for idx, q in enumerate(m.pieces):
            if q.src != cur:
                continue
            olo, ohi = max(ilo, q.lo), min(ihi, q.hi)
            if olo >= ohi:
                continue
            t1, t2 = (olo - d) / s, (ohi - d) / s
            nlo, nhi = (t1, t2) if t1 <= t2 else (t2, t1)
            stack.append(
                (depth + 1, b0, nlo, nhi, q.slope * s, q.slope * d + q.offset,
                 q.dst, itin + (idx,))
            )


def _identity_representative(m, p, b0, lo, hi, itin):
    bad = set()
    for dd in range(1, p):
        if p % dd:
            continue
        ds, doff, dcur = 1, 0, b0
        for idx in itin[:dd]:
            q = m.pieces[idx]
            ds, doff, dcur = q.slope * ds, q.slope * doff + q.offset, q.dst
        t = _affine_fixed_point(ds, doff, b0, dcur, lo, hi)
        if t is _IDENTITY:
            return None
        if t is not None:
            bad.add(t)
    steps = len(bad) + 2
    for j in range(steps + 1):
        t = lo + (hi - lo) * Fraction(j, steps)
        if t not in bad:
            if not least_period_is(m, make_point(b0, t), p):
                raise InconsistencyError(f"identity cylinder point {t} lacks least period {p}")
            return t
    raise InconsistencyError("identity cylinder without a representative")


def oracle_scan(m, p, cap=None, first_only=False):
    """The scan over ``iter_cylinders`` above, with the same result fields,
    order and early exits as ``plmap.oracle_scan``."""
    found, seen = [], set()

    def emit(pt, itin):
        if pt in seen:
            return
        seen.add(pt)
        if least_period_is(m, pt, p):
            found.append(PeriodicWitness(pt, p, itin, _on_center_orbit(m, pt)))

    cylinders = 0
    for c in iter_cylinders(m, p, cap=cap):
        cylinders += 1
        t = _affine_fixed_point(c.slope, c.offset, c.b0, c.branch, c.lo, c.hi)
        if t is _IDENTITY:
            t = _identity_representative(m, p, c.b0, c.lo, c.hi, c.itinerary)
            if t is not None:
                pt = make_point(c.b0, t)
                fam = PeriodicWitness(pt, p, c.itinerary, _on_center_orbit(m, pt))
                if fam.point not in seen:
                    found.append(fam)
                return ScanResult(tuple(found), cylinders, fam, False)
        elif t is not None:
            emit(make_point(c.b0, t), c.itinerary)
        if found and first_only:
            return ScanResult(tuple(found), cylinders, None, False)
    found.sort(key=lambda w: (w.point.branch, w.point.coord))
    return ScanResult(tuple(found), cylinders, None, True)


def oracle_work(m, p, cylinders, first_only, scan):
    """The cylinder-cap count of the ``plmap.oracle_scan`` call that gave
    ``scan``, read off ``cylinders``, every cylinder of the p-th iterate in
    depth-first order, by the rules the oracle states and without its
    tables or its counter.  A prefix of a walk is alive at p = k, and at
    any other p when some walk through it ends at an image that contains,
    on the same branch, the basic interval of its first piece.  The oracle
    pops a prefix whose proper prefixes it expanded, in a full listing at
    p != k only a prenecklace (no suffix less than the prefix of its
    length), and expands it if it is alive.  Each expanded prefix counts
    one, and each expanded Lyndon walk of a listing p more, for the orbit
    listed, times the machine words of its slope.  An incomplete scan
    counts up to the walk it stopped at."""
    lyndon = not first_only and p != m.pattern.k
    stop = None if scan.complete else (scan.family or scan.witnesses[-1]).itinerary
    alive = set()
    for c in cylinders:
        j = math.floor(c.lo)
        ylo, yhi = sorted((c.slope * c.lo + c.offset, c.slope * c.hi + c.offset))
        if p == m.pattern.k or c.branch == c.b0 and ylo <= j and j + 1 <= yhi:
            alive.update(c.itinerary[:i] for i in range(1, p + 1))
    expanded, count = {(): True}, 0
    for c in cylinders:
        w = c.itinerary
        for i in range(1, p + 1):
            u = w[:i]
            if u not in expanded:
                expanded[u] = (
                    expanded[w[: i - 1]]
                    and u in alive
                    and (not lyndon or all(u[j:] >= u[: i - j] for j in range(1, i)))
                )
                count += expanded[u]
        if lyndon and expanded[w] and all(w[j:] + w[:j] > w for j in range(1, p)):
            count += p * (1 + abs(c.slope).bit_length() // 64)
        if w == stop:
            break
    return count

"""Exact piecewise-linear realization of a pattern and its periodic-point
oracle.

The canonical realization puts the orbit point of rank r at coordinate r
on its branch and connects the dots: each basic interval is mapped
arclength-linearly onto the arc between its endpoint images, splitting at
the preimage of the center when the image crosses it.  Marked points sit
at integer coordinates and every basic interval has length one, so every
piece has integer slope and offset; compositions of pieces stay integer
and only interval endpoints ever need fractions.  All arithmetic is
exact.  A realized branch is as long as its number of marked points,
which sit at 1 up to that length, and 0 is the center: every integer
coordinate on a realized branch is a marked point, so a point lies on the
center's orbit iff its coordinate is an integer.

The map is Markov over its pieces: each piece lies in one basic interval
and maps onto a whole union of basic intervals, so ``realize`` records
every piece's integer image and its successors (the pieces inside that
image) once.  It is built on, and carries, the pattern's table
(``patterns._tables``: the one validation, the basic intervals and the
cover rows).  A cylinder of the p-th iterate is then a walk of length p
in this piece graph: it maps onto the image of its last piece, and its
composite slope and offset stay integers.  The exhaustive oracle walks
the graph in integers and solves every fixed point by one integer rule
(``_fixed_point``), as a reduced numerator and denominator.  Points are
deduplicated and sorted in integers (``_scan``), the points of one orbit
share one walk, and a point's ``Fraction`` and itinerary are built only
with its record (``_listed``); ``stardyn oracle`` writes its rows from the
integers and builds no record.  Evaluating an arbitrary point locates its
piece in integers by a per-branch table indexed by basic interval.

A walk's cylinder lies in the basic interval [j, j+1] of its first piece
and maps bijectively onto the integer image [ilo, ihi] of its last.  A
fixed point off the integers therefore lies inside both, so the image is
on the same branch and contains [j, j+1]; conversely such a walk always
has a fixed point, as its cylinder maps onto a superset of itself.  A walk
whose image shares only an end with [j, j+1], or only holds the center, can
fix only an integer point, and every integer point is a marked point, of
least period k.  An identity cylinder equals its image, which is then
[j, j+1].  So at every period but k the oracle walks only into subtrees
where some walk's image covers its first interval, and every walk it
solves has a fixed point.  At period k, where the marked points are
listed, it walks the whole tree.  The oracle counts the walks of every
subtree it skips, so cylinder counts are those of the full tree, while
the cap counts only the nodes it expands and the points it lists.  The
skip table is charged to the cap apart, by the size of its counts
(``_closing``).

A least period is read off the walk's word.  An integer fixed point is
a marked point, of least period k.  A fixed point x off the integers,
like its whole orbit, lies on no piece end (split points map to the
center, so are not periodic), so it has one walk w of length p and is
w's one fixed point unless w's cylinder is an identity one.  If w is its
own rotation by a proper divisor j of p, f^j(x) is w's fixed point too,
so it is x; if x has least period j < p, w is u^(p/j) for its walk u of
length j.  So x has least period p iff w is primitive, equal to none of
its proper rotations.

An identity walk's composite t -> t maps its cylinder onto the image of
its last piece, so the cylinder is that image.  Its composite slope is
+1, so every piece has slope +-1 (a split piece's slope is at least 2 in
size) and is a whole basic interval mapped onto one: the cylinder is a
basic interval I0 = [ilo, ihi] whose ends, marked points, f^p fixes, so
k | p, f^k is the identity on I0, and the walk is u^(p/k) for the walk u
of its first k pieces.  At p != k it is not primitive.  At p = k the
inner end ilo is a marked point, of least period k, so no proper prefix
of the walk, of length d < k, is the identity on I0, as it would fix ilo
after d steps.  So ilo is a point of least period k in the family, and
the oracle reports it as the family's representative, read off
``images``.

A full listing at p != k solves one walk per orbit: the orbit's points
have the rotations of its primitive walk, of which exactly one is a
Lyndon word (the edge shift's orbits are its primitive necklaces), and
it replays each orbit in integers.  ``first_witness`` and period k keep
the walk-by-walk scan.  At a period that k does not divide, the scan
checks its listing against the count of the covering digraph's closed
walks (``_walk_traces``, ``_period_counts``), so every listing, the
public ones included, raises InconsistencyError when the two disagree.

Patterns may leave branches empty; those are not realized.  A continuous
extension constant equal to f(center) exists on an empty branch and adds
no periodic points, so the oracle's completeness is unaffected.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import or_

from .patterns import (
    CENTER_INDEX,
    Arc,
    MarkedPoint,
    StarPattern,
    _image,
    _Record,
    _Tables,
    _tables,
)

DEFAULT_CYLINDER_CAP = 10**6
_CAP_ENV = "STARDYN_CYLINDER_CAP"


class DomainError(ValueError):
    """Point outside the realized star."""


class OracleError(RuntimeError):
    pass


class CylinderCapExceeded(OracleError):
    def __init__(self, cap: int):
        super().__init__(f"cylinder cap {cap} exceeded")
        self.cap = cap

    def __reduce__(self):
        return (type(self), (self.cap,))


class UncountablePeriodicSet(OracleError):
    """Some iterate is the identity on a whole interval, so the set of
    points of this least period is uncountable and cannot be listed.
    ``witness`` is one representative."""

    def __init__(self, period: int, witness: "PeriodicWitness"):
        super().__init__(
            f"uncountably many points of least period {period}; "
            f"one representative is {witness.point}"
        )
        self.period = period
        self.witness = witness

    def __reduce__(self):
        return (type(self), (self.period, self.witness))


class LoopError(ValueError):
    """Input to loop_point is not a covering loop."""


class InconsistencyError(RuntimeError):
    """Two exact derivations of the same fact disagree, e.g. a certificate
    claims a period the exact oracle refutes.  This is always a bug, never
    a property of the pattern."""


class RationalPoint(_Record, order=True):
    """A point of the star: branch index (0 for the center) and exact
    coordinate in rank units.  coordinate 0 is the center and always
    carries branch 0."""

    branch: int
    coord: Fraction


CENTER = RationalPoint(0, Fraction(0))


def make_point(branch: int, coord: Fraction | int) -> RationalPoint:
    c = Fraction(coord)
    if c == 0:
        return CENTER
    return RationalPoint(branch, c)


class Piece(_Record):
    """One affine piece: [lo, hi] on src maps to slope*t + offset on dst."""

    src: int
    lo: Fraction
    hi: Fraction
    dst: int
    slope: int
    offset: int


class PeriodicWitness(_Record):
    """A periodic point with its least period, its itinerary of pieces and
    whether it lies on the center's orbit."""

    point: RationalPoint
    period: int
    itinerary: tuple[int, ...]
    on_center_orbit: bool


class ScanResult(_Record):
    """Raw outcome of a cylinder scan for one period.

    ``family`` is a representative of an interval of least-period-p points
    when one exists (the scan stops there and ``complete`` is False).
    ``cylinders`` counts every walk of the full tree up to where the scan
    stopped, the walks the oracle skips included.
    """

    witnesses: tuple[PeriodicWitness, ...]
    cylinders: int
    family: PeriodicWitness | None
    complete: bool


class PLMap(_Record, hidden=("images", "successors", "cells", "tables")):
    """The canonical PL realization of a pattern.

    ``branch_lengths[b]`` is the number of orbit points on branch b (the
    realized length); ``pieces`` partition every occupied branch and each
    maps into a single closed branch.  They are ordered by (src, lo), so
    the pieces of one branch have consecutive indices.

    The piece graph: ``images[i]`` is the integer image ``(ilo, ihi)`` of
    piece i on its ``dst``, and ``successors[i]`` the indices of the
    pieces inside it, in increasing order.  ``cells[b][j]`` lists the
    pieces of basic interval [j, j+1] of branch b as (index, numerator,
    denominator of the piece's right end).  ``tables`` is the pattern's
    table (``patterns._tables``) that the realization is built on.  These
    four derived fields are left out of ``repr`` and ``==``.
    """

    pattern: StarPattern
    branch_lengths: tuple[int, ...]  # index 0 unused
    pieces: tuple[Piece, ...]
    images: tuple[tuple[int, int], ...]
    successors: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[tuple[tuple[int, int, int], ...], ...], ...]
    tables: _Tables

    def marked_point(self, i: MarkedPoint) -> RationalPoint:
        if i == CENTER_INDEX:
            return CENTER
        return RationalPoint(self.pattern.branch_of(i), Fraction(self.pattern.rank_of(i)))

    def evaluate(self, x: RationalPoint) -> RationalPoint:
        """Exact image of a point."""
        den = x.coord.denominator
        b, num = _step(self, x.branch, x.coord.numerator, den)
        return make_point(b, Fraction(num, den))

    def iterate(self, x: RationalPoint, steps: int) -> RationalPoint:
        for _ in range(steps):
            x = self.evaluate(x)
        return x


def realize(p: StarPattern) -> PLMap:
    """Build the canonical realization on the pattern's table
    (``_tables``, which raises ValueError for an invalid pattern).

    The piece table is built in integers straight from the placements:
    basic interval [r-1, r] of a branch maps onto the arc between the
    images of its end points, and when that arc crosses the center, with
    ends at ranks a and b on two branches, the interval splits at
    (r-1) + a/(a+b).  The table's basic intervals run in (branch, rank)
    order, so each piece is entered once as an integer row with the images
    of its ends, in (src, lo) order; ``Fraction`` appears only in the
    ``lo``/``hi`` field values."""
    tables = _tables(p)
    k = p.k
    where = ((0, 0),) + p.placements  # (branch, rank) of each marked point
    lengths = [0] * (p.n + 1)
    rows = []
    for inner, outer in tables.ends:
        b, r = where[outer]
        lengths[b] = r
        ab, ac = where[(inner + 1) % k]
        bb, bc = where[(outer + 1) % k]
        if ab == bb or not ac or not bc:
            slope = bc - ac
            rows.append((b, (r - 1, 1), (r, 1), ab or bb, slope, ac - slope * (r - 1), ac, bc))
        else:
            # image arc crosses the center: split at its preimage
            total = ac + bc
            down_offset = ac + (r - 1) * total
            g = gcd(down_offset, total)
            split = (down_offset // g, total // g)
            rows.append((b, (r - 1, 1), split, ab, -total, down_offset, ac, 0))
            rows.append((b, split, (r, 1), bb, total, -down_offset, 0, bc))
    return PLMap(p, tuple(lengths), *_piece_graph(rows, lengths), tables)


def _piece_graph(rows, lengths):
    """``(pieces, images, successors, cells)`` (see ``PLMap``)
    of integer piece rows ``(src, lo, hi, dst, slope, offset, ylo, yhi)``
    in (src, lo) order: ``lo`` and ``hi`` are reduced (numerator,
    denominator) pairs and ``ylo``, ``yhi`` their integer images on
    ``dst``.  Raises InconsistencyError unless the pieces partition every
    branch, one branch after another, each inside one basic interval, each
    piece's slope and offset carry its ends to ``ylo`` and ``yhi``, and
    each maps onto a whole union of basic intervals of its ``dst``."""
    integers = [Fraction(r) for r in range(max(lengths) + 1)]
    cells = [[[] for _ in range(length)] for length in lengths]
    ends = [(0, 1)] * len(lengths)  # where the next piece of each branch starts
    lows = [integers[0]] * len(lengths)  # the same points as Fractions
    pieces, images, last = [], [], 0
    for idx, (src, lo, (hn, hd), dst, slope, offset, ylo, yhi) in enumerate(rows):
        ln, ld = lo
        j = ln // ld
        if src < last or lo != ends[src] or j >= lengths[src] or hn > (j + 1) * hd:
            raise InconsistencyError(
                f"piece {idx} does not continue a partition of branch {src} "
                "into basic intervals — this is a bug"
            )
        if slope * ln + offset * ld != ylo * ld or slope * hn + offset * hd != yhi * hd:
            raise InconsistencyError(
                f"piece {idx} does not map its ends onto its image ends — this is a bug"
            )
        ilo, ihi = (ylo, yhi) if ylo < yhi else (yhi, ylo)
        if not 0 <= ilo < ihi <= lengths[dst]:
            raise InconsistencyError(
                f"the image of piece {idx} cuts through branch {dst} — this is a bug"
            )
        hi = integers[hn] if hd == 1 else Fraction(hn, hd)
        q = Piece(src, lows[src], hi, dst, slope, offset)
        ends[src], lows[src] = (hn, hd), hi
        cells[src][j].append((idx, hn, hd))
        images.append((ilo, ihi))
        pieces.append(q)
        last = src
    if any(ends[b] != (lengths[b], 1) for b in range(1, len(lengths))):
        raise InconsistencyError("the pieces do not cover every branch — this is a bug")
    # each branch's pieces have consecutive indices, so the pieces inside
    # basic intervals ilo..ihi-1 run from the first of cell ilo to the
    # last of cell ihi-1
    successors = tuple(
        tuple(range(cells[q.dst][ilo][0][0], cells[q.dst][ihi - 1][-1][0] + 1))
        for q, (ilo, ihi) in zip(pieces, images)
    )
    return (
        tuple(pieces),
        tuple(images),
        successors,
        tuple(tuple(tuple(cell) for cell in row) for row in cells),
    )


def _piece_at(m: PLMap, b: int, num: int, den: int) -> int:
    """Index of the first piece of branch b, in the order of ``pieces``,
    that contains the coordinate num/den (den > 0, point on the branch)."""
    cell = m.cells[b][(num - 1) // den if num else 0]
    for idx, hn, hd in cell[:-1]:
        if num * hd <= hn * den:
            return idx
    return cell[-1][0]


def _step(m: PLMap, b: int, num: int, den: int) -> tuple[int, int]:
    """One application of the map to the point num/den on branch b, as
    (branch, numerator) over the same denominator; (0, 0) is the center."""
    if b == 0 and num == 0:
        b, r = m.pattern.placements[0]  # point 1, the center's image
        return b, r * den
    if not 1 <= b < len(m.cells) or not m.cells[b] or not 0 <= num <= m.branch_lengths[b] * den:
        raise DomainError(f"{RationalPoint(b, Fraction(num, den))} is outside the realized star")
    q = m.pieces[_piece_at(m, b, num, den)]
    y = q.slope * num + q.offset * den
    return (q.dst, y) if y else (0, 0)


# ------------------------------------------------------- periodic points

def cylinder_cap(cap: int | None = None) -> int:
    """``cap`` when given, else the positive integer in the environment
    variable STARDYN_CYLINDER_CAP, else the default of 10**6.  Raises
    ValueError when the variable holds anything but a positive integer."""
    if cap is not None:
        return cap
    text = os.environ.get(_CAP_ENV)
    if text is None:
        return DEFAULT_CYLINDER_CAP
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{_CAP_ENV} must be a positive integer")
    return value


def _least_period_is(m: PLMap, pt: RationalPoint, p: int) -> bool:
    """Whether pt has least period exactly p: one forward pass in integers
    over the point's denominator, locating each piece by coordinate and
    stopping at the first return.  It needs no walk, so it replays a
    witness independently of the scan (``certify.verify_certificate``)."""
    den = pt.coord.denominator
    start = b, num = pt.branch, pt.coord.numerator
    for i in range(1, p + 1):
        b, num = _step(m, b, num, den)
        if (b, num) == start:
            return i == p
    return False


def _primitive(path) -> bool:
    """Whether the walk ``path`` equals none of its proper rotations: for
    no proper divisor j of its length p is it its own shift by j.  A fixed
    point of a walk of length p off the integers has least period p iff
    its walk is primitive (see the module docstring)."""
    p = len(path)
    return all(path[j:] != path[:-j] for j in range(1, p) if p % j == 0)


def _sorted(found):
    """Entries (branch, numerator, denominator > 0, ...) in (branch, coordinate)
    order: grouped by branch in branch order, each group sorted by the
    integer num * (c // den) over the lcm c of the denominators, with one
    division per distinct denominator.  Both sorts are stable, and a bare
    integer key compares faster than a (branch, key) tuple."""
    dens = {e[2] for e in found}
    c = lcm(*dens)
    scale = {den: c // den for den in dens}
    groups: dict[int, list] = {}
    for e in found:
        groups.setdefault(e[0], []).append(e)
    out = []
    for b in sorted(groups):
        groups[b].sort(key=lambda e: e[1] * scale[e[2]])
        out += groups[b]
    return out


def _listed(p: int, found) -> tuple[PeriodicWitness, ...]:
    """The witnesses of least period p of ``_scan``'s (branch, numerator,
    denominator, walk, j) entries: one ``Fraction`` per point off the
    center, and the itinerary, the walk rotated by j, built here.  A point
    is on the center orbit iff it is an integer (see the module
    docstring)."""
    return tuple(
        PeriodicWitness(
            RationalPoint(b, Fraction(num, den)) if num else CENTER,
            p,
            walk[j:] + walk[:j],
            den == 1,
        )
        for b, num, den, walk, j in found
    )


_IDENTITY = "identity"


def _walks(m: PLMap, p: int, cap, steps=None, starts=None, closing=None, lyndon=False):
    """Depth-first stream of the walks of length p in the piece graph, as
    (b0, slope, offset, last piece, path, leaves): the walk's cylinder on
    branch b0 maps by t -> slope*t + offset onto the image of its last
    piece, ``path`` holds its pieces until the next walk, and ``leaves``
    counts the walks of the full tree up to this one.  A walk starts at one
    of the pieces ``starts`` (default: every piece), and its piece i+1 is
    one of ``steps[i][piece i]`` (default: ``m.successors``).  With the
    oracle's ``_closing`` tables it skips, at every p but k, each subtree in
    which no walk's last image covers the basic interval of its first
    piece, as such walks fix no point of least period p but the marked
    points (see the module docstring).

    With ``lyndon`` (and the tables) it yields only the walks whose pieces
    form a Lyndon word, less in index order than each proper rotation.  It
    expands only prefixes of those (Duval; Fredricksen-Kessler-Maiorana):
    with ``per`` the length of the longest Lyndon prefix, piece i is at
    least piece i - per, and a greater one makes per = i + 1; a word is
    Lyndon iff per is its length.

    The cap counts the work done: one for each node popped and expanded,
    nothing for a skipped subtree, and with ``lyndon`` p more for each walk
    yielded, the orbit that a listing builds from it, times the machine
    words of its slope s, 1 + (bit length of s) // 64: s bounds the words
    of every entry's numerator and denominator, so a point that fits a
    word costs one.  The nodes expanded are at most those of the full
    tree, and the walks yielded at most its leaves over p, as the p
    rotations of a Lyndon walk are distinct walks.  So while every slope
    fits a word, the count is at most twice the full tree's nodes."""
    if p < 1:
        raise ValueError("period must be positive")
    limit = cylinder_cap(cap)
    pieces, end = m.pieces, p - 1
    steps = steps or (m.successors,) * end
    count = leaves = 0
    path = [0] * p
    alive = closing[0] if closing and p != m.pattern.k else None
    for first in range(len(pieces)) if starts is None else starts:
        q, bit = pieces[first], alive and closing[2][first]
        stack = [(end, q.slope, q.offset, first, 1)]  # r, the steps left; per
        while stack:
            r, s, d, last, per = stack.pop()
            if alive and not alive[r][last] & bit:
                leaves += closing[1][r][last]
                continue
            count += 1
            if lyndon and not r and per == p:
                count += p * (1 + (abs(s).bit_length() >> 6))
            if count > limit:
                raise CylinderCapExceeded(limit)
            i = end - r
            path[i] = last
            if not r:
                if lyndon and per < p:
                    continue
                leaves += 1
                yield q.src, s, d, last, path, leaves
                continue
            low = path[i + 1 - per] if lyndon else 0  # per is read only with lyndon
            for idx in steps[i][last]:
                if idx >= low:
                    nxt, grown = pieces[idx], per if idx == low else i + 2
                    stack.append((r - 1, nxt.slope * s, nxt.slope * d + nxt.offset, idx, grown))


def _closing(m: PLMap, depth: int, cap=None):
    """The oracle's skip table for walks of up to depth + 1 pieces, in one
    forward pass over the piece graph.  ``bits[x]`` is the basic interval
    of piece x as one bit (pieces run in cell order, cells in
    ``tables.ends`` order), and ``alive[r][x]`` the basic intervals inside
    the image of some piece r steps from x: a walk from piece ``first``
    that is at x with r steps left can end at a piece whose image contains
    the interval of ``first`` iff ``alive[r][x] & bits[first]``.
    ``leaves[r][x]`` counts the walks of r steps from x.  Returns (alive,
    leaves, bits).

    The counts grow exponentially with the depth, so the table's memory
    grows with its square.  Before a depth is built, the depth below is
    charged to the cylinder cap, one per cell for each full 64 bits of its
    largest count: a table whose counts fit a machine word costs nothing.
    The charge is kept apart from the scan's count and raises
    CylinderCapExceeded once it passes the cap."""
    limit = cylinder_cap(cap)
    bits = [1 << v for v, cell in enumerate(c for row in m.cells for c in row) for _ in cell]
    # a piece's successors are a run of indices, and their cells a run of bits
    spans = [(ys[0], ys[-1] + 1) for ys in m.successors]
    alive = [[(bits[b - 1] << 1) - bits[a] for a, b in spans]]
    leaves = [[1] * len(bits)]
    charge = 0
    for _ in range(depth):
        below, counts = alive[-1], leaves[-1]
        charge += len(counts) * (max(counts).bit_length() >> 6)
        if charge > limit:
            raise CylinderCapExceeded(limit)
        alive.append([reduce(or_, below[a:b]) for a, b in spans])
        leaves.append([sum(counts[a:b]) for a, b in spans])
    return alive, leaves, bits


@cache
def _packing(size: int, steps: int) -> tuple[tuple[int, ...], tuple[int, ...], int, int, int]:
    """The constants of ``_walk_traces`` for ``size`` vertices and ``steps``
    packed steps: the rows of A^0, each row's diagonal field mask, the
    gather multiplier, its shift and the field mask."""
    width = steps * size.bit_length() + 1
    field = (1 << width) - 1
    seeds = tuple(1 << (i * width) for i in range(size))
    return seeds, tuple(field * seed for seed in seeds), sum(seeds), (size - 1) * width, field


def _walk_traces(adjacency: tuple[tuple[int, ...], ...], bound: int) -> list[int]:
    """tr(A^1), ..., tr(A^bound) for the 0/1 matrix A with rows
    ``adjacency``: the exact numbers of closed walks of each length.

    Only the first ``steps = min(s, bound)`` powers are taken, s the
    number of vertices.  Row i of A^q is one integer with a field of
    ``width = steps * s.bit_length() + 1`` bits per column, so row i of
    A^(q+1) = A A^q is the sum of the rows of A^q at i's successors.  The
    diagonal fields, masked out of their rows and summed, times the
    gather multiplier (a 1 in every field) hold in field s - 1 the sum of
    all of them, the trace.  No field overflows: an entry of A^q counts
    walks with q - 1 free inner vertices, so it is at most s^(q-1), the
    trace at most s^q <= s^steps < 2^(width - 1), and every field of the
    product is a partial sum of the diagonal, at most the trace.

    Beyond s the traces p_q follow from the characteristic polynomial
    det(xI - A) = x^s - e_1 x^(s-1) + ... + (-1)^s e_s.  By
    Cayley-Hamilton it vanishes at A; times A^(q-s), traced, it gives
    p_q = sum of c_i p_(q-i) over i = 1..s for q > s, with
    c_i = (-1)^(i-1) e_i.  Newton's identities give the c_i from the
    first s traces, m c_m = p_m - sum of c_i p_(m-i) over i < m; the
    e_m are coefficients of the characteristic polynomial of an integer
    matrix, integers, so the division by m is exact and every step stays
    in integers."""
    if bound < 1:
        raise ValueError("bound must be positive")
    size = len(adjacency)
    steps = min(size, bound)
    rows, masks, gather, shift, field = _packing(size, steps)
    traces = []
    for _ in range(steps):
        rows = [sum(map(rows.__getitem__, row)) for row in adjacency]
        traces.append(sum(map(int.__and__, rows, masks)) * gather >> shift & field)
    if bound > size:
        # c_m, ..., c_1: they pair in order with p_1, p_2, ... (map stops
        # at the shorter), and c_s, ..., c_1 with the last s traces
        coefficients: list[int] = []
        for m in range(1, size + 1):
            done = sum(map(int.__mul__, coefficients, traces))
            coefficients.insert(0, (traces[m - 1] - done) // m)
        for _ in range(size, bound):
            traces.append(sum(map(int.__mul__, coefficients, traces[-size:])))
    return traces


@cache
def _proper_divisors(bound: int) -> tuple[tuple[int, ...], ...]:
    """The divisors below q of every q <= bound, at index q."""
    table: list[list[int]] = [[] for _ in range(bound + 1)]
    for d in range(1, bound // 2 + 1):
        for q in range(2 * d, bound + 1, d):
            table[q].append(d)
    return tuple(map(tuple, table))


def _period_counts(k: int, traces: list[int]) -> dict[int, int]:
    """The number of points of least period q of the canonical map with
    orbit size k, for every q <= len(traces) that k does not divide, from
    the closed-walk counts ``traces`` of its covering digraph.

    The map is Markov over its pieces.  A closed walk of length q in the
    piece graph has a cylinder that its composite maps onto a set
    containing it, so it holds a fixed point of f^q, and only one unless
    the composite has slope +1.  Then every piece on the walk has slope
    +-1 (a split piece has slope +-(a+b)) and maps a basic interval onto
    one, so f^q maps the walk's first basic interval onto itself and fixes
    its marked ends: k divides q.  A fixed point lies in the cylinders of
    two walks only if its orbit meets a piece end, a marked or split point
    on the center orbit, of period k.  So for k not dividing q the trace
    counts the points of every least period d | q, and subtracting the
    proper divisors' counts is the Moebius inversion.  The covering
    digraph has the piece graph's traces: a closed covering walk picks
    the one piece of each interval whose image holds the next."""
    counts: dict[int, int] = {}
    divisors = _proper_divisors(len(traces))
    for q, t in enumerate(traces, 1):
        if q % k:
            counts[q] = t - sum(map(counts.__getitem__, divisors[q]))
    return counts


def _fixed_point(m: PLMap, b0: int, s: int, d: int, last: int):
    """Fixed points of a walk's composite t -> s*t + d, from its cylinder
    on branch b0 onto the image [ilo, ihi] of its last piece: ``_IDENTITY``
    when every point is fixed, else the one fixed coordinate as a reduced
    pair (numerator, denominator) with a positive denominator ((0, 1) is
    the center, whatever the branches), or None.

    The slope s is never 0 and the cylinder maps bijectively onto
    [ilo, ihi], so the fixed point t = d/(1-s) lies in the cylinder iff it
    lies in [ilo, ihi]: the test is an integer cross-multiplication."""
    same_branch = m.pieces[last].dst == b0
    if d == 0:  # t = 0, the center, lies in the image iff its low end does
        if s == 1 and same_branch:
            return _IDENTITY
        return (0, 1) if m.images[last][0] == 0 else None
    if not same_branch or s == 1:
        return None
    ilo, ihi = m.images[last]
    e = 1 - s
    if e < 0:
        d, e = -d, -e
    if ilo * e <= d <= ihi * e:
        g = gcd(d, e)
        return d // g, e // g
    return None


def oracle_scan(m: PLMap, p: int, cap: int | None = None, first_only: bool = False) -> ScanResult:
    """Subdivide the p-th iterate into monotone cylinders and solve the
    affine fixed-point equation on each.

    Finds every point of least period exactly p.  When an iterate is the
    identity on a nondegenerate cylinder the family is uncountable; the
    scan then reports one representative, the cylinder's inner end (a
    marked point; see the module docstring), and flags the result
    incomplete.
    At p != k it solves only the walks whose last image covers the basic
    interval of their first piece.  Each of them has a fixed point, and
    they include every walk with a fixed point off the integers or an
    identity cylinder: any other walk fixes at most a marked point, of
    least period k (see the module docstring).  At p = k it solves every
    walk.  Skipped walks count toward ``cylinders`` but not toward the cap
    (``_walks``).

    A least period is read off the walk's word (see the module
    docstring): an integer fixed point has least period k, any other p iff
    its walk is primitive (``_primitive``).  So at p != k a walk that is
    not costs no solve, and an identity cylinder's family turns up at
    p = k alone.  A full listing at p != k solves the Lyndon walks alone
    (``_walks``) and lists each one's orbit (``_orbit``).  The scan runs
    in integers and checks its listing against the closed-walk count
    (``_scan``); the records, one ``Fraction`` and one itinerary per
    listed point, are built here (``_listed``).
    """
    found, cylinders, family, complete = _scan(m, p, cap, first_only)
    family = _listed(p, [family])[0] if family else None
    return ScanResult(_listed(p, found), cylinders, family, complete)


def _scan(m: PLMap, p: int, cap, first_only: bool, closing=None, counts=None):
    """``oracle_scan`` in integers: (found, cylinders, family, complete),
    where each entry of ``found`` is (branch, numerator, denominator,
    walk, j) for a listed point num/den (reduced, den > 0; (0, 0, 1) is
    the center) whose itinerary is the tuple ``walk`` rotated by j.  The
    points of one orbit share one ``walk``.  A complete listing is in
    (branch, coordinate) order (``_sorted``).  When the scan meets an
    uncountable family, ``family`` is the entry of its representative,
    the inner end of the cylinder's image, with which ``found`` ends unless
    the point is already listed; otherwise ``family`` is None.  At p not
    a multiple of k it raises InconsistencyError unless a complete listing
    holds ``counts[p]`` points and a first witness a positive count
    (``_period_counts``, from ``tables.adjacency`` when None); at a
    multiple of k it builds no count.

    An integer fixed point is a marked point, of least period k, so at
    p != k it is skipped.  No case is known in which a walk that reaches
    that guard (one the skip table keeps and that is primitive) fixes an
    integer point; the guard stays, as no proof that it is dead is known."""
    closing = closing or _closing(m, p - 1, cap)
    k = m.pattern.k
    lyndon = not first_only and p != k
    complete = False  # until the walks run out
    found: list[tuple[int, int, int, tuple[int, ...], int]] = []
    seen: set[tuple[int, int, int]] = set()
    for b0, s, d, last, path, cylinders in _walks(m, p, cap, closing=closing, lyndon=lyndon):
        if p != k and not lyndon and not _primitive(path):
            continue
        t = _fixed_point(m, b0, s, d, last)
        if t is None:
            continue
        if t is _IDENTITY:  # only at p = k (see the module docstring)
            ilo = m.images[last][0]
            if not _least_period_is(m, make_point(b0, ilo), p):
                raise InconsistencyError(
                    f"identity cylinder point {ilo} lacks least period {p} — this is a bug"
                )
            fam = (b0 if ilo else 0, ilo, 1, tuple(path), 0)
            if fam[:3] not in seen:
                found.append(fam)
            return found, cylinders, fam, False
        num, den = t
        if den == 1 and p != k:  # a marked point, of least period k
            continue
        if lyndon:
            found += _orbit(m, path, b0, num, den)
            continue
        key = (b0 if num else 0, num, den)
        if key not in seen:
            seen.add(key)
            if den == 1 or _primitive(path):
                found.append(key + (tuple(path), 0))
                if first_only:
                    break
    else:
        found, cylinders, complete = _sorted(found), sum(closing[1][p - 1]), True
    if p % k:
        counts = counts or _period_counts(k, _walk_traces(m.tables.adjacency, p))
        if counts[p] != len(found) if complete else counts[p] < 1:
            raise InconsistencyError(
                f"{m.pattern.to_text()}: the closed-walk count gives {counts[p]} points of period "
                f"{p} but the exact oracle lists {len(found)} — this is a bug"
            )
    return found, cylinders, None, complete


def _orbit(m: PLMap, path, b0: int, num: int, den: int):
    """The orbit of the fixed point num/den (reduced, not an integer) on
    branch b0 of the walk ``path``, as ``_scan``'s (branch, numerator,
    denominator, walk, j) entries: point j is the walk's first j pieces
    applied, over the same denominator, and its itinerary is the walk
    rotated by j.  Every entry holds the same ``walk`` tuple.  Raises
    InconsistencyError if the orbit returns before step len(path)."""
    walk, pieces = tuple(path), m.pieces
    entries, y = [(b0, num, den, walk, 0)], num
    for j in range(1, len(walk)):
        q = pieces[walk[j - 1]]
        y = q.slope * y + q.offset * den
        if y == num and q.dst == b0:
            raise InconsistencyError(f"orbit back at step {j} of {len(walk)} — this is a bug")
        entries.append((q.dst, y, den, walk, j))
    return entries


def periodic_points(m: PLMap, p: int, cap: int | None = None) -> list[PeriodicWitness]:
    """The complete list of points of least period exactly p, sorted by
    (branch, coordinate).

    Raises UncountablePeriodicSet when the set is a whole interval (some
    iterate is the identity there) and CylinderCapExceeded past the cap
    (env STARDYN_CYLINDER_CAP overrides the default of 10**6).
    """
    res = oracle_scan(m, p, cap=cap)
    if res.family is not None:
        raise UncountablePeriodicSet(p, res.family)
    return list(res.witnesses)


def first_witness(m: PLMap, p: int, cap: int | None = None) -> PeriodicWitness | None:
    """One point of least period exactly p, or None after exhausting every
    cylinder (which proves absence)."""
    res = oracle_scan(m, p, cap=cap, first_only=True)
    return res.witnesses[0] if res.witnesses else None


# ------------------------------------------------------------ loop points

def loop_point(m: PLMap, loop: list[Arc]) -> RationalPoint:
    """A point realizing a covering loop: given arcs I_0, ..., I_p with
    f(I_{i-1}) containing I_i, the center interior to no arc after the
    first, and I_p containing I_0, returns the least x in (branch,
    coordinate) order with f^p(x) = x and f^i(x) in I_i for every i.

    Arcs are bitmasks of basic intervals (XORs of ``_Tables.down``), so
    each covering is a subset test on an image (rows of ``m.tables``).  A
    point of the loop whose orbit meets no piece end has one piece at each
    step, which lies inside I_i and inside the image of the piece before
    it: it lies in the cylinder of a walk of the piece graph restricted at
    step i to the pieces inside I_i.  There it is the walk's one fixed
    point, or the p-th iterate fixes the whole cylinder, whose left end is
    then a smaller point of the loop.  A point whose orbit meets a piece
    end lies on the center orbit, since every integer coordinate is a
    marked point and every split point maps to the center; marked point i
    visits (i + j) % k at step j, so it is checked directly.

    The constrained walks count toward the cylinder cap: raises
    CylinderCapExceeded past it (env STARDYN_CYLINDER_CAP overrides the
    default of 10**6), and LoopError unless the arcs form a covering loop.
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
    down, rows = m.tables.down, m.tables.rows
    masks = [down[a.a] ^ down[a.b] for a in loop]
    for i in range(1, len(loop)):
        if masks[i] & ~_image(rows, masks[i - 1]):
            raise LoopError(f"covering fails at step {i}: f(I_{i - 1}) does not contain I_{i}")
    if masks[0] & ~masks[-1]:
        raise LoopError("last arc does not contain the first")

    p, k = len(loop) - 1, m.pattern.k
    candidates = [
        m.marked_point(i)
        for i in range(k)
        if p % k == 0
        and all(not (down[a.a] ^ down[(i + j) % k]) & ~x for j, (a, x) in enumerate(zip(loop, masks)))
    ]
    bits = _closing(m, 0)[2]  # the basic interval of each piece as a bit
    steps = [
        tuple(tuple(j for j in succ if bits[j] & x) for succ in m.successors) for x in masks[1:-1]
    ]
    starts = [idx for idx, bit in enumerate(bits) if bit & masks[0]]
    for b0, s, d, last, _, _ in _walks(m, p, None, steps, starts):
        t = _fixed_point(m, b0, s, d, last)
        if t is _IDENTITY:  # the cylinder is its image, whose left end is fixed
            candidates.append(make_point(b0, m.images[last][0]))
        elif t is not None:
            candidates.append(make_point(b0, Fraction(*t)))
    if not candidates:
        raise InconsistencyError("verified loop yielded no fixed point — this is a bug")
    return min(candidates)


# ------------------------------------------------------------- diagnostics

def scramble_probe(
    m: PLMap, x: RationalPoint, y: RationalPoint, n: int, step: int = 1
) -> tuple[Fraction, Fraction]:
    """Exact (min, max) separation of two orbits over n samples, measured
    every ``step`` applications of the map, after rescaling each branch to
    unit length.  Raises ValueError unless n and ``step`` are positive."""
    if n < 1 or step < 1:
        raise ValueError("scramble_probe needs n >= 1 samples and step >= 1")

    def unit_distance(a: RationalPoint, b: RationalPoint) -> Fraction:
        def scaled(pt: RationalPoint) -> tuple[int, Fraction]:
            if pt == CENTER:
                return (0, Fraction(0))
            return (pt.branch, pt.coord / m.branch_lengths[pt.branch])

        (ba, ca), (bb, cb) = scaled(a), scaled(b)
        if ba == bb:
            return abs(ca - cb)
        return ca + cb

    lo = hi = None
    for _ in range(n):
        x = m.iterate(x, step)
        y = m.iterate(y, step)
        gap = unit_distance(x, y)
        lo = gap if lo is None or gap < lo else lo
        hi = gap if hi is None or gap > hi else hi
    return lo, hi

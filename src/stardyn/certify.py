"""Covering digraphs of basic intervals and replayable certificates.

A pattern's marked points cut the occupied branches into basic intervals.
Interval I covers interval J when the arc between the successor images of
I's endpoints contains J; the covering digraph drives everything here:
closed walks witness periods, a self-loop plus a short cycle witnesses a
cofinite set of periods, and an expanding arc pair (u, v) with a suitable
covering loop certifies Li-Yorke chaos.

Every certificate is replayable: ``verify_certificate`` re-derives the
claim from the pattern alone.  In a periodicity report, presence claims
are confirmed by the exact oracle and absence is decided by its
exhaustive scan, which checks its listing against the closed-walk
count (``plmap._period_counts``): each period is derived twice.
A survey decides periods by the count alone, and asks the oracle only
for the periods the count cannot settle.
"""

from __future__ import annotations

import itertools

from .orders import forced_periods, sharkovskii_le
from .patterns import (
    CENTER_INDEX,
    BasicInterval,
    MarkedPoint,
    StarPattern,
    _image,
    _Record,
    _Tables,
    _tables,
    basic_intervals,
)
from .plmap import (
    CENTER,
    DomainError,
    InconsistencyError,
    PeriodicWitness,
    PLMap,
    _closing,
    _least_period_is,
    _listed,
    _period_counts,
    _scan,
    _walk_traces,
    realize,
)


# ---------------------------------------------------------- covering digraph

class CoverDigraph(_Record):
    """Covering relation restricted to basic intervals: I -> J iff the arc
    between the successor images of I's endpoints contains J."""

    pattern: StarPattern
    vertices: tuple[BasicInterval, ...]
    adjacency: tuple[tuple[int, ...], ...]

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adjacency[i]

    def edges(self):
        for i, row in enumerate(self.adjacency):
            for j in row:
                yield (i, j)

    def edge_labels(self) -> set[tuple[str, str]]:
        return {
            (self.vertices[i].label, self.vertices[j].label)
            for i, j in self.edges()
        }


def cover_digraph(p: StarPattern) -> CoverDigraph:
    """The covering digraph of a valid pattern p.  The canonical map sends
    each basic interval onto exactly the arc between its endpoints'
    images, so the digraph depends on the pattern alone (the cover rows
    of ``patterns._tables``)."""
    return _digraph(_tables(p))


def _digraph(tables: _Tables) -> CoverDigraph:
    """The covering digraph of a table, its vertices built from the
    table's basic intervals (``_Tables.ends``)."""
    p = tables.pattern
    vertices = tuple(BasicInterval(a, b, *p.placements[b - 1]) for a, b in tables.ends)
    return CoverDigraph(p, vertices, tables.adjacency)


def _through_center(down: list[int], a: MarkedPoint, b: MarkedPoint) -> bool:
    """Whether the center is interior to the arc [a, b]: a and b are off
    the center and their descents (``_Tables.down``) share no interval."""
    return bool(a and b and not down[a] & down[b])


def render_dot(g: CoverDigraph) -> str:
    """GraphViz DOT text: one node per basic interval, one edge per covering."""
    lines = ["digraph covering {"]
    for v in g.vertices:
        lines.append(f'  "{v.label}";')
    for i, j in g.edges():
        lines.append(f'  "{g.vertices[i].label}" -> "{g.vertices[j].label}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ walk lengths

def closed_walk_lengths(g: CoverDigraph, bound: int) -> set[int]:
    """Lengths p <= bound for which the digraph has a closed walk, by exact
    adjacency-matrix powers."""
    return {q for q, t in enumerate(_walk_traces((g.adjacency,), bound)[0], 1) if t}


def self_loop_only_lengths(g: CoverDigraph, bound: int) -> set[int]:
    """Lengths p <= bound for which the only closed walk is the repetition
    of a single self-loop: the trace is 1, since any other closed walk is
    counted once per distinct rotation."""
    return {q for q, t in enumerate(_walk_traces((g.adjacency,), bound)[0], 1) if t == 1}


# ------------------------------------------------------------- certificates

ArcEnds = tuple[MarkedPoint, MarkedPoint]


class CenterOrbit(_Record):
    """The marked orbit itself: the center is periodic with period k."""

    kind = "center_orbit"

    period: int


class ForcedPeriod(_Record):
    """Period forced by the center's period through the interval order."""

    kind = "forced_period"

    period: int
    source_period: int


class CenterTheoremCase(_Record):
    """Hypothesis: the third image of the center avoids the closed branch
    of the first.  Conclusion: points of every period, through the verified
    coverings A -> A, A -> B, B -> A with A = [u, v]."""

    kind = "center_theorem"

    case_id: int
    u: MarkedPoint
    v: MarkedPoint
    span: ArcEnds  # A
    back: ArcEnds  # B

    def claimed_periods(self, p_max: int) -> set[int]:
        return set(range(1, p_max + 1))


class NPlus2Case(_Record):
    """Orbit of size n+2 revisiting the first branch at the third step.
    Case 1 yields every period >= 2; case 2 yields period 2 and every
    period >= 4, through the verified chain A -> A -> B1 [-> B2 -> B3] -> A
    (plus the disjoint two-cycle B1 <-> B2 in case 2)."""

    kind = "nplus2_theorem"

    case_id: int
    u: MarkedPoint
    v: MarkedPoint
    span: ArcEnds  # A
    chain: tuple[ArcEnds, ...]  # B1 (case 1) or B1..B3 (case 2)

    def claimed_periods(self, p_max: int) -> set[int]:
        return {q for q in range(2, p_max + 1) if self.case_id == 1 or q != 3}


class Cascade(_Record):
    """A self-loop vertex on a cycle of length m >= 2: closed walks of
    every length >= m exist, hence points of every period >= m."""

    kind = "cascade"

    base: ArcEnds
    cycle: tuple[ArcEnds, ...]
    m: int

    def claimed_periods(self, p_max: int) -> set[int]:
        return set(range(self.m, p_max + 1))


class Genscramble(_Record):
    """Li-Yorke chaos certificate for the t-th iterate g: an ordered pair
    (u, v) with g(v) < u < v <= g(u) along the arc between their images,
    plus a covering loop B0 = [u, v], ..., Bp containing B0, with B1 inside
    [g(v), u] and the second-to-last arc disjoint from the open (u, v)."""

    kind = "genscramble"

    iterate: int
    u: MarkedPoint
    v: MarkedPoint
    loop: tuple[ArcEnds, ...]


class OracleWitness(_Record):
    """An exact periodic point confirming presence."""

    kind = "oracle_witness"

    witness: PeriodicWitness


class OracleAbsence(_Record):
    """Exhaustive scan found no point of this least period."""

    kind = "oracle_absence"

    period: int
    cylinders: int


Certificate = (
    CenterOrbit
    | ForcedPeriod
    | CenterTheoremCase
    | NPlus2Case
    | Cascade
    | Genscramble
    | OracleWitness
    | OracleAbsence
)


# ------------------------------------------------------- covering helpers

def _branch_of(p: StarPattern, i: MarkedPoint) -> int:
    return 0 if i == CENTER_INDEX else p.branch_of(i)


def _covers(down: list[int], src: ArcEnds, dst: ArcEnds) -> bool:
    """Combinatorial covering: the arc between successor images of src's
    endpoints contains dst (arcs as XORs of ``_Tables.down``)."""
    k = len(down)
    image = down[(src[0] + 1) % k] ^ down[(src[1] + 1) % k]
    return (down[dst[0]] ^ down[dst[1]]) & ~image == 0


def _arcs_disjoint(down: list[int], x: ArcEnds, y: ArcEnds) -> bool:
    """Closed arcs are disjoint iff they share no basic interval and no
    marked point; point i lies on [a, b] iff the arc from a to i lies
    inside it (arcs as XORs of ``_Tables.down``)."""
    x0, y0 = down[x[0]], down[y[0]]
    mx, my = x0 ^ down[x[1]], y0 ^ down[y[1]]
    return not mx & my and not any((x0 ^ d) & ~mx == 0 and (y0 ^ d) & ~my == 0 for d in down)


# ----------------------------------------------------------- theorem checks

# Survey filter tokens (``stardyn survey --filter``).  The first spelling
# is the published interface name and must stay stable; the second is a
# synonym describing the same predicate: classes whose pattern does not
# satisfy the center-map covering hypothesis of ``check_center_theorem``.
SURVEY_FILTERS = ("theorem1-inapplicable", "center-theorem-inapplicable")


def check_center_theorem(p: StarPattern) -> CenterTheoremCase | None:
    """Certificate that the pattern has points of every period, when the
    third image of the center leaves the closed branch of the first image.
    Indices wrap modulo k, so for k = 3 the third image is the center
    itself, which lies on no branch and passes the hypothesis."""
    return _center_theorem(_tables(p))


def _center_theorem(tables: _Tables) -> CenterTheoremCase | None:
    p = tables.pattern
    k = p.k
    x1, x2, x3 = 1 % k, 2 % k, 3 % k
    if x3 != CENTER_INDEX and _branch_of(p, x3) == _branch_of(p, x1):
        return None
    if _branch_of(p, x2) != _branch_of(p, x1):
        case_id, u, v, back = 1, CENTER_INDEX, x1, (x2, CENTER_INDEX)
    elif p.rank_of(x1) < p.rank_of(x2):
        case_id, u, v, back = 2, x1, x2, (CENTER_INDEX, x1)
    else:
        case_id, u, v, back = 3, x2, CENTER_INDEX, (x1, x2)
    cert = CenterTheoremCase(case_id, u, v, (u, v), back)
    down, span = tables.down, cert.span
    if not all(_covers(down, s, d) for s, d in ((span, span), (span, back), (back, span))):
        raise _refuted(cert)
    return cert


def _refuted(cert: CenterTheoremCase | NPlus2Case) -> InconsistencyError:
    return InconsistencyError(
        f"the coverings of {cert!r} fail although its hypothesis holds — this is a bug"
    )


def nplus2_applies(p: StarPattern) -> bool:
    """The hypothesis of ``check_nplus2_theorem``: an orbit of size n+2
    meeting every branch of an n-od with n >= 3."""
    return p.n >= 3 and p.k == p.n + 2 and all(p.branch_size(b) for b in range(1, p.n + 1))


def check_nplus2_theorem(p: StarPattern) -> NPlus2Case | None:
    """Certificate for orbits of size n+2 on an n-od hitting every branch:
    when the third image returns to the first image's branch, the pattern
    has every period >= 2 (case 1) or period 2 plus every period >= 4
    (case 2).  Returns None when the center-theorem hypothesis holds
    instead."""
    tables = _tables(p)
    if not nplus2_applies(p):
        raise ValueError(
            f"requires an orbit of size n+2 on all branches of an n-od with "
            f"n >= 3; got n={p.n}, k={p.k}"
        )
    return _nplus2_theorem(tables)


def _nplus2_theorem(tables: _Tables) -> NPlus2Case | None:
    p = tables.pattern
    if _branch_of(p, 3) != _branch_of(p, 1):
        return None
    if set(p.branch_points(p.branch_of(1))) != {1, 3}:
        raise InconsistencyError(
            f"{p.to_text()}: x1 and x3 share a branch with other points — this is a bug"
        )
    if p.rank_of(3) < p.rank_of(1):
        cert = NPlus2Case(1, CENTER_INDEX, 3, (CENTER_INDEX, 3), ((CENTER_INDEX, 4),))
    else:
        chain = ((CENTER_INDEX, 2), (1, 3), (CENTER_INDEX, 4))
        cert = NPlus2Case(2, CENTER_INDEX, 1, (CENTER_INDEX, 1), chain)
    down, span = tables.down, cert.span
    steps = [(span, span), *itertools.pairwise((span, *cert.chain, span))]
    if not all(_covers(down, s, d) for s, d in steps):
        raise _refuted(cert)
    if cert.case_id == 2:
        b1, b2 = cert.chain[0], cert.chain[1]
        if not (_covers(down, b2, b1) and _arcs_disjoint(down, b1, b2)):
            raise _refuted(cert)
    return cert


def _theorem(tables: _Tables) -> CenterTheoremCase | NPlus2Case | None:
    """The certificate of whichever theorem applies.  The hypotheses
    exclude each other: with k = n+2 >= 5, x3 is off the center, so the
    center theorem holds exactly when x3 leaves the branch of x1 and the
    n+2 theorem exactly when it stays."""
    center = _center_theorem(tables)
    if center is not None or not nplus2_applies(tables.pattern):
        return center
    return _nplus2_theorem(tables)


# --------------------------------------------------------------- cascades

def find_cascade(g: CoverDigraph) -> Cascade | None:
    """Minimal certificate from a self-loop vertex lying on a cycle of
    length >= 2 (vertices distinct); ties broken by vertex order."""
    return _find_cascade(g.adjacency, [v.endpoints for v in g.vertices])


def _find_cascade(adjacency: tuple[tuple[int, ...], ...], ends: list[ArcEnds]) -> Cascade | None:
    """``find_cascade`` on out-neighbour lists, with ``ends`` the
    endpoints of each vertex.  Every return cycle has m >= 2 and ties go
    to the first vertex, so the search stops at the first vertex whose
    shortest return has m = 2: no later vertex can beat it."""
    best: tuple[int, int, list[int]] | None = None
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
            if m == 2:
                break
    if best is None:
        return None
    m, w, cycle = best
    return Cascade(ends[w], tuple(ends[i] for i in cycle), m)


# ---------------------------------------------------------- chaos search

def _ordering_holds(down: list[int], u: int, v: int, t: int) -> bool:
    """g(v) < u < v <= g(u) read along the arc from g(u) to g(v), for the
    t-th iterate g (arcs as XORs of ``_Tables.down``).  In a tree, x lies
    on the arc from a to b iff the arc from a to x lies inside it, and the
    arc from a to x grows with the position of x, so the order is nesting
    of the arcs from g(u) to v, to u and to g(v), the last strictly.
    Distinct points have distinct arcs from g(u), and u = v leaves the
    span empty."""
    k = len(down)
    gu = down[(u + t) % k]
    to_v, to_u, span = gu ^ down[v], gu ^ down[u], gu ^ down[(v + t) % k]
    return to_u != span and to_v & ~to_u == 0 and to_u & ~span == 0


def find_genscramble(p: StarPattern, max_iterate: int = 2) -> Genscramble | None:
    """Search iterates g of the canonical realization for a chaos
    certificate: an expanding pair g(v) < u < v <= g(u) plus a covering
    loop through arcs disjoint as required.  Arc endpoints are restricted
    to marked points; returns the first certificate in deterministic
    order (theorem-derived loops first, then pair scan), or None.

    Every arc the search meets is a union of basic intervals, and so is
    each of its images, because the canonical map sends a basic interval
    onto exactly the arc between its endpoint images.  The search
    therefore runs on the covering digraph, in integer bitmasks of basic
    intervals: an image is the union of the digraph rows of an arc's
    intervals, and containment is a subset test."""
    if max_iterate < 1:
        raise ValueError("max_iterate must be positive")
    tables = _tables(p)
    return _find_genscramble(tables, _theorem(tables), max_iterate)


def _find_genscramble(
    tables: _Tables, theorem: CenterTheoremCase | NPlus2Case | None, max_iterate: int
) -> Genscramble | None:
    """``find_genscramble`` with the theorem certificate given.  A
    theorem-derived loop is replayed (``_verify_genscramble``) before it
    is returned."""
    p = tables.pattern
    if theorem is not None:
        middle = (theorem.back,) if isinstance(theorem, CenterTheoremCase) else theorem.chain
        cert = Genscramble(1, theorem.u, theorem.v, (theorem.span,) + middle + (theorem.span,))
        if not _verify_genscramble(tables, cert):
            raise InconsistencyError(
                f"{p.to_text()}: the chaos certificate {cert!r} derived from "
                f"{theorem!r} fails its replay — this is a bug"
            )
        return cert
    rows, down = tables.rows, tables.down
    pairs = itertools.combinations(range(p.k), 2)
    masks = {(a, b): down[a] ^ down[b] for a, b in pairs if not _through_center(down, a, b)}
    cap = 2 * len(rows) + 2
    images = masks
    for t in range(1, max_iterate + 1):
        images = {e: _image(rows, x) for e, x in images.items()}
        for u in range(p.k):
            for v in range(p.k):
                if u == v or _through_center(down, u, v):
                    continue
                if not _ordering_holds(down, u, v, t):
                    continue
                first = down[(v + t) % p.k] ^ down[u]
                loop = _loop_search(u, v, first, masks, images, cap)
                if loop is not None:
                    return Genscramble(t, u, v, loop)
    return None


def _loop_search(u, v, first, masks, images, cap):
    """Breadth-first search over candidate arcs for the covering loop, on
    the bitmasks ``masks`` of the candidate arcs and ``images`` of their
    images under g; ``first`` is the mask of the arc [g(v), u] (0 when
    g(v) = u).  Masks have integer endpoints, so an arc meets the open
    (u, v) iff it shares a basic interval with [u, v]."""
    b0 = tuple(sorted((u, v)))
    uv = masks[b0]
    region = first & images[b0]
    start = [e for e, x in masks.items() if x & ~region == 0]
    closers = [f for f, x in masks.items() if uv & ~x == 0]
    parents: dict[ArcEnds, ArcEnds | None] = {e: None for e in start}
    frontier = start
    depth = 1
    while frontier and depth <= cap:
        for e in frontier:
            if not masks[e] & uv:
                img = images[e]
                closing = next((f for f in closers if masks[f] & ~img == 0), None)
                if closing is not None:
                    path = [closing, e]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])
                    path.append(b0)
                    return tuple(reversed(path))
        nxt = []
        for e in frontier:
            img = images[e]
            for f, x in masks.items():
                if f not in parents and x & ~img == 0:
                    parents[f] = e
                    nxt.append(f)
        frontier = nxt
        depth += 1
    return None


# ------------------------------------------------------------ verification

def verify_certificate(p: StarPattern, cert: Certificate) -> bool:
    """Re-derive a certificate's claim from the pattern alone, on the
    tables the search reads (``_tables``, which raises ValueError for an
    invalid pattern, whatever the kind).  Every certificate of a valid
    pattern gets a yes or a no: a period below 1, an arc or a point off
    the pattern, and a center-orbit flag that disagrees with the witness's
    coordinate (a point is on the center orbit iff it is an integer) get
    a no, and so does a witness whose itinerary does not follow its point
    (``_follows``), checked first: an itinerary of the wrong length is
    refused before the point is stepped, so a tampered period costs no
    replay.  A theorem certificate must be the one ``_theorem`` derives.
    An absence replays the whole scan (``plmap._scan``, checked by the
    closed-walk count at a period k does not divide) under the cylinder
    cap, so a deep one raises CylinderCapExceeded: it must find no point
    and no family after exactly the recorded number of cylinders."""
    tables = _tables(p)
    if isinstance(cert, CenterOrbit):
        return cert.period == p.k
    if isinstance(cert, ForcedPeriod):
        return cert.source_period == p.k and cert.period >= 1 and sharkovskii_le(cert.period, p.k)
    if isinstance(cert, (CenterTheoremCase, NPlus2Case)):
        return _theorem(tables) == cert
    if isinstance(cert, Cascade):
        return _verify_cascade(tables, cert)
    if isinstance(cert, Genscramble):
        return _verify_genscramble(tables, cert)
    if isinstance(cert, OracleWitness):
        w = cert.witness
        if w.on_center_orbit != (w.point.coord.denominator == 1):
            return False
        m = realize(p)
        try:
            return _follows(m, w) and _least_period_is(m, w.point, w.period)
        except DomainError:  # the point is off the realized star
            return False
    if isinstance(cert, OracleAbsence):
        if cert.period < 1:
            return False
        found, cylinders, family, _ = _scan(realize(p), cert.period, None, False)
        return not found and family is None and cylinders == cert.cylinders
    raise TypeError(f"unknown certificate {cert!r}")


def _follows(m: PLMap, w: PeriodicWitness) -> bool:
    """Whether the witness's itinerary has one valid piece index per step
    of its period, and piece i contains f^i of its point: the point lies
    on the piece's branch between its ends, and the center lies in every
    piece whose low end is 0."""
    pieces, x = m.pieces, w.point
    if not isinstance(w.itinerary, tuple) or len(w.itinerary) != w.period:
        return False
    for i in w.itinerary:
        if type(i) is not int or not 0 <= i < len(pieces):
            return False
        q = pieces[i]
        if not (q.lo == 0 if x == CENTER else q.src == x.branch and q.lo <= x.coord <= q.hi):
            return False
        x = m.evaluate(x)
    return True


def _verify_cascade(tables: _Tables, cert: Cascade) -> bool:
    """The cycle runs from the base back to it through m distinct basic
    intervals along digraph edges, and the base has a self-loop."""
    where = {e: i for i, e in enumerate(tables.ends)}
    idx = [where.get(e) for e in cert.cycle]
    if None in idx or not 2 <= cert.m == len(idx) - 1 == len(set(idx[:-1])):
        return False
    adjacency = tables.adjacency
    return cert.base == cert.cycle[0] == cert.cycle[-1] and all(
        j in adjacency[i] for i, j in itertools.pairwise([idx[0], *idx])
    )


def verify_genscramble(p: StarPattern, cert: Genscramble) -> bool:
    """Replay: recheck the ordering condition and every covering of the
    t-th iterate, independent of the search.  Arcs are rank bitmasks
    (XORs of ``_Tables.down``) and a basic interval's image is the arc
    between its endpoints' images (the cover rows of ``_tables``).  A loop
    arc whose ends are not two distinct marked points, or an iterate below
    1, fails the replay; an invalid pattern raises ValueError."""
    return _verify_genscramble(_tables(p), cert)


def _verify_genscramble(tables: _Tables, cert: Genscramble) -> bool:
    p, down, rows = tables.pattern, tables.down, tables.rows
    t, u, v = cert.iterate, cert.u, cert.v
    if not cert.loop or cert.loop[0] != tuple(sorted((u, v))) and cert.loop[0] != (u, v):
        return False
    if t < 1 or not all(0 <= a < p.k and 0 <= b < p.k and a != b for a, b in cert.loop):
        return False
    if not _ordering_holds(down, u, v, t):
        return False
    if any(_through_center(down, a, b) for a, b in ((u, v), *cert.loop[1:])):
        return False
    masks = [down[a] ^ down[b] for a, b in cert.loop]
    for s, d in itertools.pairwise(masks):
        for _ in range(t):
            s = _image(rows, s)
        if d & ~s:
            return False
    if masks[0] & ~masks[-1]:
        return False
    gv = (v + t) % p.k
    if gv == u or masks[1] & ~(down[gv] ^ down[u]):
        return False
    if masks[-2] & (down[u] ^ down[v]):
        return False
    return True


# ----------------------------------------------------------------- report

class PeriodStatus(_Record):
    status: str  # "present" | "absent"
    certificates: tuple[Certificate, ...]


class PeriodicityReport(_Record):
    pattern: StarPattern
    p_max: int
    max_iterate: int
    periods: dict[int, PeriodStatus]
    chaos: Genscramble | None
    forced_baseline: frozenset[int]
    commentary: tuple[str, ...]
    theorem: CenterTheoremCase | NPlus2Case | None
    digraph: CoverDigraph

    @property
    def present(self) -> set[int]:
        return {q for q, s in self.periods.items() if s.status == "present"}

    @property
    def absent(self) -> set[int]:
        return {q for q, s in self.periods.items() if s.status == "absent"}


def _claims(
    k: int, theorem: CenterTheoremCase | NPlus2Case | None, cascade: Cascade | None,
    forced: frozenset[int], q: int,
) -> list[Certificate]:
    """The structural certificates claiming period q."""
    own = [CenterOrbit(k)] if q == k else [ForcedPeriod(q, k)] if q in forced else []
    return own + [c for c in (theorem, cascade) if c is not None and q in c.claimed_periods(q)]


def _claimed(
    k: int, theorem: CenterTheoremCase | NPlus2Case | None, cascade: Cascade | None,
    forced: frozenset[int], p_max: int,
) -> set[int]:
    """The periods up to p_max that ``_claims`` finds a certificate for,
    without building one."""
    claimed = {q for q in forced | {k} if q <= p_max}
    for cert in (theorem, cascade):
        if cert is not None:
            claimed |= cert.claimed_periods(p_max)
    return claimed


def _survey_rows(
    chunk: list[StarPattern], p_max: int, max_iterate: int, forced: frozenset[int]
) -> list[tuple]:
    """What a survey keeps of each pattern of ``chunk``, in order: (present
    periods, chaos iterate or None, center-theorem flag, n+2-theorem flag,
    covering digraph adjacency, its closed-walk counts tr(A^1..A^p_max) as
    a tuple).  The patterns share one orbit size k, so their digraphs
    share the vertex count k - 1.  ``forced`` is
    ``forced_periods(1, k, p_max)``, the same for every class of a survey.

    Each pattern is validated and its tables derived once, for every step
    below; the realization is built only when a multiple of k above k is
    in range (p_max >= 2k), and then the tables are its own
    (``PLMap.tables``), otherwise they come from ``_tables``.  One call of
    ``_walk_traces`` counts the closed walks of the whole chunk; then each
    class in turn: the closed-walk count decides every period that k does
    not divide (``_period_counts``), period k is the center's, and only
    its other multiples go to the oracle, which is asked only for a first
    witness (``plmap._scan``).  A claimed period that the count or the
    oracle finds absent raises InconsistencyError, at the first class of
    the chunk with one.  The claimed periods are a set of ints
    (``_claimed``); certificate records are built only to name them in
    that error."""
    maps = [realize(p) if 2 * p.k <= p_max else None for p in chunk]
    chunk_tables = [m.tables if m else _tables(p) for p, m in zip(chunk, maps)]
    batch = _walk_traces([t.adjacency for t in chunk_tables], p_max)
    rows = []
    for p, m, tables, traces in zip(chunk, maps, chunk_tables, batch):
        closing = _closing(m, p_max - 1) if m else None
        theorem = _theorem(tables)
        cascade = _find_cascade(tables.adjacency, tables.ends)
        claimed = _claimed(p.k, theorem, cascade, forced, p_max)
        counts = _period_counts(p.k, traces)
        present = []
        for q in range(1, p_max + 1):
            if q in counts:
                found = counts[q] > 0
            else:
                found = q == p.k or bool(_scan(m, q, None, True, closing, counts)[0])
            if q in claimed and not found:
                claims = _claims(p.k, theorem, cascade, forced, q)
                raise InconsistencyError(
                    f"{p.to_text()}: certificates {claims!r} claim period {q} but the "
                    f"{'closed-walk count' if q in counts else 'exact oracle'} finds no such "
                    "point — this is a bug"
                )
            if found:
                present.append(q)
        chaos = _find_genscramble(tables, theorem, max_iterate)
        rows.append((
            tuple(present),
            chaos.iterate if chaos is not None else None,
            isinstance(theorem, CenterTheoremCase),
            isinstance(theorem, NPlus2Case),
            tables.adjacency,
            tuple(traces),
        ))
    return rows


def periodicity_report(
    p: StarPattern, p_max: int = 10, max_iterate: int = 2
) -> PeriodicityReport:
    """Period-by-period account: structural certificates confirmed by the
    exact oracle's first witness, every other period by its exhaustive
    scan, whose first listed point alone is built as a record, and chaos
    by loop search.

    It realizes the pattern, reads its tables off the realization
    (``PLMap.tables``), builds the covering digraph and decides the
    theorem certificate once each, and keeps the last two on the report
    (``theorem``, ``digraph``).  Every period that the closed-walk count
    decides (``_period_counts``) is derived twice: an exhaustive scan
    (``plmap._scan``) must list exactly the counted number of points."""
    if p_max < 1:
        raise ValueError("p_max must be positive")
    if max_iterate < 1:
        raise ValueError("max_iterate must be positive")
    m = realize(p)
    closing = _closing(m, p_max - 1)  # first: a table past the cap stops the call at once
    tables = m.tables
    g = _digraph(tables)
    forced = frozenset(forced_periods(1, p.k, p_max))
    theorem = _theorem(tables)
    cascade = _find_cascade(tables.adjacency, tables.ends)
    traces = _walk_traces((g.adjacency,), p_max)[0]
    counts = _period_counts(p.k, traces)

    periods: dict[int, PeriodStatus] = {}
    for q in range(1, p_max + 1):
        claims = _claims(p.k, theorem, cascade, forced, q)
        found, cylinders, _, _ = _scan(m, q, None, bool(claims), closing, counts)
        if found:
            witness = OracleWitness(_listed(q, found[:1])[0])
            periods[q] = PeriodStatus("present", tuple(claims) + (witness,))
        elif claims:
            raise InconsistencyError(
                f"certificates {claims!r} claim period {q} but the "
                f"exact oracle finds no such point — this is a bug"
            )
        else:
            periods[q] = PeriodStatus("absent", (OracleAbsence(q, cylinders),))

    chaos = _find_genscramble(tables, theorem, max_iterate)
    commentary = [
        "closed walk lengths up to "
        f"{p_max}: {[q for q, t in enumerate(traces, 1) if t]}",
    ]
    for q in [q for q, t in enumerate(traces, 1) if t == 1 and q > 1]:
        # at q = 1 the self-loop does witness a fixed point
        w = next(i for i in range(len(g.vertices)) if g.has_edge(i, i))
        commentary.append(
            f"every closed walk of length {q} repeats the self-loop at "
            f"{g.vertices[w].label}; walk counting alone cannot certify "
            f"period {q}"
        )
    commentary.append(
        "absence statements describe the canonical realization; other "
        "continuous maps realizing this pattern may have extra periods"
    )
    return PeriodicityReport(
        pattern=p,
        p_max=p_max,
        max_iterate=max_iterate,
        periods=periods,
        chaos=chaos,
        forced_baseline=forced,
        commentary=tuple(commentary),
        theorem=theorem,
        digraph=g,
    )


# ------------------------------------------------------------------- JSON

def _point_json(pt) -> dict:
    return {"branch": pt.branch, "coord": f"{pt.coord.numerator}/{pt.coord.denominator}"}


def certificate_to_json(cert: Certificate) -> dict:
    """A certificate as JSON: its class's ``kind``, then its fields in
    order, with tuples as lists and ``case_id`` as ``case``.  An oracle
    witness is written as its point, period and center-orbit flag."""
    if isinstance(cert, OracleWitness):
        w = cert.witness
        return {
            "kind": cert.kind,
            "point": _point_json(w.point),
            "period": w.period,
            "on_center_orbit": w.on_center_orbit,
        }
    out = {"kind": cert.kind}
    for name in cert._fields:
        out["case" if name == "case_id" else name] = _json_value(getattr(cert, name))
    return out


def _json_value(value):
    """A field value with every tuple, nested ones too, as a list."""
    return [_json_value(x) for x in value] if isinstance(value, tuple) else value


def report_to_json(r: PeriodicityReport) -> dict:
    return {
        "pattern": r.pattern.to_json_dict(),
        "p_max": r.p_max,
        "max_iterate": r.max_iterate,
        "periods": {
            str(q): {
                "status": s.status,
                "certs": [certificate_to_json(c) for c in s.certificates],
            }
            for q, s in sorted(r.periods.items())
        },
        "chaos": {
            "status": "certified" if r.chaos is not None else "not_found",
            "cert": certificate_to_json(r.chaos) if r.chaos is not None else None,
        },
        "forced_baseline": sorted(r.forced_baseline),
        "commentary": list(r.commentary),
    }

"""Star graphs and finite orbit patterns of the branch point.

The space is an n-od: n arcs (proper branches) glued at a common center.
A pattern records where the forward orbit of the center lands: orbit point
i (1 <= i <= k-1) sits on proper branch ``branch_of(i)`` at ``rank_of(i)``
steps out from the center (rank 1 is closest).  Index 0 is the center
itself and the dynamics on indices is i -> (i+1) mod k.

Everything in this module is purely combinatorial; the exact geometric
realization lives in plmap.
"""

from __future__ import annotations

import functools
import math
import re
from itertools import accumulate, chain
from operator import attrgetter, ge, gt, le, lt

_setattr = object.__setattr__
_MISSING = object()


def _ordering(op):
    """The rich comparison ``op`` of two records of one class, by their
    shown fields."""

    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._key(self), self._key(other))

    return compare


class _Record:
    """Base of the package's immutable records.

    A subclass declares its fields as annotations in its own body, with
    optional defaults, in the order its constructor takes them.  Records
    are built positionally or by keyword, cannot be changed, compare equal
    only to a record of the same class with equal fields, hash by those
    fields, print as ``Name(field=value, ...)`` and pickle by their
    fields.  Class keywords: ``hidden`` names fields left out of ``repr``,
    ``==`` and the hash; ``order=True`` orders the records of one class
    by their fields; ``eq=False`` keeps identity equality.  The methods
    are shared by every subclass and read its field tuples, so defining a
    record runs no generated code.
    """

    __slots__ = ()

    def __init_subclass__(cls, hidden=(), order=False, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = fields
        cls._places = tuple(enumerate(fields))
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        cls._shown = shown = tuple(name for name in fields if name not in hidden)
        # a tuple of the shown fields for two or more, the bare value for one
        cls._key = attrgetter(*shown)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = map(_ordering, (lt, le, gt, ge))

    def __init__(self, *args, **kwargs):
        places = self._places
        if kwargs or len(args) != len(places):
            args = self._bind(args, kwargs)
        for i, name in places:
            _setattr(self, name, args[i])

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords, defaults or a wrong
        number of arguments; TypeError as a function call would raise."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args) :]:
            value = kwargs.pop(field, _MISSING)
            if value is _MISSING:
                value = self._defaults.get(field, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{name}() missing required argument: {field!r}")
            values.append(value)
        for key in kwargs:
            if key in fields:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        return values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)


# A marked point is an orbit index: 0 is the center, 1..k-1 the rest.
MarkedPoint = int

CENTER_INDEX = 0


class PatternError(ValueError):
    """Semantic problem with a pattern or finite-orbit description."""


class PatternSyntaxError(PatternError):
    """Unparseable pattern text; ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidPatternError(PatternError):
    """A pattern that breaks an invariant of ``validate``, raised where
    its basic intervals are derived (``_descent``, which every table
    builder calls); ``args[0]`` joins the problems."""

    def __str__(self) -> str:
        return "invalid pattern: " + self.args[0]


class EnumerationCapExceeded(RuntimeError):
    """Pattern enumeration would exceed the configured cap."""


class StarPattern(_Record):
    """Orbit pattern of the center of an n-od.

    ``placements[i-1]`` is the (branch, rank) of orbit point i, with
    branches numbered 1..n and ranks counted outward from 1.  The center
    (index 0) has no placement.  Construction never validates; use
    :func:`validate` to collect violations.
    """

    n: int
    k: int
    placements: tuple[tuple[int, int], ...]

    def branch_of(self, i: MarkedPoint) -> int:
        if i == CENTER_INDEX:
            raise PatternError("the center lies on no proper branch")
        return self.placements[i - 1][0]

    def rank_of(self, i: MarkedPoint) -> int:
        if i == CENTER_INDEX:
            raise PatternError("the center has no rank")
        return self.placements[i - 1][1]

    def successor(self, i: MarkedPoint) -> MarkedPoint:
        return (i + 1) % self.k

    def branch_points(self, b: int) -> tuple[int, ...]:
        """Orbit indices on branch b ordered by increasing rank."""
        return self.branches[b - 1] if 1 <= b <= self.n else ()

    @property
    def branches(self) -> tuple[tuple[int, ...], ...]:
        """Per-branch index tuples in rank order (the serialized view),
        from one sorted pass over the placements."""
        n = self.n
        rows: list[list[int]] = [[] for _ in range(n)]
        for (b, _), i in sorted(zip(self.placements, range(1, self.k))):
            if 0 < b <= n:
                rows[b - 1].append(i)
        return tuple(map(tuple, rows))

    def branch_size(self, b: int) -> int:
        return sum(1 for br, _ in self.placements if br == b)

    def to_text(self) -> str:
        """The one-line form ``n=3 k=5; b1: 1 3; b2: 2; b3: 4``, built
        straight from one sorted pass over the placements, as
        ``branches``."""
        n = self.n
        rows = [[f"b{b}:"] for b in range(1, n + 1)]
        for (b, _), i in sorted(zip(self.placements, range(1, self.k))):
            if 0 < b <= n:
                rows[b - 1].append(str(i))
        return "; ".join([f"n={n} k={self.k}", *map(" ".join, rows)])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "branches": [list(pts) for pts in self.branches],
        }


def _pattern_from_branches(n: int, k: int, branches, pairs=None) -> StarPattern:
    """The pattern of per-branch index tuples; ``pairs[b][r]``, when given,
    is the (b, r) tuple to place, shared by every pattern built from it."""
    placements: list[tuple[int, int]] = [(0, 0)] * (k - 1)
    for b, pts in enumerate(branches, start=1):
        for r, i in enumerate(pts, start=1):
            placements[i - 1] = pairs[b][r] if pairs else (b, r)
    return StarPattern(n, k, tuple(placements))


def _check_index_cover(k: int, branches) -> None:
    """Branch sections must list each of 1..k-1 exactly once."""
    present, dups = set(), set()
    for pts in branches:
        for i in pts:
            if not 1 <= i <= k - 1:
                raise PatternError(f"orbit index {i} out of range for k={k}")
            (dups if i in present else present).add(i)
    if dups:
        raise PatternError(f"duplicate orbit indices: {sorted(dups)}")
    # distinct indices in 1..k-1: the first ten missing lie below len(present) + 11
    if len(present) < k - 1:
        missing = [i for i in range(1, min(k, len(present) + 11)) if i not in present]
        more = f" ... ({k - 1 - len(present)} in all)" if len(present) < k - 11 else ""
        raise PatternError(f"missing orbit indices: {missing}{more}")


# ---------------------------------------------------------------- parsing

_HEADER_RE = re.compile(r"n=(\d+)\s+k=(\d+)\s*")
_BRANCH_RE = re.compile(r"\s*b(\d+):((?:\s+\d+)*)\s*")


def parse_pattern(text: str) -> StarPattern:
    """Parse the one-line pattern format ``n=3 k=5; b1: 1 3; b2: 2; b3: 4``.

    Branch sections list orbit indices in increasing distance from the
    center.  Raises PatternSyntaxError with a character position for
    malformed text and PatternError for semantic violations; a pattern it
    returns is valid (``_built``).
    """
    m = _HEADER_RE.match(text)
    if not m:
        raise PatternSyntaxError("expected header 'n=<int> k=<int>'", 0)
    n, k = int(m.group(1)), int(m.group(2))
    pos = m.end()
    branches: list[tuple[int, ...]] = []
    label = 0
    while pos < len(text):
        if text[pos] != ";":
            raise PatternSyntaxError("expected ';'", pos)
        pos += 1
        bm = _BRANCH_RE.match(text, pos)
        if not bm:
            raise PatternSyntaxError("expected 'b<i>: <indices>'", pos)
        label += 1
        if int(bm.group(1)) != label:
            raise PatternSyntaxError(f"expected branch label b{label}", pos)
        branches.append(tuple(int(t) for t in bm.group(2).split()))
        pos = bm.end()
    if label != n:
        raise PatternError(f"header says n={n} but found {label} branch sections")
    return _built(n, k, branches)


def pattern_from_json_dict(obj: dict) -> StarPattern:
    """Build a pattern from the ``{"n":…,"k":…,"branches":[[…],…]}`` form,
    whose n, k and indices must be JSON integers and whose branches a list
    of lists; a pattern it returns is valid (``_built``)."""
    try:
        n, k, branches = obj["n"], obj["k"], obj["branches"]
    except (KeyError, TypeError) as exc:
        raise PatternError(f"malformed pattern object: {exc}") from exc
    sections = isinstance(branches, list) and all(isinstance(pts, list) for pts in branches)
    if not sections or any(type(x) is not int for x in [n, k, *chain.from_iterable(branches)]):
        raise PatternError(
            "malformed pattern object: n, k and every index must be integers, "
            "branches a list of lists"
        )
    if len(branches) != n:
        raise PatternError(f"header says n={n} but found {len(branches)} branches")
    return _built(n, k, branches)


def _built(n: int, k: int, branches) -> StarPattern:
    """The pattern of n branch sections, valid by construction: each of
    1..k-1 is placed once (``_check_index_cover``), at consecutive ranks
    from 1 (``_pattern_from_branches``).  So only n < 1 or k < 2 is left,
    and ``validate`` words it."""
    _check_index_cover(k, branches)
    pattern = _pattern_from_branches(n, k, branches)
    if n < 1 or k < 2:
        raise PatternError("; ".join(validate(pattern)))
    return pattern


def validate(p: StarPattern) -> list[str]:
    """Collect invariant violations; an empty list means the pattern is good.

    Never raises: degenerate constructions are reported, not rejected.
    """
    problems: list[str] = []
    if p.n < 1:
        problems.append(f"branch count n={p.n} must be at least 1")
    if p.k < 2:
        problems.append(f"orbit size k={p.k} must be at least 2")
    if len(p.placements) != max(p.k - 1, 0):
        problems.append(
            f"expected {max(p.k - 1, 0)} placements for k={p.k}, got {len(p.placements)}"
        )
        return problems
    ranks_on: dict[int, list[int]] = {}
    for i in range(1, p.k):
        b, r = p.placements[i - 1]
        if not 1 <= b <= p.n:
            problems.append(f"point {i} on nonexistent branch {b}")
            continue
        ranks_on.setdefault(b, []).append(r)
    for b, ranks in sorted(ranks_on.items()):
        seen = sorted(ranks)
        if seen != list(range(1, len(seen) + 1)):
            if len(set(seen)) < len(seen):
                problems.append(f"branch b{b} has duplicate ranks")
            else:
                problems.append(f"branch b{b} has a rank gap: ranks {seen}")
    return problems


# ------------------------------------------------------- canonical classes

def canonicalize(p: StarPattern) -> StarPattern:
    """Lexicographically least representative under branch permutations.

    The branch index tuples (in rank order) are sorted as sequences; two
    patterns are branch-permutation equivalent iff they canonicalize to
    the same pattern.
    """
    return _pattern_from_branches(p.n, p.k, tuple(sorted(p.branches)))


def _raw_arrangements(n: int, k: int):
    """Yield every per-branch arrangement of indices 1..k-1 (rank order
    significant), as a tuple of n index tuples."""

    def insert(branches: list[list[int]], i: int):
        if i == k:
            yield tuple(tuple(br) for br in branches)
            return
        for b in range(n):
            for pos in range(len(branches[b]) + 1):
                branches[b].insert(pos, i)
                yield from insert(branches, i + 1)
                branches[b].pop(pos)

    yield from insert([[] for _ in range(n)], 1)


def iter_patterns(n: int, k: int, all_branches: bool = False):
    """Yield every raw pattern (no dedup) with the given shape."""
    for branches in _raw_arrangements(n, k):
        if all_branches and any(not br for br in branches):
            continue
        yield _pattern_from_branches(n, k, branches)


def _capped_prod(factors, cap: int | None) -> int:
    """The product of the factors, or, with ``cap``, the first partial
    product above ``cap``."""
    total = 1
    for f in factors:
        total *= f
        if cap is not None and total > cap:
            break
    return total


def _raw_pattern_count(n: int, k: int, all_branches: bool = False, cap: int | None = None) -> int:
    """How many raw patterns ``iter_patterns`` yields, in closed form, or,
    with ``cap``, a number above ``cap`` once the count is known to pass it.

    Those with exactly j occupied branches number n!/(n-j)! * L(k-1, j):
    the Lah number L(m, j) = C(m-1, j-1) * m!/j! counts the sets of j
    nonempty disjoint sequences covering 1..m, and n!/(n-j)! the ways to
    put them on distinct branches.  Every factor of n!/(n-j)! and m!/j!
    but the least is at least 2, so with ``cap`` each is multiplied out
    only until it passes the cap, and C(m-1, j-1) only when their product
    does not, when j is at most ``cap.bit_length() + 1``.
    """
    m = k - 1
    total = 0
    for j in range(n if all_branches else 1, min(n, m) + 1):
        term = _capped_prod(range(n - j + 1, n + 1), cap) * _capped_prod(range(j + 1, m + 1), cap)
        if cap is None or term <= cap:
            term *= math.comb(m - 1, j - 1)
        total += term
        if cap is not None and total > cap:
            break
    return total


def _sequence_sets(m: int, fewest: int, most: int):
    """Yield every set of between ``fewest`` and ``most`` nonempty disjoint
    sequences covering 1..m, each set once, as a sorted tuple.  Index i
    either opens a new sequence or is inserted anywhere into an open one,
    so a sequence is created by its least element."""

    def place(seqs: list[list[int]], i: int):
        if m - i + 1 < fewest - len(seqs):
            return
        if i > m:
            yield tuple(sorted(tuple(s) for s in seqs))
            return
        for s in seqs:
            for pos in range(len(s) + 1):
                s.insert(pos, i)
                yield from place(seqs, i + 1)
                s.pop(pos)
        if len(seqs) < most:
            seqs.append([i])
            yield from place(seqs, i + 1)
            seqs.pop()

    yield from place([], 1)


def enumerate_patterns(
    n: int, k: int, all_branches: bool = False, cap: int = 10**6
) -> list[StarPattern]:
    """All branch-permutation classes with the given shape, one canonical
    representative each, sorted by serialized form.

    A canonical representative is a sorted tuple of disjoint rank-ordered
    branch sequences, so the representatives are generated directly
    (orderly generation): every set of j nonempty sequences covering
    1..k-1, for j = n under ``all_branches`` and j = 1..n otherwise,
    sorted, behind n-j empty branches.  No raw pattern is visited.  The
    placements of every representative share one table of the n(k-1)
    (branch, rank) pairs.

    Raises EnumerationCapExceeded, before generating anything, if more
    than ``cap`` raw patterns have the shape (``_raw_pattern_count``).
    """
    if n < 1 or k < 2:
        raise PatternError(f"enumeration needs n >= 1 and k >= 2, got n={n} k={k}")
    if _raw_pattern_count(n, k, all_branches, cap) > cap:
        raise EnumerationCapExceeded(f"more than {cap} raw patterns for n={n} k={k}")
    fewest = n if all_branches else 1
    reps = sorted(
        ((),) * (n - len(seqs)) + seqs for seqs in _sequence_sets(k - 1, fewest, n)
    )
    if not reps:
        return []
    pairs = [[(b, r) for r in range(k)] for b in range(n + 1)]
    return [_pattern_from_branches(n, k, brs, pairs) for brs in reps]


# ----------------------------------------------------------------- arcs

class Arc(_Record):
    """Ordered arc between two marked points of one pattern.

    ``points`` is the full traversal, every marked point met on the way
    from a to b inclusive.  Consecutive traversal points are exactly one
    rank apart, so the traversal index doubles as arclength in rank
    coordinates.
    """

    pattern: StarPattern
    a: MarkedPoint
    b: MarkedPoint
    points: tuple[MarkedPoint, ...]

    @property
    def through_center(self) -> bool:
        """True when the center is interior to the arc."""
        return CENTER_INDEX in self.points[1:-1]


def _descent_to_center(p: StarPattern, a: MarkedPoint) -> list[MarkedPoint]:
    """Marked points from a down to the center, inclusive."""
    if a == CENTER_INDEX:
        return [CENTER_INDEX]
    b, r = p.placements[a - 1]
    return [*p.branches[b - 1][r - 1::-1], CENTER_INDEX]


def arc(a: MarkedPoint, b: MarkedPoint, p: StarPattern) -> Arc:
    """The unique arc from a to b with its ordered marked-point traversal:
    the descent from a to the center, then the ascent to b, less the tail
    the two descents share."""
    for x in (a, b):
        if not 0 <= x < p.k:
            raise PatternError(f"marked point {x} out of range for k={p.k}")
    if a == b:
        raise PatternError("arc endpoints must be distinct")
    down, up = _descent_to_center(p, a), _descent_to_center(p, b)
    while len(down) > 1 and len(up) > 1 and down[-2] == up[-2]:
        down.pop()
        up.pop()
    return Arc(p, a, b, tuple(down + up[-2::-1]))


class BasicInterval(_Record):
    """A minimal closed interval between adjacent marked points on one
    branch; ``inner`` is the endpoint closer to the center (possibly the
    center itself)."""

    inner: MarkedPoint
    outer: MarkedPoint
    branch: int
    outer_rank: int

    @property
    def label(self) -> str:
        return f"[{self.inner},{self.outer}]"

    @property
    def endpoints(self) -> tuple[MarkedPoint, MarkedPoint]:
        return (self.inner, self.outer)


def _descent(p: StarPattern) -> tuple[list[tuple[MarkedPoint, MarkedPoint]], list[int]]:
    """The basic intervals and the descent vector of a pattern, in one
    pass over the placements that also checks the invariants of
    ``validate``.

    ``ends[i]`` is basic interval i as its (inner, outer) marked points,
    ordered by (branch, rank from the center): one per marked point, which
    is its outer end.  ``down[x]`` is the bitmask of the basic intervals
    between marked point x and the center: bit i stands for interval i,
    and a point of rank r on branch b has the r low bits of b's block,
    which starts after the intervals of the branches before b.  In a tree
    the arc between two points is the symmetric difference of their paths
    to the center, so ``down[a] ^ down[b]`` is the arc between a and b.

    The pass fills slot ``start[b] + r - 1`` for each point.  A pattern is
    valid iff n >= 1, k >= 2 and there are k - 1 placements, every branch
    is in 1..n, every rank in 1..size[b] and no slot is filled twice: then
    the ranks of each branch are exactly 1..size[b].  Otherwise it raises
    InvalidPatternError with ``validate``'s problems, so ``validate`` runs
    only for an invalid pattern."""
    n, k, placements = p.n, p.k, p.placements
    valid = n >= 1 and k >= 2 and len(placements) == k - 1
    size = [0] * (n + 1)
    inner, outer, down = [CENTER_INDEX] * (k - 1), [0] * (k - 1), [0] * k
    if valid:
        for b, _ in placements:
            if not 0 < b <= n:
                valid = False
                break
            size[b] += 1
    if valid:
        start = list(accumulate(size, initial=0))  # start[b] counts the intervals before branch b
        for i, (b, r) in enumerate(placements, start=1):
            v = start[b] + r - 1
            if not 0 < r <= size[b] or outer[v]:
                valid = False
                break
            outer[v] = i
            if r < size[b]:
                inner[v + 1] = i
            down[i] = ((1 << r) - 1) << start[b]
    if not valid:
        raise InvalidPatternError("; ".join(validate(p)))
    return list(zip(inner, outer)), down


def basic_intervals(p: StarPattern) -> list[BasicInterval]:
    """All basic intervals, ordered by (branch, rank from the center): one
    per marked point, which is its outer end.  Raises InvalidPatternError
    (a ValueError) for an invalid pattern."""
    return [BasicInterval(a, b, *p.placements[b - 1]) for a, b in _descent(p)[0]]


class _Tables(_Record, eq=False):
    """The combinatorics of one valid pattern, derived once (``_tables``)
    for every step that reads it.

    ``ends`` and ``down`` are as in ``_descent``: the basic intervals in
    the vertex order of ``basic_intervals``, and the descent vector, whose
    XOR ``down[a] ^ down[b]`` is the arc between a and b as a bitmask of
    basic intervals.  ``rows[i]`` is the image of interval i under the
    canonical map as such a mask, and ``adjacency[i]`` lists its bits: the
    covering digraph."""

    pattern: StarPattern
    ends: list[tuple[MarkedPoint, MarkedPoint]]
    down: list[int]
    rows: list[int]
    adjacency: tuple[tuple[int, ...], ...]


@functools.cache
def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, in increasing order: an
    adjacency row of the covering digraph from its cover row, shared by
    every pattern with that row."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def _tables(p: StarPattern) -> _Tables:
    """Validate p once, in the descent pass (``_descent``), and derive its
    tables.  The canonical map sends a basic interval onto exactly the arc
    between its endpoints' images, so the cover rows (the covering
    digraph, the Markov graph of the pattern) depend on the pattern alone.
    Raises InvalidPatternError (a ValueError) for an invalid pattern."""
    ends, down = _descent(p)
    image = down[1:] + down[:1]  # image[x] is down of x's successor
    rows = [image[a] ^ image[b] for a, b in ends]
    return _Tables(p, ends, down, rows, tuple(map(_bits, rows)))


def _image(rows: list[int], x: int) -> int:
    """The image of a union of basic intervals (a bitmask): the union of
    the image masks ``rows`` of its intervals."""
    y = 0
    while x:
        low = x & -x
        y |= rows[low.bit_length() - 1]
        x ^= low
    return y


# ---------------------------------------------------------- orbit specs

class FiniteOrbitSpec(_Record):
    """A finite invariant cycle that need not contain the center.

    Points are 0..k-1.  ``center_point`` names the point that is the
    center, or None when the cycle misses it; the center's placement
    entry is ignored.  ``succ`` is the dynamics and must be a single
    k-cycle.
    """

    n: int
    k: int
    placements: tuple[tuple[int, int], ...]
    succ: tuple[int, ...]
    center_point: int | None = None


def validate_orbit_spec(s: FiniteOrbitSpec) -> list[str]:
    if len(s.placements) != s.k or len(s.succ) != s.k:
        return ["placements and succ must both have length k"]
    if sorted(s.succ) != list(range(s.k)):
        return ["succ is not a permutation"]
    problems: list[str] = []
    # single cycle check
    seen, x = 1, s.succ[0]
    while x != 0 and seen <= s.k:
        x = s.succ[x]
        seen += 1
    if seen != s.k:
        problems.append("succ is not a single cycle")
    ranks_on: dict[int, list[int]] = {}
    for i in range(s.k):
        if i == s.center_point:
            continue
        b, r = s.placements[i]
        if not 1 <= b <= s.n:
            problems.append(f"point {i} on nonexistent branch {b}")
            continue
        ranks_on.setdefault(b, []).append(r)
    for b, ranks in sorted(ranks_on.items()):
        if sorted(ranks) != list(range(1, len(ranks) + 1)):
            problems.append(f"branch b{b} ranks not contiguous from 1: {sorted(ranks)}")
    return problems


def orbit_type(s: FiniteOrbitSpec) -> frozenset[int]:
    """Cycle lengths of the induced branch dynamics.

    If the cycle contains the center the type is {1}.  Otherwise each
    occupied branch is sent to the branch receiving the image of its
    innermost point, and the type collects the cycle lengths of that
    (partial) self-map of branch labels.
    """
    problems = validate_orbit_spec(s)
    if problems:
        raise PatternError("; ".join(problems))
    if s.center_point is not None:
        return frozenset({1})
    innermost = {b: i for i, (b, r) in enumerate(s.placements) if r == 1}
    fmap = {b: s.placements[s.succ[i]][0] for b, i in innermost.items()}
    lengths: set[int] = set()
    for start in fmap:
        # walk until a repeat; the tail of the trail is the reached cycle
        trail: list[int] = []
        x = start
        while x not in trail:
            trail.append(x)
            x = fmap[x]
        lengths.add(len(trail) - trail.index(x))
    return frozenset(lengths)

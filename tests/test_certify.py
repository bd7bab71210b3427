"""Covering digraphs, certificates, chaos search, and periodicity reports.

Golden digraph edges, cascade shapes, and report outcomes below were frozen
from hand derivations of the two running examples (successor images of each
basic interval, read off the pattern) before the module existed.
"""

import itertools
import json
import random
import typing
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_chaos as ref_chaos
import reference_digraph as ref_digraph
import reference_loop as ref_loop
import reference_scan as ref_scan
import reference_traces as ref_traces
import stardyn.certify as certify_module
import stardyn.plmap as plmap_module
from stardyn.certify import (
    Cascade,
    CenterOrbit,
    CenterTheoremCase,
    CoverDigraph,
    ForcedPeriod,
    Genscramble,
    InconsistencyError,
    NPlus2Case,
    OracleAbsence,
    OracleWitness,
    basic_intervals,
    certificate_to_json,
    check_center_theorem,
    check_nplus2_theorem,
    closed_walk_lengths,
    cover_digraph,
    find_cascade,
    find_genscramble,
    periodicity_report,
    render_dot,
    report_to_json,
    self_loop_only_lengths,
    verify_certificate,
    verify_genscramble,
)
from stardyn.cli import run
from stardyn.patterns import (
    InvalidPatternError,
    StarPattern,
    _tables,
    arc,
    enumerate_patterns,
    parse_pattern,
    validate,
)
from stardyn.plmap import (
    LoopError,
    PeriodicWitness,
    first_witness,
    loop_point,
    make_point,
    oracle_scan,
    periodic_points,
    realize,
)
from support import EX1, EX2, drop_one_listed_point, random_pattern

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"

EX1_EDGES = {
    ("[0,1]", "[0,1]"),
    ("[0,1]", "[0,2]"),
    ("[0,2]", "[1,3]"),
    ("[1,3]", "[0,2]"),
    ("[1,3]", "[0,4]"),
    ("[0,4]", "[0,1]"),
}
EX2_EDGES = {
    ("[0,1]", "[0,1]"),
    ("[0,1]", "[0,2]"),
    ("[0,2]", "[1,3]"),
    ("[1,3]", "[0,2]"),
    ("[1,3]", "[0,4]"),
    ("[0,4]", "[1,3]"),
    ("[0,4]", "[3,5]"),
    ("[3,5]", "[0,4]"),
}


@pytest.fixture(scope="module")
def p1():
    return parse_pattern(EX1)


@pytest.fixture(scope="module")
def p2():
    return parse_pattern(EX2)


# -------------------------------------------------------- basic intervals

def test_basic_intervals_examples(p1, p2):
    assert [b.label for b in basic_intervals(p1)] == ["[0,1]", "[1,3]", "[0,2]", "[0,4]"]
    assert [b.label for b in basic_intervals(p2)] == [
        "[0,1]", "[1,3]", "[3,5]", "[0,2]", "[0,4]",
    ]


def test_basic_intervals_one_point_per_branch():
    p = parse_pattern("n=2 k=3; b1: 1; b2: 2")
    assert [b.label for b in basic_intervals(p)] == ["[0,1]", "[0,2]"]


def test_basic_interval_minimality_random():
    rng = random.Random(23)
    for _ in range(30):
        p = random_pattern(rng, rng.randint(1, 4), rng.randint(2, 8))
        for b in basic_intervals(p):
            interior = arc(b.inner, b.outer, p).points[1:-1]
            assert interior == ()


# ----------------------------------------------------------- cover digraph

def test_cover_digraph_example1(p1):
    assert cover_digraph(p1).edge_labels() == EX1_EDGES


def test_cover_digraph_example2(p2):
    assert cover_digraph(p2).edge_labels() == EX2_EDGES


def test_cover_digraph_swap_self_loop():
    g = cover_digraph(parse_pattern("n=2 k=2; b1: 1; b2:"))
    assert [v.label for v in g.vertices] == ["[0,1]"]
    assert g.edge_labels() == {("[0,1]", "[0,1]")}


def test_digraph_matches_exact_images_random():
    # edge I -> J in the combinatorial digraph iff the exact image of I
    # contains J in the canonical realization
    rng = random.Random(29)
    for _ in range(200):
        p = random_pattern(rng, rng.randint(1, 4), rng.randint(2, 8))
        g = cover_digraph(p)
        m = realize(p)
        for i, v in enumerate(g.vertices):
            img = ref_loop.image_of_arc(m, arc(v.inner, v.outer, p))
            for j, w in enumerate(g.vertices):
                assert g.has_edge(i, j) == img.contains(
                    ref_loop.subtree_of_arc(m, arc(w.inner, w.outer, p))
                )


def test_cover_digraph_and_chaos_replay_reject_invalid_patterns():
    cert = Genscramble(1, 1, 2, ((1, 2), (1, 2)))
    for broken in (
        StarPattern(n=1, k=2, placements=((1, 2),)),  # rank gap
        StarPattern(n=1, k=3, placements=((1, 1), (1, 1))),  # duplicate ranks
        StarPattern(n=1, k=3, placements=((1, 1),)),  # a placement missing
    ):
        with pytest.raises(ValueError, match="invalid pattern"):
            cover_digraph(broken)
        with pytest.raises(ValueError, match="invalid pattern"):
            verify_genscramble(broken, cert)


def _realization(m):
    """Every field of a realization, the ones equality skips included."""
    return (m.pattern, m.branch_lengths, m.pieces, m.images, m.successors, m.cells)


def _check_integer_structure(p):
    """The integer realization equals the ``Fraction`` realization, the
    union of its piece images equals the pattern's covering rows (the map
    is Markov), and the digraph equals the ``Arc``-built digraph."""
    m = realize(p)
    assert _realization(m) == _realization(ref_scan.realize(p)), p.to_text()
    assert ref_digraph.cover_rows_from_pieces(m) == _tables(p).rows, p.to_text()
    assert cover_digraph(p) == ref_digraph.cover_digraph(p), p.to_text()


@pytest.mark.parametrize("k", range(2, 8))
def test_realize_and_digraph_match_references_on_every_class(k):
    for n in range(1, 5):
        # every class of either all_branches flag: the all-branch classes
        # are those of this list with no empty branch
        for p in enumerate_patterns(n, k):
            _check_integer_structure(p)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(2, 8))
def test_realize_and_digraph_match_references_on_random_patterns(rng, n, k):
    _check_integer_structure(random_pattern(rng, n, k))


def test_arcs_disjoint_matches_arc_traversals():
    for n, k in itertools.product(range(1, 4), range(2, 7)):
        for p in enumerate_patterns(n, k):
            down = _tables(p).down
            arcs = {e: arc(*e, p) for e in itertools.combinations(range(p.k), 2)}
            ids = {e: ref_digraph.basic_ids(x) for e, x in arcs.items()}
            for (e, x), (f, y) in itertools.product(arcs.items(), repeat=2):
                shared = ids[e] & ids[f] or set(x.points) & set(y.points)
                disjoint = certify_module._arcs_disjoint(down, e, f)
                assert disjoint == (not shared), (p.to_text(), e, f)


@pytest.mark.parametrize("k", range(2, 7))
def test_arc_masks_match_arc_traversals(k):
    # the arc between a and b is the XOR of their descents to the center
    for n in range(1, 5):
        for p in enumerate_patterns(n, k):
            down = _tables(p).down
            bit = {(w.branch, w.outer_rank): 1 << i for i, w in enumerate(basic_intervals(p))}
            for a, b in itertools.permutations(range(k), 2):
                x = arc(a, b, p)
                ids = ref_digraph.basic_ids(x)
                assert down[a] ^ down[b] == sum(bit[i] for i in ids), (p.to_text(), a, b)
                assert certify_module._through_center(down, a, b) == x.through_center
                for t in (1, 2, 3):
                    assert certify_module._ordering_holds(down, a, b, t) == (
                        ref_chaos.ordering_holds(p, a, b, t)
                    ), (p.to_text(), a, b, t)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(2, 9))
def test_descent_vector_matches_reference_tables(rng, n, k):
    # one pass over the placements gives the sorted intervals and the arc matrix
    p = random_pattern(rng, n, k)
    tables = _tables(p)
    assert tables.ends == ref_digraph._interval_ends(p)
    down = tables.down
    assert [[x ^ y for y in down] for x in down] == ref_digraph._arc_masks(p)


@st.composite
def _malformed_patterns(draw):
    """A pattern with n in 0..4, k in 0..9, 0..k placements, branches in
    -1..n+1 and ranks in -1..k+1; half of them a valid pattern with at
    most one placement redrawn or copied onto another, so that valid
    patterns and near misses are drawn too."""
    n, k = draw(st.integers(0, 4)), draw(st.integers(0, 9))
    entry = st.tuples(st.integers(-1, n + 1), st.integers(-1, k + 1))
    if n >= 1 and k >= 2 and draw(st.booleans()):
        placements = list(random_pattern(draw(st.randoms(use_true_random=False)), n, k).placements)
        index = st.integers(0, k - 2)
        for i in draw(st.lists(index, max_size=1)):
            placements[i] = draw(st.one_of(entry, index.map(placements.__getitem__)))
    else:
        placements = draw(st.lists(entry, max_size=k))
    return StarPattern(n, k, tuple(placements))


@settings(max_examples=300, deadline=None)
@given(_malformed_patterns())
@example(StarPattern(3, 3, ((1, 1), (1, 1))))  # one slot filled twice
@example(StarPattern(3, 3, ((4, 1), (1, 1))))  # a branch out of range
@example(StarPattern(1, 3, ((1, 0), (1, 1))))  # distinct slots, rank 0
@example(StarPattern(2, 3, ((1, 1), (1, 2))))  # an empty branch
def test_descent_pass_checks_what_validate_checks(p):
    # the descent pass raises with exactly validate's problems iff validate
    # reports any, and otherwise derives the reference tables
    problems = validate(p)
    if problems:
        with pytest.raises(InvalidPatternError) as raised:
            _tables(p)
        assert raised.value.args == ("; ".join(problems),)
    else:
        tables = _tables(p)
        assert tables.ends == ref_digraph._interval_ends(p)
        assert tables.down == ref_digraph._arc_masks(p)[0]


def test_render_dot(p1):
    dot = render_dot(cover_digraph(p1))
    assert dot.startswith("digraph covering {")
    assert '"[0,1]" -> "[0,2]";' in dot
    assert dot.count("->") == len(EX1_EDGES)


# ------------------------------------------------------------ walk lengths

def test_walk_lengths_example1(p1):
    g = cover_digraph(p1)
    assert closed_walk_lengths(g, 6) == {1, 2, 3, 4, 5, 6}
    assert self_loop_only_lengths(g, 6) == {1, 3}


def test_walk_lengths_example2(p2):
    g = cover_digraph(p2)
    assert closed_walk_lengths(g, 9) == {1, 2, 3, 4, 5, 6, 7, 8, 9}
    assert self_loop_only_lengths(g, 9) == {1, 3, 5, 7, 9}


def test_walk_lengths_edgeless(p1):
    g = CoverDigraph(p1, tuple(basic_intervals(p1)), ((), (), (), ()))
    assert closed_walk_lengths(g, 5) == set()
    assert self_loop_only_lengths(g, 5) == set()


def test_walk_lengths_match_explicit_walk_enumeration(p2):
    g = cover_digraph(p2)

    def count_walks(length):
        total = 0
        for start in range(len(g.vertices)):
            stack = [(start, 0)]
            while stack:
                v, d = stack.pop()
                if d == length:
                    total += v == start
                    continue
                stack.extend((w, d + 1) for w in g.adjacency[v])
        return total

    for length in range(1, 7):
        assert (count_walks(length) > 0) == (length in closed_walk_lengths(g, 6))
        assert (count_walks(length) == 1 and length in closed_walk_lengths(g, 6)) == (
            length in self_loop_only_lengths(g, 6)
        )


def _closed_walk_count(adjacency, length):
    """Closed walks of the given length, by explicit enumeration."""
    total = 0
    for start in range(len(adjacency)):
        stack = [(start, 0)]
        while stack:
            v, d = stack.pop()
            if d == length:
                total += v == start
                continue
            stack.extend((w, d + 1) for w in adjacency[v])
    return total


def test_walk_traces_count_closed_walks(p1, p2):
    for p in (p1, p2, parse_pattern("n=1 k=2; b1: 1")):
        m = realize(p)
        for adjacency in (cover_digraph(p).adjacency, m.successors):
            traces = plmap_module._walk_traces(adjacency, 7)
            assert traces == [_closed_walk_count(adjacency, q) for q in range(1, 8)]
    # every entry of A^q reaches 9^(q-1): the packed fields must not overflow
    complete = tuple(tuple(range(9)) for _ in range(9))
    assert plmap_module._walk_traces(complete, 12) == [9**q for q in range(1, 13)]
    assert plmap_module._walk_traces((), 3) == [0, 0, 0]
    with pytest.raises(ValueError):
        plmap_module._walk_traces(((0,),), 0)


def test_walk_traces_fixed_digraphs():
    complete = tuple(tuple(range(9)) for _ in range(9))
    assert plmap_module._walk_traces(complete, 30) == [9**q for q in range(1, 31)]
    assert plmap_module._walk_traces((), 30) == [0] * 30
    # every arc goes up the vertex order, so no walk closes
    acyclic = tuple(tuple(range(i + 1, 7)) for i in range(7))
    assert plmap_module._walk_traces(acyclic, 40) == [0] * 40


@pytest.mark.parametrize("c", range(1, 6))
def test_walk_traces_of_a_cycle(c):
    cycle = tuple(((i + 1) % c,) for i in range(c))
    assert plmap_module._walk_traces(cycle, 40) == [0 if q % c else c for q in range(1, 41)]


def _adjacency(bits, size):
    """The digraph on ``size`` vertices with arc i -> j iff bit i * size + j
    of ``bits`` is set."""
    return tuple(tuple(j for j in range(size) if bits >> (i * size + j) & 1) for i in range(size))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 2**100 - 1), st.integers(1, 60)), min_size=1, max_size=4))
def test_walk_traces_match_the_reference_on_random_digraphs(calls):
    # several shapes in one run: the constants built once per shape must
    # never leak from one call into the next
    for size, bits, bound in calls:
        adjacency = _adjacency(bits, size)
        assert plmap_module._walk_traces(adjacency, bound) == ref_traces.walk_traces(adjacency, bound)


# ------------------------------------------------------------ walk counts

# Deepest period at which the walk count is compared with the oracle's list
# for the classes of each orbit size k with n <= 4, empty branches included
# (so both ``all_branches`` settings).  The oracle's cylinder count grows
# about threefold per period, as for ``REFERENCE_HORIZON`` in test_plmap.py.
COUNT_HORIZON = {2: 8, 3: 8, 4: 8, 5: 6, 6: 5}


def _counts(m, bound):
    traces = plmap_module._walk_traces(cover_digraph(m.pattern).adjacency, bound)
    return plmap_module._period_counts(m.pattern.k, traces)


@pytest.mark.parametrize("k", sorted(COUNT_HORIZON))
def test_walk_count_equals_oracle_list_on_every_class(k):
    bound = COUNT_HORIZON[k]
    for n in range(1, 5):
        for p in enumerate_patterns(n, k):
            m = realize(p)
            counts = _counts(m, bound)
            assert sorted(counts) == [q for q in range(1, bound + 1) if q % k]
            for q, count in counts.items():
                assert count == len(periodic_points(m, q)), (p.to_text(), q)


@pytest.mark.parametrize("k", range(2, 8))
def test_cover_digraph_traces_equal_piece_graph_traces(k):
    # both equal the reference's every-power traces at 2k + 3, where the
    # bound exceeds every vertex count, so the traces past the first s
    # come from the characteristic-polynomial recurrence
    traces = plmap_module._walk_traces
    for n in range(1, 5):
        for p in enumerate_patterns(n, k):
            m = realize(p)
            assert traces(cover_digraph(p).adjacency, 8) == traces(m.successors, 8), p.to_text()
            for adjacency in (cover_digraph(p).adjacency, m.successors):
                assert len(adjacency) < 2 * k + 3
                expected = ref_traces.walk_traces(adjacency, 2 * k + 3)
                assert traces(adjacency, 2 * k + 3) == expected, p.to_text()


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(2, 8))
def test_walk_count_presence_equals_oracle_on_random_patterns(rng, n, k):
    m = realize(random_pattern(rng, n, k))
    for q, count in _counts(m, 8).items():
        assert (count > 0) == (first_witness(m, q) is not None), (m.pattern.to_text(), q)


def _identity_lengths(m, bound):
    """Lengths q <= bound at which a closed walk of the piece graph composes
    to slope +1.  All its pieces have slope +-1; such a piece maps its basic
    interval onto one, so it has at most one such successor, and the walk
    repeats a cycle of them.  A cycle of length c and slope sign s gives
    the multiples of c when s = +1, else of 2c."""
    unit = {i for i, q in enumerate(m.pieces) if abs(q.slope) == 1}
    lengths = set()
    for start in unit:
        i, c, sign = start, 0, 1
        while c < len(unit):
            nxt = [j for j in m.successors[i] if j in unit]
            assert len(nxt) <= 1, m.pattern.to_text()
            sign, c = sign * m.pieces[i].slope, c + 1
            if not nxt:
                break
            i = nxt[0]
            if i == start:
                step = c if sign > 0 else 2 * c
                lengths.update(range(step, bound + 1, step))
                break
    return lengths


# the horizons reach the first identity length of every class listed below
IDENTITY_HORIZON = {2: 8, 3: 8, 4: 8, 5: 6, 6: 6, 7: 3}


@pytest.mark.parametrize("k", sorted(IDENTITY_HORIZON))
def test_identity_lengths_match_oracle_families_on_one_branch(k):
    # the scan reports a family at the first length where an iterate fixes
    # an interval pointwise; at its multiples those points have a smaller period
    bound = IDENTITY_HORIZON[k]
    for p in enumerate_patterns(1, k):
        m = realize(p)
        families = [q for q in range(1, bound + 1) if oracle_scan(m, q).family is not None]
        expected = {q for q in range(1, bound + 1) if any(q % d == 0 for d in families)}
        assert _identity_lengths(m, bound) == expected, p.to_text()
    swap = realize(parse_pattern("n=1 k=2; b1: 1"))
    assert _identity_lengths(swap, 8) == {2, 4, 6, 8}


def test_identity_lengths_are_multiples_of_k():
    # so the walk count decides every period that k does not divide; a class
    # with empty branches has the piece graph of an all-branch class
    with_lengths = set()
    for k in range(2, 8):
        for n in range(1, 5):
            for p in enumerate_patterns(n, k, all_branches=True):
                lengths = _identity_lengths(realize(p), 2 * k)
                assert all(q % k == 0 for q in lengths), p.to_text()
                if lengths:
                    with_lengths.add(k)
    assert with_lengths == {2, 4, 6}


# --------------------------------------------------------------- cascades

def test_cascade_example1(p1):
    c = find_cascade(cover_digraph(p1))
    assert c == Cascade(
        base=(0, 1), cycle=((0, 1), (0, 2), (1, 3), (0, 4), (0, 1)), m=4
    )
    assert verify_certificate(p1, c)


@pytest.mark.parametrize(
    "cert",
    [
        Cascade((0, 1), ((0, 1), (0, 3), (1, 3), (0, 4), (0, 1)), 4),
        Cascade((0, 1), ((0, 1), (0, 2), (1, 3), (0, 4), (0, 1)), 3),
        Cascade((0, 1), ((0, 1), (0, 1)), 1),
        Cascade((0, 2), ((0, 1), (0, 2), (1, 3), (0, 4), (0, 1)), 4),
        Cascade((0, 1), ((0, 1), (0, 2), (0, 1), (0, 2), (0, 1)), 4),
        Cascade((0, 2), ((0, 2), (1, 3), (0, 2)), 2),
    ],
    ids=["not-an-interval", "m-off-cycle", "m-below-2", "cycle-off-base", "repeated-vertex", "no-self-loop"],
)
def test_cascade_replay_rejects_tampering(p1, cert):
    assert not verify_certificate(p1, cert)


def test_cascade_example2_none(p2):
    assert find_cascade(cover_digraph(p2)) is None


def test_cascade_self_loop_alone_insufficient():
    g = cover_digraph(parse_pattern("n=2 k=2; b1: 1; b2:"))
    assert find_cascade(g) is None


@pytest.mark.parametrize("k", range(2, 8))
def test_cascade_search_matches_full_scan_reference(k):
    # the search stops at the first vertex whose shortest return has m = 2;
    # the reference runs one search per self-loop vertex
    for n in range(1, 4):
        for all_branches in (False, True):
            for p in enumerate_patterns(n, k, all_branches):
                tables = _tables(p)
                assert certify_module._find_cascade(tables.adjacency, tables.ends) == (
                    ref_digraph.find_cascade(tables.adjacency, tables.ends)
                ), p.to_text()


def test_cascade_claims_confirmed_by_oracle(p1):
    from stardyn.plmap import first_witness

    c = find_cascade(cover_digraph(p1))
    m = realize(p1)
    for q in range(c.m, 9):
        assert first_witness(m, q) is not None


# ----------------------------------------------------- center theorem

def test_center_theorem_case1_one_point_per_branch():
    p = parse_pattern("n=3 k=4; b1: 1; b2: 2; b3: 3")
    c = check_center_theorem(p)
    assert c == CenterTheoremCase(case_id=1, u=0, v=1, span=(0, 1), back=(2, 0))
    assert verify_certificate(p, c)


def test_center_theorem_none_for_example1(p1):
    assert check_center_theorem(p1) is None


def test_center_theorem_case2():
    p = parse_pattern("n=2 k=4; b1: 1 2; b2: 3")
    c = check_center_theorem(p)
    assert c == CenterTheoremCase(case_id=2, u=1, v=2, span=(1, 2), back=(0, 1))


def test_center_theorem_case3():
    p = parse_pattern("n=2 k=4; b1: 2 1; b2: 3")
    c = check_center_theorem(p)
    assert c == CenterTheoremCase(case_id=3, u=2, v=0, span=(2, 0), back=(1, 2))


def test_center_theorem_wraparound_small_orbits():
    # k=3: the third image is the center itself, which lies on no branch
    assert check_center_theorem(parse_pattern("n=2 k=3; b1: 1; b2: 2")).case_id == 1
    assert check_center_theorem(parse_pattern("n=1 k=3; b1: 1 2")).case_id == 2
    assert check_center_theorem(parse_pattern("n=1 k=3; b1: 2 1")).case_id == 3
    # k=2: the third image is the first one, same branch
    assert check_center_theorem(parse_pattern("n=1 k=2; b1: 1")) is None


def test_center_theorem_implies_all_periods():
    from stardyn.plmap import first_witness

    p = parse_pattern("n=3 k=4; b1: 1; b2: 2; b3: 3")
    m = realize(p)
    assert check_center_theorem(p) is not None
    for q in range(1, 11):
        assert first_witness(m, q) is not None


# ------------------------------------------------------- n+2 theorem

def test_nplus2_case2_is_example1(p1):
    c = check_nplus2_theorem(p1)
    assert c == NPlus2Case(
        case_id=2, u=0, v=1, span=(0, 1), chain=((0, 2), (1, 3), (0, 4))
    )
    assert c.claimed_periods(10) == {2, 4, 5, 6, 7, 8, 9, 10}


def test_nplus2_case1():
    p = parse_pattern("n=3 k=5; b1: 3 1; b2: 2; b3: 4")
    c = check_nplus2_theorem(p)
    assert c == NPlus2Case(case_id=1, u=0, v=3, span=(0, 3), chain=((0, 4),))
    assert c.claimed_periods(10) == set(range(2, 11))


def test_nplus2_none_when_center_theorem_applies():
    p = parse_pattern("n=3 k=5; b1: 1; b2: 3 2; b3: 4")
    assert check_nplus2_theorem(p) is None
    assert check_center_theorem(p) is not None


def test_nplus2_preconditions():
    with pytest.raises(ValueError, match="n\\+2"):
        check_nplus2_theorem(parse_pattern("n=3 k=4; b1: 1; b2: 2; b3: 3"))
    # an empty branch breaks only the hypothesis, which nplus2_applies checks
    with pytest.raises(ValueError, match="n\\+2"):
        check_nplus2_theorem(parse_pattern("n=3 k=5; b1: 1 3 2; b2: 4; b3:"))
    with pytest.raises(ValueError, match="n\\+2"):
        check_nplus2_theorem(parse_pattern("n=2 k=4; b1: 1 3; b2: 2"))


def test_nplus2_case_claims_confirmed(p1):
    from stardyn.plmap import first_witness, periodic_points

    m = realize(p1)
    c = check_nplus2_theorem(p1)
    for q in sorted(c.claimed_periods(10)):
        assert first_witness(m, q) is not None
    assert periodic_points(m, 3) == []


# ------------------------------------------------------------- chaos search

def test_genscramble_example2_frozen(p2):
    c = find_genscramble(p2, max_iterate=2)
    assert c == Genscramble(iterate=2, u=0, v=2, loop=((0, 2), (0, 4), (0, 2)))
    assert verify_genscramble(p2, c)


def test_genscramble_example2_needs_second_iterate(p2):
    assert find_genscramble(p2, max_iterate=1) is None


def test_genscramble_example1_from_theorem(p1):
    c = find_genscramble(p1, max_iterate=2)
    assert c.iterate == 1 and (c.u, c.v) == (0, 1)
    assert c.loop == ((0, 1), (0, 2), (1, 3), (0, 4), (0, 1))
    assert verify_genscramble(p1, c)


def test_genscramble_from_center_theorem_shortcut():
    p = parse_pattern("n=3 k=4; b1: 1; b2: 2; b3: 3")
    c = find_genscramble(p, max_iterate=2)
    assert c.iterate == 1
    assert verify_genscramble(p, c)


def test_genscramble_swap_none():
    assert find_genscramble(parse_pattern("n=1 k=2; b1: 1"), max_iterate=2) is None


def test_genscramble_replay_rejects_corruption(p2):
    good = find_genscramble(p2, max_iterate=2)
    assert not verify_genscramble(p2, Genscramble(1, good.u, good.v, good.loop))
    assert not verify_genscramble(p2, Genscramble(good.iterate, good.v, good.u, good.loop))
    assert not verify_genscramble(
        p2, Genscramble(good.iterate, good.u, good.v, ((0, 2), (1, 3), (0, 2)))
    )
    # a loop arc through the center, and a second-to-last arc meeting (u, v)
    for loop in (((0, 2), (1, 2), (0, 2)), ((0, 2), (0, 4), (0, 2), (0, 2))):
        assert not verify_certificate(p2, Genscramble(good.iterate, good.u, good.v, loop))


def test_genscramble_replay_rejects_malformed_certificates(p2):
    good = find_genscramble(p2, max_iterate=2)
    k = p2.k
    # an iterate below 1, and loop ends that name no arc, fail the replay
    assert not verify_genscramble(p2, Genscramble(good.iterate - k, good.u, good.v, good.loop[:1]))
    for a, b in good.loop[1:-1]:
        for bad in ((a - k, b), (a, b + k), (a, a)):
            loop = (good.loop[0], bad) + good.loop[2:]
            assert not verify_genscramble(p2, Genscramble(good.iterate, good.u, good.v, loop))


def _tampered(c):
    """The certificate and four corruptions of it."""
    yield c
    yield Genscramble(c.iterate + 1, c.u, c.v, c.loop)
    yield Genscramble(c.iterate, c.v, c.u, c.loop)
    yield Genscramble(c.iterate, c.u, c.v, (c.loop[0],) + c.loop[-2:0:-1] + (c.loop[-1],))
    yield Genscramble(c.iterate, c.u, c.v, c.loop[:-1])


def _verdict(verify, *args):
    try:
        return verify(*args)
    except Exception as e:  # noqa: BLE001 - the error kind is part of the verdict
        return type(e), str(e)


@pytest.mark.parametrize("k", range(2, 7))
def test_chaos_search_matches_fraction_reference(k):
    for n in range(1, 5):
        for p in enumerate_patterns(n, k):  # empty branches included
            for max_iterate in (1, 2, 3):
                got = find_genscramble(p, max_iterate)
                assert got == ref_chaos.find_genscramble(p, max_iterate), (p.to_text(), max_iterate)


@pytest.mark.parametrize("k", range(2, 7))
def test_chaos_replay_matches_fraction_reference(k):
    verdicts = set()
    for n in range(1, 5):
        for p in enumerate_patterns(n, k):
            cert = find_genscramble(p, 3)
            if cert is None:
                continue
            assert verify_genscramble(p, cert)
            m = realize(p)
            for c in _tampered(cert):
                got = _verdict(verify_genscramble, p, c)
                assert got == _verdict(ref_chaos.verify, p, m, c), (p.to_text(), c)
                verdicts.add(got)
    assert verdicts == ({True, False} if k > 2 else set())


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(2, 8), st.integers(1, 3))
def test_chaos_matches_fraction_reference_on_random_patterns(rng, n, k, max_iterate):
    p = random_pattern(rng, n, k)
    cert = find_genscramble(p, max_iterate)
    assert cert == ref_chaos.find_genscramble(p, max_iterate)
    if cert is not None:
        for c in _tampered(cert):
            assert _verdict(verify_genscramble, p, c) == _verdict(ref_chaos.verify_genscramble, p, c)


def test_chaos_search_and_replay_build_no_fraction(p1, p2, monkeypatch):
    swap = parse_pattern("n=1 k=2; b1: 1")
    tables = [_tables(p) for p in (p1, p2, swap)]
    cases = [(t, certify_module._theorem(t)) for t in tables]

    def forbidden(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", forbidden)
    found = [certify_module._find_genscramble(t, th, 3) for t, th in cases]
    assert [c is not None for c in found] == [True, True, False]
    for (t, _), c in zip(cases, found[:2]):
        assert all(verify_genscramble(t.pattern, x) in (True, False) for x in _tampered(c))


def test_oracle_absence_replays_the_whole_scan(p1):
    (absence,) = periodicity_report(p1).periods[3].certificates
    assert absence == OracleAbsence(3, 14)
    assert verify_certificate(p1, absence)
    for cylinders in (0, 13, 15, 999999):
        assert not verify_certificate(p1, OracleAbsence(3, cylinders))
    assert not verify_certificate(p1, OracleAbsence(2, 14))  # period 2 is present


def _tampered_copies(cert):
    """Copies of a certificate that its own pattern must reject: a period
    of 0, a changed theorem case, a cascade cycle with a vertex dropped, a
    chaos loop with two arcs swapped, a witness moved off its point (its
    flag kept true to the new coordinate) or with its flag flipped, and an
    absence with one cylinder more or less."""
    if isinstance(cert, (CenterOrbit, ForcedPeriod)):
        return [cert._replace(period=0)]
    if isinstance(cert, (CenterTheoremCase, NPlus2Case)):
        return [cert._replace(case_id=cert.case_id % 3 + 1)]
    if isinstance(cert, Cascade):
        return [cert._replace(cycle=cert.cycle[:1] + cert.cycle[2:], m=cert.m - 1)]
    if isinstance(cert, Genscramble):
        loop = cert.loop
        return [cert._replace(loop=(loop[0], loop[2], loop[1], *loop[3:]))]
    if isinstance(cert, OracleWitness):
        w = cert.witness
        x = w.point.coord + Fraction(1, 2 * w.point.coord.denominator)
        moved = w._replace(point=make_point(w.point.branch, x), on_center_orbit=False)
        flipped = w._replace(on_center_orbit=not w.on_center_orbit)
        return [OracleWitness(moved), OracleWitness(flipped)]
    return [cert._replace(cylinders=cert.cylinders + d) for d in (-1, 1)] + [
        cert._replace(period=0)
    ]


def test_every_replay_answers_yes_or_no_and_rejects_tampering(p1, p2):
    # the two examples' reports at pmax 10, chaos included, and the center
    # theorem class's, which brings the eighth kind: every certificate
    # replays on its own pattern, each tampered copy fails, and checked
    # against another pattern every certificate gets a yes or a no
    patterns = [p1, p2, parse_pattern(CENTER_THEOREM_CLASS)]
    certs = []
    for p in patterns:
        r = periodicity_report(p, 10)
        certs.append([c for s in r.periods.values() for c in s.certificates] + [r.chaos])
    assert len({type(c) for own in certs for c in own}) == 8
    for p, own in zip(patterns, certs):
        for cert in own:
            assert verify_certificate(p, cert) is True, cert
            for bad in _tampered_copies(cert):
                assert verify_certificate(p, bad) is False, bad
    for p in patterns:
        for own in certs:
            for cert in own:
                assert isinstance(verify_certificate(p, cert), bool), (p.to_text(), cert)


def test_replay_says_no_to_a_bad_period_an_off_star_point_and_a_wrong_flag(p1, p2):
    assert verify_certificate(p1, ForcedPeriod(0, 5)) is False
    assert verify_certificate(p1, OracleAbsence(0, 3)) is False
    off_star = PeriodicWitness(make_point(3, Fraction(7, 2)), 2, (0, 1), False)
    assert verify_certificate(p1, OracleWitness(off_star)) is False
    certs = periodicity_report(p2, 2).periods[2].certificates
    (witness,) = [c for c in certs if isinstance(c, OracleWitness)]
    assert verify_certificate(p2, witness)
    flipped = witness.witness._replace(on_center_orbit=not witness.witness.on_center_orbit)
    assert verify_certificate(p2, OracleWitness(flipped)) is False


def test_bounds_below_one_and_unknown_certificates_are_rejected(p1):
    with pytest.raises(ValueError, match="^p_max must be positive$"):
        periodicity_report(p1, p_max=0)
    with pytest.raises(ValueError, match="^max_iterate must be positive$"):
        periodicity_report(p1, p_max=3, max_iterate=0)
    with pytest.raises(ValueError, match="^max_iterate must be positive$"):
        find_genscramble(p1, 0)
    with pytest.raises(TypeError, match="^unknown certificate <object object at "):
        verify_certificate(p1, object())


def test_witness_replay_follows_its_itinerary(p2):
    # example 2's period-8 witness replays only with its own itinerary:
    # piece i must contain f^i of the point, which lies inside one piece
    (witness,) = [
        c for c in periodicity_report(p2, 8).periods[8].certificates
        if isinstance(c, OracleWitness)
    ]
    w = witness.witness
    assert w.point == make_point(1, Fraction(37, 33))
    assert w.itinerary == (2, 5, 3, 6, 4, 6, 4, 6)
    assert verify_certificate(p2, witness) is True
    pieces = len(realize(p2).pieces)
    rotated = w.itinerary[1:] + w.itinerary[:1]
    bad = [(0,) * 8, (), rotated, w.itinerary[:-1], w.itinerary + (6,), (pieces,) * 8, (-1,) * 8]
    bad += [
        w.itinerary[:i] + (j,) + w.itinerary[i + 1 :]
        for i in range(8)
        for j in range(pieces)
        if j != w.itinerary[i]
    ]
    for itinerary in bad:
        assert verify_certificate(p2, OracleWitness(w._replace(itinerary=itinerary))) is False


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_report_witness_replays_with_its_itinerary(n):
    checked = 0
    for k in range(2, 6):
        for p in enumerate_patterns(n, k):
            report = periodicity_report(p, 2 * k)
            for status in report.periods.values():
                for cert in status.certificates:
                    if isinstance(cert, OracleWitness):
                        assert verify_certificate(p, cert) is True, (p.to_text(), cert)
                        checked += 1
    assert checked > 0


def test_replay_of_a_foreign_theorem_case_says_no(p1, p2):
    nplus2 = periodicity_report(p1).theorem
    assert isinstance(nplus2, NPlus2Case) and verify_certificate(p1, nplus2)
    # example 2 has k = n + 3, and the one-branch swap meets too few branches
    for p in (p2, parse_pattern("n=1 k=2; b1: 1"), parse_pattern(CENTER_THEOREM_CLASS)):
        assert verify_certificate(p, nplus2) is False


def test_replay_validates_the_pattern_for_every_kind(p1):
    # CenterOrbit(5) against this pattern returned True before the replay
    # validated it
    r = periodicity_report(p1)
    certs = [c for s in r.periods.values() for c in s.certificates] + [r.chaos]
    assert CenterOrbit(5) in certs
    broken = StarPattern(n=1, k=5, placements=((1, 1),))  # placements missing
    for cert in certs:
        with pytest.raises(InvalidPatternError, match="invalid pattern"):
            verify_certificate(broken, cert)


# ------------------------------------------------------ loop lemma replay

def _closed_walks(g, max_len):
    for start in range(len(g.vertices)):
        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            if len(path) > 1 and v == start:
                yield path
            if len(path) <= max_len:
                for w in g.adjacency[v]:
                    stack.append((w, path + (w,)))


def _loop_outcome(find, m, arcs):
    """The point ``find`` returns for the loop, or the type and message of
    the LoopError it raises."""
    try:
        return find(m, arcs)
    except LoopError as e:
        return type(e), str(e)


def test_loop_lemma_soundness_on_examples(p1, p2):
    for p in (p1, p2):
        g = cover_digraph(p)
        m = realize(p)
        for walk in _closed_walks(g, 5):
            arcs = [arc(*g.vertices[i].endpoints, p) for i in walk]
            x = loop_point(m, arcs)
            assert x == ref_loop.loop_point(m, arcs), (p.to_text(), walk)
            steps = len(walk) - 1
            assert m.iterate(x, steps) == x
            for i, vi in enumerate(walk):
                a = g.vertices[vi]
                assert ref_loop.subtree_of_arc(m, arc(*a.endpoints, p)).contains_point(
                    m.iterate(x, i)
                )


def test_loop_lemma_soundness_sampled_patterns():
    rng = random.Random(31)
    for _ in range(12):
        p = random_pattern(rng, rng.randint(1, 3), rng.randint(2, 6))
        g = cover_digraph(p)
        m = realize(p)
        for walk in itertools.islice(_closed_walks(g, 4), 40):
            arcs = [arc(*g.vertices[i].endpoints, p) for i in walk]
            x = loop_point(m, arcs)
            assert x == ref_loop.loop_point(m, arcs), (p.to_text(), walk)
            assert m.iterate(x, len(walk) - 1) == x


def test_loop_point_matches_reference_on_every_short_loop():
    # every closed walk of length <= 4 of every class with n <= 3, k <= 4
    loops = 0
    for n in range(1, 4):
        for k in range(2, 5):
            for p in enumerate_patterns(n, k):
                g = cover_digraph(p)
                m = realize(p)
                for walk in _closed_walks(g, 4):
                    arcs = [arc(*g.vertices[i].endpoints, p) for i in walk]
                    assert loop_point(m, arcs) == ref_loop.loop_point(m, arcs), (
                        p.to_text(), walk
                    )
                    loops += 1
    assert loops == 1034


def test_loop_point_matches_reference_on_random_chains():
    # arbitrary arc chains, most of them not covering loops: the same
    # point, or a LoopError of the same type and message
    rng = random.Random(37)
    valid = 0
    for _ in range(1000):
        p = random_pattern(rng, rng.randint(1, 4), rng.randint(2, 7))
        m = realize(p)
        arcs = [arc(*rng.sample(range(p.k), 2), p) for _ in range(rng.randint(1, 4))]
        got = _loop_outcome(loop_point, m, arcs)
        assert got == _loop_outcome(ref_loop.loop_point, m, arcs), (p.to_text(), arcs)
        valid += not isinstance(got, tuple)
    assert valid > 200


# ----------------------------------------------------------------- reports

def test_report_example1(p1):
    r = periodicity_report(p1)
    assert r.present == {1, 2, 4, 5, 6, 7, 8, 9, 10}
    assert r.absent == {3}
    assert r.chaos is not None and r.chaos.iterate == 1
    assert r.forced_baseline == frozenset({1, 2, 4, 5, 6, 7, 8, 9, 10})
    kinds = {q: {type(c).__name__ for c in s.certificates} for q, s in r.periods.items()}
    assert "CenterOrbit" in kinds[5]
    assert "NPlus2Case" in kinds[2] and "NPlus2Case" in kinds[4]
    assert "Cascade" in kinds[4]
    assert kinds[3] == {"OracleAbsence"}
    assert all("OracleWitness" in kinds[q] for q in r.present)


def test_report_example2(p2):
    r = periodicity_report(p2)
    assert r.present == {1, 2, 4, 6, 8, 10}
    assert r.absent == {3, 5, 7, 9}
    assert r.chaos is not None and r.chaos.iterate == 2
    assert r.forced_baseline == frozenset({1, 2, 4, 6, 8, 10})
    for q in (3, 5, 7, 9):
        (cert,) = r.periods[q].certificates
        assert isinstance(cert, OracleAbsence) and cert.cylinders > 0
    assert any("self-loop" in line for line in r.commentary)


def test_report_builds_one_witness_record_a_present_period(monkeypatch):
    # period 3 is present and claimed by no certificate: the exhaustive
    # scan lists 6 points, and the report builds a record only for the
    # first, the witness it keeps
    p = parse_pattern("n=2 k=6; b1: 1 3; b2: 2 5 4")
    listing = oracle_scan(realize(p), 3).witnesses
    built = 0
    init = PeriodicWitness.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(PeriodicWitness, "__init__", counted)
    r = periodicity_report(p, p_max=12)
    monkeypatch.undo()
    (cert,) = r.periods[3].certificates
    assert len(listing) == 6 and cert == OracleWitness(listing[0])
    assert built == len(r.present)


def test_report_full_periodicity_small_star():
    r = periodicity_report(parse_pattern("n=3 k=4; b1: 1; b2: 2; b3: 3"))
    assert r.present == set(range(1, 11))
    assert r.absent == set()
    assert r.chaos is not None and r.chaos.iterate == 1


def test_report_consistency_error_is_loud(p1, monkeypatch):
    monkeypatch.setattr(certify_module, "_scan", lambda *args: ([], 0, None, True))
    with pytest.raises(InconsistencyError, match="bug"):
        periodicity_report(p1)


CLAIM_REFUTED = (
    "certificates [CenterOrbit(period=6)] claim period 6 but the exact oracle finds no such "
    "point — this is a bug"
)


def _listing_nothing_at_6(monkeypatch):
    """Patch the oracle's scan to find no point of period 6."""
    scan = certify_module._scan

    def empty_at_6(m, q, *args):
        found, cylinders, family, complete = scan(m, q, *args)
        return ([], cylinders, None, True) if q == 6 else (found, cylinders, family, complete)

    monkeypatch.setattr(certify_module, "_scan", empty_at_6)


def test_report_claimed_period_the_oracle_refutes_raises(p2, monkeypatch):
    # period 6 is example 2's own (k = 6), so the closed-walk count does not
    # decide it and the report's claim check alone catches the empty scan
    _listing_nothing_at_6(monkeypatch)
    with pytest.raises(InconsistencyError) as raised:
        periodicity_report(p2, 6)
    assert str(raised.value) == CLAIM_REFUTED


def test_analyze_claimed_period_the_oracle_refutes_exits_1(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ex2.txt"
    path.write_text(EX2 + "\n", encoding="utf-8")
    _listing_nothing_at_6(monkeypatch)
    assert run(["analyze", "--pattern", str(path), "--pmax", "6"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"stardyn: inconsistency: {CLAIM_REFUTED}\n")


def test_report_counts_the_listing_at_an_unclaimed_period(monkeypatch):
    # no certificate claims period 3, so the report lists it in full, and
    # the oracle's own check against the closed-walk count catches a
    # dropped point, not only an empty list
    p = parse_pattern("n=3 k=6; b1: 1 3; b2: 2 5; b3: 4")
    assert 3 in periodicity_report(p).present
    drop_one_listed_point(monkeypatch, 3)
    with pytest.raises(InconsistencyError, match="gives 6 points of period 3 but the exact oracle lists 5"):
        periodicity_report(p)


def test_report_certificates_all_verify(p1, p2):
    for p in (p1, p2):
        r = periodicity_report(p)
        for s in r.periods.values():
            for cert in s.certificates:
                assert verify_certificate(p, cert)
        if r.chaos is not None:
            assert verify_certificate(p, r.chaos)


def test_report_present_covers_forced_baseline_random():
    rng = random.Random(37)
    for _ in range(12):
        p = random_pattern(rng, rng.randint(1, 3), rng.randint(2, 6))
        r = periodicity_report(p, p_max=8, max_iterate=1)
        assert {q for q in r.forced_baseline if q <= 8} <= r.present


# -------------------------------------------------------------------- JSON

def test_report_json_shape(p2):
    d = report_to_json(periodicity_report(p2))
    assert set(d) == {
        "pattern", "p_max", "max_iterate", "periods", "chaos",
        "forced_baseline", "commentary",
    }
    assert set(d["periods"]) == {str(q) for q in range(1, 11)}
    assert d["periods"]["3"]["status"] == "absent"
    assert d["periods"]["3"]["certs"][0]["kind"] == "oracle_absence"
    assert d["chaos"]["status"] == "certified"
    assert d["chaos"]["cert"]["kind"] == "genscramble"
    assert d["chaos"]["cert"]["iterate"] == 2
    assert d["forced_baseline"] == [1, 2, 4, 6, 8, 10]


def test_certificate_json_round_shapes(p1):
    r = periodicity_report(p1)
    seen = set()
    for s in r.periods.values():
        for cert in s.certificates:
            j = certificate_to_json(cert)
            assert isinstance(j["kind"], str)
            seen.add(j["kind"])
    assert {"center_orbit", "forced_period", "nplus2_theorem", "cascade",
            "oracle_witness", "oracle_absence"} <= seen
    w = next(
        c for s in r.periods.values() for c in s.certificates
        if isinstance(c, OracleWitness)
    )
    j = certificate_to_json(w)
    assert set(j) == {"kind", "point", "period", "on_center_orbit"}
    num, den = j["point"]["coord"].split("/")
    assert int(num) >= 0 and int(den) >= 1


CENTER_THEOREM_CLASS = "n=3 k=4; b1: 1; b2: 2; b3: 3"

# one certificate of each kind and its JSON, recorded before the JSON was
# written from the certificate's own fields: (pattern, period or "chaos",
# index among that period's certificates, dict)
CERTIFICATE_JSON = [
    (EX1, 5, 0, {"kind": "center_orbit", "period": 5}),
    (EX1, 2, 0, {"kind": "forced_period", "period": 2, "source_period": 5}),
    (CENTER_THEOREM_CLASS, 1, 1, {
        "kind": "center_theorem", "case": 1, "u": 0, "v": 1, "span": [0, 1], "back": [2, 0],
    }),
    (EX1, 2, 1, {
        "kind": "nplus2_theorem", "case": 2, "u": 0, "v": 1, "span": [0, 1],
        "chain": [[0, 2], [1, 3], [0, 4]],
    }),
    (EX1, 4, 2, {
        "kind": "cascade", "base": [0, 1], "cycle": [[0, 1], [0, 2], [1, 3], [0, 4], [0, 1]],
        "m": 4,
    }),
    (EX2, "chaos", 0, {
        "kind": "genscramble", "iterate": 2, "u": 0, "v": 2, "loop": [[0, 2], [0, 4], [0, 2]],
    }),
    (EX2, 8, 1, {
        "kind": "oracle_witness", "point": {"branch": 1, "coord": "37/33"}, "period": 8,
        "on_center_orbit": False,
    }),
    (EX2, 9, 0, {"kind": "oracle_absence", "period": 9, "cylinders": 310}),
]


@pytest.mark.parametrize(
    "text,period,index,expected", CERTIFICATE_JSON, ids=[c[3]["kind"] for c in CERTIFICATE_JSON]
)
def test_certificate_json_is_pinned(text, period, index, expected):
    r = periodicity_report(parse_pattern(text))
    cert = r.chaos if period == "chaos" else r.periods[period].certificates[index]
    assert certificate_to_json(cert) == expected


def test_certificate_kinds_are_the_schema_enum():
    kinds = [cls.kind for cls in typing.get_args(certify_module.Certificate)]
    schema = json.loads((SCHEMAS / "report.schema.json").read_text(encoding="utf-8"))
    enum = schema["$defs"]["certificate"]["properties"]["kind"]["enum"]
    assert len(kinds) == len(set(kinds)) == 8
    assert set(kinds) == set(enum) == {c[3]["kind"] for c in CERTIFICATE_JSON}


def test_certificate_schema_checks_each_kind_by_its_fields():
    # every pinned certificate fits the report schema in a period's list;
    # a kind without its fields, one with a field of the wrong type, and
    # one with a field of another kind do not
    schema = json.loads((SCHEMAS / "report.schema.json").read_text(encoding="utf-8"))
    report = report_to_json(periodicity_report(parse_pattern(EX2), 9))

    def fits(cert):
        doc = {**report, "periods": {**report["periods"], "9": {"status": "absent", "certs": [cert]}}}
        try:
            jsonschema.validate(doc, schema)
        except jsonschema.ValidationError:
            return False
        return True

    for *_, cert in CERTIFICATE_JSON:
        assert fits(cert), cert
    assert not fits({"kind": "cascade"})
    assert not fits({"kind": "oracle_absence", "period": "three", "cylinders": 310})
    assert not fits({"kind": "oracle_absence", "period": 9, "cylinders": 310, "m": 4})


def test_inconsistency_error_is_one_class_in_plmap_and_certify():
    import stardyn.plmap as plmap_module

    assert certify_module.InconsistencyError is plmap_module.InconsistencyError


def test_center_theorem_refuted_covering_raises(monkeypatch):
    p = parse_pattern("n=3 k=4; b1: 1; b2: 2; b3: 3")
    monkeypatch.setattr(certify_module, "_covers", lambda p, src, dst: False)
    with pytest.raises(InconsistencyError, match="bug"):
        check_center_theorem(p)


def test_report_chaos_replay_failure_raises(p1, monkeypatch):
    # the report replays its theorem-derived loop on its own tables
    monkeypatch.setattr(certify_module, "_verify_genscramble", lambda t, cert: False)
    with pytest.raises(InconsistencyError, match="replay"):
        periodicity_report(p1)


def test_report_carries_theorem_and_digraph(p1, p2):
    r1, r2 = periodicity_report(p1), periodicity_report(p2)
    assert r1.theorem == check_nplus2_theorem(p1)
    assert r2.theorem is None
    assert r1.digraph == cover_digraph(p1)
    assert r2.digraph == cover_digraph(p2)
    p = parse_pattern("n=3 k=4; b1: 1; b2: 2; b3: 3")
    assert periodicity_report(p).theorem == check_center_theorem(p)
    assert set(report_to_json(r1)) == {
        "pattern", "p_max", "max_iterate", "periods", "chaos", "forced_baseline", "commentary"
    }


def test_report_theorem_matches_both_checks_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(3, 4)
        p = random_pattern(rng, n, n + 2, all_branches=True)
        r = periodicity_report(p, p_max=2, max_iterate=1)
        center, nplus2 = check_center_theorem(p), check_nplus2_theorem(p)
        assert (center is None) != (nplus2 is None)
        assert r.theorem == (center or nplus2)

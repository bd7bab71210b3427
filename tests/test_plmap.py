"""Exact PL realization, set images, and the periodic-point oracle.

Frozen values below (piece tables, witness counts per period, loop points,
probe gaps) were derived by hand from the canonical rank-coordinate
realization and captured from the first exact run; they are regression
anchors, independent of later refactors.
"""

import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scan as ref
import stardyn.plmap as plmap_module
from reference_loop import image_of_arc, image_of_subtree, subtree_from_segments, subtree_of_arc
from reference_scan import walk_cylinders
from stardyn.certify import (
    OracleWitness,
    periodicity_report,
    verify_certificate,
)
from stardyn.patterns import CENTER_INDEX, arc, parse_pattern
from stardyn.plmap import (
    CENTER,
    CylinderCapExceeded,
    DomainError,
    InconsistencyError,
    LoopError,
    Piece,
    RationalPoint,
    ScanResult,
    UncountablePeriodicSet,
    first_witness,
    loop_point,
    make_point,
    oracle_scan,
    periodic_points,
    realize,
    scramble_probe,
)
from stardyn.plmap import (
    _closing,
    _fixed_point,
    _least_period_is,
    _period_counts,
    _piece_graph,
    _walk_traces,
    _walks,
)
from support import EX1, EX2, random_pattern, realized_classes

F = Fraction


@pytest.fixture(scope="module")
def m1():
    return realize(parse_pattern(EX1))


@pytest.fixture(scope="module")
def m2():
    return realize(parse_pattern(EX2))


# ------------------------------------------------------------ realization

def test_realize_example1_piece_table(m1):
    assert m1.branch_lengths == (0, 2, 1, 1)
    assert m1.pieces == (
        Piece(1, F(0), F(1, 2), 1, -2, 1),
        Piece(1, F(1, 2), F(1), 2, 2, -1),
        Piece(1, F(1), F(3, 2), 2, -2, 3),
        Piece(1, F(3, 2), F(2), 3, 2, -3),
        Piece(2, F(0), F(1), 1, 1, 1),
        Piece(3, F(0), F(1), 1, -1, 1),
    )


def test_realize_marked_orbit_follows_successor(m1, m2):
    for m in (m1, m2):
        p = m.pattern
        for i in range(p.k):
            assert m.evaluate(m.marked_point(i)) == m.marked_point(p.successor(i))


def test_realize_continuity_random():
    rng = random.Random(11)
    for _ in range(60):
        p = random_pattern(rng, rng.randint(1, 4), rng.randint(2, 8))
        m = realize(p)
        for b in range(1, p.n + 1):
            for q in (q for q in m.pieces if q.src == b):
                for t in (q.lo, q.hi):
                    vals = {
                        make_point(r.dst, r.slope * t + r.offset)
                        for r in m.pieces
                        if r.src == b and r.lo <= t <= r.hi
                    }
                    assert len(vals) == 1
        # all branch-start pieces send coordinate 0 to the image of the center
        starts = {make_point(q.dst, q.offset) for q in m.pieces if q.lo == 0}
        assert starts == {m.evaluate(CENTER)}


def test_realize_pieces_partition_each_occupied_branch():
    rng = random.Random(12)
    for _ in range(40):
        p = random_pattern(rng, rng.randint(1, 4), rng.randint(2, 8))
        m = realize(p)
        for b in range(1, p.n + 1):
            qs = sorted((q for q in m.pieces if q.src == b), key=lambda q: q.lo)
            if p.branch_size(b) == 0:
                assert not qs
                continue
            assert qs[0].lo == 0 and qs[-1].hi == p.branch_size(b)
            for a, bq in itertools.pairwise(qs):
                assert a.hi == bq.lo


def test_realize_rejects_invalid_pattern():
    from stardyn.patterns import StarPattern

    broken = StarPattern(n=2, k=3, placements=((1, 1), (1, 3)))
    with pytest.raises(ValueError, match="invalid pattern"):
        realize(broken)


def test_evaluate_domain_errors(m1):
    with pytest.raises(DomainError):
        m1.evaluate(RationalPoint(1, F(5)))
    with pytest.raises(DomainError):
        m1.evaluate(RationalPoint(9, F(1, 2)))


def test_empty_branch_has_no_pieces():
    m = realize(parse_pattern("n=2 k=2; b1: 1; b2:"))
    assert m.branch_lengths == (0, 1, 0)
    assert all(q.src == 1 for q in m.pieces)


# ---------------------------------------------------- reference set images

def test_image_goldens(m1, m2):
    p1, p2 = m1.pattern, m2.pattern
    assert image_of_arc(m1, arc(0, 1, p1)) == subtree_of_arc(m1, arc(1, 2, p1))
    assert image_of_arc(m1, arc(1, 3, p1)) == subtree_of_arc(m1, arc(2, 4, p1))
    assert image_of_arc(m2, arc(0, 2, p2)) == subtree_of_arc(m2, arc(1, 3, p2))
    assert image_of_arc(m2, arc(3, 5, p2)) == subtree_of_arc(m2, arc(0, 4, p2))


def test_markov_consistency_random():
    # the image of a basic interval is exactly the arc between the
    # images of its endpoints
    rng = random.Random(13)
    for _ in range(40):
        p = random_pattern(rng, rng.randint(1, 4), rng.randint(2, 8))
        m = realize(p)
        for b in range(1, p.n + 1):
            chain = (CENTER_INDEX,) + p.branch_points(b)
            for inner, outer in itertools.pairwise(chain):
                a = arc(inner, outer, p)
                target = arc(p.successor(inner), p.successor(outer), p)
                assert image_of_arc(m, a) == subtree_of_arc(m, target)


def test_image_iteration_matches_repeated_application(m2):
    a = arc(0, 2, m2.pattern)
    once = image_of_arc(m2, a)
    assert image_of_arc(m2, a, power=2) == image_of_subtree(m2, once)


def test_subtree_contains_and_membership(m1):
    s = subtree_from_segments({1: (F(0), F(2)), 2: (F(0), F(1, 2))})
    assert s.touches_center
    assert s.contains(subtree_from_segments({1: (F(1, 3), F(3, 2))}))
    assert not s.contains(subtree_from_segments({2: (F(1, 4), F(3, 4))}))
    assert s.contains_point(CENTER)
    assert s.contains_point(make_point(2, F(1, 2)))
    assert not s.contains_point(make_point(3, F(1, 2)))
    with pytest.raises(ValueError, match="disconnected"):
        subtree_from_segments({1: (F(1), F(2)), 2: (F(0), F(1))})


# ------------------------------------------------------------------ oracle

EX1_COUNTS = {1: 1, 2: 2, 3: 0, 4: 4, 5: 5, 6: 12, 7: 14, 8: 24, 9: 36, 10: 60}
EX2_COUNTS = {1: 1, 2: 6, 3: 0, 4: 8, 5: 0, 6: 30, 7: 0, 8: 80, 9: 0, 10: 240}


def test_oracle_counts_example1(m1):
    assert {p: len(periodic_points(m1, p)) for p in range(1, 11)} == EX1_COUNTS


def test_oracle_counts_example2(m2):
    assert {p: len(periodic_points(m2, p)) for p in range(1, 11)} == EX2_COUNTS


def test_oracle_fixed_point_example1(m1):
    (w,) = periodic_points(m1, 1)
    assert w.point == make_point(1, F(1, 3))
    assert not w.on_center_orbit
    assert m1.evaluate(w.point) == w.point


def test_oracle_period2_orbit_example1(m1):
    pts = {w.point for w in periodic_points(m1, 2)}
    assert pts == {make_point(1, F(4, 3)), make_point(2, F(1, 3))}


def test_oracle_period5_is_center_orbit_example1(m1):
    ws = periodic_points(m1, 5)
    assert all(w.on_center_orbit for w in ws)
    assert {w.point for w in ws} == {m1.marked_point(i) for i in range(5)}


def test_oracle_example2_odd_periods_absent(m2):
    for p in (3, 5, 7, 9):
        assert periodic_points(m2, p) == []
        assert first_witness(m2, p) is None


def test_oracle_witnesses_sound_random():
    rng = random.Random(17)
    for _ in range(25):
        pat = random_pattern(rng, rng.randint(1, 3), rng.randint(2, 6))
        m = realize(pat)
        for p in range(1, 6):
            try:
                ws = periodic_points(m, p)
            except UncountablePeriodicSet as e:
                ws = [e.witness]
            for w in ws:
                assert m.iterate(w.point, p) == w.point
                for d in range(1, p):
                    if p % d == 0:
                        assert m.iterate(w.point, d) != w.point


def test_oracle_least_period_partitions_fixed_points(m1):
    # fixed points of the 6th iterate are exactly the least-period 1, 2, 3, 6 points
    expected = sum(len(periodic_points(m1, d)) for d in (1, 2, 3, 6))
    sols = set()
    for c in walk_cylinders(m1, 6):
        if c.slope == 1:
            continue
        t = F(c.offset, 1 - c.slope)
        if c.lo <= t <= c.hi and (c.branch == c.b0 or t == 0):
            sols.add(make_point(c.b0, t))
    assert len(sols) == expected
    assert all(m1.iterate(x, 6) == x for x in sols)


def test_per_cylinder_completeness(m1, m2):
    # a cylinder mapped affinely over itself contains a fixed point of the iterate
    for m in (m1, m2):
        for p in (1, 2, 3, 4):
            for c in walk_cylinders(m, p):
                if c.branch != c.b0:
                    continue
                y1, y2 = c.slope * c.lo + c.offset, c.slope * c.hi + c.offset
                ilo, ihi = min(y1, y2), max(y1, y2)
                if not (ilo <= c.lo and c.hi <= ihi):
                    continue
                assert c.slope != 1 or c.offset == 0
                if c.slope == 1:
                    t = c.lo
                else:
                    t = F(c.offset, 1 - c.slope)
                assert c.lo <= t <= c.hi
                assert m.iterate(make_point(c.b0, t), p) == make_point(c.b0, t)


def test_first_witness_agrees_with_full_scan(m1, m2):
    for m in (m1, m2):
        for p in range(1, 9):
            w = first_witness(m, p)
            full = periodic_points(m, p)
            assert (w is None) == (not full)
            if w is not None:
                assert m.iterate(w.point, p) == w.point


def test_uncountable_family_swap():
    m = realize(parse_pattern("n=1 k=2; b1: 1"))
    assert [w.point for w in periodic_points(m, 1)] == [make_point(1, F(1, 2))]
    with pytest.raises(UncountablePeriodicSet) as ei:
        periodic_points(m, 2)
    w = ei.value.witness
    assert w.period == 2
    assert m.iterate(w.point, 2) == w.point and m.evaluate(w.point) != w.point
    # first_witness still answers
    fw = first_witness(m, 2)
    assert fw is not None and m.iterate(fw.point, 2) == fw.point


def test_cylinder_cap(m2):
    with pytest.raises(CylinderCapExceeded):
        periodic_points(m2, 10, cap=50)


def test_cylinder_cap_env_override(m2, monkeypatch):
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", "50")
    with pytest.raises(CylinderCapExceeded):
        periodic_points(m2, 10)
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", "1000000")
    assert len(periodic_points(m2, 10)) == EX2_COUNTS[10]


def test_skip_table_is_charged_to_the_cap(m2, monkeypatch):
    # each depth of ``_closing`` is charged one per cell for each full 64
    # bits of the largest walk count below it, apart from the scan's count:
    # a table whose counts fit a machine word costs nothing, even under a
    # cap of 0, and under the default cap example 2's table builds up to
    # period 5,177
    monkeypatch.delenv("STARDYN_CYLINDER_CAP", raising=False)
    assert len(_closing(m2, 91, cap=0)[1]) == 92
    with pytest.raises(CylinderCapExceeded):
        _closing(m2, 92, cap=0)
    assert len(_closing(m2, 5176)[1]) == 5177
    with pytest.raises(CylinderCapExceeded, match="cylinder cap 1000000 exceeded"):
        _closing(m2, 5177)


def test_oracle_exceptions_survive_pickling():
    m = realize(parse_pattern("n=1 k=2; b1: 1"))
    with pytest.raises(UncountablePeriodicSet) as ei:
        periodic_points(m, 2)
    for e in (CylinderCapExceeded(50), ei.value):
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is type(e)
        assert str(back) == str(e)
        assert vars(back) == vars(e)


def test_every_public_listing_checks_the_walk_count(m2, monkeypatch):
    # the scan under each public listing counts its points again from the
    # covering digraph's closed walks, so a doctored count is caught
    # whichever listing asks
    monkeypatch.setattr(plmap_module, "_walk_traces", lambda adjacency, bound: [0] * bound)
    for listing, listed in ((oracle_scan, 80), (periodic_points, 80), (first_witness, 1)):
        with pytest.raises(InconsistencyError) as raised:
            listing(m2, 8)
        assert str(raised.value) == (
            f"{EX2}: the closed-walk count gives 0 points of period 8 but the exact oracle "
            f"lists {listed} — this is a bug"
        ), listing.__name__


def test_scan_results_are_deterministic(m2):
    a = oracle_scan(m2, 6)
    b = oracle_scan(m2, 6)
    assert a == b
    assert [w.point for w in a.witnesses] == sorted(
        (w.point for w in a.witnesses), key=lambda x: (x.branch, x.coord)
    )


# ------------------------------------------------------------- loop points

def test_loop_point_fixed(m1):
    p = m1.pattern
    x = loop_point(m1, [arc(0, 1, p), arc(0, 1, p)])
    assert x == make_point(1, F(1, 3))


def test_loop_point_singleton_is_one_step_loop(m1):
    p = m1.pattern
    assert loop_point(m1, [arc(0, 1, p)]) == make_point(1, F(1, 3))


def test_loop_point_period_two(m1):
    p = m1.pattern
    x = loop_point(m1, [arc(0, 2, p), arc(1, 3, p), arc(0, 2, p)])
    assert x == make_point(2, F(1, 3))
    assert m1.iterate(x, 2) == x
    assert x in {w.point for w in periodic_points(m1, 2)}


def test_loop_point_counts_toward_the_cylinder_cap(m1, monkeypatch):
    p = m1.pattern
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", "1")
    with pytest.raises(CylinderCapExceeded):
        loop_point(m1, [arc(0, 2, p), arc(1, 3, p), arc(0, 2, p)])


def test_loop_point_itinerary_check(m2):
    p = m2.pattern
    loop = [arc(0, 2, p), arc(1, 3, p), arc(0, 2, p)]
    x = loop_point(m2, loop)
    for i, a in enumerate(loop):
        assert subtree_of_arc(m2, a).contains_point(m2.iterate(x, i))


def test_loop_point_rejects_non_loop(m1):
    p = m1.pattern
    with pytest.raises(LoopError, match="at least one arc"):
        loop_point(m1, [])
    with pytest.raises(LoopError, match="covering fails at step 1"):
        loop_point(m1, [arc(0, 4, p), arc(1, 3, p), arc(0, 4, p)])
    with pytest.raises(LoopError, match="interior"):
        loop_point(m1, [arc(0, 1, p), arc(1, 2, p), arc(0, 1, p)])
    with pytest.raises(LoopError, match="different pattern"):
        q = parse_pattern(EX2)
        loop_point(m1, [arc(0, 1, q), arc(0, 1, q)])


def test_loop_point_rejects_broken_closure(m1):
    p = m1.pattern
    with pytest.raises(LoopError, match="does not contain the first"):
        loop_point(m1, [arc(0, 1, p), arc(0, 2, p)])


# ------------------------------------------------------------------- probe

def test_scramble_probe_identical(m2):
    x = make_point(2, F(1, 4))
    assert scramble_probe(m2, x, x, 10) == (F(0), F(0))


def test_scramble_probe_two_fixed_points_of_f2(m2):
    # under the second iterate both points are fixed, so the gap is constant
    x = make_point(1, F(1, 3))
    y = make_point(2, F(1, 3))
    lo, hi = scramble_probe(m2, x, y, 50, step=2)
    assert lo == hi == F(1, 9) + F(1, 3)


def test_scramble_probe_straddling_pair_frozen(m2):
    # pair inside the arc [0, 2] straddling the repelling period-2 point
    x = make_point(2, F(3, 10))
    y = make_point(2, F(5, 14))
    lo, hi = scramble_probe(m2, x, y, 200, step=2)
    assert (lo, hi) == (F(2, 35), F(46, 35))
    assert lo < F(1, 10) < hi


def test_scramble_probe_rejects_no_samples(m2):
    # no sample has no (min, max) separation
    x, y = m2.marked_point(1), m2.marked_point(2)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            scramble_probe(m2, x, y, n)


def test_scramble_probe_rejects_a_step_that_does_not_move(m2):
    # a step below 1 would measure the pair where it starts, every time
    x, y = m2.marked_point(1), m2.marked_point(2)
    for step in (0, -2):
        with pytest.raises(ValueError, match="step >= 1"):
            scramble_probe(m2, x, y, 5, step=step)


def test_oracle_scan_rejects_a_period_below_one(m2):
    for p in (0, -3):
        with pytest.raises(ValueError, match="^period must be positive$"):
            oracle_scan(m2, p)


# ------------------------------------- integer walks vs the Fraction reference

# Deepest period compared for the canonical classes of each orbit size k,
# n <= 4.  Only classes with every branch occupied are needed: an empty
# branch carries no piece, so such a class realizes the same piece graph as
# an all-branch class with fewer branches, up to branch labels.  Cylinder
# counts grow about threefold per period at k = 6 and the reference costs
# tens of times more per cylinder than the walk, so deeper periods are left
# to the worked examples and the property test below.
REFERENCE_HORIZON = {2: 8, 3: 8, 4: 8, 5: 5, 6: 2}


def _outcome(fn, *args, **kwargs):
    """A call's result, or the type and text of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except (CylinderCapExceeded, DomainError) as e:
        return type(e), str(e)


def _drain(cylinders):
    """The cylinders a stream yields, and the cap error that ends it early."""
    out = []
    try:
        out.extend(cylinders)
    except CylinderCapExceeded as e:
        return out, str(e)
    return out, None


def _scan_matches_reference(m, p, cap=None, first_only=False):
    """The oracle's scan at period p equals that of the reference copy of
    the Fraction DFS, and returns its outcome.  The oracle's cap count is
    at most twice the full tree's nodes (``_walks``), which the reference
    counts, so where the reference completes within the cap the oracle
    runs at twice it.  Where the reference is capped, the oracle at the cap
    raises the same error or completes; then each witness replays
    (``_least_period_is``), and at a period that k does not divide the
    closed-walk count agrees with the listing, or with a first witness on
    whether one exists."""
    limit = plmap_module.cylinder_cap(cap)
    expected = _outcome(ref.oracle_scan, m, p, cap=limit, first_only=first_only)
    if isinstance(expected, ScanResult):
        scan = _outcome(oracle_scan, m, p, cap=2 * limit, first_only=first_only)
        assert scan == expected, (m.pattern.to_text(), p, first_only)
        return scan
    scan = _outcome(oracle_scan, m, p, cap=limit, first_only=first_only)
    if not isinstance(scan, ScanResult):
        assert scan == expected, (m.pattern.to_text(), p, first_only)
        return scan
    assert all(_least_period_is(m, w.point, p) for w in scan.witnesses), (m.pattern.to_text(), p)
    k = m.pattern.k
    if p % k:
        count = _period_counts(k, _walk_traces(m.tables.adjacency, p))[p]
        if scan.complete and not first_only:
            assert len(scan.witnesses) == count, (m.pattern.to_text(), p)
        else:
            assert bool(scan.witnesses) == bool(count), (m.pattern.to_text(), p, first_only)
    return scan


def _check_against_reference(m, scan_pmax, cap=None):
    """Scans for p <= scan_pmax equal those of the reference copy of the
    Fraction DFS (``_scan_matches_reference``).  For p < scan_pmax the
    cylinders and their cap threshold equal the reference's, and the
    oracle's cap threshold is its work as ``ref.oracle_work`` reads it off
    the reference's tree: the nodes it expands and the points it lists,
    at most twice the tree's nodes."""
    nodes = 0  # of the walk tree down to depth p: each one counts toward the cap
    for p in range(1, scan_pmax + 1):
        for first_only in (False, True):
            _scan_matches_reference(m, p, cap, first_only)
        if p == scan_pmax:
            return
        cylinders, error = _drain(ref.iter_cylinders(m, p, cap=cap))
        assert _drain(walk_cylinders(m, p, cap=cap)) == (cylinders, error)
        if error is not None:
            return  # capped, as is every deeper period
        nodes += len(cylinders)
        with pytest.raises(CylinderCapExceeded):
            list(walk_cylinders(m, p, cap=nodes - 1))
        assert list(walk_cylinders(m, p, cap=nodes)) == cylinders
        for first_only in (False, True):
            scan = oracle_scan(m, p, first_only=first_only)
            work = ref.oracle_work(m, p, cylinders, first_only, scan)
            assert work <= 2 * nodes, (m.pattern.to_text(), p, first_only)
            assert oracle_scan(m, p, cap=work, first_only=first_only) == scan
            if work:
                with pytest.raises(CylinderCapExceeded):
                    oracle_scan(m, p, cap=work - 1, first_only=first_only)


@pytest.mark.parametrize("k", sorted(REFERENCE_HORIZON))
def test_walk_scan_matches_fraction_reference_on_every_class(k):
    for n in range(1, 5):
        for m in realized_classes(n, k):
            if all(m.branch_lengths[1:]):
                _check_against_reference(m, REFERENCE_HORIZON[k])


def test_walk_scan_matches_fraction_reference_on_examples(m1, m2):
    for m in (m1, m2, realize(parse_pattern("n=1 k=2; b1: 1"))):
        _check_against_reference(m, 9)


def _word_rule(m, q, path, den):
    """Whether a fixed point with denominator den of the walk ``path`` of
    length q has least period q by the oracle's rule: an integer point has
    least period k, any other one q iff the walk is primitive.
    ``_least_period_rule_outcomes`` checks it against the replay."""
    return q == m.pattern.k if den == 1 else plmap_module._primitive(path)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_skip_keeps_every_walk_with_a_fixed_point(k):
    # enumerate_patterns(3, k) holds every class with at most three occupied
    # branches.  One pass over every walk of the full tree (the stream of
    # walk_cylinders) checks the skip table at each piece of a walk, with
    # the steps left after that piece: it must pass every walk whose fixed
    # point has least period q != k, and every identity cylinder.  Period k
    # walks the whole tree.
    strict = 0
    for m in realized_classes(3, k):
        alive, _, bits = _closing(m, 2 * k - 1)
        for q in range(1, 2 * k + 1):
            for b0, s, d, last, path, _ in _walks(m, q, None):
                t = _fixed_point(m, b0, s, d, last)
                if t is None:
                    continue
                if t is plmap_module._IDENTITY or q != k and _word_rule(m, q, path, t[1]):
                    strict += 1
                    assert all(alive[q - 1 - i][x] & bits[path[0]] for i, x in enumerate(path)), (
                        m.pattern.to_text(), q, path
                    )
    assert strict > 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_period_k_walks_the_whole_tree(k):
    # the marked points have period k, so at k the skip table is not read
    for m in realized_classes(3, k):
        pruned = _walks(m, k, None, closing=_closing(m, k - 1))
        assert [(*w[:4], tuple(w[4]), w[5]) for w in pruned] == [
            (*w[:4], tuple(w[4]), w[5]) for w in _walks(m, k, None)
        ], m.pattern.to_text()


def test_no_kept_primitive_walk_fixes_an_integer_point_off_period_k():
    # characterizes the `den == 1 and p != k` guard of plmap._scan, for which
    # no case is known: over every class with n <= 3 and k <= 4, at q = 2k
    # and 3k <= 12 (integer points are marked points, of least period k, so
    # only multiples of k can fix them), every walk the skip table keeps
    # that fixes an integer point repeats a shorter walk
    integer_points = 0
    for k in (2, 3, 4):
        for m in realized_classes(3, k):
            closing = _closing(m, 3 * k - 1)
            for q in (2 * k, 3 * k) if 3 * k <= 12 else (2 * k,):
                for b0, s, d, last, path, _ in _walks(m, q, None, closing=closing):
                    t = _fixed_point(m, b0, s, d, last)
                    if t is not None and t is not plmap_module._IDENTITY and t[1] == 1:
                        integer_points += 1
                        assert not plmap_module._primitive(path), (m.pattern.to_text(), q, path)
    assert integer_points > 0


def _expanded_walks_have_fixed_points(m, pmax, cap=None):
    """At every period q <= pmax but k, every walk the oracle's skip tables
    let through has a fixed point; stops at the cap.  Returns how many
    walks it checked."""
    closing, checked = _closing(m, pmax - 1), 0
    for q in range(1, pmax + 1):
        if q == m.pattern.k:
            continue
        try:
            for b0, s, d, last, path, _ in _walks(m, q, cap, closing=closing):
                assert _fixed_point(m, b0, s, d, last) is not None, (m.pattern.to_text(), q, path)
                checked += 1
        except CylinderCapExceeded:
            break
    return checked


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_skip_expands_only_walks_with_a_fixed_point(k):
    assert sum(_expanded_walks_have_fixed_points(m, 2 * k) for m in realized_classes(3, k)) > 0


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(2, 8))
def test_skip_expands_only_walks_with_a_fixed_point_on_random_patterns(rng, n, k):
    _expanded_walks_have_fixed_points(realize(random_pattern(rng, n, k)), 8, cap=2000)


def _fixed_point_solves(monkeypatch, text, p_max):
    """How many walks ``periodicity_report(text, p_max)`` solves."""
    calls = 0
    solve = plmap_module._fixed_point

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(plmap_module, "_fixed_point", counted)
    periodicity_report(parse_pattern(text), p_max)
    return calls


def test_skip_cuts_the_fixed_point_solves_of_example2(monkeypatch):
    # up to where they stop, the report's 18 scans pass 31,848 walks (their
    # ``cylinders``); the oracle solves only the walks whose last image
    # covers their first interval, and at q = 6 every walk up to the first
    # witness.  Off q = 6 a walk that repeats a shorter one costs no solve,
    # so each present period solves its first witness's walk alone.  The
    # full scans of the odd periods, all absent, expand only Lyndon walks,
    # and a walk with a fixed point there repeats that of a smaller period,
    # so they solve none
    assert _fixed_point_solves(monkeypatch, EX2, 18) == 10


def test_skip_cuts_the_fixed_point_solves_of_a_relabeled_example2(monkeypatch):
    # the same pattern with branches 1 and 2 swapped solves one walk at
    # each even period, but three at q = 6, and none at an odd one
    assert _fixed_point_solves(monkeypatch, "n=3 k=6; b1: 2; b2: 1 3 5; b3: 4", 18) == 12


def _least_period_rule_outcomes(m, pmax, cap=None):
    """For every fixed point the oracle's walks accept at periods up to
    pmax, whether the rule on the walk's word (``_word_rule``) and the
    replay by ``_least_period_is`` agree that its least period is the
    walk's length.  Returns the rule's verdicts, or stops at the cap."""
    verdicts = []
    for q in range(1, pmax + 1):
        closing = _closing(m, q - 1)
        try:
            for b0, s, d, last, path, _ in _walks(m, q, cap, closing=closing):
                t = _fixed_point(m, b0, s, d, last)
                if t is None or t is plmap_module._IDENTITY:
                    continue
                num, den = t
                assert den > 0 and math.gcd(num, den) == 1
                rule = _word_rule(m, q, path, den)
                assert rule == _least_period_is(m, make_point(b0, F(num, den)), q), (
                    m.pattern.to_text(), q, path
                )
                verdicts.append(rule)
        except CylinderCapExceeded:
            break
    return verdicts


@pytest.mark.parametrize("k", sorted(REFERENCE_HORIZON))
def test_least_period_on_the_walk_matches_replay_on_every_class(k):
    verdicts = [
        v
        for n in range(1, 5)
        for m in realized_classes(n, k)
        for v in _least_period_rule_outcomes(m, REFERENCE_HORIZON[k])
    ]
    # both verdicts occur, so the rule is tested both ways
    assert set(verdicts) == {True, False}


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(2, 8))
def test_least_period_on_the_walk_matches_replay_on_random_patterns(rng, n, k):
    _least_period_rule_outcomes(realize(random_pattern(rng, n, k)), 8, cap=2000)


def test_oracle_lists_example2_without_stepping_and_one_fraction_a_point(m2, monkeypatch):
    # example 2 at period 16 lists its 4,320 points without a step; the
    # swap's identity family at period 2 is read off its cylinder's image,
    # with the two steps of its replay and the one Fraction of its point
    swap = realize(parse_pattern("n=1 k=2; b1: 1"))
    step, new = plmap_module._step, Fraction.__new__

    def counted_step(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    def counted_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    cases = ((m2, 16, 4320, False, (0, 4320)), (swap, 2, 1, True, (2, 1)))
    for m, p, listed, family, pins in cases:
        steps = built = 0
        monkeypatch.setattr(plmap_module, "_step", counted_step)
        monkeypatch.setattr(Fraction, "__new__", counted_new)
        scan = oracle_scan(m, p)
        monkeypatch.undo()
        assert (len(scan.witnesses), scan.family is not None) == (listed, family)
        assert (steps, built) == pins


def test_exact_order_separates_rationals_whose_floats_tie():
    # (branch, numerator, denominator, itinerary) entries, as the oracle
    # sorts them (``_sorted``); within a branch every coordinate has the
    # same float
    third = F(1, 3)
    entries = [(0, 0, 1, ())] + [
        (b, c.numerator, c.denominator, ())
        for b in (1, 2)
        for c in (third + F(i, 10**30) for i in range(-4, 5))
    ]
    assert len({float(F(num, den)) for b, num, den, _ in entries if b}) == 1
    rng = random.Random(5)
    for _ in range(20):
        rng.shuffle(entries)
        exact = plmap_module._sorted(entries)
        assert exact == sorted(entries, key=lambda e: (e[0], F(e[1], e[2])))


def test_sorted_equals_the_fraction_order_on_random_entries():
    # ``_sorted`` groups entries by branch and sorts each group on an exact
    # integer key; the order must be the (branch, Fraction) order, stable
    # among equal points.  Entries carry 3 to 5 fields (as the oracle's
    # and the reference's do), the center is (0, 0, 1), and a listing
    # mixes branches, shared and distinct denominators, and denominators
    # past 2**64
    assert plmap_module._sorted([]) == []
    rng = random.Random(7)
    for trial in range(300):
        pool = [rng.randrange(1, 40) for _ in range(3)] + [2**64 + rng.randrange(1, 2**70)]
        width = 3 + trial % 3
        entries = [(0, 0, 1) + (0, 1)[: width - 3]] * rng.randrange(2)
        for i in range(rng.randrange(1, 40)):
            den = rng.choice(pool)
            num = rng.randrange(1, 3 * den)
            entries.append((rng.randrange(1, 5), num, den, (i,), i)[:width])
        rng.shuffle(entries)
        expected = sorted(entries, key=lambda e: (e[0], F(e[1], e[2])))
        assert plmap_module._sorted(entries) == expected, entries


# ------------------------------------------------- one Lyndon walk per orbit

def _orbit_listings_match_reference(m, pmax, cap=None):
    """Full scans at every period q <= pmax but k equal those of the
    Fraction reference: points, order, itineraries and ``cylinders``, or
    the same cap error (``_scan_matches_reference``).  Where the scan lists orbits and k does not divide
    q, it expands one Lyndon walk per orbit.  Returns how many scans
    listed orbits."""
    listed = 0
    for q in range(1, pmax + 1):
        if q == m.pattern.k:
            continue
        scan = _scan_matches_reference(m, q, cap)
        if not isinstance(scan, ScanResult):
            continue
        listed += 1
        if q % m.pattern.k:
            walks = sum(1 for _ in _walks(m, q, None, closing=_closing(m, q - 1), lyndon=True))
            assert walks * q == len(scan.witnesses), (m.pattern.to_text(), q)
    return listed


@pytest.mark.parametrize("k", sorted(REFERENCE_HORIZON))
def test_orbit_listing_matches_fraction_reference_on_every_class(k):
    listed = sum(
        _orbit_listings_match_reference(m, REFERENCE_HORIZON[k])
        for n in range(1, 5)
        for m in realized_classes(n, k)
        if all(m.branch_lengths[1:])
    )
    # k = 2 has one class, the swap, whose one piece is a unit-slope cycle;
    # its scans off period 2 list orbits too (the fixed point 1/2 at q = 1)
    assert listed > 0


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(2, 8))
def test_orbit_listing_matches_reference_on_random_patterns(rng, n, k):
    # the cap bounds the reference's cost on high-entropy patterns
    _orbit_listings_match_reference(realize(random_pattern(rng, n, k)), 6, cap=1000)


@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_example2_solves_one_walk_an_orbit_at_period_16(perm, monkeypatch):
    # under every relabeling of the branches: 4,320 points, 270 orbits of
    # 16, and 270 fixed-point solves (the walk-by-walk scan made 4,415)
    branches = [""] * 3
    for b, points in enumerate(("1 3 5", "2", "4")):
        branches[perm[b]] = points
    text = "n=3 k=6; " + "; ".join(f"b{b}: {pts}" for b, pts in enumerate(branches, 1))
    m = realize(parse_pattern(text))
    calls = 0
    solve = plmap_module._fixed_point

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(plmap_module, "_fixed_point", counted)
    assert (len(oracle_scan(m, 16).witnesses), calls) == (4320, 270)


def test_orbit_replay_raises_when_the_walk_repeats(m2):
    # each period-2 orbit replayed from the walk of either point, with the
    # points and walks the scan lists; a walk that repeats a shorter one
    # returns its point early, which is a bug
    ws = {w.point: w for w in periodic_points(m2, 2)}
    for w in ws.values():
        num, den = w.point.coord.numerator, w.point.coord.denominator
        orbit = plmap_module._orbit(m2, list(w.itinerary), w.point.branch, num, den)
        assert [(RationalPoint(b, F(y, d)), walk[j:] + walk[:j]) for b, y, d, walk, j in orbit] == [
            (x, ws[x].itinerary) for x in (w.point, m2.evaluate(w.point))
        ]
        with pytest.raises(InconsistencyError, match="orbit back at step 2 of 4"):
            plmap_module._orbit(m2, list(w.itinerary) * 2, w.point.branch, num, den)


def test_orbit_entries_share_one_walk_and_records_rebuild_the_itineraries(m2):
    # a listing holds one walk tuple per orbit, each point only its
    # rotation j; the records rebuild the itineraries the scan lists
    scan = oracle_scan(m2, 16)
    found, cylinders, family, complete = plmap_module._scan(m2, 16, None, False, None)
    assert (len(found), cylinders, family, complete) == (4320, scan.cylinders, None, True)
    assert plmap_module._listed(16, found) == scan.witnesses
    walks = {id(walk) for _, _, _, walk, _ in found}
    assert len(walks) == 4320 // 16
    w = scan.witnesses[0]
    num, den = w.point.coord.numerator, w.point.coord.denominator
    orbit = plmap_module._orbit(m2, list(w.itinerary), w.point.branch, num, den)
    assert len({id(walk) for _, _, _, walk, _ in orbit}) == 1
    assert [j for *_, j in orbit] == list(range(16))
    assert plmap_module._listed(16, orbit)[0] == w


def _probe_points(m):
    """Marked points, piece ends, split points, midpoints, branch ends and
    points off the star, on every branch index from 0 to n + 1."""
    pts = {CENTER, RationalPoint(0, F(1, 2))}
    for b in range(0, m.pattern.n + 2):
        length = m.branch_lengths[b] if 1 <= b <= m.pattern.n else 1
        for c in (F(-1, 2), F(0), F(length), F(2 * length + 1, 2), F(length + 1)):
            pts.add(RationalPoint(b, c))
    for q in m.pieces:
        for c in (q.lo, q.hi, (q.lo + q.hi) / 2, q.lo + (q.hi - q.lo) / 7):
            pts.add(RationalPoint(q.src, c))
    return sorted(pts)


def test_evaluate_matches_linear_scan_with_domain_errors():
    for n in range(1, 5):
        for m in realized_classes(n, 5):  # empty branches included
            for x in _probe_points(m):
                assert _outcome(m.evaluate, x) == _outcome(ref.evaluate, m, x), (
                    m.pattern.to_text(), x
                )


def test_least_period_matches_divisor_rule():
    for n in range(1, 5):
        for m in realized_classes(n, 5):
            if not all(m.branch_lengths[1:]):
                continue  # the empty-branch classes repeat smaller n
            pts = _probe_points(m)
            pts += [w.point for q in range(1, 5) for w in oracle_scan(m, q).witnesses]
            for x in pts:
                for p in range(1, 7):
                    assert _outcome(_least_period_is, m, x, p) == _outcome(
                        ref.least_period_is, m, x, p
                    ), (m.pattern.to_text(), x, p)


@pytest.mark.parametrize(
    "pieces, lengths",
    # rows (src, lo, hi, dst, slope, offset, image of lo, image of hi)
    [
        # image [0, 1/2] ends inside a basic interval
        ([(1, (0, 1), (1, 2), 1, 1, 0, 0, 1), (1, (1, 2), (1, 1), 1, 1, 0, 0, 1)], (0, 1)),
        # a piece spanning two basic intervals
        ([(1, (0, 1), (2, 1), 1, 1, 0, 0, 2)], (0, 2)),
        # an image running past the end of its branch
        ([(1, (0, 1), (1, 1), 1, 2, 0, 0, 2)], (0, 1)),
        # a gap between two pieces
        ([(1, (0, 1), (1, 2), 1, 2, 0, 0, 1), (1, (2, 3), (1, 1), 1, 3, -2, 0, 1)], (0, 1)),
        # a branch left uncovered
        ([(1, (0, 1), (1, 1), 1, 1, 0, 0, 1)], (0, 1, 1)),
        # the pieces of two branches interleaved
        (
            [
                (1, (0, 1), (1, 2), 1, 2, 0, 0, 1),
                (2, (0, 1), (1, 1), 2, 1, 0, 0, 1),
                (1, (1, 2), (1, 1), 1, -2, 2, 1, 0),
            ],
            (0, 1, 1),
        ),
    ],
)
def test_non_markov_piece_list_raises(pieces, lengths):
    with pytest.raises(InconsistencyError):
        _piece_graph(pieces, lengths)


def test_piece_graph_of_example1(m1):
    assert m1.images == ((0, 1), (0, 1), (0, 1), (0, 1), (1, 2), (0, 1))
    assert m1.successors == ((0, 1), (4,), (4,), (5,), (2, 3), (0, 1))


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(2, 8))
def test_walk_scan_matches_reference_on_random_patterns(rng, n, k):
    m = realize(random_pattern(rng, n, k))
    # the cap bounds the reference's cost on high-entropy patterns; a
    # capped run must fail at the same node in both
    _check_against_reference(m, 6, cap=1000)
    for p in range(1, 7):
        scan = _outcome(oracle_scan, m, p, cap=1000)
        for w in getattr(scan, "witnesses", ()):
            assert verify_certificate(m.pattern, OracleWitness(w))

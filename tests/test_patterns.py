"""Pattern parsing, canonical classes, arcs, and orbit types.

Expected class counts were frozen from an independent brute-force
enumeration (branch assignment via itertools.product plus per-branch
permutations) before enumerate_patterns existed; the oracle is kept
below and re-checked on the small shapes.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stardyn.patterns as patterns_module
from stardyn.patterns import (
    Arc,
    EnumerationCapExceeded,
    FiniteOrbitSpec,
    PatternError,
    PatternSyntaxError,
    StarPattern,
    arc,
    canonicalize,
    enumerate_patterns,
    iter_patterns,
    orbit_type,
    parse_pattern,
    pattern_from_json_dict,
    validate,
    validate_orbit_spec,
    _raw_pattern_count,
    _tables,
)

from reference_digraph import arc_contains, basic_ids
from support import EX1, EX2, random_pattern


def brute_force_classes(n, k, all_branches):
    """Independent enumeration: assignment function, then rank orders,
    deduped by the sorted tuple of branch sequences."""
    classes = set()
    for assignment in itertools.product(range(1, n + 1), repeat=k - 1):
        groups = [
            [i for i, b in enumerate(assignment, start=1) if b == target]
            for target in range(1, n + 1)
        ]
        if all_branches and any(not g for g in groups):
            continue
        for perms in itertools.product(*[itertools.permutations(g) for g in groups]):
            classes.add(tuple(sorted(perms)))
    return classes


# ---------------------------------------------------------------- parsing

def test_parse_example_patterns():
    p = parse_pattern(EX1)
    assert (p.n, p.k) == (3, 5)
    assert p.branches == ((1, 3), (2,), (4,))
    assert p.branch_of(3) == 1 and p.rank_of(3) == 2
    assert p.branch_of(4) == 3 and p.rank_of(4) == 1


def test_round_trip_on_examples_and_random():
    rng = random.Random(7)
    samples = [EX1, EX2, "n=2 k=2; b1: 1; b2:"]
    for text in samples:
        assert parse_pattern(text).to_text() == text
    for _ in range(200):
        p = random_pattern(rng, rng.randint(1, 4), rng.randint(2, 8))
        assert parse_pattern(p.to_text()) == p


def test_json_round_trip():
    p = parse_pattern(EX2)
    assert pattern_from_json_dict(p.to_json_dict()) == p
    assert p.to_json_dict() == {"n": 3, "k": 6, "branches": [[1, 3, 5], [2], [4]]}


def test_parse_syntax_error_carries_position():
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern("n=3 q=5; b1: 1")
    assert err.value.position == 0
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern("n=2 k=3; b1: 1; c2: 2")
    assert err.value.position > 0


def test_parse_semantic_errors():
    with pytest.raises(PatternSyntaxError, match="b1"):
        parse_pattern("n=2 k=3; b2: 1; b1: 2")
    with pytest.raises(PatternError, match="duplicate"):
        parse_pattern("n=2 k=3; b1: 1 1; b2:")
    with pytest.raises(PatternError, match="out of range"):
        parse_pattern("n=2 k=3; b1: 5; b2: 2")
    with pytest.raises(PatternError, match="missing"):
        parse_pattern("n=2 k=4; b1: 1; b2: 2")
    with pytest.raises(PatternError):
        parse_pattern("n=2 k=3; b1: 1; b2: 2; b3: 3")


def test_an_empty_branch_parses():
    assert parse_pattern("n=2 k=2; b1: 1; b2:").branches == ((1,), ())


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(2, 9))
def test_a_parsed_pattern_is_valid_by_construction(rng, n, k):
    # any branch arrangement, empty branches included, written out in
    # either format, reads back as itself and builds its tables
    p = random_pattern(rng, n, k)
    text, obj = p.to_text(), p.to_json_dict()
    for q in (parse_pattern(text), pattern_from_json_dict(obj)):
        assert q == p
        assert (q.to_text(), q.to_json_dict()) == (text, obj)
        assert _tables(q).pattern is q


@pytest.mark.parametrize("n, k", [(0, 1), (1, 1), (2, 0), (3, 1), (0, 0), (1, 0)])
def test_a_header_below_n1_or_k2_raises_validates_message(n, k):
    # n empty sections place every index when k < 2 (and n < 1 with k >= 2
    # misses one); the parsers then raise exactly what validate reports
    text = "; ".join([f"n={n} k={k}", *(f"b{b}:" for b in range(1, n + 1))])
    obj = {"n": n, "k": k, "branches": [[] for _ in range(n)]}
    message = "; ".join(validate(StarPattern(n, k, ())))
    assert message
    for read, form in ((parse_pattern, text), (pattern_from_json_dict, obj)):
        with pytest.raises(PatternError) as raised:
            read(form)
        assert type(raised.value) is PatternError
        assert str(raised.value) == message


def test_validate_collects_instead_of_raising():
    # degenerate orbit size: listed, not raised
    p = StarPattern(n=2, k=1, placements=())
    assert any("k=1" in msg for msg in validate(p))
    # rank gap is only constructible directly
    q = StarPattern(n=2, k=3, placements=((1, 1), (1, 3)))
    assert any("rank gap" in msg for msg in validate(q))
    dup = StarPattern(n=2, k=3, placements=((1, 2), (1, 2)))
    assert any("duplicate" in msg for msg in validate(dup))
    assert validate(parse_pattern(EX1)) == []


# ------------------------------------------------------ canonical classes

def test_canonicalize_example2_is_fixed():
    p = parse_pattern(EX2)
    assert canonicalize(p) == p


def test_canonicalize_idempotent_and_class_invariant():
    rng = random.Random(11)
    for _ in range(50):
        n, k = rng.randint(2, 4), rng.randint(2, 7)
        p = random_pattern(rng, n, k)
        c = canonicalize(p)
        assert canonicalize(c) == c
        # same class under every branch relabeling
        for perm in itertools.permutations(range(1, n + 1)):
            placements = tuple(
                (perm[b - 1], r) for b, r in p.placements
            )
            q = StarPattern(n=n, k=k, placements=placements)
            assert canonicalize(q) == c
        # the representative is lexicographically least over relabelings
        assert c.branches == min(
            tuple(sorted(
                tuple(p.branch_points(b) for b in perm)
            ))
            for perm in itertools.permutations(range(1, n + 1))
        )


def test_enumerate_counts_match_frozen_and_oracle():
    # frozen from the brute-force oracle
    assert len(enumerate_patterns(3, 4, all_branches=True)) == 1
    assert len(enumerate_patterns(3, 5, all_branches=True)) == 12
    # a 2-cycle has a single non-center point, so it cannot meet two
    # proper branches; the all-branches filter leaves nothing
    assert len(enumerate_patterns(2, 2, all_branches=True)) == 0
    assert len(enumerate_patterns(2, 2)) == 1
    for n, k, flag in [(2, 4, False), (3, 4, True), (3, 5, True), (2, 5, True)]:
        got = {p.branches for p in enumerate_patterns(n, k, all_branches=flag)}
        assert got == brute_force_classes(n, k, flag)


def test_enumerate_raw_count_matches_rising_factorial():
    for n, k in [(2, 4), (3, 5), (4, 4)]:
        expected = 1
        for j in range(k - 1):
            expected *= n + j
        assert sum(1 for _ in iter_patterns(n, k)) == expected


def test_enumerate_is_sorted_and_canonical():
    reps = enumerate_patterns(3, 5, all_branches=True)
    assert [p.branches for p in reps] == sorted(p.branches for p in reps)
    assert all(canonicalize(p) == p for p in reps)


def test_enumerate_cap():
    from stardyn.patterns import EnumerationCapExceeded

    with pytest.raises(EnumerationCapExceeded):
        enumerate_patterns(4, 8, cap=1000)


@pytest.mark.parametrize("n", range(1, 6))
def test_enumerate_matches_canonicalized_raw_patterns(n):
    for k in range(2, 8):
        for flag in (False, True):
            want = sorted({canonicalize(p).branches for p in iter_patterns(n, k, flag)})
            got = [p.branches for p in enumerate_patterns(n, k, all_branches=flag)]
            assert got == want, (n, k, flag)


def test_enumerate_visits_no_raw_pattern(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a raw pattern was visited")

    monkeypatch.setattr(patterns_module, "_raw_arrangements", forbidden)
    monkeypatch.setattr(patterns_module, "iter_patterns", forbidden)
    assert len(enumerate_patterns(4, 8, all_branches=True)) == 4200
    with pytest.raises(EnumerationCapExceeded):
        enumerate_patterns(5, 8)


@pytest.mark.parametrize(
    "n, k, flag",
    [(1, 2, False), (1, 5, True), (2, 2, True), (2, 5, False), (3, 4, True),
     (3, 6, False), (3, 6, True), (4, 3, True), (4, 5, False), (4, 6, True),
     (5, 5, True), (2, 7, True)],
)
def test_raw_pattern_count_is_the_raw_enumeration_size(n, k, flag):
    assert _raw_pattern_count(n, k, flag) == sum(1 for _ in iter_patterns(n, k, flag))


@pytest.mark.parametrize("n, k, flag", [(3, 6, True), (4, 5, False), (2, 2, False)])
def test_enumerate_cap_threshold(n, k, flag):
    raw = _raw_pattern_count(n, k, flag)
    full = enumerate_patterns(n, k, all_branches=flag)
    assert enumerate_patterns(n, k, all_branches=flag, cap=raw) == full
    with pytest.raises(
        EnumerationCapExceeded, match=f"^more than {raw - 1} raw patterns for n={n} k={k}$"
    ):
        enumerate_patterns(n, k, all_branches=flag, cap=raw - 1)


def test_a_shape_with_no_class_costs_nothing_per_branch():
    # no all-branch class of (10**6, 3) exists, so no per-branch table is built
    tracemalloc.start()
    try:
        assert enumerate_patterns(10**6, 3, all_branches=True) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_parse_and_json_problems_are_reported():
    with pytest.raises(PatternSyntaxError, match=r"^expected ';' \(at position 8\)$"):
        parse_pattern("n=1 k=2 b1: 1")
    with pytest.raises(PatternError, match=r"^duplicate orbit indices: \[1, 3\]$"):
        parse_pattern("n=2 k=4; b1: 3 1 3; b2: 1 2 3")
    with pytest.raises(PatternError, match="^malformed pattern object: 'k'$"):
        pattern_from_json_dict({"n": 1})
    with pytest.raises(PatternError, match="^header says n=2 but found 1 branches$"):
        pattern_from_json_dict({"n": 2, "k": 2, "branches": [[1]]})
    with pytest.raises(PatternError, match="^orbit size k=1 must be at least 2$"):
        pattern_from_json_dict({"n": 1, "k": 1, "branches": [[]]})
    malformed = (
        "^malformed pattern object: n, k and every index must be integers, "
        "branches a list of lists$"
    )
    for obj in (
        {"n": 1.9, "k": 2.2, "branches": [[1.5]]},
        {"n": "3", "k": "5", "branches": ["13", "2", "4"]},
        {"n": True, "k": 2, "branches": [[1]]},
        {"n": 1, "k": 2, "branches": [[True]]},
        {"n": 1, "k": 2, "branches": {"a": 1}},
    ):
        with pytest.raises(PatternError, match=malformed):
            pattern_from_json_dict(obj)
    p = parse_pattern(EX1)
    with pytest.raises(PatternError, match="^the center lies on no proper branch$"):
        p.branch_of(0)
    with pytest.raises(PatternError, match="^the center has no rank$"):
        p.rank_of(0)


# ----------------------------------------------------------------- arcs

def test_arc_same_branch():
    p = parse_pattern(EX1)
    a = arc(1, 3, p)
    assert a.points == (1, 3)
    assert not a.through_center
    assert basic_ids(a) == {(1, 2)}


def test_arc_through_center():
    p = parse_pattern(EX1)
    a = arc(2, 4, p)
    assert a.points == (2, 0, 4)
    assert a.through_center
    assert basic_ids(a) == {(2, 1), (3, 1)}


def test_arc_from_center_and_reversal():
    p = parse_pattern(EX2)
    a = arc(0, 3, p)
    assert a.points == (0, 1, 3)
    assert arc(3, 0, p).points == (3, 1, 0)
    assert arc(5, 1, p).points == (5, 3, 1)


def test_arc_endpoint_errors():
    p = parse_pattern(EX1)
    with pytest.raises(PatternError):
        arc(1, 1, p)
    with pytest.raises(PatternError):
        arc(0, 9, p)


def test_arc_contains_and_mixed_pattern_error():
    p1, p2 = parse_pattern(EX1), parse_pattern(EX2)
    assert arc_contains(arc(1, 2, p1), arc(0, 1, p1))
    assert arc_contains(arc(1, 2, p1), arc(0, 2, p1))
    assert not arc_contains(arc(0, 1, p1), arc(1, 2, p1))
    with pytest.raises(PatternError, match="different patterns"):
        arc_contains(arc(0, 1, p1), arc(0, 1, p2))


def test_arc_triangle_property():
    rng = random.Random(23)
    for _ in range(100):
        p = random_pattern(rng, rng.randint(2, 4), rng.randint(3, 8))
        a, b, c = rng.sample(range(p.k), 3)
        lhs = basic_ids(arc(a, c, p))
        rhs = basic_ids(arc(a, b, p)) | basic_ids(arc(b, c, p))
        assert lhs <= rhs


def test_arc_traversal_is_unit_steps():
    rng = random.Random(31)
    for _ in range(100):
        p = random_pattern(rng, rng.randint(2, 4), rng.randint(3, 8))
        a, b = rng.sample(range(p.k), 2)
        t = arc(a, b, p)
        assert t.points[0] == a and t.points[-1] == b
        assert len(set(t.points)) == len(t.points)
        assert len(basic_ids(t)) == len(t.points) - 1


# ----------------------------------------------------------- orbit types

def test_orbit_type_with_center_is_trivial():
    s = FiniteOrbitSpec(
        n=2, k=3,
        placements=((0, 0), (1, 1), (2, 1)),
        succ=(1, 2, 0),
        center_point=0,
    )
    assert orbit_type(s) == {1}


def test_orbit_type_branch_fixing():
    # 4-cycle on the 3-od: two points on b1 with the inner one staying on
    # b1, singletons on b2 and b3; the induced branch map fixes branch 1
    s = FiniteOrbitSpec(
        n=3, k=4,
        placements=((1, 1), (1, 2), (2, 1), (3, 1)),
        succ=(1, 2, 3, 0),
    )
    assert 1 in orbit_type(s)
    assert orbit_type(s) == {1}


def test_orbit_type_two_branch_swap():
    s = FiniteOrbitSpec(
        n=2, k=2,
        placements=((1, 1), (2, 1)),
        succ=(1, 0),
    )
    assert orbit_type(s) == {2}


def test_orbit_spec_validation():
    bad = FiniteOrbitSpec(
        n=2, k=4,
        placements=((1, 1), (1, 2), (2, 1), (2, 2)),
        succ=(1, 0, 3, 2),  # two 2-cycles, not a single 4-cycle
    )
    assert any("single cycle" in msg for msg in validate_orbit_spec(bad))
    with pytest.raises(PatternError):
        orbit_type(bad)


@pytest.mark.parametrize(
    "placements, succ, problem",
    [
        (((1, 1), (2, 1)), (1,), "placements and succ must both have length k"),
        (((1, 1), (2, 1)), (1, 1), "succ is not a permutation"),
        (((1, 1), (3, 1)), (1, 0), "point 1 on nonexistent branch 3"),
        (((1, 1), (1, 3)), (1, 0), "branch b1 ranks not contiguous from 1: [1, 3]"),
    ],
)
def test_orbit_spec_problems(placements, succ, problem):
    s = FiniteOrbitSpec(n=2, k=2, placements=placements, succ=succ)
    assert validate_orbit_spec(s) == [problem]

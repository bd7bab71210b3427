"""Tests for the classification survey, reference checks, and tables."""

from __future__ import annotations

import itertools
import json
import random
import sys
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stardyn.certify as certify_module
import stardyn.patterns as patterns_module
import stardyn.survey as survey_module
from reference_table import parse_table
from stardyn.certify import (
    CenterTheoremCase,
    InconsistencyError,
    NPlus2Case,
    cover_digraph,
    periodicity_report,
)
from stardyn.cli import run
from stardyn.orders import forced_periods
from stardyn.patterns import arc, canonicalize, parse_pattern
from stardyn.plmap import loop_point, realize
from stardyn.survey import (
    REFERENCE_FACTS,
    SURVEY_FILTERS,
    TABLE_COLUMNS,
    classify_all,
    emit_table,
    filter_result,
    survey_to_json,
    tail_tag,
    verify_paper,
)
from support import EX1, EX2, count_calls as _count_calls, random_pattern


@pytest.fixture(scope="module")
def survey_3_4():
    return classify_all(3, 4, 10)


@pytest.fixture(scope="module")
def survey_3_5():
    return classify_all(3, 5, 10)


@pytest.fixture(scope="module")
def survey_3_6():
    return classify_all(3, 6, 10)


# ---------------------------------------------------------------------------
# tail_tag
# ---------------------------------------------------------------------------


def test_tail_tag_evens_plus_one():
    assert tail_tag({1, 2, 4, 6, 8, 10}, 10) == "evens-plus-one"


def test_tail_tag_cofinite_with_gap():
    assert tail_tag({1, 2, 4, 5, 6, 7, 8, 9, 10}, 10) == "cofinite-from-4"


def test_tail_tag_full_range_is_cofinite_from_one():
    assert tail_tag(set(range(1, 11)), 10) == "cofinite-from-1"


def test_tail_tag_other_when_top_period_missing():
    assert tail_tag({1, 2, 5, 7}, 10) == "other"


def test_tail_tag_evens_checked_before_cofinite():
    # {1} + evens contains the top period, so the cofinite rule would also
    # fire (vacuously at m = P_max); the distinctive shape must win.
    assert tail_tag({1, 2, 4, 6, 8, 10}, 10) != "cofinite-from-10"


# ---------------------------------------------------------------------------
# classify_all
# ---------------------------------------------------------------------------


def test_one_point_per_branch_single_class(survey_3_4):
    assert survey_3_4.counts.branch_classes == 1
    assert survey_3_4.counts.digraph_classes == 1
    assert survey_3_4.counts.raw == 6  # 3! relabelings, trivial stabilizer
    (rec,) = survey_3_4.records
    assert rec.center_theorem
    assert not rec.nplus2
    assert rec.periods_present == tuple(range(1, 11))
    assert rec.tail == "cofinite-from-1"
    assert rec.chaos_iterate == 1
    assert rec.class_size == 6


def test_counts_for_five_points_on_three_branches(survey_3_5):
    assert survey_3_5.counts.branch_classes == 12
    assert survey_3_5.counts.digraph_classes == 12
    assert survey_3_5.counts.raw == 72


def test_center_theorem_flag_matches_branch_membership(survey_3_5):
    for rec in survey_3_5.records:
        same_branch = rec.pattern.branch_of(3) == rec.pattern.branch_of(1)
        assert rec.center_theorem == (not same_branch)


def test_nplus2_flag_complements_center_theorem_at_k_equals_n_plus_2(survey_3_5):
    for rec in survey_3_5.records:
        assert rec.nplus2 == (not rec.center_theorem)


def test_two_points_two_branches(survey_3_4):
    res = classify_all(2, 3, 10)
    assert res.counts.raw == 2
    assert res.counts.branch_classes == 1
    assert res.counts.digraph_classes == 1


def test_raw_count_is_sum_of_class_sizes(survey_3_6):
    assert survey_3_6.counts.raw == sum(r.class_size for r in survey_3_6.records)
    assert survey_3_6.counts.raw == 720
    assert survey_3_6.counts.branch_classes == 120


def test_branch_class_ids_are_enumeration_order(survey_3_6):
    assert [r.branch_class for r in survey_3_6.records] == list(range(120))


def test_digraph_ids_contiguous_and_first_occurrence_ordered(survey_3_6):
    seen: list[int] = []
    for r in survey_3_6.records:
        if r.digraph_class not in seen:
            assert r.digraph_class == len(seen)
            seen.append(r.digraph_class)
    assert len(seen) == survey_3_6.counts.digraph_classes


def test_records_carry_canonical_patterns(survey_3_6):
    for r in survey_3_6.records:
        assert canonicalize(r.pattern) == r.pattern


def test_present_set_contains_forced_baseline(survey_3_6):
    for r in survey_3_6.records:
        assert forced_periods(1, r.pattern.k, 10) <= set(r.periods_present)


def test_summary_consistent_with_report(survey_3_6):
    # each row against a fresh report of its pattern, whose periods the oracle decides
    for r in survey_3_6.records:
        report = periodicity_report(r.pattern, p_max=10)
        assert set(r.periods_present) == report.present
        chaos = report.chaos
        assert r.chaos_iterate == (chaos.iterate if chaos is not None else None)
        assert r.center_theorem == isinstance(report.theorem, CenterTheoremCase)
        assert r.nplus2 == isinstance(report.theorem, NPlus2Case)


@st.composite
def _row_cases(draw):
    """A valid pattern with n = 1..5 and k = 2..8, empty branches allowed,
    or one with k = n+2 and every branch used (the n+2 theorem's shape),
    with a horizon that reaches 2k, where the survey asks the oracle, when
    k <= 5, and a chaos search depth."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 5))
    nplus2 = draw(st.booleans())
    k = n + 2 if nplus2 else draw(st.integers(2, 8))
    p = random_pattern(rng, n, k, all_branches=nplus2)
    p_max = draw(st.integers(2 * k, 2 * k + 2) if k <= 5 else st.integers(1, k + 1))
    return p, p_max, draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(_row_cases())
def test_survey_row_agrees_with_report(case):
    # the row counts closed walks where the report asks the oracle
    p, p_max, max_iterate = case
    forced = frozenset(forced_periods(1, p.k, p_max))
    ((present, chaos, center, nplus2, adjacency, traces),) = certify_module._survey_rows(
        [p], p_max, max_iterate, forced
    )
    report = periodicity_report(p, p_max=p_max, max_iterate=max_iterate)
    assert set(present) == report.present, p.to_text()
    assert chaos == (report.chaos.iterate if report.chaos is not None else None)
    assert center == isinstance(report.theorem, CenterTheoremCase)
    assert nplus2 == isinstance(report.theorem, NPlus2Case)
    assert adjacency == report.digraph.adjacency
    assert traces == tuple(certify_module._walk_traces((adjacency,), p_max)[0])


def test_parallel_jobs_match_serial(survey_3_5, monkeypatch):
    monkeypatch.setattr(survey_module, "_CHUNK", 4)  # 12 classes, 3 chunks
    par = classify_all(3, 5, 10, jobs=3)
    assert par.counts == survey_3_5.counts
    assert emit_table(par.records, "json") == emit_table(survey_3_5.records, "json")


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that records its size, the most
    tasks outstanding at once (submitted, result not yet read) and the
    tasks cancelled, and runs a task in this process when its result is
    read."""

    made: list[_SerialPool] = []

    def __init__(self, max_workers):
        self.size, self.outstanding, self.most, self.cancelled = max_workers, 0, 0, 0
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.outstanding += 1
        self.most = max(self.most, self.outstanding)
        return _SerialTask(self, fn, args)


class _SerialTask:
    def __init__(self, pool, fn, args):
        self.pool, self.fn, self.args = pool, fn, args

    def result(self):
        self.pool.outstanding -= 1
        return self.fn(*self.args)

    def cancel(self):
        self.pool.cancelled += 1
        return True


@pytest.mark.parametrize(
    "n,k,jobs,cpus,workers",
    # in chunks of 8, 12 classes are 2 chunks; 120 classes are 15
    [
        (3, 5, 100_000, 64, 2),
        (3, 6, 100_000, 4, 4),
        (3, 6, 3, 64, 3),
        (3, 6, 2, 1, None),
        (3, 4, 8, 8, None),
    ],
)
def test_jobs_bound_the_pool(n, k, jobs, cpus, workers, monkeypatch):
    # the pool gets min(jobs, usable CPUs, chunks) workers, and none at all
    # when that is 1; no process is started here
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(survey_module, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(survey_module, "_CHUNK", 8)
    monkeypatch.setattr(_SerialPool, "made", [])
    result = classify_all(n, k, 6, jobs=jobs)
    assert [pool.size for pool in _SerialPool.made] == ([] if workers is None else [workers])
    assert result == classify_all(n, k, 6)


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_survey_keeps_a_bounded_window_of_chunks(workers, monkeypatch):
    # (3, 7) has 1,200 classes, 150 chunks of 8: more than the window of
    # _IN_FLIGHT chunks per worker, which fills and never overflows
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(survey_module, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(survey_module, "_CHUNK", 8)
    monkeypatch.setattr(_SerialPool, "made", [])
    result = classify_all(3, 7, 6, jobs=workers)
    (pool,) = _SerialPool.made
    assert pool.most == survey_module._IN_FLIGHT * workers
    assert (pool.outstanding, pool.cancelled) == (0, 0)
    assert result == classify_all(3, 7, 6)


def test_parallel_survey_cancels_pending_chunks_when_one_raises(monkeypatch):
    # the third chunk raises when its result is read, with the window of
    # w chunks full and refilled twice: chunks 4 to w + 2 are pending, and
    # are cancelled and never run, and no later chunk is submitted
    import concurrent.futures

    survey_rows = survey_module._survey_rows
    chunks = []

    def third_raises(chunk, *args):
        chunks.append(chunk)
        if len(chunks) == 3:
            raise RuntimeError("chunk 3")
        return survey_rows(chunk, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(survey_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(survey_module, "_CHUNK", 8)
    monkeypatch.setattr(survey_module, "_survey_rows", third_raises)
    monkeypatch.setattr(_SerialPool, "made", [])
    with pytest.raises(RuntimeError, match="chunk 3"):
        classify_all(3, 7, 6, jobs=2)
    (pool,) = _SerialPool.made
    w = survey_module._IN_FLIGHT * 2
    assert (pool.most, pool.outstanding, pool.cancelled, len(chunks)) == (w, w - 1, w - 1, 3)


def test_a_survey_counts_walks_once_per_chunk(monkeypatch):
    # the closed walks of a whole chunk of classes are counted in one
    # packed pass, not one call per class
    calls = _count_calls(monkeypatch, ("_walk_traces",))
    result = classify_all(3, 7, 10)
    assert len(result.records) == 1200 > survey_module._CHUNK
    assert calls["_walk_traces"] == -(-1200 // survey_module._CHUNK)


@pytest.mark.parametrize(
    "n,k,p_max",
    # (2, 8) at pmax 16 realizes every class and scans q = 16 for a witness
    [(3, 7, 10), (2, 8, 16)],
)
def test_classify_all_is_the_same_under_jobs_1_and_2(n, k, p_max):
    serial = classify_all(n, k, p_max, jobs=1)
    assert classify_all(n, k, p_max, jobs=2) == serial
    # more than one chunk, so a pool starts, and the last one is short
    assert len(serial.records) > survey_module._CHUNK
    assert len(serial.records) % survey_module._CHUNK


def test_classify_deterministic_bytes(survey_3_5):
    again = classify_all(3, 5, 10)
    assert emit_table(again.records, "json") == emit_table(survey_3_5.records, "json")
    assert emit_table(again.records, "csv") == emit_table(survey_3_5.records, "csv")


# ---------------------------------------------------------------------------
# the filtered (3, 6) campaign
# ---------------------------------------------------------------------------


def test_filtered_counts_all_levels(survey_3_6):
    sub = filter_result(survey_3_6, "theorem1-inapplicable")
    assert sub.counts.branch_classes == 30
    assert sub.counts.digraph_classes == 30
    assert sub.counts.raw == 180


def test_filter_spellings_agree(survey_3_6):
    a = filter_result(survey_3_6, SURVEY_FILTERS[0])
    b = filter_result(survey_3_6, SURVEY_FILTERS[1])
    assert a == b


def test_filter_unknown_name_rejected(survey_3_6):
    with pytest.raises(ValueError, match="unknown survey filter"):
        filter_result(survey_3_6, "nosuch")


def test_filtered_classes_have_tame_tails_and_early_chaos(survey_3_6):
    sub = filter_result(survey_3_6, "theorem1-inapplicable")
    for r in sub.records:
        assert r.tail == "evens-plus-one" or r.tail.startswith("cofinite-from-")
        assert r.chaos_iterate is not None and r.chaos_iterate <= 2


def test_six_point_example_class_is_evens_plus_one(survey_3_6):
    target = canonicalize(parse_pattern(EX2))
    matches = [r for r in survey_3_6.records if r.pattern == target]
    assert len(matches) == 1
    rec = matches[0]
    assert not rec.center_theorem
    assert rec.tail == "evens-plus-one"
    assert rec.periods_present == (1, 2, 4, 6, 8, 10)
    assert rec.chaos_iterate == 2


def test_five_point_example_class_summary(survey_3_5):
    target = canonicalize(parse_pattern(EX1))
    matches = [r for r in survey_3_5.records if r.pattern == target]
    assert len(matches) == 1
    rec = matches[0]
    assert rec.periods_present == (1, 2, 4, 5, 6, 7, 8, 9, 10)
    assert rec.tail == "cofinite-from-4"
    assert rec.nplus2 and not rec.center_theorem


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_table_columns_golden():
    assert TABLE_COLUMNS == (
        "pattern",
        "branch_class",
        "digraph_class",
        "center_theorem",
        "nplus2",
        "periods_present",
        "tail",
        "chaos_iterate",
    )


def test_table_roundtrip_json_equals_csv(survey_3_5):
    rows_json = parse_table(emit_table(survey_3_5.records, "json"), "json")
    rows_csv = parse_table(emit_table(survey_3_5.records, "csv"), "csv")
    assert rows_json == rows_csv
    assert len(rows_json) == 12


def test_table_csv_shape(survey_3_4):
    text = emit_table(survey_3_4.records, "csv")
    lines = text.splitlines()
    assert lines[0] == ",".join(TABLE_COLUMNS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "n=3 k=4; b1: 1; b2: 2; b3: 3"
    assert cells[3] == "true"
    assert cells[5] == "1 2 3 4 5 6 7 8 9 10"


def test_table_unknown_format_rejected(survey_3_4):
    with pytest.raises(ValueError, match="unknown table format"):
        emit_table(survey_3_4.records, "xml")
    with pytest.raises(ValueError, match="unknown table format"):
        parse_table("", "xml")


def test_table_missing_chaos_roundtrips_as_none(survey_3_6):
    # build a row set that includes a chaotic and (if any) a non-chaotic class
    rows = parse_table(emit_table(survey_3_6.records, "csv"), "csv")
    for row, rec in zip(rows, survey_3_6.records):
        assert row[7] == rec.chaos_iterate


def test_survey_json_payload(survey_3_5):
    payload = survey_to_json(survey_3_5)
    assert payload["counts"] == {"raw": 72, "branch_classes": 12, "digraph_classes": 12}
    assert payload["columns"] == list(TABLE_COLUMNS)
    assert len(payload["rows"]) == 12
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert json.dumps(survey_to_json(classify_all(3, 5, 10)), indent=2, sort_keys=True) == text


# ---------------------------------------------------------------------------
# reference-fact verification
# ---------------------------------------------------------------------------


def test_reference_checks_all_pass():
    rep = verify_paper()
    assert rep.all_passed
    names = [c.name for c in rep.checks]
    assert names == [
        "example1-digraph",
        "example1-periodicity",
        "example1-cascade",
        "example2-digraph",
        "example2-odd-closed-walks",
        "example2-periodicity",
        "example2-chaos",
        "example2-successor-modulus",
        "interval-order-below-four",
        "one-point-per-branch-sweep",
        "orbit-size-n-plus-2-sweep",
        "class-count-reconciliation",
    ]


def test_reference_report_rerun_is_byte_identical():
    a = json.dumps(verify_paper().to_json(), indent=2, sort_keys=True)
    b = json.dumps(verify_paper().to_json(), indent=2, sort_keys=True)
    assert a == b


def test_corrupted_digraph_golden_fails_with_diff(monkeypatch):
    edges = set(REFERENCE_FACTS["example1_edges"])
    removed = ("[0,4]", "[0,1]")
    edges.discard(removed)
    monkeypatch.setitem(REFERENCE_FACTS, "example1_edges", frozenset(edges))
    rep = verify_paper()
    assert not rep.all_passed
    bad = {c.name: c for c in rep.checks if not c.passed}
    assert set(bad) == {"example1-digraph"}
    assert "unexpected edges" in bad["example1-digraph"].detail
    assert "[0,4]" in bad["example1-digraph"].detail


def test_corrupted_period_golden_fails(monkeypatch):
    monkeypatch.setitem(REFERENCE_FACTS, "example2_present", (1, 2, 3, 4, 6, 8, 10))
    rep = verify_paper()
    bad = [c.name for c in rep.checks if not c.passed]
    assert bad == ["example2-periodicity"]


def test_corrupted_successor_modulus_fails(monkeypatch):
    monkeypatch.setitem(REFERENCE_FACTS, "example2_quoted_modulus", 6)
    bad = [c.name for c in verify_paper().checks if not c.passed]
    assert bad == ["example2-successor-modulus"]


def test_class_count_check_documents_convention():
    rep = verify_paper()
    (check,) = [c for c in rep.checks if c.name == "class-count-reconciliation"]
    assert check.passed
    assert "branch 30" in check.detail
    assert "digraph 30" in check.detail
    assert "raw 180" in check.detail
    assert "24" in check.detail


@pytest.mark.parametrize("quoted, level", [(180, "raw"), (30, "branch")])
def test_class_count_note_names_the_matching_level(quoted, level, monkeypatch):
    monkeypatch.setitem(REFERENCE_FACTS, "class_count", quoted)
    (check,) = [c for c in verify_paper().checks if c.name == "class-count-reconciliation"]
    assert check.passed
    assert f"; the quoted count {quoted} matches the {level}-level convention; " in check.detail


def test_digraph_check_names_a_vertex_mismatch_and_a_missing_edge(monkeypatch):
    vertices = REFERENCE_FACTS["example1_vertices"]
    extra = ("[0,1]", "[0,4]")
    monkeypatch.setitem(REFERENCE_FACTS, "example1_vertices", vertices[::-1])
    monkeypatch.setitem(REFERENCE_FACTS, "example1_edges", REFERENCE_FACTS["example1_edges"] | {extra})
    bad = {c.name: c.detail for c in verify_paper().checks if not c.passed}
    assert bad == {
        "example1-digraph": f"vertices {list(vertices)} != expected {list(vertices[::-1])}; "
        f"missing edges: [{extra}]"
    }


def test_sweep_checks_name_each_failing_class(monkeypatch):
    # the first class of every swept shape loses its chaos certificate
    classify = survey_module.classify_all

    def without_chaos(n, k, *args, **kwargs):
        result = classify(n, k, *args, **kwargs)
        if k - n in (1, 2):
            first = result.records[0]._replace(chaos_iterate=None)
            result = result._replace(records=(first, *result.records[1:]))
        return result

    monkeypatch.setattr(survey_module, "classify_all", without_chaos)
    bad = {c.name: c.detail for c in verify_paper().checks if not c.passed}
    one_point = [
        f"n={n} k={n + 1}; " + "; ".join(f"b{b}: {b}" for b in range(1, n + 1))
        for n in range(2, 6)
    ]
    np2 = [classify(n, n + 2).records[0] for n in (3, 4)]
    assert bad == {
        "one-point-per-branch-sweep": "; ".join(
            f"{text}: theorem=True periods={list(range(1, 11))} chaos=None" for text in one_point
        ),
        "orbit-size-n-plus-2-sweep": "; ".join(
            f"{r.pattern_text}: periods={list(r.periods_present)} chaos=None" for r in np2
        ),
    }


# ---------------------------------------------------------------------------
# one analysis per class
# ---------------------------------------------------------------------------


def test_classify_all_analyzes_each_class_once(monkeypatch):
    # a row derives one table per class and no public certify entry point
    # runs on the survey path
    calls = _count_calls(
        monkeypatch, ("realize", "cover_digraph", "check_center_theorem", "_tables")
    )
    # a class is realized only to scan a multiple of k above k: none is in
    # range at (3,6) with pmax 10, and q = 8 and 12 are at (2,4) with pmax 13
    for n, k, p_max, classes, realized in ((3, 6, 10, 120, 0), (2, 4, 13, 6, 6)):
        calls.update(dict.fromkeys(calls, 0))
        result = classify_all(n, k, p_max)
        assert len(result.records) == classes
        assert calls == {
            "realize": realized, "cover_digraph": 0, "check_center_theorem": 0, "_tables": classes
        }


def test_validate_runs_once_per_report_and_per_realized_class(monkeypatch):
    # ``realize`` validates through the table it is built on, in the
    # descent pass, and the report (its digraph too), ``loop_point`` and a
    # realized survey row read ``PLMap.tables``; ``validate`` itself runs
    # only for an invalid pattern
    p = parse_pattern(EX2)
    m = realize(p)
    calls = _count_calls(monkeypatch, ("validate", "_descent"))
    periodicity_report(p)
    assert calls == {"validate": 0, "_descent": 1}
    calls["_descent"] = 0
    loop_point(m, [arc(0, 2, p), arc(1, 3, p), arc(0, 2, p)])
    assert calls == {"validate": 0, "_descent": 0}
    # every (2,4) class is realized to scan q = 8 and 12
    assert len(classify_all(2, 4, 13).records) == 6
    assert calls == {"validate": 0, "_descent": 6}


def test_classify_all_validates_and_masks_once_per_class(monkeypatch):
    # ``_descent`` checks the pattern and derives the intervals and the
    # descent vector in one pass
    calls = _count_calls(monkeypatch, ("validate", "_descent"))
    result = classify_all(4, 6)
    assert len(result.records) == 20
    assert calls == {"validate": 0, "_descent": 20}


def test_classify_all_classes_each_row_before_the_next_is_analyzed(monkeypatch):
    # with one job the rows of a chunk are classed as they arrive, before
    # the next chunk is analyzed: no list of rows beyond one chunk's
    order = []
    survey_rows, degree_codes = survey_module._survey_rows, survey_module._degree_codes

    def rows(chunk, *args):
        order.append(("rows", chunk))
        return survey_rows(chunk, *args)

    def codes(adjacency):
        order.append(("class", adjacency))
        return degree_codes(adjacency)

    monkeypatch.setattr(survey_module, "_survey_rows", rows)
    monkeypatch.setattr(survey_module, "_degree_codes", codes)
    monkeypatch.setattr(survey_module, "_CHUNK", 50)
    result = classify_all(3, 6, jobs=1)
    sizes = [50, 50, 20]  # 120 classes
    assert [step for step, _ in order] == [
        step for size in sizes for step in ["rows"] + ["class"] * size
    ]
    analyzed = [p for step, chunk in order if step == "rows" for p in chunk]
    assert analyzed == [r.pattern for r in result.records]


def test_classify_all_memory_per_class_stays_bounded():
    # the traced peak of a survey holds the classes and their records, and
    # nothing per class that the classing no longer needs (keeping a list
    # of every row took about 1,160 B per class)
    tracemalloc.start()
    try:
        result = classify_all(4, 8, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.records) == 4200
    assert peak / len(result.records) < 1000, peak


def test_classify_all_shares_period_sets_between_classes():
    result = classify_all(3, 6)
    by_set = {}
    for r in result.records:
        first = by_set.setdefault(r.periods_present, r)
        assert r.periods_present is first.periods_present and r.tail is first.tail


@pytest.mark.parametrize(
    "n,k,all_branches,digraph_classes",
    # no two classes merge in the first two shapes and many do in the rest
    [(3, 6, True, 120), (4, 6, True, 20), (2, 6, True, 64), (3, 5, False, 23), (3, 6, False, 184)],
    ids=["3-6", "4-6", "2-6", "3-5-any-branches", "3-6-any-branches"],
)
def test_digraph_classes_match_brute_force_isomorphism(n, k, all_branches, digraph_classes):
    records = classify_all(n, k, 2, max_iterate=1, all_branches=all_branches).records
    graphs = [_nx_graph(cover_digraph(r.pattern).adjacency) for r in records]
    expected: list[int] = []
    for i, h in enumerate(graphs):
        first = next((j for j in range(i) if nx.is_isomorphic(h, graphs[j])), None)
        expected.append(max(expected, default=-1) + 1 if first is None else expected[first])
    assert [r.digraph_class for r in records] == expected
    assert len(set(expected)) == digraph_classes


def _canonical_form_ids(records):
    """Digraph ids from the canonical form of every class, numbered by
    first appearance: the classing before invariant keys were added."""
    ids: dict = {}
    forms = (survey_module._canonical_form(cover_digraph(r.pattern).adjacency) for r in records)
    return [ids.setdefault(form, len(ids)) for form in forms]


@pytest.mark.parametrize(
    "n,k,p_max,all_branches,jobs",
    # many classes merge in the first four shapes and none in the last two;
    # the 15,120 classes at (2,8) run once, in parallel, to save time
    [
        (2, 6, 10, True, (1, 2)),
        (2, 7, 10, True, (1, 2)),
        (2, 8, 2, True, (2,)),
        (3, 6, 10, False, (1, 2)),
        (3, 7, 10, True, (1, 2)),
        (4, 8, 3, True, (1, 2)),
    ],
    ids=["2-6", "2-7", "2-8-pmax2", "3-6-any-branches", "3-7", "4-8-pmax3"],
)
def test_invariant_keys_give_the_canonical_form_ids(n, k, p_max, all_branches, jobs):
    results = [
        classify_all(n, k, p_max, max_iterate=1, all_branches=all_branches, jobs=j) for j in jobs
    ]
    assert [r.digraph_class for r in results[0].records] == _canonical_form_ids(results[0].records)
    assert all(result == results[0] for result in results)


def test_canonical_form_runs_only_where_keys_collide(monkeypatch):
    # at (3,7) 36 of the 1,200 classes share a key with an earlier class
    # or are the earlier class of such a key; none of them merge
    calls = []
    original = survey_module._canonical_form
    monkeypatch.setattr(
        survey_module, "_canonical_form", lambda adjacency: calls.append(1) or original(adjacency)
    )
    result = classify_all(3, 7)
    assert result.counts.digraph_classes == len(result.records) == 1200
    assert len(calls) == 36


def _nx_graph(adjacency):
    h = nx.DiGraph()
    h.add_nodes_from(range(len(adjacency)))
    h.add_edges_from((i, j) for i, row in enumerate(adjacency) for j in row)
    return h


def _relabel(adjacency, perm):
    """The digraph with vertex i renamed perm[i]."""
    out = [()] * len(adjacency)
    for i, row in enumerate(adjacency):
        out[perm[i]] = tuple(sorted(perm[j] for j in row))
    return tuple(out)


def _cycles(*lengths):
    """Disjoint directed cycles of the given lengths, numbered in order."""
    adjacency, start = [], 0
    for length in lengths:
        adjacency += [((start + (i + 1) % length),) for i in range(length)]
        start += length
    return tuple(adjacency)


def _complete(size, loops):
    return tuple(tuple(j for j in range(size) if loops or j != i) for i in range(size))


@pytest.mark.parametrize("length", range(3, 7))
def test_canonical_form_of_a_directed_cycle(length):
    # every vertex looks alike to refinement, so only individualization
    # can order them
    form = survey_module._canonical_form(_cycles(length))
    assert sorted(map(len, form)) == [1] * length
    for perm in itertools.permutations(range(length)):
        assert survey_module._canonical_form(_relabel(_cycles(length), perm)) == form
    assert survey_module._canonical_form(_cycles(length - 1, 1)) != form


@pytest.mark.parametrize("size", range(1, 6))
def test_canonical_form_of_a_complete_digraph(size):
    # a complete digraph is its own relabelling, so its form is itself
    for loops in (False, True):
        assert survey_module._canonical_form(_complete(size, loops)) == _complete(size, loops)


@pytest.mark.parametrize("lengths", [(3, 6), (2, 4), (1, 2, 3), (3, 3)])
def test_canonical_form_of_disjoint_cycles(lengths):
    # refinement leaves all cycle vertices in one cell, but only vertices
    # of equal cycles are alike, so the form must be the least over every
    # individualized vertex, not the first one tried
    form = survey_module._canonical_form(_cycles(*lengths))
    assert survey_module._canonical_form(_cycles(*reversed(lengths))) == form
    rng = random.Random(sum(lengths))
    for _ in range(20):
        perm = rng.sample(range(sum(lengths)), sum(lengths))
        assert survey_module._canonical_form(_relabel(_cycles(*lengths), perm)) == form


def test_canonical_form_separates_a_six_cycle_from_two_three_cycles():
    # equal degrees and equal refined colours, but not isomorphic
    six, two_threes = _cycles(6), _cycles(3, 3)
    assert not nx.is_isomorphic(_nx_graph(six), _nx_graph(two_threes))
    assert survey_module._canonical_form(six) != survey_module._canonical_form(two_threes)


@st.composite
def _digraph_pairs(draw):
    """A random digraph on 1 to 7 vertices, self-loops allowed, and a
    relabelling of it with one arc possibly moved, so that the pair is
    sometimes isomorphic and sometimes not, with equal arc counts."""
    size = draw(st.integers(1, 7))
    vertex = st.integers(0, size - 1)
    arcs = draw(st.sets(st.tuples(vertex, vertex)))
    moved = set(arcs)
    if arcs and draw(st.booleans()):
        moved.discard(draw(st.sampled_from(sorted(arcs))))
        moved.add(draw(st.tuples(vertex, vertex)))
    perm = draw(st.permutations(range(size)))

    def adjacency(arc_set):
        return tuple(tuple(sorted(j for i, j in arc_set if i == u)) for u in range(size))

    return adjacency(arcs), _relabel(adjacency(moved), perm), perm


@settings(max_examples=100, deadline=None)
@given(_digraph_pairs())
def test_canonical_form_decides_isomorphism_on_random_digraphs(pair):
    g, h, perm = pair
    form = survey_module._canonical_form(g)
    assert survey_module._canonical_form(_relabel(g, perm)) == form
    same = survey_module._canonical_form(h) == form
    assert same == nx.is_isomorphic(_nx_graph(g), _nx_graph(h))


def test_verify_paper_builds_one_digraph_per_report(monkeypatch):
    # the two digraph checks read the reports' digraphs; every table
    # belongs to a report or to the row of a survey class
    calls = _count_calls(monkeypatch, ("periodicity_report", "cover_digraph", "_tables"))
    survey_rows, classes = survey_module._survey_rows, []

    def rows(chunk, *args):
        classes.extend(chunk)
        return survey_rows(chunk, *args)

    monkeypatch.setattr(survey_module, "_survey_rows", rows)
    assert verify_paper().all_passed
    assert classes
    assert calls["cover_digraph"] == 0
    assert calls["_tables"] == calls["periodicity_report"] + len(classes)


def test_classify_all_raises_when_the_oracle_finds_a_claimed_period_absent(monkeypatch):
    # 12 is forced at k = 6, and a survey asks the oracle for a witness there
    monkeypatch.setattr(certify_module, "_scan", lambda *args: ([], 0, None, True))
    with pytest.raises(InconsistencyError, match="claim period 12 but the exact oracle"):
        classify_all(3, 6, 13)


def test_classify_all_raises_when_a_claimed_period_counts_zero(monkeypatch):
    # period 1 is forced for every class, so a zero count contradicts its claim
    monkeypatch.setattr(
        certify_module, "_walk_traces", lambda batch, bound: [[0] * bound for _ in batch]
    )
    with pytest.raises(InconsistencyError, match="claim period 1 but the closed-walk count"):
        classify_all(3, 5)


def test_classify_all_builds_no_forced_period_or_center_orbit(monkeypatch):
    # a survey row decides the claimed periods as ints, and asks the oracle
    # at a multiple of k above k only for a witness, so no record of a
    # forced period or the center's orbit is built, below 2k or above it
    # (12 is forced at k = 6), while a report builds both
    built = []
    for cls in (certify_module.ForcedPeriod, certify_module.CenterOrbit):

        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    classify_all(3, 6)
    assert built == []
    classify_all(3, 6, 13)
    assert built == []
    periodicity_report(parse_pattern(EX2), 10)
    assert set(built) == {"ForcedPeriod", "CenterOrbit"}


@pytest.mark.parametrize("n,k", [(3, 4), (3, 5), (3, 6), (2, 7)])
def test_claimed_periods_are_those_with_a_certificate(n, k):
    # the survey's int set and the report's records name the same periods
    p_max = 2 * k + 1
    forced = frozenset(forced_periods(1, k, p_max))
    for p in patterns_module.enumerate_patterns(n, k):
        tables = patterns_module._tables(p)
        theorem = certify_module._theorem(tables)
        cascade = certify_module._find_cascade(tables.adjacency, tables.ends)
        claims = {
            q: certify_module._claims(k, theorem, cascade, forced, q) for q in range(1, p_max + 1)
        }
        assert certify_module._claimed(k, theorem, cascade, forced, p_max) == {
            q for q, certs in claims.items() if certs
        }, p.to_text()


@pytest.mark.parametrize(
    "name,fault,message",
    [
        ("_verify_genscramble", lambda t, cert: False, "fails its replay"),
        ("_covers", lambda masks, src, dst: False, "fail although its hypothesis holds"),
    ],
    ids=["chaos-replay", "theorem-coverings"],
)
def test_survey_path_faults_raise(name, fault, message, monkeypatch, capsys):
    # every class at (3,4) has a center-theorem certificate, whose coverings
    # and derived chaos loop a survey row checks
    monkeypatch.setattr(certify_module, name, fault)
    with pytest.raises(InconsistencyError, match=message):
        classify_all(3, 4)
    assert run(["survey", "--n", "3", "--k", "4", "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "inconsistency" in captured.err and message in captured.err


def test_survey_path_builds_no_arc(monkeypatch):
    # arcs on the survey path are rank bitmasks; ``patterns.arc`` is for users
    survey, report = classify_all(4, 6), periodicity_report(parse_pattern(EX2), p_max=12)
    original = patterns_module.arc

    def forbidden(*args, **kwargs):
        raise AssertionError("patterns.arc was called")

    patched = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stardyn" and getattr(module, "arc", None) is original:
            monkeypatch.setattr(module, "arc", forbidden)
            patched.append(name)
    assert {"stardyn", "stardyn.patterns"} <= set(patched)
    assert classify_all(4, 6) == survey
    assert periodicity_report(parse_pattern(EX2), p_max=12) == report

"""Classification surveys over orbit-pattern classes, with tabular output.

This module groups all patterns of a given star size into equivalence
classes, analyzes one representative per class, and summarizes the result
as machine-readable records.  Three nested notions of "same pattern" are
tracked:

* raw        -- patterns counted individually;
* branch     -- patterns identified when a relabeling of the branches
                carries one to the other;
* digraph    -- patterns identified when their covering digraphs are
                isomorphic (coarser than branch relabeling).

Each table format has one writer, ``_table_chunks``, behind
:func:`emit_table` and the CLI's survey text.  It also hosts
:func:`verify_paper`, a self-contained battery of checks that recomputes
every externally quoted reference fact (worked examples, order facts,
class counts) and reports pass/fail with diffs.
"""

from __future__ import annotations

import io
import json
import math
import os
from collections import deque
from collections.abc import Iterator
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .certify import (
    SURVEY_FILTERS,
    CoverDigraph,
    _survey_rows,
    closed_walk_lengths,
    find_cascade,
    periodicity_report,
    self_loop_only_lengths,
)
from .orders import forced_periods, sharkovskii_le
from .patterns import StarPattern, _Record, enumerate_patterns, parse_pattern

__all__ = [
    "ClassRecord",
    "SurveyCounts",
    "SurveyResult",
    "CheckResult",
    "ReferenceReport",
    "REFERENCE_FACTS",
    "SURVEY_FILTERS",
    "classify_all",
    "filter_result",
    "tail_tag",
    "emit_table",
    "verify_paper",
    "survey_to_json",
]

TABLE_COLUMNS = (
    "pattern",
    "branch_class",
    "digraph_class",
    "center_theorem",
    "nplus2",
    "periods_present",
    "tail",
    "chaos_iterate",
)


# ---------------------------------------------------------------------------
# per-class records
# ---------------------------------------------------------------------------


class ClassRecord(_Record):
    """Summary of one branch-relabeling class of patterns.

    ``pattern`` is the canonical (lexicographically least) representative.
    ``branch_class`` is its index in the deterministic enumeration order,
    ``digraph_class`` an id shared by all classes whose covering digraphs
    are isomorphic, and ``class_size`` the number of raw patterns the
    class contains.  The remaining fields summarize the analysis of the
    representative: applicability of the two covering theorems, the set
    of periods found up to the horizon, a tag describing the shape of
    that set, and the smallest iterate at which a chaos certificate was
    found (or ``None``).
    """

    pattern: StarPattern
    branch_class: int
    digraph_class: int
    class_size: int
    center_theorem: bool
    nplus2: bool
    periods_present: tuple[int, ...]
    tail: str
    chaos_iterate: int | None

    @property
    def pattern_text(self) -> str:
        return self.pattern.to_text()


class SurveyCounts(_Record):
    """Class counts at the three equivalence levels."""

    raw: int
    branch_classes: int
    digraph_classes: int


class SurveyResult(_Record):
    """Outcome of :func:`classify_all`: one record per branch class."""

    n: int
    k: int
    p_max: int
    max_iterate: int
    records: tuple[ClassRecord, ...]
    counts: SurveyCounts


def tail_tag(present: frozenset[int] | set[int], p_max: int) -> str:
    """Classify the shape of a period set within the horizon ``[1, p_max]``.

    ``evens-plus-one``  -- exactly the fixed point plus all even periods;
    ``cofinite-from-m`` -- every period from ``m`` up to the horizon is
                           present, with ``m`` minimal;
    ``other``           -- anything else.

    The even-plus-one shape is checked first: at any finite horizon it
    also ends with the top period, so the cofinite tag alone would not
    distinguish it.
    """
    if present == {1, *range(2, p_max + 1, 2)}:
        return "evens-plus-one"
    for m in range(1, p_max + 1):
        if all(q in present for q in range(m, p_max + 1)):
            return f"cofinite-from-{m}"
    return "other"


def _class_size(p: StarPattern) -> int:
    """Number of raw patterns in the branch-relabeling class of ``p``: n!
    over the e! relabelings that only permute the e empty branches, the
    stabilizer of ``p``."""
    empty = p.n - len({b for b, _ in p.placements})
    return math.factorial(p.n) // math.factorial(empty)


def _degree_codes(adjacency: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The sorted (out-degree, in-degree, self-loop) codes of a digraph's
    vertices, each packed into one small int, (out * (size + 1) + in) * 2
    + loop: an isomorphism invariant."""
    step = 2 * (len(adjacency) + 1)
    codes = [len(row) * step + (u in row) for u, row in enumerate(adjacency)]
    for row in adjacency:
        for j in row:
            codes[j] += 2
    return tuple(sorted(codes))


def _canonical_form(adjacency: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Canonical form of a digraph given by out-neighbour lists: equal for
    two digraphs exactly when they are isomorphic.

    Vertices are coloured by (out-degree, in-degree, self-loop), then the
    colouring is refined until stable by the sorted colour multisets of
    out- and in-neighbours; each colour is the rank of its signature, so
    colours never depend on the vertex numbering.  While some cell has two
    or more vertices, each vertex of the first smallest such cell is
    individualized in turn and the search recurses (McKay and Piperno,
    "Practical graph isomorphism, II", 2014).  The form is the least
    adjacency, relabelled by the leaf colouring, over all leaves.

    Why it is canonical: every step is a function of the colours alone, so
    an isomorphism g -> h carries the search tree of g onto that of h and
    each leaf of g to a leaf of h with the same relabelled adjacency.  The
    two sets of leaf forms are therefore equal, and so are their minima.
    Conversely each leaf form is the digraph itself under a relabelling,
    so equal forms mean isomorphic digraphs.  Automorphism pruning would
    only skip leaves whose forms repeat, so it is not needed for exactness.
    """
    size = len(adjacency)
    preds: list[list[int]] = [[] for _ in range(size)]
    for i, row in enumerate(adjacency):
        for j in row:
            preds[j].append(i)

    def refine(keys: list) -> list[int]:
        count = 0
        while True:
            index = {key: rank for rank, key in enumerate(sorted(set(keys)))}
            colours = [index[key] for key in keys]
            if len(index) in (count, size):  # no cell split, or all are single
                return colours
            count = len(index)
            keys = [
                (
                    colours[u],
                    tuple(sorted(colours[w] for w in adjacency[u])),
                    tuple(sorted(colours[w] for w in preds[u])),
                )
                for u in range(size)
            ]

    best = None

    def search(colours: list[int]) -> None:
        nonlocal best
        cells: dict[int, list[int]] = {}
        for u, c in enumerate(colours):
            cells.setdefault(c, []).append(u)
        if len(cells) == size:
            form = tuple(
                tuple(sorted(colours[j] for j in adjacency[cells[c][0]])) for c in range(size)
            )
            if best is None or form < best:
                best = form
            return
        target = min((c for c in cells if len(cells[c]) > 1), key=lambda c: (len(cells[c]), c))
        for v in cells[target]:
            search(refine([(c, u != v) for u, c in enumerate(colours)]))

    search(refine([(len(row), len(preds[u]), u in row) for u, row in enumerate(adjacency)]))
    return best


# classes per call of the chunk function, serial or in a worker, and tasks
# in flight per worker: rows are classed in order, so a slow chunk holds the
# window up.  survey --n 3 --k 9 (2 CPUs, two runs each) took 13.0-15.3 s
# with --jobs 1 and 8.7-12.1 s with --jobs 2 at 119-123 MB peak RSS for
# any chunk of 32 to 256 classes, no size ahead beyond the noise; 128 is
# from the middle
_CHUNK = 128
_IN_FLIGHT = 8


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def classify_all(
    n: int,
    k: int,
    p_max: int = 10,
    *,
    max_iterate: int = 2,
    all_branches: bool = True,
    jobs: int = 1,
) -> SurveyResult:
    """Classify every pattern with ``k`` orbit points on an ``n``-star.

    Returns one :class:`ClassRecord` per branch-relabeling class, in the
    deterministic enumeration order of the canonical representatives,
    together with class counts at the raw, branch-relabeling, and
    digraph-isomorphism levels.  By default only patterns whose orbit
    meets every branch are surveyed.

    The classes are analyzed in chunks of ``_CHUNK``, one call of
    ``certify._survey_rows`` per chunk, serially or, with ``jobs > 1``,
    in parallel, one chunk per task, with no more worker processes than
    the CPUs this process may use or the chunks, and serially when that
    bound is 1; the chunks and so the output are the same either way.
    At most ``_IN_FLIGHT`` chunks per worker are submitted and not yet
    consumed (``_pooled_rows``), so the rows of chunks the workers finish
    early wait in a window of bounded size.

    The chunk function validates each pattern and derives its tables
    once, counts the closed walks of the whole chunk's covering digraphs
    in one packed pass (``plmap._walk_traces``), and turns each class into
    a compact row: the periods, decided by those counts except at
    multiples of k, the chaos iterate, the theorem flags, the digraph
    adjacency and its closed-walk counts.  The forced baseline depends
    only on (k, p_max), so it is computed once here for every row.

    Rows are classed as they arrive (inside the pool's ``with``), one
    chunk's rows at a time, so no row outlives its chunk: only the
    records and, per key, what the classing below still needs are kept.
    Classes with equal period sets share one ``periods_present`` tuple
    and one ``tail``.

    Digraph classes are numbered by first appearance.  Each class is first
    keyed by a cheap isomorphism invariant of its digraph: the sorted
    vertex codes of ``_degree_codes`` and the closed-walk counts, of which
    only the hash is kept.  A class whose hash is new gets the next digraph
    id with no canonical form.  Only when a hash repeats, by a repeated key
    or a collision, are canonical forms (``_canonical_form``) computed,
    once per digraph: for the earlier class that holds the hash, then for
    each later one, and the form decides the id.  This is exact:
    isomorphic digraphs have equal keys and so equal hashes, so a new hash
    proves a new class, and within one hash the canonical form decides
    isomorphism as before.  A hash maps to the adjacency and digraph id of
    its first class until it repeats, and then to None, as every class
    under it has its form in ``forms``.  The adjacencies kept share their
    rows, one copy of each distinct row, also when the rows come from
    worker processes.
    """
    reps = enumerate_patterns(n, k, all_branches=all_branches)
    forced = frozenset(forced_periods(1, k, p_max))
    args = (p_max, max_iterate, forced)
    chunks = (reps[i : i + _CHUNK] for i in range(0, len(reps), _CHUNK))
    workers = min(jobs, _usable_cpus(), -(-len(reps) // _CHUNK))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = _classed(reps, _pooled_rows(pool, workers, chunks, *args), p_max)
    else:
        rows = chain.from_iterable(map(_survey_rows, chunks, *map(repeat, args)))
        records = _classed(reps, rows, p_max)
    return SurveyResult(n, k, p_max, max_iterate, tuple(records), _counts(records))


def _pooled_rows(pool, workers: int, chunks, *args):
    """The rows of ``chunks`` in order, each chunk submitted to ``pool`` as
    one task of ``certify._survey_rows``, with at most
    ``_IN_FLIGHT * workers`` submitted and not yet consumed; chunks still
    pending when the stream stops (a worker raised) are cancelled, as
    ``Executor.map`` does."""
    pending: deque = deque()
    try:
        for chunk in chunks:
            if len(pending) == _IN_FLIGHT * workers:
                yield from pending.popleft().result()
            pending.append(pool.submit(_survey_rows, chunk, *args))
        while pending:
            yield from pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _classed(reps: list[StarPattern], rows, p_max: int) -> list[ClassRecord]:
    """The records of the classes ``reps``, classed as their rows (of
    ``certify._survey_rows``) arrive, as ``classify_all`` describes."""
    records: list[ClassRecord] = []
    buckets: dict[int, tuple | None] = {}
    forms: dict[tuple, int] = {}
    rows_kept: dict[tuple[int, ...], tuple[int, ...]] = {}
    shared: dict[tuple[int, ...], tuple[tuple[int, ...], str]] = {}
    classes = 0
    for idx, (p, (present, chaos, center, nplus2, adjacency, traces)) in enumerate(zip(reps, rows)):
        key = hash((_degree_codes(adjacency), traces))
        first = buckets.setdefault(key, (adjacency, classes))
        if first is not None and first[1] == classes:  # a new hash; older ids are lower
            digraph_id = classes
            # one copy of each adjacency row: rows unpickled from a worker share none
            buckets[key] = (tuple(map(rows_kept.setdefault, adjacency, adjacency)), classes)
        else:
            if first is not None:
                forms[_canonical_form(first[0])] = first[1]
                buckets[key] = None
            digraph_id = forms.setdefault(_canonical_form(adjacency), classes)
        if digraph_id == classes:
            classes += 1
        if present not in shared:
            shared[present] = (present, tail_tag(set(present), p_max))
        present, tail = shared[present]
        records.append(
            ClassRecord(p, idx, digraph_id, _class_size(p), center, nplus2, present, tail, chaos)
        )
    return records


def filter_result(result: SurveyResult, name: str) -> SurveyResult:
    """Restrict a survey to the classes selected by a named filter.

    The only filter currently defined selects classes whose pattern does
    not satisfy the center-map covering hypothesis; both spellings in
    :data:`SURVEY_FILTERS` name it.  Counts are recomputed for the
    subset; record ids keep their original values so rows stay traceable
    to the unfiltered survey.
    """
    if name not in SURVEY_FILTERS:
        raise ValueError(f"unknown survey filter: {name!r} (expected one of {SURVEY_FILTERS})")
    kept = tuple(r for r in result.records if not r.center_theorem)
    return result._replace(records=kept, counts=_counts(kept))


def _counts(records: tuple[ClassRecord, ...] | list[ClassRecord]) -> SurveyCounts:
    """The class counts of a set of records: raw patterns, branch classes
    and the distinct digraph classes among them."""
    return SurveyCounts(
        raw=sum(r.class_size for r in records),
        branch_classes=len(records),
        digraph_classes=len({r.digraph_class for r in records}),
    )


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _row_values(r: ClassRecord) -> list:
    return [
        r.pattern_text,
        r.branch_class,
        r.digraph_class,
        r.center_theorem,
        r.nplus2,
        list(r.periods_present),
        r.tail,
        r.chaos_iterate,
    ]


def emit_table(records: list[ClassRecord] | tuple[ClassRecord, ...], format: str = "json") -> str:
    """Render records as a table with a stable column order.

    Columns: pattern, class ids (branch then digraph), theorem flags,
    period set, tail tag, chaos iterate.  ``format`` is ``"json"``
    (columns + typed rows) or ``"csv"`` (header + stringified rows, with
    the period set space-separated and an empty cell for a missing chaos
    iterate).  Output is deterministic byte-for-byte.
    """
    return "".join(_table_chunks(records, format, {"columns": list(TABLE_COLUMNS), "rows": []}))


def _survey_chunks(result: SurveyResult, format: str) -> Iterator[str]:
    """A survey's CSV table, or ``survey_to_json(result)`` as ``json.dumps(...,
    indent=2, sort_keys=True)`` writes it, in chunks of rows."""
    return _table_chunks(result.records, format, survey_to_json(result._replace(records=())))


# rows per chunk of table text
_ROWS_PER_CHUNK = 1024


def _table_chunks(records, format: str, head: dict) -> Iterator[str]:
    """A table's text in chunks of rows.  JSON is ``head``, whose empty
    "rows" sorts last among its keys, with ``_record_json`` rows inside."""
    if format not in ("json", "csv"):
        raise ValueError(f"unknown table format: {format!r} (expected 'json' or 'csv')")
    parts = (records[i : i + _ROWS_PER_CHUNK] for i in range(0, len(records), _ROWS_PER_CHUNK))
    if format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for part in chain([()], parts):
            for row in map(_row_values, part):
                flags = ["true" if flag else "false" for flag in row[3:5]]
                periods = " ".join(map(str, row[5]))
                writer.writerow([*row[:3], *flags, periods, row[6], "" if row[7] is None else row[7]])
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()
        return
    text = json.dumps(head, indent=2, sort_keys=True) + "\n"
    yield text[: -len("]\n}\n")] if records else text
    for i, part in enumerate(parts):
        yield (",\n" if i else "\n") + ",\n".join(map(_record_json, part))
    if records:
        yield "\n  ]\n}\n"


def _record_json(r: ClassRecord) -> str:
    """One row in ``TABLE_COLUMNS`` order, as ``json.dumps(...,
    indent=2)`` writes it inside the payload's "rows"."""
    periods = ",\n        ".join(map(str, r.periods_present))
    periods = f"[\n        {periods}\n      ]" if periods else "[]"
    return (
        "    [\n"
        f"      {encode_basestring_ascii(r.pattern_text)},\n"
        f"      {r.branch_class},\n"
        f"      {r.digraph_class},\n"
        f"      {'true' if r.center_theorem else 'false'},\n"
        f"      {'true' if r.nplus2 else 'false'},\n"
        f"      {periods},\n"
        f"      {encode_basestring_ascii(r.tail)},\n"
        f"      {'null' if r.chaos_iterate is None else r.chaos_iterate}\n"
        "    ]"
    )


def survey_to_json(result: SurveyResult) -> dict:
    """JSON-ready summary of a survey (counts plus table rows)."""
    return {
        "n": result.n,
        "k": result.k,
        "p_max": result.p_max,
        "max_iterate": result.max_iterate,
        "counts": {
            "raw": result.counts.raw,
            "branch_classes": result.counts.branch_classes,
            "digraph_classes": result.counts.digraph_classes,
        },
        "columns": list(TABLE_COLUMNS),
        "rows": [_row_values(r) for r in result.records],
    }


# ---------------------------------------------------------------------------
# reference-fact verification
# ---------------------------------------------------------------------------


class CheckResult(_Record):
    name: str
    passed: bool
    detail: str


class ReferenceReport(_Record):
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }

    def to_text(self) -> str:
        """A ``PASS name: detail`` or ``FAIL name: detail`` line per check,
        then the count passed and the verdict."""
        lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}\n" for c in self.checks]
        verdict = "all checks passed" if self.all_passed else "some checks FAILED"
        return "".join(lines) + f"{sum(c.passed for c in self.checks)}/{len(self.checks)} {verdict}\n"


# Golden data for every externally quoted fact this library reproduces.
# Kept in one mutable mapping so tests can corrupt an entry and confirm
# that verification really fails with a diff.
REFERENCE_FACTS: dict[str, object] = {
    "example1": "n=3 k=5; b1: 1 3; b2: 2; b3: 4",
    "example1_vertices": ("[0,1]", "[1,3]", "[0,2]", "[0,4]"),
    "example1_edges": frozenset(
        {
            ("[0,1]", "[0,1]"),
            ("[0,1]", "[0,2]"),
            ("[0,2]", "[1,3]"),
            ("[1,3]", "[0,2]"),
            ("[1,3]", "[0,4]"),
            ("[0,4]", "[0,1]"),
        }
    ),
    "example1_absent": (3,),
    "example1_cascade_start": 4,
    "example2": "n=3 k=6; b1: 1 3 5; b2: 2; b3: 4",
    "example2_vertices": ("[0,1]", "[1,3]", "[3,5]", "[0,2]", "[0,4]"),
    "example2_edges": frozenset(
        {
            ("[0,1]", "[0,1]"),
            ("[0,1]", "[0,2]"),
            ("[0,2]", "[1,3]"),
            ("[1,3]", "[0,2]"),
            ("[1,3]", "[0,4]"),
            ("[0,4]", "[1,3]"),
            ("[0,4]", "[3,5]"),
            ("[3,5]", "[0,4]"),
        }
    ),
    "example2_present": (1, 2, 4, 6, 8, 10),
    "example2_chaos": (2, 0, 2),
    "example2_quoted_modulus": 5,
    "sharkovskii_below_four": (1, 2, 4),
    "class_count": 24,
}


def _diff_edges(found: set, expected: frozenset) -> str:
    missing = sorted(expected - found)
    extra = sorted(found - expected)
    parts = []
    if missing:
        parts.append(f"missing edges: {missing}")
    if extra:
        parts.append(f"unexpected edges: {extra}")
    return "; ".join(parts) if parts else "edge sets match"


def _check_digraph(name: str, pattern_key: str, g: CoverDigraph) -> CheckResult:
    vertices = tuple(b.label for b in g.vertices)
    expected_vertices = tuple(REFERENCE_FACTS[f"{pattern_key}_vertices"])
    found = set(g.edge_labels())
    expected = REFERENCE_FACTS[f"{pattern_key}_edges"]
    ok = vertices == expected_vertices and found == expected
    if ok:
        detail = f"{len(vertices)} vertices and {len(found)} edges match the quoted digraph"
    else:
        parts = []
        if vertices != expected_vertices:
            parts.append(f"vertices {list(vertices)} != expected {list(expected_vertices)}")
        parts.append(_diff_edges(found, expected))
        detail = "; ".join(parts)
    return CheckResult(name=name, passed=ok, detail=detail)


def _cycle_length(step) -> int:
    """Length of the cycle of the permutation ``step`` through index 0."""
    i, length = step(0), 1
    while i != 0:
        i, length = step(i), length + 1
    return length


def verify_paper(p_max: int = 10, max_iterate: int = 2) -> ReferenceReport:
    """Recompute every quoted reference fact and report pass/fail.

    Each check recomputes a published claim from scratch (worked-example
    digraphs, period sets, chaos certificates, order facts, class
    counts) and compares against the goldens in :data:`REFERENCE_FACTS`.
    Failures carry a diff in ``detail``.  The report is deterministic:
    two runs produce byte-identical JSON.
    """
    checks: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name, passed, detail))

    p1 = parse_pattern(str(REFERENCE_FACTS["example1"]))
    rep1 = periodicity_report(p1, p_max=p_max, max_iterate=max_iterate)
    checks.append(_check_digraph("example1-digraph", "example1", rep1.digraph))
    absent_expected = {q for q in REFERENCE_FACTS["example1_absent"] if q <= p_max}
    present_expected = set(range(1, p_max + 1)) - absent_expected
    ok = set(rep1.present) == present_expected and set(rep1.absent) == absent_expected
    check(
        "example1-periodicity",
        ok,
        f"periods present {sorted(rep1.present)}, absent {sorted(rep1.absent)}; "
        f"expected absent {sorted(absent_expected)}",
    )

    cascade = find_cascade(rep1.digraph)
    start = REFERENCE_FACTS["example1_cascade_start"]
    ok = cascade is not None and cascade.m == start
    check(
        "example1-cascade",
        ok,
        f"shortest return cycle at a self-loop vertex has length "
        f"{cascade.m if cascade else None}; expected {start}",
    )

    p2 = parse_pattern(str(REFERENCE_FACTS["example2"]))
    rep2 = periodicity_report(p2, p_max=p_max, max_iterate=max_iterate)
    checks.append(_check_digraph("example2-digraph", "example2", rep2.digraph))
    horizon = 9
    walks = closed_walk_lengths(rep2.digraph, horizon)
    loops_only = self_loop_only_lengths(rep2.digraph, horizon)
    odd_walks = {q for q in walks if q % 2 == 1}
    ok = odd_walks <= loops_only
    check(
        "example2-odd-closed-walks",
        ok,
        f"odd closed-walk lengths up to {horizon}: {sorted(odd_walks)}; "
        f"lengths realized only by repeating one self-loop: {sorted(loops_only)}",
    )

    expected2 = {q for q in REFERENCE_FACTS["example2_present"] if q <= p_max}
    ok = set(rep2.present) == expected2
    check(
        "example2-periodicity",
        ok,
        f"periods present {sorted(rep2.present)}; expected {sorted(expected2)}",
    )

    cert2 = rep2.chaos
    t_exp, u_exp, v_exp = REFERENCE_FACTS["example2_chaos"]
    ok = cert2 is not None and (cert2.iterate, cert2.u, cert2.v) == (t_exp, u_exp, v_exp)
    check(
        "example2-chaos",
        ok,
        f"chaos certificate "
        f"{(cert2.iterate, cert2.u, cert2.v) if cert2 else None}; "
        f"expected iterate {t_exp} with orbit indices ({u_exp}, {v_exp})",
    )

    quoted_modulus = int(REFERENCE_FACTS["example2_quoted_modulus"])
    ok = (
        _cycle_length(lambda i: (i + 1) % quoted_modulus) != p2.k
        and _cycle_length(p2.successor) == p2.k
    )
    check(
        "example2-successor-modulus",
        ok,
        "the quoted successor rule for the six-point example reduces indices "
        "mod 5, which cannot close a six-point cycle; this library reduces "
        "mod the orbit size (6) and flags the difference here instead of "
        "silently correcting it",
    )

    below4 = tuple(m for m in range(1, 101) if sharkovskii_le(m, 4))
    expected_below4 = tuple(REFERENCE_FACTS["sharkovskii_below_four"])
    check(
        "interval-order-below-four",
        below4 == expected_below4,
        f"periods forced by 4 on the interval: {list(below4)}; expected {list(expected_below4)}",
    )

    sweep_details = []
    sweep_ok = True
    for n in range(2, 6):
        result = classify_all(n, n + 1, p_max, max_iterate=max_iterate)
        for r in result.records:
            full = set(r.periods_present) == set(range(1, p_max + 1))
            good = r.center_theorem and full and r.chaos_iterate is not None
            sweep_ok = sweep_ok and good
            if not good:
                sweep_details.append(f"{r.pattern_text}: theorem={r.center_theorem} periods={list(r.periods_present)} chaos={r.chaos_iterate}")
        sweep_ok = sweep_ok and len(result.records) == 1
    check(
        "one-point-per-branch-sweep",
        sweep_ok,
        (
            "every class with one orbit point per branch (2 <= n <= 5) satisfies the "
            "center-map theorem, realizes all periods up to the horizon, and is "
            "certified chaotic"
            if sweep_ok
            else "; ".join(sweep_details)
        ),
    )

    np2_details = []
    np2_ok = True
    saw_three_absent = False
    for n in (3, 4):
        result = classify_all(n, n + 2, p_max, max_iterate=max_iterate)
        for r in result.records:
            need = set(range(1, p_max + 1)) - {3}
            good = need <= set(r.periods_present) and r.chaos_iterate is not None
            if 3 not in r.periods_present:
                saw_three_absent = True
            np2_ok = np2_ok and good
            if not good:
                np2_details.append(f"{r.pattern_text}: periods={list(r.periods_present)} chaos={r.chaos_iterate}")
    np2_ok = np2_ok and saw_three_absent
    check(
        "orbit-size-n-plus-2-sweep",
        np2_ok,
        (
            "every all-branch class with n+2 orbit points (n in {3, 4}) realizes all "
            "periods up to the horizon except possibly 3 and is certified chaotic; "
            f"classes missing period 3 exist: {saw_three_absent}"
            if np2_ok
            else "; ".join(np2_details)
        ),
    )

    full36 = classify_all(3, 6, p_max, max_iterate=max_iterate)
    sub = filter_result(full36, SURVEY_FILTERS[0])
    quoted = int(REFERENCE_FACTS["class_count"])
    level_counts = {
        "raw": sub.counts.raw,
        "branch": sub.counts.branch_classes,
        "digraph": sub.counts.digraph_classes,
    }
    matching = [name for name, c in level_counts.items() if c == quoted]
    dyn_ok = all(
        (r.tail == "evens-plus-one" or r.tail.startswith("cofinite-from-"))
        and r.chaos_iterate is not None
        and r.chaos_iterate <= max_iterate
        for r in sub.records
    )
    if matching:
        count_note = f"the quoted count {quoted} matches the {matching[0]}-level convention"
    else:
        count_note = (
            f"the quoted count {quoted} matches none of the computed counts "
            f"(raw {level_counts['raw']}, branch {level_counts['branch']}, "
            f"digraph {level_counts['digraph']}); recorded as a convention discrepancy"
        )
    check(
        "class-count-reconciliation",
        dyn_ok,
        f"classes without the center-map theorem at n=3, k=6: "
        f"raw {level_counts['raw']}, branch {level_counts['branch']}, "
        f"digraph {level_counts['digraph']}; {count_note}; every class has an "
        f"evens-plus-one or cofinite period tail and a chaos certificate at "
        f"iterate <= {max_iterate}: {dyn_ok}",
    )

    return ReferenceReport(checks=tuple(checks))

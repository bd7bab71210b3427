"""Per-module tracing of one ``stardyn`` CLI call, from outside the package.

The tracer replaces each traced public function with a wrapper at every
module-level name that is bound to it inside ``stardyn``: ``oracle_scan``
is imported into ``plmap``, ``certify`` and ``cli``, and ``first_witness``
reaches it through the globals of ``plmap``, so all of those names must be
rebound.  Spans live in memory and are written out once the call ends.  A
span's self time is its duration minus the time covered by its child spans.

Three wrapper kinds keep the cost in proportion to how hot a function is:

* ``span``   -- timed, kept in the span list (coarse calls);
* ``timed``  -- timed and on the span stack, but only aggregated (hot
                calls such as ``arc``);
* ``count``  -- call count only, no clock reads (``PLMap.evaluate``).
"""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter

# (module, attribute path, span name, wrapper kind)
TARGETS = (
    ("stardyn.cli", "run", "cli.run", "span"),
    ("stardyn.survey", "classify_all", "survey.classify_all", "span"),
    ("stardyn.patterns", "enumerate_patterns", "patterns.enumerate", "span"),
    ("stardyn.patterns", "arc", "patterns.arc", "timed"),
    ("stardyn.plmap", "realize", "plmap.realize", "span"),
    ("stardyn.plmap", "oracle_scan", "plmap.oracle_scan", "span"),
    ("stardyn.plmap", "first_witness", "plmap.first_witness", "span"),
    ("stardyn.plmap", "image_of_arc", "plmap.image_of_arc", "timed"),
    ("stardyn.plmap", "PLMap.evaluate", "plmap.evaluate", "count"),
    ("stardyn.certify", "periodicity_report", "certify.periodicity_report", "span"),
    ("stardyn.certify", "cover_digraph", "certify.cover_digraph", "span"),
    ("stardyn.certify", "check_center_theorem", "certify.theorem_check", "span"),
    ("stardyn.certify", "check_nplus2_theorem", "certify.theorem_check", "span"),
    ("stardyn.certify", "find_cascade", "certify.find_cascade", "span"),
    ("stardyn.certify", "find_genscramble", "certify.find_genscramble", "span"),
    ("stardyn.certify", "verify_genscramble", "certify.verify_genscramble", "span"),
    ("stardyn.certify", "closed_walk_lengths", "certify.walk_lengths", "span"),
    ("stardyn.certify", "self_loop_only_lengths", "certify.walk_lengths", "span"),
)

# Per-layer metrics as (name, unit).  Counts must repeat exactly between
# two traced calls of the same workload and seed.
LAYER_METRICS = (
    ("plmap.oracle_calls", "count"),
    ("plmap.oracle_s", "s"),
    ("plmap.cylinders", "count"),
    ("plmap.witnesses", "count"),
    ("plmap.evaluate_calls", "count"),
    ("plmap.realize_calls", "count"),
    ("plmap.realize_s", "s"),
    ("plmap.image_calls", "count"),
    ("plmap.image_s", "s"),
    ("patterns.arc_calls", "count"),
    ("patterns.arc_s", "s"),
    ("patterns.enumerate_s", "s"),
    ("patterns.raw_visited", "count"),
    ("patterns.classes", "count"),
    ("certify.report_calls", "count"),
    ("certify.report_self_s", "s"),
    ("certify.cover_digraph_calls", "count"),
    ("certify.cover_digraph_s", "s"),
    ("certify.theorem_checks", "count"),
    ("certify.walk_lengths_s", "s"),
    ("certify.genscramble_calls", "count"),
    ("certify.genscramble_s", "s"),
    ("certify.verify_calls", "count"),
    ("certify.chaos_found_ratio", "ratio"),
    ("survey.classify_self_s", "s"),
    ("survey.matcher_calls", "count"),
    ("survey.matcher_s", "s"),
    ("survey.digraph_classes", "count"),
    ("survey.class_s_p50", "s"),
    ("survey.class_s_p99", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory spans, per-name aggregates and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self, note)
        self.stack: list[list] = []  # open frames: [id, name, child time]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._next_id = 1

    def add(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, fn, kind: str, on_result=None, note=None):
        """A wrapper for ``fn`` that records ``name`` as ``kind``.

        ``on_result(result)`` sees each return value; ``note(*args)``
        gives a short label kept with each recorded span.
        """
        calls = self.calls
        calls.setdefault(name, 0)

        if kind == "count":

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        stack, spans = self.stack, self.spans
        total, self_time = self.total, self.self_time
        total.setdefault(name, 0.0)
        self_time.setdefault(name, 0.0)
        keep = kind == "span"

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                calls[name] += 1
                total[name] += duration
                self_time[name] += own
                if keep:
                    label = note(*args) if note is not None else None
                    spans.append(
                        (span_id, parent[0] if parent else 0, name, start, end, own, label)
                    )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every ``stardyn`` name bound to it."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "stardyn" or name.startswith("stardyn."))
        }
        hooks = {
            "plmap.oracle_scan": self._scan_result,
            "certify.find_genscramble": self._chaos_result,
            "survey.classify_all": self._survey_result,
            "patterns.enumerate": lambda reps: self.add("patterns.classes", len(reps)),
        }
        notes = {"certify.periodicity_report": lambda p, *a, **k: p.to_text()}
        for module_name, path, name, kind in TARGETS:
            owner = modules.get(module_name)
            head, _, attr = path.rpartition(".")
            if owner is not None and head:
                owner = getattr(owner, head, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(name, original, kind, hooks.get(name), notes.get(name))
            if head:  # a method: rebinding the class attribute reaches every caller
                setattr(owner, attr, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self._install_raw_counter(modules.get("stardyn.patterns"))
        self._install_matcher(modules.get("stardyn.survey"))

    def _install_raw_counter(self, patterns) -> None:
        original = getattr(patterns, "iter_patterns", None)
        if original is None:
            self.missing.append("stardyn.patterns.iter_patterns")
            return

        def counting_iter(*args, **kwargs):
            for p in original(*args, **kwargs):
                self.add("patterns.raw_visited")
                yield p

        patterns.iter_patterns = counting_iter

    def _install_matcher(self, survey) -> None:
        original = getattr(survey, "DiGraphMatcher", None)
        if original is None:
            self.missing.append("stardyn.survey.DiGraphMatcher")
            return
        traced = type("TracedDiGraphMatcher", (original,), {})
        traced.is_isomorphic = self.wrap("survey.matcher", original.is_isomorphic, "span")
        survey.DiGraphMatcher = traced

    def _scan_result(self, res) -> None:
        self.add("plmap.cylinders", res.cylinders)
        self.add("plmap.witnesses", len(res.witnesses))

    def _chaos_result(self, cert) -> None:
        self.add("certify.chaos_found", cert is not None)

    def _survey_result(self, result) -> None:
        self.add("survey.digraph_classes", result.counts.digraph_classes)

    def class_times(self) -> list[tuple[float, str]]:
        """(seconds, pattern) of each report made directly by a survey."""
        survey_ids = {s[0] for s in self.spans if s[2] == "survey.classify_all"}
        return [
            (s[4] - s[3], s[6])
            for s in self.spans
            if s[2] == "certify.periodicity_report" and s[1] in survey_ids
        ]

    def layer_metrics(self, output_bytes: int) -> dict[str, float]:
        """Per-layer values of this call, except the two ``trace.*`` ones,
        which compare calls and are filled in by the caller."""
        calls, total, own, cnt = self.calls, self.total, self.self_time, self.counters
        classes = sorted(t for t, _ in self.class_times())
        searches = calls.get("certify.find_genscramble", 0)
        return {
            "plmap.oracle_calls": calls.get("plmap.oracle_scan", 0),
            "plmap.oracle_s": total.get("plmap.oracle_scan", 0.0),
            "plmap.cylinders": cnt.get("plmap.cylinders", 0),
            "plmap.witnesses": cnt.get("plmap.witnesses", 0),
            "plmap.evaluate_calls": calls.get("plmap.evaluate", 0),
            "plmap.realize_calls": calls.get("plmap.realize", 0),
            "plmap.realize_s": total.get("plmap.realize", 0.0),
            "plmap.image_calls": calls.get("plmap.image_of_arc", 0),
            "plmap.image_s": total.get("plmap.image_of_arc", 0.0),
            "patterns.arc_calls": calls.get("patterns.arc", 0),
            "patterns.arc_s": total.get("patterns.arc", 0.0),
            "patterns.enumerate_s": total.get("patterns.enumerate", 0.0),
            "patterns.raw_visited": cnt.get("patterns.raw_visited", 0),
            "patterns.classes": cnt.get("patterns.classes", 0),
            "certify.report_calls": calls.get("certify.periodicity_report", 0),
            "certify.report_self_s": own.get("certify.periodicity_report", 0.0),
            "certify.cover_digraph_calls": calls.get("certify.cover_digraph", 0),
            "certify.cover_digraph_s": total.get("certify.cover_digraph", 0.0),
            "certify.theorem_checks": calls.get("certify.theorem_check", 0),
            "certify.walk_lengths_s": total.get("certify.walk_lengths", 0.0),
            "certify.genscramble_calls": searches,
            "certify.genscramble_s": total.get("certify.find_genscramble", 0.0),
            "certify.verify_calls": calls.get("certify.verify_genscramble", 0),
            "certify.chaos_found_ratio": (
                cnt.get("certify.chaos_found", 0) / searches if searches else 0.0
            ),
            "survey.classify_self_s": own.get("survey.classify_all", 0.0),
            "survey.matcher_calls": calls.get("survey.matcher", 0),
            "survey.matcher_s": total.get("survey.matcher", 0.0),
            "survey.digraph_classes": cnt.get("survey.digraph_classes", 0),
            "survey.class_s_p50": _nearest_rank(classes, 0.50),
            "survey.class_s_p99": _nearest_rank(classes, 0.99),
            "cli.self_s": own.get("cli.run", 0.0),
            "cli.output_bytes": output_bytes,
        }

    def slowest_class(self) -> dict | None:
        classes = self.class_times()
        if not classes:
            return None
        seconds, pattern = max(classes)
        return {"seconds": seconds, "pattern": pattern}

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, then one summary line that names
        the slowest survey class."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, own, label in self.spans:
                row = {"id": span_id, "parent": parent, "name": name,
                       "start": start, "end": end, "self": own}
                if label is not None:
                    row["note"] = label
                fh.write(json.dumps(row) + "\n")
            summary = {
                "summary": {
                    name: {"calls": self.calls[name], "total_s": self.total.get(name),
                           "self_s": self.self_time.get(name)}
                    for name in sorted(self.calls)
                },
                "counters": dict(sorted(self.counters.items())),
                "slowest_class": self.slowest_class(),
                "missing_targets": self.missing,
            }
            fh.write(json.dumps(summary) + "\n")


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]

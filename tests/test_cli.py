"""CLI tests: exit codes, output formats, schemas, determinism."""

from __future__ import annotations

import argparse
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import ValidationError, validate

import stardyn.certify as certify_module
import stardyn.cli as cli_module
import stardyn.patterns as patterns_module
import stardyn.plmap as plmap_module
import stardyn.survey as survey_module
from stardyn.cli import run
from stardyn.survey import TABLE_COLUMNS, classify_all, emit_table
import reference_scan as ref
from reference_table import csv_table
from support import EX1, EX2, address_space, child_env, count_calls, drop_one_listed_point

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"
PERFBENCH_EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
# sha256 of the stdout of surveys with periods the walk count leaves to the
# oracle (multiples of k) or to the center orbit, where an iterate of some
# (1, 6) classes is the identity on an interval; recorded from oracle-only surveys
SURVEY_DIGESTS = json.loads(Path(__file__).with_name("survey_digests.json").read_text("utf-8"))


def load_schema(name: str) -> dict:
    with open(SCHEMAS / name, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def ex1_file(tmp_path):
    path = tmp_path / "ex1.pat"
    path.write_text(EX1 + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def ex2_file(tmp_path):
    path = tmp_path / "ex2.pat"
    path.write_text(EX2 + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------


def test_orders_interval_segment_golden(capsys):
    assert run(["orders", "--relation", "shark", "--segment", "4", "--bound", "100"]) == 0
    assert capsys.readouterr().out == "1 2 4\n"


def test_orders_pair_modes(capsys):
    assert run(["orders", "--relation", "shark", "--m", "3", "--k", "5"]) == 0
    assert capsys.readouterr().out == "false\n"
    assert run(["orders", "--relation", "shark", "--m", "7", "--k", "5"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert run(["orders", "--relation", "nod", "--t", "3", "--m", "2", "--k", "3"]) == 0
    assert capsys.readouterr().out == "false\n"
    assert run(["orders", "--relation", "baldwin", "--t", "3", "--m", "6", "--k", "4"]) == 0
    assert capsys.readouterr().out == "true\n"  # 6 = 2*3 lies on the k + j*t ladder
    assert run(["orders", "--relation", "baldwin", "--t", "2", "--m", "3", "--k", "4"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_orders_baldwin_segment(capsys):
    assert run(["orders", "--relation", "baldwin", "--t", "2", "--segment", "6", "--bound", "10"]) == 0
    out = capsys.readouterr().out
    assert out == " ".join(str(m) for m in sorted({1, 2, 4, 6, 8, 10})) + "\n"


def test_orders_usage_errors(capsys):
    # both modes at once
    assert run(["orders", "--relation", "shark", "--m", "3", "--k", "5", "--segment", "4", "--bound", "9"]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    # neither mode
    assert run(["orders", "--relation", "shark"]) == 2
    # baldwin with t < 2
    assert run(["orders", "--relation", "baldwin", "--m", "2", "--k", "4"]) == 2
    # invalid period value propagates as usage error
    assert run(["orders", "--relation", "shark", "--m", "0", "--k", "4"]) == 2


def test_orders_rejects_partial_pair(capsys):
    assert run(["orders", "--relation", "shark", "--m", "3"]) == 2
    assert "usage:" in capsys.readouterr().err


def test_orders_nod_segment(capsys):
    assert run(["orders", "--relation", "nod", "--t", "3", "--segment", "3", "--bound", "12"]) == 0
    assert capsys.readouterr().out == "1 3\n"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_report_schema_and_content(ex1_file, capsys):
    assert run(["analyze", "--pattern", ex1_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload, load_schema("report.schema.json"))
    assert payload["periods"]["3"]["status"] == "absent"
    assert payload["periods"]["5"]["status"] == "present"
    assert payload["chaos"]["status"] == "certified"


def test_analyze_report_without_chaos_fits_the_schema(tmp_path, capsys):
    # the swap has no chaos certificate: its report carries "cert": null,
    # which the schema allows only with the status "not_found"
    swap = tmp_path / "swap.txt"
    swap.write_text("n=1 k=2; b1: 1\n", encoding="utf-8")
    assert run(["analyze", "--pattern", str(swap), "--pmax", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chaos"] == {"cert": None, "status": "not_found"}
    schema = load_schema("report.schema.json")
    validate(payload, schema)
    cert = {"kind": "genscramble", "iterate": 1, "u": 0, "v": 1, "loop": [[0, 1], [0, 1]]}
    for chaos in ({"status": "certified", "cert": None}, {"status": "not_found", "cert": cert}):
        with pytest.raises(ValidationError):
            validate({**payload, "chaos": chaos}, schema)


def test_analyze_pmax_controls_period_keys(ex1_file, capsys):
    assert run(["analyze", "--pattern", ex1_file, "--pmax", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["periods"], key=int) == [str(q) for q in range(1, 7)]


def test_analyze_missing_file_exits_2_without_output(capsys):
    assert run(["analyze", "--pattern", "/nonexistent/nosuch.pat"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "nosuch.pat" in captured.err


def test_analyze_invalid_pattern_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pat"
    bad.write_text("n=3 k=5; b1: 1 6; b2: 2; b3: 3\n", encoding="utf-8")
    assert run(["analyze", "--pattern", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid pattern" in captured.err


# the commands that read a pattern file
PATTERN_COMMANDS = [["analyze"], ["analyze", "--format", "dot"], ["oracle", "--period", "2"]]


@pytest.mark.parametrize("call", PATTERN_COMMANDS, ids=["analyze", "dot", "oracle"])
@pytest.mark.parametrize(
    "text, problems, validated",
    [
        ("n=1 k=1; b1:", "orbit size k=1 must be at least 2", 1),
        ("n=0 k=1", "branch count n=0 must be at least 1; orbit size k=1 must be at least 2", 1),
        ("n=3 k=5; b1: 1 6; b2: 2; b3: 3", "orbit index 6 out of range for k=5", 0),
        ("n=2 k=3; b1: 1; b2: 1", "duplicate orbit indices: [1]", 0),
        ("n=2 k=4 b1", "expected ';' (at position 8)", 0),
        ("n=0 k=3", "missing orbit indices: [1, 2]", 0),
    ],
    ids=["k1", "n0", "range", "duplicate", "syntax", "n0k3"],
)
def test_pattern_failing_validation_exits_2(
    call, text, problems, validated, tmp_path, monkeypatch, capsys
):
    # the parser rejects the file, before any table is built; ``validate``
    # words only a header with n < 1 or k < 2, once
    bad = tmp_path / "bad.pat"
    bad.write_text(text + "\n", encoding="utf-8")
    calls = count_calls(monkeypatch, ("validate", "_descent"))
    assert run(call + ["--pattern", str(bad)]) == 2
    assert calls == {"validate": validated, "_descent": 0}
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        cli_module._build_parser().format_usage()
        + f"stardyn: error: invalid pattern in {str(bad)!r}: {problems}\n"
    )


@pytest.mark.parametrize("call", PATTERN_COMMANDS, ids=["analyze", "dot", "oracle"])
def test_pattern_file_is_validated_once(call, ex2_file, monkeypatch, capsys):
    # the one validating pass is the descent pass; ``validate`` itself runs
    # only for an invalid pattern (counted at every binding)
    calls = count_calls(monkeypatch, ("validate", "_descent"))
    assert run(call + ["--pattern", ex2_file]) == 0
    assert calls == {"validate": 0, "_descent": 1}


def test_analyze_empty_pattern_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.pat"
    empty.write_text("\n", encoding="utf-8")
    assert run(["analyze", "--pattern", str(empty)]) == 2
    assert "exactly one pattern" in capsys.readouterr().err


def test_analyze_dot_and_json_files(ex1_file, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    rep = tmp_path / "r.json"
    assert run(["analyze", "--pattern", ex1_file, "--dot", str(dot), "--json", str(rep)]) == 0
    assert capsys.readouterr().out == ""  # file sinks silence stdout
    dot_text = dot.read_text(encoding="utf-8")
    assert '"[0,1]" -> "[0,2]"' in dot_text
    payload = json.loads(rep.read_text(encoding="utf-8"))
    validate(payload, load_schema("report.schema.json"))


def test_analyze_dot_and_json_realize_once(ex1_file, tmp_path, monkeypatch, capsys):
    # the DOT text comes from the report's digraph, which the report reads
    # off its one table; names counted at every binding
    calls = count_calls(monkeypatch, ("realize", "cover_digraph", "_tables"))
    dot, rep = str(tmp_path / "g.dot"), str(tmp_path / "r.json")
    assert run(["analyze", "--pattern", ex1_file, "--dot", dot, "--json", rep]) == 0
    assert calls == {"realize": 1, "cover_digraph": 0, "_tables": 1}


def test_analyze_dot_alone_builds_no_report(ex2_file, tmp_path, monkeypatch, capsys):
    # the report is built only where its JSON is written, so --dot alone
    # realizes nothing, and a cap that stops the report does not stop it
    assert run(["analyze", "--pattern", ex2_file, "--format", "dot"]) == 0
    expected = capsys.readouterr().out
    calls = count_calls(monkeypatch, ("realize", "periodicity_report"))
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", "20")
    dot = tmp_path / "g.dot"
    assert run(["analyze", "--pattern", ex2_file, "--pmax", "18", "--dot", str(dot)]) == 0
    assert capsys.readouterr().out == "" and dot.read_text(encoding="utf-8") == expected
    assert calls == {"realize": 0, "periodicity_report": 0}
    assert run(["analyze", "--pattern", ex2_file, "--pmax", "18", "--format", "dot"]) == 0
    assert run(["analyze", "--pattern", ex2_file, "--pmax", "18"]) == 3


def test_analyze_dot_format_stdout(ex1_file, capsys):
    assert run(["analyze", "--pattern", ex1_file, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"[1,3]" -> "[0,4]"' in out


def test_analyze_out_is_atomic(ex1_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run(["analyze", "--pattern", ex1_file, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    validate(json.loads(target.read_text(encoding="utf-8")), load_schema("report.schema.json"))
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".stardyn-")]
    assert leftovers == []


def test_analyze_pmax_1_report(ex1_file, capsys):
    assert run(["analyze", "--pattern", ex1_file, "--pmax", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload, load_schema("report.schema.json"))
    assert list(payload["periods"]) == ["1"]


def test_analyze_unwritable_out_exits_2(ex1_file, capsys):
    assert run(["analyze", "--pattern", ex1_file, "--out", "/nonexistent/dir/out.json"]) == 2
    assert "cannot write output" in capsys.readouterr().err


def test_failed_out_write_names_its_target_not_the_temp_file(tmp_path, capsys):
    # the temp file beside the target has a random name, which must not
    # reach the output: two runs give the same message
    target = str(tmp_path / "missing" / "x")
    errs = []
    for _ in range(2):
        assert run(["orders", "--relation", "shark", "--m", "3", "--k", "5", "--out", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errs.append(captured.err)
    assert errs[0] == errs[1] == (
        cli_module._build_parser().format_usage()
        + f"stardyn: error: cannot write output to {target!r}: No such file or directory\n"
    )


def test_failed_stdout_write_is_a_usage_error(monkeypatch, capsys):
    class Full:
        def writelines(self, chunks):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert run(["orders", "--relation", "shark", "--m", "3", "--k", "5"]) == 2
    assert capsys.readouterr().err == (
        cli_module._build_parser().format_usage()
        + "stardyn: error: cannot write output to standard output: No space left on device\n"
    )


def test_analyze_inconsistency_exits_1(ex1_file, monkeypatch, capsys):
    monkeypatch.setattr(certify_module, "_scan", lambda *args: ([], 0, None, True))
    assert run(["analyze", "--pattern", ex1_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "inconsistency" in captured.err


def test_analyze_walk_count_disagreement_exits_1(ex1_file, monkeypatch, capsys):
    monkeypatch.setattr(certify_module, "_walk_traces", lambda adjacency, bound: [0] * bound)
    assert run(["analyze", "--pattern", ex1_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "inconsistency" in captured.err
    assert "closed-walk count" in captured.err


def test_analyze_chaos_replay_failure_exits_1(ex1_file, monkeypatch, capsys):
    monkeypatch.setattr(certify_module, "_verify_genscramble", lambda t, cert: False)
    assert run(["analyze", "--pattern", ex1_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "inconsistency" in captured.err


def test_analyze_cap_exceeded_exits_3(ex2_file, monkeypatch, capsys):
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", "5")
    assert run(["analyze", "--pattern", ex2_file]) == 3
    assert "resource cap" in capsys.readouterr().err


def test_bad_cap_env_is_usage_error(ex1_file, monkeypatch, capsys):
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", "zero")
    assert run(["analyze", "--pattern", ex1_file]) == 2
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", "-3")
    capsys.readouterr()
    assert run(["analyze", "--pattern", ex1_file]) == 2


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_text_lines(capsys):
    assert run(["enumerate", "--n", "2", "--k", "3", "--all-branches"]) == 0
    assert capsys.readouterr().out == "n=2 k=3; b1: 1; b2: 2\n"


def test_enumerate_json_schema(capsys):
    assert run(["enumerate", "--n", "3", "--k", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload, load_schema("enumerate.schema.json"))
    assert payload["all_branches"] is False
    assert len(payload["patterns"]) > 1


def test_enumerate_invalid_size_exits_2(capsys):
    assert run(["enumerate", "--n", "0", "--k", "3"]) == 2
    assert run(["enumerate", "--n", "2", "--k", "1"]) == 2


def test_enumerate_cap_fails_fast_at_a_huge_k():
    # the raw-pattern count is compared with the cap factor by factor, so
    # a shape far past it exits 3 without working out (k-1)!
    cmd = [sys.executable, "-m", "stardyn.cli", "enumerate", "--n", "1", "--k", "1000000"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=5)
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "stardyn: resource cap exceeded: more than 1000000 raw patterns for n=1 k=1000000\n"
    )


def test_survey_cap_fails_fast_at_a_huge_all_branch_shape():
    # n!/(n-n)! is multiplied out only until it passes the cap
    cmd = [sys.executable, "-m", "stardyn.cli", "survey", "--n", "1000000", "--k", "1000001"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=5)
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "stardyn: resource cap exceeded: more than 1000000 raw patterns for n=1000000 k=1000001\n"
    )


def test_duplicate_indices_in_a_long_pattern_line_are_found_in_one_pass(tmp_path):
    # a 229 KB line that lists index 1 twice and 2..39999 once each
    path = tmp_path / "dup.pat"
    path.write_text("n=1 k=40000; b1: 1 " + " ".join(map(str, range(1, 40000))) + "\n", "utf-8")
    cmd = [sys.executable, "-m", "stardyn.cli", "analyze", "--pattern", str(path)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=5)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith(f"invalid pattern in {str(path)!r}: duplicate orbit indices: [1]\n")


def test_a_short_pattern_line_with_a_huge_k_is_rejected_in_little_memory(tmp_path, capsys):
    # the missing indices of "n=1 k=3000000; b1: 1" are counted, and only
    # the first ten named
    path = tmp_path / "short.pat"
    path.write_text("n=1 k=3000000; b1: 1\n", encoding="utf-8")
    tracemalloc.start()
    try:
        assert run(["analyze", "--pattern", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.endswith(
        "missing orbit indices: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] ... (2999998 in all)\n"
    )
    assert len(err.encode()) < 1024
    assert peak < 2**20


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------


def test_survey_json_schema_and_counts(capsys):
    assert run(["survey", "--n", "3", "--k", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload, load_schema("survey.schema.json"))
    assert payload["counts"] == {"raw": 72, "branch_classes": 12, "digraph_classes": 12}


def test_survey_filter_counts(capsys):
    assert run(["survey", "--n", "3", "--k", "6", "--filter", "theorem1-inapplicable"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload, load_schema("survey.schema.json"))
    assert payload["counts"] == {"raw": 180, "branch_classes": 30, "digraph_classes": 30}
    assert len(payload["rows"]) == 30


def test_survey_csv_matches_library(capsys):
    assert run(["survey", "--n", "3", "--k", "4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == csv_table(classify_all(3, 4, 10).records)


@pytest.mark.parametrize(
    "call",
    [
        "--n 3 --k 5",
        "--n 2 --k 6 --pmax 4",
        # two rows without a chaos certificate
        "--n 2 --k 4 --pmax 6 --max-iterate 1",
        "--n 3 --k 6 --filter theorem1-inapplicable",
        # every (3,4) class has the center theorem, so no row is left
        "--n 3 --k 4 --filter theorem1-inapplicable",
        "--n 3 --k 5 --format csv",
    ],
)
def test_survey_output_equals_the_generic_encoders(call, capsys):
    # rows are written from a fixed template; the bytes are those of
    # json.dumps (or of the csv module), and emit_table writes the same
    # rows under the bare table's head
    args = call.split()
    assert run(["survey", *args]) == 0
    out = capsys.readouterr().out
    opts = dict(zip(args[::2], args[1::2]))
    result = classify_all(
        int(opts["--n"]),
        int(opts["--k"]),
        int(opts.get("--pmax", 10)),
        max_iterate=int(opts.get("--max-iterate", 2)),
    )
    if "--filter" in opts:
        result = survey_module.filter_result(result, opts["--filter"])
    payload = survey_module.survey_to_json(result)
    if opts.get("--format") == "csv":
        assert out == csv_table(result.records)
    else:
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    table = {"columns": list(TABLE_COLUMNS), "rows": payload["rows"]}
    assert emit_table(result.records, "json") == json.dumps(table, indent=2, sort_keys=True) + "\n"
    assert emit_table(result.records, "csv") == csv_table(result.records)
    if "--max-iterate" in opts:
        assert sum(r.chaos_iterate is None for r in result.records) == 2
    if opts.get("--filter") and opts["--k"] == "4":
        assert result.records == () and '"rows": []' in out


def test_survey_row_template_on_edge_values():
    # an empty period set and a missing chaos iterate, which no survey
    # at a positive horizon produces together
    result = classify_all(2, 4, 6, max_iterate=1)
    odd = result.records[0]._replace(periods_present=(), chaos_iterate=None)
    result = result._replace(records=(odd, *result.records[1:]))
    expected = json.dumps(survey_module.survey_to_json(result), indent=2, sort_keys=True) + "\n"
    assert "".join(survey_module._survey_chunks(result, "json")) == expected
    table = {"columns": list(TABLE_COLUMNS), "rows": survey_module.survey_to_json(result)["rows"]}
    assert emit_table(result.records, "json") == json.dumps(table, indent=2, sort_keys=True) + "\n"
    assert emit_table(result.records, "csv") == csv_table(result.records)


@pytest.mark.parametrize("format", ["json", "csv"])
@pytest.mark.parametrize(
    "call,rows_per_chunk",
    [
        ("--n 3 --k 5", 13),  # fewer rows (12) than one chunk
        ("--n 3 --k 5", 12),  # exactly one chunk
        ("--n 3 --k 5", 6),  # two full chunks
        ("--n 3 --k 5", 5),  # three chunks, the last one short
        ("--n 3 --k 4 --filter theorem1-inapplicable", 5),  # no row
        ("--n 3 --k 7", None),  # 1,200 rows at the module's own chunk size
    ],
)
def test_survey_chunks_join_to_the_generic_encoders(
    call, rows_per_chunk, format, capsys, monkeypatch, tmp_path
):
    if rows_per_chunk is not None:
        monkeypatch.setattr(survey_module, "_ROWS_PER_CHUNK", rows_per_chunk)
    args = ["survey", *call.split(), "--format", format]
    opts = dict(zip(args[1::2], args[2::2]))
    result = classify_all(int(opts["--n"]), int(opts["--k"]))
    if "--filter" in opts:
        result = survey_module.filter_result(result, opts["--filter"])
    if rows_per_chunk is None:
        assert len(result.records) > survey_module._ROWS_PER_CHUNK
    if format == "json":
        expected = json.dumps(survey_module.survey_to_json(result), indent=2, sort_keys=True) + "\n"
    else:
        expected = csv_table(result.records)
    assert run(args) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "survey.out"
    assert run([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")


def test_survey_bytes_do_not_depend_on_the_hash_seed():
    # digraph classes are keyed by the hash of an int tuple, which no
    # hash seed changes
    cmd = [sys.executable, "-m", "stardyn.cli", "survey", "--n", "2", "--k", "6"]
    outputs = []
    for seed in ("0", "1"):
        env = child_env(PYTHONHASHSEED=seed)
        outputs.append(subprocess.run(cmd, capture_output=True, env=env, check=True).stdout)
    assert outputs[0] == outputs[1] and outputs[0]


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_out_file_gets_the_mode_of_a_plain_write(umask, tmp_path):
    # a new file gets 0o666 less the umask, and an existing one keeps its
    # own mode, as ``open(path, "w")`` would leave them
    old = os.umask(umask)
    try:
        new = tmp_path / "survey.json"
        assert run(["survey", "--n", "2", "--k", "3", "--out", str(new)]) == 0
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        existing = tmp_path / "orders.txt"
        existing.write_text("old\n")
        existing.chmod(0o604)
        call = ["orders", "--relation", "shark", "--m", "1", "--k", "2", "--out", str(existing)]
        assert run(call) == 0
        assert stat.S_IMODE(existing.stat().st_mode) == 0o604
        assert existing.read_text() == "true\n"
    finally:
        os.umask(old)


def test_write_atomic_removes_its_temp_file_when_writing_fails(tmp_path):
    # the target keeps its old text and no temp file is left beside it
    target = tmp_path / "out.txt"
    target.write_text("old\n")

    def chunks():
        yield "partial"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli_module._write_atomic(str(target), chunks())
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "old\n"


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_write_atomic_syncs_the_temp_file_before_the_rename(existing, tmp_path, monkeypatch):
    # the temp file's data reach the disk before it is renamed over the
    # target, so a crash cannot leave the target empty
    target = tmp_path / "out.txt"
    if existing:
        target.write_text("old\n")
    calls = []
    fsync, replace = os.fsync, os.replace

    def synced(fd):
        calls.append(("fsync", os.fstat(fd).st_ino, os.fstat(fd).st_size))
        fsync(fd)

    def renamed(src, dst):
        calls.append(("replace", os.stat(src).st_ino, dst))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", synced)
    monkeypatch.setattr(os, "replace", renamed)
    cli_module._write_atomic(str(target), ["new ", "text\n"])
    assert [c[0] for c in calls] == ["fsync", "replace"]
    (_, synced_inode, size), (_, renamed_inode, dst) = calls
    assert synced_inode == renamed_inode == target.stat().st_ino
    assert (size, dst) == (len("new text\n"), str(target))
    assert target.read_text() == "new text\n"


def test_survey_unknown_filter_is_parse_error(capsys):
    assert run(["survey", "--n", "3", "--k", "6", "--filter", "nosuch"]) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("call", sorted(SURVEY_DIGESTS))
def test_survey_digests_where_counts_do_not_decide(call, jobs, capsys):
    assert run(call.split() + ["--jobs", jobs]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SURVEY_DIGESTS[call]


def test_survey_cap_bounds_only_the_scans(capsys, monkeypatch):
    # (3, 6) at pmax 10 scans no period: its counts decide all but 6 = k
    assert run(["survey", "--n", "3", "--k", "6"]) == 0
    uncapped = capsys.readouterr().out
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", "1")
    assert run(["survey", "--n", "3", "--k", "6"]) == 0
    assert capsys.readouterr().out == uncapped


def test_survey_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert run(["survey", "--n", "3", "--k", "4", "--format", "csv", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8").splitlines()[0].startswith("pattern,")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_witness_lines(ex1_file, capsys):
    assert run(["oracle", "--pattern", ex1_file, "--period", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    payloads = [json.loads(line) for line in lines]
    schema = load_schema("witness.schema.json")
    for payload in payloads:
        validate(payload, schema)
    assert [p["point"] for p in payloads] == [
        {"branch": 1, "coord": "4/3"},
        {"branch": 2, "coord": "1/3"},
    ]
    assert all(p["period"] == 2 and p["on_center_orbit"] is False for p in payloads)


def test_oracle_absent_period_prints_nothing(ex1_file, capsys):
    assert run(["oracle", "--pattern", ex1_file, "--period", "3"]) == 0
    assert capsys.readouterr().out == ""


def test_oracle_uncountable_family_flagged(tmp_path, capsys):
    swap = tmp_path / "swap.pat"
    swap.write_text("n=1 k=2; b1: 1\n", encoding="utf-8")
    assert run(["oracle", "--pattern", str(swap), "--period", "2"]) == 0
    payloads = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    schema = load_schema("witness.schema.json")
    for payload in payloads:
        validate(payload, schema)
    assert any(p.get("uncountable_family") for p in payloads)


@pytest.mark.parametrize(
    "text,period,lines",
    [
        (EX2, 6, 30),
        (EX2, 16, 4320),
        (EX2, 20, 30000),
        (EX1, 2, 2),
        ("n=1 k=2; b1: 1", 2, 2),
    ],
    ids=["example2-6", "example2", "example2-20", "example1", "family"],
)
def test_oracle_lines_equal_the_generic_encoder(text, period, lines, tmp_path, capsys):
    # rows are written from the scan's integers with a fixed template; the
    # bytes are those of json.dumps, with sorted keys, of the records that
    # oracle_scan lists, which puts the family's flag last
    path = tmp_path / "p.pat"
    path.write_text(text + "\n", encoding="utf-8")
    assert run(["oracle", "--pattern", str(path), "--period", str(period)]) == 0
    result = plmap_module.oracle_scan(plmap_module.realize(patterns_module.parse_pattern(text)), period)
    rows = [
        {
            "point": certify_module._point_json(w.point),
            "period": w.period,
            "on_center_orbit": w.on_center_orbit,
        }
        for w in result.witnesses + ((result.family,) if result.family else ())
    ]
    if result.family is not None:
        rows[-1]["uncountable_family"] = True
    assert capsys.readouterr().out == "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert len(rows) == lines
    if period == 6:
        # the center on branch 0 and the marked points, on the center's orbit
        assert rows[0] == {
            "point": {"branch": 0, "coord": "0/1"}, "period": 6, "on_center_orbit": True
        }
        assert sum(row["on_center_orbit"] for row in rows) == 6


@pytest.mark.parametrize(
    "text,q,entry,family",
    [
        (EX2, 6, (0, 0, 1, (0, 1, 2, 3, 4, 5), 0), False),
        (EX2, 6, (1, 3, 1, (0, 1, 2, 3, 4, 5), 2), False),
        ("n=1 k=2; b1: 1", 2, None, True),
        (EX2, 16, (3, 3**50, 2**70 + 1, (0,) * 16, 0), False),
    ],
    ids=["center", "marked-point", "family", "beyond-2**64"],
)
def test_oracle_row_equals_the_generic_encoder_of_its_witness(text, q, entry, family):
    # one row of the fixed template, against json.dumps of the witness that
    # ``plmap._listed`` builds from the same entry: a center-orbit row (the
    # center itself, and a marked point at denominator 1), the flagged row
    # of an uncountable family, and a point whose numerator and
    # denominator pass 2**64
    if family:
        m = plmap_module.realize(patterns_module.parse_pattern(text))
        entry = plmap_module._scan(m, q, None, False)[2]
    (w,) = plmap_module._listed(q, [entry])
    row = {
        "point": certify_module._point_json(w.point),
        "period": q,
        "on_center_orbit": w.on_center_orbit,
    }
    if family:
        row["uncountable_family"] = True
    last = ', "uncountable_family": true' if family else ""
    assert cli_module._oracle_rows(q, [entry], last) == [json.dumps(row, sort_keys=True) + "\n"]


def test_oracle_builds_no_record_for_a_listed_point(ex2_file, monkeypatch, capsys):
    # stardyn oracle writes its 4,320 rows at period 16 from the scan's
    # integers: no witness and no point record is built
    built = {plmap_module.PeriodicWitness: 0, plmap_module.RationalPoint: 0}
    for cls in built:
        init = cls.__init__

        def counted(self, *args, cls=cls, init=init):
            built[cls] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    assert run(["oracle", "--pattern", ex2_file, "--period", "16"]) == 0
    monkeypatch.undo()
    assert capsys.readouterr().out.count("\n") == 4320
    assert list(built.values()) == [0, 0]


def test_oracle_bad_period_exits_2(ex1_file, capsys):
    assert run(["oracle", "--pattern", ex1_file, "--period", "0"]) == 2


def test_oracle_cap_exceeded_exits_3(ex2_file, monkeypatch, capsys):
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", "3")
    assert run(["oracle", "--pattern", ex2_file, "--period", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "resource cap" in captured.err


def test_oracle_cap_counts_the_nodes_expanded_and_points_listed(ex2_file, monkeypatch, capsys):
    # the orbit listing at period 16 expands 1,766 of the 23,116 nodes of
    # the walk tree and lists 4,320 points; the cap counts those, as
    # ``oracle_work`` reads them off the whole tree, not the oracle's counter
    m = plmap_module.realize(patterns_module.parse_pattern(EX2))
    scan = plmap_module.oracle_scan(m, 16)
    work = ref.oracle_work(m, 16, list(ref.walk_cylinders(m, 16)), False, scan)
    assert (work, len(scan.witnesses)) == (6086, 4320)
    argv = ["oracle", "--pattern", ex2_file, "--period", "16"]
    assert run(argv) == 0
    full = capsys.readouterr().out
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", str(work))
    assert run(argv) == 0
    assert capsys.readouterr().out == full
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", str(work - 1))
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"stardyn: resource cap exceeded: cylinder cap {work - 1} exceeded\n"


def test_oracle_listing_of_a_million_points_exits_3(ex2_file, monkeypatch, capsys):
    # at period 28 the listing holds about 1.4 million points, so it stops
    # at the default cap long before it expands a million nodes
    monkeypatch.delenv("STARDYN_CYLINDER_CAP", raising=False)
    assert run(["oracle", "--pattern", ex2_file, "--period", "28"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "stardyn: resource cap exceeded: cylinder cap 1000000 exceeded\n"


def test_analyze_of_example2_reaches_period_200(ex2_file, monkeypatch, capsys):
    # the cap counts the work done, so under the default cap example 2
    # runs to pmax 200; the sha256 is that of the same run when the cap
    # counted the whole walk tree and was lifted to 10**80
    monkeypatch.delenv("STARDYN_CYLINDER_CAP", raising=False)
    assert run(["analyze", "--pattern", ex2_file, "--pmax", "200"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "ac246324a6ba8bebc4198e6f7a132b3a2ced18c58516870c46412f1b4147f8bc"
    )


def _run_in(limit, argv):
    """Exit code, stdout and stderr of ``stardyn`` run with ``argv`` under
    the default cylinder cap, in a child process whose address space is
    ``limit`` bytes; it must finish within 5 s."""
    env = child_env()
    env.pop("STARDYN_CYLINDER_CAP", None)
    done = subprocess.run(
        [sys.executable, "-m", "stardyn.cli", *argv],
        capture_output=True, text=True, env=env, timeout=5, preexec_fn=address_space(limit),
    )
    return done.returncode, done.stdout, done.stderr


CAP_EXCEEDED = (3, "", "stardyn: resource cap exceeded: cylinder cap 1000000 exceeded\n")


@pytest.mark.parametrize("command", [["oracle", "--period"], ["analyze", "--pmax"]])
def test_a_huge_period_exits_3_in_1_gb(ex2_file, command):
    # the skip table's memory grows with the square of the period, and it
    # is charged to the cap as it grows, so at period 100,000 both calls
    # stop at the cap before the table takes the address space
    argv = [command[0], "--pattern", ex2_file, command[1], "100000"]
    assert _run_in(2**30, argv) == CAP_EXCEEDED


def test_a_listing_of_long_points_exits_3_in_256_mb(ex2_file):
    # at period 2000 the coordinates of example 2's points run to about
    # 2000 bits, and the cap charges each listed point one unit per machine
    # word of its walk's slope, so the listing stops at the cap before its
    # entries take the address space
    argv = ["oracle", "--pattern", ex2_file, "--period", "2000"]
    assert _run_in(2**28, argv) == CAP_EXCEEDED


def test_oracle_listing_that_disagrees_with_the_walk_count_exits_1(ex2_file, monkeypatch, capsys):
    # at a period that k does not divide the oracle counts its listing
    # again from the covering digraph's closed walks; a dropped point is
    # caught
    drop_one_listed_point(monkeypatch, 8)
    assert run(["oracle", "--pattern", ex2_file, "--period", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"stardyn: inconsistency: {EX2}: the closed-walk count gives 80 points of period 8 "
        "but the exact oracle lists 79 — this is a bug\n"
    )


def test_no_walk_count_is_built_at_a_multiple_of_k(ex2_file, monkeypatch, capsys):
    # the closed-walk count decides no period that k divides, so neither
    # the oracle's listing at 6 or 12 on example 2 (k = 6) nor the replay
    # of an absence at 8 (k = 4) works one out; a listing at 8 on example
    # 2 works it out once
    calls = count_calls(monkeypatch, ("_walk_traces",))
    for period in ("6", "12"):
        assert run(["oracle", "--pattern", ex2_file, "--period", period]) == 0
    absent_at_8 = patterns_module.parse_pattern("n=2 k=4; b1: 1 3; b2: 2")
    assert certify_module.verify_certificate(absent_at_8, certify_module.OracleAbsence(8, 11))
    assert calls["_walk_traces"] == 0
    assert run(["oracle", "--pattern", ex2_file, "--period", "8"]) == 0
    assert calls["_walk_traces"] == 1


# a map whose pieces of slope +-1 form a cycle, so f^k is the identity on a
# basic interval: sha256 of the oracle's stdout as the walk-by-walk scan
# wrote it for every map, the family at q = k, and a listing at a multiple
# of k and off one
UNIT_CYCLE = "n=3 k=6; b1: 1 4; b2: 2 5; b3: 3"
UNIT_CYCLE_DIGESTS = {
    6: "3d78d0fe597bcf6f66f99c077886825a0fa5b97b70463bc6793c38e3a08c049f",
    11: "427857f3ebe283c21f6a0278b75364c11abe5a96330d78055c2d0ade371c4a11",
    12: "d39795f2c2ded04162266794da43b0287686c0810bfba74d9a22dc02118e353e",
}


@pytest.mark.parametrize("period", sorted(UNIT_CYCLE_DIGESTS))
def test_oracle_output_of_a_unit_slope_cycle_map_is_unchanged(period, tmp_path, capsys):
    path = tmp_path / "unit.pat"
    path.write_text(UNIT_CYCLE + "\n", encoding="utf-8")
    assert run(["oracle", "--pattern", str(path), "--period", str(period)]) == 0
    out = capsys.readouterr().out
    assert ("uncountable_family" in out) == (period == 6)
    assert hashlib.sha256(out.encode()).hexdigest() == UNIT_CYCLE_DIGESTS[period]


@pytest.mark.parametrize(
    "workload, args",
    [
        ("analyze-deep", ["analyze", "--pattern", "{ex2}", "--pmax", "18"]),
        ("oracle-list", ["oracle", "--pattern", "{ex2}", "--period", "16"]),
        ("survey-3-7", ["survey", "--n", "3", "--k", "7"]),
        ("survey-4-8-shallow", ["survey", "--n", "4", "--k", "8", "--pmax", "3"]),
    ],
)
def test_output_matches_benchmark_digest(workload, args, ex2_file, capsys):
    # the benchmark's recorded sha256 of each call's stdout
    with open(PERFBENCH_EXPECTED, encoding="utf-8") as fh:
        want = json.load(fh)[workload]["sha256"]
    argv = [ex2_file if a == "{ex2}" else a for a in args]
    assert run(argv + ["--jobs", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


@pytest.mark.parametrize(
    "args, n, k",
    [(["survey", "--n", "4", "--k", "9"], 4, 9), (["enumerate", "--n", "5", "--k", "8"], 5, 8)],
)
def test_enumeration_cap_exits_3(args, n, k, capsys):
    # the fixed cap of 10**6 raw patterns is checked before any class is built
    assert run(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"stardyn: resource cap exceeded: more than 1000000 raw patterns for n={n} k={k}\n"
    )


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


def _verify_text(payload: dict) -> str:
    """The text report, rebuilt from the ``--json`` one."""
    checks = payload["checks"]
    lines = [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}\n" for c in checks]
    verdict = "all checks passed" if payload["all_passed"] else "some checks FAILED"
    return "".join(lines) + f"{sum(c['passed'] for c in checks)}/{len(checks)} {verdict}\n"


def test_verify_paper_text_passes(capsys):
    assert run(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "12/12 all checks passed" in out
    assert out.count("PASS") == 12
    assert "FAIL" not in out
    assert run(["verify-paper", "--json"]) == 0
    assert out == _verify_text(json.loads(capsys.readouterr().out))


def test_verify_paper_json_schema(capsys):
    assert run(["verify-paper", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload, load_schema("verify.schema.json"))
    assert payload["all_passed"] is True


def test_verify_paper_failure_exits_1(monkeypatch, capsys):
    edges = set(survey_module.REFERENCE_FACTS["example1_edges"])
    edges.discard(("[0,4]", "[0,1]"))
    monkeypatch.setitem(survey_module.REFERENCE_FACTS, "example1_edges", frozenset(edges))
    assert run(["verify-paper"]) == 1
    captured = capsys.readouterr()
    assert "FAIL example1-digraph" in captured.out
    assert "inconsistency" in captured.err
    assert captured.out.endswith("\n11/12 some checks FAILED\n")
    assert run(["verify-paper", "--json"]) == 1
    assert captured.out == _verify_text(json.loads(capsys.readouterr().out))


# ---------------------------------------------------------------------------
# parsing and determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--pmax", "0"], "--pmax must be a positive integer"),
        (["--max-iterate", "0"], "--max-iterate must be a positive integer"),
        (["--jobs", "0"], "--jobs must be a positive integer"),
        (
            ["analyze", "--pattern", "unread", "--format", "csv"],
            "format 'csv' is not available for 'analyze'; choose from ('json', 'dot')",
        ),
        (["survey", "--n", "0", "--k", "3"], "enumeration needs n >= 1 and k >= 2, got n=0 k=3"),
        (["orders", "--relation", "nod", "--t", "0", "--m", "1", "--k", "3"], "--relation nod needs --t at least 1"),
        (["orders", "--relation", "shark", "--segment", "4"], "set mode needs both --segment and --bound"),
    ],
    ids=["pmax", "max-iterate", "jobs", "format", "survey-n", "nod-t", "no-bound"],
)
def test_usage_errors_exit_2_with_their_message(argv, message, capsys):
    # a bare option is checked on an otherwise valid orders query
    if argv[0].startswith("--"):
        argv = ["orders", "--relation", "shark", "--m", "1", "--k", "2", *argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == cli_module._build_parser().format_usage() + f"stardyn: error: {message}\n"


def test_no_subcommand_exits_2(capsys):
    assert run([]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert run(["analyze", "--help"]) == 0


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


PLAIN_CALLS = {
    "analyze": ["--pattern", "{ex1}", "--pmax", "3"],
    "enumerate": ["--n", "2", "--k", "3", "--all-branches"],
    "survey": ["--n", "2", "--k", "3", "--format", "csv"],
    "orders": ["--relation", "shark", "--m", "1", "--k", "2"],
    "oracle": ["--pattern", "{ex1}", "--period", "2"],
    "verify-paper": ["--pmax", "3", "--json"],
}


def _plain_call(name: str, ex1_file: str) -> list[str]:
    return [name, *(a.replace("{ex1}", ex1_file) for a in PLAIN_CALLS[name])]


def test_a_plain_call_builds_no_parser(ex1_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert list(PLAIN_CALLS) == list(cli_module._COMMANDS)
    for name in PLAIN_CALLS:
        assert run(_plain_call(name, ex1_file)) == 0, name
        assert built == []
    # help, errors and any call that is not plain build the full tree: the
    # top level and six subparsers
    non_plain = ["analyze", "--pattern", ex1_file, "--pmax=3"]
    for argv, code in [([], 2), (["--help"], 0), (["frobnicate"], 2), (non_plain, 0)]:
        built.clear()
        assert run(argv) == code
        assert len(built) == 7
    capsys.readouterr()


def test_plain_calls_load_no_argparse(ex1_file, monkeypatch, capsys):
    # a plain call of each command imports neither argparse nor the gettext
    # and locale that argparse pulls in
    calls = [_plain_call(name, ex1_file) for name in PLAIN_CALLS]
    code = (
        "import io, sys, contextlib, stardyn.cli\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert stardyn.cli.run(argv) == 0, argv\n"
        "print([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
    # help still comes from the tree, byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["analyze", "--help"]) == 0
    subparser = _subparsers(cli_module._build_parser())["analyze"]
    assert capsys.readouterr().out == subparser.format_help()


@pytest.mark.parametrize("last", ["survey", "verify-paper"])
def test_only_survey_commands_load_the_survey(last, ex1_file):
    # a bare ``import stardyn`` imports no submodule, ``stardyn.cli`` and the
    # single-pattern commands leave ``stardyn.survey`` out, and the two
    # commands that run it import it themselves
    calls = [_plain_call(name, ex1_file) for name in ("analyze", "oracle", "orders", "enumerate")]
    code = (
        "import io, sys, contextlib, stardyn\n"
        "print(sorted(m for m in sys.modules if m.startswith('stardyn')))\n"
        "import stardyn.cli\n"
        "loaded = ['stardyn.survey' in sys.modules]\n"
        f"for argv in {[*calls, _plain_call(last, ex1_file)]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert stardyn.cli.run(argv) == 0, argv\n"
        "    loaded.append('stardyn.survey' in sys.modules)\n"
        "print(loaded)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['stardyn']\n[False, False, False, False, False, True]\n"


def test_survey_jobs_2_matches_jobs_1_from_a_fresh_process():
    # the survey module is imported inside the call, before any pool starts
    env = child_env()
    call = [sys.executable, "-m", "stardyn.cli", "survey", "--n", "3", "--k", "6", "--jobs"]
    serial, parallel = (
        subprocess.run([*call, jobs], capture_output=True, env=env, check=True).stdout
        for jobs in ("1", "2")
    )
    assert serial == parallel and serial


def _namespace_text(args: argparse.Namespace) -> str:
    return repr(sorted(vars(args).items())) + "\n"


def _tree_parse(argv: list[str]) -> int:
    """Parse ``argv`` with the full tree and print the namespace, as a stub
    handler does."""
    try:
        args = cli_module._build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    sys.stdout.write(_namespace_text(args))
    return 0


def _outcome(call, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = call(argv)
    return code, out.getvalue(), err.getvalue()


def _option_tokens(action: argparse.Action):
    """The tokens of one option: its name, whole or a prefix (unique or
    not), with a value as the next token or after ``=``; values may be bad
    ints or bad choices."""
    name = st.builds(lambda s, n: s[:n], st.sampled_from(action.option_strings), st.integers(3, 20))
    if action.nargs == 0:
        return st.one_of(name.map(lambda s: [s]), name.map(lambda s: [s + "=1"]))
    if action.choices:
        value = st.sampled_from([*action.choices, *action.choices, "bogus"])
    elif action.type is int:
        value = st.sampled_from(["1", "2", "3", "5", "18", "0", "-3", "x", "1.5"])
    else:
        value = st.sampled_from(["F", "a b", "-", "x=y", ""])
    return st.one_of(
        st.tuples(name, value).map(list), st.tuples(name, value).map(lambda nv: ["=".join(nv)])
    )


def _plain_tokens(action: argparse.Action):
    """The tokens of one option on a plain line: its exact name, then a
    valid value, if it takes one, as the next token."""
    (flag,) = action.option_strings
    if action.nargs == 0:
        return st.just([flag])
    if action.choices:
        value = st.sampled_from(action.choices)
    elif action.type is int:
        value = st.sampled_from(["1", "2", "18", "0", "+3", " 5", "1_0"])
    else:
        value = st.sampled_from(["F", "a b", "x=y", ""])
    return value.map(lambda v: [flag, v])


@cache
def _command_options(name: str) -> list[argparse.Action]:
    subparser = _subparsers(cli_module._build_parser())[name]
    return [a for a in subparser._actions if a.dest != "help"]


@st.composite
def _argvs(draw) -> list[str]:
    """An argv drawn from the command table: a command and some of its
    options in any order (required ones may be missing), perhaps with extra
    tokens or -h; a plain line, whose options may repeat and may leave a
    required one out; or a call that names no command first."""
    names = list(cli_module._COMMANDS)
    heads = ["command"] * 12 + ["plain"] * 6 + ["--", "unknown", "none", "options first"]
    head = draw(st.sampled_from(heads))
    name = draw(st.sampled_from(names))
    actions = _command_options(name)
    if head == "plain":
        # each option given 0 to 2 times; a required one is left out one time in eight
        counts = {True: [0] + [1] * 5 + [2] * 2, False: [0, 0, 1, 2]}
        groups = [
            draw(_plain_tokens(a))
            for a in actions
            for _ in range(draw(st.sampled_from(counts[a.required])))
        ]
        return [name, *(token for group in draw(st.permutations(groups)) for token in group)]
    # a required option is left out one time in five, any other one in two
    groups = [
        draw(_option_tokens(a))
        for a in actions
        if draw(st.sampled_from([True] * (4 if a.required else 1) + [False]))
    ]
    groups = draw(st.permutations(groups))
    tokens = [token for group in groups for token in group]
    extras = st.lists(st.sampled_from(["-h", "--bogus", "1", "extra", "--", "-x"]), max_size=2)
    for extra in draw(extras):
        tokens.insert(draw(st.integers(0, len(tokens))), extra)
    if head == "command":
        return [name, *tokens]
    if head == "--":
        return ["--", name, *tokens]
    if head == "unknown":
        return ["frobnicate", *tokens]
    if head == "options first":
        return [*tokens, name]
    return draw(st.sampled_from([[], ["-h"], ["--help"]]))


@settings(max_examples=150, deadline=None)
@given(_argvs())
@example(["analyze", "--pattern", "F", "--bogus", "1"])
@example(["--", "analyze", "--pattern", "F"])
@example(["analyze", "--pat", "F"])
@example(["analyze", "--pattern", "F", "--pmax=18"])
@example(["analyze", "--p", "F"])
@example(["orders", "--relation", "sharp", "--m", "1"])
@example(["oracle", "--pattern", "F"])
@example(["survey", "--n", "x", "--k", "3"])
@example(["orders", "--relation", "shark", "--m", "1", "--k", "3", "--m", "2"])
@example(["analyze", "--pattern", "F", "--out", ""])
@example(["analyze", "--pattern", "-"])
@example(["analyze", "--pattern", "F", "--out", "-x"])
@example(["orders", "--relation", "shark", "--m", "-3", "--k", "2"])
@example(["analyze", "--pattern", "F", "--pm", "4"])
@example(["enumerate", "--n", "2", "--k", "3"])
@example(["enumerate", "--n", "2", "--k", "3", "--all-branches"])
@example(["enumerate", "--n", "2", "--k", "3", "--all-branches", "5"])
@example(["verify-paper", "--json"])
@example(["analyze", "--json", "F", "--pattern", "F"])
@example(["analyze", "--pattern", "F", "--", "--pmax", "3"])
@example(["analyze", "--pattern", "F", "--pmax", "3", "-h"])
@example(["survey", "--n", "2", "--k", "3", "--format", "xml"])
def test_dispatch_parses_as_the_full_tree(argv):
    # handlers and the run-parameter checks are stubbed: every call either
    # fails to parse or prints its namespace, on both sides; a plain call
    # is read from the command table, any other by the tree
    stubs = {
        name: (help, formats, lambda args: ([(None, _namespace_text(args))], 0), options)
        for name, (help, formats, _, options) in cli_module._COMMANDS.items()
    }
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        mock.patch.dict(cli_module._COMMANDS, stubs),
        mock.patch.object(cli_module, "_check_args", lambda args: None),
    ):
        assert _outcome(run, argv) == _outcome(_tree_parse, argv)


def test_subprocess_byte_identical_outputs(ex1_file):
    env = child_env(PYTHONHASHSEED="0")
    cmds = [
        [sys.executable, "-m", "stardyn.cli", "survey", "--n", "3", "--k", "5"],
        [sys.executable, "-m", "stardyn.cli", "analyze", "--pattern", ex1_file],
        [sys.executable, "-m", "stardyn.cli", "verify-paper", "--json"],
    ]
    for cmd in cmds:
        first = subprocess.run(cmd, capture_output=True, env=env, check=True)
        env["PYTHONHASHSEED"] = "99"  # hash randomization must not leak into output
        second = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty


def test_jobs_flag_does_not_change_output(capsys, monkeypatch):
    assert run(["survey", "--n", "3", "--k", "5"]) == 0
    serial = capsys.readouterr().out
    assert run(["survey", "--n", "3", "--k", "5", "--jobs", "3"]) == 0
    assert capsys.readouterr().out == serial
    # errors raised in worker processes read the same as in-process ones;
    # (2, 5) still asks the oracle for a witness at period 10, a multiple
    # of k, and its 36 classes make more than one chunk, so --jobs 2
    # starts a pool
    monkeypatch.setenv("STARDYN_CYLINDER_CAP", "10")
    message = "stardyn: resource cap exceeded: cylinder cap 10 exceeded\n"
    assert run(["survey", "--n", "2", "--k", "5", "--jobs", "1"]) == 3
    assert capsys.readouterr().err == message
    assert run(["survey", "--n", "2", "--k", "5", "--jobs", "2"]) == 3
    assert capsys.readouterr().err == message


def test_cli_import_does_not_load_numpy():
    code = "import stardyn.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)


def test_verify_paper_under_python_O():
    # every correctness check is an explicit raise, so -O strips none of them
    done = subprocess.run(
        [sys.executable, "-O", "-m", "stardyn.cli", "verify-paper"],
        capture_output=True, env=child_env(), text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "12/12 all checks passed" in done.stdout

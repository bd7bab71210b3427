"""Command-line entry point.

Subcommands
-----------
analyze       full periodicity/chaos report for one pattern (JSON or DOT)
enumerate     list pattern classes for a star size
survey        classification campaign over all classes of a star size
orders        query the period-forcing orders
oracle        exact periodic points of the canonical realization
verify-paper  recompute all quoted reference facts and report pass/fail

Exit codes: 0 success, 1 analysis inconsistency (a certified claim or a
walk count and the exact oracle disagree, or a reference check fails), 2
usage error, 3 resource cap exceeded.  Usage errors print a synopsis to
stderr and produce no partial output: every command completes all of its
analysis before the first byte is written, and a survey's text, from
``survey``'s table writer, is then written in chunks of rows.  Identical
inputs yield byte-identical output; ``--out`` writes atomically (temp
file + rename), and the file gets the mode a plain write would give it:
an existing file keeps its own, and a new one gets 0o666 less the umask.
Each command's options are declared once, in ``_COMMANDS``.  A plain
command line (the command, then only its exact option strings, each with
a value of the right kind that does not start with "-", every required
one given) is parsed straight from that table; argparse is imported and
its parser tree built only for help, errors and any other line, and for
the synopsis of a usage error.  A call imports only the layers its
command runs: ``patterns``, ``orders``, ``plmap`` and ``certify`` at
module level, and ``survey`` (``classify_all``, ``filter_result``,
``_survey_chunks``, ``verify_paper``) only inside ``survey`` and
``verify-paper``.
The environment variable ``STARDYN_CYLINDER_CAP`` overrides the cap on
the oracle's work: the walk-tree nodes it expands and the points it
lists.  A survey decides every period that the orbit size k does not
divide by counting closed walks, and asks the oracle for a witness only
at the multiples of k above k, so in a survey the cap bounds only those
scans.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterable
from contextlib import suppress
from types import SimpleNamespace

from .certify import (
    SURVEY_FILTERS,
    InconsistencyError,
    cover_digraph,
    periodicity_report,
    render_dot,
    report_to_json,
)
from .orders import baldwin_le, nod_le, sharkovskii_le
from .patterns import (
    EnumerationCapExceeded,
    PatternError,
    StarPattern,
    _Record,
    enumerate_patterns,
    parse_pattern,
)
from .plmap import CylinderCapExceeded, _scan, cylinder_cap, realize

__all__ = ["run", "main"]

_FORMATS = ("json", "csv", "dot", "text")


class UsageError(Exception):
    """Bad arguments or inputs; reported with a synopsis on stderr."""


def _check_args(args: SimpleNamespace) -> None:
    """Check the run parameters shared by all subcommands and fill in the
    subcommand's default format; raises UsageError."""
    try:
        cylinder_cap()
    except ValueError as e:
        raise UsageError(str(e)) from None
    allowed = _COMMANDS[args.subcommand][1]
    if args.format is None:
        args.format = allowed[0]
    elif args.format not in allowed:
        raise UsageError(
            f"format {args.format!r} is not available for {args.subcommand!r}; "
            f"choose from {allowed}"
        )
    for option in ("--pmax", "--max-iterate", "--jobs"):
        if getattr(args, option[2:].replace("-", "_")) < 1:
            raise UsageError(f"{option} must be a positive integer")


def _load_pattern(path: str) -> StarPattern:
    """The pattern in the file, parsed and so valid; a file that cannot be
    read or parsed is a usage error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [stripped for line in fh if (stripped := line.strip())]
    except OSError as e:
        raise UsageError(f"cannot read pattern file {path!r}: {e.strerror}") from None
    if len(lines) != 1:
        raise UsageError(f"pattern file {path!r} must contain exactly one pattern")
    try:
        return parse_pattern(lines[0])
    except PatternError as e:
        raise UsageError(f"invalid pattern in {path!r}: {e}") from None


def _json_text(payload: dict | list) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Each handler returns ([(destination path or None for stdout, text), ...],
# exit code), where a text is a string or an iterable of string chunks
# built from finished results.  Nothing is written until the handler
# finishes, so failures never leave partial output.

Outputs = list[tuple[str | None, str | Iterable[str]]]


def _cmd_analyze(args: SimpleNamespace) -> tuple[Outputs, int]:
    """The report's JSON and the covering digraph's DOT, each built only
    when some destination gets it: ``--dot``, ``--json``, and the main
    text in ``--format`` to ``--out``, or to stdout when neither of the
    other two is given."""
    p = _load_pattern(args.pattern)
    wanted = [(args.dot, "dot")] if args.dot else []
    if args.json:
        wanted.append((args.json, "json"))
    if args.out or not (args.dot or args.json):
        wanted.append((args.out, args.format))
    formats = {format for _, format in wanted}
    texts = {}
    if "json" in formats:
        report = periodicity_report(p, p_max=args.pmax, max_iterate=args.max_iterate)
        texts["json"] = _json_text(report_to_json(report))
    if "dot" in formats:
        texts["dot"] = render_dot(report.digraph if "json" in formats else cover_digraph(p))
    return [(path, texts[format]) for path, format in wanted], 0


def _cmd_enumerate(args: SimpleNamespace) -> tuple[Outputs, int]:
    patterns = enumerate_patterns(args.n, args.k, all_branches=args.all_branches)
    if args.format == "json":
        payload = {
            "n": args.n,
            "k": args.k,
            "all_branches": bool(args.all_branches),
            "patterns": [p.to_json_dict() for p in patterns],
        }
        text = _json_text(payload)
    else:
        text = "".join(p.to_text() + "\n" for p in patterns)
    return [(args.out, text)], 0


def _cmd_survey(args: SimpleNamespace) -> tuple[Outputs, int]:
    from .survey import _survey_chunks, classify_all, filter_result

    result = classify_all(args.n, args.k, args.pmax, max_iterate=args.max_iterate, jobs=args.jobs)
    if args.filter:
        result = filter_result(result, args.filter)
    return [(args.out, _survey_chunks(result, args.format))], 0


def _cmd_orders(args: SimpleNamespace) -> tuple[Outputs, int]:
    pair_mode = args.m is not None or args.k is not None
    set_mode = args.segment is not None or args.bound is not None
    if pair_mode == set_mode:
        raise UsageError("orders needs either --m and --k, or --segment and --bound")
    relation, t = args.relation, args.t
    if relation == "baldwin" and t < 2:
        raise UsageError("--relation baldwin needs --t at least 2")
    if relation == "nod" and t < 1:
        raise UsageError("--relation nod needs --t at least 1")

    def below(m: int, k: int) -> bool:
        if relation == "shark":
            return sharkovskii_le(m, k)
        if relation == "baldwin":
            return baldwin_le(t, m, k)
        return nod_le(t, m, k)

    try:
        if pair_mode:
            if args.m is None or args.k is None:
                raise UsageError("pair mode needs both --m and --k")
            text = ("true" if below(args.m, args.k) else "false") + "\n"
        else:
            if args.segment is None or args.bound is None:
                raise UsageError("set mode needs both --segment and --bound")
            if args.bound < 1:
                raise UsageError("--bound must be a positive integer")
            forced = [m for m in range(1, args.bound + 1) if below(m, args.segment)]
            text = " ".join(map(str, forced)) + "\n"
    except ValueError as e:
        raise UsageError(str(e)) from None
    return [(args.out, text)], 0


def _oracle_rows(q: int, entries, last: str = "") -> list[str]:
    """The oracle rows of ``plmap._scan``'s entries, as
    ``json.dumps(..., sort_keys=True)`` writes their witnesses: a point is on
    the center orbit iff it is an integer; ``last`` is the family's flag,
    whose key sorts after the others.  The parts that do not change from
    row to row (the period, the flag) are joined once per call."""
    mid, end = f', "period": {q}, "point": {{"branch": ', last + "}\n"
    on, off = '{"on_center_orbit": true' + mid, '{"on_center_orbit": false' + mid
    return [
        f'{on if den == 1 else off}{b}, "coord": "{num}/{den}"}}{end}'
        for b, num, den, _, _ in entries
    ]


def _cmd_oracle(args: SimpleNamespace) -> tuple[Outputs, int]:
    """The listing of ``oracle_scan``, written from the integer entries of
    its checked scan (``plmap._scan``): no record is built for a listed
    point."""
    if args.period < 1:
        raise UsageError("--period must be a positive integer")
    m = realize(_load_pattern(args.pattern))
    q = args.period
    found, _, family, _ = _scan(m, q, None, False)
    rows = _oracle_rows(q, found)
    if family is not None:
        rows += _oracle_rows(q, [family], ', "uncountable_family": true')
    return [(args.out, "".join(rows))], 0


def _cmd_verify_paper(args: SimpleNamespace) -> tuple[Outputs, int]:
    from .survey import verify_paper

    report = verify_paper(p_max=args.pmax, max_iterate=args.max_iterate)
    text = _json_text(report.to_json()) if args.json or args.format == "json" else report.to_text()
    if not report.all_passed:
        sys.stderr.write("stardyn: inconsistency: reference verification failed\n")
    return [(args.out, text)], 0 if report.all_passed else 1


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to a temp file beside ``path`` and rename it over
    ``path``, with the mode ``open(path, "w")`` would leave: an existing
    file's own, else 0o666 less the umask (``mkstemp`` makes it 0o600).
    The temp file is synced before the rename, so that after a crash
    ``path`` holds the old text or the new, never an empty file."""
    import tempfile

    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        os.umask(umask := os.umask(0))  # read the umask, and put it back
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stardyn-")
    try:
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _emit_outputs(outputs: Outputs) -> None:
    """Write each output; a failed write is a usage error naming its destination."""
    for path, text in outputs:
        chunks = (text,) if isinstance(text, str) else text
        try:
            if path is None:
                sys.stdout.writelines(chunks)
            else:
                _write_atomic(path, chunks)
        except OSError as e:
            where = "standard output" if path is None else repr(path)
            raise UsageError(f"cannot write output to {where}: {e.strerror or e}") from None


class _Option(_Record):
    """One option of a command, as ``--help`` shows it: ``kind`` is int, a
    tuple of choices, str, or bool for a store-true flag, whose default is
    False as argparse gives it."""

    flag: str
    kind: object = str
    default: object = None
    required: bool = False
    metavar: str | None = None
    help: str | None = None


_SHARED = (
    _Option("--pmax", int, 10, help="period horizon (default 10)"),
    _Option("--max-iterate", int, 2,
            help="highest iterate tried for chaos certificates (default 2)"),
    _Option("--jobs", int, 1, help="parallel workers for surveys"),
    _Option("--out", metavar="FILE", help="write output to FILE atomically"),
    _Option("--format", _FORMATS, help="output format (subcommand-specific)"),
)
_PATTERN = _Option("--pattern", required=True, metavar="FILE", help="pattern file")
_N_K = (_Option("--n", int, required=True, help="number of branches"),
        _Option("--k", int, required=True, help="orbit size"))

# name -> (help, formats with the default first, handler, options in --help order)
_COMMANDS = {
    "analyze": ("periodicity and chaos report for one pattern", ("json", "dot"), _cmd_analyze, (
        *_SHARED, _PATTERN,
        _Option("--dot", metavar="FILE", help="also write the covering digraph as DOT"),
        _Option("--json", metavar="FILE", help="also write the JSON report to FILE"))),
    "enumerate": ("list pattern classes", ("text", "json"), _cmd_enumerate, (
        *_SHARED, *_N_K,
        _Option("--all-branches", bool, False,
                help="only patterns whose orbit meets every branch"))),
    "survey": ("classification campaign", ("json", "csv"), _cmd_survey, (
        *_SHARED, *_N_K,
        _Option("--filter", SURVEY_FILTERS,
                help="restrict to classes where the center-map theorem does not apply"))),
    "orders": ("period-forcing order queries", ("text",), _cmd_orders, (
        *_SHARED,
        _Option("--relation", ("shark", "baldwin", "nod"), required=True,
                help="interval order, t-od order, or n-od meet order"),
        _Option("--t", int, 1,
                help="order subscript: iterate count for baldwin, branch count for nod"),
        _Option("--m", int, help="candidate forced period (pair mode)"),
        _Option("--k", int, help="forcing period (pair mode)"),
        _Option("--segment", int, help="forcing period (set mode)"),
        _Option("--bound", int, help="largest period listed (set mode)"))),
    "oracle": ("exact periodic points", ("json",), _cmd_oracle, (
        *_SHARED, _PATTERN, _Option("--period", int, required=True, help="period to scan for"))),
    "verify-paper": ("recompute quoted reference facts", ("text", "json"), _cmd_verify_paper, (
        *_SHARED, _Option("--json", bool, False, help="emit the structured JSON report"))),
}


def _command_parser(name: str, p) -> None:
    """Add command ``name``'s options, in table order, to ``p``, its
    subparser in ``_build_parser``'s tree."""
    for o in _COMMANDS[name][3]:
        if o.kind is bool:
            p.add_argument(o.flag, action="store_true", help=o.help)
        else:
            choices = o.kind if isinstance(o.kind, tuple) else None
            p.add_argument(o.flag, type=int if o.kind is int else None, choices=choices,
                           default=o.default, required=o.required, metavar=o.metavar, help=o.help)


def _build_parser():
    """The full ``argparse`` tree: ``stardyn`` and a subparser for each command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="stardyn",
        description="Analyze continuous self-maps of star graphs defined by orbit patterns.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, *_) in _COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=summary))
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the full tree parses from a plain command line, read
    from the table without argparse; None for any other line.  A line is
    plain when it names a command and then only exact option strings of
    that command: a store-true flag alone, any other option followed by a
    value that does not start with "-", is an int for an int option and
    is one of the choices for a choice option.  Every required option is
    given, and a repeated one keeps its last value.  Help, errors,
    abbreviations, ``--opt=value`` and ``--`` are left to the tree."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = {o.flag: o for o in _COMMANDS[argv[0]][3]}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        o = options.get(token)
        if o is None:
            return None
        if o.kind is bool:
            given[token] = True
            continue
        value = next(tokens, "-")  # a missing value is not plain either
        if value.startswith("-"):
            return None
        if o.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(o.kind, tuple) and value not in o.kind:
            return None
        given[token] = value
    if any(o.required and flag not in given for flag, o in options.items()):
        return None
    values = {flag[2:].replace("-", "_"): given.get(flag, o.default) for flag, o in options.items()}
    return SimpleNamespace(subcommand=argv[0], **values)


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and return the exit code.  A plain
    command line (``_plain_args``) is parsed without argparse; any other
    line, and the synopsis of a usage error, builds the full tree."""
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit as e:
            return int(e.code or 0)
    try:
        _check_args(args)
        outputs, code = _COMMANDS[args.subcommand][2](args)
        _emit_outputs(outputs)
    except (UsageError, PatternError) as e:
        sys.stderr.write(_build_parser().format_usage())
        sys.stderr.write(f"stardyn: error: {e}\n")
        return 2
    except InconsistencyError as e:
        sys.stderr.write(f"stardyn: inconsistency: {e}\n")
        return 1
    except (CylinderCapExceeded, EnumerationCapExceeded) as e:
        sys.stderr.write(f"stardyn: resource cap exceeded: {e}\n")
        return 3
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

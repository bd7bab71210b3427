"""End-to-end benchmark of the ``stardyn`` CLI, with a traced per-module run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured call is one ``stardyn`` CLI invocation in a fresh
interpreter (``perfbench/child.py``), with ``--jobs 1`` and without
``STARDYN_CYLINDER_CAP`` in its environment, so no cache or setting carries
over between calls.  Calls run closed loop, one at a time, in whole rounds
over the run's inputs, for about S seconds (at least one round).  Every
output is checked: its exit code, its JSON schema from ``docs/schemas/``,
and its content against ``perfbench/expected.json``.

``--trace 0`` prints the end-to-end metrics, each a median over the run:

    wall_s       time of ``stardyn.cli.run(argv)``, after the import
    items_per_s  classes, decided periods or listed points per second
    setup_s      time to import ``stardyn.cli`` in a fresh interpreter
    peak_rss_mb  highest resident memory of the call's process

The two times are rescaled to a reference CPU speed (see ``child.py``);
``items_per_s`` uses the rescaled ``wall_s``.  ``setup_s`` pools three
import-only interpreters with the import of every call.

``--trace 1`` alternates traced and untraced calls of the seed's input (at
least two traced, one untraced) and prints the per-module metrics of
``tracing.py``; the tracing overhead is the traced minus the untraced
median ``wall_s``.  Work counters must repeat exactly between the traced
calls, or the run fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A call fails on a
non-zero exit (including exit 3, the cylinder cap) or on any output check;
``failed / attempted`` is the failure ratio, printed on the line before.
Per-call samples, raw times, the run context and any failures are also
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tomllib
from pathlib import Path
from time import perf_counter

import jsonschema

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 3
# Reported times are rescaled to the CPU speed at which child.py's probe
# takes this long (a typical value on the 2-CPU machine the benchmark was
# defined on), which takes out most of the run-to-run drift of a shared
# CPU; the raw times are kept in the per-run record.
PROBE_REF_S = 0.0004
# every run ends within this many seconds, even if a call hangs
RUN_DEADLINE_S = 170

# Example 2 of the paper: n=3 k=6; b1: 1 3 5; b2: 2; b3: 4.  The inputs of
# the single-pattern workloads are its 3! branch relabelings, in the order
# of RELABELINGS starting at seed % 6; index 0 is the paper's own labeling.
EXAMPLE2 = ((1, 3, 5), (2,), (4,))
RELABELINGS = tuple(itertools.permutations(range(3)))

# name -> (CLI arguments, output kind).  "{pattern}" is the seeded pattern
# file.  The surveys are fixed by (n, k), so their seed changes nothing.
WORKLOADS = {
    # ~1,200 classes of short oracle scans: per-call cost of the oracle.
    "survey-3-7": (["survey", "--n", "3", "--k", "7"], "survey"),
    # 4,200 classes at a shallow horizon: enumeration, classing and the
    # chaos search dominate; the oracle is a small share.
    "survey-4-8-shallow": (["survey", "--n", "4", "--k", "8", "--pmax", "3"], "survey"),
    # one pattern, deep horizon: exhaustive cylinder expansion (odd periods
    # are absent), no enumeration or classing.
    "analyze-deep": (["analyze", "--pattern", "{pattern}", "--pmax", "18"], "analyze"),
    # one period listed point by point: witness verification dominates.
    "oracle-list": (["oracle", "--pattern", "{pattern}", "--period", "16"], "oracle"),
}

SCHEMAS = {"survey": "survey.schema.json", "analyze": "report.schema.json",
           "oracle": "witness.schema.json"}

END_TO_END = (
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# every per-layer value that is not a time must repeat exactly between two
# traced calls of the same input
EXACT_LAYERS = tuple(name for name, unit in LAYER_METRICS if unit != "s")


class BenchError(Exception):
    """A run that cannot produce its metrics."""


# ------------------------------------------------------------------ inputs

def pattern_text(perm: tuple[int, ...]) -> str:
    """Example 2 with branch ``b`` (0-based) moved to branch ``perm[b]``."""
    branches = [()] * len(perm)
    for b, pts in enumerate(EXAMPLE2):
        branches[perm[b]] = pts
    body = "; ".join(f"b{b}: " + " ".join(map(str, pts)) for b, pts in enumerate(branches, 1))
    return f"n={len(perm)} k=6; {body}\n"


def cli_args(workload: str, pattern_file: Path) -> list[str]:
    args, _ = WORKLOADS[workload]
    return [a.replace("{pattern}", str(pattern_file)) for a in args] + ["--jobs", "1"]


# ------------------------------------------------------------------ checks

def output_facts(kind: str, text: str, perm: tuple[int, ...]) -> dict:
    """What a branch relabeling must leave unchanged, with the relabeling
    ``perm`` mapped back to the paper's labels."""
    back = {new + 1: old + 1 for old, new in enumerate(perm)}
    back[0] = 0
    if kind == "analyze":
        report = json.loads(text)
        branches = [None] * len(perm)
        for new, pts in enumerate(report["pattern"]["branches"], 1):
            branches[back[new] - 1] = pts
        periods = report["periods"]
        return {
            "pattern": branches,
            "present": sorted(int(q) for q, s in periods.items() if s["status"] == "present"),
            "absent_cylinders": {
                q: [c["cylinders"] for c in s["certs"] if c["kind"] == "oracle_absence"]
                for q, s in sorted(periods.items(), key=lambda kv: int(kv[0]))
                if s["status"] == "absent"
            },
            "chaos": report["chaos"]["status"],
        }
    if kind == "oracle":
        rows = []
        for line in text.splitlines():
            row = json.loads(line)
            row["point"]["branch"] = back[row["point"]["branch"]]
            rows.append(json.dumps(row, sort_keys=True))
        rows.sort()
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        return {"points": len(rows), "points_sha256": digest}
    raise ValueError(f"no relabeling facts for {kind!r} output")


def output_items(kind: str, text: str) -> int:
    """Completed work: branch classes, decided periods, or listed points."""
    if kind == "survey":
        return json.loads(text)["counts"]["branch_classes"]
    if kind == "analyze":
        return len(json.loads(text)["periods"])
    return len(text.splitlines())


def check_output(
    workload: str, perm: tuple[int, ...], text: str, expected: dict, validator
) -> list[str]:
    """Problems with one call's output; empty when it is correct."""
    _, kind = WORKLOADS[workload]
    want = expected[workload]
    try:
        docs = [json.loads(line) for line in text.splitlines()] if kind == "oracle" else [
            json.loads(text)
        ]
    except json.JSONDecodeError as e:
        return [f"output is not JSON: {e}"]
    problems = [
        f"schema: {err.message} at {list(err.absolute_path)}"
        for doc in docs
        for err in itertools.islice(validator.iter_errors(doc), 3)
    ][:5]
    if kind == "survey" or perm == RELABELINGS[0]:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != want["sha256"]:
            problems.append(f"sha256 {digest} differs from the recorded {want['sha256']}")
    else:
        facts = output_facts(kind, text, perm)
        for key, value in want["facts"].items():
            if facts.get(key) != value:
                problems.append(
                    f"after mapping relabeling {perm} back, {key} is {facts.get(key)!r}, "
                    f"expected {value!r}"
                )
    return problems


# ------------------------------------------------------------------- calls

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("STARDYN_CYLINDER_CAP", None)
    env.pop("PYTHONPATH", None)
    return env


def run_child(
    work: Path, tag: str, deadline: float, *, cli: list[str] | None, trace: bool = False
) -> dict:
    """One fresh interpreter; returns its measurements, or ``error``."""
    result_file = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), str(result_file)]
    if cli is None:
        cmd.append("--import-only")
    else:
        cmd += ["--out", str(work / f"{tag}.out")]
        if trace:
            cmd += ["--trace", str(work / "spans.jsonl")]
        cmd += ["--"] + cli
    timeout = max(1.0, deadline - perf_counter())
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"killed at the run's {RUN_DEADLINE_S} s deadline"}
    if proc.returncode != 0 or not result_file.exists():
        return {"error": f"runner exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return json.loads(result_file.read_text())


class Run:
    """The calls of one benchmark run and their checks."""

    def __init__(self, workload: str, seed: int, work: Path, trace: bool) -> None:
        self.workload, self.work = workload, work
        self.deadline = perf_counter() + RUN_DEADLINE_S
        self.kind = WORKLOADS[workload][1]
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.validator = make_validator(self.kind)
        # A relabeling changes the work of a call (cylinders expanded before
        # the first witness, pieces scanned per evaluation), so end-to-end
        # runs cover all six relabelings in whole rounds; the seed picks the
        # first.  A traced run measures the seed's relabeling alone.
        first = seed % len(RELABELINGS)
        if self.kind == "survey":
            perms = RELABELINGS[:1]
        elif trace:
            perms = RELABELINGS[first : first + 1]
        else:
            perms = RELABELINGS[first:] + RELABELINGS[:first]
        self.inputs = []
        for i, perm in enumerate(perms):
            pattern_file = work / f"pattern{i}.txt"
            pattern_file.write_text(pattern_text(perm))
            self.inputs.append((perm, cli_args(workload, pattern_file)))
        self.calls: list[dict] = []
        self.imports: list[float] = []
        self.failures: list[str] = []

    def setup_samples(self, count: int) -> None:
        for i in range(count):
            sample = run_child(self.work, f"import{i}", self.deadline, cli=None)
            if "error" in sample:
                raise BenchError(f"importing stardyn.cli failed: {sample['error']}")
            self.imports.append(rescaled(sample, "import"))

    def call(self, perm: tuple[int, ...], cli: list[str], trace: bool) -> dict:
        tag = f"call{len(self.calls)}"
        sample = run_child(self.work, tag, self.deadline, cli=cli, trace=trace)
        sample.update(traced=trace, relabeling=list(perm))
        problems = []
        if "error" in sample:
            problems.append(sample["error"])
        elif sample["code"] != 0:
            problems.append(f"stardyn exited with code {sample['code']}")
        else:
            out = self.work / f"{tag}.out"
            text = out.read_text(encoding="utf-8")
            out.unlink()
            problems += check_output(self.workload, perm, text, self.expected, self.validator)
            if not problems:
                sample["items"] = output_items(self.kind, text)
            sample["ref_wall_s"] = rescaled(sample, "call", "wall_s")
            self.imports.append(rescaled(sample, "import"))
        sample["problems"] = problems
        self.failures += [f"{tag}: {p}" for p in problems]
        self.calls.append(sample)
        return sample

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if c["problems"])


def rescaled(sample: dict, region: str, key: str | None = None) -> float:
    """A region's time without its probes, at the reference CPU speed."""
    raw = sample[key or f"{region}_s"] - sample[f"{region}_probe_inside_s"]
    return raw * PROBE_REF_S / sample[f"{region}_probe_s"]


def make_validator(kind: str):
    schema = json.loads((ROOT / "docs" / "schemas" / SCHEMAS[kind]).read_text())
    cls = jsonschema.validators.validator_for(schema)
    return cls(schema)


def median(values: list[float]) -> float:
    if not values:
        raise BenchError("no successful call to take a median over")
    return statistics.median(values)


def end_to_end_metrics(run: Run) -> dict[str, float]:
    good = [c for c in run.calls if not c["problems"]]
    return {
        "wall_s": median([c["ref_wall_s"] for c in good]),
        "items_per_s": median([c["items"] / c["ref_wall_s"] for c in good]),
        "setup_s": median(run.imports),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in good]),
    }


def layer_metrics(run: Run) -> dict[str, float]:
    traced = [c for c in run.calls if c["traced"] and not c["problems"]]
    plain = [c for c in run.calls if not c["traced"] and not c["problems"]]
    if len(traced) < 2:
        raise BenchError("fewer than two traced calls succeeded")
    first = traced[0]["layers"]
    for c in traced[1:]:
        differ = [k for k in EXACT_LAYERS if c["layers"][k] != first[k]]
        if differ:
            raise BenchError(
                "work counters differ between traced calls: "
                + ", ".join(f"{k} {first[k]} vs {c['layers'][k]}" for k in differ)
            )
    # seconds are rescaled with the factor that turns the call's raw wall
    # time into its wall_s, which also takes out the probes' share
    metrics = {
        name: first[name] if name in EXACT_LAYERS else median(
            [c["layers"][name] * c["ref_wall_s"] / c["wall_s"] for c in traced]
        )
        for name, unit in LAYER_METRICS
        if not name.startswith("trace.")
    }
    metrics["trace.wall_s"] = median([c["ref_wall_s"] for c in traced])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(
        [c["ref_wall_s"] for c in plain]
    )
    return metrics


# ----------------------------------------------------------------- context

def context() -> dict:
    src_files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in src_files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    git_rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        git_rev = proc.stdout.strip() or None

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "nproc": os.cpu_count(),
        "src_lines": lines,
        "runtime_deps": len(deps),
    }


# -------------------------------------------------------------------- main

def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[Run, dict]:
    """Whole rounds over the run's inputs while the next round is expected
    to end within ``seconds``; at least one round, and in a traced run at
    least two traced calls and one untraced call."""
    run = Run(workload, seed, work, trace)
    if not trace:
        run.setup_samples(SETUP_SAMPLES)
    flags = itertools.cycle([True, False]) if trace else itertools.repeat(False)
    start = perf_counter()
    rounds = 0
    while True:
        for perm, cli in run.inputs:
            run.call(perm, cli, next(flags))
        rounds += 1
        elapsed = perf_counter() - start
        traced = sum(c["traced"] for c in run.calls)
        enough = not trace or (traced >= 2 and len(run.calls) > traced)
        if enough and elapsed + elapsed / rounds > seconds:
            break
    if run.failed == len(run.calls):
        return run, {}
    return run, layer_metrics(run) if trace else end_to_end_metrics(run)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seed < 0 or opts.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    for needed in ("src/stardyn/cli.py", "docs/schemas", "pyproject.toml"):
        if not (ROOT / needed).exists():
            print(f"perfbench: {ROOT / needed} is missing; run from a stardyn checkout",
                  file=sys.stderr)
            return 2

    name = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    work = OUT_DIR / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run, metrics = measure(opts.workload, opts.seed, opts.seconds, bool(opts.trace), work)
        if opts.trace and (work / "spans.jsonl").exists():
            os.replace(work / "spans.jsonl", OUT_DIR / f"{name}-spans.jsonl")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ctx = context()
    units = dict(LAYER_METRICS if opts.trace else END_TO_END)
    record = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace,
        "context": ctx, "calls": run.calls, "setup_samples": run.imports,
        "metrics": metrics, "failures": run.failures,
    }
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    for failure in run.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print("context " + json.dumps(ctx, sort_keys=True))
    good = [c for c in run.calls if not c["problems"]]
    print(f"{opts.workload} seed {opts.seed}: {len(run.calls)} calls, {run.failed} failed "
          f"(fail_ratio {run.failed / len(run.calls):.3f}); medians over {len(good)} calls"
          + ("" if opts.trace else f", setup over {len(run.imports)} imports"))
    for key, value in metrics.items():
        print(f"  {key:28s} {value:>14.6g} {units[key]}")
    slowest = [c["slowest_class"] for c in good if c.get("slowest_class")]
    if slowest:
        print(f"  slowest class: {slowest[0]['pattern']} "
              f"({slowest[0]['seconds']:.4f} s raw, first traced call)")
    missing = sorted({t for c in run.calls for t in c.get("missing_targets", ())})
    if missing:
        print(f"perfbench: trace targets not found, reported as 0: {missing}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": len(run.calls),
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

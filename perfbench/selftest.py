"""Self-test of the benchmark's own checks and tracer.

Usage (from the root of a source checkout): python3 perfbench/selftest.py

Shows that a corrupted expected digest, or a corrupted relabeling fact,
makes a call count as failed rather than pass; that the true expectations
pass; and that the tracer rebinds every name a traced function is imported
under.  Exits non-zero on the first check that does not hold.
"""

from __future__ import annotations

import copy
import shutil
import sys

import run
from tracing import TARGETS, Tracer


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def check_output_gate(work) -> None:
    bench = run.Run("analyze-deep", 0, work, trace=True)
    perm, cli = bench.inputs[0]
    good = bench.call(perm, cli, trace=False)
    check(not good["problems"], "seed 0 output matches the recorded digest")

    bench.expected = copy.deepcopy(bench.expected)
    bench.expected["analyze-deep"]["sha256"] = "0" * 64
    bad = bench.call(perm, cli, trace=False)
    check(bool(bad["problems"]) and "sha256" in bad["problems"][0],
          "a corrupted expected digest is reported as a problem")
    check(bench.failed == 1 and len(bench.calls) == 2,
          "the corrupted-digest call counts as failed (1 of 2 attempted)")

    relabeled = run.Run("analyze-deep", 4, work, trace=True)
    perm, cli = relabeled.inputs[0]
    check(perm != run.RELABELINGS[0], "seed 4 uses a non-identity relabeling")
    relabeled.expected = copy.deepcopy(relabeled.expected)
    relabeled.expected["analyze-deep"]["facts"]["absent_cylinders"]["17"] = [14517]
    sample = relabeled.call(perm, cli, trace=False)
    check(relabeled.failed == 1 and "absent_cylinders" in sample["problems"][0],
          "a corrupted relabeling fact counts as a failed call")


def check_tracer_bindings() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import stardyn.certify
    import stardyn.cli
    import stardyn.plmap

    originals = {name: getattr(stardyn.plmap, name) for name in ("oracle_scan", "realize")}
    tracer = Tracer()
    tracer.install()
    check(not tracer.missing, f"every trace target exists ({len(TARGETS)} targets)")
    for name, original in originals.items():
        bound = {getattr(m, name) for m in (stardyn.plmap, stardyn.certify, stardyn.cli)}
        check(len(bound) == 1 and original not in bound,
              f"{name} is the same wrapper in plmap, certify and cli")
    m = stardyn.plmap.realize(stardyn.patterns.parse_pattern(run.pattern_text((0, 1, 2))))
    stardyn.plmap.first_witness(m, 2)
    check(tracer.calls["plmap.oracle_scan"] == 1 and tracer.calls["plmap.first_witness"] == 1,
          "first_witness reaches the traced oracle_scan through plmap's globals")
    span = {s[2]: s for s in tracer.spans}
    fw, scan = span["plmap.first_witness"], span["plmap.oracle_scan"]
    check(scan[1] == fw[0] and abs(fw[5] - ((fw[4] - fw[3]) - (scan[4] - scan[3]))) < 1e-9,
          "self time is the span minus its child span")


def main() -> int:
    work = run.OUT_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_output_gate(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_tracer_bindings()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

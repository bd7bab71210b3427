"""One measured ``stardyn`` CLI call in a fresh interpreter.

Usage: python3 child.py ROOT RESULT [--import-only] [--trace SPANS]
       [--out OUTPUT] -- CLI ARGS...

Imports ``stardyn.cli`` from ``ROOT/src`` (never from an installed copy)
and times the import.  Unless ``--import-only`` is given, it then runs
``stardyn.cli.run(args)`` with standard output sent to OUTPUT and times
that call alone.  With ``--trace`` the call runs under the tracer and the
spans go to SPANS.  The measurements go to RESULT as one JSON object.

The CPU this runs on is shared, and its speed for Python code varies by
up to half within seconds; another CPU's speed does not follow it.  So
the timed regions carry their own speed gauge: every 10 ms a SIGALRM
handler times a fixed piece of pure-Python work (the probe).  The probes
sample the same CPU at the same moments as the measured code, and the
caller rescales each time to a reference probe duration.  The probe needs
``fractions``, so that module is imported before the import is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.01


def _probe_work() -> None:
    # Fraction arithmetic, as in stardyn's hot loops: an integer-only probe
    # tracked the surveys' speed far worse.
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, 31):
        acc = (acc + x * i) / (i + 1)
        x = Fraction(i % 7 + 1, i % 5 + 2) - x / 3


class SpeedProbe:
    """Times ``_probe_work`` every PROBE_INTERVAL_S while active, plus once
    on entry and once on exit (so even a short region has samples).
    ``inside_s`` is the probe time spent within the region."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.inside_s = 0.0

    def _sample(self) -> float:
        start = perf_counter()
        _probe_work()
        duration = perf_counter() - start
        self.durations.append(duration)
        return duration

    def _on_alarm(self, signum, frame) -> None:
        self.inside_s += self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def summary(self, prefix: str) -> dict:
        return {
            f"{prefix}_probe_s": sum(self.durations) / len(self.durations),
            f"{prefix}_probes": len(self.durations),
            f"{prefix}_probe_inside_s": self.inside_s,
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("result")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS")
    parser.add_argument("--out", metavar="OUTPUT")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    opts = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    src = os.path.join(opts.root, "src")
    sys.path.insert(0, src)
    with SpeedProbe() as import_probe:
        start = perf_counter()
        import stardyn.cli as cli

        import_s = perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"stardyn was imported from {cli.__file__}, not from {src}")
    result: dict = {"import_s": import_s, **import_probe.summary("import")}

    if not opts.import_only:
        tracer = None
        if opts.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        saved = sys.stdout
        with open(opts.out, "w", encoding="utf-8") as out:
            sys.stdout = out
            try:
                with SpeedProbe() as call_probe:
                    start = perf_counter()
                    code = cli.run(cli_args)
                    out.flush()
                    wall_s = perf_counter() - start
            finally:
                sys.stdout = saved
        output_bytes = os.path.getsize(opts.out)
        result.update(code=code, wall_s=wall_s, output_bytes=output_bytes,
                      **call_probe.summary("call"))
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(output_bytes)
            result["missing_targets"] = tracer.missing
            result["slowest_class"] = tracer.slowest_class()
            tracer.dump(opts.trace)

    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fast self-test of the benchmark: every workload at a tiny size, with the
timed and the traced pass, in this process.

    python3 perfbench/selftest.py

Checks that the result lines carry exactly the metrics BENCHMARK.json
names, that no span has negative self time on its thread, that only
planar-clustered calls ConvexPolygon.contains, and that every instance
verified.  Exits 1 and lists the problems otherwise.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, SRC, result_line, run_workload
from workloads import WORKLOADS


def check(name, spec):
    report, tracer = run_workload(name, seed=0, seconds=0, trace=True,
                                  tiny=True)
    problems = list(report["problems"])
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        got = set(result_line(dict(report, trace=trace))["metrics"])
        want = {m["name"] for m in spec[kind]}
        if got != want:
            problems.append("%s metrics: missing %s, unexpected %s"
                            % (kind, sorted(want - got), sorted(got - want)))
    negative = sorted({(span.name, span.thread) for span, own
                       in tracer.self_times() if own < 0})
    if negative:
        problems.append("negative self time in %s" % negative)
    contains = report["per_layer"]["geometry.contains.calls"]
    if (contains > 0) != (name == "planar-clustered"):
        problems.append("geometry.contains.calls is %g" % contains)
    return problems


def main():
    if not (SRC / "coverplex" / "cli.py").is_file():
        print("error: %s/coverplex not found" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for name in WORKLOADS:
        problems = check(name, spec)
        failed = failed or bool(problems)
        print("%-18s %s" % (name, "; ".join(problems) or "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

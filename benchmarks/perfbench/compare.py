#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 benchmarks/perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them, as run.py writes to
.perfbench/results/.  Results are compared only when their environment
blocks agree on everything but the code (Python, CPU count and model, sweep
engine, OVERLAP_ECC_NO_EXT); otherwise nothing is compared and the exit
code is 2.  For each end-to-end metric it prints both sides' median and
quartile spread and a verdict against the metric's bound in BENCHMARK.json:
``worse`` when NEW's median is worse than BASE's by more than the bound,
``unresolved`` when BASE's own spread exceeds the bound and not every NEW
run beats every BASE run, else ``ok``.  Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

COMPARABLE = ("python", "nproc", "cpu_model", "engine", "OVERLAP_ECC_NO_EXT")


def load(arg: str) -> list:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    fingerprints = {tuple((k, r["env"].get(k)) for k in COMPARABLE) for r in base + new}
    if len(fingerprints) > 1:
        print("not compared: environment blocks differ:", file=sys.stderr)
        for fp in sorted(fingerprints, key=str):
            print("  " + json.dumps(dict(fp)), file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    worse = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and r["trace"] == 0]
            b = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and r["trace"] == 0]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if lower else (ma - mb) / ma  # > 0 means worse
            beats_all = max(b) < min(a) if lower else min(b) > max(a)
            if change > bound:
                verdict = "worse"
                worse += 1
            elif spread(a) > bound and not beats_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<15} {name:<12} base {ma:<11.5g} (n={len(a)}, spread "
                  f"{spread(a):.3f})  new {mb:<11.5g} (n={len(b)}, spread {spread(b):.3f})  "
                  f"worse by {change:+.3f} (bound {bound})  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

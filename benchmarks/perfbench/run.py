#!/usr/bin/env python3
"""The overlap-ecc benchmark: one entry point for every workload.

    python3 benchmarks/perfbench/run.py --workload sweep-full --seed 1 --seconds 32 --trace 0

Run from the root of a checkout (it builds nothing: the program is the
Python package under src/).  For about --seconds seconds it runs rounds of
the workload, with the set-up samples spread between them, checks every
output, prints each metric with its unit, writes the full result (with an
environment block) to .perfbench/results/, and prints one JSON line last.
--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics: layer probes, plus spans recorded around the workload's calls into
each layer, the time no span covers and the tracing overhead.  See
benchmarks/perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from time import perf_counter

import probes
import workloads

SETUP_REPS = 24
# Latencies kept per operation kind and run: enough for stable percentiles,
# and a cap so that the benchmark's own memory (part of peak_rss_mb on
# codec-stream) does not grow with the program's speed.
LATENCY_SAMPLES = 30_000
SETUP_CODE = (
    "import time; t = time.perf_counter(); import overlap_ecc.cli; "
    "i = time.perf_counter() - t; "
    "from overlap_ecc.code import BUILTIN_NAMES, builtin_config; "
    "[builtin_config(n) for n in BUILTIN_NAMES]; print(i)"
)


def quantile(values, q: int) -> float:
    """The q-th percentile by nearest rank: always one of the samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def environment(root: Path) -> dict:
    """What a result depends on besides the code; results differing here are not compared."""
    from overlap_ecc import active_kernel

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev, dirty = None, None
    if (root / ".git").exists():
        git = ["git", "--git-dir", str(root / ".git"), "--work-tree", str(root)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            rev, dirty = head.stdout.strip(), bool(status.stdout.strip())
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "engine": active_kernel(),
        "OVERLAP_ECC_NO_EXT": os.environ.get("OVERLAP_ECC_NO_EXT"),
        "git_rev": rev,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
    }


class Setup:
    """Set-up samples: fresh interpreters import overlap_ecc.cli and build the builtin configs.

    The SETUP_REPS timed samples are spread over the run, between rounds, so
    that they meet the same machine as the rounds do.
    """

    def __init__(self, runner: workloads.Runner):
        self.runner = runner
        self.argv = [sys.executable, "-c", SETUP_CODE]
        runner.spawn(self.argv)  # first import writes bytecode caches; not timed
        self.walls, self.imports, self.problems = [], [], []

    def catch_up(self, share: float) -> None:
        """Take samples until at least `share` of SETUP_REPS are done."""
        while len(self.walls) < min(SETUP_REPS, math.ceil(share * SETUP_REPS)):
            elapsed, code, stdout, stderr, _rss = self.runner.spawn(self.argv)
            self.walls.append(elapsed)
            if code != 0:
                self.problems.append(
                    f"setup: exit {code}: {stderr.decode(errors='replace')[-200:]}")
            else:
                self.imports.append(float(stdout))

    def remaining_s(self) -> float:
        """Estimated time of the samples still due."""
        each = statistics.median(self.walls) if self.walls else 0.0
        return (SETUP_REPS - len(self.walls)) * each

    def setup_s(self) -> float:
        return statistics.median(self.walls)

    def import_s(self) -> float:
        return statistics.median(self.imports) if self.imports else float("nan")


class Session:
    """Runs rounds of one workload; cli workloads spawn children, codec runs in-process."""

    def __init__(self, workload: str, runner: workloads.Runner, seed: int):
        self.workload = workload
        self.runner = runner
        if workload == "codec-stream":
            from overlap_ecc import code
            self.code = code
            self.rng = random.Random(seed)
            self.cfgs = [code.builtin_config(n) for n in code.BUILTIN_NAMES]
        else:
            self.ops = workloads.cli_ops(workload)

    def round(self, traced: bool) -> workloads.Round:
        if self.workload == "codec-stream":
            rnd = workloads.codec_round(self.code, self.rng, self.cfgs, traced)
            rnd.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return rnd
        return self.runner.cli_round(self.ops, traced)


class LatencySample:
    """Every stride-th latency of a run, with at most `cap` kept.

    When full, every other kept value is dropped and the stride doubles, so
    the sample always spreads evenly over the whole run.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.values = array("d")
        self.stride = 1
        self.seen = 0

    def add(self, value: float) -> None:
        if self.seen % self.stride == 0:
            self.values.append(value)
            if len(self.values) > self.cap:
                self.values = self.values[::2]
                self.stride *= 2
        self.seen += 1


def run_rounds(session: Session, setup: Setup, t0: float, seconds: float,
               kinds: tuple) -> tuple:
    """Rounds cycling through kinds (False plain, True traced) until `seconds` after t0.

    Before each round, set-up samples are taken until their share of
    SETUP_REPS matches the share of the time used.  Another round starts only
    if the median round of its kind and the set-up samples still due fit in
    the time left, and every kind runs at least once.  Returns the rounds by
    kind, and per operation kind a sample of the plain rounds' latencies.
    """
    done = {kind: [] for kind in kinds}
    latencies = {}
    for i in itertools.count():
        setup.catch_up((perf_counter() - t0) / seconds)
        kind = kinds[i % len(kinds)]
        if all(done.values()):
            est = statistics.median(r.wall_s for r in done[kind]) + setup.remaining_s()
            if perf_counter() - t0 + est > seconds:
                break
        rnd = session.round(kind)
        if not kind:
            for op_kind, values in rnd.latencies.items():
                sample = latencies.setdefault(op_kind, LatencySample(LATENCY_SAMPLES))
                for x in values:
                    sample.add(x)
        rnd.latencies = None
        done[kind].append(rnd)
    setup.catch_up(1.0)
    return done, {op_kind: sample.values for op_kind, sample in latencies.items()}


def summary_e2e(rounds: list, lat: dict, setup: Setup, workload: str) -> tuple:
    """End-to-end metrics; an op percentile is the mean of each operation kind's."""
    run_s = statistics.median(r.wall_s for r in rounds)
    items_per_s = statistics.median(r.items / r.wall_s for r in rounds)
    metrics = {
        "setup_s": (setup.setup_s(), "s"),
        "run_s": (run_s, "s"),
        "op_p50_ms": (statistics.mean(statistics.median(v) for v in lat.values()) * 1e3, "ms"),
        "peak_rss_mb": (max(r.peak_rss_kb for r in rounds) / 1024, "MB"),
    }
    extra = {"ops": (sum(r.attempted for r in rounds), "count")}
    # at least ten samples beyond the 90th percentile of every kind
    if all(len(v) >= 100 for v in lat.values()):
        extra["op_p90_ms"] = (statistics.mean(quantile(v, 90) for v in lat.values()) * 1e3, "ms")
    if workload.startswith("sweep"):
        extra["patterns_per_s"] = (items_per_s, "1/s")
    elif workload == "codec-stream":
        extra["words_per_s"] = (items_per_s, "1/s")
    return metrics, extra


def summary_trace(plain: list, traced: list, setup: Setup, probe_metrics: dict,
                  workload: str) -> tuple:
    wall_plain = statistics.median(r.wall_s for r in plain)
    wall_traced = statistics.median(r.wall_s for r in traced)
    traced_wall = sum(r.wall_s for r in traced)
    metrics = {"cli.import_ms": (setup.import_s() * 1e3, "ms"), **probe_metrics}
    metrics["kernel.chunks"] = (statistics.median(r.chunks for r in traced), "count")
    metrics["trace.spans"] = (statistics.median(sum(s["spans"] for s in r.spans)
                                                for r in traced), "count")
    metrics["trace.uncovered_pct"] = (
        100 * sum(r.uncovered_s for r in traced) / traced_wall, "%")
    metrics["trace.overhead_pct"] = (100 * (wall_traced / wall_plain - 1), "%")

    # Workload breakdown: self time per layer per traced round, and cell times.
    extra = {}
    layers = {}
    for r in traced:
        for s in r.spans:
            for layer, sec in s["self_s"].items():
                layers[layer] = layers.get(layer, 0.0) + sec
    for layer, sec in sorted(layers.items()):
        extra[f"self_ms.{layer}"] = (sec / len(traced) * 1e3, "ms")
    extra["uncovered_ms"] = (sum(r.uncovered_s for r in traced) / len(traced) * 1e3, "ms")
    extra["run_s.untraced"] = (wall_plain, "s")
    extra["run_s.traced"] = (wall_traced, "s")
    if workload == "sweep-full":
        per_cell = {}
        for r in traced:
            for s in r.spans:
                for cell, sec in zip(workloads.SWEEP_ALL_CELLS, s["sweep_s"]):
                    per_cell.setdefault(cell, []).append(sec)
        for (c, reg), secs in per_cell.items():
            extra[f"injection.cell_s.{c}.{reg}"] = (statistics.median(secs), "s")
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="overlap-ecc benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "overlap_ecc" / "cli.py").is_file():
        print(f"error: no overlap_ecc package under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    scratch = root / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)

    env = environment(root)
    runner = workloads.Runner(root, scratch)
    setup = Setup(runner)
    session = Session(args.workload, runner, args.seed)

    problems, attempted, failed = [], 0, 0
    t0 = perf_counter()
    if args.trace:
        probe_metrics, probe_problems, probe_attempted, probe_extra = probes.run_probes(args.seed)
        done, _latencies = run_rounds(session, setup, t0, args.seconds, (False, True))
        metrics, extra = summary_trace(done[False], done[True], setup, probe_metrics,
                                       args.workload)
        extra.update(probe_extra)
        problems += probe_problems
        attempted += probe_attempted
        failed += len(probe_problems)
        rounds = done[False] + done[True]
    else:
        done, latencies = run_rounds(session, setup, t0, args.seconds, (False,))
        rounds = done[False]
        metrics, extra = summary_e2e(rounds, latencies, setup, args.workload)
    problems += setup.problems
    attempted += len(setup.walls)
    failed += len(setup.problems)
    for r in rounds:
        problems += r.problems
        attempted += r.attempted
        failed += r.failed

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  engine {env['engine']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<36} {failed / attempted:>16.6g} ratio ({failed}/{attempted} failed)")
    for p in problems[:20]:
        print(f"  FAIL {p}")

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "rounds": len(rounds),
        "round_s": [r.wall_s for r in rounds],
        "setup_samples_s": setup.walls,
        "attempted": attempted, "failed": failed, "problems": problems[:100],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"result written to {out.relative_to(root)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: their operations, golden outputs and correctness checks.

Every CLI operation runs ``python -m overlap_ecc.cli`` (or the traced shim)
as a child of the benchmark process, one after another.  Its report must
hash to the golden SHA-256 taken at commit 1259363, its stderr manifest must
carry that same hash under ``outputs``, and it must exit 0.  codec-stream
runs inside the benchmark process and checks the codec's guarantee on every
word instead: weight <= 2 restores the data exactly, weight 1..3 is
detected, weight 0 is clean.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing

WORKLOADS = ("sweep-full", "sweep-targeted", "codec-stream", "design-explore")

SWEEP_ALL_SHA = "f439648241b7d67b3d8239fc68107b71a919c3f3c6cd9fdce20bd66695c8696f"
# The cells sweep --all runs, in order: one sweep() call each.
SWEEP_ALL_CELLS = [(c, r) for c in ("2x2", "3x3", "4x4") for r in ("data", "check", "codestruct")]

# sweep --code C --region R --injector I --errors 1..3 --format json
TARGETED_SHA = {
    ("2x2", "data", "mirror"): "d8f7ad7c9aafcb5253decdb094c9f2fa08111a2112fd1589de2255684e5cc641",
    ("2x2", "data", "flip"): "d8f7ad7c9aafcb5253decdb094c9f2fa08111a2112fd1589de2255684e5cc641",
    ("2x2", "check", "mirror"): "e6c5ec42d9dbb099c196e195b995fc651473ac04172d1308146d0c32123fb69c",
    ("2x2", "check", "flip"): "e6c5ec42d9dbb099c196e195b995fc651473ac04172d1308146d0c32123fb69c",
    ("2x2", "codestruct", "mirror"): "e870efadca92f256cc22d845bcd550f30e6fa54180db1719946f857947837e52",
    ("2x2", "codestruct", "flip"): "cc38303403fe8a87dc1d8b623193359e28c3982e4c4adb6cad9c1c4c46d7dda0",
    ("3x3", "data", "mirror"): "9803c45829641d2297a95e83eb1293e511899aa9b57670442de8ba8eab962ddd",
    ("3x3", "data", "flip"): "9803c45829641d2297a95e83eb1293e511899aa9b57670442de8ba8eab962ddd",
    ("3x3", "check", "mirror"): "3c1da6952814c4f71853d014de9c00e181122f14a0aea1690ac8ec75e5255f35",
    ("3x3", "check", "flip"): "3c1da6952814c4f71853d014de9c00e181122f14a0aea1690ac8ec75e5255f35",
    ("3x3", "codestruct", "mirror"): "a0edcd36f8aeea197d1f81c881a6b6a1bb5e50dfc988d88e475b0c975db9fd8c",
    ("3x3", "codestruct", "flip"): "24267c1b4d7cbb484ae8e09652443bff6cddfffdc51404e13dfbac2e10615b61",
    ("4x4", "data", "mirror"): "3a396ed5ee8333d709be2340a84a561fcec70b27b88a98594737614d2b203c98",
    ("4x4", "data", "flip"): "3a396ed5ee8333d709be2340a84a561fcec70b27b88a98594737614d2b203c98",
    ("4x4", "check", "mirror"): "a1ce3ee5723aaafac1725f82137e501f3514e8124103bfc84971a24702829c7b",
    ("4x4", "check", "flip"): "a1ce3ee5723aaafac1725f82137e501f3514e8124103bfc84971a24702829c7b",
    ("4x4", "codestruct", "mirror"): "d9e3235e8353b0ed67a642fc78aeffbfa15696c293d9e6c9b98847277504997d",
    ("4x4", "codestruct", "flip"): "5766945da9ecf7bb024ea63bb4922817a47e51fc183878583fe39bb3ea4869cc",
}

# (m, k, seed) -> (report sha256, explored states).  Seeds are pinned:
# m=25 at the CLI default seed 0 takes about a minute, seed 1 a third of a second.
SEARCH_PROBLEMS = {
    (23, 5, 0): ("9ef14d145061ab83649702b8815f0b25e3c0de8fb5b1a3d05e13b3f4d059fa0f", 68751),
    (25, 5, 1): ("b55d5f7e935b27f5104faf79457761b625dbe290a65dc93e89fa6d95f1d43afe", 34693),
    (25, 5, 3): ("a264c081179d83ae4186508d6fe44e68f4202d5440976545460f4da136822ef1", 59938),
    (41, 6, 0): ("f78f0a592c700697df1dc90660a9cebb5b4af71968ebff2410f55cef005cea37", 187200),
    (64, 7, 0): ("e825eb0166c872725d5f9d73d4ebde90988cd54d7dfb8d2836236b65068505d4", 51469),
    (70, 7, 0): ("7a19b4a9bbc8a1b019bbad18427fbbd917c27c928cff359daa2fb02860a95d76", 51620),
}
VERIFY_4X4_SHA = "ccee081c0f81a860026702f5f5b92db200505c1fa3ba11b3d6adf0330f2629bf"
RELIABILITY_4X4_SHA = "e6bf7d7f3db0b44a5c61b68935b415e6378152236c9c9dd554198754d840eb6e"
SCALABILITY_7_SHA = "e5d1b0652b200706102254c04502ea024d932923bd6eba72531803eb2927f92f"

# Words per codec-stream round: an equal share for each builtin code.
CODEC_WORDS_PER_ROUND = 1800


@dataclass(frozen=True)
class CliOp:
    label: str
    args: tuple
    golden: str


def cli_ops(workload: str) -> list:
    """One round of a CLI workload, in the order it runs."""
    if workload == "sweep-full":
        return [CliOp("sweep --all", ("sweep", "--all"), SWEEP_ALL_SHA)]
    if workload == "sweep-targeted":
        # One worker: with two workers on two CPUs the pool's cost swung with
        # host load (10-run quartile spread 0.20-0.25, against 0.09 with one).
        # The pool is timed by the injection.pool_ms probe instead.
        return [CliOp(f"sweep {c} {r} {i}",
                      ("sweep", "--code", c, "--region", r, "--injector", i,
                       "--errors", "1..3", "--workers", "1", "--format", "json"), sha)
                for (c, r, i), sha in TARGETED_SHA.items()]
    if workload == "design-explore":
        ops = [CliOp(f"search {m}-{k}-{s}",
                     ("search", "--m", str(m), "--k", str(k), "--seed", str(s)), sha)
               for (m, k, s), (sha, _states) in SEARCH_PROBLEMS.items()]
        return ops + [
            CliOp("verify-maps 4x4", ("verify-maps", "--builtin", "4x4"), VERIFY_4X4_SHA),
            CliOp("reliability 4x4", ("reliability", "--code", "4x4", "--step", "1"),
                  RELIABILITY_4X4_SHA),
            CliOp("scalability 7", ("scalability", "--max", "7"), SCALABILITY_7_SHA),
        ]
    raise ValueError(f"{workload} has no CLI operations")


def manifest_of(stderr: str) -> dict | None:
    """The JSON manifest the CLI prints last on stderr, after any warnings."""
    lines = stderr.splitlines()
    for i, line in enumerate(lines):
        if line == "{":
            try:
                return json.loads("\n".join(lines[i:]))
            except json.JSONDecodeError:
                return None
    return None


def check_cli_output(op: CliOp, returncode: int, stdout: bytes, stderr: bytes) -> list:
    """Problems with one CLI operation's result; empty when it is correct."""
    problems = []
    if returncode != 0:
        problems.append(f"{op.label}: exit {returncode}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != op.golden:
        problems.append(f"{op.label}: report sha256 {digest[:12]} != golden {op.golden[:12]}")
    man = manifest_of(stderr.decode("utf-8", "replace"))
    if man is None or man.get("outputs", {}).get("stdout") != op.golden:
        problems.append(f"{op.label}: manifest outputs hash does not match the golden report")
    return problems


def patterns_in(stdout: bytes) -> int:
    """Sum of the ``combinations`` column of a sweep report (CSV or JSON)."""
    text = stdout.decode("utf-8", "replace")
    if text.startswith("{"):
        return sum(r["combinations"] for r in json.loads(text)["reports"])
    return sum(int(row["combinations"]) for row in csv.DictReader(io.StringIO(text)))


@dataclass
class Round:
    """What one round of a workload did, and how long it took."""

    wall_s: float = 0.0
    latencies: dict = field(default_factory=dict)   # operation kind -> seconds each
    items: int = 0            # decoded patterns, words, or operations
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_rss_kb: int = 0
    spans: list = field(default_factory=list)   # one summarize() per traced op
    uncovered_s: float = 0.0
    chunks: int = 0


class Runner:
    """Runs operations of the program under test from a checkout's root."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def spawn(self, argv: list) -> tuple:
        """Run argv to completion: (seconds, exit code, stdout, stderr, max RSS in KB)."""
        with tempfile.TemporaryFile(dir=self.scratch) as out, \
                tempfile.TemporaryFile(dir=self.scratch) as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            elapsed = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return elapsed, proc.returncode, out.read(), err.read(), usage.ru_maxrss

    def cli_round(self, ops: list, traced: bool) -> Round:
        rnd = Round()
        spans_file = self.scratch / "spans.json"
        t_round = perf_counter()
        for op in ops:
            if traced:
                argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                        str(spans_file), *op.args]
            else:
                argv = [sys.executable, "-m", "overlap_ecc.cli", *op.args]
            elapsed, code, stdout, stderr, rss = self.spawn(argv)
            rnd.latencies.setdefault("cli", []).append(elapsed)
            rnd.attempted += 1
            problems = check_cli_output(op, code, stdout, stderr)
            rnd.failed += bool(problems)
            rnd.problems += problems
            rnd.peak_rss_kb = max(rnd.peak_rss_kb, rss)
            if not problems:  # a failed report is not parsed; its work does not count
                rnd.items += patterns_in(stdout) if op.args[0] == "sweep" else 1
            if traced and spans_file.exists():
                dump = json.loads(spans_file.read_text())
                spans_file.unlink()
                summary = tracing.summarize(dump["spans"])
                rnd.spans.append(summary)
                rnd.uncovered_s += elapsed - summary["covered_s"]
                rnd.chunks += summary["kernel_calls"] + dump["counts"].get("kernel.pooled_chunks", 0)
        rnd.wall_s = perf_counter() - t_round
        return rnd


# --- codec-stream ----------------------------------------------------------

def codec_batch(rng: random.Random, cfgs: list, size: int) -> list:
    """Random words, size // len(cfgs) of each config, in random order.

    A word is (config, payload bits, error weight, hex-form error mask).
    """
    batch = []
    for cfg in [c for c in cfgs for _ in range(size // len(cfgs))]:
        data = tuple(rng.getrandbits(1) for _ in range(cfg.m))
        weight = rng.randrange(4)
        total = 4 * ((cfg.n + 3) // 4)
        mask = 0
        for p in rng.sample(range(cfg.n), weight):
            mask |= 1 << (total - 1 - p)
        batch.append((cfg, data, weight, mask))
    rng.shuffle(batch)
    return batch


def round_trip(code, cfg, data, mask):
    """Write path (encode, to_hex), corruption of the stored hex, read path."""
    stored = code.encode(cfg, data).to_hex()
    corrupted = format(int(stored, 16) ^ mask, f"0{len(stored)}x")
    return code.decode(cfg, code.Codestruct.from_hex(corrupted, cfg.m, cfg.k))


def codec_problem(data, weight: int, out) -> str | None:
    if weight <= 2 and out.data != data:
        return f"weight-{weight} error not corrected"
    if weight >= 1 and not out.detected:
        return f"weight-{weight} error not detected"
    if weight == 0 and out.detected:
        return "clean word flagged as corrupted"
    return None


def codec_round(code, rng: random.Random, cfgs: list, traced: bool) -> Round:
    """CODEC_WORDS_PER_ROUND round trips, each timed; checks run after timing."""
    batch = codec_batch(rng, cfgs, CODEC_WORDS_PER_ROUND)
    rnd = Round(attempted=len(batch))
    latencies = {cfg.name: [] for cfg in cfgs}
    outs = []
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer) if traced else None
    try:
        t_round = perf_counter()
        for cfg, data, _weight, mask in batch:
            t0 = perf_counter()
            out = round_trip(code, cfg, data, mask)
            latencies[cfg.name].append(perf_counter() - t0)
            outs.append(out)
        rnd.wall_s = perf_counter() - t_round
    finally:
        if uninstall:
            uninstall()
    for (cfg, data, weight, _mask), out in zip(batch, outs):
        problem = codec_problem(data, weight, out)
        if problem:
            rnd.failed += 1
            rnd.problems.append(f"{cfg.name}: {problem}")
    rnd.latencies = latencies
    rnd.items = rnd.attempted - rnd.failed
    if traced:
        summary = tracing.summarize(tracer.records())
        rnd.spans.append(summary)
        rnd.uncovered_s = rnd.wall_s - summary["covered_s"]
    return rnd

#!/usr/bin/env python3
"""Harness self-test: the benchmark's checks must fail on wrong output.

    python3 benchmarks/perfbench/selftest.py

Runs real operations through the same round functions the benchmark uses,
once clean and once with a fault injected between the program and the
checks: a corrupted report byte, a manifest whose ``outputs`` hash
disagrees, a non-zero exit, a decoder that returns wrong data, and a decoder
that misses an error.  Every clean round must have error_rate 0 and every
faulty one error_rate > 0.  Exits 1 if any case disagrees.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[2]


def error_rate(rnd: workloads.Round) -> float:
    return rnd.failed / rnd.attempted


def faulty_spawn(runner: workloads.Runner, fault):
    real = runner.spawn

    def spawn(argv):
        elapsed, code, stdout, stderr, rss = real(argv)
        return (elapsed, *fault(code, stdout, stderr), rss)
    return spawn


def corrupt_report(code, stdout, stderr):
    return code, stdout[:-2] + bytes([stdout[-2] ^ 1]) + stdout[-1:], stderr


def wrong_manifest(code, stdout, stderr):
    return code, stdout, stderr.replace(b'"stdout": "', b'"stdout": "0')


def nonzero_exit(code, stdout, stderr):
    return 1, stdout, stderr


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from overlap_ecc import code

    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = workloads.Runner(ROOT, scratch)
    ops = workloads.cli_ops("sweep-targeted")[:2]
    cases = []

    cases.append(("cli clean", runner.cli_round(ops, traced=False), False))
    traced = runner.cli_round(ops, traced=True)
    cases.append(("cli clean, traced", traced, False))
    for fault in (corrupt_report, wrong_manifest, nonzero_exit):
        runner.spawn = faulty_spawn(runner, fault)
        cases.append((f"cli {fault.__name__}", runner.cli_round(ops, traced=False), True))
        del runner.spawn

    cfgs = [code.builtin_config(n) for n in code.BUILTIN_NAMES]
    rng = random.Random(0)
    cases.append(("codec clean", workloads.codec_round(code, rng, cfgs, False), False))
    real_decode = code.decode
    faults = {
        "codec wrong data": lambda out: dataclasses.replace(
            out, data=(1 - out.data[0],) + out.data[1:]),
        "codec missed detection": lambda out: dataclasses.replace(out, detected=False),
    }
    for label, fault in faults.items():
        code.decode = lambda cfg, cs, fault=fault: fault(real_decode(cfg, cs))
        try:
            cases.append((label, workloads.codec_round(code, rng, cfgs, False), True))
        finally:
            code.decode = real_decode

    bad = 0
    if len(traced.spans) != len(ops):
        bad += 1
        print(f"FAIL traced round recorded spans for {len(traced.spans)} of {len(ops)} ops")
    for label, rnd, want_failure in cases:
        rate = error_rate(rnd)
        ok = (rate > 0) == want_failure
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label:<28} error_rate {rate:.4f} "
              f"({rnd.failed}/{rnd.attempted}){'' if ok else '  expected the opposite'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

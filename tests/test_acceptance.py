"""Acceptance gate: one test per shipping criterion.

`pytest -v tests/test_acceptance.py` yields exactly one pass/fail line
per criterion.  Each test also prints a `criterion N: PASS` summary
(visible with -s, or in the captured-output section when it fails).

Reference numbers live at the top of the file: exhaustive combination
counts, the correction/detection-rate tables the builtin codes are
expected to land on, and the redundancy-cost table.  Tolerances differ
by code: the 3x3 maps are fixed so its column must match to rounding;
the 2x2/4x4 maps are our own search products, so 3+-error aliasing may
legitimately differ by a few points.
"""

import math
import random
import time

import pytest
from reference import (
    HAM74_ADDRESS_TO_POSITION,
    apply_pattern,
    enumerate_patterns,
    ham74_encode,
    ham74_error_address,
    ham74_syndrome,
    mc_miss,
)

from overlap_ecc.code import builtin_config, decode, encode
from overlap_ecc.injection import Region, sweep
from overlap_ecc.reliability import ReliabilityParams, reliability_at
from overlap_ecc.scalability import compare, comparison_to_csv, overlapped_cost
from overlap_ecc.search import validate_assignment

CODES = ("2x2", "3x3", "4x4")
REGIONS = (Region.DATA, Region.CHECK, Region.CODESTRUCT)

# C(region size, e) for e = 1..8; zeros mark infeasible weights.
COMBINATIONS = {
    ("2x2", "data"): (4, 6, 4, 1, 0, 0, 0, 0),
    ("3x3", "data"): (9, 36, 84, 126, 126, 84, 36, 9),
    ("4x4", "data"): (16, 120, 560, 1820, 4368, 8008, 11440, 12870),
    ("2x2", "check"): (8, 28, 56, 70, 56, 28, 8, 1),
    ("3x3", "check"): (10, 45, 120, 210, 252, 210, 120, 45),
    ("4x4", "check"): (12, 66, 220, 495, 792, 924, 792, 495),
    ("2x2", "codestruct"): (12, 66, 220, 495, 792, 924, 792, 495),
    ("3x3", "codestruct"): (19, 171, 969, 3876, 11628, 27132, 50388, 75582),
    ("4x4", "codestruct"): (28, 378, 3276, 20475, 98280, 376740, 1184040, 3108105),
}

# Correction rate (%) per error weight 1..8, trimmed to feasible weights.
CORRECTION = {
    ("2x2", "data"): (100.00, 100.00, 0.00, 0.00),
    ("3x3", "data"): (100.00, 100.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00),
    ("4x4", "data"): (100.00, 100.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00),
    ("2x2", "check"): (100.00, 100.00, 100.00, 91.43, 71.43, 53.57, 62.50, 100.00),
    ("3x3", "check"): (100.00, 100.00, 100.00, 90.00, 69.84, 56.67, 61.67, 75.56),
    ("4x4", "check"): (100.00, 100.00, 100.00, 90.30, 73.11, 64.94, 67.30, 69.49),
    ("2x2", "codestruct"): (100.00, 100.00, 40.45, 17.78, 8.84, 3.57, 1.01, 0.20),
    ("3x3", "codestruct"): (100.00, 100.00, 24.87, 9.11, 3.56, 1.04, 0.28, 0.11),
    ("4x4", "codestruct"): (100.00, 100.00, 19.57, 5.09, 1.99, 0.87, 0.19, 0.03),
}

# Detection rate (%) for the 3x3 codestruct tail, e = 5..8.
DETECTION_3X3_CS_TAIL = (99.92, 99.90, 99.91, 99.91)

# Redundancy cost of the overlapped scheme on square areas 2x2..7x7.
OVERLAPPED_COSTS = (
    (8, 12, 0.67), (10, 19, 0.53), (12, 28, 0.43),
    (12, 37, 0.32), (14, 50, 0.28), (14, 63, 0.22),
)

BASELINE_CSV = """\
size,N,ecc,check_bits,total_bits,rc
2x2,4,Matrix,8,12,0.67
2x2,4,PBD,5,9,0.56
2x2,4,CLC,14,18,0.78
3x3,9,Matrix,12,21,0.57
3x3,9,PBD,12,21,0.57
3x3,9,CLC,19,28,0.68
4x4,16,Matrix,16,32,0.50
4x4,16,PBD,20,36,0.56
4x4,16,CLC,24,40,0.60
5x5,25,Matrix,25,50,0.50
5x5,25,PBD,32,57,0.56
5x5,25,CLC,35,60,0.58
6x6,36,Matrix,30,66,0.45
6x6,36,PBD,45,81,0.56
6x6,36,CLC,41,77,0.53
7x7,49,Matrix,35,84,0.42
7x7,49,PBD,62,111,0.56
7x7,49,CLC,47,96,0.49
"""

_CACHE = {}


def matrix():
    """Exhaustive sweep of every feasible (code, region, weight) cell, once."""
    if not _CACHE:
        reports, timings = {}, {}
        for name in CODES:
            cfg = builtin_config(name)
            for region in REGIONS:
                size = len(region.positions(cfg.m, cfg.n))
                t0 = time.perf_counter()
                for rep in sweep(cfg, region, 1, min(8, size), workers=1):
                    reports[(name, region.value, rep.errors)] = rep
                timings[(name, region.value)] = time.perf_counter() - t0
        _CACHE["reports"] = reports
        _CACHE["timings"] = timings
    return _CACHE


def feasible(name, region_value):
    counts = COMBINATIONS[(name, region_value)]
    return [e for e in range(1, 9) if counts[e - 1] > 0]


def test_criterion_01_combination_counts():
    t0 = time.perf_counter()
    for name in CODES:
        cfg = builtin_config(name)
        for region in REGIONS:
            size = len(region.positions(cfg.m, cfg.n))
            for e in range(1, 9):
                want = COMBINATIONS[(name, region.value)][e - 1]
                assert math.comb(size, e) == want, (name, region.value, e)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"combination counts took {elapsed:.3f}s"
    # The streaming enumerator must agree with the closed form on every
    # cell small enough to walk inside the time budget.
    for (name, rv), counts in COMBINATIONS.items():
        cfg = builtin_config(name)
        region = Region(rv)
        size = len(region.positions(cfg.m, cfg.n))
        for e, want in enumerate(counts, start=1):
            if 0 < want <= 4000:
                got = sum(1 for _ in enumerate_patterns(size, e))
                assert got == want, (name, rv, e)
    print("criterion 1: PASS - all 72 combination counts exact "
          f"({elapsed * 1000:.1f} ms)")


def test_criterion_02_single_and_double_always_corrected():
    reports = matrix()["reports"]
    for name in CODES:
        for region in REGIONS:
            for e in (1, 2):
                rep = reports[(name, region.value, e)]
                assert rep.decodings == COMBINATIONS[(name, region.value)][e - 1]
                assert rep.corrected == rep.decodings, (name, region.value, e)
    print("criterion 2: PASS - correction 100.00 for 1-2 errors in all 9 cells")


def test_criterion_03_3x3_column_exact():
    reports = matrix()["reports"]
    worst = 0.0
    for region in REGIONS:
        refs = CORRECTION[("3x3", region.value)]
        for e in feasible("3x3", region.value):
            rep = reports[("3x3", region.value, e)]
            dev = abs(round(rep.correction_rate, 2) - refs[e - 1])
            worst = max(worst, dev)
            assert dev <= 0.01, (region.value, e, rep.correction_rate, refs[e - 1])
    print(f"criterion 3: PASS - 3x3 correction columns exact (max dev {worst:.2f} pp)")


def test_criterion_04_2x2_and_4x4_columns_within_tolerance():
    cache = matrix()
    reports, timings = cache["reports"], cache["timings"]
    worst = 0.0
    for name in ("2x2", "4x4"):
        for region in REGIONS:
            refs = CORRECTION[(name, region.value)]
            for e in feasible(name, region.value):
                rep = reports[(name, region.value, e)]
                if e <= 2:
                    assert rep.corrected == rep.decodings, (name, region.value, e)
                else:
                    dev = abs(rep.correction_rate - refs[e - 1])
                    worst = max(worst, dev)
                    assert dev <= 3.0, (name, region.value, e, rep.correction_rate)
    elapsed = timings[("4x4", "codestruct")]
    assert elapsed < 120.0, f"4x4 codestruct sweep took {elapsed:.1f}s single-threaded"
    print(f"criterion 4: PASS - 2x2/4x4 within 3.0 pp (max dev {worst:.2f} pp), "
          f"C(28,1..8) sweep {elapsed:.2f}s single-threaded")


def test_criterion_05_detection():
    reports = matrix()["reports"]
    for name in CODES:
        for region in REGIONS:
            for e in feasible(name, region.value):
                rep = reports[(name, region.value, e)]
                if e <= 4:
                    assert rep.detected == rep.decodings, (name, region.value, e)
                if region is Region.CHECK:
                    assert rep.detected == rep.decodings, (name, e)
    for e, ref in zip((5, 6, 7, 8), DETECTION_3X3_CS_TAIL):
        rep = reports[("3x3", "codestruct", e)]
        assert abs(round(rep.detection_rate, 2) - ref) <= 0.05, (e, rep.detection_rate)
    print("criterion 5: PASS - detection 100.00 for 1-4 errors everywhere, "
          "check region 100.00 at all weights, 3x3 tail within 0.05 pp")


def test_criterion_06_redundancy_costs():
    for side, (cb, cs, rc) in zip(range(2, 8), OVERLAPPED_COSTS):
        row = overlapped_cost(side, side)
        assert (row.check_bits, row.total_bits, row.rc) == (cb, cs, rc), side
    baselines = [r for r in compare(7) if r.ecc != "overlapped"]
    assert comparison_to_csv(baselines) == BASELINE_CSV
    print("criterion 6: PASS - overlapped cost column exact, baselines byte-equal")


def test_criterion_07_reliability_anchors():
    eps = tuple(v / 100 for v in CORRECTION[("3x3", "codestruct")])
    lam = 1e-5
    r_2x2 = reliability_at(ReliabilityParams(12, lam, eps), 20000)
    r_4x4 = reliability_at(ReliabilityParams(28, lam, eps), 20000)
    assert r_2x2 > 0.60, r_2x2
    assert 0.15 <= r_4x4 <= 0.25, r_4x4

    params = ReliabilityParams(19, lam, eps)
    for t in (1000, 10000):
        mc, se = mc_miss(params, t, trials=10**6, seed=20260816 + t)
        analytic = 1.0 - reliability_at(params, t)
        assert abs(analytic - mc) <= 3 * se, (t, analytic, mc, se)
    print(f"criterion 7: PASS - r(20000) anchors {r_2x2:.4f} / {r_4x4:.4f}, "
          "Monte-Carlo agreement within 3 sigma at t=1000 and t=10000")


def test_criterion_08_property_suites():
    rng = random.Random(8)

    # 1,000 clean round-trips per code.
    for name in CODES:
        cfg = builtin_config(name)
        for _ in range(1000):
            data = tuple(rng.getrandbits(1) for _ in range(cfg.m))
            out = decode(cfg, encode(cfg, data))
            assert out.data == data and not out.detected

    # Exhaustive 1- and 2-error correction on a random payload per code.
    for name in CODES:
        cfg = builtin_config(name)
        data = tuple(rng.getrandbits(1) for _ in range(cfg.m))
        clean = encode(cfg, data)
        for e in (1, 2):
            for pattern in enumerate_patterns(cfg.n, e):
                out = decode(cfg, apply_pattern(clean, pattern, Region.CODESTRUCT))
                assert out.data == data, (name, pattern)

    # Translation invariance: outcome flags ignore payload content.
    for _ in range(100):
        name = rng.choice(CODES)
        cfg = builtin_config(name)
        e = rng.randint(1, 5)
        pattern = tuple(sorted(rng.sample(range(cfg.n), e)))
        flags = []
        for _ in range(2):
            data = tuple(rng.getrandbits(1) for _ in range(cfg.m))
            out = decode(cfg, apply_pattern(encode(cfg, data), pattern,
                                            Region.CODESTRUCT))
            flags.append((out.data == data, out.detected, out.kind))
        assert flags[0] == flags[1], (name, pattern)

    # Builtin address maps are collision-free.
    for name in CODES:
        cfg = builtin_config(name)
        assert validate_assignment(cfg.outer, cfg.inner).ok, name

    # Sweep tallies do not depend on the worker count.
    cfg = builtin_config("3x3")
    base = [(r.decodings, r.corrected, r.detected)
            for r in sweep(cfg, Region.CODESTRUCT, 1, 4, workers=1)]
    for workers in (2, 8):
        got = [(r.decodings, r.corrected, r.detected)
               for r in sweep(cfg, Region.CODESTRUCT, 1, 4, workers=workers)]
        assert got == base, workers
    print("criterion 8: PASS - round-trips, exhaustive 1-2 error correction, "
          "translation invariance, map validity, worker determinism")


def test_criterion_09_ham74_oracle():
    assert ham74_encode((1, 0, 0, 0)) == (1, 0, 0, 0, 0, 1, 1)

    word = list(ham74_encode((1, 0, 0, 0)))
    word[1] ^= 1  # d1
    assert ham74_error_address(ham74_syndrome(tuple(word))) == 5

    for value in range(16):
        data = tuple((value >> (3 - i)) & 1 for i in range(4))
        clean = ham74_encode(data)
        assert ham74_error_address(ham74_syndrome(clean)) == 0
        for pos in range(7):
            broken = list(clean)
            broken[pos] ^= 1
            addr = ham74_error_address(ham74_syndrome(tuple(broken)))
            broken[HAM74_ADDRESS_TO_POSITION[addr]] ^= 1
            assert tuple(broken) == clean, (value, pos)
    print("criterion 9: PASS - (7,4) worked examples and 16x7 exhaustive check")

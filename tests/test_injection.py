"""Sweep engine: exact counts against enumeration, injector semantics."""

import itertools
import math
import random

import pytest

from overlap_ecc import _sweep_py
from overlap_ecc.code import BUILTIN_NAMES, Codestruct, builtin_config, decode, encode
from overlap_ecc.injection import (
    Region,
    apply_pattern,
    build_sweep_tables,
    enumerate_patterns,
    payload_diff_field,
    reports_to_csv,
    reports_to_json_obj,
    sweep,
    sweep_python_reference,
)
from overlap_ecc.search import search_assignment


# --- plumbing --------------------------------------------------------------

def test_region_parse_aliases():
    assert Region.parse("all") is Region.CODESTRUCT
    assert Region.parse("data") is Region.DATA
    assert Region.parse("Check") is Region.CHECK
    with pytest.raises(ValueError):
        Region.parse("headers")


def test_region_bounds():
    cfg = builtin_config("3x3")
    assert Region.DATA.bounds(cfg.m, cfg.n) == (0, 9)
    assert Region.CHECK.bounds(cfg.m, cfg.n) == (9, 19)
    assert Region.CODESTRUCT.size(cfg.m, cfg.n) == 19


def test_enumerate_patterns_is_lexicographic_and_complete():
    pats = list(enumerate_patterns(5, 3))
    assert len(pats) == math.comb(5, 3)
    assert pats == sorted(pats)
    with pytest.raises(ValueError):
        list(enumerate_patterns(4, 5))


def test_apply_pattern_flips_region_relative():
    cfg = builtin_config("2x2")
    clean = encode(cfg, (1, 0, 1, 0))
    hit = apply_pattern(clean, (0, 2), Region.CHECK)
    assert hit.co != clean.co or hit.po != clean.po
    assert hit.data == clean.data
    with pytest.raises(ValueError):
        apply_pattern(clean, (9,), Region.DATA)


# --- counting against enumeration ------------------------------------------

@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("injector", ["mirror", "flip"])
def test_pure_kernel_matches_object_decoder(name, injector):
    cfg = builtin_config(name)
    rng = random.Random(5)
    payload = tuple(rng.randrange(2) for _ in range(cfg.m))
    for region in Region:
        e_max = min(4, region.size(cfg.m, cfg.n))
        got = sweep(cfg, region, 0, e_max, payload=payload, injector=injector)
        for r in got:
            ref = sweep_python_reference(cfg, region, r.errors, payload=payload,
                                         injector=injector)
            assert (r.corrected, r.detected) == (ref.corrected, ref.detected)
            assert r.decodings == ref.decodings


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_counting_matches_enumeration_kernel(name):
    # sweep() counts; sweep_chunk decodes every pattern one by one
    cfg = builtin_config(name)
    tables = build_sweep_tables(cfg)
    rng = random.Random(3)
    while True:
        payload = tuple(rng.randrange(2) for _ in range(cfg.m))
        diff = payload_diff_field(cfg, encode(cfg, payload))
        if 0 < diff < (1 << cfg.k) - 1:  # both mirror cases occur
            break
    for injector in ("mirror", "flip"):
        mirror = int(injector == "mirror")
        for region in Region:
            size = region.size(cfg.m, cfg.n)
            lo, hi = region.bounds(cfg.m, cfg.n)
            e_max = 4 if region is Region.CODESTRUCT and name != "2x2" else size
            for r in sweep(cfg, region, 0, e_max, payload=payload, injector=injector):
                e = r.errors
                want = _sweep_py.sweep_chunk(
                    tables["full_o"], tables["full_i"], tables["inv_flip_o"],
                    tables["inv_flip_i"], tables["dtab"], tables["m"], tables["k"],
                    e, list(range(lo, lo + e)), math.comb(size, e), hi, mirror,
                    diff * mirror, tables["profile"])
                assert (r.decodings, r.corrected, r.detected) == \
                       (math.comb(size, e), *want), (injector, region, e)


def test_kernels_cover_double_first_profile():
    # 4x4 ships the up-front pair probe; make sure sweep() shares it
    cfg = builtin_config("4x4")
    ref = sweep_python_reference(cfg, Region.CODESTRUCT, 3)
    via_pure = sweep(cfg, Region.CODESTRUCT, 3, 3)[0]
    assert (via_pure.corrected, via_pure.detected) == (ref.corrected, ref.detected)


def test_wide_searched_config_matches_reference():
    # n = 37 > 32: no pattern mask or syndrome may be cut to 32 bits
    cfg = search_assignment(25, k=5, seed=1).to_config("5x5", rows=5, cols=5)
    assert cfg.n == 37
    rng = random.Random(8)
    payload = tuple(rng.randrange(2) for _ in range(cfg.m))
    for injector in ("mirror", "flip"):
        for region in Region:
            e_max = 3 if region is Region.CHECK else 2
            for r in sweep(cfg, region, 0, e_max, payload=payload, injector=injector):
                ref = sweep_python_reference(cfg, region, r.errors, payload=payload,
                                             injector=injector)
                assert (r.decodings, r.corrected, r.detected) == \
                       (ref.decodings, ref.corrected, ref.detected)
    clean = encode(cfg, payload)
    for e in (1, 2):
        for pattern in enumerate_patterns(cfg.n, e):
            out = decode(cfg, apply_pattern(clean, pattern, Region.CODESTRUCT))
            assert out.detected and out.data == clean.data, pattern


# --- sweep semantics -------------------------------------------------------

def test_weight_zero_counts_one_clean_decode():
    cfg = builtin_config("2x2")
    (r,) = sweep(cfg, Region.DATA, 0, 0)
    assert (r.decodings, r.corrected, r.detected) == (1, 1, 0)


def test_flip_mode_is_payload_independent():
    cfg = builtin_config("3x3")
    rng = random.Random(1)
    base = sweep(cfg, Region.CODESTRUCT, 1, 4, payload=None, injector="flip")
    for _ in range(3):
        payload = tuple(rng.randrange(2) for _ in range(cfg.m))
        other = sweep(cfg, Region.CODESTRUCT, 1, 4, payload=payload, injector="flip")
        assert [(r.corrected, r.detected) for r in other] == \
               [(r.corrected, r.detected) for r in base]


def test_translation_invariance_point_samples():
    # flip-injector outcomes agree pattern by pattern across payloads
    rng = random.Random(99)
    samples = 0
    while samples < 100:
        name = rng.choice(BUILTIN_NAMES)
        cfg = builtin_config(name)
        p1 = tuple(rng.randrange(2) for _ in range(cfg.m))
        p2 = tuple(rng.randrange(2) for _ in range(cfg.m))
        e = rng.randint(1, 5)
        pattern = tuple(sorted(rng.sample(range(cfg.n), e)))
        outs = []
        for payload in (p1, p2):
            clean = encode(cfg, payload)
            bits = list(clean.bits())
            for pos in pattern:
                bits[pos] ^= 1
            out = decode(cfg, Codestruct.from_bits(bits, cfg.m, cfg.k))
            outs.append((out.data == clean.data, out.detected))
        assert outs[0] == outs[1], (name, pattern, p1, p2)
        samples += 1


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_worker_count_never_changes_results(workers):
    cfg = builtin_config("3x3")
    got = sweep(cfg, Region.CODESTRUCT, 1, 5, workers=workers)
    want = [(19, 19, 19), (171, 171, 171), (969, 241, 969),
            (3876, 353, 3876), (11628, 414, 11619)]
    assert [(r.decodings, r.corrected, r.detected) for r in got] == want


def test_mirror_cancels_paired_check_flips():
    # hitting co_j and ci_j together: the ci write re-inverts the fresh co
    # value, which equals the stored complement, so no net inner change
    cfg = builtin_config("3x3")
    r_mirror = sweep_python_reference(cfg, Region.CHECK, 8, injector="mirror")
    r_flip = sweep_python_reference(cfg, Region.CHECK, 8, injector="flip")
    assert r_mirror.corrected == 34   # reference-harness behavior
    assert r_mirror.corrected != r_flip.corrected


def test_sweep_argument_validation():
    cfg = builtin_config("2x2")
    with pytest.raises(ValueError):
        sweep(cfg, Region.DATA, 0, 5)  # beyond region size
    with pytest.raises(ValueError):
        sweep(cfg, Region.DATA, 2, 1)
    with pytest.raises(ValueError):
        sweep(cfg, Region.DATA, 1, 2, injector="sparkle")


# --- report formats ----------------------------------------------------------

def test_report_rates_and_csv():
    cfg = builtin_config("3x3")
    reports = sweep(cfg, Region.CHECK, 8, 8)
    (r,) = reports
    assert f"{r.correction_rate:.2f}" == "75.56"
    csv = reports_to_csv(reports)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("code,region,errors,")
    assert lines[1] == "3x3,check,8,45,34,45,75.56,100.00"
    obj = reports_to_json_obj(reports)
    assert obj["schema"].startswith("overlap-ecc/sweep/")
    assert obj["reports"][0]["correction_rate"] == 75.56

"""Sweep engine: exact counts against enumeration, injector semantics."""

import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import apply_pattern, enumerate_patterns, repair_walk_bound, sweep_python_reference

from overlap_ecc import _sweep_py
from overlap_ecc.code import (
    BUILTIN_NAMES,
    DECODE_PROFILES,
    Codestruct,
    OverlapConfig,
    builtin_config,
    decode,
    encode,
)
from overlap_ecc.hamming import min_check_bits
from overlap_ecc.injection import (
    Region,
    build_sweep_tables,
    payload_diff_field,
    reports_to_csv,
    reports_to_json_obj,
    sweep,
)
from overlap_ecc.search import search_assignment


# --- plumbing --------------------------------------------------------------

def test_region_bounds():
    cfg = builtin_config("3x3")
    assert Region.DATA.positions(cfg.m, cfg.n) == range(0, 9)
    assert Region.CHECK.positions(cfg.m, cfg.n) == range(9, 19)
    assert Region.CODESTRUCT.positions(cfg.m, cfg.n) == range(0, 19)


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
        e_max = min(4, len(region.positions(cfg.m, cfg.n)))
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
            span = region.positions(cfg.m, cfg.n)
            size, lo, hi = len(span), span.start, span.stop
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


def test_enumeration_kernel_chunks_add_up():
    # a chunk starts at combination c0 and stops after count patterns, or
    # after the last combination below hi, whichever comes first
    cfg = builtin_config("4x4")
    tables = build_sweep_tables(cfg)
    payload = (1, 0, 0, 1) * 4
    diff = payload_diff_field(cfg, encode(cfg, payload))
    assert 0 < diff < (1 << cfg.k) - 1  # both mirror cases occur
    e, total = 3, math.comb(cfg.n, 3)
    r = sweep(cfg, Region.CODESTRUCT, e, e, payload=payload)[0]

    def chunk(c0, count):
        return _sweep_py.sweep_chunk(
            tables["full_o"], tables["full_i"], tables["inv_flip_o"], tables["inv_flip_i"],
            tables["dtab"], tables["m"], tables["k"], e, list(c0), count, cfg.n,
            1, diff, tables["profile"])

    combos = list(itertools.combinations(range(cfg.n), e))
    head = chunk(combos[0], 1000)
    tail = chunk(combos[1000], total - 1000)
    assert (head[0] + tail[0], head[1] + tail[1]) == (r.corrected, r.detected)
    assert chunk(combos[0], total + 5) == (r.corrected, r.detected)
    assert chunk(combos[-1], 3) == chunk(combos[-1], 1)


def test_kernels_cover_double_first_profile():
    # 4x4 ships the up-front pair probe; make sure sweep() shares it
    cfg = builtin_config("4x4")
    ref = sweep_python_reference(cfg, Region.CODESTRUCT, 3)
    via_pure = sweep(cfg, Region.CODESTRUCT, 3, 3)[0]
    assert (via_pure.corrected, via_pure.detected) == (ref.corrected, ref.detected)


def test_wide_searched_config_matches_reference():
    # n = 37 > 32: no pattern mask or syndrome may be cut to 32 bits
    cfg = search_assignment(25, k=5, seed=1).to_config("5x5")
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


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_sweep_matches_the_object_sweep_on_random_maps(data):
    # a wider k leaves more syndromes out of the repair walk, so a branch
    # the walk misses shows there
    m = data.draw(st.integers(3, 12), label="m")
    k = data.draw(st.integers(min_check_bits(m), min_check_bits(m) + 2), label="k")
    found = search_assignment(m, k=k, seed=data.draw(st.integers(0, 1000), label="seed"))
    layers = (found.outer, found.inner)
    if data.draw(st.booleans(), label="swapped"):
        layers = layers[::-1]
    cfg = OverlapConfig("random", k, *layers,
                        decode_profile=data.draw(st.sampled_from(DECODE_PROFILES), label="profile"))
    region = data.draw(st.sampled_from(Region), label="region")
    injector = data.draw(st.sampled_from(("mirror", "flip")), label="injector")
    payload = tuple(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m), label="payload"))
    e = data.draw(st.integers(1, 3), label="errors")
    got = sweep(cfg, region, e, e, payload=payload, injector=injector)[0]
    ref = sweep_python_reference(cfg, region, e, payload=payload, injector=injector)
    assert (got.decodings, got.corrected, got.detected) == \
           (ref.decodings, ref.corrected, ref.detected)
    assert len(cfg.repairs[0]) <= repair_walk_bound(cfg)


def test_sweep_keeps_no_config_alive():
    # the sweep's repair table lives on the config, so it goes with it
    cfg = OverlapConfig(name="m2k4", k=4, outer=(3, 5), inner=(5, 3))
    sweep(cfg, Region.CODESTRUCT, 1, 2)
    alive = weakref.ref(cfg)
    del cfg
    gc.collect()
    assert alive() is None


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
            bits = list(clean.bits)
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
    # a bad payload is refused whether or not the injector reads its check bits
    for injector in ("mirror", "flip"):
        with pytest.raises(ValueError, match="bit values must be 0 or 1"):
            sweep(cfg, Region.CHECK, 1, 2, payload=(1, 0, 2, 0), injector=injector)
        with pytest.raises(ValueError, match="expected 4 bits, got 3"):
            sweep(cfg, Region.CHECK, 1, 2, payload=(1, 0, 1), injector=injector)


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

"""Codec behavior: encode, syndromes, the decoder ladder, serialization."""

import dataclasses
import hashlib
import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_ecc import _sweep_py
from overlap_ecc.code import (
    BUILTIN_NAMES,
    AddressAssignment,
    Codestruct,
    OverlapConfig,
    as_bits,
    build_double_error_table,
    builtin_config,
    decode,
    encode,
    syndrome_contributions,
)
from overlap_ecc.injection import Region, build_sweep_tables, sweep
from overlap_ecc.search import search_assignment


def flip(cs: Codestruct, cfg: OverlapConfig, *positions) -> Codestruct:
    bits = list(cs.bits())
    for p in positions:
        bits[p] ^= 1
    return Codestruct.from_bits(bits, cfg.m, cfg.k)


def packed_syndrome(cfg: OverlapConfig, positions) -> int:
    """Packed syndrome (outer << (k+1)) | inner of a flip pattern."""
    contributions = syndrome_contributions(cfg)
    s = 0
    for p in positions:
        s ^= contributions[p]
    return s


# --- encoding --------------------------------------------------------------

def test_encode_3x3_worked_example():
    cfg = builtin_config("3x3")
    cs = encode(cfg, "100000000")
    assert cs.co == (1, 0, 1, 1)
    assert cs.po == 0
    assert cs.ci == (1, 0, 0, 1)
    assert cs.pi == 1


def test_encode_zero_payload_is_all_zero():
    for name in BUILTIN_NAMES:
        cfg = builtin_config(name)
        cs = encode(cfg, (0,) * cfg.m)
        assert set(cs.bits()) == {0}
        assert len(cs.bits()) == cfg.n


def test_check_equations_match_addresses():
    # check j of each layer is the XOR of the data bits whose address carries
    # 2**(k-1-j); the parity covers the data and that layer's check bits
    rng = random.Random(4)
    for name in BUILTIN_NAMES:
        cfg = builtin_config(name)
        for _ in range(20):
            data = tuple(rng.randrange(2) for _ in range(cfg.m))
            cs = encode(cfg, data)
            for checks, parity, layer in ((cs.co, cs.po, cfg.outer), (cs.ci, cs.pi, cfg.inner)):
                for j, bit in enumerate(checks):
                    weight = 1 << (cfg.k - 1 - j)
                    cover = [d for d, a in zip(data, layer.logical_of_physical) if a & weight]
                    assert bit == sum(cover) % 2
                assert parity == (sum(data) + sum(checks)) % 2


def test_single_data_flip_reads_both_addresses():
    cfg = builtin_config("3x3")
    s = packed_syndrome(cfg, [4])  # position D4
    outer, inner = s >> (cfg.k + 1), s & ((1 << (cfg.k + 1)) - 1)
    assert outer >> 1 == cfg.outer.logical_of_physical[4] == 12
    assert inner >> 1 == cfg.inner.logical_of_physical[4] == 10
    assert outer & 1 == 1 and inner & 1 == 1  # both parities odd


def test_double_table_worked_entries():
    table = build_double_error_table(builtin_config("3x3"))
    assert table[(6, 14)] == (0, 1)
    assert table[(15, 1)] == (3, 5)
    assert len(table) == 36  # C(9,2)
    with pytest.raises(TypeError):
        table[(1, 1)] = (0, 0)  # cached, so read-only


# --- decoding ladder -------------------------------------------------------

def test_decode_clean_word():
    for name in BUILTIN_NAMES:
        cfg = builtin_config(name)
        out = decode(cfg, encode(cfg, (1, 0) * (cfg.m // 2) + (1,) * (cfg.m % 2)))
        assert not out.detected
        assert out.action is None


def test_decode_single_data_error():
    cfg = builtin_config("3x3")
    clean = encode(cfg, "110010011")
    for pos in range(cfg.m):
        out = decode(cfg, flip(clean, cfg, pos))
        assert out.detected
        assert out.action.kind in ("single_outer", "single_inner")
        assert out.data == clean.data


def test_decode_single_check_bit_error():
    cfg = builtin_config("3x3")
    clean = encode(cfg, "101110001")
    for pos in range(cfg.m, cfg.n):
        out = decode(cfg, flip(clean, cfg, pos))
        assert out.detected
        assert out.data == clean.data  # data untouched, error confined to checks


def test_decode_double_data_error_uses_pair_table():
    cfg = builtin_config("3x3")
    clean = encode(cfg, "010101110")
    out = decode(cfg, flip(clean, cfg, 2, 7))
    assert out.action.kind == "double_pair"
    assert sorted(out.action.positions) == [2, 7]
    assert out.data == clean.data


def test_decode_parity_plus_data_is_single():
    # data flip plus the outer parity bit: inner layer sees a clean single
    cfg = builtin_config("3x3")
    clean = encode(cfg, (0,) * 9)
    out = decode(cfg, flip(clean, cfg, 3, cfg.po_pos))
    assert out.data == clean.data


def _reference_tally(cfg: OverlapConfig, tables: dict, pattern: list) -> tuple:
    """(corrected, detected) of the sweep kernel's ladder on one flip pattern."""
    return _sweep_py.sweep_chunk(
        tables["full_o"], tables["full_i"], tables["inv_flip_o"], tables["inv_flip_i"],
        tables["dtab"], tables["m"], tables["k"], len(pattern), pattern, 1, cfg.n,
        0, 0, tables["profile"])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_decode_ladder_matches_reference_ladder(name):
    # The 2k+2 check-region bits reach every syndrome exactly once.  A
    # check-only pattern is corrected iff the syndrome's action flips no data;
    # adding the action's own data flips (and re-aiming the check bits at the
    # same syndrome) is corrected iff both ladders flip exactly those bits.
    cfg = builtin_config(name)
    tables = build_sweep_tables(cfg)
    clean = encode(cfg, (0,) * cfg.m)
    checks = range(cfg.m, cfg.n)
    pattern_of = {}
    for mask in range(1 << len(checks)):
        pattern = [p for b, p in enumerate(checks) if mask >> b & 1]
        out = decode(cfg, flip(clean, cfg, *pattern))
        pattern_of[packed_syndrome(cfg, pattern)] = pattern
        assert _reference_tally(cfg, tables, pattern) == \
            (int(out.data == clean.data), int(out.detected))
    assert len(pattern_of) == 1 << len(checks)

    for s, pattern in pattern_of.items():
        action = decode(cfg, flip(clean, cfg, *pattern)).action
        if action is None or not action.positions:
            continue
        data_flips = list(action.positions)
        word = sorted(data_flips + pattern_of[s ^ packed_syndrome(cfg, data_flips)])
        out = decode(cfg, flip(clean, cfg, *word))
        assert out.action is action and out.data == clean.data
        assert _reference_tally(cfg, tables, word) == (1, 1)


# SHA-256 of "{s} {kind} {positions}" lines, one per packed syndrome s
ACTION_DIGESTS = {
    "2x2": "048a3a125e8817afe34a73f4a37604ceae9088a4fbbe6ab0cef7a52b246c6012",
    "3x3": "fa91cbce5b5cb283515cfc01dd23b91b537d6644cd300c2c41de0c5daf77bf91",
    "4x4": "715bdae0ea81b80b8491cd423dcc152888abedefddb921a47410101e19c757ae",
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_syndrome_action_is_pinned(name):
    # check-region patterns on the all-zero word reach each syndrome once
    cfg = builtin_config(name)
    clean = encode(cfg, (0,) * cfg.m)
    checks = range(cfg.m, cfg.n)
    lines = {}
    for mask in range(1 << len(checks)):
        pattern = [p for b, p in enumerate(checks) if mask >> b & 1]
        s = packed_syndrome(cfg, pattern)
        action = decode(cfg, flip(clean, cfg, *pattern)).action
        kind, positions = (action.kind, action.positions) if action else (None, ())
        lines[s] = f"{s} {kind or 'none'} {','.join(map(str, positions))}\n"
    assert sorted(lines) == list(range(1 << len(checks)))
    text = "".join(lines[s] for s in sorted(lines))
    assert hashlib.sha256(text.encode()).hexdigest() == ACTION_DIGESTS[name]


def test_decode_on_a_wide_map():
    # k = 9: a syndrome has 20 bits, so the first decode must not build
    # anything that grows with 2**(2k+2)
    cfg = search_assignment(16, k=9, seed=0).to_config("wide", 4, 4)
    clean = encode(cfg, (1, 0) * 8)
    tracemalloc.start()
    try:
        out = decode(cfg, flip(clean, cfg, 0, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data == clean.data
    assert peak < 1 << 20
    for a in range(cfg.n):
        assert decode(cfg, flip(clean, cfg, a)).data == clean.data
        for b in range(a + 1, cfg.n):
            assert decode(cfg, flip(clean, cfg, a, b)).data == clean.data


# --- decode profiles -------------------------------------------------------

def test_builtin_profiles():
    assert builtin_config("2x2").decode_profile == "single_first"
    assert builtin_config("3x3").decode_profile == "single_first"
    assert builtin_config("4x4").decode_profile == "double_first"


def test_unknown_profile_rejected():
    cfg = builtin_config("2x2")
    with pytest.raises(ValueError):
        OverlapConfig(name="x", rows=2, cols=2, outer=cfg.outer, inner=cfg.inner,
                      decode_profile="pairs_last")


def _with_profile(cfg: OverlapConfig, profile: str) -> OverlapConfig:
    return OverlapConfig(name=cfg.name, rows=cfg.rows, cols=cfg.cols,
                         outer=cfg.outer, inner=cfg.inner, decode_profile=profile)


def test_profiles_agree_up_to_two_errors():
    rng = random.Random(11)
    base = builtin_config("4x4")
    single = _with_profile(base, "single_first")
    double = _with_profile(base, "double_first")
    clean = encode(base, tuple(rng.randrange(2) for _ in range(base.m)))
    patterns = [(p,) for p in range(base.n)]
    patterns += [(a, b) for a in range(base.n) for b in range(a + 1, base.n)]
    for pat in patterns:
        cs = flip(clean, base, *pat)
        a = decode(single, cs)
        b = decode(double, cs)
        assert a.data == b.data
        assert a.detected == b.detected
    # The agreement comes from the 4x4 map, not from the ladder: under
    # double_first, 9 of the 3x3 map's 171 codestruct doubles (a data bit
    # plus an inner check or parity bit) hit a pair key and are miscorrected,
    # which is why 2x2 and 3x3 ship single_first.
    (report,) = sweep(_with_profile(builtin_config("3x3"), "double_first"),
                      Region.CODESTRUCT, 2, 2)
    assert (report.decodings, report.corrected, report.detected) == (171, 162, 171)


def test_double_first_repairs_pair_plus_outer_parity():
    # {data, data, po}: the pair's composite key is intact and the inner
    # parity is even, so the up-front table probe repairs it; the
    # single-first ladder instead trusts s_po=1 and mis-flips.
    cfg = builtin_config("4x4")
    clean = encode(cfg, (0,) * 16)
    cs = flip(clean, cfg, 0, 1, cfg.po_pos)
    assert decode(cfg, cs).data == clean.data
    assert decode(_with_profile(cfg, "single_first"), cs).data != clean.data


def test_double_first_miss_falls_through_to_single():
    # {data, ci_j}: both addresses nonzero, s_pi=0, but the composite key
    # is no pair's key; the probe must miss and the outer single fix land.
    cfg = builtin_config("4x4")
    clean = encode(cfg, (0,) * 16)
    for j in range(cfg.k):
        out = decode(cfg, flip(clean, cfg, 5, cfg.ci_start + j))
        assert out.data == clean.data


# --- serialization ---------------------------------------------------------

def test_hex_round_trip_examples():
    cfg = builtin_config("3x3")
    cs = encode(cfg, "100000000")
    assert cs.to_hex() == "805a6"
    assert Codestruct.from_hex("805a6", cfg.m, cfg.k) == cs
    with pytest.raises(ValueError):
        Codestruct.from_hex("805a", cfg.m, cfg.k)  # too short
    with pytest.raises(ValueError):
        Codestruct.from_hex("805a7", cfg.m, cfg.k)  # padding bit set
    with pytest.raises(ValueError):
        Codestruct.from_hex("80zzz", cfg.m, cfg.k)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(BUILTIN_NAMES), st.data())
def test_serialization_round_trips(name, data):
    cfg = builtin_config(name)
    payload = tuple(data.draw(st.lists(st.integers(0, 1), min_size=cfg.m,
                                       max_size=cfg.m)))
    cs = encode(cfg, payload)
    assert Codestruct.from_hex(cs.to_hex(), cfg.m, cfg.k) == cs
    assert Codestruct.from_bits(cs.bits(), cfg.m, cfg.k) == cs
    # any n-bit layout, codeword or not, against the bitwise reference
    n = cfg.n
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    word = Codestruct.from_bits(bits, cfg.m, cfg.k)
    text = word.to_hex()
    assert text == format(int("".join(map(str, bits)), 2) << (-n % 4), f"0{(n + 3) // 4}x")
    assert Codestruct.from_hex(text, cfg.m, cfg.k) == word


@pytest.mark.parametrize("bad", [2, 32, 48, 95, -1, 256])
def test_to_hex_rejects_a_non_bit(bad):
    # whitespace (32), "0" (48) and "_" (95) must not pass as digits either
    cs = encode(builtin_config("2x2"), "1011")
    with pytest.raises(ValueError):
        dataclasses.replace(cs, pi=bad).to_hex()


def test_as_bits_validation():
    assert as_bits("0101") == (0, 1, 0, 1)
    assert as_bits([1, 0], 2) == (1, 0)
    with pytest.raises(ValueError):
        as_bits("01a1")
    with pytest.raises(ValueError):
        as_bits("011", 4)
    with pytest.raises(ValueError):
        as_bits([0, 2])


# --- per-config tables -----------------------------------------------------

def test_codec_path_hashes_no_config(monkeypatch):
    # the tables live on the config instance: no cache lookup keyed by it
    def unhashable(self):
        raise AssertionError("the codec hashed an OverlapConfig")

    monkeypatch.setattr(OverlapConfig, "__hash__", unhashable)
    rng = random.Random(11)
    for name in BUILTIN_NAMES:
        cfg = builtin_config(name)
        digits = (cfg.n + 3) // 4
        for weight in range(4):
            for pattern in itertools.combinations(range(cfg.n), weight):
                data = tuple(rng.getrandbits(1) for _ in range(cfg.m))
                stored = int(encode(cfg, data).to_hex(), 16)
                for p in pattern:
                    stored ^= 1 << (4 * digits - 1 - p)
                out = decode(cfg, Codestruct.from_hex(format(stored, f"0{digits}x"),
                                                      cfg.m, cfg.k))
                assert out.detected == (weight > 0)
                if weight <= 2:
                    assert out.data == data


def test_pair_table_stays_lazy():
    # identical 3x3 layers collide: 11 ^ 13 == 3 ^ 5 in both
    layer = builtin_config("3x3").outer
    cfg = OverlapConfig(name="twin", rows=3, cols=3, outer=layer, inner=layer)
    clean = encode(cfg, (1,) + (0,) * 8)
    assert clean.co == clean.ci
    for _ in range(2):  # a failed build is not kept
        with pytest.raises(ValueError, match="composite address collision"):
            decode(cfg, clean)


def test_config_pickles_after_decoding():
    cfg = builtin_config("4x4")
    decode(cfg, encode(cfg, (0,) * cfg.m))
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg
    assert "pair_table" not in vars(copy)
    assert dict(copy.pair_table) == dict(cfg.pair_table)


# --- config validation -----------------------------------------------------

def test_assignment_rejects_bad_addresses():
    with pytest.raises(ValueError):
        AddressAssignment.from_logical((3, 4, 6, 7), k=3)  # 4 is a power of two
    with pytest.raises(ValueError):
        AddressAssignment.from_logical((3, 5, 6, 3), k=3)  # reused
    with pytest.raises(ValueError):
        AddressAssignment.from_logical((3, 5, 6, 9), k=3)  # out of range


def test_config_rejects_mismatched_layers():
    out3 = AddressAssignment.from_logical((3, 5, 6, 7), k=3)
    inn4 = AddressAssignment.from_logical((3, 5, 6, 7), k=4)
    with pytest.raises(ValueError):
        OverlapConfig(name="x", rows=2, cols=2, outer=out3, inner=inn4)


def test_builtin_config_unknown_name():
    with pytest.raises(ValueError):
        builtin_config("5x5")

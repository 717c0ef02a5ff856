"""Codec behavior: encode, syndromes, the decoder ladder, serialization."""

import dataclasses
import hashlib
import itertools
import pickle
import random
import tracemalloc

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import repair_walk_bound, repairs_reference, sweep_kernel_reference

from overlap_ecc.code import (
    BUILTIN_NAMES,
    DECODE_PROFILES,
    Codestruct,
    OverlapConfig,
    as_bits,
    build_double_error_table,
    builtin_config,
    decode,
    encode,
)
from overlap_ecc.hamming import MAX_CHECK_BITS, min_check_bits
from overlap_ecc.injection import Region, sweep
from overlap_ecc.search import search_assignment


def flip(cs: Codestruct, cfg: OverlapConfig, *positions) -> Codestruct:
    bits = list(cs.bits)
    for p in positions:
        bits[p] ^= 1
    return Codestruct.from_bits(bits, cfg.m, cfg.k)


def packed_syndrome(cfg: OverlapConfig, positions) -> int:
    """Packed syndrome (outer << (k+1)) | inner of a flip pattern."""
    s = 0
    for p in positions:
        s ^= cfg.contributions[p]
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
        assert set(cs.bits) == {0}
        assert len(cs.bits) == cfg.n


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
                    cover = [d for d, a in zip(data, layer) if a & weight]
                    assert bit == sum(cover) % 2
                assert parity == (sum(data) + sum(checks)) % 2


def test_single_data_flip_reads_both_addresses():
    cfg = builtin_config("3x3")
    s = packed_syndrome(cfg, [4])  # position D4
    outer, inner = s >> (cfg.k + 1), s & ((1 << (cfg.k + 1)) - 1)
    assert outer >> 1 == cfg.outer[4] == 12
    assert inner >> 1 == cfg.inner[4] == 10
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
        assert (out.kind, out.flipped) == ("none", ())


def test_decode_single_data_error():
    cfg = builtin_config("3x3")
    clean = encode(cfg, "110010011")
    for pos in range(cfg.m):
        out = decode(cfg, flip(clean, cfg, pos))
        assert out.detected
        assert out.kind in ("single_outer", "single_inner")
        assert out.flipped == (pos,)
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
    assert out.kind == "double_pair"
    assert sorted(out.flipped) == [2, 7]
    assert out.data == clean.data


def test_decode_rejects_a_word_of_another_geometry():
    geometry = "codestruct does not match config geometry"
    with pytest.raises(ValueError, match=geometry):
        decode(builtin_config("4x4"), encode(builtin_config("3x3"), (0,) * 9))
    # same n = 12 as the 2x2 word (m=4, k=3), but m=2 and k=4: a
    # length-only check would decode it
    m2k4 = OverlapConfig(name="m2k4", k=4, outer=(3, 5), inner=(5, 3))
    word = encode(builtin_config("2x2"), (0,) * 4)
    assert len(word.bits) == m2k4.n == 12
    with pytest.raises(ValueError, match=geometry):
        decode(m2k4, word)


def test_decode_parity_plus_data_is_single():
    # data flip plus the outer parity bit: inner layer sees a clean single
    cfg = builtin_config("3x3")
    clean = encode(cfg, (0,) * 9)
    out = decode(cfg, flip(clean, cfg, 3, cfg.m + cfg.k))
    assert out.data == clean.data


def _reference_tally(cfg: OverlapConfig, pattern: list) -> tuple:
    """(corrected, detected) of the sweep kernel's ladder on one flip pattern."""
    return sweep_kernel_reference(cfg, Region.CODESTRUCT, len(pattern), injector="flip",
                                  c0=pattern, count=1)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_decode_ladder_matches_reference_ladder(name):
    # The 2k+2 check-region bits reach every syndrome exactly once.  A
    # check-only pattern is corrected iff the syndrome's action flips no data;
    # adding the action's own data flips (and re-aiming the check bits at the
    # same syndrome) is corrected iff both ladders flip exactly those bits.
    cfg = builtin_config(name)
    clean = encode(cfg, (0,) * cfg.m)
    checks = range(cfg.m, cfg.n)
    pattern_of = {}
    for mask in range(1 << len(checks)):
        pattern = [p for b, p in enumerate(checks) if mask >> b & 1]
        out = decode(cfg, flip(clean, cfg, *pattern))
        pattern_of[packed_syndrome(cfg, pattern)] = pattern
        assert _reference_tally(cfg, pattern) == \
            (int(out.data == clean.data), int(out.detected))
    assert len(pattern_of) == 1 << len(checks)

    for s, pattern in pattern_of.items():
        first = decode(cfg, flip(clean, cfg, *pattern))
        if not first.flipped:
            continue
        data_flips = list(first.flipped)
        word = sorted(data_flips + pattern_of[s ^ packed_syndrome(cfg, data_flips)])
        out = decode(cfg, flip(clean, cfg, *word))
        assert (out.kind, out.flipped) == (first.kind, first.flipped)
        assert out.data == clean.data
        assert _reference_tally(cfg, word) == (1, 1)


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
        out = decode(cfg, flip(clean, cfg, *pattern))
        lines[s] = f"{s} {out.kind} {','.join(map(str, out.flipped))}\n"
    assert sorted(lines) == list(range(1 << len(checks)))
    text = "".join(lines[s] for s in sorted(lines))
    assert hashlib.sha256(text.encode()).hexdigest() == ACTION_DIGESTS[name]


def _searched_maps():
    """Searched maps with m = 5, 9 and 16 at the smallest k and one above, under both profiles."""
    for m in (5, 9, 16):
        for k in (min_check_bits(m), min_check_bits(m) + 1):
            cfg = search_assignment(m, k=k, seed=0).to_config(f"m{m}k{k}")
            for profile in DECODE_PROFILES:
                yield dataclasses.replace(cfg, decode_profile=profile)


@pytest.mark.parametrize("cfg", [*map(builtin_config, BUILTIN_NAMES), *_searched_maps()],
                         ids=lambda cfg: f"{cfg.name}-{cfg.decode_profile}")
def test_repairs_match_the_dense_table(cfg):
    # the walk decodes only where a table can match, so it must find every
    # syndrome the ladder repairs; repairs[0] lists them, each at -1
    dense = repairs_reference(cfg)
    assert list(map(dict, cfg.repairs[1:])) == list(map(dict, dense[1:]))
    assert dict(cfg.repairs[0]) == {s: -1 for s in range(1 << (2 * cfg.k + 2))
                                    if s not in dense[0]}
    assert len(cfg.repairs[0]) <= repair_walk_bound(cfg)


def test_decode_on_a_wide_map():
    # k = 9: a syndrome has 20 bits, so the first decode must not build
    # anything that grows with 2**(2k+2)
    cfg = search_assignment(16, k=9, seed=0).to_config("wide")
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


def test_sweep_on_a_wide_map_stays_small():
    # the repair table lists only the syndromes the ladder repairs, not all
    # 2**20 of them (a 105 MB peak when it did)
    cfg = search_assignment(16, k=9, seed=0).to_config("wide")
    tracemalloc.start()
    try:
        reports = sweep(cfg, Region.CODESTRUCT, 1, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert [(r.decodings, r.corrected) for r in reports] == [(36, 36), (630, 630)]
    assert len(cfg.repairs[0]) <= repair_walk_bound(cfg)


# --- decode profiles -------------------------------------------------------

def test_builtin_profiles():
    assert builtin_config("2x2").decode_profile == "single_first"
    assert builtin_config("3x3").decode_profile == "single_first"
    assert builtin_config("4x4").decode_profile == "double_first"


def test_unknown_profile_rejected():
    cfg = builtin_config("2x2")
    with pytest.raises(ValueError):
        OverlapConfig(name="x", k=cfg.k, outer=cfg.outer, inner=cfg.inner,
                      decode_profile="pairs_last")


def _with_profile(cfg: OverlapConfig, profile: str) -> OverlapConfig:
    return OverlapConfig(name=cfg.name, k=cfg.k, outer=cfg.outer, inner=cfg.inner,
                         decode_profile=profile)


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
    cs = flip(clean, cfg, 0, 1, cfg.m + cfg.k)
    assert decode(cfg, cs).data == clean.data
    assert decode(_with_profile(cfg, "single_first"), cs).data != clean.data


def test_double_first_miss_falls_through_to_single():
    # {data, ci_j}: both addresses nonzero, s_pi=0, but the composite key
    # is no pair's key; the probe must miss and the outer single fix land.
    cfg = builtin_config("4x4")
    clean = encode(cfg, (0,) * 16)
    for j in range(cfg.k):
        out = decode(cfg, flip(clean, cfg, 5, cfg.m + cfg.k + 1 + j))
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
    assert Codestruct.from_bits(cs.bits, cfg.m, cfg.k) == cs
    # any n-bit layout, codeword or not, against the bitwise reference
    n = cfg.n
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    word = Codestruct.from_bits(bits, cfg.m, cfg.k)
    # the views partition the layout: data, co, po, ci, pi
    assert word.bits == bits
    assert word.data + word.co + (word.po,) + word.ci + (word.pi,) == bits
    assert (len(word.data), len(word.co), len(word.ci)) == (cfg.m, cfg.k, cfg.k)
    text = word.to_hex()
    assert text == format(int("".join(map(str, bits)), 2) << (-n % 4), f"0{(n + 3) // 4}x")
    assert Codestruct.from_hex(text, cfg.m, cfg.k) == word


@pytest.mark.parametrize("bad", [2, 32, 48, 95, -1, 256])
def test_to_hex_rejects_a_non_bit(bad):
    # whitespace (32), "0" (48) and "_" (95) must not pass as digits either
    cfg = builtin_config("2x2")
    cs = encode(cfg, "1011")
    with pytest.raises(ValueError):
        Codestruct(cs.bits[:-1] + (bad,), cs.k).to_hex()
    # to_json_dict and decode reject it too, in pi and in a data position
    for word in (cs.bits[:-1] + (bad,), cs.bits[:1] + (bad,) + cs.bits[2:]):
        with pytest.raises(ValueError):
            Codestruct(word, cs.k).to_json_dict()
        with pytest.raises(ValueError):
            decode(cfg, Codestruct(word, cs.k))


def test_to_json_dict_rejects_a_short_word():
    # a word needs at least one data bit besides its 2k + 2 check bits
    assert Codestruct((0,) * 9, 3).to_json_dict()["data"] == "0"
    assert Codestruct((0,) * 9, 3).to_hex() == "000"
    for n in (3, 8):
        for text_form in (Codestruct.to_json_dict, Codestruct.to_hex):
            with pytest.raises(ValueError):
                text_form(Codestruct((0,) * n, 3))


def test_to_json_dict_reads_items_as_to_hex_does():
    cs = encode(builtin_config("2x2"), "1011")
    # a bool is an int: a word of bools prints as its word of ints
    as_bools = Codestruct(tuple(map(bool, cs.bits)), cs.k)
    assert as_bools.to_json_dict() == cs.to_json_dict()
    assert as_bools.to_hex() == cs.to_hex()
    # a float item is no bit, even one equal to 1
    floated = Codestruct((1.0,) + cs.bits[1:], cs.k)
    for text_form in (Codestruct.to_json_dict, Codestruct.to_hex):
        with pytest.raises(TypeError):
            text_form(floated)


def test_as_bits_validation():
    assert as_bits("0101") == (0, 1, 0, 1)
    assert as_bits([1, 0], 2) == (1, 0)
    # items equal to 0 or 1 come back as plain ints
    for items in ([True, False, True, True], [1.0, 0, 1, 1]):
        bits = as_bits(items)
        assert bits == (1, 0, 1, 1) and {type(b) for b in bits} == {int}
    cfg = builtin_config("2x2")
    cs = encode(cfg, [True, False, True, True])
    assert cs.to_json_dict()["data"] == "1011"
    assert encode(cfg, [1.0, 0, 1, 1]).to_hex() == cs.to_hex()
    for bad in ("01a1", "\u0661\u0660\u0661\u0661", "\uff11\uff10", "0 1", "+1",
                [0, 2], [0.5, 1], ["0", "1"], [[0], 1], [None]):
        with pytest.raises(ValueError):
            as_bits(bad)
    with pytest.raises(ValueError):
        as_bits("011", 4)


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
    cfg = OverlapConfig(name="twin", k=4, outer=layer, inner=layer)
    clean = encode(cfg, (1,) + (0,) * 8)
    assert clean.co == clean.ci
    for _ in range(2):  # a failed build is not kept
        with pytest.raises(ValueError, match="composite address collision"):
            decode(cfg, clean)


def test_config_pickles_after_decoding():
    cfg = builtin_config("4x4")
    sweep(cfg, Region.CODESTRUCT, 1, 2)
    decode(cfg, encode(cfg, (0,) * cfg.m))
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg
    for table in ("pair_table", "singles", "repairs"):
        assert table not in vars(copy)
    assert dict(copy.pair_table) == dict(cfg.pair_table)
    assert list(map(dict, copy.singles)) == list(map(dict, cfg.singles))
    assert list(map(dict, copy.repairs)) == list(map(dict, cfg.repairs))


def test_cached_tables_are_read_only():
    # the builtin configs are shared process-wide: a write into one of their
    # tables would change every later decode and sweep
    cfg = builtin_config("2x2")
    tables = (cfg.pair_table, *cfg.singles, *cfg.repairs)
    for table in tables:
        with pytest.raises(TypeError):
            table[0] = (0,)
    assert cfg.repairs[2][-1] == 0  # an absent syndrome still counts 0


# --- config validation -----------------------------------------------------

def _two_by_two(**changes) -> OverlapConfig:
    """The 2x2 builtin rebuilt through the constructor, with some fields changed."""
    return dataclasses.replace(builtin_config("2x2"), **changes)


def test_assignment_rejects_bad_addresses():
    with pytest.raises(ValueError, match="4 at position 1"):
        _two_by_two(outer=(3, 4, 6, 7))  # 4 is a power of two
    with pytest.raises(ValueError, match="address 3 assigned twice"):
        _two_by_two(outer=(3, 5, 6, 3))  # reused
    with pytest.raises(ValueError, match="9 at position 3"):
        _two_by_two(outer=(3, 5, 6, 9))  # out of range
    for k in (1, 17):  # checked before any 2**k table is built
        with pytest.raises(ValueError, match=rf"^k must be in \[2, 16\], got {k}$"):
            _two_by_two(k=k)


def test_assignment_accepts_the_widest_k():
    wide = _two_by_two(k=MAX_CHECK_BITS)
    assert "singles" not in vars(wide)  # built on first use, like the pair table
    # a single error decodes through m-entry maps, not 2**k-entry tables
    word = flip(encode(wide, "1011"), wide, 1)
    tracemalloc.start()
    try:
        out = decode(wide, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.data, out.kind, out.flipped) == ((1, 0, 1, 1), "single_outer", (1,))
    assert peak < 64 * 1024
    assert dict(wide.singles[0]) == {3: (0,), 5: (1,), 6: (2,), 7: (3,)}
    assert dict(wide.singles[1]) == {5: (0,), 7: (1,), 3: (2,), 6: (3,)}


@pytest.mark.parametrize("changes, error", [
    # a 2x2 outer map reusing address 3 once decoded a single error at
    # position 1 to the wrong word
    ({"outer": (3, 3, 6, 7)}, "address 3 assigned twice"),
    ({"inner": (5, 7, 5, 6)}, "address 5 assigned twice"),
    ({"inner": (5, 7, 3, 8)}, "address 8 at position 3"),
    ({"inner": (5, 7, 3, 0)}, "address 0 at position 3"),
    ({"inner": (5, 7, -3, 6)}, "address -3 at position 2"),
    ({"inner": (5, 7, 3)}, "got 4 outer and 3 inner addresses"),
    # k=4 makes address 9 usable, so only the lengths differ
    ({"k": 4, "outer": (3, 5, 6, 7, 9)}, "got 5 outer and 4 inner addresses"),
    ({"outer": (), "inner": ()}, "must be non-empty"),
    ({"outer": [], "inner": (5, 7, 3, 6)}, "got 0 outer and 4 inner addresses"),
])
def test_config_construction_checks_both_layers(changes, error):
    with pytest.raises(ValueError, match=error):
        _two_by_two(**changes)


def test_config_normalizes_layers_to_int_tuples():
    # lists and numpy integers become tuples of ints, so the config hashes
    # and equals its tuple-built twin
    cfg = _two_by_two(outer=numpy.array([3, 5, 6, 7]), inner=[5, 7, 3, 6])
    assert type(cfg.outer) is tuple and type(cfg.outer[0]) is int
    assert cfg == builtin_config("2x2") and hash(cfg) == hash(builtin_config("2x2"))
    with pytest.raises(TypeError):
        _two_by_two(outer=(3.0, 5, 6, 7))


def test_builtin_config_unknown_name():
    with pytest.raises(ValueError):
        builtin_config("5x5")


def test_builtin_config_is_one_object_per_code():
    # every spelling returns the stored config, so the tables one sweep
    # builds serve every later caller of that code
    for name in BUILTIN_NAMES:
        assert builtin_config(name.upper()) is builtin_config(name)
    sweep(builtin_config("4x4"), Region.CODESTRUCT, 1, 2)
    assert "repairs" in vars(builtin_config("4X4"))

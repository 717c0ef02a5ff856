"""Overlapping extended-Hamming codec.

Two extended Hamming codes -- called the outer and inner layers -- protect
the same data bits.  Each layer assigns every physical data position its own
logical Hamming address, and the two layers use *different* address
permutations.  A single data error is corrected by either layer alone; a
pair of data errors produces the XOR of the two addresses in each layer, and
because the permutations differ, the composite (outer, inner) address pair
identifies the error pair uniquely via a precomputed table.  That every
data pair has its own composite key is checked by one scan,
scan_composite_keys, which the pair table and search.validate_assignment
share.

A stored word (Codestruct) is one bit tuple in this layout, which fault
injection and the hex/JSON text forms share; for m data bits and k check
bits per layer:

    [0, m)              data, row-major
    [m, m+k)            outer check bits co (co[0] most significant)
    m+k                 outer parity po
    [m+k+1, m+2k+1)     inner check bits ci
    m+2k+1              inner parity pi

Codestruct's views are the one place these offsets are written.  The
packed syndrome lists the check region in the same order.

Three tables drive the codec, and each OverlapConfig instance holds its
own, built on first use.  Each position's packed syndrome contribution
(OverlapConfig.contributions) makes a word's syndrome one XOR fold, which
encode and decode share.  The composite pair table
(OverlapConfig.pair_table, from build_double_error_table) resolves double
data errors, and the per-layer address maps (OverlapConfig.singles)
resolve single ones.  The decode ladder reads these read-only tables for
the one syndrome a word presents.  Check bits are never corrected: they
are recomputable from corrected data, so only the data region is repaired.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import types
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .hamming import BitVec, as_bits, is_data_address, require_k


#: decode-ladder profiles supported by :func:`decode` (see its docstring).
DECODE_PROFILES = ("single_first", "double_first")

# maps the ASCII digits of a binary numeral to the bit values 0 and 1
_BIT_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")
# maps the bit values 0 and 1 to ASCII digits, and every other byte to one
# that int(..., 2) rejects
_DIGIT_OF_BIT = b"01" + b"?" * 254
# int(text, 16) also takes a sign, a 0x prefix, "_" and non-ASCII digits
_HEX_DIGITS = frozenset("0123456789abcdef")
_BITS = frozenset((0, 1))


def _checked_layer(layer: Iterable[int], k: int) -> tuple:
    """A layer's map as a tuple of ints, once it is distinct usable addresses for k."""
    layer = tuple(map(operator.index, layer))
    seen = set()
    for pos, addr in enumerate(layer):
        if not is_data_address(addr, k):
            raise ValueError(f"address {addr} at position {pos} is not a usable data address "
                             f"for k={k} (must be in [3, {(1 << k) - 1}] and not a power of two)")
        if addr in seen:
            raise ValueError(f"address {addr} assigned twice")
        seen.add(addr)
    return layer


@dataclass(frozen=True)
class OverlapConfig:
    """Check-bit count and the two address maps; everything else derives.

    ``outer[p]`` and ``inner[p]`` are data position p's address in each
    layer, so the maps' common length is the data size m.  Construction
    rejects maps that are empty, differ in length or are not distinct
    usable addresses for k.  Composite keys are checked when pair_table is
    built.

    ``decode_profile`` selects the branch order of the decoder ladder:
    ``"single_first"`` (default) tries the per-layer single-error fixes
    before the composite pair table, ``"double_first"`` probes the pair
    table up front whenever the inner parity syndrome is clean and falls
    back to the single-error branches on a miss.  The profiles agree on
    every pattern of up to two errors only on a map that keeps low-weight
    check-bit patterns off the pair keys, as the 4x4 builtin's does
    (constraint (a) in the builtins comment); on the 2x2 and 3x3 maps
    ``double_first`` miscorrects some doubles of a data bit plus an inner
    check or parity bit.  Beyond that, the profiles differ in which
    3+-error patterns alias onto correctable signatures.
    """

    name: str
    k: int
    outer: tuple
    inner: tuple
    decode_profile: str = "single_first"

    def __post_init__(self):
        require_k(self.k)
        for layer in ("outer", "inner"):
            object.__setattr__(self, layer, _checked_layer(getattr(self, layer), self.k))
        if not self.outer or len(self.outer) != len(self.inner):
            raise ValueError(f"both layers must be non-empty and the same length: got "
                             f"{len(self.outer)} outer and {len(self.inner)} inner addresses")
        if self.decode_profile not in DECODE_PROFILES:
            raise ValueError(f"unknown decode profile {self.decode_profile!r}; "
                             f"expected one of {DECODE_PROFILES}")

    @functools.cached_property
    def m(self) -> int:
        return len(self.outer)

    @functools.cached_property
    def n(self) -> int:
        return self.m + 2 * (self.k + 1)

    @functools.cached_property
    def contributions(self) -> tuple:
        """Packed syndrome contribution of each layout position (length n).

        A layer's packed syndrome is (error address << 1) | parity bit; a
        position contributes (outer << (k+1)) | inner.  Data position p
        carries its logical address in each layer, check bit j carries
        2**(k-1-j) in its own layer, and every position except the other
        layer's bits flips that layer's parity.  The packed syndrome of a
        stored word is the XOR of the contributions of its set bits, so it
        is zero exactly on codewords.
        """
        k = self.k
        own = [(1 << (k - j)) | 1 for j in range(k)] + [1]  # a layer's check bits, then parity
        other = [0] * (k + 1)  # the other layer's check and parity bits
        outer = [(a << 1) | 1 for a in self.outer] + own + other
        inner = [(a << 1) | 1 for a in self.inner] + other + own
        return tuple((o << (k + 1)) | i for o, i in zip(outer, inner))

    @functools.cached_property
    def pair_table(self) -> Mapping:
        """build_double_error_table on first use: a colliding map raises at every decode."""
        return build_double_error_table(self)

    @functools.cached_property
    def singles(self) -> tuple:
        """(outer, inner): each layer's map from a data address to the one-position flip."""
        return tuple(types.MappingProxyType({a: (pos,) for pos, a in enumerate(layer)})
                     for layer in (self.outer, self.inner))

    @functools.cached_property
    def repairs(self) -> tuple:
        """repairs[w][c]: syndromes s with |F(s)| = w and s ^ S(F(s)) = c, where
        F(s) are the data positions the decode ladder flips for s (none for a
        clean or detected-only syndrome); sweep() counts corrected patterns
        from it.  Each is a read-only view of a Counter, so an absent c reads 0."""
        contrib = self.contributions
        keys = ([], [], [])
        for s in range(1 << (2 * self.k + 2)):
            flips = _ladder(self, s)[1]
            keys[len(flips)].append(
                functools.reduce(operator.xor, map(contrib.__getitem__, flips), s))
        return tuple(types.MappingProxyType(collections.Counter(c)) for c in keys)

    def __getstate__(self) -> dict:  # pickle the fields; the cached tables rebuild
        return {f: self.__dict__[f] for f in self.__dataclass_fields__}


@dataclass(frozen=True)
class Codestruct:
    """One stored word: its serialized layout and the check-bit count k.

    data, co, po, ci and pi are read-only views of ``bits``, sliced by k from
    its end; as properties they are not in eq, hash or repr.
    """

    bits: BitVec
    k: int

    @property
    def data(self) -> BitVec:
        return self.bits[: -2 * self.k - 2]

    @property
    def co(self) -> BitVec:
        return self.bits[-2 * self.k - 2 : -self.k - 2]

    @property
    def po(self) -> int:
        return self.bits[-self.k - 2]

    @property
    def ci(self) -> BitVec:
        return self.bits[-self.k - 1 : -1]

    @property
    def pi(self) -> int:
        return self.bits[-1]

    @classmethod
    def from_bits(cls, bits: Sequence[int], m: int, k: int) -> "Codestruct":
        return cls(as_bits(bits, m + 2 * (k + 1)), k)

    def to_hex(self) -> str:
        """Lowercase hex of the bit layout, position 0 = MSB of the first digit.

        The tail is zero-padded to a nibble boundary.
        """
        bits = self.bits
        n = len(bits)
        if n < 2 * self.k + 3:
            raise ValueError(f"not a codestruct for k={self.k}: {n} items")
        value = int(bytes(bits).translate(_DIGIT_OF_BIT), 2)
        return format(value << (-n % 4), f"0{(n + 3) // 4}x")

    @classmethod
    def from_hex(cls, text: str, m: int, k: int) -> "Codestruct":
        n = m + 2 * (k + 1)
        want_digits = (n + 3) // 4
        text = text.strip().lower()
        if len(text) != want_digits:
            raise ValueError(f"expected {want_digits} hex digits for n={n}, got {len(text)}")
        if not _HEX_DIGITS.issuperset(text):
            raise ValueError(f"not a hex string: {text!r}")
        value = int(text, 16)
        pad = want_digits * 4 - n
        if value & ((1 << pad) - 1):
            raise ValueError("padding bits past the codestruct length must be zero")
        digits = format(value >> pad, f"0{n}b")
        return cls(tuple(digits.encode().translate(_BIT_OF_DIGIT)), k)

    def to_json_dict(self) -> dict:
        """The five layout views as digit strings, read as to_hex reads (1.0 raises TypeError)."""
        text = bytes(self.bits).translate(_DIGIT_OF_BIT).decode()
        if len(text) < 2 * self.k + 3 or "?" in text:
            raise ValueError(f"not a codestruct of 0/1 items for k={self.k}")
        views = Codestruct(text, self.k)  # the layout views slice the digits
        return {part: getattr(views, part) for part in ("data", "co", "po", "ci", "pi")}


@dataclass(frozen=True)
class DecodeOutcome:
    """A decoded word: the repaired data, whether the syndrome was nonzero,
    the ladder's kind ("none", "detected_only", "single_outer",
    "single_inner" or "double_pair") and the data positions it flipped."""

    data: BitVec
    detected: bool
    kind: str
    flipped: tuple


def scan_composite_keys(outer: Sequence[int], inner: Sequence[int]) -> tuple:
    """(entries, collisions) over the keys (outer[a] ^ outer[b], inner[a] ^ inner[b])
    of every data pair a < b: entries maps a key to its first pair, and
    collisions lists (first pair, later pair, key) for each repeat."""
    entries = {}
    collisions = []
    for a in range(len(outer)):
        for b in range(a + 1, len(outer)):
            key = (outer[a] ^ outer[b], inner[a] ^ inner[b])
            if key in entries:
                collisions.append((entries[key], (a, b), key))
            else:
                entries[key] = (a, b)
    return entries, collisions


def build_double_error_table(cfg: OverlapConfig) -> Mapping:
    """Composite-address table over all C(m,2) data pairs; raises on collision.

    OverlapConfig.pair_table keeps it, so it is returned read-only.
    """
    entries, collisions = scan_composite_keys(cfg.outer, cfg.inner)
    if collisions:
        first, second, key = collisions[0]
        raise ValueError(f"composite address collision: pairs {first} and "
                         f"{second} both map to {key}")
    return types.MappingProxyType(entries)


def _packed_syndrome(contributions: Sequence[int], bits: Iterable[int]) -> int:
    return functools.reduce(operator.xor, itertools.compress(contributions, bits), 0)


def encode(cfg: OverlapConfig, data) -> Codestruct:
    """Encode m data bits: per-layer check bits plus an overall parity each.

    Each parity bit covers all data bits and that layer's check bits, turning
    the plain Hamming layer into an extended (distance-4) one.  The check
    bits repeat the data's XORed addresses, which zeroes the word's syndrome.
    """
    d = as_bits(data, cfg.m)
    k = cfg.k
    s = _packed_syndrome(cfg.contributions, d)
    o = s >> (k + 1)
    i = s & ((1 << (k + 1)) - 1)
    # s is the check region in layout order, but each stored parity also
    # covers its layer's check bits: it is the parity of the whole half
    check = ((o & -2) | (o.bit_count() & 1)) << (k + 1) | (i & -2) | (i.bit_count() & 1)
    digits = format(check, f"0{2 * k + 2}b")
    return Codestruct(d + tuple(digits.encode().translate(_BIT_OF_DIGIT)), k)


def _stored_syndrome(cfg: OverlapConfig, cs: Codestruct) -> int:
    """Packed syndrome of a stored word.

    Each parity covers its layer's *stored* (not recomputed) check bits, so
    a lone check-bit flip shows up in both the address and the parity.
    """
    if cs.k != cfg.k or len(cs.bits) != cfg.n:
        raise ValueError("codestruct does not match config geometry")
    if not _BITS.issuperset(cs.bits):
        raise ValueError("codestruct holds an item that is not 0 or 1")
    return _packed_syndrome(cfg.contributions, cs.bits)


_CLEAN = ("none", ())
_DETECTED = ("detected_only", ())


def _ladder(cfg: OverlapConfig, s: int) -> tuple:
    """(kind, flipped data positions) of the decode ladder for packed syndrome s; see decode()."""
    pairs = cfg.pair_table  # read first, so a colliding map raises on clean words too
    if not s:
        return _CLEAN
    k = cfg.k
    o = s >> (k + 1)
    i = s & ((1 << (k + 1)) - 1)
    ear_o = o >> 1
    ear_i = i >> 1
    if ear_o == 0 or ear_i == 0:
        return _DETECTED
    pair = pairs.get((ear_o, ear_i))
    if pair and cfg.decode_profile == "double_first" and not i & 1:
        return "double_pair", pair
    if o & 1:  # single error according to the outer layer
        kind, flips = "single_outer", cfg.singles[0].get(ear_o)
    elif i & 1:  # single error according to the inner layer
        kind, flips = "single_inner", cfg.singles[1].get(ear_i)
    else:  # both layers report doubles
        kind, flips = "double_pair", pair
    return (kind, flips) if flips else _DETECTED


def decode(cfg: OverlapConfig, cs: Codestruct) -> DecodeOutcome:
    """Single/double-error decoder.

    The ladder runs on the stored word's packed syndrome; a zero syndrome
    is a clean word, of kind ``none`` with nothing flipped.  Branch order
    matters.  With the default ``single_first`` profile:

    1. either layer's error address is zero -> no correction (that layer saw
       nothing, or only its own parity/check bits are hit);
    2. outer sees a single error (odd outer parity) -> flip the addressed
       data bit, if the address maps to one;
    3. inner sees a single error -> same via the inner table;
    4. both layers see doubles (even parities, both addresses nonzero) ->
       look up the composite-address pair table; flip both positions on a
       hit, otherwise report detection only.

    With ``double_first`` (used by the 4x4 builtin) the pair table is probed
    *before* steps 2-3 whenever both addresses are nonzero and the inner
    parity syndrome is even; a table miss falls through to the single-error
    branches instead of stopping.  On the 4x4 map the two profiles agree on
    every <=2-error pattern, because that map keeps low-weight check-bit
    patterns off the pair table's keys (constraint (a) in the builtins
    comment); there the reordering only changes which higher-weight patterns
    alias onto a correctable signature (notably, a data pair plus the outer
    parity bit still presents the pair's exact composite key and is
    repaired).  On the 2x2 and 3x3 maps ``double_first`` miscorrects some
    doubles made of a data bit and an inner check or parity bit, which is
    why they ship ``single_first``.

    Check bits are never corrected.  ``detected`` is the OR of all syndrome
    bits, evaluated before correction; ``kind`` names the branch taken and
    ``flipped`` the data positions it repaired.
    """
    s = _stored_syndrome(cfg, cs)
    kind, flips = _ladder(cfg, s)
    data = _flip(cs.data, flips) if flips else cs.data
    return DecodeOutcome(data=data, detected=s != 0, kind=kind, flipped=flips)


def _flip(bits: BitVec, positions: Iterable[int]) -> BitVec:
    out = list(bits)
    for p in positions:
        out[p] ^= 1
    return tuple(out)


# --- builtin configurations ----------------------------------------------
#
# The 3x3 maps are the reference ones this codec family was validated
# against.  The 2x2 map was produced by search.search_assignment (seed noted
# below) and is frozen here so every build uses identical tables; a test
# regenerates it from the seed and compares.
#
# The 4x4 map comes from a constrained randomized search run once and frozen.
# Plain validity (injective pair keys) is not enough at this size: the map
# additionally (a) avoids pair-table keys that low-weight check-bit patterns
# can present, so exhaustive check-region sweeps stay clean through three
# errors under the double_first ladder, (b) has no four data positions whose
# addresses XOR to zero in both layers at once, keeping every 4-error pattern
# detectable, and (c) uses mostly even-weight addresses, which minimizes the
# single-error aliases reachable from check-bit-only corruption.  The
# acceptance sweep in tests/test_acceptance.py locks in the resulting rates.

_BUILTIN = {
    "2x2": {
        "k": 3,
        # search_assignment(m=4, k=3, seed=2)
        "outer": (3, 5, 6, 7),
        "inner": (5, 7, 3, 6),
    },
    "3x3": {
        "k": 4,
        "outer": (11, 13, 3, 10, 12, 5, 14, 6, 15),
        "inner": (9, 7, 14, 13, 10, 12, 5, 3, 15),
    },
    "4x4": {
        "k": 5,
        "outer": (17, 24, 29, 10, 15, 3, 23, 26, 12, 6, 18, 5, 20, 27, 31, 9),
        "inner": (6, 9, 5, 29, 23, 24, 20, 18, 30, 17, 12, 3, 27, 15, 26, 10),
        "decode_profile": "double_first",
    },
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN))


@functools.lru_cache(maxsize=None)
def builtin_config(name: str) -> OverlapConfig:
    """One of the shipped configurations: '2x2', '3x3' or '4x4'."""
    key = name.lower()
    if key not in _BUILTIN:
        raise ValueError(f"unknown code {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    return OverlapConfig(name=key, **_BUILTIN[key])

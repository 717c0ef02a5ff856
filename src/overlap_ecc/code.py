"""Overlapping extended-Hamming codec.

Two extended Hamming codes -- called the outer and inner layers -- protect
the same data bits.  Each layer assigns every physical data position its own
logical Hamming address, and the two layers use *different* address
permutations.  A single data error is corrected by either layer alone; a
pair of data errors produces the XOR of the two addresses in each layer, and
because the permutations differ, the composite (outer, inner) address pair
identifies the error pair uniquely via a precomputed table.

Serialized codestruct layout (used by fault injection and the hex/JSON text
forms), for m data bits and k check bits per layer:

    [0, m)              data, row-major
    [m, m+k)            outer check bits co (co[0] most significant)
    m+k                 outer parity po
    [m+k+1, m+2k+1)     inner check bits ci
    m+2k+1              inner parity pi

Two tables drive the codec, and each OverlapConfig instance holds its
own, built on first use.  Each position's packed syndrome contribution
(OverlapConfig.contributions, from syndrome_contributions) makes a word's
syndrome one XOR fold, which encode and decode share.  The composite
pair table (OverlapConfig.pair_table, from build_double_error_table)
resolves double data errors; the decode ladder reads it for the one
syndrome a word presents.  Check bits are never corrected: they are
recomputable from corrected data, so only the data region is repaired.
"""

from __future__ import annotations

import functools
import itertools
import operator
import types
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .hamming import BitVec, as_bits, min_check_bits


@dataclass(frozen=True)
class AddressAssignment:
    """Logical-address permutation of one layer.

    ``logical_of_physical[p]`` is the Hamming address of data position p;
    ``physical_of_logical`` is the inverse lookup (length 2**k, -1 for
    address 0, the power-of-two check addresses and any spare addresses).
    """

    k: int
    logical_of_physical: BitVec
    physical_of_logical: BitVec

    @classmethod
    def from_logical(cls, logical: Sequence[int], k: int) -> "AddressAssignment":
        logical = tuple(int(a) for a in logical)
        top = 1 << k
        inverse = [-1] * top
        for pos, addr in enumerate(logical):
            if not 3 <= addr < top or addr & (addr - 1) == 0:
                raise ValueError(
                    f"address {addr} at position {pos} is not a usable data "
                    f"address for k={k} (must be in [3, {top - 1}] and not a "
                    f"power of two)"
                )
            if inverse[addr] != -1:
                raise ValueError(f"address {addr} assigned twice")
            inverse[addr] = pos
        return cls(k=k, logical_of_physical=logical, physical_of_logical=tuple(inverse))

    def __len__(self) -> int:
        return len(self.logical_of_physical)


#: decode-ladder profiles supported by :func:`decode` (see its docstring).
DECODE_PROFILES = ("single_first", "double_first")

# maps the ASCII digits of a binary numeral to the bit values 0 and 1
_BIT_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")
# maps the bit values 0 and 1 to ASCII digits, and every other byte to one
# that int(..., 2) rejects
_DIGIT_OF_BIT = b"01" + b"?" * 254
# int(text, 16) also takes a sign, a 0x prefix, "_" and non-ASCII digits
_HEX_DIGITS = frozenset("0123456789abcdef")


@dataclass(frozen=True)
class OverlapConfig:
    """Geometry plus the two address assignments; everything else derives.

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
    rows: int
    cols: int
    outer: AddressAssignment
    inner: AddressAssignment
    decode_profile: str = "single_first"

    def __post_init__(self):
        m = self.rows * self.cols
        if len(self.outer) != m or len(self.inner) != m:
            raise ValueError("both layers must assign every data position")
        if self.outer.k != self.inner.k:
            raise ValueError("layers must use the same check-bit count")
        if self.k < min_check_bits(m):
            raise ValueError(f"k={self.k} cannot address {m} data bits")
        if self.decode_profile not in DECODE_PROFILES:
            raise ValueError(f"unknown decode profile {self.decode_profile!r}; "
                             f"expected one of {DECODE_PROFILES}")

    @functools.cached_property
    def m(self) -> int:
        return self.rows * self.cols

    @functools.cached_property
    def k(self) -> int:
        return self.outer.k

    @functools.cached_property
    def n(self) -> int:
        return self.m + 2 * (self.k + 1)

    @functools.cached_property
    def contributions(self) -> tuple:
        """Packed syndrome contribution of each layout position: syndrome_contributions."""
        return syndrome_contributions(self)

    @functools.cached_property
    def pair_table(self) -> Mapping:
        """build_double_error_table on first use: a colliding map raises at every decode."""
        return build_double_error_table(self)

    def __getstate__(self) -> dict:  # pickle the fields; the cached tables rebuild
        return {f: self.__dict__[f] for f in self.__dataclass_fields__}

    # serialized layout offsets
    @property
    def co_start(self) -> int:
        return self.m

    @property
    def po_pos(self) -> int:
        return self.m + self.k

    @property
    def ci_start(self) -> int:
        return self.m + self.k + 1

    @property
    def pi_pos(self) -> int:
        return self.m + 2 * self.k + 1


@dataclass(frozen=True)
class Codestruct:
    """One encoded word: data plus both layers' check and parity bits."""

    data: BitVec
    co: BitVec
    po: int
    ci: BitVec
    pi: int

    def bits(self) -> BitVec:
        """Serialized layout: data, co, po, ci, pi."""
        return self.data + self.co + (self.po,) + self.ci + (self.pi,)

    @classmethod
    def from_bits(cls, bits: Sequence[int], m: int, k: int) -> "Codestruct":
        return cls._from_layout(as_bits(bits, m + 2 * (k + 1)), m, k)

    @classmethod
    def _from_layout(cls, b: BitVec, m: int, k: int) -> "Codestruct":
        """Split a serialized layout of checked 0/1 ints into its fields."""
        return cls(
            data=b[:m],
            co=b[m : m + k],
            po=b[m + k],
            ci=b[m + k + 1 : m + 2 * k + 1],
            pi=b[m + 2 * k + 1],
        )

    def to_hex(self) -> str:
        """Lowercase hex of the bit layout, position 0 = MSB of the first digit.

        The tail is zero-padded to a nibble boundary.
        """
        bits = self.bits()
        n = len(bits)
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
        digits = format(value >> pad & ((1 << n) - 1), f"0{n}b")
        return cls._from_layout(tuple(digits.encode().translate(_BIT_OF_DIGIT)), m, k)

    def to_json_dict(self) -> dict:
        return {
            "data": "".join(map(str, self.data)),
            "co": "".join(map(str, self.co)),
            "po": str(self.po),
            "ci": "".join(map(str, self.ci)),
            "pi": str(self.pi),
        }


@dataclass(frozen=True)
class DecodeAction:
    """What the decoder did: kind plus the data positions it flipped."""

    kind: str  # "single_outer" | "single_inner" | "double_pair" | "detected_only"
    positions: tuple = ()


@dataclass(frozen=True)
class DecodeOutcome:
    data: BitVec
    detected: bool
    action: DecodeAction | None


def build_double_error_table(cfg: OverlapConfig) -> Mapping:
    """Composite-address table over all C(m,2) data pairs; raises on collision.

    Every unordered data pair {a, b} is keyed by
    (lo(a) XOR lo(b), li(a) XOR li(b)); valid assignments make these keys
    unique.  OverlapConfig.pair_table keeps it, so it is returned read-only.
    """
    lo = cfg.outer.logical_of_physical
    li = cfg.inner.logical_of_physical
    entries = {}
    for a in range(cfg.m):
        for b in range(a + 1, cfg.m):
            key = (lo[a] ^ lo[b], li[a] ^ li[b])
            if key in entries:
                raise ValueError(
                    f"composite address collision: pairs {entries[key]} and "
                    f"{(a, b)} both map to {key}"
                )
            entries[key] = (a, b)
    return types.MappingProxyType(entries)


def syndrome_contributions(cfg: OverlapConfig) -> tuple:
    """Packed syndrome contribution of each layout position (length n).

    A layer's packed syndrome is (error address << 1) | parity bit; a
    position contributes (outer << (k+1)) | inner.  Data position p carries
    its logical address in each layer, check bit j carries 2**(k-1-j) in its
    own layer, and every position except the other layer's bits flips that
    layer's parity.  The packed syndrome of a stored word is the XOR of the
    contributions of its set bits, so it is zero exactly on codewords.
    """
    k = cfg.k
    own = [(1 << (k - j)) | 1 for j in range(k)] + [1]  # a layer's check bits, then parity
    other = [0] * (k + 1)  # the other layer's check and parity bits
    outer = [(a << 1) | 1 for a in cfg.outer.logical_of_physical] + own + other
    inner = [(a << 1) | 1 for a in cfg.inner.logical_of_physical] + other + own
    return tuple((o << (k + 1)) | i for o, i in zip(outer, inner))


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
    b = tuple(format(s, f"0{2 * k + 2}b").encode().translate(_BIT_OF_DIGIT))
    return Codestruct(data=d, co=b[:k], po=o.bit_count() & 1,
                      ci=b[k + 1 : 2 * k + 1], pi=i.bit_count() & 1)


def _stored_syndrome(cfg: OverlapConfig, cs: Codestruct) -> int:
    """Packed syndrome of a stored word.

    Each parity covers its layer's *stored* (not recomputed) check bits, so
    a lone check-bit flip shows up in both the address and the parity.
    """
    if len(cs.data) != cfg.m or len(cs.co) != cfg.k or len(cs.ci) != cfg.k:
        raise ValueError("codestruct does not match config geometry")
    return _packed_syndrome(cfg.contributions, cs.bits())


_action = functools.lru_cache(maxsize=None)(DecodeAction)  # one instance per distinct action


def _ladder(cfg: OverlapConfig, pairs: Mapping, s: int) -> DecodeAction | None:
    """The decode ladder for packed syndrome s; None for a clean word; see decode()."""
    if not s:
        return None
    k = cfg.k
    o = s >> (k + 1)
    i = s & ((1 << (k + 1)) - 1)
    ear_o = o >> 1
    ear_i = i >> 1
    if ear_o == 0 or ear_i == 0:
        return _action("detected_only")
    pair = pairs.get((ear_o, ear_i))
    if pair is not None and cfg.decode_profile == "double_first" and not i & 1:
        return _action("double_pair", pair)
    if o & 1:  # single error according to the outer layer
        kind, pos = "single_outer", cfg.outer.physical_of_logical[ear_o]
    elif i & 1:  # single error according to the inner layer
        kind, pos = "single_inner", cfg.inner.physical_of_logical[ear_i]
    else:  # both layers report doubles
        return _action("double_pair", pair) if pair is not None else _action("detected_only")
    return _action(kind, (pos,)) if pos >= 0 else _action("detected_only")


def decode(cfg: OverlapConfig, cs: Codestruct) -> DecodeOutcome:
    """Single/double-error decoder.

    The ladder runs on the stored word's packed syndrome; a zero syndrome
    is a clean word and needs no action.  Branch order matters.  With the
    default ``single_first`` profile:

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
    bits, evaluated before correction.
    """
    s = _stored_syndrome(cfg, cs)
    action = _ladder(cfg, cfg.pair_table, s)
    data = _flip(cs.data, action.positions) if action else cs.data
    return DecodeOutcome(data=data, detected=s != 0, action=action)


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
        "rows": 2, "cols": 2, "k": 3,
        # search_assignment(m=4, k=3, seed=2)
        "outer": (3, 5, 6, 7),
        "inner": (5, 7, 3, 6),
    },
    "3x3": {
        "rows": 3, "cols": 3, "k": 4,
        "outer": (11, 13, 3, 10, 12, 5, 14, 6, 15),
        "inner": (9, 7, 14, 13, 10, 12, 5, 3, 15),
    },
    "4x4": {
        "rows": 4, "cols": 4, "k": 5,
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
    spec = _BUILTIN[key]
    return OverlapConfig(
        name=key,
        rows=spec["rows"],
        cols=spec["cols"],
        outer=AddressAssignment.from_logical(spec["outer"], spec["k"]),
        inner=AddressAssignment.from_logical(spec["inner"], spec["k"]),
        decode_profile=spec.get("decode_profile", "single_first"),
    )

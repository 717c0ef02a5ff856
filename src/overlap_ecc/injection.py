"""Exhaustive fault injection against the overlap codec.

Every error pattern of a given weight inside a region (data bits, check
bits, or the whole codestruct) is applied to an encoded word; the decoder
runs and two counters accumulate: patterns whose syndromes flagged anything
(detected) and patterns after which the data region equals the original
payload (corrected).  sweep() counts both exactly from the decode ladder's
action on each syndrome; the integer kernel in _sweep_py and
sweep_python_reference (the object-level decoder) decode every pattern, as
independent references.

Two injector behaviors are supported:

* ``flip``   -- a pattern position inverts the stored bit.  Pure XOR: by
  linearity the counts are payload-independent.
* ``mirror`` -- like flip, except a flipped inner check bit is realized by
  storing the complement of its outer partner (ci_j gets NOT co_j; the
  parities po/pi are exempt and flip normally), with the partner read after
  outer flips land.  When co_j is hit by the same pattern the ci_j flip
  cancels.  This reproduces the check-bit aliasing of the reference result
  tables, and is therefore the default.
"""

from __future__ import annotations

import collections
import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import _sweep_py as _kernel  # enumeration reference; benchmarks/perfbench/probes.py races it
from .code import (
    Codestruct,
    OverlapConfig,
    _ladder,
    as_bits,
    decode,
    encode,
)


def __getattr__(name: str):  # sweeps start no pool: only benchmarks/perfbench/tracing.py asks
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


def active_kernel() -> str:
    """Name of the sweep engine: 'pure', the pure-Python counting in sweep()."""
    return "pure"


class Region(enum.Enum):
    """Injection target: data bits, check+parity bits, or everything."""

    DATA = "data"
    CHECK = "check"
    CODESTRUCT = "codestruct"

    @classmethod
    def parse(cls, token: str) -> "Region":
        t = token.strip().lower()
        aliases = {"all": cls.CODESTRUCT, "check_bits": cls.CHECK, "checkbits": cls.CHECK}
        if t in aliases:
            return aliases[t]
        for member in cls:
            if member.value == t:
                return member
        raise ValueError(f"unknown region {token!r} (data, check, codestruct/all)")

    def bounds(self, m: int, n: int) -> tuple:
        """Half-open absolute interval [start, end) inside the layout."""
        if self is Region.DATA:
            return 0, m
        if self is Region.CHECK:
            return m, n
        return 0, n

    def size(self, m: int, n: int) -> int:
        lo, hi = self.bounds(m, n)
        return hi - lo


def enumerate_patterns(region_size: int, e: int) -> Iterator[tuple]:
    """All strictly-increasing position tuples of weight e, lexicographic."""
    if not 0 <= e <= region_size:
        raise ValueError(f"need 0 <= e <= {region_size}, got {e}")
    return itertools.combinations(range(region_size), e)


def apply_pattern(cs: Codestruct, pattern: Sequence[int], region: Region) -> Codestruct:
    """Copy of cs with the region-relative pattern positions flipped (XOR)."""
    m = len(cs.data)
    k = len(cs.co)
    n = m + 2 * (k + 1)
    lo, hi = region.bounds(m, n)
    bits = list(cs.bits())
    for p in pattern:
        pos = lo + p
        if not lo <= pos < hi:
            raise ValueError(f"pattern position {p} outside {region.value} region")
        bits[pos] ^= 1
    return Codestruct.from_bits(bits, m, k)


@dataclass(frozen=True)
class SweepReport:
    """Tally of one (code, region, error-weight) exhaustive sweep."""

    code: str
    region: Region
    errors: int
    decodings: int
    corrected: int
    detected: int

    @property
    def correction_rate(self) -> float:
        return 100.0 * self.corrected / self.decodings if self.decodings else 0.0

    @property
    def detection_rate(self) -> float:
        return 100.0 * self.detected / self.decodings if self.decodings else 0.0


CSV_HEADER = "code,region,errors,combinations,corrected,detected,correction_rate,detection_rate"


def reports_to_csv(reports: Sequence[SweepReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.code},{r.region.value},{r.errors},{r.decodings},"
            f"{r.corrected},{r.detected},{r.correction_rate:.2f},{r.detection_rate:.2f}"
        )
    return "\n".join(lines) + "\n"


def reports_to_json_obj(reports: Sequence[SweepReport]) -> dict:
    return {
        "schema": "overlap-ecc/sweep/1",
        "reports": [
            {
                "code": r.code,
                "region": r.region.value,
                "errors": r.errors,
                "combinations": r.decodings,
                "corrected": r.corrected,
                "detected": r.detected,
                "correction_rate": round(r.correction_rate, 2),
                "detection_rate": round(r.detection_rate, 2),
            }
            for r in reports
        ],
    }


# --- kernel plumbing -------------------------------------------------------

def build_sweep_tables(cfg: OverlapConfig) -> dict:
    """Precomputed integer tables the reference kernel (_sweep_py) consumes.

    full_o/full_i split each position's packed syndrome contribution
    (see OverlapConfig.contributions) into its outer and inner halves,
    (error-address bits << 1) | parity bit.  inv_flip_* turn a layer's error
    address into a single-bit data flip mask (0 when unmapped).  dtab turns
    the composite (outer << k) | inner key into a two-bit flip mask
    (0 when the pair table has no entry).  profile is the integer id of the
    config's decode profile (0 single_first, 1 double_first).
    """
    k = cfg.k
    contributions = cfg.contributions
    dtab = [0] * (1 << (2 * k))
    for (ko, ki), (a, b) in cfg.pair_table.items():
        dtab[(ko << k) | ki] = (1 << a) | (1 << b)
    return {"m": cfg.m, "k": k, "n": cfg.n,
            "full_o": [c >> (k + 1) for c in contributions],
            "full_i": [c & ((1 << (k + 1)) - 1) for c in contributions],
            "inv_flip_o": [1 << p if p >= 0 else 0 for p in cfg.outer.physical_of_logical],
            "inv_flip_i": [1 << p if p >= 0 else 0 for p in cfg.inner.physical_of_logical],
            "dtab": dtab, "profile": int(cfg.decode_profile == "double_first")}


def payload_diff_field(cfg: OverlapConfig, cs: Codestruct) -> int:
    """Outer/inner check-bit differences of an encoded word, for mirror mode."""
    return sum((co ^ ci) << j for j, (co, ci) in enumerate(zip(cs.co, cs.ci)))


def _tally(groups, e_max: int) -> list:
    """counts[w][s]: ways to take at most one (syndrome, weight) option per
    group with the weights summing to w and the syndromes XORing to s."""
    counts = [collections.Counter({0: 1})] + [collections.Counter() for _ in range(e_max)]
    for options in groups:
        grown = [row.copy() for row in counts]
        for w, row in enumerate(counts):
            for s, ways in row.items():
                for syndrome, weight in options:
                    if w + weight <= e_max:
                        grown[w + weight][s ^ syndrome] += ways
        counts = grown
    return counts


@functools.lru_cache(maxsize=None)
def _repairs(cfg: OverlapConfig) -> tuple:
    """repairs[w][c]: syndromes s with |F(s)| = w and s ^ S(F(s)) = c, where
    F(s) are the data flips of the decode ladder's action on s.  Read-only."""
    contrib = cfg.contributions
    pairs = cfg.pair_table
    keys = ([], [], [])
    for s in range(1 << (2 * cfg.k + 2)):
        action = _ladder(cfg, pairs, s)
        flips = action.positions if action else ()
        keys[len(flips)].append(functools.reduce(operator.xor, map(contrib.__getitem__, flips), s))
    return tuple(map(collections.Counter, keys))


def _meet(tally, check_part, e: int) -> int:
    """Pairs of a part counted in tally[w][s] and a check part of weight e - w
    with the same syndrome s: the sum of tally[w][s] * check_part[e - w][s]."""
    return sum(ways * tally[w][s] for w in range(min(e + 1, len(tally)))
               for s, ways in check_part[e - w].items())


def sweep(cfg: OverlapConfig, region: Region, e_min: int, e_max: int,
          payload=None, injector: str = "mirror", workers: int = 1) -> list:
    """Exact outcome counts of every error pattern for each weight in [e_min, e_max].

    payload defaults to all-zero data.  injector is 'mirror' (reproduces the
    reference tables; default) or 'flip' (plain XOR); workers is ignored.
    A pattern is a data part d plus a check part c, and the decoder sees
    s = S(d) ^ S'(c), S' keeping the check flips that land: it is undetected
    iff S'(c) = S(d), and corrected iff d = F(s), i.e. S'(c) = s ^ S(F(s)).
    """
    if injector not in ("mirror", "flip"):
        raise ValueError(f"injector must be 'mirror' or 'flip', got {injector!r}")
    size = region.size(cfg.m, cfg.n)
    if not 0 <= e_min <= e_max <= size:
        raise ValueError(f"need 0 <= e_min <= e_max <= {size} for {region.value}")
    data = (0,) * cfg.m if payload is None else as_bits(payload, cfg.m)
    mirror = injector == "mirror"
    diff_field = payload_diff_field(cfg, encode(cfg, data)) if mirror else 0
    contrib = cfg.contributions
    lo, hi = region.bounds(cfg.m, cfg.n)
    checks = []
    if hi > cfg.m:
        checks = [((contrib[cfg.po_pos], 1),), ((contrib[cfg.pi_pos], 1),)]
        for j in range(cfg.k):
            # A mirrored ci_j flip stores NOT co_j: it lands alone when the
            # clean co_j equals ci_j, and with a co_j flip when they differ.
            differ = diff_field >> j & 1
            co, ci = contrib[cfg.co_start + j], contrib[cfg.ci_start + j]
            checks.append(((co, 1), (0 if mirror and differ else ci, 1),
                           (co if mirror and not differ else co ^ ci, 2)))
    check_part = _tally(checks, e_max)
    data_part = _tally([((contrib[p], 1),) for p in range(lo, min(hi, cfg.m))], e_max)
    # F(s) holds data bits only: a region without them repairs with F(s) empty
    repairs = _repairs(cfg) if lo < cfg.m else _repairs(cfg)[:1]
    return [SweepReport(code=cfg.name, region=region, errors=e, decodings=math.comb(size, e),
                        corrected=_meet(repairs, check_part, e),
                        detected=math.comb(size, e) - _meet(data_part, check_part, e))
            for e in range(e_min, e_max + 1)]


def sweep_python_reference(cfg: OverlapConfig, region: Region, e: int,
                           payload=None, injector: str = "mirror") -> SweepReport:
    """Slow object-level sweep through the public decoder, for cross-checking.

    Applies each pattern with apply_pattern semantics (plus the mirror
    adjustment when asked), runs decode(), and compares data.  Used by tests
    to validate sweep(); unusable for large sweeps.
    """
    data = (0,) * cfg.m if payload is None else as_bits(payload, cfg.m)
    clean = encode(cfg, data)
    size = region.size(cfg.m, cfg.n)
    base, _hi = region.bounds(cfg.m, cfg.n)
    corrected = 0
    detected = 0
    total = 0
    for pattern in enumerate_patterns(size, e):
        corrupted = apply_pattern(clean, pattern, region)
        if injector == "mirror":
            bits = list(corrupted.bits())
            for p in pattern:
                pos = base + p
                if cfg.ci_start <= pos < cfg.ci_start + cfg.k:
                    j = pos - cfg.ci_start
                    bits[pos] = 1 ^ bits[cfg.co_start + j]
            corrupted = Codestruct.from_bits(bits, cfg.m, cfg.k)
        out = decode(cfg, corrupted)
        total += 1
        if out.detected:
            detected += 1
        if out.data == clean.data:
            corrected += 1
    return SweepReport(code=cfg.name, region=region, errors=e,
                       decodings=total, corrected=corrected, detected=detected)

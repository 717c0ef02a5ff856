"""Exhaustive fault injection against the overlap codec.

Every error pattern of a given weight inside a region (data bits, check
bits, or the whole codestruct) is applied to an encoded word; the decoder
runs and two counters accumulate: patterns whose syndromes flagged anything
(detected) and patterns after which the data region equals the original
payload (corrected).  Pattern enumeration is lexicographic and partitionable
by index range, so sweeps parallelize across processes and stay
deterministic for any worker count.  The patterns are decoded by the
integer kernel in _sweep_py; sweep_python_reference runs the same patterns
through the object-level decoder as an independent cross-check.

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

import enum
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import _sweep_py as _kernel
from .code import (
    Codestruct,
    OverlapConfig,
    as_bits,
    build_double_error_table,
    decode,
    encode,
    syndrome_contributions,
)


def active_kernel() -> str:
    """Name of the sweep engine: 'pure', the Python kernel in _sweep_py."""
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
    """Precomputed integer tables the sweep kernel consumes.

    full_o/full_i split each position's packed syndrome contribution
    (see code.syndrome_contributions) into its outer and inner halves,
    (error-address bits << 1) | parity bit.  inv_flip_* turn a layer's error
    address into a single-bit data flip mask (0 when unmapped).  dtab turns
    the composite (outer << k) | inner key into a two-bit flip mask
    (0 when the pair table has no entry).  profile is the integer id of the
    config's decode profile (0 single_first, 1 double_first).
    """
    m, k, n = cfg.m, cfg.k, cfg.n
    contributions = syndrome_contributions(cfg)
    full_o = [c >> (k + 1) for c in contributions]
    full_i = [c & ((1 << (k + 1)) - 1) for c in contributions]

    top = 1 << k
    inv_flip_o = [0] * top
    inv_flip_i = [0] * top
    for addr in range(top):
        po = cfg.outer.physical_of_logical[addr]
        pi = cfg.inner.physical_of_logical[addr]
        if po >= 0:
            inv_flip_o[addr] = 1 << po
        if pi >= 0:
            inv_flip_i[addr] = 1 << pi

    dtab = [0] * (top * top)
    for (ko, ki), (a, b) in build_double_error_table(cfg).items():
        dtab[(ko << k) | ki] = (1 << a) | (1 << b)

    profile = 1 if cfg.decode_profile == "double_first" else 0
    return {"m": m, "k": k, "n": n, "full_o": full_o, "full_i": full_i,
            "inv_flip_o": inv_flip_o, "inv_flip_i": inv_flip_i, "dtab": dtab,
            "profile": profile}


def payload_diff_field(cfg: OverlapConfig, cs: Codestruct) -> int:
    """Outer/inner check-bit differences of an encoded word, for mirror mode."""
    diff = 0
    for j in range(cfg.k):
        diff |= (cs.co[j] ^ cs.ci[j]) << j
    return diff


def unrank_combination(rank: int, region_size: int, e: int, base: int) -> list:
    """rank-th (0-based) lexicographic e-combination of [base, base+region_size)."""
    c = []
    prev = -1
    for slot in range(e):
        x = prev + 1
        while True:
            block = math.comb(region_size - 1 - x, e - 1 - slot)
            if rank < block:
                break
            rank -= block
            x += 1
        c.append(base + x)
        prev = x
    return c


def _run_chunk(args):
    tables, e, c0, count, hi, mirror, diff_field = args
    return _kernel.sweep_chunk(
        tables["full_o"], tables["full_i"],
        tables["inv_flip_o"], tables["inv_flip_i"], tables["dtab"],
        tables["m"], tables["k"], e, c0, count, hi, mirror, diff_field,
        tables["profile"],
    )


def sweep(cfg: OverlapConfig, region: Region, e_min: int, e_max: int,
          payload=None, injector: str = "mirror", workers: int = 1) -> list:
    """Exhaustive sweeps for every weight in [e_min, e_max].

    payload defaults to all-zero data.  injector is 'mirror' (reproduces the
    reference tables; default) or 'flip' (plain XOR).  workers > 1 splits
    each weight's pattern stream by index range and runs the chunks of every
    weight in one process pool; counters merge by summation, so results are
    identical for any worker count.
    """
    if injector not in ("mirror", "flip"):
        raise ValueError(f"injector must be 'mirror' or 'flip', got {injector!r}")
    size = region.size(cfg.m, cfg.n)
    if not 0 <= e_min <= e_max <= size:
        raise ValueError(f"need 0 <= e_min <= e_max <= {size} for {region.value}")
    data = (0,) * cfg.m if payload is None else as_bits(payload, cfg.m)
    cs = encode(cfg, data)
    mirror = 1 if injector == "mirror" else 0
    diff_field = payload_diff_field(cfg, cs) if mirror else 0
    tables = build_sweep_tables(cfg)
    base, hi = region.bounds(cfg.m, cfg.n)

    weights = range(e_min, e_max + 1)
    jobs = []
    for e in weights:
        total = math.comb(size, e)
        chunk = -(-total // max(1, min(workers, total)))
        for start in range(0, total, chunk):
            count = min(chunk, total - start)
            c0 = unrank_combination(start, size, e, base)
            jobs.append((tables, e, c0, count, hi, mirror, diff_field))
    if workers > 1 and len(jobs) > len(weights):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, jobs))
    else:
        results = [_run_chunk(j) for j in jobs]

    corrected = dict.fromkeys(weights, 0)
    detected = dict.fromkeys(weights, 0)
    for (_tables, e, *_rest), (c, d) in zip(jobs, results):
        corrected[e] += c
        detected[e] += d
    return [SweepReport(code=cfg.name, region=region, errors=e,
                        decodings=math.comb(size, e), corrected=corrected[e],
                        detected=detected[e])
            for e in weights]


def sweep_python_reference(cfg: OverlapConfig, region: Region, e: int,
                           payload=None, injector: str = "mirror") -> SweepReport:
    """Slow object-level sweep through the public decoder, for cross-checking.

    Applies each pattern with apply_pattern semantics (plus the mirror
    adjustment when asked), runs decode(), and compares data.  Used by tests
    to validate the integer kernel; unusable for large sweeps.
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

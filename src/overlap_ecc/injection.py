"""Exhaustive fault injection against the overlap codec.

Every error pattern of a given weight inside a region (data bits, check
bits, or the whole codestruct) is applied to an encoded word; the decoder
runs and two counters accumulate: patterns whose syndromes flagged anything
(detected) and patterns after which the data region equals the original
payload (corrected).  sweep() counts both exactly from the decode ladder's
action on each syndrome.  The integer kernel in _sweep_py decodes every
pattern one by one as an independent reference; the tests also compare
sweep() with an object-level sweep through the public decoder.

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
import math
from dataclasses import dataclass
from typing import Sequence

from . import _sweep_py as _kernel  # enumeration reference; benchmarks/perfbench/probes.py races it
from .code import Codestruct, OverlapConfig, encode


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

    def positions(self, m: int, n: int) -> range:
        """The region's layout positions in a word of m data bits and n bits."""
        if self is Region.DATA:
            return range(0, m)
        if self is Region.CHECK:
            return range(m, n)
        return range(0, n)


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


def _row(r: SweepReport) -> tuple:
    """A report's values in CSV_HEADER order, both rates rounded to two places."""
    return (r.code, r.region.value, r.errors, r.decodings, r.corrected, r.detected,
            round(r.correction_rate, 2), round(r.detection_rate, 2))


def reports_to_csv(reports: Sequence[SweepReport]) -> str:
    # a rounded rate prints with :.2f as the unrounded one does
    lines = [",".join(f"{v:.2f}" if isinstance(v, float) else str(v) for v in _row(r))
             for r in reports]
    return "\n".join([CSV_HEADER, *lines]) + "\n"


def reports_to_json_obj(reports: Sequence[SweepReport]) -> dict:
    names = CSV_HEADER.split(",")
    return {"schema": "overlap-ecc/sweep/1",
            "reports": [dict(zip(names, _row(r))) for r in reports]}


# --- kernel plumbing -------------------------------------------------------

def build_sweep_tables(cfg: OverlapConfig) -> dict:
    """Precomputed integer tables the reference kernel (_sweep_py) consumes.

    full_o/full_i split each position's packed syndrome contribution
    (see OverlapConfig.contributions) into its outer and inner halves,
    (error-address bits << 1) | parity bit.  inv_flip_o/inv_flip_i are dicts
    from a layer's error address to the single-bit data flip mask of the
    position the map puts there; dtab is a dict from the composite
    (outer << k) | inner key to the pair table's two-bit flip mask.  A key
    absent from any of them flips no data.  profile is the integer id of the
    config's decode profile (0 single_first, 1 double_first).
    """
    k = cfg.k
    contributions = cfg.contributions
    return {"m": cfg.m, "k": k,
            "full_o": [c >> (k + 1) for c in contributions],
            "full_i": [c & ((1 << (k + 1)) - 1) for c in contributions],
            "inv_flip_o": {a: 1 << p for p, a in enumerate(cfg.outer)},
            "inv_flip_i": {a: 1 << p for p, a in enumerate(cfg.inner)},
            "dtab": {(ko << k) | ki: (1 << a) | (1 << b)
                     for (ko, ki), (a, b) in cfg.pair_table.items()},
            "profile": int(cfg.decode_profile == "double_first")}


def payload_diff_field(cfg: OverlapConfig, cs: Codestruct) -> int:
    """Outer/inner check-bit differences of an encoded word, for mirror mode."""
    return sum((co ^ ci) << j for j, (co, ci) in enumerate(zip(cs.co, cs.ci)))


def _tally(groups, e_max: int) -> list:
    """counts[w][s]: ways to take at most one (syndrome, weight) option per
    group with the weights summing to w and the syndromes XORing to s."""
    counts = [collections.Counter({0: 1})] + [collections.Counter() for _ in range(e_max)]
    for options in groups:
        # top row first: every weight is >= 1, so it adds only to rows already read
        for w in range(e_max - 1, -1, -1):
            for s, ways in counts[w].items():
                for syndrome, weight in options:
                    if w + weight <= e_max:
                        counts[w + weight][s ^ syndrome] += ways
    return counts


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

    The first sweep of a config builds cfg.repairs over all 2^(2k+2)
    syndromes, so a wide k costs about 4x time and memory per step: with
    the 2x2 maps at k = 8, 9 and 10, sweep(cfg, Region.DATA, 1, 2) took
    0.23, 0.9-1.2 and 3.9-4.1 s at process peaks of 40, 115 and 416 MB
    (2 CPUs, Python 3.11).  k = 12 would need several GB; the k bound of 16
    does not keep a sweep small.
    """
    if injector not in ("mirror", "flip"):
        raise ValueError(f"injector must be 'mirror' or 'flip', got {injector!r}")
    span = region.positions(cfg.m, cfg.n)
    size = len(span)
    if not 0 <= e_min <= e_max <= size:
        raise ValueError(f"need 0 <= e_min <= e_max <= {size} for {region.value}")
    mirror = injector == "mirror"
    cs = encode(cfg, (0,) * cfg.m if payload is None else payload)
    diff_field = payload_diff_field(cfg, cs) if mirror else 0
    contrib = cfg.contributions
    checks = []
    if span.stop > cfg.m:
        by_part = Codestruct(contrib, cfg.k)  # the layout views split the contributions
        checks = [((by_part.po, 1),), ((by_part.pi, 1),)]
        for j, (co, ci) in enumerate(zip(by_part.co, by_part.ci)):
            # A mirrored ci_j flip stores NOT co_j: it lands alone when the
            # clean co_j equals ci_j, and with a co_j flip when they differ.
            differ = diff_field >> j & 1
            checks.append(((co, 1), (0 if mirror and differ else ci, 1),
                           (co if mirror and not differ else co ^ ci, 2)))
    check_part = _tally(checks, e_max)
    data_part = _tally([((contrib[p], 1),) for p in span if p < cfg.m], e_max)
    # F(s) holds data bits only: a region without them repairs with F(s) empty
    repairs = cfg.repairs if span.start < cfg.m else cfg.repairs[:1]
    return [SweepReport(code=cfg.name, region=region, errors=e, decodings=math.comb(size, e),
                        corrected=_meet(repairs, check_part, e),
                        detected=math.comb(size, e) - _meet(data_part, check_part, e))
            for e in range(e_min, e_max + 1)]


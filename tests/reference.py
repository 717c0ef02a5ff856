"""Independent reference implementations that tests compare the package against.

Each oracle here is a slower, plainer version of a package routine, a
fixed textbook codec or a Monte-Carlo estimate, kept unchanged so that a
rewrite of the routine is checked against the code it replaced.  None of
them ships in the package.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import random
import types
from typing import Iterator, Sequence

import numpy as np

from overlap_ecc import _sweep_py
from overlap_ecc.code import Codestruct, OverlapConfig, _ladder, decode, encode
from overlap_ecc.hamming import as_bits, available_addresses, min_check_bits
from overlap_ecc.injection import Region, SweepReport, payload_diff_field
from overlap_ecc.reliability import ReliabilityParams
from overlap_ecc.search import SearchNotFoundError, SearchResult


def search_assignment_reference(m: int, k: int | None = None, seed: int = 0) -> SearchResult:
    """The composite-key-set search kernel, as `search_assignment` first shipped it.

    Same traversal, RNG use and `explored` count as the package kernel;
    each candidate probes its own keys against a set of every placed key.
    """
    if m < 2:
        raise ValueError("need at least 2 data bits")
    if k is None:
        k = min_check_bits(m)
    pool = available_addresses(k)
    if len(pool) < m:
        raise ValueError(f"k={k} offers only {len(pool)} data addresses, need {m}")

    outer = pool[:m]
    rng = random.Random(seed) if seed else None

    # outer XOR of every data pair, fixed once
    okey = [[outer[a] ^ outer[b] for b in range(m)] for a in range(m)]

    inner = [-1] * m
    used = [False] * len(pool)
    seen_keys: set = set()
    explored = 0

    def extend(pos: int) -> bool:
        nonlocal explored
        if pos == m:
            return True
        order = list(range(len(pool)))
        if rng is not None:
            rng.shuffle(order)
        for idx in order:
            if used[idx]:
                continue
            cand = pool[idx]
            new_keys = []
            ok = True
            for prev in range(pos):
                key = (okey[prev][pos], inner[prev] ^ cand)
                if key in seen_keys or key in new_keys:
                    ok = False
                    break
                new_keys.append(key)
            explored += 1
            if not ok:
                continue
            inner[pos] = cand
            used[idx] = True
            seen_keys.update(new_keys)
            if extend(pos + 1):
                return True
            inner[pos] = -1
            used[idx] = False
            seen_keys.difference_update(new_keys)
        return False

    if not extend(0):
        raise SearchNotFoundError(m, k, explored)
    return SearchResult(k=k, outer=tuple(outer), inner=tuple(inner), explored=explored)


def reliability_at_reference(params: ReliabilityParams, t: float) -> float:
    """r(t) summed one binomial term at a time, as `reliability_at` first shipped it."""

    def p_i(i: int) -> float:
        p = -math.expm1(-params.lam * t)
        if p == 0.0:
            return 1.0 if i == 0 else 0.0
        if p == 1.0:
            return 1.0 if i == params.n else 0.0
        n = params.n
        log_c = math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        return math.exp(log_c + i * math.log(p) - params.lam * t * (n - i))

    miss = sum(p_i(i) * (1.0 - params.epsilon[i - 1]) for i in range(1, params.sigma + 1))
    return min(1.0, max(0.0, 1.0 - miss))


def mc_miss(params: ReliabilityParams, t: float, trials: int, seed: int):
    """Monte-Carlo estimate of the miss probability 1 - r(t).

    Samples the per-bit Bernoulli failure count and pays 1 - epsilon when
    the count lands in the modelled 1..sigma window.  Returns (mean,
    std-error).
    """
    p = -math.expm1(-params.lam * t)
    rng = np.random.default_rng(seed)
    counts = rng.binomial(params.n, p, size=trials)
    z = np.zeros(trials)
    for i in range(1, params.sigma + 1):
        z[counts == i] = 1.0 - params.epsilon[i - 1]
    return float(z.mean()), float(z.std(ddof=1) / math.sqrt(trials))


# --- fixed Ham(7,4) reference codec -------------------------------------
#
# Codeword layout [d0 d1 d2 d3 c0 c1 c2]; the checks cover the data bits
# whose addresses carry the check's weight (c0 -> 4, c1 -> 2, c2 -> 1):
#
#   c0 = d1 ^ d2 ^ d3        addresses 5, 6, 7
#   c1 = d0 ^ d2 ^ d3        addresses 3, 6, 7
#   c2 = d0 ^ d1 ^ d3        addresses 3, 5, 7
#
# Address -> position map (index into the 7-bit layout), 0 = no error:
HAM74_ADDRESS_TO_POSITION = (-1, 6, 5, 0, 4, 1, 2, 3)


def ham74_encode(data: Sequence[int]) -> tuple[int, ...]:
    """Encode 4 data bits into a Ham(7,4) codeword [d0 d1 d2 d3 c0 c1 c2]."""
    d = as_bits(data, 4)
    c0 = d[1] ^ d[2] ^ d[3]
    c1 = d[0] ^ d[2] ^ d[3]
    c2 = d[0] ^ d[1] ^ d[3]
    return d + (c0, c1, c2)


def ham74_syndrome(received: Sequence[int]) -> tuple[int, int, int]:
    """Syndrome [s0 s1 s2] of a received 7-bit word (stored XOR recomputed checks)."""
    w = as_bits(received, 7)
    fresh = ham74_encode(w[:4])
    return (w[4] ^ fresh[4], w[5] ^ fresh[5], w[6] ^ fresh[6])


def ham74_error_address(syndrome: Sequence[int]) -> int:
    """Error address from a 3-bit syndrome; 0 means no error.

    Check j carries address weight 2**(2-j), i.e. address = 4*s0 + 2*s1 + s2,
    so a single flipped bit yields its own address: c2=1, c1=2, d0=3, c0=4,
    d1=5, d2=6, d3=7 (see HAM74_ADDRESS_TO_POSITION).
    """
    s = as_bits(syndrome, 3)
    return (s[0] << 2) | (s[1] << 1) | s[2]


# --- repair table reference ------------------------------------------------

def repairs_reference(cfg: OverlapConfig) -> tuple:
    """The dense repair table, as `OverlapConfig.repairs` built it before its sparse walk.

    repairs[w][c]: syndromes s with |F(s)| = w and s ^ S(F(s)) = c, decoded
    over all 2^(2k+2) syndromes, so repairs[0] counts 1 for each s with
    F(s) empty.
    """
    contrib = cfg.contributions
    keys = ([], [], [])
    for s in range(1 << (2 * cfg.k + 2)):
        flips = _ladder(cfg, s)[1]
        keys[len(flips)].append(
            functools.reduce(operator.xor, map(contrib.__getitem__, flips), s))
    return tuple(types.MappingProxyType(collections.Counter(c)) for c in keys)


def repair_walk_bound(cfg: OverlapConfig) -> int:
    """Most syndromes the ladder can repair: 2 m 2^(k+1) + 4 C(m, 2).

    Each has an odd outer half holding an outer address, an odd inner half
    holding an inner address, or a pair-table key with any parities.
    """
    return 2 * cfg.m * (1 << (cfg.k + 1)) + 4 * math.comb(cfg.m, 2)


# --- object-level sweep reference ------------------------------------------

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
    span = region.positions(m, n)
    lo, hi = span.start, span.stop
    bits = list(cs.bits)
    for p in pattern:
        pos = lo + p
        if not lo <= pos < hi:
            raise ValueError(f"pattern position {p} outside {region.value} region")
        bits[pos] ^= 1
    return Codestruct.from_bits(bits, m, k)


def sweep_python_reference(cfg: OverlapConfig, region: Region, e: int,
                           payload=None, injector: str = "mirror") -> SweepReport:
    """Slow object-level sweep through the public decoder, for cross-checking.

    Applies each pattern with apply_pattern semantics (plus the mirror
    adjustment when asked), runs decode(), and compares data.  Used by tests
    to validate sweep(); unusable for large sweeps.
    """
    data = (0,) * cfg.m if payload is None else as_bits(payload, cfg.m)
    clean = encode(cfg, data)
    span = region.positions(cfg.m, cfg.n)
    size, base = len(span), span.start
    co_start = cfg.m  # offsets from m and k, independent of Codestruct's views
    ci_start = cfg.m + cfg.k + 1
    corrected = 0
    detected = 0
    total = 0
    for pattern in enumerate_patterns(size, e):
        corrupted = apply_pattern(clean, pattern, region)
        if injector == "mirror":
            bits = list(corrupted.bits)
            for p in pattern:
                pos = base + p
                if ci_start <= pos < ci_start + cfg.k:
                    j = pos - ci_start
                    bits[pos] = 1 ^ bits[co_start + j]
            corrupted = Codestruct.from_bits(bits, cfg.m, cfg.k)
        out = decode(cfg, corrupted)
        total += 1
        if out.detected:
            detected += 1
        if out.data == clean.data:
            corrected += 1
    return SweepReport(code=cfg.name, region=region, errors=e,
                       decodings=total, corrected=corrected, detected=detected)


def sweep_kernel_reference(cfg: OverlapConfig, region: Region, e: int, payload=None,
                           injector: str = "mirror", c0=None, count=None) -> tuple:
    """(corrected, detected) of the enumeration reference kernel, `_sweep_py.sweep_chunk`.

    Decodes `count` weight-e patterns of the region from combination c0
    (absolute positions, ascending); by default every pattern of the region.
    The kernel writes out its own decode ladder, independent of `code._ladder`.
    """
    span = region.positions(cfg.m, cfg.n)
    data = (0,) * cfg.m if payload is None else as_bits(payload, cfg.m)
    mirror = int(injector == "mirror")
    t = _sweep_py.build_sweep_tables(cfg)
    return _sweep_py.sweep_chunk(
        t["full_o"], t["full_i"], t["inv_flip_o"], t["inv_flip_i"], t["dtab"], t["m"], t["k"],
        e, list(range(span.start, span.start + e) if c0 is None else c0),
        math.comb(len(span), e) if count is None else count, span.stop,
        mirror, payload_diff_field(cfg, encode(cfg, data)) * mirror, t["profile"])

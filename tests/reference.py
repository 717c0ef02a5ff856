"""Independent reference implementations that tests compare the package against.

Each oracle here is a slower, plainer version of a package routine, kept
unchanged so that a rewrite of the routine is checked against the code it
replaced.
"""

from __future__ import annotations

import math
import random

from overlap_ecc.hamming import min_check_bits
from overlap_ecc.reliability import ReliabilityParams
from overlap_ecc.search import SearchNotFoundError, SearchResult, available_addresses


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
    return SearchResult(m=m, k=k, outer=tuple(outer), inner=tuple(inner), explored=explored)


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

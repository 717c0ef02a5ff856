"""Search for valid overlap address assignments.

A pair of layer assignments is valid when the composite double-error key
(lo(a) XOR lo(b), li(a) XOR li(b)) is distinct for every unordered data pair
{a, b}: that is exactly what lets the decoder resolve two data errors.  The
outer layer is fixed to the lexicographically smallest choice (the data
addresses in ascending order) and the inner layer is found by backtracking,
pruning any partial assignment that repeats a composite key.

Inner address c at position pos adds the keys (lo(p) XOR lo(pos),
li(p) XOR c) for p < pos.  Outer addresses are distinct, so these keys have
distinct outer halves and can only collide with keys already placed.  Placed
keys are filed by outer half; once per node the search gathers every c that
would repeat one into a forbidden set, so each candidate costs one lookup.

The search is deterministic for a given seed.  Seed 0 tries candidate
addresses in ascending order at every step; any other seed shuffles the
candidate order per step with a seeded RNG.  `explored` counts every unused
candidate examined, pruned or not; the `search` report prints it, so it is
part of that report's golden bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .code import AddressAssignment, OverlapConfig
from .hamming import min_check_bits


def available_addresses(k: int) -> tuple:
    """Usable data addresses for k check bits: non-powers-of-two in [3, 2**k - 1]."""
    if k < 2:
        raise ValueError("need at least 2 check bits")
    return tuple(a for a in range(3, 1 << k) if a & (a - 1) != 0)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking one assignment pair, with collision witnesses."""

    ok: bool
    collisions: tuple = ()  # ((pair_a, pair_b, key), ...)

    def __bool__(self) -> bool:
        return self.ok


def validate_assignment(outer, inner) -> ValidationReport:
    """Check composite-key injectivity over all data pairs.

    Accepts AddressAssignment objects or plain address sequences.
    """
    lo = tuple(getattr(outer, "logical_of_physical", outer))
    li = tuple(getattr(inner, "logical_of_physical", inner))
    if len(lo) != len(li):
        raise ValueError("layers assign different numbers of positions")
    m = len(lo)
    seen = {}
    collisions = []
    for a in range(m):
        for b in range(a + 1, m):
            key = (lo[a] ^ lo[b], li[a] ^ li[b])
            if key in seen:
                collisions.append((seen[key], (a, b), key))
            else:
                seen[key] = (a, b)
    return ValidationReport(ok=not collisions, collisions=tuple(collisions))


class SearchNotFoundError(Exception):
    """No valid inner assignment exists under the given parameters."""

    def __init__(self, m: int, k: int, explored: int):
        self.m = m
        self.k = k
        self.explored = explored
        super().__init__(
            f"no valid assignment for m={m}, k={k} "
            f"(explored {explored} partial states)"
        )


@dataclass
class SearchResult:
    m: int
    k: int
    outer: tuple
    inner: tuple
    explored: int = field(default=0)

    def to_config(self, name: str, rows: int, cols: int) -> OverlapConfig:
        return OverlapConfig(
            name=name, rows=rows, cols=cols,
            outer=AddressAssignment.from_logical(self.outer, self.k),
            inner=AddressAssignment.from_logical(self.inner, self.k),
        )


def search_assignment(m: int, k: int | None = None, seed: int = 0) -> SearchResult:
    """Find a valid (outer, inner) assignment pair for m data bits.

    The outer layer takes the m smallest usable addresses in ascending
    order; the inner layer is built position by position over the same
    address set.  Raises SearchNotFoundError (with the number of partial
    states explored) if the tree is exhausted.
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

    # placed pairs' inner XORs by outer XOR; slots[pos][p] is pair (p, pos)'s list
    by_outer = [[] for _ in range(1 << k)]
    slots = [[by_outer[outer[p] ^ outer[pos]] for p in range(pos)] for pos in range(m)]
    inner = [-1] * m
    used = [False] * len(pool)
    explored = 0

    def extend(pos: int) -> bool:
        nonlocal explored
        if pos == m:
            return True
        order = list(range(len(pool)))
        if rng is not None:
            rng.shuffle(order)
        row = slots[pos]
        forbidden = {inner[p] ^ d for p, placed in enumerate(row) for d in placed}
        for idx in order:
            if used[idx]:
                continue
            explored += 1
            cand = pool[idx]
            if cand in forbidden:
                continue
            inner[pos] = cand
            used[idx] = True
            for p, placed in enumerate(row):
                placed.append(inner[p] ^ cand)
            if extend(pos + 1):
                return True
            for placed in row:
                placed.pop()
            used[idx] = False
        return False

    if not extend(0):
        raise SearchNotFoundError(m, k, explored)
    return SearchResult(m=m, k=k, outer=tuple(outer), inner=tuple(inner), explored=explored)

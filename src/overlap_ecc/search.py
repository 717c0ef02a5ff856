"""Search for valid overlap address assignments, and validate a given pair.

A pair of layer assignments is valid when the composite double-error key
(lo(a) XOR lo(b), li(a) XOR li(b)) is distinct for every unordered data pair
{a, b}: that is exactly what lets the decoder resolve two data errors.
validate_assignment reports the collisions of code.scan_composite_keys, the
scan that also builds the decoder's pair table.  The search fixes the outer
layer to the smallest choice (hamming.available_addresses, ascending) and
finds the inner layer by backtracking, pruning any partial assignment that
repeats a composite key.

Inner address c at position pos adds the keys (lo(p) XOR lo(pos),
li(p) XOR c) for p < pos.  Their outer halves are distinct, so they can only
collide with a placed key (lo(a) XOR lo(b), li(a) XOR li(b)): exactly when
c = li(p) XOR li(a) XOR li(b) and lo(p) XOR lo(a) XOR lo(b) = lo(pos), with p,
a, b distinct.  So c is forbidden at pos when it is li(x) XOR li(y) XOR li(z)
for a triple x < y < z < pos whose outer XOR is lo(pos).  The triples of each
pos are listed once per search, split into those with z < pos - 1 and the
pairs (x, y) completed by z = pos - 1.  Neither part reads li(pos - 1), so a
node builds its children's two sets once, shared by every child: c is
forbidden when it is in the first or c XOR li(pos - 1) is in the second.

The search is deterministic for a given seed.  Seed 0 tries candidate
addresses in ascending order at every step; a positive seed shuffles the
candidate order per step as Random(seed).shuffle does.  A negative seed is
refused: Random seeds itself with |seed|, so -s would repeat seed s's search
while the report names -s.  `explored` counts every unused candidate
examined, pruned or not; the `search` report prints it, so it is part of
that report's golden bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .code import OverlapConfig, scan_composite_keys
from .hamming import available_addresses, min_check_bits


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking one assignment pair, with collision witnesses."""

    collisions: tuple  # ((pair_a, pair_b, key), ...)

    @property
    def ok(self) -> bool:
        return not self.collisions


def validate_assignment(outer, inner) -> ValidationReport:
    """Check composite-key injectivity over all data pairs of two address maps."""
    if len(outer) != len(inner):
        raise ValueError("layers assign different numbers of positions")
    _, collisions = scan_composite_keys(outer, inner)
    return ValidationReport(tuple(collisions))


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
    k: int
    outer: tuple
    inner: tuple
    explored: int = 0

    @property
    def m(self) -> int:
        return len(self.outer)

    def to_config(self, name: str) -> OverlapConfig:
        return OverlapConfig(name=name, k=self.k, outer=self.outer, inner=self.inner)


def _candidate_orders(n: int, seed: int):
    """A function that returns the next node's order of the n pool indices.

    Seed 0 gives range(n) every time.  A positive seed gives what
    Random(seed).shuffle makes of list(range(n)), one shuffle per call,
    with its draws made inline: j = getrandbits(bit length of i + 1),
    redrawn while j > i, exactly as shuffle's _randbelow does, but
    without a method call per swap.
    """
    if not seed:
        ascending = range(n)
        return lambda: ascending
    getrandbits = random.Random(seed).getrandbits
    width = [(i + 1).bit_length() for i in range(n)]

    def shuffled() -> list:
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = getrandbits(width[i])
            while j > i:
                j = getrandbits(width[i])
            order[i], order[j] = order[j], order[i]
        return order

    return shuffled


def search_assignment(m: int, k: int | None = None, seed: int = 0) -> SearchResult:
    """Find a valid (outer, inner) assignment pair for m data bits.

    The outer layer takes the m smallest usable addresses in ascending
    order; the inner layer is built position by position over the same
    address set.  Raises ValueError for a negative seed, and
    SearchNotFoundError (with the number of partial states explored) if the
    tree is exhausted.
    """
    if m < 2:
        raise ValueError("need at least 2 data bits")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if k is None:
        k = min_check_bits(m)
    pool = available_addresses(k)
    if len(pool) < m:
        raise ValueError(f"k={k} offers only {len(pool)} data addresses, need {m}")

    outer = pool[:m]
    candidate_order = _candidate_orders(len(pool), seed)

    # far[pos]: triples x < y < z < pos - 1 whose outer XOR is outer[pos];
    # near[pos]: pairs (x, y) that complete such a triple with z = pos - 1
    position = {a: i for i, a in enumerate(outer)}
    far = [[] for _ in range(m + 1)]
    near = [[] for _ in range(m + 1)]
    for z in range(m):
        for y in range(z):
            yz = outer[y] ^ outer[z]
            for x in range(y):
                pos = position.get(outer[x] ^ yz, -1)
                if pos == z + 1:
                    near[pos].append((x, y))
                elif pos > z:
                    far[pos].append((x, y, z))
    inner = [-1] * m
    used = [False] * len(pool)
    explored = 0

    def extend(pos: int, base: set, pairs: set) -> bool:
        nonlocal explored
        if pos == m:
            return True
        last = inner[pos - 1]  # pairs is empty at pos 0
        children = None
        for idx in candidate_order():
            if used[idx]:
                continue
            explored += 1
            cand = pool[idx]
            if cand in base or cand ^ last in pairs:
                continue
            if children is None:
                children = ({inner[x] ^ inner[y] ^ inner[z] for x, y, z in far[pos + 1]},
                            {inner[x] ^ inner[y] for x, y in near[pos + 1]})
            inner[pos] = cand
            used[idx] = True
            if extend(pos + 1, *children):
                return True
            used[idx] = False
        return False

    if not extend(0, set(), set()):
        raise SearchNotFoundError(m, k, explored)
    return SearchResult(k=k, outer=tuple(outer), inner=tuple(inner), explored=explored)

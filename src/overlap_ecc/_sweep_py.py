"""The enumeration reference kernel and its integer tables; no command imports it.

Processes a contiguous lexicographic range of error patterns of fixed weight
and tallies decoder outcomes.  It writes out its own copy of the decode
ladder over integer tables, independent of the codec's own ladder
(code._ladder), so the tests and the benchmark can pin it against the codec
and the exact counts of injection.sweep().

Patterns are combinations of absolute bit positions.  Each pattern is
decoded on its own: its syndrome is the XOR of its positions' packed
contributions (address bits shifted left by one, parity bit in bit 0).

The tables: full_o/full_i split each position's packed contribution
(OverlapConfig.contributions) into its outer and inner halves;
inv_flip_o/inv_flip_i map a layer's error address to the single-bit data
flip mask of the position the map puts there; dtab maps the composite
(outer << k) | inner key to the pair table's two-bit flip mask, and a key
absent from any of them flips no data.  profile is the id of the config's
decode profile (0 single_first, 1 double_first).
"""

from __future__ import annotations

from .code import OverlapConfig


def build_sweep_tables(cfg: OverlapConfig) -> dict:
    """Precomputed integer tables the reference kernel consumes."""
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


def sweep_chunk(full_o, full_i, inv_flip_o, inv_flip_i, dtab,
                m, k, e, c0, count, hi, mirror, diff_field, profile):
    """Decode `count` patterns starting at combination `c0`.

    The first five arguments and m, k, profile are build_sweep_tables'
    entries.  Weight e, positions drawn from [c0[0]..hi), c0 ascending;
    stops early after the last combination.

    With mirror set, a flipped inner check bit ci_j is realized as "store
    the complement of co_j" (parities are exempt and flip normally), so it
    does not land when co_j's current value already equals ci_j's target;
    bit j of diff_field is the payload's encoded co_j XOR ci_j.

    profile 0 tries the single-error branches before the pair table;
    profile 1 probes the pair table first whenever the inner parity
    syndrome is even and falls back to the single branches on a miss.

    Returns (corrected, detected) counts.
    """
    if count <= 0:
        return 0, 0
    if e == 0:
        return 1, 0

    c = list(c0)
    ci = range(m + k + 1, m + 2 * k + 1) if mirror else ()  # ci_j; co_j sits at m + j
    corrected = detected = 0
    for _ in range(count):
        mask = o = i = 0
        for p in c:  # ascending, so co_j is in mask before ci_j is read
            mask |= 1 << p
            if p in ci and (mask >> (p - k - 1) & 1) != (diff_field >> (p - ci.start) & 1):
                continue  # this ci_j flip does not land
            o ^= full_o[p]
            i ^= full_i[p]
        if o or i:
            detected += 1
        ear_o, ear_i = o >> 1, i >> 1
        flips = 0
        if ear_o and ear_i:
            key = (ear_o << k) | ear_i
            if profile and not i & 1:
                flips = dtab.get(key, 0)
            if not flips:
                flips = (inv_flip_o.get(ear_o, 0) if o & 1
                         else inv_flip_i.get(ear_i, 0) if i & 1
                         else dtab.get(key, 0))
        if (mask & ((1 << m) - 1)) == flips:
            corrected += 1

        # step to the next combination, or stop after the last one
        j = e - 1
        while j >= 0 and c[j] == hi - e + j:
            j -= 1
        if j < 0:
            break
        c[j:] = range(c[j] + 1, c[j] + 1 + e - j)

    return corrected, detected

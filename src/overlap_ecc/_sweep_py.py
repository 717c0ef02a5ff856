"""The enumeration reference kernel.

Processes a contiguous lexicographic range of error patterns of fixed weight
and tallies decoder outcomes.  It writes out its own copy of the decode
ladder over integer tables (injection.build_sweep_tables), independent of
the codec's own ladder (code._ladder), so the tests and the benchmark can
pin it against the codec and the exact counts of injection.sweep().

Patterns are combinations of absolute bit positions.  Per-position syndrome
contributions are precomputed as packed integers (address bits shifted left
by one, parity bit in bit 0), so decoding a pattern is a handful of XORs and
two table lookups; the pattern's syndrome accumulators are updated
incrementally as the combination steps, since a lexicographic step usually
moves a single position.
"""

from __future__ import annotations


def sweep_chunk(full_o, full_i, inv_flip_o, inv_flip_i, dtab,
                m, k, e, c0, count, hi, mirror, diff_field, profile):
    """Decode `count` patterns starting at combination `c0`.

    full_o/full_i: per-position packed syndrome contributions (len n);
    inv_flip_o/inv_flip_i: error-address -> data flip mask (len 2**k, 0 when
    the address maps to no data position); dtab: composite double-error key
    -> pair flip mask (len 2**(2k), 0 when unmapped); m data bits, k check
    bits per layer, weight e, positions drawn from [c0[0]..hi).

    With mirror set, a flipped inner check bit ci_j is realized as "store
    the complement of co_j" (parities pi/po are exempt and flip normally),
    so the flip is cancelled whenever co_j's current value already equals
    ci_j's target; diff_field carries the encoded outer/inner check-bit
    differences of the payload (bit j: co_j XOR ci_j).

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
    dmask = (1 << m) - 1
    km = (1 << k) - 1
    ci_shift = m + k + 1

    acc_o = 0
    acc_i = 0
    mask = 0
    for p in c:
        acc_o ^= full_o[p]
        acc_i ^= full_i[p]
        mask |= 1 << p

    corrected = 0
    detected = 0
    remaining = count
    while True:
        o = acc_o
        i = acc_i
        if mirror and mask >> m:
            kill = ((mask >> ci_shift) & ((mask >> m) ^ diff_field)) & km
            while kill:
                lsb = kill & -kill
                kill ^= lsb
                i ^= full_i[ci_shift + lsb.bit_length() - 1]
        if o or i:
            detected += 1
        ear_o = o >> 1
        ear_i = i >> 1
        if ear_o == 0 or ear_i == 0:
            flips = 0
        else:
            hit = 0
            if profile and not (i & 1):
                hit = dtab[(ear_o << k) | ear_i]
            if hit:
                flips = hit
            elif o & 1:
                flips = inv_flip_o[ear_o]
            elif i & 1:
                flips = inv_flip_i[ear_i]
            else:
                flips = dtab[(ear_o << k) | ear_i]
        if ((mask & dmask) ^ flips) == 0:
            corrected += 1

        remaining -= 1
        if not remaining:
            break

        # advance to the next combination, updating accumulators in place
        j = e - 1
        while c[j] == hi - e + j:
            j -= 1
        for t in range(j, e):
            p = c[t]
            acc_o ^= full_o[p]
            acc_i ^= full_i[p]
            mask ^= 1 << p
        c[j] += 1
        for t in range(j + 1, e):
            c[t] = c[t - 1] + 1
        for t in range(j, e):
            p = c[t]
            acc_o ^= full_o[p]
            acc_i ^= full_i[p]
            mask ^= 1 << p

    return corrected, detected

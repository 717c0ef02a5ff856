"""Extended-Hamming building blocks shared by both overlap layers.

Hamming codes are handled here in their XOR form rather than through
generator/parity-check matrices: check bit j of a k-check code covers every
data bit whose logical address has bit 2**(k-1-j) set, so the syndrome of a
single-bit error reads back the flipped bit's address directly.  The fixed
Ham(7,4) codec at the bottom is small enough to verify exhaustively and
serves as a cross-check oracle for the address conventions used everywhere
else.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _check_bits(bits: Iterable[int]) -> tuple[int, ...]:
    out = tuple(bits)
    for b in out:
        if b not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {b!r}")
    return out


def min_check_bits(m: int) -> int:
    """Smallest k such that 2**k >= k + m + 1.

    k check bits address 2**k - 1 positions, of which k are taken by the
    check bits themselves, leaving 2**k - k - 1 usable data addresses.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    k = 1
    while (1 << k) < k + m + 1:
        k += 1
    return k


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
    d = _check_bits(data)
    if len(d) != 4:
        raise ValueError(f"ham74_encode expects 4 data bits, got {len(d)}")
    c0 = d[1] ^ d[2] ^ d[3]
    c1 = d[0] ^ d[2] ^ d[3]
    c2 = d[0] ^ d[1] ^ d[3]
    return d + (c0, c1, c2)


def ham74_syndrome(received: Sequence[int]) -> tuple[int, int, int]:
    """Syndrome [s0 s1 s2] of a received 7-bit word (stored XOR recomputed checks)."""
    w = _check_bits(received)
    if len(w) != 7:
        raise ValueError(f"ham74_syndrome expects 7 bits, got {len(w)}")
    fresh = ham74_encode(w[:4])
    return (w[4] ^ fresh[4], w[5] ^ fresh[5], w[6] ^ fresh[6])


def ham74_error_address(syndrome: Sequence[int]) -> int:
    """Error address from a 3-bit syndrome; 0 means no error.

    Check j carries address weight 2**(2-j), i.e. address = 4*s0 + 2*s1 + s2,
    so a single flipped bit yields its own address: c2=1, c1=2, d0=3, c0=4,
    d1=5, d2=6, d3=7 (see HAM74_ADDRESS_TO_POSITION).
    """
    s = _check_bits(syndrome)
    if len(s) != 3:
        raise ValueError(f"ham74_error_address expects 3 syndrome bits, got {len(s)}")
    return (s[0] << 2) | (s[1] << 1) | s[2]

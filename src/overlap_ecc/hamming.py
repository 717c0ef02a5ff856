"""Extended-Hamming building blocks shared by both overlap layers.

Hamming codes are handled here in their XOR form rather than through
generator/parity-check matrices: check bit j of a k-check code covers every
data bit whose logical address has bit 2**(k-1-j) set, so the syndrome of a
single-bit error reads back the flipped bit's address directly.  The fixed
Ham(7,4) codec at the bottom is small enough to verify exhaustively and
serves as a cross-check oracle for the address conventions used everywhere
else: the 2x2 code's outer layer gives its data bits exactly Ham(7,4)'s data
addresses, so the two must produce the same check bits.  ``as_bits`` is the
package's one bit-sequence validator.
"""

from __future__ import annotations

from typing import Sequence


BitVec = tuple  # ordered 0/1 ints

#: largest check-bit count per layer: address tables have 2**k entries
MAX_CHECK_BITS = 16


def as_bits(value, length: int | None = None) -> BitVec:
    """Normalize a bit sequence ('0101', [0,1,0,1], ...) to a tuple of ints."""
    if isinstance(value, str):
        try:
            bits = tuple(int(ch) for ch in value)
        except ValueError:
            raise ValueError(f"not a bit string: {value!r}") from None
    else:
        bits = tuple(value)
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {b!r}")
    if length is not None and len(bits) != length:
        raise ValueError(f"expected {length} bits, got {len(bits)}")
    return bits


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

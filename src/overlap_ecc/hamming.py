"""Extended-Hamming building blocks shared by both overlap layers.

Hamming codes are handled here in their XOR form rather than through
generator/parity-check matrices: check bit j of a k-check code covers every
data bit whose logical address has bit 2**(k-1-j) set, so the syndrome of a
single-bit error reads back the flipped bit's address directly.  The
tests check this convention against a fixed Ham(7,4) codec, whose data
addresses the 2x2 code's outer layer uses.  ``as_bits`` is the package's
one bit-sequence validator.
"""

from __future__ import annotations


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


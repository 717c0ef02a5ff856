"""Hamming address rule, check-bit bounds and the bit normalizer.

Each layer of the overlapped code is a Hamming code over logical addresses
(Hamming 1950): with k check bits every nonzero address below 2**k names
one position, the powers of two are the check bits' own positions, and
every other address may carry a data bit.  ``is_data_address`` states that
rule and ``require_k`` the bound on k; ``available_addresses`` lists the
addresses the rule allows.  ``min_check_bits`` sizes k for m data bits, and
``as_bits`` normalizes an input bit sequence to a tuple of plain ints.
"""

from __future__ import annotations


BitVec = tuple  # ordered 0/1 ints

#: largest check-bit count per layer: the search pool, available_addresses(k),
#: holds 2**k - k - 1 addresses (a sweep's cost grows faster; see injection.sweep)
MAX_CHECK_BITS = 16

# item -> plain int bit; True and 1.0 equal 1, so they look up as 1
_BIT_OF_ITEM = {0: 0, 1: 1}
_BIT_OF_CHAR = {"0": 0, "1": 1}
_ZERO, _ONE = 0, 1


def as_bits(value, length: int | None = None) -> BitVec:
    """Normalize a bit sequence ('0101', [0,1,0,1], ...) to a tuple of plain ints.

    A string holds ASCII '0' and '1' only; other items must equal 0 or 1.
    """
    bits = tuple(value)
    for b in bits:  # CPython's ints 0 and 1 are singletons: plain bits pass on identity
        if b is not _ZERO and b is not _ONE:
            table = _BIT_OF_CHAR if isinstance(value, str) else _BIT_OF_ITEM
            try:
                bits = tuple(map(table.__getitem__, bits))
            except (KeyError, TypeError):  # TypeError: an unhashable item
                raise ValueError(f"bit values must be 0 or 1, got {value!r}") from None
            break
    if length is not None and len(bits) != length:
        raise ValueError(f"expected {length} bits, got {len(bits)}")
    return bits


def require_k(k: int) -> None:
    """Reject a check-bit count outside [2, MAX_CHECK_BITS]."""
    if not 2 <= k <= MAX_CHECK_BITS:
        raise ValueError(f"k must be in [2, {MAX_CHECK_BITS}], got {k}")


def is_data_address(a: int, k: int) -> bool:
    """Whether a may carry a data bit: in [1, 2**k - 1] and not a power of two."""
    return 0 < a < 1 << k and a & (a - 1) != 0


def available_addresses(k: int) -> tuple:
    """Every usable data address for k check bits, ascending."""
    require_k(k)
    return tuple(a for a in range(1 << k) if is_data_address(a, k))


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

"""Checks for the shared Hamming building blocks and the Ham(7,4) oracle."""

import pytest

from overlap_ecc.hamming import (
    HAM74_ADDRESS_TO_POSITION,
    ham74_encode,
    ham74_error_address,
    ham74_syndrome,
    min_check_bits,
)


@pytest.mark.parametrize("m,k", [(1, 2), (4, 3), (9, 4), (11, 4), (16, 5),
                                 (26, 5), (27, 6), (57, 6), (1024, 11)])
def test_min_check_bits(m, k):
    assert min_check_bits(m) == k
    # minimality: one check bit fewer cannot address m data bits
    assert (1 << (k - 1)) < (k - 1) + m + 1


def test_min_check_bits_rejects_nonpositive():
    with pytest.raises(ValueError):
        min_check_bits(0)


def test_ham74_encode_worked_example():
    # 1000 encodes to 1000011: c0 covers d1..d3 (0), c1 and c2 cover d0 (1)
    assert ham74_encode((1, 0, 0, 0)) == (1, 0, 0, 0, 0, 1, 1)


def test_ham74_flip_d1_reads_address_5():
    word = list(ham74_encode((1, 0, 0, 0)))
    word[1] ^= 1  # d1 sits at address 5
    syn = ham74_syndrome(word)
    assert ham74_error_address(syn) == 5
    assert HAM74_ADDRESS_TO_POSITION[5] == 1


def test_ham74_exhaustive_single_error():
    # every (payload, flipped position) pair: 16 x 7 cases
    for value in range(16):
        data = tuple((value >> (3 - i)) & 1 for i in range(4))
        clean = ham74_encode(data)
        assert ham74_error_address(ham74_syndrome(clean)) == 0
        for pos in range(7):
            word = list(clean)
            word[pos] ^= 1
            addr = ham74_error_address(ham74_syndrome(word))
            assert HAM74_ADDRESS_TO_POSITION[addr] == pos
            word[pos] ^= 1
            assert ham74_error_address(ham74_syndrome(word)) == 0


def test_ham74_input_validation():
    with pytest.raises(ValueError):
        ham74_encode((1, 0, 0))
    with pytest.raises(ValueError):
        ham74_syndrome([0] * 6)
    with pytest.raises(ValueError):
        ham74_error_address((1, 0))

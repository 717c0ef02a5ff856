"""Address-assignment search and validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import search_assignment_reference

from overlap_ecc.code import BUILTIN_NAMES, OverlapConfig, builtin_config
from overlap_ecc.hamming import MAX_CHECK_BITS, available_addresses
from overlap_ecc.search import (
    SearchNotFoundError,
    search_assignment,
    validate_assignment,
)


def test_available_addresses_skips_powers_of_two():
    assert available_addresses(3) == (3, 5, 6, 7)
    pool5 = available_addresses(5)
    assert len(pool5) == 26
    assert all(a & (a - 1) for a in pool5)
    assert all(3 <= a <= 31 for a in pool5)
    with pytest.raises(ValueError):
        available_addresses(1)
    assert len(available_addresses(MAX_CHECK_BITS)) == (1 << MAX_CHECK_BITS) - MAX_CHECK_BITS - 1
    with pytest.raises(ValueError, match=rf"\[2, {MAX_CHECK_BITS}\]"):
        available_addresses(MAX_CHECK_BITS + 1)


def test_search_rejects_k_past_the_bound_before_allocating():
    # a pool for k=40 would hold about 2**40 addresses; the bound check comes first
    with pytest.raises(ValueError, match=rf"\[2, {MAX_CHECK_BITS}\]"):
        search_assignment(4, k=40)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_maps_validate(name):
    cfg = builtin_config(name)
    report = validate_assignment(cfg.outer, cfg.inner)
    assert report.ok
    assert report.collisions == ()


def test_identity_pair_collides():
    # same permutation in both layers: every pair key degenerates to (x, x)
    addrs = available_addresses(4)[:9]
    report = validate_assignment(addrs, addrs)
    assert not report.ok
    assert report.collisions
    (first, second, key) = report.collisions[0]
    assert key[0] == key[1]
    assert first != second


@st.composite
def _map_pairs(draw):
    """(k, outer, inner): two maps of m distinct usable addresses, k in 3..4."""
    k = draw(st.integers(3, 4))
    pool = available_addresses(k)
    m = draw(st.integers(2, len(pool)))
    layer = st.permutations(pool).map(lambda p: tuple(p[:m]))
    return k, draw(layer), draw(layer)


@settings(deadline=None, max_examples=200)
@given(_map_pairs())
def test_validation_agrees_with_the_pair_table(maps):
    # one composite-key scan serves both: the report is ok exactly when the
    # config's pair table builds, and a failed build names the first collision
    k, outer, inner = maps
    report = validate_assignment(outer, inner)
    cfg = OverlapConfig(name="h", k=k, outer=outer, inner=inner)
    if report.ok:
        assert len(cfg.pair_table) == len(outer) * (len(outer) - 1) // 2
    else:
        first, second, key = report.collisions[0]
        with pytest.raises(ValueError) as err:
            cfg.pair_table
        assert str(err.value) == (f"composite address collision: pairs {first} and "
                                  f"{second} both map to {key}")


def test_validate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        validate_assignment((3, 5, 6), (3, 5))


@pytest.mark.parametrize("m", [4, 9, 16])
def test_search_finds_valid_assignment(m):
    res = search_assignment(m)
    assert len(res.outer) == len(res.inner) == m
    assert validate_assignment(res.outer, res.inner).ok
    # outer convention: smallest usable addresses, ascending
    assert res.outer == available_addresses(res.k)[:m]


def test_search_is_deterministic_per_seed():
    a = search_assignment(9, seed=7)
    b = search_assignment(9, seed=7)
    c = search_assignment(9, seed=8)
    assert a.inner == b.inner
    assert a.inner != c.inner or a.outer != c.outer  # overwhelmingly distinct


def _oracle_grid():
    """k = 3 at every m, k = 4 up to m = 11, k = 5 up to m = 18; seeds 0-3.

    Then five wider problems where the search backtracks through thousands
    of states (7,959 to 19,656 explored).
    """
    for k, m_max in ((3, len(available_addresses(3))), (4, 11), (5, 18)):
        for m in range(2, m_max + 1):
            for seed in range(4):
                yield m, k, seed
    yield from ((40, 6, 0), (43, 6, 1), (43, 6, 2), (56, 7, 1), (59, 7, 2))


def test_search_matches_the_reference_kernel():
    # No small geometry exhausts the tree, so SearchNotFoundError has no case here.
    for m, k, seed in _oracle_grid():
        got = search_assignment(m, k, seed)
        want = search_assignment_reference(m, k, seed)
        assert (got.outer, got.inner, got.explored) == \
            (want.outer, want.inner, want.explored), (m, k, seed)


@pytest.mark.parametrize("m, k, seed, explored",
                         [(25, 5, 1, 34693), (25, 5, 3, 59938), (41, 6, 0, 187200),
                          (64, 7, 0, 51469), (70, 7, 0, 51620)])
def test_search_explored_counts_are_pinned(m, k, seed, explored):
    # the explored count is printed in the golden search report
    res = search_assignment(m, k, seed)
    assert res.explored == explored
    assert validate_assignment(res.outer, res.inner).ok


def test_search_respects_explicit_k():
    res = search_assignment(9, k=5)
    assert res.k == 5
    assert all(a < 32 for a in res.outer + res.inner)


def test_search_rejects_impossible_geometry():
    with pytest.raises(ValueError):
        search_assignment(12, k=4)  # only 11 usable addresses at k=4
    with pytest.raises(ValueError):
        search_assignment(1)


def test_not_found_error_carries_explored_count():
    err = SearchNotFoundError(9, 4, explored=123)
    assert err.m == 9 and err.k == 4 and err.explored == 123
    assert "123" in str(err)


def test_search_result_builds_working_config():
    from overlap_ecc.code import decode, encode

    res = search_assignment(6, seed=3)
    cfg = res.to_config("2x3")
    clean = encode(cfg, (1, 0, 1, 1, 0, 0))
    bits = list(clean.bits)
    bits[1] ^= 1
    bits[4] ^= 1
    from overlap_ecc.code import Codestruct

    out = decode(cfg, Codestruct.from_bits(bits, cfg.m, cfg.k))
    assert out.data == clean.data

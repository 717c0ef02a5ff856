"""Redundancy-cost rows and the stored reference table."""

import pytest

from overlap_ecc.code import builtin_config
from overlap_ecc.scalability import compare, comparison_to_csv, overlapped_cost

# the full expected cost table: size -> {ecc: (check_bits, total_bits, rc)}
EXPECTED = {
    "2x2": {"overlapped": (8, 12, 0.67), "Matrix": (8, 12, 0.67),
            "PBD": (5, 9, 0.56), "CLC": (14, 18, 0.78)},
    "3x3": {"overlapped": (10, 19, 0.53), "Matrix": (12, 21, 0.57),
            "PBD": (12, 21, 0.57), "CLC": (19, 28, 0.68)},
    "4x4": {"overlapped": (12, 28, 0.43), "Matrix": (16, 32, 0.50),
            "PBD": (20, 36, 0.56), "CLC": (24, 40, 0.60)},
    "5x5": {"overlapped": (12, 37, 0.32), "Matrix": (25, 50, 0.50),
            "PBD": (32, 57, 0.56), "CLC": (35, 60, 0.58)},
    "6x6": {"overlapped": (14, 50, 0.28), "Matrix": (30, 66, 0.45),
            "PBD": (45, 81, 0.56), "CLC": (41, 77, 0.53)},
    "7x7": {"overlapped": (14, 63, 0.22), "Matrix": (35, 84, 0.42),
            "PBD": (62, 111, 0.56), "CLC": (47, 96, 0.49)},
}


@pytest.mark.parametrize("side", range(2, 8))
def test_overlapped_costs_match_expected(side):
    row = overlapped_cost(side, side)
    cb, cs, rc = EXPECTED[f"{side}x{side}"]["overlapped"]
    assert (row.check_bits, row.total_bits, row.rc) == (cb, cs, rc)
    assert row.n == side * side


def test_baselines_equal_stored_table():
    got = {(r.ecc, r.size): (r.check_bits, r.total_bits, r.rc)
           for r in compare(7) if r.ecc != "overlapped"}
    assert len(got) == 18
    for size, per_ecc in EXPECTED.items():
        for ecc, want in per_ecc.items():
            if ecc != "overlapped":
                assert got[(ecc, size)] == want


def test_costs_agree_with_builtin_geometry():
    for name, (r, c) in (("2x2", (2, 2)), ("3x3", (3, 3)), ("4x4", (4, 4))):
        cfg = builtin_config(name)
        row = overlapped_cost(r, c)
        assert row.total_bits == cfg.n
        assert row.check_bits == 2 * (cfg.k + 1)


def _by_size(rows) -> dict:
    """size -> that size's cost rows, in the order compare() lists them."""
    groups = {}
    for r in rows:
        groups.setdefault(r.size, []).append(r)
    return groups


def _cheapest(group) -> tuple:
    """ecc labels attaining the group's minimum rc."""
    best = min(r.rc for r in group)
    return tuple(r.ecc for r in group if r.rc == best)


def test_compare_flags_cheapest():
    groups = _by_size(compare(7))
    assert list(groups) == ["2x2", "3x3", "4x4", "5x5", "6x6", "7x7"]
    assert _cheapest(groups["2x2"]) == ("PBD",)
    for size in list(groups)[1:]:
        assert _cheapest(groups[size]) == ("overlapped",)
        assert [r.ecc for r in groups[size]] == ["overlapped", "Matrix", "PBD", "CLC"]


def test_overlapped_rc_non_increasing():
    rcs = [overlapped_cost(s, s).rc for s in range(2, 8)]
    assert rcs == sorted(rcs, reverse=True)
    assert all(rc < 1 for rc in rcs)


def test_beyond_baseline_sizes():
    groups = _by_size(compare(9))
    beyond = {size: group for size, group in groups.items() if len(group) == 1}
    assert set(beyond) == {"8x8", "9x9"}
    assert all(_cheapest(group) == ("overlapped",) for group in beyond.values())
    assert beyond["8x8"][0].check_bits == 16  # k=7 for 64 data bits


def test_large_area_cost_shrinks():
    row = overlapped_cost(32, 32)
    assert row.check_bits == 24  # k=11
    assert row.check_bits / row.total_bits < 0.025


def test_non_square_areas_supported():
    row = overlapped_cost(2, 3)
    assert (row.n, row.check_bits, row.total_bits) == (6, 10, 16)  # k=4 covers 6 bits
    assert row.size == "2x3"


def test_cost_row_validation_and_errors():
    with pytest.raises(ValueError):
        overlapped_cost(0, 4)
    with pytest.raises(ValueError):
        compare(1)
    with pytest.raises(ValueError, match="k=17"):
        overlapped_cost(256, 256)
    with pytest.raises(ValueError, match="k=17"):
        compare(256)
    assert overlapped_cost(255, 255).check_bits == 2 * (16 + 1)


def test_overlapped_cost_rejects_a_non_integer_side():
    for rows, cols in ((2.0, 2), (2, 2.0), (2.5, 4)):
        with pytest.raises(TypeError):
            overlapped_cost(rows, cols)
    assert overlapped_cost(True, 4).size == "1x4"


def test_csv_shape():
    csv = comparison_to_csv(compare(7))
    lines = csv.strip().splitlines()
    assert lines[0] == "size,N,ecc,check_bits,total_bits,rc"
    assert len(lines) == 1 + 24
    assert lines[1] == "2x2,4,overlapped,8,12,0.67"
    assert lines[-1] == "7x7,49,CLC,47,96,0.49"
    assert comparison_to_csv([overlapped_cost(5, 5)]).strip().splitlines()[1] == \
        "5x5,25,overlapped,12,37,0.32"

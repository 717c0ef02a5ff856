"""Redundancy-cost model: how check-bit overhead scales with the data area.

An R x C data area protected by two overlapped extended Hamming layers
needs k = min_check_bits(R*C) check bits plus one parity bit per layer,
so 2*(k+1) redundant bits total.  The figure of merit is the redundancy
cost rc = check_bits / total_bits: the fraction of the stored word that
is overhead.  Because k grows logarithmically, rc falls quickly as the
data area grows.

For context the module also carries the published costs of three other
two-dimensional ECCs protecting the same square data areas (Matrix, PBD
and CLC).  Those are reference constants, not computed: the formation
rules behind some of their check-bit counts are not reproducible from
the counts alone, and reimplementing the codes is out of scope.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .hamming import MAX_CHECK_BITS, min_check_bits

OVERLAPPED = "overlapped"


@dataclass(frozen=True)
class CostRow:
    """Storage cost of one ECC on one data-area size."""

    ecc: str
    size: str        # e.g. "4x4"
    n: int           # data bits
    check_bits: int

    @property
    def total_bits(self) -> int:
        return self.n + self.check_bits

    @property
    def rc(self) -> float:
        """Redundancy cost, displayed at 2 decimals everywhere."""
        return round(self.check_bits / self.total_bits, 2)


def overlapped_cost(rows: int, cols: int) -> CostRow:
    """Cost of the two-layer code on a rows x cols area the codec can build."""
    rows, cols = operator.index(rows), operator.index(cols)
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    n = rows * cols
    k = min_check_bits(n)
    if k > MAX_CHECK_BITS:
        raise ValueError(f"a {rows}x{cols} area needs k={k} check bits per layer; "
                         f"the codec builds k <= {MAX_CHECK_BITS}")
    return CostRow(ecc=OVERLAPPED, size=f"{rows}x{cols}", n=n, check_bits=2 * (k + 1))


# published check bits of each ECC on the square areas 2x2..7x7, by side
_BASELINE_CHECK_BITS = {
    "Matrix": (8, 12, 16, 25, 30, 35),
    "PBD": (5, 12, 20, 32, 45, 62),
    "CLC": (14, 19, 24, 35, 41, 47),
}

BASELINE_SIDES = range(2, 8)


def _baselines(side: int) -> list:
    """The reference rows of one square side: Matrix, PBD, CLC; none past 7x7."""
    if side not in BASELINE_SIDES:
        return []
    return [CostRow(ecc=ecc, size=f"{side}x{side}", n=side * side, check_bits=bits[side - 2])
            for ecc, bits in _BASELINE_CHECK_BITS.items()]


def compare(max_side: int) -> list:
    """Cost rows for square areas 2x2..max_side x max_side, size-major.

    Each size lists the overlapped row, then the baselines Matrix, PBD
    and CLC; baselines only exist through 7x7, so larger sizes
    list the overlapped row alone.
    """
    if max_side < 2:
        raise ValueError("max_side must be >= 2")
    overlapped_cost(max_side, max_side)  # past the k bound: fail before any row
    out = []
    for side in range(2, max_side + 1):
        out.append(overlapped_cost(side, side))
        out.extend(_baselines(side))
    return out


CSV_HEADER = "size,N,ecc,check_bits,total_bits,rc"


def comparison_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.size},{r.n},{r.ecc},{r.check_bits},{r.total_bits},{r.rc:.2f}")
    return "\n".join(lines) + "\n"

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

from dataclasses import dataclass

from .hamming import MAX_CHECK_BITS, min_check_bits

OVERLAPPED = "overlapped"
BASELINE_ORDER = ("Matrix", "PBD", "CLC")


@dataclass(frozen=True)
class CostRow:
    """Storage cost of one ECC on one data-area size."""

    ecc: str
    size: str        # e.g. "4x4"
    n: int           # data bits
    check_bits: int
    total_bits: int

    def __post_init__(self):
        if self.total_bits != self.n + self.check_bits:
            raise ValueError("total_bits must equal n + check_bits")

    @property
    def rc(self) -> float:
        """Redundancy cost, displayed at 2 decimals everywhere."""
        return round(self.check_bits / self.total_bits, 2)


def overlapped_cost(rows: int, cols: int) -> CostRow:
    """Cost of the two-layer code on a rows x cols area the codec can build."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    n = rows * cols
    k = min_check_bits(n)
    if k > MAX_CHECK_BITS:
        raise ValueError(f"a {rows}x{cols} area needs k={k} check bits per layer; "
                         f"the codec builds k <= {MAX_CHECK_BITS}")
    cb = 2 * (k + 1)
    return CostRow(ecc=OVERLAPPED, size=f"{rows}x{cols}", n=n,
                   check_bits=cb, total_bits=n + cb)


# (ecc, side) -> (check_bits, total_bits) for square areas 2x2..7x7.
_BASELINE_BITS = {
    ("Matrix", 2): (8, 12),   ("PBD", 2): (5, 9),    ("CLC", 2): (14, 18),
    ("Matrix", 3): (12, 21),  ("PBD", 3): (12, 21),  ("CLC", 3): (19, 28),
    ("Matrix", 4): (16, 32),  ("PBD", 4): (20, 36),  ("CLC", 4): (24, 40),
    ("Matrix", 5): (25, 50),  ("PBD", 5): (32, 57),  ("CLC", 5): (35, 60),
    ("Matrix", 6): (30, 66),  ("PBD", 6): (45, 81),  ("CLC", 6): (41, 77),
    ("Matrix", 7): (35, 84),  ("PBD", 7): (62, 111), ("CLC", 7): (47, 96),
}

BASELINE_SIDES = range(2, 8)


def baseline_costs() -> tuple:
    """The 18 reference rows (Matrix, PBD, CLC on 2x2..7x7), side-major."""
    rows = []
    for side in BASELINE_SIDES:
        for ecc in BASELINE_ORDER:
            cb, cs = _BASELINE_BITS[(ecc, side)]
            rows.append(CostRow(ecc=ecc, size=f"{side}x{side}", n=side * side,
                                check_bits=cb, total_bits=cs))
    return tuple(rows)


def compare(max_side: int) -> list:
    """Cost rows for square areas 2x2..max_side x max_side, size-major.

    Each size lists the overlapped row, then the baselines in
    BASELINE_ORDER; baselines only exist through 7x7, so larger sizes
    list the overlapped row alone.
    """
    if max_side < 2:
        raise ValueError("max_side must be >= 2")
    overlapped_cost(max_side, max_side)  # past the k bound: fail before any row
    by_key = {(r.ecc, r.size): r for r in baseline_costs()}
    out = []
    for side in range(2, max_side + 1):
        size = f"{side}x{side}"
        out.append(overlapped_cost(side, side))
        if side in BASELINE_SIDES:
            out.extend(by_key[(ecc, size)] for ecc in BASELINE_ORDER)
    return out


CSV_HEADER = "size,N,ecc,check_bits,total_bits,rc"


def comparison_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.size},{r.n},{r.ecc},{r.check_bits},{r.total_bits},{r.rc:.2f}")
    return "\n".join(lines) + "\n"

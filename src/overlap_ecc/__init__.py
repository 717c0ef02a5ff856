"""Overlapping extended-Hamming error correction.

Two independently addressed extended Hamming codes protect the same data
region, correcting any double error across the full codestruct via
composite-address lookup.  The package bundles the codec, an
address-assignment search, exhaustive fault-injection sweeps, a
reliability-over-time model and a redundancy-cost comparison, all behind
one CLI (``overlap-ecc``).
"""

__version__ = "0.1.0"

from .code import (
    BUILTIN_NAMES,
    Codestruct,
    DecodeOutcome,
    OverlapConfig,
    builtin_config,
    decode,
    encode,
)
from .injection import Region, SweepReport, active_kernel, sweep
from .reliability import ReliabilityParams, code_params, reliability_at, reliability_curve
from .scalability import compare, overlapped_cost
from .search import SearchNotFoundError, search_assignment, validate_assignment

__all__ = [
    "BUILTIN_NAMES",
    "Codestruct",
    "DecodeOutcome",
    "OverlapConfig",
    "builtin_config",
    "decode",
    "encode",
    "Region",
    "SweepReport",
    "sweep",
    "ReliabilityParams",
    "code_params",
    "reliability_at",
    "reliability_curve",
    "compare",
    "overlapped_cost",
    "SearchNotFoundError",
    "search_assignment",
    "validate_assignment",
    "__version__",
]

"""Reliability-over-time model for an ECC-protected memory word.

Each stored bit fails independently as a Poisson process with rate lam
(failures per bit per day), so after t days a bit has flipped with
probability 1 - e^(-lam*t) and the number of accumulated errors in an
n-bit word is binomial.  A reading survives if no errors accumulated or
if the accumulated count was one the decoder corrects.

For a builtin code, ``code_params`` computes epsilon_i, the fraction of
all i-bit codestruct error patterns the decoder corrects, with ``sweep()``
for each i in the paper's window 1..SIGMA.  The model charges a failure
only when the count lands inside that window and the decoder misses:

    r(t) = 1 - sum_{i=1..sigma} P_i(t) * (1 - epsilon_i)

Counts beyond sigma are outside the modelled window and are not charged;
the curve is therefore an optimistic finite-window estimate whose
fidelity degrades once P(count > sigma) stops being negligible.  For the
builtin codes over a 20,000-day horizon at the default rate that tail
stays small.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .code import builtin_config
from .injection import Region, sweep

#: failures per bit per day: one upset per bit per ~100,000 days, the
#: harsh-orbit ballpark used for all shipped curves.
DEFAULT_LAMBDA = 1e-5

#: the paper's window: correction rates cover 1..SIGMA accumulated errors
SIGMA = 8

#: the most samples one curve may hold (20,000 days at step 1 take 20,001);
#: the cap also keeps t + step clear of float absorption
MAX_SAMPLES = 10**6


@dataclass(frozen=True)
class ReliabilityParams:
    """Inputs of the model: word size, failure rate, correction profile.

    epsilon[i-1] is the probability that i accumulated errors are fully
    corrected; sigma (the largest modelled count) is simply len(epsilon).
    """

    n: int
    lam: float
    epsilon: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        eps = tuple(float(e) for e in self.epsilon)
        if len(eps) > self.n:
            raise ValueError("epsilon longer than the word: sigma must be <= n")
        for e in eps:
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"epsilon entries must be in [0,1], got {e}")
        object.__setattr__(self, "epsilon", eps)

    @property
    def sigma(self) -> int:
        return len(self.epsilon)


def code_params(name: str, lam: float = DEFAULT_LAMBDA) -> ReliabilityParams:
    """Params for a builtin code: its codestruct size and the sweep's rates."""
    cfg = builtin_config(name)
    reports = sweep(cfg, Region.CODESTRUCT, 1, SIGMA)
    return ReliabilityParams(n=cfg.n, lam=lam,
                             epsilon=tuple(r.corrected / r.decodings for r in reports))


def _log_binom(n: int, i: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)


def _binomial_pmf(n: int, lam: float, t: float, counts) -> list:
    """C(n,i) p^i (1-p)^(n-i) for each (i, log C(n,i)) in counts, p = 1 - e^(-lam*t).

    Evaluated in log space (log-gamma binomial coefficient) so large n
    cannot overflow; 1-p is e^(-lam*t) exactly, which keeps the tail
    accurate for tiny p.
    """
    if not t >= 0:
        raise ValueError("t must be >= 0")
    lt = lam * t
    p = -math.expm1(-lt)
    if p == 0.0 or p == 1.0:
        whole = 0 if p == 0.0 else n
        return [1.0 if i == whole else 0.0 for i, _ in counts]
    log_p = math.log(p)
    return [math.exp(log_c + i * log_p - lt * (n - i)) for i, log_c in counts]


def p_i_errors(n: int, i: int, lam: float, t: float) -> float:
    """P(exactly i of n bits flipped by day t) = C(n,i) p^i (1-p)^(n-i)."""
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    return _binomial_pmf(n, lam, t, [(i, _log_binom(n, i))])[0]


def masked_probability(params: ReliabilityParams, t: float) -> float:
    """P(errors accumulated by day t but the decoder fully masked them)."""
    counts, _ = _miss_terms(params)
    return sum(map(operator.mul, _binomial_pmf(params.n, params.lam, t, counts),
                   params.epsilon))


def _miss_terms(params: ReliabilityParams) -> tuple:
    """r's t-independent part: each modelled (i, log C(n,i)), and 1 - epsilon_i."""
    counts = [(i, _log_binom(params.n, i)) for i in range(1, params.sigma + 1)]
    return counts, [1.0 - e for e in params.epsilon]


def _reliability(params: ReliabilityParams, terms: tuple, t: float) -> float:
    counts, misses = terms
    miss = sum(map(operator.mul, _binomial_pmf(params.n, params.lam, t, counts), misses))
    return min(1.0, max(0.0, 1.0 - miss))


def reliability_at(params: ReliabilityParams, t: float) -> float:
    """P(a reading at day t is usable), per the finite-window model above."""
    return _reliability(params, _miss_terms(params), t)


@dataclass(frozen=True)
class ReliabilityCurve:
    """Sampled reliability and its finite-horizon integral."""

    samples: tuple = ()  # ((t_days, r), ...)
    mttf: float = 0.0    # trapezoidal integral of r over the horizon, in days


def reliability_curve(params: ReliabilityParams, t_max: float,
                      step: float) -> ReliabilityCurve:
    """Sample r at t = 0, step, ..., t_max and integrate (trapezoid).

    The integral is a finite-horizon stand-in for mean time to failure;
    with r pinned at 1 it equals the horizon itself.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    if not 0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    count = 1 - (-t_max // step)  # ceil(t_max / step) + 1, inf for a tiny step
    if count > MAX_SAMPLES:
        raise ValueError(f"t_max / step asks for {count:.7g} samples; "
                         f"a curve holds at most {MAX_SAMPLES}")
    ts = [0.0]
    while ts[-1] < t_max:
        ts.append(min(ts[-1] + step, t_max))
    terms = _miss_terms(params)
    samples = tuple((t, _reliability(params, terms, t)) for t in ts)
    mttf = 0.0
    for (t0, r0), (t1, r1) in zip(samples, samples[1:]):
        mttf += (r0 + r1) * (t1 - t0) / 2.0
    return ReliabilityCurve(samples=samples, mttf=mttf)


CSV_HEADER = "t_days,reliability"


def curve_to_csv(curve: ReliabilityCurve) -> str:
    lines = [CSV_HEADER]
    for t, r in curve.samples:
        lines.append(f"{t:g},{r:.6f}")
    lines.append(f"# mttf_days,{curve.mttf:.2f}")
    return "\n".join(lines) + "\n"

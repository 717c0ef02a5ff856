"""Reliability-over-time model for an ECC-protected memory word.

Each stored bit fails independently as a Poisson process with rate lam
(failures per bit per day), so after t days a bit has flipped with
probability 1 - e^(-lam*t) and the number of accumulated errors in an
n-bit word is binomial.  A reading survives if no errors accumulated or
if the accumulated count was one the decoder corrects; the correction
rates per error count come from the exhaustive injection sweeps.

Correction rates are only measured for counts 1..sigma (the sweeps cover
1 to 8 simultaneous errors), so the model charges a failure only when
the count lands inside that window and the decoder misses:

    r(t) = 1 - sum_{i=1..sigma} P_i(t) * (1 - epsilon_i)

Counts beyond sigma are outside the measured window and are not charged;
the curve is therefore an optimistic finite-window estimate whose
fidelity degrades once P(count > sigma) stops being negligible.  For the
builtin codes over a 20,000-day horizon at the default rate that tail
stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .code import builtin_config

#: failures per bit per day: one upset per bit per ~100,000 days, the
#: harsh-orbit ballpark used for all shipped curves.
DEFAULT_LAMBDA = 1e-5

# Whole-codestruct correction rates for 1..8 accumulated errors, as exact
# fractions of the exhaustive sweeps (corrected patterns / patterns).
# Regenerate with:  overlap-ecc sweep --code <name> --region all --errors 1..8
CODE_EPSILON = {
    "2x2": (1.0, 1.0, 89 / 220, 88 / 495, 70 / 792, 33 / 924, 8 / 792, 1 / 495),
    "3x3": (1.0, 1.0, 241 / 969, 353 / 3876, 414 / 11628, 283 / 27132,
            139 / 50388, 82 / 75582),
    "4x4": (1.0, 1.0, 650 / 3276, 1011 / 20475, 1579 / 98280, 1366 / 376740,
            1090 / 1184040, 944 / 3108105),
}


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
        if not self.lam > 0:
            raise ValueError("lam must be > 0")
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
    """Params for a builtin code: its codestruct size and measured rates."""
    cfg = builtin_config(name)
    return ReliabilityParams(n=cfg.n, lam=lam, epsilon=CODE_EPSILON[name])


def p_i_errors(n: int, i: int, lam: float, t: float) -> float:
    """P(exactly i of n bits flipped by day t) = C(n,i) p^i (1-p)^(n-i).

    Evaluated in log space (log-gamma binomial coefficient) so large n
    cannot overflow; 1-p is e^(-lam*t) exactly, which keeps the tail
    accurate for tiny p.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    if t < 0:
        raise ValueError("t must be >= 0")
    p = -math.expm1(-lam * t)
    if p == 0.0:
        return 1.0 if i == 0 else 0.0
    if p == 1.0:
        return 1.0 if i == n else 0.0
    log_c = math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
    return math.exp(log_c + i * math.log(p) - lam * t * (n - i))


def masked_probability(params: ReliabilityParams, t: float) -> float:
    """P(errors accumulated by day t but the decoder fully masked them)."""
    return sum(p_i_errors(params.n, i, params.lam, t) * params.epsilon[i - 1]
               for i in range(1, params.sigma + 1))


def reliability_at(params: ReliabilityParams, t: float) -> float:
    """P(a reading at day t is usable), per the finite-window model above."""
    miss = sum(p_i_errors(params.n, i, params.lam, t) * (1.0 - params.epsilon[i - 1])
               for i in range(1, params.sigma + 1))
    return min(1.0, max(0.0, 1.0 - miss))


@dataclass(frozen=True)
class ReliabilityCurve:
    """Sampled reliability and its finite-horizon integral."""

    params: ReliabilityParams
    samples: tuple = ()  # ((t_days, r), ...)
    mttf: float = 0.0    # trapezoidal integral of r over the horizon, in days

    @property
    def horizon(self) -> float:
        return self.samples[-1][0] if self.samples else 0.0


def reliability_curve(params: ReliabilityParams, t_max: float,
                      step: float) -> ReliabilityCurve:
    """Sample r at t = 0, step, ..., t_max and integrate (trapezoid).

    The integral is a finite-horizon stand-in for mean time to failure;
    with r pinned at 1 it equals the horizon itself.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    ts = [0.0]
    while ts[-1] < t_max:
        ts.append(min(ts[-1] + step, t_max))
    samples = tuple((t, reliability_at(params, t)) for t in ts)
    mttf = 0.0
    for (t0, r0), (t1, r1) in zip(samples, samples[1:]):
        mttf += (r0 + r1) * (t1 - t0) / 2.0
    return ReliabilityCurve(params=params, samples=samples, mttf=mttf)


CSV_HEADER = "t_days,reliability"


def curve_to_csv(curve: ReliabilityCurve) -> str:
    lines = [CSV_HEADER]
    for t, r in curve.samples:
        lines.append(f"{t:g},{r:.6f}")
    lines.append(f"# mttf_days,{curve.mttf:.2f}")
    return "\n".join(lines) + "\n"

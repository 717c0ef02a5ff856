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

miss_at is the one evaluator of that miss mass; reliability_at and uncharged read it.
Counts beyond sigma are outside the modelled window and are not charged,
so the curve is an optimistic estimate once P(count > sigma), which
``uncharged`` gives, stops being negligible.  At the default rate and a
20,000-day horizon it is 5.35% for 4x4, 0.34% for 3x3 and 0.003% for 2x2.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .code import OverlapConfig, builtin_config
from .injection import Region, sweep

#: failures per bit per day: one upset per bit per ~100,000 days, the
#: harsh-orbit ballpark used for all shipped curves.
DEFAULT_LAMBDA = 1e-5

#: the paper's window: correction rates cover 1..SIGMA accumulated errors
SIGMA = 8

#: the uncharged mass past which the CLI warns that the window leaves out too much
WINDOW_TOLERANCE = 0.01

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
        object.__setattr__(self, "n", operator.index(self.n))
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

    @functools.cached_property
    def terms(self) -> tuple:
        """r's t-independent part: each modelled (i, log C(n,i), 1 - epsilon_i)."""
        n, log_n = self.n, math.lgamma(self.n + 1)
        return tuple((i, log_n - math.lgamma(i + 1) - math.lgamma(n - i + 1), 1.0 - e)
                     for i, e in enumerate(self.epsilon, 1))


def code_params(name: str, lam: float = DEFAULT_LAMBDA) -> ReliabilityParams:
    """Params for a builtin code: its codestruct size and the sweep's rates."""
    cfg = builtin_config(name)
    return ReliabilityParams(n=cfg.n, lam=lam, epsilon=_epsilon(cfg))


@functools.lru_cache(maxsize=None)
def _epsilon(cfg: OverlapConfig) -> tuple:
    """A code's correction rates for 1..SIGMA errors, swept once per config."""
    reports = sweep(cfg, Region.CODESTRUCT, 1, SIGMA)
    return tuple(r.corrected / r.decodings for r in reports)


def miss_at(params: ReliabilityParams, t: float) -> float:
    """P(the count at day t is modelled and missed): sum of P_i(t) (1 - epsilon_i).

    P_i = C(n,i) p^i (1-p)^(n-i), p = 1 - e^(-lam*t), is evaluated in log
    space so large n cannot overflow; 1-p is e^(-lam*t) exactly, which
    keeps the tail accurate for tiny p.
    """
    if not t >= 0:
        raise ValueError("t must be >= 0")
    n, lt = params.n, params.lam * t
    p = -math.expm1(-lt)
    if p == 0.0 or p == 1.0:  # one count is certain: none, or all n
        whole = 0 if p == 0.0 else n
        return sum((miss_i for i, _, miss_i in params.terms if i == whole), 0.0)
    log_p = math.log(p)
    return sum((math.exp(log_c + i * log_p - lt * (n - i)) * miss_i
                for i, log_c, miss_i in params.terms), 0.0)


def reliability_at(params: ReliabilityParams, t: float) -> float:
    """P(a reading at day t is usable): 1 - miss_at, floored at 0."""
    return max(0.0, 1.0 - miss_at(params, t))


def uncharged(params: ReliabilityParams, t: float) -> float:
    """P(count > sigma) at day t: the miss with 1..sigma masked and every later count charged."""
    n, sigma = params.n, params.sigma
    return miss_at(ReliabilityParams(n, params.lam, (1.0,) * sigma + (0.0,) * (n - sigma)), t)


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
    samples = tuple((t, reliability_at(params, t)) for t in ts)
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

"""Reliability model: the closed form against a Monte-Carlo oracle."""

import math
import pickle
from fractions import Fraction

import pytest
from reference import mc_miss, reliability_at_reference, sweep_python_reference

from overlap_ecc import reliability
from overlap_ecc.code import BUILTIN_NAMES, builtin_config
from overlap_ecc.injection import Region
from overlap_ecc.reliability import (
    DEFAULT_LAMBDA,
    MAX_SAMPLES,
    ReliabilityParams,
    code_params,
    curve_to_csv,
    miss_at,
    reliability_at,
    reliability_curve,
    uncharged,
)


# --- binomial terms P_i(t), read through r --------------------------------
#
# With epsilon = 0 over the full window (sigma = n), r = 1 - sum_{i>=1} P_i,
# which is P_0 = e^(-lam t n) exactly when the binomial terms sum to 1.

def uncorrected(n: int, lam: float, sigma: int | None = None) -> ReliabilityParams:
    return ReliabilityParams(n=n, lam=lam, epsilon=(0.0,) * (n if sigma is None else sigma))


def test_p_i_errors_at_t0():
    # every P_i(0), i >= 1, is exactly 0, so P_0(0) = 1
    assert reliability_at(uncorrected(12, 1e-5), 0) == 1.0


def test_p_i_errors_normalizes():
    for n, lam, t in ((12, 1e-5, 7777), (28, 1e-5, 20000), (200, 3e-4, 1234)):
        assert math.isclose(reliability_at(uncorrected(n, lam), t), math.exp(-lam * t * n),
                            rel_tol=0, abs_tol=1e-9), (n, lam, t)


def test_per_bit_failure_probability():
    # n=1: r is one minus the per-bit failure probability 1 - e^(-lam t)
    assert math.isclose(reliability_at(uncorrected(1, 1e-5), 10000), math.exp(-0.1),
                        rel_tol=1e-12)


def test_p_i_errors_large_n_stays_finite():
    # lam t n = 1: counts past sigma = 500 are negligible, so r is P_0 = e^-1
    r = reliability_at(uncorrected(10**6, 1e-9, sigma=500), 1000.0)
    assert 0.0 <= r <= 1.0 and math.isfinite(r)
    assert math.isclose(r, math.exp(-1.0), rel_tol=0, abs_tol=1e-9)


def test_p_i_errors_validation():
    # sigma > n, a count past the word, is checked in test_params_validation
    for t in (-1, -1e-300, math.nan):
        with pytest.raises(ValueError, match="t must be >= 0"):
            reliability_at(uncorrected(5, 1e-5), t)


# --- miss probability vs Monte-Carlo -----------------------------------------

@pytest.mark.parametrize("t", [1000, 10000])
def test_miss_probability_within_3_sigma_of_monte_carlo(t):
    params = code_params("3x3")
    analytic = 1.0 - reliability_at(params, t)
    mean, se = mc_miss(params, t, trials=10**6, seed=20260816 + t)
    assert abs(analytic - mean) <= 3 * se


def test_masked_probability_degenerate_profiles():
    base = code_params("3x3")
    zero = ReliabilityParams(n=base.n, lam=base.lam, epsilon=(0.0,) * 8)
    one = ReliabilityParams(n=base.n, lam=base.lam, epsilon=(1.0,) * 8)
    two = ReliabilityParams(n=base.n, lam=base.lam,
                            epsilon=(1.0, 1.0, 0, 0, 0, 0, 0, 0))
    n, t = base.n, 5000
    assert reliability_at(one, t) == 1.0  # every modelled count masked
    # masking counts 1 and 2 saves exactly P_1 + P_2
    p = -math.expm1(-base.lam * t)
    expect = n * p * (1 - p) ** (n - 1) + math.comb(n, 2) * p**2 * (1 - p) ** (n - 2)
    assert math.isclose(reliability_at(two, t) - reliability_at(zero, t), expect,
                        rel_tol=1e-12)
    # p = 1 at t = inf: every bit has failed, so only the count sigma = n is
    # possible and r is its epsilon
    assert reliability_at(ReliabilityParams(n=2, lam=1.0, epsilon=(1.0, 0.25)), math.inf) == 0.25


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_reliability_is_the_per_count_sum_exactly(name):
    params = code_params(name)
    for t in (0, 1, 1e3, 5e3, 1e4, 2e4, 1e6):
        assert reliability_at(params, t) == reliability_at_reference(params, t), (name, t)


# --- reliability ----------------------------------------------------------

def test_reliability_starts_at_one_and_decreases():
    for name in BUILTIN_NAMES:
        params = code_params(name)
        assert reliability_at(params, 0) == 1.0
        rs = [reliability_at(params, t) for t in range(0, 20001, 1000)]
        assert all(0.0 <= r <= 1.0 for r in rs)
        assert all(a >= b - 1e-12 for a, b in zip(rs, rs[1:]))


def test_reliability_decreases_with_word_size():
    # same failure rate and correction profile: more bits, more exposure
    eps = code_params("3x3").epsilon
    for t in (1000, 5000, 10000, 20000):
        rs = [reliability_at(ReliabilityParams(n=n, lam=DEFAULT_LAMBDA, epsilon=eps), t)
              for n in (12, 19, 28)]
        assert rs[0] >= rs[1] >= rs[2]


def test_reliability_with_full_sigma_and_zero_epsilon_is_p0():
    # when every count is modelled and nothing is corrected, r = e^(-lam t n)
    n, lam, t = 12, DEFAULT_LAMBDA, 9000
    params = ReliabilityParams(n=n, lam=lam, epsilon=(0.0,) * n)
    assert math.isclose(reliability_at(params, t), math.exp(-lam * t * n),
                        rel_tol=1e-12)


def test_correcting_doubles_beats_correcting_nothing():
    n, lam = 19, DEFAULT_LAMBDA
    none = ReliabilityParams(n=n, lam=lam, epsilon=(0.0,) * n)
    secded = ReliabilityParams(n=n, lam=lam,
                               epsilon=(1.0, 1.0) + (0.0,) * (n - 2))
    for t in (500, 5000, 20000):
        assert reliability_at(secded, t) > reliability_at(none, t)


def test_long_horizon_anchors():
    assert reliability_at(code_params("2x2"), 20000) > 0.60
    assert 0.15 <= reliability_at(code_params("4x4"), 20000) <= 0.25


# --- curve -------------------------------------------------------------------

def test_curve_samples_and_mttf():
    curve = reliability_curve(code_params("2x2"), 20000, 1000)
    assert len(curve.samples) == 21
    assert curve.samples[0] == (0.0, 1.0)
    assert curve.samples[-1][0] == 20000
    assert 0 < curve.mttf < 20000
    # a horizon off the step grid still ends on the horizon itself
    curve = reliability_curve(code_params("2x2"), 2500, 1000)
    assert [t for t, _ in curve.samples] == [0, 1000, 2000, 2500]


def test_curve_flat_one_integrates_to_horizon():
    params = ReliabilityParams(n=5, lam=1e-5, epsilon=(1.0,) * 5)
    curve = reliability_curve(params, 9000, 1000)
    assert math.isclose(curve.mttf, 9000.0, rel_tol=1e-12)


def test_mttf_orders_small_before_large():
    m22 = reliability_curve(code_params("2x2"), 20000, 1000).mttf
    m44 = reliability_curve(code_params("4x4"), 20000, 1000).mttf
    assert m22 > m44


def test_curve_zero_horizon():
    curve = reliability_curve(code_params("3x3"), 0, 1000)
    assert curve.samples == ((0.0, 1.0),)
    assert curve.mttf == 0.0


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_curve_samples_match_the_reference_formula_exactly(name):
    # lam * t reaches 200 at lam = 1e-2, where p rounds to 1.0; t = 0 gives p = 0.0
    for lam in (1e-7, 1e-5, 3e-5, 1e-4, 1e-3, 1e-2):
        params = code_params(name, lam)
        for t_max, step in ((0, 1), (100, 0.5), (20000, 1000), (3000, 7.5), (5000, 333)):
            for t, r in reliability_curve(params, t_max, step).samples:
                want = reliability_at_reference(params, t)
                assert r == want == reliability_at(params, t), (name, lam, t_max, step, t)


def test_curve_csv_format():
    csv = curve_to_csv(reliability_curve(code_params("3x3"), 2000, 1000))
    lines = csv.strip().splitlines()
    assert lines[0] == "t_days,reliability"
    assert lines[1] == "0,1.000000"
    assert lines[-1].startswith("# mttf_days,")


# --- validation ----------------------------------------------------------------

# Whole-codestruct correction rates for 1..8 errors, as exact fractions
# (corrected patterns / patterns) of the exhaustive sweeps.
CODESTRUCT_EPSILON = {
    "2x2": (1.0, 1.0, 89 / 220, 88 / 495, 70 / 792, 33 / 924, 8 / 792, 1 / 495),
    "3x3": (1.0, 1.0, 241 / 969, 353 / 3876, 414 / 11628, 283 / 27132,
            139 / 50388, 82 / 75582),
    "4x4": (1.0, 1.0, 650 / 3276, 1011 / 20475, 1579 / 98280, 1366 / 376740,
            1090 / 1184040, 944 / 3108105),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_code_epsilon_is_the_codestruct_sweep(name):
    assert code_params(name).epsilon == CODESTRUCT_EPSILON[name]


@pytest.mark.parametrize("name, e_max", [("2x2", 8), ("3x3", 4)])
def test_code_epsilon_matches_the_object_decoder(name, e_max):
    # an independent path: every pattern through the public decode()
    epsilon = code_params(name).epsilon
    for e in range(1, e_max + 1):
        ref = sweep_python_reference(builtin_config(name), Region.CODESTRUCT, e)
        assert ref.corrected / ref.decodings == epsilon[e - 1], (name, e)


def test_code_params_sweeps_once_per_code(monkeypatch):
    calls = []
    real = reliability.sweep

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reliability, "sweep", counting)
    reliability._epsilon.cache_clear()
    first = code_params("4x4", DEFAULT_LAMBDA)
    assert len(calls) == 1
    again = code_params("4X4", 3e-4)
    assert len(calls) == 1
    assert again.epsilon == first.epsilon == CODESTRUCT_EPSILON["4x4"]
    assert (again.n, again.lam) == (first.n, 3e-4)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("t", [10000, 20000])
def test_uncharged_is_the_binomial_tail_past_sigma(name, t):
    params = code_params(name)
    n = params.n
    p = 1 - math.exp(-DEFAULT_LAMBDA * t)
    tail = sum(math.comb(n, i) * p**i * (1 - p) ** (n - i)
               for i in range(params.sigma + 1, n + 1))
    assert math.isclose(uncharged(params, t), tail, rel_tol=1e-9, abs_tol=1e-15), (name, t)


def exact_mass(params: ReliabilityParams, t: float, charge) -> Fraction:
    """sum_i C(n,i) p^i (1-p)^(n-i) * charge(i) in Fractions, from the floats
    p = -expm1(-lam t) and 1 - p = exp(-lam t) that the evaluator starts from."""
    n, p, q = params.n, Fraction(-math.expm1(-params.lam * t)), Fraction(math.exp(-params.lam * t))
    return sum(math.comb(n, i) * p**i * q ** (n - i) * charge(i) for i in range(1, n + 1))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_miss_mass_is_the_exact_binomial_sum(name):
    params = code_params(name)
    sigma = params.sigma
    for t in (0.01, 0.1, 1, 10, 100, 1e3, 1e4, 2e4):
        miss = exact_mass(params, t, lambda i: 1 - Fraction(params.epsilon[i - 1])
                          if i <= sigma else 0)
        tail = exact_mass(params, t, lambda i: int(i > sigma))
        assert math.isclose(miss_at(params, t), miss, rel_tol=1e-12, abs_tol=0), (name, t)
        assert math.isclose(uncharged(params, t), tail, rel_tol=1e-12, abs_tol=0), (name, t)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_uncharged_is_never_negative(name):
    # the tail is a sum of non-negative terms, with no difference that could cancel below 0
    params = code_params(name)
    assert all(uncharged(params, t) >= 0.0 for t in range(0, 20001, 50)), name


def test_uncharged_is_zero_when_the_window_covers_the_word():
    for params in (ReliabilityParams(n=12, lam=DEFAULT_LAMBDA, epsilon=(0.25,) * 12),
                   ReliabilityParams(n=3, lam=1.0, epsilon=(1.0, 0.0, 0.5))):
        for t in (0, 0.01, 1e3, 2e4, 1e6, math.inf):
            assert uncharged(params, t) == 0.0, (params, t)


def test_params_validation():
    with pytest.raises(ValueError):
        ReliabilityParams(n=0, lam=1e-5)
    for lam in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ReliabilityParams(n=5, lam=lam)
    with pytest.raises(ValueError):
        ReliabilityParams(n=5, lam=1e-5, epsilon=(1.5,))
    with pytest.raises(ValueError):
        ReliabilityParams(n=2, lam=1e-5, epsilon=(1.0, 1.0, 1.0))
    params = code_params("2x2")
    for t_max, step in ((1000, 0), (1000, math.nan), (1000, math.inf), (math.inf, 1),
                        (math.nan, 1), (1, 1e-300), (1, 5e-324)):
        with pytest.raises(ValueError):
            reliability_curve(params, t_max, step)
    with pytest.raises(ValueError):
        reliability_at(params, math.nan)


def test_params_reject_a_non_integer_size():
    with pytest.raises(TypeError):
        ReliabilityParams(n=12.5, lam=1e-5, epsilon=(1.0,) * 8)
    with pytest.raises(TypeError):
        ReliabilityParams(n=12.0, lam=1e-5)
    assert type(ReliabilityParams(n=True, lam=1e-5).n) is int


def test_cached_terms_leave_eq_hash_repr_and_pickling_alone():
    params = code_params("4x4")
    fresh = ReliabilityParams(params.n, params.lam, params.epsilon)
    before = (hash(params), repr(params))
    r = reliability_at(params, 20000.0)
    assert "terms" in vars(params) and "terms" not in vars(fresh)
    assert (hash(params), repr(params)) == before and params == fresh
    copy = pickle.loads(pickle.dumps(params))
    assert copy == params and reliability_at(copy, 20000.0) == r


def test_curve_sample_cap_is_exact(monkeypatch):
    params = ReliabilityParams(n=5, lam=1e-5, epsilon=(1.0,) * 5)
    with pytest.raises(ValueError, match=f"asks for {MAX_SAMPLES + 1} samples"):
        reliability_curve(params, MAX_SAMPLES, 1)
    # the bound itself, on a small cap: 9 steps make 10 samples, 9.5 make 11
    monkeypatch.setattr(reliability, "MAX_SAMPLES", 10)
    assert len(reliability_curve(params, 9, 1).samples) == 10
    assert len(reliability_curve(params, 90, 10).samples) == 10
    with pytest.raises(ValueError, match="asks for 11 samples"):
        reliability_curve(params, 9.5, 1)

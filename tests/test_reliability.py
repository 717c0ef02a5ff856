"""Reliability model: closed-form binomials against a Monte-Carlo oracle."""

import math

import numpy as np
import pytest
from reference import reliability_at_reference

from overlap_ecc import reliability
from overlap_ecc.code import BUILTIN_NAMES, builtin_config
from overlap_ecc.injection import Region, sweep_python_reference
from overlap_ecc.reliability import (
    DEFAULT_LAMBDA,
    MAX_SAMPLES,
    ReliabilityParams,
    code_params,
    curve_to_csv,
    masked_probability,
    p_i_errors,
    reliability_at,
    reliability_curve,
)


def mc_masked(params: ReliabilityParams, t: float, trials: int, seed: int):
    """Monte-Carlo estimate of the masked-error probability.

    Samples the per-bit Bernoulli failure count and pays epsilon when the
    count lands in the modelled 1..sigma window.  Returns (mean, std-error).
    """
    p = -math.expm1(-params.lam * t)
    rng = np.random.default_rng(seed)
    counts = rng.binomial(params.n, p, size=trials)
    z = np.zeros(trials)
    for i in range(1, params.sigma + 1):
        z[counts == i] = params.epsilon[i - 1]
    return float(z.mean()), float(z.std(ddof=1) / math.sqrt(trials))


# --- binomial term -----------------------------------------------------------

def test_p_i_errors_at_t0():
    assert p_i_errors(12, 0, 1e-5, 0) == 1.0
    assert p_i_errors(12, 3, 1e-5, 0) == 0.0


def test_p_i_errors_normalizes():
    for n, lam, t in ((12, 1e-5, 7777), (28, 1e-5, 20000), (200, 3e-4, 1234)):
        assert math.isclose(sum(p_i_errors(n, i, lam, t) for i in range(n + 1)),
                            1.0, rel_tol=1e-9)


def test_per_bit_failure_probability():
    # n=1: P(1 error) is the per-bit failure probability 1 - e^(-lam t)
    assert math.isclose(p_i_errors(1, 1, 1e-5, 10000), -math.expm1(-0.1),
                        rel_tol=1e-12)


def test_p_i_errors_large_n_stays_finite():
    v = p_i_errors(10**6, 500, 1e-9, 1000.0)
    assert 0.0 <= v <= 1.0 and math.isfinite(v)


def test_p_i_errors_validation():
    with pytest.raises(ValueError):
        p_i_errors(5, 6, 1e-5, 10)
    with pytest.raises(ValueError):
        p_i_errors(5, -1, 1e-5, 10)
    with pytest.raises(ValueError):
        p_i_errors(5, 1, 1e-5, -1)


# --- masked probability vs Monte-Carlo ---------------------------------------

@pytest.mark.parametrize("t", [1000, 10000])
def test_masked_probability_within_3_sigma_of_monte_carlo(t):
    params = code_params("3x3")
    analytic = masked_probability(params, t)
    mean, se = mc_masked(params, t, trials=10**6, seed=20260816 + t)
    assert abs(analytic - mean) <= 3 * se


def test_masked_probability_degenerate_profiles():
    base = code_params("3x3")
    zero = ReliabilityParams(n=base.n, lam=base.lam, epsilon=(0.0,) * 8)
    assert masked_probability(zero, 5000) == 0.0
    two = ReliabilityParams(n=base.n, lam=base.lam,
                            epsilon=(1.0, 1.0, 0, 0, 0, 0, 0, 0))
    expect = (p_i_errors(base.n, 1, base.lam, 5000)
              + p_i_errors(base.n, 2, base.lam, 5000))
    assert math.isclose(masked_probability(two, 5000), expect, rel_tol=1e-12)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_masked_probability_is_the_per_count_sum_exactly(name):
    params = code_params(name)
    for t in (0, 1, 1e3, 5e3, 1e4, 2e4, 1e6):
        want = sum(p_i_errors(params.n, i, params.lam, t) * params.epsilon[i - 1]
                   for i in range(1, params.sigma + 1))
        assert masked_probability(params, t) == want, (name, t)


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
        masked_probability(params, math.nan)


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

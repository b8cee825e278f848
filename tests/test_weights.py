"""Weight functions: moments, normalization, companion density, truncation."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from cohere import weights as W
from cohere.weights import (
    DivergentSeriesError,
    WeightFamily,
    WeightSpec,
    companion_density,
    log_density,
    log_moment,
    log_norm_factor,
    truncation_level,
)

LN_S_PAPER = math.log(2.209e59)


def _ln(s: float) -> float:
    """ln s, and -inf for s = 0."""
    return math.log(s) if s > 0 else -math.inf


def log_hydrogen_norm_closed_form(s: float) -> float:
    """ln N(s) = -s^2/2 - ln(1 + 3 s^2 + s^4)/2 for the exponential weight
    with (n+1)^2 degeneracies."""
    s_sq = s * s
    return -0.5 * s_sq - 0.5 * math.log1p(3.0 * s_sq + s_sq * s_sq)


def hydrogen_norm_closed_form(s: float) -> float:
    return math.exp(log_hydrogen_norm_closed_form(s))


def hydrogen_companion_closed_form(u: float) -> float:
    """k(u) = 1 + 3u + u^2 for the same weight and degeneracies."""
    return 1.0 + 3.0 * u + u * u


class TestLogMoment:
    def test_exponential_factorials(self):
        assert log_moment(WeightSpec.exponential(), 5) == pytest.approx(math.log(120), rel=1e-14)

    def test_stretched_alpha_one_matches_exponential(self):
        # the exponential family is the stretched one at alpha = 1, bit for bit
        exponential, stretched = WeightSpec.exponential(), WeightSpec.stretched(1.0)
        n = np.arange(200_000)
        assert log_moment(exponential, n).tobytes() == log_moment(stretched, n).tobytes()
        u = np.concatenate([[0.0], np.logspace(-300.0, 300.0, 100_000),
                            np.linspace(0.0, 1e3, 10_001)])
        assert log_density(exponential, u).tobytes() == log_density(stretched, u).tobytes()
        assert np.array_equal(log_density(exponential, u), -u)
        assert log_moment(exponential, 5) == log_moment(stretched, 5)
        assert log_density(exponential, 0.0) == log_density(stretched, 0.0)

    def test_stretched_half_zeroth_moment(self):
        # integral of exp(-sqrt(u)) du = 2, verified against quadrature
        got = log_moment(WeightSpec.stretched(0.5), 0)
        assert got == pytest.approx(math.log(2.0), abs=1e-12)
        numeric, _ = quad(lambda u: math.exp(-math.sqrt(u)), 0, np.inf, limit=200)
        assert got == pytest.approx(math.log(numeric), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_adaptive_integration(self, alpha):
        spec = WeightSpec.stretched(alpha)
        for n in range(0, 21, 4):
            beta = (n + 1) / alpha
            # substitute v = u^alpha; oracle stays a numerical integral
            val, _ = quad(
                lambda v: math.exp((beta - 1) * math.log(v) - v) / alpha if v > 0 else 0.0,
                0, np.inf, limit=400,
            )
            assert log_moment(spec, n) == pytest.approx(math.log(val), rel=1e-8)

    def test_scaling_map_identity(self):
        # the general-alpha moment is the alpha=1 expression with
        # n+1 -> (n+1)/alpha plus a log(1/alpha) prefactor
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha = rng.uniform(0.05, 3.0)
            n = int(rng.integers(0, 40))
            expected = math.log(1.0 / alpha) + gammaln((n + 1) / alpha)
            assert log_moment(WeightSpec.stretched(alpha), n) == pytest.approx(expected, rel=1e-14)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            log_moment(WeightSpec.exponential(), -1)

    def test_alpha_validation(self):
        for alpha in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                WeightSpec.stretched(alpha)
        # the exponential family is alpha = 1.0 and nothing else
        assert WeightSpec.exponential().alpha == 1.0
        with pytest.raises(ValueError):
            WeightSpec(WeightFamily.EXPONENTIAL)
        with pytest.raises(ValueError):
            WeightSpec(WeightFamily.EXPONENTIAL, alpha=2.0)

    def test_gammaln_recurrence(self):
        # log-gamma backend must satisfy Gamma(x+1) = x Gamma(x)
        x = np.linspace(0.5, 300.0, 601)
        resid = W._lgamma(x + 1.0) - (np.log(x) + W._lgamma(x))
        assert np.max(np.abs(resid)) <= 1e-13 * np.max(np.abs(W._lgamma(x + 1)))


def mp_logsumexp(terms):
    """50-digit ln sum(exp(t)), shifted by the largest term."""
    with mpmath.workdps(50):
        top = mpmath.mpf(max(terms))
        return top + mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(t) - top) for t in terms))


class TestLogHelpers:
    """The log-gamma and log-sum-exp helpers against 50-digit mpmath."""

    # n = 0..99, then geometric up to the series cap MAX_TERMS = 1e6
    N_VALUES = np.unique(np.concatenate([np.arange(100), np.geomspace(100, 1e6, 120).round()]))

    @pytest.mark.parametrize("alpha", [1.0, 1.0 / 32.0, 1.0 / 64.0])
    def test_lgamma_at_moment_arguments(self, alpha):
        x = (self.N_VALUES + 1.0) / alpha
        got = W._lgamma(x)
        with mpmath.workdps(50):
            ref = [mpmath.loggamma(mpmath.mpf(v)) for v in x.tolist()]
            err = [abs(mpmath.mpf(g) - r) - 1e-15 * abs(r) for g, r in zip(got.tolist(), ref)]
        assert max(err) <= 0

    def test_lgamma_keeps_shape(self):
        assert W._lgamma(5.0).shape == ()
        assert float(W._lgamma(5.0)) == math.lgamma(5.0)
        assert W._lgamma(np.ones((3, 1))).shape == (3, 1)

    @settings(max_examples=200, deadline=None)
    @given(hst.lists(hst.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=12))
    def test_logsumexp_matches_mpmath(self, terms):
        # near a zero of the result only an absolute ~1e-16 is attainable,
        # since the shifted log-sum then cancels the largest term
        ref = mp_logsumexp(terms)
        assert abs(W._logsumexp(terms) - ref) <= 1e-15 * max(abs(ref), 1)

    def test_logsumexp_non_finite_maximum_is_returned(self):
        assert W._logsumexp([-math.inf, -math.inf]) == -math.inf
        assert W._logsumexp([1.0, math.inf, -3.0]) == math.inf
        assert math.isnan(W._logsumexp([1.0, math.nan, 2.0]))
        assert math.isnan(W._logsumexp([math.inf, math.nan]))
        assert W._logsumexp([-math.inf, 0.0]) == 0.0


class TestNormFactor:
    def test_unit_scale_closed_form(self):
        # sum s^{2n} (n+1)^2 / n! = e^{s^2} (1 + 3 s^2 + s^4) -> 5e at s^2=1
        expected = -0.5 * (1.0 + math.log(5.0))
        assert log_norm_factor(WeightSpec.exponential(), ln_s=math.log(1.0)) == pytest.approx(expected, abs=1e-13)

    def test_zero_scale(self):
        assert log_norm_factor(WeightSpec.exponential(), ln_s=-math.inf) == 0.0

    def test_closed_form_values(self):
        assert hydrogen_norm_closed_form(0.0) == 1.0
        assert hydrogen_norm_closed_form(1.0) == pytest.approx(
            math.exp(-0.5) / math.sqrt(5.0), rel=1e-14
        )
        assert hydrogen_norm_closed_form(math.sqrt(2.0)) == pytest.approx(
            math.exp(-1.0) / math.sqrt(11.0), rel=1e-14
        )

    def test_series_matches_closed_form_on_grid(self):
        spec = WeightSpec.exponential()
        for s in np.linspace(0.0, 10.0, 100):
            series = log_norm_factor(spec, ln_s=_ln(float(s)))
            closed = log_hydrogen_norm_closed_form(float(s))
            assert abs(series - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_huge_scale_is_finite_and_normalized(self):
        spec = WeightSpec.stretched(1.0 / 32.0)
        n_max = truncation_level(spec, tail_eps=1e-12, ln_s=LN_S_PAPER)
        ln_norm = log_norm_factor(spec, n_max=n_max, ln_s=LN_S_PAPER)
        assert math.isfinite(ln_norm)
        # renormalization self-consistency: probabilities sum to one
        n = np.arange(n_max + 1)
        terms = 2 * n * LN_S_PAPER + 2 * np.log(n + 1.0) - log_moment(spec, n)
        p = np.exp(terms + 2 * ln_norm)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_divergent_scale_raises(self):
        with pytest.raises((DivergentSeriesError, OverflowError)):
            log_norm_factor(WeightSpec.exponential(), ln_s=math.log(float("inf")))


class TestCompanionDensity:
    def test_hydrogen_values(self):
        spec = WeightSpec.exponential()
        for u in (0.0, 0.5, 2.0, 7.0):
            norm_sq_log = 2.0 * log_norm_factor(spec, ln_s=_ln(math.sqrt(u)))
            assert companion_density(spec, norm_sq_log, u) == pytest.approx(
                hydrogen_companion_closed_form(u), rel=1e-12)
        assert hydrogen_companion_closed_form(2.0) == 11.0

    def test_vanishing_density(self):
        # where rho(u) underflows to an exact zero, k(u) is exactly zero
        spec = WeightSpec.stretched(2.0)
        assert log_density(spec, 1e200) == -math.inf
        assert companion_density(spec, -5.0, 1e200) == 0.0

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroDivisionError):
            companion_density(WeightSpec.exponential(), -math.inf, 1.0)

    def test_product_reproduces_weight_on_grid(self):
        spec = WeightSpec.exponential()
        for u in np.linspace(0.0, 20.0, 81):
            norm_sq_log = 2.0 * log_norm_factor(spec, ln_s=_ln(math.sqrt(u)))
            k = companion_density(spec, norm_sq_log, float(u))
            rho = math.exp(log_density(spec, float(u)))
            assert k * math.exp(norm_sq_log) == pytest.approx(rho, rel=1e-12)


def brute_force_truncation(spec, ln_s, tail_eps, scan=4000):
    """Independent cumulative-sum oracle for the truncation level."""
    n = np.arange(scan)
    log_d = 2 * np.log(n + 1.0)
    if ln_s == -math.inf:
        power = np.where(n == 0, 0.0, -np.inf)
    else:
        power = 2 * n * ln_s
    w = power + log_d - log_moment(spec, n)
    p = np.exp(w - logsumexp(w))
    tail = np.cumsum(p[::-1])[::-1]
    ok = np.nonzero(tail < tail_eps)[0]
    return int(ok[0]) - 1 if ok.size else scan - 1


class TestTruncation:
    def test_zero_scale(self):
        assert truncation_level(WeightSpec.exponential(), ln_s=-math.inf) == 0

    def test_matches_brute_force_exponential(self):
        spec = WeightSpec.exponential()
        got = truncation_level(spec, tail_eps=1e-12, ln_s=math.log(4.0))
        assert got == brute_force_truncation(spec, math.log(4.0), 1e-12)

    def test_matches_brute_force_paper_scale(self):
        spec = WeightSpec.stretched(1.0 / 32.0)
        got = truncation_level(spec, tail_eps=1e-12, ln_s=LN_S_PAPER)
        assert got == brute_force_truncation(spec, LN_S_PAPER, 1e-12)
        # window centered near index 159 with spread sqrt(5) must cover 150..170
        assert got >= 170

    def test_bad_tail_eps(self):
        with pytest.raises(ValueError):
            truncation_level(WeightSpec.exponential(), tail_eps=0.0, ln_s=math.log(1.0))

    def test_hard_cap_signals_divergence(self, monkeypatch):
        monkeypatch.setattr(W, "MAX_TERMS", 64)
        with pytest.raises(DivergentSeriesError):
            truncation_level(WeightSpec.exponential(), tail_eps=1e-12, ln_s=math.log(1e6))

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=hst.floats(min_value=1.0 / 32.0, max_value=1.0),
        log_mean=hst.floats(min_value=-3.0, max_value=math.log(200.0)),
        log_eps=hst.lists(hst.floats(min_value=-36.0, max_value=-0.7), min_size=2, max_size=2),
    )
    def test_monotone_in_tail_eps(self, alpha, log_mean, log_eps):
        # scales whose leading-order mean index alpha s^(2 alpha) is exp(log_mean)
        ln_s = (log_mean - math.log(alpha)) / (2.0 * alpha)
        spec = WeightSpec.stretched(alpha)
        tight, loose = sorted(math.exp(v) for v in log_eps)
        n_tight = truncation_level(spec, tail_eps=tight, ln_s=ln_s)
        n_loose = truncation_level(spec, tail_eps=loose, ln_s=ln_s)
        assert n_tight >= n_loose

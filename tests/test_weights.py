"""Weight functions: moments, normalization, truncation."""
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
    log_moment,
    truncation_level,
)
from cohere.state import _distribution_window

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


def series_log_norm(spec: WeightSpec, ln_s: float) -> float:
    """ln N with N^2 sum_n s^{2n} (n+1)^2 / rho_n = 1, read off the level
    window whose tails are cut at 1e-16 each: the series sum is t_n / p_n at
    the window's largest p_n."""
    n_lo, p = W._level_window(spec, ln_s, 1e-16)
    n = n_lo + int(np.argmax(p))
    power = 2.0 * n * ln_s if n else 0.0  # s = 0 keeps the n = 0 term alone
    log_term = power + 2.0 * math.log(n + 1.0) - log_moment(spec, n)
    return -0.5 * (log_term - math.log(p[n - n_lo]))


class TestLogMoment:
    def test_exponential_factorials(self):
        assert log_moment(WeightSpec.exponential(), 5) == pytest.approx(math.log(120), rel=1e-14)

    def test_stretched_alpha_one_matches_exponential(self):
        # the exponential family is the stretched one at alpha = 1, bit for bit
        exponential, stretched = WeightSpec.exponential(), WeightSpec.stretched(1.0)
        n = np.arange(200_000)
        assert log_moment(exponential, n).tobytes() == log_moment(stretched, n).tobytes()
        assert log_moment(exponential, 5) == log_moment(stretched, 5)

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


class TestLogHelpers:
    """The log-gamma helper against 50-digit mpmath."""

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


class TestRatioSteps:
    """The level window's steps ln(t_{n+1} / t_n) and their Stirling tail."""

    def test_stirling_tail_within_its_first_omitted_term(self):
        x = np.geomspace(W._STIRLING_MIN, 1e6, 60)
        got = W._stirling_tail(x.astype(np.longdouble))
        with mpmath.workdps(50):
            for v, g in zip(x.tolist(), got):
                ref = mpmath.loggamma(v) - (v - 0.5) * mpmath.log(v) + v - mpmath.log(2 * mpmath.pi) / 2
                assert abs(mpmath.mpf(str(g)) - ref) <= 1.0 / (1188.0 * v**9) + 1e-18

    @pytest.mark.parametrize("alpha, ln_s", [(5.0, -0.3), (1.0, 1.8), (0.7, 0.5), (0.3, 12.4),
                                             (1.0 / 32.0, 136.6), (1.0 / 64.0, 376.3), (1e-5, 7.7e5)])
    def test_steps_match_mpmath(self, alpha, ln_s):
        # both sides of x = (n+1)/alpha = 20, and far up the series.  The
        # bound covers math.lgamma's rounding below 20, the Stirling remainder
        # above, and long-double rounding of the 2 ln s that cancels against
        # ln(rho_{n+1}/rho_n)
        n = np.unique(np.r_[0:40, np.geomspace(40, 1e5, 30).astype(int)])
        got = W._ratio_steps(WeightSpec.stretched(alpha), ln_s, n)
        assert got.dtype == np.longdouble
        with mpmath.workdps(50):
            a, two_ln_s = mpmath.mpf(alpha), 2 * mpmath.mpf(ln_s)
            for k, g in zip(n.tolist(), got):
                ref = (two_ln_s + 2 * mpmath.log(mpmath.mpf(k + 2) / (k + 1))
                       - mpmath.loggamma((k + 2) / a) + mpmath.loggamma((k + 1) / a))
                assert abs(mpmath.mpf(str(g)) - ref) <= 3e-14 + 1e-18 * abs(two_ln_s)


class TestNormFactor:
    def test_unit_scale_closed_form(self):
        # sum s^{2n} (n+1)^2 / n! = e^{s^2} (1 + 3 s^2 + s^4) -> 5e at s^2=1
        expected = -0.5 * (1.0 + math.log(5.0))
        assert series_log_norm(WeightSpec.exponential(), math.log(1.0)) == pytest.approx(expected, abs=1e-13)

    def test_zero_scale(self):
        # s = 0 keeps only the n = 0 term, 1 / rho_0 = 1, with p_0 = 1 exactly
        n_lo, p = W._level_window(WeightSpec.exponential(), -math.inf, 1e-16)
        assert n_lo == 0 and p.tobytes() == np.array([1.0]).tobytes()
        assert series_log_norm(WeightSpec.exponential(), -math.inf) == 0.0

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
            series = series_log_norm(spec, _ln(float(s)))
            closed = log_hydrogen_norm_closed_form(float(s))
            assert abs(series - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_huge_scale_is_finite_and_normalized(self):
        # s ~ 2e59: the level window's p still sums to one
        _, p = _distribution_window(WeightSpec.stretched(1.0 / 32.0), LN_S_PAPER, 1e-12)
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_divergent_scale_raises(self):
        with pytest.raises((DivergentSeriesError, OverflowError)):
            W._level_window(WeightSpec.exponential(), math.log(float("inf")), 1e-16)


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
        # a peak below the cap (n ~ 49) whose upper tail runs past it
        with pytest.raises(DivergentSeriesError):
            truncation_level(WeightSpec.exponential(), tail_eps=1e-12, ln_s=0.5 * math.log(50.0))
        assert truncation_level(WeightSpec.exponential(), tail_eps=1e-12, ln_s=0.5 * math.log(10.0)) < 64

    @pytest.mark.parametrize("tail_eps", [0.3, 0.5, 0.7, 0.99])
    def test_large_tail_eps_matches_brute_force(self, tail_eps):
        # from 1/2 on the lower cut could pass the upper one; n_max keeps its meaning
        for spec, ln_s in ((WeightSpec.exponential(), math.log(4.0)),
                           (WeightSpec.stretched(1.0 / 32.0), LN_S_PAPER)):
            got = truncation_level(spec, tail_eps=tail_eps, ln_s=ln_s)
            assert got == brute_force_truncation(spec, ln_s, tail_eps)

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

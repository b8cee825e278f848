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
    WeightSpec,
    log_moment,
    truncation_level,
)
from cohere.state import build_state
from cohere.su2 import AngularParams

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
    window whose tails are cut at 1e-16 each: the series sum is t / p_n at
    the window's largest p_n, where level n holds the term
    t = s^{2(n-1)} n^2 / rho_{n-1}."""
    n_lo, p = W._level_window(spec, ln_s, 2e-16)
    n = n_lo + int(np.argmax(p))
    power = 2.0 * (n - 1) * ln_s if n > 1 else 0.0  # s = 0 keeps the ground level alone
    log_term = power + 2.0 * math.log(n) - log_moment(spec, n - 1)
    return -0.5 * (log_term - math.log(p[n - n_lo]))


class TestLogMoment:
    def test_exponential_factorials(self):
        assert log_moment(WeightSpec(1.0), 5) == pytest.approx(math.log(120), rel=1e-14)

    def test_stretched_alpha_one_matches_exponential(self):
        # the formula (1/alpha) Gamma((n+1)/alpha) at alpha = 1 is the
        # exponential weight's n!, bit for bit: ln(1/alpha) is 0, (n+1)/alpha exact
        n = np.arange(200_000)
        factorials = np.array([math.lgamma(k + 1.0) for k in range(n.size)])
        assert log_moment(WeightSpec(1.0), n).tobytes() == factorials.tobytes()
        assert log_moment(WeightSpec(1.0), 5) == math.lgamma(6.0)

    def test_stretched_half_zeroth_moment(self):
        # integral of exp(-sqrt(u)) du = 2, verified against quadrature
        got = log_moment(WeightSpec(0.5), 0)
        assert got == pytest.approx(math.log(2.0), abs=1e-12)
        numeric, _ = quad(lambda u: math.exp(-math.sqrt(u)), 0, np.inf, limit=200)
        assert got == pytest.approx(math.log(numeric), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_adaptive_integration(self, alpha):
        spec = WeightSpec(alpha)
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
            assert log_moment(WeightSpec(alpha), n) == pytest.approx(expected, rel=1e-14)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            log_moment(WeightSpec(1.0), -1)

    def test_moment_past_the_float_range_raises(self):
        # a subnormal alpha puts (n + 1)/alpha, and so ln Gamma of it, at inf;
        # numpy only warns of that overflow unless warnings are errors
        with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="non-finite"):
            log_moment(WeightSpec(1e-310), 0)

    def test_alpha_validation(self):
        for alpha in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                WeightSpec(alpha)
        # a spec is its exponent alone, with one constructor: the exponential
        # weight is WeightSpec(1.0), and no alias names either family
        assert WeightSpec(1.0) == WeightSpec(alpha=1.0)
        assert not hasattr(WeightSpec, "exponential") and not hasattr(WeightSpec, "stretched")

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
        # x log-spaced over [1e-300, 20), densest where the level window's
        # k/alpha fall, and over [20, 1e300].  From 20 up the series is
        # within its first omitted term, 1/(1188 x^9); below, math.lgamma's
        # rounding, absolute near its zeros at x = 1 and 2, gives a few ulp
        # of max(1, |ln Gamma(x)|, |(x - 1/2) ln x|) (3.7 eps measured).  A
        # scalar gives a float64 scalar, a long double array a long double
        # array; mpmath keeps 50 digits past the cancellation of x ln x terms
        x = np.r_[np.geomspace(1e-300, 20, 60, endpoint=False),
                  np.geomspace(1e-2, 20, 60, endpoint=False), np.geomspace(20, 1e300, 60)]
        got = W._stirling_tail(x.astype(np.longdouble))
        assert got.dtype == np.longdouble and got.shape == x.shape
        eps = np.finfo(float).eps
        for v, g in zip(x.tolist(), got):
            scalar = W._stirling_tail(v)
            assert isinstance(scalar, np.float64)
            with mpmath.workdps(50 + 2 * max(0, int(math.log10(v)))):
                mv = mpmath.mpf(v)
                lead, lg = (mv - 0.5) * mpmath.log(mv), mpmath.loggamma(mv)
                ref = lg - lead + mv - mpmath.log(2 * mpmath.pi) / 2
                if v < 20:
                    bound = 8 * eps * max(1, abs(lg), abs(lead))
                else:
                    bound = 1 / (1188 * mv**9) + 1e-18
                assert abs(mpmath.mpf(str(g)) - ref) <= bound, v
                assert abs(mpmath.mpf(float(scalar)) - ref) <= bound, v

    def test_each_lgamma_argument_is_evaluated_once(self, monkeypatch):
        # the tails are one array over k/alpha, k = lo+1 .. hi+1: of
        # x = 4, 8, ..., 804, those below 20 reach math.lgamma, once each
        seen = []
        lgamma = W._lgamma
        monkeypatch.setattr(W, "_lgamma", lambda x: seen.extend(np.ravel(x).tolist()) or lgamma(x))
        W._ratio_steps(WeightSpec(0.25), 1.0, 0, 200)
        assert seen == [4.0, 8.0, 12.0, 16.0]

    @pytest.mark.parametrize("alpha, ln_s", [(5.0, -0.3), (1.0, 1.8), (0.7, 0.5), (0.3, 12.4),
                                             (1.0 / 32.0, 136.6), (1.0 / 64.0, 376.3), (1e-5, 7.7e5)])
    def test_steps_match_mpmath(self, alpha, ln_s):
        # both sides of x = (n+1)/alpha = 20, and far up the series.  The
        # bound covers math.lgamma's rounding below 20, the Stirling remainder
        # above, and long-double rounding of the 2 ln s that cancels against
        # ln(rho_{n+1}/rho_n).  The steps are formed over one range that
        # holds every n
        n = np.unique(np.r_[0:40, np.geomspace(40, 1e5, 30).astype(int)])
        steps = W._ratio_steps(WeightSpec(alpha), ln_s, 0, n[-1] + 1)
        assert steps.dtype == np.longdouble and steps.size == n[-1] + 1
        got = steps[n]
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
        assert series_log_norm(WeightSpec(1.0), math.log(1.0)) == pytest.approx(expected, abs=1e-13)

    def test_zero_scale(self):
        # s = 0 keeps only the ground level's term 1 / rho_0 = 1, with p_1 = 1 exactly
        n_lo, p = W._level_window(WeightSpec(1.0), -math.inf, 2e-16)
        assert n_lo == 1 and p.tobytes() == np.array([1.0]).tobytes()
        assert series_log_norm(WeightSpec(1.0), -math.inf) == 0.0

    def test_closed_form_values(self):
        assert hydrogen_norm_closed_form(0.0) == 1.0
        assert hydrogen_norm_closed_form(1.0) == pytest.approx(
            math.exp(-0.5) / math.sqrt(5.0), rel=1e-14
        )
        assert hydrogen_norm_closed_form(math.sqrt(2.0)) == pytest.approx(
            math.exp(-1.0) / math.sqrt(11.0), rel=1e-14
        )

    def test_series_matches_closed_form_on_grid(self):
        spec = WeightSpec(1.0)
        for s in np.linspace(0.0, 10.0, 100):
            series = series_log_norm(spec, _ln(float(s)))
            closed = log_hydrogen_norm_closed_form(float(s))
            assert abs(series - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_huge_scale_is_finite_and_normalized(self):
        # s ~ 2e59: the level window's p still sums to one
        _, p = W._level_window(WeightSpec(1.0 / 32.0), LN_S_PAPER, 1e-12)
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_divergent_scale_raises(self):
        with pytest.raises((DivergentSeriesError, OverflowError)):
            W._level_window(WeightSpec(1.0), math.log(float("inf")), 2e-16)


def brute_force_truncation(spec, ln_s, tail_eps, scan=4000):
    """Independent cumulative-sum oracle: the top principal level n whose
    weight summed from the top is at least tail_eps, over the terms
    s^{2(n-1)} n^2 / rho_{n-1} of levels 1..scan."""
    n = np.arange(1, scan + 1)
    log_d = 2 * np.log(n.astype(float))
    if ln_s == -math.inf:
        power = np.where(n == 1, 0.0, -np.inf)
    else:
        power = 2 * (n - 1) * ln_s
    w = power + log_d - log_moment(spec, n - 1)
    p = np.exp(w - logsumexp(w))
    tail = np.cumsum(p[::-1])[::-1]
    ok = np.nonzero(tail < tail_eps)[0]
    return int(n[ok[0] - 1]) if ok.size else scan


class TestTruncation:
    def test_zero_scale(self):
        assert truncation_level(WeightSpec(1.0), ln_s=-math.inf) == 1

    def test_matches_brute_force_exponential(self):
        spec = WeightSpec(1.0)
        got = truncation_level(spec, tail_eps=1e-12, ln_s=math.log(4.0))
        assert got == brute_force_truncation(spec, math.log(4.0), 1e-12 / 2)

    def test_matches_brute_force_paper_scale(self):
        spec = WeightSpec(1.0 / 32.0)
        got = truncation_level(spec, tail_eps=1e-12, ln_s=LN_S_PAPER)
        assert got == brute_force_truncation(spec, LN_S_PAPER, 1e-12 / 2)
        # window centered near level 160 with spread sqrt(5) must cover 151..171
        assert got >= 171

    def test_bad_tail_eps(self):
        for tail_eps in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match=r"tail_eps must lie in \(0, 1\), got"):
                truncation_level(WeightSpec(1.0), tail_eps=tail_eps, ln_s=math.log(1.0))

    @pytest.mark.parametrize("tail_eps", [1e-12, 1e-6, 0.3, 0.99])
    @pytest.mark.parametrize("ln_s", [math.log(4.0), math.log(10.0), LN_S_PAPER],
                             ids=["ln4", "ln10", "paper"])
    @pytest.mark.parametrize("alpha", [1.0, 0.25, 1.0 / 32.0])
    def test_is_the_built_state_n_max(self, alpha, ln_s, tail_eps):
        # one tail rule: the state leaves out tail_eps in all, tail_eps/2 from
        # each end, and truncation_level reads the same window (the two read
        # levels 54 and 55 at alpha = 1, s = 4, 1e-12 when it cut tail_eps from
        # each end); its value is the built state's top level
        spec = WeightSpec(alpha)
        try:
            n_top = truncation_level(spec, tail_eps=tail_eps, ln_s=ln_s)
        except DivergentSeriesError:  # the paper's scale at alpha = 1 and 1/4
            with pytest.raises(DivergentSeriesError):
                build_state(spec, 0.0, AngularParams(0.0, 0.0), tail_eps=tail_eps, ln_s=ln_s)
            assert alpha > 1.0 / 32.0 and ln_s == LN_S_PAPER
            return
        state = build_state(spec, 0.0, AngularParams(0.0, 0.0), tail_eps=tail_eps, ln_s=ln_s)
        assert state.coeffs.levels[-1] == n_top

    def test_hard_cap_signals_divergence(self, monkeypatch):
        monkeypatch.setattr(W, "MAX_TERMS", 64)
        with pytest.raises(DivergentSeriesError):
            truncation_level(WeightSpec(1.0), tail_eps=1e-12, ln_s=math.log(1e6))
        # a peak below the cap (level ~ 50) whose upper tail runs past it
        with pytest.raises(DivergentSeriesError):
            truncation_level(WeightSpec(1.0), tail_eps=1e-12, ln_s=0.5 * math.log(50.0))
        assert truncation_level(WeightSpec(1.0), tail_eps=1e-12, ln_s=0.5 * math.log(10.0)) <= 64

    @pytest.mark.parametrize("tail_eps", [0.3, 0.5, 0.7, 0.99])
    def test_large_tail_eps_matches_brute_force(self, tail_eps):
        # each end cuts tail_eps/2 < 1/2, so the lower cut never passes the upper one
        for spec, ln_s in ((WeightSpec(1.0), math.log(4.0)),
                           (WeightSpec(1.0 / 32.0), LN_S_PAPER)):
            got = truncation_level(spec, tail_eps=tail_eps, ln_s=ln_s)
            assert got == brute_force_truncation(spec, ln_s, tail_eps / 2)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=hst.floats(min_value=1.0 / 32.0, max_value=1.0),
        log_mean=hst.floats(min_value=-3.0, max_value=math.log(200.0)),
        log_eps=hst.lists(hst.floats(min_value=-36.0, max_value=-0.7), min_size=2, max_size=2),
    )
    def test_monotone_in_tail_eps(self, alpha, log_mean, log_eps):
        # scales whose leading-order mean index alpha s^(2 alpha) is exp(log_mean)
        ln_s = (log_mean - math.log(alpha)) / (2.0 * alpha)
        spec = WeightSpec(alpha)
        tight, loose = sorted(math.exp(v) for v in log_eps)
        n_tight = truncation_level(spec, tail_eps=tight, ln_s=ln_s)
        n_loose = truncation_level(spec, tail_eps=loose, ln_s=ln_s)
        assert n_tight >= n_loose

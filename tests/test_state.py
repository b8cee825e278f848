"""State assembly, level statistics, dynamics, serialization."""
import dataclasses
import inspect
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from cohere import hydrogen, state, weights
from cohere.hydrogen import _TWO_PI_LD
from cohere.state import (
    _BLOCK_ELEMENTS,
    DescriptorError,
    SpectralCoefficients,
    autocorrelation,
    build_state,
    evolve,
    level_spread,
    mean_level,
    overlap,
    parse_descriptor,
    read_descriptor,
    reduced_phases,
    solve_scale_ln,
    write_descriptor,
    write_trace_csv,
)
from cohere.su2 import AngularParams, su2_overlap
from cohere.weights import DEFAULT_TAIL_EPS, DivergentSeriesError, WeightSpec

LN_S_PAPER = math.log(2.209e59)
ALPHA_PAPER = 1.0 / 32.0


def one_shot_autocorrelation(state, t):
    """Reference kernel: every time in one (times x levels) block, the
    long-double reduction followed by a complex exponential."""
    prod = (
        -np.atleast_1d(np.asarray(t, dtype=np.longdouble))[:, None]
        * state.level_energies.astype(np.longdouble)[None, :]
    )
    phases = np.mod(prod, _TWO_PI_LD).astype(np.float64)
    return np.exp(1j * phases) @ state.coeffs.probabilities


@pytest.fixture(scope="module")
def paper_state():
    return build_state(
        WeightSpec(ALPHA_PAPER), 0.0, AngularParams(0.0, 0.0),
        ln_s=LN_S_PAPER,
    )


class TestBuild:
    def test_zero_scale_is_ground_state(self):
        st = build_state(WeightSpec(1.0), 0.7, AngularParams(0.2, 0.1j), ln_s=-math.inf)
        assert st.coeffs.n_lo == 1 and st.coeffs.levels.tolist() == [1]
        assert weights.truncation_level(WeightSpec(1.0), ln_s=-math.inf) == 1
        assert st.coeffs.probabilities[0] == pytest.approx(1.0, abs=1e-15)
        assert mean_level(st) == 1.0
        assert level_spread(st) == 0.0
        assert st.s == 0.0

    def test_unit_scale_distribution(self):
        # p_n = n^2 / (n-1)! / (5e) at s^2 = 1
        st = build_state(WeightSpec(1.0), 0.0, AngularParams(0.0, 0.0), ln_s=math.log(1.0))
        p = st.coeffs.probabilities
        n = st.coeffs.levels
        expected = n**2.0 / np.array([math.factorial(int(k) - 1) for k in n]) / (5 * math.e)
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_paper_state_statistics(self, paper_state):
        assert abs(mean_level(paper_state) - 160.0) < 0.01
        assert abs(level_spread(paper_state) - math.sqrt(5.0)) / math.sqrt(5.0) < 0.02

    def test_distribution_sums_to_one(self, paper_state):
        coeffs = paper_state.coeffs
        assert coeffs.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        assert coeffs.levels[0] == coeffs.n_lo

    def test_paper_window_is_levels_144_to_176(self, paper_state):
        np.testing.assert_array_equal(paper_state.coeffs.levels, np.arange(144, 177))

    def test_window_covers_tail_budget(self, paper_state):
        # at least 1 - tail_eps of the weight lies inside the window
        assert paper_state.coeffs.probabilities.sum() >= 1.0 - 1e-12

    @pytest.mark.parametrize("tail_eps", [0.0, 1.0, 1.5, -1e-3, math.nan])
    def test_tail_eps_outside_the_unit_interval_is_rejected(self, tail_eps):
        with pytest.raises(ValueError, match="tail_eps"):
            build_state(WeightSpec(0.03125), 0.0, AngularParams(0.0, 0.0),
                        tail_eps=tail_eps, ln_s=50.0)
        with pytest.raises(ValueError, match="tail_eps"):
            solve_scale_ln(0.03125, 20.0, tail_eps=tail_eps)

    def test_narrow_vs_wide_families(self, paper_state):
        wide = build_state(
            WeightSpec(1.0), 0.0, AngularParams(0.0, 0.0),
            ln_s=solve_scale_ln(1.0, 160.0),
        )
        assert level_spread(paper_state) < level_spread(wide) / 5.0


def two_pass_window(alpha, ln_s, tail_eps, around):
    """50-digit reference window and its ln p_n.  A first pass sums the
    terms s^{2(n-1)} n^2 / rho_{n-1} over the principal levels around =
    (n_lo, n_hi), widened by the window's width on each side (clipped at 1),
    and cuts each end by the package's rule: the levels go whose weight,
    summed from that end, is below tail_eps/2 (at most tail_eps/2 at the
    lower end).  The second normalizes the terms over the window that is
    left."""
    width = around[1] - around[0] + 1
    lo, hi = max(1, around[0] - width), around[1] + width
    with mpmath.workdps(50):
        a, ls = mpmath.mpf(alpha), mpmath.mpf(ln_s)
        log_t = [2 * (n - 1) * ls + 2 * mpmath.log(n) + mpmath.log(a) - mpmath.loggamma(n / a)
                 for n in range(lo, hi + 1)]
        top = max(log_t)
        t = [mpmath.exp(x - top) for x in log_t]
        total = mpmath.fsum(t)
        # the widened range holds the whole series to far below tail_eps
        assert (lo == 1 or t[0] < 1e-30 * total) and t[-1] < 1e-30 * total
        cut = mpmath.mpf(tail_eps) / 2 * total
        keep = [i for i in range(len(t)) if mpmath.fsum(t[: i + 1]) > cut and mpmath.fsum(t[i:]) >= cut]
        first, last = keep[0], keep[-1]
        log_z = top + mpmath.log(mpmath.fsum(t[first : last + 1]))
        return lo + first, [log_t[i] - log_z for i in range(first, last + 1)]


def window_error(alpha, ln_s):
    """max |ln p_n - 50-digit ln p_n| over the level window at tail_eps 1e-12,
    after checking that the window is the reference's."""
    n_lo, p = state._level_window(WeightSpec(alpha), ln_s, 1e-12)
    ref_lo, ref = two_pass_window(alpha, ln_s, 1e-12, (n_lo, n_lo + p.size - 1))
    assert (n_lo, p.size) == (ref_lo, len(ref))
    with mpmath.workdps(50):
        return max(abs(mpmath.log(mpmath.mpf(x)) - r) for x, r in zip(p.tolist(), ref))


@pytest.fixture(scope="module", params=[(ALPHA_PAPER, 160.0), (1.0 / 64.0, 2000.0)],
                ids=["paper", "far-corner"])
def scan_case(request):
    alpha, mean = request.param
    return WeightSpec(alpha), solve_scale_ln(alpha, mean)


class TestOneScan:
    def test_window_matches_the_two_pass_reference(self, scan_case):
        # forming each term as 2n ln s + 2 ln(n+1) - ln rho_n, from summands of
        # ~1e4 that cancel, loses 7.6e-12 (paper) and 3.2e-10 (far corner)
        spec, ln_s = scan_case
        assert window_error(spec.alpha, ln_s) <= 1e-14

    @pytest.mark.parametrize("alpha, mean, bound", [(0.3, 500.0, 1e-14), (1.0, 40.0, 5e-14),
                                                    (0.7, 3.0, 5e-14)])
    def test_wide_and_low_windows_match_the_reference(self, alpha, mean, bound):
        # the looser bounds cover the math.lgamma steps below x = (n+1)/alpha = 30
        assert window_error(alpha, solve_scale_ln(alpha, mean)) <= bound

    def test_each_index_is_formed_once(self, scan_case, monkeypatch):
        # every ratio t_{n+1} / t_n is formed once per reach: once in all at the
        # scan cases, and afresh for the doubled reach at alpha = 4, <n> = 20,
        # where the first reach falls short
        for spec, ln_s, calls in (scan_case + (1,), (WeightSpec(4.0), solve_scale_ln(4.0, 20.0), 2)):
            seen = []
            steps = weights._ratio_steps
            monkeypatch.setattr(weights, "_ratio_steps",
                                lambda spec, ln_s, lo, hi: seen.append((lo, hi)) or steps(spec, ln_s, lo, hi))
            state._level_window(spec, ln_s, 1e-12)
            monkeypatch.undo()
            assert len(seen) == calls
            assert seen[-1][0] <= seen[0][0] < seen[0][1] <= seen[-1][1]

    def test_the_scale_is_passed_only_as_ln_s(self):
        for module in (weights, state):
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                params = inspect.signature(fn).parameters
                assert "s" not in params, name
                if "ln_s" in params:
                    assert params["ln_s"].kind is inspect.Parameter.KEYWORD_ONLY, name
        for fn in (build_state, weights.truncation_level):
            assert inspect.signature(fn).parameters["ln_s"].kind is inspect.Parameter.KEYWORD_ONLY
        with pytest.raises(TypeError):
            build_state(WeightSpec(0.25), 4.0, 0.0, AngularParams(0, 0))


class TestOneDistribution:
    def test_the_state_keeps_the_window_p(self, scan_case):
        spec, ln_s = scan_case
        _, p = state._level_window(spec, ln_s, DEFAULT_TAIL_EPS)
        st = build_state(spec, 0.0, AngularParams(0.0, 0.0), ln_s=ln_s)
        assert st.coeffs.probabilities.tobytes() == p.tobytes()

    def test_spread_is_the_two_pass_sum(self, scan_case):
        spec, ln_s = scan_case
        st = build_state(spec, 0.0, AngularParams(0.0, 0.0), ln_s=ln_s)
        with mpmath.workdps(50):
            terms = [(mpmath.mpf(int(n)), mpmath.mpf(float(p)))
                     for n, p in zip(st.coeffs.levels, st.coeffs.probabilities)]
            mean = mpmath.fsum(n * p for n, p in terms)
            ref = float(mpmath.sqrt(mpmath.fsum((n - mean) ** 2 * p for n, p in terms)))
        assert abs(level_spread(st) - ref) <= 1e-15 * ref


def exponential_mean_closed_form(s_sq: float) -> float:
    """Mean principal number for the plain exponential weight:
    1 + s^2 (s^4 + 5 s^2 + 4) / (s^4 + 3 s^2 + 1)."""
    x = s_sq
    return 1.0 + x * (x * x + 5 * x + 4) / (x * x + 3 * x + 1)


def exponential_variance_closed_form(s_sq: float) -> float:
    """Level variance for the plain exponential weight:
    s^2 (s^8 + 6 s^6 + 14 s^4 + 10 s^2 + 4) / (s^8 + 6 s^6 + 11 s^4 + 6 s^2 + 1)."""
    x = s_sq
    num = x**4 + 6 * x**3 + 14 * x * x + 10 * x + 4
    den = x**4 + 6 * x**3 + 11 * x * x + 6 * x + 1
    return x * num / den


class TestClosedFormStatistics:
    def test_rational_formulas_match_direct_summation(self):
        spec = WeightSpec(1.0)
        for s_sq in np.geomspace(0.01, 100.0, 50):
            st = build_state(spec, 0.0, AngularParams(0.0, 0.0), ln_s=math.log(math.sqrt(s_sq)))
            mean = mean_level(st)
            var = level_spread(st) ** 2
            closed = exponential_mean_closed_form(s_sq)
            assert abs(mean - closed) <= 1e-10 * max(1.0, closed - 1.0)
            assert abs(var - exponential_variance_closed_form(s_sq)) <= 1e-10 * max(1.0, var)

    @pytest.mark.parametrize("alpha", [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0])
    def test_asymptotic_spread_consistency(self, alpha):
        ln_s = solve_scale_ln(alpha, 160.0)
        st = build_state(
            WeightSpec(alpha), 0.0, AngularParams(0.0, 0.0), ln_s=ln_s
        )
        # the stretched family's large-scale spread is alpha s^alpha
        spread_lo = alpha * math.exp(alpha * ln_s)
        assert abs(level_spread(st) - spread_lo) <= 0.1 * spread_lo


class TestSolveScale:
    def test_paper_worked_example(self):
        ln_s = solve_scale_ln(ALPHA_PAPER, 160.0, tol=1e-10)
        assert abs(ln_s - LN_S_PAPER) <= 0.005 * LN_S_PAPER

    def test_small_scale_limit(self):
        # <n> - 1 ~ 4 s^2 for the plain exponential at small s; tol holds
        # <n> to 1e-10 of <n> - 1 = 0.04
        s = math.exp(solve_scale_ln(1.0, 1.04, tol=1e-10 * 0.04 / 1.04))
        assert s == pytest.approx(0.1, rel=0.01)

    def test_target_validation(self):
        for target in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="principal mean target must exceed 1"):
                solve_scale_ln(ALPHA_PAPER, target)
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                solve_scale_ln(alpha, 10.0)

    def test_scale_to_zero_with_target(self):
        # the solved scale shrinks monotonically with the target
        lns = [solve_scale_ln(1.0, t) for t in (2.0, 1.1, 1.01)]
        assert lns[0] > lns[1] > lns[2]


# Extreme exponents and targets: principal means from just above the
# ground state to 5000, held to 1e-9 of <n> (id suffix "n"), and means
# <n> = 1 + x whose excess x over the ground state runs down to 1e-6, held
# to 1e-9 of x (id suffix "index": x is the mean of the series' index).
SOLVE_CASES = (
    [(alpha, target, True) for alpha in (1 / 128, 1 / 64, 1 / 32, 0.25, 1.0, 2.0, 4.0)
     for target in (1.0001, 1.01, 1.5, 3.0, 20.0, 160.0, 2000.0, 5000.0)]
    + [(alpha, excess, False) for alpha in (0.25, 1.0, 4.0)
       for excess in (1e-6, 1e-3, 0.04, 0.5, 5.0)]
)


def aim(case):
    """(target <n>, the absolute bound on the solved <n>, tol)."""
    _, value, principal = case
    if principal:
        return value, 1e-9 * value, 1e-9
    return 1.0 + value, 1e-9 * value, 1e-9 * value / (1.0 + value)


@pytest.fixture(scope="module")
def solved():
    """ln s for every SOLVE_CASES entry at the tol of its bound."""
    return {case: solve_scale_ln(case[0], aim(case)[0], tol=aim(case)[2]) for case in SOLVE_CASES}


class TestSolveContract:
    @pytest.mark.parametrize("case", SOLVE_CASES, ids=[f"{a:g}-{t:g}-{'n' if p else 'index'}"
                                                       for a, t, p in SOLVE_CASES])
    def test_solved_state_meets_the_relative_tol(self, solved, case):
        target, bound, _ = aim(case)
        st = build_state(WeightSpec(case[0]), 0.0, AngularParams(0.0, 0.0),
                         ln_s=solved[case])
        assert abs(mean_level(st) - target) <= bound

    def test_scale_grows_with_the_target(self, solved):
        for alpha in {a for a, _, _ in SOLVE_CASES}:
            for principal in (True, False):
                lns = [ln_s for (a, _, p), ln_s in solved.items() if a == alpha and p == principal]
                assert lns == sorted(lns) and len(set(lns)) == len(lns)

    def test_paper_solve_takes_few_windows(self, monkeypatch):
        windows = []
        window = state._level_window
        monkeypatch.setattr(state, "_level_window",
                            lambda *args: windows.append(args) or window(*args))
        solve_scale_ln(ALPHA_PAPER, 160.0)
        assert 1 <= len(windows) <= 5

    def test_step_below_rounding_returns(self):
        # Newton nears this root from above, so the bracket has no lower end;
        # a step below one ulp used to "leave" it and bisect to ln s = -inf,
        # where the slope is 0, and the solve raised
        reachable = solve_scale_ln(4.0, 1.0001, tol=1e-18)
        assert abs(solve_scale_ln(4.0, 1.0001, tol=1e-20) - reachable) <= 1e-15 * abs(reachable)

    def test_collapsed_bracket_returns_its_midpoint(self):
        # at the revival scan's far corner the root is bracketed from both
        # sides, and tol = 1e-16 is below the mean's rounding there
        ln_s = solve_scale_ln(1.0 / 64.0, 2000.0, tol=1e-16)
        assert abs(ln_s - solve_scale_ln(1.0 / 64.0, 2000.0, tol=1e-13)) <= 1e-15 * ln_s
        st = build_state(WeightSpec(1.0 / 64.0), 0.0, AngularParams(0.0, 0.0), ln_s=ln_s)
        assert abs(mean_level(st) - 2000.0) <= 1e-13 * 2000.0

    def test_divergent_seed_at_large_alpha(self):
        # from alpha ~ 3e5 up the leading-order seed puts s near 1, where the
        # norm series needs more than MAX_TERMS terms.  That evaluation counts
        # as a mean above the target, so the scale shrinks, to ln s ~ -1 here
        ln_s = solve_scale_ln(1e6, 2.0)
        assert -2.0 < ln_s < 0.0
        st = build_state(WeightSpec(1e6), 0.0, AngularParams(0.0, 0.0), ln_s=ln_s)
        assert abs(mean_level(st) - 2.0) <= 1e-9 * 2.0

    def test_unreachable_target_is_refused_before_any_window(self, monkeypatch):
        # every window's levels are at most MAX_TERMS, and so is its mean
        monkeypatch.setattr(state, "_level_window", lambda *args: pytest.fail("a window was formed"))
        for target in (weights.MAX_TERMS, 2e6, math.inf):
            with pytest.raises(DivergentSeriesError, match="no window below 1000000 terms"):
                solve_scale_ln(1.0 / 32.0, target)

    def test_bracket_that_closes_on_a_divergent_scale_raises(self, monkeypatch):
        # the root lies past the smallest scale that diverges, so the bracket
        # closes on that scale from below, and its midpoint solves nothing
        window = state._level_window

        def capped(spec, ln_s, tail_eps):
            if ln_s > 0.5:
                raise DivergentSeriesError("past the cap")
            return window(spec, ln_s, tail_eps)

        monkeypatch.setattr(state, "_level_window", capped)
        with pytest.raises(DivergentSeriesError, match="no window below 1000000 terms"):
            solve_scale_ln(1.0, 10.0)

    def test_step_that_stalls_on_a_divergent_scale_raises(self, monkeypatch):
        # at alpha = 1e-20 the seed ln s ~ 2.4e21 is past 2^52 times the first
        # step down, 0.5, so no step moves it off a scale that diverged
        def divergent(spec, ln_s, tail_eps):
            raise DivergentSeriesError("every scale diverges")

        monkeypatch.setattr(state, "_level_window", divergent)
        with pytest.raises(DivergentSeriesError, match="no window below 1000000 terms"):
            solve_scale_ln(1e-20, 10.0)

    def test_a_window_that_never_moves_does_not_converge(self, monkeypatch):
        # the cap doubles each step, so 200 steps end at a finite scale
        monkeypatch.setattr(state, "_level_window", lambda spec, ln_s, tail_eps: (1, np.array([0.5, 0.5])))
        with pytest.raises(ArithmeticError, match="did not converge"):
            solve_scale_ln(0.25, 20.0)


class TestEvolution:
    def test_zero_time_identity(self, paper_state):
        same = evolve(paper_state, 0.0)
        np.testing.assert_allclose(same.coeffs.values, paper_state.coeffs.values, atol=1e-15)

    def test_group_property(self, paper_state):
        t1, t2 = 3.3e8, 4.1e7
        a = evolve(evolve(paper_state, t1), t2)
        b = evolve(paper_state, t1 + t2)
        np.testing.assert_allclose(a.coeffs.values, b.coeffs.values, atol=1e-12)
        assert a.gamma == pytest.approx(b.gamma, rel=1e-15)

    def test_phase_oracle(self, paper_state):
        t = 1.234e6
        evolved = evolve(paper_state, t)
        expected = paper_state.coeffs.values * np.exp(
            -1j * hydrogen.energy(paper_state.coeffs.levels) * t
        )
        np.testing.assert_allclose(evolved.coeffs.values, expected, atol=1e-12)

    def test_temporal_stability_matches_rebuild(self, paper_state):
        t = 7.7e8
        rebuilt = build_state(
            paper_state.weight, paper_state.gamma + t, paper_state.angular,
            ln_s=paper_state.ln_s,
        )
        evolved = evolve(paper_state, t)
        np.testing.assert_allclose(
            rebuilt.coeffs.values, evolved.coeffs.values, atol=1e-12
        )

    def test_norm_preserved(self, paper_state):
        for t in (1.0, 1e5, 1.4e9):
            assert evolve(paper_state, t).coeffs.probabilities.sum() == pytest.approx(
                1.0, abs=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(
        exponential=hst.booleans(),
        alpha=hst.floats(min_value=1.0 / 40.0, max_value=1.0 / 28.0),
        ln_s=hst.floats(min_value=-135.0, max_value=135.0),
        gamma=hst.floats(min_value=-1e9, max_value=1e9),
        ticks=hst.lists(hst.integers(min_value=-2**40, max_value=2**40), min_size=2, max_size=2),
        zetas=hst.lists(hst.floats(min_value=-10.0, max_value=10.0), min_size=4, max_size=4),
    )
    def test_group_law_and_norm_on_small_states(self, exponential, alpha, ln_s, gamma, ticks, zetas):
        spec, ln_s = (WeightSpec(1.0), ln_s / 60.0) if exponential else (
            WeightSpec(alpha), ln_s)
        st = build_state(spec, gamma,
                         AngularParams(complex(*zetas[:2]), complex(*zetas[2:])), ln_s=ln_s)
        # times on a 2^-10 grid up to 2^30 ~ 1.07e9, so t1 + t2 is exact and
        # any mismatch is the evolution's own rounding
        t1, t2 = (k / 1024.0 for k in ticks)
        a = evolve(evolve(st, t1), t2)
        b = evolve(st, t1 + t2)
        # Rounding budget in radians.  Each long-double reduction of t e
        # rounds the product and 2 pi (2^-64 relative each).  Each evolve
        # then rounds to float64 below 2 pi (2^-51), adds phases below 4 pi
        # (2^-50) and subtracts 2 pi as a double (2^-52): 7 * 2^-52, three
        # evolves on the two sides, and a few ulp more from exp.
        e = np.abs(st.level_energies)
        bound = 2 * (abs(t1) + abs(t2) + abs(t1 + t2)) * e * 2.0**-64 + 32 * 2.0**-52
        diff = np.abs(a.coeffs.values - b.coeffs.values)
        assert np.all(diff <= bound * np.abs(b.coeffs.values))
        assert a.gamma == pytest.approx(b.gamma, rel=1e-15, abs=1e-6)
        for evolved in (a, b):
            assert abs(np.sum(np.abs(evolved.coeffs.values) ** 2) - 1.0) <= 1e-13


class TestReducedPhases:
    def test_matches_mpmath_reduction_at_paper_times(self, paper_state):
        # the same float64 inputs, multiplied and reduced mod 2 pi to 40 digits
        levels = paper_state.coeffs.levels
        assert (levels[0], levels[-1]) == (144, 176)
        t_revival = hydrogen.revival_time(160.0)
        times = [t_revival / k for k in (5, 4, 3, 2, 1)] + [1.5e9, 2e9]
        energies = paper_state.level_energies
        worst = 0.0
        with mpmath.workdps(40):
            two_pi = 2 * mpmath.pi
            for t in times:
                got = reduced_phases(-t, energies)
                for e, phase in zip(energies.tolist(), got.tolist()):
                    want = mpmath.fmod(mpmath.mpf(-t) * mpmath.mpf(e), two_pi)
                    # the circular distance, so a phase rounded across 0 = 2 pi counts as close
                    miss = abs(mpmath.fmod(mpmath.mpf(phase) - want + 3 * mpmath.pi, two_pi) - mpmath.pi)
                    worst = max(worst, float(miss))
        assert worst <= 4e-15


class TestAutocorrelation:
    def test_at_zero(self, paper_state):
        assert autocorrelation(paper_state, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_revival_peak_pronounced(self, paper_state):
        t_revival = hydrogen.revival_time(160.0)
        ts = np.linspace(0.995 * t_revival, 1.01 * t_revival, 3001)
        peak = np.max(np.abs(autocorrelation(paper_state, ts)))
        assert peak >= 0.9

    def test_fractional_revival_heights(self, paper_state):
        # at T_r/q the packet splits into q copies of weight 1/q (Averbukh and
        # Perelman), so while they do not overlap the largest |A|^2 within one
        # Kepler period T_K = 2 pi <n>^3 of T_r/q is about 1/q.  Measured
        # q max|A|^2 over 40,001 samples: 0.8227, 0.9211, 0.9545, 0.9845,
        # 1.0536.  q = 1 falls short by the cubic term of the spectrum
        # (revival_ratio 0.29); from q = 6 the copies overlap, the level spread
        # being 2.24, and q max|A|^2 climbs past 1.29.
        t_revival, t_kepler = hydrogen.revival_time(160.0), 2.0 * math.pi * 160.0**3
        bounds = {1: (0.80, 0.85), 2: (0.90, 1.10), 3: (0.90, 1.10), 4: (0.90, 1.10), 5: (0.90, 1.10)}
        for q, (low, high) in bounds.items():
            ts = np.linspace(t_revival / q - t_kepler, t_revival / q + t_kepler, 40_001)
            height = q * np.max(np.abs(autocorrelation(paper_state, ts)) ** 2)
            assert low <= height <= high, (q, height)

    def test_bounded_by_one(self, paper_state):
        rng = np.random.default_rng(5)
        ts = rng.uniform(0, 2e9, size=10_000)
        assert np.max(np.abs(autocorrelation(paper_state, ts))) <= 1.0 + 1e-12

    def test_conjugate_symmetry_in_time(self, paper_state):
        for t in (1e4, 3.7e8):
            assert autocorrelation(paper_state, -t) == pytest.approx(
                np.conj(autocorrelation(paper_state, t)), abs=1e-13
            )

    def test_matches_overlap_with_evolved_self(self, paper_state):
        t = 2.5e8
        assert overlap(paper_state, evolve(paper_state, t)) == pytest.approx(
            autocorrelation(paper_state, t), abs=1e-12
        )

    def test_scalar_matches_one_shot_kernel(self, paper_state):
        t = 0.37 * hydrogen.revival_time(160.0)
        got = autocorrelation(paper_state, t)
        assert isinstance(got, complex)
        assert abs(got - one_shot_autocorrelation(paper_state, t)[0]) <= 1e-14

    @pytest.mark.parametrize("extra, scale", [
        (0, 0), (1, 0), (-1, 1), (0, 1), (1, 1), (7, 3),
    ])
    def test_blocks_match_one_shot_kernel(self, paper_state, extra, scale):
        # counts 0, 1, rows - 1, rows, rows + 1 and 3 rows + 7 cover an
        # empty call, a single partial block and partial trailing blocks
        rows = _BLOCK_ELEMENTS // paper_state.coeffs.levels.size
        count = scale * rows + extra
        ts = np.random.default_rng(count).uniform(0.0, 2e9, size=count)
        got = autocorrelation(paper_state, ts)
        assert got.shape == (count,)
        if count:
            assert np.max(np.abs(got - one_shot_autocorrelation(paper_state, ts))) <= 1e-14

    def test_keeps_the_shape_of_the_times(self, paper_state):
        ts = np.linspace(0.0, 2e9, 6)
        got = autocorrelation(paper_state, ts.reshape(2, 3))
        np.testing.assert_array_equal(got, autocorrelation(paper_state, ts).reshape(2, 3))

    def test_matches_mpmath_at_revival_times(self, paper_state):
        # sum_n p_n exp(i t / 2n^2) to 40 digits, with the exact energies
        t_revival = hydrogen.revival_time(160.0)
        times = [t_revival * f for f in (0.2, 0.25, 1.0 / 3.0, 0.5, 1.0)] + [1.5e9]
        got = autocorrelation(paper_state, np.array(times))
        levels = paper_state.coeffs.levels.tolist()
        probs = paper_state.coeffs.probabilities.tolist()
        with mpmath.workdps(40):
            for t, value in zip(times, got):
                ref = mpmath.fsum(
                    p * mpmath.expj(mpmath.mpf(t) / (2 * n * n)) for n, p in zip(levels, probs)
                )
                assert abs(ref - mpmath.mpc(value.real, value.imag)) <= 1e-12

    def test_working_set_is_fixed(self, paper_state):
        ts = np.linspace(0.0, 2e9, 200_001)
        tracemalloc.start()
        try:
            out = autocorrelation(paper_state, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8 * 2**20


class TestOverlap:
    def test_self_overlap(self, paper_state):
        assert overlap(paper_state, paper_state) == pytest.approx(1.0, abs=1e-12)

    def test_weight_family_must_match(self, paper_state):
        other = build_state(WeightSpec(1.0), 0.0, paper_state.angular, ln_s=math.log(1.0))
        with pytest.raises(ValueError):
            overlap(paper_state, other)

    def test_exponential_state_overlaps_its_stretched_twin(self):
        # alpha = 1 is one weight under both constructors: same spec, same bits
        angular = AngularParams(0.3 + 0.1j, -0.2j)
        a = build_state(WeightSpec(1.0), 0.25, angular, ln_s=1.8)
        b = build_state(WeightSpec(1.0), 0.25, angular, ln_s=1.8)
        assert a.weight == b.weight and np.array_equal(a.coeffs.values, b.coeffs.values)
        assert overlap(a, b) == self.padded_overlap(a, b)
        assert abs(overlap(a, b) - 1.0) <= 1e-14

    def test_distant_angular_parameters_leave_lowest_level(self):
        spec = WeightSpec(1.0)
        a = build_state(spec, 0.0, AngularParams(0.0, 0.0), ln_s=math.log(1.0))
        b = build_state(spec, 0.0, AngularParams(1e4, 1e4), ln_s=math.log(1.0))
        got = overlap(a, b)
        # per-level overlap factors decay like (1+|zeta|^2)^(-2j), so only
        # the j = 0 ground level survives
        expected = a.coeffs.values[0].conjugate() * b.coeffs.values[0]
        assert abs(got - expected) <= 1e-7

    def test_antipodal_angular_parameters_keep_the_ground_level(self):
        # every level above the ground one is orthogonal; spin 0 overlaps fully
        spec = WeightSpec(1.0)
        a = build_state(spec, 0.0, AngularParams(1.0, 1.0), ln_s=math.log(1.0))
        b = build_state(spec, 0.0, AngularParams(-1.0, -1.0), ln_s=math.log(1.0))
        c0 = a.coeffs.values[0]
        assert a.coeffs.n_lo == 1 and abs(c0 - b.coeffs.values[0]) == 0.0
        assert abs(overlap(a, b) - c0.conjugate() * c0) <= 1e-15
        assert abs(overlap(a, b) - 0.0736) <= 5e-5

    @staticmethod
    def padded_overlap(a, b):
        """Reference: both windows zero-padded to their union."""
        lo = min(a.coeffs.n_lo, b.coeffs.n_lo)
        hi = max(a.coeffs.levels[-1], b.coeffs.levels[-1])
        padded = []
        for st in (a, b):
            buf = np.zeros(hi - lo + 1, dtype=complex)
            buf[st.coeffs.levels - lo] = st.coeffs.values
            padded.append(buf)
        j = (np.arange(lo, hi + 1) - 1) / 2.0
        ang = su2_overlap(j, a.angular.zeta1, b.angular.zeta1) * su2_overlap(
            j, a.angular.zeta2, b.angular.zeta2)
        return complex(np.sum(np.conj(padded[0]) * padded[1] * ang))

    def test_the_sum_runs_over_the_shared_levels(self, monkeypatch):
        spec = WeightSpec(ALPHA_PAPER)
        ln_s = {mean: solve_scale_ln(ALPHA_PAPER, mean) for mean in (20.0, 21.0, 160.0)}
        a = build_state(spec, 0.25, AngularParams(0.3 + 0.1j, -0.2j), ln_s=ln_s[20.0])
        b = build_state(spec, -1.5, AngularParams(0.25, 0.1 - 0.2j), ln_s=ln_s[21.0])
        far = build_state(spec, 0.0, AngularParams(0.3 + 0.1j, -0.2j), ln_s=ln_s[160.0])
        shared = np.arange(b.coeffs.n_lo, a.coeffs.levels[-1] + 1)
        assert a.coeffs.n_lo < b.coeffs.n_lo <= a.coeffs.levels[-1] < b.coeffs.levels[-1]
        assert a.coeffs.levels[-1] < far.coeffs.n_lo
        reference = self.padded_overlap(a, b)
        spins = []

        def recording(j, zeta_a, zeta_b):
            spins.append(np.array(j))
            return su2_overlap(j, zeta_a, zeta_b)

        monkeypatch.setattr(state, "su2_overlap", recording)
        assert abs(overlap(a, b) - reference) <= 1e-15
        assert all(np.array_equal(j, (shared - 1) / 2.0) for j in spins) and len(spins) == 2
        assert overlap(a, far) == 0j and overlap(far, a) == 0j

    def test_one_shared_level_is_its_closed_form(self):
        # levels 3-4 against 4-5: level 4 alone is shared, with spins j = 3/2,
        # so each spin-1/2 overlap (1 + conj(z_a) z_b) / sqrt((1 + |z_a|^2)(1 + |z_b|^2))
        # enters cubed
        base = build_state(WeightSpec(ALPHA_PAPER), 0.0, AngularParams(0.3 + 0.1j, -0.2j),
                           ln_s=solve_scale_ln(ALPHA_PAPER, 20.0))
        a = dataclasses.replace(base, coeffs=SpectralCoefficients(
            n_lo=3, probabilities=np.array([0.75, 0.25]), phase=np.array([0.5, 1.0])))
        b = dataclasses.replace(base, angular=AngularParams(0.25, 0.1 - 0.2j), coeffs=SpectralCoefficients(
            n_lo=4, probabilities=np.array([0.5, 0.5]), phase=np.array([-0.25, 2.0])))

        def spin_half(z_a, z_b):
            return (1 + z_a.conjugate() * z_b) / math.sqrt((1 + abs(z_a) ** 2) * (1 + abs(z_b) ** 2))

        expected = (math.sqrt(0.25 * 0.5) * np.exp(-1j * (1.0 + 0.25))
                    * (spin_half(0.3 + 0.1j, 0.25) * spin_half(-0.2j, 0.1 - 0.2j)) ** 3)
        assert abs(overlap(a, b) - expected) <= 1e-15
        assert abs(overlap(b, a) - expected.conjugate()) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(
        exponential=hst.booleans(),
        alpha=hst.floats(min_value=1.0 / 40.0, max_value=1.0 / 28.0),
        ln_s=hst.floats(min_value=-135.0, max_value=135.0),
        shift=hst.floats(min_value=-2.0, max_value=2.0),
        gammas=hst.lists(hst.floats(min_value=-1e9, max_value=1e9), min_size=2, max_size=2),
        zetas=hst.lists(hst.floats(min_value=-10.0, max_value=10.0), min_size=4, max_size=4),
        nudge=hst.lists(hst.floats(min_value=-0.1, max_value=0.1), min_size=4, max_size=4),
    )
    def test_hermitian_and_bounded(self, exponential, alpha, ln_s, shift, gammas, zetas, nudge):
        if exponential:
            # <n> ~ s^2 here, so a short window needs |ln_s| of a few units
            spec, ln_s = WeightSpec(1.0), ln_s / 60.0
        else:
            spec = WeightSpec(alpha)
        # nearby zetas keep the per-level angular overlaps away from zero
        near = [z + d for z, d in zip(zetas, nudge)]
        a = build_state(spec, gammas[0],
                        AngularParams(complex(*zetas[:2]), complex(*zetas[2:])), ln_s=ln_s)
        b = build_state(spec, gammas[1],
                        AngularParams(complex(*near[:2]), complex(*near[2:])), ln_s=ln_s + shift)
        ab, ba = overlap(a, b), overlap(b, a)
        assert abs(ab - ba.conjugate()) <= 1e-12
        assert abs(ab) <= 1.0 + 1e-12


class TestSerialization:
    def test_round_trip(self, tmp_path, paper_state):
        path = tmp_path / "state.desc"
        write_descriptor(path, paper_state)
        back = read_descriptor(path)
        assert back.weight == paper_state.weight
        assert back.ln_s == pytest.approx(paper_state.ln_s, rel=1e-15)
        assert back.gamma == paper_state.gamma
        np.testing.assert_allclose(
            back.coeffs.values, paper_state.coeffs.values, atol=1e-12
        )

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        ln_s=hst.floats(min_value=-135.0, max_value=135.0),
        alpha=hst.floats(min_value=1.0 / 40.0, max_value=1.0 / 28.0),
        gamma=hst.floats(min_value=-1e9, max_value=1e9),
        zetas=hst.lists(hst.floats(min_value=-10.0, max_value=10.0), min_size=4, max_size=4),
    )
    def test_round_trip_is_bit_exact(self, tmp_path, ln_s, alpha, gamma, zetas):
        angular = AngularParams(complex(*zetas[:2]), complex(*zetas[2:]))
        st = build_state(WeightSpec(alpha), gamma, angular, ln_s=ln_s)
        path = tmp_path / "state.desc"
        write_descriptor(path, st)
        back = read_descriptor(path)
        assert (back.weight, back.ln_s, back.gamma, back.angular, back.tail_eps) == (
            st.weight, st.ln_s, st.gamma, st.angular, st.tail_eps)
        assert back.coeffs.levels.tolist() == st.coeffs.levels.tolist()
        assert back.coeffs.probabilities.tobytes() == st.coeffs.probabilities.tobytes()
        assert back.coeffs.phase.tobytes() == st.coeffs.phase.tobytes()

    def test_exponential_descriptor_text(self, tmp_path):
        # the exponential spec carries alpha = 1.0 but writes no alpha line
        st = build_state(WeightSpec(1.0), 0.5, AngularParams(0.25 + 0.5j, 0.75 - 0.125j),
                         ln_s=math.log(2.0))
        path = tmp_path / "exp.desc"
        write_descriptor(path, st)
        assert path.read_text() == (
            "family=exponential\n"
            "ln_s=0.69314718055994529\n"
            "s_display=2\n"
            "gamma=0.5\n"
            "zeta1_re=0.25\n"
            "zeta1_im=0.5\n"
            "zeta2_re=0.75\n"
            "zeta2_im=-0.125\n"
            "tail_eps=9.9999999999999998e-13\n"
        )
        assert read_descriptor(path).weight == WeightSpec(1.0)

    def test_both_spellings_of_alpha_one_read_to_one_state(self, tmp_path):
        # earlier writers spelled alpha = 1 either way; an exponential file
        # may repeat it as an alpha line
        rest = ("ln_s=0.69314718055994529\ns_display=2\ngamma=0.5\nzeta1_re=0.25\n"
                "zeta1_im=0.5\nzeta2_re=0.75\nzeta2_im=-0.125\ntail_eps=9.9999999999999998e-13\n")
        heads = ["family=exponential\n", "family=stretched_exponential\nalpha=1\n",
                 "family=exponential\nalpha=1\n"]
        states = []
        for i, head in enumerate(heads):
            path = tmp_path / f"alpha_one_{i}.desc"
            path.write_text(head + rest)
            states.append(read_descriptor(path))
        for st in states:
            assert st.weight == WeightSpec(1.0)
            assert st.coeffs.levels.tolist() == states[0].coeffs.levels.tolist()
            assert st.coeffs.values.tobytes() == states[0].coeffs.values.tobytes()
        # the writer spells it the one way
        write_descriptor(tmp_path / "again.desc", states[1])
        assert (tmp_path / "again.desc").read_text() == heads[0] + rest

    @pytest.mark.parametrize("alpha", ["0.25", "2", "nan"])
    def test_exponential_family_with_another_alpha_is_a_descriptor_error(self, tmp_path, alpha):
        # the exponential weight has alpha = 1; the alpha line of a stretched
        # state once read as exponential was dropped, and its levels were wrong
        st = build_state(WeightSpec(0.25), 0.0, AngularParams(0.0, 0.0), ln_s=solve_scale_ln(0.25, 3.0))
        path = tmp_path / "conflict.desc"
        write_descriptor(path, st)
        path.write_text(path.read_text().replace("family=stretched_exponential", "family=exponential")
                        .replace("alpha=0.25", f"alpha={alpha}"))
        with pytest.raises(DescriptorError, match=f"alpha={alpha} .*{path}"):
            read_descriptor(path)

    @pytest.mark.parametrize("tail_eps", ["0", "1", "1.5", "-1e-3"])
    def test_tail_eps_outside_the_unit_interval_is_a_descriptor_error(self, tmp_path, tail_eps):
        st = build_state(WeightSpec(1.0), 0.5, AngularParams(0.0, 0.0), ln_s=math.log(2.0))
        path = tmp_path / "state.desc"
        write_descriptor(path, st)
        path.write_text(path.read_text().replace("tail_eps=9.9999999999999998e-13",
                                                 f"tail_eps={tail_eps}"))
        with pytest.raises(DescriptorError, match="tail_eps"):
            read_descriptor(path)

    def test_round_trip_zero_scale(self, tmp_path):
        st = build_state(WeightSpec(1.0), 0.3, AngularParams(0.1, 0.2j), ln_s=-math.inf)
        path = tmp_path / "ground.desc"
        write_descriptor(path, st)
        back = read_descriptor(path)
        assert back.ln_s == -math.inf
        assert back.coeffs.levels.tolist() == [1]

    def test_coefficient_lines_of_old_files_are_ignored(self, tmp_path, paper_state):
        # older descriptors could append the coefficient table as c<n>=<log_mag>,<phase>
        plain, cached = tmp_path / "plain.desc", tmp_path / "cached.desc"
        write_descriptor(plain, paper_state)
        c = paper_state.coeffs
        cache = "".join(f"c{n}={0.5 * math.log(p):.17g},{ph:.17g}\n"
                        for n, p, ph in zip(c.levels, c.probabilities, c.phase))
        cached.write_text(plain.read_text() + cache)
        back, ref = read_descriptor(cached).coeffs, read_descriptor(plain).coeffs
        assert back.levels.tolist() == ref.levels.tolist()
        assert back.probabilities.tobytes() == ref.probabilities.tobytes()
        assert back.phase.tobytes() == ref.phase.tobytes()

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "broken.desc"
        path.write_text("family=exponential\n")
        with pytest.raises(ValueError):
            read_descriptor(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.desc"
        path.write_text("family exponential\n")
        with pytest.raises(ValueError):
            parse_descriptor(path)

    def test_trace_csv_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [0.0, 1.0], np.array([1.0 + 0.0j, 0.5 - 0.5j]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,re_A,im_A,abs_A,abs_sq_A"
        assert len(lines) == 3
        row = lines[2].split(",")
        assert float(row[3]) == pytest.approx(math.hypot(0.5, 0.5), rel=1e-15)

"""Weight functions, their moments, and normalization constants; and
the one Gauss-Legendre rule (_gauss_legendre: Newton on the three-term
recurrence from Tricomi's closed-form start) of the sphere and radial
quadratures.

Everything here is carried in natural-log form. The amplitude chains this
library needs (s^n against Gamma-function moments, with s as large as ~1e59)
overflow any fixed-width float long before the physically meaningful ratios
do, so magnitudes only leave log space after the extreme scales cancel.

Conventions:
  - a weight is rho(u) = exp(-u**alpha) on u >= 0 with alpha > 0, the
    one formula behind every spec
  - its moments are rho_n = integral of u^n rho(u) du over [0, inf)
    = (1/alpha) * Gamma((n+1)/alpha)
  - a spec is its exponent alone, WeightSpec(alpha): the exponential
    weight rho(u) = exp(-u), rho_n = n!, is WeightSpec(1.0); a family
    name is only how a descriptor (state.write_descriptor) or the CLI's
    --family flag spells alpha
  - the norm series sum_n s^{2n} (n+1)^2 / rho_n carries the hydrogen
    level multiplicity (n+1)^2 at summation index n; it is fixed, not a
    parameter.  _level_window is the one place its terms are formed, as
    long-double ratio steps out of the peak, and cut, tail_eps/2 from each
    end: truncation_level, build_state and the scale solve all read it
  - the index is this module's alone: _ratio_steps, _level_window and
    _level_moments step over it, and they hand out the principal quantum
    number n + 1 of each term, the one level label outside this module
  - a scale s is passed as ln_s, keyword-only, with -inf for s = 0
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: hard cap on series length; exceeding it is treated as divergence
MAX_TERMS = 10**6

#: default fractional weight allowed beyond the truncation window
DEFAULT_TAIL_EPS = 1e-12


def _lgamma(x) -> np.ndarray:
    """ln Gamma(x) element-wise for x > 0, through math.lgamma.

    An argument past ~2.5e305 overflows and raises OverflowError, an
    ArithmeticError.
    """
    x_arr = np.asarray(x, dtype=float)
    values = [math.lgamma(v) for v in x_arr.ravel().tolist()]
    return np.array(values, dtype=float).reshape(x_arr.shape)


@lru_cache(maxsize=8)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: callers share them.

    The nonnegative roots start from Tricomi's closed form
    x_k = (1 - (N-1)/(8 N^3)) cos(pi (4k - 1)/(4N + 2)), with x = 0 exactly
    for odd N (Hale and Townsend, SIAM J. Sci. Comput. 35, A652 (2013)).
    Three Newton steps on the three-term recurrence in long double take
    them to the root, one more pass gives P_N' there, the weights are
    2 / ((1 - x^2) P_N'^2), and both halves are mirrored, so the rule is
    exactly symmetric.  At N = 24, 105, 176, 400 and 704 the nodes are
    within 6e-17 and the weights within 3e-16 of 40-digit values.  That is
    not so at every order: the long-double rounding of a node next to +-1
    enters the end weight about N^2-fold, which is 1.2e-15 off at 401,
    3.6e-15 at 700 and 1.0e-14 at 988.
    """
    i = np.arange(1, order // 2 + 1)  # the positive roots, largest first; then 0 for odd N
    x = np.r_[np.cos(np.pi * (4 * i - 1) / (4 * order + 2)) * (1 - (order - 1) / (8 * order**3)),
              [0.0] * (order % 2)].astype(np.longdouble)
    for step in range(4):
        p_prev, p = np.ones_like(x), x
        for k in range(2, order + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = order * (p_prev - x * p) / (1 - x * x)
        if step < 3:  # then the last pass gives P_N' at the final nodes
            x = x - p / dp
    w, half = 2 / ((1 - x * x) * dp * dp), order // 2
    nodes = np.r_[-x[:half], x[::-1]].astype(float)
    weights = np.r_[w[:half], w[::-1]].astype(float)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class DivergentSeriesError(ArithmeticError):
    """The configured weight/scale pair does not yield a convergent series."""


@dataclass(frozen=True)
class WeightSpec:
    """The weight rho(u) = exp(-u**alpha), fixed by its exponent alone:
    any finite alpha > 0; the exponential weight is alpha = 1.0."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:  # false for nan as well
            raise ValueError("a weight requires a finite alpha > 0")


def log_moment(spec: WeightSpec, n) -> float:
    """ln(rho_n) for integer n >= 0.  Accepts an array of n values."""
    n_arr = np.asarray(n)
    if np.any(n_arr < 0):
        raise ValueError("moment index must be nonnegative")
    a = spec.alpha
    out = -math.log(a) + _lgamma((n_arr + 1.0) / a)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("non-finite log-moment")
    return float(out) if np.isscalar(n) or n_arr.ndim == 0 else out


#: where _stirling_tail turns from math.lgamma to Stirling's series
_STIRLING_MIN = 20.0


def _stirling_tail(x):
    """ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2 for x > 0, element by
    element in the dtype of x.  From x = _STIRLING_MIN up it is Stirling's
    series (DLMF 5.11.1) through x^-7, whose first omitted term,
    1/(1188 x^9), is below 1.7e-15.  Below, it is math.lgamma less the
    leading terms, taken in long double: within a few ulp of
    max(1, |ln Gamma(x)|, |(x - 1/2) ln x|), math.lgamma's own error."""
    x = np.asarray(x)
    small = x < _STIRLING_MIN
    z = np.where(small, _STIRLING_MIN, x)
    with np.errstate(over="ignore"):  # z * z past the float range gives z2 = 0, the series' limit
        z2 = 1 / (z * z)
    tail = np.asarray((1 / 12 - z2 * (1 / 360 - z2 * (1 / 1260 - z2 / 1680))) / z)
    v = x[small].astype(np.longdouble)
    tail[small] = _lgamma(v) - (v - 0.5) * np.log(v) + v - math.log(2 * math.pi) / 2
    return tail[()]


def _ratio_steps(spec: WeightSpec, ln_s: float, lo: int, hi: int) -> np.ndarray:
    """ln(t_{n+1} / t_n) of the norm-series terms t_n = s^{2n} (n+1)^2 / rho_n
    for n = lo .. hi-1, in long double.  With x = (n+1)/alpha, h = 1/alpha
    and h/x = 1/(n+1), ln(rho_{n+1}/rho_n) = (x - 1/2) log1p(1/(n+1))
    + h (ln(x + h) - 1) plus the difference of the Stirling tails at x + h
    and x: the algdiv form of DiDonato and Morris (ACM TOMS 18, 360 (1992)),
    where no terms of size x ln x cancel.  The tails are one array over
    k/alpha, k = lo+1 .. hi+1, so each argument is evaluated once."""
    k = np.arange(lo + 1, hi + 2).astype(np.longdouble)
    h = 1 / np.longdouble(spec.alpha)
    tail = _stirling_tail(k * h)
    x, log_ratio = k[:-1] * h, np.log1p(1 / k[:-1])
    moment_step = (x - 0.5) * log_ratio + h * (np.log(x + h) - 1) + tail[1:] - tail[:-1]
    return 2 * np.longdouble(ln_s) + 2 * log_ratio - moment_step


def _geometric_tail(log_term: float, step: float) -> float:
    """ln of the sum past a term whose further steps are all <= step < 0."""
    return log_term + step - math.log1p(-math.exp(step)) if step < 0 else math.inf


def _level_window(spec: WeightSpec, ln_s: float, tail_eps: float) -> tuple[int, np.ndarray]:
    """(n_lo, p): the norm series' distribution p over the principal levels
    n_lo, n_lo + 1, ..., normalized there, for tail_eps in (0, 1); the term
    of summation index n is level n + 1.  One cumulative-tail rule cuts
    each end: the levels go whose weight summed from that end is below
    tail_eps/2 (at most tail_eps/2 at the lower end), so the median stays.

    The steps reach out of the leading-order peak n + 1 = alpha s^(2 alpha)
    as far as a Gaussian of variance alpha (n + 1) needs.  They decrease in
    n (ln Gamma is convex), so past an end whose step points outward-down
    the remainder is below a geometric series; the reach doubles until that
    bound is below e^-6 tail_eps/2 of the largest term at both ends.  A series
    that has not turned over below MAX_TERMS raises DivergentSeriesError.
    """
    if not 0.0 < tail_eps < 1.0:  # false for nan as well
        raise ValueError(f"tail_eps must lie in (0, 1), got {tail_eps}")
    log_peak = math.log(spec.alpha) + 2.0 * spec.alpha * ln_s
    if not log_peak < math.log(MAX_TERMS):  # false for nan as well
        raise DivergentSeriesError(f"no finite truncation below {MAX_TERMS} terms")
    n0 = max(0, round(math.exp(log_peak)) - 1)
    log_cut = math.log(tail_eps / 2) - 6.0
    # the Gaussian's reach to the cut, 22% wider for skew; capped where alpha (n + 1) fails
    reach = 8 + min(1024, math.ceil(math.sqrt(-3.0 * log_cut * spec.alpha * (n0 + 1))))
    while True:
        lo, hi = max(0, n0 - reach), min(n0 + reach, MAX_TERMS - 1)
        steps = _ratio_steps(spec, ln_s, lo, hi)  # ln(t_{n+1} / t_n) for n = lo..hi-1
        reach *= 2
        w = np.concatenate(([0], np.cumsum(steps)))  # ln(t_n / t_lo) for n = lo..hi
        cut = w.max() + log_cut
        upper_done = _geometric_tail(w[-2], steps[-1]) < cut
        if upper_done and (lo == 0 or _geometric_tail(w[1], -steps[0]) < cut):
            break
        if hi == MAX_TERMS - 1 and not upper_done:
            raise DivergentSeriesError(f"no finite truncation below {MAX_TERMS} terms")
    p = np.exp(w - w.max())
    p /= p.sum()
    last = np.count_nonzero(np.cumsum(p[::-1]) >= tail_eps / 2) - 1
    first = min(np.count_nonzero(np.cumsum(p) <= tail_eps / 2), last)
    p = p[first : last + 1]
    return lo + first + 1, (p / p.sum()).astype(float)


def _level_moments(n_lo: int, p: np.ndarray) -> tuple[float, float]:
    """(<n>, Var n) of the distribution p over the principal levels n_lo,
    n_lo + 1, ...: two-pass sums over the series' index n - 1, with the
    mean shifted by 1 last.  These sums fix the last bits of every <n>,
    spread and solved ln s that the package reports."""
    index = np.arange(n_lo - 1, n_lo - 1 + p.size)
    mean = float(np.sum(index * p))
    return mean + 1.0, float(np.sum((index - mean) ** 2 * p))


def truncation_level(spec: WeightSpec, tail_eps: float = DEFAULT_TAIL_EPS, *, ln_s: float) -> int:
    """The top principal level of the window at the scale ln_s (-inf for
    s = 0): build_state(...).coeffs.levels[-1] at the same tail_eps."""
    n_lo, p = _level_window(spec, ln_s, tail_eps)
    return n_lo + p.size - 1

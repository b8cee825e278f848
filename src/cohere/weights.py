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
  - the exponential family rho(u) = exp(-u), rho_n = n!, is alpha = 1;
    its spec stores alpha = 1.0 and keeps its own label
  - the norm series sum_n s^{2n} (n+1)^2 / rho_n carries the hydrogen
    level multiplicity (n+1)^2 at summation index n; it is fixed, not a
    parameter.  _level_window is the one place its terms are formed, as
    long-double ratio steps out of the peak, and cut: truncation_level and
    state's level window both read it
  - a scale s is passed as ln_s, keyword-only, with -inf for s = 0
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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


class WeightFamily(Enum):
    EXPONENTIAL = "exponential"
    STRETCHED_EXPONENTIAL = "stretched_exponential"


@dataclass(frozen=True)
class WeightSpec:
    """The weight rho(u) = exp(-u**alpha) under its family label.

    ``alpha`` is the exponent: any positive value for the stretched
    family, exactly 1.0 for the exponential one.
    """

    family: WeightFamily
    alpha: float | None = None

    def __post_init__(self):
        if self.family is WeightFamily.EXPONENTIAL:
            if self.alpha != 1.0:
                raise ValueError("the exponential family is alpha = 1.0")
        elif self.alpha is None or not (0 < self.alpha < math.inf):
            raise ValueError("stretched family requires a finite alpha > 0")

    @classmethod
    def exponential(cls) -> "WeightSpec":
        return cls(WeightFamily.EXPONENTIAL, alpha=1.0)

    @classmethod
    def stretched(cls, alpha: float) -> "WeightSpec":
        return cls(WeightFamily.STRETCHED_EXPONENTIAL, alpha=alpha)


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


#: smallest argument at which _stirling_tail stands for ln Gamma's remainder
_STIRLING_MIN = 20.0


def _stirling_tail(x):
    """ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2 by Stirling's series
    (DLMF 5.11.1) through x^-7, in the dtype of x; for x >= _STIRLING_MIN
    the first omitted term, 1/(1188 x^9), is below 1.7e-15."""
    z2 = 1 / (x * x)
    return (1 / 12 - z2 * (1 / 360 - z2 * (1 / 1260 - z2 / 1680))) / x


def _ratio_steps(spec: WeightSpec, ln_s: float, n: np.ndarray) -> np.ndarray:
    """ln(t_{n+1} / t_n) of the norm-series terms t_n = s^{2n} (n+1)^2 / rho_n,
    in long double.  With x = (n+1)/alpha, h = 1/alpha and h/x = 1/(n+1),
    ln(rho_{n+1}/rho_n) = (x - 1/2) log1p(1/(n+1)) + h (ln(x + h) - 1) plus
    the difference of two Stirling tails: the algdiv form of DiDonato and
    Morris (ACM TOMS 18, 360 (1992)), where no terms of size x ln x cancel.
    Below x = _STIRLING_MIN it is a difference of math.lgamma values."""
    n1 = np.asarray(n, dtype=np.longdouble) + 1
    h = 1 / np.longdouble(spec.alpha)
    x = n1 * h
    log_ratio = np.log1p(1 / n1)
    with np.errstate(all="ignore"):  # the small x are replaced below
        moment_step = ((x - 0.5) * log_ratio + h * (np.log(x + h) - 1)
                       + _stirling_tail(x + h) - _stirling_tail(x))
    small = x < _STIRLING_MIN
    if small.any():  # one math.lgamma per argument k/alpha, k = n+1 .. n+2
        k = n1[small].astype(int)
        lg = np.array([math.lgamma(v / spec.alpha) for v in range(k.min(), k.max() + 2)])
        moment_step[small] = lg[k - k.min() + 1] - lg[k - k.min()]
    return 2 * np.longdouble(ln_s) + 2 * log_ratio - moment_step


def _geometric_tail(log_term: float, step: float) -> float:
    """ln of the sum past a term whose further steps are all <= step < 0."""
    return log_term + step - math.log1p(-math.exp(step)) if step < 0 else math.inf


def _level_window(spec: WeightSpec, ln_s: float, tail_eps: float) -> tuple[int, np.ndarray]:
    """(n_lo, p): the norm series' distribution p_n over n_lo..n_hi,
    normalized there.  One cumulative-tail rule cuts both ends: the levels
    go whose weight summed from that end is below tail_eps (at most
    tail_eps at the lower end); for tail_eps >= 1/2 that may leave n_hi alone.

    The steps reach out of the leading-order peak n + 1 = alpha s^(2 alpha)
    as far as a Gaussian of variance alpha (n + 1) needs.  They decrease in
    n (ln Gamma is convex), so past an end whose step points outward-down
    the remainder is below a geometric series; the reach doubles until that
    bound is below e^-6 tail_eps of the largest term at both ends.  A series
    that has not turned over below MAX_TERMS raises DivergentSeriesError.
    """
    if not (0.0 < tail_eps < 1.0):
        raise ValueError("tail_eps must lie in (0, 1)")
    log_peak = math.log(spec.alpha) + 2.0 * spec.alpha * ln_s
    if not log_peak < math.log(MAX_TERMS):  # false for nan as well
        raise DivergentSeriesError(f"no finite truncation below {MAX_TERMS} terms")
    n0 = max(0, round(math.exp(log_peak)) - 1)
    log_cut = math.log(tail_eps) - 6.0
    # the Gaussian's reach to the cut, 22% wider for skew; capped where alpha (n + 1) fails
    reach = 8 + min(1024, math.ceil(math.sqrt(-3.0 * log_cut * spec.alpha * (n0 + 1))))
    lo = hi = n0
    steps = np.empty(0, dtype=np.longdouble)  # ln(t_{n+1} / t_n) for n = lo..hi-1
    while True:
        new_lo, new_hi = max(0, n0 - reach), min(n0 + reach, MAX_TERMS - 1)
        fresh = _ratio_steps(spec, ln_s, np.r_[new_lo:lo, hi:new_hi])
        if np.isnan(fresh).any():
            raise DivergentSeriesError("non-finite series terms")
        steps = np.concatenate((fresh[: lo - new_lo], steps, fresh[lo - new_lo :]))
        lo, hi, reach = new_lo, new_hi, 2 * reach
        w = np.concatenate(([0], np.cumsum(steps)))  # ln(t_n / t_lo) for n = lo..hi
        cut = w.max() + log_cut
        upper_done = _geometric_tail(w[-2], steps[-1]) < cut
        if upper_done and (lo == 0 or _geometric_tail(w[1], -steps[0]) < cut):
            break
        if hi == MAX_TERMS - 1 and not upper_done:
            raise DivergentSeriesError(f"no finite truncation below {MAX_TERMS} terms")
    p = np.exp(w - w.max())
    p /= p.sum()
    n_hi = np.count_nonzero(np.cumsum(p[::-1]) >= tail_eps) - 1
    n_lo = min(np.count_nonzero(np.cumsum(p) <= tail_eps), n_hi)
    p = p[n_lo : n_hi + 1]
    return lo + n_lo, (p / p.sum()).astype(float)


def truncation_level(spec: WeightSpec, tail_eps: float = DEFAULT_TAIL_EPS, *, ln_s: float) -> int:
    """Smallest n_max with normalized series weight beyond it below
    tail_eps, for the scale ln_s (-inf for s = 0)."""
    n_lo, p = _level_window(spec, ln_s, tail_eps)
    return n_lo + p.size - 1

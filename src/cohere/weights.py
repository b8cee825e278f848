"""Weight functions, their moments, and normalization constants; and
the one Gauss-Legendre rule (_gauss_legendre) of the sphere and radial
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
    parameter.  _log_series_terms is the one place its log terms are
    formed, and _series_terms the one scan that truncates them:
    truncation_level and state's level window both read it
  - a scale s is passed as ln_s, keyword-only, with -inf for s = 0
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

NEG_INF = float("-inf")

#: hard cap on series length; exceeding it is treated as divergence
MAX_TERMS = 10**6

#: default fractional weight allowed beyond the truncation window
DEFAULT_TAIL_EPS = 1e-12


def _lgamma(x) -> np.ndarray:
    """ln Gamma(x) element-wise for x > 0, through math.lgamma.

    A whole solve at <n> = 2000, alpha = 1/64 takes 135k arguments, so
    the Python loop costs milliseconds.  An argument past ~2.5e305
    overflows and raises OverflowError, an ArithmeticError.
    """
    x_arr = np.asarray(x, dtype=float)
    values = [math.lgamma(v) for v in x_arr.ravel().tolist()]
    return np.array(values, dtype=float).reshape(x_arr.shape)


@lru_cache(maxsize=8)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: callers share them.

    numpy's leggauss nodes are right to ~6e-17, but the relative error
    of its weights grows with the order (1.2e-11 at 176, 2.9e-9 at 704).
    Two Newton steps on the three-term recurrence in long double polish
    the nodes, and the weights are 2 / ((1 - x^2) P_N'(x)^2) there, made
    symmetric as numpy's are: within 3e-16 of 40-digit values up to 704.
    """
    x = np.polynomial.legendre.leggauss(order)[0].astype(np.longdouble)
    for step in range(3):
        p_prev, p = np.ones_like(x), x
        for k in range(2, order + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = order * (p_prev - x * p) / (1 - x * x)
        if step < 2:  # then the last pass gives P_N' at the final nodes
            x = x - p / dp
    w = 2 / ((1 - x * x) * dp * dp)
    nodes = ((x - x[::-1]) / 2).astype(float)
    weights = ((w + w[::-1]) / 2).astype(float)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _logsumexp(terms) -> float:
    """ln sum(exp(terms)), shifted by the largest term.

    A non-finite maximum is returned as it is: all -inf gives -inf, any
    +inf gives inf and any NaN gives NaN.
    """
    t = np.asarray(terms, dtype=float)
    top = float(t.max())
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.sum(np.exp(t - top))))


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


def _log_series_terms(spec: WeightSpec, ln_s: float, n_values: np.ndarray) -> np.ndarray:
    """log of s^{2n} (n+1)^2 / rho_n for each n (the norm-series terms), s > 0."""
    log_rho = log_moment(spec, n_values)
    with np.errstate(invalid="ignore"):
        power = 2.0 * n_values * ln_s
    return power + 2.0 * np.log(n_values + 1.0) - log_rho


def _series_terms(spec: WeightSpec, ln_s: float, tail_eps: float) -> np.ndarray:
    """The norm-series log terms for n = 0..n_max, n_max the smallest
    level whose normalized series weight beyond it is below tail_eps.

    For every spec the series terms are unimodal in n: the log-term
    increments 2 ln s + 2 ln((n+2)/(n+1)) - ln(rho_{n+1}/rho_n) decrease
    monotonically, since ln Gamma is convex.  So the scan walks past the
    peak and stops once the remaining terms are provably negligible; a
    series that has not turned over by MAX_TERMS raises
    DivergentSeriesError.  Each index is formed once.
    """
    if not (0.0 < tail_eps < 1.0):
        raise ValueError("tail_eps must lie in (0, 1)")
    if ln_s == NEG_INF:
        # s = 0: only the n = 0 term 1 / rho_0 survives; 0.0 - keeps an
        # exact zero +0.0 when rho_0 = 1
        return np.array([0.0 - log_moment(spec, 0)])

    block = 256
    terms = np.empty(0)
    hi = 0
    while True:
        new_hi = min(MAX_TERMS, hi + block)
        n_values = np.arange(hi, new_hi)
        terms = np.concatenate(
            [terms, _log_series_terms(spec, ln_s, n_values)]
        )
        hi = new_hi
        block = min(2 * block, 1 << 16)
        if np.any(np.isnan(terms)):
            raise DivergentSeriesError("non-finite series terms")
        peak_at = int(np.argmax(terms))
        # stop once the tail is provably below tolerance: past the peak the
        # increments only shrink, so remaining mass is bounded by a
        # geometric series with the last observed ratio
        if peak_at < len(terms) - 2:
            last_step = terms[-1] - terms[-2]
            if last_step < 0:
                log_tail_bound = terms[-1] + last_step - math.log1p(-math.exp(last_step))
                log_total = _logsumexp(terms)
                if log_tail_bound < log_total + math.log(tail_eps) - 6.0:
                    break
        if hi >= MAX_TERMS:
            raise DivergentSeriesError(
                f"no finite truncation below {MAX_TERMS} terms"
            )

    log_total = _logsumexp(terms)
    if not np.isfinite(log_total):
        raise DivergentSeriesError("norm series did not converge")
    # exact smallest n_max on the computed window: cumulative tail sums
    tail = np.logaddexp.accumulate(terms[::-1])[::-1]
    below = np.nonzero(tail - log_total < math.log(tail_eps))[0]
    if below.size == 0:
        return terms
    return terms[: max(1, int(below[0]))]


def truncation_level(spec: WeightSpec, tail_eps: float = DEFAULT_TAIL_EPS, *, ln_s: float) -> int:
    """Smallest n_max with normalized series weight beyond it below
    tail_eps, for the scale ln_s (-inf for s = 0)."""
    return len(_series_terms(spec, ln_s, tail_eps)) - 1

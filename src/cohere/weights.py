"""Weight functions, their moments, and normalization constants.

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
    parameter, and _log_series_terms is the one place its log terms are
    formed (state builds its level window from the same helper)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


def log_density(spec: WeightSpec, u) -> np.ndarray | float:
    """ln(rho(u)) = -u**alpha pointwise."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0):
        raise ValueError("u must be nonnegative")
    with np.errstate(over="ignore"):
        out = -(u_arr ** spec.alpha)
    return float(out) if np.isscalar(u) else out


def _log_series_terms(spec: WeightSpec, ln_s: float, n_values: np.ndarray) -> np.ndarray:
    """log of s^{2n} (n+1)^2 / rho_n for each n (the norm-series terms)."""
    log_rho = log_moment(spec, n_values)
    if ln_s == NEG_INF:
        # s = 0: only the n = 0 term survives
        power = np.where(n_values == 0, 0.0, NEG_INF)
    else:
        with np.errstate(invalid="ignore"):
            power = 2.0 * n_values * ln_s
    return power + 2.0 * np.log(n_values + 1.0) - log_rho


def log_norm_factor(
    spec: WeightSpec,
    s: float | None,
    n_max: int | None = None,
    *,
    ln_s: float | None = None,
) -> float:
    """ln N(s^2) with N^2 * sum_n s^{2n} (n+1)^2 / rho_n = 1.

    Pass either ``s`` or ``ln_s``; the latter admits scales whose linear
    value overflows a double.  ``n_max`` defaults to a truncation level
    tight enough that the omitted tail is below double precision.
    """
    ln_s = _resolve_ln_s(s, ln_s)
    if n_max is None:
        n_max = truncation_level(spec, None, 1e-16, ln_s=ln_s)
    n_values = np.arange(n_max + 1)
    terms = _log_series_terms(spec, ln_s, n_values)
    total = _logsumexp(terms)
    if not np.isfinite(total):
        raise DivergentSeriesError("norm series did not converge")
    return -0.5 * float(total)


def _resolve_ln_s(s: float | None, ln_s: float | None) -> float:
    if (s is None) == (ln_s is None):
        raise ValueError("pass exactly one of s, ln_s")
    if ln_s is not None:
        return ln_s
    if s < 0:
        raise ValueError("s must be nonnegative")
    return math.log(s) if s > 0 else NEG_INF


def companion_density(spec: WeightSpec, norm_sq_log: float, u: float) -> float:
    """k(u) = rho(u) / N^2(u), given ln N^2(u).

    The product k(u) N^2(u) reproduces rho(u); k is the radial factor of
    the resolution-of-identity measure.
    """
    if u < 0:
        raise ValueError("u must be nonnegative")
    log_rho = log_density(spec, u)
    if log_rho == NEG_INF:
        return 0.0
    if norm_sq_log == NEG_INF:
        raise ZeroDivisionError("vanishing normalization at this u")
    return math.exp(log_rho - norm_sq_log)


def truncation_level(
    spec: WeightSpec,
    s: float | None,
    tail_eps: float = DEFAULT_TAIL_EPS,
    *,
    ln_s: float | None = None,
) -> int:
    """Smallest n_max with normalized series weight beyond it below tail_eps.

    For every spec the series terms are unimodal in n: the log-term
    increments 2 ln s + 2 ln((n+2)/(n+1)) - ln(rho_{n+1}/rho_n) decrease
    monotonically, since ln Gamma is convex.  So the scan walks past the
    peak and stops once the remaining terms are provably negligible; a
    series that has not turned over by MAX_TERMS raises
    DivergentSeriesError.
    """
    if not (0.0 < tail_eps < 1.0):
        raise ValueError("tail_eps must lie in (0, 1)")
    ln_s = _resolve_ln_s(s, ln_s)
    if ln_s == NEG_INF:
        return 0

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
        return len(terms) - 1
    return max(0, int(below[0]) - 1)

"""Weight functions, their moments, and normalization constants.

Everything here is carried in natural-log form. The amplitude chains this
library needs (s^n against Gamma-function moments, with s as large as ~1e59)
overflow any fixed-width float long before the physically meaningful ratios
do, so magnitudes only leave log space after the extreme scales cancel.

Conventions:
  - a weight is a positive function rho(u) on u >= 0
  - its moments are rho_n = integral of u^n rho(u) du over [0, inf)
  - the exponential family rho(u) = exp(-u) has rho_n = n!
  - the stretched family rho(u) = exp(-u**alpha) has
    rho_n = (1/alpha) * Gamma((n+1)/alpha)
  - the norm series sum_n s^{2n} (n+1)^2 / rho_n carries the hydrogen
    level multiplicity (n+1)^2 at summation index n; it is fixed, not a
    parameter, and _log_series_terms is the one place its log terms are
    formed (state builds its level window from the same helper)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
    TABULATED = "tabulated"


@dataclass(frozen=True)
class WeightSpec:
    """A weight function rho(u) with log-moment access.

    ``alpha`` is required for the stretched family; ``log_moments`` holds
    externally computed ln(rho_n) values for the tabulated family, indexed
    by n.
    """

    family: WeightFamily
    alpha: float | None = None
    log_moments: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family is WeightFamily.STRETCHED_EXPONENTIAL:
            if self.alpha is None or not (self.alpha > 0):
                raise ValueError("stretched family requires alpha > 0")
        if self.family is WeightFamily.TABULATED:
            if not self.log_moments:
                raise ValueError("tabulated family requires log_moments")
            if not all(math.isfinite(v) for v in self.log_moments):
                raise ValueError("tabulated log-moments must be finite")

    @classmethod
    def exponential(cls) -> "WeightSpec":
        return cls(WeightFamily.EXPONENTIAL)

    @classmethod
    def stretched(cls, alpha: float) -> "WeightSpec":
        return cls(WeightFamily.STRETCHED_EXPONENTIAL, alpha=alpha)

    @classmethod
    def tabulated(cls, log_moments: Sequence[float]) -> "WeightSpec":
        return cls(WeightFamily.TABULATED, log_moments=tuple(log_moments))


def log_moment(spec: WeightSpec, n) -> float:
    """ln(rho_n) for integer n >= 0.  Accepts an array of n values."""
    n_arr = np.asarray(n)
    if np.any(n_arr < 0):
        raise ValueError("moment index must be nonnegative")
    if spec.family is WeightFamily.EXPONENTIAL:
        out = _lgamma(n_arr + 1.0)
    elif spec.family is WeightFamily.STRETCHED_EXPONENTIAL:
        a = spec.alpha
        out = -math.log(a) + _lgamma((n_arr + 1.0) / a)
    else:
        table = np.asarray(spec.log_moments)
        if np.any(n_arr >= table.size):
            raise IndexError(
                f"moment index out of table (size {table.size})"
            )
        out = table[n_arr]
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("non-finite log-moment")
    return float(out) if np.isscalar(n) or n_arr.ndim == 0 else out


def log_density(spec: WeightSpec, u) -> np.ndarray | float:
    """ln(rho(u)) pointwise.  Not available for tabulated weights."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0):
        raise ValueError("u must be nonnegative")
    if spec.family is WeightFamily.EXPONENTIAL:
        out = -u_arr
    elif spec.family is WeightFamily.STRETCHED_EXPONENTIAL:
        with np.errstate(over="ignore"):
            out = -(u_arr ** spec.alpha)
    else:
        raise ValueError("tabulated weights have no pointwise density")
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

    The series terms are unimodal in n for both analytic families (the
    log-term increments are monotone decreasing), so the scan walks past
    the peak and stops once the remaining terms are provably negligible.
    A fixed margin scan covers any non-unimodal tabulated input.
    """
    if not (0.0 < tail_eps < 1.0):
        raise ValueError("tail_eps must lie in (0, 1)")
    ln_s = _resolve_ln_s(s, ln_s)
    if ln_s == NEG_INF:
        return 0

    if spec.family is WeightFamily.TABULATED:
        limit = len(spec.log_moments)
    else:
        limit = MAX_TERMS

    block = 256
    terms = np.empty(0)
    hi = 0
    while True:
        new_hi = min(limit, hi + block)
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
        if hi >= limit:
            if spec.family is not WeightFamily.TABULATED:
                raise DivergentSeriesError(
                    f"no finite truncation below {limit} terms"
                )
            break

    log_total = _logsumexp(terms)
    if not np.isfinite(log_total):
        raise DivergentSeriesError("norm series did not converge")
    # exact smallest n_max on the computed window: cumulative tail sums
    tail = np.logaddexp.accumulate(terms[::-1])[::-1]
    below = np.nonzero(tail - log_total < math.log(tail_eps))[0]
    if below.size == 0:
        return len(terms) - 1
    return max(0, int(below[0]) - 1)

"""Assembly and dynamics of the degenerate coherent states.

A state is fixed by a weight function, a nonnegative scale s (passed as
ln_s, -inf for s = 0), a phase parameter gamma, and the two angular
parameters.  Its spectral side is

    c_n  propto  s^n * exp(-i gamma e_{n+1}) * (n+1) / sqrt(rho_n)

where n is the 0-based summation index, the principal quantum number is
n+1, and the factor (n+1) is the square root of the level multiplicity
(n+1)^2.  The window's log terms are normalized in log space before
p_n = |c_n|^2 is formed, so the extreme scales cancel before anything is
exponentiated; a state keeps p_n and the phases, and c_n = sqrt(p_n)
exp(i phase_n).

Time evolution is closure under a shift of gamma: the state at time t has
gamma + t, every coefficient picking up exp(-i e_{n+1} t).  Phase products
like t * e_{n+1} are reduced mod 2 pi in extended precision by
hydrogen.reduced_phases, which serves state assembly, evolution, the
autocorrelation, the planar field and the spin phases of cohere.su2.

The autocorrelation streams its times in blocks of _BLOCK_ELEMENTS
(times x levels) elements, so beyond the output array its working set is
a few block-sized temporaries, whatever the number of times.

CSV tables are formatted in fixed blocks of _CSV_BLOCK_ROWS = 4096 rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from cohere import hydrogen
from cohere.hydrogen import reduced_phases
from cohere.su2 import AngularParams, su2_overlap
# truncation_level is bound here for bench/spans.py, which wraps it
from cohere.weights import DEFAULT_TAIL_EPS, WeightFamily, WeightSpec, _level_window, truncation_level

# Elements (times x levels) per autocorrelation block.  Its temporaries,
# a 1 MB long-double product and 512 kB float64 arrays, stay in cache.
_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class SpectralCoefficients:
    """The level distribution p_n and the phases over the contiguous
    summation-index window n_min..n_max; c_n = sqrt(p_n) exp(i phase_n)."""

    n_min: int
    probabilities: np.ndarray
    phase: np.ndarray

    @property
    def n_max(self) -> int:
        return self.n_min + self.probabilities.size - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def levels(self) -> np.ndarray:
        """Principal quantum numbers (index + 1)."""
        return self.indices + 1

    @property
    def values(self) -> np.ndarray:
        return np.sqrt(self.probabilities) * np.exp(1j * self.phase)


@dataclass(frozen=True)
class CoherentState:
    """A built state |s, gamma, zeta1, zeta2> with cached coefficients."""

    weight: WeightSpec
    ln_s: float
    gamma: float
    angular: AngularParams
    coeffs: SpectralCoefficients
    tail_eps: float

    @property
    def s(self) -> float:
        """exp(ln_s): 0.0 for ln_s = -inf, inf past double range."""
        try:
            return math.exp(self.ln_s)
        except OverflowError:
            return math.inf

    @property
    def level_energies(self) -> np.ndarray:
        return hydrogen.energy(self.coeffs.levels)


def _distribution_window(spec: WeightSpec, ln_s: float, tail_eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Window indices and normalized probabilities covering 1 - tail_eps,
    tail_eps/2 cut from each end, for tail_eps in (0, 1)."""
    if not 0.0 < tail_eps < 1.0:
        raise ValueError(f"tail_eps must lie in (0, 1), got {tail_eps}")
    n_lo, p = _level_window(spec, ln_s, tail_eps / 2.0)
    return np.arange(n_lo, n_lo + p.size), p


def build_state(
    weight: WeightSpec,
    gamma: float,
    angular: AngularParams,
    tail_eps: float = DEFAULT_TAIL_EPS,
    *,
    ln_s: float,
) -> CoherentState:
    """Assemble the normalized state of scale ln_s (-inf for s = 0) over
    its truncation window."""
    n_values, p = _distribution_window(weight, ln_s, tail_eps)
    phase = reduced_phases(-gamma, hydrogen.energy(n_values + 1))
    coeffs = SpectralCoefficients(n_min=int(n_values[0]), probabilities=p, phase=phase)
    return CoherentState(
        weight=weight,
        ln_s=ln_s,
        gamma=gamma,
        angular=angular,
        coeffs=coeffs,
        tail_eps=tail_eps,
    )


def mean_level(state: CoherentState, principal: bool = False) -> float:
    """Mean of the summation index (or of the principal number)."""
    p = state.coeffs.probabilities
    mean = float(np.sum(state.coeffs.indices * p))
    return mean + 1.0 if principal else mean


def level_spread(state: CoherentState) -> float:
    """Standard deviation of the level distribution (index convention
    irrelevant: a unit shift leaves the spread unchanged), from the
    two-pass sum of (n - <n>)^2 p_n."""
    c = state.coeffs
    return math.sqrt(float(np.sum((c.indices - mean_level(state)) ** 2 * c.probabilities)))


def solve_scale_ln(
    alpha: float,
    target_mean: float,
    tol: float = 1e-9,
    tail_eps: float = DEFAULT_TAIL_EPS,
    principal: bool = True,
) -> float:
    """ln s such that the exact mean level hits target_mean within tol
    (relative).

    The target is the principal mean by default; pass principal=False to
    aim the summation-index mean instead (the only meaningful reading for
    targets below 1).  Seeded by inverting the leading-order mean, then
    refined by safeguarded Newton steps in ln s.  Since ln p_n = 2n ln s +
    (terms free of s) - ln Z, the mean's slope d<n>/d ln s is exactly
    2 Var(n), read off the same level window.  Each evaluation narrows a
    bracket around the root (the mean grows with the scale).  A step is
    cut to a cap of 0.5 that doubles each time it binds, so a far seed
    walks out geometrically instead of jumping to a scale whose series
    cannot be summed; a step that would leave the bracket bisects it.  If
    the bracket collapses to rounding before tol is met, its midpoint is
    returned.
    """
    if target_mean <= 0:
        raise ValueError("target mean must be positive")
    if principal and target_mean <= 1.0:
        raise ValueError("a principal mean target must exceed 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    spec = WeightSpec.stretched(alpha)
    index_target = target_mean - (1.0 if principal else 0.0)

    ln_s = math.log(max(index_target, target_mean / 4.0) / alpha) / (2.0 * alpha)
    lo, hi, cap = -math.inf, math.inf, 0.5
    for _ in range(200):
        n_values, p = _distribution_window(spec, ln_s, tail_eps)
        mean = float(np.sum(n_values * p))
        miss = index_target - mean
        if abs(miss) <= tol * target_mean:
            return ln_s
        if miss > 0:
            lo = ln_s
        else:
            hi = ln_s
        if hi - lo < 1e-15 * max(1.0, abs(hi)):
            return 0.5 * (lo + hi)
        slope = 2.0 * float(np.sum((n_values - mean) ** 2 * p))
        step = miss / slope if slope > 0 else math.copysign(math.inf, miss)
        if abs(step) > cap:
            step = math.copysign(cap, step)
            cap *= 2.0
        ln_s += step
        if not lo < ln_s < hi:
            ln_s = 0.5 * (lo + hi)
    raise ArithmeticError("the scale solve did not converge")


def evolve(state: CoherentState, t: float) -> CoherentState:
    """The state at time t: gamma shifts by t, coefficient n picks up
    exp(-i e_{n+1} t)."""
    extra = reduced_phases(-t, state.level_energies)
    new_phase = np.mod(state.coeffs.phase + extra, 2.0 * np.pi)
    return replace(
        state,
        gamma=state.gamma + t,
        coeffs=replace(state.coeffs, phase=new_phase),
    )


def autocorrelation(state: CoherentState, t) -> complex | np.ndarray:
    """<state(0)|state(t)> = sum_n p_n exp(-i e_{n+1} t).

    The angular factors cancel because evolution only shifts gamma.
    Accepts a scalar t or an array of times.

    Times are streamed in blocks of _BLOCK_ELEMENTS // levels rows.  Each
    block's phases come from reduced_phases, so the product t * (-e) and
    its mod-2 pi reduction stay in long double and are rounded to float64
    before cos and sin.  The real and imaginary parts are then two real
    matrix-vector products with p, so no complex temporaries are formed.
    Beyond the output, the working set is a few block-sized temporaries,
    whatever the number of times.
    """
    p = state.coeffs.probabilities
    neg_energies = -state.level_energies.astype(np.longdouble)
    t_arr = np.asarray(t, dtype=float)
    times = t_arr.reshape(-1)
    out = np.empty(times.size, dtype=complex)
    rows = max(1, _BLOCK_ELEMENTS // neg_energies.size)
    for start in range(0, times.size, rows):
        phi = reduced_phases(times[start : start + rows, None], neg_energies)
        out.real[start : start + rows] = np.cos(phi) @ p
        out.imag[start : start + rows] = np.sin(phi) @ p
    return complex(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def overlap(a: CoherentState, b: CoherentState) -> complex:
    """<a|b> combining spectral coefficients with the per-level angular
    overlaps, summed over the levels both windows hold (0 if none).  The
    states must share the weight function exp(-u**alpha), under either label."""
    if a.weight.alpha != b.weight.alpha:
        raise ValueError("states must share a weight function")
    n = np.arange(max(a.coeffs.n_min, b.coeffs.n_min), min(a.coeffs.n_max, b.coeffs.n_max) + 1)
    j = n / 2.0  # level n+1 carries two spins of j = n/2
    ang = su2_overlap(j, a.angular.zeta1, b.angular.zeta1) * su2_overlap(
        j, a.angular.zeta2, b.angular.zeta2
    )
    c_a, c_b = a.coeffs.values[n - a.coeffs.n_min], b.coeffs.values[n - b.coeffs.n_min]
    return complex(np.sum(np.conj(c_a) * c_b * ang))


# --- descriptor serialization -------------------------------------------

_FMT = "%.17g"

_CSV_BLOCK_ROWS = 4096


def _write_csv(fh, header: str, row_format: str, columns) -> None:
    """Write the header, then row_format (one conversion per column) for
    each row of the equal-length 1-D arrays columns, one % per block of
    rows.  Columns keep their dtype, so integer columns print as such."""
    fh.write(header + "\n")
    line = row_format + "\n"
    rows, width = len(columns[0]), len(columns)
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, rows)
        cells = [None] * ((stop - start) * width)
        for i, column in enumerate(columns):
            cells[i::width] = column[start:stop].tolist()
        fh.write(line * (stop - start) % tuple(cells))


def write_descriptor(path, state: CoherentState) -> None:
    """Persist the defining parameters as flat key=value lines.

    The keys, in order: family, alpha (stretched family only), ln_s,
    s_display, gamma, zeta1_re, zeta1_im, zeta2_re, zeta2_im, tail_eps.
    ln_s is the canonical scale entry; the linear s is written for
    display only.  No coefficients are written: read_descriptor rebuilds
    them from these parameters.
    """
    lines = [f"family={state.weight.family.value}"]
    if state.weight.family is WeightFamily.STRETCHED_EXPONENTIAL:
        lines.append(f"alpha={_FMT % state.weight.alpha}")
    zeta1, zeta2 = state.angular.zeta1, state.angular.zeta2
    values = {"ln_s": state.ln_s, "s_display": state.s, "gamma": state.gamma,
              "zeta1_re": zeta1.real, "zeta1_im": zeta1.imag,
              "zeta2_re": zeta2.real, "zeta2_im": zeta2.imag, "tail_eps": state.tail_eps}
    lines += [f"{key}={_FMT % value}" for key, value in values.items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_descriptor(path) -> dict:
    """Read flat key=value lines into a dict (values as strings).

    Blank lines and # comments are skipped.  The one reader of both state
    descriptors and command-line config files.
    """
    entries: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed key=value line: {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries


class DescriptorError(ValueError):
    """A descriptor file that does not hold a valid state's parameters."""


def read_descriptor(path) -> CoherentState:
    """Rebuild a state from a descriptor; coefficients are recomputed
    from the parameters.  Keys outside the schema, such as the c<n>=
    coefficient lines of older files, are ignored.

    A malformed line, a missing key, an unknown family, a non-finite
    value (other than ln_s = -inf), a tail_eps outside (0, 1), or a value
    that does not parse or that WeightSpec or AngularParams rejects raises
    DescriptorError naming the file; failures of build_state itself
    propagate as they are.
    """
    try:
        entries = parse_descriptor(path)
        family = entries["family"]
        if family == WeightFamily.EXPONENTIAL.value:
            weight = WeightSpec.exponential()
        elif family == WeightFamily.STRETCHED_EXPONENTIAL.value:
            weight = WeightSpec.stretched(float(entries["alpha"]))
        else:
            supported = ", ".join(f.value for f in WeightFamily)
            raise ValueError(f"unknown weight family {family!r} (supported: {supported})")
        angular = AngularParams(
            zeta1=complex(float(entries["zeta1_re"]), float(entries["zeta1_im"])),
            zeta2=complex(float(entries["zeta2_re"]), float(entries["zeta2_im"])),
        )
        gamma, ln_s = float(entries["gamma"]), float(entries["ln_s"])
        tail_eps = float(entries.get("tail_eps", DEFAULT_TAIL_EPS))
        if not math.isfinite(gamma):
            raise ValueError(f"gamma={gamma} must be finite")
        if not 0.0 < tail_eps < 1.0:  # false for nan as well
            raise ValueError(f"tail_eps={tail_eps} must lie in (0, 1)")
        if not ln_s < math.inf:  # ln_s = -inf is s = 0, the ground state
            raise ValueError(f"ln_s={ln_s} must be finite or -inf")
    except KeyError as missing:
        raise DescriptorError(f"descriptor {path} is missing required key {missing}") from None
    except ValueError as exc:
        raise DescriptorError(f"{exc} in descriptor {path}") from None
    return build_state(weight, gamma, angular, tail_eps=tail_eps, ln_s=ln_s)


def write_trace_csv(path, times, values) -> None:
    """CSV autocorrelation trace with columns t, re_A, im_A, abs_A, abs_sq_A;
    times and values of different lengths raise ValueError."""
    times, values = np.asarray(times), np.asarray(values)
    if times.shape != values.shape:
        raise ValueError(f"{times.size} times but {values.size} values for {path}")
    mag = np.hypot(values.real, values.imag)
    with open(path, "w") as fh:
        _write_csv(fh, "t,re_A,im_A,abs_A,abs_sq_A", ",".join([_FMT] * 5),
                   (times, values.real, values.imag, mag, mag * mag))

"""Assembly and dynamics of the degenerate coherent states.

A state is fixed by a weight function, a nonnegative scale s (passed as
ln_s, -inf for s = 0), a phase parameter gamma, and the two angular
parameters.  Its spectral side is

    c_n  propto  s^(n-1) * exp(-i gamma e_n) * n / sqrt(rho_(n-1))

over the principal quantum numbers n = 1, 2, ..., where the factor n is
the square root of the level multiplicity n^2.  Every level here is
labelled by n: the paper's summation index n - 1 lives in cohere.weights
alone, whose level window hands out principal levels.  The window's log
terms are normalized in log space before p_n = |c_n|^2 is formed, so the
extreme scales cancel before anything is exponentiated; a state keeps p_n
and the phases, and c_n = sqrt(p_n) exp(i phase_n).

Time evolution is closure under a shift of gamma: the state at time t has
gamma + t, every coefficient picking up exp(-i e_n t).  Phase products
like t * e_n are reduced mod 2 pi in extended precision by
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
from cohere.weights import DEFAULT_TAIL_EPS, MAX_TERMS, WeightSpec, truncation_level
from cohere.weights import DivergentSeriesError, _level_moments, _level_window

# Elements (times x levels) per autocorrelation block.  Its temporaries,
# a 1 MB long-double product and 512 kB float64 arrays, stay in cache.
_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class SpectralCoefficients:
    """The level distribution p_n and the phases over the contiguous
    principal levels n_lo, n_lo + 1, ...; c_n = sqrt(p_n) exp(i phase_n)."""

    n_lo: int
    probabilities: np.ndarray
    phase: np.ndarray

    @property
    def levels(self) -> np.ndarray:
        """The principal quantum numbers, one per probability."""
        return np.arange(self.n_lo, self.n_lo + self.probabilities.size)

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


def build_state(
    weight: WeightSpec,
    gamma: float,
    angular: AngularParams,
    tail_eps: float = DEFAULT_TAIL_EPS,
    *,
    ln_s: float,
) -> CoherentState:
    """Assemble the normalized state of scale ln_s (-inf for s = 0) over
    its level window, which leaves out tail_eps of the weight."""
    n_lo, p = _level_window(weight, ln_s, tail_eps)
    phase = reduced_phases(-gamma, hydrogen.energy(np.arange(n_lo, n_lo + p.size)))
    coeffs = SpectralCoefficients(n_lo=n_lo, probabilities=p, phase=phase)
    return CoherentState(
        weight=weight,
        ln_s=ln_s,
        gamma=gamma,
        angular=angular,
        coeffs=coeffs,
        tail_eps=tail_eps,
    )


def mean_level(state: CoherentState) -> float:
    """<n>: the mean principal quantum number."""
    return _level_moments(state.coeffs.n_lo, state.coeffs.probabilities)[0]


def level_spread(state: CoherentState) -> float:
    """Standard deviation of the principal level, from the two-pass sum of
    (n - <n>)^2 p_n."""
    return math.sqrt(_level_moments(state.coeffs.n_lo, state.coeffs.probabilities)[1])


def solve_scale_ln(
    alpha: float,
    target_mean: float,
    tol: float = 1e-9,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> float:
    """ln s such that the mean principal number <n> hits target_mean > 1
    within tol (relative).

    Seeded by inverting the leading-order mean, alpha s^(2 alpha) = <n> - 1
    (at least <n>/4 near the ground state), then refined by safeguarded
    Newton steps in ln s.  Since p_n = s^(2n) g_n / Z(s) with g_n free of s,
    the mean's slope d<n>/d ln s is exactly 2 Var(n), read off the same
    level window.  Each evaluation narrows a bracket around the root (the
    mean grows with the scale).  A step is cut to a cap of 0.5 that doubles
    each time it binds, so a far seed walks out geometrically instead of
    jumping to a scale whose series cannot be summed; a step that would
    leave the bracket bisects it.  If rounding stops the solve before tol
    is met, it returns ln s once a step no longer moves it, or the midpoint
    of a collapsed bracket.

    A scale whose series does not end below MAX_TERMS terms counts as a
    mean above every target, so the scale shrinks: from alpha ~ 3e5 up the
    seed puts s near 1, where it does.  A target of MAX_TERMS or more, which
    no window holds, raises DivergentSeriesError before any window is
    formed, as does a bracket that closes on, or a step that stalls at, a
    scale that diverged.
    """
    if not target_mean > 1.0:  # false for nan as well
        raise ValueError("a principal mean target must exceed 1")
    unreachable = f"no window below {MAX_TERMS} terms holds a mean principal number of {target_mean!r}"
    if not target_mean < MAX_TERMS:  # every window's levels are at most MAX_TERMS
        raise DivergentSeriesError(unreachable)
    spec = WeightSpec(alpha)

    ln_s = math.log(max(target_mean - 1.0, target_mean / 4.0) / alpha) / (2.0 * alpha)
    lo, hi, hi_mean, cap = -math.inf, math.inf, math.inf, 0.5
    for _ in range(200):
        try:
            mean, var = _level_moments(*_level_window(spec, ln_s, tail_eps))
        except DivergentSeriesError:  # a mean above every target: the scale shrinks
            mean, var = math.inf, 0.0
        miss = target_mean - mean
        if abs(miss) <= tol * target_mean:
            return ln_s
        if miss > 0:
            lo = ln_s
        else:
            hi, hi_mean = ln_s, mean
        if hi - lo < 1e-15 * max(1.0, abs(hi)):
            if hi_mean == math.inf:
                raise DivergentSeriesError(unreachable)
            return 0.5 * (lo + hi)
        step = miss / (2.0 * var) if var > 0 else math.copysign(math.inf, miss)
        if abs(step) > cap:
            step = math.copysign(cap, step)
            cap *= 2.0
        if ln_s + step == ln_s:  # the step is below rounding, so no later one moves
            if mean == math.inf:
                raise DivergentSeriesError(unreachable)
            return ln_s
        ln_s += step
        if not lo < ln_s < hi:
            ln_s = 0.5 * (lo + hi)
    raise ArithmeticError("the scale solve did not converge")


def evolve(state: CoherentState, t: float) -> CoherentState:
    """The state at time t: gamma shifts by t, coefficient n picks up
    exp(-i e_n t)."""
    extra = reduced_phases(-t, state.level_energies)
    new_phase = np.mod(state.coeffs.phase + extra, 2.0 * np.pi)
    return replace(
        state,
        gamma=state.gamma + t,
        coeffs=replace(state.coeffs, phase=new_phase),
    )


def autocorrelation(state: CoherentState, t) -> complex | np.ndarray:
    """<state(0)|state(t)> = sum_n p_n exp(-i e_n t).

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
    states must share the weight function exp(-u**alpha)."""
    if a.weight != b.weight:
        raise ValueError("states must share a weight function")
    in_a, in_b = np.isin(a.coeffs.levels, b.coeffs.levels), np.isin(b.coeffs.levels, a.coeffs.levels)
    j = (a.coeffs.levels[in_a] - 1) / 2.0  # level n carries two spins of j = (n-1)/2
    ang = su2_overlap(j, a.angular.zeta1, b.angular.zeta1) * su2_overlap(
        j, a.angular.zeta2, b.angular.zeta2
    )
    return complex(np.sum(np.conj(a.coeffs.values[in_a]) * b.coeffs.values[in_b] * ang))


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

    The keys, in order: family, alpha unless it is 1, ln_s, s_display,
    gamma, zeta1_re, zeta1_im, zeta2_re, zeta2_im, tail_eps.  family
    spells alpha = 1 as exponential, any other alpha as
    stretched_exponential.  ln_s is the canonical scale entry; the linear
    s is written for display only.  No coefficients are written:
    read_descriptor rebuilds them from these parameters.
    """
    alpha = state.weight.alpha
    lines = ["family=exponential"] if alpha == 1.0 else [
        "family=stretched_exponential", f"alpha={_FMT % alpha}"]
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

    A malformed line, a missing key, an unknown family, an alpha other
    than 1 under family=exponential, a non-finite value (other than
    ln_s = -inf), a tail_eps outside (0, 1), or a value that does not parse
    or that WeightSpec or AngularParams rejects raises DescriptorError
    naming the file; failures of build_state itself propagate as they are.
    """
    try:
        entries = parse_descriptor(path)
        family = entries["family"]
        if family == "exponential":  # alpha = 1, which an alpha line may repeat
            if float(entries.get("alpha", 1.0)) != 1.0:
                raise ValueError(f"alpha={entries['alpha']} conflicts with family=exponential (alpha=1)")
            weight = WeightSpec(1.0)
        elif family == "stretched_exponential":
            weight = WeightSpec(float(entries["alpha"]))
        else:
            raise ValueError(f"unknown weight family {family!r} (supported: exponential, stretched_exponential)")
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

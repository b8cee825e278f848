"""Numerical resolution-of-identity checks to 1e-12, up to the paper's levels.

Three layers, verified separately and then composed:

  - the sphere measure (2j+1)/pi * d^2 zeta / (1+|zeta|^2)^2 resolves each
    spin multiplet; under the stereographic map the measure is uniform on
    the sphere, so Gauss-Legendre in cos(theta) times a trapezoid in phi
    integrates the polynomial integrand exactly at sufficient order;
  - the radial measure reproduces the weight moments:
    integral of u^n rho(u) du = rho_n.  After v = u^alpha each moment is
    a gamma-density integral, taken by the trapezoid rule in x = ln v,
    where the density is analytic in the strip |Im x| < pi/2 and decays
    on both sides, so a uniform step converges geometrically.  The
    exponential weight is the alpha = 1 case of the same rule;
  - averaging over the phase parameter suppresses cross-level terms.
    No finite quadrature realizes the limit of an infinite phase window,
    so both an exact-limit mode (the level Kronecker delta substituted
    analytically) and a finite-window mode (the sinc factor at half-width
    Gamma) are provided.  Finite-window off-diagonal entries are bounded
    by 1/(Gamma |e_a - e_b|).

The sphere rule never forms the amplitudes on the full (theta, phi)
grid.  They factor as polar(k, theta) exp(-i k phi), with the polar
factor from one su2.su2_amplitudes call over the polar nodes, so a
sphere overlap is a weighted polar Gram times an azimuthal sum taken on
the phi nodes.  A level pair's block of the combined Gram is r * phase *
kron(S, S), r the radial cross integral and S the sphere overlap of the
two spin multiplets.  standard_verification makes one ascending pass
over the spins and builds each same-spin S once: the spin check reads
max|(2j+1) S - I| from it, and the exact-limit block of level n = 2j + 1
reads its largest entries from r and the same S, so the checks reach the
paper's levels (144-176).  The finite-window check covers the level pair
(1, 2) and reports its excess over the 1/(Gamma |e_a - e_b|) envelope
clamped at 0, so 0 means every entry sits inside the envelope.  That
excess is never positive: the pair's largest entry is r |sinc x| max|S|^2
at x = Gamma |e_a - e_b|, |sinc x| <= 1/|x|, and r max|S|^2 < 1 (0.79 for
the exponential weight).  So 0.000e+00 is the only value the check can
report; a phase-average check that can fail is ROADMAP.md item 7.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from cohere import hydrogen
from cohere.su2 import _check_two_j, su2_amplitudes
from cohere.weights import WeightSpec, _gauss_legendre, _stirling_tail


#: largest level count full_identity_matrix assembles densely (dimension sum n^2 = 91)
MAX_LEVELS = 6
#: levels the radial moment check of standard_verification covers
RADIAL_N_MAX = 10
#: the one tolerance every check of standard_verification holds
TOLERANCE = 1e-12
#: phase-window half-widths Gamma of the finite-window check
GAMMA_HALFWIDTHS = (1e3, 1e4, 1e5)


class InsufficientOrderError(ValueError):
    """The requested quadrature order cannot integrate the target exactly."""


def gamma_average(gamma_halfwidth: float, ea: float, eb: float) -> float:
    """(1/2 Gamma) integral of exp(i gamma (ea-eb)) over [-Gamma, Gamma].

    Equals sinc(Gamma (ea - eb)); exactly 1 on the diagonal ea = eb.
    """
    if gamma_halfwidth <= 0:
        raise ValueError("the window half-width must be positive")
    return float(np.sinc(gamma_halfwidth * (ea - eb) / math.pi))


@lru_cache(maxsize=8)
def _azimuthal_sums(azimuthal_count: int) -> np.ndarray:
    """A[d] = sum over the equally spaced phi nodes of w_phi exp(-i d phi)
    for |d| < azimuthal_count, at index d + azimuthal_count - 1; read-only,
    since every sphere overlap with this node count shares it."""
    phi = np.arange(azimuthal_count) * (2.0 * math.pi / azimuthal_count)
    w_phi = 2.0 * math.pi / azimuthal_count
    d = np.arange(1 - azimuthal_count, azimuthal_count)
    # row by row, so the table costs no (2N-1) x N temporary
    sums = np.array([np.exp(-1j * (k * phi)).sum() for k in d]) * w_phi
    sums.flags.writeable = False
    return sums


def verify_su2_identity(j: float, polar_order: int, azimuthal_count: int) -> float:
    """Max deviation of the spin-j sphere integral from the identity.

    The integral of (2j+1)/pi * d^2 zeta/(1+|zeta|^2)^2 |j,zeta><j,zeta|
    is 2j+1 times the same-spin sphere overlap, so it inherits that rule's
    order checks: InsufficientOrderError below 2j+1 polar nodes or 2j+1
    azimuthal nodes.
    """
    return _spin_deviation(_sphere_overlap_matrix(j, j, polar_order, azimuthal_count))


def _spin_deviation(sphere: np.ndarray) -> float:
    """max|(2j+1) S - I| of a same-spin sphere overlap S of size 2j+1."""
    size = sphere.shape[0]
    return float(np.max(np.abs(float(size) * sphere - np.eye(size))))


def _sphere_overlap_matrix(
    j_a: float, j_b: float, polar_order: int, azimuthal_count: int
) -> np.ndarray:
    """(1/pi) integral d^2 zeta/(1+|zeta|^2)^2 a^(ja) conj(a^(jb)).

    The amplitudes factor as polar(k, theta) exp(-i k phi), so the product
    rule's sum splits: entry (k_a, k_b) is the weighted polar Gram times the
    azimuthal sum A[k_a - k_b], A[d] = sum over the phi nodes of
    w_phi exp(-i d phi).  A is summed on the nodes rather than replaced by
    its exact value 2 pi delta_d0, so the checks measure the rule instead
    of assuming it.  For j_a = j_b the result is the unit matrix over 2j+1;
    cross-spin blocks feed the finite-window identity assembly.
    """
    two_a, two_b = _check_two_j(j_a), _check_two_j(j_b)
    need = (two_a + two_b) // 2 + 1
    if polar_order < need:
        raise InsufficientOrderError(
            f"polar order {polar_order} cannot resolve spins {j_a}, {j_b}; need >= {need}"
        )
    if azimuthal_count < max(two_a, two_b) + 1:
        raise InsufficientOrderError(
            f"azimuthal count {azimuthal_count} aliases m-differences up to "
            f"{max(two_a, two_b)}"
        )
    # polar(k, theta): the amplitude at zeta = -tan(theta/2), the phi = 0 node
    u, wu = _gauss_legendre(polar_order)
    zeta = -np.tan(np.arccos(u) / 2.0)
    polar_a = su2_amplitudes(j_a, zeta)
    polar_b = polar_a if two_a == two_b else su2_amplitudes(j_b, zeta)
    azimuthal = _azimuthal_sums(azimuthal_count)
    diff = np.subtract.outer(np.arange(two_a + 1), np.arange(two_b + 1)) + azimuthal_count - 1
    return ((polar_a * wu) @ polar_b.conj().T) * azimuthal[diff] / (4.0 * math.pi)


def _moment_ratio_by_quadrature(spec: WeightSpec, exponent: float) -> float:
    """integral of u^exponent rho(u) du divided by the analytic moment.

    The analytic moment generalizes to real exponents through the same
    Gamma-function expression that defines the integer moments.  After
    v = u^alpha the ratio is the integral of the gamma density
    v^(beta-1) e^(-v) / Gamma(beta), beta = (exponent+1)/alpha.

    Below beta = 1 the density's left tail decays only like e^(beta y) and
    would take ~200/beta nodes; by parts, integral v^(beta-1) e^-v dv =
    integral v^beta e^-v dv / beta and Gamma(beta + 1) = beta Gamma(beta), so
    the ratio is the same rule's at beta + 1.

    The substitution v = beta e^y centres it on its peak at y = 0:
    exp(-beta (e^y - 1 - y) + c(beta)), c(beta) = beta ln beta - beta
    - ln Gamma(beta), so no terms of size beta ln beta cancel in the
    exponent.  On the peak, of width 1/sqrt(beta), expm1(y) - y would
    cancel like y^2/2, and its rounding, times beta, would grow like
    sqrt(beta) eps; so for |y| < 1/4, e^y - 1 - y is y^2 times its Taylor
    series through y^16/18! (the next term is below 1e-27 of the sum),
    summed by Horner in long double, and elsewhere expm1(y) - y.  By
    Stirling's formula c(beta) = ln(beta / 2 pi)/2 less
    weights._stirling_tail(beta), ln Gamma's remainder, which the level
    window's ratio steps read too.  The integrand
    is analytic in |Im y| < pi/2 and decays on both sides, so the
    trapezoid rule on a uniform grid converges geometrically.  The step
    h = min(0.2, 0.4/sqrt(beta)) resolves the peak, and the window drops
    tails below e^-40: 52-271 nodes, and the ratio is within 1.5e-14 of 1
    for every integer moment up to n = 176 at every alpha from 1e5 down
    to 1e-200.  A beta past the float range (alpha subnormal, or near 1e-308
    and n >= 1) raises ArithmeticError; every finite beta gives a finite ratio.
    """
    beta = (exponent + 1.0) / spec.alpha
    if not math.isfinite(beta):
        raise ArithmeticError(f"the radial moment at exponent {exponent:g} overflows: "
                              f"(exponent + 1)/alpha is not finite at alpha={spec.alpha!r}")
    if beta < 1:
        beta += 1.0
    c = 0.5 * math.log(beta / (2.0 * math.pi)) - _stirling_tail(beta)
    root = math.sqrt(beta)
    h = min(0.2, 0.4 / root)
    lo = -40.0 / beta - 10.0 / root
    hi = math.log1p((40.0 + 10.0 * root) / beta)
    y = (lo + h * np.arange(math.ceil((hi - lo) / h) + 1)).astype(np.longdouble)
    series = np.longdouble(0)  # (e^y - 1 - y) / y^2 by Horner, through y^16/18!
    for k in range(18, 1, -1):
        series = series * y + np.longdouble(1) / math.factorial(k)
    excess = np.where(np.abs(y) < 0.25, y * y * series, np.expm1(y) - y)
    return float(h * np.sum(np.exp(c - beta * excess)))


def verify_radial_identity(spec: WeightSpec, n_max: int) -> float:
    """Max over n <= n_max of |integral u^n rho(u) du / rho_n - 1|."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    worst = 0.0
    for n in range(n_max + 1):
        worst = max(worst, abs(_moment_ratio_by_quadrature(spec, float(n)) - 1.0))
    return worst


def _radial_factor(spec: WeightSpec, n_a: int, n_b: int) -> float:
    """r: the combined Gram's block of levels (n_a, n_b) is
    r * phase * kron(S, S), with r the radial cross integral times the
    spectral factors n / sqrt(rho_{n-1}) and S the sphere overlap of spins
    (n_a-1)/2 and (n_b-1)/2.

    With m = (n_a + n_b)/2 the cross integral is the quadrature ratio at
    exponent m - 1 times rho_{m-1} = Gamma(m/alpha)/alpha, so r is that
    ratio times n_a n_b Gamma(m/alpha) / sqrt(Gamma(n_a/alpha) Gamma(n_b/alpha)):
    the 1/alpha factors cancel before they are formed, and on the diagonal
    the Gamma quotient is exactly 1, so r = ratio n^2 keeps the ratio's
    every bit however large ln Gamma(n/alpha) is.

    Off the diagonal, with x = n/alpha and x_m = (x_a + x_b)/2, Stirling's
    formula makes the log quotient -(x_a - 1/2) ln(x_a/x_m)/2
    - (x_b - 1/2) ln(x_b/x_m)/2 plus the differences of
    weights._stirling_tail, ln Gamma's remainder, where
    x_a/x_m = 2 n_a/(n_a + n_b): no terms of size x ln x cancel, and
    nothing overflows while x is finite."""
    a, mid = spec.alpha, (n_a + n_b) / 2.0
    ratio = _moment_ratio_by_quadrature(spec, mid - 1.0) * n_a * n_b
    if n_a == n_b:
        return ratio
    x_a, x_b = n_a / a, n_b / a
    tail_m, tail_a, tail_b = _stirling_tail(np.array([mid / a, x_a, x_b]))
    d = (n_a - n_b) / (n_a + n_b)
    quotient = (-0.5 * ((x_a - 0.5) * math.log1p(d) + (x_b - 0.5) * math.log1p(-d))
                + tail_m - 0.5 * (tail_a + tail_b))
    return ratio * math.exp(quotient)


def full_identity_matrix(
    spec: WeightSpec,
    n_max: int,
    polar_order: int,
    azimuthal_count: int,
    gamma_halfwidth: float | None = None,
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Gram matrix of the truncated identity in the |n, m1, m2> basis.

    Entry (a, b) assembles the coherent-state projector integral between
    basis vectors a and b; the phase average enters analytically (as the
    level delta in exact-limit mode, gamma_halfwidth None, and as the sinc
    factor at the finite window of half-width gamma_halfwidth).
    The block of levels (n_a, n_b) is radial * phase * kron(S, S), with S
    the sphere overlap of spins (n_a-1)/2 and (n_b-1)/2; blocks with
    n_a <= n_b are computed and the rest filled by conjugate transpose,
    with the diagonal taken real, so the result is exactly Hermitian.
    Returns (matrix, labels) with labels (n, k1, k2), k = j + m.
    """
    if n_max < 1:
        raise ValueError("need at least one level")
    if n_max > MAX_LEVELS:
        raise ValueError(f"truncation {n_max} exceeds the dense cap {MAX_LEVELS}")
    levels = range(1, n_max + 1)
    labels = [(n, k1, k2) for n in levels for k1 in range(n) for k2 in range(n)]
    offset = {n: sum(m * m for m in range(1, n)) for n in levels}

    gram = np.zeros((len(labels), len(labels)), dtype=complex)
    for n_a in levels:
        for n_b in range(n_a, n_max + 1):
            gamma_factor = (float(n_a == n_b) if gamma_halfwidth is None else
                            gamma_average(gamma_halfwidth, hydrogen.energy(n_a), hydrogen.energy(n_b)))
            if gamma_factor == 0.0:
                continue
            radial = _radial_factor(spec, n_a, n_b)
            sphere = _sphere_overlap_matrix((n_a - 1) / 2.0, (n_b - 1) / 2.0, polar_order, azimuthal_count)
            rows = slice(offset[n_a], offset[n_a] + n_a * n_a)
            cols = slice(offset[n_b], offset[n_b] + n_b * n_b)
            gram[rows, cols] = radial * gamma_factor * np.kron(sphere, sphere)
    upper = np.triu(gram, 1)
    return upper + upper.conj().T + np.diag(gram.diagonal().real), labels


# --- reporting ------------------------------------------------------------


@dataclass
class CheckResult:
    """One verification outcome for the structured report."""

    name: str
    truncation: str
    orders: dict
    max_deviation: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(self.max_deviation <= self.tolerance)


def report_json(results: list[CheckResult]) -> str:
    return json.dumps(
        {
            "checks": [asdict(r) for r in results],
            "passed": all(r.passed for r in results),
        },
        indent=2,
    )


def report_text(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"[{status}] {r.name} ({r.truncation}): "
            f"max deviation {r.max_deviation:.3e} vs tolerance {r.tolerance:.1e}"
        )
    return "\n".join(lines)


def standard_verification(
    spec: WeightSpec = WeightSpec(1.0),
    n_max: int = 3,
    su2_max_two_j: int = 10,
    polar_order: int = 24,
    azimuthal_count: int = 48,
) -> list[CheckResult]:
    """The default battery, each check held to TOLERANCE: spin multiplets,
    radial moments, combined identity in exact-limit mode, and the
    finite-window off-diagonal bound.

    One ascending pass over 2j = 0 .. max(su2_max_two_j, n_max - 1) builds
    each same-spin sphere overlap S once; the spin check reads it for
    2j <= su2_max_two_j and the level block n = 2j + 1 for n <= n_max.
    The finite-window check covers the level pair (1, 2) when n_max >= 2
    and reports its excess over the envelope clamped at 0.  Since
    |sinc x| <= 1/|x| and r max|S|^2 = 0.79 < 1 there (exponential weight),
    that excess is never positive and the check can only report 0; see the
    module docstring and ROADMAP.md item 7."""
    if n_max < 1:
        raise ValueError("need at least one level")

    spin_deviations, worst = [], 0.0
    for two_j in range(max(su2_max_two_j, n_max - 1) + 1):
        sphere = _sphere_overlap_matrix(two_j / 2.0, two_j / 2.0, polar_order, azimuthal_count)
        if two_j <= su2_max_two_j:
            spin_deviations.append(_spin_deviation(sphere))
        if two_j < n_max:
            # block n minus I: r S_ii S_jj - 1 on its diagonal, extreme at S's
            # extreme diagonal entries, and r S_ik S_jl with i != k or j != l off
            # it, at most r * (largest off-diagonal |S|) * max|S|
            radial = _radial_factor(spec, two_j + 1, two_j + 1)
            diagonal = sphere.diagonal().real
            off = np.abs(sphere - np.diag(sphere.diagonal())).max()
            worst = max(worst, abs(radial * diagonal.max() ** 2 - 1.0),
                        abs(radial * diagonal.min() ** 2 - 1.0), radial * off * np.abs(sphere).max())

    # finite-window off-diagonals must obey the sinc envelope bound; the
    # pair's largest entry is |r * sinc| max|S|^2
    worst_excess = 0.0
    if n_max >= 2:
        radial = _radial_factor(spec, 1, 2)
        largest_sphere = np.abs(_sphere_overlap_matrix(0.0, 0.5, polar_order, azimuthal_count)).max()
        e_a, e_b = hydrogen.energy(1), hydrogen.energy(2)
        for gamma_halfwidth in GAMMA_HALFWIDTHS:
            largest = abs(radial * gamma_average(gamma_halfwidth, e_a, e_b)) * largest_sphere ** 2
            worst_excess = max(worst_excess, largest - 1.0 / (gamma_halfwidth * abs(e_a - e_b)))

    return [
        CheckResult(
            name="spin multiplet resolution",
            truncation=f"2j <= {su2_max_two_j}",
            orders={"polar": polar_order, "azimuthal": azimuthal_count},
            max_deviation=max(spin_deviations, default=0.0),
            tolerance=TOLERANCE,
        ),
        CheckResult(
            name="radial moment identity",
            truncation=f"n <= {RADIAL_N_MAX}",
            orders={"rule": "log-trapezoid"},
            max_deviation=verify_radial_identity(spec, RADIAL_N_MAX),
            tolerance=TOLERANCE,
        ),
        CheckResult(
            name="combined identity (exact-limit phase average)",
            truncation=f"levels <= {n_max}",
            orders={"polar": polar_order, "azimuthal": azimuthal_count,
                    "radial_rule": "log-trapezoid"},
            max_deviation=float(worst),
            tolerance=TOLERANCE,
        ),
        CheckResult(
            name="finite-window off-diagonal bound",
            truncation=f"levels <= {min(n_max, 2)}",
            orders={"gamma_halfwidths": list(GAMMA_HALFWIDTHS)},
            max_deviation=float(worst_excess),
            tolerance=TOLERANCE,
        ),
    ]

"""Numerical resolution-of-identity checks at desk-scale truncations.

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
the phi nodes.  The combined Gram is assembled from Kronecker blocks:
for a level pair it is the radial cross integral times the phase
average times kron(S, S), S being the sphere overlap of the two spin
multiplets.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from cohere import hydrogen
from cohere.su2 import _check_two_j, su2_amplitudes
from cohere.weights import WeightFamily, WeightSpec, log_moment


#: largest level count full_identity_matrix assembles (dimension sum n^2 = 91)
MAX_LEVELS = 6


class InsufficientOrderError(ValueError):
    """The requested quadrature order cannot integrate the target exactly."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Orders for the combined identity check."""

    polar_order: int = 24
    azimuthal_count: int = 48
    gamma_halfwidth: float | None = None  # None: exact-limit mode


def gamma_average(gamma_halfwidth: float, ea: float, eb: float) -> float:
    """(1/2 Gamma) integral of exp(i gamma (ea-eb)) over [-Gamma, Gamma].

    Equals sinc(Gamma (ea - eb)); exactly 1 on the diagonal ea = eb.
    """
    if gamma_halfwidth <= 0:
        raise ValueError("the window half-width must be positive")
    return float(np.sinc(gamma_halfwidth * (ea - eb) / math.pi))


@lru_cache(maxsize=8)
def _polar_rule(polar_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre polar angles and weights, read-only: callers share them."""
    u, wu = np.polynomial.legendre.leggauss(polar_order)
    theta = np.arccos(u)
    theta.flags.writeable = wu.flags.writeable = False
    return theta, wu


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


def _polar_factor(j: float, theta: np.ndarray) -> np.ndarray:
    """Polar part of the su2 amplitudes on the polar nodes; shape (2j+1, Nu).

    The amplitude of component k at zeta = -tan(theta/2) exp(-i phi) is
    this factor times exp(-i k phi).
    """
    return su2_amplitudes(j, -np.tan(theta / 2.0))


def verify_su2_identity(
    j: float, polar_order: int, azimuthal_count: int | None = None
) -> float:
    """Max deviation of the spin-j sphere integral from the identity.

    The integral of (2j+1)/pi * d^2 zeta/(1+|zeta|^2)^2 |j,zeta><j,zeta|
    is 2j+1 times the same-spin sphere overlap, so it inherits that rule's
    order checks: InsufficientOrderError below 2j+1 polar nodes or 2j+1
    azimuthal nodes.
    """
    two_j = _check_two_j(j)
    if azimuthal_count is None:
        azimuthal_count = max(4, 2 * polar_order)
    gram = (two_j + 1.0) * _sphere_overlap_matrix(j, j, polar_order, azimuthal_count)
    return float(np.max(np.abs(gram - np.eye(two_j + 1))))


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
    theta, wu = _polar_rule(polar_order)
    polar_a = _polar_factor(j_a, theta)
    polar_b = polar_a if two_a == two_b else _polar_factor(j_b, theta)
    azimuthal = _azimuthal_sums(azimuthal_count)
    diff = np.subtract.outer(np.arange(two_a + 1), np.arange(two_b + 1)) + azimuthal_count - 1
    return ((polar_a * wu) @ polar_b.conj().T) * azimuthal[diff] / (4.0 * math.pi)


def _moment_ratio_by_quadrature(spec: WeightSpec, exponent: float) -> float:
    """integral of u^exponent rho(u) du divided by the analytic moment.

    The analytic moment generalizes to real exponents through the same
    Gamma-function expression that defines the integer moments.  After
    v = u^alpha the ratio is the integral of the gamma density
    v^(beta-1) e^(-v) / Gamma(beta), beta = (exponent+1)/alpha.

    The substitution v = e^x gives exp(beta x - e^x) / Gamma(beta):
    analytic in |Im x| < pi/2 and decaying on both sides, so the
    trapezoid rule on a uniform grid converges geometrically.  The step
    h = min(0.2, 0.4/sqrt(beta)) resolves the peak of width 1/sqrt(beta)
    at x = ln beta, and the window drops tails below e^-40.  For
    beta >= 1 that is 52-271 nodes; the ratio is within 5e-13 of 1 up to
    beta = 400 and at the lgamma rounding floor beyond.
    """
    if spec.family is WeightFamily.TABULATED:
        raise ValueError("quadrature checks need a pointwise density")
    beta = (exponent + 1.0) / spec.alpha
    log_gamma_beta = math.lgamma(beta)
    root = math.sqrt(beta)
    h = min(0.2, 0.4 / root)
    lo = math.log(beta) - 40.0 / beta - 10.0 / root
    hi = math.log(beta + 40.0 + 10.0 * root)
    x = lo + h * np.arange(math.ceil((hi - lo) / h) + 1)
    return float(h * np.sum(np.exp(beta * x - np.exp(x) - log_gamma_beta)))


def verify_radial_identity(spec: WeightSpec, n_max: int) -> float:
    """Max over n <= n_max of |integral u^n rho(u) du / rho_n - 1|."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    worst = 0.0
    for n in range(n_max + 1):
        ratio = _moment_ratio_by_quadrature(spec, float(n))
        if not math.isfinite(ratio):
            raise ArithmeticError(f"divergent radial quadrature at moment {n}")
        worst = max(worst, abs(ratio - 1.0))
    return worst


def full_identity_matrix(
    spec: WeightSpec,
    n_max: int,
    quad_spec: QuadratureSpec = QuadratureSpec(),
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Gram matrix of the truncated identity in the |n, m1, m2> basis.

    Entry (a, b) assembles the coherent-state projector integral between
    basis vectors a and b; the phase average enters analytically (as the
    level delta in exact-limit mode, as the sinc factor at finite window).
    The block of levels (n_a, n_b) is radial * phase * kron(S, S), with S
    the sphere overlap of spins (n_a-1)/2 and (n_b-1)/2; blocks with
    n_a <= n_b are computed and the rest filled by conjugate transpose,
    with the diagonal taken real, so the result is exactly Hermitian.
    Returns (matrix, labels) with labels (n, k1, k2), k = j + m.
    """
    if n_max < 1:
        raise ValueError("need at least one level")
    if n_max > MAX_LEVELS:
        raise ValueError(
            f"truncation {n_max} exceeds the desk-scale cap {MAX_LEVELS}"
        )
    levels = range(1, n_max + 1)
    labels = [(n, k1, k2) for n in levels for k1 in range(n) for k2 in range(n)]
    offset = {n: sum(m * m for m in range(1, n)) for n in levels}

    gram = np.zeros((len(labels), len(labels)), dtype=complex)
    for n_a in levels:
        for n_b in range(n_a, n_max + 1):
            if quad_spec.gamma_halfwidth is None:
                if n_a != n_b:
                    continue
                gamma_factor = 1.0
            else:
                gamma_factor = gamma_average(
                    quad_spec.gamma_halfwidth, hydrogen.energy(n_a), hydrogen.energy(n_b)
                )
                if gamma_factor == 0.0:
                    continue
            # radial cross integral times the spectral factors n / sqrt(rho_{n-1});
            # log_moment's formula at a real exponent, in an order that keeps every bit
            exponent = (n_a + n_b) / 2.0 - 1.0
            radial_factor = math.exp(
                math.log(_moment_ratio_by_quadrature(spec, exponent))
                - math.log(spec.alpha)
                + math.lgamma((exponent + 1.0) / spec.alpha)
                - 0.5 * (log_moment(spec, n_a - 1) + log_moment(spec, n_b - 1))
                + math.log(n_a)
                + math.log(n_b)
            )
            sphere = _sphere_overlap_matrix(
                (n_a - 1) / 2.0, (n_b - 1) / 2.0,
                quad_spec.polar_order, quad_spec.azimuthal_count,
            )
            rows = slice(offset[n_a], offset[n_a] + n_a * n_a)
            cols = slice(offset[n_b], offset[n_b] + n_b * n_b)
            gram[rows, cols] = radial_factor * gamma_factor * np.kron(sphere, sphere)
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

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "truncation": self.truncation,
            "orders": self.orders,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def report_json(results: list[CheckResult]) -> str:
    return json.dumps(
        {
            "checks": [r.as_dict() for r in results],
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
    spec: WeightSpec | None = None,
    n_max: int = 3,
    su2_max_two_j: int = 10,
    polar_order: int = 24,
    azimuthal_count: int = 48,
    gamma_halfwidths: tuple[float, ...] = (1e3, 1e4, 1e5),
    radial_n_max: int = 10,
    su2_tol: float = 1e-12,
    radial_tol: float = 1e-12,
    full_tol: float = 1e-8,
) -> list[CheckResult]:
    """The default battery: spin multiplets, radial moments, combined
    identity in exact-limit mode, and the finite-window off-diagonal
    bound."""
    if spec is None:
        spec = WeightSpec.exponential()
    results = []

    worst_su2 = 0.0
    for two_j in range(su2_max_two_j + 1):
        worst_su2 = max(
            worst_su2, verify_su2_identity(two_j / 2.0, polar_order, azimuthal_count)
        )
    results.append(
        CheckResult(
            name="spin multiplet resolution",
            truncation=f"2j <= {su2_max_two_j}",
            orders={"polar": polar_order, "azimuthal": azimuthal_count},
            max_deviation=worst_su2,
            tolerance=su2_tol,
        )
    )

    results.append(
        CheckResult(
            name="radial moment identity",
            truncation=f"n <= {radial_n_max}",
            orders={"rule": "log-trapezoid"},
            max_deviation=verify_radial_identity(spec, radial_n_max),
            tolerance=radial_tol,
        )
    )

    gram, _ = full_identity_matrix(
        spec, n_max, QuadratureSpec(polar_order=polar_order, azimuthal_count=azimuthal_count)
    )
    results.append(
        CheckResult(
            name="combined identity (exact-limit phase average)",
            truncation=f"levels <= {n_max}",
            orders={"polar": polar_order, "azimuthal": azimuthal_count,
                    "radial_rule": "log-trapezoid"},
            max_deviation=float(np.max(np.abs(gram - np.eye(gram.shape[0])))),
            tolerance=full_tol,
        )
    )

    # finite-window off-diagonals must obey the sinc envelope bound
    worst_excess = 0.0
    for gamma_halfwidth in gamma_halfwidths:
        finite = QuadratureSpec(
            polar_order=polar_order,
            azimuthal_count=azimuthal_count,
            gamma_halfwidth=gamma_halfwidth,
        )
        gram, labels = full_identity_matrix(spec, min(n_max, 2), finite)
        for a, (n_a, _, _) in enumerate(labels):
            for b, (n_b, _, _) in enumerate(labels):
                if n_a == n_b:
                    continue
                bound = 1.0 / (
                    gamma_halfwidth
                    * abs(hydrogen.energy(n_a) - hydrogen.energy(n_b))
                )
                excess = abs(gram[a, b]) - bound
                worst_excess = max(worst_excess, excess)
    results.append(
        CheckResult(
            name="finite-window off-diagonal bound",
            truncation="levels <= 2",
            orders={"gamma_halfwidths": list(gamma_halfwidths)},
            max_deviation=max(worst_excess, 0.0),
            tolerance=1e-12,
        )
    )
    return results

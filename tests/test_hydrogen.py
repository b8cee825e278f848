"""Spectrum, energy expansion, revival analysis."""
import math
from dataclasses import dataclass

import numpy as np
import pytest

from cohere.hydrogen import (
    energy,
    fractional_revival_times,
    revival_ratio,
    revival_time,
)


@dataclass(frozen=True)
class EnergyExpansion:
    """Cubic Taylor expansion of the spectrum about a (real) center level.

    energy(n) ~ c0 + c1 (n - center) + c2 (n - center)^2 + c3 (n - center)^3
    """

    center: float
    c0: float
    c1: float
    c2: float
    c3: float

    def evaluate(self, n):
        d = n - self.center
        return self.c0 + self.c1 * d + self.c2 * d**2 + self.c3 * d**3


def energy_expansion(center: float) -> EnergyExpansion:
    """Expansion coefficients of -1/(2 n^2) about n = center."""
    if center <= 0:
        raise ValueError("expansion center must be positive")
    return EnergyExpansion(center, -0.5 / center**2, 1.0 / center**3,
                           -1.5 / center**4, 2.0 / center**5)


def classical_period(mean_n: float) -> float:
    """Kepler orbital period 2 pi <n>^3 of the correspondence-limit orbit."""
    if mean_n <= 0:
        raise ValueError("mean level must be positive")
    return 2.0 * math.pi * mean_n**3


class TestEnergy:
    def test_values(self):
        assert energy(1) == -0.5
        assert energy(2) == -0.125
        assert energy(160) == pytest.approx(-1.953125e-5, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            energy(0)

    def test_monotone_and_negative(self):
        e = energy(np.arange(1, 2001))
        assert np.all(e < 0)
        assert np.all(np.diff(e) > 0)


class TestExpansion:
    def test_unit_center(self):
        exp = energy_expansion(1.0)
        assert (exp.c0, exp.c1, exp.c2, exp.c3) == (-0.5, 1.0, -1.5, 2.0)

    def test_center_two(self):
        exp = energy_expansion(2.0)
        assert exp.c0 == pytest.approx(-1.0 / 8.0)
        assert exp.c1 == pytest.approx(1.0 / 8.0)
        assert exp.c2 == pytest.approx(-3.0 / 32.0)
        assert exp.c3 == pytest.approx(1.0 / 16.0)

    def test_taylor_residual_is_quartic(self):
        for center in (25.0, 60.0, 144.0):
            exp = energy_expansion(center)
            for dn in (-2, -1, 1, 2):
                n = center + dn
                resid = abs(energy(n) - exp.evaluate(n))
                assert resid <= 3.6 * dn**4 / center**6

    def test_quartic_remainder_bound(self):
        # |energy - cubic Taylor| <= C (n - center)^4 / center^6 with the
        # pinned constant C = 3.6 over the quarter-width window
        for center in (20.0, 40.0, 80.0, 160.0):
            exp = energy_expansion(center)
            lo, hi = int(center - center / 4), int(center + center / 4)
            for n in range(max(1, lo), hi + 1):
                resid = abs(energy(n) - exp.evaluate(n))
                assert resid <= 3.6 * (n - center) ** 4 / center**6

    def test_invalid_center(self):
        with pytest.raises(ValueError):
            energy_expansion(0.0)


class TestRevival:
    def test_paper_scale(self):
        t = revival_time(160.0)
        # four significant figures
        assert float(f"{t:.4g}") == 1.373e9

    def test_unit(self):
        assert revival_time(1.0) == pytest.approx(2 * math.pi / 3, rel=1e-15)

    def test_cross_checks(self):
        assert float(f"{revival_time(400.0):.3g}") == 5.36e10
        assert float(f"{revival_time(200.0):.3g}") == 3.35e9

    def test_invalid(self):
        with pytest.raises(ValueError):
            revival_time(0.0)

    def test_ratio_paper_value(self):
        assert revival_ratio(160.0, math.sqrt(5.0)) == pytest.approx(0.29, abs=0.01)

    def test_ratio_zero_spread(self):
        assert revival_ratio(42.0, 0.0) == 0.0

    @pytest.mark.parametrize("mean, spread", [(0.0, 1.0), (4.0, -1.0)])
    def test_ratio_invalid(self, mean, spread):
        with pytest.raises(ValueError):
            revival_ratio(mean, spread)

    def test_ratio_sqrt_mean_scaling(self):
        # spread = sqrt(mean) gives 4 pi sqrt(mean) / 3
        for mean in (9.0, 100.0, 160.0):
            expected = 4 * math.pi * math.sqrt(mean) / 3
            assert revival_ratio(mean, math.sqrt(mean)) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_coefficient_times_revival_time(self):
        # algebraic identity: c2 * T_r = -pi at any center
        for center in (1.0, 17.5, 160.0, 400.0):
            assert energy_expansion(center).c2 * revival_time(center) == pytest.approx(
                -math.pi, rel=1e-12
            )


class TestFractionalTimes:
    def test_unit_schedule(self):
        times = dict(fractional_revival_times(1.0))
        assert times == {
            "0": 0.0,
            "Tr/5": pytest.approx(0.2),
            "Tr/4": pytest.approx(0.25),
            "Tr/3": pytest.approx(1.0 / 3.0),
            "Tr/2": pytest.approx(0.5),
            "Tr": pytest.approx(1.0),
        }

    def test_half_of_paper_value(self):
        times = dict(fractional_revival_times(1.373e9))
        assert times["Tr/2"] == pytest.approx(6.865e8, rel=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fractional_revival_times(0.0)


def test_classical_period():
    assert classical_period(20.0) == pytest.approx(2 * math.pi * 8000.0, rel=1e-15)
    # the full revival takes <n>/3 Kepler periods
    for mean in (3.0, 20.0, 160.0):
        assert revival_time(mean) / classical_period(mean) == pytest.approx(mean / 3.0, rel=1e-15)
    with pytest.raises(ValueError):
        classical_period(-1.0)

"""Unit-conversion module: quoted-value checks, linearity, scaling laws."""

import itertools

import numpy as np
import pytest

from acring.units import (
    CONSTANTS,
    CrossedFieldSetup,
    LineChargeSetup,
    TorusChargeSetup,
    eta_cross_field,
    eta_line_charge,
    eta_torus,
    field_au_to_volts_per_cm,
    field_line_charge,
    field_line_charge_for_eta,
    field_torus,
    required_line_density,
    required_torus_charges,
)


def test_constants_snapshot_values():
    assert abs(CONSTANTS.fine_structure_alpha - 7.29735e-3) < 1e-7
    assert abs(CONSTANTS.compton_length - 3.8616e-13) < 1e-16
    assert abs(CONSTANTS.zeeman_ratio_per_gauss - 2.127e-10) < 1e-12
    assert abs(CONSTANTS.au_field_strength - 5.142e9) < 1e6
    assert CONSTANTS.bohr_radius > 0


class TestLineCharge:
    def test_eta_at_quoted_density_is_about_one(self):
        setup = LineChargeSetup(linear_charge_density=3.55e14, lande_g=1.0)
        assert eta_line_charge(setup) == pytest.approx(1.0, rel=5e-3)

    def test_zero_charge_gives_zero_phase(self):
        assert eta_line_charge(LineChargeSetup(0.0, 1.0)) == 0.0

    def test_linearity_in_g_factor_and_density(self):
        base = eta_line_charge(LineChargeSetup(3.55e14, 1.0))
        assert eta_line_charge(LineChargeSetup(3.55e14, 2.0)) == pytest.approx(2.0 * base, rel=1e-14)
        assert eta_line_charge(LineChargeSetup(2 * 3.55e14, 1.0)) == pytest.approx(2.0 * base, rel=1e-14)
        assert eta_line_charge(LineChargeSetup(3.55e14, 2.0)) == pytest.approx(2.0, rel=5e-3)

    def test_required_density_for_unit_phase(self):
        # 1 / (alpha * compton) = 3.5487e14 per meter
        assert required_line_density(1.0, 1.0) == pytest.approx(3.55e14, rel=1e-2)
        assert required_line_density(1.0, 1.0) == pytest.approx(3.5487e14, rel=1e-4)

    def test_required_density_trivial_and_linear(self):
        assert required_line_density(0.0, 1.0) == 0.0
        half = required_line_density(0.5, 1.0)
        assert half == pytest.approx(0.5 * required_line_density(1.0, 1.0), rel=1e-14)
        assert half == pytest.approx(1.774e14, rel=1e-3)

    def test_round_trip_identity(self):
        for eta, g in itertools.product((0.1, 1.0, 10.0), (0.5, 1.0, 2.0)):
            density = required_line_density(eta, g)
            back = eta_line_charge(LineChargeSetup(density, g))
            assert back == pytest.approx(eta, rel=1e-12)

    def test_field_at_one_mm_for_unit_phase(self):
        # direct Coulomb estimate: ~2e-3 a.u. at 1 mm
        value = field_line_charge_for_eta(1.0, 1.0, probe_distance=1e-3)
        assert 1.7e-3 < value < 2.1e-3
        assert value == pytest.approx(1.9875e-3, rel=1e-3)

    def test_field_scales_inversely_with_distance(self):
        density = required_line_density(1.0, 1.0)
        near = field_line_charge(LineChargeSetup(density, 1.0, probe_distance=0.5e-3))
        far = field_line_charge(LineChargeSetup(density, 1.0, probe_distance=1e-3))
        assert near == pytest.approx(2.0 * far, rel=1e-12)
        assert near == pytest.approx(3.9750e-3, rel=1e-3)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            LineChargeSetup(-1.0, 1.0)
        with pytest.raises(ValueError):
            LineChargeSetup(1e14, 0.0)
        with pytest.raises(ValueError):
            LineChargeSetup(1e14, 1.0, probe_distance=0.0)
        with pytest.raises(ValueError):
            required_line_density(1.0, 0.0)

    def test_denominator_that_rounds_to_zero_rejected(self):
        # g * alpha * compton_length underflows to 0.0: the quotient raised ZeroDivisionError
        with pytest.raises(ValueError, match="lande_g=1e-320 is too small"):
            required_line_density(1.0, 1e-320)


class TestTorusCharge:
    def test_threshold_charge_gives_unit_phase_exactly(self):
        radius = 1e-3
        charges = required_torus_charges(1.0, 1.0, radius)
        setup = TorusChargeSetup(charges, radius, 1.0)
        assert eta_torus(setup) == pytest.approx(1.0, rel=1e-12)

    def test_zero_charge_and_radius_scaling(self):
        assert eta_torus(TorusChargeSetup(0.0, 1e-3, 1.0)) == 0.0
        small = eta_torus(TorusChargeSetup(1e11, 1e-3, 1.0))
        large = eta_torus(TorusChargeSetup(1e11, 2e-3, 1.0))
        assert small == pytest.approx(2.0 * large, rel=1e-12)

    def test_field_at_threshold_follows_coulomb_formula(self):
        # N_e e / rho0^2 at the eta=1 charge and 1 mm radius: ~2e-3 a.u.
        radius = 1e-3
        charges = required_torus_charges(1.0, 1.0, radius)
        value = field_torus(TorusChargeSetup(charges, radius, 1.0))
        assert value == pytest.approx(1.9875e-3, rel=1e-3)
        # cross-check against an independent SI-style evaluation N_e (a0/rho0)^2
        independent = charges * (CONSTANTS.bohr_radius / radius) ** 2
        assert value == pytest.approx(independent, rel=2e-4)

    def test_field_trivial_cases(self):
        assert field_torus(TorusChargeSetup(0.0, 1e-3, 1.0)) == 0.0
        base = field_torus(TorusChargeSetup(1e11, 1e-3, 1.0))
        doubled_radius = field_torus(TorusChargeSetup(1e11, 2e-3, 1.0))
        assert doubled_radius == pytest.approx(base / 4.0, rel=1e-12)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            TorusChargeSetup(-1.0, 1e-3, 1.0)
        with pytest.raises(ValueError):
            TorusChargeSetup(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            required_torus_charges(1.0, 0.0, 1e-3)

    def test_denominator_that_rounds_to_zero_rejected(self):
        # (radius / compton_length)**2 and g * alpha underflow to 0.0: the quotients raised ZeroDivisionError
        with pytest.raises(ValueError, match="torus_radius=1e-320 is too small"):
            field_torus(TorusChargeSetup(1.0, 1e-320, 1.0))
        with pytest.raises(ValueError, match="lande_g=5e-324 is too small"):
            required_torus_charges(1.0, 5e-324, 1e-3)
        assert field_torus(TorusChargeSetup(1.0, 1e-170, 1.0)) > 0.0


class TestCrossedFields:
    def test_per_gauss_constant(self):
        setup = CrossedFieldSetup(static_polarizability=1.0, charges_per_bohr=1.0, magnetic_field=1.0)
        assert eta_cross_field(setup) == pytest.approx(2.127e-10, rel=1e-2)

    def test_zero_field(self):
        assert eta_cross_field(CrossedFieldSetup(300.0, 1.0, 0.0)) == 0.0

    def test_alkali_scale_example_stays_tiny(self):
        # 300 * 1 * 10 gauss * 2.127e-10 = 6.38e-7, far below one
        value = eta_cross_field(CrossedFieldSetup(300.0, 1.0, 10.0))
        assert value == pytest.approx(6.38e-7, rel=1e-3)
        assert value < 1e-6

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            CrossedFieldSetup(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CrossedFieldSetup(1.0, 1.0, -1.0)


def test_outputs_finite_and_nonnegative_for_nonnegative_inputs():
    rng = np.random.default_rng(42)
    for _ in range(50):
        density = float(rng.uniform(0, 1e15))
        g = float(rng.uniform(0.1, 3.0))
        rho = float(rng.uniform(1e-5, 1e-2))
        charges = float(rng.uniform(0, 1e12))
        values = [
            eta_line_charge(LineChargeSetup(density, g, rho)),
            field_line_charge(LineChargeSetup(density, g, rho)),
            eta_torus(TorusChargeSetup(charges, rho, g)),
            field_torus(TorusChargeSetup(charges, rho, g)),
            eta_cross_field(CrossedFieldSetup(charges % 500, g, density % 100)),
        ]
        assert all(np.isfinite(v) and v >= 0 for v in values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_named(bad):
    # nan passed the sign checks, or failed them as "must be > 0", and inf passed them
    cases = [
        (lambda: LineChargeSetup(bad, 1.0), "linear_charge_density"),
        (lambda: LineChargeSetup(1.0, bad), "lande_g"),
        (lambda: LineChargeSetup(1.0, 1.0, bad), "probe_distance"),
        (lambda: TorusChargeSetup(bad, 1e-3), "sphere_charge_count"),
        (lambda: TorusChargeSetup(1.0, bad), "torus_radius"),
        (lambda: TorusChargeSetup(1.0, 1e-3, bad), "lande_g"),
        (lambda: CrossedFieldSetup(bad, 1.0, 1.0), "static_polarizability"),
        (lambda: CrossedFieldSetup(1.0, bad, 1.0), "charges_per_bohr"),
        (lambda: CrossedFieldSetup(1.0, 1.0, bad), "magnetic_field"),
        (lambda: required_line_density(bad, 1.0), "eta_target"),
        (lambda: required_line_density(1.0, bad), "lande_g"),
        (lambda: required_torus_charges(bad, 1.0, 1e-3), "eta_target"),
        (lambda: required_torus_charges(1.0, bad, 1e-3), "lande_g"),
        (lambda: required_torus_charges(1.0, 1.0, bad), "torus_radius"),
    ]
    for build, name in cases:
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
            build()


def test_field_unit_conversion():
    assert field_au_to_volts_per_cm(1.0) == pytest.approx(5.142e9)
    assert field_au_to_volts_per_cm(2e-3) == pytest.approx(1.0284e7)

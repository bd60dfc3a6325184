"""Physical-parameter estimation for the ring gauge phase.

A neutral atom with magnetic moment g_F * mu_B circling a line of electric
charge picks up a geometric phase.  Everything downstream of this module works
with the dimensionless phase per loop, eta; here we convert between eta and
laboratory quantities (linear charge densities, sphere charges, electric and
magnetic field strengths).

Unit conventions
----------------
- linear charge densities: elementary charges per meter (SI-facing); they are
  converted internally to charges per reduced electron Compton length,
  hbar/(m_e c), which is the natural spacing scale of the problem.
- sphere charges: total number of elementary charges.
- crossed-field charge parameter: charges per Bohr radius (note the different
  normalization; the three setup types each name their own convention).
- electric fields: atomic units, 1 a.u. = e/a_0^2 = 5.142e9 V/cm.
- magnetic fields: gauss.

Constants are hard-coded snapshot values with their provenance noted inline;
the estimates they feed are order-of-magnitude feasibility numbers, so a
configurable constants system would be overkill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "LineChargeSetup",
    "TorusChargeSetup",
    "CrossedFieldSetup",
    "eta_line_charge",
    "required_line_density",
    "field_line_charge",
    "field_line_charge_for_eta",
    "eta_torus",
    "required_torus_charges",
    "field_torus",
    "eta_cross_field",
    "field_au_to_volts_per_cm",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Fixed constants used by the estimators.

    fine_structure_alpha   dimensionless, e^2/(hbar c)      [CODATA 2022]
    compton_length         m, hbar/(m_e c)                  [rounded to 5 digits]
    bohr_radius            m, hbar^2/(m_e e^2)              [CODATA 2022]
    au_field_strength      V/cm per atomic unit of field    [rounded to 4 digits]
    zeeman_ratio_per_gauss dimensionless, mu_B * 1 gauss / (e^2/a_0)
    """

    fine_structure_alpha: float = 7.2973525643e-3
    compton_length: float = 3.8616e-13
    bohr_radius: float = 5.29177210544e-11
    au_field_strength: float = 5.142e9
    zeeman_ratio_per_gauss: float = 2.1271911e-10


CONSTANTS = PhysicalConstants()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        _require(math.isfinite(value), f"{name} must be finite, got {value}")


def _divisor(value: float, name: str, given: float) -> float:
    """value, a denominator built from the input name = given; rejected where it rounds to zero."""
    _require(value != 0, f"{name}={given} is too small: a denominator built from it rounds to zero")
    return value


@dataclass(frozen=True)
class LineChargeSetup:
    """Infinite charged line threading the ring.

    linear_charge_density: elementary charges per meter along the line (>= 0)
    lande_g: Lande g_F factor of the trapped state (nonzero, order one)
    probe_distance: radial distance from the line in meters (> 0);
        defaults to 1 mm, a typical ring radius
    """

    linear_charge_density: float
    lande_g: float
    probe_distance: float = 1e-3

    def __post_init__(self) -> None:
        _require_finite(**vars(self))
        _require(self.linear_charge_density >= 0, "linear_charge_density must be >= 0")
        _require(self.lande_g != 0, "lande_g must be nonzero")
        _require(self.probe_distance > 0, "probe_distance must be > 0")


@dataclass(frozen=True)
class TorusChargeSetup:
    """Charged sphere at the center of a toroidal trap.

    sphere_charge_count: total elementary charges on the sphere (>= 0)
    torus_radius: major radius of the torus in meters (> 0)
    lande_g: Lande g_F factor (nonzero)
    """

    sphere_charge_count: float
    torus_radius: float
    lande_g: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(**vars(self))
        _require(self.sphere_charge_count >= 0, "sphere_charge_count must be >= 0")
        _require(self.torus_radius > 0, "torus_radius must be > 0")
        _require(self.lande_g != 0, "lande_g must be nonzero")


@dataclass(frozen=True)
class CrossedFieldSetup:
    """Polarizable atom in crossed electric and magnetic fields.

    static_polarizability: static polarizability in units of a_0^3 (>= 0);
        a few hundred for alkali atoms
    charges_per_bohr: line charge expressed as elementary charges per Bohr
        radius (different normalization from LineChargeSetup, which counts
        per meter)
    magnetic_field: axial trapping field in gauss (>= 0)
    """

    static_polarizability: float
    charges_per_bohr: float
    magnetic_field: float

    def __post_init__(self) -> None:
        _require_finite(**vars(self))
        _require(self.static_polarizability >= 0, "static_polarizability must be >= 0")
        _require(self.magnetic_field >= 0, "magnetic_field must be >= 0")


def eta_line_charge(setup: LineChargeSetup) -> float:
    """Gauge phase per loop around a charged line: eta = N_e * g_F * alpha.

    N_e is the charge count per Compton length, i.e. the meter-based density
    times compton_length.  Exact closed formula, linear in both the density
    and g_F.
    """
    charges_per_compton = setup.linear_charge_density * CONSTANTS.compton_length
    return charges_per_compton * setup.lande_g * CONSTANTS.fine_structure_alpha


def required_line_density(eta_target: float, lande_g: float) -> float:
    """Linear charge density (charges/m) that produces a given eta.

    Inverse of eta_line_charge; the round trip is exact to machine precision.
    eta = 1 with g_F = 1 needs about 3.55e14 charges per meter, i.e. a few
    charges per Compton length.
    """
    _require_finite(eta_target=eta_target, lande_g=lande_g)
    _require(lande_g != 0, "lande_g must be nonzero")
    denominator = lande_g * CONSTANTS.fine_structure_alpha * CONSTANTS.compton_length
    return eta_target / _divisor(denominator, "lande_g", lande_g)


def field_line_charge(setup: LineChargeSetup) -> float:
    """Radial electric field of the line charge at probe_distance, in a.u.

    E = 2 n_e e / rho (Gaussian units), evaluated as
    2 * N_e / rho_bar * (a_0/compton)^2 with N_e the per-Compton-length count
    and rho_bar the distance in Compton lengths.  (a_0/compton)^2 is taken as
    1/alpha^2, which the length ratio equals by definition.
    """
    charges_per_compton = setup.linear_charge_density * CONSTANTS.compton_length
    rho_bar = setup.probe_distance / CONSTANTS.compton_length
    alpha = CONSTANTS.fine_structure_alpha
    return 2.0 * charges_per_compton / rho_bar / alpha**2


def field_line_charge_for_eta(eta_target: float, lande_g: float, probe_distance: float = 1e-3) -> float:
    """Field of the line charge sized to reach eta_target, in a.u.

    Convenience wrapper: plugs required_line_density(eta_target, lande_g)
    into field_line_charge.  At eta = 1, g_F = 1 and 1 mm this is about
    2e-3 a.u.
    """
    density = required_line_density(eta_target, lande_g)
    return field_line_charge(
        LineChargeSetup(linear_charge_density=density, lande_g=lande_g, probe_distance=probe_distance)
    )


def eta_torus(setup: TorusChargeSetup) -> float:
    """Gauge phase per loop for the central-sphere geometry.

    eta = N_e * g_F * alpha / (2 * rho0_bar), with rho0_bar the torus radius
    in Compton lengths.  Valid when the torus tube is much narrower than its
    radius.
    """
    rho0_bar = setup.torus_radius / CONSTANTS.compton_length
    return setup.sphere_charge_count * setup.lande_g * CONSTANTS.fine_structure_alpha / (2.0 * rho0_bar)


def required_torus_charges(eta_target: float, lande_g: float, torus_radius: float) -> float:
    """Sphere charge count that produces a given eta at the given radius.

    Inverse of eta_torus: N_e = 2 * rho0_bar * eta / (g_F * alpha).  Order
    2 rho0_bar / alpha charges for eta near one.
    """
    _require_finite(eta_target=eta_target, lande_g=lande_g, torus_radius=torus_radius)
    _require(lande_g != 0, "lande_g must be nonzero")
    _require(torus_radius > 0, "torus_radius must be > 0")
    rho0_bar = torus_radius / CONSTANTS.compton_length
    return 2.0 * rho0_bar * eta_target / _divisor(lande_g * CONSTANTS.fine_structure_alpha, "lande_g", lande_g)


def field_torus(setup: TorusChargeSetup) -> float:
    """Electric field magnitude inside the torus tube, in a.u.

    Direct Coulomb field of the sphere at the ring: E = N_e e / rho_0^2,
    evaluated as N_e / rho0_bar^2 * (a_0/compton)^2 with (a_0/compton)^2
    taken as 1/alpha^2.  This is the formula value; no rounding to any
    conventional quoted figure is applied.
    """
    rho0_bar = setup.torus_radius / CONSTANTS.compton_length
    alpha = CONSTANTS.fine_structure_alpha
    try:
        square = rho0_bar**2
    except OverflowError:  # from torus_radius of about 5.18e141 m
        raise ValueError(f"torus_radius={setup.torus_radius} is too large: its square in Compton lengths overflows floats") from None
    return setup.sphere_charge_count / _divisor(square, "torus_radius", setup.torus_radius) / alpha**2


def eta_cross_field(setup: CrossedFieldSetup) -> float:
    """Polarization-induced gauge phase in crossed E and B fields.

    eta_ExB = polarizability * N_e * (mu_B B / (e^2/a_0)); the parenthesized
    ratio is 2.127e-10 per gauss.  For realistic polarizabilities and trap
    fields this stays far below one, so the polarization channel never
    competes with the magnetic-moment channel.
    """
    return (
        setup.static_polarizability
        * setup.charges_per_bohr
        * CONSTANTS.zeeman_ratio_per_gauss
        * setup.magnetic_field
    )


def field_au_to_volts_per_cm(field_au: float) -> float:
    """Convert a field strength from atomic units to V/cm."""
    _require(math.isfinite(field_au), "field_au must be finite")
    return field_au * CONSTANTS.au_field_strength

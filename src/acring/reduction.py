"""Dimensional reduction of a thin toroidal condensate to the 1D ring model.

A condensate confined to a torus of major radius rho_0 with Gaussian
transverse profile

    Phi(rho, z) = (2 pi s_rho s_z)^(-1/2) exp[-(rho-rho_0)^2/(4 s_rho^2)
                                              - z^2/(4 s_z^2)]

(s_rho, s_z are the standard deviations of |Phi|^2) reduces to a 1D problem
on the azimuthal angle.  The 1D model is fully specified by two dimensionless
numbers: the gauge phase eta and the interaction strength u_tilde, with all
energies measured in hbar^2 / (2 M rho_0^2).  The transverse degrees of
freedom only contribute a constant chemical-potential offset, which is
reported but never influences which winding number wins.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrapSetup",
    "RingParams",
    "effective_interaction",
    "transverse_kinetic_offset",
    "radial_term_diagnostic",
    "build_ring_params",
]

hbar = 6.62607015e-34 / (2 * math.pi)  # J s, exact SI Planck constant; equals scipy.constants.hbar
_NORMAL_MIN = sys.float_info.min  # least positive normal float


@dataclass(frozen=True)
class TrapSetup:
    """Physical description of the trapped cloud.

    atom_count: condensed atom number N (>= 1)
    scattering_length: s-wave scattering length in meters (any sign; the
        stability analysis downstream requires the resulting u_tilde > 0)
    atom_mass: atomic mass in kg (> 0)
    torus_radius: major radius rho_0 in meters (> 0)
    width_rho: transverse width s_rho in meters (> 0)
    width_z: transverse width s_z in meters (> 0)
    potential_mean: trap potential averaged over the transverse profile, in
        joules; constant along the ring by azimuthal symmetry
    """

    atom_count: float
    scattering_length: float
    atom_mass: float
    torus_radius: float
    width_rho: float
    width_z: float
    potential_mean: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.atom_count < 1:
            raise ValueError("atom_count must be >= 1")
        if self.atom_mass <= 0:
            raise ValueError("atom_mass must be > 0")
        for name in ("torus_radius", "width_rho", "width_z"):
            length = getattr(self, name)
            if length <= 0:
                raise ValueError(f"{name} must be > 0")
            # the reduction squares the lengths and divides by the squares
            if not _NORMAL_MIN <= length * length < math.inf:
                raise ValueError(f"{name} must lie within about 1.5e-154 to 1.3e154 m, where its square is a normal float")
        denominator = 2.0 * self.atom_mass * self.torus_radius * self.torus_radius
        if not _NORMAL_MIN <= denominator < math.inf or not hbar**2 / denominator >= _NORMAL_MIN:
            raise ValueError("atom_mass and torus_radius put the energy unit hbar^2 / (2 M rho_0^2) outside the floats")

    @property
    def energy_unit(self) -> float:
        """Ring energy scale hbar^2 / (2 M rho_0^2) in joules."""
        return hbar**2 / (2.0 * self.atom_mass * self.torus_radius**2)


@dataclass(frozen=True)
class RingParams:
    """The two numbers that define the 1D ring model, plus a reporting offset.

    eta: dimensionless gauge phase per loop
    u_tilde: dimensionless interaction strength, in units of
        hbar^2 / (2 M rho_0^2)
    mu_offset: winding-independent additive part of the chemical potential
        (eta^2/2 term, averaged trap potential, transverse kinetic energy);
        excluded from all state-selection energetics
    """

    eta: float
    u_tilde: float
    mu_offset: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta", "u_tilde", "mu_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def effective_interaction(trap: TrapSetup) -> float:
    """Dimensionless 1D interaction strength u_tilde = 2 N a_sc / (s_rho s_z).

    Starting point is N u_0 / (4 pi rho_0^2 s_rho s_z) with
    u_0 = 4 pi hbar^2 a_sc / M, divided by the ring energy unit
    hbar^2/(2 M rho_0^2); mass, hbar and the torus radius all cancel, leaving
    the two-length form above.
    """
    return 2.0 * trap.atom_count * trap.scattering_length / (trap.width_rho * trap.width_z)


def transverse_kinetic_offset(trap: TrapSetup) -> float:
    """Transverse zero-point kinetic energy in ring units.

    Equals -rho_0^2 <d^2/drho^2 + d^2/dz^2> over the Gaussian profile, which
    for widths s is rho_0^2 (1/(4 s_rho^2) + 1/(4 s_z^2)).  The curvature
    term (1/rho) d/drho of the full cylindrical Laplacian is dropped here;
    radial_term_diagnostic quantifies it.
    """
    rho0 = trap.torus_radius
    return rho0**2 * (0.25 / trap.width_rho**2 + 0.25 / trap.width_z**2)


# Gauss-Legendre panels on each side of rho_0 / 2, and nodes per panel: the
# smallest rule whose error sits at the roundoff floor (10 x 20 and 12 x 18
# leave 8.9e-14 and 6.1e-14 of integral |f| against a 64 x 400 reference)
_RADIAL_PANELS = 10
_RADIAL_NODES = 22


def radial_term_diagnostic(trap: TrapSetup) -> float:
    """Size of the dropped (1/rho) d/drho term, in ring units.

    rho_0^2 times the integral of Phi (1/rho) dPhi/drho over the radial
    profile (the z factor integrates to one), from max(rho_0 - 12 s,
    1e-9 rho_0) to rho_0 + 12 s.  Small against transverse_kinetic_offset
    exactly when the thin-torus condition s_rho << rho_0 holds; users should
    check this before trusting the reduction.

    The rule is composite Gauss-Legendre, 10 panels of 22 nodes a side:
    log-spaced panels in rho from the cutoff up to rho_0 / 2 (toward the
    cutoff the integrand goes like 1/rho), and equal panels in rho - rho_0
    from there to rho_0 + 12 s (only these when the cutoff lies above
    rho_0 / 2).  Past s_rho = 3 rho_0 equal panels, 12 s wide in all, no
    longer follow the 1/rho just above rho_0 / 2, and the panels above
    rho_0 / 2 are log-spaced in rho as well, each spanning at most a factor
    e^2 (10 panels up to s_rho / rho_0 of about 1e7, more beyond).  The
    value is within 3e-15 of integral |f| from a 64 x 400 panel reference
    for s_rho / rho_0 from 1e-4 to 1e20.  Where the range is
    symmetric about rho_0 (s_rho <= rho_0 / 24) the integrand
    -Phi^2 d / (2 s^2 rho), d = rho - rho_0, is taken as
    Phi^2 d^2 / (2 s^2 rho_0 rho): the two differ by an odd function of d,
    which integrates to zero.  That leaves nothing to cancel, and at the
    thinnest tori the value lies within 1e-15 of its limit 1/2 (the excess
    is about 1.5 (s_rho / rho_0)^2).  On a thicker torus the two signed
    halves, each about integral |f| ~ rho_0 / s, cancel, hence the bound
    against integral |f|.
    Raises ValueError where the integrand overflows the floats (a torus
    far thicker than its radius, at lengths near the float range).
    """
    from numpy.polynomial.legendre import leggauss  # loaded only when a reduction asks for this diagnostic

    s = trap.width_rho
    rho0 = trap.torus_radius
    x, w = leggauss(_RADIAL_NODES)

    def panels(edges):
        half = 0.5 * np.diff(edges)[:, np.newaxis]
        return (edges[:-1, np.newaxis] + half + half * x).ravel(), (half * w).ravel()

    if s > 3.0 * rho0:
        # panels at most a factor e^2 wide, placed by rho: the integrand varies on the scale of rho itself
        top = rho0 + 12.0 * s
        count = max(_RADIAL_PANELS, math.ceil((math.log(top) - math.log(0.5 * rho0)) / 2.0))
        r, weights = panels(np.geomspace(0.5 * rho0, top, count + 1))
        d = r - rho0
    else:
        # nodes near rho_0 are placed by their offset d = rho - rho_0 and nodes
        # near the cutoff by rho itself, so neither loses digits to a difference
        d, weights = panels(np.linspace(-min(12.0 * s, 0.5 * rho0), 12.0 * s, _RADIAL_PANELS + 1))
        r = rho0 + d
    # on a range symmetric about rho_0, -d / rho = -d / rho_0 + d^2 / (rho_0 rho) and
    # the odd first part integrates to zero, so only a positive integrand is left
    numerator = d * d / rho0
    if 12.0 * s > 0.5 * rho0:
        r_low, w_low = panels(np.geomspace(max(rho0 - 12.0 * s, 1e-9 * rho0), 0.5 * rho0, _RADIAL_PANELS + 1))
        d = np.concatenate((r_low - rho0, d))
        r = np.concatenate((r_low, r))
        weights = np.concatenate((w_low, weights))
        numerator = -d
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned
        integrand = numerator / (2.0 * s**2) * (2.0 * math.pi * s**2) ** -0.5 * np.exp(-(d**2) / (2.0 * s**2)) / r
        value = rho0**2 * float(weights @ integrand)
    if not math.isfinite(value):
        raise ValueError("the radial-term diagnostic overflows the floats at this width_rho and torus_radius")
    return value


def build_ring_params(trap: TrapSetup, eta: float) -> RingParams:
    """Assemble RingParams for a trap at a given gauge phase.

    u_tilde comes from effective_interaction; mu_offset collects the
    winding-independent constants eta^2/2, the averaged trap potential in
    ring units, and the transverse kinetic term.
    """
    try:  # RingParams names a non-finite eta
        gauge = eta**2 / 2.0
    except OverflowError:  # past |eta| of about 1.34e154
        raise ValueError(f"eta={eta} is too large: eta**2 overflows floats") from None
    offset = gauge + trap.potential_mean / trap.energy_unit + transverse_kinetic_offset(trap)
    return RingParams(eta=eta, u_tilde=effective_interaction(trap), mu_offset=offset)

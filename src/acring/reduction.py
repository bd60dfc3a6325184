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
from dataclasses import dataclass

__all__ = [
    "TrapSetup",
    "RingParams",
    "effective_interaction",
    "transverse_kinetic_offset",
    "radial_term_diagnostic",
    "build_ring_params",
]

hbar = 6.62607015e-34 / (2 * math.pi)  # J s, exact SI Planck constant; equals scipy.constants.hbar


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
        if self.atom_count < 1:
            raise ValueError("atom_count must be >= 1")
        if self.atom_mass <= 0:
            raise ValueError("atom_mass must be > 0")
        for name in ("torus_radius", "width_rho", "width_z"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

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


def _radial_profile(trap: TrapSetup):
    """Normalized radial factor of the transverse Gaussian and its derivative."""
    s = trap.width_rho
    rho0 = trap.torus_radius
    norm = (2.0 * math.pi * s**2) ** -0.25

    def phi(rho: float) -> float:
        return norm * math.exp(-((rho - rho0) ** 2) / (4.0 * s**2))

    def dphi(rho: float) -> float:
        return -(rho - rho0) / (2.0 * s**2) * phi(rho)

    return phi, dphi


def radial_term_diagnostic(trap: TrapSetup) -> float:
    """Size of the dropped (1/rho) d/drho term, in ring units.

    Numerical quadrature of rho_0^2 * integral of Phi (1/rho) dPhi/drho over
    the radial profile (the z factor integrates to one).  Small against
    transverse_kinetic_offset exactly when the thin-torus condition
    s_rho << rho_0 holds; users should check this before trusting the
    reduction.
    """
    from scipy.integrate import quad  # scipy loads only when a reduction asks for this diagnostic

    phi, dphi = _radial_profile(trap)
    s = trap.width_rho
    rho0 = trap.torus_radius
    lo = max(rho0 - 12.0 * s, 1e-9 * rho0)  # keep the integrand off rho = 0
    hi = rho0 + 12.0 * s
    value, _ = quad(lambda r: phi(r) * dphi(r) / r, lo, hi, limit=200)
    return rho0**2 * value


def build_ring_params(trap: TrapSetup, eta: float) -> RingParams:
    """Assemble RingParams for a trap at a given gauge phase.

    u_tilde comes from effective_interaction; mu_offset collects the
    winding-independent constants eta^2/2, the averaged trap potential in
    ring units, and the transverse kinetic term.
    """
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    offset = eta**2 / 2.0 + trap.potential_mean / trap.energy_unit + transverse_kinetic_offset(trap)
    return RingParams(eta=eta, u_tilde=effective_interaction(trap), mu_offset=offset)

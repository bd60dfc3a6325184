"""Reduction module: algebraic identities and quadrature oracles.

The closed forms are only trusted against independent numerics: the
interaction strength against the unsimplified hbar/M expression, and the
transverse kinetic offset against a finite-difference + tensor-trapezoid
quadrature of the Gaussian ansatz.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.constants import hbar

from acring import reduction
from acring.reduction import (
    RingParams,
    TrapSetup,
    build_ring_params,
    effective_interaction,
    radial_term_diagnostic,
    transverse_kinetic_offset,
)

SODIUM_MASS = 3.8175e-26  # kg


def _trap(**overrides) -> TrapSetup:
    values = dict(
        atom_count=1e6,
        scattering_length=2.75e-9,
        atom_mass=SODIUM_MASS,
        torus_radius=1e-3,
        width_rho=10e-6,
        width_z=10e-6,
        potential_mean=0.0,
    )
    values.update(overrides)
    return TrapSetup(**values)


def interaction_unsimplified(trap: TrapSetup) -> float:
    """Oracle: N u0 / (4 pi rho0^2 s_rho s_z) in units of hbar^2/(2 M rho0^2)."""
    u0 = 4.0 * math.pi * hbar**2 * trap.scattering_length / trap.atom_mass
    raw = trap.atom_count * u0 / (4.0 * math.pi * trap.torus_radius**2 * trap.width_rho * trap.width_z)
    return raw / (hbar**2 / (2.0 * trap.atom_mass * trap.torus_radius**2))


def transverse_profile(rho, z, trap):
    norm = 1.0 / math.sqrt(2.0 * math.pi * trap.width_rho * trap.width_z)
    return norm * np.exp(
        -((rho - trap.torus_radius) ** 2) / (4.0 * trap.width_rho**2) - z**2 / (4.0 * trap.width_z**2)
    )


def kinetic_offset_quadrature(trap: TrapSetup) -> float:
    """Oracle: -rho0^2 * integral Phi (d2/drho2 + d2/dz2) Phi by FD + trapezoid."""
    span = 8.0
    n = 601
    rho = np.linspace(trap.torus_radius - span * trap.width_rho, trap.torus_radius + span * trap.width_rho, n)
    z = np.linspace(-span * trap.width_z, span * trap.width_z, n)
    rr, zz = np.meshgrid(rho, z, indexing="ij")
    h_rho = trap.width_rho * 1e-3
    h_z = trap.width_z * 1e-3
    phi = transverse_profile(rr, zz, trap)
    d2rho = (transverse_profile(rr + h_rho, zz, trap) - 2 * phi + transverse_profile(rr - h_rho, zz, trap)) / h_rho**2
    d2z = (transverse_profile(rr, zz + h_z, trap) - 2 * phi + transverse_profile(rr, zz - h_z, trap)) / h_z**2
    integrand = phi * (d2rho + d2z)
    inner = np.trapezoid(integrand, z, axis=1)
    return -trap.torus_radius**2 * float(np.trapezoid(inner, rho))


class TestEffectiveInteraction:
    def test_simplified_form_matches_unsimplified_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            trap = _trap(
                atom_count=float(rng.uniform(1, 1e7)),
                scattering_length=float(rng.uniform(-5e-9, 5e-9)),
                atom_mass=float(rng.uniform(1e-27, 3e-25)),
                torus_radius=float(rng.uniform(1e-5, 1e-2)),
                width_rho=float(rng.uniform(1e-7, 1e-4)),
                width_z=float(rng.uniform(1e-7, 1e-4)),
            )
            assert effective_interaction(trap) == pytest.approx(interaction_unsimplified(trap), rel=1e-12)

    def test_worked_example(self):
        trap = _trap(atom_count=1e6, scattering_length=3e-9, width_rho=10e-6, width_z=10e-6)
        assert effective_interaction(trap) == pytest.approx(6e7, rel=1e-12)

    def test_ideal_gas_is_noninteracting(self):
        assert effective_interaction(_trap(atom_count=1, scattering_length=0.0)) == 0.0

    def test_sodium_like_example(self):
        assert effective_interaction(_trap()) == pytest.approx(5.5e7, rel=1e-12)


class TestTransverseKineticOffset:
    def test_symmetric_widths(self):
        trap = _trap(width_rho=5e-6, width_z=5e-6)
        expected = trap.torus_radius**2 / (2.0 * (5e-6) ** 2)
        assert transverse_kinetic_offset(trap) == pytest.approx(expected, rel=1e-13)

    def test_matches_quadrature_oracle_on_grid(self):
        cases = [
            (2e-6, 2e-6, 1e-4),
            (2e-6, 8e-6, 1e-4),
            (8e-6, 2e-6, 1e-4),
            (5e-6, 5e-6, 5e-4),
            (5e-6, 20e-6, 5e-4),
            (10e-6, 10e-6, 1e-3),
            (10e-6, 40e-6, 1e-3),
            (40e-6, 10e-6, 1e-3),
            (20e-6, 20e-6, 2e-3),
            (20e-6, 80e-6, 2e-3),
        ]
        for width_rho, width_z, radius in cases:
            trap = _trap(width_rho=width_rho, width_z=width_z, torus_radius=radius)
            assert transverse_kinetic_offset(trap) == pytest.approx(
                kinetic_offset_quadrature(trap), rel=1e-6
            )

    def test_wide_axial_limit_decouples(self):
        trap = _trap(width_rho=5e-6, width_z=5.0)
        expected = trap.torus_radius**2 / (4.0 * (5e-6) ** 2)
        assert transverse_kinetic_offset(trap) == pytest.approx(expected, rel=1e-9)

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            _trap(width_rho=0.0)
        with pytest.raises(ValueError):
            _trap(width_z=-1e-6)


class TestRadialTermDiagnostic:
    def test_thin_torus_value_is_half(self):
        # by parts the dropped term equals rho0^2 <1/(2 rho^2)> -> 1/2
        trap = _trap(width_rho=1e-6, torus_radius=1e-3)
        assert radial_term_diagnostic(trap) == pytest.approx(0.5, rel=1e-2)

    def test_small_against_kinetic_offset_when_thin(self):
        trap = _trap(width_rho=1e-6, torus_radius=1e-3)
        assert radial_term_diagnostic(trap) < 1e-4 * transverse_kinetic_offset(trap)


class TestBuildRingParams:
    def test_offset_for_symmetric_ideal_gas(self):
        trap = _trap(atom_count=1, scattering_length=0.0, width_rho=10e-6, width_z=10e-6)
        params = build_ring_params(trap, eta=0.0)
        assert params.u_tilde == 0.0
        assert params.mu_offset == pytest.approx(trap.torus_radius**2 / (2.0 * (10e-6) ** 2), rel=1e-13)

    def test_eta_adds_half_eta_squared(self):
        trap = _trap(atom_count=1, scattering_length=0.0)
        base = build_ring_params(trap, eta=0.0).mu_offset
        assert build_ring_params(trap, eta=1.0).mu_offset == pytest.approx(base + 0.5, rel=1e-13)

    def test_potential_shift_moves_offset_by_exactly_that_constant(self):
        trap = _trap()
        shift_joules = 3.7e-31
        before = build_ring_params(trap, eta=0.2).mu_offset
        after = build_ring_params(_trap(potential_mean=shift_joules), eta=0.2).mu_offset
        assert after - before == pytest.approx(shift_joules / trap.energy_unit, rel=1e-12)

    def test_full_example_carries_interaction(self):
        params = build_ring_params(_trap(), eta=0.3)
        assert params.eta == 0.3
        assert params.u_tilde == pytest.approx(5.5e7, rel=1e-12)


def test_ring_params_validation():
    with pytest.raises(ValueError):
        RingParams(eta=math.nan, u_tilde=1.0)
    with pytest.raises(ValueError):
        RingParams(eta=0.0, u_tilde=math.inf)


def test_trap_validation():
    with pytest.raises(ValueError):
        _trap(atom_count=0)
    with pytest.raises(ValueError):
        _trap(torus_radius=0.0)
    with pytest.raises(ValueError):
        _trap(atom_mass=-1.0)


def test_hbar_equals_scipy_bit_for_bit():
    assert reduction.hbar == hbar


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported on first use of the quadrature diagnostic only
    src = os.path.dirname(os.path.dirname(reduction.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, acring.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"

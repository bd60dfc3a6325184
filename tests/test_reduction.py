"""Reduction module: algebraic identities and quadrature oracles.

The closed forms are only trusted against independent numerics: the
interaction strength against the unsimplified hbar/M expression, and the
transverse kinetic offset against a finite-difference + tensor-trapezoid
quadrature of the Gaussian ansatz.
"""

import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.constants import hbar
from scipy.integrate import quad

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


def radial_integrand(r, d, r0, s):
    """The diagnostic's integrand Phi Phi'/rho at rho = r, given also as the offset d = rho - rho0."""
    return -d / (2.0 * s**2) * (2.0 * math.pi * s**2) ** -0.5 * np.exp(-(d**2) / (2.0 * s**2)) / r


@functools.cache
def gauss_legendre(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def radial_reference(r0: float, s: float, panels: int = 64, nodes: int = 400) -> tuple[float, float]:
    """Oracle: (rho0^2 * integral, rho0^2 * integral of |integrand|) by a fine composite Gauss-Legendre rule.

    Built apart from the library's rule, by substitution: below rho0 / 2
    in t = ln rho (equal panels in t), above it in u = (rho - rho0) / s, or
    past s = 3 rho0 in t again: there the integrand's 1/rho just above
    rho0 / 2 is narrow on the scale of s.
    """
    x, w = gauss_legendre(nodes)

    def rule(a, b):
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)[:, np.newaxis]
        return (edges[:-1, np.newaxis] + half + half * x).ravel(), (half * w).ravel()

    if s > 3.0 * r0:
        t, wt = rule(math.log(0.5 * r0), math.log(r0 + 12.0 * s))
        r = np.exp(t)
        f = radial_integrand(r, r - r0, r0, s) * r * wt
    else:
        u, wu = rule(-min(12.0, 0.5 * r0 / s), 12.0)
        f = radial_integrand(r0 + s * u, s * u, r0, s) * s * wu
    if 12.0 * s > 0.5 * r0:
        t, wt = rule(math.log(max(r0 - 12.0 * s, 1e-9 * r0)), math.log(0.5 * r0))
        r = np.exp(t)
        f = np.concatenate((radial_integrand(r, r - r0, r0, s) * r * wt, f))
    return r0**2 * float(f.sum()), r0**2 * float(np.abs(f).sum())


def radial_by_quad(r0: float, s: float) -> float:
    lo, hi = max(r0 - 12.0 * s, 1e-9 * r0), r0 + 12.0 * s
    return r0**2 * quad(lambda r: radial_integrand(r, r - r0, r0, s), lo, hi, limit=200)[0]


# s_rho / rho0 log-spaced over the thin-torus range and well past it; a
# radius of 1 m puts rho0 on a binade edge, where nodes placed by rho alone
# lose digits of rho - rho0
RADIAL_RATIOS = np.geomspace(1e-4, 3.0, 40).tolist()
# past 3 the panels above rho0 / 2 are log-spaced, and from about 1e7 on there are more of them
WIDE_RATIOS = [3.0000001, *np.geomspace(4.0, 1e20, 25).tolist()]
RADIAL_RADII = (1e-5, 1e-3, 1.0)


class TestRadialTermDiagnostic:
    # the value is what is left after the integrand's two signed halves, each
    # about integral |f| ~ rho0 / s, cancel, so every bound is taken against
    # integral |f| and not against the value

    def test_matches_fine_composite_reference(self):
        for r0 in RADIAL_RADII:
            for ratio in RADIAL_RATIOS:
                value, scale = radial_reference(r0, ratio * r0)
                got = radial_term_diagnostic(_trap(torus_radius=r0, width_rho=ratio * r0))
                assert abs(got - value) <= 3e-15 * scale, (r0, ratio)

    def test_thick_torus_matches_fine_composite_reference(self):
        # equal panels in rho - rho0 were off by 2.5e-9, 1.2e-4 and 6.1e-4 of integral |f| at 10, 100 and 1000
        for r0 in RADIAL_RADII:
            for ratio in WIDE_RATIOS:
                value, scale = radial_reference(r0, ratio * r0)
                got = radial_term_diagnostic(_trap(torus_radius=r0, width_rho=ratio * r0))
                assert abs(got - value) <= 3e-15 * scale, (r0, ratio)

    def test_matches_scipy_quad(self):
        for r0 in RADIAL_RADII:
            for ratio in RADIAL_RATIOS:
                _, scale = radial_reference(r0, ratio * r0)
                got = radial_term_diagnostic(_trap(torus_radius=r0, width_rho=ratio * r0))
                assert abs(got - radial_by_quad(r0, ratio * r0)) <= 1e-10 * scale, (r0, ratio)

    @pytest.mark.parametrize("ratio", [0.3, 0.5, 1.0])
    def test_wide_torus_that_one_panel_misses(self, ratio):
        # the integrand's 1/rho toward the 1e-9 rho0 cutoff defeats a single
        # Gauss-Legendre panel over the whole range once s_rho / rho0 >= 0.2
        r0, s = 1e-3, ratio * 1e-3
        value, scale = radial_reference(r0, s)
        x, w = gauss_legendre(64)
        lo, hi = max(r0 - 12.0 * s, 1e-9 * r0), r0 + 12.0 * s
        r = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        one_panel = r0**2 * 0.5 * (hi - lo) * float(w @ radial_integrand(r, r - r0, r0, s))
        assert abs(one_panel - value) > 1e-2 * scale
        assert abs(radial_term_diagnostic(_trap(torus_radius=r0, width_rho=s)) - value) <= 1e-13 * scale

    def test_thin_torus_value_is_half(self):
        # by parts the dropped term equals rho0^2 <1/(2 rho^2)> -> 1/2
        trap = _trap(width_rho=1e-6, torus_radius=1e-3)
        assert radial_term_diagnostic(trap) == pytest.approx(0.5, rel=1e-2)

    @pytest.mark.parametrize("ratio", [1e-7, 1e-10, 1e-12])
    @pytest.mark.parametrize("r0", RADIAL_RADII)
    def test_very_thin_torus_is_half_to_roundoff(self, r0, ratio):
        # the excess over 1/2 is about 1.5 (s / rho0)^2, below the bound; the signed
        # integrand's two halves, each about rho0 / s, cancelled to 1/2 + 6e-6 at 1e-12
        assert abs(radial_term_diagnostic(_trap(torus_radius=r0, width_rho=ratio * r0)) - 0.5) <= 1e-13

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


# one invocation of every subcommand; numeric ones on small inputs
EVERY_SUBCOMMAND = [
    ["estimate", "--geometry", "line", "--eta-target", "1", "--g-f", "1"],
    ["reduce", "--atoms", "1e6", "--scattering-length", "2.75e-9", "--mass", "3.8175e-26",
     "--radius", "1e-3", "--width-rho", "1e-5", "--width-z", "1e-5", "--eta", "0.5"],
    ["ground", "--eta", "0.7", "--u-tilde-over-2pi", "2"],
    ["solve", "--eta", "0.7", "--u-tilde-over-2pi", "2", "--global"],
    ["staircase", "--eta", "0:1:0.5", "--u-tilde-over-2pi", "2", "--mode", "numeric"],
    ["landscape", "--m", "0", "--eta", "0.3", "--u-tilde", "1", "--x-step", "0.5", "--peaks-output", "peaks.csv"],
    ["hysteresis", "--eta", "0:1:0.5", "--loop", "--u-tilde-over-2pi", "0.2"],
]


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # scipy is a test-only oracle: importing the CLI loads none of it, and
    # with scipy made unimportable every subcommand still runs
    src = os.path.dirname(os.path.dirname(reduction.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = "sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None)"
    code = f"import sys, acring.cli; print({loaded})"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"

    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None  # every import of scipy now raises ImportError",
        "from acring.cli import main",
        f"codes = [main(argv + ['--output', 'out' + str(i)]) for i, argv in enumerate({EVERY_SUBCOMMAND!r})]",
        f"print(codes, {loaded})",
    ])
    env.pop("ACRING_OUTPUT_DIR", None)  # the relative outputs land in tmp_path
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"{[0] * len(EVERY_SUBCOMMAND)} []"
    assert {path.name for path in tmp_path.iterdir()} == {"peaks.csv"} | {f"out{i}" for i in range(len(EVERY_SUBCOMMAND))}

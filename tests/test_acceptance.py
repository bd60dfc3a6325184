"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The numeric staircase (the expensive item) is produced once by a
module fixture that invokes the CLI twice; the determinism criterion
compares the two files byte for byte and the staircase criterion parses the
first.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from acring.cli import main
from acring.reduction import RingParams, effective_interaction, transverse_kinetic_offset
from acring.ring import MixedState, barrier, ground_winding, mu_mixed
from acring.solver import SolverSettings, relax
from acring.sweeps import StaircaseSpec, eta_grid, hysteresis, staircase
from acring.units import (
    CrossedFieldSetup,
    eta_cross_field,
    field_line_charge_for_eta,
    required_line_density,
)
from test_reduction import _trap, interaction_unsimplified, kinetic_offset_quadrature

TWO_PI = 2.0 * math.pi
U_FIG = 2.0 * TWO_PI  # u_tilde/(2 pi) = 2, the stability-figure value

STAIRCASE_ARGS = [
    "staircase",
    "--eta",
    "0:3:0.05",
    "--u-tilde-over-2pi",
    "2",
    "--weight",
    "1",
    "--mode",
    "numeric",
    "--format",
    "csv",
]


@pytest.fixture(scope="module")
def staircase_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("staircase")
    first = base / "run1.csv"
    second = base / "run2.csv"
    assert main(STAIRCASE_ARGS + ["--output", str(first)]) == 0
    assert main(STAIRCASE_ARGS + ["--output", str(second)]) == 0
    return first, second


def test_criterion_1_units_fidelity():
    density = required_line_density(1.0, 1.0)
    assert abs(density - 3.55e14) <= 0.01 * 3.55e14

    per_gauss = eta_cross_field(CrossedFieldSetup(1.0, 1.0, 1.0))
    assert abs(per_gauss - 2.1e-10) <= 0.02 * 2.1e-10

    field = field_line_charge_for_eta(1.0, 1.0, probe_distance=1e-3)
    assert 1.7e-3 <= field <= 2.1e-3
    print("\nACCEPTANCE 1 (units fidelity): PASS")


def test_criterion_2_staircase_reproduction(staircase_runs):
    first, _ = staircase_runs
    lines = first.read_text().splitlines()
    assert lines[0] == "eta,winding_T0,classical_mean,thermal_mean,mu_eff,degenerate"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 61
    checked = 0
    for row in rows:
        eta, winding, degenerate = float(row[0]), int(row[1]), row[5] == "true"
        expected = ground_winding(RingParams(eta=eta, u_tilde=U_FIG))
        assert winding == expected.winding, f"numeric winding {winding} != analytic {expected.winding} at eta={eta}"
        assert degenerate == expected.degenerate, f"degenerate flag differs at eta={eta}"
        checked += 1
    assert checked == 61  # the half-integer ties included
    print("\nACCEPTANCE 2 (staircase reproduction): PASS")


def test_criterion_3_oracle_mu_equivalence():
    for eta, m in [(0.3, 0), (0.7, 1), (2.4, 2)]:
        params = RingParams(eta=eta, u_tilde=U_FIG)
        report = relax(params, SolverSettings(seed_winding=m))
        assert report.converged
        analytic = (m - eta) ** 2 + U_FIG / TWO_PI
        assert abs(report.mu - analytic) <= 1e-8 * abs(analytic)
    print("\nACCEPTANCE 3 (numeric/analytic mu equivalence): PASS")


def test_criterion_4_barrier_landscape():
    params = RingParams(eta=0.5, u_tilde=U_FIG)
    xs = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    values = np.array([mu_mixed(MixedState(0, float(x)), params) for x in xs])
    peak_index = int(np.argmax(values))
    assert abs(xs[peak_index] - 0.5) <= 1e-4
    assert abs(values[peak_index] - 3.25) <= 1e-10
    assert abs(values[0] - 2.25) <= 1e-12
    assert abs(values[-1] - 2.25) <= 1e-12

    rng = np.random.default_rng(101)
    for _ in range(100):
        u = float(10 ** rng.uniform(-0.7, 1.3))
        m = int(rng.integers(-3, 4))
        eta = m + 0.5 - float(rng.uniform(-0.99, 0.99)) * u / TWO_PI
        p = RingParams(eta=eta, u_tilde=u)
        info = barrier(m, p)
        assert info is not None
        direct = mu_mixed(MixedState(m, info.x_peak), p)
        assert abs(info.mu_peak - direct) <= 1e-12 * max(1.0, abs(direct))
    print("\nACCEPTANCE 4 (barrier landscape): PASS")


def test_criterion_5_reduction_oracle():
    grid = [
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
    for width_rho, width_z, radius in grid:
        trap = _trap(width_rho=width_rho, width_z=width_z, torus_radius=radius)
        closed = transverse_kinetic_offset(trap)
        oracle = kinetic_offset_quadrature(trap)
        assert abs(closed - oracle) <= 1e-6 * abs(oracle)

    rng = np.random.default_rng(55)
    for _ in range(20):
        trap = _trap(
            atom_count=float(rng.uniform(1, 1e7)),
            scattering_length=float(rng.uniform(-5e-9, 5e-9)),
            atom_mass=float(rng.uniform(1e-27, 3e-25)),
            torus_radius=float(rng.uniform(1e-5, 1e-2)),
            width_rho=float(rng.uniform(1e-7, 1e-4)),
            width_z=float(rng.uniform(1e-7, 1e-4)),
        )
        simplified = effective_interaction(trap)
        unsimplified = interaction_unsimplified(trap)
        assert abs(simplified - unsimplified) <= 1e-12 * max(1.0, abs(unsimplified))
    print("\nACCEPTANCE 5 (reduction oracle): PASS")


def test_criterion_6_property_suites():
    # the descent's energy never rises, every iteration, five random scenarios
    rng = np.random.default_rng(77)
    for _ in range(5):
        params = RingParams(
            eta=float(rng.uniform(-1, 2.5)), u_tilde=float(rng.uniform(0.2, 3)) * TWO_PI
        )
        rng.uniform(1e-4, 1e-2)  # once a time step; drawn still, so the scenarios stay the same
        settings = SolverSettings(
            noise_amplitude=1e-2,
            seed_winding=int(rng.integers(-1, 2)),
            max_iterations=1500,
            rng_seed=int(rng.integers(0, 1000)),
        )
        history = relax(params, settings).energy_history
        slack = 1e-12 * np.maximum(1.0, np.abs(history[:-1]))
        assert np.all(history[1:] <= history[:-1] + slack)

    # normalization restored to 1e-12 after every step, up to and past convergence
    p6 = RingParams(eta=0.4, u_tilde=U_FIG)
    noisy = SolverSettings(seed_winding=1, noise_amplitude=0.2)
    for iterations in range(1, 41):
        report = relax(p6, replace(noisy, max_iterations=iterations))
        assert abs(report.wavefunction.norm_squared() - 1.0) <= 1e-12
    assert report.converged and report.iterations < 40

    # gauge covariance: eta -> eta+1 with shifted seed gives identical density
    settings = SolverSettings(noise_amplitude=1e-3, max_iterations=3000)
    low = relax(RingParams(eta=0.3, u_tilde=U_FIG), replace(settings, seed_winding=0))
    high = relax(RingParams(eta=1.3, u_tilde=U_FIG), replace(settings, seed_winding=1))
    assert float(np.max(np.abs(low.wavefunction.density() - high.wavefunction.density()))) <= 1e-10
    assert high.winding - low.winding == 1

    # thermal endpoint laws, exact
    for eta0 in (0.0, 0.3, 0.7, 1.2):
        full = staircase(StaircaseSpec(eta0, eta0, 1.0, u_tilde=U_FIG, condensate_weight=1.0))
        none = staircase(StaircaseSpec(eta0, eta0, 1.0, u_tilde=U_FIG, condensate_weight=0.0))
        assert full["thermal_mean"].tolist() == full["winding_T0"].tolist()
        assert none["thermal_mean"].tolist() == [eta0]

    # hysteresis flip points at m + 1/2 +/- u/(2 pi) within one grid step
    u_small = 0.2 * TWO_PI
    step = 0.05
    up = hysteresis(eta_grid(0.0, 1.0, step), u_small, start_winding=0)
    down = hysteresis(list(reversed(eta_grid(0.0, 1.0, step))), u_small, start_winding=1)
    flip_up = up["eta"][1:][np.diff(up["winding"]) != 0][0]
    flip_down = down["eta"][1:][np.diff(down["winding"]) != 0][0]
    assert abs(flip_up - 0.7) <= step + 1e-12
    assert abs(flip_down - 0.3) <= step + 1e-12
    print("\nACCEPTANCE 6 (property suites): PASS")


def test_criterion_7_cli_determinism(staircase_runs):
    first, second = staircase_runs
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().splitlines()) == 62  # header + 61 rows
    print("\nACCEPTANCE 7 (CLI byte determinism): PASS")

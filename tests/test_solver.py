"""Ground-state solver: spectral exactness, descent, winding, search."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from acring import solver
from acring.reduction import RingParams
from acring.ring import ground_winding, plane_mu
from acring.solver import (
    GroundStateReport,
    RingWavefunction,
    SolverSettings,
    apply_hamiltonian,
    dump_wavefunction,
    global_ground,
    global_grounds,
    mode_numbers,
    phi_grid,
    relax,
)
from acring.solver import _ENERGY_SLACK, _HALVINGS, _pick_grounds, _relax_batch, _report, _windings

TWO_PI = 2.0 * math.pi


def params(eta, u_over_2pi=2.0):
    return RingParams(eta=eta, u_tilde=u_over_2pi * TWO_PI)


def plane_wave(winding, grid_size):
    """The unit plane wave e^{i m phi} / sqrt(2 pi) on the grid."""
    return RingWavefunction(np.exp(1j * winding * phi_grid(grid_size)) / math.sqrt(TWO_PI))


def winding_of(amplitudes):
    """_windings on one state: (turns, whether it has a density node)."""
    (turns,), (node,) = _windings(np.asarray(amplitudes)[None])
    return turns, node


def batch(u_tilde, settings, pairs):
    """_relax_batch on (eta, seed winding) pairs, one report per row."""
    etas, seeds = zip(*pairs)
    psi, rows = _relax_batch(u_tilde, settings, etas, seeds)
    return [_report(psi, rows, i) for i in range(len(pairs))]


def pick_ground(reports, tolerance):
    """The scalar tie rule that _pick_grounds applies to arrays, kept as its oracle.

    reports come in SEED_SHIFTS order, nearest the analytic centre first.
    The pool is the converged reports (all of them when none converged).
    A report ties with the lowest energy E when it lies at most
    _ENERGY_SLACK * max(1, |E|) + (tolerance * max(1, |mu|))**2 above it,
    mu that of the lowest report; ties go to the lower winding, and within
    that winding the first report of the pool that ended there wins.
    """
    pool = [r for r in reports if r.converged] or reports
    lowest = min(pool, key=lambda r: r.energy_per_particle)
    energy = lowest.energy_per_particle
    bound = _ENERGY_SLACK * max(1.0, abs(energy)) + (tolerance * max(1.0, abs(lowest.mu))) ** 2
    winding = min(r.winding for r in pool if r.energy_per_particle <= energy + bound)
    return next(r for r in pool if r.winding == winding)


def pick_rows(pools, tolerance):
    """_pick_grounds on equal-sized pools of (winding, mu, energy, converged), as the index within each pool."""
    seeds = len(pools[0])
    winding, mu, energy, converged = zip(*(row for pool in pools for row in pool))
    rows = {
        "winding": np.array(winding, dtype=np.int64),
        "mu": np.array(mu),
        "energy_per_particle": np.array(energy),
        "converged": np.array(converged, dtype=bool),
    }
    return (_pick_grounds(rows, seeds, tolerance) - seeds * np.arange(len(pools))).tolist()


@st.composite
def seed_pools(draw):
    """(tolerance, pools): equal-sized pools of (winding, mu, energy, converged), centre first.

    Each pool's energies sit at multiples of the tie bound above or below a
    base energy (0 and 1 give exact ties and rows exactly on the bound),
    some rows carry another mu, and any row may be unconverged.
    """
    tolerance = draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    seeds = draw(st.integers(1, 5))
    pools = []
    for _ in range(draw(st.integers(1, 4))):
        energy = draw(st.sampled_from([-3.0, 0.0, 0.7, 2.0, 1e3]))
        mu = draw(st.sampled_from([0.5, 3.0, 40.0]))
        unit = _ENERGY_SLACK * max(1.0, abs(energy)) + (tolerance * max(1.0, mu)) ** 2
        pool = []
        for _ in range(seeds):
            factor = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 3.0, -0.5, -1.0, 1e6]))
            pool.append((
                draw(st.integers(-2, 2)),
                draw(st.sampled_from([mu, mu, 10.0 * mu])),
                energy + factor * unit,
                draw(st.booleans()),
            ))
        pools.append(pool)
    return tolerance, pools


def converged_ground(p):
    # global_ground reports a miss as converged=False; these tests need a hit
    report = global_ground(p)
    assert report.converged
    return report


class TestApplyHamiltonian:
    @pytest.mark.parametrize("grid_size", [64, 128, 256, 1024])
    def test_plane_wave_eigenvalue_exact(self, grid_size):
        rng = np.random.default_rng(grid_size)
        for _ in range(5):
            m = int(rng.integers(-5, 6))
            p = params(float(rng.uniform(-2, 3)), float(rng.uniform(0, 4)))
            psi = plane_wave(m, grid_size)
            image = apply_hamiltonian(psi, p)
            eigenvalue = (np.vdot(psi.amplitudes, image.amplitudes) * TWO_PI / grid_size).real
            assert eigenvalue == pytest.approx(plane_mu(m, p.eta, p.u_tilde), rel=1e-12)
            # pointwise residual limited by spectral leakage amplified by (G/2)^2
            residual = np.max(np.abs(image.amplitudes - plane_mu(m, p.eta, p.u_tilde) * psi.amplitudes))
            assert residual < 1e-13 * (grid_size / 2) ** 2 + 1e-12

    def test_free_rotor_eigenvalue(self):
        psi = plane_wave(3, 256)
        image = apply_hamiltonian(psi, RingParams(eta=0.0, u_tilde=0.0))
        eigenvalue = (np.vdot(psi.amplitudes, image.amplitudes) * TWO_PI / 256).real
        assert eigenvalue == pytest.approx(9.0, rel=1e-12)
        np.testing.assert_allclose(image.amplitudes, 9.0 * psi.amplitudes, atol=1e-10)

    def test_hermiticity_on_random_state(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            raw = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            psi = RingWavefunction(raw / math.sqrt(RingWavefunction(raw).norm_squared()))
            image = apply_hamiltonian(psi, params(0.7, 1.3))
            overlap = np.vdot(psi.amplitudes, image.amplitudes) * TWO_PI / 128
            assert abs(overlap.imag) < 1e-12

    def test_rejects_unnormalized_input(self):
        psi = RingWavefunction(np.ones(64, dtype=complex))
        with pytest.raises(ValueError):
            apply_hamiltonian(psi, params(0.0))


class TestRelax:
    def test_uniform_seed_is_exact_fixed_point(self):
        report = relax(params(0.3), SolverSettings())
        assert report.converged
        assert report.iterations == 1  # the seed is the plane wave: its residual already passes
        assert report.winding == 0
        assert report.mu == pytest.approx(0.09 + 2.0, rel=1e-8)
        assert report.mu == pytest.approx(plane_mu(0, 0.3, params(0.3).u_tilde), rel=1e-12)

    def test_metastable_sectors_at_eta_07(self):
        low = relax(params(0.7), SolverSettings(seed_winding=1))
        high = relax(params(0.7), SolverSettings(seed_winding=0))
        assert low.converged and high.converged
        assert low.winding == 1 and high.winding == 0
        assert low.mu == pytest.approx(2.09, rel=1e-8)
        assert high.mu == pytest.approx(2.49, rel=1e-8)
        assert low.mu < high.mu

    def test_free_gas_with_noisy_seed_relaxes_to_uniform(self):
        settings = SolverSettings(noise_amplitude=1e-3, tolerance=1e-16)
        report = relax(RingParams(eta=0.0, u_tilde=0.0), settings)
        assert report.converged
        assert report.winding == 0
        assert abs(report.mu) < 1e-10
        density = report.wavefunction.density() * TWO_PI
        assert float(np.max(np.abs(density - 1.0))) < 1e-6

    def test_nonconvergence_is_reported_not_silent(self):
        report = relax(params(0.45), SolverSettings(noise_amplitude=1e-3, max_iterations=5))
        assert not report.converged
        assert report.iterations == 5

    def test_huge_interaction_ends_as_a_miss(self):
        # the imaginary-time step overflowed here and raised; from this seed
        # the descent does not converge within 50,000 iterations, and running
        # out of iterations is a reported miss
        settings = SolverSettings(seed_winding=2, noise_amplitude=1e-3, max_iterations=200)
        report = relax(RingParams(eta=0.3, u_tilde=1e12), settings)
        assert not report.converged
        assert report.iterations == 200
        assert math.isfinite(report.mu) and math.isfinite(report.energy_per_particle)

    def test_azimuthal_potential_hook(self):
        # weak cos(phi) potential: converged state must satisfy (H + V) psi = mu psi
        g = 256
        v = 0.05 * np.cos(phi_grid(g))
        p = params(0.0, 1.0)
        report = relax(p, SolverSettings(noise_amplitude=1e-3, tolerance=1e-14), potential=v)
        assert report.converged
        psi = report.wavefunction
        image = apply_hamiltonian(psi, p).amplitudes + v * psi.amplitudes
        residual = np.max(np.abs(image - report.mu * psi.amplitudes))
        assert residual < 1e-5
        # Rayleigh quotient <psi|(H + V) psi>, from the independent apply_hamiltonian
        mu_check = (np.vdot(psi.amplitudes, image) * TWO_PI / g).real
        assert report.mu == pytest.approx(mu_check, rel=1e-10)

    def test_stops_past_the_mu_turning_point_under_a_potential(self):
        # the imaginary-time flow passes a turning point of mu 165 steps in;
        # a stall test on mu alone stopped there with a residual of 1.6e-2,
        # and stall tests on mu and the energy stopped at 2.5e-5 with mu
        # biased by the time step.  The residual rule reaches the eigenstate.
        g = 256
        v = 0.05 * np.cos(phi_grid(g))
        p = params(0.3)
        report = relax(p, SolverSettings(), potential=v)
        assert report.converged
        psi = report.wavefunction.amplitudes
        image = apply_hamiltonian(report.wavefunction, p).amplitudes + (v - report.mu) * psi
        residual = math.sqrt(float(np.sum(np.abs(image) ** 2)) * TWO_PI / g)
        assert residual <= 1e-9

    def test_random_potentials_reach_eigenstates_monotonically(self):
        # independent of the descent: (H + V - mu) psi from apply_hamiltonian,
        # and an energy that never rises past roundoff
        g = 256
        rng = np.random.default_rng(11)
        for _ in range(6):
            eta = float(rng.uniform(-2, 2))
            p = params(eta, float(rng.uniform(0.5, 3)))
            v = float(rng.uniform(0.02, 0.3)) * np.cos(phi_grid(g) - rng.uniform(0, TWO_PI))
            seed = int(np.floor(eta + 0.5)) + int(rng.integers(-1, 2))
            settings = SolverSettings(seed_winding=seed, noise_amplitude=float(rng.choice([0.0, 1e-3])))
            report = relax(p, settings, potential=v)
            assert report.converged
            psi = report.wavefunction.amplitudes
            image = apply_hamiltonian(report.wavefunction, p).amplitudes + (v - report.mu) * psi
            assert math.sqrt(float(np.sum(np.abs(image) ** 2)) * TWO_PI / g) <= 1e-9
            hist = report.energy_history
            assert hist.size == report.iterations
            assert np.all(hist[1:] <= hist[:-1] + 1e-13 * np.maximum(1.0, np.abs(hist[:-1])))

    def test_potential_shape_validated(self):
        with pytest.raises(ValueError):
            relax(params(0.0), SolverSettings(), potential=np.zeros(100))
        potential = np.zeros(256)
        potential[3] = math.nan
        with pytest.raises(ValueError, match="potential must be finite"):
            relax(params(0.0), SolverSettings(), potential=potential)


class TestWindingNumber:
    """_windings, the readout _relax_batch runs on its final states."""

    def test_plane_waves(self):
        assert winding_of(plane_wave(5, 256).amplitudes) == (5, False)
        assert winding_of(plane_wave(0, 256).amplitudes) == (0, False)
        assert winding_of(plane_wave(-3, 128).amplitudes) == (-3, False)

    def test_constant_state(self):
        assert winding_of(np.full(64, 1.0 + 0.0j)) == (0, False)

    def test_node_is_flagged(self):
        amps = np.exp(1j * phi_grid(64))
        amps[10] = 0.0
        assert winding_of(amps)[1]

    def test_survives_small_admixture(self):
        phi = phi_grid(256)
        amps = np.exp(2j * phi) + 0.05 * np.exp(3j * phi)
        assert winding_of(amps / math.sqrt(RingWavefunction(amps).norm_squared())) == (2, False)

    def test_batch_readout_falls_back_to_the_dominant_mode_at_a_node(self, monkeypatch):
        # the batch reads every row's winding in one pass; a row through a density node has
        # none and reports its dominant angular mode instead
        phi = phi_grid(128)
        states = np.array([
            np.exp(3j * phi),
            0.6 * np.exp(1j * phi) + 0.4 * np.exp(-2j * phi),  # node-free, winding 1
            np.exp(-1j * phi) * (1.0 + np.exp(1j * phi)) * (1.0 + 0.25 * np.exp(1j * phi)),  # node at pi; mode 0 leads
            np.exp(-3j * phi) * (1.0 - np.exp(1j * phi)) * (1.0 + 0.5 * np.exp(1j * phi)),  # node at 0; mode -3 leads
        ])

        def descend(spec, *args):
            rows = len(spec)
            return states, np.zeros(rows), np.zeros(rows), np.ones(rows, dtype=int), np.ones(rows, dtype=bool)

        monkeypatch.setattr(solver, "_descend", descend)
        reports = batch(1.0, SolverSettings(grid_size=128), [(0.0, 0)] * len(states))
        assert [r.winding for r in reports] == [3, 1, 0, -3]
        turns, node = _windings(states)
        assert turns[:2].tolist() == [3, 1]
        assert node.tolist() == [False, False, True, True]


class TestGlobalGround:
    def test_batch_seeds_roll_one_noise_draw(self):
        # every row starts from the same noise pattern, drawn relative to its seed winding
        # and rolled to it, normalized on its own: the bits of building each seed alone
        settings = SolverSettings(noise_amplitude=1e-2, max_iterations=1, rng_seed=11)
        seeds = [(0.3, 0), (1.3, 1), (0.3, -2), (-0.7, 5)]
        reports = batch(params(0.0).u_tilde, settings, seeds)
        g = settings.grid_size
        for (_, m0), report in zip(seeds, reports):
            rng = np.random.default_rng(settings.rng_seed)
            coeffs = np.zeros(g, dtype=np.complex128)
            coeffs += settings.noise_amplitude * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
            coeffs[0] += 1.0
            coeffs = np.roll(coeffs, m0)
            coeffs = coeffs / math.sqrt(TWO_PI * float((coeffs.real**2 + coeffs.imag**2).sum()) / g**2)
            assert report.iterations == 1 and not report.converged  # the seed itself comes back
            np.testing.assert_array_equal(report.wavefunction.amplitudes, np.fft.ifft(coeffs))

    def test_matches_analytic_around_step(self):
        assert converged_ground(params(0.49)).winding == 0
        assert converged_ground(params(0.51)).winding == 1

    def test_integer_eta_keeps_plateau_mu(self):
        report = converged_ground(params(2.0))
        assert report.winding == 2
        assert report.mu == pytest.approx(2.0, rel=1e-6)

    def test_noisy_search_lands_on_nearest_integer(self):
        report = converged_ground(params(2.4))
        assert report.winding == ground_winding(params(2.4)).winding == 2

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.49, 0.51, 1.0, 1.7, 2.4, 3.0])
    def test_oracle_equivalence_sampled(self, eta):
        assert converged_ground(params(eta)).winding == ground_winding(params(eta)).winding

    @pytest.mark.parametrize(
        "eta", [half + offset for half in (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5) for offset in (0.0, 1e-9, -1e-9, 1e-7, -1e-7)]
    )
    def test_half_integer_ties_resolve_like_analytic(self, eta):
        # an exact half-integer ties and goes to the lower winding; 1e-9 off it
        # the gap of 2e-9 is resolved and picks the nearer one
        assert converged_ground(params(eta)).winding == ground_winding(params(eta)).winding

    @pytest.mark.parametrize("u_over_2pi", [0.2, 2.0])
    @pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9, 1e-7, -1e-7])
    def test_tie_points_are_gauge_covariant(self, offset, u_over_2pi):
        # eta -> eta + k shifts the winding by exactly k, at a tie as off it
        shifts = range(-2, 3)
        columns = global_grounds([0.5 + offset + k for k in shifts], u_over_2pi * TWO_PI)
        assert columns["converged"].all()
        base = columns["winding"][2]
        assert columns["winding"].tolist() == [base + k for k in shifts]

    def test_batch_rows_match_standalone_relax(self):
        # rows at two different eta share one batch and converge at different
        # iterations; relax runs the same descent on a single row, so each
        # row gives relax's bits
        settings = SolverSettings(noise_amplitude=1e-3, tolerance=1e-14)
        rows = [(0.3, 0), (0.3, 1), (1.7, 2), (1.7, 1)]
        for (eta, seed), report in zip(rows, batch(params(0.0).u_tilde, settings, rows)):
            single = relax(params(eta), replace(settings, seed_winding=seed))
            assert report.converged and single.converged
            assert report.winding == single.winding
            assert report.mu == single.mu
            assert report.iterations == single.iterations
            np.testing.assert_array_equal(report.wavefunction.amplitudes, single.wavefunction.amplitudes)

    def test_batch_row_does_not_depend_on_its_neighbours(self):
        # a row's direction, step angle and stopping iteration are its own: alone or
        # inside a mixed batch (rows converging before and after it, other
        # eta, other sectors) it gives the same bits
        settings = SolverSettings(noise_amplitude=1e-3)
        u = params(0.0).u_tilde
        target = (0.3, 1)
        others = [(-0.5, 0), (1.7, 2), (0.3, 0), (2.4, 4), (0.5000001, 1), (-1.2, -3)]
        (alone,) = batch(u, settings, [target])
        for position in (0, 3, len(others)):
            mixed = batch(u, settings, others[:position] + [target] + others[position:])
            report = mixed[position]
            assert report.mu == alone.mu
            assert report.energy_per_particle == alone.energy_per_particle
            assert report.iterations == alone.iterations
            np.testing.assert_array_equal(report.wavefunction.amplitudes, alone.wavefunction.amplitudes)

    def test_rows_that_halve_beside_rows_that_step(self, monkeypatch):
        # in one iteration some rows take their first trial step while others halve it:
        # the accepted rows are written in place and only the rest are tried again
        settings = SolverSettings(noise_amplitude=1e-3)
        rows = [(0.3, 0), (0.75, 2), (-1.25, 0), (1.7, 2)]
        calls = []
        energies, ifft = solver._energies, np.fft.ifft

        def count_energies(spec, *rest):
            calls.append(("energies", len(spec)))
            return energies(spec, *rest)

        def count_ifft(a, *rest, **kwargs):
            calls.append(("ifft", len(a)))
            return ifft(a, *rest, **kwargs)

        monkeypatch.setattr(solver, "_energies", count_energies)
        monkeypatch.setattr(np.fft, "ifft", count_ifft)
        reports = batch(params(0.0).u_tilde, settings, rows)
        monkeypatch.undo()
        # an iteration transforms the live rows' directions, tries them all, then tries again those that halve
        tries = [
            (calls[i + 1][1], calls[i + 2][1])
            for i in range(len(calls) - 2)
            if calls[i][0] == "ifft" and calls[i + 1][0] == calls[i + 2][0] == "energies"
        ]
        assert any(0 < halving < tried for tried, halving in tries)
        for (eta, seed), report in zip(rows, reports):
            single = relax(params(eta), replace(settings, seed_winding=seed))
            assert report.converged and single.converged
            assert report.mu == single.mu
            assert report.energy_per_particle == single.energy_per_particle
            assert report.iterations == single.iterations
            np.testing.assert_array_equal(report.wavefunction.amplitudes, single.wavefunction.amplitudes)

    def test_batch_rows_are_eigenstates(self):
        # independent of the descent: every converged row satisfies
        # H psi = mu psi and sits on the closed-form plane-wave mu, at the
        # default tolerance
        settings = SolverSettings(noise_amplitude=1e-3)
        rows = [(0.3, 0), (0.3, 1), (1.7, 2), (1.7, 1)]
        reports = batch(params(0.0).u_tilde, settings, rows)
        assert all(report.converged for report in reports)
        for (eta, _), report in zip(rows, reports):
            psi = report.wavefunction
            image = apply_hamiltonian(psi, params(eta)).amplitudes
            assert np.max(np.abs(image - report.mu * psi.amplitudes)) < 1e-9
            assert report.mu == pytest.approx(plane_mu(report.winding, eta, params(eta).u_tilde), rel=1e-9)

    def test_batch_rows_stop_at_the_fixed_point_not_at_a_turning_point(self):
        # under restarted momentum these rows passed a turning point of mu
        # while their energy still fell; a stall test on mu alone stopped
        # them there, 2.5e-6 to 2.5e-5 above the closed form
        rows = [(0.0, -2), (0.55, 2), (0.65, 2)]
        reports = batch(params(0.0).u_tilde, SolverSettings(noise_amplitude=1e-3), rows)
        for (eta, _), report in zip(rows, reports):
            assert report.converged
            assert abs(report.mu - plane_mu(report.winding, eta, params(eta).u_tilde)) < 1e-7

    def test_pick_within_a_winding_takes_the_seed_nearest_the_centre(self):
        # each pool comes centre-first (SEED_SHIFTS order); a row is (winding, mu, energy, converged)
        tolerance = SolverSettings().tolerance

        def seed(winding, energy, converged=True):
            return winding, energy + 1.0, energy, converged

        # the centre seed and the +1 seed both relaxed into winding 0, a roundoff
        # apart, and the -1 seed stayed a real gap of 1e-9 above: whichever of the
        # two in winding 0 lies lower, the centre seed is the pick
        pools = [
            [seed(0, centre), seed(-1, 2.0 + 1e-9), seed(0, other)]
            for centre, other in ((2.0 + 5e-14, 2.0), (2.0, 2.0 + 5e-14))
        ]
        # winding -1 ties with winding 0 and wins as the lower winding; within it
        # the first seed that ended there wins, not the lower energy
        pools.append([seed(0, 2.0 - 5e-14), seed(-1, 2.0 + 5e-14), seed(-1, 2.0)])
        # unconverged seeds are passed over while one converged
        pools.append([seed(0, 2.0 - 5e-14), seed(-1, 2.0 + 5e-14, converged=False), seed(-1, 2.0)])
        assert pick_rows(pools, tolerance) == [0, 0, 1, 2]
        for pool, expected in zip(pools, [0, 0, 1, 2]):  # each point alone picks the same row
            assert pick_rows([pool], tolerance) == [expected]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(seed_pools())
    @hypothesis.example((1e-10, [[(0, 2.0, 2.0, False), (-1, 2.0, 2.0, False), (1, 3.0, 1.0, False)]]))
    @hypothesis.example((1e-6, [[(1, 1.0, 2.0, True), (-1, 1.0, 2.0, True), (0, 1.0, 2.0 + 1.2e-12, True)]]))
    def test_array_pick_matches_the_scalar_rule(self, pool_draw):
        # exact ties, ties within and on the bound, unconverged seeds and points with none
        # converged: the array pick takes the row the scalar rule takes
        tolerance, pools = pool_draw
        expected = []
        for pool in pools:
            reports = [
                SimpleNamespace(winding=w, mu=mu, energy_per_particle=e, converged=c) for w, mu, e, c in pool
            ]
            picked = pick_ground(reports, tolerance)
            expected.append(next(i for i, r in enumerate(reports) if r is picked))
        assert pick_rows(pools, tolerance) == expected

    @pytest.mark.parametrize("u_over_2pi", [0.2, 1.0, 2.0, 5.0])
    def test_search_matches_ground_winding_at_and_next_to_half_integers(self, u_over_2pi):
        # negative eta, exact half-integers and 1e-7 either side of them, one batch per interaction
        etas = [-1.8, -0.3, 0.2, 1.1] + [h + d for h in (-2.5, -1.5, -0.5, 0.5, 1.5) for d in (0.0, 1e-7, -1e-7)]
        columns = global_grounds(etas, u_over_2pi * TWO_PI)
        assert columns["converged"].all()
        assert columns["winding"].tolist() == [ground_winding(params(eta, u_over_2pi)).winding for eta in etas]

    def test_two_more_seeds_change_no_report(self, monkeypatch):
        # the seeds two sectors out never win: with them back in (after the three,
        # so the centre-first order holds) every column and every picked state keeps its bits
        etas = [-1.5, -0.65, 0.5000001, 1.3]
        cases = [(u_over_2pi, [params(eta, u_over_2pi) for eta in etas]) for u_over_2pi in (0.5, 2.0)]

        def search():
            return [
                (global_grounds(etas, u_over_2pi * TWO_PI), [global_ground(p) for p in points])
                for u_over_2pi, points in cases
            ]

        three = search()
        monkeypatch.setattr(solver, "SEED_SHIFTS", (*solver.SEED_SHIFTS, -2, 2))
        five = search()
        for (columns_a, reports_a), (columns_b, reports_b) in zip(three, five):
            for name, column in columns_a.items():
                assert column.dtype == columns_b[name].dtype
                np.testing.assert_array_equal(column, columns_b[name])
            for a, b, i in zip(reports_a, reports_b, range(len(etas))):
                assert (a.winding, a.mu, a.energy_per_particle, a.iterations, a.converged) == (
                    b.winding, b.mu, b.energy_per_particle, b.iterations, b.converged
                ) == tuple(columns_a[name][i].item() for name in solver._COLUMNS)
                np.testing.assert_array_equal(a.wavefunction.amplitudes, b.wavefunction.amplitudes)

    def test_global_ground_owns_its_row(self):
        # the report keeps one row of G amplitudes, not a view of its chunk's stack,
        # and records no energy history: only relax does
        reports = [global_ground(params(eta)) for eta in (-0.4, 0.3, 1.5)]
        for report in reports:
            amplitudes = report.wavefunction.amplitudes
            assert amplitudes.base is None and amplitudes.shape == (256,)
            assert report.energy_history.size == 0

    def test_unconverged_point_reported_not_raised(self):
        starved = SolverSettings(noise_amplitude=1e-3, max_iterations=3)
        columns = global_grounds([0.3], params(0.3).u_tilde, starved)
        assert columns["converged"].tolist() == [False]
        assert columns["iterations"].tolist() == [3]
        single = global_ground(params(0.3), starved)
        assert not single.converged
        assert single.winding == columns["winding"][0]
        assert single.iterations == 3
        empty = global_grounds([], params(0.3).u_tilde, starved)
        assert list(empty) == ["winding", "mu", "energy_per_particle", "iterations", "converged"]
        assert [column.shape for column in empty.values()] == [(0,)] * 5
        assert [column.dtype for column in empty.values()] == [np.int64, np.float64, np.float64, np.int64, bool]

    def test_non_finite_eta_or_u_tilde_rejected_before_any_descent(self, monkeypatch):
        # RingParams rejects these for global_ground; global_grounds takes plain floats
        def descend(*args):
            raise AssertionError("a chunk was relaxed before the rejection")

        monkeypatch.setattr("acring.solver._descend", descend)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="eta must be finite"):
                global_grounds([0.3] * 300 + [bad], params(0.3).u_tilde)
            with pytest.raises(ValueError, match="u_tilde must be finite"):
                global_grounds([0.3], bad)

    def test_seeds_past_the_grid_rejected_before_any_descent(self, monkeypatch):
        # the seeds reach max|shift| windings past [eta], and a 256-point grid holds
        # |m0| < 128: eta 127.6 - reach puts the last seed on 128; the points before
        # it fill whole chunks, none of which may be relaxed in vain
        reach = max(map(abs, solver.SEED_SHIFTS))
        eta = round(127.6 - reach, 1)
        u = params(0.3).u_tilde

        def descend(*args):
            raise AssertionError("a chunk was relaxed before the rejection")

        monkeypatch.setattr("acring.solver._descend", descend)
        with pytest.raises(ValueError, match=rf"eta={eta} .*\|m0\| = 128, .*grid_size=256"):
            global_grounds([0.3] * 300 + [eta], u)
        # a half-integer goes to the lower winding, so -(31.5 - reach) reaches -32
        with pytest.raises(ValueError, match=r"\|m0\| = 32, but grid_size=64 holds only \|m0\| < 32"):
            global_ground(params(-(31.5 - reach)), SolverSettings(grid_size=64, noise_amplitude=1e-3))
        # one winding inside, the seeds fit, on either side
        monkeypatch.undo()
        assert len(global_grounds([eta - 1], u, SolverSettings(max_iterations=1))["winding"]) == 1
        inside = -(31.5 - reach) + 1e-9
        assert global_ground(params(inside), SolverSettings(grid_size=64, max_iterations=1)).iterations == 1

    def test_search_memory_grows_by_its_columns_only(self, monkeypatch):
        # two points per chunk, one iteration each: past its chunks the search keeps
        # its columns (33 bytes a point), not a report or a row per point
        monkeypatch.setattr(solver, "_BATCH_AMPLITUDES", 2 * len(solver.SEED_SHIFTS) * 256)
        settings = SolverSettings(noise_amplitude=1e-3, max_iterations=1)

        def peak(points):
            etas = np.linspace(-2.0, 2.0, points)
            tracemalloc.start()
            try:
                global_grounds(etas, TWO_PI, settings)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(40)  # first-call caches
        small, large = peak(40), peak(400)
        assert large - small <= 1024 * (400 - 40)


class TestFlowProperties:
    def test_descent_energy_never_rises(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = params(float(rng.uniform(-1, 2.5)), float(rng.uniform(0.2, 3)))
            rng.uniform(1e-4, 1e-2)  # once a time step; drawn still, so the scenarios stay the same
            settings = SolverSettings(
                noise_amplitude=1e-2,
                seed_winding=int(rng.integers(-1, 2)),
                max_iterations=2000,
                rng_seed=int(rng.integers(0, 1000)),
            )
            report = relax(p, settings)
            hist = report.energy_history
            slack = 1e-12 * np.maximum(1.0, np.abs(hist[:-1]))
            assert np.all(hist[1:] <= hist[:-1] + slack)

    def test_norm_restored_after_every_step(self):
        # the state after every iteration of a noisy descent, up to and past convergence
        settings = SolverSettings(seed_winding=1, noise_amplitude=0.3, rng_seed=37)
        for iterations in range(1, 41):
            report = relax(params(0.4), replace(settings, max_iterations=iterations))
            assert abs(report.wavefunction.norm_squared() - 1.0) < 1e-12
        assert report.converged and report.iterations < 40

    def test_diverging_row_ends_as_a_miss_without_warnings(self):
        # the residual overflows at the first iteration: the row leaves there with its
        # seed, the last state it accepted.  It raised ArithmeticError before; left to
        # iterate, it would run all 50,000 iterations
        settings = SolverSettings(seed_winding=1, noise_amplitude=0.3, rng_seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (1e300, 1e308):
                p = RingParams(eta=0.3, u_tilde=u)
                for report in (relax(p, settings), global_ground(p)):
                    assert not report.converged and report.iterations == 1
                    assert abs(report.wavefunction.norm_squared() - 1.0) < 1e-12
                    assert np.isfinite(report.wavefunction.amplitudes).all()
                columns = global_grounds([0.0, 0.25, 0.5], u)
                assert columns["converged"].tolist() == [False] * 3
                assert columns["iterations"].tolist() == [1] * 3

    def test_gauge_covariance_exact_shift(self):
        settings = SolverSettings(noise_amplitude=1e-3, max_iterations=3000)
        low = relax(params(0.3), replace(settings, seed_winding=0))
        high = relax(params(1.3), replace(settings, seed_winding=1))
        np.testing.assert_allclose(
            low.wavefunction.density(), high.wavefunction.density(), atol=1e-10
        )
        assert high.winding == low.winding + 1

    def test_noise_free_seed_never_leaves_its_sector(self):
        p = params(0.7)
        for m0 in (-1, 0, 2):
            # the plane wave is an eigenstate: it comes back at the first iteration
            report = relax(p, SolverSettings(seed_winding=m0))
            assert report.converged and report.iterations == 1 and report.winding == m0
            plane = plane_wave(m0, 256).amplitudes
            assert np.max(np.abs(report.wavefunction.amplitudes - plane)) < 1e-14
            # held to a residual it cannot reach, the descent keeps it in its sector
            for iterations in (2, 5, 30):
                held = relax(p, SolverSettings(seed_winding=m0, tolerance=1e-300, max_iterations=iterations))
                assert held.iterations == iterations
                assert winding_of(held.wavefunction.amplitudes) == (m0, False)
                assert held.winding == m0

    def test_a_row_that_takes_no_step_twice_stops_halving(self, monkeypatch):
        # the plane wave is a stationary point the residual test cannot accept at
        # tolerance 1e-300: no trial lowers its energy, so every iteration would
        # spend all _HALVINGS trials on it and leave it where it was
        calls = []
        trial = solver._trial
        monkeypatch.setattr(solver, "_trial", lambda *args: calls.append(1) or trial(*args))
        settings = SolverSettings(tolerance=1e-300, max_iterations=300)
        report = relax(params(0.7), settings)
        assert len(calls) <= 2 * _HALVINGS
        assert report.iterations == 300 and not report.converged and report.winding == 0
        history = report.energy_history
        assert history.size == 300 and np.all(history == history[0])
        assert np.max(np.abs(report.wavefunction.amplitudes - plane_wave(0, 256).amplitudes)) < 1e-14
        # the state is the one the first iteration left, as a run stopped there reports it
        first = relax(params(0.7), replace(settings, max_iterations=2))
        assert report.wavefunction.amplitudes.tobytes() == first.wavefunction.amplitudes.tobytes()
        assert (report.mu, report.energy_per_particle) == (first.mu, first.energy_per_particle)

    def test_mu_exceeds_energy_by_half_quartic(self):
        for eta in (0.2, 0.7, 1.4):
            report = relax(params(eta), SolverSettings(noise_amplitude=1e-3))
            dens = report.wavefunction.density()
            quart = float((dens * dens).sum()) * TWO_PI / report.wavefunction.grid_size
            gap = report.mu - report.energy_per_particle
            assert gap >= 0.0
            assert gap == pytest.approx(0.5 * params(eta).u_tilde * quart, rel=1e-10)


class TestTypesAndSettings:
    def test_grid_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            SolverSettings(grid_size=100)
        with pytest.raises(ValueError):
            SolverSettings(grid_size=32)
        with pytest.raises(ValueError, match="between 64 and 65536"):
            SolverSettings(grid_size=2**30)  # a power of two, but above the cap
        assert SolverSettings(grid_size=2**16).grid_size == 2**16
        with pytest.raises(ValueError):
            RingWavefunction(np.ones(48, dtype=complex))
        with pytest.raises(ValueError, match="amplitudes must be a 1D array"):
            RingWavefunction(np.ones((2, 64), dtype=complex))

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(tolerance=-1e-10)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance must be finite"):
                SolverSettings(tolerance=bad)
            with pytest.raises(ValueError, match="noise_amplitude must be finite"):
                SolverSettings(noise_amplitude=bad)
        with pytest.raises(ValueError):
            SolverSettings(noise_amplitude=-1e-3)
        with pytest.raises(ValueError):
            SolverSettings(max_iterations=0)
        with pytest.raises(ValueError):
            SolverSettings(seed_winding=200, grid_size=256)
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            SolverSettings(rng_seed=-1)

    def test_mode_numbers_convention(self):
        k = mode_numbers(64)
        assert k[0] == 0 and k[31] == 31
        assert k[32] == -32 and k[63] == -1

    def test_plane_wave_normalized(self):
        psi = plane_wave(2, 128)
        assert abs(psi.norm_squared() - 1.0) < 1e-12


def test_dump_wavefunction_round_trips(tmp_path):
    report = relax(params(0.7), SolverSettings(seed_winding=1))
    path = tmp_path / "psi.txt"
    dump_wavefunction(report.wavefunction, path)
    data = np.loadtxt(path)
    assert data.shape == (256, 3)
    np.testing.assert_allclose(data[:, 0], phi_grid(256), atol=1e-15)
    reloaded = data[:, 1] + 1j * data[:, 2]
    np.testing.assert_allclose(reloaded, report.wavefunction.amplitudes, atol=1e-15)

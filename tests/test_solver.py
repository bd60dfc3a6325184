"""Ground-state solver: spectral exactness, descent, winding, search."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from acring import solver
from acring.reduction import RingParams
from acring.ring import ground_winding, mu_uniform
from acring.solver import (
    GroundStateReport,
    RingWavefunction,
    SolverSettings,
    apply_hamiltonian,
    dump_wavefunction,
    global_ground,
    global_grounds,
    imaginary_time_step,
    mode_numbers,
    phi_grid,
    relax,
    winding_number,
)
from acring.solver import _pick_ground, _relax_batch

TWO_PI = 2.0 * math.pi


def params(eta, u_over_2pi=2.0):
    return RingParams(eta=eta, u_tilde=u_over_2pi * TWO_PI)


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
            psi = RingWavefunction.plane_wave(m, grid_size)
            image = apply_hamiltonian(psi, p)
            eigenvalue = (np.vdot(psi.amplitudes, image.amplitudes) * TWO_PI / grid_size).real
            assert eigenvalue == pytest.approx(mu_uniform(m, p), rel=1e-12)
            # pointwise residual limited by spectral leakage amplified by (G/2)^2
            residual = np.max(np.abs(image.amplitudes - mu_uniform(m, p) * psi.amplitudes))
            assert residual < 1e-13 * (grid_size / 2) ** 2 + 1e-12

    def test_free_rotor_eigenvalue(self):
        psi = RingWavefunction.plane_wave(3, 256)
        image = apply_hamiltonian(psi, RingParams(eta=0.0, u_tilde=0.0))
        eigenvalue = (np.vdot(psi.amplitudes, image.amplitudes) * TWO_PI / 256).real
        assert eigenvalue == pytest.approx(9.0, rel=1e-12)
        np.testing.assert_allclose(image.amplitudes, 9.0 * psi.amplitudes, atol=1e-10)

    def test_hermiticity_on_random_state(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            raw = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            psi = RingWavefunction(raw).normalized()
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
        assert report.mu == pytest.approx(mu_uniform(0, params(0.3)), rel=1e-12)

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


class TestWindingNumber:
    def test_plane_waves(self):
        assert winding_number(RingWavefunction.plane_wave(5, 256)) == 5
        assert winding_number(RingWavefunction.plane_wave(0, 256)) == 0
        assert winding_number(RingWavefunction.plane_wave(-3, 128)) == -3

    def test_constant_state(self):
        psi = RingWavefunction(np.full(64, 1.0 + 0.0j))
        assert winding_number(psi) == 0

    def test_node_raises(self):
        amps = np.exp(1j * phi_grid(64))
        amps[10] = 0.0
        with pytest.raises(ValueError, match="node"):
            winding_number(RingWavefunction(amps))

    def test_survives_small_admixture(self):
        phi = phi_grid(256)
        amps = np.exp(2j * phi) + 0.05 * np.exp(3j * phi)
        assert winding_number(RingWavefunction(amps).normalized()) == 2

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
        reports = _relax_batch(1.0, SolverSettings(grid_size=128), [(0.0, 0)] * len(states))
        assert [r.winding for r in reports] == [3, 1, 0, -3]
        assert [winding_number(RingWavefunction(a)) for a in states[:2]] == [3, 1]
        for amplitudes in states[2:]:
            with pytest.raises(ValueError, match="node"):
                winding_number(RingWavefunction(amplitudes))


class TestGlobalGround:
    def test_batch_seeds_roll_one_noise_draw(self):
        # every row starts from the same noise pattern, drawn relative to its seed winding
        # and rolled to it, normalized on its own: the bits of building each seed alone
        settings = SolverSettings(noise_amplitude=1e-2, max_iterations=1, rng_seed=11)
        seeds = [(0.3, 0), (1.3, 1), (0.3, -2), (-0.7, 5)]
        reports = _relax_batch(params(0.0).u_tilde, settings, seeds)
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

    @pytest.mark.parametrize("eta", [0.5, 1.5, 2.5])
    def test_half_integer_ties_resolve_like_analytic(self, eta):
        # lower |winding| numeric tie-break coincides with the analytic
        # lower-integer rule for positive eta
        assert converged_ground(params(eta)).winding == ground_winding(params(eta)).winding

    def test_batch_rows_match_standalone_relax(self):
        # rows at two different eta share one batch and converge at different
        # iterations; relax runs the same descent on a single row, so each
        # row gives relax's bits
        settings = SolverSettings(noise_amplitude=1e-3, tolerance=1e-14)
        rows = [(0.3, 0), (0.3, 1), (1.7, 2), (1.7, 1)]
        batch = _relax_batch(params(0.0).u_tilde, settings, rows)
        for (eta, seed), report in zip(rows, batch):
            single = relax(params(eta), replace(settings, seed_winding=seed))
            assert report.converged and single.converged
            assert report.winding == single.winding
            assert report.mu == single.mu
            assert report.iterations == single.iterations
            np.testing.assert_array_equal(report.wavefunction.amplitudes, single.wavefunction.amplitudes)
            assert report.energy_history.size == 0  # only relax records a history

    def test_batch_row_does_not_depend_on_its_neighbours(self):
        # a row's direction, step angle and stopping iteration are its own: alone or
        # inside a mixed batch (rows converging before and after it, other
        # eta, other sectors) it gives the same bits
        settings = SolverSettings(noise_amplitude=1e-3)
        u = params(0.0).u_tilde
        target = (0.3, 1)
        others = [(-0.5, 0), (1.7, 2), (0.3, 0), (2.4, 4), (0.5000001, 1), (-1.2, -3)]
        (alone,) = _relax_batch(u, settings, [target])
        for position in (0, 3, len(others)):
            mixed = _relax_batch(u, settings, others[:position] + [target] + others[position:])
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
        batch = _relax_batch(params(0.0).u_tilde, settings, rows)
        monkeypatch.undo()
        # an iteration transforms the live rows' directions, tries them all, then tries again those that halve
        tries = [
            (calls[i + 1][1], calls[i + 2][1])
            for i in range(len(calls) - 2)
            if calls[i][0] == "ifft" and calls[i + 1][0] == calls[i + 2][0] == "energies"
        ]
        assert any(0 < halving < tried for tried, halving in tries)
        for (eta, seed), report in zip(rows, batch):
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
        batch = _relax_batch(params(0.0).u_tilde, settings, rows)
        assert all(report.converged for report in batch)
        for (eta, _), report in zip(rows, batch):
            psi = report.wavefunction
            image = apply_hamiltonian(psi, params(eta)).amplitudes
            assert np.max(np.abs(image - report.mu * psi.amplitudes)) < 1e-9
            assert report.mu == pytest.approx(mu_uniform(report.winding, params(eta)), rel=1e-9)

    def test_batch_rows_stop_at_the_fixed_point_not_at_a_turning_point(self):
        # under restarted momentum these rows passed a turning point of mu
        # while their energy still fell; a stall test on mu alone stopped
        # them there, 2.5e-6 to 2.5e-5 above the closed form
        rows = [(0.0, -2), (0.55, 2), (0.65, 2)]
        batch = _relax_batch(params(0.0).u_tilde, SolverSettings(noise_amplitude=1e-3), rows)
        for (eta, _), report in zip(rows, batch):
            assert report.converged
            assert abs(report.mu - mu_uniform(report.winding, params(eta))) < 1e-7

    def test_pick_prefers_lowest_energy_within_a_tied_winding(self):
        def report(winding, energy):
            psi = RingWavefunction.plane_wave(winding, 64)
            return GroundStateReport(psi, energy + 1.0, energy, winding, 10, True)

        # two seeds relaxed into winding 0, the first stopped farther from the
        # fixed point; winding 1 ties with both but loses on |winding|
        pool = [report(0, 2.0 + 5e-7), report(1, 2.0 + 1e-7), report(0, 2.0)]
        assert _pick_ground(pool) is pool[2]

    def test_unconverged_point_reported_not_raised(self):
        starved = SolverSettings(noise_amplitude=1e-3, max_iterations=3)
        (report,) = global_grounds([params(0.3)], starved)
        assert not report.converged
        assert report.iterations == 3
        single = global_ground(params(0.3), starved)
        assert not single.converged
        assert single.winding == report.winding
        assert single.iterations == 3
        assert global_grounds([], starved) == []
        with pytest.raises(ValueError, match="u_tilde"):
            global_grounds([params(0.3, 1.0), params(0.3, 2.0)])

    def test_seeds_past_the_grid_rejected_before_any_descent(self, monkeypatch):
        # eta 125.6 seeds windings 124..128, and a 256-point grid holds |m0| < 128;
        # the points before it fill whole chunks, none of which may be relaxed in vain
        def descend(*args):
            raise AssertionError("a chunk was relaxed before the rejection")

        monkeypatch.setattr("acring.solver._descend", descend)
        with pytest.raises(ValueError, match=r"eta=125\.6 .*grid_size=256"):
            global_grounds([params(0.3)] * 300 + [params(125.6)])
        with pytest.raises(ValueError, match=r"grid_size=64 holds only \|m0\| < 32"):
            global_ground(params(-29.5), SolverSettings(grid_size=64, noise_amplitude=1e-3))


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
        rng = np.random.default_rng(37)
        raw = np.exp(1j * phi_grid(256)) + 0.3 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        psi = RingWavefunction(raw).normalized()
        p = params(0.4)
        for _ in range(200):
            psi, _, _ = imaginary_time_step(psi, p, 5e-3)
            assert abs(psi.norm_squared() - 1.0) < 1e-12

    def test_diverging_step_raises_without_warnings(self):
        rng = np.random.default_rng(5)
        raw = np.exp(1j * phi_grid(256)) + 0.3 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        psi = RingWavefunction(raw).normalized()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="diverged"):
                imaginary_time_step(psi, RingParams(eta=0.3, u_tilde=1e7), 1e-3)

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
            psi = RingWavefunction.plane_wave(m0, 256)
            for _ in range(300):
                psi, _, _ = imaginary_time_step(psi, p, 1e-2)
                assert winding_number(psi) == m0

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

    def test_mode_numbers_convention(self):
        k = mode_numbers(64)
        assert k[0] == 0 and k[31] == 31
        assert k[32] == -32 and k[63] == -1

    def test_plane_wave_normalized(self):
        psi = RingWavefunction.plane_wave(2, 128)
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

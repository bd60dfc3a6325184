"""Ring-model analytics: winding selection, two-mode landscape, barriers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from acring.reduction import RingParams
from acring.ring import (
    MixedState,
    barrier,
    barrier_peak,
    ground_winding,
    mu_mixed,
    mu_total,
    nearest_winding,
    plane_mu,
    two_mode_mu,
)

TWO_PI = 2.0 * math.pi

FIG_PARAMS = RingParams(eta=0.5, u_tilde=2.0 * TWO_PI)  # interaction plateau at 2


def params(eta, u_over_2pi=2.0):
    return RingParams(eta=eta, u_tilde=u_over_2pi * TWO_PI)


class TestMuUniform:
    def test_interaction_plateau(self):
        p = params(0.0)
        assert plane_mu(0, p.eta, p.u_tilde) == pytest.approx(2.0, abs=1e-15)

    def test_phase_fully_absorbed_by_winding(self):
        assert plane_mu(1, 1.0, 0.0) == 0.0

    def test_half_integer_value(self):
        assert plane_mu(0, FIG_PARAMS.eta, FIG_PARAMS.u_tilde) == pytest.approx(2.25, abs=1e-15)

    def test_offset_accessor(self):
        p = RingParams(eta=0.0, u_tilde=0.0, mu_offset=1.5)
        assert mu_total(plane_mu(0, p.eta, p.u_tilde), p) == pytest.approx(1.5)

    def test_plane_wave_state_carries_winding(self):
        p = params(0.5)
        assert plane_mu(-2, p.eta, p.u_tilde) == pytest.approx(8.25, abs=1e-13)


class TestGroundWinding:
    @pytest.mark.parametrize(
        "eta,winding",
        [(0.3, 0), (0.7, 1), (2.4, 2), (-0.3, 0), (-0.7, -1), (3.0, 3), (0.49, 0), (0.51, 1)],
    )
    def test_nearest_integer(self, eta, winding):
        assert ground_winding(params(eta)).winding == winding

    @pytest.mark.parametrize("eta,winding", [(1.5, 1), (0.5, 0), (-0.5, -1), (2.5, 2)])
    def test_half_integer_returns_lower_and_flags(self, eta, winding):
        result = ground_winding(params(eta))
        assert result.winding == winding
        assert result.degenerate
        p = params(eta)
        assert abs(plane_mu(result.winding, p.eta, p.u_tilde) - plane_mu(result.winding + 1, p.eta, p.u_tilde)) <= 1e-12

    def test_degeneracy_only_at_half_integers(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            eta = float(rng.uniform(-3, 3))
            p = params(eta)
            res = ground_winding(p)
            gap = abs(plane_mu(res.winding, p.eta, p.u_tilde) - plane_mu(res.winding + 1, p.eta, p.u_tilde))
            frac = eta - math.floor(eta)
            if frac == 0.5:
                assert gap <= 1e-12
            else:
                assert gap > 1e-12
                assert not res.degenerate

    def test_gauge_shift_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            eta = float(rng.uniform(-2, 2))
            shift = int(rng.integers(-3, 4))
            assert ground_winding(params(eta + shift)).winding == ground_winding(params(eta)).winding + shift

    def test_mu_eff_matches_uniform(self):
        p = params(0.7)
        res = ground_winding(p)
        assert res.mu_eff == pytest.approx(plane_mu(1, p.eta, p.u_tilde), abs=1e-15)
        assert res.mu_eff == pytest.approx(2.09, abs=1e-12)


class TestMixedState:
    def test_endpoints_reduce_to_plane_waves(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = params(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 5)))
            m = int(rng.integers(-2, 3))
            assert mu_mixed(MixedState(m, 0.0), p) == pytest.approx(plane_mu(m, p.eta, p.u_tilde), rel=1e-14)
            assert mu_mixed(MixedState(m, 1.0), p) == pytest.approx(plane_mu(m + 1, p.eta, p.u_tilde), rel=1e-14)

    def test_half_mixing_example(self):
        assert mu_mixed(MixedState(0, 0.5), FIG_PARAMS) == pytest.approx(3.25, abs=1e-14)

    def test_phase_never_matters(self):
        for theta in (0.0, math.pi / 2, math.pi, 5.0):
            assert mu_mixed(MixedState(0, 0.3, theta), FIG_PARAMS) == mu_mixed(
                MixedState(0, 0.3, 0.0), FIG_PARAMS
            )

    def test_concavity_in_mixing(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = params(float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 4)))
            m = int(rng.integers(-2, 3))
            x1, x2 = sorted(rng.uniform(0, 1, size=2))
            mid = mu_mixed(MixedState(m, (x1 + x2) / 2), p)
            ends = 0.5 * (mu_mixed(MixedState(m, x1), p) + mu_mixed(MixedState(m, x2), p))
            assert mid >= ends - 1e-12

    def test_state_validation(self):
        with pytest.raises(ValueError):
            MixedState(0, -0.1)
        with pytest.raises(ValueError):
            MixedState(0, 1.1)
        with pytest.raises(ValueError):
            MixedState(0, 0.5, phase=7.0)


class TestBarrier:
    def test_symmetric_point_peak_and_heights(self):
        info = barrier(0, FIG_PARAMS)
        assert info is not None
        assert info.x_peak == pytest.approx(0.5, abs=1e-15)
        assert info.mu_peak == pytest.approx(3.25, abs=1e-13)
        assert info.height_from_m == pytest.approx(1.0, abs=1e-13)
        assert info.height_from_m_plus_1 == pytest.approx(1.0, abs=1e-13)

    def test_peak_matches_dense_scan(self):
        rng = np.random.default_rng(13)
        xs = np.arange(0.0, 1.0 + 1e-9, 1e-4)
        for _ in range(10):
            u = float(rng.uniform(0.5, 4.0)) * TWO_PI
            m = int(rng.integers(-1, 2))
            eta = m + 0.5 - float(rng.uniform(-0.9, 0.9)) * u / TWO_PI
            p = RingParams(eta=eta, u_tilde=u)
            info = barrier(m, p)
            values = np.array([mu_mixed(MixedState(m, float(x)), p) for x in xs])
            scan_x = xs[int(np.argmax(values))]
            if info is None:
                assert scan_x <= 1e-4 or scan_x >= 1.0 - 1e-4
            else:
                assert abs(info.x_peak - scan_x) <= 1e-4
                assert info.mu_peak == pytest.approx(float(values.max()), abs=1e-8)

    def test_closed_form_equals_mu_mixed_at_peak(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = float(10 ** rng.uniform(-0.5, 1.3))
            m = int(rng.integers(-3, 4))
            eta = m + 0.5 - float(rng.uniform(-0.99, 0.99)) * u / TWO_PI
            p = RingParams(eta=eta, u_tilde=u)
            info = barrier(m, p)
            assert info is not None
            assert info.mu_peak == pytest.approx(mu_mixed(MixedState(m, info.x_peak), p), rel=1e-12)

    @staticmethod
    def exact_climbs(m, eta, u):
        """The two heights of the float inputs in exact arithmetic, pi taken as math.pi."""
        pi = Fraction(math.pi)
        x = Fraction(1, 2) + (m + Fraction(1, 2) - Fraction(eta)) * pi / Fraction(u)
        g = Fraction(u) / (2 * pi)
        return 2 * g * x * x, 2 * g * (1 - x) * (1 - x)

    def test_heights_are_the_exact_climbs(self):
        # the expanded peak value cancels two terms of size pi / u_tilde: at eta = 1/2 it
        # gave height -0.25 at u_tilde = 1e-17 and -1.6e-10 at 1e-9, for climbs of u / (4 pi)
        rng = np.random.default_rng(29)
        cases = [(0, 0.5, 1e-17), (0, 0.5, 1e-9), (-2, -1.5, 1e-12), (0, 0.5 + 1e-12, 1e-9), (3, 3.5 + 1e-5, 1e-3)]
        for _ in range(300):
            u = float(rng.uniform(0.6, 6.3))
            m = int(rng.integers(-3, 4))
            cases.append((m, m + 0.5 - float(rng.uniform(-0.99, 0.99)) * u / TWO_PI, u))
        for m, eta, u in cases:
            info = barrier(m, RingParams(eta=eta, u_tilde=u))
            heights = (info.height_from_m, info.height_from_m_plus_1)
            for got, want in zip(heights, self.exact_climbs(m, eta, u)):
                assert got >= 0.0
                assert abs(Fraction(got) - want) <= Fraction(1e-13) * want, (m, eta, u)
            assert info.mu_peak == plane_mu(m, eta, u) + info.height_from_m

    def test_absent_outside_metastability_window(self):
        u = 2.0 * TWO_PI
        eta_past = 0.5 + u / TWO_PI + 0.1  # x_peak < 0
        assert barrier(0, RingParams(eta=eta_past, u_tilde=u)) is None
        eta_before = 0.5 - u / TWO_PI - 0.1  # x_peak > 1
        assert barrier(0, RingParams(eta=eta_before, u_tilde=u)) is None

    def test_window_edges(self):
        u = 0.4 * TWO_PI
        assert barrier(0, RingParams(eta=0.5 + 0.4, u_tilde=u)) is None  # x_peak == 0
        assert barrier(0, RingParams(eta=0.5 + 0.39, u_tilde=u)) is not None

    def test_rejects_attractive_interactions(self):
        with pytest.raises(ValueError):
            barrier(0, RingParams(eta=0.5, u_tilde=0.0))
        with pytest.raises(ValueError):
            barrier(0, RingParams(eta=0.5, u_tilde=-1.0))


def same_bits(array, values):
    """Equal as IEEE doubles bit for bit (tells -0.0 from 0.0)."""
    a = np.asarray(array, dtype=float)
    b = np.asarray(values, dtype=float).reshape(a.shape)
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestArrayForms:
    """The array closed forms the sweeps use equal the public scalar functions bit for bit."""

    # negative eta, exact half-integers and points 1e-7 either side of them,
    # plus random values: on about 1 in 1200 of those, d * d or np.square is an
    # ulp away from Python's d ** 2, which np.float_power reproduces
    ETAS = np.concatenate([
        np.linspace(-3.0, 3.0, 1201),
        np.random.default_rng(5).uniform(-3.0, 3.0, 3000),
        [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5],
        [0.5 - 1e-7, 0.5 + 1e-7, -0.5 - 1e-7, -0.5 + 1e-7, 1.5 + 1e-7, 0.0, -0.0],
    ])
    XS = np.linspace(0.0, 1.0, 41)
    U_TILDES = (0.2 * TWO_PI, 1.7 * TWO_PI, 3.0)
    WINDINGS = (-3, -1, 0, 2)

    def test_plane_mu_equals_mu_uniform_and_the_python_formula(self):
        for u in self.U_TILDES:
            for m in self.WINDINGS:
                array = plane_mu(m, self.ETAS, u)
                scalar = [plane_mu(m, eta, u) for eta in self.ETAS.tolist()]
                formula = [(m - eta) ** 2 + u / TWO_PI for eta in self.ETAS.tolist()]
                assert same_bits(array, scalar)
                assert same_bits(array, formula)

    def test_nearest_winding_equals_ground_winding(self):
        winding, degenerate = nearest_winding(self.ETAS)
        for u in self.U_TILDES:
            results = [ground_winding(RingParams(eta=eta, u_tilde=u)) for eta in self.ETAS.tolist()]
            assert winding.astype(int).tolist() == [r.winding for r in results]
            assert degenerate.tolist() == [r.degenerate for r in results]
            assert same_bits(plane_mu(winding, self.ETAS, u), [r.mu_eff for r in results])
        # exactly the half-integers, not the points 1e-7 away
        assert set(self.ETAS[degenerate].tolist()) == {-2.5, -1.5, -0.5, 0.5, 1.5, 2.5}

    def test_two_mode_mu_equals_mu_mixed_and_the_python_formula(self):
        etas = self.ETAS[::20]
        for u in self.U_TILDES:
            for m in self.WINDINGS:
                array = two_mode_mu(m, self.XS, etas[:, np.newaxis], u)
                scalar = [
                    mu_mixed(MixedState(m, x), RingParams(eta=eta, u_tilde=u))
                    for eta in etas.tolist()
                    for x in self.XS.tolist()
                ]
                formula = [
                    (1.0 - x) * (m - eta) ** 2 + x * (m + 1 - eta) ** 2 + u / TWO_PI * (1.0 + 2.0 * x * (1.0 - x))
                    for eta in etas.tolist()
                    for x in self.XS.tolist()
                ]
                assert same_bits(array, scalar)
                assert same_bits(array, formula)

    def test_barrier_peak_equals_barrier(self):
        for u in self.U_TILDES:
            for m in self.WINDINGS:
                x_peak, mu_peak, from_m, from_m_plus_1 = barrier_peak(m, self.ETAS, u)
                interior = (0.0 < x_peak) & (x_peak < 1.0)
                infos = [barrier(m, RingParams(eta=eta, u_tilde=u)) for eta in self.ETAS.tolist()]
                assert interior.tolist() == [info is not None for info in infos]
                found = [info for info in infos if info is not None]
                assert found  # every winding pair has some interior peaks on this grid
                assert same_bits(x_peak[interior], [info.x_peak for info in found])
                assert same_bits(mu_peak[interior], [info.mu_peak for info in found])
                assert same_bits(from_m[interior], [info.height_from_m for info in found])
                assert same_bits(from_m_plus_1[interior], [info.height_from_m_plus_1 for info in found])

    def test_per_point_winding_arrays(self):
        # hysteresis evaluates each point against its own winding pair
        m = np.array([w for w in self.WINDINGS for _ in range(len(self.ETAS))])
        etas = np.tile(self.ETAS, len(self.WINDINGS))
        u = self.U_TILDES[1]
        assert same_bits(plane_mu(m, etas, u), np.concatenate([plane_mu(w, self.ETAS, u) for w in self.WINDINGS]))
        for got, want in zip(barrier_peak(m, etas, u), zip(*(barrier_peak(w, self.ETAS, u) for w in self.WINDINGS))):
            assert same_bits(got, np.concatenate(want))

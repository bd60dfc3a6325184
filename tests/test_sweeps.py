"""Sweep tooling: staircase, thermal average, landscape, hysteresis walk."""

import math
import time

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from acring import solver, sweeps
from acring.reduction import RingParams
from acring.ring import MixedState, barrier, ground_winding, mu_mixed
from acring.solver import SolverSettings, global_ground
from acring.sweeps import (
    HysteresisRecord,
    LandscapePeak,
    LandscapePoint,
    StaircaseSpec,
    SweepRecord,
    eta_grid,
    hysteresis,
    landscape,
    staircase,
)

TWO_PI = 2.0 * math.pi


def stepwise_settled_winding(m, eta, u_tilde):
    """The walk of single steps that sweeps._settled_winding shortcuts."""
    half_window = 0.5 + u_tilde / TWO_PI
    while True:
        if eta - m >= half_window:
            m += 1
        elif m - eta >= half_window:
            m -= 1
        else:
            return m


class TestEtaGrid:
    def test_snaps_to_decimal_values(self):
        grid = eta_grid(0.0, 3.0, 0.05)
        assert len(grid) == 61
        assert grid[10] == 0.5  # exact half-integer, not 0.5000000000000001
        assert grid[-1] == 3.0

    def test_monotone_without_duplicates(self):
        grid = eta_grid(0.0, 2.0, 0.07)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_endpoint_within_half_step(self):
        assert eta_grid(0.0, 0.26, 0.1) == [0.0, 0.1, 0.2, 0.3]
        assert eta_grid(0.0, 0.24, 0.1) == [0.0, 0.1, 0.2]

    def test_invalid(self):
        with pytest.raises(ValueError):
            eta_grid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            eta_grid(1.0, 0.0, 0.1)
        with pytest.raises(ValueError, match="points"):
            eta_grid(0.0, 1.0, 1e-9)  # rejected before 10^9 points are built
        with pytest.raises(ValueError, match="points"):
            eta_grid(0.0, 1.0, 1e-320)  # (stop - start) / step overflows to inf


def rounded_grid(start, stop, step):
    """eta_grid's definition, one Python round per point."""
    return [round(start + i * step, sweeps.GRID_DECIMALS) for i in range(sweeps._grid_count(start, stop, step))]


def same_floats(a, b):
    """Equal bit for bit: float.hex tells -0.0 from 0.0."""
    return list(map(float.hex, a)) == list(map(float.hex, b))


class TestIntegerGrid:
    """eta_grid builds rint(x * 1e12) / 1e12 and equals round(x, 12) bit for bit."""

    @pytest.mark.parametrize(
        "start, stop, step",
        [
            # x * 1e12 is exactly -6632428590565.5 at index 192: rint gives
            # -6.632428590566, round (on the exact x) -6.632428590565
            (-25.832428590565502, 4.2, 0.1),
            (-3.0000000000005, -2.9999999999995, 5e-13),  # more exact negative ties
            (-1e-10, 1e-10, 1.5e-12),
            (-1e-12, 1e-12, 5e-13),  # a tie at -0.5e-12, which rounds to -0.0
            (-0.5000000000005, -0.4999999999995, 1e-13),  # steps near the grid's resolution
            (0.0, 1e-10, 1e-12),
            (-7.123456789012, -7.12345678, 1e-12),
            (-0.0, 1.0, 0.25),  # -0.0 + 0.0 is 0.0, as in round
            (-2e-13, 1e-13, 1e-13),  # points that round to -0.0
            (4503.5, 4503.7, 0.01),  # |x * 1e12| crosses 2**52: round takes over
            (-4503.6, -4503.59, 0.001),
            (-9000.0, -8999.99, 1e-3),
            (1e300, 1e300, 1.0),
        ],
    )
    def test_equals_round(self, start, stop, step):
        grid = eta_grid(start, stop, step)
        assert same_floats(grid, rounded_grid(start, stop, step))
        assert all(type(eta) is float for eta in grid)

    def test_integer_arguments_give_floats(self):
        grid = eta_grid(0, 3, 1)
        assert grid == [0.0, 1.0, 2.0, 3.0] and all(type(eta) is float for eta in grid)
        assert same_floats(eta_grid(10**20, 10**20, 1), [1e20])  # past int64

    def test_the_named_tie_is_in_the_grid(self):
        x = -25.832428590565502 + 192 * 0.1
        assert x * 1e12 == -6632428590565.5 and np.rint(x * 1e12) / 1e12 == -6.632428590566
        assert eta_grid(-25.832428590565502, 4.2, 0.1)[192] == round(x, 12) == -6.632428590565

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(
        start=st.floats(-5000.0, 5000.0),
        scale=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 1.0]),
        digits=st.integers(1, 9000),
        points=st.integers(1, 300),
    )
    def test_random_ranges_equal_round(self, start, scale, digits, points):
        step = digits * scale
        stop = start + (points - 1) * step
        assert same_floats(eta_grid(start, stop, step), rounded_grid(start, stop, step))


class TestStaircaseAnalytic:
    def test_pure_condensate_traces_integer_steps(self):
        spec = StaircaseSpec(0.0, 3.0, 0.1, u_tilde=2 * TWO_PI, condensate_weight=1.0)
        records = staircase(spec)
        for r in records:
            assert r.thermal_mean == r.winding_T0
            expected = math.floor(r.eta + 0.5) if (r.eta - math.floor(r.eta)) != 0.5 else math.floor(r.eta)
            assert r.winding_T0 == expected
        jumps = [r.eta for prev, r in zip(records, records[1:]) if r.winding_T0 != prev.winding_T0]
        assert jumps == [0.6, 1.6, 2.6]  # first grid point past each half integer

    def test_degenerate_points_flagged(self):
        spec = StaircaseSpec(0.0, 3.0, 0.1, u_tilde=2 * TWO_PI)
        flagged = [r.eta for r in staircase(spec) if r.degenerate]
        assert flagged == [0.5, 1.5, 2.5]

    def test_zero_weight_reproduces_classical_line(self):
        spec = StaircaseSpec(0.0, 2.0, 0.05, u_tilde=TWO_PI, condensate_weight=0.0)
        for r in staircase(spec):
            assert r.thermal_mean == r.eta
            assert r.classical_mean == r.eta

    def test_intermediate_weight_examples(self):
        spec = StaircaseSpec(0.0, 1.0, 0.1, u_tilde=2 * TWO_PI, condensate_weight=0.6)
        records = {r.eta: r for r in staircase(spec)}
        assert records[1.0].thermal_mean == pytest.approx(1.0, abs=1e-15)
        assert records[0.7].thermal_mean == pytest.approx(0.88, abs=1e-15)

    def test_thermal_mean_linear_in_weight(self):
        u = 2 * TWO_PI
        for eta in (0.3, 0.7, 1.2):
            values = {}
            for w in (0.0, 0.25, 0.5, 1.0):
                spec = StaircaseSpec(eta, eta, 1.0, u_tilde=u, condensate_weight=w)
                values[w] = staircase(spec)[0].thermal_mean
            assert values[0.5] == pytest.approx(0.5 * (values[0.0] + values[1.0]), abs=1e-15)
            assert values[0.25] == pytest.approx(0.75 * values[0.0] + 0.25 * values[1.0], abs=1e-15)

    def test_monotone_unique_abscissae(self):
        records = staircase(StaircaseSpec(0.0, 1.0, 0.05, u_tilde=TWO_PI))
        etas = [r.eta for r in records]
        assert etas == sorted(set(etas))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StaircaseSpec(0.0, 1.0, -0.1, u_tilde=1.0)
        with pytest.raises(ValueError):
            StaircaseSpec(0.0, 1.0, 0.1, u_tilde=1.0, condensate_weight=1.5)
        with pytest.raises(ValueError):
            StaircaseSpec(0.0, 1.0, 0.1, u_tilde=1.0, mode="magic")


class TestStaircaseNumeric:
    def test_agrees_with_analytic_on_coarse_grid(self):
        u = 2 * TWO_PI
        numeric = staircase(StaircaseSpec(0.0, 1.0, 0.25, u_tilde=u, mode="numeric"))
        analytic = staircase(StaircaseSpec(0.0, 1.0, 0.25, u_tilde=u, mode="analytic"))
        for n, a in zip(numeric, analytic):
            assert n.converged
            assert n.winding_T0 == a.winding_T0
            assert n.mu_eff == pytest.approx(a.mu_eff, rel=1e-6)

    # negative eta at an exact half-integer, a point off the steps, and a
    # near tie 1e-7 above a half-integer
    BATCHED_SPEC = StaircaseSpec(-0.5, 0.5000001, 0.50000005, u_tilde=2 * TWO_PI, mode="numeric")

    @pytest.fixture(scope="class")
    def per_point(self):
        etas = eta_grid(-0.5, 0.5000001, 0.50000005)
        assert etas == [-0.5, 5e-08, 0.5000001]
        reports = [global_ground(RingParams(eta=eta, u_tilde=2 * TWO_PI)) for eta in etas]
        assert all(report.converged for report in reports)
        return reports

    def _batched_sweep(self, monkeypatch):
        batches = []
        relax_batch = solver._relax_batch

        def spy(u_tilde, settings, seeds):
            batches.append(len(seeds))
            return relax_batch(u_tilde, settings, seeds)

        reports = []

        def grounds(points, settings=None):
            reports.extend(solver.global_grounds(points, settings))
            return reports

        monkeypatch.setattr(solver, "_relax_batch", spy)
        monkeypatch.setattr(sweeps, "global_grounds", grounds)
        return staircase(self.BATCHED_SPEC), reports, batches

    def _assert_matches(self, records, reports, per_point):
        assert len(records) == len(reports) == len(per_point) == 3
        for record, report, single in zip(records, reports, per_point):
            assert record.winding_T0 == report.winding == single.winding
            assert record.mu_eff == report.mu
            assert report.mu == pytest.approx(single.mu, rel=1e-12)
            assert report.iterations == single.iterations
            assert record.converged == report.converged == single.converged

    def test_batched_sweep_matches_per_point_search(self, per_point, monkeypatch):
        records, reports, batches = self._batched_sweep(monkeypatch)
        assert batches == [15]  # all seeds of all points in one batch
        self._assert_matches(records, reports, per_point)

    def test_chunked_sweep_matches_per_point_search(self, per_point, monkeypatch):
        # room for two points (5 seed rows each) per batch: chunks of 2 + 1
        monkeypatch.setattr(solver, "_BATCH_AMPLITUDES", 2 * 5 * 256 + 1)
        records, reports, batches = self._batched_sweep(monkeypatch)
        assert batches == [10, 5]
        self._assert_matches(records, reports, per_point)

    def test_nonconvergence_flagged_but_sweep_continues(self):
        starved = SolverSettings(noise_amplitude=1e-3, max_iterations=3)
        records = staircase(
            StaircaseSpec(0.2, 0.4, 0.2, u_tilde=2 * TWO_PI, mode="numeric"), settings=starved
        )
        assert len(records) == 2
        assert all(not r.converged for r in records)


class TestLandscape:
    def test_symmetric_barrier_shape(self):
        result = landscape(0, [0.5], u_tilde=2 * TWO_PI, x_step=0.25)
        by_x = {round(p.x, 12): p.mu_eff for p in result.points}
        assert by_x[0.0] == pytest.approx(2.25, abs=1e-13)
        assert by_x[1.0] == pytest.approx(2.25, abs=1e-13)
        assert len(result.peaks) == 1
        peak = result.peaks[0]
        assert peak.x_peak == pytest.approx(0.5, abs=1e-15)
        assert peak.mu_peak == pytest.approx(3.25, abs=1e-13)

    def test_asymmetric_point_prefers_lower_winding(self):
        result = landscape(0, [0.3], u_tilde=2 * TWO_PI, x_step=0.5)
        by_x = {round(p.x, 12): p.mu_eff for p in result.points}
        assert by_x[0.0] < by_x[1.0]

    def test_peak_absent_outside_window(self):
        result = landscape(0, [3.0], u_tilde=0.2 * TWO_PI, x_step=0.5)
        assert result.peaks == []

    def test_rejects_degenerate_interaction(self):
        with pytest.raises(ValueError):
            landscape(0, [0.5], u_tilde=0.0, x_step=0.1)
        with pytest.raises(ValueError):
            landscape(0, [0.5], u_tilde=1.0, x_step=0.0)

    def test_x_step_must_keep_the_grid_inside_the_unit_interval(self):
        # eta_grid keeps an endpoint within half a step: 0.4 would give x = 1.2
        with pytest.raises(ValueError, match="x_step"):
            landscape(0, [0.5], u_tilde=1.0, x_step=0.4)
        with pytest.raises(ValueError, match="x_step"):
            landscape(0, [], u_tilde=1.0, x_step=1.5)
        assert [p.x for p in landscape(0, [0.5], u_tilde=1.0, x_step=0.3).points] == [0.0, 0.3, 0.6, 0.9]

    def test_joint_cap_rejects_before_any_point(self, monkeypatch):
        # 1001 eta values x 100001 mixing steps = 1e8 points, each grid alone allowed
        def no_points(*args):
            raise AssertionError("a landscape point was computed")

        monkeypatch.setattr(sweeps, "mu_mixed", no_points)
        etas = sweeps.eta_grid(0.0, 1.0, 1e-3)
        with pytest.raises(ValueError, match="landscape would exceed"):
            landscape(0, etas, u_tilde=1.0, x_step=1e-5)
        with pytest.raises(ValueError, match="landscape would exceed"):
            landscape(0, iter(etas), u_tilde=1.0, x_step=1e-5)


class TestHysteresis:
    def test_flip_points_for_small_interaction(self):
        u = 0.2 * TWO_PI  # metastability half-window 0.2
        up = hysteresis(eta_grid(0.0, 1.0, 0.05), u, start_winding=0)
        flips_up = [r.eta for prev, r in zip(up, up[1:]) if r.winding != prev.winding]
        assert flips_up == [0.7]
        down = hysteresis(list(reversed(eta_grid(0.0, 1.0, 0.05))), u, start_winding=1)
        flips_down = [r.eta for prev, r in zip(down, down[1:]) if r.winding != prev.winding]
        assert flips_down == [0.3]

    def test_strong_interaction_keeps_winding_over_unit_loop(self):
        u = 2 * TWO_PI
        path = eta_grid(0.0, 1.0, 0.05)
        loop = path + path[-2::-1]
        records = hysteresis(loop, u, start_winding=0)
        assert all(r.winding == 0 for r in records)

    def test_vanishing_interaction_flips_at_half_without_hysteresis(self):
        u = 1e-9
        step = 0.05
        up = hysteresis(eta_grid(0.0, 1.0, step), u, start_winding=0)
        down = hysteresis(list(reversed(eta_grid(0.0, 1.0, step))), u, start_winding=1)
        flip_up = next(r.eta for prev, r in zip(up, up[1:]) if r.winding != prev.winding)
        flip_down = next(r.eta for prev, r in zip(down, down[1:]) if r.winding != prev.winding)
        assert abs(flip_up - 0.5) <= step + 1e-12
        assert abs(flip_down - 0.5) <= step + 1e-12

    def test_winding_changes_only_where_barrier_absent(self):
        u = 0.3 * TWO_PI
        path = eta_grid(0.0, 2.0, 0.1)
        records = hysteresis(path + path[-2::-1], u, start_winding=0)
        for prev, r in zip(records, records[1:]):
            if r.winding != prev.winding:
                assert r.barrier_height is None

    def test_loop_area_grows_with_interaction(self):
        step = 0.02
        path_up = eta_grid(0.0, 1.0, step)
        areas = []
        for u_over in (0.1, 0.2, 0.3):
            u = u_over * TWO_PI
            up = {r.eta: r.winding for r in hysteresis(path_up, u, 0)}
            down = {r.eta: r.winding for r in hysteresis(list(reversed(path_up)), u, 1)}
            areas.append(step * sum(down[e] - up[e] for e in path_up))
        assert areas[0] <= areas[1] <= areas[2]
        assert areas[0] < areas[2]

    def test_direction_labels(self):
        path = [0.0, 0.2, 0.4, 0.2, 0.0]
        records = hysteresis(path, TWO_PI, 0)
        assert [r.direction for r in records] == ["up", "up", "up", "down", "down"]

    def test_validation(self):
        with pytest.raises(ValueError):
            hysteresis([0.0, 1.5], TWO_PI, 0)  # step too large
        with pytest.raises(ValueError):
            hysteresis([], TWO_PI, 0)
        with pytest.raises(ValueError):
            hysteresis([0.0, 0.5], 0.0, 0)

    def test_record_type(self):
        record = hysteresis([0.1], TWO_PI, 0)[0]
        assert isinstance(record, HysteresisRecord)
        assert record.direction == "up"
        assert record.winding == 0


class TestSettledWinding:
    def test_matches_single_steps_on_random_walks(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            u_tilde = float(rng.choice([1e-9, 0.3, TWO_PI, 40.0])) * float(rng.uniform(0.5, 2.0))
            start = int(rng.integers(-3000, 3000))
            path = (np.cumsum(rng.uniform(-1.0, 1.0, 20)) + float(rng.uniform(-3000, 3000))).tolist()
            windings, m = [], start
            for eta in path:
                m = stepwise_settled_winding(m, eta, u_tilde)
                windings.append(m)
            assert [r.winding for r in hysteresis(path, u_tilde, start)] == windings

    def test_window_edges_decided_by_the_step_comparison(self):
        # eta - m == half_window (and m - eta) exactly in floats: a slide
        # arriving there from far away takes the same last step as single steps
        edges = 0
        for u_tilde in (1e-12, 0.2 * TWO_PI, 1.0, 2.0 * TWO_PI, 7.5):
            half_window = 0.5 + u_tilde / TWO_PI
            for m in (-1000, -3, 0, 1, 2, 17, 10**6):
                for eta in (m + half_window, m - half_window):
                    on_edge = eta - m == half_window or m - eta == half_window
                    edges += on_edge
                    for near in (eta, math.nextafter(eta, -math.inf), math.nextafter(eta, math.inf)):
                        for start in (m - 5000, m - 2, m, m + 2, m + 5000):
                            assert sweeps._settled_winding(start, near, u_tilde) == stepwise_settled_winding(
                                start, near, u_tilde
                            )
        assert edges >= 30  # about half of the constructed points sit exactly on an edge

    def test_far_starts_return_at_once(self):
        began = time.perf_counter()
        (far,) = hysteresis([1e12], 1.0, 0)
        (back,) = hysteresis([0.0], 1.0, 1_000_000_000)
        (below,) = hysteresis([-1e12], 1.0, 0)
        assert time.perf_counter() - began < 1.0  # single steps would take hours
        assert far.winding == 10**12 and back.winding == 0 and below.winding == -(10**12)


def test_non_finite_inputs_rejected():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="eta must be finite"):
        landscape(0, [0.5, nan], u_tilde=1.0, x_step=0.5)
    with pytest.raises(ValueError, match="u_tilde must be finite"):
        landscape(0, [0.5], u_tilde=inf, x_step=0.5)
    with pytest.raises(ValueError, match="eta must be finite"):
        hysteresis([inf], 1.0, 0)  # the winding walk would slide forever
    with pytest.raises(ValueError, match="u_tilde must be finite"):
        hysteresis([0.5], nan, 0)
    with pytest.raises(ValueError, match="u_tilde must be finite"):
        staircase(StaircaseSpec(0.0, 1.0, 0.5, u_tilde=nan))


class TestSweepsMatchPerPointLoops:
    """The sweeps evaluate closed forms on arrays; these loops call the scalar functions per point."""

    @staticmethod
    def staircase_loop(spec):
        w = spec.condensate_weight
        records = []
        for eta in eta_grid(spec.eta_start, spec.eta_stop, spec.eta_step):
            g = ground_winding(RingParams(eta=eta, u_tilde=spec.u_tilde))
            thermal = w * g.winding + (1.0 - w) * eta
            records.append(SweepRecord(eta, g.winding, eta, thermal, g.mu_eff, g.degenerate, True))
        return records

    @staticmethod
    def landscape_loop(m, etas, u_tilde, x_step):
        points, peaks = [], []
        for eta in etas:
            params = RingParams(eta=eta, u_tilde=u_tilde)
            for x in eta_grid(0.0, 1.0, x_step):
                points.append(LandscapePoint(eta, x, mu_mixed(MixedState(m, x), params)))
            info = barrier(m, params)
            if info is not None:
                peaks.append(
                    LandscapePeak(eta, info.x_peak, info.mu_peak, info.height_from_m, info.height_from_m_plus_1)
                )
        return points, peaks

    @staticmethod
    def hysteresis_loop(path, u_tilde, m):
        records = []
        for i, eta in enumerate(path):
            going_up = (len(path) == 1 or path[1] >= eta) if i == 0 else eta >= path[i - 1]
            m = stepwise_settled_winding(m, eta, u_tilde)
            neighbor_up = eta >= m
            info = barrier(m if neighbor_up else m - 1, RingParams(eta=eta, u_tilde=u_tilde))
            height = None if info is None else (info.height_from_m if neighbor_up else info.height_from_m_plus_1)
            records.append(HysteresisRecord(eta, "up" if going_up else "down", m, height))
        return records

    # repr tells -0.0 from 0.0 and 1 from 1.0, so equal reprs mean bitwise-equal fields of equal types
    @pytest.mark.parametrize(
        "spec",
        [
            StaircaseSpec(-3.0, 3.0, 0.05, u_tilde=2 * TWO_PI),
            StaircaseSpec(-3.0, 3.0, 0.05, u_tilde=0.3, condensate_weight=0.37),
            StaircaseSpec(-1.5, 1.5, 0.0125, u_tilde=TWO_PI, condensate_weight=0.0),
            StaircaseSpec(0.4999999, 0.5000001, 1e-7, u_tilde=TWO_PI, condensate_weight=0.6),
            StaircaseSpec(-0.5000001, -0.4999999, 1e-7, u_tilde=TWO_PI, condensate_weight=0.6),
        ],
    )
    def test_staircase(self, spec):
        assert repr(staircase(spec)) == repr(self.staircase_loop(spec))

    @pytest.mark.parametrize("m", [-2, 0, 1])
    def test_landscape(self, m):
        etas = [-1.5, -0.7, -0.5, 0.0, 0.4999999, 0.5, 0.5000001, 1.3, 2.5, 2]
        for u_tilde, x_step in ((0.4 * TWO_PI, 0.05), (3.0, 0.3), (2 * TWO_PI, 1 / 3)):
            result = landscape(m, etas, u_tilde, x_step)
            points, peaks = self.landscape_loop(m, etas, u_tilde, x_step)
            assert repr(result.points) == repr(points)
            assert repr(result.peaks) == repr(peaks)
            assert peaks  # some etas of the list have interior peaks

    @pytest.mark.parametrize("start_winding", [-2, 0, 3])
    def test_hysteresis(self, start_winding):
        path = eta_grid(-2.0, 2.0, 0.05)
        for eta_path, u_tilde in (
            (path + path[-2::-1], 0.2 * TWO_PI),
            (path[::-1], 0.45 * TWO_PI),
            ([0.5], 0.3 * TWO_PI),
            ([-0.5, -0.5, 0.4999999, 0.5000001, 0.0], 2.0),
        ):
            records = hysteresis(eta_path, u_tilde, start_winding)
            reference = self.hysteresis_loop([float(e) for e in eta_path], u_tilde, start_winding)
            assert repr(records) == repr(reference)
            if len(eta_path) > 10:
                assert any(r.barrier_height is None for r in records)  # the walk slid somewhere

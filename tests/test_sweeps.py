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
from acring.sweeps import StaircaseSpec, eta_grid, hysteresis, landscape, staircase

TWO_PI = 2.0 * math.pi


def cell_values(column):
    """A column's cells as Python values: a (values, index) pair is values[index], None at index len(values)."""
    if isinstance(column, tuple):
        values, index = column
        pool = values.tolist() + [None]
        return [pool[i] for i in index.tolist()]
    return column.tolist()


def rows(columns):
    """A sweep's table, column names mapped to columns, as one tuple of Python values per row."""
    return list(zip(*map(cell_values, columns.values())))


def flips(walk):
    """The etas of a hysteresis walk at which the winding differs from the point before."""
    return walk["eta"][1:][np.diff(walk["winding"]) != 0].tolist()


def stepwise_settled_winding(m, eta, u_tilde):
    """The walk of single steps whose result the hysteresis walk computes as clamps to the window edges.

    Where 1/2 + u_tilde/(2 pi) rounds to 1/2 at a half-integer eta, no
    winding lies strictly inside the window in floats, and the steps would
    go back and forth between the two windings on its edges.  Either of them
    keeps its value there, as in exact arithmetic for u_tilde > 0, and a
    winding beyond both settles on the nearer one.
    """
    half_window = 0.5 + u_tilde / TWO_PI
    while True:
        if eta - m >= half_window:
            if m + 1 - eta >= half_window:  # the step up would come back
                return m
            m += 1
        elif m - eta >= half_window:
            if eta - (m - 1) >= half_window:  # the step down would come back
                return m
            m -= 1
        else:
            return m


def stepwise_walk(path, u_tilde, m):
    """The winding after every point of the path, one oracle call per point."""
    windings = []
    for eta in path:
        m = stepwise_settled_winding(m, eta, u_tilde)
        windings.append(m)
    return windings


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
        columns = staircase(spec)
        etas, windings = columns["eta"], columns["winding_T0"]
        assert (columns["thermal_mean"] == windings).all()
        expected = [math.floor(eta + 0.5) if (eta - math.floor(eta)) != 0.5 else math.floor(eta) for eta in etas.tolist()]
        assert windings.tolist() == expected
        jumps = etas[1:][np.diff(windings) != 0].tolist()
        assert jumps == [0.6, 1.6, 2.6]  # first grid point past each half integer

    def test_degenerate_points_flagged(self):
        columns = staircase(StaircaseSpec(0.0, 3.0, 0.1, u_tilde=2 * TWO_PI))
        assert columns["eta"][columns["degenerate"]].tolist() == [0.5, 1.5, 2.5]

    def test_zero_weight_reproduces_classical_line(self):
        columns = staircase(StaircaseSpec(0.0, 2.0, 0.05, u_tilde=TWO_PI, condensate_weight=0.0))
        assert (columns["thermal_mean"] == columns["eta"]).all()
        assert (columns["classical_mean"] == columns["eta"]).all()

    def test_intermediate_weight_examples(self):
        columns = staircase(StaircaseSpec(0.0, 1.0, 0.1, u_tilde=2 * TWO_PI, condensate_weight=0.6))
        thermal = dict(zip(columns["eta"].tolist(), columns["thermal_mean"].tolist()))
        assert thermal[1.0] == pytest.approx(1.0, abs=1e-15)
        assert thermal[0.7] == pytest.approx(0.88, abs=1e-15)

    def test_thermal_mean_linear_in_weight(self):
        u = 2 * TWO_PI
        for eta in (0.3, 0.7, 1.2):
            values = {}
            for w in (0.0, 0.25, 0.5, 1.0):
                spec = StaircaseSpec(eta, eta, 1.0, u_tilde=u, condensate_weight=w)
                (values[w],) = staircase(spec)["thermal_mean"].tolist()
            assert values[0.5] == pytest.approx(0.5 * (values[0.0] + values[1.0]), abs=1e-15)
            assert values[0.25] == pytest.approx(0.75 * values[0.0] + 0.25 * values[1.0], abs=1e-15)

    def test_monotone_unique_abscissae(self):
        etas = staircase(StaircaseSpec(0.0, 1.0, 0.05, u_tilde=TWO_PI))["eta"].tolist()
        assert etas == sorted(set(etas))

    def test_column_dtypes(self):
        analytic = staircase(StaircaseSpec(-0.5, 0.5, 0.25, u_tilde=TWO_PI))
        numeric = staircase(StaircaseSpec(0.25, 0.25, 1.0, u_tilde=TWO_PI, mode="numeric"))
        for columns in (analytic, numeric):
            assert list(columns) == [
                "eta", "winding_T0", "classical_mean", "thermal_mean", "mu_eff", "degenerate", "converged"
            ]
            float64, int64 = np.float64, np.int64
            assert [column.dtype for column in columns.values()] == [float64, int64, float64, float64, float64, bool, bool]
        (winding,) = staircase(StaircaseSpec(1e300, 1e300, 1.0, u_tilde=1.0))["winding_T0"]
        assert type(winding) is int and winding == int(1e300)  # past int64: Python ints in an object array

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
        assert numeric["converged"].all()
        assert numeric["winding_T0"].tolist() == analytic["winding_T0"].tolist()
        assert numeric["mu_eff"].tolist() == pytest.approx(analytic["mu_eff"].tolist(), rel=1e-6)

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

        def spy(u_tilde, settings, etas, seeds):
            batches.append(len(etas))
            return relax_batch(u_tilde, settings, etas, seeds)

        searched = {}

        def grounds(etas, u_tilde, settings=None):
            searched.update(solver.global_grounds(etas, u_tilde, settings))
            return searched

        monkeypatch.setattr(solver, "_relax_batch", spy)
        monkeypatch.setattr(sweeps, "global_grounds", grounds)
        return staircase(self.BATCHED_SPEC), searched, batches

    def _assert_matches(self, columns, searched, per_point):
        assert len(columns["eta"]) == len(searched["winding"]) == len(per_point) == 3
        # the sweep passes the search's columns through, and they hold each point's own search
        assert columns["winding_T0"] is searched["winding"]
        assert columns["mu_eff"] is searched["mu"]
        assert columns["converged"] is searched["converged"]
        assert searched["winding"].tolist() == [single.winding for single in per_point]
        assert searched["mu"].tolist() == pytest.approx([single.mu for single in per_point], rel=1e-12)
        assert searched["iterations"].tolist() == [single.iterations for single in per_point]
        assert searched["converged"].tolist() == [single.converged for single in per_point]

    def test_batched_sweep_matches_per_point_search(self, per_point, monkeypatch):
        columns, searched, batches = self._batched_sweep(monkeypatch)
        assert batches == [3 * len(solver.SEED_SHIFTS)]  # all seeds of all points in one batch
        self._assert_matches(columns, searched, per_point)

    def test_chunked_sweep_matches_per_point_search(self, per_point, monkeypatch):
        # room for two points (one row per seed) per batch: chunks of 2 + 1
        seeds = len(solver.SEED_SHIFTS)
        monkeypatch.setattr(solver, "_BATCH_AMPLITUDES", 2 * seeds * 256 + 1)
        columns, searched, batches = self._batched_sweep(monkeypatch)
        assert batches == [2 * seeds, seeds]
        self._assert_matches(columns, searched, per_point)

    def test_nonconvergence_flagged_but_sweep_continues(self):
        starved = SolverSettings(noise_amplitude=1e-3, max_iterations=3)
        columns = staircase(StaircaseSpec(0.2, 0.4, 0.2, u_tilde=2 * TWO_PI, mode="numeric"), settings=starved)
        assert columns["converged"].tolist() == [False, False]


class TestLandscape:
    def test_symmetric_barrier_shape(self):
        result = landscape(0, [0.5], u_tilde=2 * TWO_PI, x_step=0.25)
        by_x = {round(x, 12): mu for _, x, mu in rows(result.points)}
        assert by_x[0.0] == pytest.approx(2.25, abs=1e-13)
        assert by_x[1.0] == pytest.approx(2.25, abs=1e-13)
        (peak,) = rows(result.peaks)
        _, x_peak, mu_peak, _, _ = peak
        assert x_peak == pytest.approx(0.5, abs=1e-15)
        assert mu_peak == pytest.approx(3.25, abs=1e-13)

    def test_asymmetric_point_prefers_lower_winding(self):
        result = landscape(0, [0.3], u_tilde=2 * TWO_PI, x_step=0.5)
        by_x = {round(x, 12): mu for _, x, mu in rows(result.points)}
        assert by_x[0.0] < by_x[1.0]

    def test_peak_absent_outside_window(self):
        result = landscape(0, [3.0], u_tilde=0.2 * TWO_PI, x_step=0.5)
        assert rows(result.peaks) == []

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
        assert cell_values(landscape(0, [0.5], u_tilde=1.0, x_step=0.3).points["x"]) == [0.0, 0.3, 0.6, 0.9]

    def test_column_dtypes(self):
        points, peaks = landscape(-1, [-0.5, 0.5, 3.0], u_tilde=1.0, x_step=0.5)
        assert list(points) == ["eta", "x", "mu_eff"]
        assert list(peaks) == ["eta", "x_peak", "mu_peak", "height_from_m", "height_from_m_plus_1"]
        (etas, eta_index), (xs, x_index) = points["eta"], points["x"]
        assert etas.tolist() == [-0.5, 0.5, 3.0] and xs.tolist() == [0.0, 0.5, 1.0]
        assert eta_index.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2] and x_index.tolist() == [0, 1, 2] * 3
        assert {etas.dtype, xs.dtype, points["mu_eff"].dtype} == {np.dtype(np.float64)}
        assert {column.dtype for column in peaks.values()} == {np.dtype(np.float64)}
        assert peaks["eta"].tolist() == [-0.5]  # the only interior peak of the pair (-1, 0)

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
        assert flips(hysteresis(eta_grid(0.0, 1.0, 0.05), u, start_winding=0)) == [0.7]
        assert flips(hysteresis(list(reversed(eta_grid(0.0, 1.0, 0.05))), u, start_winding=1)) == [0.3]

    def test_strong_interaction_keeps_winding_over_unit_loop(self):
        u = 2 * TWO_PI
        path = eta_grid(0.0, 1.0, 0.05)
        loop = path + path[-2::-1]
        assert (hysteresis(loop, u, start_winding=0)["winding"] == 0).all()

    def test_vanishing_interaction_flips_at_half_without_hysteresis(self):
        u = 1e-9
        step = 0.05
        up = hysteresis(eta_grid(0.0, 1.0, step), u, start_winding=0)
        down = hysteresis(list(reversed(eta_grid(0.0, 1.0, step))), u, start_winding=1)
        flip_up, flip_down = flips(up)[0], flips(down)[0]
        assert abs(flip_up - 0.5) <= step + 1e-12
        assert abs(flip_down - 0.5) <= step + 1e-12

    def test_winding_changes_only_where_barrier_absent(self):
        u = 0.3 * TWO_PI
        path = eta_grid(0.0, 2.0, 0.1)
        walk = hysteresis(path + path[-2::-1], u, start_winding=0)
        heights = cell_values(walk["barrier_height"])
        changed = np.flatnonzero(np.diff(walk["winding"])) + 1
        assert len(changed) and all(heights[i] is None for i in changed)

    def test_loop_area_grows_with_interaction(self):
        step = 0.02
        path_up = eta_grid(0.0, 1.0, step)
        areas = []
        for u_over in (0.1, 0.2, 0.3):
            u = u_over * TWO_PI
            up = dict(zip(path_up, hysteresis(path_up, u, 0)["winding"].tolist()))
            down = dict(zip(path_up[::-1], hysteresis(path_up[::-1], u, 1)["winding"].tolist()))
            areas.append(step * sum(down[e] - up[e] for e in path_up))
        assert areas[0] <= areas[1] <= areas[2]
        assert areas[0] < areas[2]

    def test_direction_labels(self):
        path = [0.0, 0.2, 0.4, 0.2, 0.0]
        assert cell_values(hysteresis(path, TWO_PI, 0)["direction"]) == ["up", "up", "up", "down", "down"]

    def test_validation(self):
        with pytest.raises(ValueError):
            hysteresis([0.0, 1.5], TWO_PI, 0)  # step too large
        with pytest.raises(ValueError):
            hysteresis([], TWO_PI, 0)
        with pytest.raises(ValueError):
            hysteresis([0.0, 0.5], 0.0, 0)

    def test_column_dtypes(self):
        walk = hysteresis([0.4, 0.6, 1.0, 0.6], 0.2 * TWO_PI, 0)
        assert list(walk) == ["eta", "direction", "winding", "barrier_height"]
        assert walk["eta"].dtype == np.float64 and walk["winding"].dtype == np.int64
        (directions, down), (heights, index) = walk["direction"], walk["barrier_height"]
        assert directions.tolist() == ["up", "down"] and down.tolist() == [0, 0, 0, 1]
        assert heights.dtype == np.float64 and index.tolist() == [0, 1, 3, 2]  # index 3 = len(heights): no barrier
        assert [row[1:] for row in rows(walk)] == [
            ("up", 0, heights[0]), ("up", 0, heights[1]), ("up", 1, None), ("down", 1, heights[2])
        ]


class TestSettledWinding:
    """The array walk (clamps to the window edges, one pass per monotone run) against the single-step oracle."""

    def test_matches_single_steps_on_random_walks(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            u_tilde = float(rng.choice([1e-9, 0.3, TWO_PI, 40.0])) * float(rng.uniform(0.5, 2.0))
            start = int(rng.integers(-3000, 3000))
            path = (np.cumsum(rng.uniform(-1.0, 1.0, 20)) + float(rng.uniform(-3000, 3000))).tolist()
            assert hysteresis(path, u_tilde, start)["winding"].tolist() == stepwise_walk(path, u_tilde, start)

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
                            (winding,) = hysteresis([near], u_tilde, start)["winding"].tolist()
                            assert winding == stepwise_settled_winding(start, near, u_tilde)
        assert edges >= 30  # about half of the constructed points sit exactly on an edge

    def test_far_starts_return_at_once(self):
        began = time.perf_counter()
        (far,) = hysteresis([1e12], 1.0, 0)["winding"].tolist()
        (back,) = hysteresis([0.0], 1.0, 1_000_000_000)["winding"].tolist()
        (below,) = hysteresis([-1e12], 1.0, 0)["winding"].tolist()
        assert time.perf_counter() - began < 1.0  # single steps would take hours
        assert far == 10**12 and back == 0 and below == -(10**12)

    @staticmethod
    @st.composite
    def walks(draw):
        """(path, u_tilde, start): paths of steps <= 1, often on window edges, and starts far outside."""
        u_tilde = TWO_PI * draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-9, 5.0) | st.sampled_from([1e-17, 5e-324]))
        half_window = 0.5 + u_tilde / TWO_PI
        base = draw(
            st.integers(-3000, 3000)
            | st.integers(2**53 - 10**6, 2**53 - 40)  # paths and window edges stay inside +-2**53
            | st.integers(-(2**53) + 40, -(2**53) + 10**6)
        )
        kind = draw(st.sampled_from(["loop", "zigzag", "edges"]))
        if kind == "loop":
            step = draw(st.sampled_from([0.05, 0.25, 0.5, 1.0]))
            up = (base + step * np.arange(draw(st.integers(1, 12)))).tolist()
            path = up + up[-2::-1]
        elif kind == "zigzag":
            steps = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=15))
            path = (base + np.cumsum(steps)).tolist()
        else:  # eta - m or m - eta exactly half_window (u/2pi 1/4, 1/2, 1 give exact edges), or one ulp off
            offsets = draw(st.lists(st.sampled_from([-half_window, half_window, 0.0, 0.5, -0.5]), min_size=1, max_size=8))
            path = [base + offset for offset in offsets]
            path = [draw(st.sampled_from([eta, math.nextafter(eta, -math.inf), math.nextafter(eta, math.inf)])) for eta in path]
            path = [eta for i, eta in enumerate(path) if i == 0 or abs(eta - path[i - 1]) <= 1.0] or path[:1]
        start = round(path[0]) + draw(st.integers(-30000, 30000) | st.integers(-3, 3))
        return path, u_tilde, start

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(walk=walks())
    def test_walk_matches_single_steps(self, walk):
        # the walk alone: near 2**53 the draws reach starts that no float holds, which
        # hysteresis rejects before it walks
        path, u_tilde, start = walk
        _, winding = sweeps._walk(np.array(path), u_tilde, start)
        assert winding.tolist() == stepwise_walk(path, u_tilde, start)

    @pytest.mark.parametrize("eta", [0.5, -1.5, 2.5])
    @pytest.mark.parametrize("u_tilde", [1e-17, 5e-324])
    def test_empty_window_at_half_integers(self, eta, u_tilde):
        # 1/2 + u_tilde/(2 pi) rounds to 1/2: the single steps flipped between the edge windings forever
        assert 0.5 + u_tilde / TWO_PI == 0.5
        below, above = math.floor(eta), math.ceil(eta)
        for start, settled in ((below - 7, below), (below, below), (above, above), (above + 7, above)):
            assert hysteresis([eta], u_tilde, start)["winding"].tolist() == [settled]
            assert stepwise_settled_winding(start, eta, u_tilde) == settled

    def test_windings_stay_float_held_past_2_53(self):
        # eta + half_window crosses 2**53: sliding down from above, the walk stops on the greatest float
        # inside the window.  Single steps of Python ints stop at 2**53 + 1, which no float holds: its
        # comparison rounds it to 2**53 first.
        eta, u_tilde = 2.0**53 - 1, TWO_PI
        assert stepwise_settled_winding(2**53 + 100, eta, u_tilde) == 2**53 + 1
        (winding,) = hysteresis([eta], u_tilde, 2**53 + 100)["winding"].tolist()
        assert winding == 2**53 and float(winding) == winding
        (winding,) = hysteresis([eta], u_tilde, 2**53 - 100)["winding"].tolist()
        assert winding == 2**53 - 2 == stepwise_settled_winding(2**53 - 100, eta, u_tilde)


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


# Per-point references: each loop calls the scalar closed forms once per
# point and builds the rows as plain tuples of Python values, in the sweep's
# column order; repr tells -0.0 from 0.0 and 1 from 1.0, so equal reprs of
# these rows and of the decoded columns mean bitwise-equal cells of equal types.


def staircase_loop(spec):
    w = spec.condensate_weight
    table = []
    for eta in eta_grid(spec.eta_start, spec.eta_stop, spec.eta_step):
        g = ground_winding(RingParams(eta=eta, u_tilde=spec.u_tilde))
        thermal = w * g.winding + (1.0 - w) * eta
        table.append((eta, g.winding, eta, thermal, g.mu_eff, g.degenerate, True))
    return table


def landscape_loop(m, etas, u_tilde, x_step):
    points, peaks = [], []
    for eta in etas:
        params = RingParams(eta=eta, u_tilde=u_tilde)
        for x in eta_grid(0.0, 1.0, x_step):
            points.append((eta, x, mu_mixed(MixedState(m, x), params)))
        info = barrier(m, params)
        if info is not None:
            peaks.append((eta, info.x_peak, info.mu_peak, info.height_from_m, info.height_from_m_plus_1))
    return points, peaks


def hysteresis_loop(path, u_tilde, m):
    table = []
    for i, eta in enumerate(path):
        going_up = (len(path) == 1 or path[1] >= eta) if i == 0 else eta >= path[i - 1]
        m = stepwise_settled_winding(m, eta, u_tilde)
        neighbor_up = eta >= m
        info = barrier(m if neighbor_up else m - 1, RingParams(eta=eta, u_tilde=u_tilde))
        height = None if info is None else (info.height_from_m if neighbor_up else info.height_from_m_plus_1)
        table.append((eta, "up" if going_up else "down", m, height))
    return table


class TestSweepsMatchPerPointLoops:
    """The sweeps evaluate closed forms on arrays; the loops above call the scalar functions per point."""

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
        assert repr(rows(staircase(spec))) == repr(staircase_loop(spec))

    @pytest.mark.parametrize("m", [-2, 0, 1])
    def test_landscape(self, m):
        etas = [-1.5, -0.7, -0.5, 0.0, 0.4999999, 0.5, 0.5000001, 1.3, 2.5, 2]
        for u_tilde, x_step in ((0.4 * TWO_PI, 0.05), (3.0, 0.3), (2 * TWO_PI, 1 / 3)):
            result = landscape(m, etas, u_tilde, x_step)
            points, peaks = landscape_loop(m, [float(e) for e in etas], u_tilde, x_step)
            assert repr(rows(result.points)) == repr(points)
            assert repr(rows(result.peaks)) == repr(peaks)
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
            table = rows(hysteresis(eta_path, u_tilde, start_winding))
            assert repr(table) == repr(hysteresis_loop([float(e) for e in eta_path], u_tilde, start_winding))
            if len(eta_path) > 10:
                assert any(height is None for *_, height in table)  # the walk slid somewhere

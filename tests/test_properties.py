"""Symmetries of the numeric ground-state search, as hypothesis properties.

Drawn eta values keep more than 1e-9 from every half-integer, so the two
neighbouring windings differ in energy by more than 2e-9, which the search
resolves; the tie points themselves are covered by deterministic tests in
test_solver.py, test_sweeps.py and test_cli.py.
"""

import math

import pytest
from hypothesis import assume, given, strategies as st

from acring.reduction import RingParams
from acring.ring import ground_winding
from acring.solver import global_ground
from acring.sweeps import StaircaseSpec, eta_grid, staircase

TWO_PI = 2.0 * math.pi
TIE_GAP = 1e-9


def converged_ground(p: RingParams):
    # global_ground reports a miss as converged=False; these properties need a hit
    report = global_ground(p)
    assert report.converged
    return report


def off_tie(eta: float) -> bool:
    return abs(eta - math.floor(eta) - 0.5) > TIE_GAP


etas = st.floats(-3.0, 3.0).filter(off_tie)
u_over_2pi = st.floats(0.5, 3.0)


@given(eta=etas, u2=u_over_2pi)
def test_gauge_covariance_shifts_winding_by_one(eta, u2):
    low = converged_ground(RingParams(eta=eta, u_tilde=u2 * TWO_PI))
    high = converged_ground(RingParams(eta=eta + 1.0, u_tilde=u2 * TWO_PI))
    assert high.winding == low.winding + 1
    assert high.mu == pytest.approx(low.mu, rel=0, abs=1e-9)


@given(eta=etas, u2=u_over_2pi)
def test_conjugation_flips_winding(eta, u2):
    plus = converged_ground(RingParams(eta=eta, u_tilde=u2 * TWO_PI))
    minus = converged_ground(RingParams(eta=-eta, u_tilde=u2 * TWO_PI))
    assert minus.winding == -plus.winding


@given(
    start=st.floats(-3.0, 3.0),
    step=st.sampled_from([0.05, 0.1, 0.25, 0.4]),
    points=st.integers(2, 5),
    u2=u_over_2pi,
)
def test_numeric_staircase_matches_closed_form(start, step, points, u2):
    stop = start + (points - 1) * step
    assume(all(off_tie(eta) for eta in eta_grid(start, stop, step)))
    u_tilde = u2 * TWO_PI
    columns = staircase(StaircaseSpec(start, stop, step, u_tilde=u_tilde, mode="numeric"))
    assert len(columns["eta"]) == points
    assert columns["converged"].all()
    closed_form = [ground_winding(RingParams(eta=eta, u_tilde=u_tilde)).winding for eta in columns["eta"].tolist()]
    assert columns["winding_T0"].tolist() == closed_form

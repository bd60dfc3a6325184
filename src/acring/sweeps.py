"""Parameter sweeps: winding staircase, stability landscape, hysteresis walk.

The staircase tabulates the ground-state winding against the gauge phase eta,
either from the closed-form nearest-integer rule or from the numeric
solver (the two must agree; the numeric route exists precisely to check the
analytic one).  Finite temperature enters only as a condensate weight w: the
mean angular momentum is w * staircase + (1 - w) * eta, the second term being
the classical (unquantized) ensemble result.

The hysteresis walk carries a winding along an eta path and lets it change
only where the two-mode barrier toward the energetically favored neighbor
disappears, i.e. where |m + 1/2 - eta| >= u_tilde / (2 pi).  Sweeping eta up
and back down therefore switches windings at different points; the loop
widens with the interaction strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ring import TWO_PI, barrier_peak, nearest_winding, plane_mu, two_mode_mu
from .solver import SolverSettings, global_grounds

# perfbench/tracing.py wraps these names in acring.sweeps; the sweeps in this
# module evaluate the same closed forms on arrays instead of calling them
from .ring import barrier, ground_winding, mu_mixed  # noqa: F401
from .solver import global_ground  # noqa: F401

__all__ = [
    "StaircaseSpec",
    "LandscapeResult",
    "eta_grid",
    "staircase",
    "landscape",
    "hysteresis",
]

GRID_DECIMALS = 12  # sweep abscissae snap to this many decimals so that
#                     decimal ranges land on exact binary representatives
#                     (0.05 * 10 -> 0.5 exactly, not 0.5000000000000001)
_GRID_SCALE = 10.0**GRID_DECIMALS
MAX_GRID_POINTS = 10**7  # larger grids are rejected before any list is built


def _grid_count(start: float, stop: float, step: float) -> int:
    """Number of points of eta_grid(start, stop, step), validated without building it."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"the grid's {name} must be finite")
    if step <= 0:
        raise ValueError("step must be > 0")
    if stop < start:
        raise ValueError("stop must be >= start")
    span = (stop - start) / step + 0.5
    if not span < MAX_GRID_POINTS:  # also catches an overflow to inf
        raise ValueError(f"grid would exceed {MAX_GRID_POINTS} points; increase the step")
    return int(math.floor(span)) + 1


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    """eta_grid as a float64 array; a grid whose last point overflows floats is rejected before it is built."""
    start, step = float(start), float(step)
    count = _grid_count(start, stop, step)
    if not math.isfinite(start + (count - 1) * step):
        raise ValueError(f"the grid's last point, {start} + {count - 1} * {step}, overflows floats")
    x = start + np.arange(count) * step
    with np.errstate(over="ignore", invalid="ignore"):  # such points go to round below
        scaled = x * _GRID_SCALE
        grid = np.rint(scaled) / _GRID_SCALE
        near_tie = np.abs(scaled - np.floor(scaled) - 0.5) <= np.abs(np.spacing(scaled))
    exact = np.flatnonzero(near_tie | ~(np.abs(scaled) < 2.0**52))
    grid[exact] = [round(value, GRID_DECIMALS) for value in x[exact].tolist()]
    return grid


def eta_grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive grid from start to stop; endpoint within half-step tolerance.

    Point i is round(start + i * step, GRID_DECIMALS), bit for bit, sign of
    zero included.  It is computed as the integer N = rint(x * 1e12) over
    1e12, which is the same double: N / 1e12 is correctly rounded, as is
    round's decimal-to-float step.  Where the product x * 1e12 (itself
    rounded) lies within one ulp of a half-integer, rint could settle a tie
    the other way than the exact x would, and from |x * 1e12| = 2**52 on
    (inf included) N is no longer exact; those points use round itself.
    Integer arguments are taken as floats, so every point is a float.
    """
    return _grid(start, stop, step).tolist()


@dataclass(frozen=True)
class StaircaseSpec:
    """One staircase sweep: eta grid, interaction, engine, condensate weight.

    mode 'analytic' uses the nearest-integer rule; 'numeric' runs the
    multi-seed numeric search at every point.  condensate_weight w
    in [0, 1] sets the thermal average; w = 1 is the pure staircase, w = 0
    the classical line.
    """

    eta_start: float
    eta_stop: float
    eta_step: float
    u_tilde: float
    mode: str = "analytic"
    condensate_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.eta_step <= 0:
            raise ValueError("eta_step must be > 0")
        if self.eta_stop < self.eta_start:
            raise ValueError("eta_stop must be >= eta_start")
        if not 0.0 <= self.condensate_weight <= 1.0:
            raise ValueError("condensate_weight must lie in [0, 1]")
        if self.mode not in ("analytic", "numeric"):
            raise ValueError("mode must be 'analytic' or 'numeric'")


class LandscapeResult(NamedTuple):
    """landscape's two tables, each as column names mapped to columns (see landscape)."""

    points: dict
    peaks: dict


def _finite(name: str, values) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


def _float_exact(name: str, winding: int) -> None:
    """Reject a winding that a float does not hold exactly: the closed forms compute in floats."""
    try:
        exact = float(winding) == winding
    except OverflowError:
        exact = False
    if not exact:
        raise ValueError(f"{name} must be an integer that a float holds exactly")


def _integers(values: np.ndarray) -> np.ndarray:
    """Integer-valued floats as int64, or past int64's range as Python ints in an object array.

    The object dtype is asked for: np.array of Python ints picks float64 for
    a mix such as [-1, 2**63], and would drop digits.
    """
    if np.abs(values).max(initial=0.0) < 2.0**63:
        return values.astype(np.int64)
    return np.array(list(map(int, values.tolist())), dtype=object)


def staircase(spec: StaircaseSpec, settings: SolverSettings | None = None) -> dict[str, np.ndarray]:
    """Sweep eta: the ground winding and the thermal average, as column names mapped to arrays.

    The columns, in order: eta, winding_T0, classical_mean, thermal_mean,
    mu_eff, degenerate and converged.  thermal_mean is w * winding_T0 +
    (1 - w) * eta exactly, w the condensate weight.  eta, classical_mean,
    thermal_mean and mu_eff are float64; winding_T0 is int64 (an object
    array of Python ints past int64's range, as at eta = 1e300); degenerate
    and converged are bool.  The closed forms are evaluated on the whole
    grid at once.  Numeric mode relaxes every point of the grid in one
    multi-point search (global_grounds, in bounded chunks).
    Non-convergence at a point does not abort the sweep: the best attempt
    is recorded with converged=False.  Rows come out in eta order;
    classical_mean is the eta array itself.
    """
    w = spec.condensate_weight
    etas = _grid(spec.eta_start, spec.eta_stop, spec.eta_step)
    _finite("u_tilde", spec.u_tilde)
    winding, degenerate = nearest_winding(etas)
    if spec.mode == "numeric":
        numeric = global_grounds(etas, spec.u_tilde, settings)
        windings, mu_eff, converged = numeric["winding"], numeric["mu"], numeric["converged"]
        winding = windings.astype(float)
    else:
        windings = _integers(winding)
        mu_eff = plane_mu(winding, etas, spec.u_tilde)
        converged = np.ones(len(etas), dtype=bool)
    return {
        "eta": etas,
        "winding_T0": windings,
        "classical_mean": etas,
        "thermal_mean": w * winding + (1.0 - w) * etas,
        "mu_eff": mu_eff,
        "degenerate": degenerate,
        "converged": converged,
    }


def landscape(m: int, eta_values, u_tilde: float, x_step: float) -> LandscapeResult:
    """Two-mode energy surface mu(x) for each eta, with barrier peaks marked.

    The result is (points, peaks), each column names mapped to columns:
    points eta, x, mu_eff; peaks eta, x_peak, mu_peak, height_from_m,
    height_from_m_plus_1.  The points tabulate mu_mixed over x in [0, 1]
    for the winding pair (m, m+1); for every eta whose barrier peak lies
    strictly inside (0, 1) a peak row records its location, value, and the
    climb from either endpoint.  Every column is float64.  The points' eta
    and x repeat by construction, so they come as (values, index) pairs
    whose cells are values[index]: eta is (etas, each index repeated once
    per mixing point), x is (mixing grid, its indices tiled once per eta).
    More than MAX_GRID_POINTS points in all are rejected before any is
    computed, and so is an x_step whose grid ends past x = 1 (eta_grid
    keeps an endpoint within half a step: 0.4 gives 0, 0.4, 0.8, 1.2), and
    an m that a float does not hold exactly.  So is a table whose values
    overflow floats (|eta - m| past about 1e154, or u_tilde near the float
    range), before any row is built.
    """
    if x_step <= 0:
        raise ValueError("x_step must be > 0")
    if u_tilde <= 0:
        raise ValueError("landscape requires u_tilde > 0")
    etas = np.array(list(eta_values), dtype=float)
    if len(etas) * _grid_count(0.0, 1.0, x_step) > MAX_GRID_POINTS:
        raise ValueError(
            f"landscape would exceed {MAX_GRID_POINTS} points (eta values x mixing steps); increase a step"
        )
    xs = _grid(0.0, 1.0, x_step)
    if xs[-1] > 1.0:
        raise ValueError(f"x_step {x_step} puts the last mixing point at {xs[-1]}, outside [0, 1]")
    _finite("eta", etas)
    _finite("u_tilde", u_tilde)
    _float_exact("m", m)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned
        mu = two_mode_mu(m, xs, etas[:, np.newaxis], u_tilde)
        x_peak, *values = barrier_peak(m, etas, u_tilde)
    interior = (0.0 < x_peak) & (x_peak < 1.0)
    finite = np.isfinite(mu).all(axis=1) & (~interior | np.isfinite(values).all(axis=0))
    if not finite.all():
        raise ValueError(f"eta={etas[finite.argmin()]} overflows the landscape's floats (u_tilde={u_tilde})")
    points = {
        "eta": (etas, np.repeat(np.arange(len(etas)), len(xs))),
        "x": (xs, np.tile(np.arange(len(xs)), len(etas))),
        "mu_eff": mu.ravel(),
    }
    peak_names = ("eta", "x_peak", "mu_peak", "height_from_m", "height_from_m_plus_1")
    return LandscapeResult(points, {name: v[interior] for name, v in zip(peak_names, (etas, x_peak, *values))})


def _up(m: np.ndarray) -> np.ndarray:
    """The next integer-valued float above m: m + 1, or past 2**53 (where m + 1 == m) the next float."""
    return np.maximum(m + 1.0, np.nextafter(m, np.inf))


def _down(m: np.ndarray) -> np.ndarray:
    """The next integer-valued float below m (see _up)."""
    return np.minimum(m - 1.0, np.nextafter(m, -np.inf))


def _window_edges(etas: np.ndarray, half_window: float) -> tuple[np.ndarray, np.ndarray]:
    """(low, high): the least and the greatest integer-valued float m with eta - m < half_window and m - eta < half_window.

    These are where a walk of single steps stops: up while eta - m >=
    half_window, down while m - eta >= half_window.  The closed forms
    floor(eta - half_window) + 1 and ceil(eta + half_window) - 1 are
    corrected by those same float comparisons, one step at a time, so each
    edge sits exactly where the comparisons put it.  A step goes to the
    neighbouring integer-valued float (_up, _down), so the corrections end
    also where eta +- half_window lies past 2**53 and m + 1 == m.
    """
    low = np.floor(etas - half_window) + 1.0
    high = np.ceil(etas + half_window) - 1.0
    for edge, inward, outward, inside in (
        (low, _up, _down, lambda m: etas - m < half_window),
        (high, _down, _up, lambda m: m - etas < half_window),
    ):
        while (more := inside(beyond := outward(edge))).any():
            edge[more] = beyond[more]
        while (out := ~inside(edge)).any():
            edge[out] = inward(edge)[out]
    return low, high


def _walk(etas: np.ndarray, u_tilde: float, start_winding: int) -> tuple[np.ndarray, np.ndarray]:
    """(going_up, winding): the direction at each point of the path and the winding settled there, as floats.

    The settled winding is the clamp clip(m, low, high) of the incoming
    winding m to the window edges of _window_edges.  On a run of rising eta
    the edges only rise, so after the run's first point the winding is
    max(entry, low), low's running maximum; falling runs mirror it with
    high.  Only the runs' entries are carried from run to run in Python.
    Where 1/2 + u_tilde/(2 pi) rounds to 1/2 at a half-integer eta, the
    window is empty in floats (low = high + 1): a winding on either edge
    keeps its value, the answer of exact arithmetic, and one beyond both
    settles on the nearer.
    """
    going_up = np.empty(len(etas), dtype=bool)
    going_up[0] = len(etas) == 1 or etas[1] >= etas[0]
    going_up[1:] = etas[1:] >= etas[:-1]
    low, high = _window_edges(etas, 0.5 + u_tilde / TWO_PI)
    low, high = np.minimum(low, high), np.maximum(low, high)  # an empty window keeps both edges
    ends = [*(np.flatnonzero(going_up[1:] != going_up[:-1]) + 1).tolist(), len(etas)]
    starts = [0, *ends[:-1]]
    last = [end - 1 for end in ends]
    entries, m = [], float(start_winding)
    for up, low_first, high_first, low_last, high_last in zip(
        going_up[starts].tolist(), low[starts].tolist(), high[starts].tolist(), low[last].tolist(), high[last].tolist()
    ):
        m = min(max(m, low_first), high_first)
        entries.append(m)
        m = max(m, low_last) if up else min(m, high_last)
    entry = np.repeat(entries, np.diff([0, *ends]))
    winding = np.where(going_up, np.maximum(entry, low), np.minimum(entry, high))
    return going_up, winding


def hysteresis(eta_path, u_tilde: float, start_winding: int) -> dict:
    """Walk eta along a path, carrying the winding through metastable plateaus.

    The walk comes back as column names mapped to columns, in the order
    eta, direction, winding, barrier_height.  At each point the current
    winding m survives while the two-mode barrier toward the adjacent
    lower-mu winding still has an interior peak; once the peak leaves
    (0, 1) the state slides to that neighbor (see _walk).

    eta is float64, direction a (values, index) pair over ("up", "down"),
    winding int64 (Python ints in an object array past int64's range) and
    barrier_height, the height toward the favored neighbor, a pair over the
    interior heights whose index len(values) marks an absent barrier (None).
    Path steps larger than 1 in eta are rejected: they could jump across a
    whole winding sector.  So are |eta| >= 2**53 and a start_winding that a
    float does not hold exactly, where the walk's float comparisons cannot
    tell neighbouring windings apart.  The heights are the climbs
    ring.barrier_peak takes, at most u_tilde / pi, so they never overflow.
    """
    if u_tilde <= 0:
        raise ValueError("hysteresis requires u_tilde > 0")
    etas = np.array(list(eta_path), dtype=float)
    if not len(etas):
        raise ValueError("eta_path must be non-empty")
    with np.errstate(invalid="ignore"):  # inf - inf; non-finite etas are reported below
        if (np.abs(np.diff(etas)) > 1.0 + 1e-12).any():
            raise ValueError("eta path step exceeds 1; winding sectors could be skipped")
    _finite("eta", etas)
    _finite("u_tilde", u_tilde)
    if np.abs(etas).max() >= 2.0**53:  # past it floats skip integers, and the walk could not finish
        raise ValueError("hysteresis needs |eta| < 2**53, where floats hold every integer")
    _float_exact("start_winding", start_winding)

    going_up, winding = _walk(etas, u_tilde, start_winding)
    neighbor_up = etas >= winding
    with np.errstate(over="ignore", invalid="ignore"):  # x_peak at a tiny u_tilde; such a peak is not interior
        x_peak, _, height_from_m, height_from_m_plus_1 = barrier_peak(
            np.where(neighbor_up, winding, winding - 1.0), etas, u_tilde
        )
    heights = np.where(neighbor_up, height_from_m, height_from_m_plus_1)
    interior = (0.0 < x_peak) & (x_peak < 1.0)
    inside = np.flatnonzero(interior)
    return {
        "eta": etas,
        "direction": (np.array(["up", "down"]), np.logical_not(going_up).view(np.int8)),
        "winding": _integers(winding),
        "barrier_height": (heights[inside], np.where(interior, np.cumsum(interior) - 1, len(inside))),
    }

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
from itertools import compress

import numpy as np

from .reduction import RingParams
from .ring import TWO_PI, barrier_peak, nearest_winding, plane_mu, two_mode_mu
from .solver import SolverSettings, global_grounds

# perfbench/tracing.py wraps these names in acring.sweeps; the sweeps in this
# module evaluate the same closed forms on arrays instead of calling them
from .ring import barrier, ground_winding, mu_mixed  # noqa: F401
from .solver import global_ground  # noqa: F401

__all__ = [
    "StaircaseSpec",
    "SweepRecord",
    "HysteresisRecord",
    "LandscapePoint",
    "LandscapePeak",
    "LandscapeResult",
    "eta_grid",
    "staircase",
    "staircase_columns",
    "landscape",
    "landscape_columns",
    "hysteresis",
    "hysteresis_columns",
]

GRID_DECIMALS = 12  # sweep abscissae snap to this many decimals so that
#                     decimal ranges land on exact binary representatives
#                     (0.05 * 10 -> 0.5 exactly, not 0.5000000000000001)
_GRID_SCALE = 10.0**GRID_DECIMALS
MAX_GRID_POINTS = 10**7  # larger grids are rejected before any list is built


def _grid_count(start: float, stop: float, step: float) -> int:
    """Number of points of eta_grid(start, stop, step), validated without building it."""
    if step <= 0:
        raise ValueError("step must be > 0")
    if stop < start:
        raise ValueError("stop must be >= start")
    span = (stop - start) / step + 0.5
    if not span < MAX_GRID_POINTS:  # also catches inf and nan
        raise ValueError(f"grid would exceed {MAX_GRID_POINTS} points; increase the step")
    return int(math.floor(span)) + 1


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
    start, step = float(start), float(step)
    x = start + np.arange(_grid_count(start, stop, step)) * step
    with np.errstate(over="ignore", invalid="ignore"):  # such points go to round below
        scaled = x * _GRID_SCALE
        grid = np.rint(scaled) / _GRID_SCALE
        near_tie = np.abs(scaled - np.floor(scaled) - 0.5) <= np.abs(np.spacing(scaled))
    exact = np.flatnonzero(near_tie | ~(np.abs(scaled) < 2.0**52))
    grid[exact] = [round(value, GRID_DECIMALS) for value in x[exact].tolist()]
    return grid.tolist()


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


@dataclass(frozen=True)
class SweepRecord:
    """One staircase row; thermal_mean = w * winding + (1 - w) * eta exactly."""

    eta: float
    winding_T0: int
    classical_mean: float
    thermal_mean: float
    mu_eff: float
    degenerate: bool
    converged: bool = True


@dataclass(frozen=True)
class HysteresisRecord:
    """One point of the hysteresis walk; barrier_height is None where absent."""

    eta: float
    direction: str
    winding: int
    barrier_height: float | None


@dataclass(frozen=True)
class LandscapePoint:
    eta: float
    x: float
    mu_eff: float


@dataclass(frozen=True)
class LandscapePeak:
    eta: float
    x_peak: float
    mu_peak: float
    height_from_m: float
    height_from_m_plus_1: float


@dataclass(frozen=True)
class LandscapeResult:
    points: list[LandscapePoint]
    peaks: list[LandscapePeak]


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


def staircase_columns(spec: StaircaseSpec, settings: SolverSettings | None = None) -> dict[str, list]:
    """The staircase as SweepRecord's field names mapped to plain lists, in field order.

    The closed forms are evaluated on the whole grid at once.  Numeric mode
    relaxes every point of the grid in one multi-point search
    (global_grounds, in bounded chunks).  Non-convergence at a point does
    not abort the sweep: the best attempt is recorded with converged=False.
    Rows come out in eta order; classical_mean is the eta list itself.
    """
    w = spec.condensate_weight
    grid = eta_grid(spec.eta_start, spec.eta_stop, spec.eta_step)
    _finite("u_tilde", spec.u_tilde)
    etas = np.array(grid)
    winding, degenerate = nearest_winding(etas)
    if spec.mode == "numeric":
        numeric = global_grounds([RingParams(eta=eta, u_tilde=spec.u_tilde) for eta in grid], settings)
        windings = [report.winding for report in numeric]
        mu_eff = [report.mu for report in numeric]
        converged = [report.converged for report in numeric]
        winding = np.array(windings, dtype=float)
    else:
        windings = list(map(int, winding.tolist()))
        mu_eff = plane_mu(winding, etas, spec.u_tilde).tolist()
        converged = [True] * len(grid)
    return {
        "eta": grid,
        "winding_T0": windings,
        "classical_mean": grid,
        "thermal_mean": (w * winding + (1.0 - w) * etas).tolist(),
        "mu_eff": mu_eff,
        "degenerate": degenerate.tolist(),
        "converged": converged,
    }


def staircase(spec: StaircaseSpec, settings: SolverSettings | None = None) -> list[SweepRecord]:
    """Sweep eta and record the ground winding plus the thermal average (see staircase_columns)."""
    return list(map(SweepRecord, *staircase_columns(spec, settings).values()))


def landscape_columns(m: int, eta_values, u_tilde: float, x_step: float) -> tuple[dict, dict]:
    """The landscape as (points, peaks): LandscapePoint's and LandscapePeak's field names mapped to lists.

    Tabulates mu_mixed over x in [0, 1] for the winding pair (m, m+1); for
    every eta whose barrier peak lies strictly inside (0, 1) a peak row
    records its location, value, and the climb from either endpoint.  More
    than MAX_GRID_POINTS points in all are rejected before any is computed,
    and so is an x_step whose grid ends past x = 1 (eta_grid keeps an
    endpoint within half a step: 0.4 gives 0, 0.4, 0.8, 1.2), and an m that
    a float does not hold exactly.  So is a table whose values overflow
    floats (|eta - m| past about 1e154, or u_tilde near the float range),
    before any row is built.
    """
    if x_step <= 0:
        raise ValueError("x_step must be > 0")
    if u_tilde <= 0:
        raise ValueError("landscape requires u_tilde > 0")
    eta_values = list(eta_values)
    if len(eta_values) * _grid_count(0.0, 1.0, x_step) > MAX_GRID_POINTS:
        raise ValueError(
            f"landscape would exceed {MAX_GRID_POINTS} points (eta values x mixing steps); increase a step"
        )
    xs = eta_grid(0.0, 1.0, x_step)
    if xs[-1] > 1.0:
        raise ValueError(f"x_step {x_step} puts the last mixing point at {xs[-1]}, outside [0, 1]")
    etas = np.array(eta_values, dtype=float)
    _finite("eta", etas)
    _finite("u_tilde", u_tilde)
    _float_exact("m", m)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned
        mu = two_mode_mu(m, np.array(xs), etas[:, np.newaxis], u_tilde)
        x_peak, *values = barrier_peak(m, etas, u_tilde)
    interior = (0.0 < x_peak) & (x_peak < 1.0)
    finite = np.isfinite(mu).all(axis=1) & (~interior | np.isfinite(values).all(axis=0))
    if not finite.all():
        raise ValueError(f"eta={eta_values[finite.argmin()]} overflows the landscape's floats (u_tilde={u_tilde})")
    points = {
        "eta": [eta for eta in eta_values for _ in xs],
        "x": xs * len(eta_values),
        "mu_eff": mu.ravel().tolist(),
    }
    peak_names = ("eta", "x_peak", "mu_peak", "height_from_m", "height_from_m_plus_1")
    peak_columns = [list(compress(eta_values, interior.tolist()))] + [v[interior].tolist() for v in (x_peak, *values)]
    return points, dict(zip(peak_names, peak_columns))


def landscape(m: int, eta_values, u_tilde: float, x_step: float) -> LandscapeResult:
    """Two-mode energy surface mu(x) for each eta, with barrier peaks marked (see landscape_columns)."""
    points, peaks = landscape_columns(m, eta_values, u_tilde, x_step)
    return LandscapeResult(list(map(LandscapePoint, *points.values())), list(map(LandscapePeak, *peaks.values())))


def _settled_winding(m: int, eta: float, u_tilde: float) -> int:
    """Slide the winding while the barrier toward the favored neighbor is gone.

    The two-mode path from m toward m+1 loses its interior peak (and becomes
    monotone downhill) once eta - m >= 1/2 + u_tilde/(2 pi); mirrored for the
    path toward m-1.  A slide jumps to floor(eta - half_window) - 1
    (ceil(eta + half_window) + 1 going down) when the step comparison
    confirms that the winding still slides there, which holds whenever
    |eta| < 2**53; single steps take the rest, so a point exactly on a
    window edge settles as in a walk of single steps.
    """
    half_window = 0.5 + u_tilde / TWO_PI
    while True:
        if eta - m >= half_window:
            jump = math.floor(eta - half_window) - 1
            m = jump if m < jump and eta - jump >= half_window else m + 1
        elif m - eta >= half_window:
            jump = math.ceil(eta + half_window) + 1
            m = jump if m > jump and jump - eta >= half_window else m - 1
        else:
            return m


def hysteresis_columns(eta_path, u_tilde: float, start_winding: int) -> dict[str, list]:
    """The hysteresis walk as HysteresisRecord's field names mapped to plain lists, in field order.

    At each point the current winding m survives while the two-mode barrier
    toward the adjacent lower-mu winding still has an interior peak; once the
    peak leaves (0, 1) the state slides to that neighbor.  Emits the settled
    winding and the barrier height toward the favored neighbor (None where
    the barrier is absent).  Path steps larger than 1 in eta are rejected:
    they could jump across a whole winding sector.  So are |eta| >= 2**53
    and a start_winding that a float does not hold exactly, where the walk's
    float comparisons cannot tell neighbouring windings apart, and a barrier
    height that overflows floats (u_tilde near the float range).
    """
    if u_tilde <= 0:
        raise ValueError("hysteresis requires u_tilde > 0")
    path = [float(e) for e in eta_path]
    if not path:
        raise ValueError("eta_path must be non-empty")
    for a, b in zip(path, path[1:]):
        if abs(b - a) > 1.0 + 1e-12:
            raise ValueError("eta path step exceeds 1; winding sectors could be skipped")

    etas = np.array(path)
    _finite("eta", etas)
    _finite("u_tilde", u_tilde)
    if np.abs(etas).max() >= 2.0**53:  # past it floats skip integers, and the walk could not finish
        raise ValueError("hysteresis needs |eta| < 2**53, where floats hold every integer")
    _float_exact("start_winding", start_winding)

    windings = []
    m = start_winding
    for eta in path:
        m = _settled_winding(m, eta, u_tilde)
        windings.append(m)
    going_up = np.empty(len(path), dtype=bool)
    going_up[0] = len(path) == 1 or path[1] >= path[0]
    going_up[1:] = etas[1:] >= etas[:-1]
    winding = np.array(windings)
    neighbor_up = etas >= winding
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned
        x_peak, _, height_from_m, height_from_m_plus_1 = barrier_peak(
            np.where(neighbor_up, winding, winding - 1), etas, u_tilde
        )
    heights = np.where(neighbor_up, height_from_m, height_from_m_plus_1)
    interior = (0.0 < x_peak) & (x_peak < 1.0)
    finite = ~interior | np.isfinite(heights)
    if not finite.all():
        raise ValueError(f"eta={path[finite.argmin()]} overflows the hysteresis barrier's floats (u_tilde={u_tilde})")
    return {
        "eta": path,
        "direction": ["up" if up else "down" for up in going_up.tolist()],
        "winding": windings,
        "barrier_height": [h if inside else None for h, inside in zip(heights.tolist(), interior.tolist())],
    }


def hysteresis(eta_path, u_tilde: float, start_winding: int) -> list[HysteresisRecord]:
    """Walk eta along a path, carrying the winding through metastable plateaus (see hysteresis_columns)."""
    return list(map(HysteresisRecord, *hysteresis_columns(eta_path, u_tilde, start_winding).values()))

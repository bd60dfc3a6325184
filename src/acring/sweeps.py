"""Parameter sweeps: winding staircase, stability landscape, hysteresis walk.

The staircase tabulates the ground-state winding against the gauge phase eta,
either from the closed-form nearest-integer rule or from the imaginary-time
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

from .reduction import RingParams
from .ring import TWO_PI, MixedState, barrier, ground_winding, mu_mixed
from .solver import SolverSettings, global_grounds
from .solver import global_ground  # noqa: F401  (perfbench/tracing.py wraps acring.sweeps.global_ground)

__all__ = [
    "StaircaseSpec",
    "SweepRecord",
    "HysteresisRecord",
    "LandscapePoint",
    "LandscapePeak",
    "LandscapeResult",
    "eta_grid",
    "staircase",
    "landscape",
    "hysteresis",
]

GRID_DECIMALS = 12  # sweep abscissae snap to this many decimals so that
#                     decimal ranges land on exact binary representatives
#                     (0.05 * 10 -> 0.5 exactly, not 0.5000000000000001)
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
    """Inclusive grid from start to stop; endpoint within half-step tolerance."""
    return [round(start + i * step, GRID_DECIMALS) for i in range(_grid_count(start, stop, step))]


@dataclass(frozen=True)
class StaircaseSpec:
    """One staircase sweep: eta grid, interaction, engine, condensate weight.

    mode 'analytic' uses the nearest-integer rule; 'numeric' runs the
    multi-seed imaginary-time search at every point.  condensate_weight w
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


def staircase(spec: StaircaseSpec, settings: SolverSettings | None = None) -> list[SweepRecord]:
    """Sweep eta and record the ground winding plus the thermal average.

    Numeric mode relaxes every point of the grid in one multi-point search
    (global_grounds, in bounded chunks).  Non-convergence at a point does
    not abort the sweep: the best attempt is recorded with converged=False.
    Records come out in eta order.
    """
    w = spec.condensate_weight
    grid = eta_grid(spec.eta_start, spec.eta_stop, spec.eta_step)
    if spec.mode == "numeric":
        numeric = global_grounds([RingParams(eta=eta, u_tilde=spec.u_tilde) for eta in grid], settings)
    records = []
    for i, eta in enumerate(grid):
        analytic = ground_winding(RingParams(eta=eta, u_tilde=spec.u_tilde))
        if spec.mode == "analytic":
            winding, mu_eff, converged = analytic.winding, analytic.mu_eff, True
        else:
            report = numeric[i]
            winding, mu_eff, converged = report.winding, report.mu, report.converged
        records.append(
            SweepRecord(
                eta=eta,
                winding_T0=winding,
                classical_mean=eta,
                thermal_mean=w * winding + (1.0 - w) * eta,
                mu_eff=mu_eff,
                degenerate=analytic.degenerate,
                converged=converged,
            )
        )
    return records


def landscape(m: int, eta_values, u_tilde: float, x_step: float) -> LandscapeResult:
    """Two-mode energy surface mu(x) for each eta, with barrier peaks marked.

    Tabulates mu_mixed over x in [0, 1] for the winding pair (m, m+1); for
    every eta whose barrier peak lies strictly inside (0, 1) a LandscapePeak
    records its location, value, and the climb from either endpoint.  More
    than MAX_GRID_POINTS points in all are rejected before any is computed.
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
    points = []
    peaks = []
    for eta in eta_values:
        params = RingParams(eta=eta, u_tilde=u_tilde)
        for x in xs:
            points.append(LandscapePoint(eta=eta, x=x, mu_eff=mu_mixed(MixedState(m, x), params)))
        info = barrier(m, params)
        if info is not None:
            peaks.append(
                LandscapePeak(
                    eta=eta,
                    x_peak=info.x_peak,
                    mu_peak=info.mu_peak,
                    height_from_m=info.height_from_m,
                    height_from_m_plus_1=info.height_from_m_plus_1,
                )
            )
    return LandscapeResult(points=points, peaks=peaks)


def _settled_winding(m: int, eta: float, u_tilde: float) -> int:
    """Slide the winding while the barrier toward the favored neighbor is gone.

    The two-mode path from m toward m+1 loses its interior peak (and becomes
    monotone downhill) once eta - m >= 1/2 + u_tilde/(2 pi); mirrored for the
    path toward m-1.  The loop guards the corner case of a path step exactly
    at the window edge crossing two thresholds at once.
    """
    half_window = 0.5 + u_tilde / TWO_PI
    while True:
        if eta - m >= half_window:
            m += 1
        elif m - eta >= half_window:
            m -= 1
        else:
            return m


def hysteresis(eta_path, u_tilde: float, start_winding: int) -> list[HysteresisRecord]:
    """Walk eta along a path, carrying the winding through metastable plateaus.

    At each point the current winding m survives while the two-mode barrier
    toward the adjacent lower-mu winding still has an interior peak; once the
    peak leaves (0, 1) the state slides to that neighbor.  Emits the settled
    winding and the barrier height toward the favored neighbor (None where
    the barrier is absent).  Path steps larger than 1 in eta are rejected:
    they could jump across a whole winding sector.
    """
    if u_tilde <= 0:
        raise ValueError("hysteresis requires u_tilde > 0")
    path = [float(e) for e in eta_path]
    if not path:
        raise ValueError("eta_path must be non-empty")
    for a, b in zip(path, path[1:]):
        if abs(b - a) > 1.0 + 1e-12:
            raise ValueError("eta path step exceeds 1; winding sectors could be skipped")

    records = []
    m = start_winding
    for i, eta in enumerate(path):
        if i == 0:
            going_up = len(path) == 1 or path[1] >= eta
        else:
            going_up = eta >= path[i - 1]
        m = _settled_winding(m, eta, u_tilde)
        neighbor_up = eta >= m
        pair_base = m if neighbor_up else m - 1
        info = barrier(pair_base, RingParams(eta=eta, u_tilde=u_tilde))
        if info is None:
            height = None
        else:
            height = info.height_from_m if neighbor_up else info.height_from_m_plus_1
        records.append(
            HysteresisRecord(
                eta=eta,
                direction="up" if going_up else "down",
                winding=m,
                barrier_height=height,
            )
        )
    return records

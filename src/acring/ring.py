"""Analytic theory of the 1D ring model.

Uniform states on the ring are plane waves exp(i m phi) with integer winding
m; their chemical potential is (m - eta)^2 + u_tilde/(2 pi), so the ground
state winding is the integer nearest to eta and jumps at half-integer eta.
A two-mode superposition of windings m and m+1 interpolates between
neighboring plane waves and, for repulsive interactions, has to climb an
energy barrier on the way; its peak location and height control
metastability and hysteresis.

All chemical potentials here exclude the winding-independent offset carried
by RingParams.mu_offset (use mu_total to add it back for reporting), so the
numbers sit on the same vertical scale as the u_tilde/(2 pi) interaction
plateau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .reduction import RingParams

__all__ = [
    "MixedState",
    "GroundWindingResult",
    "BarrierInfo",
    "mu_uniform",
    "mu_total",
    "ground_winding",
    "mu_mixed",
    "barrier",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MixedState:
    """Two-mode superposition sqrt(1-x) e^{im phi} + sqrt(x) e^{i theta} e^{i(m+1) phi}.

    mixing x in [0, 1] moves the state from winding m to winding m+1;
    phase theta in [0, 2 pi) is carried along but drops out of the energy.
    """

    winding: int
    mixing: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.mixing <= 1.0:
            raise ValueError("mixing must lie in [0, 1]")
        if not 0.0 <= self.phase < TWO_PI:
            raise ValueError("phase must lie in [0, 2*pi)")


@dataclass(frozen=True)
class GroundWindingResult:
    """Winding selected at zero temperature, with its chemical potential.

    degenerate is True exactly at half-integer eta, where windings m and m+1
    tie; the lower integer is returned then.
    """

    winding: int
    degenerate: bool
    mu_eff: float


@dataclass(frozen=True)
class BarrierInfo:
    """Interior maximum of the two-mode landscape between windings m and m+1."""

    x_peak: float
    mu_peak: float
    height_from_m: float
    height_from_m_plus_1: float


def mu_uniform(m: int, params: RingParams) -> float:
    """Chemical potential of the plane wave with winding m: (m-eta)^2 + u/(2 pi)."""
    return (m - params.eta) ** 2 + params.u_tilde / TWO_PI


def mu_total(mu_value: float, params: RingParams) -> float:
    """Add the winding-independent offset back onto a chemical potential."""
    return mu_value + params.mu_offset


def ground_winding(params: RingParams) -> GroundWindingResult:
    """Winding that minimizes mu_uniform: the integer nearest to eta.

    At exact half-integer eta the two neighbors tie; the lower integer is
    returned with degenerate=True so sweeps stay deterministic.
    """
    eta = params.eta
    base = math.floor(eta)
    frac = eta - base
    if frac == 0.5:
        winding = base
        degenerate = True
    else:
        winding = base if frac < 0.5 else base + 1
        degenerate = False
    return GroundWindingResult(winding=winding, degenerate=degenerate, mu_eff=mu_uniform(winding, params))


def mu_mixed(state: MixedState, params: RingParams) -> float:
    """Chemical potential of the two-mode state; independent of its phase.

    (1-x)(m-eta)^2 + x(m+1-eta)^2 + u/(2 pi) * [1 + 2x(1-x)].
    """
    m = state.winding
    x = state.mixing
    eta = params.eta
    interaction = params.u_tilde / TWO_PI * (1.0 + 2.0 * x * (1.0 - x))
    return (1.0 - x) * (m - eta) ** 2 + x * (m + 1 - eta) ** 2 + interaction


def barrier(m: int, params: RingParams) -> BarrierInfo | None:
    """Barrier of the two-mode path from winding m to m+1, if one exists.

    For u_tilde > 0 the path is an inverted parabola in x peaked at
    x* = 1/2 + (m + 1/2 - eta) * pi / u_tilde.  Returns None when x* falls
    outside the open interval (0, 1): the path is then monotone and the
    higher endpoint slides freely to the lower one.  The two heights are
    measured from each endpoint's plane-wave value.
    """
    if params.u_tilde <= 0:
        raise ValueError("barrier analysis requires u_tilde > 0")
    u = params.u_tilde
    eta = params.eta
    delta = m + 0.5 - eta
    x_peak = 0.5 + delta * math.pi / u
    if not 0.0 < x_peak < 1.0:
        return None
    mu_peak = (1.0 + math.pi / u) * (m - eta) * (m + 1 - eta) + 0.5 * (
        1.0 + math.pi / (2.0 * u) + 3.0 * u / TWO_PI
    )
    return BarrierInfo(
        x_peak=x_peak,
        mu_peak=mu_peak,
        height_from_m=mu_peak - mu_uniform(m, params),
        height_from_m_plus_1=mu_peak - mu_uniform(m + 1, params),
    )

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

Each closed form is written once, in a function that takes numpy arrays as
well as scalars (plane_mu, nearest_winding, two_mode_mu, barrier_peak); the
sweeps evaluate those on whole grids, and the public scalar functions below
wrap them for one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reduction import RingParams

__all__ = [
    "MixedState",
    "GroundWindingResult",
    "BarrierInfo",
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


def plane_mu(m, eta, u_tilde):
    """(m - eta)^2 + u_tilde/(2 pi); m and eta may be numpy arrays.

    Every closed form squares with np.float_power(d, 2.0), which rounds like
    Python's d ** 2 (libm pow); d * d and np.square differ from it by an ulp
    on some inputs, which would change printed full-precision floats.
    """
    return np.float_power(m - eta, 2.0) + u_tilde / TWO_PI


def nearest_winding(eta):
    """(winding, degenerate) of ground_winding for scalar or array eta.

    The winding comes back as a float (exact: it is floor(eta) or one more).
    """
    base = np.floor(eta)
    frac = eta - base
    return base + (frac > 0.5), frac == 0.5


def two_mode_mu(m, x, eta, u_tilde):
    """mu_mixed for scalar or broadcastable array mixing x and eta."""
    interaction = u_tilde / TWO_PI * (1.0 + 2.0 * x * (1.0 - x))
    return (1.0 - x) * np.float_power(m - eta, 2.0) + x * np.float_power(m + 1 - eta, 2.0) + interaction


def barrier_peak(m, eta, u_tilde):
    """barrier's (x_peak, mu_peak, height_from_m, height_from_m_plus_1), also on arrays.

    u_tilde must be > 0; the peak is interior exactly where 0 < x_peak < 1.
    The heights are the climbs 2 g x^2 and 2 g (1 - x)^2 (g = u_tilde / (2 pi),
    x the peak clipped to [0, 1]) and mu_peak is plane_mu(m) plus the first.
    They equal mu_peak less each endpoint's plane_mu in exact arithmetic,
    but that difference, with mu_peak expanded, cancels two terms of size
    pi / u_tilde and turns negative at small u_tilde; the climbs cancel
    nothing and stay below u_tilde / pi.  From |m| = 2**52 on, m + 0.5 is a
    tie that rounds to the even neighbour, so there m - eta is formed first;
    below that m + 0.5 is exact, and m + 0.5 - eta rounds once, not twice.
    """
    offset = np.where(np.abs(m) >= 2**52, (m - eta) + 0.5, m + 0.5 - eta)
    x_peak = 0.5 + offset * math.pi / u_tilde
    g = u_tilde / TWO_PI
    x = np.clip(x_peak, 0.0, 1.0)
    height_from_m = 2.0 * g * x * x
    return x_peak, plane_mu(m, eta, u_tilde) + height_from_m, height_from_m, 2.0 * g * (1.0 - x) * (1.0 - x)


def mu_total(mu_value: float, params: RingParams) -> float:
    """Add the winding-independent offset back onto a chemical potential."""
    return mu_value + params.mu_offset


def ground_winding(params: RingParams) -> GroundWindingResult:
    """Winding whose plane wave has the lowest plane_mu: the integer nearest to eta.

    At exact half-integer eta the two neighbors tie; the lower integer is
    returned with degenerate=True so sweeps stay deterministic.
    """
    winding, degenerate = nearest_winding(params.eta)
    return GroundWindingResult(
        winding=int(winding),
        degenerate=bool(degenerate),
        mu_eff=float(plane_mu(winding, params.eta, params.u_tilde)),
    )


def mu_mixed(state: MixedState, params: RingParams) -> float:
    """Chemical potential of the two-mode state; independent of its phase.

    (1-x)(m-eta)^2 + x(m+1-eta)^2 + u/(2 pi) * [1 + 2x(1-x)].
    """
    return float(two_mode_mu(state.winding, state.mixing, params.eta, params.u_tilde))


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
    x_peak, mu_peak, height_from_m, height_from_m_plus_1 = barrier_peak(m, params.eta, params.u_tilde)
    if not 0.0 < x_peak < 1.0:
        return None
    return BarrierInfo(
        x_peak=float(x_peak),
        mu_peak=float(mu_peak),
        height_from_m=float(height_from_m),
        height_from_m_plus_1=float(height_from_m_plus_1),
    )

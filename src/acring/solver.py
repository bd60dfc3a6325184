"""Spectral imaginary-time ground states of the 1D ring equation.

The stationary states solve

    [-(d/dphi - i eta)^2 + u_tilde |psi|^2] psi = mu_eff psi

on a uniform periodic grid phi_j = 2 pi j / G.  The kinetic operator is
exact in the angular-mode basis: mode k (a signed integer) has eigenvalue
(k - eta)^2, so the gauge phase costs nothing spectrally and introduces no
finite-difference artifacts.  Relaxation uses Strang splitting
(half kinetic / full interaction / half kinetic) with renormalization after
every step; imaginary time damps everything above the lowest state reachable
from the seed, which makes the same routine serve both as a metastable-state
preparator (noise-free seed, stays in its winding sector) and as a global
ground-state search (small seeded noise lets the state slide between
sectors).

One function, _strang_step, performs that step for relax,
imaginary_time_step and the batched search alike.  It carries the
normalized spectrum from one step to the next, so a step costs 3
transforms.  relax and imaginary_time_step follow the plain flow, whose
energy never rises.  The batched search (global_ground, global_grounds)
accelerates it with restarted momentum: each row steps from an
extrapolation of its last two accepted states and falls back to a plain
step whenever its energy would rise.  The fixed points are the same, but a
seed that settles into a metastable sector, where the plain flow creeps
along a soft mode for 10-20k steps, converges in hundreds to about a
thousand.  Only relax records the per-step energy history.

One rule, _stalled, stops both: mu and the energy per particle each moved
by at most tolerance * max(1, |value|) over the last (accepted) step; mu
alone stalls at the turning points it passes on the way down (under a
potential, or with momentum).  A miss is a report with converged=False;
only a diverged step raises (ArithmeticError).

Mode index convention: numpy transform order, indices above G/2 - 1 wrap to
negative k (exactly numpy.fft.fftfreq(G, 1/G)).  This matters because
(k - eta)^2 is not symmetric in k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .reduction import RingParams
from .ring import TWO_PI, ground_winding

__all__ = [
    "RingWavefunction",
    "SolverSettings",
    "GroundStateReport",
    "phi_grid",
    "mode_numbers",
    "apply_hamiltonian",
    "imaginary_time_step",
    "relax",
    "winding_number",
    "global_ground",
    "global_grounds",
    "dump_wavefunction",
]

NODE_FLOOR = 1e-10  # fraction of max |psi| below which winding is undefined
SEED_SHIFTS = range(-2, 3)  # global search seeds, relative to the analytic winding
_BATCH_AMPLITUDES = 2**17  # cap on rows * grid_size in one batched relaxation
MAX_GRID_SIZE = 2**16  # larger grids are rejected before anything is allocated


def _check_grid_size(grid_size: int) -> None:
    if not 64 <= grid_size <= MAX_GRID_SIZE or grid_size & (grid_size - 1) != 0:
        raise ValueError(f"grid_size must be a power of two between 64 and {MAX_GRID_SIZE}")


def phi_grid(grid_size: int) -> np.ndarray:
    """Azimuthal grid angles phi_j = 2 pi j / G."""
    _check_grid_size(grid_size)
    return TWO_PI * np.arange(grid_size) / grid_size


def mode_numbers(grid_size: int) -> np.ndarray:
    """Signed integer angular modes in transform order: 0..G/2-1, -G/2..-1."""
    _check_grid_size(grid_size)
    return np.fft.fftfreq(grid_size, d=1.0 / grid_size)


@dataclass
class RingWavefunction:
    """Complex amplitudes on the periodic azimuthal grid.

    Normalization convention: sum_j |psi_j|^2 * (2 pi / G) = 1 for a unit
    wavefunction.  Instances are treated as immutable values; operations
    return new instances.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.ndim != 1:
            raise ValueError("amplitudes must be a 1D array")
        _check_grid_size(self.amplitudes.size)

    @property
    def grid_size(self) -> int:
        return self.amplitudes.size

    @property
    def phi(self) -> np.ndarray:
        return phi_grid(self.grid_size)

    def norm_squared(self) -> float:
        """Integral of |psi|^2 over the ring (trapezoid = exact on this grid)."""
        a = self.amplitudes
        return float((a.real**2 + a.imag**2).sum()) * TWO_PI / self.grid_size

    def normalized(self) -> "RingWavefunction":
        n2 = self.norm_squared()
        if not (math.isfinite(n2) and n2 > 0):
            raise ValueError("cannot normalize a zero or non-finite wavefunction")
        return RingWavefunction(self.amplitudes / math.sqrt(n2))

    def density(self) -> np.ndarray:
        a = self.amplitudes
        return a.real**2 + a.imag**2

    @classmethod
    def plane_wave(cls, winding: int, grid_size: int) -> "RingWavefunction":
        """Unit-normalized e^{i m phi} / sqrt(2 pi) sampled on the grid."""
        phi = phi_grid(grid_size)
        return cls(np.exp(1j * winding * phi) / math.sqrt(TWO_PI))


@dataclass(frozen=True)
class SolverSettings:
    """Knobs of the imaginary-time relaxation.

    grid_size: azimuthal points G, power of two >= 64
    tau_step: imaginary-time step
    tolerance: convergence when mu and the energy per particle each
        moved by at most tolerance * max(1, |value|) in one step (accepted
        steps, in the batched search)
    max_iterations: hard stop; hitting it reports converged=False
    seed_winding: initial state e^{i m0 phi}/sqrt(2 pi)
    noise_amplitude: per-mode complex Gaussian noise added to the seed,
        drawn relative to the seed winding (zero keeps the flow exactly in
        the seeded sector)
    rng_seed: seed of the noise generator, fixed for reproducibility
    """

    grid_size: int = 256
    tau_step: float = 1e-3
    tolerance: float = 1e-10
    max_iterations: int = 50_000
    seed_winding: int = 0
    noise_amplitude: float = 0.0
    rng_seed: int = 7

    def __post_init__(self) -> None:
        _check_grid_size(self.grid_size)
        if self.tau_step <= 0:
            raise ValueError("tau_step must be > 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if abs(self.seed_winding) >= self.grid_size // 2:
            raise ValueError("seed_winding must satisfy |m0| < grid_size/2")
        if self.noise_amplitude < 0:
            raise ValueError("noise_amplitude must be >= 0")


@dataclass
class GroundStateReport:
    """Outcome of one relaxation run.

    mu and energy_per_particle are in ring units (offset excluded, same scale
    as ring.mu_uniform).  iterations counts every kernel step taken,
    including the steps the batched search discards on an energy rise.
    energy_history holds the per-step energies of a relax run, useful for
    monotonicity checks; the batched search (global_ground, global_grounds)
    records none and leaves it empty.
    """

    wavefunction: RingWavefunction
    mu: float
    energy_per_particle: float
    winding: int
    iterations: int
    converged: bool
    energy_history: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))


def _as_potential(potential, grid_size: int) -> np.ndarray | None:
    if potential is None:
        return None
    v = np.asarray(potential, dtype=np.float64)
    if v.shape != (grid_size,):
        raise ValueError(f"potential must have shape ({grid_size},)")
    if not np.all(np.isfinite(v)):
        raise ValueError("potential must be finite")
    return v


def _seed_state(settings: SolverSettings) -> np.ndarray:
    """Seed plane wave plus optional mode-space noise, unit-normalized.

    The noise pattern is generated relative to the seed winding (then rolled
    to absolute mode indices), so runs at (eta, m0) and (eta+1, m0+1) with
    the same rng_seed start from exact gauge images of each other.
    """
    g = settings.grid_size
    coeffs = np.zeros(g, dtype=np.complex128)
    if settings.noise_amplitude > 0:
        rng = np.random.default_rng(settings.rng_seed)
        coeffs += settings.noise_amplitude * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
    coeffs[0] += 1.0
    coeffs = np.roll(coeffs, settings.seed_winding)
    psi = np.fft.ifft(coeffs) * g
    n2 = float((psi.real**2 + psi.imag**2).sum()) * TWO_PI / g
    return psi / math.sqrt(n2)


def apply_hamiltonian(psi: RingWavefunction, params: RingParams) -> RingWavefunction:
    """Apply the ring Hamiltonian to a normalized state (unnormalized image).

    Kinetic part spectrally: mode k picks up (k - eta)^2.  Interaction part
    pointwise: u_tilde |psi_j|^2 psi_j.  Plane waves e^{i m phi}/sqrt(2 pi)
    are exact eigenstates with eigenvalue (m - eta)^2 + u_tilde/(2 pi).
    """
    if abs(psi.norm_squared() - 1.0) > 1e-8:
        raise ValueError("apply_hamiltonian expects a unit-normalized state")
    a = psi.amplitudes
    k = mode_numbers(psi.grid_size)
    kinetic = np.fft.ifft((k - params.eta) ** 2 * np.fft.fft(a))
    return RingWavefunction(kinetic + params.u_tilde * (a.real**2 + a.imag**2) * a)


@np.errstate(over="ignore", invalid="ignore")  # a diverging step raises from the norm check
def imaginary_time_step(
    psi: RingWavefunction, params: RingParams, tau_step: float, potential=None
) -> tuple[RingWavefunction, float, float]:
    """One normalized Strang step; returns (new state, mu, energy).

    Convenience wrapper over the same step relax uses; intended for
    step-by-step inspection, not for long runs (relax precomputes the
    multipliers once and carries the spectrum between steps).
    """
    if tau_step <= 0:
        raise ValueError("tau_step must be > 0")
    v = _as_potential(potential, psi.grid_size)
    kin, half_kinetic = _kinetic(psi.grid_size, params.eta, tau_step)
    spec = np.fft.fft(psi.amplitudes)
    _, new, mu, energy = _strang_step(spec, kin, half_kinetic, params.u_tilde, tau_step, v)
    return RingWavefunction(new), float(mu), float(energy)


def _kinetic(grid_size: int, eta, tau_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Kinetic multipliers (k - eta)^2 and exp(-tau/2 * that); a list of eta gives one row each."""
    kin = (mode_numbers(grid_size) - np.asarray(eta, dtype=np.float64)[..., None]) ** 2
    return kin, np.exp(-0.5 * tau_step * kin)


def _strang_step(spec, kin, half_kinetic, u: float, tau: float, v: np.ndarray | None = None):
    """One normalized Strang step of a (rows, G) stack of unit spectra.

    Half kinetic / full interaction (plus the optional potential v, shape
    (G,), shared by all rows) / half kinetic, then renormalization.  Rows
    never couple; each carries its own eta through its row of kin and
    half_kinetic.  spec is overwritten.  Returns (spec, psi, mu, energy):
    the renormalized spectrum, which the next step takes as input so that a
    step costs 3 transforms, the real-space rows, and per-row mu and energy
    per particle of that state.  A single (G,) row is stepped as such, with
    scalar mu and energy: relax does that, because a (1, G) stack costs
    about a fifth more per step in numpy call overhead.
    """
    g = spec.shape[-1]
    dphi = TWO_PI / g
    inv_g2 = dphi / g
    spec *= half_kinetic
    psi = np.fft.ifft(spec)
    dens = psi.real**2 + psi.imag**2
    expo = u * dens
    if v is not None:
        expo += v
    expo -= expo.sum(axis=-1, keepdims=True) / g  # uniform factor is gauge for the renormalized flow
    expo *= -tau
    np.exp(expo, out=expo)
    psi *= expo
    spec = np.fft.fft(psi)
    spec *= half_kinetic
    spec2 = spec.real**2 + spec.imag**2
    norm2 = inv_g2 * spec2.sum(axis=-1)
    if not 0.0 < norm2.min() <= norm2.max() < math.inf:  # also false for nan
        raise ArithmeticError(
            "imaginary-time step diverged; reduce tau_step (tau_step * u_tilde too large)"
        )
    kinetic = inv_g2 * np.einsum("...j,...j->...", spec2, kin) / norm2
    spec *= (1.0 / np.sqrt(norm2))[..., None]
    psi = np.fft.ifft(spec)
    dens = psi.real**2 + psi.imag**2
    quart = dphi * np.einsum("...j,...j->...", dens, dens)
    if v is not None:
        kinetic = kinetic + dphi * (dens @ v)
    return spec, psi, kinetic + u * quart, kinetic + 0.5 * u * quart


def _stalled(mu, mu_prev, energy, energy_prev, tolerance):
    """Whether mu and the energy both moved by at most tolerance * max(1, |value|).

    The convergence test of every solve, on floats (relax) or on per-row
    arrays (_relax_batch).  Each bound is spelled (moved <= tolerance) |
    (moved <= tolerance * |value|), the same test in operators that floats
    and arrays share; np.maximum would turn relax's floats into numpy
    scalars at about ten times the cost per step.
    """
    d_mu, d_energy = abs(mu - mu_prev), abs(energy - energy_prev)
    return ((d_mu <= tolerance) | (d_mu <= tolerance * abs(mu))) & (
        (d_energy <= tolerance) | (d_energy <= tolerance * abs(energy))
    )


@np.errstate(over="ignore", invalid="ignore")  # a diverging step raises from the norm check
def relax(params: RingParams, settings: SolverSettings, potential=None) -> GroundStateReport:
    """Relax to the lowest state reachable from the seed.

    Propagates in imaginary time until mu and the energy per particle have
    both stalled over one step (_stalled), or max_iterations is reached
    (reported via converged=False, never silently).  An optional real
    potential sampled on the grid (ring energy units) is applied pointwise;
    default is the azimuthally symmetric case V = 0.
    """
    v = _as_potential(potential, settings.grid_size)
    kin, half_kinetic = _kinetic(settings.grid_size, params.eta, settings.tau_step)
    spec = np.fft.fft(_seed_state(settings))
    mu_prev = energy_prev = math.inf
    energies: list[float] = []
    converged = False
    for iterations in range(1, settings.max_iterations + 1):
        spec, psi, mu, energy = _strang_step(spec, kin, half_kinetic, params.u_tilde, settings.tau_step, v)
        mu, energy = float(mu), float(energy)
        energies.append(energy)
        if _stalled(mu, mu_prev, energy, energy_prev, settings.tolerance):
            converged = True
            break
        mu_prev, energy_prev = mu, energy
    return _report(psi, mu, energy, iterations, converged, energies)


def winding_number(psi: RingWavefunction) -> int:
    """Net phase turns around the ring, from principal-branch increments.

    Sums arg(psi_{j+1} / psi_j) over the closed loop and divides by 2 pi;
    exact for node-free states resolved by the grid.  Raises when any |psi_j|
    sits below 1e-10 of the maximum: the phase (and hence the winding) is
    undefined through a density node.
    """
    a = psi.amplitudes
    mags = np.abs(a)
    peak = float(mags.max())
    if peak == 0.0 or float(mags.min()) < NODE_FLOOR * peak:
        raise ValueError("winding undefined: wavefunction has a density node")
    increments = np.angle(np.roll(a, -1) * np.conj(a))
    return int(round(float(increments.sum()) / TWO_PI))


def _winding_or_dominant(psi: RingWavefunction) -> int:
    """winding_number, falling back to the dominant mode index near a node.

    Mid-relaxation states can pass arbitrarily close to a density node while
    sliding between sectors; the dominant angular mode is still well defined
    there and matches winding_number whenever the latter is defined on a
    nearly uniform state.
    """
    try:
        return winding_number(psi)
    except ValueError:
        spec = np.fft.fft(psi.amplitudes)
        k = mode_numbers(psi.grid_size)
        return int(k[int(np.argmax(spec.real**2 + spec.imag**2))])


def _report(psi: np.ndarray, mu, energy, iterations, converged, history=()) -> GroundStateReport:
    """Report for one relaxed row; the winding is read off the final state."""
    wavefunction = RingWavefunction(psi)
    return GroundStateReport(
        wavefunction=wavefunction,
        mu=float(mu),
        energy_per_particle=float(energy),
        winding=_winding_or_dominant(wavefunction),
        iterations=int(iterations),
        converged=bool(converged),
        energy_history=np.asarray(history, dtype=np.float64),
    )


@np.errstate(over="ignore", invalid="ignore")  # a diverging step raises from the norm check
def _relax_batch(u_tilde: float, settings: SolverSettings, seeds: list) -> list:
    """Relax (eta, seed winding) pairs side by side (one report per pair).

    A (rows, G) stack in which every row carries its own eta (kinetic
    multipliers) descends by the Strang step of relax, accelerated with
    restarted momentum (Nesterov extrapolation with adaptive restart,
    O'Donoghue & Candes 2015).  With x_n the last accepted state of a row,
    the step input is x_n + beta (x_n - x_{n-1}), renormalized, where
    beta = (k - 1)/(k + 2) and k counts the row's accepted steps since its
    last restart.  A step whose energy rises above the last accepted one is
    discarded; the row restarts (k = 1, so beta = 0) and takes a plain
    Strang step from x_n, which is always accepted.  A fixed point of the
    Strang step is a fixed point of this iteration, so the answers are those
    of the plain flow, reached in far fewer steps where a row creeps along
    the soft mode of a metastable sector.

    Convergence is the stall test of relax (_stalled), taken between
    accepted steps.  iterations counts every step, discarded ones included.
    Rows are frozen as they converge and never couple, so a row's trajectory
    does not depend on the other rows of its batch.  Batching exists
    because the FFT cost at these grid sizes is call-overhead dominated.
    No energy history is recorded.
    """
    batch = len(seeds)
    inv_g2 = TWO_PI / settings.grid_size**2
    kin, half_kinetic = _kinetic(settings.grid_size, [eta for eta, _ in seeds], settings.tau_step)
    psi_final = np.zeros((batch, settings.grid_size), dtype=np.complex128)
    mu = np.full(batch, math.inf)  # of the last accepted state
    energy = np.full(batch, math.inf)
    iterations = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)

    # working set: rows compress away as they converge
    rows = np.arange(batch)
    spec = np.fft.fft(np.stack([_seed_state(replace(settings, seed_winding=seed)) for _, seed in seeds]))
    prev = spec.copy()  # accepted state before spec
    k = np.ones(batch)

    for it in range(1, settings.max_iterations + 1):
        # y = spec + beta (spec - prev), renormalized, built in prev's buffer
        # (fresh arrays cost page faults); |y|^2 = 1 + (beta + beta^2) |d|^2
        # for unit spec and prev, with d = spec - prev
        beta = (k - 1.0) / (k + 2.0)
        y = np.subtract(spec, prev, out=prev)
        flat = y.view(np.float64)
        scale = 1.0 / np.sqrt(1.0 + beta * (1.0 + beta) * inv_g2 * np.einsum("ij,ij->i", flat, flat))
        y *= beta[:, None]
        y += spec
        y *= scale[:, None]
        out, sub, mu_now, energy_now = _strang_step(y, kin, half_kinetic, u_tilde, settings.tau_step)
        mu_acc, energy_acc = mu[rows], energy[rows]
        rejected = (k > 1.0) & (energy_now > energy_acc)
        accepted = ~rejected
        done = accepted & _stalled(mu_now, mu_acc, energy_now, energy_acc, settings.tolerance)
        mu[rows] = np.where(accepted, mu_now, mu_acc)
        energy[rows] = np.where(accepted, energy_now, energy_acc)
        iterations[rows] = it
        k = np.where(accepted, k + 1.0, 1.0)
        if rejected.any():
            out[rejected] = spec[rejected]  # back to the last accepted state, with no momentum
        prev, spec = spec, out
        if done.any():
            finished = done.nonzero()[0]
            psi_final[rows[finished]] = sub[finished]
            converged[rows[finished]] = True
            keep = ~done
            rows = rows[keep]
            if rows.size == 0:
                break
            spec, prev, k, kin, half_kinetic = (a[keep] for a in (spec, prev, k, kin, half_kinetic))
    if rows.size:
        psi_final[rows] = np.fft.ifft(spec)  # hit max_iterations; last accepted state, reported unconverged

    return [_report(psi_final[i], mu[i], energy[i], iterations[i], converged[i]) for i in range(batch)]


def _pick_ground(reports: list) -> GroundStateReport:
    """Lowest-energy converged report; ties within 1e-6 go to the lower |winding|.

    Among tied reports of that winding (seeds that relaxed into the same
    sector) the lowest energy wins, i.e. the state nearest the fixed point.
    Falls back to the whole pool when nothing converged; the pick then
    carries converged=False.
    """
    pool = [r for r in reports if r.converged] or reports
    best_energy = min(r.energy_per_particle for r in pool)
    ties = [r for r in pool if r.energy_per_particle <= best_energy + 1e-6]
    return min(ties, key=lambda r: (abs(r.winding), r.winding, r.energy_per_particle))


def global_grounds(points, settings: SolverSettings | None = None) -> list:
    """global_ground at every point, relaxing all seeds of all points together.

    All points must share one u_tilde; each brings its own eta.  Returns
    one report per point, in order; a point at which no seed converged gets
    its best attempt, with converged=False.  The points are relaxed in
    chunks of at most 2**17 amplitudes per batch array (at least one point
    per chunk), which bounds memory for long sweeps and large grids.
    """
    if settings is None:
        settings = SolverSettings(noise_amplitude=1e-3)
    points = list(points)
    if len({p.u_tilde for p in points}) > 1:
        raise ValueError("global_grounds needs the same u_tilde at every point")
    seeds = len(SEED_SHIFTS)
    per_chunk = max(1, _BATCH_AMPLITUDES // (seeds * settings.grid_size))
    best = []
    for start in range(0, len(points), per_chunk):
        chunk = points[start : start + per_chunk]
        pairs = [(p.eta, ground_winding(p).winding + shift) for p in chunk for shift in SEED_SHIFTS]
        reports = _relax_batch(chunk[0].u_tilde, settings, pairs)
        best.extend(_pick_ground(reports[i : i + seeds]) for i in range(0, len(reports), seeds))
    return best


def global_ground(params: RingParams, settings: SolverSettings | None = None) -> GroundStateReport:
    """Minimum-energy state over seed windings around the expected ground.

    Relaxes seeds m0 in {[eta]-2, ..., [eta]+2} (evaluated side by side) and
    returns the converged report with the lowest energy per particle;
    energies within 1e-6 of the minimum count as ties and resolve toward the
    lower |winding| (then the lower winding).  With settings=None a small
    seeded noise (1e-3, fixed rng) is used so seeds can slide out of their
    sectors.  When every seed fails to converge, the best attempt comes back
    with converged=False, as from relax and global_grounds.
    """
    return global_grounds([params], settings)[0]


def dump_wavefunction(psi: RingWavefunction, path) -> None:
    """Write (phi_j, Re psi_j, Im psi_j) as plain text columns."""
    a = psi.amplitudes
    phi = psi.phi
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# phi re_psi im_psi\n")
        for j in range(psi.grid_size):
            fh.write(f"{phi[j]:.17g} {a[j].real:.17g} {a[j].imag:.17g}\n")

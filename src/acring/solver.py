"""Spectral ground states of the 1D ring equation.

The stationary states solve

    [-(d/dphi - i eta)^2 + u_tilde |psi|^2] psi = mu_eff psi

on a uniform periodic grid phi_j = 2 pi j / G.  The kinetic operator is
exact in the angular-mode basis: mode k (a signed integer) has eigenvalue
(k - eta)^2, so the gauge phase costs nothing spectrally and introduces no
finite-difference artifacts.

One routine, _descend, finds the states for relax and for the batched
search (global_ground, global_grounds) alike: preconditioned nonlinear
conjugate gradients on the unit sphere, at 2 transforms an iteration.  Only
_relax_batch calls it, and relax is its one-row case.  It lowers the
energy from the seed, so it serves both as a metastable-state preparator
(noise-free seed, stays in its winding sector) and as a global ground-state
search (small seeded noise lets the state leave its sector).
One rule stops it: the residual ||(H + V - mu) psi|| is at most
tolerance * max(1, |mu|), so an accepted state is an eigenstate to that
accuracy.  A miss is a report with converged=False, and so is a row whose
mu, energy or residual stops being finite; nothing raises.

Mode index convention: numpy transform order, indices above G/2 - 1 wrap to
negative k (exactly numpy.fft.fftfreq(G, 1/G)).  This matters because
(k - eta)^2 is not symmetric in k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .reduction import RingParams
from .ring import TWO_PI, nearest_winding

# perfbench/tracing.py counts calls to this name in acring.solver; the search in
# this module evaluates the same closed form on arrays instead of calling it
from .ring import ground_winding  # noqa: F401

__all__ = [
    "RingWavefunction",
    "SolverSettings",
    "GroundStateReport",
    "phi_grid",
    "mode_numbers",
    "apply_hamiltonian",
    "relax",
    "global_ground",
    "global_grounds",
    "dump_wavefunction",
]

NODE_FLOOR = 1e-10  # fraction of max |psi| below which winding is undefined
# global search seeds, relative to the analytic winding, nearest the centre first:
# a seed two sectors out never wins: its plane wave is unstable whenever u_tilde/(2 pi) < 4
# (|m - eta| >= 1.5 > sqrt(1 + u_tilde/pi)/2), so it leaves its own sector
SEED_SHIFTS = (0, -1, 1)
SEARCH_NOISE = 1e-3  # seed noise of the global search when none is asked for, so seeds can slide out of their sectors
_BATCH_AMPLITUDES = 2**17  # cap on rows * grid_size in one batched relaxation
MAX_GRID_SIZE = 2**16  # larger grids are rejected before anything is allocated
_MAX_ANGLE = 0.5  # cap on the great-circle step of one descent iteration (radians)
_ENERGY_SLACK = 1e-13  # relative energy rise a descent step may keep: roundoff
_HALVINGS = 60  # trials per iteration, each at half the angle of the one before; past them a row keeps its state
# what the batched descent reports per row, and the global search per point
_COLUMNS = {"winding": np.int64, "mu": float, "energy_per_particle": float, "iterations": np.int64, "converged": bool}


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

    def norm_squared(self) -> float:
        """Integral of |psi|^2 over the ring (trapezoid = exact on this grid)."""
        return float(self.density().sum()) * TWO_PI / self.grid_size

    def density(self) -> np.ndarray:
        a = self.amplitudes
        return a.real**2 + a.imag**2


@dataclass(frozen=True)
class SolverSettings:
    """Knobs of the ground-state descent.

    grid_size: azimuthal points G, power of two >= 64
    tolerance: convergence when the residual ||(H + V - mu) psi|| is at
        most tolerance * max(1, |mu|); finite and > 0
    max_iterations: hard stop; hitting it reports converged=False
    seed_winding: initial state e^{i m0 phi}/sqrt(2 pi)
    noise_amplitude: per-mode complex Gaussian noise added to the seed,
        drawn relative to the seed winding (zero seeds the plane wave, an
        exact eigenstate that relax returns as it is); finite and >= 0
    rng_seed: seed of the noise generator, fixed for reproducibility; >= 0
    """

    grid_size: int = 256
    tolerance: float = 1e-10
    max_iterations: int = 50_000
    seed_winding: int = 0
    noise_amplitude: float = 0.0
    rng_seed: int = 7

    def __post_init__(self) -> None:
        _check_grid_size(self.grid_size)
        if not 0 < self.tolerance < math.inf:  # also false for nan
            raise ValueError("tolerance must be finite and > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if abs(self.seed_winding) >= self.grid_size // 2:
            raise ValueError("seed_winding must satisfy |m0| < grid_size/2")
        if not 0 <= self.noise_amplitude < math.inf:
            raise ValueError("noise_amplitude must be finite and >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass
class GroundStateReport:
    """Outcome of one relaxation run.

    mu and energy_per_particle are in ring units (offset excluded, same scale
    as ring.plane_mu).  iterations counts the residual evaluations of the
    descent, the last one included: 1 for a seed that is already an
    eigenstate.  energy_history holds the energy of every iteration of a
    relax run, useful for monotonicity checks; global_ground records none
    and leaves it empty.  global_grounds returns columns, not reports.
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
    return RingWavefunction(kinetic + params.u_tilde * psi.density() * a)


def _kinetic(grid_size: int, eta) -> np.ndarray:
    """Kinetic multipliers (k - eta)^2; a list of eta gives one row each.

    Raises ValueError where a multiplier exceeds sqrt(float max) / grid_size
    (|eta| past about 7.2e75 at grid_size 256, 1.4e76 at 64), before any
    state is built.  Below that every sum the descent forms stays finite for
    any unit state: the largest is the squared residual norm, the sum over
    modes of |(k - eta)^2 - mu|^2 |spec_k|^2 <= K^2 G^2 / (2 pi), with K the
    largest multiplier, since sum |spec_k|^2 = G^2 / (2 pi).
    """
    eta = np.asarray(eta, dtype=np.float64)
    limit = math.sqrt(np.finfo(np.float64).max) / grid_size
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned
        kin = (mode_numbers(grid_size) - eta[..., None]) ** 2
    past = ~(kin <= limit).all(axis=-1)
    if past.any():
        raise ValueError(
            f"eta={np.ravel(eta)[np.ravel(past)][0]} puts the kinetic multipliers (k - eta)**2 "
            f"above {limit:.4g}, past which the descent's sums overflow, at grid_size={grid_size}"
        )
    return kin


def _inner(a, b):
    """Per-row sum of Re(conj(a) b) over the last axis of complex arrays, without the measure."""
    return np.einsum("...j,...j->...", a.view(np.float64), b.view(np.float64))


def _energies(spec, psi, kin, u: float, v):
    """Per-row mu, energy per particle and density of unit states given as spectrum and rows."""
    g = spec.shape[-1]
    dphi = TWO_PI / g
    dens = psi.real**2 + psi.imag**2
    kinetic = dphi / g * np.einsum("...j,...j->...", spec.real**2 + spec.imag**2, kin)
    if v is not None:
        kinetic = kinetic + dphi * (dens @ v)
    quart = dphi * np.einsum("...j,...j->...", dens, dens)
    return kinetic + u * quart, kinetic + 0.5 * u * quart, dens


def _trial(angle, spec, psi, unit, unit_psi, kin, u: float, v):
    """Rows moved by angle along their great circles, renormalized: (spectrum, rows, mu, energy, density)."""
    g = spec.shape[-1]
    measure = TWO_PI / g / g
    cos, sin = np.cos(angle)[:, None], np.sin(angle)[:, None]
    trial = cos * spec + sin * unit
    trial_psi = cos * psi + sin * unit_psi
    scale = 1.0 / np.sqrt(measure * _inner(trial, trial))[:, None]
    trial *= scale
    trial_psi *= scale
    mu, energy, dens = _energies(trial, trial_psi, kin, u, v)
    return trial, trial_psi, mu, energy, dens


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite row leaves as a miss
def _descend(spec, kin, u: float, v, tolerance: float, max_iterations: int, history=None):
    """Minimize the energy of a (rows, G) stack of unit spectra on the unit sphere.

    Preconditioned nonlinear conjugate gradients on the sphere (Antoine,
    Levitt & Tang, J. Comput. Phys. 343, 92, 2017).  An iteration forms the
    residual R = (H + V - mu) psi in mode space (kin times the spectrum plus
    one transform of the field (u |psi|^2 + v) psi) and stops a row once
    ||R|| <= tolerance * max(1, |mu|).  Otherwise the row moves along the
    great circle cos(theta) psi + sin(theta) d.  d is the Polak-Ribiere(+)
    combination of the tangent-projected preconditioned gradient P R,
    P = 1/(kin + max(u, 0)/2pi + 1), with the previous direction, restarted
    as -P R when it is not a descent direction.  theta minimizes the
    second-order model of the energy along the circle (one more transform,
    for d on the grid), capped at _MAX_ANGLE, then halved until the energy
    rises by at most _ENERGY_SLACK * max(1, |E|), which is roundoff:
    _HALVINGS trials in all.  The first runs on the live stack itself, and
    when every row accepts it (nearly every iteration) the trial arrays
    become the state; later trials run on the rows still refused.  A row
    that accepts none keeps its state, and it is stuck when its direction
    was -P R: its residual and gradient would come back bit for bit, with
    them beta = 0 and the direction -P R, and it would repeat the iteration
    to the end.  It leaves the stack at the next residual evaluation with
    the report max_iterations would give it.

    Every row keeps its own direction and angle and leaves the stack once it
    stops, so its trajectory does not depend on its neighbours.  An
    iteration is one residual evaluation; a row that reaches max_iterations
    reports its state there with converged=False, and so does a row whose
    mu, energy or residual is not finite, at once: its last accepted state
    is finite, since a trial of non-finite energy is never accepted.
    history, if given, receives the energy of every iteration of a single
    row.  Returns per-row (psi, mu, energy, iterations, converged).
    """
    rows, g = spec.shape
    dphi = TWO_PI / g
    measure = dphi / g  # Parseval: ||psi||^2 = measure * sum |spec|^2
    out_psi = np.empty_like(spec)
    out_mu, out_energy = np.empty(rows), np.empty(rows)
    out_iterations = np.zeros(rows, dtype=int)
    out_converged = np.zeros(rows, dtype=bool)
    live = np.arange(rows)
    stuck = np.zeros(rows, dtype=bool)
    psi = np.fft.ifft(spec)
    mu, energy, dens = _energies(spec, psi, kin, u, v)
    # the shift stops at u = 0: an attractive u would make P zero or negative on the lowest modes
    precond = kin + (max(u, 0.0) / TWO_PI + 1.0)
    direction = np.zeros_like(spec)
    grad_prev = np.zeros_like(spec)
    slope_prev = np.full(rows, math.inf)  # beta = 0 on the first iteration
    for it in range(1, max_iterations + 1):
        field = u * dens
        if v is not None:
            field += v
        resid = kin * spec
        resid += np.fft.fft(field * psi)
        resid -= mu[:, None] * spec
        res = np.sqrt(measure * _inner(resid, resid))
        if history is not None:
            history.append(float(energy[0]))
        stop = res <= tolerance * np.maximum(1.0, np.abs(mu))
        # where res is finite so is mu (R holds mu times a unit spectrum), and so is the
        # energy, which lies between mu and its kinetic part
        finite = np.isfinite(res)
        leave = stop | ~finite | stuck if it < max_iterations else np.ones_like(stop)
        if leave.any():
            done = live[leave]
            out_psi[done], out_mu[done], out_energy[done] = psi[leave], mu[leave], energy[leave]
            out_iterations[done] = np.where(stuck[leave], max_iterations, it)
            out_converged[done] = (stop & finite)[leave]
            if history is not None and stuck[0]:
                history.extend([history[-1]] * (max_iterations - it))
            keep = ~leave
            live = live[keep]
            if live.size == 0:
                break
            spec, psi, kin, precond, mu, energy, dens, field, resid, direction, grad_prev, slope_prev, stuck = (
                a[keep]
                for a in (spec, psi, kin, precond, mu, energy, dens, field, resid, direction, grad_prev, slope_prev, stuck)
            )

        grad = resid / precond
        grad -= (measure * _inner(spec, grad))[:, None] * spec
        slope = measure * _inner(resid, grad)
        beta = np.maximum(0.0, measure * _inner(resid, grad - grad_prev) / slope_prev)
        direction -= (measure * _inner(spec, direction))[:, None] * spec  # onto the new tangent space
        direction *= beta[:, None]
        direction -= grad
        restart = ~(_inner(resid, direction) < 0.0)  # not a descent direction
        if restart.any():
            direction[restart] = -grad[restart]
        grad_prev, slope_prev = grad, slope

        # E(theta) ~ E + first * theta + second * theta^2 / 2 along the circle, with
        # first = 2 <R, d> and second = 2 (<d, H d> - mu) + 4 u integral (Re conj(psi) d)^2
        unit = direction / np.sqrt(measure * _inner(direction, direction))[:, None]
        unit_psi = np.fft.ifft(unit)
        first = 2.0 * measure * _inner(resid, unit)
        cross = psi.real * unit_psi.real + psi.imag * unit_psi.imag
        second = 2.0 * (
            measure * np.einsum("ij,ij->i", unit.real**2 + unit.imag**2, kin)
            + dphi * np.einsum("ij,ij->i", field, unit_psi.real**2 + unit_psi.imag**2)
            - mu
        ) + 4.0 * u * dphi * np.einsum("ij,ij->i", cross, cross)
        angle = np.where(second > 0.0, np.minimum(-first / second, _MAX_ANGLE), _MAX_ANGLE)
        ceiling = energy + _ENERGY_SLACK * np.maximum(1.0, np.abs(energy))

        todo = slice(None)  # the first trial runs on views of the whole stack
        for _ in range(_HALVINGS):
            trial = _trial(angle[todo], spec[todo], psi[todo], unit[todo], unit_psi[todo], kin[todo], u, v)
            ok = trial[3] <= ceiling[todo]  # the trial energies
            if isinstance(todo, slice):
                if ok.all():
                    spec, psi, mu, energy, dens = trial
                    break
                todo = np.arange(live.size)
            moved = todo[ok]
            spec[moved], psi[moved], mu[moved], energy[moved], dens[moved] = (a[ok] for a in trial)
            todo = todo[~ok]
            if todo.size == 0:
                break
            angle[todo] *= 0.5
        else:  # these rows accepted no trial; along -P R the next iteration would repeat this one
            stuck[todo] = restart[todo] | ~(beta[todo] > 0.0)
    return out_psi, out_mu, out_energy, out_iterations, out_converged


def relax(params: RingParams, settings: SolverSettings, potential=None) -> GroundStateReport:
    """Descend to the lowest state reachable from the seed.

    Runs _descend from the seed until the residual ||(H + V - mu) psi||
    falls to tolerance * max(1, |mu|), or max_iterations is reached or a
    value stops being finite (both reported via converged=False, never
    silently), and records the energy of every iteration.  An optional
    real potential sampled on the grid (ring energy units) is applied
    pointwise; default is the azimuthally symmetric case V = 0.
    """
    v = _as_potential(potential, settings.grid_size)
    history = []
    psi, rows = _relax_batch(params.u_tilde, settings, [params.eta], [settings.seed_winding], v, history)
    return _report(psi, rows, 0, history)


def _windings(amplitudes):
    """Net phase turns of each row of a (rows, G) stack, and whether the row has a density node.

    Sums the principal-branch increments arg(psi_{j+1} / psi_j) over the
    closed loop and divides by 2 pi.  A row with |psi_j| below NODE_FLOOR of
    its maximum somewhere (or zero everywhere) has no defined winding; its
    turns are meaningless.
    """
    mags = np.abs(amplitudes)
    peak = mags.max(axis=1)
    node = (peak == 0.0) | (mags.min(axis=1) < NODE_FLOOR * peak)
    increments = np.angle(np.roll(amplitudes, -1, axis=1) * np.conj(amplitudes))
    return np.round(increments.sum(axis=1) / TWO_PI), node


def _relax_batch(u_tilde: float, settings: SolverSettings, etas, seeds, v=None, history=None) -> tuple:
    """Relax rows side by side, row i at etas[i] from seed winding seeds[i]: ((rows, G) amplitudes, _COLUMNS).

    One _descend over a (rows, G) stack in which every row carries its own
    eta (kinetic multipliers); rows never couple, so a row's result does
    not depend on the others.  Batching exists because the transform cost
    at these grid sizes is call-overhead dominated.  v is a validated
    potential or None; history, a list given for a single row, receives
    the energy of every iteration.

    Every row starts from the plane wave of its seed winding plus the
    settings' mode-space noise, unit-normalized.  The noise is drawn once
    (from rng_seed) relative to the seed winding and rolled to absolute
    mode indices, so rows at (eta, m0) and (eta+1, m0+1) start from exact
    gauge images of each other.  The winding is read off each final state;
    where it is undefined (a state passing near a density node between
    sectors) the dominant angular mode stands in, which matches it
    whenever it is defined on a nearly uniform state.
    """
    g = settings.grid_size
    base = np.zeros(g, dtype=np.complex128)
    if settings.noise_amplitude > 0:
        rng = np.random.default_rng(settings.rng_seed)
        base += settings.noise_amplitude * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
    base[0] += 1.0
    shifts = np.asarray(seeds, dtype=np.int64)
    spec = base[(np.arange(g) - shifts[:, None]) % g]  # row i is np.roll(base, seed_i)
    spec /= np.sqrt(TWO_PI * (spec.real**2 + spec.imag**2).sum(axis=1) / g**2)[:, None]
    kin = _kinetic(g, etas)
    psi, mu, energy, iterations, converged = _descend(
        spec, kin, u_tilde, v, settings.tolerance, settings.max_iterations, history
    )
    windings, node = _windings(psi)
    if node.any():
        power = np.fft.fft(psi[node])
        windings[node] = mode_numbers(g)[np.argmax(power.real**2 + power.imag**2, axis=1)]
    return psi, dict(zip(_COLUMNS, (windings.astype(np.int64), mu, energy, iterations, converged)))


def _report(psi, rows: dict, row: int, history=()) -> GroundStateReport:
    """The report of one row of a batch, with a copy of its amplitudes."""
    return GroundStateReport(
        wavefunction=RingWavefunction(psi[row].copy()),
        energy_history=np.asarray(history, dtype=np.float64),
        **{name: column[row].item() for name, column in rows.items()},
    )


@np.errstate(over="ignore")  # past tolerance * |mu| of about 1.3e154 the bound is infinite and ties every row
def _pick_grounds(rows: dict, seeds: int, tolerance: float) -> np.ndarray:
    """The one tie rule of the numeric search: each point's row of lowest winding among the lowest energies.

    rows holds `seeds` consecutive rows per point in SEED_SHIFTS order,
    nearest the analytic centre first; the winners' row indices come back.
    A point's pool is its converged rows (all of them when none converged;
    the pick then carries converged=False).  A row ties with the pool's
    lowest energy E when it lies no more than the solve resolves above it:
    _ENERGY_SLACK * max(1, |E|), the roundoff the descent keeps, plus
    (tolerance * max(1, |mu|))**2 with mu that of E's row, the energy error
    left by the residual bound every converged row met.  Ties go to the
    lower winding, as ground_winding settles an exact half-integer, so eta
    -> eta + 1 shifts the pick by one.  Within that winding the first row
    of the pool wins, the seed nearest the centre, not the lowest energy:
    rows that relaxed into one sector differ in energy by roundoff only,
    and the order of the seeds does not depend on it.
    """
    energy, mu, winding, converged = (
        rows[name].reshape(-1, seeds) for name in ("energy_per_particle", "mu", "winding", "converged")
    )
    pool = converged | ~converged.any(axis=1, keepdims=True)
    points = np.arange(len(energy))
    lowest = np.where(pool, energy, np.inf).argmin(axis=1)
    low_energy, low_mu = energy[points, lowest], mu[points, lowest]
    # float_power squares like Python's x ** 2 (libm pow), to the last bit
    bound = _ENERGY_SLACK * np.maximum(1.0, np.abs(low_energy)) + np.float_power(
        tolerance * np.maximum(1.0, np.abs(low_mu)), 2.0
    )
    tied = pool & (energy <= (low_energy + bound)[:, None])
    pick = np.where(tied, winding, np.iinfo(np.int64).max).min(axis=1)
    return points * seeds + (pool & (winding == pick[:, None])).argmax(axis=1)


def _search_input(etas, u_tilde: float, settings: SolverSettings | None) -> tuple:
    """(etas, centre, settings) for the global search: validated float64 etas, the seeds' centres and settings.

    centre is nearest_winding(etas), formed once per search; settings default to a small seeded noise.
    Rejects a non-finite eta or u_tilde, and names the first eta whose seed windings do not fit the grid.
    """
    if settings is None:
        settings = SolverSettings(noise_amplitude=SEARCH_NOISE)
    etas = np.asarray(etas, dtype=np.float64)
    if not np.isfinite(etas).all():
        raise ValueError("eta must be finite")
    if not math.isfinite(u_tilde):
        raise ValueError("u_tilde must be finite")
    half = settings.grid_size // 2
    centre, _ = nearest_winding(etas)
    past = np.maximum(np.abs(centre + min(SEED_SHIFTS)), np.abs(centre + max(SEED_SHIFTS))) >= half
    if past.any():
        first = past.argmax()
        reach = max(abs(int(centre[first]) + shift) for shift in SEED_SHIFTS)  # exact past 2**53
        raise ValueError(
            f"the global search at eta={etas[first]} seeds windings up to |m0| = {reach}, "
            f"but grid_size={settings.grid_size} holds only |m0| < {half}"
        )
    return etas, centre, settings


def _search_chunk(etas: np.ndarray, centre: np.ndarray, u_tilde: float, settings: SolverSettings) -> tuple:
    """Relax the seeds around each point's centre side by side: (amplitudes, rows, winning row per point)."""
    shifts = np.array(SEED_SHIFTS)
    psi, rows = _relax_batch(u_tilde, settings, np.repeat(etas, len(shifts)), (centre[:, None] + shifts).ravel())
    return psi, rows, _pick_grounds(rows, len(shifts), settings.tolerance)


def global_grounds(etas, u_tilde: float, settings: SolverSettings | None = None) -> dict[str, np.ndarray]:
    """global_ground at every eta of a 1-D array, at one u_tilde, as column names mapped to arrays.

    The columns (_COLUMNS) hold global_ground's values at each point, bit
    for bit; a point at which no seed converged gets its best attempt, with
    converged=False.  Bad input (see _search_input) is rejected before any
    point is relaxed.  The points are relaxed in chunks of at most 2**17
    amplitudes (at least one point per chunk); each chunk seeds from its
    slice of etas and is dropped once its winners' values are taken, so
    beyond the columns memory stays bounded.
    """
    etas, centre, settings = _search_input(etas, u_tilde, settings)
    per_chunk = max(1, _BATCH_AMPLITUDES // (len(SEED_SHIFTS) * settings.grid_size))
    columns = {name: np.empty(len(etas), dtype=dtype) for name, dtype in _COLUMNS.items()}
    for start in range(0, len(etas), per_chunk):
        chunk = slice(start, start + per_chunk)
        rows, winners = _search_chunk(etas[chunk], centre[chunk], u_tilde, settings)[1:]
        for name, column in columns.items():
            column[chunk] = rows[name][winners]
    return columns


def global_ground(params: RingParams, settings: SolverSettings | None = None) -> GroundStateReport:
    """Minimum-energy state over seed windings around the expected ground.

    Relaxes seeds m0 in {[eta]-1, [eta], [eta]+1} (evaluated side by side)
    and returns the converged report with the lowest energy per particle;
    ties (energies the solve does not resolve) go to the lower winding, as
    in ground_winding, and within the winning winding the seed nearest
    [eta] wins, by the rule stated in _pick_grounds.  The seeds [eta]+-2
    never win (see SEED_SHIFTS).  The search still checks the closed form:
    the descent never raises the energy and the plane-wave energies are
    convex in m, so a ground other than [eta] draws the seed [eta]+-1 on its
    side below the energy of [eta].  With settings=None a small seeded
    noise (SEARCH_NOISE, fixed rng) is used so seeds can slide out of their
    sectors.  When every seed fails to converge, the best attempt comes
    back with converged=False, as from relax and global_grounds.  This is
    global_grounds at one point, and the one search that returns a state:
    a copy of the winner's row.
    """
    etas, centre, settings = _search_input([params.eta], params.u_tilde, settings)
    psi, rows, (winner,) = _search_chunk(etas, centre, params.u_tilde, settings)
    return _report(psi, rows, winner)


def dump_wavefunction(psi: RingWavefunction, path) -> None:
    """Write (phi_j, Re psi_j, Im psi_j) as plain text columns."""
    a = psi.amplitudes
    columns = np.column_stack((phi_grid(a.size), a.real, a.imag))
    with open(path, "w", encoding="utf-8") as fh:  # savetxt given a name would gzip one ending in .gz
        np.savetxt(fh, columns, fmt="%.17g", header="phi re_psi im_psi", comments="# ")

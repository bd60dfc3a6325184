"""Seeded inputs of the three workloads.

A workload is a sequence of passes; a pass is a fixed list of calls whose
sizes do not depend on the seed, and whose values (eta ranges, interaction
strengths, potentials, lab parameters) are drawn from numpy's generator
seeded with (seed, pass index).  The program receives only these inputs:
argv for a CLI call, or the arguments of one library call.

- staircase_numeric: five numeric staircases over one eta period each (4
  points at step 1/4) at u_tilde/(2 pi) = 2, and one of 2 points at step 1/2
  at the weaker 1.  Starts fall on integers (negative ones included) plus a
  quarter-step offset and a shift of 0 or up to 3e-7, so every period call
  has an exact or near half-integer.  By gauge covariance (eta -> eta + 1)
  the cost of a call depends only on its fractional offsets, so the pass
  costs about the same for every seed.
- solve_single: ten `solve --global` CLI calls at stratified eta and
  u_tilde/(2 pi) in [1.75, 2.25], interleaved with ten library `relax`
  calls under V = eps cos(phi - phi0), seeded in the winding nearest to eta
  (distance stratified in [0.05, 0.45]).
- analytic_cli: large analytic staircases, landscapes with --peaks-output at
  x-step 1e-4, hysteresis loops, and the estimate and reduce commands, in CSV
  and JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import landscape_rows, staircase_rows, hysteresis_path

WORKLOADS = ("staircase_numeric", "solve_single", "analytic_cli")
SIZES = ("full", "tiny")

# Under a potential, mu passes a turning point about 160 steps into every
# relax; at the default stall tolerance (1e-10) about one call in twenty
# stops there with a residual of 1e-2 to 6e-2, because convergence is tested
# on |d mu| per step rather than on the residual.  The relax calls therefore
# ask for 1e-14, which users need for a trustworthy state today; the
# accuracy gate is unchanged.
RELAX_TOLERANCE = 1e-14


@dataclass
class Call:
    """One invocation of the program and what the accuracy gate needs."""

    label: str
    check: str
    expect: dict
    rows: int
    argv: list | None = None
    outputs: list = field(default_factory=list)  # [(path, format)]
    library: tuple | None = None  # (RingParams, SolverSettings, potential) for solver.relax
    result: object = None
    error: str | None = None
    t0: float = 0.0  # perf_counter at the start and end of the call
    t1: float = 0.0
    seconds: float = 0.0  # paced (perfbench/pace.py)
    raw_seconds: float = 0.0


def num(x: float) -> str:
    return repr(float(x))


def eta_range(start: float, stop: float, step: float) -> str:
    # the '=' form keeps argparse from reading a negative start as a flag
    return f"--eta={num(start)}:{num(stop)}:{num(step)}"


class PassBuilder:
    def __init__(self, work: Path, index: int):
        self.work = work
        self.index = index
        self.calls: list[Call] = []

    def path(self, fmt: str, tag: str = "") -> str:
        return str(self.work / f"p{self.index}-c{len(self.calls)}{tag}.{fmt}")

    def cli(self, label: str, check: str, expect: dict, rows: int, argv: list, fmt: str, extra=()) -> None:
        out = self.path(fmt)
        outputs = [(out, fmt), *extra]
        self.calls.append(Call(label, check, expect, rows, argv + ["-o", out, "--format", fmt], outputs))


def staircase_numeric(rng: np.random.Generator, b: PassBuilder, tiny: bool) -> None:
    near = (1e-7, 2e-7, 3e-7, -1e-7, -2e-7, -3e-7)
    anywhere = (0.0,) + near
    # (u_tilde/2pi, integer part range, shift choices, quarter offsets, points, step)
    plan = [
        (2.0, (-3, -1), (0.0,), 4, 4, 0.25),
        (2.0, (0, 2), near, 4, 4, 0.25),
        (2.0, (-2, 2), anywhere, 4, 4, 0.25),
        (2.0, (-2, 2), anywhere, 4, 4, 0.25),
        (2.0, (-2, 2), anywhere, 4, 4, 0.25),
        (1.0, (-2, 2), anywhere, 2, 2, 0.5),
    ]
    if tiny:
        plan = [(u2, ints, shifts, 1, 2, 0.5) for u2, ints, shifts, *_ in plan[:2]]
    json_call = int(rng.integers(len(plan)))
    for i, (u2, (lo, hi), shifts, offsets, points, step) in enumerate(plan):
        offset = 0.5 if tiny else 0.25 * int(rng.integers(offsets))
        start = round(int(rng.integers(lo, hi + 1)) + offset + float(rng.choice(shifts)), 10)
        stop = round(start + (points - 1) * step, 10)
        expect = {"start": start, "stop": stop, "step": step, "u2": u2, "weight": 1.0, "numeric": True}
        argv = ["staircase", eta_range(start, stop, step), "--u-tilde-over-2pi", num(u2), "--mode", "numeric"]
        fmt = "json" if i == json_call else "csv"
        b.cli(f"staircase-numeric-{fmt}", "staircase", expect, staircase_rows(expect), argv, fmt)


def solve_single(rng: np.random.Generator, b: PassBuilder, tiny: bool) -> None:
    import acring

    count = 1 if tiny else 10
    grid_size = 256
    phi = 2.0 * math.pi * np.arange(grid_size) / grid_size
    # every drawn quantity is stratified (one draw per stratum, strata in a
    # seeded order), so the pass costs about the same for every seed
    u_order, relax_u_order, distance_order, eps_order = (rng.permutation(count) for _ in range(4))
    for i in range(count):
        eta = round(int(rng.integers(-2, 3)) + (i + rng.random()) / count, 9)
        u2 = round(1.75 + 0.5 * (u_order[i] + rng.random()) / count, 9)
        fmt = "json" if i % 2 else "csv"
        argv = ["solve", f"--eta={num(eta)}", "--u-tilde-over-2pi", num(u2), "--global"]
        b.cli(f"solve-global-{fmt}", "solve", {"eta": eta, "u2": u2}, 1, argv, fmt)

        seed_winding = int(rng.integers(-2, 3))
        distance = 0.05 + 0.4 * (distance_order[i] + rng.random()) / count
        eta = round(seed_winding + (distance if i % 2 else -distance), 9)
        u_tilde = 2.0 * math.pi * (1.75 + 0.5 * (relax_u_order[i] + rng.random()) / count)
        eps = 0.05 + 0.2 * (eps_order[i] + rng.random()) / count
        potential = eps * np.cos(phi - rng.uniform(0.0, 2.0 * math.pi))
        params = acring.RingParams(eta=eta, u_tilde=u_tilde)
        settings = acring.SolverSettings(grid_size=grid_size, seed_winding=seed_winding, tolerance=RELAX_TOLERANCE)
        b.calls.append(Call("relax-potential", "relax", {}, 1, library=(params, settings, potential)))


def analytic_cli(rng: np.random.Generator, b: PassBuilder, tiny: bool) -> None:
    scale = 0.002 if tiny else 1.0

    def staircase(rows: int, fmt: str) -> None:
        step = float(rng.choice([0.0005, 0.001, 0.002]))
        start = -int(rng.integers(0, 20000)) / 1000
        stop = round(start + (rows - 1) * step, 9)
        u2 = round(float(rng.uniform(0.5, 3.0)), 6)
        weight = round(float(rng.random()), 6)
        expect = {"start": start, "stop": stop, "step": step, "u2": u2, "weight": weight, "numeric": False}
        argv = ["staircase", eta_range(start, stop, step), "--u-tilde-over-2pi", num(u2), "--weight", num(weight)]
        b.cli(f"staircase-analytic-{fmt}", "staircase", expect, staircase_rows(expect), argv, fmt)

    def landscape(etas: int, fmt: str) -> None:
        m = int(rng.integers(-2, 3))
        values = [round(m + 0.5 + float(rng.uniform(-1.0, 1.0)), 6) for _ in range(etas)]
        u2 = round(float(rng.uniform(0.3, 2.0)), 6)
        x_step = 0.1 if tiny else 1e-4
        peaks = b.path("csv", "-peaks")
        expect = {"m": m, "etas": values, "u2": u2, "x_step": x_step}
        argv = [
            "landscape", f"--m={m}", "--eta=" + ",".join(num(v) for v in values),
            "--u-tilde-over-2pi", num(u2), "--x-step", num(x_step), "--peaks-output", peaks,
        ]
        b.cli(f"landscape-{fmt}", "landscape", expect, landscape_rows(expect), argv, fmt, [(peaks, "csv")])

    def hysteresis(points: int, fmt: str) -> None:
        step = float(rng.choice([0.0005, 0.001]))
        start = -int(rng.integers(0, 5000)) / 1000
        stop = round(start + (points - 1) * step, 9)
        u2 = round(float(rng.uniform(0.1, 1.0)), 6)
        start_winding = int(rng.integers(-3, 1))
        expect = {"start": start, "stop": stop, "step": step, "u2": u2, "loop": True, "start_winding": start_winding}
        argv = [
            "hysteresis", eta_range(start, stop, step), "--u-tilde-over-2pi", num(u2),
            "--loop", f"--start-winding={start_winding}",
        ]
        b.cli(f"hysteresis-{fmt}", "hysteresis", expect, len(hysteresis_path(expect)), argv, fmt)

    def estimates() -> None:
        g = round(float(rng.uniform(0.5, 2.0)), 6)
        distance = float(rng.uniform(1e-4, 1e-2))
        radius = float(rng.uniform(1e-4, 1e-2))
        cases = [
            ({"geometry": "line", "g_f": g, "distance": distance, "eta_target": float(rng.uniform(0.1, 3.0))}, "csv"),
            ({"geometry": "line", "g_f": g, "distance": distance, "n_e": float(rng.uniform(1e13, 1e15))}, "json"),
            ({"geometry": "torus", "g_f": g, "radius": radius, "eta_target": float(rng.uniform(0.1, 3.0))}, "json"),
            ({"geometry": "torus", "g_f": g, "radius": radius, "sphere_charges": float(rng.uniform(1e8, 1e12))}, "csv"),
        ]
        for fmt in ("csv", "json"):
            cases.append((
                {
                    "geometry": "crossed",
                    "polarizability": float(rng.uniform(10.0, 500.0)),
                    "charges_per_bohr": float(rng.uniform(1e-3, 0.1)),
                    "b_field": float(rng.uniform(10.0, 1e4)),
                },
                fmt,
            ))
        for expect, fmt in cases:
            argv = ["estimate"] + [f"--{k.replace('_', '-')}={v if isinstance(v, str) else num(v)}" for k, v in expect.items()]
            b.cli(f"estimate-{expect['geometry']}-{fmt}", "estimate", expect, 1, argv, fmt)

    def reduce(fmt: str) -> None:
        radius = float(rng.uniform(1e-5, 1e-4))
        width_rho = radius * float(rng.uniform(0.01, 0.1))
        expect = {
            "atoms": float(rng.uniform(1e4, 1e6)),
            "scattering_length": float(rng.uniform(1e-9, 1e-8)),
            "mass": float(rng.uniform(1e-26, 2.5e-25)),
            "radius": radius,
            "width_rho": width_rho,
            "width_z": width_rho * float(rng.uniform(0.5, 2.0)),
            "potential_mean": float(rng.uniform(0.0, 1e-31)),
            "eta": float(rng.uniform(-1.0, 2.0)),
        }
        argv = ["reduce"] + [f"--{k.replace('_', '-')}={num(v)}" for k, v in expect.items()]
        b.cli(f"reduce-{fmt}", "reduce", expect, 1, argv, fmt)

    # Sizes keep the call types apart in latency, so that the median call
    # (a CSV landscape) and the tail call (a CSV staircase) each fall inside
    # one group of alike calls rather than on a boundary between two.
    big = [
        lambda: staircase(max(2, int(40000 * scale)), "csv"),
        lambda: landscape(2 if tiny else 5, "csv"),
        lambda: hysteresis(max(2, int(10000 * scale)), "csv"),
        lambda: staircase(max(2, int(30000 * scale)), "json"),
    ]
    rounds = 1 if tiny else 10
    for _ in range(rounds):
        for k in (0, 1, 2, 0, 1, 2, 3):
            big[k]()
    landscape(2 if tiny else 5, "json")
    hysteresis(max(2, int(10000 * scale)), "json")
    estimates()
    reduce("csv")
    reduce("json")


BUILDERS = {
    "staircase_numeric": staircase_numeric,
    "solve_single": solve_single,
    "analytic_cli": analytic_cli,
}


def make_pass(workload: str, seed: int, index: int, work: Path, size: str) -> list[Call]:
    """The calls of pass `index`; same (workload, seed, index, size) -> same inputs."""
    rng = np.random.default_rng([seed, index])
    b = PassBuilder(work, index)
    BUILDERS[workload](rng, b, size == "tiny")
    return b.calls

"""Per-layer tracing from outside the program.

The tracer replaces public functions with timing wrappers under the name
each caller looks up: the modules use `from .x import y`, so
`acring.sweeps.global_ground` and `acring.cli.global_ground` are wrapped
separately from `acring.solver.global_ground`.  Boundaries crossed a few
times per call (cli, sweeps, solver, reduction, units) record spans: layer,
name, start, end, parent span, and the index of the workload call they
belong to.  Boundaries crossed per point or per step -- the closed-form
`ring` functions and the `numpy.fft.fft`/`ifft` transforms -- are counted
into the enclosing span (calls, seconds, rows, elements) instead, which
keeps a traced pass to a few thousand spans.  Spans stay in memory and are
written out at the end.

A span's self time is its duration minus its child spans and the counted
ring and transform time inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from statistics import median

SPAN_TARGETS = [
    ("acring.cli", ("main",), "cli"),
    ("acring.cli", ("build_ring_params", "transverse_kinetic_offset", "radial_term_diagnostic"), "reduction"),
    ("acring.cli", ("global_ground", "relax", "dump_wavefunction"), "solver"),
    ("acring.cli", ("staircase", "landscape", "hysteresis", "eta_grid"), "sweeps"),
    ("acring.sweeps", ("global_ground",), "solver"),
    ("acring.solver", ("relax", "global_ground"), "solver"),
    (
        "acring.units",
        (
            "eta_line_charge", "required_line_density", "field_line_charge", "field_line_charge_for_eta",
            "eta_torus", "required_torus_charges", "field_torus", "eta_cross_field", "field_au_to_volts_per_cm",
        ),
        "units",
    ),
]
COUNTED_TARGETS = [
    ("acring.cli", ("ground_winding", "mu_total"), "ring"),
    ("acring.sweeps", ("barrier", "ground_winding", "mu_mixed"), "ring"),
    ("acring.solver", ("ground_winding",), "ring"),
    ("numpy.fft", ("fft", "ifft"), "transform"),
]
SWEEP_POINTS = {"staircase": len, "hysteresis": len, "landscape": lambda r: len(r.points)}
TRANSFORM_BYTES_PER_ELEMENT = 16 * 2  # complex128 read and written, computed from array sizes


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "call", "t0", "t1", "counted", "points")

    def __init__(self, sid, parent, layer, name, call):
        self.sid, self.parent, self.layer, self.name, self.call = sid, parent, layer, name, call
        self.t0 = self.t1 = 0.0
        self.counted = {}  # layer -> [calls, seconds, rows, elements]
        self.points = 0

    def to_json(self) -> dict:
        return {
            "id": self.sid, "parent": self.parent, "call": self.call, "layer": self.layer, "name": self.name,
            "start": self.t0, "end": self.t1, "points": self.points,
            "counted": {k: dict(zip(("calls", "s", "rows", "elements"), v)) for k, v in self.counted.items()},
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.solver_returns: list = []  # (args, report or None, converged) per solver span
        self.call = -1
        self._open: list[Span] = []
        self._patches: list = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._open[-1].sid if tracer._open else None
            span = Span(len(tracer.spans), parent, layer, name, tracer.call)
            tracer.spans.append(span)
            tracer._open.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.t1 = time.perf_counter()
                tracer._open.pop()
                if layer == "solver" and name != "dump_wavefunction":
                    tracer.solver_returns.append((args, getattr(err, "best_report", None), False))
                raise
            span.t1 = time.perf_counter()
            tracer._open.pop()
            if layer == "solver" and name != "dump_wavefunction":
                tracer.solver_returns.append((args, result, bool(result.converged)))
            elif name in SWEEP_POINTS:
                span.points = SWEEP_POINTS[name](result)
            return result

        return wrapper

    def _counted_wrapper(self, layer: str, name: str, fn):
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._open:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                counts = tracer._open[-1].counted.get(layer)
                if counts is None:
                    counts = tracer._open[-1].counted[layer] = [0, 0.0, 0, 0]
                counts[0] += 1
                counts[1] += dt
                shape = getattr(args[0], "shape", None) if args else None
                if shape:
                    counts[3] += args[0].size
                    counts[2] += args[0].size // shape[-1]

        return wrapper

    def install(self) -> None:
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (COUNTED_TARGETS, self._counted_wrapper)):
            for module_name, names, layer in targets:
                module = importlib.import_module(module_name)
                for name in names:
                    original = getattr(module, name)
                    self._patches.append((module, name, original))
                    setattr(module, name, make(layer, name, original))

    def uninstall(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    # -- results ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")

    def layer_totals(self) -> dict:
        """Sums over all spans: per-layer time, entry calls, self time, counted work."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.t1 - s.t0
        t = defaultdict(float)
        for s in spans:
            duration = s.t1 - s.t0
            counted_s = sum(c[1] for c in s.counted.values())
            t[f"{s.layer}.self_s"] += duration - child[s.sid] - counted_s
            if s.parent is None or spans[s.parent].layer != s.layer:
                t[f"{s.layer}.s"] += duration
                t[f"{s.layer}.calls"] += 1
            t["sweeps.points"] += s.points
            for layer, (calls, seconds, rows, elements) in s.counted.items():
                t[f"{layer}.calls"] += calls
                t[f"{layer}.s"] += seconds
                if layer == "transform" and s.layer == "solver":
                    t["solver.transform_calls"] += calls
                    t["solver.transform_s"] += seconds
                    t["solver.transform_rows"] += rows
                    t["solver.transform_bytes_computed"] += elements * TRANSFORM_BYTES_PER_ELEMENT
        t["solver.winner_steps"] = sum(r.iterations for _, r, _ in self.solver_returns if r is not None)
        t["solver.unconverged"] = sum(1 for _, _, ok in self.solver_returns if not ok)
        return t


def per_layer_metrics(totals: dict, passes: int, accuracy: dict, setup_import_s: list, overhead_frac: float) -> dict:
    """Per-pass layer metrics from traced totals (maxima stay maxima)."""
    per = {k: v / passes for k, v in totals.items()}
    transform_calls = totals.get("solver.transform_calls", 0)
    steps = totals.get("solver.winner_steps", 0)
    return {
        "solver.s": per.get("solver.s", 0.0),
        "solver.calls": per.get("solver.calls", 0),
        "solver.winner_steps": per.get("solver.winner_steps", 0),
        "solver.unconverged": per.get("solver.unconverged", 0),
        "solver.transform_calls": per.get("solver.transform_calls", 0),
        "solver.transform_rows": per.get("solver.transform_rows", 0),
        "solver.transform_s": per.get("solver.transform_s", 0.0),
        "solver.transform_bytes_computed": per.get("solver.transform_bytes_computed", 0),
        "solver.overhead_s": per.get("solver.s", 0.0) - per.get("solver.transform_s", 0.0),
        "solver.rows_per_transform": totals.get("solver.transform_rows", 0) / transform_calls if transform_calls else 0.0,
        "solver.transform_rows_per_winner_step": totals.get("solver.transform_rows", 0) / steps if steps else 0.0,
        "solver.mu_err_max": accuracy.get("mu_err_max", 0.0),
        "solver.residual_max": accuracy.get("residual_max", 0.0),
        "sweeps.s": per.get("sweeps.s", 0.0),
        "sweeps.self_s": per.get("sweeps.self_s", 0.0),
        "sweeps.points": per.get("sweeps.points", 0),
        "sweeps.tie_disagreements": accuracy.get("tie_disagreements", 0) / passes,
        "ring.calls": per.get("ring.calls", 0),
        "ring.s": per.get("ring.s", 0.0),
        "cli.self_s": per.get("cli.self_s", 0.0),
        "cli.rows_out": accuracy.get("rows_out", 0) / passes,
        "cli.bytes_out": accuracy.get("bytes_out", 0) / passes,
        "reduction.calls": per.get("reduction.calls", 0),
        "reduction.s": per.get("reduction.s", 0.0),
        "units.calls": per.get("units.calls", 0),
        "units.s": per.get("units.s", 0.0),
        "setup.import_s": median(setup_import_s),
        "trace.overhead_frac": overhead_frac,
    }

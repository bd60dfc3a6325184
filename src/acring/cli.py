"""Command-line interface.

Every capability is a subcommand emitting CSV or JSON; identical invocations
(including rng seeds) produce byte-identical output, so sweep files can be
kept under golden-file regression.  Floats are printed with 12 significant
digits.  Exit codes: 0 success, 2 usage, 3 validation, 4 non-convergence.

An optional plain-text config file (``key=value`` per line, ``#`` comments)
supplies defaults for any long flag of the subcommand; flags given on the
command line override it.  Relative output paths resolve under
$ACRING_OUTPUT_DIR when that variable is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from . import units
from .reduction import (
    RingParams,
    TrapSetup,
    build_ring_params,
    radial_term_diagnostic,
    transverse_kinetic_offset,
)
from .ring import ground_winding, mu_total
from .solver import SolverSettings, dump_wavefunction, global_ground, relax
from .sweeps import StaircaseSpec, eta_grid, hysteresis, landscape, staircase

__all__ = ["RunConfig", "run", "main"]

ENV_OUTPUT_DIR = "ACRING_OUTPUT_DIR"


@dataclass(frozen=True)
class RunConfig:
    """One validated invocation: subcommand, its parameters, and the sink."""

    subcommand: str
    parameters: dict
    output_path: str
    output_format: str


@dataclass
class CommandResult:
    """A subcommand's table: column names mapped to columns (arrays or (values, index) pairs), and the JSON-only extras."""

    columns: dict
    extras: dict = field(default_factory=dict)
    convergence_failures: list = field(default_factory=list)


def _one_row(row: dict) -> dict:
    """A one-row table: each name mapped to a one-cell column."""
    return {name: np.array([value]) for name, value in row.items()}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value) -> str:
    """value as json.dumps(payload, sort_keys=True, indent=2) writes it inside a row."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n      ")


# Rows per rendered piece.  A piece converts its own slice of each column and
# is written before the next is built, so neither the file nor a full-column
# temporary is ever held whole: memory stays near the columns themselves.
_CHUNK_ROWS = 4096


def _length(column) -> int:
    return len(column[1] if isinstance(column, tuple) else column)


def _column_cells(column, csv: bool) -> tuple:
    """One column as (conversion, take) for a %-template row; take(rows) lists the values conversion writes.

    A column is a numpy array, or a (values, index) pair whose cells are
    values[index], an index of len(values) being the empty cell (None).  The
    dtype picks the conversion once per table: floats '%.12g' (CSV) or '%r'
    (JSON), integers '%d', and the template converts a piece's .tolist()
    itself ('%.12g' % x is format(x, '.12g'), '%r' % x is repr(x) and '%d' %
    n is repr(n)).  A pair's values are written once, and its pieces pick
    the texts; a bool column is the pair over (False, True).  Any other
    dtype, and a JSON float column holding NaN or infinities (json writes
    NaN, Infinity, -Infinity), goes cell by cell through _fmt or
    _json_value.
    """
    general = _fmt if csv else _json_value
    if isinstance(column, tuple):
        values, index = column
        conversion, take = _column_cells(values, csv)
        texts = np.array([*map(conversion.__mod__, take(slice(None))), general(None)], dtype=object)
        return "%s", lambda rows: texts[index[rows]].tolist()
    kind = column.dtype.kind
    if kind == "b":
        return _column_cells((np.array([False, True], dtype=object), column.view(np.int8)), csv)
    if kind in "iu" or kind == "f" and (csv or np.isfinite(column).all()):
        return "%d" if kind in "iu" else "%.12g" if csv else "%r", lambda rows: column[rows].tolist()
    return "%s", lambda rows: list(map(general, column[rows].tolist()))


def _rows(template: str, separator: str, columns: list, csv: bool):
    """The table's rows in pieces of _CHUNK_ROWS: template (one row, a %s per column) filled with the cells.

    Each piece takes its own slice of every column, so that no full-column
    temporary outlives a piece.  No per-cell string is built for a column
    the row template converts itself.
    """
    conversions, takes = zip(*(_column_cells(column, csv) for column in columns))
    row = template % conversions
    width = len(columns)
    for start in range(0, _length(columns[0]), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        values = [take(rows) for take in takes]
        size = len(values[0])
        cells = [None] * (size * width)
        for j, part in enumerate(values):
            cells[j::width] = part
        yield (separator if start else "") + separator.join([row] * size) % tuple(cells)


def _render_csv(columns: dict):
    """CSV text in pieces, formatted column by column; the bytes of one _fmt call per cell."""
    yield ",".join(columns) + "\n"
    values = list(columns.values())
    if values and _length(values[0]):
        yield from _rows(",".join(["%s"] * len(values)), "\n", values, csv=True)
        yield "\n"


def _render_json(config: RunConfig, result: CommandResult):
    """json.dumps(payload, sort_keys=True, indent=2) in pieces, with the rows written by column."""
    payload = {
        "command": config.subcommand,
        "parameters": config.parameters,
        "columns": list(result.columns),
        "rows": [],
    }
    payload.update(result.extras)
    head, _, tail = json.dumps(payload, sort_keys=True, indent=2).partition('\n  "rows": []')
    yield head + '\n  "rows": '
    columns = result.columns
    names = sorted(columns)
    if names and _length(columns[names[0]]):
        keys = ["\n      " + json.dumps(name).replace("%", "%%%%") + ": %s" for name in names]
        yield "[\n    "
        yield from _rows("{" + ",".join(keys) + "\n    }", ",\n    ", [columns[name] for name in names], csv=False)
        yield "\n  ]"
    else:
        yield "[]"
    yield tail + "\n"


def _resolve_path(path: str) -> Path:
    p = Path(path)
    base = os.environ.get(ENV_OUTPUT_DIR)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _write_text(output_path: str, pieces) -> None:
    """Write text given in pieces, one piece at a time."""
    if output_path == "-":
        sys.stdout.writelines(pieces)
        return
    dest = _resolve_path(output_path)
    dest.parent.mkdir(parents=True, exist_ok=True)
    with dest.open("w", encoding="utf-8", newline="") as out:  # byte-exact across platforms
        out.writelines(pieces)


def _parse_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start:stop:step")
    return tuple(float(p) for p in parts)


class _GridRejected(Exception):
    """A well-formed range that eta_grid refuses: validation (exit 3), not usage.

    argparse would report a ValueError from a type callback as usage (exit 2).
    """


def _parse_values(text: str) -> list:
    """Scalar, comma list, or start:stop:step range -> list of floats."""
    if ":" in text:
        start, stop, step = _parse_range(text)
        try:
            return eta_grid(start, stop, step)
        except ValueError as err:
            raise _GridRejected(str(err)) from None
    if "," in text:
        return [float(p) for p in text.split(",") if p.strip()]
    return [float(text)]


def _interaction(p: dict) -> float:
    if p.get("u_tilde") is not None:
        return p["u_tilde"]
    return p["u_tilde_over_2pi"] * 2.0 * math.pi


_SOLVER_KEYS = {
    "grid_size": "grid_size",
    "solver_tolerance": "tolerance",
    "max_iterations": "max_iterations",
    "noise_amplitude": "noise_amplitude",
    "rng_seed": "rng_seed",
}


def _build_settings(p: dict, default_noise: float, seed_winding: int = 0) -> SolverSettings:
    kwargs = {target: p[src] for src, target in _SOLVER_KEYS.items() if p.get(src) is not None}
    kwargs.setdefault("noise_amplitude", default_noise)
    kwargs["seed_winding"] = seed_winding
    return SolverSettings(**kwargs)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _run_estimate(p: dict) -> CommandResult:
    geometry = p["geometry"]
    g = p["g_f"]
    if geometry == "line":
        if (p["n_e"] is None) == (p["eta_target"] is None):
            raise ValueError("line geometry takes exactly one of --n-e / --eta-target")
        density = p["n_e"] if p["n_e"] is not None else units.required_line_density(p["eta_target"], g)
        setup = units.LineChargeSetup(density, g, p["distance"])
        f_au = units.field_line_charge(setup)
        row = {
            "geometry": "line",
            "lande_g": g,
            "n_e_per_m": density,
            "probe_distance_m": p["distance"],
            "eta": units.eta_line_charge(setup),
            "field_au": f_au,
            "field_v_per_cm": units.field_au_to_volts_per_cm(f_au),
        }
    elif geometry == "torus":
        if (p["sphere_charges"] is None) == (p["eta_target"] is None):
            raise ValueError("torus geometry takes exactly one of --sphere-charges / --eta-target")
        charges = (
            p["sphere_charges"]
            if p["sphere_charges"] is not None
            else units.required_torus_charges(p["eta_target"], g, p["radius"])
        )
        setup = units.TorusChargeSetup(charges, p["radius"], g)
        f_au = units.field_torus(setup)
        row = {
            "geometry": "torus",
            "lande_g": g,
            "sphere_charges": charges,
            "torus_radius_m": p["radius"],
            "eta": units.eta_torus(setup),
            "field_au": f_au,
            "field_v_per_cm": units.field_au_to_volts_per_cm(f_au),
        }
    else:
        missing = [k for k in ("polarizability", "charges_per_bohr", "b_field") if p[k] is None]
        if missing:
            raise ValueError(f"crossed geometry requires --{missing[0].replace('_', '-')}")
        setup = units.CrossedFieldSetup(p["polarizability"], p["charges_per_bohr"], p["b_field"])
        row = {
            "geometry": "crossed",
            "polarizability_a0cubed": p["polarizability"],
            "charges_per_bohr": p["charges_per_bohr"],
            "b_gauss": p["b_field"],
            "eta": units.eta_cross_field(setup),
        }
    for name, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} is {value}: the inputs take the estimate past the float range")
    return CommandResult(_one_row(row))


def _run_reduce(p: dict) -> CommandResult:
    trap = TrapSetup(
        atom_count=p["atoms"],
        scattering_length=p["scattering_length"],
        atom_mass=p["mass"],
        torus_radius=p["radius"],
        width_rho=p["width_rho"],
        width_z=p["width_z"],
        potential_mean=p["potential_mean"],
    )
    params = build_ring_params(trap, p["eta"])
    row = {
        "eta": params.eta,
        "u_tilde": params.u_tilde,
        "mu_offset": params.mu_offset,
        "transverse_kinetic_offset": transverse_kinetic_offset(trap),
        "radial_term_diagnostic": radial_term_diagnostic(trap),
        "energy_unit_joules": trap.energy_unit,
    }
    return CommandResult(_one_row(row))


def _run_ground(p: dict) -> CommandResult:
    params = RingParams(eta=p["eta"], u_tilde=_interaction(p), mu_offset=p["mu_offset"])
    result = ground_winding(params)
    row = {
        "eta": params.eta,
        "u_tilde": params.u_tilde,
        "winding": result.winding,
        "degenerate": result.degenerate,
        "mu_eff": result.mu_eff,
        "mu_total": mu_total(result.mu_eff, params),
    }
    return CommandResult(_one_row(row))


def _run_solve(p: dict) -> CommandResult:
    params = RingParams(eta=p["eta"], u_tilde=_interaction(p), mu_offset=p["mu_offset"])
    if p["global_search"]:
        report = global_ground(params, _build_settings(p, default_noise=1e-3))
        search = "global"
        miss = (
            f"no seed converged within {report.iterations} iterations "
            f"(eta={params.eta}, u_tilde={params.u_tilde})"
        )
    else:
        report = relax(params, _build_settings(p, default_noise=0.0, seed_winding=p["seed_winding"]))
        search = "seeded"
        miss = f"relax did not converge within {report.iterations} iterations (eta={params.eta})"
    failures = [] if report.converged else [miss]
    if p["dump_psi"] is not None:
        dump_path = _resolve_path(p["dump_psi"])
        dump_path.parent.mkdir(parents=True, exist_ok=True)
        dump_wavefunction(report.wavefunction, dump_path)
    row = {
        "eta": params.eta,
        "u_tilde": params.u_tilde,
        "search": search,
        "winding": report.winding,
        "mu": report.mu,
        "energy_per_particle": report.energy_per_particle,
        "mu_total": mu_total(report.mu, params),
        "iterations": report.iterations,
        "converged": report.converged,
    }
    return CommandResult(_one_row(row), convergence_failures=failures)


def _run_staircase(p: dict) -> CommandResult:
    start, stop, step = p["eta"]
    spec = StaircaseSpec(
        eta_start=start,
        eta_stop=stop,
        eta_step=step,
        u_tilde=_interaction(p),
        mode=p["mode"],
        condensate_weight=p["weight"],
    )
    settings = _build_settings(p, default_noise=1e-3) if spec.mode == "numeric" else None
    columns = staircase(spec, settings)
    converged = columns.pop("converged")
    if converged.all():
        return CommandResult(columns)
    unconverged = columns["eta"][~converged].tolist()
    failures = [f"eta={eta}" for eta in unconverged]
    return CommandResult(columns, extras={"unconverged_etas": unconverged}, convergence_failures=failures)


def _run_landscape(p: dict) -> CommandResult:
    points, peaks = landscape(p["m"], p["eta"], _interaction(p), p["x_step"])
    if p["peaks_output"] is not None:
        _write_text(p["peaks_output"], _render_csv(peaks))
    extras = {"peaks": [dict(zip(peaks, row)) for row in zip(*(column.tolist() for column in peaks.values()))]}
    return CommandResult(points, extras=extras)


def _run_hysteresis(p: dict) -> CommandResult:
    path = list(p["eta"])
    if p["loop"] and len(path) > 1:
        path = path + path[-2::-1]
    return CommandResult(hysteresis(path, _interaction(p), p["start_winding"]))


_HANDLERS = {
    "estimate": _run_estimate,
    "reduce": _run_reduce,
    "ground": _run_ground,
    "solve": _run_solve,
    "staircase": _run_staircase,
    "landscape": _run_landscape,
    "hysteresis": _run_hysteresis,
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--output",
        "-o",
        default="-",
        help="output file, or '-' for stdout; relative paths resolve under $ACRING_OUTPUT_DIR",
    )
    sp.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    sp.add_argument(
        "--config",
        default=None,
        help="key=value file with flag defaults; explicit flags override it",
    )


def _add_interaction_flags(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--u-tilde", type=float, default=None, help="interaction strength in ring units")
    group.add_argument(
        "--u-tilde-over-2pi",
        type=float,
        default=None,
        help="interaction given as the chemical-potential plateau u_tilde/(2*pi)",
    )


def _add_solver_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--grid-size", type=int, default=None, help="grid points, power of two from 64 to 65536 (default 256)"
    )
    sp.add_argument(
        "--solver-tolerance",
        type=float,
        default=None,
        help="residual ||(H + V - mu) psi|| at convergence, relative to max(1, |mu|) (default 1e-10)",
    )
    sp.add_argument("--max-iterations", type=int, default=None, help="iteration cap (default 50000)")
    sp.add_argument(
        "--noise-amplitude",
        type=float,
        default=None,
        help="seed noise amplitude (default 0 seeded, 1e-3 for global search / numeric sweeps)",
    )
    sp.add_argument("--rng-seed", type=int, default=None, help="noise generator seed (default 7)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The acring argument parser, built once per process and shared: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="acring",
        description="Quantized circulating ring states under a topological gauge phase",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = sub.add_parser("estimate", help="physical-parameter estimates for the gauge phase")
    est.add_argument("--geometry", required=True, choices=("line", "torus", "crossed"))
    est.add_argument("--n-e", type=float, default=None, help="line charge density, charges per meter")
    est.add_argument("--eta-target", type=float, default=None, help="solve for the charge giving this eta")
    est.add_argument("--g-f", type=float, default=1.0, help="Lande g_F factor (nonzero)")
    est.add_argument("--distance", type=float, default=1e-3, help="probe distance from the line, meters")
    est.add_argument("--sphere-charges", type=float, default=None, help="charges on the central sphere")
    est.add_argument("--radius", type=float, default=1e-3, help="torus major radius, meters")
    est.add_argument("--polarizability", type=float, default=None, help="static polarizability, a0^3 units")
    est.add_argument("--charges-per-bohr", type=float, default=None, help="line charges per Bohr radius")
    est.add_argument("--b-field", type=float, default=None, help="magnetic field, gauss")
    _add_output_flags(est)

    red = sub.add_parser("reduce", help="map a 3D trapped cloud to the 1D ring parameters")
    red.add_argument("--atoms", type=float, required=True, help="condensed atom number")
    red.add_argument("--scattering-length", type=float, required=True, help="s-wave length, meters")
    red.add_argument("--mass", type=float, required=True, help="atom mass, kg")
    red.add_argument("--radius", type=float, required=True, help="torus major radius, meters")
    red.add_argument("--width-rho", type=float, required=True, help="radial width (std dev), meters")
    red.add_argument("--width-z", type=float, required=True, help="axial width (std dev), meters")
    red.add_argument("--potential-mean", type=float, default=0.0, help="transverse-averaged potential, joules")
    red.add_argument("--eta", type=float, default=0.0, help="gauge phase to fold into the offset")
    _add_output_flags(red)

    grd = sub.add_parser("ground", help="analytic ground winding and chemical potential")
    grd.add_argument("--eta", type=float, required=True, help="gauge phase")
    _add_interaction_flags(grd)
    grd.add_argument("--mu-offset", type=float, default=0.0, help="winding-independent offset")
    _add_output_flags(grd)

    slv = sub.add_parser("solve", help="numeric ground state on the azimuthal grid")
    slv.add_argument("--eta", type=float, required=True, help="gauge phase")
    _add_interaction_flags(slv)
    slv.add_argument("--mu-offset", type=float, default=0.0, help="winding-independent offset")
    slv.add_argument(
        "--global",
        dest="global_search",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="search seed windings around the expected ground instead of one sector",
    )
    slv.add_argument("--seed-winding", type=int, default=0, help="initial winding (seeded mode)")
    slv.add_argument("--dump-psi", default=None, help="write converged (phi, Re psi, Im psi) here")
    _add_solver_flags(slv)
    _add_output_flags(slv)

    stc = sub.add_parser("staircase", help="winding vs eta sweep with thermal average")
    stc.add_argument("--eta", type=_parse_range, required=True, metavar="START:STOP:STEP")
    _add_interaction_flags(stc)
    stc.add_argument("--weight", type=float, default=1.0, help="condensate weight w in [0, 1]")
    stc.add_argument("--mode", choices=("analytic", "numeric"), default="analytic")
    _add_solver_flags(stc)
    _add_output_flags(stc)

    lnd = sub.add_parser("landscape", help="two-mode stability landscape mu(x) per eta")
    lnd.add_argument("--m", type=int, default=0, help="lower winding of the pair (m, m+1)")
    lnd.add_argument(
        "--eta", type=_parse_values, required=True, metavar="VALUES", help="scalar, comma list, or range"
    )
    _add_interaction_flags(lnd)
    lnd.add_argument("--x-step", type=float, default=0.01, help="mixing-parameter grid step")
    lnd.add_argument("--peaks-output", default=None, help="also write the barrier peaks as CSV here")
    _add_output_flags(lnd)

    hys = sub.add_parser("hysteresis", help="winding walk along an eta path with metastability")
    hys.add_argument(
        "--eta", type=_parse_values, required=True, metavar="VALUES", help="scalar, comma list, or range"
    )
    _add_interaction_flags(hys)
    hys.add_argument(
        "--loop",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="append the reversed path (sweep up, then back down)",
    )
    hys.add_argument("--start-winding", type=int, default=0, help="winding carried into the first point")
    _add_output_flags(hys)

    return parser


# ---------------------------------------------------------------------------
# config file and entry point
# ---------------------------------------------------------------------------


def _load_config_flags(path: str) -> list:
    """Turn key=value lines into --key=value flags; booleans map to --key / --no-key.

    One token per line, so that a value starting with '-' (a negative range
    or list) stays the flag's argument.
    """
    flags = []
    text = Path(path).read_text(encoding="utf-8")
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if not sep or not key:
            raise ValueError(f"bad config line: {raw!r}")
        if value.lower() == "true":
            flags.append(f"--{key}")
        elif value.lower() == "false":
            flags.append(f"--no-{key}")
        else:
            flags.append(f"--{key}={value}")
    return flags


def _inject_config(argv: list) -> list:
    if not argv or argv[0].startswith("-"):
        return argv
    cfg = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            cfg = argv[i + 1]
        elif token.startswith("--config="):
            cfg = token.split("=", 1)[1]
    if cfg is None:
        return argv
    return [argv[0]] + _load_config_flags(cfg) + argv[1:]


def run(config: RunConfig) -> int:
    """Dispatch one validated invocation; returns the process exit code."""
    try:
        result = _HANDLERS[config.subcommand](config.parameters)
        if config.output_format == "json":
            pieces = _render_json(config, result)
        else:
            pieces = _render_csv(result.columns)
        _write_text(config.output_path, pieces)
    except (ValueError, ArithmeticError) as err:  # a miss comes back as converged=False, not raised
        print(f"error: validation: {err}", file=sys.stderr)
        return 3
    except OSError as err:  # the output, or a side file: --peaks-output, --dump-psi
        print(f"error: io: {err}", file=sys.stderr)
        return 3
    if result.convergence_failures:
        print(
            f"error: convergence: {len(result.convergence_failures)} point(s) unconverged: "
            + "; ".join(result.convergence_failures),
            file=sys.stderr,
        )
        return 4
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_inject_config(argv))
    except (OSError, ValueError, _GridRejected) as err:  # an unreadable or bad config file, a refused grid
        print(f"error: validation: {err}", file=sys.stderr)
        return 3
    reserved = {"subcommand", "output", "format", "config"}
    parameters = {k: v for k, v in vars(args).items() if k not in reserved}
    config = RunConfig(
        subcommand=args.subcommand,
        parameters=parameters,
        output_path=args.output,
        output_format=args.format,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

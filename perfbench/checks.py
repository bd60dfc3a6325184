"""Closed-form reference and accuracy gate for the benchmark's outputs.

Nothing here imports acring: every expected value is recomputed from the
formulas of the ring model (and of the unit and reduction estimates), so a
program that is fast but wrong cannot post a number.  Each checker returns
one Gate per table it read; a Gate counts the rows it was owed and the rows
that failed.

Stated accuracy:
- a numeric chemical potential lies within MU_TOL of the plane-wave value
  (m - eta)^2 + u_tilde/(2 pi) of its own winding m;
- a numeric winding equals the nearest integer to eta (the lower one at an
  exact half-integer), or its plane-wave mu lies within MU_TOL of the
  minimum; rows where it differs are counted as tie disagreements;
- a state relaxed under a potential has ||(H + V - mu) psi|| <= RESIDUAL_TOL,
  computed here with numpy.fft, and a non-increasing energy history (a rise
  of ENERGY_RISE_TOL * max(1, |E|) per step is roundoff);
- printed analytic values match the closed form to PRINT_RTOL (the CLI
  prints 12 significant digits).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MU_TOL = 1e-6
RESIDUAL_TOL = 1e-3
ENERGY_RISE_TOL = 1e-12
PRINT_RTOL = 1e-9
GRID_DECIMALS = 12  # documented CLI rule: sweep abscissae snap to 12 decimals

# snapshot constants documented by the unit estimates
ALPHA = 7.2973525643e-3
COMPTON_LENGTH = 3.8616e-13
AU_FIELD_V_PER_CM = 5.142e9
ZEEMAN_RATIO_PER_GAUSS = 2.1271911e-10
HBAR = 6.62607015e-34 / (2.0 * math.pi)

STAIRCASE_COLUMNS = ["eta", "winding_T0", "classical_mean", "thermal_mean", "mu_eff", "degenerate"]
SOLVE_COLUMNS = [
    "eta", "u_tilde", "search", "winding", "mu", "energy_per_particle", "mu_total", "iterations", "converged",
]
LANDSCAPE_COLUMNS = ["eta", "x", "mu_eff"]
PEAK_COLUMNS = ["eta", "x_peak", "mu_peak", "height_from_m", "height_from_m_plus_1"]
HYSTERESIS_COLUMNS = ["eta", "direction", "winding", "barrier_height"]
REDUCE_COLUMNS = [
    "eta", "u_tilde", "mu_offset", "transverse_kinetic_offset", "radial_term_diagnostic", "energy_unit_joules",
]


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def grid(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive start:stop:step grid, endpoint within half a step."""
    count = int(math.floor((stop - start) / step + 0.5))
    return np.array([round(start + i * step, GRID_DECIMALS) for i in range(count + 1)])


def nearest_winding(eta):
    """Nearest integer to eta, the lower one at an exact half-integer."""
    eta = np.asarray(eta, dtype=float)
    base = np.floor(eta)
    frac = eta - base
    return base + (frac > 0.5), frac == 0.5


def mu_plane(m, eta, u2):
    """Plane-wave chemical potential; u2 is u_tilde / (2 pi)."""
    return (m - eta) ** 2 + u2


def mu_mixed(m, x, eta, u2):
    """Two-mode chemical potential between windings m and m + 1."""
    return (1.0 - x) * (m - eta) ** 2 + x * (m + 1 - eta) ** 2 + u2 * (1.0 + 2.0 * x * (1.0 - x))


def barrier_peak(m, eta, u2):
    """Peak mixing x* of the m -> m+1 path and whether it lies inside (0, 1)."""
    x = 0.5 + (m + 0.5 - eta) / (2.0 * u2)
    return x, (x > 0.0) & (x < 1.0)


def residual_norm(amplitudes, eta: float, u_tilde: float, potential, mu: float) -> float:
    """||(H + V - mu) psi|| on the ring measure, with H applied spectrally."""
    a = np.asarray(amplitudes, dtype=np.complex128)
    g = a.size
    k = np.fft.fftfreq(g, d=1.0 / g)
    h = np.fft.ifft((k - eta) ** 2 * np.fft.fft(a))
    h += (u_tilde * (a.real**2 + a.imag**2)) * a
    if potential is not None:
        h += potential * a
    h -= mu * a
    return math.sqrt(float((h.real**2 + h.imag**2).sum()) * 2.0 * math.pi / g)


def close(got, want, rtol=PRINT_RTOL, atol=PRINT_RTOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) <= atol + rtol * np.abs(want)


# ---------------------------------------------------------------------------
# tables and gates
# ---------------------------------------------------------------------------


class Broken(Exception):
    """A table is unusable as a whole (missing, wrong shape, wrong columns)."""


class Gate:
    """Row failures of one output table."""

    def __init__(self, label: str, rows: int):
        self.label = label
        self.rows = rows
        self.bad = np.zeros(rows, dtype=bool)
        self.broken = False
        self.notes: list[str] = []

    @property
    def failed(self) -> int:
        return self.rows if self.broken else int(self.bad.sum())

    def require(self, ok, what: str) -> None:
        ok = np.asarray(ok, dtype=bool)
        if ok.ndim == 0:
            ok = np.full(self.rows, bool(ok))
        bad = ~ok
        if bad.any():
            self.bad |= bad
            self.notes.append(f"{self.label}: {what} fails on {int(bad.sum())} row(s), first row {int(bad.argmax())}")

    def fail_all(self, what: str) -> None:
        self.broken = True
        self.notes.append(f"{self.label}: {what}")


def read_table(path, fmt: str) -> tuple[list, dict, dict]:
    """Columns, column -> raw values, and the JSON payload (empty for CSV)."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "csv":
        lines = text.splitlines()
        header = lines[0].split(",")
        cells = [line.split(",") for line in lines[1:]]
        if any(len(row) != len(header) for row in cells):
            raise Broken("ragged CSV row")
        columns = {name: [row[i] for row in cells] for i, name in enumerate(header)}
        return header, columns, {}
    payload = json.loads(text)
    header = payload["columns"]
    columns = {name: [row[name] for row in payload["rows"]] for name in header}
    return header, columns, payload


def floats(values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except ValueError:
        return np.array([math.nan if v in ("", None) else float(v) for v in values])


def bools(values) -> np.ndarray:
    return np.array([v is True or v == "true" for v in values], dtype=bool)


def _table(gate: Gate, path, fmt: str, header: list) -> tuple[dict, dict]:
    try:
        got_header, columns, payload = read_table(path, fmt)
    except (OSError, ValueError, KeyError) as err:
        raise Broken(f"unreadable output: {err}") from err
    if got_header != header:
        raise Broken(f"columns {got_header} != {header}")
    rows = len(columns[header[0]]) if header else 0
    if rows != gate.rows:
        raise Broken(f"{rows} rows, expected {gate.rows}")
    return columns, payload


# ---------------------------------------------------------------------------
# checkers, one per kind of call
# ---------------------------------------------------------------------------


def staircase_rows(e: dict) -> int:
    return len(grid(e["start"], e["stop"], e["step"]))


def check_staircase(call, stats: dict) -> list[Gate]:
    e = call.expect
    etas = grid(e["start"], e["stop"], e["step"])
    path, fmt = call.outputs[0]
    gate = Gate(call.label, len(etas))
    cols, _ = _table(gate, path, fmt, STAIRCASE_COLUMNS)
    u2, weight = e["u2"], e["weight"]
    gate.require(close(floats(cols["eta"]), etas), "eta grid")
    w = floats(cols["winding_T0"])
    ref_w, degenerate = nearest_winding(etas)
    mu = floats(cols["mu_eff"])
    if e["numeric"]:
        gate.require(np.abs(mu - mu_plane(w, etas, u2)) <= MU_TOL, "numeric mu vs plane wave")
        gate.require(
            (w == ref_w) | (mu_plane(w, etas, u2) - mu_plane(ref_w, etas, u2) <= MU_TOL), "ground winding"
        )
        stats["tie_disagreements"] = stats.get("tie_disagreements", 0) + int((w != ref_w).sum())
    else:
        gate.require(w == ref_w, "ground winding")
        gate.require(close(mu, mu_plane(ref_w, etas, u2)), "mu_eff")
    gate.require(bools(cols["degenerate"]) == degenerate, "degenerate flag")
    gate.require(close(floats(cols["classical_mean"]), etas), "classical mean")
    gate.require(close(floats(cols["thermal_mean"]), weight * w + (1.0 - weight) * etas), "thermal mean")
    return [gate]


def check_solve(call, stats: dict) -> list[Gate]:
    e = call.expect
    path, fmt = call.outputs[0]
    gate = Gate(call.label, 1)
    cols, _ = _table(gate, path, fmt, SOLVE_COLUMNS)
    eta, u2 = e["eta"], e["u2"]
    gate.require(close(floats(cols["eta"]), eta), "eta")
    gate.require(close(floats(cols["u_tilde"]), 2.0 * math.pi * u2), "u_tilde")
    gate.require(np.array(cols["search"]) == "global", "search mode")
    w = floats(cols["winding"])
    mu = floats(cols["mu"])
    ref_w, _ = nearest_winding(eta)
    gate.require(np.abs(mu - mu_plane(w, eta, u2)) <= MU_TOL, "numeric mu vs plane wave")
    gate.require((w == ref_w) | (mu_plane(w, eta, u2) - mu_plane(ref_w, eta, u2) <= MU_TOL), "ground winding")
    gate.require(close(floats(cols["mu_total"]), mu), "mu_total")
    gate.require(floats(cols["iterations"]) >= 1, "iterations")
    gate.require(bools(cols["converged"]), "converged")
    return [gate]


def check_relax_report(report, eta: float, u_tilde: float, potential, label: str) -> Gate:
    gate = Gate(label, 1)
    if report is None:
        gate.fail_all("no report")
        return gate
    gate.require(bool(report.converged), "converged")
    gate.require(math.isfinite(report.mu), "finite mu")
    res = residual_norm(report.wavefunction.amplitudes, eta, u_tilde, potential, report.mu)
    gate.require(res <= RESIDUAL_TOL, f"residual {res:.3g} <= {RESIDUAL_TOL}")
    hist = np.asarray(report.energy_history, dtype=float)
    rise = np.diff(hist) - ENERGY_RISE_TOL * np.maximum(1.0, np.abs(hist[1:]))
    gate.require(hist.size > 0 and not (rise > 0).any(), "energy history non-increasing")
    return gate


def check_relax(call, stats: dict) -> list[Gate]:
    params, _, potential = call.library
    return [check_relax_report(call.result, params.eta, params.u_tilde, potential, call.label)]


def landscape_peaks(e: dict) -> list:
    """(eta, x_peak, mu_peak, height_from_m, height_from_m_plus_1) per eta with an interior peak."""
    m, u2 = e["m"], e["u2"]
    peaks = []
    for eta in e["etas"]:
        x, inside = barrier_peak(m, eta, u2)
        if inside:
            mu_peak = mu_mixed(m, x, eta, u2)
            peaks.append((eta, x, mu_peak, mu_peak - mu_plane(m, eta, u2), mu_peak - mu_plane(m + 1, eta, u2)))
    return peaks


def landscape_rows(e: dict) -> int:
    return len(e["etas"]) * len(grid(0.0, 1.0, e["x_step"])) + len(landscape_peaks(e))


def check_landscape(call, stats: dict) -> list[Gate]:
    e = call.expect
    (path, fmt), (peaks_path, _) = call.outputs
    xs = grid(0.0, 1.0, e["x_step"])
    etas = np.repeat(np.asarray(e["etas"], dtype=float), xs.size)
    x = np.tile(xs, len(e["etas"]))
    peaks = np.array(landscape_peaks(e), dtype=float).reshape(-1, 5)
    points = Gate(call.label, etas.size)
    peak_gate = Gate(call.label + " peaks", len(peaks))
    gates = [points, peak_gate]
    cols, payload = _table(points, path, fmt, LANDSCAPE_COLUMNS)
    points.require(close(floats(cols["eta"]), etas), "eta")
    points.require(close(floats(cols["x"]), x), "x grid")
    points.require(close(floats(cols["mu_eff"]), mu_mixed(e["m"], x, etas, e["u2"])), "mu_eff")
    try:
        peak_cols, _ = _table(peak_gate, peaks_path, "csv", PEAK_COLUMNS)
    except Broken as err:
        peak_gate.fail_all(str(err))
        return gates
    for j, name in enumerate(PEAK_COLUMNS):
        peak_gate.require(close(floats(peak_cols[name]), peaks[:, j], atol=1e-8), name)
    if payload:
        same = len(payload.get("peaks", [])) == len(peaks) and all(
            close(p[name], peaks[i, j], atol=1e-8)
            for i, p in enumerate(payload["peaks"])
            for j, name in enumerate(PEAK_COLUMNS)
        )
        peak_gate.require(same, "JSON peaks")
    return gates


def hysteresis_path(e: dict) -> np.ndarray:
    path = grid(e["start"], e["stop"], e["step"])
    return np.concatenate([path, path[-2::-1]]) if e["loop"] and path.size > 1 else path


def check_hysteresis(call, stats: dict) -> list[Gate]:
    e = call.expect
    path, fmt = call.outputs[0]
    eta = hysteresis_path(e)
    gate = Gate(call.label, eta.size)
    cols, _ = _table(gate, path, fmt, HYSTERESIS_COLUMNS)
    u2 = e["u2"]
    half = 0.5 + u2
    slack = 1e-9
    gate.require(close(floats(cols["eta"]), eta), "eta path")
    up = np.empty(eta.size, dtype=bool)
    up[0] = eta.size == 1 or eta[1] >= eta[0]
    up[1:] = eta[1:] >= eta[:-1]
    gate.require(np.array(cols["direction"]) == np.where(up, "up", "down"), "direction")
    m = floats(cols["winding"])
    prev = np.concatenate([[e["start_winding"]], m[:-1]])
    inside = (eta - m < half + slack) & (m - eta < half + slack)
    gate.require(inside, "winding inside its metastability window")
    # a winding changes only where the previous one lost its barrier, and
    # stops at the first winding inside the window
    moved = m != prev
    outside_before = (eta - prev >= half - slack) | (prev - eta >= half - slack)
    step_back = np.where(m > prev, m - 1, m + 1)
    last_outside = (eta - step_back >= half - slack) | (step_back - eta >= half - slack)
    gate.require(~moved | (outside_before & last_outside & ((m > prev) == (eta > prev))), "slide rule")
    neighbor_up = eta >= m
    base = np.where(neighbor_up, m, m - 1)
    x, present = barrier_peak(base, eta, u2)
    height = mu_mixed(base, x, eta, u2) - mu_plane(m, eta, u2)
    got = floats(cols["barrier_height"])
    edge = (np.abs(x) < slack) | (np.abs(x - 1.0) < slack)
    gate.require(edge | (np.isnan(got) == ~present), "barrier presence")
    gate.require(~present | edge | close(got, height, atol=1e-8), "barrier height")
    return [gate]


def _estimate_expected(e: dict) -> tuple[list, list]:
    g = e.get("g_f", 1.0)
    geometry = e["geometry"]
    if geometry == "line":
        density = e["n_e"] if "n_e" in e else e["eta_target"] / (g * ALPHA * COMPTON_LENGTH)
        per_compton = density * COMPTON_LENGTH
        field = 2.0 * per_compton / (e["distance"] / COMPTON_LENGTH) / ALPHA**2
        header = ["geometry", "lande_g", "n_e_per_m", "probe_distance_m", "eta", "field_au", "field_v_per_cm"]
        return header, [
            "line", g, density, e["distance"], per_compton * g * ALPHA, field, field * AU_FIELD_V_PER_CM,
        ]
    if geometry == "torus":
        rho_bar = e["radius"] / COMPTON_LENGTH
        charges = e["sphere_charges"] if "sphere_charges" in e else 2.0 * rho_bar * e["eta_target"] / (g * ALPHA)
        field = charges / rho_bar**2 / ALPHA**2
        header = ["geometry", "lande_g", "sphere_charges", "torus_radius_m", "eta", "field_au", "field_v_per_cm"]
        return header, [
            "torus", g, charges, e["radius"], charges * g * ALPHA / (2.0 * rho_bar), field, field * AU_FIELD_V_PER_CM,
        ]
    header = ["geometry", "polarizability_a0cubed", "charges_per_bohr", "b_gauss", "eta"]
    eta = e["polarizability"] * e["charges_per_bohr"] * ZEEMAN_RATIO_PER_GAUSS * e["b_field"]
    return header, ["crossed", e["polarizability"], e["charges_per_bohr"], e["b_field"], eta]


def check_estimate(call, stats: dict) -> list[Gate]:
    header, row = _estimate_expected(call.expect)
    path, fmt = call.outputs[0]
    gate = Gate(call.label, 1)
    cols, _ = _table(gate, path, fmt, header)
    gate.require(cols["geometry"][0] == row[0], "geometry")
    for name, want in zip(header[1:], row[1:]):
        gate.require(close(floats(cols[name]), want, atol=0.0), name)
    if "eta_target" in call.expect:
        gate.require(close(floats(cols["eta"]), call.expect["eta_target"], atol=0.0), "eta round trip")
    return [gate]


def _radial_term(r0: float, s: float) -> tuple[float, float]:
    """rho0^2 * integral of Phi Phi'/rho (trapezoid), and the scale of its integrand."""
    r = np.linspace(max(r0 - 12.0 * s, 1e-9 * r0), r0 + 12.0 * s, 40001)
    phi = (2.0 * math.pi * s**2) ** -0.25 * np.exp(-((r - r0) ** 2) / (4.0 * s**2))
    integrand = phi * (-(r - r0) / (2.0 * s**2) * phi) / r
    return r0**2 * float(np.trapezoid(integrand, r)), r0**2 * float(np.trapezoid(np.abs(integrand), r))


def check_reduce(call, stats: dict) -> list[Gate]:
    e = call.expect
    path, fmt = call.outputs[0]
    gate = Gate(call.label, 1)
    cols, _ = _table(gate, path, fmt, REDUCE_COLUMNS)
    r0, s_rho, s_z = e["radius"], e["width_rho"], e["width_z"]
    energy_unit = HBAR**2 / (2.0 * e["mass"] * r0**2)
    kinetic = r0**2 * (0.25 / s_rho**2 + 0.25 / s_z**2)
    offset = e["eta"] ** 2 / 2.0 + e["potential_mean"] / energy_unit + kinetic
    expected = {
        "eta": e["eta"],
        "u_tilde": 2.0 * e["atoms"] * e["scattering_length"] / (s_rho * s_z),
        "mu_offset": offset,
        "transverse_kinetic_offset": kinetic,
        "energy_unit_joules": energy_unit,
    }
    for name, want in expected.items():
        gate.require(close(floats(cols[name]), want, atol=0.0), name)
    radial, scale = _radial_term(r0, s_rho)
    gate.require(abs(floats(cols["radial_term_diagnostic"])[0] - radial) <= 1e-6 * scale, "radial term")
    return [gate]


CHECKERS = {
    "staircase": check_staircase,
    "solve": check_solve,
    "relax": check_relax,
    "landscape": check_landscape,
    "hysteresis": check_hysteresis,
    "estimate": check_estimate,
    "reduce": check_reduce,
}


def check_call(call, stats: dict) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, notes) for one executed call.

    A call that raised or exited non-zero fails every row it owed.
    """
    if call.error is not None:
        return call.rows, call.rows, [f"{call.label}: {call.error}"]
    try:
        gates = CHECKERS[call.check](call, stats)
    except Broken as err:
        return call.rows, call.rows, [f"{call.label}: {err}"]
    attempted = sum(g.rows for g in gates)
    if attempted != call.rows:
        return call.rows, call.rows, [f"{call.label}: checked {attempted} rows, expected {call.rows}"]
    return attempted, sum(g.failed for g in gates), [n for g in gates for n in g.notes]

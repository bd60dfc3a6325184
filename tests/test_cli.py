"""CLI behaviour: schemas, exit codes, config precedence, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import acring
from acring.cli import CommandResult, _render_csv, _render_json, main
from acring.solver import SEED_SHIFTS
from acring.sweeps import StaircaseSpec, eta_grid, hysteresis
from test_sweeps import cell_values, hysteresis_loop, landscape_loop, staircase_loop
from test_tracing_contract import load_tracing


def run_cli(args, capsys=None):
    code = main(args)
    return code


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEstimate:
    def test_line_density_gives_unit_phase(self, tmp_path):
        out = tmp_path / "est.csv"
        code = main(
            ["estimate", "--geometry", "line", "--n-e", "3.55e14", "--g-f", "1", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["geometry"] == "line"
        assert float(record["n_e_per_m"]) == 3.55e14  # inputs echoed
        assert float(record["eta"]) == pytest.approx(1.0, rel=5e-3)

    def test_line_inverse_mode(self, tmp_path):
        out = tmp_path / "est.csv"
        code = main(
            ["estimate", "--geometry", "line", "--eta-target", "1", "--g-f", "1", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert float(record["n_e_per_m"]) == pytest.approx(3.5487e14, rel=1e-3)
        assert 1.7e-3 < float(record["field_au"]) < 2.1e-3

    def test_torus_and_crossed(self, tmp_path):
        out = tmp_path / "torus.csv"
        assert (
            main(
                ["estimate", "--geometry", "torus", "--eta-target", "1", "--radius", "1e-3",
                 "--output", str(out)]
            )
            == 0
        )
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert float(record["eta"]) == pytest.approx(1.0, rel=1e-12)
        assert float(record["field_au"]) == pytest.approx(1.9875e-3, rel=1e-3)

        out2 = tmp_path / "crossed.csv"
        assert (
            main(
                ["estimate", "--geometry", "crossed", "--polarizability", "300",
                 "--charges-per-bohr", "1", "--b-field", "10", "--output", str(out2)]
            )
            == 0
        )
        header2, rows2 = read_csv(out2)
        assert float(dict(zip(header2, rows2[0]))["eta"]) == pytest.approx(6.38e-7, rel=1e-3)

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a denominator rounded to zero: exit 4 "float division by zero" before
            (["--geometry", "torus", "--eta-target", "1", "--radius", "1e-320"], "torus_radius=1e-320 is too small"),
            (["--geometry", "line", "--eta-target", "1", "--g-f", "1e-320"], "lande_g=1e-320 is too small"),
            # a cell past the float range: written as inf with exit 0 before
            (["--geometry", "line", "--n-e", "1", "--distance", "1e-320"], "field_v_per_cm is inf"),
            (
                ["--geometry", "crossed", "--polarizability", "1e300", "--charges-per-bohr", "1e300", "--b-field", "1"],
                "eta is inf",
            ),
            # a non-finite input: "probe_distance must be > 0" and "lande_g is nan: ... past the float range" before
            (["--geometry", "line", "--distance", "nan", "--n-e", "1e14"], "probe_distance must be finite, got nan"),
            (["--geometry", "torus", "--sphere-charges", "1e9", "--g-f", "nan"], "lande_g must be finite, got nan"),
            # rho0_bar**2 overflowed: exit 4 "(34, 'Numerical result out of range')"
            (["--geometry", "torus", "--radius", "1e200", "--eta-target", "1"], "torus_radius=1e+200 is too large"),
            # a charge past the float range: "sphere_charge_count must be finite, got inf" and
            # "linear_charge_density must be finite, got inf" before
            (
                ["--geometry", "torus", "--eta-target", "1e300", "--radius", "1"],
                "sphere_charge_count is inf: eta_target, lande_g and torus_radius take it past the float range",
            ),
            (
                ["--geometry", "line", "--eta-target", "1", "--g-f", "1e-300"],
                "linear_charge_density is inf: eta_target and lande_g take it past the float range",
            ),
        ],
    )
    def test_float_extremes_exit_3(self, tmp_path, capsys, argv, message):
        out = tmp_path / "est.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", *argv, "--output", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err_lines) == 1 and err_lines[0].startswith("error: validation:") and message in err_lines[0]
        assert not out.exists()

    def test_conflicting_inputs_exit_3(self, capsys):
        for argv, message in (
            (["--geometry", "line", "--n-e", "1e14", "--eta-target", "1"], "exactly one of --n-e / --eta-target"),
            (["--geometry", "torus", "--radius", "1e-3"], "exactly one of --sphere-charges / --eta-target"),
            (["--geometry", "crossed", "--polarizability", "300"], "requires --charges-per-bohr"),
        ):
            code = main(["estimate", *argv])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.err.startswith("error: validation:") and message in captured.err


class TestGround:
    def test_worked_example(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(["ground", "--eta", "0.7", "--u-tilde-over-2pi", "2", "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["winding"] == "1"
        assert float(record["mu_eff"]) == pytest.approx(2.09, abs=1e-12)
        assert record["degenerate"] == "false"

    def test_u_tilde_flags_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["ground", "--eta", "0.5", "--u-tilde", "1", "--u-tilde-over-2pi", "2"])
        assert exc.value.code == 2

    def test_missing_interaction_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["ground", "--eta", "0.5"])
        assert exc.value.code == 2


class TestSolve:
    def test_seeded_solve_matches_analytic(self, tmp_path):
        out = tmp_path / "s.csv"
        dump = tmp_path / "psi.txt"
        code = main(
            ["solve", "--eta", "0.3", "--u-tilde-over-2pi", "2", "--output", str(out),
             "--dump-psi", str(dump)]
        )
        assert code == 0
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["winding"] == "0"
        assert float(record["mu"]) == pytest.approx(2.09, rel=1e-8)
        assert record["converged"] == "true"
        assert dump.exists() and len(dump.read_text().splitlines()) == 257

    def test_global_solve(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(
            ["solve", "--eta", "2.4", "--u-tilde-over-2pi", "2", "--global", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["winding"] == "2"
        assert record["search"] == "global"

    def test_nonconvergence_exits_4_with_artifact(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(
            ["solve", "--eta", "0.45", "--u-tilde-over-2pi", "2", "--noise-amplitude", "1e-3",
             "--max-iterations", "4", "--output", str(out)]
        )
        assert code == 4
        assert capsys.readouterr().err == (
            "error: convergence: 1 point(s) unconverged: "
            "relax did not converge within 4 iterations (eta=0.45)\n"
        )
        assert out.exists()  # artifact still written, flagged unconverged
        header, rows = read_csv(out)
        assert dict(zip(header, rows[0]))["converged"] == "false"

    def test_global_nonconvergence_exits_4_with_artifact(self, tmp_path, capsys):
        # global_ground reports a miss as converged=False; the CLI words it
        out = tmp_path / "s.csv"
        code = main(
            ["solve", "--eta", "0.45", "--u-tilde-over-2pi", "2", "--global",
             "--max-iterations", "3", "--output", str(out)]
        )
        assert code == 4
        assert capsys.readouterr().err == (
            "error: convergence: 1 point(s) unconverged: no seed converged within 3 iterations "
            "(eta=0.45, u_tilde=12.566370614359172)\n"
        )
        header, rows = read_csv(out)
        assert dict(zip(header, rows[0]))["converged"] == "false"

    def test_divergence_exits_4_with_one_error_line(self, tmp_path, capsys):
        # the residual overflows at the first iteration; a diverged row is a miss, written and flagged
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--eta", "0.3", "--u-tilde", "1e300", "--global", "--output", str(out)])
        assert code == 4
        assert capsys.readouterr().err == (
            "error: convergence: 1 point(s) unconverged: no seed converged within 1 iterations "
            "(eta=0.3, u_tilde=1e+300)\n"
        )
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert (record["iterations"], record["converged"]) == ("1", "false")

    def test_seeded_divergence_exits_4_with_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["solve", "--eta", "0.3", "--u-tilde", "1e300", "--noise-amplitude", "1e-3",
                 "--output", str(out)]
            )
        assert code == 4
        assert capsys.readouterr().err == (
            "error: convergence: 1 point(s) unconverged: relax did not converge within 1 iterations (eta=0.3)\n"
        )
        header, rows = read_csv(out)
        record = dict(zip(header, rows[0]))
        assert (record["iterations"], record["converged"]) == ("1", "false")

    @pytest.mark.parametrize("eta", ["1e300", "-2e154"])
    def test_seeded_eta_past_the_kinetic_range_exits_3(self, tmp_path, capsys, eta):
        # (k - eta)**2 overflowed with a numpy RuntimeWarning, and the descent then diverged (exit 4)
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", f"--eta={eta}", "--u-tilde", "1", "--grid-size", "64", "--output", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err_lines) == 1 and err_lines[0].startswith("error: validation:")
        assert f"eta={float(eta)}" in err_lines[0] and "grid_size=64" in err_lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["0", "1e-3"])
    def test_kinetic_bound_keeps_the_descent_finite(self, tmp_path, capsys, noise):
        # the descent's sums stay finite while (k - eta)**2 <= sqrt(float max) / G:
        # |eta| up to about 7.237e75 at G = 256.  Past it, eta 1e100 and 1e153 passed
        # the check and then diverged (exit 4)
        edge = math.sqrt(math.sqrt(sys.float_info.max) / 256)
        inside, outside = 7.2e75, 7.3e75
        assert inside < edge < outside
        out = tmp_path / "s.csv"
        argv = ["solve", "--u-tilde", "1", "--noise-amplitude", noise, "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + [f"--eta={inside}"]) == 0
            assert capsys.readouterr().err == ""
            assert read_csv(out)[1][0][-1] == "true"
            out.unlink()
            for eta in (outside, 1e100, 1e153):
                code = main(argv + [f"--eta={eta}"])
                err_lines = capsys.readouterr().err.splitlines()
                assert code == 3
                assert len(err_lines) == 1 and err_lines[0].startswith("error: validation:")
                assert f"eta={eta}" in err_lines[0] and "grid_size=256" in err_lines[0]
                assert not out.exists()

    @pytest.mark.parametrize("search", [["--global"], ["--noise-amplitude", "1e-3"]])
    def test_strong_interaction_converges_to_the_plane_wave(self, tmp_path, search):
        # u_tilde = 1e7 overflowed the imaginary-time step; the descent has no
        # step size to overflow and settles on the plane wave
        out = tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["solve", "--eta", "0.3", "--u-tilde", "1e7", *search, "--format", "json", "--output", str(out)]
            )
        assert code == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["converged"] and row["winding"] == 0
        assert row["mu"] == pytest.approx(0.09 + 1e7 / (2 * math.pi), rel=1e-9)

    def test_unwritable_dump_psi_exits_3_with_one_error_line(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        out = tmp_path / "s.csv"
        code = main(
            ["solve", "--eta", "0.3", "--u-tilde-over-2pi", "2", "--output", str(out),
             "--dump-psi", str(blocker / "psi.txt")]
        )
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err_lines) == 1 and err_lines[0].startswith("error: io:")
        assert not out.exists()

    def test_hostile_grid_size_exits_3(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(
            ["solve", "--eta", "0.3", "--u-tilde", "1", "--grid-size", "1073741824", "--output", str(out)]
        )
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err_lines) == 1 and err_lines[0].startswith("error: validation: grid_size")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--solver-tolerance", "--noise-amplitude"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_solver_setting_exits_3(self, tmp_path, capsys, flag, value):
        # nan and inf once passed the sign checks: a nan tolerance ran to the cap,
        # an inf one accepted the noisy seed, a nan noise amplitude was dropped
        out = tmp_path / "s.csv"
        code = main(["solve", "--global", "--eta", "0.3", "--u-tilde-over-2pi", "2", flag, value, "--output", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err_lines) == 1 and err_lines[0].startswith("error: validation:")
        assert "must be finite" in err_lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["0", "1e-3"])
    def test_negative_rng_seed_exits_3(self, tmp_path, capsys, noise):
        # it ran and exited 0 without noise, and printed numpy's "expected non-negative integer" with it
        out = tmp_path / "s.csv"
        code = main(["solve", "--eta", "0.3", "--u-tilde", "1", "--noise-amplitude", noise, "--rng-seed", "-1",
                     "--output", str(out)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == ["error: validation: rng_seed must be >= 0"]
        assert not out.exists()

    def test_tau_step_is_a_usage_error(self, tmp_path):
        # the descent takes no time step; the flag and its config key are gone
        out = tmp_path / "s.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau_step=1e-3\n")
        argv = ["solve", "--global", "--eta", "0.3", "--u-tilde", "1", "--output", str(out)]
        for extra in (["--tau-step", "1e-3"], ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + extra)
            assert exc.value.code == 2
        assert not out.exists()

    def test_global_seeds_past_the_grid_exit_3(self, tmp_path, capsys):
        # the seeds reach max|shift| windings past 200 on a 256-point grid; the message names eta and grid_size
        reach = 200 + max(map(abs, SEED_SHIFTS))
        out = tmp_path / "s.csv"
        code = main(["solve", "--global", "--eta", "200", "--u-tilde", "1", "--output", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err_lines == [
            f"error: validation: the global search at eta=200.0 seeds windings up to |m0| = {reach}, "
            "but grid_size=256 holds only |m0| < 128"
        ]
        assert not out.exists()


class TestStaircaseCommand:
    def test_csv_schema_and_row_count(self, tmp_path):
        out = tmp_path / "st.csv"
        code = main(
            ["staircase", "--eta", "0:3:0.05", "--u-tilde-over-2pi", "2", "--weight", "1",
             "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["eta", "winding_T0", "classical_mean", "thermal_mean", "mu_eff", "degenerate"]
        assert len(rows) == 61
        assert rows[0][0] == "0" and rows[-1][0] == "3"
        degenerate = [r for r in rows if r[5] == "true"]
        assert [r[0] for r in degenerate] == ["0.5", "1.5", "2.5"]

    def test_analytic_runs_are_byte_identical(self, tmp_path):
        args = ["staircase", "--eta", "0:2:0.1", "--u-tilde-over-2pi", "2", "--weight", "0.6"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "st.json"
        code = main(
            ["staircase", "--eta", "0:1:0.5", "--u-tilde-over-2pi", "2", "--format", "json",
             "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "staircase"
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["winding_T0"] == 0

    @pytest.mark.parametrize("u_over_2pi", ["0.2", "2"])
    def test_numeric_ties_match_analytic_columns(self, tmp_path, u_over_2pi):
        # every half-integer from -2.5 to 2.5 is a tie; both modes settle it on the lower winding
        columns = {}
        for mode in ("analytic", "numeric"):
            out = tmp_path / f"{mode}.csv"
            argv = ["staircase", "--eta=-2.5:2.5:0.5", "--u-tilde-over-2pi", u_over_2pi, "--mode", mode]
            assert main(argv + ["--output", str(out)]) == 0
            header, rows = read_csv(out)
            columns[mode] = [(r[header.index("winding_T0")], r[header.index("degenerate")]) for r in rows]
        assert len(columns["numeric"]) == 11
        assert columns["numeric"] == columns["analytic"]

    def test_numeric_divergence_exits_4_with_one_error_line(self, tmp_path, capsys):
        # every row diverges at its first iteration; all are written, and the one line lists them
        out = tmp_path / "st.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["staircase", "--eta=0:0.5:0.25", "--u-tilde", "1e300", "--mode", "numeric",
                 "--format", "json", "--output", str(out)]
            )
        assert code == 4
        assert capsys.readouterr().err == "error: convergence: 3 point(s) unconverged: eta=0.0; eta=0.25; eta=0.5\n"
        payload = json.loads(out.read_text())
        assert [row["eta"] for row in payload["rows"]] == payload["unconverged_etas"] == [0.0, 0.25, 0.5]

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_numeric_miss_writes_every_row_and_exits_4(self, tmp_path, capsys, output_format):
        out = tmp_path / f"st.{output_format}"
        code = main(
            ["staircase", "--eta=0:0.5:0.25", "--u-tilde-over-2pi", "2", "--mode", "numeric", "--max-iterations", "2",
             "--format", output_format, "--output", str(out)]
        )
        assert code == 4
        assert capsys.readouterr().err == "error: convergence: 3 point(s) unconverged: eta=0.0; eta=0.25; eta=0.5\n"
        if output_format == "csv":
            assert [row[0] for row in read_csv(out)[1]] == ["0", "0.25", "0.5"]
        else:
            payload = json.loads(out.read_text())
            assert [row["eta"] for row in payload["rows"]] == payload["unconverged_etas"] == [0.0, 0.25, 0.5]

    @pytest.mark.parametrize("command", ["staircase", "landscape"])
    def test_range_without_a_step_is_a_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "g.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--eta", "0:1", "--u-tilde", "1", "--output", str(out)])
        assert exc.value.code == 2
        assert "expected start:stop:step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["staircase", "--eta", "0:1:x"],
            ["landscape", "--eta", "0:x:0.1"],
            ["hysteresis", "--eta", "0.1,x"],
            ["hysteresis", "--eta="],
        ],
        ids=" ".join,
    )
    def test_eta_that_is_not_numbers_names_the_expected_form(self, tmp_path, capsys, args):
        out = tmp_path / "g.csv"
        with pytest.raises(SystemExit) as exc:
            main([*args, "--u-tilde", "1", "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --eta: expected" in err
        assert "_parse" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["staircase", "landscape", "hysteresis"])
    def test_descending_range_exits_3(self, tmp_path, capsys, command):
        out = tmp_path / "g.csv"
        assert main([command, "--eta=1:0:0.5", "--u-tilde", "1", "--output", str(out)]) == 3
        assert capsys.readouterr().err == "error: validation: stop must be >= start\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["staircase"], ["staircase", "--mode", "numeric"], ["hysteresis"]], ids=" ".join
    )
    def test_grid_past_the_float_range_exits_3(self, tmp_path, capsys, command):
        # the grid's last point, start + 2 * step, overflows to inf; the analytic staircase
        # exited 4 ("cannot convert float infinity to integer") and every command warned first
        out = tmp_path / "g.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--eta=1.7e308:1.79e308:5e306", "--u-tilde", "1", "--output", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err_lines == ["error: validation: the grid's last point, 1.7e+308 + 2 * 5e+306, overflows floats"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["staircase", "--eta", "nan:1:0.5"], "start"),
            (["staircase", "--eta", "0:1:nan"], "step"),
            (["hysteresis", "--eta", "0:nan:1"], "stop"),
            (["landscape", "--eta", "0.5", "--x-step", "nan"], "step"),
            (["landscape", "--eta", "0.5", "--x-step", "inf"], "step"),
        ],
    )
    def test_non_finite_grid_exits_3(self, tmp_path, capsys, argv, name):
        # nan said "grid would exceed 10000000 points", and an inf x step "0.0 + 0 * inf overflows floats"
        out = tmp_path / "g.csv"
        code = main([*argv, "--u-tilde", "1", "--output", str(out)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [f"error: validation: the grid's {name} must be finite"]
        assert not out.exists()

    def test_numeric_strong_interaction_converges_to_the_plane_waves(self, tmp_path):
        out = tmp_path / "st.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["staircase", "--eta=0:0.5:0.25", "--u-tilde", "1e7", "--mode", "numeric",
                 "--format", "json", "--output", str(out)]
            )
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert [row["winding_T0"] for row in rows] == [0, 0, 0]
        for row in rows:
            assert row["mu_eff"] == pytest.approx(row["eta"] ** 2 + 1e7 / (2 * math.pi), rel=1e-9)


class TestLandscapeCommand:
    def test_grid_and_peaks(self, tmp_path):
        out = tmp_path / "l.json"
        peaks_out = tmp_path / "peaks.csv"
        code = main(
            ["landscape", "--m", "0", "--eta", "0.5", "--u-tilde-over-2pi", "2",
             "--x-step", "0.25", "--format", "json", "--output", str(out),
             "--peaks-output", str(peaks_out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 5
        assert payload["peaks"][0]["x_peak"] == pytest.approx(0.5)
        header, rows = read_csv(peaks_out)
        assert header[0:2] == ["eta", "x_peak"]
        assert float(rows[0][2]) == pytest.approx(3.25, abs=1e-12)

    def test_hostile_grid_rejected_up_front(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        code = main(
            ["landscape", "--eta", "0.5", "--u-tilde", "1", "--x-step", "1e-9", "--output", str(out)]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error: validation:")
        assert not out.exists()

    def test_hostile_eta_range_exits_3(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        code = main(
            ["landscape", "--eta", "0:1:1e-9", "--u-tilde", "1", "--x-step", "0.5", "--output", str(out)]
        )
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err_lines == ["error: validation: grid would exceed 10000000 points; increase the step"]
        assert not out.exists()

    def test_joint_grid_cap_exits_3(self, tmp_path, capsys):
        # 1001 eta values x 100001 mixing steps: each grid is fine, the product is not
        out = tmp_path / "l.csv"
        code = main(
            ["landscape", "--eta", "0:1:1e-3", "--u-tilde", "1", "--x-step", "1e-5", "--output", str(out)]
        )
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err_lines) == 1 and err_lines[0].startswith("error: validation: landscape would exceed")
        assert not out.exists()


    def test_unwritable_peaks_output_exits_3_with_one_error_line(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        out = tmp_path / "l.csv"
        code = main(
            ["landscape", "--eta", "0.3", "--u-tilde", "1", "--x-step", "0.5", "--output", str(out),
             "--peaks-output", str(blocker / "p.csv")]
        )
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err_lines) == 1 and err_lines[0].startswith("error: io:")
        assert not out.exists()

    def test_m_past_float_range_exits_3(self, tmp_path, capsys):
        # converting it to a float overflowed and was reported as non-convergence (exit 4)
        out = tmp_path / "l.csv"
        code = main(["landscape", "--m", "1" + "0" * 400, "--eta", "0.5", "--u-tilde", "1", "--output", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err_lines == ["error: validation: m must be an integer that a float holds exactly"]
        assert not out.exists()

    def test_x_step_past_one_exits_3_with_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        code = main(
            ["landscape", "--eta", "0.3", "--u-tilde", "1", "--x-step", "0.4", "--output", str(out)]
        )
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err_lines) == 1 and err_lines[0].startswith("error: validation: x_step")
        assert not out.exists()

    @pytest.mark.parametrize(
        "eta, u_tilde",
        [("1e300", "1"), ("-1e160", "1")],  # (m - eta)^2 overflows
    )
    def test_overflowing_table_exits_3_without_warnings(self, tmp_path, capsys, eta, u_tilde):
        # it printed numpy RuntimeWarnings, wrote nan and inf rows and exited 0
        out = tmp_path / "l.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["landscape", f"--eta={eta}", "--u-tilde", u_tilde, "--x-step", "0.5", "--output", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err_lines) == 1 and err_lines[0].startswith(f"error: validation: eta={float(eta)} overflows")
        assert not out.exists()

    def test_peak_near_the_float_range_is_finite(self, tmp_path):
        # the expanded peak value's 3 u_tilde / 2 pi overflowed here and the command exited 3;
        # the climb 2 g x^2 at x = 1/2 is u_tilde / (4 pi), a normal float
        out = tmp_path / "l.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["landscape", "--eta", "0.7", "--u-tilde", "1e308", "--x-step", "0.5",
                         "--format", "json", "--output", str(out)])
        assert code == 0
        (peak,) = json.loads(out.read_text())["peaks"]
        assert peak["x_peak"] == 0.5
        assert peak["height_from_m"] == peak["height_from_m_plus_1"] == pytest.approx(1e308 / (4 * math.pi), rel=1e-15)
        assert peak["mu_peak"] == pytest.approx(1.5 * 1e308 / (2 * math.pi) + 0.49, rel=1e-15)

    def test_overflow_off_the_table_is_not_reported(self, tmp_path):
        # at a subnormal u_tilde the peak sits at x = -inf, outside (0, 1): no peak row, no warning
        out = tmp_path / "l.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["landscape", "--eta", "0.7", "--u-tilde", "5e-324", "--x-step", "0.5",
                         "--format", "json", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["peaks"] == []
        assert [row["mu_eff"] for row in payload["rows"]] == pytest.approx([0.49, 0.29, 0.09], abs=1e-15)


class TestHysteresisCommand:
    def test_loop_walk(self, tmp_path):
        out = tmp_path / "h.csv"
        code = main(
            ["hysteresis", "--eta", "0:1:0.1", "--loop", "--u-tilde-over-2pi", "0.2",
             "--start-winding", "0", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["eta", "direction", "winding", "barrier_height"]
        assert len(rows) == 21
        up = {r[0]: int(r[2]) for r in rows if r[1] == "up"}
        down = {r[0]: int(r[2]) for r in rows if r[1] == "down"}
        assert up["0.6"] == 0 and up["0.7"] == 1
        assert down["0.4"] == 1 and down["0.3"] == 0
        # barrier column empty exactly where the walk slid
        slid = [r for r in rows if r[3] == ""]
        assert slid

    def test_hostile_eta_range_exits_3(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = main(["hysteresis", "--eta", "0:1:1e-9", "--u-tilde", "1", "--output", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err_lines == ["error: validation: grid would exceed 10000000 points; increase the step"]
        assert not out.exists()

    def test_eta_past_float_integers_exits_3(self, tmp_path, capsys):
        # at |eta| >= 2**53 the walk stepped one winding at a time and never returned
        out = tmp_path / "h.csv"
        code = main(["hysteresis", "--eta", "1e17", "--u-tilde", "1", "--output", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err_lines == ["error: validation: hysteresis needs |eta| < 2**53, where floats hold every integer"]
        assert not out.exists()

    def test_start_winding_past_float_range_exits_3(self, tmp_path, capsys):
        # converting it to a float overflowed and was reported as non-convergence (exit 4)
        out = tmp_path / "h.csv"
        code = main(
            ["hysteresis", "--eta", "0", "--u-tilde", "1", "--start-winding", "1" + "0" * 400, "--output", str(out)]
        )
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err_lines == ["error: validation: start_winding must be an integer that a float holds exactly"]
        assert not out.exists()

    def test_barrier_near_the_float_range_is_finite(self, tmp_path, capsys):
        # the expanded peak value's 3 u_tilde / 2 pi overflowed here: it wrote barrier_height inf,
        # later exit 3; the climb at x = 1/2 is u_tilde / (4 pi), a normal float
        out = tmp_path / "h.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["hysteresis", "--eta", "0.2", "--u-tilde", "1e308", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert out.read_text() == "eta,direction,winding,barrier_height\n0.2,up,0,7.95774715459e+306\n"

    @pytest.mark.parametrize("u_tilde", ["1e-17", "1e-9"])
    def test_small_u_tilde_barrier_is_the_climb(self, tmp_path, capsys, u_tilde):
        # the expanded peak value cancelled two terms of size pi / u_tilde: it printed -0.25 at 1e-17
        # and -1.59e-10 at 1e-9, where the climb is u_tilde / (4 pi)
        out = tmp_path / "h.csv"
        code = main(["hysteresis", "--eta", "0.5", "--u-tilde", u_tilde, "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        (row,) = read_csv(out)[1]
        exact = Fraction(float(u_tilde)) / (4 * Fraction(math.pi))
        assert row[:3] == ["0.5", "up", "0"]
        assert float(row[3]) > 0.0
        assert abs(Fraction(float(row[3])) - exact) <= Fraction(1e-11) * exact  # printed to 12 digits
        (height,) = cell_values(hysteresis([0.5], float(u_tilde), 0)["barrier_height"])
        assert abs(Fraction(height) - exact) <= Fraction(1e-13) * exact

    def test_overflow_off_the_path_is_not_reported(self, tmp_path, capsys):
        # at a subnormal u_tilde the peak sits outside (0, 1): no barrier, and no numpy RuntimeWarning
        out = tmp_path / "h.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["hysteresis", "--eta", "0.7", "--u-tilde", "5e-324", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert out.read_text() == "eta,direction,winding,barrier_height\n0.7,up,1,\n"


    def test_vanishing_u_tilde_at_half_integers_ends(self, tmp_path):
        # 1/2 + u_tilde/(2 pi) rounds to 1/2: the walk flipped between the two edge windings forever.
        # Run in a child process, so that a hang fails the test instead of stopping the suite.
        cases = [
            (eta, u_tilde, start)
            for eta in ("0.5", "-1.5", "2.5")
            for u_tilde in ("1e-17", "5e-324")
            for start in (-9, math.floor(float(eta)), math.ceil(float(eta)), 9)  # below, on and above the window
        ]
        script = "\n".join([
            "import sys, warnings",
            "warnings.simplefilter('error')",
            "from acring.cli import main",
            "for k, (eta, u, start) in enumerate(%r):" % cases,
            "    code = main(['hysteresis', '--eta=' + eta, '--u-tilde', u, '--start-winding=%d' % start, '--output', 'h%d.csv' % k])",
            "    print(code)",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(acring.__file__).resolve().parents[1])}
        env.pop("ACRING_OUTPUT_DIR", None)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.stderr == "" and proc.stdout.split() == ["0"] * len(cases)
        for k, (eta, _, start) in enumerate(cases):
            below, above = math.floor(float(eta)), math.ceil(float(eta))
            settled = min(max(start, below), above)  # either edge keeps its value; beyond both, the nearer
            header, rows = read_csv(tmp_path / f"h{k}.csv")
            assert rows[0][:3] == [eta, "up", str(settled)]

    def test_start_winding_past_int64_prints_its_digits(self, tmp_path, capsys):
        # an int64-overflowing winding reached barrier_peak as an object array: TypeError, exit 1
        out = tmp_path / "h.csv"
        code = main(["hysteresis", "--eta", "0", "--u-tilde", "1e30", "--start-winding", str(2**70), "--output", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        (row,) = read_csv(out)[1]
        assert row[:3] == ["0", "up", "1180591620717411303424"]
        assert float(row[3]) > 0
        assert main(["hysteresis", "--eta", "0", "--u-tilde", "1e30", "--start-winding", str(2**70),
                     "--format", "json", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["rows"][0]["winding"] == 2**70

    @pytest.mark.parametrize("eta", ["4503599627370497", "4503599627370498"])
    def test_no_barrier_at_an_integer_past_2_52(self, tmp_path, eta):
        # m + 0.5 rounded to the even neighbour past 2**52, so at the even eta the peak
        # landed at x = 0.5 and a barrier of 0.0795774715459 was written; the peak is at 0.5 + pi/2
        out = tmp_path / "h.csv"
        assert main(["hysteresis", "--eta", eta, "--u-tilde", "1", "--output", str(out)]) == 0
        assert out.read_text() == f"eta,direction,winding,barrier_height\n4.50359962737e+15,up,{eta},\n"

    def test_window_past_2_53_keeps_the_bytes(self, tmp_path):
        # the window edges eta +- half_window lie past 2**53, where edge + 1 == edge in floats
        out = tmp_path / "h.csv"
        assert main(["hysteresis", "--eta", "0.2", "--u-tilde", "1e17", "--output", str(out)]) == 0
        assert out.read_text() == "eta,direction,winding,barrier_height\n0.2,up,0,7.95774715459e+15\n"


class TestReduceCommand:
    ARGV = ["reduce", "--atoms", "1e6", "--scattering-length", "2.75e-9", "--mass", "3.8175e-26",
            "--radius", "1e-3", "--width-rho", "1e-5", "--width-z", "1e-5"]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            # 0.25 / width_rho**2 divided by an underflowed zero: exit 4 "float division by zero"
            ("--width-rho", "1e-170", "width_rho must lie within"),
            ("--width-z", "1e-170", "width_z must lie within"),
            # radius**2 overflowed: exit 4 "(34, 'Numerical result out of range')"
            ("--radius", "1e300", "torus_radius must lie within"),
            # the energy unit hbar^2 / (2 M rho_0^2) underflowed to zero: exit 4 "float division by zero"
            ("--radius", "1e150", "atom_mass and torus_radius put the energy unit"),
            # eta**2 overflowed: exit 4 "(34, 'Numerical result out of range')"
            ("--eta", "1e155", "eta=1e+155 is too large"),
            # finite inputs whose term overflows; flag may carry a first input before the second flag.
            # "mu_offset must be finite" before
            ("--potential-mean", "1e300", "potential_mean / energy_unit is inf: potential_mean, atom_mass and"),
            # "u_tilde must be finite" before
            ("--atoms 1e300 --scattering-length", "1e300", "u_tilde is inf: atom_count, scattering_length,"),
            # "mu_offset must be finite" before
            ("--radius 1e10 --width-rho", "1e-150", "transverse_kinetic_offset is inf: torus_radius, width_rho"),
            # finite terms whose sum overflows; "mu_offset must be finite" before
            ("--eta 1.3e154 --potential-mean", "1.46e271", "mu_offset is inf: eta, potential_mean"),
        ],
    )
    def test_lengths_outside_the_floats_exit_3(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "r.csv"
        code = main(self.ARGV + [*flag.split(), value, "--output", str(out)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err_lines) == 1 and err_lines[0].startswith(f"error: validation: {message}")
        assert not out.exists()

    def test_overflowing_diagnostic_exits_3_without_warnings(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        for trap in (
            # a torus 1e50 times thicker than its radius: the radial integrand overflowed in divide,
            # with a numpy RuntimeWarning, and radial_term_diagnostic was written as inf with exit 0
            ["--atoms", "1e300", "--scattering-length", "1e-300", "--mass", "1e300",
             "--radius", "1e-150", "--width-rho", "1e-100", "--width-z", "1e-150"],
            # 1e157 times thicker, at u_tilde = 200: exit 3 "u_tilde is inf" before, and
            # the squared offsets the diagnostic does not use overflowed with a RuntimeWarning
            ["--atoms", "1e300", "--scattering-length", "1e10", "--mass", "3.8175e-26",
             "--radius", "1e-3", "--width-rho", "1e154", "--width-z", "1e154"],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["reduce", *trap, "--output", str(out)])
            err_lines = capsys.readouterr().err.splitlines()
            assert code == 3
            assert err_lines == [
                "error: validation: the radial-term diagnostic overflows the floats at this width_rho and torus_radius"
            ]
            assert not out.exists()

    @pytest.mark.parametrize(
        "flag, name",
        [
            # "u_tilde must be finite" before
            ("--atoms", "atom_count"),
            ("--scattering-length", "scattering_length"),
            # "atom_mass and torus_radius put the energy unit ... outside the floats" before
            ("--mass", "atom_mass"),
            # "torus_radius must lie within about 1.5e-154 to 1.3e154 m" before
            ("--radius", "torus_radius"),
            ("--width-rho", "width_rho"),
            ("--width-z", "width_z"),
            # "mu_offset must be finite" before
            ("--potential-mean", "potential_mean"),
            ("--eta", "eta"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_is_named(self, tmp_path, capsys, flag, name, value):
        out = tmp_path / "r.csv"
        code = main(self.ARGV + [f"{flag}={value}", "--output", str(out)])
        assert code == 3
        message = "eta must be finite" if name == "eta" else f"{name} must be finite, got {float(value)}"
        assert capsys.readouterr().err == f"error: validation: {message}\n"
        assert not out.exists()

    def test_valid_trap_exits_0(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(self.ARGV + ["--output", str(out)]) == 0
        assert read_csv(out)[0][0] == "eta"
        # 2 N a_sc overflows the floats, u_tilde does not: exit 3 "u_tilde is inf" before
        trap = ["--atoms", "1e300", "--scattering-length", "1e10", "--width-rho", "1e150", "--width-z", "1e154"]
        assert main(self.ARGV + trap + ["--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert float(dict(zip(header, rows[0]))["u_tilde"]) == pytest.approx(2e6, rel=1e-12)


class TestConfigAndEnvironment:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a worked example\n\neta=0.7\n  # indented comment\nu-tilde-over-2pi=2\n")
        for form in (["--config", str(cfg)], [f"--config={cfg}"]):
            out = tmp_path / "g.csv"
            code = main(["ground", *form, "--output", str(out)])
            assert code == 0
            header, rows = read_csv(out)
            assert dict(zip(header, rows[0]))["winding"] == "1"
            out.unlink()

    def test_explicit_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta=0.7\nu_tilde_over_2pi=2\n")
        out = tmp_path / "g.csv"
        code = main(["ground", "--config", str(cfg), "--eta", "0.3", "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert dict(zip(header, rows[0]))["winding"] == "0"

    @pytest.mark.parametrize(
        "command, config, flags",
        [
            (
                "staircase",
                "eta=-1:1:0.5\nu_tilde_over_2pi=2\n",
                ["--eta=-1:1:0.5", "--u-tilde-over-2pi", "2"],
            ),
            (
                "hysteresis",
                "eta=-0.5,-1.25,-2\nu_tilde=1\nloop=true\n",
                ["--eta=-0.5,-1.25,-2", "--u-tilde", "1", "--loop"],
            ),
            (
                "hysteresis",
                "# no loop\n\neta=-0.5,-1.25,-2\nu_tilde=1\nloop=false\n",
                ["--eta=-0.5,-1.25,-2", "--u-tilde", "1", "--no-loop"],
            ),
        ],
    )
    def test_negative_config_values_match_explicit_flags(self, tmp_path, command, config, flags):
        # a value starting with '-' once became its own token, which argparse read as a flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        from_config, from_flags = tmp_path / "config.csv", tmp_path / "flags.csv"
        assert main([command, "--config", str(cfg), "--output", str(from_config)]) == 0
        assert main([command, *flags, "--output", str(from_flags)]) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_missing_config_exits_3(self, tmp_path, capsys):
        code = main(["ground", "--config", str(tmp_path / "nope.cfg"), "--eta", "1", "--u-tilde", "1"])
        assert code == 3
        assert "error: validation:" in capsys.readouterr().err
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eta=1\nu_tilde 1\n")
        assert main(["ground", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "error: validation: bad config line: 'u_tilde 1'\n"

    def test_no_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_config_before_the_subcommand_is_a_usage_error(self, tmp_path, capsys):
        # the config is read only after a subcommand: a bad line here would have exited 3
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eta=1\nu_tilde 1\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(cfg), "ground", "--eta", "0.7", "--u-tilde", "1"])
        assert exit_info.value.code == 2
        assert "error: validation" not in capsys.readouterr().err

    def test_output_path_that_is_a_directory_exits_3(self, tmp_path, capsys):
        code = main(["ground", "--eta", "0.7", "--u-tilde-over-2pi", "2", "--output", str(tmp_path)])
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err_lines) == 1 and err_lines[0].startswith("error: io:")

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACRING_OUTPUT_DIR", str(tmp_path))
        code = main(["ground", "--eta", "0.7", "--u-tilde-over-2pi", "2", "--output", "sub/g.csv"])
        assert code == 0
        assert (tmp_path / "sub" / "g.csv").exists()

    def test_stdout_sentinel(self, capsys):
        code = main(["ground", "--eta", "0.7", "--u-tilde-over-2pi", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("eta,u_tilde,winding")


@pytest.mark.parametrize("fault", [OverflowError(34, "Numerical result out of range"), ZeroDivisionError("float division by zero")])
def test_an_arithmetic_fault_is_the_inputs(monkeypatch, capsys, fault):
    # a solve reports a miss, diverged or not, as converged=False; exit 4 comes from those alone
    def handler(parameters):
        raise fault

    monkeypatch.setitem(acring.cli._HANDLERS, "ground", handler)
    assert main(["ground", "--eta", "0.7", "--u-tilde", "1"]) == 3
    assert capsys.readouterr().err == f"error: validation: {fault}\n"


def test_twelve_significant_digit_floats(tmp_path):
    out = tmp_path / "g.csv"
    main(["ground", "--eta", "0.123456789012345", "--u-tilde", "1", "--output", str(out)])
    header, rows = read_csv(out)
    record = dict(zip(header, rows[0]))
    assert record["eta"] == "0.123456789012"
    mu = (0 - 0.123456789012345) ** 2 + 1 / (2 * math.pi)
    assert record["mu_eff"] == f"{mu:.12g}"


SOLVE_COLUMNS = ["eta", "u_tilde", "search", "winding", "mu", "energy_per_particle", "mu_total", "iterations", "converged"]


@pytest.mark.parametrize(
    "argv, columns",
    [
        pytest.param(
            ["estimate", "--geometry", "line", "--n-e", "3.55e14"],
            ["geometry", "lande_g", "n_e_per_m", "probe_distance_m", "eta", "field_au", "field_v_per_cm"],
            id="estimate-line",
        ),
        pytest.param(
            ["estimate", "--geometry", "torus", "--eta-target", "1"],
            ["geometry", "lande_g", "sphere_charges", "torus_radius_m", "eta", "field_au", "field_v_per_cm"],
            id="estimate-torus",
        ),
        pytest.param(
            ["estimate", "--geometry", "crossed", "--polarizability", "300", "--charges-per-bohr", "1",
             "--b-field", "10"],
            ["geometry", "polarizability_a0cubed", "charges_per_bohr", "b_gauss", "eta"],
            id="estimate-crossed",
        ),
        pytest.param(
            TestReduceCommand.ARGV,
            ["eta", "u_tilde", "mu_offset", "transverse_kinetic_offset", "radial_term_diagnostic",
             "energy_unit_joules"],
            id="reduce",
        ),
        pytest.param(
            ["ground", "--eta", "0.7", "--u-tilde", "1"],
            ["eta", "u_tilde", "winding", "degenerate", "mu_eff", "mu_total"],
            id="ground",
        ),
        pytest.param(["solve", "--eta", "0.3", "--u-tilde", "1"], SOLVE_COLUMNS, id="solve-seeded"),
        pytest.param(["solve", "--eta", "0.3", "--u-tilde", "1", "--global"], SOLVE_COLUMNS, id="solve-global"),
    ],
)
def test_one_row_tables_keep_their_column_order(tmp_path, argv, columns):
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main([*argv, "--output", str(csv_out)]) == 0
    assert main([*argv, "--format", "json", "--output", str(json_out)]) == 0
    assert csv_out.read_text().split("\n")[0] == ",".join(columns)
    assert json.loads(json_out.read_text())["columns"] == columns


RENDERER_CONTRACT_CALLS = [
    ["estimate", "--geometry", "line", "--n-e", "3.55e14"],
    ["estimate", "--geometry", "torus", "--eta-target", "1"],
    ["estimate", "--geometry", "crossed", "--polarizability", "300", "--charges-per-bohr", "1", "--b-field", "10"],
    TestReduceCommand.ARGV,
    ["ground", "--eta", "0.5", "--u-tilde", "1"],
    ["ground", "--eta", "1e300", "--u-tilde", "1"],  # a winding past int64
    ["solve", "--eta", "0.3", "--u-tilde", "1", "--max-iterations", "50"],
    ["solve", "--eta=-0.5", "--u-tilde", "1", "--global"],
    ["staircase", "--eta=-0.5:1:0.25", "--u-tilde-over-2pi", "2"],
    ["staircase", "--eta=1e300:1e300:1", "--u-tilde", "1"],
    ["staircase", "--eta=0:0.5:0.5", "--u-tilde-over-2pi", "2", "--mode", "numeric"],
    ["landscape", "--eta=0.25,0.5", "--u-tilde", "3", "--x-step", "0.25", "--peaks-output", "peaks.csv"],
    ["hysteresis", "--eta=0:1.5:0.25", "--u-tilde-over-2pi", "0.2", "--loop"],
]


def test_commands_hand_the_renderer_only_the_cells_it_narrows_to(tmp_path, monkeypatch):
    """Every column a command renders is a float64, int64, bool or str array, an object array of Python ints,
    or a (values, index) pair of those.

    The general path formats an object cell with str (CSV) or json.dumps (JSON), which writes a float or a
    nested value unlike the cell-by-cell reference; this pins that no command makes one.
    """
    import acring.cli as cli

    seen = []
    render_csv, render_json = cli._render_csv, cli._render_json
    monkeypatch.setattr(cli, "_render_csv", lambda columns: seen.append(columns) or render_csv(columns))
    monkeypatch.setattr(cli, "_render_json", lambda *args: seen.append(args[-1].columns) or render_json(*args))
    monkeypatch.setenv("ACRING_OUTPUT_DIR", str(tmp_path))
    for argv in RENDERER_CONTRACT_CALLS:
        for fmt in ("csv", "json"):
            assert main([*argv, "--format", fmt, "--output", "out"]) == 0, argv
    assert len(seen) == 2 * len(RENDERER_CONTRACT_CALLS) + 2  # and the landscape's peaks, once a format
    for columns in seen:
        for name, column in columns.items():
            if isinstance(column, tuple):
                column, index = column
                assert index.dtype.kind == "i", name
            if column.dtype == object:
                assert all(type(cell) is int for cell in column.tolist()), name
            else:
                assert column.dtype in (np.float64, np.int64, np.bool_) or column.dtype.kind == "U", name


def typed(column):
    """A column as a builder hands it over: the array numpy makes of it, or an object array where numpy cannot."""
    try:
        array = np.array(column)
    except ValueError:  # nested lists of different lengths
        array = None
    if array is None or array.ndim != 1:
        array = np.empty(len(column), dtype=object)
        for i, value in enumerate(column):
            array[i] = value
    return array


class TestColumnarRendering:
    """_render_csv and _render_json take a name-to-column dict and give the text in pieces; these references write one cell or dict at a time.

    Each table is written as a header and rows below, and handed to the
    renderers as its names mapped to its typed columns, the arrays numpy
    makes of list(zip(*rows)).  The references write the cells' Python
    values.  A table without columns has no rows either.
    """

    @staticmethod
    def reference_fmt(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return f"{value:.12g}"
        return str(value)

    def reference_csv(self, header, rows):
        lines = [",".join(header)]
        lines.extend(",".join(self.reference_fmt(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"

    @staticmethod
    def reference_json(config, result):
        subcommand, parameters = config
        payload = {
            "command": subcommand,
            "parameters": parameters,
            "columns": list(result.columns),
            "rows": [dict(zip(result.columns, row)) for row in zip(*map(cell_values, result.columns.values()))],
        }
        payload.update(result.extras)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def table(header, rows):
        """The header's names mapped to the typed columns of rows; a table with no rows keeps its names."""
        return {name: typed([row[j] for row in rows]) for j, name in enumerate(header)}

    def assert_renders(self, header, columns):
        table = dict(zip(header, columns))
        assert "".join(_render_csv(table)) == self.reference_csv(header, list(zip(*map(cell_values, columns))))
        for extras in self.EXTRAS:
            result = CommandResult(table, extras=extras)
            assert "".join(_render_json(*self.JSON_CONFIG, result)) == self.reference_json(self.JSON_CONFIG, result)

    BIG = 10**400
    # the header's sorted order differs from its column order; every column
    # holds one value type, as every command's columns do
    HEADER = ["zeta", "alpha", "special", "count", "flag", "missing", "text"]
    ROWS = [
        [0.0, 1e-300, math.inf, 0, True, None, 'say "hi"'],
        [-0.0, 1e300, -math.inf, BIG, False, None, "back\\slash"],
        [0.1, -2.5e-7, math.nan, -BIG, True, None, "gr\u00fc\u00dfe \u221e"],
        [1 / 3, 123456789.123456789, 1.0, -7, False, None, ""],
        [-1e-320, -1e16, -0.0, 2**63, True, None, "tab\there"],
    ]
    TABLES = [
        (HEADER, ROWS),
        (HEADER, [tuple(row) for row in ROWS]),  # rows as attrgetter tuples
        (HEADER, ROWS[:1]),
        (HEADER, []),  # empty table
        ([], [[], []]),
        (["only"], [[5e-324], [-5e-324]]),
        (["unsigned", "int"], [[2**63, -(2**63)], [2**64 - 1, 2**63 - 1]]),  # uint64 and int64 extremes
    ]

    SHARED = np.array([0.5, -0.0, 0.5, 1 / 3, 0.0])
    # repeated values, 0.0 beside -0.0 (equal, but printed apart), repeated
    # NaNs, and one array passed as two columns
    COLUMN_TABLES = [
        (["zero", "signed"], [[0.0, -0.0, 0.0, -0.0, 0.0], [-0.0, -0.0, 0.0, 0.0, -0.0]]),
        (["nan"], [[math.nan, 1.0, math.nan, -math.nan, math.inf, math.inf, -math.inf, 1.0]]),
        (["a", "n", "b"], [SHARED, [1, 2, 3, 4, 5], SHARED]),
        # empty cells as hysteresis hands them over: a pair whose index len(values) is the empty cell
        (["height"], [(np.array([0.5, 0.5, -0.0, 0.0]), np.array([4, 0, 4, 1, 2, 3, 4]))]),
        (["height", "eta"], [(np.array([]), np.array([0, 0])), [-0.0, -0.0]]),
        # more rows than one rendered piece holds (4096)
        (["i", "x", "half"], [list(range(9000)), [i % 7 / 3 for i in range(9000)], [i / 2 for i in range(9000)]]),
    ]
    # (subcommand, parameters); a parameter whose text looks like the rows key stays escaped inside its string
    JSON_CONFIG = ("landscape", {"eta": [0.5, -1.5], "note": '\n  "rows": []', "x_step": 0.25, "peaks_output": None})
    EXTRAS = [{}, {"peaks": [{"eta": 0.5, "x_peak": 0.5}]}, {"unconverged_etas": [0.25, -0.0]}]

    @pytest.mark.parametrize("header, rows", TABLES)
    def test_csv_matches_cell_by_cell_reference(self, header, rows):
        table = self.table(header, rows)
        assert "".join(_render_csv(table)) == self.reference_csv(header, list(zip(*map(cell_values, table.values()))))

    @pytest.mark.parametrize("header, rows", TABLES)
    @pytest.mark.parametrize("extras", EXTRAS)
    def test_json_matches_json_dumps(self, header, rows, extras):
        result = CommandResult(self.table(header, rows), extras=extras)
        assert "".join(_render_json(*self.JSON_CONFIG, result)) == self.reference_json(self.JSON_CONFIG, result)

    @pytest.mark.parametrize("header, columns", COLUMN_TABLES)
    def test_repeated_and_shared_columns(self, header, columns):
        self.assert_renders(header, [column if isinstance(column, (np.ndarray, tuple)) else typed(column) for column in columns])

    def test_typed_columns_take_their_dtype_paths(self):
        assert [typed(column).dtype.kind for column in zip(*self.ROWS)] == ["f", "f", "f", "O", "b", "O", "U"]
        signed = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e-320, 1 / 3, -2.5e300])
        self.assert_renders(
            ["f", "i", "b", "s", "o"],
            [
                signed,
                np.array([0, -1, 2**62, -(2**63), 7, 8, 9, 10, 11], dtype=np.int64),
                np.array([True, False, False, True, True, False, True, True, False]),
                np.array(["up", "down", "", 'q"uote', "\u00e9", "a,b", "x", "y", "z"]),
                np.array([None, 1, "s", True, -(2**70), "", False, 10**30, -(10**30)], dtype=object),
            ],
        )
        assert "".join(_render_csv({"f": signed})).split("\n")[1:5] == ["0", "-0", "nan", "nan"]
        result = CommandResult({"f": signed})
        rows = json.loads("".join(_render_json(*self.JSON_CONFIG, result)))["rows"]
        assert [row["f"] for row in rows][4:6] == [math.inf, -math.inf]
        finite = CommandResult({"f": signed[[0, 1, 6, 7, 8]]})
        assert '"f": -0.0' in "".join(_render_json(*self.JSON_CONFIG, finite))

    @pytest.mark.parametrize("pieces", [1, 3])
    def test_value_index_pairs(self, pieces):
        rows = 4096 * (pieces - 1) + 17  # the last of three pieces is short
        rng = np.random.default_rng(pieces)
        floats = np.array([0.5, -0.0, 0.0, 1 / 3, math.nan, math.inf])
        columns = [
            (floats, rng.integers(0, len(floats), rows)),
            (floats[:4], rng.integers(0, 5, rows)),  # index 4 = len(values): the empty cell
            (np.array(["up", "down"]), rng.integers(0, 2, rows).astype(np.int8)),
            (np.array([7, -(2**63)]), np.repeat(np.arange(2), [rows // 2, rows - rows // 2])),
            (np.array([True, False]), rng.integers(0, 2, rows)),
            rng.integers(0, 2, rows).astype(bool),
            np.arange(rows) / 7,
        ]
        self.assert_renders(["pick", "maybe", "direction", "int", "bool", "flag", "x"], columns)
        assert any(cell is None for cell in cell_values(columns[1]))

    def test_table_spanning_three_pieces(self):
        rows = 2 * 4096 + 5
        columns = [np.arange(rows, dtype=np.int64) - 4096, np.arange(rows) * -0.1, np.arange(rows) % 3 == 0]
        self.assert_renders(["n", "x", "flag"], columns)
        assert "".join(_render_csv(dict(zip(["n", "x", "flag"], columns)))).count("\n") == rows + 1


STAIRCASE_HEADER = ["eta", "winding_T0", "classical_mean", "thermal_mean", "mu_eff", "degenerate"]
LANDSCAPE_HEADER = ["eta", "x", "mu_eff"]
PEAK_HEADER = ["eta", "x_peak", "mu_peak", "height_from_m", "height_from_m_plus_1"]
HYSTERESIS_HEADER = ["eta", "direction", "winding", "barrier_height"]


def staircase_table(spec):
    """The staircase's per-point rows as the CLI writes them, without the converged column."""
    return STAIRCASE_HEADER, [row[:-1] for row in staircase_loop(spec)], None


def landscape_table(m, etas, u_tilde, x_step):
    points, peaks = landscape_loop(m, etas, u_tilde, x_step)
    return LANDSCAPE_HEADER, points, (PEAK_HEADER, peaks)


def hysteresis_table(path, u_tilde, m):
    return HYSTERESIS_HEADER, hysteresis_loop(path, u_tilde, m), None


class TestSweepsFromColumns:
    """The CLI writes the analytic sweeps from their columns: the bytes equal a rendering of the per-point rows."""

    CASES = [
        pytest.param(
            ["staircase", "--eta=-2.5:0.5:0.05", "--u-tilde-over-2pi", "0.7", "--weight", "0.3"],
            lambda: staircase_table(StaircaseSpec(-2.5, 0.5, 0.05, u_tilde=0.7 * 2.0 * math.pi, condensate_weight=0.3)),
            id="staircase-negative-and-half-integers",
        ),
        pytest.param(
            ["staircase", "--eta=-0.5000001:-0.4999999:1e-8", "--u-tilde", "1", "--weight", "0.6"],
            lambda: staircase_table(StaircaseSpec(-0.5000001, -0.4999999, 1e-8, u_tilde=1.0, condensate_weight=0.6)),
            id="staircase-near-minus-half",
        ),
        pytest.param(
            ["staircase", "--eta=0.4999999:0.5000001:1e-8", "--u-tilde", "1"],
            lambda: staircase_table(StaircaseSpec(0.4999999, 0.5000001, 1e-8, u_tilde=1.0)),
            id="staircase-near-half",
        ),
        pytest.param(  # the winding is a 301-digit integer, past any int64
            ["staircase", "--eta=1e300:1e300:1", "--u-tilde", "1"],
            lambda: staircase_table(StaircaseSpec(1e300, 1e300, 1.0, u_tilde=1.0)),
            id="staircase-1e300",
        ),
        pytest.param(
            ["landscape", "--m=-1", "--eta=-1.5,-0.5,0.4999999,0.5,-0.0,2.5", "--u-tilde", "3", "--x-step", "0.05"],
            lambda: landscape_table(-1, [-1.5, -0.5, 0.4999999, 0.5, -0.0, 2.5], 3.0, 0.05),
            id="landscape",
        ),
        pytest.param(
            ["hysteresis", "--eta=-2:2:0.05", "--u-tilde-over-2pi", "0.2", "--loop", "--start-winding=-1"],
            lambda: hysteresis_table((lambda p: p + p[-2::-1])(eta_grid(-2.0, 2.0, 0.05)), 0.2 * 2.0 * math.pi, -1),
            id="hysteresis-loop",
        ),
    ]

    @pytest.mark.parametrize("argv, table", CASES)
    def test_bytes_equal_a_rendering_of_the_records(self, tmp_path, argv, table):
        header, rows, peaks = table()
        if argv[0] == "hysteresis":  # empty barrier_height cells among full ones
            assert any(row[-1] is None for row in rows) and any(row[-1] is not None for row in rows)
        reference = TestColumnarRendering()
        peaks_out = tmp_path / "peaks.csv"
        extra = ["--peaks-output", str(peaks_out)] if peaks is not None else []
        for fmt in ("csv", "json"):
            out = tmp_path / f"out.{fmt}"
            assert main(argv + extra + ["--format", fmt, "--output", str(out)]) == 0
            text = out.read_text()
            if fmt == "csv":
                assert text == reference.reference_csv(header, rows)
                continue
            payload = json.loads(text)
            payload["rows"] = [dict(zip(header, row)) for row in rows]
            if peaks is not None:
                peak_header, peak_rows = peaks
                payload["peaks"] = [dict(zip(peak_header, row)) for row in peak_rows]
            assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if peaks is not None:
            assert peaks[1]
            assert peaks_out.read_text() == reference.reference_csv(*peaks)


def test_traced_sweep_commands_open_one_sweeps_span_each(tmp_path):
    # perfbench/tracing.py wraps acring.cli.staircase, landscape and hysteresis, and
    # counts a landscape's points from the result's .points
    tracing = load_tracing()
    tracer = tracing.Tracer()
    calls = [
        ["staircase", "--eta=0:1:0.25", "--u-tilde", "1"],
        ["landscape", "--eta=0.25,0.5", "--u-tilde", "1", "--x-step", "0.5", "--format", "json"],
        ["hysteresis", "--eta=0,0.5,1", "--u-tilde", "1"],
    ]
    try:
        tracer.install()
        codes = [main(argv + ["--output", str(tmp_path / f"{k}.out")]) for k, argv in enumerate(calls)]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    assert [span.name for span in tracer.spans if span.layer == "sweeps"] == ["staircase", "landscape", "hysteresis"]


class TestCachedParser:
    def test_main_calls_match_fresh_processes(self, tmp_path, capsys):
        # the parser is built once per process; each call must still behave
        # as in a new process, with no value of a config file left behind
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta=0.7\nu_tilde_over_2pi=2\nformat=json\n")
        calls = [
            ["ground", "--config", str(cfg)],
            ["ground", "--u-tilde", "1"],  # no --eta: exit 2, not the config's 0.7
            ["ground", "--eta", "0.3", "--u-tilde", "1"],  # CSV, not the config's JSON
            ["staircase", "--eta=-1:1:0.5", "--u-tilde", "1", "--format", "json"],
            ["hysteresis", "--eta=0:1:0.25", "--u-tilde", "1", "--loop"],
            ["staircase", "--eta=0:1:0", "--u-tilde", "1"],  # exit 3
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(acring.__file__).resolve().parents[1])}
        in_process, fresh = [], []
        for k, argv in enumerate(calls):
            out = tmp_path / f"in-{k}.out"
            try:
                code = main(argv + ["--output", str(out)])
            except SystemExit as exc:
                code = exc.code
            in_process.append((code, capsys.readouterr().err, out.read_bytes() if out.exists() else None))
        for k, argv in enumerate(calls):
            out = tmp_path / f"fresh-{k}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "acring.cli", *argv, "--output", str(out)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            fresh.append((proc.returncode, proc.stderr, out.read_bytes() if out.exists() else None))
        assert [code for code, _, _ in in_process] == [0, 2, 0, 0, 0, 3]
        assert in_process == fresh
        assert in_process[0][2].startswith(b"{") and in_process[2][2].startswith(b"eta,")

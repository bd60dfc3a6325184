"""Self-test of the benchmark.

Usage (from the repository root):  python3 perfbench/selftest.py

1. Smoke runs: every workload at the tiny size, untraced and traced; each
   result must name every metric of BENCHMARK.json with its unit.
2. Accuracy gate: real numeric staircase rows pass, and the same rows with
   a winding off by one or a mu shifted by 1e-5 are flagged; a relax report
   with a rising energy history is flagged.
3. Known defect: relax under a potential at the default stall tolerance
   stops at a transient (the convergence test looks at |d mu| per step,
   not at the residual).  The gate must flag the state
   while the defect is present; the test reports when it no longer is.
4. Without the acring sources the benchmark exits non-zero and prints no
   result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from run import call_tail  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def smoke(spec: dict) -> None:
    print("smoke runs (tiny size)")
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170, cwd=ROOT,
            )
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(got == declared, f"{label}: every {key} metric with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: correct")
            for name, m in result["metrics"].items():
                print(f"       {name:<40} {m['value']:.6g} {m['unit']}")


def gate() -> None:
    import acring
    import acring.cli as cli
    import acring.solver as solver

    print("accuracy gate")
    work = ROOT / ".perfbench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    out = work / "staircase.csv"
    expect_args = {"start": -0.25, "stop": 0.25, "step": 0.25, "u2": 2.0, "weight": 1.0, "numeric": True}
    rc = cli.main(["staircase", "--eta=-0.25:0.25:0.25", "--u-tilde-over-2pi", "2", "--mode", "numeric", "-o", str(out)])
    call = Call("staircase", "staircase", expect_args, 3, outputs=[(str(out), "csv")])
    expect(rc == 0 and checks.check_call(call, {})[1] == 0, "program's numeric rows pass")
    good = out.read_text(encoding="utf-8").splitlines()

    def corrupted(column: str, change) -> int:
        header = good[0].split(",")
        row = good[2].split(",")
        j = header.index(column)
        row[j] = change(row[j])
        out.write_text("\n".join([good[0], good[1], ",".join(row), *good[3:]]) + "\n", encoding="utf-8")
        return checks.check_call(call, {})[1]

    expect(corrupted("winding_T0", lambda v: str(int(v) + 1)) == 1, "winding off by one is flagged")
    expect(corrupted("mu_eff", lambda v: repr(float(v) + 1e-5)) == 1, "mu shifted by 1e-5 is flagged")

    grid_size = 256
    phi = 2.0 * math.pi * np.arange(grid_size) / grid_size
    params = acring.RingParams(eta=0.3, u_tilde=4.0 * math.pi)
    potential = 0.05 * np.cos(phi)
    tight = solver.relax(params, acring.SolverSettings(tolerance=1e-14), potential)
    gate_ok = checks.check_relax_report(tight, 0.3, params.u_tilde, potential, "relax")
    expect(gate_ok.failed == 0, "relax at tolerance 1e-14 passes")
    tight.energy_history = np.append(tight.energy_history, tight.energy_history[-1] + 1e-9)
    rising = checks.check_relax_report(tight, 0.3, params.u_tilde, potential, "relax")
    expect(rising.failed == 1, "rising energy history is flagged")

    print("known defect: relax under a potential stops on a stalled mu")
    loose = solver.relax(params, acring.SolverSettings(), potential)
    residual = checks.residual_norm(loose.wavefunction.amplitudes, 0.3, params.u_tilde, potential, loose.mu)
    flagged = checks.check_relax_report(loose, 0.3, params.u_tilde, potential, "relax").failed == 1
    print(f"       eta=0.3 u_tilde/2pi=2 V=0.05 cos(phi): {loose.iterations} steps, residual {residual:.3g}")
    if residual > checks.RESIDUAL_TOL:
        expect(flagged, "the gate flags the early stop")
    else:
        print("       no longer reproduces: the default tolerance may return to the solve_single workload")

    print("call_tail_ms")
    expect(call_tail(list(range(30))) == (19, 100.0 * 20 / 30), "30 calls: the 20th of 30, 10 above it")
    expect(call_tail(list(range(16))) == (5, 100.0 * 6 / 16), "16 calls: the 6th, below the median, as defined")
    expect(call_tail(list(range(10))) == (9, 100.0), "10 calls: the maximum")


def bare_checkout() -> None:
    print("checkout without sources")
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=bare,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, f"exit {proc.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        smoke(spec)
        gate()
        bare_checkout()
    finally:
        shutil.rmtree(ROOT / ".perfbench_work" / "selftest", ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

"""acring benchmark: time the public API and CLI in-process, gated on accuracy.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run imports acring from src/, measures set-up in fresh processes, then
repeats passes of the workload's seeded inputs (perfbench/workloads.py)
while another pass still fits in S seconds, and at least once.  Times are
paced: scaled to a fixed reference speed measured while they run
(perfbench/pace.py), so that the drift of a shared machine's speed does not
show as a change of the program.  Every output row is checked against the
closed form (perfbench/checks.py) after the timed passes.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": rows, "failed": rows, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.  With
--trace 1 the same passes run again with the tracer installed
(perfbench/tracing.py) and the metrics are the per-layer ones; spans go to
.perfbench_trace/<workload>-seed<N>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from pace import REF_NOMINAL_S, Pacer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = {"full": 7, "tiny": 2}
TAIL_BEYOND = 10  # call_tail_ms: highest percentile with at least this many calls above it


class HarnessError(RuntimeError):
    """The benchmark itself cannot produce a result."""


def parse_args(argv):
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="'tiny' is the smoke-test size")
    return parser.parse_args(argv)


def measure_setup(work: Path, repeats: int) -> list:
    """The probes of `repeats` fresh processes, one after another (setup_s, import_s, raw_setup_s)."""
    setup = []
    for i in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(work / f"setup-{i}.csv")],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["rc"] != 0:
            raise HarnessError(f"warm-up call exited {probe['rc']}")
        setup.append(probe)
    return setup


def execute(calls, cli, solver, tracer=None) -> None:
    """Run one pass; `cli.main` and `solver.relax` are looked up per call so wrappers apply."""
    perf_counter = time.perf_counter
    for call in calls:
        if tracer is not None:
            tracer.call += 1
        call.t0 = perf_counter()
        try:
            if call.argv is not None:
                rc = cli.main(call.argv)
                if rc != 0:
                    call.error = f"exit code {rc}"
            else:
                call.result = solver.relax(*call.library)
        except SystemExit as err:  # argparse usage errors
            call.error = f"exit code {err.code}"
        except Exception as err:  # noqa: BLE001 - a failing call is counted, the run goes on
            call.error = f"raised {type(err).__name__}: {err}"
        call.t1 = perf_counter()


def run_passes(args, work: Path, cli, solver, count=None, tracer=None) -> list:
    """[(calls, pass seconds)]: `count` passes, or as many as fit in args.seconds (at least one)."""
    from workloads import make_pass

    passes = []
    begin = time.perf_counter()
    while True:
        calls = make_pass(args.workload, args.seed, len(passes), work, args.size)
        gc.collect()
        t0 = time.perf_counter()
        execute(calls, cli, solver, tracer)
        elapsed = time.perf_counter() - t0
        passes.append((calls, elapsed))
        if count is not None:
            if len(passes) == count:
                return passes
        elif time.perf_counter() - begin + elapsed > args.seconds:
            return passes


def pace_passes(passes, pacer: Pacer) -> list:
    """Paced seconds of each pass, the sum of its calls; sets each call's paced and raw seconds."""
    walls = []
    for calls, _ in passes:
        for call in calls:
            call.seconds = pacer.paced(call.t0, call.t1)
            call.raw_seconds = pacer.raw(call.t0, call.t1)
        walls.append(sum(call.seconds for call in calls))
    return walls


def check_passes(passes) -> dict:
    from checks import check_call

    tally = {"attempted": 0, "failed": 0, "rows_out": 0, "bytes_out": 0, "notes": []}
    for calls, _ in passes:
        for call in calls:
            attempted, failed, notes = check_call(call, tally)
            tally["attempted"] += attempted
            tally["failed"] += failed
            tally["notes"] += notes
            if call.argv is not None and call.error is None:
                tally["rows_out"] += call.rows
                tally["bytes_out"] += sum(os.path.getsize(p) for p, _ in call.outputs if os.path.exists(p))
            for path, _ in call.outputs:
                if os.path.exists(path):
                    os.remove(path)
    return tally


def call_tail(latencies: list) -> tuple[float, float]:
    """(value, percentile): the highest order statistic with TAIL_BEYOND calls above it.

    With TAIL_BEYOND calls or fewer no such statistic exists and the maximum
    (percentile 100) is reported instead.  With fewer than 2 * TAIL_BEYOND + 1
    calls the statistic lies at or below the median; it is reported as defined.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def solver_accuracy(tracer) -> dict:
    """Worst mu error (potential-free calls) and residual of every report the solver returned."""
    from checks import mu_plane, residual_norm

    mu_err = residual = 0.0
    for args, report, _ in tracer.solver_returns:
        if report is None:
            continue
        params = args[0]
        potential = args[2] if len(args) > 2 else None
        residual = max(
            residual, residual_norm(report.wavefunction.amplitudes, params.eta, params.u_tilde, potential, report.mu)
        )
        if potential is None:
            u2 = params.u_tilde / (2.0 * math.pi)
            mu_err = max(mu_err, abs(report.mu - mu_plane(report.winding, params.eta, u2)))
    return {"mu_err_max": mu_err, "residual_max": residual}


def end_to_end(passes, walls, tally, setup, peak_rss_mb, reference_ms) -> tuple[dict, list]:
    latencies = [call.seconds for calls, _ in passes for call in calls]
    raw_latencies = [call.raw_seconds for calls, _ in passes for call in calls]
    raw_walls = [sum(call.raw_seconds for call in calls) for calls, _ in passes]
    tail, pct = call_tail(latencies)
    error_frac = tally["failed"] / tally["attempted"]
    metrics = {
        "setup_s": median(probe["setup_s"] for probe in setup),
        "wall_s": median(walls),
        "call_p50_ms": 1e3 * median(latencies),
        "call_tail_ms": 1e3 * tail,
        "ok_frac": 1.0 - error_frac,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"times are paced to a reference chunk of {1e3 * REF_NOMINAL_S:.3g} ms; "
        f"it took {reference_ms:.4g} ms on average in this run (perfbench/pace.py)",
        f"setup_s: median of {len(setup)} fresh processes; raw {median(probe['raw_setup_s'] for probe in setup):.6g} s",
        f"wall_s: median over {len(passes)} pass(es); raw {median(raw_walls):.6g} s",
        f"call_p50_ms: raw {1e3 * median(raw_latencies):.6g} ms",
        f"call_tail_ms: p{pct:.4g} of {len(latencies)} calls"
        + ("" if pct < 100 else f" (the maximum: no percentile has {TAIL_BEYOND} calls above it)"),
        f"error_frac: {error_frac:.6g} ({tally['failed']} of {tally['attempted']} rows failed); ok_frac = 1 - error_frac",
        f"tie disagreements (numeric winding != nearest integer, within the accuracy gate): "
        f"{tally.get('tie_disagreements', 0)}",
    ]
    return metrics, notes


def declared(spec: dict, key: str, metrics: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec[key]}
    if set(units) != set(metrics):
        raise HarnessError(f"{key} mismatch: declared {sorted(units)}, measured {sorted(metrics)}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def bench(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import acring.cli as cli
    import acring.solver as solver

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(work, SETUP_REPEATS[args.size])
        # warm caches in this process the same way; not timed
        if cli.main(["solve", "--eta=0.3", "--u-tilde-over-2pi", "2", "-o", str(work / "warm.csv")]) != 0:
            raise HarnessError("in-process warm-up call failed")
        with Pacer() as pacer:
            passes = run_passes(args, work / "plain", cli, solver)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = pace_passes(passes, pacer)
        tally = check_passes(passes)
        metrics, notes = end_to_end(passes, walls, tally, setup, peak_rss_mb, pacer.reference_ms())
        result_key, result = "end_to_end", metrics
        if args.trace:
            from tracing import Tracer, per_layer_metrics

            tracer = Tracer()
            tracer.install()
            try:
                with Pacer() as traced_pacer:
                    traced = run_passes(args, work / "traced", cli, solver, count=len(passes), tracer=tracer)
            finally:
                tracer.uninstall()
            traced_walls = pace_passes(traced, traced_pacer)
            traced_tally = check_passes(traced)
            tally["attempted"] += traced_tally["attempted"]
            tally["failed"] += traced_tally["failed"]
            tally["notes"] += traced_tally["notes"]
            overhead = median(traced_walls) / metrics["wall_s"] - 1.0
            accuracy = dict(traced_tally, **solver_accuracy(tracer))
            # span times are raw; pace them with the traced passes' mean reference time
            scale = 1e3 * REF_NOMINAL_S / traced_pacer.reference_ms()
            totals = {k: v * scale if k.endswith((".s", "_s")) else v for k, v in tracer.layer_totals().items()}
            import_s = [probe["import_s"] for probe in setup]
            result_key = "per_layer"
            result = per_layer_metrics(totals, len(traced), accuracy, import_s, overhead)
            trace_dir = ROOT / ".perfbench_trace"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
            notes.append(f"spans: {len(tracer.spans)} written to {trace_dir.name}/")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  passes {len(passes)}")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:.6g}")
    print(f"  {'error_frac':<14} {1.0 - metrics['ok_frac']:.6g}")
    for line in notes + tally["notes"][:20]:
        print(f"  {line}")
    if args.trace:
        for name, value in result.items():
            print(f"  {name:<40} {value:.6g}")
    return {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": declared(spec, result_key, result),
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "acring" / "__init__.py").is_file():
        print(f"error: no acring source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    args = parse_args(argv)
    try:
        result = bench(args)
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark tracer wraps acring functions by module and name.

perfbench/tracing.py patches `acring.cli.relax`, `acring.sweeps.global_ground`,
`numpy.fft.fft` and the rest under the names each caller looks up.  These
tests load it by file path and install it, so a rename or a removed import in
the package fails here instead of in the benchmark.
"""

import importlib.util
import math
from pathlib import Path

import acring.solver
from acring.reduction import RingParams
from acring.solver import SolverSettings

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    tracing = load_tracing()
    targets = [(m, n) for m, names, _ in tracing.SPAN_TARGETS + tracing.COUNTED_TARGETS for n in names]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = {(m, n): getattr(importlib.import_module(m), n) for m, n in targets}
    finally:
        tracer.uninstall()
    for (module, name), wrapper in wrapped.items():
        original = getattr(importlib.import_module(module), name)
        assert wrapper is not original and wrapper.__wrapped__ is original


def test_relax_iterations_cost_two_counted_transforms():
    # the descent looks numpy.fft up at call time, so the tracer counts it:
    # the seed's ifft, then per iteration one fft for the residual and one
    # ifft for the step direction, which the last iteration does not take
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        report = acring.solver.relax(
            RingParams(eta=0.3, u_tilde=4 * math.pi), SolverSettings(noise_amplitude=1e-3, max_iterations=7)
        )
    finally:
        tracer.uninstall()
    (span,) = tracer.spans
    assert report.iterations == 7
    assert not report.converged
    assert span.counted["transform"][0] == 1 + 7 + 6

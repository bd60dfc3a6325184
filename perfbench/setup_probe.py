"""Set-up time of a fresh process: import acring.cli, build the parser, one warm-up call.

Usage: python3 perfbench/setup_probe.py <repo root> <output file>
Prints one JSON line with import_s and setup_s, both measured from the top
of this script and paced to the reference speed (perfbench/pace.py), and
raw_setup_s, the wall time.  The probe's numpy import counts in set-up, as
acring.cli imports numpy itself.
"""

import sys
import time

t0 = time.perf_counter()
root, output = sys.argv[1], sys.argv[2]
sys.path.insert(0, f"{root}/src")

from pace import Pacer  # noqa: E402

with Pacer(period=0.02) as pacer:
    import acring.cli as cli  # noqa: E402

    t_import = time.perf_counter()
    cli.build_parser()
    # a noise-free plane-wave seed is an exact fixed point: converges in two steps
    rc = cli.main(["solve", "--eta=0.3", "--u-tilde-over-2pi", "2", "-o", output])
    t_end = time.perf_counter()

import json  # noqa: E402

print(json.dumps({
    "rc": rc,
    "import_s": pacer.paced(t0, t_import),
    "setup_s": pacer.paced(t0, t_end),
    "raw_setup_s": pacer.raw(t0, t_end),
}))

"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  BLAS and OpenMP thread pools are pinned to one thread
before numpy loads, so the run is single-threaded.  Times are rescaled
to nominal machine speed; see ``speed.py``.
"""

import os
import sys
import time

T_START = time.perf_counter()

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if not os.path.isfile(os.path.join(_SRC, "quantilab", "__init__.py")):
    print(f"perfbench: no quantilab sources in {_SRC}; run from a quantilab checkout",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, _SRC)

import speed  # noqa: E402  (pure Python; samples machine speed from here on)

SAMPLER = speed.SpeedSampler()
SAMPLER.start()

import harness  # noqa: E402  (after the thread pins and the path)

if __name__ == "__main__":
    sys.exit(harness.main(sys.argv[1:], T_START, SAMPLER))

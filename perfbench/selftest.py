"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, each at a tiny size so the whole test takes about a minute:

1. every workload runs end to end, untraced and traced, with no failed
   operation, bit-identical outputs and exactly the declared metrics;
2. a perturbed grid point, a perturbed table row and an operation that
   raises ``SolverError`` are each counted as one failure, and the pass
   goes on;
3. ``quad.panels`` for integrals with a known panel count matches the
   hand count when called through the ``distributions`` namespace, which
   shows the tracer's wrappers reach ``_quad`` from its consumers;
4. the stored reference grids match a fresh independent solve.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import references  # noqa: E402
import speed  # noqa: E402


def check(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        raise SystemExit(1)


def end_to_end_tiny() -> None:
    for name in ("tables", "solve-large-n", "solve-fractional", "evaluate"):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
            check(proc.returncode == 0, f"{name} trace={trace} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            kind = "per_layer" if trace else "end_to_end"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and set(result["metrics"]) == set(harness.declared_units(kind)),
                  f"{name} trace={trace} reports exactly the {kind} metrics")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} trace={trace} correct, {result['attempted']} operations, none failed")


def _perturbed(op, change):
    original = op.run
    return dataclasses.replace(op, run=lambda: change(original()))


def failures_are_counted(scratch: Path) -> None:
    import numpy as np
    import workloads
    from quantilab import Grid, SolverError

    sampler = speed.SpeedSampler()  # never started: passes are not rescaled
    print("(each injected failure below is reported by the harness as FAIL)")

    def shift_point(res):
        pts = res.grid.points.copy()
        pts[0] += 1e-5
        return dataclasses.replace(res, grid=Grid(pts))

    def shift_row(res):
        code, text, cached = res
        rows = json.loads(text)
        rows[0]["a_hat"] += 0.01
        return code, json.dumps(rows), cached

    def raise_solver_error(_res):
        raise SolverError("injected", np.array([]), math.nan)

    for name, change, what in (
        ("solve-fractional", shift_point, "grid point moved by 1e-5"),
        ("tables", shift_row, "table row slope moved by 0.01"),
        ("solve-large-n", raise_solver_error, "operation raising SolverError"),
    ):
        wl = workloads.build(name, 7, scratch / name, tiny=True)
        clean = harness.run_pass(wl, sampler)
        wl.ops[0] = _perturbed(wl.ops[0], change)
        bad = harness.run_pass(wl, sampler)
        check(clean.failed == 0 and bad.failed == 1 and bad.attempted == len(wl.ops),
              f"{name}: {what} counts as 1 failure of {bad.attempted}")


def panels_match_hand_count() -> None:
    import numpy as np
    import quantilab
    from quantilab import _quad, distributions, solver
    from layertrace import Tracer

    originals = (distributions.integrate, solver.cell_gradient, distributions.cell_gradient)
    tracer = Tracer()
    tracer.install()
    try:
        check(distributions.cell_gradient is solver.cell_gradient is quantilab.cell_gradient
              and solver.cell_gradient is not originals[1],
              "one wrapper bound in every consumer namespace")
        tracer.on = True
        # x**2 on [0, 1]: one whole panel and two halves agree to round-off,
        # so no refinement: 3 panels
        val, _ = distributions.integrate(lambda x: x * x, 0.0, 1.0)
        # x**-0.5 on [0, 1]: the substitution leaves a constant integrand,
        # again 3 panels; its inner integrate call is not counted twice
        val2, _ = distributions.integrate_endpoint_power(
            lambda x: np.ones_like(x), -0.5, 0.0, 1.0)
        tracer.on = False
        metrics = tracer.layer_metrics(1)
        check(abs(val - 1 / 3) < 1e-14 and abs(val2 - 2.0) < 1e-12, "integrals are right")
        check(metrics["quad.calls"] == 2 and metrics["quad.panels"] == 6,
              f"quad.calls={metrics['quad.calls']:g} (hand count 2), "
              f"quad.panels={metrics['quad.panels']:g} (hand count 6)")
        tracer.on = True
        quantilab.cell_moment(quantilab.DistributionSpec.gaussian(), 0.1, -1.0, 1.0, 2.0)
        tracer.on = False
        check(tracer.layer_metrics(1)["quad.calls"] > 2,
              "cell_moment reaches _quad through distributions' own binding")
    finally:
        tracer.uninstall()
    check(distributions.integrate is originals[0] and _quad.integrate is originals[0]
          and solver.cell_gradient is originals[1], "uninstall restores every namespace")


def main() -> int:
    scratch = harness.SCRATCH / f"selftest-{os.getpid()}"
    try:
        panels_match_hand_count()
        failures_are_counted(scratch)
        check(references.main() == 0, "stored reference grids reproduce")
        end_to_end_tiny()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if harness.SCRATCH.is_dir() and not any(harness.SCRATCH.iterdir()):
            harness.SCRATCH.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

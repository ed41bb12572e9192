"""Runs one workload: set-up, timed passes, reference checks, metrics.

A pass runs every operation of the workload once, in the seeded order,
as a closed loop with one caller.  Passes repeat while the next one is
expected to fit in the run's time budget, and at least one always runs.
``wall_s`` is the median pass time over the operations alone, rescaled
to nominal machine speed by ``speed.SpeedSampler``; the reference checks
run after the operations and are not timed.

Nothing heavy is imported at module level: ``setup_s`` covers importing
numpy, scipy and quantilab.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 2  # extra set-ups in fresh interpreters; setup_s is the median


@dataclass
class PassResult:
    wall_s: float  # rescaled to nominal speed
    raw_wall_s: float
    op_times: list[float]
    elapsed_s: float
    attempted: int
    failed: int
    fingerprints: list[str]
    worst: tuple[float, str]  # largest gap / tolerance, and where


def setup(name: str, seed: int, scratch: Path, tiny: bool, t_start: float, sampler):
    """Import the library, build the seeded inputs and warm up once."""
    import quantilab

    sampler.use_numpy()

    src = (ROOT / "src").resolve()
    if Path(quantilab.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"quantilab imported from {quantilab.__file__}, not {src}")
    import workloads

    wl = workloads.build(name, seed, scratch, tiny)
    workloads.warmup()
    return wl, time.perf_counter() - t_start


def run_pass(wl, sampler, tracer=None) -> PassResult:
    from quantilab import QuadratureError, SolverError

    wl.begin_pass()
    outcomes = []
    wall = 0.0
    samples: list[tuple[float, float]] = []
    op_times: list[float] = []
    t_pass = time.perf_counter()
    if tracer is not None:
        tracer.on = True
    try:
        for op in wl.ops:
            mark = sampler.mark()
            t0 = time.perf_counter()
            try:
                outcomes.append((op, op.run(), None))
            except (SolverError, QuadratureError) as err:
                outcomes.append((op, None, err))
            dt = time.perf_counter() - t0
            wall += dt
            op_samples = sampler.span(mark)
            samples += op_samples
            op_times.append(sampler.rescale(dt, op_samples))
    finally:
        if tracer is not None:
            tracer.on = False

    failed = 0
    prints = []
    worst = (0.0, "")
    for op, res, err in outcomes:
        if err is not None:
            failed += 1
            prints.append(f"raised {type(err).__name__}")
            print(f"  FAIL {op.name}: {type(err).__name__}: {err}", file=sys.stderr)
            continue
        prints.append(op.fingerprint(res))
        missed = False
        for label, gap, tol in op.check(res):
            if gap <= tol:
                ratio = gap / tol if tol > 0 else 0.0
            else:  # also NaN
                missed = True
                ratio = gap / tol if tol > 0 and not math.isnan(gap) else math.inf
                print(f"  FAIL {op.name}: {label} = {gap:.3g} > {tol:.3g}", file=sys.stderr)
            if ratio >= worst[0]:
                worst = (ratio, f"{op.name}: {label} = {gap:.3g} (tolerance {tol:.3g})")
        failed += missed
    return PassResult(sampler.rescale(wall, samples), wall, op_times, time.perf_counter() - t_pass,
                      len(outcomes), failed, prints, worst)


def measure(wl, sampler, budget_s: float, tracer=None) -> list[PassResult]:
    """Passes until the next one would overrun ``budget_s``; at least one."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, sampler, tracer))
        typical = statistics.median(p.elapsed_s for p in passes)
        if time.perf_counter() - start + typical > budget_s:
            return passes


def probe_setup(name: str, seed: int, tiny: bool) -> float:
    """Set-up time of a fresh interpreter, which imports everything anew."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrunken inputs, for self-tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str], t_start: float, sampler) -> int:
    """``sampler`` has been sampling machine speed since ``t_start``."""
    args = _parse(argv)
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, scratch, t_start, sampler)
    finally:
        sampler.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    if result is None:
        return 0
    print(json.dumps(result))
    return 0


def run(args, scratch: Path, t_start: float, sampler) -> dict | None:
    wl, raw_setup_s = setup(args.workload, args.seed, scratch, args.tiny, t_start, sampler)
    setup_s = sampler.rescale(raw_setup_s, sampler.span(0))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return None

    if args.trace:
        untraced = measure(wl, sampler, args.seconds / 2)
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(wl, sampler, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        values = tracer.layer_metrics(len(traced))
        values["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced)
            - statistics.median(p.wall_s for p in untraced)
        )
        units = declared_units("per_layer")
        out = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        tracer.write(out, {"workload": args.workload, "seed": args.seed,
                           "traced_passes": len(traced), "metrics": values})
        print(f"trace written to {out.relative_to(ROOT)}")
    else:
        passes = measure(wl, sampler, args.seconds)
        sampler.stop()
        samples = [setup_s] + [probe_setup(args.workload, args.seed, args.tiny) for _ in range(SETUP_PROBES)]
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = declared_units("end_to_end")

    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    identical = all(p.fingerprints == passes[0].fingerprints for p in passes)
    if not identical:
        print("FAIL: outputs differ between passes (traced vs untraced or run to run)",
              file=sys.stderr)
    worst = max((p.worst for p in passes), key=lambda w: w[0])
    walls = [p.wall_s for p in passes]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} pass(es) of {len(wl.ops)} operations, "
          f"pass times {min(walls):.4g} to {max(walls):.4g} s at nominal speed, "
          f"median {statistics.median(p.raw_wall_s for p in passes):.4g} s unscaled")
    for i, op in enumerate(wl.ops):
        print(f"  op {statistics.median(p.op_times[i] for p in passes):9.4f} s  {op.name}")
    for key, val in values.items():
        print(f"  {key} = {val:.6g} {units[key]}")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"  max reference gap = {worst[0]:.3g} of tolerance, at {worst[1]}")
    print(f"  outputs identical across passes: {identical}")
    return {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }

"""Run all four workloads once and print their end-to-end metrics.

    python3 perfbench/runall.py [--seed N] [--seconds S] [--record FILE --label NAME]

Each workload runs in its own process through ``run.py``.  With
``--record`` every result is appended to FILE (a JSON list) together
with the machine, library versions, git revision, seed and thread pins.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "solve-large-n", "solve-fractional", "evaluate")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": sha,
        "threads": {v: "1" for v in THREAD_VARS},  # pinned by run.py
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--record", type=Path, default=None)
    p.add_argument("--label", default="")
    args = p.parse_args()

    records = []
    print(f"{'workload':18} {'wall_s [s]':>12} {'setup_s [s]':>12} {'fail_frac':>10} "
          f"{'peak_rss_mb [MB]':>17}")
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name:18} {m['wall_s']:12.4f} {m['setup_s']:12.4f} {fail_frac:10.4g} "
              f"{m['peak_rss_mb']:17.1f}")
        records.append({"label": args.label, "workload": name, "seed": args.seed,
                        "seconds": args.seconds, "fail_frac": fail_frac, **result})

    if args.record is not None:
        info = machine()
        old = json.loads(args.record.read_text()) if args.record.is_file() else []
        args.record.write_text(json.dumps(old + [{**r, "machine": info} for r in records],
                                          indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run one workload of the ballpack benchmark and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  The workload runs in a worker process
(worker.py) that imports ballpack from the checkout's ``src``.  With
``--trace 0`` the last line of output holds the end-to-end metrics; set-up
is then also run alone in a few more worker processes, one after another,
and ``setup_s`` is the median over all of them.  With ``--trace 1`` it holds
the per-layer metrics of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

SETUP_RUNS = 5  # set-ups per run, the full one included
TIME_LIMIT = 170.0  # seconds for all worker processes of one run


def worker(args, deadline: float, setup_only: bool) -> dict:
    """Start one worker process, wait for it and return its result."""
    env = dict(os.environ)
    # one thread per process: operations run one at a time
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True, env=env,
        timeout=max(1.0, deadline - t0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (Path.cwd() / "src" / "ballpack" / "__init__.py").is_file():
        print("error: run from the root of a ballpack checkout (no src/ballpack)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(worker(args, deadline, setup_only=True)["setup_s"])
    result = worker(args, deadline, setup_only=False)
    values = result["metrics"]
    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    if not args.trace:
        setups.append(values["setup_s"])
        values["setup_s"] = statistics.median(setups)
    print(f"{args.workload}: {result['rounds']} rounds", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

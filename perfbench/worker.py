"""One process of the benchmark: set up one workload, run its rounds, check.

Started by run.py from the root of a checkout, with the checkout's ``src``
first on the import path.  ``--t0`` is the monotonic time at which run.py
started this process, so set-up time counts interpreter start-up, imports
and input making.  With ``--setup-only`` the process stops after set-up and
reports its set-up time alone.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import metrics
import tracing
import workloads

OUT_DIR = "perfbench-out"


def import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import numpy  # noqa: F401  (part of set-up, as for every user)

    import ballpack
    import ballpack.cli  # noqa: F401

    src = (root / "src").resolve()
    if src not in Path(ballpack.__file__).resolve().parents:
        raise SystemExit(f"imported ballpack from {ballpack.__file__}, not from {src}")
    return ballpack


class Totals:
    """Operations, balls and timed seconds over a set of rounds."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.balls = 0
        self.seconds = 0.0
        self.wrong = []

    def balls_per_s(self) -> float:
        return self.balls / self.seconds if self.seconds else 0.0


def run_round(ops, totals: Totals, tracer=None) -> float:
    """Run every operation once; return the round's timed seconds."""
    spent = 0.0
    for index, op in enumerate(ops):
        totals.attempted += 1
        if tracer is not None:
            tracer.op = index
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = tracer.span("op", op.run) if tracer is not None else op.run()
        except Exception as err:  # an operation that raises is a failed one
            result = err
        spent += time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if isinstance(result, Exception):
            totals.failed += 1
            print(f"{op.name}: failed: {result!r}", file=sys.stderr)
            continue
        try:
            totals.balls += op.check(result)
        except checks.CheckFailed as err:
            totals.wrong.append(f"{op.name}: {err}")
            print(f"{op.name}: wrong output: {err}", file=sys.stderr)
    totals.rounds += 1
    totals.seconds += spent
    return spent


def keep_going(spent: float, rounds: int, seconds: float) -> bool:
    """Another whole round, if it ends nearer to the target than stopping."""
    return spent + spent / rounds / 2 < seconds


def grow_peak_mb(calls) -> float:
    """Largest tracemalloc peak over the recorded generate_cluster calls."""
    import ballpack.apollonian as apollonian

    peak = 0
    for args, kwargs in calls:
        tracemalloc.start()
        try:
            apollonian.generate_cluster(*args, **kwargs)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1e6


def src_lines(root: Path) -> dict:
    out = {}
    for module in metrics.MODULES:
        path = root / "src" / "ballpack" / f"{'__init__' if module == 'init' else module}.py"
        out[module] = len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    tracer = tracing.Tracer() if args.trace else None
    bp = import_program(root)
    out = root / OUT_DIR / args.workload
    out.mkdir(parents=True, exist_ok=True)
    os.environ["BALLPACK_OUT_DIR"] = str(out)
    ctx = workloads.Context(bp=bp, out=out, rng=random.Random(args.seed))
    if tracer is not None:
        tracer.install()
    ops = workloads.WORKLOADS[args.workload](ctx)
    setup_s = time.monotonic() - args.t0
    if tracer is not None:
        tracer.uninstall()
        setup_self, setup_counts = dict(tracer.self_time), dict(tracer.counts)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    plain, traced = Totals(), Totals()
    if tracer is None:
        while True:
            spent = run_round(ops, plain)
            print(f"round {plain.rounds}: {spent:.3f} s", file=sys.stderr)
            if not keep_going(plain.seconds, plain.rounds, args.seconds):
                break
    else:
        # alternate untraced and traced rounds; the pair is the unit
        grow_calls = []
        while True:
            run_round(ops, plain)
            tracer.install(grow_calls if not traced.rounds else None)
            run_round(ops, traced, tracer)
            tracer.uninstall()
            if not keep_going(plain.seconds + traced.seconds, plain.rounds, args.seconds):
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{args.workload}: timed {plain.seconds:.3f} s untraced"
          f"{f', {traced.seconds:.3f} s traced' if tracer else ''}", file=sys.stderr)

    if tracer is None:
        values = {"balls_per_s": plain.balls_per_s(), "peak_rss_mb": rss_mb, "setup_s": setup_s}
    else:
        values = metrics.per_layer(
            tracer, setup_self, setup_counts, traced.rounds, plain.balls_per_s(),
            traced.balls_per_s(), grow_peak_mb(grow_calls), src_lines(root),
        )
        print(f"{args.workload}: {time.monotonic() - args.t0:.3f} s to the end of tracemalloc", file=sys.stderr)
        tracer.write(out / f"trace-seed{args.seed}.json", [op.name for op in ops])
    both = [plain, traced]
    print(json.dumps({
        "correct": not any(t.wrong for t in both),
        "attempted": sum(t.attempted for t in both),
        "failed": sum(t.failed for t in both),
        "rounds": plain.rounds,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

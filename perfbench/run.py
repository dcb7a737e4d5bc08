"""Benchmark of spectranorm: end-to-end times of its CLI, and per-layer times.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 20 --trace 0

Workloads (see README.md): `exhaustive`, `montecarlo`, `registry`. A run
imports the package from `src/` of the checkout it sits in, writes its
inputs, then repeats whole rounds of the workload's program calls until
`--seconds` have passed, checking every output. The last line of stdout is
one JSON object: correct, attempted, failed and metrics. With `--trace 0`
the metrics are the end-to-end ones, with `--trace 1` the per-layer ones,
taken with one worker process while the names between modules are wrapped.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from layers import Tracer
from workloads import WORKLOADS, run_scale_group

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", "_work")
TRACES = os.path.join(ROOT, "perfbench", "_traces")
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "call1_s": "s", "call2_s": "s"}
POOL_WAITS = {"sweep": "sweep.pool_wait_s", "search": "search.pool_wait_s"}


def import_cli():
    """`spectranorm.cli` from this checkout's `src/`, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        from spectranorm import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import spectranorm from {src}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: spectranorm was imported from {cli.__file__}, not {src}")
    return cli


def setup(workload: str, seed: int, workdir: str):
    cli = import_cli()
    wl = WORKLOADS[workload](seed, workdir)
    wl.write_inputs()
    return cli, wl


def run_call(cli, argv) -> tuple[int, float, str]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, time.perf_counter() - t0, buf.getvalue()


class Tally:
    """Operations attempted and failed, and the errors the oracles found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, wl, call, code, out) -> None:
        self.attempted += 1
        self.errors += wl.check(call, code, out)

    def scale_group(self) -> None:
        attempted, failures = run_scale_group()
        self.attempted += attempted
        self.failed += len(failures)
        for label, reason in failures:
            print(f"scale: {label}: {reason}", file=sys.stderr)


def untraced_round(cli, wl, index, tally) -> dict:
    times = {"call1": 0.0, "call2": 0.0}
    for call in wl.round(index):
        code, dt, out = run_call(cli, call.argv)
        times[call.group] += dt
        tally.call(wl, call, code, out)
    return {"call1_s": times["call1"], "call2_s": times["call2"]}


def traced_round(cli, wl, index, tally) -> dict:
    """One round with one worker under the tracer.

    For a workload that uses the process pool, each call also runs first
    untraced with its usual workers; the two outputs must be byte-identical,
    and the pool wait is the pooled wall time minus the one-worker wall time
    with its chunk work halved.
    """
    tracer = Tracer()
    pool_waits = dict.fromkeys(POOL_WAITS.values(), 0.0)
    pooled = wl.round(index) if wl.parallel else None
    for k, call in enumerate(wl.round(index, threads=1)):
        if pooled is None:
            with tracer:
                code, _, out = run_call(cli, call.argv)
            tally.call(wl, call, code, out)
            continue
        code2, wall2, out2 = run_call(cli, pooled[k].argv)
        tally.call(wl, pooled[k], code2, out2)
        busy0 = tracer.total[f"{call.label}.chunk"]
        with tracer:
            code, wall1, out = run_call(cli, call.argv)
        tally.call(wl, call, code, out)
        if out != out2:
            tally.errors.append(f"{call.label}: 1-worker output differs from pooled output")
        busy1 = tracer.total[f"{call.label}.chunk"] - busy0
        pool_waits[POOL_WAITS[call.label]] = wall2 - wall1 + busy1 / 2.0
    metrics = tracer.layer_metrics()
    metrics.update(pool_waits)
    return metrics


def measure(cli, wl, seconds: float, trace: bool) -> tuple[list, Tally]:
    """Whole rounds until `seconds` have passed; at least one round."""
    tally = Tally()
    rounds = []
    step = traced_round if trace else untraced_round
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        rounds.append(step(cli, wl, len(rounds), tally))
        print(f"round {len(rounds)}: {time.perf_counter() - t0:.3f} s", file=sys.stderr)
        if wl.scale_group:
            tally.scale_group()
    return rounds, tally


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter until its set-up is done."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def result_line(correct: bool, tally: Tally, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        cli, wl = setup(args.workload, args.seed, workdir)
        if args.probe_setup:
            print(time.monotonic())
            return 0
        if hasattr(wl, "reference"):
            wl.reference()      # the oracle's own work stays out of the rounds
        rounds, tally = measure(cli, wl, args.seconds, bool(args.trace))
        metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        if args.trace:
            units = {k: "s" if k.endswith("_s") else "count" for k in metrics}
            os.makedirs(TRACES, exist_ok=True)
            with open(os.path.join(TRACES, f"{args.workload}-seed{args.seed}.json"), "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds}, fh,
                          indent=1)
        else:
            metrics["peak_rss_mb"] = peak_rss_mb()   # before the set-up probes add children
            metrics["setup_s"] = setup_seconds(args.workload, args.seed)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in tally.errors[:20]:
        print(f"incorrect: {err}", file=sys.stderr)
    print(result_line(not tally.errors, tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fast self-check of the benchmark's own oracles and result line.

    python3 perfbench/selfcheck.py

Runs each workload's round and oracles on small inputs (order 5, n = 60,
four registry subjects), checks that every oracle rejects a tampered
output, and that the result line carries exactly the keys the benchmark
promises. Takes a few seconds; exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

import run
from layers import Tracer
from workloads import (Exhaustive, Montecarlo, Registry, derived_seed,
                       graph6, registry_subjects, run_scale_group)


def expect(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def outputs(cli, wl, threads=None) -> list:
    return [(call, *run.run_call(cli, call.argv)) for call in wl.round(0, threads)]


def tampered(wl, call, out, edit) -> list:
    doc = json.loads(out)
    edit(doc)
    return wl.check(call, 0, json.dumps(doc))


def check_exhaustive(cli, workdir) -> None:
    wl = Exhaustive(seed=1, workdir=workdir, order=5)
    exp = wl.expected()
    expect(exp == {"caporossi_equalities": 1 + 10 * 1 + 10 * 4 + 5 * 14 + 51,
                   "km_density_skipped": 1 + 10 + 45,
                   "mcclelland_equalities": 1},
           "order-5 closed forms (Bell numbers, C(10,m), odd order)")
    expect(Exhaustive(1, workdir, order=7).expected()["caporossi_equalities"] == 4013
           and Exhaustive(1, workdir, order=7).expected()["km_density_skipped"] == 1562,
           "order-7 closed forms give 4013 and 1562")
    best, count = wl.reference()
    expect(abs(best - 8.0) < 1e-12 and count == 1, "numpy: the order-5 maximum energy is 8, attained once")
    runs = outputs(cli, wl)
    for call, code, _, out in runs:
        expect(wl.check(call, code, out) == [], f"order-5 {call.label} passes its oracle")
    (sweep, _, _, sweep_out), (search, _, _, search_out) = runs

    def bump_caporossi(doc):
        next(r for r in doc["rows"] if r["bound_id"] == "CAPOROSSI")["equality_count"] += 1
    expect(tampered(wl, sweep, sweep_out, bump_caporossi) != [],
           "sweep oracle rejects a wrong CAPOROSSI count")
    expect(tampered(wl, search, search_out, lambda d: d.update(witness_count=2)) != [],
           "search oracle rejects a wrong witness count")
    expect(tampered(wl, search, search_out, lambda d: d.update(value=d["value"] + 1e-8)) != [],
           "search oracle rejects a value off by 1e-8")

    tally = run.Tally()
    metrics = run.traced_round(cli, wl, 0, tally)
    expect(tally.errors == [] and tally.attempted == 4,
           "traced round: 1-worker JSON equals the 2-worker JSON")
    expect(metrics["enumeration.chi_calls"] == 1024 and metrics["batched.graphs"] == 2048,
           "traced round counts 1024 chi calls and 2048 batched graphs")
    expect(set(metrics) == set(Tracer().layer_metrics()) | set(run.POOL_WAITS.values()),
           "traced round yields every per-layer metric")


def check_montecarlo(cli, workdir) -> None:
    # at n = 60 the energy sits ~14% above its leading-order prediction
    wl = Montecarlo(seed=3, workdir=workdir, calls=(("call1", 60, 1, 2), ("call2", 60, 2, 3)),
                    window=(0.9, 1.25))
    runs = outputs(cli, wl)
    for call, code, _, out in runs:
        expect(wl.check(call, code, out) == [], f"{call.label} passes its oracle")
    call, _, _, out = runs[0]

    def nudge(doc):
        doc["values"][1] *= 1.0 + 1e-8
    expect(tampered(wl, call, out, nudge) != [], "montecarlo oracle rejects values off by 1e-8")
    seeds = {derived_seed(3, r, j) for r in range(3) for j in range(2)}
    expect(len(seeds) == 6 and derived_seed(3, 1, 0) == derived_seed(3, 1, 0),
           "each call of each round gets its own program seed")


def check_registry(cli, workdir) -> None:
    from spectranorm import parse_graph6
    subjects = [s for s in registry_subjects(seed=5)
                if s[0] in ("k333", "gnp32", "dft8", "zero_one20x40")]
    for name, kind, a in subjects:
        if kind == "graph":
            g = parse_graph6(graph6(a))
            b = np.zeros_like(a)
            for u, v in g.edges():
                b[u, v] = b[v, u] = 1.0
            expect(np.array_equal(a, b), f"graph6 of {name} decodes to its adjacency matrix")
    wl = Registry(seed=5, workdir=workdir, subjects=subjects, matrix_passes=1)
    wl.write_inputs()
    runs = outputs(cli, wl) + [(call, *run.run_call(cli, call.argv)) for call in wl.round(1)]
    for call, code, _, out in runs:
        expect(wl.check(call, code, out) == [], f"{call.label} passes its oracle")
    by_label = {call.label: (call, out) for call, _, _, out in runs}

    call, out = by_label["check k333 --p 1 --k 1"]

    def unflag(doc):
        next(c for c in doc["checks"] if c["bound_id"] == "CAPOROSSI")["equality"] = False
    expect(tampered(wl, call, out, unflag) != [], "registry oracle needs the CAPOROSSI equality")
    call, out = by_label["check dft8 --p 1 --k 1"]

    def skew(doc):
        next(c for c in doc["checks"] if c["bound_id"] == "SCHATTEN_ABS_MAT")["lhs"] *= 1 + 1e-8
    expect(tampered(wl, call, out, skew) != [], "registry oracle rejects an lhs off by 1e-8")

    attempted, failures = run_scale_group()
    expect(attempted == 5 and len(failures) <= 5,
           f"scale group runs its 5 cases ({len(failures)} fail today)")


def check_result_line() -> None:
    tally = run.Tally()
    tally.attempted, tally.failed = 31, 5
    metrics = {k: 0.5 + i for i, k in enumerate(run.END_TO_END_UNITS)}
    doc = json.loads(run.result_line(True, tally, metrics, run.END_TO_END_UNITS))
    expect(set(doc) == {"correct", "attempted", "failed", "metrics"}
           and set(doc["metrics"]) == set(run.END_TO_END_UNITS)
           and all(set(m) == {"value", "unit"} for m in doc["metrics"].values()),
           "result line has exactly the promised keys")
    bench = json.load(open(f"{run.ROOT}/BENCHMARK.json"))
    expect({m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS),
           "BENCHMARK.json lists the end-to-end metrics the run prints")
    expect({m["name"] for m in bench["per_layer"]}
           == set(Tracer().layer_metrics()) | set(run.POOL_WAITS.values()),
           "BENCHMARK.json lists the per-layer metrics the traced run prints")


def main() -> int:
    cli = run.import_cli()
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as d:
        check_exhaustive(cli, d)
        check_montecarlo(cli, d)
        check_registry(cli, d)
    check_result_line()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

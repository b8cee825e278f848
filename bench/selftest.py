"""Self-test of the benchmark at tiny sizes.

Usage (from the repository root): python3 bench/selftest.py

For every workload it runs one traced repeat at tiny sizes, requires the
oracle to accept the real outputs and to reject each deliberately
corrupted copy (a flipped sign, a dropped level or check), and requires
the metric printer to list every name in BENCHMARK.json.  Exits 1 on
any failure.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

import numpy as np

import run
import oracles
import workloads

FAILURES: list[str] = []


def expect(ok: bool, label: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {label}")
    if not ok:
        FAILURES.append(label)


def _rewrite_csv(path: str, rows: np.ndarray) -> None:
    with open(path) as fh:
        header = fh.readline()
    np.savetxt(path, rows, delimiter=",", header=header.strip(), comments="", fmt="%.17g")


def _corrupted(workload, job, result):
    """(label, corrupt) pairs: corrupt() damages one output in place, and
    resuming the generator restores it."""
    if workload == "revival":
        path = job["autocorr"]["path"]
        rows = oracles.load_csv(path)
        flipped = rows.copy()
        flipped[:, 2] *= -1.0
        yield "autocorr with im(A) sign flipped", lambda: _rewrite_csv(path, flipped)
        _rewrite_csv(path, rows)
        path = job["levels"]["path"]
        rows = oracles.load_csv(path)
        yield "levels with one level dropped", lambda: _rewrite_csv(
            path, np.delete(rows, rows.shape[0] // 2, axis=0))
        _rewrite_csv(path, rows)
    elif workload == "planar":
        path = oracles._WROTE.findall(result["calls"][0]["stdout"])[0][0]
        rows = oracles.load_csv(path)
        n = job["samples"]
        mirrored = rows.copy()
        for col in (2, 3, 4):  # x -> -x: the lump moves to the -x side
            mirrored[:, col] = rows[:, col].reshape(n, n)[:, ::-1].ravel()
        yield "t=0 frame with the sign of x flipped", lambda: _rewrite_csv(path, mirrored)
        _rewrite_csv(path, rows)
    elif workload == "orbit":
        first = result["calls"][0]["rows"]
        later = result["calls"][1]["rows"]

        def flip():
            result["calls"][0]["rows"] = [[-first[0][0], *first[0][1:]]]
        yield "trace with the sign of <x>(0) flipped", flip
        result["calls"][0]["rows"] = first

        def drop():  # a missing level takes its probability out of the norm
            result["calls"][1]["rows"] = [[x, y, 0.9 * norm] for x, y, norm in later]
        yield "trace with one level's norm dropped", drop
        result["calls"][1]["rows"] = later
    else:
        path = oracles.call_output(job["calls"][0])
        with open(path) as fh:
            report = json.load(fh)

        def write(value):
            with open(path, "w") as fh:
                json.dump(value, fh)

        dropped = {**report, "checks": report["checks"][1:]}
        yield "verify report with one check dropped", lambda: write(dropped)
        worse = json.loads(json.dumps(report))
        worse["checks"][0]["max_deviation"] = 10 * worse["checks"][0]["tolerance"]
        yield "verify report with a deviation above tolerance", lambda: write(worse)
        write(report)


def check_workload(workload: str, root: str) -> set[str]:
    workdir = os.path.join(root, workload)
    os.makedirs(workdir)
    job = workloads.make_job(workload, seed=7, workdir=workdir, scale="tiny")
    runner = run.Runner(job, workdir, time.clock_gettime(time.CLOCK_MONOTONIC))
    err = runner.prepare()
    expect(not err, f"{workload}: inputs prepared {err}")
    result, _, err = runner.child("run", trace=True)
    expect(result is not None, f"{workload}: tiny traced repeat ran {err}")
    if result is None:
        return set()
    verdict = oracles.CHECKS[workload](job, result)
    expect(verdict.attempted > 0 and verdict.failed == 0,
           f"{workload}: oracle accepts real outputs {verdict.messages}")
    for label, corrupt in _corrupted(workload, job, result):
        corrupt()
        verdict = oracles.CHECKS[workload](job, result)
        expect(verdict.failed > 0, f"{workload}: oracle rejects {label}")
    return set(result["layers"])


def check_printer(config: dict, layer_names: set[str]) -> None:
    verdicts = [oracles.Verdict(attempted=1)]
    e2e = {m["name"] for m in config["end_to_end"]}
    expect(e2e == set(run.TIMED_METRICS),
           f"end-to-end metrics in BENCHMARK.json match the timed run: {sorted(e2e ^ set(run.TIMED_METRICS))}")
    traced = layer_names | set(run.RUN_LAYER_METRICS)
    per_layer = {m["name"] for m in config["per_layer"]}
    expect(per_layer == traced,
           f"per-layer metrics in BENCHMARK.json match the traced run: {sorted(per_layer ^ traced)}")
    for metrics, names in ((config["end_to_end"], e2e), (config["per_layer"], per_layer)):
        stats = {name: {"median": 1.0, "n": 1} for name in names}
        line, lines = run.format_result(metrics, stats, verdicts)
        printed = json.loads(line)["metrics"]
        expect(set(printed) == names and all(any(ln.startswith(n + " = ") for ln in lines)
                                             for n in names),
               f"printer lists all {len(names)} names")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    root = os.path.join(run.ROOT, ".bench_out", f"selftest-{os.getpid()}")
    layer_names: set[str] = set()
    try:
        for workload in workloads.WORKLOADS:
            names = check_workload(workload, root)
            layer_names = layer_names | names if layer_names else names
    finally:
        shutil.rmtree(root, ignore_errors=True)
    check_printer(config, layer_names)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for cohere.

Usage (from the repository root):

    python3 bench/run.py --workload {revival,planar,orbit,identity} \
        --seed N --seconds S --trace {0,1}

One parent process drives the repeats one at a time (a closed loop with
one client).  Each repeat runs child.py in a fresh interpreter, so the
coupling caches start cold as they do for a CLI user, with the BLAS pools
capped at the number of usable CPUs through COHERE_THREADS.  After each
repeat the parent checks the outputs against the workload's oracle
(oracles.py) and deletes them.

--trace 0 repeats the workload until --seconds is spent and reports the
median of every end-to-end metric in BENCHMARK.json, plus the ungated
wall_s and first_result_s (see TIMED_METRICS).  --trace 1 runs one
untraced and one traced repeat and reports every per-layer metric.  The
last stdout line is the JSON result; a fuller record, with the spread and
sample count of each metric, goes to .bench_out/BENCH_<workload>_s<seed>_t<trace>.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import oracles  # noqa: E402
import workloads  # noqa: E402

MIN_SETUP_SAMPLES = 7
SETUP_PROBE_S = 0.7  # generous estimate of one set-up-only child
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# Gated end-to-end metrics of a timed run.  wall_s and first_result_s are
# measured and printed too, but not gated: on a shared 2-core machine
# their spread over ten seeds reached 0.37 and 0.42 (the host's speed
# drifts by up to 1.8x over minutes), beyond the largest allowed bound.
TIMED_METRICS = ("setup_s", "peak_rss_mb", "passed_share", "oracle_digits")
UNGATED_METRICS = (("wall_s", "s"), ("first_result_s", "s"))
# per-layer metrics the parent adds to the traced child's; the run.* ones
# come from the untraced repeat of the traced run
RUN_LAYER_METRICS = ("cli.import_s", "trace.overhead_s", "run.wall_s", "run.first_result_s")
THREAD_VARS = ("COHERE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["COHERE_THREADS"] = str(len(os.sched_getaffinity(0)))
    # What cohere.cli applies from COHERE_THREADS, set before the child
    # starts so that it also holds for the API-driven orbit workload.
    for var in THREAD_VARS[1:]:
        env.setdefault(var, env["COHERE_THREADS"])
    return env


class Runner:
    """Starts child processes for one run and keeps the run's deadline."""

    def __init__(self, job: dict, workdir: str, started: float):
        self.job = job
        self.workdir = workdir
        self.started = started
        self.env = child_env()
        self.count = 0

    def child(self, mode: str, trace: bool = False) -> tuple[dict | None, float, str]:
        """Run child.py once; returns (result or None, spawn time, error)."""
        self.count += 1
        job_path = os.path.join(self.workdir, f"job{self.count}.json")
        result_path = os.path.join(self.workdir, f"result{self.count}.json")
        with open(job_path, "w") as fh:
            json.dump({**self.job, "mode": mode, "trace": trace, "src": SRC,
                       "workdir": self.workdir}, fh)
        timeout = max(1.0, RUN_LIMIT_S - (_clock() - self.started))
        spawned = _clock()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), job_path, result_path],
            cwd=self.workdir, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            log, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, spawned, f"child timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not os.path.exists(result_path):
            return None, spawned, f"child exited {proc.returncode}: {log.decode()[-2000:]}"
        with open(result_path) as fh:
            return json.load(fh), spawned, ""

    def prepare(self) -> str:
        if "prep" not in self.job:
            return ""
        result, _, err = self.child("prep")
        if result is None or result["status"] != 0:
            return err or f"prep solve failed: {result['status']!r}"
        return ""

    def clean_outputs(self) -> None:
        keep = ("job", "result", "field.desc")
        for name in os.listdir(self.workdir):
            if not name.startswith(keep):
                os.remove(os.path.join(self.workdir, name))


def repeat(runner: Runner, trace: bool = False) -> dict:
    """One timed repeat plus its oracle verdict."""
    result, spawned, err = runner.child("run", trace)
    if result is None:
        return {"ok": False, "error": err, "verdict": _failed_verdict(runner.job, err)}
    try:
        verdict = oracles.CHECKS[runner.job["workload"]](runner.job, result)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        verdict = _failed_verdict(runner.job, f"oracle could not read outputs: {exc!r}")
    runner.clean_outputs()
    setup_end = result["setup_end"]
    return {
        "ok": True,
        "verdict": verdict,
        "setup_s": setup_end - spawned,
        "wall_s": result["last_output"] - setup_end,
        "first_result_s": result["first_output"] - setup_end,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "import_s": result["import_s"],
        "cpu_s": result["cpu_s"],
        "sys_s": result["sys_s"],
        "page_faults": result["page_faults"],
        "preempted": result["preempted"],
        "layers": result.get("layers"),
        "spans": result.get("spans"),
    }


def _failed_verdict(job: dict, message: str) -> oracles.Verdict:
    ops = len(job.get("calls", [])) or 2
    return oracles.Verdict(attempted=ops, failed=ops, worst_error=math.inf, messages=[message])


def setup_sample(runner: Runner) -> float | None:
    result, spawned, _ = runner.child("setup")
    return None if result is None else result["setup_end"] - spawned


def summarize(values: list[float]) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[oracles.Verdict], list]:
    deadline = runner.started + seconds
    reps = []
    longest = 0.0
    while True:
        t0 = _clock()
        reps.append(repeat(runner))
        longest = max(longest, _clock() - t0)
        # leave room for the set-up probes; never start a repeat that
        # cannot finish before the deadline
        probes_left = max(0, MIN_SETUP_SAMPLES - len(reps))
        if _clock() + longest + probes_left * SETUP_PROBE_S > deadline:
            break
    good = [r for r in reps if r["ok"]]
    setups = [r["setup_s"] for r in good]
    while len(setups) < MIN_SETUP_SAMPLES and _clock() - runner.started < RUN_LIMIT_S - 20:
        sample = setup_sample(runner)
        if sample is None:
            break
        setups.append(sample)
    samples = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in good],
        "first_result_s": [r["first_result_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    diagnostics = {key: [r[key] for r in good]
                   for key in ("cpu_s", "sys_s", "page_faults", "preempted")}
    stats = {name: summarize(vals) for name, vals in samples.items()}
    verdicts = [r["verdict"] for r in reps]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    stats["passed_share"] = {"median": (attempted - failed) / attempted, "n": len(reps)}
    stats["oracle_digits"] = {"median": min(v.digits() for v in verdicts), "n": len(reps)}
    return stats, verdicts, {**samples, "diagnostics": diagnostics}


def traced_run(runner: Runner) -> tuple[dict, list[oracles.Verdict], list]:
    plain = repeat(runner)
    traced = repeat(runner, trace=True)
    verdicts = [plain["verdict"], traced["verdict"]]
    if not (plain["ok"] and traced["ok"]):
        return {}, verdicts, []
    layers = dict(traced["layers"])
    layers["cli.import_s"] = traced["import_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["run.wall_s"] = plain["wall_s"]
    layers["run.first_result_s"] = plain["first_result_s"]
    stats = {name: {"median": value, "n": 1} for name, value in layers.items()}
    return stats, verdicts, traced["spans"]


def format_result(metrics: list[dict], stats: dict, verdicts: list) -> tuple[str, list[str]]:
    """(final JSON line, human-readable lines) listing every metric by name."""
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    lines, values = [], {}
    names = {m["name"] for m in metrics}
    ungated = [{"name": n, "unit": u} for n, u in UNGATED_METRICS if n in stats and n not in names]
    for m in metrics + ungated:
        s = stats.get(m["name"], {"median": 0.0, "n": 0})
        spread = f" [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]" if "q1" in s else ""
        note = "" if m["name"] in names else " (not gated)"
        lines.append(f"{m['name']} = {s['median']:.6g} {m['unit']}{spread} (n={s['n']}){note}")
        if m["name"] in names:
            values[m["name"]] = {"value": s["median"], "unit": m["unit"]}
    out = {"correct": failed == 0 and bool(stats), "attempted": max(attempted, 1),
           "failed": failed, "metrics": values}
    return json.dumps(out), lines


def environment(args, config) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": oracles.mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {v: child_env().get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "loop": "closed loop, one client, one child process per repeat",
        "workload_reasons": {w["name"]: w["why"] for w in config["workloads"]},
    }


def git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cohere", "__init__.py")):
        print(f"no cohere sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)

    started = _clock()
    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        job = workloads.make_job(args.workload, args.seed, workdir)
        runner = Runner(job, workdir, started)
        err = runner.prepare()
        if err:
            print(f"input preparation failed: {err}", file=sys.stderr)
            return 2
        if args.trace:
            stats, verdicts, extra = traced_run(runner)
            metrics = config["per_layer"]
        else:
            stats, verdicts, extra = timed_run(runner, args.seconds)
            metrics = config["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    line, lines = format_result(metrics, stats, verdicts)
    stem = f"{args.workload}_s{args.seed}_t{args.trace}"
    record = {
        "workload": args.workload,
        "environment": environment(args, config),
        "metrics": stats,
        "samples": None if args.trace else extra,
        "oracle_messages": [m for v in verdicts for m in v.messages],
        "oracle_worst_errors": [v.worst_error if math.isfinite(v.worst_error) else None
                                for v in verdicts],
        "result": json.loads(line),
        "elapsed_s": _clock() - started,
    }
    with open(os.path.join(out_dir, f"BENCH_{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace and extra:
        with open(os.path.join(out_dir, f"SPANS_{stem}.json"), "w") as fh:
            json.dump(extra, fh)
    for message in record["oracle_messages"]:
        print(f"oracle: {message}", file=sys.stderr)
    print("\n".join(lines))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

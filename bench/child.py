"""One benchmark repeat in a fresh interpreter.

Usage: python3 child.py JOB.json RESULT.json

run.py starts this script once per repeat so that module-level caches
(the Clebsch-Gordan coupling tables) start cold, as they do for a CLI
user.  The job's ``mode`` is "setup" (import and load the inputs, then
stop), "prep" (run ``job["prep"]`` through the CLI, untimed) or "run".
All times are CLOCK_MONOTONIC, which run.py shares, so that set-up is
measured from before this process started.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_cli(main, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = main(argv)
    except Exception as exc:  # a raised call is a failed operation, not a crash
        status = f"raised {type(exc).__name__}: {exc}"
    return status, out.getvalue()


def main() -> int:
    job_path, result_path = sys.argv[1:3]
    with open(job_path) as fh:
        job = json.load(fh)
    import_start = _clock()
    import cohere
    import cohere.cli

    if not os.path.abspath(cohere.__file__).startswith(job["src"] + os.sep):
        print(f"imported cohere from {cohere.__file__}, not {job['src']}", file=sys.stderr)
        return 3
    result = {"import_s": _clock() - import_start}
    if job["mode"] == "prep":
        status, out = _run_cli(cohere.cli.main, job["prep"])
        result.update(status=status, stdout=out)
        return _finish(result, result_path)

    state = None
    if job["workload"] == "orbit":
        import cohere.position
        import cohere.state

        state = cohere.state.read_descriptor(job["descriptor"])
    result["setup_end"] = _clock()
    setup_wall = time.time()
    if job["mode"] == "setup":
        return _finish(result, result_path)

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    calls = []
    if job["workload"] == "orbit":
        for times in (job["times"], job["later_times"]):
            try:
                rows = cohere.position.position_trace(state, times).tolist()
                status = 0
            except Exception as exc:
                rows, status = [], f"raised {type(exc).__name__}: {exc}"
            calls.append({"status": status, "rows": rows, "end": _clock()})
    else:
        for argv in job["calls"]:
            status, out = _run_cli(cohere.cli.main, argv)
            calls.append({"status": status, "stdout": out, "end": _clock()})
    result["calls"] = calls
    result["last_output"] = calls[-1]["end"]
    if "frame_prefix" in job:
        # the first file the grid call wrote, on the file system's clock
        mtimes = [os.stat(os.path.join(job["workdir"], name)).st_mtime_ns / 1e9
                  for name in os.listdir(job["workdir"]) if name.startswith(job["frame_prefix"])]
        result["first_output"] = (
            result["setup_end"] + min(mtimes) - setup_wall if mtimes else calls[0]["end"])
    else:
        result["first_output"] = calls[job["first_call"]]["end"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(peak_rss_kb=usage.ru_maxrss, cpu_s=usage.ru_utime + usage.ru_stime,
                  sys_s=usage.ru_stime, page_faults=usage.ru_minflt,
                  preempted=usage.ru_nivcsw)

    if tracer is not None:
        layers = tracer.layer_metrics()
        layers.update(tracer.reference_probe())
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        result["layers"] = layers
        result["spans"] = [
            {"id": i, "name": s[0], "start": s[1] - origin, "end": s[2] - origin,
             "parent": s[3], **s[4]}
            for i, s in enumerate(tracer.spans)
        ]
    return _finish(result, result_path)


def _finish(result: dict, path: str) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

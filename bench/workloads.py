"""Benchmark workloads: inputs generated from a seed, as child jobs.

A job is a JSON-serializable dict that child.py executes in a fresh
interpreter.  CLI-driven jobs carry a list of ``argv`` lists for
``cohere.cli.main``; the orbit job calls the public position API.  The
program only ever sees the inputs written into the job.

The first result of a workload is its first data product: the first
planar frame file (``frame_prefix``, timed by its modification time), or
the end of call number ``first_call``: the first trace row, the
autocorrelation trace, the first verify report.  The descriptors that
revival's solves write come earlier but take milliseconds, too short to
time steadily on a shared machine.

``scale="tiny"`` shrinks every size so that the self-test can run each
workload and its oracle in seconds; the benchmark always uses "full".
"""
from __future__ import annotations

import math
import os

import numpy as np

WORKLOADS = ("revival", "planar", "orbit", "identity")

# The paper's worked example: alpha = 1/32, <n> = 160, eccentricity 0.385.
REF_ALPHA = 1.0 / 32.0
REF_MEAN = 160.0
REF_ECCENTRICITY = 0.385
# <n> = 20 is the largest mean whose planar grid finishes in seconds.
FIELD_MEAN = 20.0

_SIZES = {
    "full": {
        "scan_points": 32,
        "autocorr_samples": 500_001,
        "refine": 2001,
        "oracle_times": 16,
        "field_mean": FIELD_MEAN,
        "grid_width": 1300.0,
        "grid_samples": 101,
        "orbit_times": 64,
        "verify": ["--n-max", "6", "--su2-max-two-j", "80",
                   "--polar-order", "96", "--azimuthal-count", "192"],
    },
    "tiny": {
        "scan_points": 2,
        "autocorr_samples": 2001,
        "refine": 11,
        "oracle_times": 8,
        "field_mean": 10.0,  # the smallest mean whose packet sits on +x at t = 0
        "grid_width": 240.0,
        "grid_samples": 25,
        "orbit_times": 4,
        "verify": ["--n-max", "2", "--su2-max-two-j", "4",
                   "--polar-order", "8", "--azimuthal-count", "16"],
    },
}


def _num(x: float) -> str:
    return repr(float(x))


def _scan_points(rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
    """(alpha, mean) pairs, log-uniform over alpha in [1/64, 1/4] and
    <n> in [20, 2000], one point per stratum of each axis.

    Stratifying keeps the total solve cost of a scan nearly the same for
    every seed, so the seed moves the points but not the run time.
    """
    u_alpha = (np.arange(count) + rng.random(count)) / count
    u_mean = (rng.permutation(count) + rng.random(count)) / count
    alphas = np.exp(np.log(1 / 64) + u_alpha * (np.log(1 / 4) - np.log(1 / 64)))
    means = np.exp(np.log(20.0) + u_mean * (np.log(2000.0) - np.log(20.0)))
    return [(float(a), float(m)) for a, m in zip(alphas, means)]


def field_descriptor_argv(path: str, scale: str = "full") -> list[str]:
    """The solve that writes the planar/orbit state descriptor (untimed)."""
    mean = _SIZES[scale]["field_mean"]
    return ["solve", "--alpha", _num(REF_ALPHA), "--mean", _num(mean),
            "--eccentricity", _num(REF_ECCENTRICITY), "-o", path]


def make_job(workload: str, seed: int, workdir: str, scale: str = "full") -> dict:
    """The inputs of one workload for one seed; paths live in workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = _SIZES[scale]
    rng = np.random.default_rng(seed)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    job = {"workload": workload, "seed": seed, "scale": scale}

    if workload == "revival":
        ref = path("ref.desc")
        calls = [["solve", "--alpha", _num(REF_ALPHA), "--mean", _num(REF_MEAN),
                  "--eccentricity", _num(REF_ECCENTRICITY), "-o", ref]]
        scan = _scan_points(rng, size["scan_points"])
        for i, (alpha, mean) in enumerate(scan):
            calls.append(["solve", "--alpha", _num(alpha), "--mean", _num(mean),
                          "-o", path(f"scan{i}.desc")])
        calls.append(["autocorr", "--descriptor", ref,
                      "--samples", str(size["autocorr_samples"]),
                      "--refine-near-revivals", str(size["refine"]),
                      "-o", path("autocorr.csv")])
        calls.append(["levels", "--descriptor", ref, "-o", path("levels.csv")])
        job.update(
            calls=calls, first_call=len(calls) - 2, scan=scan,
            ref={"alpha": REF_ALPHA, "mean": REF_MEAN, "tol": 1e-9,
                 "descriptor": ref},
            autocorr={"path": path("autocorr.csv"),
                      "samples": size["autocorr_samples"], "refine": size["refine"],
                      "oracle_times": size["oracle_times"]},
            levels={"path": path("levels.csv"), "window": [144, 176]},
        )
    elif workload == "planar":
        desc = path("field.desc")
        job.update(
            prep=field_descriptor_argv(desc, scale),
            calls=[["grid", "--descriptor", desc, "--width", _num(size["grid_width"]),
                    "--samples", str(size["grid_samples"]), "--format", "csv",
                    "-o", path("frame")]],
            frame_prefix="frame",
            mean=size["field_mean"], eccentricity=REF_ECCENTRICITY,
            width=size["grid_width"], samples=size["grid_samples"], frames=6,
        )
    elif workload == "orbit":
        desc = path("field.desc")
        mean = size["field_mean"]
        period = 2.0 * math.pi * mean**3  # Kepler period at <n>
        times = np.sort(rng.uniform(0.0, period, size["orbit_times"]))
        job.update(
            prep=field_descriptor_argv(desc, scale), descriptor=desc,
            times=[0.0], later_times=times.tolist(), first_call=0,
            mean=mean, eccentricity=REF_ECCENTRICITY,
        )
    else:  # identity
        calls = []
        for name, family in (("exponential", ["--family", "exponential"]),
                             ("stretched", ["--family", "stretched",
                                            "--alpha", _num(REF_ALPHA)])):
            calls.append(["verify", *family, *size["verify"],
                          "-o", path(f"verify_{name}.json")])
        job.update(calls=calls, first_call=0, verify_args=size["verify"])
    return job

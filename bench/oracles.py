"""Output checks for each workload, computed without calling cohere.

Each check returns a ``Verdict``: the operations it judged, those that
failed, the worst relative error against an exact reference (for the
``oracle_digits`` metric) and a message per failure.  Pass/fail-only
checks (a solved mean within its tolerance, a quadrature norm within
1e-3) decide failures but do not enter the error, because their
deviation is a tolerance choice rather than lost precision.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy.special import gammaln, logsumexp

PAPER_REVIVAL_TIME = 1.3726e9
PAPER_SCALE = 2.2e59


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    worst_error: float = 0.0
    messages: list[str] = field(default_factory=list)

    def judge(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok

    def error(self, value: float) -> None:
        self.worst_error = max(self.worst_error, value if math.isfinite(value) else math.inf)

    def digits(self) -> float:
        if self.failed:
            return 0.0
        if self.worst_error == 0.0:
            return 10.0
        return max(0.0, min(10.0, -math.log10(self.worst_error)))


def _fields(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _descriptor(path: str) -> dict[str, str]:
    with open(path) as fh:
        return _fields(fh.read())


def _log_weights(alpha: float, ln_s: float, n: np.ndarray) -> np.ndarray:
    """log of s^(2n) (n+1)^2 / rho_n with rho_n = Gamma((n+1)/alpha)/alpha."""
    return 2.0 * n * ln_s + 2.0 * np.log(n + 1.0) - gammaln((n + 1.0) / alpha) + math.log(alpha)


def principal_mean(alpha: float, ln_s: float, target: float) -> float:
    """Mean principal number n+1 over the whole series, in double precision."""
    n = np.arange(int(3 * target + 200), dtype=float)
    w = _log_weights(alpha, ln_s, n)
    p = np.exp(w - logsumexp(w))
    return float(np.sum((n + 1.0) * p))


def _mp_distribution(alpha: float, ln_s: float, target: float):
    """(principal numbers, probabilities) in mpmath, every term down to e^-100."""
    n = np.arange(int(3 * target + 200), dtype=float)
    w = _log_weights(alpha, ln_s, n)
    keep = np.nonzero(w > w.max() - 100.0)[0]
    levels = list(range(int(keep[0]), int(keep[-1]) + 1))
    a, ls = mpmath.mpf(alpha), mpmath.mpf(ln_s)
    logs = [2 * k * ls + 2 * mpmath.log(k + 1) - mpmath.loggamma((k + 1) / a) + mpmath.log(a)
            for k in levels]
    peak = max(logs)
    weights = [mpmath.exp(x - peak) for x in logs]
    total = mpmath.fsum(weights)
    return [k + 1 for k in levels], [x / total for x in weights]


def _status_ok(verdict: Verdict, call: dict, label: str) -> bool:
    return verdict.judge(call["status"] == 0, f"{label}: exit status {call['status']!r}")


# --- revival ---------------------------------------------------------------


def check_revival(job: dict, result: dict) -> Verdict:
    v = Verdict()
    calls = result["calls"]
    ref = job["ref"]
    with mpmath.workdps(40):
        # reference solve: mean, the paper's scale and revival time
        ref_ok = _status_ok(v, calls[0], "reference solve")
        if ref_ok:
            ref_ok = _check_solve(v, ref["alpha"], ref["mean"], ref["tol"],
                                  ref["descriptor"], calls[0]["stdout"], "reference solve",
                                  paper=True)
        for i, (alpha, mean) in enumerate(job["scan"]):
            call = calls[1 + i]
            if _status_ok(v, call, f"scan solve {i}"):
                path = call_output(job["calls"][1 + i])
                _check_solve(v, alpha, mean, ref["tol"], path, call["stdout"],
                             f"scan solve {i}", paper=False)
        auto_call, level_call = calls[-2], calls[-1]
        if not ref_ok:
            v.judge(False, "autocorr: no valid reference descriptor")
            v.judge(False, "levels: no valid reference descriptor")
            return v
        ln_s = float(_descriptor(ref["descriptor"])["ln_s"])
        levels, probs = _mp_distribution(ref["alpha"], ln_s, ref["mean"])
        if _status_ok(v, auto_call, "autocorr"):
            check_autocorr(v, job, levels, probs, load_csv(job["autocorr"]["path"]))
        if _status_ok(v, level_call, "levels"):
            check_levels(v, job["levels"]["window"], levels, probs,
                         load_csv(job["levels"]["path"]))
    return v


def call_output(argv: list[str]) -> str:
    return argv[argv.index("-o") + 1]


def load_csv(path: str) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _check_solve(v, alpha, target, tol, path, stdout, label, paper) -> bool:
    printed = _fields(stdout)
    ln_s = float(_descriptor(path)["ln_s"])
    mean = principal_mean(alpha, ln_s, target)
    # the program solves on a window that drops a 1e-12 tail
    ok = abs(mean - target) <= (tol + 1e-11) * target
    ok &= abs(float(printed["mean_principal"]) - mean) <= 1e-10 * mean
    t_rev = 2.0 * math.pi / 3.0 * mean**4
    ok &= abs(float(printed["revival_time"]) - t_rev) <= 1e-8 * t_rev
    if paper:
        ok &= abs(t_rev / PAPER_REVIVAL_TIME - 1.0) < 1e-4
        ok &= abs(ln_s - math.log(PAPER_SCALE)) < 0.01
    return v.judge(ok, f"{label}: alpha={alpha!r} target={target!r} gives mean {mean!r}")


def check_autocorr(v: Verdict, job: dict, levels, probs, rows: np.ndarray) -> None:
    spec = job["autocorr"]
    t, re_a, im_a, abs_a, abs_sq = rows.T
    mean = float(mpmath.fsum(n * p for n, p in zip(levels, probs)))
    t_rev = 2.0 * math.pi / 3.0 * mean**4
    peak = np.maximum(np.hypot(re_a, im_a), 1.0)
    shape_ok = (
        spec["samples"] <= t.size <= spec["samples"] + 5 * spec["refine"]
        and t[0] == 0.0 and bool(np.all(np.diff(t) > 0))
        and abs(t[-1] / (1.1 * t_rev) - 1.0) < 1e-9
        and bool(np.all(np.abs(abs_a - np.hypot(re_a, im_a)) <= 1e-12 * peak))
        and bool(np.all(np.abs(abs_sq - abs_a**2) <= 1e-12 * peak))
        and bool(np.all(abs_a <= 1.0 + 1e-12))
    )
    if not v.judge(shape_ok, "autocorr: malformed trace"):
        return
    # the fractional revival times T_r/5 .. T_r plus seeded rows
    rng = np.random.default_rng(job["seed"])
    picks = {int(np.argmin(np.abs(t - f * t_rev))) for f in (0.2, 0.25, 1 / 3, 0.5, 1.0)}
    picks |= set(rng.integers(0, t.size, spec["oracle_times"] - len(picks)).tolist())
    picks.add(0)
    worst = 0.0
    for i in sorted(picks):
        ti = mpmath.mpf(float(t[i]))
        ref = mpmath.fsum(p * mpmath.expj(ti / (2 * n * n)) for n, p in zip(levels, probs))
        # |A(0)| = 1 sets the scale of the error
        worst = max(worst, float(abs(ref - mpmath.mpc(re_a[i], im_a[i]))))
    v.error(worst)
    v.judge(worst < 1e-9, f"autocorr: worst error {worst:.3g} against mpmath")


def check_levels(v: Verdict, window, levels, probs, rows: np.ndarray) -> None:
    n = rows[:, 0].astype(int)
    p = rows[:, 1]
    contiguous = bool(np.all(np.diff(n) == 1))
    ok = contiguous and n[0] == window[0] and n[-1] == window[1]
    ok &= abs(p.sum() - 1.0) < 1e-12
    if not v.judge(ok, f"levels: window {n[0]}..{n[-1]} contiguous={contiguous}"):
        return
    ref = dict(zip(levels, probs))
    worst = max(float(abs(ref[k] - x) / ref[k]) for k, x in zip(n.tolist(), p))
    v.error(worst)
    v.judge(worst < 1e-9, f"levels: worst relative error {worst:.3g} against mpmath")


# --- planar ----------------------------------------------------------------

_WROTE = re.compile(r"^wrote (\S+) \(t=(\S+)\)$", re.M)


def check_planar(job: dict, result: dict) -> Verdict:
    v = Verdict()
    call = result["calls"][0]
    frames = _WROTE.findall(call["stdout"])
    if call["status"] != 0 or len(frames) != job["frames"]:
        for _ in range(job["frames"]):
            v.judge(False, f"grid: status {call['status']!r}, {len(frames)} frames")
        return v
    for path, t in frames:
        check_frame(v, job, path, float(t))
    return v


def check_frame(v: Verdict, job: dict, path: str, t: float) -> None:
    rows = load_csv(path)
    n = job["samples"]
    if not v.judge(rows.shape == (n * n, 5) and bool(np.all(np.isfinite(rows))),
                   f"{path}: {rows.shape} values, expected {n * n} finite rows"):
        return
    axis = np.linspace(-job["width"] / 2.0, job["width"] / 2.0, n)
    x, y, mag, re_psi, im_psi = (c.reshape(n, n) for c in rows.T)
    peak = float(mag.max())
    ok = np.allclose(x, axis[None, :], rtol=0, atol=1e-9 * job["width"]) \
        and np.allclose(y, axis[:, None], rtol=0, atol=1e-9 * job["width"]) \
        and peak > 0 and bool(np.all(np.abs(mag - np.hypot(re_psi, im_psi)) <= 1e-12 * peak))
    if not v.judge(ok, f"{path}: axes or |psi| inconsistent"):
        return
    if t != 0.0:
        return
    # t = 0: real angular parameters make |psi(x, -y)| = |psi(x, y)|
    # (at t != 0 the mirror image is the frame at -t, which is not run)
    mirror = float(np.max(np.abs(mag - mag[::-1, :]))) / peak
    v.error(mirror)
    iy, ix = np.unravel_index(int(np.argmax(mag)), mag.shape)
    step = axis[1] - axis[0]
    perihelion = job["mean"] ** 2 * (1.0 - job["eccentricity"])
    lump = x[iy, ix] > 0 and abs(y[iy, ix]) <= 1.5 * step \
        and abs(math.hypot(x[iy, ix], y[iy, ix]) / perihelion - 1.0) < 0.25
    v.judge(mirror < 1e-12 and lump,
            f"{path}: mirror error {mirror:.3g}, peak at ({x[iy, ix]}, {y[iy, ix]}) "
            f"vs perihelion {perihelion:.4g} on +x")


# --- orbit -----------------------------------------------------------------


def check_orbit(job: dict, result: dict) -> Verdict:
    v = Verdict()
    scale = job["mean"] ** 2
    for call, times in zip(result["calls"], (job["times"], job["later_times"])):
        if not _status_ok(v, call, "position_trace"):
            continue
        rows = np.asarray(call["rows"], dtype=float).reshape(-1, 3)
        norm_err = np.abs(rows[:, 2] - 1.0)
        reach = np.hypot(rows[:, 0], rows[:, 1]) / scale
        ok = rows.shape[0] == len(times) and bool(np.all(np.isfinite(rows)))
        ok = ok and bool(np.all(norm_err <= 1e-3)) and bool(np.all(reach <= 2.0))
        if ok:
            v.error(float(norm_err.max()))
        if ok and times[0] == 0.0:
            # perihelion on +x: <x>(0) > 0 and <y>(0) = 0
            ok = rows[0, 0] > 0
            v.error(abs(rows[0, 1]) / scale)
            ok = ok and abs(rows[0, 1]) <= 1e-9 * scale
        v.judge(ok, f"position_trace at {len(times)} times: rows {rows[:2].tolist()}")
    return v


# --- identity --------------------------------------------------------------

IDENTITY_CHECKS = {
    "spin multiplet resolution", "radial moment identity",
    "combined identity (exact-limit phase average)", "finite-window off-diagonal bound",
}


def check_identity(job: dict, result: dict) -> Verdict:
    v = Verdict()
    for argv, call in zip(job["calls"], result["calls"]):
        if not _status_ok(v, call, "verify"):
            continue
        with open(call_output(argv)) as fh:
            report = json.load(fh)
        checks = report.get("checks", [])
        ok = report.get("passed") is True and {c["name"] for c in checks} == IDENTITY_CHECKS
        ok = ok and all(c["passed"] is True and c["max_deviation"] <= c["tolerance"]
                        for c in checks)
        sizes = dict(zip(job["verify_args"][::2], job["verify_args"][1::2]))
        truncations = {c["truncation"] for c in checks}
        ok = ok and f"2j <= {sizes['--su2-max-two-j']}" in truncations \
            and f"levels <= {sizes['--n-max']}" in truncations
        if ok:
            v.error(max(c["max_deviation"] for c in checks))
        v.judge(ok, f"verify {argv[1:4]}: report {json.dumps(checks)[:300]}")
    return v


CHECKS = {
    "revival": check_revival,
    "planar": check_planar,
    "orbit": check_orbit,
    "identity": check_identity,
}

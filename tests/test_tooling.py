"""The benchmark's tracer and oracles must match what the package exposes."""
import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np

from cohere import cli, position
from cohere.identity import standard_verification
from cohere.state import build_state, solve_scale_ln
from cohere.su2 import coupling_matrix
from cohere.weights import WeightSpec, _gauss_legendre

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the defining module here
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_binding_resolves():
    wrapped = load_bench("spans").WRAPPED
    assert wrapped
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_wrapped_names_are_module_bindings_only():
    # bench/spans.py wraps them in their modules; the package exports neither
    import cohere
    assert not hasattr(cohere, "truncation_level") and not hasattr(cohere, "so4_to_spherical")


def test_traced_orbit_run_reports_its_quadrature(monkeypatch):
    spans = load_bench("spans")
    for module, attr, _ in spans.WRAPPED:  # monkeypatch restores every binding afterwards
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = spans.Tracer()
    tracer.install()
    state = build_state(WeightSpec(0.25), 0.0,
                        position.ellipse_to_angular(0.385), ln_s=solve_scale_ln(0.25, 3.0))
    rows = position.position_trace(state, [0.0, 1.0, 2.0])  # as the orbit workload calls it
    assert rows.shape == (3, 3)
    [trace] = [s for s in tracer.spans if s[0] == "position.position_trace"]
    assert trace[4]["times"] == 3
    quad = position.SpatialQuadrature.for_levels(int(state.coeffs.levels.max()))
    nodes = quad.r_nodes.size * quad.cos_nodes.size * quad.n_phi
    assert tracer.layer_metrics()["position.quadrature.nodes"] == nodes > 0
    probe = tracer.reference_probe()  # one uncached reference-level coupling table
    assert probe["su2.coupling_matrix.ref_table_s"] > 0
    assert probe["su2.cg.ref_frame_evals"] > 0


def test_no_src_path_looks_up_a_coupling_table():
    # recoupling is in closed form; the tables are only the tests' reference
    before = coupling_matrix.cache_info()
    state = build_state(WeightSpec(0.25), 0.0,
                        position.ellipse_to_angular(0.385), ln_s=solve_scale_ln(0.25, 3.0))
    frames = list(position.field_frames(state, position.GridSpec(width=40.0, samples=9), [0.0, 1.0]))
    rows = position.position_trace(state, [0.0, 1.0])
    assert len(frames) == 2 and rows.shape == (2, 3)
    after = coupling_matrix.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def test_gauss_legendre_rule_needs_no_eigensolver(monkeypatch):
    # the rule's nodes start from Tricomi's closed form, not from numpy's
    # Golub-Welsch leggauss or any eigenvalue solve
    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvalue-based rule was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    nodes, weights = _gauss_legendre.__wrapped__(400)
    assert nodes.size == 400 and abs(weights.sum() - 2.0) <= 1e-14
    _gauss_legendre.cache_clear()
    try:
        results = standard_verification(n_max=2, su2_max_two_j=8, polar_order=12, azimuthal_count=24)
        state = build_state(WeightSpec(0.25), 0.0,
                            position.ellipse_to_angular(0.385), ln_s=solve_scale_ln(0.25, 3.0))
        rows = position.position_trace(state, [0.0, 1.0])
    finally:
        _gauss_legendre.cache_clear()
    assert all(r.passed for r in results) and rows.shape == (2, 3)


def test_traced_cli_writers_report_their_file_sizes(monkeypatch, tmp_path):
    spans = load_bench("spans")
    for module, attr, _ in spans.WRAPPED:
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = spans.Tracer()
    tracer.install()
    desc, trace = tmp_path / "state.desc", tmp_path / "trace.csv"
    assert cli.main(["solve", "--alpha", "0.25", "--mean", "3", "-o", str(desc)]) == cli.EXIT_OK
    assert cli.main(["autocorr", "--descriptor", str(desc), "--samples", "50",
                     "-o", str(trace)]) == cli.EXIT_OK
    assert cli.main(["grid", "--descriptor", str(desc), "--width", "20", "--samples", "5",
                     "--times", "0,1", "--format", "csv",
                     "-o", str(tmp_path / "frame")]) == cli.EXIT_OK
    frames = [tmp_path / f"frame_t{i}.csv" for i in range(2)]

    def written(name, command):
        # each writer span sits under the command that called it by its module binding
        found = [s for s in tracer.spans if s[0] == name]
        assert all(tracer.spans[s[3]][0] == command for s in found)
        return [s[4]["bytes"] for s in found]

    assert written("state.write_trace_csv", "cli.autocorr") == [trace.stat().st_size]
    assert written("position.write_field_csv", "cli.grid") == [f.stat().st_size for f in frames]
    metrics = tracer.layer_metrics()
    assert metrics["state.write_trace_csv.bytes"] == trace.stat().st_size
    assert metrics["position.write_field_csv.bytes"] == sum(f.stat().st_size for f in frames)


def test_per_layer_names_are_the_traced_names(monkeypatch):
    monkeypatch.setattr(sys, "path", [*sys.path])  # run.py prepends bench/
    spans, run = load_bench("spans"), load_bench("run")
    for module, attr, _ in spans.WRAPPED:
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = spans.Tracer()
    tracer.install()
    traced = {*tracer.layer_metrics(), *tracer.reference_probe(), *run.RUN_LAYER_METRICS}
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in config["per_layer"]} == traced


def test_identity_report_matches_the_oracle():
    oracles = load_bench("oracles")
    results = standard_verification(n_max=2, su2_max_two_j=3, polar_order=6, azimuthal_count=8)
    assert {r.name for r in results} == oracles.IDENTITY_CHECKS
    truncations = {r.truncation for r in results}
    # the oracle looks up the spin and level truncations in exactly this form
    assert {"2j <= 3", "levels <= 2"} <= truncations
    assert all(re.fullmatch(r"(2j|n|levels) <= \d+", t) for t in truncations)

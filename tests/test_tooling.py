"""The benchmark's tracer and oracles must match what the package exposes."""
import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

from cohere import position
from cohere.identity import standard_verification
from cohere.state import build_state, solve_scale_ln
from cohere.weights import WeightSpec

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


def test_traced_orbit_run_reports_its_quadrature(monkeypatch):
    spans = load_bench("spans")
    for module, attr, _ in spans.WRAPPED:  # monkeypatch restores every binding afterwards
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = spans.Tracer()
    tracer.install()
    state = build_state(WeightSpec.stretched(0.25), None, 0.0,
                        position.ellipse_to_angular(0.385, 3), ln_s=solve_scale_ln(0.25, 3.0))
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
    results = standard_verification(n_max=2, su2_max_two_j=3, polar_order=6,
                                    azimuthal_count=8, gamma_halfwidths=(1e3,))
    assert {r.name for r in results} == oracles.IDENTITY_CHECKS
    truncations = {r.truncation for r in results}
    # the oracle looks up the spin and level truncations in exactly this form
    assert {"2j <= 3", "levels <= 2"} <= truncations
    assert all(re.fullmatch(r"(2j|n|levels) <= \d+", t) for t in truncations)

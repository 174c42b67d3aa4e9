"""perfbench wraps package functions by name from outside the package
(perfbench/layers.py); a renamed or re-signed target would leave its
per-layer rows empty without failing the benchmark's own tests."""

import importlib
from pathlib import Path

from fracimage import quadrature

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_perfbench_hook_resolves_and_sees_a_quadrature(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    real = quadrature.quad_endpoint_singular
    tracer = layers.Tracer()
    try:
        assert layers.install(tracer) == []
        # a weight no other test uses, so its rule is built under the tracer
        res = quadrature.quad_endpoint_singular(lambda u: u, 0.3125, -0.6875)
        names = {name for name, _, _, _ in tracer.spans()}
        assert {"quadrature.rule_builds", "quadrature.quad_endpoint_singular"} <= names
        assert tracer.counters["quadrature.nodes_accepted"] == res.nodes
        assert tracer.counters["quadrature.nodes_evaluated"] == res.nodes
    finally:
        tracer.uninstall()
    assert quadrature.quad_endpoint_singular is real

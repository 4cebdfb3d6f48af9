"""The benchmark's tracer must find every function it times.

`perfbench/tracing.py` wraps library functions by name; a renamed or
removed one would otherwise show up only as a crashed traced benchmark run.
"""
import sys
from pathlib import Path

import numpy as np

from pinninglab import quenched, renewal
from pinninglab.quenched import QuenchedConfig


def test_tracer_bindings_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    for layer in tracing.LAYERS:
        assert layer.attr in vars(layer.owner), f"{layer.name}: no {layer.attr}"
    originals = [vars(layer.owner)[layer.attr] for layer in tracing.LAYERS]
    owners = [layer.owner for layer in tracing.LAYERS]
    owners += [m for n, m in sys.modules.items()
               if n == "pinninglab" or n.startswith("pinninglab.")]
    before = [(owner, dict(vars(owner))) for owner in owners]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for layer, original in zip(tracing.LAYERS, originals):
            assert vars(layer.owner)[layer.attr] is not original, f"{layer.name} not wrapped"
        law = renewal.make_power_law(0.5, 16)
        quenched.log_partition_profile(QuenchedConfig(law=law, beta=0.5, h=0.1, N=8),
                                       np.zeros(8))
        renewal.green_function(law, 8)
        spans, calls = tracer.take()
    finally:
        tracer.uninstall()

    for owner, attrs in before:
        assert all(vars(owner)[key] is value for key, value in attrs.items())
    counts = tracing.call_counts(spans, calls)
    for name in ("quenched.dp", "numerics.logsumexp", "renewal.green"):
        assert counts[name] > 0, f"{name} recorded no calls"

"""The benchmark's tracer must find every function it times, and the
library calls the benchmark makes directly must still run.

`perfbench/tracing.py` wraps library functions by name, and
`perfbench/workloads.py` calls a few outside `experiments.run`; a renamed or
removed one would otherwise show up only as a crashed benchmark run.
"""
import math
import sys
from pathlib import Path

import numpy as np

from pinninglab import hiermc, quenched, renewal
from pinninglab.hierarchy import B_CRITICAL, HierParams
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
        # positional, as clt-check calls it: the layer's work function reads argument 0
        quenched.w_statistic(renewal.sample_path(law, 16, np.random.default_rng(0), size=3), 16)
        spans, calls = tracer.take()
    finally:
        tracer.uninstall()

    for owner, attrs in before:
        assert all(vars(owner)[key] is value for key, value in attrs.items())
    counts = tracing.call_counts(spans, calls)
    for name in ("quenched.dp", "numerics.logsumexp", "renewal.green", "quenched.w_statistic"):
        assert counts[name] > 0, f"{name} recorded no calls"


def test_tracer_sees_the_decomposition_check(monkeypatch):
    # decomposition-check is the only renewal-paths job that reaches the
    # coarse-grained terms and log_partition_profile: a rename or a bypass of
    # either must fail here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    cfg = QuenchedConfig(law=renewal.make_power_law(0.5, 16), beta=0.5, h=0.1, N=6)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        quenched.decomposition_residual(cfg, np.random.default_rng(0).standard_normal(6), 3)
        spans, calls = tracer.take()
    finally:
        tracer.uninstall()

    counts = tracing.call_counts(spans, calls)
    assert counts["quenched.coarse_grain"] == 1
    assert counts["quenched.dp"] == 1


def test_tracer_counts_every_leaf_of_a_blocked_pool(monkeypatch):
    # the pool calls the recursion once per block of rows: the leaves of
    # all blocks must sum to samples x 2^n, under one pool call
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    n, samples = 12, 40   # blocks of 16, 16 and 8 rows
    tracer = tracing.Tracer()
    tracer.install()
    try:
        hiermc.pool_free_energy(HierParams(B=B_CRITICAL, beta=1.0, h=0.1), n, samples,
                                np.random.default_rng(0))
        spans, calls = tracer.take()
    finally:
        tracer.uninstall()

    counts = tracing.call_counts(spans, calls)
    assert counts["hiermc.pool"] == 1
    assert counts["hierarchy.recursion"] == 3
    metrics = tracing.layer_metrics(spans, calls)
    assert metrics["hierarchy.recursion.leaves"] == samples * 2**n


def test_workload_direct_calls_run(monkeypatch):
    # every job list and set-up, plus the two jobs that call the library directly
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    for name, build in workloads.WORKLOADS.items():
        assert build(0), f"{name}: no jobs"
        assert workloads.setup(name), f"{name}: empty set-up"
    mean, se = workloads._density_norm(0, rows=64)
    assert math.isfinite(mean) and se > 0.0
    arms = workloads._tilted_arms(0)
    assert math.isfinite(arms.disorder_mc.mean) and math.isfinite(arms.renewal_mc.mean)

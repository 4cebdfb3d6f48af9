"""In-memory span tracer for the benchmark's traced passes.

`Tracer.install` wraps the traced pinninglab functions at every binding
that holds them: the defining module's attribute and each `from`-import
alias in another module (quenched binds logsumexp_1d, green_function,
sample_path, conditioning_ratio, homogeneous_free_energy and
sample_tilted_batch that way). Each
call records one span [name, start, end, parent, work], where work is the
call's count of layer work units (leaves, cells, pairs, ...). The
logsumexp binding only counts calls: it runs hundreds of thousands of
times per pass. `layer_metrics` turns one pass's spans into the per-layer
metrics; self time is a span's duration minus its direct children's.
"""
from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from pinninglab import (experiments, gaussian, hierarchy, hiermc, numerics, quenched,
                        records, renewal)


def _dp_cells(cfg) -> int:
    """sum over sites n = 1..N of the band width min(n, n_max)."""
    N, band = cfg.N, cfg.law.n_max
    if N <= band:
        return N * (N + 1) // 2
    return band * (band + 1) // 2 + (N - band) * band


def _path_pairs(path, L) -> int:
    p = int(np.count_nonzero((path.points >= 1) & (path.points <= L)))
    return p * (p - 1) // 2


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


@dataclass(frozen=True)
class Layer:
    name: str
    owner: object            # module or class that defines the function
    attr: str
    work: Callable | None = None   # (args, kwargs, result) -> {unit: count}


LAYERS = [
    Layer("hierarchy.recursion", hierarchy, "hier_log_partition_batch",
          lambda a, k, r: {"leaves": int(np.size(_arg(a, k, 2, "omega")))}),
    Layer("hierarchy.cascade", hierarchy, "gw_overlap_samples",
          lambda a, k, r: {"realizations": int(_arg(a, k, 3, "size")),
                           "alive_leaves": int(r[1].sum())}),
    Layer("gaussian.tilt", gaussian, "sample_tilted_batch",
          lambda a, k, r: {"leaves": int(r.size)}),
    Layer("gaussian.density_ratio", gaussian, "density_ratio",
          lambda a, k, r: {"rows": 1 if np.ndim(_arg(a, k, 0, "omega")) == 1
                           else int(np.shape(_arg(a, k, 0, "omega"))[0])}),
    Layer("hiermc.tilted_mean", hiermc, "tilted_mean"),
    Layer("hiermc.certify", hiermc, "certify_delocalization",
          lambda a, k, r: {"infeasible": int(r.verdict == "infeasible-at-paper-constants")}),
    Layer("hiermc.pool", hiermc, "pool_free_energy"),
    Layer("quenched.dp", quenched, "log_partition_profile",
          lambda a, k, r: {"cells": _dp_cells(_arg(a, k, 0, "cfg"))}),
    Layer("numerics.logsumexp", numerics, "logsumexp_1d"),
    Layer("quenched.coarse_grain", quenched, "log_coarse_grain_term",
          lambda a, k, r: {"terms": 1}),
    Layer("quenched.w_statistic", quenched, "w_statistic",
          lambda a, k, r: {"paths": 1, "pairs": _path_pairs(_arg(a, k, 0, "path"),
                                                            _arg(a, k, 1, "L"))}),
    Layer("quenched.u_weight_table", quenched, "u_weight_table"),
    Layer("quenched.chung_erdos", quenched, "chung_erdos_check"),
    Layer("renewal.green", renewal, "green_function",
          lambda a, k, r: {"entries": int(r.u.size)}),
    Layer("renewal.sample_path", renewal, "sample_path",
          lambda a, k, r: {"paths": 1, "points": int(r.points.size)}),
    Layer("renewal.conditioning_ratio", renewal, "conditioning_ratio"),
    Layer("renewal.free_energy", renewal, "homogeneous_free_energy"),
    Layer("experiments.run", experiments, "run"),
    Layer("records.write", records, "write_csv",
          lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    Layer("records.write", records.RunRecord, "write",
          lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
]


COUNT_ONLY = {"numerics.logsumexp"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def take(self) -> tuple[list[list], Counter]:
        """The spans and call counts since the last take; starts afresh."""
        spans, calls = self.spans, Counter(self.calls)
        self.spans = []
        self.calls.clear()
        return spans, calls

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pinninglab" or n.startswith("pinninglab.")]
        for layer in LAYERS:
            original = vars(layer.owner)[layer.attr]
            wrapper = (self._counter(layer, original) if layer.name in COUNT_ONLY
                       else self._spanner(layer, original))
            owners = [layer.owner] + [m for m in modules if m is not layer.owner]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _counter(self, layer: Layer, fn):
        calls, name = self.calls, layer.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanner(self, layer: Layer, fn):
        stack, name, work = self._stack, layer.name, layer.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result
        return wrapper


# per layer, the metric suffixes reported; "<unit>_per_s" is a work count
# over the layer's busy time
REPORTED = [
    ("hierarchy.recursion", ["leaves", "busy_s", "leaves_per_s"]),
    ("hierarchy.cascade", ["realizations", "alive_leaves", "busy_s", "realizations_per_s"]),
    ("gaussian.tilt", ["leaves", "busy_s", "leaves_per_s"]),
    ("gaussian.density_ratio", ["rows", "busy_s", "rows_per_s"]),
    ("hiermc.tilted_mean", ["busy_s", "self_s", "disorder_arm_s", "renewal_arm_s"]),
    ("hiermc.certify", ["gating_share"]),
    ("hiermc.pool", ["busy_s", "self_s"]),
    ("quenched.dp", ["calls", "cells", "busy_s", "cells_per_s"]),
    ("numerics.logsumexp", ["calls"]),
    ("quenched.coarse_grain", ["terms", "busy_s", "terms_per_s"]),
    ("quenched.w_statistic", ["paths", "pairs", "busy_s", "pairs_per_s"]),
    ("quenched.u_weight_table", ["busy_s"]),
    ("quenched.chung_erdos", ["busy_s"]),
    ("renewal.green", ["calls", "busy_s", "entries_per_s"]),
    ("renewal.sample_path", ["paths", "busy_s", "points_per_s"]),
    ("renewal.conditioning_ratio", ["busy_s"]),
    ("renewal.free_energy", ["busy_s"]),
    ("experiments.run", ["self_s"]),
    ("records.write", ["bytes", "busy_s"]),
]

_UNITS = {"gating_share": "ratio", "bytes": "B"}


def unit_of(suffix: str) -> str:
    if suffix.endswith("_per_s"):
        return "1/s"
    if suffix.endswith("_s"):
        return "s"
    return _UNITS.get(suffix, "count")


def layer_metrics(spans: list[list], counted: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    busy_s counts only the outermost span of a name, so nesting cannot
    double it. The tilted mean's disorder arm is its tilt and recursion
    children, its renewal arm its cascade children. gating_share is the
    renewal-arm time of certifications that reached a verdict over all
    certification time.
    """
    dur = [s[2] - s[1] for s in spans]
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def child_time(i: int, names) -> float:
        return sum(dur[c] for c in children[i] if spans[c][0] in names)

    calls, busy, self_s, work = call_counts(spans, counted), Counter(), Counter(), {}
    for i, s in enumerate(spans):
        name = s[0]
        self_s[name] += dur[i] - sum(dur[c] for c in children[i])
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += dur[i]
        if s[4]:
            work.setdefault(name, Counter()).update(s[4])
        if name == "hiermc.tilted_mean":
            work.setdefault(name, Counter()).update({
                "disorder_arm_s": child_time(i, ("gaussian.tilt", "hierarchy.recursion")),
                "renewal_arm_s": child_time(i, ("hierarchy.cascade",))})
        if name == "hiermc.certify" and not s[4]["infeasible"]:
            work[name]["gating_s"] += sum(child_time(t, ("hierarchy.cascade",))
                                          for t in children[i]
                                          if spans[t][0] == "hiermc.tilted_mean")
    out = {}
    for layer, suffixes in REPORTED:
        w = work.get(layer, Counter())
        for suffix in suffixes:
            if suffix == "busy_s":
                v = busy[layer]
            elif suffix == "self_s":
                v = self_s[layer]
            elif suffix == "calls":
                v = calls[layer]
            elif suffix == "gating_share":
                v = w["gating_s"] / busy[layer] if busy[layer] else 0.0
            elif suffix.endswith("_per_s"):
                unit = suffix[: -len("_per_s")]
                v = w[unit] / busy[layer] if busy[layer] else 0.0
            else:
                v = w[suffix]
            out[f"{layer}.{suffix}"] = float(v)
    return out


def call_counts(spans: list[list], counted: Counter) -> Counter:
    calls = Counter(counted)
    calls.update(s[0] for s in spans)
    return calls

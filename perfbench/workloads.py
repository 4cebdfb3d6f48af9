"""The benchmark's workloads: jobs, their output checks and their set-up.

A workload is a list of jobs run once per pass. A job is either an
experiment config run through `experiments.run`, with its record and CSVs
written under the pass directory, or a direct library oracle. Each job
names its checks; a check maps the job's result to (passed, value). A job
that raises fails every one of its checks, and its completion check.
Diagnostics map the result to a value that is reported, not gated.

Tolerances are the acceptance suite's. README.md says why each workload
exists and which checks were placed or left out, and why.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from pinninglab import experiments, gaussian, hiermc, quenched, renewal
from pinninglab.hierarchy import B_CRITICAL, HierParams
from pinninglab.numerics import derive_rng
from pinninglab.records import ExperimentConfig

Check = Callable[[Any], tuple[bool, Any]]


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[Path], Any]
    checks: dict[str, Check]
    config: dict | None = None          # the experiment config, for the record
    diagnostics: dict[str, Callable[[Any], Any]] = field(default_factory=dict)


def _experiment(name: str, config: dict, checks: dict[str, Check],
                diagnostics: dict | None = None) -> Job:
    cfg = ExperimentConfig.from_dict(config)
    return Job(name, lambda out: experiments.run(cfg, out / name), checks,
               config, diagnostics or {})


def _est(rec, key: str) -> float:
    return rec.estimates[key]["value"]


def _cert(rec) -> dict:
    return rec.notes["certificate"]


def _flag(key: str) -> Check:
    return lambda rec: (bool(rec.flags[key]), rec.flags[key])


def _flag_value(key: str) -> Callable[[Any], Any]:
    return lambda rec: rec.flags[key]


# A Monte Carlo test at 3 sigma whose null can hold on correct code fails on
# a few seeds in a thousand. Run over arbitrary seeds, such tests would fail
# correct code, so their outcomes are diagnostics, not checks: the arm
# agreement, the density normalization and the Jensen flags (whose gap is
# zero in the delocalized phase, at h = -0.2 and h = -0.3).

# --- certify ------------------------------------------------------------

TUNED = {"zeta_override": 0.08, "gamma_override": 0.5,
         "epsilon_override": 0.09, "n_override": 16}


def _margin_b(rec) -> float:
    c = _cert(rec)
    return (c["condition_b_threshold"] - c["condition_b_mean"]) / c["condition_b_stderr"]


def _tilted_arms(seed: int):
    # a grid point of the unit tests where the disorder arm has a finite
    # second moment (2^n (beta^2 - log 2) < 0), so its SE means something
    n, beta, eps = 6, 0.5, 0.1
    params = HierParams(B=B_CRITICAL, beta=beta, h=0.01 * 2.0**-n)
    return hiermc.tilted_mean(params, n, eps, 40_000, derive_rng(seed, "bench-arms"),
                              disorder_samples=40_000)


def _arms_z(tm) -> float:
    gap = tm.disorder_mc.mean - tm.renewal_mc.mean
    return gap / math.hypot(tm.disorder_mc.std_error, tm.renewal_mc.std_error)


def _density_norm(seed: int, rows: int = 20_000) -> tuple[float, float]:
    """crit_08's normalization check: one density_ratio call per iid row."""
    spec = gaussian.factorize(gaussian.build_hier_coupling(4))  # dim 16
    om = derive_rng(seed, "bench-density").standard_normal((rows, spec.dim))
    vals = np.empty(rows)
    for i in range(rows):
        vals[i] = math.exp(gaussian.density_ratio(om[i], spec, 0.3))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(rows))


def certify(seed: int) -> list[Job]:
    base = {"experiment": "hier-certify", "seed": seed, "beta": 1.0}
    return [
        _experiment("certify-paper",
                    {**base, "samples": 4_000, "disorder_samples": 24},
                    {"paper_verdict_infeasible": lambda r: (
                        _cert(r)["verdict"] == "infeasible-at-paper-constants",
                        _cert(r)["verdict"])}),
        _experiment("certify-tuned",
                    {**base, "samples": 10_000, "disorder_samples": 400, **TUNED},
                    {"tuned_verdict_pass": lambda r: (_cert(r)["verdict"] == "pass",
                                                      _cert(r)["verdict"]),
                     "tuned_condition_a": lambda r: (bool(_cert(r)["condition_a_pass"]),
                                                     _cert(r)["condition_a_value"]),
                     "tuned_condition_b_3sigma": lambda r: (_margin_b(r) >= 3.0,
                                                            _margin_b(r))}),
        Job("tilted-arms", lambda out: _tilted_arms(seed), {},
            diagnostics={"arms_z": _arms_z}),
        Job("density-norm", lambda out: _density_norm(seed), {},
            diagnostics={"density_norm_z": lambda r: (r[0] - 1.0) / r[1]}),
    ]


# --- iid-pools ----------------------------------------------------------

def _dp_green_gap(N: int = 10_000) -> float:
    """crit_06's oracle: the zero-disorder DP against the Green table."""
    law = renewal.make_power_law(0.5, N)
    table = renewal.green_function(law, N)
    cfg = quenched.QuenchedConfig(law=law, beta=0.0, h=0.0, N=N)
    profile = quenched.log_partition_profile(cfg, np.zeros(N))
    return float(np.max(np.abs(profile - np.log(table.u))))


def iid_pools(seed: int) -> list[Job]:
    jobs = [_experiment("quenched-scan", {
        "experiment": "quenched-scan", "seed": seed, "alpha": 0.5, "n_max": 2_000,
        "N": 1_200, "samples": 8, "beta_list": [0.5, 1.0],
        "h_list": [-0.3, 0.0, 0.2, 0.5, 1.0, 2.0]},
        {}, {"jensen_ok": _flag_value("jensen_ok")})]
    for beta in (0.5, 1.0, 1.5):
        jobs.append(_experiment(f"pool-beta{beta}", {
            "experiment": "hier-free-energy", "seed": seed, "B": B_CRITICAL,
            "beta": beta, "n": 12, "samples": 300, "h_grid": [-0.2, 0.1, 0.3, 0.6]},
            {}, {"jensen_ok": _flag_value("jensen_ok")}))
    jobs.append(Job("dp-vs-green", lambda out: _dp_green_gap(),
                    {"dp_green_gap_1e-10": lambda gap: (gap <= 1e-10, gap)}))
    return jobs


# --- renewal-paths ------------------------------------------------------

def _green_ratio(rec) -> tuple[bool, float]:
    ratio = _est(rec, "asymptotic_ratio_at_N")
    return 0.95 <= ratio <= 1.05, ratio


def renewal_paths(seed: int) -> list[Job]:
    jobs = [
        _experiment("clt-check", {
            "experiment": "clt-check", "seed": seed, "alpha": 0.5, "n_max": 20_000,
            "L_exact": 10_000, "L_w": 100_000, "w_samples": 4_000},
            {"w_mean_10pct": lambda r: (
                abs(_est(r, "w_mean") / r.baselines["w_mean_limit"] - 1.0) <= 0.1,
                _est(r, "w_mean") / r.baselines["w_mean_limit"] - 1.0),
             "chung_erdos_5pct": lambda r: (
                abs(_est(r, "weighted_mean_over_log")
                    / r.baselines["weighted_mean_limit"] - 1.0) <= 0.05,
                _est(r, "weighted_mean_over_log") / r.baselines["weighted_mean_limit"] - 1.0)},
            # KS against the limit law carries an O(1/log L) finite-size bias
            # of about 0.09 at L = 1e5, so "< 0.1" fails on some seeds: reported only
            {"ks_distance": lambda r: _est(r, "ks_distance")}),
        _experiment("lemma51-scan", {
            "experiment": "lemma51-scan", "seed": seed, "alpha": 0.5, "n_max": 4_096,
            "beta": 1.0, "gamma": 0.75, "h_list": [0.1, 0.01, 0.001],
            "samples": 4_000, "cond_horizon": 1_000},
            {"eta_decreasing": _flag("eta_decreasing")}),
        _experiment("decomposition-check", {
            "experiment": "decomposition-check", "seed": seed, "alpha": 0.5,
            "n_max": 256, "trials": 100, "k_max": 5, "max_blocks": 6},
            {"decomposition_1e-10": lambda r: (
                _est(r, "max_relative_residual") <= 1e-10,
                _est(r, "max_relative_residual"))}),
    ]
    # one Green table on each side of renewal.FFT_SWITCH (20 000)
    for N in (15_000, 30_000):
        jobs.append(_experiment(f"renewal-green-{N}", {
            "experiment": "renewal-green", "seed": seed, "alpha": 0.5, "n_max": N,
            "N": N, "checkpoints": [100, 1_000, N]},
            {f"green_ratio_{N}": _green_ratio}))
    return jobs


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "certify": certify,
    "iid-pools": iid_pools,
    "renewal-paths": renewal_paths,
}


def setup(workload: str) -> list:
    """The laws and coupling specs a workload's jobs build before any sampling."""
    if workload == "certify":
        return [gaussian.factorize(gaussian.build_hier_coupling(n)) for n in (4, 6, 16, 20)]
    if workload == "iid-pools":
        return [renewal.make_power_law(0.5, n) for n in (2_000, 10_000)]
    return [renewal.make_power_law(0.5, n)
            for n in (256, 4_096, 15_000, 20_000, 30_000, 100_000)]

"""The acceptance suite: one function per criterion, frozen parameters.

A criterion whose computation is an experiment builds that experiment's
frozen config at MASTER_SEED, runs it through `experiments.run` and
judges the returned record; the others call the library directly. Each
criterion runs at its stated tolerance and returns a result row; the CLI
prints one PASS/FAIL line per criterion with the measured values and
wall time, and pytest asserts the same functions.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gaussian, hiermc, quenched, renewal
from .experiments import run as run_experiment
from .hierarchy import B_CRITICAL
from .numerics import derive_rng
from .quenched import QuenchedConfig
from .records import ExperimentConfig, RunRecord

MASTER_SEED = 20_240_801


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        det = "; ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] {self.number:2d} {self.name:<24s} {self.seconds:7.1f}s  {det}"


def _fmt(x: float, digits: int = 6) -> str:
    return f"{x:.{digits}g}"


def _run(experiment: str, **params) -> RunRecord:
    """Run one experiment config at the master seed, writing no artifacts."""
    return run_experiment(ExperimentConfig.from_dict(
        {"experiment": experiment, "seed": MASTER_SEED, **params}))


def _value(rec: RunRecord, key: str) -> float:
    return rec.estimates[key]["value"]


def _free_energy_points(rec: RunRecord) -> list[tuple[float, float, float]]:
    """(mean, std_error, annealed) per grid point of a free-energy record."""
    return [(e["value"], e["std_error"],
             rec.baselines["annealed" + key.removeprefix("free_energy")])
            for key, e in rec.estimates.items() if key.startswith("free_energy")]


def crit_01_gw_identities() -> CriterionResult:
    # the Monte Carlo half of gw-check runs at a small fixed size, ungated
    recs = [_run("gw-check", B=B, n_exact=3, mc_n=4, mc_samples=1_000)
            for B in (B_CRITICAL, 1.3)]
    worst = max(_value(r, "max_identity_error") for r in recs)
    ok = all(r.flags["identities_exact"] for r in recs)
    return CriterionResult(1, "gw-identities", ok,
                           {"max_error": _fmt(worst), "tol": "1e-12"})


def crit_02_overlap_identity() -> CriterionResult:
    rec = _run("overlap-identity", n_max_gen=30, brute_n=4)
    ok = rec.flags["identity_ok"] and rec.flags["brute_ok"]
    return CriterionResult(2, "overlap-identity", ok, {
        "max_error": _fmt(_value(rec, "max_identity_error")),
        "max_brute_error": _fmt(_value(rec, "max_brute_error")),
    })


def crit_03_second_moments() -> CriterionResult:
    rec = _run("second-moment-scan", n_max_gen=30)
    return CriterionResult(3, "second-moments", rec.flags["methods_agree"], {
        "method_gap": _fmt(_value(rec, "max_method_gap")),
        "k_hat": _fmt(rec.constants["k_hat"]),
    })


def crit_04_annealed_scaling() -> CriterionResult:
    rec = _run("annealed-scan")
    details = {}
    ok = True
    for key in [k for k in rec.estimates if k.startswith("slope_low_")]:
        model = key.removeprefix("slope_low_")
        slope, target = _value(rec, key), rec.baselines[f"inv_alpha_{model}"]
        ok = ok and abs(slope - target) <= (0.1 if model == "renewal" else 0.05)
        details[model] = f"{slope:.4f} (want {target:.4f})"
    return CriterionResult(4, "annealed-scaling", ok, details)


def crit_05_green_asymptotics() -> CriterionResult:
    rec = _run("renewal-green", alpha=0.5, n_max=10_000, N=10_000)
    ratio = _value(rec, "asymptotic_ratio_at_N")
    return CriterionResult(5, "green-asymptotics", 0.95 <= ratio <= 1.05,
                           {"ratio": _fmt(ratio)})


def crit_06_dp_consistency() -> CriterionResult:
    law = renewal.make_power_law(0.5, 10_000)
    table = renewal.green_function(law, 10_000)
    cfg = QuenchedConfig(law=law, beta=0.0, h=0.0, N=10_000)
    profile = quenched.log_partition_profile(cfg, np.zeros(10_000))
    gap = float(np.max(np.abs(profile - np.log(table.u))))
    return CriterionResult(6, "dp-consistency", gap <= 1e-10,
                           {"max_gap_all_N": _fmt(gap)})


def crit_07_decomposition() -> CriterionResult:
    rec = _run("decomposition-check", alpha=0.5, n_max=256, trials=100, k_max=5,
               max_blocks=6)
    return CriterionResult(7, "decomposition-identity", rec.flags["identity_ok"],
                           {"max_rel_residual": _fmt(_value(rec, "max_relative_residual"))})


def crit_08_gaussian_machinery() -> CriterionResult:
    worst_eig = 0.0
    for n in range(2, 7):
        spec = gaussian.factorize(gaussian.build_hier_coupling(n))
        dense = np.sort(np.linalg.eigvalsh(gaussian.dense_hier_coupling(spec)))
        worst_eig = max(worst_eig, float(np.max(np.abs(
            dense - np.sort(np.repeat(spec.eigs, spec.mult))))))

    spec = gaussian.factorize(gaussian.build_hier_coupling(4))  # dim 16
    rng = derive_rng(MASTER_SEED, "crit08")
    eps = 0.3
    om = rng.standard_normal((100_000, 16))
    vals = np.exp(gaussian.density_ratio(om, spec, eps))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    norm_ok = abs(mean - 1.0) <= 3 * se

    holder_ok = True
    spec8 = gaussian.factorize(gaussian.build_hier_coupling(8))
    for eps_g, gamma in itertools.product((0.05, 0.1, 0.2), (0.5, 0.6, 0.8)):
        if eps_g / (1.0 - gamma) > 0.5:
            continue
        cost = gaussian.holder_cost(spec8, eps_g, gamma)
        holder_ok = holder_ok and cost.value >= cost.bound
    ok = worst_eig <= 1e-8 and norm_ok and holder_ok
    return CriterionResult(8, "gaussian-machinery", ok, {
        "max_eig_gap": _fmt(worst_eig),
        "density_norm": f"{mean:.4f}+-{se:.4f}",
        "holder_exact_ge_bound": holder_ok,
    })


def crit_09_jensen() -> CriterionResult:
    recs = [_run("hier-free-energy", B=B_CRITICAL, beta=beta, n=12, samples=300,
                 h_grid=[-0.2, 0.1, 0.3, 0.6])
            for beta in (0.5, 1.0, 1.5)]
    recs.append(_run("quenched-scan", alpha=0.5, n_max=2_000, N=1_200, samples=32,
                     beta_list=[0.5, 1.0], h_list=[-0.3, 0.0, 0.2, 0.5, 1.0, 2.0]))
    margins = [annealed - mean for rec in recs
               for mean, _, annealed in _free_energy_points(rec)]
    ok = all(rec.flags["jensen_ok"] for rec in recs)
    return CriterionResult(9, "jensen-ordering", ok,
                           {"min_margin": _fmt(min(margins)), "points": len(margins)})


def crit_10_paley_zygmund() -> CriterionResult:
    ok = True
    details = {}
    for i, n in enumerate((6, 10)):
        rep = hiermc.paley_zygmund_check(n, 100_000, derive_rng(MASTER_SEED, "crit10", i))
        ok = ok and rep.passed and rep.bound <= 0.25
        details[f"n={n}"] = f"P={rep.prob:.4f} bound={rep.bound:.4f}"
    return CriterionResult(10, "paley-zygmund", ok, details)


TUNED_CERT = dict(zeta_override=0.08, gamma_override=0.5,
                  epsilon_override=0.09, n_override=16)


def crit_11_certification() -> CriterionResult:
    paper = _run("hier-certify", beta=1.0, samples=4_000).notes["certificate"]
    tuned = _run("hier-certify", beta=1.0, samples=40_000,
                 **TUNED_CERT).notes["certificate"]
    margin_b = ((tuned["condition_b_threshold"] - tuned["condition_b_mean"])
                / max(tuned["condition_b_stderr"], 1e-300))
    pool = _run("hier-free-energy", B=B_CRITICAL, beta=1.0, n=int(tuned["n"]),
                samples=400, h_grid=[float(tuned["h_certified"])])
    [(mean, se, _)] = _free_energy_points(pool)
    ok = (paper["verdict"] == "infeasible-at-paper-constants"
          and tuned["verdict"] == "pass" and margin_b >= 3.0
          and tuned["condition_a_pass"] and mean <= 4 * se)
    return CriterionResult(11, "certification", ok, {
        "paper_verdict": paper["verdict"],
        "paper_n": f"{paper['n_paper']:.3g}",
        "tuned_verdict": tuned["verdict"],
        "h_certified": _fmt(tuned["h_certified"]),
        "cond_a": f"{tuned['condition_a_value']:.5f}>= {tuned['condition_a_threshold']:.5f}",
        "cond_b_margin_sigma": f"{margin_b:.0f}",
        "pool_mean_over_sigma": f"{mean / max(se, 1e-300):.2f}",
    })


def crit_12_chung_erdos() -> CriterionResult:
    law = renewal.make_power_law(0.5, 10_000)
    mean_hi, var_hi = quenched.chung_erdos_check(law, 10_000)
    mean_lo, var_lo = quenched.chung_erdos_check(law, 1_000)
    target = 1.0 / (2.0 * math.pi * law.c_k)
    rel = abs(mean_hi / math.log(10_000) / target - 1.0)
    ratio = (var_hi / math.log(10_000)) / (var_lo / math.log(1_000))
    ok = rel <= 0.05 and ratio < 2.0
    return CriterionResult(12, "chung-erdos", ok,
                           {"mean_rel_err": _fmt(rel), "var_ratio": _fmt(ratio)})


def crit_13_w_limit_law() -> CriterionResult:
    rec = _run("clt-check", alpha=0.5, L_w=100_000, w_samples=10_000)
    dist = _value(rec, "ks_distance")
    mean_rel = abs(_value(rec, "w_mean") / rec.baselines["w_mean_limit"] - 1.0)
    return CriterionResult(13, "w-limit-law", dist < 0.1 and mean_rel <= 0.1,
                           {"ks": _fmt(dist), "mean_rel_err": _fmt(mean_rel)})


def crit_14_lemma51_pipeline() -> CriterionResult:
    rec = _run("lemma51-scan", alpha=0.5, n_max=4_096, beta=1.0, gamma=0.75,
               h_list=[1e-1, 1e-2, 1e-3], samples=4_000, cond_horizon=1_000)
    eta, eta_star = _value(rec, "eta_at_smallest_h"), _value(rec, "eta_star")
    # the raw sign at the measured eta is reported, not gated: at desk-scale
    # windows the small-gap Green mass alone keeps eta far above the frontier
    ok = rec.flags["eta_decreasing"] and math.isfinite(eta_star) and eta_star > 0.0
    return CriterionResult(14, "lemma51-pipeline", ok, {
        "eta_at_smallest_h": _fmt(eta),
        "h_hat_negative": rec.flags["h_hat_negative_at_smallest_h"],
        "eta_star": _fmt(eta_star),
        "eta_over_frontier": _fmt(eta / eta_star),
    })


def crit_15_determinism(work_dir: str | Path | None = None) -> CriterionResult:
    import tempfile

    base = Path(work_dir) if work_dir else Path(tempfile.mkdtemp(prefix="pinninglab-det-"))
    configs = [
        {"experiment": "overlap-identity", "seed": 7, "n_max_gen": 12, "brute_n": 3},
        {"experiment": "gw-check", "seed": 7, "mc_n": 5, "mc_samples": 20_000},
    ]
    identical = True
    for raw in configs:
        cfg = ExperimentConfig.from_dict(raw)
        d1, d2 = base / f"{raw['experiment']}-a", base / f"{raw['experiment']}-b"
        run_experiment(cfg, d1)
        run_experiment(cfg, d2)
        for f1 in sorted(d1.glob("*.csv")):
            f2 = d2 / f1.name
            identical = identical and f1.read_bytes() == f2.read_bytes()
    return CriterionResult(15, "determinism", identical,
                           {"experiments": len(configs), "byte_identical": identical})


CRITERIA = [
    crit_01_gw_identities,
    crit_02_overlap_identity,
    crit_03_second_moments,
    crit_04_annealed_scaling,
    crit_05_green_asymptotics,
    crit_06_dp_consistency,
    crit_07_decomposition,
    crit_08_gaussian_machinery,
    crit_09_jensen,
    crit_10_paley_zygmund,
    crit_11_certification,
    crit_12_chung_erdos,
    crit_13_w_limit_law,
    crit_14_lemma51_pipeline,
    crit_15_determinism,
]


def run_criterion(fn) -> CriterionResult:
    t0 = time.perf_counter()
    res = fn()
    res.seconds = time.perf_counter() - t0
    return res


def run_all(numbers=None, echo=print) -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        res_num = int(fn.__name__.split("_")[1])
        if numbers and res_num not in numbers:
            continue
        res = run_criterion(fn)
        results.append(res)
        if echo:
            echo(res.line())
    return results

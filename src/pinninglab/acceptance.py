"""The acceptance suite: a table of criteria over frozen experiment configs.

Each row names the configs its criterion reads, all at MASTER_SEED, and a
judge that turns their run records into a verdict and the values it
prints; rows with no configs compute inside their judge. `run_all` runs
each distinct config once per call, so criteria share records. The CLI
prints one PASS/FAIL line per criterion and pytest asserts the same rows.
"""
from __future__ import annotations

import itertools
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import gaussian, hierarchy, hiermc, quenched, renewal
from .errors import ConfigError
from .experiments import run as run_experiment
from .hierarchy import B_CRITICAL
from .numerics import PoolEstimate, derive_rng
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


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    configs: tuple[dict, ...]
    judge: Callable[..., tuple[bool, dict]]  # judge(*records) -> (passed, details)


def _cfg(experiment: str, **params) -> dict:
    return {"experiment": experiment, "seed": MASTER_SEED, **params}


def _fmt(x: float, digits: int = 6) -> str:
    return f"{x:.{digits}g}"


def _value(rec: RunRecord, key: str) -> float:
    return rec.estimates[key]["value"]


def _free_energy_points(rec: RunRecord) -> list[tuple[float, float, float]]:
    """(mean, std_error, annealed) per grid point of a free-energy record."""
    return [(e["value"], e["std_error"],
             rec.baselines["annealed" + key.removeprefix("free_energy")])
            for key, e in rec.estimates.items() if key.startswith("free_energy")]


def gw_identities(*recs):
    # the Monte Carlo half of gw-check runs at a small fixed size, ungated
    worst = max(_value(r, "max_identity_error") for r in recs)
    return (all(r.flags["identities_exact"] for r in recs),
            {"max_error": _fmt(worst), "tol": "1e-12"})


def overlap_identity(rec):
    return rec.flags["identity_ok"] and rec.flags["brute_ok"], {
        "max_error": _fmt(_value(rec, "max_identity_error")),
        "max_brute_error": _fmt(_value(rec, "max_brute_error")),
    }


def second_moments(rec):
    return rec.flags["methods_agree"], {
        "method_gap": _fmt(_value(rec, "max_method_gap")),
        "k_hat": _fmt(rec.constants["k_hat"]),
    }


def annealed_scaling(rec):
    details = {}
    ok = True
    for key in [k for k in rec.estimates if k.startswith("slope_low_")]:
        model = key.removeprefix("slope_low_")
        slope, target = _value(rec, key), rec.baselines[f"inv_alpha_{model}"]
        ok = ok and abs(slope - target) <= (0.1 if model == "renewal" else 0.05)
        details[model] = f"{slope:.4f} (want {target:.4f})"
    return ok, details


def green_asymptotics(rec):
    ratio = _value(rec, "asymptotic_ratio_at_N")
    return 0.95 <= ratio <= 1.05, {"ratio": _fmt(ratio)}


def dp_consistency():
    law = renewal.make_power_law(0.5, 10_000)
    table = renewal.green_function(law, 10_000)
    cfg = QuenchedConfig(law=law, beta=0.0, h=0.0, N=10_000)
    profile = quenched.log_partition_profile(cfg, np.zeros(10_000))
    gap = float(np.max(np.abs(profile - np.log(table.u))))
    return gap <= 1e-10, {"max_gap_all_N": _fmt(gap)}


def decomposition(rec):
    return rec.flags["identity_ok"], {
        "max_rel_residual": _fmt(_value(rec, "max_relative_residual"))}


def gaussian_machinery():
    worst_eig = 0.0
    for n in range(2, 7):
        spec = gaussian.factorize(gaussian.build_hier_coupling(n))
        dense = np.sort(np.linalg.eigvalsh(gaussian.dense_hier_coupling(spec)))
        worst_eig = max(worst_eig, float(np.max(np.abs(
            dense - np.sort(np.repeat(spec.eigs, spec.mult))))))

    spec = gaussian.factorize(gaussian.build_hier_coupling(4))  # dim 16
    om = derive_rng(MASTER_SEED, "crit08").standard_normal((100_000, 16))
    norm = PoolEstimate.from_samples(np.exp(gaussian.density_ratio(om, spec, 0.3)))
    norm_ok = abs(norm.mean - 1.0) <= 3 * norm.std_error

    holder_ok = True
    spec8 = gaussian.factorize(gaussian.build_hier_coupling(8))
    for eps_g, gamma in itertools.product((0.05, 0.1, 0.2), (0.5, 0.6, 0.8)):
        if eps_g / (1.0 - gamma) > 0.5:
            continue
        cost = gaussian.holder_cost(spec8, eps_g, gamma)
        holder_ok = holder_ok and cost.value >= cost.bound
    return worst_eig <= 1e-8 and norm_ok and holder_ok, {
        "max_eig_gap": _fmt(worst_eig),
        "density_norm": f"{norm.mean:.4f}+-{norm.std_error:.4f}",
        "holder_exact_ge_bound": holder_ok,
    }


def jensen(*recs):
    margins = [annealed - mean for rec in recs
               for mean, _, annealed in _free_energy_points(rec)]
    return (all(rec.flags["jensen_ok"] for rec in recs),
            {"min_margin": _fmt(min(margins)), "points": len(margins)})


def paley_zygmund():
    # P >= bound is loose enough to pass a fold off by a constant factor, so
    # the same draws' E[Y] and E[Y^2] are gated on their exact values
    ok = True
    details = {}
    for i, n in enumerate((6, 10)):
        rep = hiermc.paley_zygmund_check(n, 100_000, derive_rng(MASTER_SEED, "crit10", i))
        z_mean = (rep.y_mean - 1.0) / rep.y_mean_stderr
        z_sq = (rep.y_sq_mean - hierarchy.y_second_moment(n)) / rep.y_sq_stderr
        ok = (ok and rep.passed and rep.bound <= 0.25
              and abs(z_mean) <= 3.0 and abs(z_sq) <= 3.0)
        details[f"n={n}"] = (f"P={rep.prob:.4f} bound={rep.bound:.4f} "
                             f"mean_z={z_mean:.2f} sq_z={z_sq:.2f}")
    return ok, details


def certification(paper_rec, tuned_rec, pool):
    paper = paper_rec.notes["certificate"]
    tuned = tuned_rec.notes["certificate"]
    margin_b = ((tuned["condition_b_threshold"] - tuned["condition_b_mean"])
                / max(tuned["condition_b_stderr"], 1e-300))
    # the pool config is frozen at the point the tuned certificate must reach
    at_point = ((tuned["n"], [tuned["h_certified"]])
                == (pool.config["n"], pool.config["h_grid"]))
    [(mean, se, _)] = _free_energy_points(pool)
    ok = (paper["verdict"] == "infeasible-at-paper-constants"
          and tuned["verdict"] == "pass" and margin_b >= 3.0
          and tuned["condition_a_pass"] and at_point and mean <= 4 * se)
    return ok, {
        "paper_verdict": paper["verdict"],
        "paper_n": f"{paper['n_paper']:.3g}",
        "tuned_verdict": tuned["verdict"],
        "h_certified": _fmt(tuned["h_certified"]),
        "cond_a": f"{tuned['condition_a_value']:.5f}>= {tuned['condition_a_threshold']:.5f}",
        "cond_b_margin_sigma": f"{margin_b:.0f}",
        "pool_mean_over_sigma": f"{mean / max(se, 1e-300):.2f}",
    }


def chung_erdos(rec):
    rel = abs(_value(rec, "weighted_mean_over_log") / rec.baselines["weighted_mean_limit"]
              - 1.0)
    ratio = _value(rec, "var_over_log_ratio")
    return rel <= 0.05 and ratio < 2.0, {"mean_rel_err": _fmt(rel), "var_ratio": _fmt(ratio)}


def w_limit_law(rec):
    dist = _value(rec, "ks_distance")
    mean_rel = abs(_value(rec, "w_mean") / rec.baselines["w_mean_limit"] - 1.0)
    return dist < 0.1 and mean_rel <= 0.1, {"ks": _fmt(dist), "mean_rel_err": _fmt(mean_rel)}


def lemma51_pipeline(rec):
    eta, eta_star = _value(rec, "eta_at_smallest_h"), _value(rec, "eta_star")
    # the raw sign at the measured eta is reported, not gated: at desk-scale
    # windows the small-gap Green mass alone keeps eta far above the frontier
    ok = rec.flags["eta_decreasing"] and math.isfinite(eta_star) and eta_star > 0.0
    return ok, {
        "eta_at_smallest_h": _fmt(eta),
        "h_hat_negative": rec.flags["h_hat_negative_at_smallest_h"],
        "eta_star": _fmt(eta_star),
        "eta_over_frontier": _fmt(eta / eta_star if eta_star else math.inf),
    }


def _artifact(path: Path):
    """A run's CSV bytes, or its record less the wall time."""
    if path.suffix == ".json":
        return {**json.loads(path.read_text()), "wall_time_s": None}
    return path.read_bytes()


def determinism():
    # no CSV of these two holds a random value: gw-check's Monte Carlo
    # estimates are in its record, so the records are compared too
    configs = ({"experiment": "overlap-identity", "seed": 7, "n_max_gen": 12, "brute_n": 3},
               {"experiment": "gw-check", "seed": 7, "mc_n": 5, "mc_samples": 20_000})
    identical = True
    with tempfile.TemporaryDirectory(prefix="pinninglab-det-") as tmp:
        for raw in configs:
            d1, d2 = Path(tmp, f"{raw['experiment']}-a"), Path(tmp, f"{raw['experiment']}-b")
            for d in (d1, d2):
                run_experiment(ExperimentConfig.from_dict(raw), d)
            identical = identical and all(_artifact(f) == _artifact(d2 / f.name)
                                          for f in sorted(d1.iterdir()))
    return identical, {"experiments": len(configs), "byte_identical": identical}


def fractional_chain():
    # the paper's fractional-moment chain on 9 sites in windows of 3:
    # E Z^gamma <= the termwise sum over target sets (sample by sample)
    # <= the tilted bound with its crude cost e^(|M|/2) (within 3 sigma)
    out = quenched.fractional_sum_bound(0.8, 0.26, 0.75, renewal.make_power_law(0.5, 256),
                                        omega_samples=50, N=9,
                                        rng=derive_rng(MASTER_SEED, "crit16"))
    ok = (out.pointwise_ok and out.termwise.mean >= out.direct.mean
          and out.chain_margin_sigma >= -3.0 and out.holder_max_ratio <= 1.0 + 1e-9)
    return ok, {
        "pointwise": out.pointwise_ok,
        "termwise_ge_direct": f"{out.termwise.mean:.4f}>= {out.direct.mean:.4f}",
        "chain_margin_sigma": f"{out.chain_margin_sigma:.2f}",
        "holder_max_ratio": _fmt(out.holder_max_ratio),
    }


# crit_12 and crit_13 read this one record: n_max 10 000 is crit_12's law,
# and the W law is max(L_w, n_max) either way
_CLT = _cfg("clt-check", alpha=0.5, n_max=10_000, L_w=100_000, w_samples=10_000)

CRITERIA = [
    Criterion(1, "gw-identities", tuple(
        _cfg("gw-check", B=B, n_exact=3, mc_n=4, mc_samples=1_000)
        for B in (B_CRITICAL, 1.3)), gw_identities),
    Criterion(2, "overlap-identity",
              (_cfg("overlap-identity", n_max_gen=30, brute_n=4),), overlap_identity),
    Criterion(3, "second-moments", (_cfg("second-moment-scan", n_max_gen=30),), second_moments),
    Criterion(4, "annealed-scaling", (_cfg("annealed-scan"),), annealed_scaling),
    Criterion(5, "green-asymptotics",
              (_cfg("renewal-green", alpha=0.5, n_max=10_000, N=10_000),), green_asymptotics),
    Criterion(6, "dp-consistency", (), dp_consistency),
    Criterion(7, "decomposition-identity",
              (_cfg("decomposition-check", alpha=0.5, n_max=256, trials=100, k_max=5,
                    max_blocks=6),), decomposition),
    Criterion(8, "gaussian-machinery", (), gaussian_machinery),
    Criterion(9, "jensen-ordering", tuple(
        _cfg("hier-free-energy", B=B_CRITICAL, beta=beta, n=12, samples=300,
             h_grid=[-0.2, 0.1, 0.3, 0.6]) for beta in (0.5, 1.0, 1.5)) + (
        _cfg("quenched-scan", alpha=0.5, n_max=2_000, N=1_200, samples=32,
             beta_list=[0.5, 1.0], h_list=[-0.3, 0.0, 0.2, 0.5, 1.0, 2.0]),), jensen),
    Criterion(10, "paley-zygmund", (), paley_zygmund),
    # the tuned certificate lands at n = max(n_zeta, 16) = 16 and h = zeta 2^-n:
    # the pool config is frozen at that point, and the judge checks it
    Criterion(11, "certification", (
        _cfg("hier-certify", beta=1.0, samples=4_000),
        _cfg("hier-certify", beta=1.0, samples=40_000, zeta_override=0.08,
             gamma_override=0.5, epsilon_override=0.09, n_override=16),
        _cfg("hier-free-energy", B=B_CRITICAL, beta=1.0, n=16, samples=400,
             h_grid=[0.08 * 2**-16])), certification),
    Criterion(12, "chung-erdos", (_CLT,), chung_erdos),
    Criterion(13, "w-limit-law", (_CLT,), w_limit_law),
    Criterion(14, "lemma51-pipeline",
              (_cfg("lemma51-scan", alpha=0.5, n_max=4_096, beta=1.0, gamma=0.75,
                    h_list=[1e-1, 1e-2, 1e-3], samples=4_000, cond_horizon=1_000),),
              lemma51_pipeline),
    Criterion(15, "determinism", (), determinism),
    Criterion(16, "fractional-chain", (), fractional_chain),
]


def run_all(numbers=None, echo=print) -> list[CriterionResult]:
    """Judge the selected criteria, running each distinct config once."""
    unknown = sorted(set(numbers or ()) - {crit.number for crit in CRITERIA})
    if unknown:
        raise ConfigError(f"unknown criteria {unknown}; known: 1..{len(CRITERIA)}")
    records: dict[str, RunRecord] = {}
    results = []
    for crit in CRITERIA:
        if numbers and crit.number not in numbers:
            continue
        t0 = time.perf_counter()
        recs = []
        for cfg in map(ExperimentConfig.from_dict, crit.configs):
            if cfg.sha256 not in records:
                records[cfg.sha256] = run_experiment(cfg)
            recs.append(records[cfg.sha256])
        passed, details = crit.judge(*recs)
        res = CriterionResult(crit.number, crit.name, bool(passed), details,
                              time.perf_counter() - t0)
        results.append(res)
        if echo:
            echo(res.line())
    return results

"""Named batch experiments behind the CLI.

Each experiment is a thin driver: it calls library operations and
assembles one run record plus CSV tables. Its keyword-only parameters,
with their annotations and defaults, are its config schema: `resolve`
checks a config against them, each value's type and declared `Window`,
and `run` passes the typed values in.
All randomness derives from the config seed through keyed substreams, so
results do not depend on scheduling.
"""
from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
import numbers
import sys
import time
import typing
from pathlib import Path
from typing import Annotated

import numpy as np

from . import hierarchy, hiermc, oracles, quenched, renewal
from .errors import ConfigError, InvalidParameter
from .hierarchy import B_CRITICAL, HierParams
from .numerics import derive_rng, ks_distance, least_squares_slope
from .quenched import QuenchedConfig
from .records import ExperimentConfig, RunRecord, csv_meta, estimate, write_csv

EXPERIMENTS: dict = {}


def experiment(name):
    def deco(fn):
        EXPERIMENTS[name] = fn
        return fn
    return deco


class Window(typing.NamedTuple):
    """The values lo..hi a config key takes (a list key: its lengths); `open` drops both ends."""

    lo: float
    hi: float = math.inf
    open: bool = False


def _typed(key: str, value, kind):
    """`value` as the annotated type `kind`: float, int, list[...], ... | None or Annotated."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is Annotated:
        value, (lo, hi, is_open) = _typed(key, value, args[0]), args[1]
        name, x = (f"len({key})", len(value)) if isinstance(value, list) else (key, value)
        if not (lo < x < hi if is_open else lo <= x <= hi):
            ends = "()" if is_open else "[)" if hi == math.inf else "[]"
            raise ConfigError(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {value!r}")
        return value
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [_typed(key, v, args[0]) for v in value]
    if args:  # X | None
        return None if value is None else _typed(key, value, args[0])
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not abs(value) <= sys.float_info.max or (kind is int and value != int(value)):
        raise ConfigError(f"{key} must be a finite {kind.__name__}, got {value!r}")
    return kind(value)


def resolve(cfg: ExperimentConfig) -> ExperimentConfig:
    """`cfg` checked against its experiment's keyword-only parameters, with
    every parameter typed and every default filled in."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; known: {sorted(EXPERIMENTS)}")
    # the benchmark's certify configs still send this inert key (ROADMAP item 1)
    params = {k: v for k, v in cfg.params.items()
              if (cfg.experiment, k) != ("hier-certify", "disorder_samples")}
    sig = inspect.signature(EXPERIMENTS[cfg.experiment], eval_str=True)
    schema = {k: p for k, p in sig.parameters.items() if p.kind is p.KEYWORD_ONLY}
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ConfigError(f"{cfg.experiment}: unknown keys {unknown}; known: {sorted(schema)}")
    return ExperimentConfig(cfg.experiment, cfg.seed, {
        k: _typed(k, params.get(k, p.default), p.annotation) for k, p in schema.items()})


def run(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> RunRecord:
    """Dispatch one experiment; write its record and CSV artifacts."""
    cfg = resolve(cfg)
    t0 = time.perf_counter()
    record = RunRecord(experiment=cfg.experiment, seed=cfg.seed,
                       config=cfg.to_dict(), config_sha256=cfg.sha256)
    tables = EXPERIMENTS[cfg.experiment](record, **cfg.params)
    record.wall_time_s = time.perf_counter() - t0
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            write_csv(out / f"{cfg.experiment}.{name}.csv", header, rows, csv_meta(cfg))
        record.write(out / f"{cfg.experiment}.record.json")
    return record


@experiment("annealed-scan")
def annealed_scan(rec: RunRecord, *,
                  B_list: list[Annotated[float, Window(1, 2, open=True)]] = [1.3, B_CRITICAL, 1.7],
                  h_min: Annotated[float, Window(0, open=True)] = 1e-3,
                  h_max: Annotated[float, Window(0, open=True)] = 1e-1,
                  points: Annotated[int, Window(2)] = 9,
                  fit_h_max: float = 1e-2, alpha: float = 0.5, n_max: int = 100_000):
    hs = np.logspace(math.log10(h_min), math.log10(h_max), points)
    low_mask = hs <= fit_h_max * (1 + 1e-9)
    if np.count_nonzero(low_mask) < 2:
        raise InvalidParameter(f"the low-h slope fit needs 2 grid points h <= fit_h_max "
                               f"= {fit_h_max}, got {np.count_nonzero(low_mask)}")
    law = renewal.make_power_law(alpha, n_max)
    rows = []
    for B in B_list:
        F = np.array([hierarchy.annealed_free_energy(B, h) for h in hs])
        local = np.gradient(np.log(F), np.log(hs))
        for h, f, sl in zip(hs, F, local):
            rows.append(("hierarchical", B, float(h), float(f), float(sl)))
        rec.estimates[f"slope_low_B={B:.4g}"] = estimate(
            least_squares_slope(np.log(hs[low_mask]), np.log(F[low_mask])))
        rec.estimates[f"slope_full_B={B:.4g}"] = estimate(
            least_squares_slope(np.log(hs), np.log(F)))
        rec.baselines[f"inv_alpha_B={B:.4g}"] = 1.0 / hierarchy.alpha_of_B(B)
    F = np.array([renewal.homogeneous_free_energy(law, h) for h in hs])
    local = np.gradient(np.log(F), np.log(hs))
    for h, f, sl in zip(hs, F, local):
        rows.append(("renewal", law.alpha, float(h), float(f), float(sl)))
    rec.estimates["slope_low_renewal"] = estimate(
        least_squares_slope(np.log(hs[low_mask]), np.log(F[low_mask])))
    rec.estimates["slope_full_renewal"] = estimate(
        least_squares_slope(np.log(hs), np.log(F)))
    rec.baselines["inv_alpha_renewal"] = max(1.0, 1.0 / law.alpha)
    return {"grid": (["model", "B_or_alpha", "h", "free_energy", "local_slope"], rows)}


@experiment("gw-check")
def gw_check(rec: RunRecord, *, B: Annotated[float, Window(1, 2, open=True)] = B_CRITICAL,
             # outcome enumeration stops at depth 4, and the pair holds leaves 1 and 3
             n_exact: Annotated[int, Window(1, 4)] = 3, mc_n: Annotated[int, Window(2)] = 6,
             mc_samples: Annotated[int, Window(1)] = 100_000):
    rows = []
    worst = 0.0
    for n in range(1, n_exact + 1):
        for r in range(1, 2**n + 1):
            for leaves in itertools.combinations(range(1, 2**n + 1), r):
                idx = hierarchy.TreeIndexSet(n=n, leaves=leaves)
                closed = hierarchy.gw_product_expectation(idx, B)
                brute = oracles.gw_enumeration_expectation(n, leaves, B)
                err = abs(closed - brute)
                worst = max(worst, err)
        rows.append((n, worst))
    rec.estimates["max_identity_error"] = estimate(worst)
    rec.flags["identities_exact"] = worst <= 1e-12

    rng = derive_rng(rec.seed, "gw-check")
    # the cascade's leaf-index replay: 0-based leaves 0 and 2 are leaves 1 and 3
    sid, leaf = oracles.gw_cascade_leaves(mc_n, B, rng, mc_samples)
    p1 = sid[leaf == 0].size / mc_samples
    se1 = math.sqrt(max(p1 * (1 - p1), 1e-12) / mc_samples)
    pair = np.intersect1d(sid[leaf == 0], sid[leaf == 2], assume_unique=True).size / mc_samples
    se2 = math.sqrt(max(pair * (1 - pair), 1e-12) / mc_samples)
    t1 = B**-mc_n
    t2 = hierarchy.gw_product_expectation(hierarchy.TreeIndexSet(n=mc_n, leaves=(1, 3)), B)
    rec.estimates["mc_single_leaf"] = estimate(p1, se1)
    rec.estimates["mc_pair"] = estimate(pair, se2)
    rec.baselines["single_leaf"] = t1
    rec.baselines["pair"] = t2
    rec.flags["mc_single_3sigma"] = abs(p1 - t1) <= 3 * se1
    rec.flags["mc_pair_3sigma"] = abs(pair - t2) <= 3 * se2
    return {"exact": (["n", "running_max_error"], rows)}


@experiment("overlap-identity")
def overlap_identity(rec: RunRecord, *, n_max_gen: Annotated[int, Window(1)] = 30,
                     brute_n: Annotated[int, Window(1)] = 4):
    rows = []
    worst = 0.0
    for n in range(1, n_max_gen + 1):
        val = hierarchy.pair_overlap_sum(n, B_CRITICAL)
        err = abs(val - n)
        worst = max(worst, err)
        rows.append((n, float(val), float(err)))
    brute_worst = 0.0
    for n in range(1, brute_n + 1):
        brute_worst = max(brute_worst, abs(
            hierarchy.pair_overlap_sum(n, B_CRITICAL) - oracles.overlap_sum_brute(n, B_CRITICAL)))
    rec.estimates["max_identity_error"] = estimate(worst)
    rec.estimates["max_brute_error"] = estimate(brute_worst)
    rec.flags["identity_ok"] = worst <= 1e-12
    rec.flags["brute_ok"] = brute_worst <= 1e-12
    return {"values": (["n", "overlap_sum", "abs_error"], rows)}


@experiment("second-moment-scan")
def second_moment_scan(rec: RunRecord, *, n_max_gen: Annotated[int, Window(2)] = 30):
    rows = []
    running = 0.0
    for n in range(2, n_max_gen + 1):
        v = hierarchy.y_second_moment(n)
        running = max(running, v)
        rows.append((n, float(v), float(running)))
    worst = 0.0
    for n in (4, 5, 6, 7):
        worst = max(worst, abs(oracles.y_second_moment_brute(n)
                               - hierarchy.y_second_moment(n)))
    rec.constants["k_hat"] = running
    rec.estimates["max_method_gap"] = estimate(worst)
    rec.flags["methods_agree"] = worst <= 1e-10
    return {"scan": (["n", "second_moment", "running_max"], rows)}


@experiment("hier-free-energy")
def hier_free_energy(rec: RunRecord, *, B: float = B_CRITICAL, beta: float = 1.0,
                     n: Annotated[int, Window(0)] = 14, samples: int = 400,
                     h_grid: Annotated[list[float], Window(1)] = [-0.2, 0.0, 0.2, 0.4, 0.6]):
    rows = []
    for i, h in enumerate(h_grid):
        rng = derive_rng(rec.seed, "hier-free-energy", repr(B), repr(beta), n, i)
        est = hiermc.pool_free_energy(HierParams(B=B, beta=beta, h=h), n, samples, rng)
        rec.estimates[f"free_energy_h={h!r}"] = estimate(est.mean, est.std_error)
        rec.baselines[f"annealed_h={h!r}"] = est.annealed
        rows.append((h, est.mean, est.std_error, est.annealed,
                     int(est.mean <= est.annealed + 3 * est.std_error)))
    rec.flags["jensen_ok"] = all(bool(r[-1]) for r in rows)
    return {"scan": (["h", "mean", "std_error", "annealed", "jensen_ok"], rows)}


@experiment("hier-certify")
def hier_certify(rec: RunRecord, *, beta: Annotated[float, Window(0, open=True)] = 1.0,
                 zeta_override: float | None = None, n_override: int | None = None,
                 gamma_override: float | None = None, samples: Annotated[int, Window(2)] = 40_000,
                 epsilon_override: Annotated[float, Window(0, open=True)] | None = None):
    cert = hiermc.certify_delocalization(beta, zeta_override, n_override, gamma_override,
                                         epsilon_override, samples,
                                         rng=derive_rng(rec.seed, "hier-certify"))
    rec.notes["certificate"] = dataclasses.asdict(cert)
    rec.constants["k_hat"] = cert.k_hat
    rec.flags["pass"] = cert.verdict == "pass"
    rec.flags["gamma_gap_ok"] = cert.gamma_gap_ok
    rec.flags["n_floor_ok"] = cert.n_floor_ok
    rec.estimates["tilted_mean"] = estimate(cert.condition_b_mean, cert.condition_b_stderr)
    rec.estimates["holder_cost"] = estimate(cert.condition_a_value)
    rows = [(cert.verdict, cert.zeta, cert.gamma, cert.epsilon, cert.n,
             cert.h_certified, cert.condition_a_value, cert.condition_a_threshold,
             cert.condition_b_mean, cert.condition_b_stderr, cert.condition_b_threshold)]
    header = ["verdict", "zeta", "gamma", "epsilon", "n", "h",
              "cond_a_value", "cond_a_threshold", "cond_b_mean",
              "cond_b_stderr", "cond_b_threshold"]
    return {"certificate": (header, rows)}


@experiment("renewal-green")
def renewal_green(rec: RunRecord, *, alpha: float = 0.5, n_max: int = 20_000,
                  N: Annotated[int, Window(1)] = 10_000,
                  checkpoints: Annotated[list[int], Window(1)] | None = None):
    checkpoints = [100, 1000, N] if checkpoints is None else checkpoints
    if not all(0 <= c <= N for c in checkpoints):
        raise InvalidParameter(f"checkpoints (by default 100, 1000 and N) must lie "
                               f"in 0..N = {N}, got {checkpoints}")
    law = renewal.make_power_law(alpha, n_max)
    table = renewal.green_function(law, N)
    rows = []
    for c in checkpoints:
        ratio = table.u[c] * 2.0 * math.pi * law.c_k * math.sqrt(c)
        rows.append((c, float(table.u[c]), float(ratio)))
    rec.estimates["asymptotic_ratio_at_N"] = estimate(rows[-1][2])
    rec.estimates["renewal_residual"] = estimate(renewal.renewal_residual(table))
    partial = float(np.sum(table.u[1:])) / math.sqrt(N)
    rec.estimates["partial_sum_over_sqrtN"] = estimate(partial)
    rec.baselines["partial_sum_limit"] = 1.0 / (math.pi * law.c_k)
    rec.constants["c9"] = quenched.green_bound_constant(table)
    return {"checkpoints": (["n", "u", "asymptotic_ratio"], rows)}


@experiment("quenched-scan")
def quenched_scan(rec: RunRecord, *, alpha: float = 0.5, n_max: int = 2_000, N: int = 1_200,
                  samples: Annotated[int, Window(2)] = 32,
                  beta_list: Annotated[list[float], Window(1)] = [0.5, 1.0],
                  h_list: Annotated[list[float], Window(1)] = [-0.3, 0.0, 0.2, 0.5, 1.0, 2.0]):
    law = renewal.make_power_law(alpha, n_max)
    grid = [(i, j, beta, h) for i, beta in enumerate(beta_list) for j, h in enumerate(h_list)]
    ests = quenched.quenched_free_energies(
        [QuenchedConfig(law=law, beta=beta, h=h, N=N) for _, _, beta, h in grid],
        [derive_rng(rec.seed, "quenched-scan", i, j) for i, j, _, _ in grid], samples)
    rows = []
    ok = True
    for (_, _, beta, h), est in zip(grid, ests):
        rate = renewal.homogeneous_free_energy(law, h)
        rec.estimates[f"free_energy_beta={beta!r}_h={h!r}"] = estimate(
            est.mean, est.std_error)
        rec.baselines[f"annealed_beta={beta!r}_h={h!r}"] = est.annealed
        jensen = est.mean <= est.annealed + 3 * est.std_error
        ok = ok and jensen
        rows.append((beta, h, est.mean, est.std_error, est.annealed, rate, int(jensen)))
    rec.flags["jensen_ok"] = ok
    return {"grid": (["beta", "h", "mean", "std_error",
                      "annealed_finite_N", "annealed_rate", "jensen_ok"], rows)}


@experiment("decomposition-check")
def decomposition_check(rec: RunRecord, *, alpha: float = 0.5, n_max: int = 256,
                        trials: Annotated[int, Window(1)] = 100,
                        k_max: Annotated[int, Window(2)] = 5,
                        max_blocks: Annotated[int, Window(1, quenched.MAX_BLOCK_COUNT)] = 6):
    law = renewal.make_power_law(alpha, n_max)
    rng = derive_rng(rec.seed, "decomposition-check")
    rows = []
    worst = 0.0
    for t in range(trials):
        k = int(rng.integers(2, k_max + 1))
        blocks = int(rng.integers(1, max_blocks + 1))
        beta = float(rng.uniform(0.0, 1.5))
        h = float(rng.uniform(-0.5, 0.5))
        qc = QuenchedConfig(law=law, beta=beta, h=h, N=k * blocks)
        res = quenched.decomposition_residual(qc, rng.standard_normal(qc.N), k)
        worst = max(worst, res)
        rows.append((t, k, blocks, beta, h, res))
    rec.estimates["max_relative_residual"] = estimate(worst)
    rec.flags["identity_ok"] = worst <= 1e-10
    return {"instances": (["trial", "k", "blocks", "beta", "h", "relative_residual"], rows)}


@experiment("lemma51-scan")
def lemma51_scan(rec: RunRecord, *, alpha: float = 0.5, n_max: int = 4_096, beta: float = 1.0,
                 # the zeta sum over n^(-3 gamma / 2) converges for gamma > 2/3 only
                 gamma: Annotated[float, Window(2 / 3, 1, open=True)] = 0.75,
                 h_list: Annotated[list[float], Window(1)] = [1e-1, 1e-2, 1e-3],
                 samples: int = 4_000, cond_horizon: Annotated[int, Window(1)] = 1_000):
    law = renewal.make_power_law(alpha, n_max)
    c8 = math.e * renewal.conditioning_ratio(law, cond_horizon)
    rows = []
    etas = []
    for i, h in enumerate(h_list):
        rng = derive_rng(rec.seed, "lemma51-scan", i)
        rep = quenched.lemma51_conditions(beta, h, gamma, law, samples, rng, c8)
        etas.append(rep.eta_min)
        rows.append((h, rep.k, rep.eta_min, rep.eta_err, rep.lhs1_over_sqrt_k,
                     rep.lhs2, rep.h_hat, int(rep.h_hat_negative), rep.eta_star,
                     rep.c9, rep.c2_hat, rep.delta_closing))
    rec.constants["c8"] = c8
    rec.constants["c_hat"] = c8 / math.e
    rec.constants["c9"] = rows[-1][9]
    rec.constants["c2_hat"] = rows[-1][10]
    rec.estimates["eta_at_smallest_h"] = estimate(etas[-1])
    rec.estimates["eta_star"] = estimate(rows[-1][8])
    rec.flags["eta_decreasing"] = all(b < a for a, b in zip(etas, etas[1:]))
    rec.flags["h_hat_negative_at_smallest_h"] = bool(rows[-1][7])
    header = ["h", "k", "eta_min", "eta_err", "lhs1_over_sqrt_k", "lhs2",
              "h_hat", "h_hat_negative", "eta_star", "c9", "c2_hat", "delta_closing"]
    return {"scan": (header, rows)}


_W_BATCH = 512  # paths drawn and summed per call, which bounds the memory they hold
_erf = np.vectorize(math.erf, otypes=[float])


@experiment("clt-check")
def clt_check(rec: RunRecord, *, alpha: float = 0.5, n_max: int = 20_000,
              # a standard error needs 2 samples, and the log ratio L_exact // 10 >= 2
              L_exact: Annotated[int, Window(20)] = 10_000,
              L_w: Annotated[int, Window(3)] = 100_000,
              w_samples: Annotated[int, Window(2)] = 10_000):
    law = renewal.make_power_law(alpha, n_max)
    mean_hi, var_hi = quenched.chung_erdos_check(law, L_exact)
    mean_lo, var_lo = quenched.chung_erdos_check(law, L_exact // 10)
    target = 1.0 / (2.0 * math.pi * law.c_k)
    rec.estimates["weighted_mean_over_log"] = estimate(mean_hi / math.log(L_exact))
    rec.baselines["weighted_mean_limit"] = target
    rec.estimates["var_over_log_ratio"] = estimate(
        (var_hi / math.log(L_exact)) / (var_lo / math.log(L_exact // 10)))

    law_w = renewal.make_power_law(law.alpha, max(L_w, law.n_max))
    rng = derive_rng(rec.seed, "clt-check")
    w = np.empty(w_samples)
    for lo in range(0, w_samples, _W_BATCH):
        paths = renewal.sample_path(law_w, L_w, rng, size=min(_W_BATCH, w_samples - lo))
        w[lo : lo + len(paths)] = quenched.w_statistic(paths, L_w)
    c = quenched.w_limit_scale(law_w)
    dist = ks_distance(w, lambda x: _erf(np.maximum(x, 0.0) / (c * math.sqrt(2))))
    rec.estimates["ks_distance"] = estimate(dist)
    rec.estimates["w_mean"] = estimate(float(w.mean()),
                                       float(w.std(ddof=1) / math.sqrt(w_samples)))
    rec.baselines["w_mean_limit"] = c * math.sqrt(2.0 / math.pi)
    rec.flags["ks_below_0.1"] = dist < 0.1
    rows = [(L_exact, mean_hi / math.log(L_exact), target,
             var_hi / math.log(L_exact), var_lo / math.log(L_exact // 10), dist)]
    header = ["L", "weighted_mean_over_log", "limit", "var_over_log_hi",
              "var_over_log_lo", "ks_distance"]
    return {"summary": (header, rows)}

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from pinninglab import acceptance, cli, hiermc, oracles, quenched, renewal
from pinninglab.experiments import EXPERIMENTS, resolve, run
from pinninglab.records import ExperimentConfig

REPO = Path(__file__).resolve().parents[1]

QUICK = {
    "annealed-scan": {"points": 5, "n_max": 20_000},
    "gw-check": {"mc_n": 4, "mc_samples": 10_000},
    "overlap-identity": {"n_max_gen": 10, "brute_n": 3},
    "second-moment-scan": {"n_max_gen": 12},
    "hier-free-energy": {"n": 10, "samples": 100, "h_grid": [-0.1, 0.2]},
    "hier-certify": {"zeta_override": 0.08, "gamma_override": 0.5,
                     "epsilon_override": 0.09, "n_override": 12,
                     "samples": 8_000},
    "renewal-green": {"N": 2_000, "n_max": 2_000, "checkpoints": [100, 2_000]},
    "quenched-scan": {"N": 300, "samples": 8, "n_max": 600,
                      "beta_list": [0.8], "h_list": [-0.2, 0.3]},
    "decomposition-check": {"trials": 10},
    "lemma51-scan": {"h_list": [0.1, 0.02], "samples": 800, "cond_horizon": 200,
                     "n_max": 1_000},
    "clt-check": {"L_exact": 2_000, "L_w": 10_000, "w_samples": 500,
                  "n_max": 10_000},
}


# flags that legitimately read False: the tuned certificate abandons the
# moment-order gap, and the reduced-model sign test cannot close at desk scale
INFORMATIONAL = {"gamma_gap_ok", "h_hat_negative_at_smallest_h"}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_runs_and_writes(name, tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": name, "seed": 11, **QUICK[name]})
    rec = run(cfg, tmp_path)
    assert (tmp_path / f"{name}.record.json").exists()
    assert list(tmp_path.glob(f"{name}.*.csv"))
    gating = {k: v for k, v in rec.flags.items() if k not in INFORMATIONAL}
    assert all(gating.values()), rec.flags


@pytest.mark.parametrize("name, edge", [
    ("annealed-scan", {"h_min": 1e-6}), ("annealed-scan", {"h_max": 1e-6}),
    ("annealed-scan", {"points": 2, "fit_h_max": 0.1}),
    ("annealed-scan", {"B_list": [1.01, 1.99]}),
    ("clt-check", {"L_w": 3}), ("clt-check", {"L_exact": 20}), ("clt-check", {"w_samples": 2}),
    ("decomposition-check", {"k_max": 2}), ("decomposition-check", {"max_blocks": 1}),
    ("decomposition-check", {"trials": 1}),
    ("gw-check", {"B": 1.01}), ("gw-check", {"B": 1.99}), ("gw-check", {"n_exact": 1}),
    ("gw-check", {"mc_n": 2}), ("gw-check", {"mc_samples": 1}),
    ("hier-certify", {"beta": 1e-3}), ("hier-certify", {"epsilon_override": 1e-3}),
    ("hier-certify", {"samples": 2}),
    ("hier-free-energy", {"n": 0}), ("hier-free-energy", {"h_grid": [0.2]}),
    ("lemma51-scan", {"gamma": 0.67}), ("lemma51-scan", {"gamma": 0.99}),
    ("lemma51-scan", {"cond_horizon": 1}), ("lemma51-scan", {"h_list": [0.1]}),
    ("overlap-identity", {"n_max_gen": 1}), ("overlap-identity", {"brute_n": 1}),
    ("quenched-scan", {"samples": 2}), ("quenched-scan", {"beta_list": [0.8]}),
    ("quenched-scan", {"h_list": [0.3]}),
    ("renewal-green", {"N": 1, "checkpoints": [1]}), ("renewal-green", {"checkpoints": [0]}),
    ("second-moment-scan", {"n_max_gen": 2}), ("decomposition-check", {"max_blocks": 6}),
])
def test_run_window_edge_exits_0(tmp_path, name, edge):
    # the real body at each window's edge, or just inside an open one; gw-check's
    # n_exact 4 also exits 0, but its fixed outcome enumeration takes seconds, so
    # it is left out here
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"experiment": name, "seed": 1, **QUICK[name], **edge}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("name, grid, key", [
    ("hier-free-energy", {"h_grid": [0.1, 0.1, 0.2]}, "h=0.1"),
    ("quenched-scan", {"beta_list": [0.5, 0.5]}, "beta=0.5_h=-0.2"),
    ("annealed-scan", {"B_list": [1.4142, 1.4143]}, "B=1.414"),
])
def test_grid_points_sharing_a_record_key_exit_2(tmp_path, capsys, name, grid, key):
    # one record entry per grid point: a shared key would drop an estimate
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"experiment": name, "seed": 1, **QUICK[name], **grid}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gw_check_guards_the_replay_before_any_draw(monkeypatch, tmp_path, capsys):
    # 100 000 samples at mc_n 24 expect 4e8 leaves, about 11 GB of replay
    def drew(*args):
        raise AssertionError("the replay ran")

    monkeypatch.setattr(oracles, "gw_cascade_leaves", drew)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"experiment": "gw-check", "seed": 1, "mc_n": 24}))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "desk-scale guard" in capsys.readouterr().err


class _HugeArangeRaises:
    """numpy, except that an arange of more than 1e8 entries raises."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def arange(*bounds, **kwargs):
        if max(bounds) > 1e8:
            raise AssertionError("a horizon-sized array was allocated")
        return np.arange(*bounds, **kwargs)


@pytest.mark.parametrize("name,key", [
    *((name, "n_max") for name in ("annealed-scan", "renewal-green", "quenched-scan",
                                   "decomposition-check", "lemma51-scan", "clt-check")),
    ("clt-check", "L_w")])
def test_law_horizon_guard_exits_2_before_any_allocation(monkeypatch, tmp_path, capsys,
                                                         name, key):
    # a horizon of 1e9 would ask for four arrays of 8 GB each
    monkeypatch.setattr(renewal, "np", _HugeArangeRaises())
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"experiment": name, "seed": 1, **QUICK[name], key: 10**9}))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "desk-scale guard" in capsys.readouterr().err


def test_annealed_scan_slope_column(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "annealed-scan", "seed": 1,
                                      "B_list": [np.sqrt(2.0)], "n_max": 50_000})
    rec = run(cfg, tmp_path)
    slope = rec.estimates["slope_low_B=1.414"]["value"]
    assert abs(slope - 2.0) <= 0.1
    csv = (tmp_path / "annealed-scan.grid.csv").read_text().splitlines()
    assert csv[3].split(",")[:1] == ["model"] or "local_slope" in csv[3]


def test_certify_paper_mode_quick(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "hier-certify", "seed": 5,
        "samples": 2_000})
    rec = run(cfg, tmp_path)
    assert rec.notes["certificate"]["verdict"] == "infeasible-at-paper-constants"
    assert rec.flags["gamma_gap_ok"] and rec.flags["n_floor_ok"]


def test_hier_free_energy_substream_keyed_by_config(monkeypatch, tmp_path):
    # runs that differ only in beta must not share their disorder
    first_draws = []
    pool = hiermc.pool_free_energy

    def spy(params, n, samples, rng):
        first_draws.append(copy.deepcopy(rng).standard_normal())
        return pool(params, n, samples, rng)

    monkeypatch.setattr(hiermc, "pool_free_energy", spy)
    for beta in (0.5, 1.0):
        run(ExperimentConfig.from_dict({
            "experiment": "hier-free-energy", "seed": 11, "beta": beta,
            "n": 4, "samples": 10, "h_grid": [0.1]}), tmp_path / f"beta{beta}")
    assert first_draws[0] != first_draws[1]


@pytest.mark.parametrize("name, table, point, annealed", [
    ("hier-free-energy", "scan", "h={h}", "annealed"),
    ("quenched-scan", "grid", "beta={beta}_h={h}", "annealed_finite_N"),
])
def test_free_energy_record_carries_each_grid_point(name, table, point, annealed, tmp_path):
    # the acceptance suite judges these record entries instead of the CSV
    rec = run(ExperimentConfig.from_dict({"experiment": name, "seed": 11, **QUICK[name]}),
              tmp_path)
    header, *rows = (tmp_path / f"{name}.{table}.csv").read_text().splitlines()[3:]
    for line in rows:
        row = dict(zip(header.split(","), line.split(",")))
        key = point.format(**row)
        assert rec.estimates[f"free_energy_{key}"] == {
            "value": float(row["mean"]), "std_error": float(row["std_error"])}
        assert rec.baselines[f"annealed_{key}"] == float(row[annealed])
    assert sum(k.startswith("free_energy") for k in rec.estimates) == len(rows)


def test_spelled_out_defaults_change_nothing(tmp_path):
    # the record holds the resolved config, so a default left out and the
    # same default written in hash alike and write the same CSV bytes
    bare = {"experiment": "overlap-identity", "seed": 1}
    recs = [run(ExperimentConfig.from_dict(raw), tmp_path / str(i)) for i, raw in
            enumerate((bare, {**bare, "n_max_gen": 30, "brute_n": 4}))]
    assert recs[0].config == recs[1].config == {**bare, "n_max_gen": 30, "brute_n": 4}
    assert recs[0].config_sha256 == recs[1].config_sha256
    csv = "overlap-identity.values.csv"
    assert (tmp_path / "0" / csv).read_bytes() == (tmp_path / "1" / csv).read_bytes()


def test_green_ratio_at_N_reads_N_not_the_last_checkpoint():
    # the checkpoints only choose the CSV rows; the ratio at N is read at N
    base = {"experiment": "renewal-green", "seed": 1, "N": 2_000, "n_max": 2_000}
    ratios = {run(ExperimentConfig.from_dict({**base, "checkpoints": cps}))
              .estimates["asymptotic_ratio_at_N"]["value"]
              for cps in ([100, 2_000], [2_000, 100], [100])}
    assert len(ratios) == 1


# Memory constants that also fix a summation order, so that moving one moves
# last bits: each with the small value the test below patches in, and why
SUMMATION_ORDER = {
    "experiments._W_BATCH": (37, "W's paths are grouped within each batch drawn"),
    "quenched._W_GAPS": (100, "the gap budget groups and pads the paths of the "
                              "pair kernel, and padding reshapes numpy's pairwise sums"),
    "quenched._W_ROWS": (5, "each lag block of the pair kernel adds its own row sums"),
}
SMALL_PAIR_CONFIGS = [
    {"experiment": "clt-check", "seed": 3, "n_max": 2_000, "L_exact": 200, "L_w": 5_000,
     "w_samples": 300},
    {"experiment": "lemma51-scan", "seed": 3, **QUICK["lemma51-scan"]},
]


@pytest.fixture(scope="module")
def small_pair_estimates():
    return [run(ExperimentConfig.from_dict(raw)).estimates for raw in SMALL_PAIR_CONFIGS]


@pytest.mark.parametrize("constant", SUMMATION_ORDER)
def test_summation_order_constants_move_last_bits_only(monkeypatch, small_pair_estimates,
                                                       constant):
    # the draws stay; only the order of the sums moves, by a few ulps at most
    monkeypatch.setattr(f"pinninglab.{constant}", SUMMATION_ORDER[constant][0])
    for raw, base in zip(SMALL_PAIR_CONFIGS, small_pair_estimates, strict=True):
        estimates = run(ExperimentConfig.from_dict(raw)).estimates
        assert estimates.keys() == base.keys()
        for key, est in estimates.items():
            assert est.keys() == base[key].keys()
            for part in est.keys() - {"exact"}:
                assert est[part] == pytest.approx(base[key][part], rel=1e-14, abs=0.0), \
                    (key, part)


# Memory constants that bound memory only: each with the small value the test
# below patches in.  Left out, besides SUMMATION_ORDER: the draw units
# `hierarchy._sparse_chunk`, `hiermc._chunk_for` and `renewal._DRAW`, which
# decide which random number feeds which realization and so belong to the
# sampling contract
MEMORY_ONLY = {
    "hiermc._POOL_LEAVES": 1 << 8,
    "quenched._DP_CELLS": 1 << 12,
    "renewal._MAX_DRAWS": 3,
    "quenched._PROFILE_CELLS": 1,
}
SMALL_MEMORY_CONFIGS = [
    {"experiment": "hier-free-energy", "seed": 3, **QUICK["hier-free-energy"]},
    {"experiment": "quenched-scan", "seed": 3, **QUICK["quenched-scan"]},
    *SMALL_PAIR_CONFIGS,
]


def _artifacts(out_dir):
    """Every file the small memory configs write, records less wall_time_s."""
    for raw in SMALL_MEMORY_CONFIGS:
        run(ExperimentConfig.from_dict(raw), out_dir)
    return {p.name: {**json.loads(p.read_text()), "wall_time_s": 0}
            if p.name.endswith(".json") else p.read_text() for p in out_dir.iterdir()}


@pytest.fixture(scope="module")
def small_memory_artifacts(tmp_path_factory):
    return _artifacts(tmp_path_factory.mktemp("memory"))


@pytest.mark.parametrize("constant", MEMORY_ONLY)
def test_memory_constants_move_no_byte(monkeypatch, tmp_path, small_memory_artifacts,
                                       constant):
    monkeypatch.setattr(f"pinninglab.{constant}", MEMORY_ONLY[constant])
    assert _artifacts(tmp_path) == small_memory_artifacts


def test_certify_drops_the_inert_disorder_samples_key():
    # the certify jobs of the benchmark still send it
    raw = {"experiment": "hier-certify", "seed": 5, **QUICK["hier-certify"], "samples": 2_000}
    with_key, without = (json.loads(run(ExperimentConfig.from_dict(cfg)).to_json())
                         for cfg in ({**raw, "disorder_samples": 400}, raw))
    assert "disorder_samples" not in with_key["config"]
    assert {**with_key, "wall_time_s": 0} == {**without, "wall_time_s": 0}


def test_shipped_configs_resolve(monkeypatch):
    # every config the benchmark, the acceptance table and README.md run must
    # pass the schema check, so a schema change cannot first break a benchmark job;
    # each bare config checks its experiment's defaults against their windows
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    bench = [job.config for build in workloads.WORKLOADS.values() for job in build(0)
             if job.config is not None]
    table = [raw for crit in acceptance.CRITERIA for raw in crit.configs]
    readme = [json.loads(block) for block in
              re.findall(r"```json\n(.*?)```", (REPO / "README.md").read_text(), re.S)]
    bare = [{"experiment": name, "seed": 0} for name in EXPERIMENTS]
    assert len(bench) == 11 and len(readme) == 4
    for raw in bench + table + readme + bare:
        resolve(ExperimentConfig.from_dict(raw))

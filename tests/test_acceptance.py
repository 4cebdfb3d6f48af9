"""The acceptance gate: every criterion at its stated tolerance.

One module-scoped `run_all` judges the whole table, so each distinct
config runs once for the module; each test asserts one criterion of it
and prints the measured values. Negative controls rerun single rows
under a fault, and hand-built records exercise the judges directly.
"""
import dataclasses
import itertools
import tempfile

import pytest

from pinninglab import acceptance as acc, experiments, hierarchy, oracles, quenched
from pinninglab.experiments import EXPERIMENTS
from pinninglab.records import ExperimentConfig, RunRecord, estimate


@pytest.fixture(scope="module")
def suite():
    ran = []
    real = acc.run_experiment
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acc, "run_experiment", lambda cfg, *out: ran.append(cfg) or real(cfg, *out))
        results = acc.run_all(echo=None)
    return {r.number: r for r in results}, ran


@pytest.mark.parametrize("crit", acc.CRITERIA,
                         ids=[f"crit_{c.number:02d}_{c.judge.__name__}" for c in acc.CRITERIA])
def test_criterion(crit, suite):
    res = suite[0][crit.number]
    print(res.line())
    assert res.passed, res.details


def test_suite_runs_each_table_config_once(suite):
    table = [ExperimentConfig.from_dict(raw).sha256
             for crit in acc.CRITERIA for raw in crit.configs]
    ran = [cfg.sha256 for cfg in suite[1] if cfg.sha256 in table]
    assert sorted(ran) == sorted(set(table))
    assert len(ran) < len(table)  # crit_12 and crit_13 share one clt-check record
    assert [cfg.experiment for cfg in suite[1]].count("clt-check") == 1


def test_table_structure():
    assert [c.number for c in acc.CRITERIA] == list(range(1, 17))
    for crit in acc.CRITERIA:
        for raw in crit.configs:
            cfg = ExperimentConfig.from_dict(raw)
            assert cfg.experiment in EXPERIMENTS, (crit.number, cfg.experiment)
            assert cfg.seed == acc.MASTER_SEED


def test_shared_config_runs_once(monkeypatch):
    raw = {"experiment": "overlap-identity", "seed": 1, "n_max_gen": 4, "brute_n": 2}
    monkeypatch.setattr(acc, "CRITERIA", [
        acc.Criterion(n, f"row-{n}", (dict(raw),), acc.overlap_identity) for n in (1, 2)])
    calls = []
    real = acc.run_experiment
    monkeypatch.setattr(acc, "run_experiment", lambda cfg: calls.append(cfg) or real(cfg))
    results = acc.run_all(echo=None)
    assert len(calls) == 1
    assert [r.passed for r in results] == [True, True]


def test_determinism_leaves_no_temp_dir(monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    [res] = acc.run_all({15}, echo=None)
    assert res.passed
    assert not list(tmp_path.iterdir())


def test_determinism_detects_a_drifting_substream(monkeypatch):
    # negative control: every derive_rng call gets a fresh substream, so a
    # rerun draws new Monte Carlo values; no CSV of crit_15 holds one, but
    # gw-check's record does, and crit_15 must fail
    fresh = itertools.count()
    real = experiments.derive_rng
    monkeypatch.setattr(experiments, "derive_rng", lambda *key: real(*key, next(fresh)))
    [res] = acc.run_all({15}, echo=None)
    assert not res.passed


def _row(number: int) -> acc.Criterion:
    return next(c for c in acc.CRITERIA if c.number == number)


def _record(raw: dict) -> RunRecord:
    cfg = ExperimentConfig.from_dict(raw)
    return RunRecord(experiment=cfg.experiment, seed=cfg.seed, config=cfg.to_dict(),
                     config_sha256=cfg.sha256)


def _certification_records(n: int, h: float):
    """Hand-built crit_11 records whose tuned certificate sits at (n, h)."""
    paper, tuned, pool = map(_record, _row(11).configs)
    paper.notes["certificate"] = {"verdict": "infeasible-at-paper-constants",
                                  "n_paper": 9.81e7}
    tuned.notes["certificate"] = {
        "verdict": "pass", "n": n, "h_certified": h, "condition_a_pass": True,
        "condition_a_value": 0.99575, "condition_a_threshold": 0.98,
        "condition_b_mean": 0.90, "condition_b_stderr": 1e-3,
        "condition_b_threshold": 0.92}
    [h_pool] = pool.config["h_grid"]
    pool.estimates[f"free_energy_h={h_pool!r}"] = estimate(-1e-5, 1e-7)
    pool.baselines[f"annealed_h={h_pool!r}"] = 0.0
    return paper, tuned, pool


def test_certification_judge_checks_the_pool_point():
    # negative control on doctored records: the pool must sit at the
    # tuned certificate's (n, h_certified)
    judge = _row(11).judge
    assert judge(*_certification_records(16, 0.08 * 2**-16))[0]
    assert not judge(*_certification_records(16, 0.08 * 2**-15))[0]
    assert not judge(*_certification_records(17, 0.08 * 2**-16))[0]


def _annealed_record(renewal_slope: float = 1.99851, alpha_scale: float = 1.0) -> RunRecord:
    """A hand-built annealed-scan record at crit_04's measured slopes; the
    hierarchical baselines are 1 / (alpha_scale * alpha_of_B(B))."""
    rec = _record(_row(4).configs[0])
    for B, slope in ((1.3, 1.60644), (1.414, 1.99467), (1.7, 4.22780)):
        rec.estimates[f"slope_low_B={B:.4g}"] = estimate(slope)
        rec.baselines[f"inv_alpha_B={B:.4g}"] = 1.0 / (alpha_scale * hierarchy.alpha_of_B(B))
    rec.estimates["slope_low_renewal"] = estimate(renewal_slope)
    rec.baselines["inv_alpha_renewal"] = 2.0
    return rec


def test_annealed_scaling_judge_fails_doctored_records():
    # negative control on doctored records: a renewal slope 0.2 off 1/alpha
    # either way, or hierarchical baselines from alpha_of_B scaled by 2/3,
    # must fail crit_04
    judge = _row(4).judge
    assert judge(_annealed_record())[0]
    assert not judge(_annealed_record(renewal_slope=2.2))[0]
    assert not judge(_annealed_record(renewal_slope=1.8))[0]
    assert not judge(_annealed_record(alpha_scale=2 / 3))[0]


def _clt_record(ks: float = 0.0849, w_mean: float = 0.3415,
                mean_over_log: float = 0.43582, var_ratio: float = 1.02282) -> RunRecord:
    """A hand-built clt-check record at the measured values and limits
    of crit_12 and crit_13."""
    rec = _record(acc._CLT)
    rec.estimates["ks_distance"] = estimate(ks)
    rec.estimates["w_mean"] = estimate(w_mean, 0.0033)
    rec.baselines["w_mean_limit"] = 0.34573
    rec.estimates["weighted_mean_over_log"] = estimate(mean_over_log)
    rec.baselines["weighted_mean_limit"] = 0.41577
    rec.estimates["var_over_log_ratio"] = estimate(var_ratio)
    return rec


def test_chung_erdos_judge_fails_doctored_records():
    # negative control on doctored records: a weighted mean 6 % off its
    # limit either way, or a variance ratio of 2, must fail crit_12
    judge = _row(12).judge
    assert judge(_clt_record())[0]
    assert not judge(_clt_record(mean_over_log=1.06 * 0.41577))[0]
    assert not judge(_clt_record(mean_over_log=0.94 * 0.41577))[0]
    assert not judge(_clt_record(var_ratio=2.0))[0]


def test_w_limit_law_judge_fails_doctored_records():
    # negative control on doctored records: a W normalization off by a
    # factor of 2, or a KS distance at the threshold, must fail crit_13
    judge = _row(13).judge
    assert judge(_clt_record())[0]
    assert not judge(_clt_record(0.0849, 2 * 0.3415))[0]
    assert not judge(_clt_record(0.1, 0.3415))[0]


def test_gw_identities_detect_an_off_by_one_node_count(monkeypatch):
    # negative control: one internal node too many on every set of two or
    # more leaves moves B^-v off the enumerated expectation; crit_01 must fail
    exact = hierarchy.subtree_node_count
    monkeypatch.setattr(hierarchy, "subtree_node_count",
                        lambda idx: exact(idx) + (len(idx.leaves) >= 2))
    [res] = acc.run_all({1}, echo=None)
    print(res.line())
    assert not res.passed


def test_gw_check_flags_a_cascade_at_the_wrong_B(monkeypatch):
    # negative control: the replay draws at B = 1.5 while the baselines stay
    # at sqrt 2; at the default size both z read about -40
    exact = oracles.gw_cascade_leaves
    monkeypatch.setattr(oracles, "gw_cascade_leaves",
                        lambda n, B, rng, size: exact(n, 1.5, rng, size))
    rec = experiments.run(ExperimentConfig.from_dict(
        {"experiment": "gw-check", "seed": acc.MASTER_SEED}))
    assert rec.flags["identities_exact"]
    assert not rec.flags["mc_single_3sigma"] and not rec.flags["mc_pair_3sigma"]


def test_mutation_hook_is_detected(monkeypatch):
    # negative control: a corrupted overlap normalization must trip criterion 2
    exact = hierarchy.pair_overlap_sum
    monkeypatch.setattr(hierarchy, "pair_overlap_sum",
                        lambda n, B: exact(n, B) * (1.0 + 1e-6))
    [res] = acc.run_all({2}, echo=None)
    assert not res.passed


@pytest.mark.parametrize("fault", [lambda exact, n: exact(n) * (1.0 + 1e-9),
                                   lambda exact, n: exact(n + 1)],
                         ids=["relative-1e-9", "generation-off-by-one"])
def test_second_moments_detect_a_wrong_recursion(monkeypatch, fault):
    # negative control: crit_03 gates the recursion on the enumeration at
    # n = 4..7 within 1e-10, so a relative 1e-9 (about 3e-9) must fail it
    exact = hierarchy.y_second_moment
    monkeypatch.setattr(hierarchy, "y_second_moment", lambda n: fault(exact, n))
    [res] = acc.run_all({3}, echo=None)
    print(res.line())
    assert not res.passed


@pytest.mark.parametrize("scale", [lambda n: 2**-0.5, lambda n: 2 / 3, lambda n: n],
                         ids=["join-weight-B^-(n+a)", "two-thirds", "no-1/n"])
def test_paley_zygmund_detects_a_broken_fold(monkeypatch, scale):
    # negative control: each of these folds keeps P = 0.39-0.57 above the
    # bound 0.079, so only the gates on E[Y] and E[Y^2] can fail crit_10
    exact = hierarchy.gw_overlap_samples

    def broken(n, B, rng, size):
        y, count = exact(n, B, rng, size)
        return y * scale(n), count

    monkeypatch.setattr(hierarchy, "gw_overlap_samples", broken)
    [res] = acc.run_all({10}, echo=None)
    print(res.line())
    assert not res.passed


def test_dp_consistency_detects_a_perturbed_green_table(monkeypatch):
    # negative control: the Green side sees K(1) lowered by a relative 1e-8,
    # which must trip criterion 6
    import dataclasses

    from pinninglab import renewal

    exact = renewal.green_function

    def perturbed(law, N):
        mass = law.mass.copy()
        mass[1] *= 1.0 - 1e-8
        return exact(dataclasses.replace(law, mass=mass), N)

    monkeypatch.setattr(renewal, "green_function", perturbed)
    [res] = acc.run_all({6}, echo=None)
    print(res.line())
    assert not res.passed


def test_dropped_target_set_fails_decomposition_and_chain(monkeypatch):
    # negative control: the coarse-graining loses the all-blocks set
    # (1, ..., nb), the last term, whenever nb >= 2 (with one block it is
    # the only set, and an empty sum would raise rather than fail); the set
    # list loses it too, so that crit_16's tilted arm reads one entry per
    # set left. crit_07's residual jumps from roundoff to about 0.8, and
    # crit_16's Z^gamma exceeds its termwise sum. A +0.3 shift on every
    # coarse-grained term still passes crit_16, whose checks are all
    # inequalities; crit_07's residual is what catches that one.
    terms, sets = quenched.log_coarse_grain_term, quenched.enumerate_target_sets

    def dropping_terms(cfg, k, **draw):
        out = terms(cfg, k, **draw)
        return out[:-1] if out.size > 1 else out

    def dropping_sets(n_blocks):
        full = tuple(range(1, n_blocks + 1))
        return (t for t in sets(n_blocks) if n_blocks < 2 or t != full)

    monkeypatch.setattr(quenched, "log_coarse_grain_term", dropping_terms)
    monkeypatch.setattr(quenched, "enumerate_target_sets", dropping_sets)
    results = acc.run_all({7, 16}, echo=None)
    for res in results:
        print(res.line())
    assert [(r.number, r.passed) for r in results] == [(7, False), (16, False)]


def _shifted_h(fn):
    """fn(params, ...) run at h + beta^2/2: the -beta^2/2 leaf normalization dropped."""
    return lambda params, *args: fn(
        dataclasses.replace(params, h=params.h + params.beta**2 / 2), *args)


@pytest.mark.parametrize("owner, attr", [(hierarchy, "hier_log_partition_batch"),
                                         (quenched, "_site_log_weights")],
                         ids=["hierarchical-pool", "quenched-scan"])
def test_jensen_detects_a_dropped_normalization(monkeypatch, owner, attr):
    # negative control: without -beta^2/2 each site's weight has mean e^(h + beta^2/2),
    # so the quenched estimates climb above the annealed values at h, which
    # both baselines (computed without disorder) keep; crit_09 must fail
    monkeypatch.setattr(owner, attr, _shifted_h(getattr(owner, attr)))
    [res] = acc.run_all({9}, echo=None)
    print(res.line())
    assert not res.passed

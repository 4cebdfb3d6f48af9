import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinninglab import oracles
from pinninglab import quenched as Q
from pinninglab import renewal as R
from pinninglab.errors import HorizonExceeded, InvalidParameter, ResourceGuard
from pinninglab.experiments import run
from pinninglab.numerics import MeanAccumulator, derive_rng
from pinninglab.quenched import QuenchedConfig
from pinninglab.records import ExperimentConfig


@pytest.fixture(scope="module")
def law():
    return R.make_power_law(0.5, 2000)


@pytest.fixture(scope="module")
def law_small():
    return R.make_power_law(0.5, 256)


def test_dp_single_site(law):
    om = np.array([0.7])
    cfg = QuenchedConfig(law=law, beta=0.8, h=0.3, N=1)
    expect = math.log(law.mass[1]) + 0.8 * 0.7 + 0.3 - 0.5 * 0.64
    assert Q.log_partition_profile(cfg, om)[1] == pytest.approx(expect, rel=1e-12)


def test_dp_reduces_to_green(law):
    table = R.green_function(law, 1500)
    cfg = QuenchedConfig(law=law, beta=0.0, h=0.0, N=1500)
    assert Q.log_partition_profile(cfg, np.zeros(1500))[1500] == pytest.approx(
        math.log(table.u[1500]), abs=1e-10)


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_dp_monotone_in_reward(seed):
    law = R.make_power_law(0.5, 256)
    rng = np.random.default_rng(seed)
    om = rng.standard_normal(40)
    vals = [Q.log_partition_profile(QuenchedConfig(law=law, beta=0.7, h=h, N=40), om)[40]
            for h in (-0.5, 0.0, 0.5, 1.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def _assert_dp_matches_oracle(logz, logK, band):
    # row by row: relative 1e-12 on log Z, or on Z itself (absolute on log Z)
    # near log Z = 0; a 1-d logz is one row
    logz = np.atleast_2d(logz)
    fast = Q._log_renewal_dp(logz, logK, band)
    assert fast.shape == logz.shape and np.all(np.isfinite(fast))
    for row, f in zip(logz, fast):
        slow = oracles.log_renewal_dp_direct(row, logK, band)
        assert np.all(np.abs(f - slow) <= 1e-12 * np.maximum(1.0, np.abs(slow)))


def test_dp_kernel_matches_log_domain_oracle(law):
    # band >= N (n_max 2 000) and band < N (n_max 40); rows shorter than,
    # equal to and just past one 64-site block; pinned rows of 1 to 5 sites.
    # The n_max 40 law is the power law's K(1..40) with no tail, since a
    # tailed law refuses N past its horizon
    rng = np.random.default_rng(11)
    for lw in (law, R.law_from_mass(R.make_power_law(0.5, 40).mass[1:])):
        with np.errstate(divide="ignore"):
            logK = np.log(lw.mass)
        for beta in (0.0, 0.5, 1.5):
            for h in (-0.3, 2.0):
                for N in (1, 63, 64, 65, 1200):
                    cfg = QuenchedConfig(law=lw, beta=beta, h=h, N=N)
                    logz = Q._site_log_weights(cfg, rng.standard_normal(N))
                    _assert_dp_matches_oracle(logz, logK, lw.n_max)
                for k in range(1, 6):
                    a = int(rng.integers(1, 60))
                    _assert_dp_matches_oracle(logz[a : a + k + 1], logK, lw.n_max)


def test_dp_kernel_guards_extreme_site_weights(law):
    # 64 sites of log weight +30 overflow an unguarded block (e^1920), and
    # with a band of 2 sites, 64 sites of log weight about -35 underflow it
    rng = np.random.default_rng(12)
    for lw in (law, R.law_from_mass([0.6, 0.4])):
        with np.errstate(divide="ignore"):
            logK = np.log(lw.mass)
        for beta, h in ((0.0, 30.0), (3.0, -30.0)):
            cfg = QuenchedConfig(law=lw, beta=beta, h=h, N=200)
            logz = Q._site_log_weights(cfg, rng.standard_normal(200))
            _assert_dp_matches_oracle(logz, logK, lw.n_max)


def test_dp_guard_counts_a_tiny_first_mass():
    # K(1) = 1e-30 makes each site's guard cost |log z| - log K(1) = 40 + 69,
    # so a block spans at most 6 sites; a guard that added log K(1) would see
    # -29 a site, run 64-site blocks and overflow.  Underflow is not raised:
    # the window's exp underflows on correct code, harmlessly.
    law = R.law_from_mass([1e-30] + [0.9 / 50] * 50)
    cfg = QuenchedConfig(law=law, beta=0.0, h=40.0, N=200)
    with np.errstate(over="raise", invalid="raise"):
        fast = Q.log_partition_profile(cfg, np.zeros(cfg.N))
        slow = oracles.log_renewal_dp_direct(Q._site_log_weights(cfg, np.zeros(cfg.N)),
                                             Q._log_K(law), law.n_max)
    assert np.all(np.abs(fast - slow) <= 1e-12 * np.maximum(1.0, np.abs(slow)))


def test_dp_rows_of_different_spread_share_the_guard(law):
    # one batch mixes rows whose blocks alone would end at different sites:
    # +30 per site (overflow unguarded), about -35 per site, the defaults'
    # mild rows and zero disorder, at N 1, 64 and 300
    rng = np.random.default_rng(13)
    logK = Q._log_K(law)
    for N in (1, 64, 300):
        rows = [Q._site_log_weights(QuenchedConfig(law=law, beta=beta, h=h, N=N),
                                    rng.standard_normal((2, N)))
                for beta, h in ((0.0, 30.0), (3.0, -30.0), (1.0, 2.0), (0.5, -0.3),
                                (0.0, 0.0))]
        _assert_dp_matches_oracle(np.concatenate(rows), logK, law.n_max)
    # the band of a two-point law, shorter than a block, across rows
    two = R.law_from_mass([0.6, 0.4])
    logz = np.concatenate([Q._site_log_weights(QuenchedConfig(law=two, beta=b, h=h, N=150),
                                               rng.standard_normal((3, 150)))
                           for b, h in ((3.0, -30.0), (0.2, 0.1))])
    _assert_dp_matches_oracle(logz, Q._log_K(two), two.n_max)


def test_dp_guard(law):
    with pytest.raises(ResourceGuard):
        Q.log_partition_profile(QuenchedConfig(law=law, beta=0.0, h=0.0, N=200_000),
                                np.zeros(200_000))


def test_config_refuses_a_tailed_law_short_of_n():
    # the banded DP would treat every gap past n_max as impossible: at
    # beta 0, h 0.1, N 30 log Z read -2.9464 with n_max 10 against -1.8439
    short = R.make_power_law(0.5, 10)
    with pytest.raises(HorizonExceeded, match="N=30 exceeds the stored law horizon 10"):
        QuenchedConfig(law=short, beta=0.0, h=0.1, N=30)
    with pytest.raises(ResourceGuard):   # the size guard is checked first
        QuenchedConfig(law=short, beta=0.0, h=0.1, N=200_000)
    QuenchedConfig(law=short, beta=0.0, h=0.1, N=10)
    QuenchedConfig(law=R.law_from_mass(short.mass[1:]), beta=0.0, h=0.1, N=30)
    log_z = [Q.log_partition_profile(QuenchedConfig(law=R.make_power_law(0.5, m), beta=0.0,
                                                    h=0.1, N=30), np.zeros(30))[30]
             for m in (30, 1000)]
    assert log_z == pytest.approx([-1.8439] * 2, abs=1e-4)


def test_quenched_free_energy_pure_limit():
    # zero disorder: the estimate equals the finite-size annealed value and
    # approaches the characteristic-equation rate
    law = R.make_power_law(0.5, 10_000)
    cfg = QuenchedConfig(law=law, beta=0.0, h=0.2, N=10_000)
    [est] = Q.quenched_free_energies([cfg], [np.random.default_rng(0)], 2)
    assert est.std_error == 0.0
    rate = R.homogeneous_free_energy(law, cfg.h)
    assert abs(est.mean - rate) / rate < 0.02


def test_quenched_jensen_and_delocalized(law):
    rng = np.random.default_rng(1)
    cfg = QuenchedConfig(law=law, beta=1.0, h=0.4, N=600)
    cfg2 = QuenchedConfig(law=law, beta=0.8, h=-1.0, N=600)
    est, est2 = Q.quenched_free_energies([cfg, cfg2], [rng, rng], 24)
    assert est.mean <= est.annealed + 3 * est.std_error
    assert est2.mean <= 3 * est2.std_error


def test_quenched_scan_equals_a_loop_over_points_and_samples():
    # the record's estimates against one DP call per sample, each point's
    # samples drawn one at a time from its own substream
    raw = {"experiment": "quenched-scan", "seed": 5, "N": 300, "samples": 6, "n_max": 600,
           "beta_list": [0.8, 1.3], "h_list": [-0.2, 0.3, 1.0]}
    rec = run(ExperimentConfig.from_dict(raw))
    law = R.make_power_law(0.5, 600)
    for i, beta in enumerate(raw["beta_list"]):
        for j, h in enumerate(raw["h_list"]):
            cfg = QuenchedConfig(law=law, beta=beta, h=h, N=300)
            rng = derive_rng(5, "quenched-scan", i, j)
            acc = MeanAccumulator()
            for _ in range(6):
                acc.add(Q.log_partition_profile(cfg, rng.standard_normal(300))[300:] / 300)
            got = rec.estimates[f"free_energy_beta={beta!r}_h={h!r}"]
            assert got["value"] == pytest.approx(acc.mean, rel=1e-13, abs=1e-15)
            assert got["std_error"] == pytest.approx(acc.std_error, rel=1e-9)
            pure = QuenchedConfig(law=law, beta=0.0, h=h, N=300)
            assert rec.baselines[f"annealed_beta={beta!r}_h={h!r}"] == pytest.approx(
                Q.log_partition_profile(pure, np.zeros(300))[300] / 300, rel=1e-13, abs=1e-15)


def test_quenched_free_energies_need_one_law_and_size_and_a_sample(law, law_small):
    cfg = QuenchedConfig(law=law, beta=0.5, h=0.1, N=10)
    rngs = [np.random.default_rng(0)] * 2
    for other in (QuenchedConfig(law=law_small, beta=0.5, h=0.1, N=10),
                  QuenchedConfig(law=law, beta=0.5, h=0.1, N=12)):
        with pytest.raises(InvalidParameter):
            Q.quenched_free_energies([cfg, other], rngs, 2)
    with pytest.raises(InvalidParameter):
        Q.quenched_free_energies([cfg], rngs[:1], 0)


def test_quenched_free_energies_in_several_calls_equal_one(law, monkeypatch):
    # a cell budget of 3 rows per config per call splits 8 samples into
    # calls of 3, 3 and 2 rows; each stream is drawn in the same order, the
    # DP guard that shares block ends across a call's rows does not fire at
    # these sizes, and the estimates are one add over all the ends, so the
    # split moves no bit
    cfgs = [QuenchedConfig(law=law, beta=b, h=h, N=200) for b, h in ((0.5, -0.3), (1.2, 0.4))]
    def run():
        return Q.quenched_free_energies(cfgs, [derive_rng(9, "q", i) for i in range(2)], 8)
    whole = run()
    monkeypatch.setattr(Q, "_DP_CELLS", 3 * 2 * 201)
    for a, b in zip(run(), whole):
        assert a == b and a.sample_count == 8


def test_plan_block_set():
    assert Q.tilted_blocks((3, 9, 10, 14)) == (3, 4, 9, 10, 11, 14)


def _decomposition_instances(law):
    """25 random (cfg, omega, k) block systems of up to six blocks."""
    rng = np.random.default_rng(2)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        blocks = int(rng.integers(1, 7))
        cfg = QuenchedConfig(law=law, beta=float(rng.uniform(0, 1.5)),
                             h=float(rng.uniform(-0.5, 0.5)), N=k * blocks)
        yield cfg, rng.standard_normal(cfg.N), k


def test_decomposition_identity(law_small):
    for cfg, om, k in _decomposition_instances(law_small):
        assert Q.decomposition_residual(cfg, om, k) < 1e-10


def _terms(cfg, om, k):
    """The log coarse-grained terms of one draw."""
    return Q.log_coarse_grain_term(cfg, k, Q._site_log_weights(cfg, om))


def test_single_target_term_is_residual(law_small):
    # the last-block-only term, the first entry, equals the full value minus
    # all other terms
    rng = np.random.default_rng(3)
    k, blocks = 4, 4
    cfg = QuenchedConfig(law=law_small, beta=0.9, h=0.1, N=k * blocks)
    om = rng.standard_normal(cfg.N)
    full = math.exp(Q.log_partition_profile(cfg, om)[cfg.N])
    terms = np.exp(_terms(cfg, om, k))
    assert terms.shape == (2 ** (blocks - 1),)
    assert terms[0] == pytest.approx(full - terms[1:].sum(), rel=1e-9)
    assert terms[0] >= 0.0


def test_coarse_grain_terms_match_path_enumeration(law_small):
    # every term against the sum over the pinned paths whose first-return
    # scan visits its target set, at N <= 12; the finite-support law with
    # n_max 3 < N leaves some sets with no path (-inf)
    rng = np.random.default_rng(16)
    short = R.law_from_mass([0.4, 0.25, 0.15])
    for law in (law_small, short):
        for k, blocks in ((2, 1), (2, 6), (3, 4), (4, 3), (4, 2)):
            for h in (-0.4, 0.3):
                cfg = QuenchedConfig(law=law, beta=0.9, h=h, N=k * blocks)
                om = rng.standard_normal(cfg.N)
                got = _terms(cfg, om, k)
                want = oracles.coarse_grain_terms_by_enumeration(cfg, om, k)
                assert got.shape == want.shape
                assert np.array_equal(np.isneginf(got), np.isneginf(want))
                np.testing.assert_allclose(got[np.isfinite(want)], want[np.isfinite(want)],
                                           rtol=0.0, atol=1e-12)


def test_pinned_rows_equal_per_row_dp_calls(law_small):
    # every start site's row against its own DP call on the sites up to
    # min(a + k - 1, N), the short rows near N included; past N the batch
    # holds padding
    rng = np.random.default_rng(15)
    logK = Q._log_K(law_small)
    for k, blocks in ((2, 1), (3, 4), (5, 6), (4, 2)):
        cfg = QuenchedConfig(law=law_small, beta=1.2, h=-0.3, N=k * blocks)
        logz = Q._site_log_weights(cfg, rng.standard_normal(cfg.N))
        rows = Q.pinned_rows(cfg, k, logz=logz, logK=logK)
        assert rows.shape == (cfg.N + 1, k)
        for a in range(1, cfg.N + 1):
            end = min(a + k - 1, cfg.N)
            alone = Q._log_renewal_dp(logz[None, a : end + 1], logK, law_small.n_max)[0]
            np.testing.assert_allclose(rows[a, : end - a + 1], alone, rtol=1e-14, atol=1e-14)


def test_coarse_grain_window_validation(law_small):
    cfg = QuenchedConfig(law=law_small, beta=0.5, h=0.3, N=12)
    with pytest.raises(InvalidParameter):
        _terms(cfg, np.zeros(12), 5)   # 12 sites are not whole windows of 5
    many = QuenchedConfig(law=law_small, beta=0.5, h=0.3, N=2 * (Q.MAX_BLOCK_COUNT + 1))
    with pytest.raises(ResourceGuard):
        _terms(many, np.zeros(many.N), 2)


def test_u_weight_trivial_cases(law):
    rng = np.random.default_rng(4)
    tab = Q.u_weight_table(1.0, 50, 0.75, law, 100, rng)
    assert tab.u_over_c8[0] == 1.0 and tab.u_err_over_c8[0] == 0.0
    table = R.green_function(law, 49)
    v7 = Q.u_weight_table(0.0, 50, 0.75, law, 400, rng).u_over_c8[7]
    assert v7 == pytest.approx(float(table.u[7]), rel=1e-12)


def test_u_weight_sample_edges(law):
    with pytest.raises(InvalidParameter):
        Q.u_weight_table(1.0, 50, 0.75, law, 0, np.random.default_rng(4))
    # k = 2 leaves no site in the half-window: nothing is drawn, s = 1 exactly
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    tab = Q.u_weight_table(1.0, 2, 0.75, law, 50, rng)
    assert tab.s_mean.tolist() == [1.0] and tab.s_err.tolist() == [0.0]
    assert rng.random() == ref.random()


def test_u_weight_errors_equal_the_two_pass_standard_error():
    # lemma51-scan's law and sample count at k = 1 000 (m up to 499): the
    # same draws' two-pass SE, which the raw-moment form missed by 4e-9
    law, beta, k, gamma, samples = R.make_power_law(0.5, 4_096), 1.0, 1_000, 0.75, 4_000
    tab = Q.u_weight_table(beta, k, gamma, law, samples, np.random.default_rng(401))
    paths = R.sample_path(law, 499, np.random.default_rng(401), size=samples)
    prof = np.vstack(list(Q._pair_sum_profiles(paths, 499)))
    hscale = (1.0 - gamma) / math.sqrt(Q._BLOCK_DENOM * k * math.log(k))
    vals = np.exp(-(beta**2) * hscale * prof)
    assert np.allclose(tab.s_mean, vals.mean(axis=0), rtol=1e-13, atol=0.0)
    assert np.allclose(tab.s_err, vals.std(axis=0, ddof=1) / math.sqrt(samples),
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m_max", [4, 49, 499])
def test_batched_pair_sum_profiles_match_oracle(m_max):
    # occupancy x Toeplitz rows against the p x p profile, path by path,
    # across more than one chunk of rows
    law = R.make_power_law(0.5, 1000)
    paths = R.sample_path(law, m_max, np.random.default_rng(m_max), size=300)
    rows = np.vstack(list(Q._pair_sum_profiles(paths, m_max)))
    assert rows.shape == (300, m_max + 1)
    for row, points in zip(rows, np.split(paths.points, paths.offsets[1:-1])):
        ref = oracles.pair_sum_profile(points, m_max)
        np.testing.assert_allclose(row, ref, rtol=1e-12, atol=0.0)


def test_u_weight_monotone_in_beta(law):
    k, gamma, n = 60, 0.75, 45
    means = []
    errs = []
    for i, beta in enumerate((0.0, 1.0, 2.0)):
        tab = Q.u_weight_table(beta, k, gamma, law, 4000, np.random.default_rng(50 + i))
        means.append(tab.u_over_c8[n])
        errs.append(tab.u_err_over_c8[n])
    assert means[1] <= means[0] + 3 * errs[1]
    assert means[2] <= means[1] + 3 * math.hypot(errs[1], errs[2])


def test_lemma51_report(law):
    rng = np.random.default_rng(5)
    rep = Q.lemma51_conditions(1.0, 0.02, 0.75, law, 2000, rng,
                               c8=math.e * R.conditioning_ratio(law, 300))
    assert rep.k == 50
    assert rep.eta_min == max(rep.lhs1_over_sqrt_k, rep.lhs2)
    # the reward formula is reproduced exactly
    from scipy import special
    direct = math.log(rep.eta_min**rep.gamma * rep.c2_hat**rep.gamma * math.e
                      * special.zeta(1.5 * rep.gamma))
    assert rep.h_hat == pytest.approx(direct, rel=1e-12)
    # vanishing eta forces the reward to minus infinity
    assert Q.reduced_reward(1e-30, rep.gamma, rep.c2_hat, rep.zeta_sum) < -30
    # the closing delta solves the split equation
    d = rep.delta_closing
    assert 4 * rep.c8 * rep.c9 * (math.sqrt(d) + d) == pytest.approx(rep.eta_min,
                                                                     rel=1e-9)
    assert rep.c2_hat >= 2**1.5


def test_lemma51_window_wider_than_a_finite_support():
    # gaps of 1 or 2 only: P(gap > m) is 0 for m >= 2, so with k = 5 the
    # long-gap sum reads U(3) P(gap > 1) + U(4) P(gap > 0)
    law = R.law_from_mass([0.5, 0.5])
    rep = Q.lemma51_conditions(1.0, 0.2, 0.75, law, 10, np.random.default_rng(0), c8=1.0)
    u = Q.u_weight_table(1.0, 5, 0.75, law, 10, np.random.default_rng(0)).u_over_c8
    assert rep.lhs2 == pytest.approx(0.5 * u[3] + u[4], rel=1e-15)


def test_lemma51_requires_positive_reward():
    law = R.make_power_law(0.5, 128)
    with pytest.raises(InvalidParameter):
        Q.lemma51_conditions(1.0, -0.1, 0.75, law, 10, np.random.default_rng(0), c8=1.0)


def test_green_bound_constant_stable(law):
    t1 = R.green_function(law, 1000)
    t2 = R.green_function(law, 2000)
    c1 = Q.green_bound_constant(t1)
    c2 = Q.green_bound_constant(t2)
    assert c2 == pytest.approx(c1, rel=0.02)
    assert np.isfinite(c2)


def _batch(point_lists) -> R.RenewalPaths:
    offsets = np.cumsum([0] + [len(p) for p in point_lists])
    points = np.concatenate([np.zeros(0, np.int64)] + [np.asarray(p) for p in point_lists])
    return R.RenewalPaths(offsets=offsets, points=points)


def test_w_statistic_small_paths():
    assert Q.w_statistic(_batch([[0, 7]]), 100).tolist() == [0.0]
    p2 = _batch([[0, 3, 10, 12]])
    expect = (1 / math.sqrt(7) + 1 / math.sqrt(9) + 1 / math.sqrt(2))
    expect /= math.sqrt(100) * math.log(100)
    assert Q.w_statistic(p2, 100)[0] == pytest.approx(expect, rel=1e-12)
    with pytest.raises(InvalidParameter):
        Q.w_statistic(p2, 2)


@pytest.mark.parametrize("L", [3, 2000])
def test_w_statistic_reads_the_last_table_entry(L):
    # the pair (1, L) has the largest gap a path in [1, L] can hold, so
    # a table one entry short would clip it onto 1/sqrt(L - 2)
    w = Q.w_statistic(_batch([[0, 1, L]]), L)[0]
    assert w == (1 / math.sqrt(L - 1)) / (math.sqrt(L) * math.log(L))


def test_w_statistic_table_is_sized_by_the_points():
    # a table sized by L = 1e12 would take 8 TB; sized by the largest
    # point it takes 12 doubles
    L = 10**12
    tracemalloc.start()
    try:
        w = Q.w_statistic(_batch([[0, 3, 10, 12]]), L)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expect = (1 / math.sqrt(7) + 1 / math.sqrt(9) + 1 / math.sqrt(2))
    assert w == pytest.approx(expect / (math.sqrt(L) * math.log(L)), rel=1e-12)
    assert peak < 2**20


def test_w_statistic_matches_pair_sum_profile(law):
    # the p x p pair-sum profile is the independent path
    L = 2000
    sampled = R.sample_path(law, L, np.random.default_rng(11), size=200)
    point_lists = np.split(sampled.points, sampled.offsets[1:-1])
    point_lists += [[0], [0, L + 4], [0, 7], [0, 7, L + 1], [0, 5, 9, L + 3]]
    w = Q.w_statistic(_batch(point_lists), L)
    for p, value in zip(point_lists, w, strict=True):
        ref = oracles.pair_sum_profile(np.asarray(p), L)[L] / (math.sqrt(L) * math.log(L))
        assert value == pytest.approx(ref, rel=1e-12)


def test_w_statistic_batch_matches_pair_sum_profile(law):
    # element by element in input order: the mean and KS distance of W
    # cannot see a permutation of the batch or a group summed twice
    L = 2000
    sampled = R.sample_path(law, L, np.random.default_rng(12), size=47)
    # 7..9 and 15..17 points in [1, L] straddle the group size and its double,
    # and L + 5 or L + 9 sit past the horizon
    sized = [[0, *range(3, 3 * p + 1, 3)] + [L + 5] * (p % 2) for p in (7, 8, 9, 15, 16, 17)]
    split = np.split(sampled.points, sampled.offsets[1:-1])
    point_lists = split[:30]
    point_lists += [[0], [0, 7], [0, L + 9], [0, 7, L + 1], [0, 5, 9, L + 3]] + sized
    point_lists += split[30:]
    batch = _batch(point_lists)
    w = Q.w_statistic(batch, L)
    assert w.shape == (len(point_lists),)
    assert len(point_lists) % Q._W_GROUP != 0
    norm = math.sqrt(L) * math.log(L)
    ref = [oracles.pair_sum_profile(np.asarray(p), L)[L] / norm for p in point_lists]
    np.testing.assert_allclose(w, ref, rtol=1e-12, atol=0.0)
    assert w[30] == 0.0 and w[31] == 0.0


def test_w_statistic_batch_below_the_horizon():
    # the largest point in [1, L] is 50, so the table stops far below L
    L = 10_000
    point_lists = [[0, 1, 2, 5, 40], [0, 3, 9], [0, 7, 50, L + 2], [0, 12],
                   [0, *range(2, 22, 2)], [0], [0, 49, 50], [0, 1], [0, 30, L, L + 1]]
    w = Q.w_statistic(_batch(point_lists), L)
    norm = math.sqrt(L) * math.log(L)
    ref = [oracles.pair_sum_profile(np.asarray(p), L)[L] / norm for p in point_lists]
    np.testing.assert_allclose(w, ref, rtol=1e-12, atol=0.0)


@given(L=st.integers(3, 200),
       gap_lists=st.lists(st.lists(st.integers(1, 40), max_size=30), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_w_statistic_padding_and_clipping_match_oracle(L, gap_lists):
    # groups of unequal paths, many running past L, element by element
    # against the p x p profile
    point_lists = [np.cumsum([0, *gaps]) for gaps in gap_lists]
    w = Q.w_statistic(_batch(point_lists), L)
    norm = math.sqrt(L) * math.log(L)
    ref = [oracles.pair_sum_profile(p, L)[L] / norm for p in point_lists]
    np.testing.assert_allclose(w, ref, rtol=1e-12, atol=0.0)


def test_w_statistic_batch_edges(law):
    assert Q.w_statistic(_batch([]), 100).shape == (0,)
    assert Q.w_statistic(R.sample_path(law, 100, np.random.default_rng(1), size=0),
                         100).shape == (0,)
    assert Q.w_statistic(_batch([[0], [0, 7]]), 100).tolist() == [0.0, 0.0]
    with pytest.raises(InvalidParameter):
        Q.w_statistic(_batch([[0, 1, 2]]), 2)


def test_w_mean_exact_vs_mc(law):
    L = 400
    table = R.green_function(law, L)
    exact = oracles.w_mean_exact(table, L)
    rng = np.random.default_rng(7)
    vals = Q.w_statistic(R.sample_path(law, L, rng, size=4000), L)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - exact) <= 3 * se


def test_chung_erdos_brute_two_point():
    law = R.law_from_mass([0.6, 0.4])
    for L in (4, 8, 12):
        mean, _ = Q.chung_erdos_check(law, L)
        ref = oracles.weighted_contact_mean_brute(law, L)
        assert mean == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("L", [1, 2, 12, 1000])
def test_chung_erdos_matches_direct(law, L):
    for gaps in (law, R.law_from_mass([0.6, 0.4])):
        mean, var = Q.chung_erdos_check(gaps, L)
        mean_ref, var_ref = oracles.chung_erdos_direct(gaps, L)
        assert mean == pytest.approx(mean_ref, rel=1e-12)
        assert var == pytest.approx(var_ref, rel=1e-12)


def _chung_erdos_var_mpmath(masses, L):
    """The variance at 40 digits for a short-support law, O(L * support):
    the cross sum over j of j^-1/2 sum_{i<j} a_i (u(j - i) - u(j)), with
    a_i = u(i) i^-1/2, reads F_j - a_j - u(j) P_j, where F = a * u solves
    F_j = a_j + sum_k K(k) F_{j-k} and P_j = sum_{i<j} a_i."""
    with mpmath.workdps(40):
        K = [mpmath.mpf(x) for x in masses]
        u, a, F = [mpmath.mpf(1)], [mpmath.mpf(0)], [mpmath.mpf(0)]
        var, P = mpmath.mpf(0), mpmath.mpf(0)
        for j in range(1, L + 1):
            back = range(1, min(j, len(K)) + 1)
            u.append(sum(K[k - 1] * u[j - k] for k in back))
            a.append(u[j] / mpmath.sqrt(j))
            F.append(a[j] + sum(K[k - 1] * F[j - k] for k in back))
            var += (u[j] - u[j] ** 2) / j + 2 * (F[j] - a[j] - u[j] * P) / mpmath.sqrt(j)
            P += a[j]
        return var


def test_chung_erdos_two_point_variance_mpmath():
    # a two-gap law: the variance cancels enough to lift the Green table's
    # roundoff several hundredfold, so the table must carry no FFT noise
    masses, L = [0.6, 0.4], 3000
    _, var = Q.chung_erdos_check(R.law_from_mass(masses), L)
    ref = _chung_erdos_var_mpmath(masses, L)
    assert abs(var - float(ref)) <= 1e-12 * float(ref)


def test_chung_erdos_vs_mc(law):
    L = 1000
    mean, var = Q.chung_erdos_check(law, L)

    def y_log_weight_sum(points):
        """sum over path points 1 <= p <= L of 1/sqrt(p)."""
        pts = points[(points >= 1) & (points <= L)]
        return float(np.sum(1.0 / np.sqrt(pts))) if pts.size else 0.0

    paths = R.sample_path(law, L, np.random.default_rng(8), size=6000)
    vals = np.array([y_log_weight_sum(p) for p in np.split(paths.points, paths.offsets[1:-1])])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - mean) <= 3 * se
    sample_var = vals.var(ddof=1)
    fourth = ((vals - vals.mean()) ** 4).mean()
    var_se = math.sqrt(max(fourth - sample_var**2, 0.0) / vals.size)
    assert abs(sample_var - var) <= 3 * var_se


def test_chung_erdos_guard(law):
    with pytest.raises(ResourceGuard):
        Q.chung_erdos_check(law, 10**6)


def test_fractional_sum_bound_single_block(law_small):
    rng = np.random.default_rng(10)
    out = Q.fractional_sum_bound(0.6, 0.5, 0.75, law_small,
                                 omega_samples=80, N=2, rng=rng)
    assert out.pointwise_ok
    assert out.tilted_bound + 3 * out.tilted_bound_err >= out.direct.mean


def test_fractional_sum_bound_skips_a_set_whose_terms_are_all_zero():
    # jumps of at most 2 sites return to the first window of 3, so the set
    # of the last block alone (the first in enumeration order) has a zero
    # term on every draw: it adds 0 to (iii) and no delta-method error
    law = R.law_from_mass([0.5, 0.3])
    cfg = QuenchedConfig(law=law, beta=0.8, h=0.26, N=6)
    logz = Q._site_log_weights(cfg, np.random.default_rng(3).standard_normal(6))
    terms = Q.log_coarse_grain_term(cfg, 3, logz)
    assert terms[0] == -math.inf and np.all(np.isfinite(terms[1:]))
    out = Q.fractional_sum_bound(0.8, 0.26, 0.75, law, omega_samples=20, N=6,
                                 rng=np.random.default_rng(0))
    assert out.pointwise_ok
    assert 0.0 < out.tilted_bound < math.inf and 0.0 < out.tilted_bound_err < math.inf
    assert math.isfinite(out.chain_margin_sigma)


def test_window_size():
    assert Q.window_size(0.02) == 50
    assert Q.window_size(1e-3) == 1000
    with pytest.raises(InvalidParameter):
        Q.window_size(0.0)

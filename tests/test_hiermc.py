import math
import tracemalloc

import numpy as np
import pytest

from pinninglab import gaussian as G
from pinninglab import hierarchy as H
from pinninglab import hiermc as MC
from pinninglab.errors import InvalidParameter, ResourceGuard
from pinninglab.hierarchy import B_CRITICAL, HierParams
from pinninglab.numerics import mean_and_error


def test_pool_zero_disorder_is_exact():
    params = HierParams(B=B_CRITICAL, beta=0.0, h=0.3)
    est = MC.pool_free_energy(params, 10, 50, np.random.default_rng(1))
    assert est.std_error == 0.0
    assert est.mean == pytest.approx(est.annealed, rel=1e-12)


def test_pool_delocalized_nonpositive():
    params = HierParams(B=B_CRITICAL, beta=0.5, h=-0.2)
    est = MC.pool_free_energy(params, 14, 200, np.random.default_rng(2))
    assert est.mean <= 3 * est.std_error


def test_pool_jensen():
    params = HierParams(B=B_CRITICAL, beta=0.5, h=0.5)
    est = MC.pool_free_energy(params, 12, 300, np.random.default_rng(3))
    assert est.mean <= est.annealed + 3 * est.std_error


def _one_estimate(values):
    """Mean, standard error and count over the chunks joined."""
    v = np.concatenate(values)
    return (*mean_and_error(v), v.size)


def _sizes(total, chunk):
    return [min(chunk, total - i) for i in range(0, total, chunk)]


def _whole_draw_pool(params, n, samples, rng):
    """The pool as one draw of (samples, 2^(n-1)) sibling normals and one
    estimate: sqrt(2) z in each left leaf, 0 in each right one."""
    om = np.zeros((samples, 2**n))
    om[:, 0::2] = math.sqrt(2.0) * rng.standard_normal((samples, 2 ** (n - 1)))
    return _one_estimate([H.hier_log_partition_batch(params, n, om) / 2.0**n])


# sample counts off the block rows (300 in blocks of 16; 5, 37 and 22 in
# blocks of 3), and 14 x 400 in 100 blocks of 4 rows
@pytest.mark.parametrize("n, samples, rows, beta, h", [
    (1, 5, None, 0.5, -0.2), (1, 5, 3, 1.5, 0.6), (6, 37, None, 1.5, 0.6),
    (6, 37, 3, 0.5, -0.2), (12, 300, None, 0.5, -0.2), (12, 300, 3, 1.5, 0.6),
    (14, 400, None, 1.5, 0.6), (16, 22, 3, 0.5, -0.2)])
def test_pool_blocks_match_the_whole_draw(monkeypatch, n, samples, rows, beta, h):
    if rows:
        monkeypatch.setattr(MC, "_POOL_LEAVES", rows << n)
    params = HierParams(B=B_CRITICAL, beta=beta, h=h)
    rng, rng_whole = np.random.default_rng(n + samples), np.random.default_rng(n + samples)
    est = MC.pool_free_energy(params, n, samples, rng)
    whole = _whole_draw_pool(params, n, samples, rng_whole)
    assert (est.mean, est.std_error, est.sample_count) == whole
    assert rng.bit_generator.state == rng_whole.bit_generator.state


@pytest.mark.parametrize("n, beta, h, samples", [
    (6, 1.0, 0.1, 4000), (10, 1.5, 0.6, 1000), (12, 0.5, -0.2, 400)])
def test_pool_has_the_law_of_the_full_leaf_draw(n, beta, h, samples):
    # the fold on iid N(0, 1) leaves against the pool's N(0, 2) sibling sums
    params = HierParams(B=B_CRITICAL, beta=beta, h=h)
    vals = H.hier_log_partition_batch(
        params, n, np.random.default_rng(n).standard_normal((samples, 2**n))) / 2.0**n
    est = MC.pool_free_energy(params, n, samples, np.random.default_rng(100 + n))
    gap = abs(vals.mean() - est.mean)
    assert gap <= 3 * math.hypot(vals.std(ddof=1) / math.sqrt(samples), est.std_error)


@pytest.mark.parametrize("n, samples", [(12, 300), (16, 400)])
def test_pool_peak_memory(n, samples):
    # blocks of 2^16 leaves: one whole-chunk draw peaked at 39 and 134 MB
    params = HierParams(B=B_CRITICAL, beta=1.0, h=0.1)
    tracemalloc.start()
    try:
        MC.pool_free_energy(params, n, samples, np.random.default_rng(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_pool_resource_guard():
    with pytest.raises(ResourceGuard):
        MC.pool_free_energy(HierParams(B=B_CRITICAL, beta=1.0, h=0.0), 21, 10,
                            np.random.default_rng(0))


def test_pool_runs_at_two_samples_and_refuses_one():
    params = HierParams(B=B_CRITICAL, beta=1.0, h=0.1)
    est = MC.pool_free_energy(params, 4, 2, np.random.default_rng(6))
    assert est.sample_count == 2 and math.isfinite(est.std_error)
    with pytest.raises(InvalidParameter, match="at least 2 samples"):
        MC.pool_free_energy(params, 4, 1, np.random.default_rng(6))


@pytest.mark.parametrize("n, samples, disorder_samples, chunk, sparse", [
    (4, 700, 45, 8, 256), (6, 1000, 300, 64, 300), (8, 600, 20, 20, 600)])
def test_tilted_arms_are_one_add_over_their_chunks(monkeypatch, n, samples,
                                                   disorder_samples, chunk, sparse):
    # each arm draws in chunks, disorder first, and sums all of them at once
    monkeypatch.setattr(MC, "_chunk_for", lambda n: chunk)
    monkeypatch.setattr(H, "_sparse_chunk", lambda n: sparse)
    beta, eps, h = 1.0, 0.2, 0.05 * 2.0**-n
    params = HierParams(B=B_CRITICAL, beta=beta, h=h)
    tm = MC.tilted_mean(params, n, eps, samples, np.random.default_rng(n), disorder_samples)

    rng = np.random.default_rng(n)
    spec = G.factorize(G.build_hier_coupling(n))
    disorder = _one_estimate([np.exp(H.hier_log_partition_batch(
        params, n, G.sample_tilted_batch(spec, eps, rng, size)))
        for size in _sizes(disorder_samples, chunk)])
    coeff = 0.5 * beta**2 * eps * n / math.sqrt(H.pair_overlap_sum(n, B_CRITICAL))
    draws = [H.gw_overlap_samples(n, B_CRITICAL, rng, size) for size in _sizes(samples, sparse)]
    renewal = _one_estimate([np.exp(-coeff * y + h * count) for y, count in draws])
    for est, want in ((tm.disorder_mc, disorder), (tm.renewal_mc, renewal)):
        assert (est.mean, est.std_error, est.sample_count) == want


def test_tilted_mean_trivial_point():
    params = HierParams(B=B_CRITICAL, beta=1.0, h=0.0)
    tm = MC.tilted_mean(params, 6, 0.0, 30_000, np.random.default_rng(5),
                        disorder_samples=10_000)
    assert tm.renewal_mc.std_error == 0.0
    assert tm.renewal_mc.mean == pytest.approx(1.0)
    assert abs(tm.disorder_mc.mean - 1.0) <= 3 * tm.disorder_mc.std_error


def test_tilted_mean_estimators_agree():
    params = HierParams(B=B_CRITICAL, beta=1.0, h=0.0)
    tm = MC.tilted_mean(params, 8, 0.2, 60_000, np.random.default_rng(6),
                        disorder_samples=30_000)
    gap = abs(tm.disorder_mc.mean - tm.renewal_mc.mean)
    sigma = math.hypot(tm.disorder_mc.std_error, tm.renewal_mc.std_error)
    assert gap <= 3 * sigma


def test_tilted_mean_grid_agreement():
    # grid inside (n <= 10, beta <= 2, eps <= 0.3); the disorder arm has a
    # finite second moment only while 2^n (beta^2 - log 2) stays small, so
    # the large-beta corners use small generations
    grid = [(6, 0.5, 0.1), (8, 1.0, 0.2), (10, 0.8, 0.15),
            (2, 1.5, 0.3), (1, 2.0, 0.3)]
    for i, (n, beta, eps) in enumerate(grid):
        params = HierParams(B=B_CRITICAL, beta=beta, h=0.01 * 2.0**-n)
        tm = MC.tilted_mean(params, n, eps, 40_000, np.random.default_rng(70 + i),
                            disorder_samples=40_000)
        gap = abs(tm.disorder_mc.mean - tm.renewal_mc.mean)
        sigma = math.hypot(tm.disorder_mc.std_error, tm.renewal_mc.std_error)
        assert gap <= 3 * sigma


def test_tilted_mean_reward_bound():
    # dropping the reward factor bounds the tilted mean by e^(total reward)
    n, beta, eps, h = 8, 1.0, 0.2, 1e-4
    params = HierParams(B=B_CRITICAL, beta=beta, h=h)
    tm = MC.tilted_mean(params, n, eps, 60_000, np.random.default_rng(7))
    params0 = HierParams(B=B_CRITICAL, beta=beta, h=0.0)
    tm0 = MC.tilted_mean(params0, n, eps, 60_000, np.random.default_rng(7))
    bound = math.exp(2**n * h) * tm0.renewal_mc.mean
    sigma = math.hypot(tm.renewal_mc.std_error,
                       math.exp(2**n * h) * tm0.renewal_mc.std_error)
    assert tm.renewal_mc.mean <= bound + 3 * sigma


def test_paley_zygmund():
    rep = MC.paley_zygmund_check(6, 100_000, np.random.default_rng(8))
    assert rep.passed
    assert rep.bound <= 0.25


@pytest.mark.parametrize("n, samples", [(6, 100_000), (10, 70_000)])
def test_paley_zygmund_is_one_add_over_its_chunks(n, samples):
    # both counts span two cascade chunks of 65 536 realizations, which
    # one cascade call draws
    rep = MC.paley_zygmund_check(n, samples, np.random.default_rng(n))
    y, _ = H.gw_overlap_samples(n, B_CRITICAL, np.random.default_rng(n), samples)
    means, errors = mean_and_error(np.stack([y, y * y]))
    assert (rep.y_mean, rep.y_sq_mean) == tuple(means.tolist())
    assert (rep.y_mean_stderr, rep.y_sq_stderr) == tuple(errors.tolist())
    assert rep.prob == np.count_nonzero(y >= 0.5) / samples


def test_certificate_paper_mode_infeasible():
    cert = MC.certify_delocalization(1.0, None, None, None, None, samples=2_000,
                                      rng=np.random.default_rng(123))
    assert cert.verdict == "infeasible-at-paper-constants"
    assert cert.n_paper > cert.n
    assert cert.gamma_gap_ok
    assert cert.n_floor_ok
    assert cert.zeta == pytest.approx(1.0 / (40.0 * H.k_hat()))
    assert not cert.f_zero_declared


def test_certificate_tuned_pass_and_consistency():
    cert = MC.certify_delocalization(
        1.0, zeta_override=0.08, gamma_override=0.5, epsilon_override=0.09,
        n_override=16, samples=30_000, rng=np.random.default_rng(321))
    assert cert.verdict == "pass"
    assert cert.condition_a_pass and cert.condition_b_pass
    assert cert.f_zero_declared
    assert cert.h_c_lower_bound == pytest.approx(0.08 * 2.0**-16)
    # a pass at h certifies no positive free energy below it
    pool = MC.pool_free_energy(HierParams(B=B_CRITICAL, beta=1.0,
                                          h=cert.h_certified / 2),
                               cert.n, 200, np.random.default_rng(9))
    assert pool.mean <= 4 * pool.std_error


def test_certificate_paper_constants():
    # the tilt is min(sqrt(2 g (1 - g) (-log(1 - zeta/4))), 0.999 (1 - g),
    # 0.999 / lambda_max) at the certificate's own zeta and g: 0.999 (1 - g)
    # binds in paper mode, the square root at the tuned zeta and g, whose
    # condition (a) threshold is 1 - 0.08/4
    paper = MC.certify_delocalization(1.0, None, None, None, None, samples=2,
                                      rng=np.random.default_rng(5))
    tuned = MC.certify_delocalization(1.0, zeta_override=0.08, n_override=8,
                                      gamma_override=0.5, epsilon_override=None, samples=2,
                                      rng=np.random.default_rng(5))
    for cert in (paper, tuned):
        g, z = cert.gamma, cert.zeta
        lam = G.build_hier_coupling(cert.n).lam_max
        eps = min(math.sqrt(2 * g * (1 - g) * -math.log(1 - z / 4)), 0.999 * (1 - g),
                  0.999 / lam)
        assert cert.epsilon == pytest.approx(eps, rel=1e-12)
        assert cert.condition_a_threshold == pytest.approx(1 - z / 4, rel=1e-15)
    assert paper.epsilon == pytest.approx(0.999 * (1 - paper.gamma), rel=1e-12)
    assert tuned.epsilon == pytest.approx(math.sqrt(0.5 * -math.log(0.98)), rel=1e-12)
    assert tuned.condition_a_threshold == 0.98


def test_certification_draws_no_tilted_disorder(monkeypatch):
    # condition (b) gates on the renewal arm; the disorder arm stays out
    def refuse(*args, **kwargs):
        raise AssertionError("certification sampled tilted disorder")

    monkeypatch.setattr(G, "sample_tilted_batch", refuse)
    paper = MC.certify_delocalization(1.0, None, None, None, None, samples=1_000,
                                      rng=np.random.default_rng(1))
    tuned = MC.certify_delocalization(
        1.0, zeta_override=0.08, gamma_override=0.5, epsilon_override=0.09,
        n_override=12, samples=1_000, rng=np.random.default_rng(1))
    assert paper.verdict == "infeasible-at-paper-constants"
    assert tuned.verdict in ("pass", "fail")

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from pinninglab import gaussian as G
from pinninglab import hierarchy as H
from pinninglab.errors import InvalidParameter, NotPositiveDefinite


@pytest.fixture(scope="module")
def spec6():
    return G.factorize(G.build_hier_coupling(6))


def test_hier_coupling_entries_n2():
    spec = G.factorize(G.build_hier_coupling(2))
    v = G.dense_hier_coupling(spec)
    bc = H.B_CRITICAL
    w1 = bc**-2 / math.sqrt(2.0)   # sibling pairs
    w2 = bc**-3 / math.sqrt(2.0)   # pairs joining at the root
    assert v[0, 1] == pytest.approx(w1)
    assert v[2, 3] == pytest.approx(w1)
    assert v[0, 2] == pytest.approx(w2)
    assert v[1, 3] == pytest.approx(w2)
    assert np.all(np.diag(v) == 0.0)
    assert np.all(v == v.T)


def test_hier_coupling_unit_norm():
    for n in range(2, 13):
        spec = G.factorize(G.build_hier_coupling(n))
        assert float(np.dot(spec.mult, spec.eigs**2)) == pytest.approx(1.0, abs=1e-10)
    v = G.dense_hier_coupling(G.build_hier_coupling(5))
    assert float(np.sum(v * v)) == pytest.approx(1.0, abs=1e-10)
    off = v[~np.eye(v.shape[0], dtype=bool)]
    assert np.all(off > 0)


def test_haar_eigs_match_dense(spec6):
    for n in range(1, 7):
        spec = G.factorize(G.build_hier_coupling(n))
        dense = np.sort(np.linalg.eigvalsh(G.dense_hier_coupling(spec)))
        assert np.max(np.abs(dense - np.sort(np.repeat(spec.eigs, spec.mult)))) < 1e-8


def test_haar_roundtrip():
    # the energies of a synthesized signal are those of its coefficients, per
    # block of the Haar vector: the smooth part, then the coarsest scale first
    rng = np.random.default_rng(0)
    spec = G.build_hier_coupling(5)
    details = [rng.standard_normal((3, 2 ** (5 - s))) for s in range(1, 6)]
    smooth = rng.standard_normal((3, 1))
    x = G.haar_synthesis(details, smooth)
    want = np.stack([smooth[:, 0] ** 2] + [np.sum(d**2, axis=1) for d in details[::-1]],
                    axis=1)
    assert np.allclose(spec.energies(x), want, rtol=1e-12, atol=0)
    # orthonormality: coefficient energy equals signal energy
    assert np.allclose(want.sum(axis=1), np.sum(x**2, axis=1), rtol=1e-12, atol=0)


def test_pd_window(spec6):
    lam = spec6.lam_max
    with pytest.raises(NotPositiveDefinite):
        G.sample_tilted_batch(spec6, 1.01 / lam, np.random.default_rng(0), 2)
    out = G.sample_tilted_batch(spec6, 0.9 / lam, np.random.default_rng(0), 2)
    assert out.shape == (2, 64)


def test_sampled_covariance(spec6):
    rng = np.random.default_rng(12)
    eps = 0.4
    m = 100_000
    om = G.sample_tilted_batch(spec6, eps, rng, m)
    var = om.var(axis=0, ddof=1)
    se = math.sqrt(2.0 / m)
    assert np.all(np.abs(var - 1.0) <= 4 * se)
    v = G.dense_hier_coupling(spec6)
    for (i, j) in [(0, 1), (0, 2), (0, 63), (10, 11)]:
        c = float(np.mean(om[:, i] * om[:, j]))
        target = -eps * v[i, j]
        assert abs(c - target) <= 3.5 / math.sqrt(m)


def test_untilted_is_standard_normal(spec6):
    rng = np.random.default_rng(5)
    om = G.sample_tilted_batch(spec6, 0.0, rng, 20_000)
    d, p = stats.kstest(om[:, 7], "norm")
    assert p > 0.01


def test_holder_cost_2x2_closed_form():
    # a single sibling pair: coupling [[0, v], [v, 0]]
    spec = G.factorize(G.build_hier_coupling(1))
    v = float(G.dense_hier_coupling(spec)[0, 1])
    eps, gamma = 0.1, 0.6
    t = eps / (1.0 - gamma)
    num = 1.0 - t**2 * v**2
    den = 1.0 - eps**2 * v**2
    expect = num ** ((1 - gamma) / (2 * gamma)) / den ** (1 / (2 * gamma))
    cost = G.holder_cost(spec, eps, gamma)
    assert cost.value == pytest.approx(expect, rel=1e-12)


def test_holder_cost_trivial_and_bound(spec6):
    cost0 = G.holder_cost(spec6, 0.0, 0.7)
    assert cost0.value == 1.0
    assert cost0.bound == 1.0
    for eps, gamma in [(0.05, 0.5), (0.1, 0.6), (0.15, 0.5), (0.1, 0.8)]:
        if eps / (1 - gamma) > 0.5:
            continue
        c = G.holder_cost(spec6, eps, gamma)
        assert c.value >= c.bound
        assert c.bound == pytest.approx(
            math.exp(-eps**2 / (2 * gamma * (1 - gamma))))
    with pytest.raises(InvalidParameter):
        G.holder_cost(spec6, 0.5, 0.6)


def test_hier_n8_bound_example():
    spec = G.factorize(G.build_hier_coupling(8))
    cost = G.holder_cost(spec, 0.1, 0.6)
    assert cost.value >= math.exp(-0.1**2 / (2 * 0.6 * 0.4))


def test_det_c_at_most_one(spec6):
    for eps in (0.1, 0.3, 0.6):
        assert G.coupling_logdet(spec6, eps) <= 0.0


def test_logdet_quadratic_lower_bound(spec6):
    # log det(I - tV) >= -t^2 ||V||^2 in the small-tilt window
    for t in (0.1, 0.25, 0.5):
        assert G.coupling_logdet(spec6, t) >= -t**2 * spec6.hs_norm**2 - 1e-12


def test_density_ratio_normalization(spec6_small=None):
    spec = G.factorize(G.build_hier_coupling(3))
    rng = np.random.default_rng(8)
    om = rng.standard_normal((100_000, 8))
    eps = 0.3
    vals = np.exp(G.density_ratio(om, spec, eps))
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) <= 3 * se
    assert G.density_ratio(om[0], spec, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_density_ratio_matches_holder_quantity():
    # the inverse-power moment of the density equals the determinant form
    spec = G.factorize(G.build_hier_coupling(3))
    eps, gamma = 0.1, 0.6
    rng = np.random.default_rng(15)
    om = rng.standard_normal((200_000, 8))
    r = G.density_ratio(om, spec, eps)
    vals = np.exp(-gamma / (1.0 - gamma) * r)
    mc = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    exact = G.holder_cost(spec, eps, gamma).value ** (gamma / (gamma - 1.0))
    assert abs(mc - exact) <= 3 * se


def test_block_profile_basics():
    h = G.block_profile(6, 0.75)
    assert np.all(np.diag(h) == 0.0)
    assert h[0, 1] == pytest.approx((1 - 0.75) / math.sqrt(9 * 6 * math.log(6)))
    assert np.all(h == h.T)
    # the paper's (1 - gamma)/sqrt(9 k log(k) |i - j|) at |i - j| = 2
    assert G.block_profile(3, 0.6)[0, 2] == pytest.approx(
        0.4 / math.sqrt(9 * 3 * math.log(3) * 2), rel=1e-14)
    with pytest.raises(InvalidParameter):
        G.block_profile(1, 0.75)


def test_block_spec_sampling_and_cost():
    spec = G.factorize(G.build_block_coupling(8, 0.75, (1, 2, 4)))
    assert spec.dim == 32
    rng = np.random.default_rng(3)
    om = G.sample_tilted_batch(spec, 1.0, rng, 60_000)
    h = G.block_profile(8, 0.75)
    # tilted covariance inside a selected block
    c01 = float(np.mean(om[:, 0] * om[:, 1]))
    assert abs(c01 - (-h[0, 1])) <= 3.5 / math.sqrt(60_000)
    # untouched block stays uncorrelated
    c_id = float(np.mean(om[:, 16] * om[:, 17]))
    assert abs(c_id) <= 3.5 / math.sqrt(60_000)
    cost = G.holder_cost(spec, 1.0, 0.75)
    assert cost.bound == pytest.approx(math.exp(0.5 * 3))
    assert cost.value <= cost.bound


@pytest.mark.parametrize("k, M, S", [(3, (1, 3), 5), (4, (2,), 1), (5, (1, 4, 6), 40),
                                     (2, (2, 3, 7), 17)])
def test_block_batch_equals_single_row_calls(k, M, S):
    # a batch of S tilted rows is S one-row calls, bit for bit, and leaves
    # the generator where they leave it
    spec = G.factorize(G.build_block_coupling(k, 0.75, M))
    rng_b, rng_s = np.random.default_rng(31), np.random.default_rng(31)
    batch = G.sample_tilted_batch(spec, 1.0, rng_b, S)
    rows = [G.sample_tilted_batch(spec, 1.0, rng_s, 1) for _ in range(S)]
    assert np.array_equal(batch, np.concatenate(rows))
    assert rng_b.bit_generator.state == rng_s.bit_generator.state


def test_block_density_ratio_normalizes():
    spec = G.factorize(G.build_block_coupling(4, 0.75, (1, 2)))
    rng = np.random.default_rng(4)
    om = rng.standard_normal((100_000, 8))
    vals = np.exp(G.density_ratio(om, spec, 1.0))
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) <= 3 * se


def _dense_log_density(om, v, eps):
    a = np.eye(v.shape[0]) - eps * v
    sign, logdet = np.linalg.slogdet(a)
    assert sign > 0
    quad = np.einsum("ri,ij,rj->r", om, np.linalg.inv(a) - np.eye(v.shape[0]), om)
    return -0.5 * quad - 0.5 * logdet


def test_density_ratio_matches_dense_formula():
    # one batched call against -1/2 w^T ((I - eps V)^-1 - I) w - 1/2 log det(I - eps V)
    rng = np.random.default_rng(23)
    cases = [(G.build_hier_coupling(n), None, 0.3) for n in range(1, 5)]
    k, blocks = 8, (1, 2, 4)
    v = np.zeros((k * blocks[-1],) * 2)
    for b in blocks:
        v[(b - 1) * k : b * k, (b - 1) * k : b * k] = G.block_profile(k, 0.75)
    cases.append((G.build_block_coupling(k, 0.75, blocks), v, 1.0))
    for spec, v, eps in cases:
        if v is None:
            v = G.dense_hier_coupling(spec)
        om = rng.standard_normal((5, spec.dim))
        batch = G.density_ratio(om, spec, eps)
        assert batch.shape == (5,)
        np.testing.assert_allclose(batch, _dense_log_density(om, v, eps), rtol=1e-12, atol=0)
        assert G.density_ratio(om[2], spec, eps) == batch[2]


@pytest.mark.parametrize("spec", [G.build_hier_coupling(n) for n in (1, 2, 3, 4, 5, 6, 16)]
                         + [G.build_block_coupling(3, 0.75, (1, 2)),
                            G.build_block_coupling(8, 0.75, (1, 2, 4))],
                         ids=[f"hier{n}" for n in (1, 2, 3, 4, 5, 6, 16)]
                         + ["block3", "block8"])
def test_one_row_calls_equal_the_batch_after_the_memo_fills(spec):
    # the tilt constants built on the first call at each epsilon serve the
    # later ones: alternating two tilts, every one-row value is its batch row
    rng = np.random.default_rng(40)
    om = rng.standard_normal((6, spec.dim))
    eps_pair = (0.3, 0.15) if isinstance(spec, G.HierCoupling) else (1.0, 0.5)
    batches = {eps: G.density_ratio(om, spec, eps) for eps in eps_pair}
    for _ in range(2):
        for eps in eps_pair:
            for i in range(om.shape[0]):
                assert G.density_ratio(om[i], spec, eps) == batches[eps][i]
            assert np.array_equal(G.density_ratio(om, spec, eps), batches[eps])


def test_a_replaced_spectrum_gets_its_own_tilt_constants():
    # the memo lives on the instance: a spectrum shifted by 1e-6 at the same
    # (n, B) and epsilon reads its own density and log det, not the memo's
    spec = G.build_hier_coupling(4)
    om = np.random.default_rng(41).standard_normal(spec.dim)
    first = G.density_ratio(om, spec, 0.3)
    logdet = G.coupling_logdet(spec, 0.3)
    shifted = dataclasses.replace(spec, eigs=spec.eigs + 1e-6)
    assert G.density_ratio(om, shifted, 0.3) != first
    assert G.coupling_logdet(shifted, 0.3) != logdet
    fresh = G.build_hier_coupling(4, spec.B)
    fresh_shifted = dataclasses.replace(fresh, eigs=fresh.eigs + 1e-6)
    assert G.density_ratio(om, shifted, 0.3) == G.density_ratio(om, fresh_shifted, 0.3)
    assert G.density_ratio(om, spec, 0.3) == first


@pytest.mark.parametrize("spec", [G.build_hier_coupling(4),
                                  G.build_block_coupling(3, 0.75, (1, 2))],
                         ids=["hier4", "block3"])
def test_a_singular_tilt_raises_on_every_call(spec):
    # past 1 / lam_max, I - t * coupling has a negative eigenvalue
    om = np.zeros(spec.dim)
    t = 2.0 / spec.lam_max
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite):
            G.density_ratio(om, spec, t)
        with pytest.raises(NotPositiveDefinite):
            G.coupling_logdet(spec, t)
    assert spec._tilts == {}


@pytest.mark.parametrize("spec", [G.build_hier_coupling(4),
                                  G.build_block_coupling(3, 0.75, (1, 2))],
                         ids=["hier4", "block3"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_tilt_is_an_invalid_parameter(spec, t):
    om = np.zeros(spec.dim)
    for _ in range(2):
        with pytest.raises(InvalidParameter):
            G.coupling_logdet(spec, t)
        with pytest.raises(InvalidParameter):
            G.density_ratio(om, spec, t)
        with pytest.raises(InvalidParameter):
            G.holder_cost(spec, t, 0.5)
        with pytest.raises(InvalidParameter):
            G.sample_tilted_batch(spec, t, np.random.default_rng(0), 2)
    assert spec._tilts == {}

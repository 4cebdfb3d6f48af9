import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinninglab import hierarchy as H
from pinninglab import hiermc
from pinninglab import oracles
from pinninglab.errors import InvalidParameter

B_GRID = [1.2, 1.3, H.B_CRITICAL, 1.6, 1.9]


@given(st.floats(min_value=1.0001, max_value=1.9999))
@settings(max_examples=50)
def test_annealed_fixed_points(B):
    assert H.annealed_map_step(1.0, B) == pytest.approx(1.0)
    assert H.annealed_map_step(B - 1.0, B) == pytest.approx(B - 1.0)


def test_annealed_map_examples():
    assert H.annealed_map_step(0.0, math.sqrt(2)) == pytest.approx(
        (math.sqrt(2) - 1) / math.sqrt(2))
    with pytest.raises(InvalidParameter):
        H.annealed_map_step(-0.1, 1.5)


def test_alpha_of_B():
    assert H.alpha_of_B(H.B_CRITICAL) == pytest.approx(0.5)
    assert H.alpha_of_B(1.9999) < 1e-3
    assert H.alpha_of_B(1.0001) > 0.999
    with pytest.raises(InvalidParameter):
        H.alpha_of_B(2.0)


def test_envelope_monotone():
    prev = -1.0
    for n in range(0, 40):
        x = math.exp(H.annealed_log_iterate(-math.inf, n, H.B_CRITICAL))
        assert x > prev
        assert x < H.B_CRITICAL - 1.0
        prev = x
    assert math.exp(H.annealed_log_iterate(-math.inf, 0, 1.5)) == 0.0
    n_star = H.envelope_generation(H.B_CRITICAL, 1e-6)
    envelope = math.exp(H.annealed_log_iterate(-math.inf, n_star, H.B_CRITICAL))
    assert (H.B_CRITICAL - 1.0) - envelope < 1e-6


def test_subtree_node_count_examples():
    assert H.subtree_node_count(H.TreeIndexSet(n=4, leaves=(4, 6, 13))) == 9
    assert H.subtree_node_count(H.TreeIndexSet(n=1, leaves=(1, 2))) == 1
    for n in (1, 3, 5):
        for leaf in (1, 2**n):
            assert H.subtree_node_count(H.TreeIndexSet(n=n, leaves=(leaf,))) == n


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_subtree_node_count_vs_path_oracle(n, data):
    leaves = data.draw(st.sets(st.integers(1, 2**n), min_size=1, max_size=min(2**n, 8)))
    idx = H.TreeIndexSet(n=n, leaves=tuple(leaves))
    assert H.subtree_node_count(idx) == oracles.subtree_nodes_by_paths(n, leaves)


@pytest.mark.parametrize("B", [H.B_CRITICAL, 1.3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gw_expectation_vs_enumeration(n, B):
    import itertools
    for r in range(1, 2**n + 1):
        for leaves in itertools.combinations(range(1, 2**n + 1), r):
            idx = H.TreeIndexSet(n=n, leaves=leaves)
            assert H.gw_product_expectation(idx, B) == pytest.approx(
                oracles.gw_enumeration_expectation(n, leaves, B), abs=1e-12)


def test_gw_single_leaf_green():
    for n in (2, 5, 9):
        idx = H.TreeIndexSet(n=n, leaves=(3 % 2**n + 1,))
        assert H.gw_product_expectation(idx, H.B_CRITICAL) == pytest.approx(
            H.B_CRITICAL**-n)


def test_pair_overlap_critical_identity():
    for n in range(1, 31):
        assert H.pair_overlap_sum(n, H.B_CRITICAL) == pytest.approx(n, abs=1e-12)


def test_pair_overlap_example_value():
    # 4 * (1.5^-4 + 2 * 1.5^-6) for two generations at B = 1.5
    expect = 4.0 * (1.5**-4 + 2 * 1.5**-6)
    assert H.pair_overlap_sum(2, 1.5) == pytest.approx(expect, rel=1e-12)
    assert H.pair_overlap_sum(2, 1.5) == pytest.approx(
        oracles.overlap_sum_brute(2, 1.5), rel=1e-12)


def test_pair_overlap_trends():
    # above the critical point the pair sum dies; below it explodes
    sup = [H.pair_overlap_sum(n, 1.6) for n in range(3, 16)]
    sub = [H.pair_overlap_sum(n, 1.25) for n in range(1, 16)]
    assert all(b < a for a, b in zip(sup, sup[1:]))
    assert sup[-1] < 0.1 * sup[0]
    assert all(b > a for a, b in zip(sub, sub[1:]))
    assert sub[-1] > 100 * sub[0]


def test_gw_cascade_leaves_statistics():
    # the branching law on the leaf-index replay, the draws gw-check counts
    rng = np.random.default_rng(2)
    n, B = 5, H.B_CRITICAL
    m = 100_000
    sid, leaf = oracles.gw_cascade_leaves(n, B, rng, m)
    p1 = sid[leaf == 0].size / m
    t1 = B**-n
    assert abs(p1 - t1) <= 3 * math.sqrt(t1 * (1 - t1) / m)
    # extinction at the first generation: the root stays childless
    sid1, _ = oracles.gw_cascade_leaves(1, B, rng, m)
    p_ext = 1.0 - np.unique(sid1).size / m
    t_ext = (B - 1.0) / B
    assert abs(p_ext - t_ext) <= 3 * math.sqrt(t_ext * (1 - t_ext) / m)
    # pair frequency against the closed two-point form: leaves 1 and 6 are 0 and 5
    pair = np.intersect1d(sid[leaf == 0], sid[leaf == 5]).size / m
    t2 = H.gw_product_expectation(H.TreeIndexSet(n=n, leaves=(1, 6)), B)
    assert abs(pair - t2) <= 3 * math.sqrt(t2 * (1 - t2) / m)


def test_log_partition_initial_and_annealed():
    params = H.HierParams(B=1.5, beta=0.7, h=0.2)
    om = np.array([0.4])
    assert H.hier_log_partition_batch(params, 0, om) == pytest.approx(
        0.7 * 0.4 - 0.5 * 0.49 + 0.2)
    pure = H.HierParams(B=1.5, beta=0.0, h=0.2)
    for n in (1, 5, 12, 20):
        lx = H.hier_log_partition_batch(pure, n, np.zeros(2**n))
        ref = H.annealed_log_iterate(0.2, n, 1.5)
        assert lx == pytest.approx(ref, rel=1e-12)


@given(st.integers(min_value=1, max_value=7), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_log_partition_floor_and_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    params = H.HierParams(B=H.B_CRITICAL, beta=1.0, h=-0.3)
    om = rng.standard_normal(2**n)
    lx = H.hier_log_partition_batch(params, n, om)
    assert lx >= H.annealed_log_iterate(-math.inf, n, params.B)
    swapped = np.concatenate([om[2**(n-1):], om[:2**(n-1)]])
    assert H.hier_log_partition_batch(params, n, swapped) == pytest.approx(lx, rel=1e-12)


def test_log_partition_no_overflow():
    params = H.HierParams(B=H.B_CRITICAL, beta=1.0, h=0.0)
    huge = np.full(4, 5e5)
    val = H.hier_log_partition_batch(params, 2, huge)
    assert np.isfinite(val)
    assert val > 1e6  # products of enormous leaf values survive in log form


def _guard_rows(n, beta, rng):
    """Disorder rows whose sibling sums let the linear fold run every level
    (leaves at -1e6, clamped, and at 0), some levels (a leaf near 400/beta
    stops it after level 1), typical ones (normal leaves) and none (+-1e6).
    Every sigma of the constant row is 360 + 2h, so its level-2 product
    would be about e^718: a guard looser by a fifth overflows on it.
    Siblings share the sign of +-1e6: opposite signs would cancel to roundoff
    of 1e6 in the leaf-by-leaf reference."""
    pairs = np.repeat(rng.choice([-1e6, 1e6], max(1, 2**n // 2)), 2)[: 2**n]
    rows = [np.full(2**n, -1e6), np.zeros(2**n), rng.standard_normal(2**n),
            3.0 * rng.standard_normal(2**n), np.full(2**n, 1e6), pairs,
            np.full(2**n, 180.0 / beta + beta / 2.0)]
    some = rng.standard_normal(2**n)
    some[0] = 400.0 / beta
    return np.array(rows + [some])


@pytest.mark.parametrize("n", [0, 1, 2, 6, 12])
def test_log_partition_matches_the_log_domain_fold(n):
    rng = np.random.default_rng(n)
    for beta, h in itertools.product([0.5, 1.0, 1.5, 3.0], [-0.2, 0.0, 0.6, 2.0]):
        params = H.HierParams(B=H.B_CRITICAL, beta=beta, h=h)
        om = _guard_rows(n, beta, rng)
        kept = om.copy()
        ref = oracles.hier_log_partition_log_domain(params, n, om)
        with np.errstate(over="raise", under="raise", invalid="raise"):
            lx = H.hier_log_partition_batch(params, n, om)
            alone = [H.hier_log_partition_batch(params, n, row) for row in om]
        assert np.array_equal(om, kept)
        assert np.all(np.abs(lx - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
        # the guard reads each row alone: batched and single rows agree bit for bit
        assert np.array_equal(lx, alone)


def test_log_partition_mc_mean_vs_annealed():
    rng = np.random.default_rng(6)
    n = 8
    params = H.HierParams(B=H.B_CRITICAL, beta=0.6, h=0.05)
    om = rng.standard_normal((40_000, 2**n))
    x = np.exp(H.hier_log_partition_batch(params, n, om))
    ref = math.exp(H.annealed_log_iterate(0.05, n, H.B_CRITICAL))
    se = x.std(ddof=1) / math.sqrt(x.shape[0])
    assert abs(x.mean() - ref) <= 3 * se


def test_y_statistic_empty_and_exact_mean():
    assert oracles.y_statistic(3, [], H.B_CRITICAL) == 0.0
    assert oracles.y_statistic(3, [4], H.B_CRITICAL) == 0.0
    with pytest.raises(InvalidParameter, match="generation >= 1"):
        oracles.y_statistic(0, [0, 1], H.B_CRITICAL)
    mean2 = oracles.y_mean_by_enumeration(2, H.B_CRITICAL)
    assert mean2 == pytest.approx(1.0, abs=1e-12)


def _fold_matches_replay(n, B, size, seed):
    """Check one call against the leaf-index replay run one `_sparse_chunk(n)`
    at a time and the O(p^2) oracle, realization by realization, and the
    generator's end state; return the alive counts."""
    rng_o, rng_f = np.random.default_rng(seed), np.random.default_rng(seed)
    y, counts = H.gw_overlap_samples(n, B, rng_f, size)
    assert y.shape == counts.shape == (size,)
    step = H._sparse_chunk(n)
    for r in range(0, size, step):
        m = min(step, size - r)
        sid, leaf = oracles.gw_cascade_leaves(n, B, rng_o, m)
        assert np.array_equal(counts[r : r + m], np.bincount(sid, minlength=m))
        for i in range(m):
            assert y[r + i] == pytest.approx(oracles.y_statistic(n, leaf[sid == i], B),
                                             abs=1e-12)
    assert rng_f.random() == rng_o.random()
    return counts


def test_gw_overlap_samples_match_y_statistic():
    # the bottom-up fold against the O(p^2) oracle on the leaf-index replay
    for B, n in itertools.product((1.2, H.B_CRITICAL, 1.9), (1, 2, 4, 7)):
        assert np.count_nonzero(_fold_matches_replay(n, B, 200, 9) >= 2) > 10


@pytest.mark.parametrize("n, B, size", [(5, H.B_CRITICAL, 0), (1, H.B_CRITICAL, 60),
                                        (7, 1.2, 40), (4, 1.9, 300)])
def test_gw_overlap_samples_sliced_fold(monkeypatch, n, B, size):
    # chunks of 7 realizations: every call but the empty one folds several
    # chunks, the last one short, and each chunk must give the replay's
    # counts and the oracle's Y
    monkeypatch.setattr(H, "_sparse_chunk", lambda n: 7)
    counts = _fold_matches_replay(n, B, size, 17)
    if n == 7:   # a realization that keeps most of the tree's 128 leaves
        assert counts.max() > 64
    if B == 1.9:   # two dead realizations in a row, away from the ends
        assert np.any(counts[1:-2] + counts[2:-1] == 0)


@pytest.mark.parametrize("n, B, size", [(10, H.B_CRITICAL, 4000), (16, H.B_CRITICAL, 300),
                                        (6, 1.2, 2000), (9, 1.9, 3000),
                                        (hiermc.MAX_GENERATION, H.B_CRITICAL, 5)])
def test_gw_overlap_samples_draw_identity(n, B, size):
    # the fold consumes the generator exactly as the leaf-index replay run one
    # `_sparse_chunk(n)` at a time does; the first two cases span two chunks,
    # and at n 20 four of the five realizations keep 1 162-2 482 leaves
    rng_o, rng_f = np.random.default_rng(31), np.random.default_rng(31)
    step = H._sparse_chunk(n)
    replay = [np.bincount(oracles.gw_cascade_leaves(n, B, rng_o, m)[0], minlength=m)
              for m in (min(step, size - r) for r in range(0, size, step))]
    _, counts = H.gw_overlap_samples(n, B, rng_f, size)
    assert np.array_equal(counts, np.concatenate(replay))
    assert rng_f.random() == rng_o.random()


def test_gw_overlap_samples_edge_sizes():
    with pytest.raises(InvalidParameter, match="generation >= 1"):
        H.gw_overlap_samples(0, H.B_CRITICAL, np.random.default_rng(0), 10)
    y, counts = H.gw_overlap_samples(5, H.B_CRITICAL, np.random.default_rng(0), 0)
    assert y.shape == counts.shape == (0,)
    # seed 7 kills all three roots: a chunk with no leaves at all
    y, counts = H.gw_overlap_samples(4, 1.9, np.random.default_rng(7), 3)
    assert np.array_equal(y, np.zeros(3)) and np.array_equal(counts, np.zeros(3))


@pytest.mark.parametrize("n, B, size, chunk", [(5, H.B_CRITICAL, 23, 4), (7, 1.2, 40, 16),
                                                (4, 1.9, 300, 7), (6, H.B_CRITICAL, 8, 8)])
def test_gw_overlap_samples_chunks_are_whole_calls(monkeypatch, n, B, size, chunk):
    # a call spanning several chunks is one call per chunk, in order: the
    # same Y, the same counts and the same generator end state
    monkeypatch.setattr(H, "_sparse_chunk", lambda n: chunk)
    rng_c, rng_w = np.random.default_rng(41), np.random.default_rng(41)
    y, counts = H.gw_overlap_samples(n, B, rng_c, size)
    monkeypatch.setattr(H, "_sparse_chunk", lambda n: size)
    parts = [H.gw_overlap_samples(n, B, rng_w, min(chunk, size - i))
             for i in range(0, size, chunk)]
    assert np.array_equal(y, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(counts, np.concatenate([p[1] for p in parts]))
    assert rng_c.random() == rng_w.random()
    if size > chunk:   # chunks draw otherwise than one whole call
        whole = H.gw_overlap_samples(n, B, np.random.default_rng(41), size)[1]
        assert not np.array_equal(counts, whole)


def test_gw_overlap_samples_peak_memory():
    # chunks of about 2^16 leaves keep the cascades of certify-tuned (n 16)
    # and certify-paper (n 20) small, at hier-certify's default paper-mode
    # count of 40 000 too; a whole-call draw at n 20 peaks near 49 MB
    for n, size in ((16, 10_000), (hiermc.MAX_GENERATION, 4000),
                    (hiermc.MAX_GENERATION, 40_000)):
        tracemalloc.start()
        try:
            H.gw_overlap_samples(n, H.B_CRITICAL, np.random.default_rng(2), size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (n, size, peak)


def test_gw_overlap_samples_match_dense_moments():
    rng = np.random.default_rng(14)
    n = 6
    y, counts = H.gw_overlap_samples(n, H.B_CRITICAL, rng, 200_000)
    se = y.std(ddof=1) / math.sqrt(y.size)
    assert abs(y.mean() - 1.0) <= 3 * se
    t = (2.0 / H.B_CRITICAL) ** n
    se_c = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - t) <= 3 * se_c


def test_y_mc_mean_is_one():
    rng = np.random.default_rng(3)
    y, _ = H.gw_overlap_samples(8, H.B_CRITICAL, rng, 100_000)
    se = y.std(ddof=1) / math.sqrt(y.size)
    assert abs(y.mean() - 1.0) <= 3 * se


def test_y_second_moment_methods_agree():
    for n in (2, 3, 4, 5, 6, 7):
        assert oracles.y_second_moment_brute(n) == pytest.approx(
            H.y_second_moment(n), abs=1e-10)
    with pytest.raises(InvalidParameter):
        H.y_second_moment(1)
    with pytest.raises(InvalidParameter):
        oracles.y_second_moment_brute(8)


def test_y_second_moment_brute_matches_the_full_quadruple_sum():
    # the oracle fixes its first leaf at 0 by xor symmetry; this sums all 8^4
    # quadruples at n = 3, each weight from materialized root-to-leaf paths
    n, B = 3, H.B_CRITICAL
    total = 0.0
    for i, j, k, l in itertools.product(range(1, 2**n + 1), repeat=4):
        if i != j and k != l:
            total += B ** -(oracles.subtree_nodes_by_paths(n, (i, j))
                            + oracles.subtree_nodes_by_paths(n, (k, l))
                            + oracles.subtree_nodes_by_paths(n, (i, j, k, l)))
    assert oracles.y_second_moment_brute(n) == pytest.approx(total / n**2, rel=1e-13)


def test_y_second_moment_vs_mc():
    rng = np.random.default_rng(21)
    n = 6
    y, _ = H.gw_overlap_samples(n, H.B_CRITICAL, rng, 300_000)
    exact = H.y_second_moment(n)
    se = (y**2).std(ddof=1) / math.sqrt(y.size)
    assert abs((y**2).mean() - exact) <= 3 * se


def test_y_second_moment_bounded_and_jensen():
    vals = [H.y_second_moment(n) for n in range(2, 31)]
    assert all(v >= 1.0 for v in vals)
    assert H.k_hat() == pytest.approx(max(vals))
    # values of the join-topology sums that the recursion replaced, past the
    # enumeration's reach
    for n, v in [(10, 3.143063441997473), (20, 2.8229052065744353), (30, 2.6744729847253943)]:
        assert vals[n - 2] == pytest.approx(v, rel=1e-13)
    assert H.k_hat() == pytest.approx(3.1904769458247673, rel=1e-13)


def test_fractional_threshold_values():
    t = H.fractional_threshold(H.B_CRITICAL, 0.8)
    assert t == pytest.approx(2**0.4 - 2 * (math.sqrt(2) - 1) ** 0.8, rel=1e-12)
    assert t == pytest.approx(0.3313, abs=2e-4)
    # near unit moment order the threshold root approaches 2 - B
    g = 1 - 1e-9
    root = H.fractional_threshold(1.5, g) ** (1 / g)
    assert root == pytest.approx(0.5, abs=1e-6)


@given(st.floats(min_value=1.05, max_value=1.95),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=80)
def test_fractional_threshold_sign(B, gamma):
    t = H.fractional_threshold(B, gamma)
    crossing = H.gamma_positive_threshold(B)
    if gamma > crossing + 1e-9:
        assert t > 0
    elif gamma < crossing - 1e-9:
        assert t < 0


def test_gamma_for_gap_meets_target():
    # 1 / (40 k_hat) is the certificate's paper-mode zeta
    for zeta in (0.05, 0.2, 0.5, 1 / (40 * H.k_hat())):
        g = H.gamma_for_gap(H.B_CRITICAL, zeta)
        # the feasible end of a bracket at most 1e-12 wide
        assert H.gap_excess(H.B_CRITICAL, g, zeta) >= 0.0
        assert H.gap_excess(H.B_CRITICAL, g - 2e-12, zeta) < 0.0
        t = H.fractional_threshold(H.B_CRITICAL, g) ** (1 / g)
        assert t >= 2 - H.B_CRITICAL - zeta / 4 - 1e-9
        # the boundary is tight: slightly smaller orders fail
        g2 = g - 1e-3
        t2 = H.fractional_threshold(H.B_CRITICAL, g2)
        assert t2 <= 0 or t2 ** (1 / g2) < 2 - H.B_CRITICAL - zeta / 4

import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pinninglab import renewal as R
from pinninglab.errors import HorizonExceeded, InvalidParameter
from pinninglab import oracles
from pinninglab.numerics import bracketed_root, zeta
from pinninglab.quenched import QuenchedConfig, log_partition_profile


@pytest.fixture(scope="module")
def half_law():
    return R.make_power_law(0.5, 4000)


@pytest.fixture(scope="module")
def two_point():
    return R.law_from_mass([0.6, 0.4])


def test_power_law_normalizer_series_oracle():
    # independent series + tail-integral evaluation of the normalizer
    law = R.make_power_law(0.5, 100)
    z = oracles.zeta_by_series(1.5)
    assert law.c_k == pytest.approx(1.0 / z, rel=1e-6)
    assert 0.38 < law.c_k < 0.39


def test_power_law_total_and_tail():
    law = R.make_power_law(0.5, 5000)
    assert law.total < 1.0
    assert law.grand_total == pytest.approx(1.0, abs=1e-12)
    assert law.mass[1] == pytest.approx(law.c_k)  # largest single mass
    assert np.all(np.diff(law.mass[1:]) < 0)


def test_law_sums_return_python_floats(half_law):
    # the stored tail mass, and every sum built on it, is the annotated float
    assert type(half_law.tail_mass) is float
    for rate in (0.0, 1e-6, 0.3):  # the exact tail, the series (z < 1), the fraction
        assert type(R._tail_integral(half_law, rate)) is float
        assert type(R.characteristic_sum(half_law, rate)) is float
    for h in (-0.1, 0.3):
        assert type(R.homogeneous_free_energy(half_law, h)) is float


def test_make_power_law_windows():
    with pytest.raises(InvalidParameter):
        R.make_power_law(0.0, 100)
    with pytest.raises(InvalidParameter):
        R.make_power_law(0.5, 1)


def test_green_hand_convolution(two_point):
    t = R.green_function(two_point, 2)
    assert t.u[0] == 1.0
    assert t.u[1] == pytest.approx(0.6)
    assert t.u[2] == pytest.approx(0.76)


def test_green_horizon_guard(half_law, two_point):
    with pytest.raises(HorizonExceeded):
        R.green_function(half_law, half_law.n_max + 1)
    # finite-support laws extend exactly: no mass lives beyond the horizon
    t = R.green_function(two_point, 6)
    assert R.renewal_residual(t) < 1e-12


def test_green_direct_vs_fft(half_law):
    # the site-by-site start (0, 1, 2, 511), one full base block (512), the
    # first convolution block past it (513) and several levels of FFT carries
    for N in (0, 1, 2, 511, 512, 513, 1025, 3000):
        a = oracles.green_direct(half_law, N)
        table = R.green_function(half_law, N)
        assert np.max(np.abs(a - table.u) / a) < 1e-10
        assert R.renewal_residual(table) < 1e-12


def test_green_matches_path_enumeration():
    law = R.law_from_mass([0.5, 0.3, 0.2])
    u = R.green_function(law, 3).u
    u_ref = oracles.green_by_enumeration(law, 3)
    assert np.allclose(u, u_ref, atol=1e-12)


def test_renewal_residual(half_law):
    table = R.green_function(half_law, 4000)
    assert R.renewal_residual(table) < 1e-12


def test_partial_sum_constant():
    law = R.make_power_law(0.5, 100_000)
    u = R.green_function(law, 100_000).u
    ratio = u[1:].sum() / math.sqrt(100_000) * math.pi * law.c_k
    assert abs(ratio - 1.0) < 0.03


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_green_residual_random_laws(size, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, size)
    law = R.law_from_mass(w / w.sum())
    table = R.green_function(law, size)
    assert R.renewal_residual(table) < 1e-12


_GUIDE_LAWS = [R.make_power_law(0.5, n) for n in (2, 4, 256, 4096, 100_000)] + [
    R.law_from_mass([0.3, 0.2, 0.1])]


@pytest.mark.parametrize("law", _GUIDE_LAWS, ids=lambda law: f"n_max={law.n_max}")
def test_guide_table_gaps_are_exact(law):
    # the guide lookup against a plain binary search on every cdf value,
    # the float just below each and every bucket edge b / 2^16
    cdf = law.cdf[1:]
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.arange(1 << 16) / (1 << 16)])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert np.array_equal(R._gaps(law, u, law.n_max), cdf.searchsorted(u) + 1)
    assert law.guide.nbytes <= 512 * 1024


def test_sample_path_deterministic(half_law):
    p1 = R.sample_path(half_law, 500, np.random.default_rng(5), size=1)
    p2 = R.sample_path(half_law, 500, np.random.default_rng(5), size=1)
    assert np.array_equal(p1.points, p2.points)
    assert p1.points[0] == 0
    assert np.all(np.diff(p1.points) >= 1)


def test_sample_path_gap_frequency(half_law):
    rng = np.random.default_rng(11)
    n = 1_000_000
    gaps = np.searchsorted(half_law.cdf[1:], rng.random(n)) + 1
    freq = np.mean(gaps == 1)
    p = half_law.mass[1]
    assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_sample_path_mean_points_vs_green(half_law):
    L = 400
    expected = R.green_function(half_law, L).u[1:].sum()
    rng = np.random.default_rng(17)
    counts = np.diff(R.sample_path(half_law, L, rng, size=10_000).offsets) - 1
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - expected) <= 3 * se


_DRAW_LAWS = {
    "power": R.make_power_law(0.5, 2000),
    "power-short": R.make_power_law(0.5, 4),   # about a third of the mass in the tail
    "two-point": R.law_from_mass([0.6, 0.4]),
    "sub-probability": R.law_from_mass([0.3, 0.2, 0.1]),
}


def _assert_batch_equals_sequential_draws(law, N, size, seed):
    """`size` batched paths, then one more, equal sequential draws from the
    same seed, and leave the generator where they do."""
    r_batch, r_seq = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = R.sample_path(law, N, r_batch, size=size)
    assert len(batch) == size and batch.offsets.size == size + 1
    for a, b in zip(batch.offsets[:-1], batch.offsets[1:]):
        assert np.array_equal(batch.points[a:b], oracles.sample_path_sequential(law, N, r_seq))
    assert r_batch.random() == r_seq.random()
    one = R.sample_path(law, N, r_batch, size=1)
    assert np.array_equal(one.points, oracles.sample_path_sequential(law, N, r_seq))
    assert r_batch.random() == r_seq.random()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_DRAW_LAWS)), N=st.integers(1, 2000),
       size=st.sampled_from([0, 1, 2, 300]), seed=st.integers(0, 2**32 - 1))
@example(name="power", N=1, size=300, seed=1)
@example(name="power", N=200, size=2, seed=2)
@example(name="power", N=2000, size=300, seed=3)         # N = n_max
@example(name="power-short", N=4, size=300, seed=4)      # exits through the tail mass
@example(name="two-point", N=1000, size=2, seed=5)       # crosses draw boundaries
@example(name="two-point", N=2000, size=1, seed=9)       # one path over three rounds
@example(name="two-point", N=2, size=300, seed=6)        # N = n_max
@example(name="sub-probability", N=3, size=300, seed=7)  # exits through the deficit
@example(name="sub-probability", N=50, size=300, seed=10)  # ends in the deficit
@example(name="power", N=2000, size=0, seed=8)
def test_batched_draws_equal_sequential_draws(name, N, size, seed):
    law = _DRAW_LAWS[name]
    if law.tail_mass > 0.0:
        N = min(N, law.n_max)
    _assert_batch_equals_sequential_draws(law, N, size, seed)


@pytest.mark.parametrize("max_draws", [1, 2, 3])
def test_batched_draws_equal_sequential_draws_in_short_rounds(monkeypatch, max_draws):
    # rounds of 1 to 3 draws: paths cross round boundaries in every way; at
    # 2 and 3 draws, a two-point case has rounds whose last draw carries a
    # path into the next round after another path ended in them
    monkeypatch.setattr(R, "_MAX_DRAWS", max_draws)
    for name, N, size, seed in [("two-point", 500, 40, 11), ("two-point", 1000, 20, 12),
                                ("power", 2000, 300, 13), ("sub-probability", 50, 300, 14)]:
        _assert_batch_equals_sequential_draws(_DRAW_LAWS[name], N, size, seed)


def test_batched_draws_cover_exits_and_draw_boundaries():
    # the cases the property test pins down do happen at their examples
    cdf = _DRAW_LAWS["power-short"].cdf
    u = np.random.default_rng(4).random(256)
    assert np.any(u > cdf[-1])                                  # a tail-mass draw
    path = R.sample_path(_DRAW_LAWS["two-point"], 1000, np.random.default_rng(5), size=1)
    assert path.points.size > 256                               # more than one draw


def test_sample_path_size_zero_draws_nothing(half_law):
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    empty = R.sample_path(half_law, 100, rng, size=0)
    assert len(empty) == 0 and empty.points.size == 0
    assert rng.random() == ref.random()
    with pytest.raises(InvalidParameter):
        R.sample_path(half_law, 100, rng, size=-1)


def test_renewal_paths_validation():
    paths = R.RenewalPaths(offsets=[0, 2, 3], points=[0, 5, 0])
    assert len(paths) == 2 and paths.points.dtype == np.int64
    for offsets, points in (([0, 2], [0, 5, 0]), ([0, 2, 3], [0, 5, 1]),
                            ([0, 2, 2], [0, 5]), ([0, 3], [0, 5, 4])):
        with pytest.raises(InvalidParameter):
            R.RenewalPaths(offsets=offsets, points=points)


def test_sample_path_tail_guard(half_law):
    with pytest.raises(HorizonExceeded):
        R.sample_path(half_law, half_law.n_max + 1, np.random.default_rng(0), size=1)


def test_sample_path_occupancy_matches_green(half_law):
    # empirical occupancy frequencies against the Green marginals, with a
    # Bonferroni-wide band over the probed positions
    L = 300
    u = R.green_function(half_law, L).u
    rng = np.random.default_rng(23)
    m = 20_000
    probes = np.array([1, 2, 5, 10, 50, 200])
    # a path holds each point at most once: hits count the paths through it
    pts = R.sample_path(half_law, L, rng, size=m).points
    freq = np.array([np.count_nonzero(pts == p) for p in probes]) / m
    for p, f in zip(probes, freq):
        se = math.sqrt(u[p] * (1 - u[p]) / m)
        assert abs(f - u[p]) <= 4 * se


def test_sub_probability_occupancy_matches_green():
    # past n_max a draw in the deficit ends the path: the occupancy of every
    # site against the Green marginals, each within 4 standard errors
    law = R.law_from_mass([0.3, 0.2])
    N, m = 10, 20_000
    u = R.green_function(law, N).u[1:]
    pts = R.sample_path(law, N, np.random.default_rng(29), size=m).points
    freq = np.bincount(pts, minlength=N + 1)[1:] / m
    assert np.all(np.abs(freq - u) <= 4 * np.sqrt(u * (1 - u) / m))


def test_free_energy_zero_for_nonpositive_reward(half_law):
    assert R.homogeneous_free_energy(half_law, 0.0) == 0.0
    assert R.homogeneous_free_energy(half_law, -0.5) == 0.0


def test_free_energy_root_solves_characteristic(half_law):
    f = R.homogeneous_free_energy(half_law, 0.3)
    assert R.characteristic_sum(half_law, f) == pytest.approx(math.exp(-0.3), rel=1e-9)


def test_free_energy_on_the_annealed_scan_grid(monkeypatch):
    # annealed-scan's renewal rows (crit_04); a bisection to the same
    # tolerance takes 381 characteristic sums and leaves residuals of 1.4e-12.
    # No solve sums one rate twice.
    law = R.make_power_law(0.5, 100_000)
    solves = []
    real = R.characteristic_sum
    monkeypatch.setattr(R, "characteristic_sum",
                        lambda law, rate: solves[-1].append(rate) or real(law, rate))
    hs = np.logspace(-3, -1, 9)
    fs = []
    for h in hs:
        solves.append([])
        fs.append(R.homogeneous_free_energy(law, h))
    assert sum(map(len, solves)) <= 130
    assert all(len(set(rates)) == len(rates) for rates in solves)
    for h, f in zip(hs, fs):
        assert abs(real(law, f) - math.exp(-h)) <= 1e-12


_SHAPES = {"line": lambda d: d, "atan": math.atan, "expm1": math.expm1,
           "cubic": lambda d: d * (1.0 + d * d)}


@settings(max_examples=300, deadline=None)
@given(root=st.floats(-4.0, 4.0, allow_subnormal=False), left=st.floats(1e-3, 4.0),
       right=st.floats(1e-3, 4.0), scale=st.floats(0.05, 30.0),
       shape=st.sampled_from(sorted(_SHAPES)), sign=st.sampled_from([-1.0, 1.0]),
       relative=st.booleans())
@example(root=2.2250738585072014e-308, left=1.0, right=1.0, scale=0.05, shape="line",
         sign=-1.0, relative=False)
def test_bracketed_root_holds_a_known_root(root, left, right, scale, shape, sign, relative):
    # sign * shape(scale (x - root)) has the sign of x - root, or is 0, in
    # floating point; the relative rule needs a root away from 0
    if relative and abs(root) < 1e-3:
        root = 1e-3
    atol, rtol = (0.0, 1e-10) if relative else (1e-12, 0.0)
    lo, hi = root - left, root + right

    def f(x):
        return sign * _SHAPES[shape](scale * (x - root))

    a, b = bracketed_root(f, lo, hi, atol=atol, rtol=rtol)
    if a == b and f(a) == 0.0:
        # an exact zero of the floating-point f: near the smallest normal,
        # scale (x - root) underflows to 0 a few ulps off the root
        assert lo <= a <= hi and abs(a - root) <= 1e-300
    else:
        assert lo <= a <= root <= b <= hi
    assert b - a <= atol + rtol * max(abs(a), abs(b))
    assert f(a) * f(lo) >= 0.0 and f(b) * f(hi) >= 0.0


def test_bracketed_root_refuses_a_bracket_without_a_sign_change_and_caps_its_steps():
    with pytest.raises(InvalidParameter):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 2.0, atol=1e-12, rtol=0.0)
    # x^2 - 2 is never 0 in floating point, so a zero width is never reached
    with pytest.raises(ArithmeticError):
        bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0, atol=0.0, rtol=0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.499, 0.5, 0.501, 0.999, 1.0, 1.001, 1.125,
                                   1.999, 2.0, 2.001])
def test_tail_integral_matches_mpmath(alpha):
    # both branches of the closed form, the series and recurrence below
    # z = 1 and the continued fraction above, against 40-digit
    # alpha z^alpha Gamma(-alpha, z), on both sides of each integer alpha
    law = R.make_power_law(alpha, 1000)
    x0 = law.n_max + 0.5
    for z in np.r_[np.logspace(-10, math.log10(0.999), 30), np.logspace(0, math.log10(50), 10)]:
        rate = z / x0
        with mpmath.workdps(40):
            zz = mpmath.mpf(rate) * mpmath.mpf(x0)
            ref = alpha * zz**alpha * mpmath.gammainc(-mpmath.mpf(alpha), zz)
        got = R._tail_integral(law, rate) / law.tail_mass
        rel = 1e-14 if z < 1.0 else 1e-12
        assert got == pytest.approx(float(ref), rel=rel, abs=0.0), (alpha, z)
    assert R._tail_integral(law, 0.0) == law.tail_mass


def test_tail_needs_a_positive_exponent():
    # the tail's weighted fraction alpha z^alpha Gamma(-alpha, z) needs alpha > 0
    for alpha in (0.0, -0.5, math.nan):
        with pytest.raises(InvalidParameter):
            R.law_from_mass([0.5, 0.3], alpha=alpha, c_k=0.1, tail_mass=0.2)
    assert R.law_from_mass([0.5, 0.3], alpha=0.0).tail_mass == 0.0


def test_characteristic_sum_rejects_negative_rates():
    # the power-law tail diverges for rate < 0
    law = R.make_power_law(0.5, 1000)
    for rate in (-1e-3, math.nan):
        with pytest.raises(InvalidParameter):
            R.characteristic_sum(law, rate)


def test_free_energy_solves_the_exact_equation_at_small_reward():
    # alpha 0.2 puts F(1e-3) near 8e-16, where the tail sits at z ~ 1e-11 and
    # carries 14 % of the mass: the root against a 30-digit tail
    law = R.make_power_law(0.2, 10_000)
    h = 1e-3
    f = R.homogeneous_free_energy(law, h)
    head = math.fsum(law.mass[1:] * np.exp(-f * np.arange(1, law.n_max + 1)))
    with mpmath.workdps(30):
        z = mpmath.mpf(f) * (law.n_max + 0.5)
        tail = law.tail_mass * 0.2 * z**0.2 * mpmath.gammainc(-0.2, z)
        assert abs(float(head + tail - mpmath.exp(-h))) < 1e-13


def test_import_and_experiments_run_without_scipy():
    # scipy is only a test dependency: with it blocked, pinninglab imports
    # and the experiments that run the special functions, the FFT, the DP,
    # the Green table and the root finder still run, so a lazy scipy import
    # fails here too; paper-mode hier-certify solves for its moment order
    src = str(Path(R.__file__).resolve().parents[1])
    configs = [
        {"experiment": "renewal-green", "N": 2_000, "n_max": 2_000,
         "checkpoints": [100, 2_000]},
        {"experiment": "quenched-scan", "N": 300, "samples": 4, "n_max": 600,
         "beta_list": [0.8], "h_list": [-0.2, 0.3]},
        {"experiment": "decomposition-check", "trials": 5},
        {"experiment": "lemma51-scan", "h_list": [0.1, 0.02], "samples": 200,
         "cond_horizon": 100, "n_max": 1_000},
        {"experiment": "clt-check", "L_exact": 2_000, "L_w": 10_000, "w_samples": 100,
         "n_max": 10_000},
        {"experiment": "hier-certify", "samples": 200},
    ]
    code = f"""
import sys
sys.modules["scipy"] = None
sys.path.insert(0, {src!r})
from pinninglab import experiments
from pinninglab.records import ExperimentConfig
for cfg in {configs!r}:
    experiments.run(ExperimentConfig.from_dict({{"seed": 3, **cfg}}))
    print(cfg["experiment"])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:-1] == [c["experiment"] for c in configs]
    assert lines[-1] == "['scipy']"   # the blocking entry alone


def test_zeta_matches_mpmath():
    # the normalizer of make_power_law at 1 + alpha, and lemma51-scan's sum
    # over n^(-3 gamma / 2)
    points = [1.0 + a for a in (0.3, 0.5, 1.0, 1.125, 2.0)]
    points += [1.5 * g for g in (0.7, 0.75, 1.0)]
    with mpmath.workdps(40):
        for x in points:
            ref = mpmath.zeta(mpmath.mpf(x))
            assert abs(float((zeta(x) - ref) / ref)) <= 2.5e-16, x
    with pytest.raises(InvalidParameter):
        zeta(1.0)


def test_next_fast_len_matches_scipy():
    from scipy import fft
    n = np.arange(1, 200_001)
    ref = np.array([fft.next_fast_len(int(m), real=True) for m in n])
    np.testing.assert_array_equal(R._next_fast_len(n), ref)
    assert R._next_fast_len(1 << 40) == 1 << 40


def test_free_energy_monotone_convex(half_law):
    hs = np.linspace(0.05, 1.0, 12)
    f = np.array([R.homogeneous_free_energy(half_law, h) for h in hs])
    assert np.all(np.diff(f) > 0)
    assert np.all(np.diff(f, 2) > -1e-9)


def test_free_energy_marginal_slope():
    law = R.make_power_law(0.5, 100_000)
    hs = np.logspace(-3, -2, 5)
    f = np.array([R.homogeneous_free_energy(law, h) for h in hs])
    slope = np.polyfit(np.log(hs), np.log(f), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_terminating_shift_identity():
    base = R.make_power_law(0.5, 2000)
    halved = R.RenewalLaw(mass=base.mass * 0.5, alpha=0.5,
                          c_k=base.c_k * 0.5, tail_mass=base.tail_mass * 0.5)
    shifted, deficit = R.terminating_shift(halved)
    assert deficit == pytest.approx(math.log(0.5))
    assert shifted.grand_total == pytest.approx(1.0)

    # independent oracle: bisect the raw characteristic equation of the
    # transient law and compare with the shifted solution
    law08 = R.RenewalLaw(mass=base.mass * 0.8, alpha=0.5,
                         c_k=base.c_k * 0.8, tail_mass=base.tail_mass * 0.8)
    sh, d = R.terminating_shift(law08)
    h = 0.5
    lo, hi = 0.0, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if R.characteristic_sum(law08, mid) > math.exp(-h):
            lo = mid
        else:
            hi = mid
    direct = 0.5 * (lo + hi)
    assert R.homogeneous_free_energy(sh, h + d) == pytest.approx(direct, rel=1e-7)


def test_terminating_shift_identity_case(half_law):
    same, deficit = R.terminating_shift(half_law)
    assert deficit == 0.0
    assert same is half_law


def test_free_energy_requires_recurrent():
    base = R.make_power_law(0.5, 500)
    transient = R.RenewalLaw(mass=base.mass * 0.8, alpha=0.5,
                             c_k=base.c_k * 0.8, tail_mass=base.tail_mass * 0.8)
    with pytest.raises(InvalidParameter):
        R.homogeneous_free_energy(transient, 0.2)


def _homogeneous_decay_profile(law_hat, h_hat, N):
    """Endpoint-pinned homogeneous partition values Z(0..N): the DP at beta 0."""
    cfg = QuenchedConfig(law=law_hat, beta=0.0, h=h_hat, N=N)
    return np.exp(log_partition_profile(cfg, np.zeros(N)))


def test_homogeneous_decay_single_term(two_point):
    assert _homogeneous_decay_profile(two_point, -0.5, 1)[1] == pytest.approx(
        math.exp(-0.5) * 0.6)


def test_homogeneous_decay_matches_green(two_point):
    u = R.green_function(two_point, 2).u
    prof = _homogeneous_decay_profile(two_point, 0.0, 2)
    assert prof[1] == pytest.approx(u[1], rel=1e-12)
    assert prof[2] == pytest.approx(u[2], rel=1e-12)


def test_homogeneous_decay_negative_reward_vanishes():
    law = R.make_power_law(0.2, 10_000)
    prof = _homogeneous_decay_profile(law, -0.5, 10_000)
    peak = prof.max()
    assert prof[-1] < 1e-3 * peak
    assert np.all(np.diff(prof[200:]) <= 1e-15)


def test_conditioning_ratio_brute(two_point):
    three = R.law_from_mass([0.5, 0.3, 0.2])
    for law in (two_point, three):
        for N in (1, 2, 3):
            ours = R.conditioning_ratio(law, N)
            ref = max(oracles.conditioning_ratio_brute(law, M)
                      for M in range(1, N + 1))
            assert ours == pytest.approx(ref, abs=1e-12)


def test_conditioning_ratio_running_matches_fft():
    for law in (R.make_power_law(0.5, 600), R.law_from_mass([0.5, 0.3, 0.2])):
        curve = R.conditioning_ratio_curve(law, 300)
        ref = oracles.conditioning_ratio_curve_fft(law, 300)
        assert np.max(np.abs(curve - ref) / ref) < 1e-13


def test_conditioning_ratio_plateau():
    law = R.make_power_law(0.5, 4000)
    curve = R.conditioning_ratio_curve(law, 2000)
    assert curve[-1] >= curve[999]  # running max
    assert curve[-1] <= curve[999] * 1.01  # plateaus within 1%


def test_conditioning_ratio_marginalized(two_point):
    # with the test function identically 1 both sides integrate to 1: the
    # weighted average of the per-bin ratios against the conditional law is 1
    law = two_point
    u = R.green_function(law, 2).u
    N = 1
    num = []
    den = []
    for n in (0, 1):
        pn = u[n] * oracles.gap_survival(law, N - n)
        pc_raw = 0.0
        for g in range(N - n + 1, 2 * N - n + 1):
            pc_raw += law.mass[g] * u[2 * N - n - g]
        num.append(u[n] * pc_raw / u[2 * N])
        den.append(pn)
    assert sum(num) == pytest.approx(1.0, abs=1e-12)
    assert sum(den) == pytest.approx(1.0, abs=1e-12)

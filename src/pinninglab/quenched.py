"""Quenched renewal pinning: exact DP partition functions, the block
coarse-graining decomposition, tilted-block weights, and the pair-sum
limit statistics.

Partition values are stored as logs.  The renewal DP computes them for
many rows at once, one block of up to 64 sites at a time, in the linear
domain against a per-row log offset, with a guard on the block's exponent
range (see `_log_renewal_dp`).  All coarse-grained terms of one disorder
draw come from one array DP over (first-return, last-in-window) states,
so the nested sums of the decomposition are never materialized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, HorizonExceeded, InvalidParameter, ResourceGuard
from .gaussian import (_BLOCK_DENOM, build_block_coupling, factorize, holder_cost,
                       sample_tilted_batch)
from .numerics import EXP_RANGE, MeanAccumulator, PoolEstimate, logsumexp_1d, zeta
from .renewal import (GreenTable, RenewalLaw, RenewalPaths, _convolve, green_function,
                      sample_path)

MAX_DP_SIZE = 100_000
MAX_BLOCK_COUNT = 6
MAX_CHUNG_ERDOS_L = 20_000
MAX_W_PAIRS = 1e9     # point pairs one w_statistic call may sum
_LONG_JUMP_D_MAX = 512   # the largest gap, in windows, long_jump_constant scans
_BLOCK = 64           # sites per block of the renewal DP
_DP_CELLS = 1 << 20   # rows x sites per quenched_free_energies DP call: 8 MB an array
_W_GROUP = 8          # paths per padded group of the pair kernel
_W_ROWS = 16          # rows per lag block: each scratch is _W_GROUP * _W_ROWS * P


@dataclass(frozen=True)
class QuenchedConfig:
    law: RenewalLaw
    beta: float
    h: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise InvalidParameter("system size must be at least 1")
        if self.N > MAX_DP_SIZE:  # checked before any disorder is drawn
            raise ResourceGuard(f"N={self.N} beyond the desk-scale guard {MAX_DP_SIZE}")
        if self.N > self.law.n_max and self.law.tail_mass > 0.0:
            # the banded DP would treat every gap past n_max as impossible
            raise HorizonExceeded(f"N={self.N} exceeds the stored law horizon {self.law.n_max}")
        if self.beta < 0.0:
            raise InvalidParameter("disorder strength must be nonnegative")


def tilted_blocks(targets: tuple[int, ...]) -> tuple[int, ...]:
    """The tilted block set M of a coarse-grained term: its target blocks
    plus the right neighbor of each target but the last."""
    return tuple(sorted(set(targets) | {i + 1 for i in targets[:-1]}))


def window_size(h: float) -> int:
    """Coarse-graining window floor(1/h); defined for h > 0."""
    if h <= 0.0:
        raise InvalidParameter("the window size is defined for h > 0 only")
    return int(math.floor(1.0 / h))


def _site_log_weights(cfg: QuenchedConfig, omega: np.ndarray) -> np.ndarray:
    """log z at sites 0..N along the last axis, one row per disorder row of
    omega: beta omega + h - beta^2/2, with 0 at the pinned site 0."""
    om = np.asarray(omega, dtype=float)
    if om.shape[-1] < cfg.N:
        raise DimensionMismatch(f"need at least N={cfg.N} disorder values")
    w = np.empty(om.shape[:-1] + (cfg.N + 1,))
    w[..., 0] = 0.0
    w[..., 1:] = cfg.beta * om[..., : cfg.N] + cfg.h - 0.5 * cfg.beta**2
    return w


def _log_renewal_dp(logz: np.ndarray, logK: np.ndarray, band: int) -> np.ndarray:
    """The renewal DP pinned at site 0 on each row of logz (R, N + 1), one
    block of at most 64 sites at a time for all R rows together.

    L[0] = 0 and L[n] = logz[n] + log sum_{j <= min(n, band)} K(j) e^L[n-j]
    per row; logz[:, 0] is never read; logK holds log K(0..band), and K sums
    to at most 1.

    A block [s, e) runs in the linear domain against each row's log offset
    off = log sum e^L over the window [s - band, s) behind it.  With
    y = e^(L - off) on the window and z = e^logz, the block's unknowns
    x[i] = e^(L[s+i] - off - logz[s+i]) solve (I - T diag(z)) x = far, where
    far[i] = sum_d K(i + d) y[s - d] is one stacked matrix-vector product of
    a Toeplitz slab of K with every row's y (a matrix-matrix product would
    make the sums depend on the BLAS thread count), and T[i, i'] = K(i - i')
    is strictly lower triangular, so x comes by forward substitution, site
    by site, each step one product over all rows.  Every term is positive:
    nothing cancels.

    Guard: a block ends before the sum of |logz| - log K(1) over its sites
    but the last exceeds EXP_RANGE on any row.  Every x[i] then lies between
    e^-EXP_RANGE far[0] and e^EXP_RANGE, so nothing overflows or drops to
    subnormals.  The last site's z is never formed, so a one-site block is
    the exact step L[s] = logz[s] + log sum_d K(d) e^L[s-d].
    """
    R, N = logz.shape[0], logz.shape[1] - 1
    L = np.empty((R, N + 1))
    L[:, 0] = 0.0
    if N == 0:
        return L
    W, rows = min(band, N), min(_BLOCK, N)
    # K(j) sits at K[rows + j] for j in [-rows, W + rows), zero off [1, band]
    K = np.zeros(W + 2 * rows)
    top = min(band, W + rows - 1)
    K[rows + 1 : rows + top + 1] = np.exp(logK[1 : top + 1])
    step = K.itemsize
    # slab[i, c] = K(i + W - c): block row i against the window, oldest site
    # first; back[rows - j] = K(j), so back[rows - i:] is K(i), ..., K(1)
    slab = np.ndarray((rows, W), buffer=K, offset=(W + rows) * step,
                      strides=(step, -step)).copy()
    back = K[2 * rows : rows : -1].copy()
    v = np.empty((rows, R))   # z * x at the block's sites, site-major like x
    s = 1
    while s <= N:
        cost = np.cumsum(np.abs(logz[:, s : min(s + rows, N + 1) - 1]) - logK[1], axis=1)
        b = 1 + int((cost <= EXP_RANGE).sum(axis=1).min())
        e, w = s + b, min(s, band)
        off = logsumexp_1d(L[:, s - w : s])
        y = np.exp(L[:, s - w : s] - off[:, None])
        x = np.matmul(slab[:b, W - w :], y[:, :, None])[:, :, 0].T.copy()   # (b, R)
        z = np.exp(logz[:, s : e - 1].T)
        # a single row steps through numpy scalars, at a third of the cost
        # of one-element rows
        xs, zs, vs = (x[:, 0], z[:, 0], v[:, 0]) if R == 1 else (x, z, v)
        for i in range(1, b):
            vs[i - 1] = xs[i - 1] * zs[i - 1]
            xs[i] += back[rows - i :] @ vs[:i]
        L[:, s:e] = off[:, None] + logz[:, s:e] + np.log(x.T)
        s = e
    return L


def _log_K(law: RenewalLaw) -> np.ndarray:
    """log K(0..n_max) for the renewal DP."""
    with np.errstate(divide="ignore"):
        return np.log(law.mass)


def log_partition_profile(cfg: QuenchedConfig, omega: np.ndarray) -> np.ndarray:
    """Endpoint-pinned log partition values at every size 0..N.

    O(N * min(N, n_max)): gaps beyond the stored law horizon carry no
    mass, so the recursion window is banded automatically.
    """
    return _log_renewal_dp(_site_log_weights(cfg, omega)[None], _log_K(cfg.law),
                           cfg.law.n_max)[0]


def quenched_free_energies(cfgs: list[QuenchedConfig], rngs: list[np.random.Generator],
                           samples: int) -> list[PoolEstimate]:
    """Mean of log Z / N over `samples` IID standard Gaussian disorder rows
    per config, all configs in each DP call.

    The configs share one law and one N; config p draws its rows from
    rngs[p], as many at a time as `_DP_CELLS` allows for all configs
    together, which equals one `standard_normal((samples, N))` draw; the
    estimates are one accumulator add over all the (P, samples) ends.  The
    annealed baseline attached to each estimate is the exact finite-N value
    (the zero-disorder DP at the same size, one more row per config in each
    call), so the Jensen ordering holds sample by sample in expectation at
    every N.
    """
    law, N = cfgs[0].law, cfgs[0].N
    if any(c.law is not law or c.N != N for c in cfgs):
        raise InvalidParameter("the configs must share one law and one N")
    if samples < 1:
        raise InvalidParameter(f"need at least one sample, got {samples}")
    P, ends = len(cfgs), []
    pure = [_site_log_weights(replace(c, beta=0.0), np.zeros((1, N))) for c in cfgs]
    step = max(1, _DP_CELLS // (P * (N + 1)))
    for lo in range(0, samples, step):
        n = min(step, samples - lo)
        rows = [_site_log_weights(c, rng.standard_normal((n, N))) for c, rng in zip(cfgs, rngs)]
        end = _log_renewal_dp(np.concatenate(rows + pure), _log_K(law), law.n_max)[:, N] / N
        ends.append(end[: P * n].reshape(P, n))
    acc = MeanAccumulator()
    acc.add(np.concatenate(ends, axis=1))
    return [PoolEstimate(float(m), float(se), acc.count, annealed=float(a))
            for m, se, a in zip(acc.mean, acc.std_error, end[P * n :])]


def pinned_rows(cfg: QuenchedConfig, k: int, *, logz: np.ndarray,
                logK: np.ndarray) -> np.ndarray:
    """The log partition pinned at both ends, per start site a of 0..N:
    rows[a, b - a] for b in [a, min(a + k - 1, N)].

    One DP call takes every start site's window of k sites as a row; the
    windows past N are padded with log weight 0, and their entries are not
    meant to be read.  `logz` = `_site_log_weights(cfg, omega)` and `logK`
    = `_log_K(cfg.law)`.
    """
    padded = np.zeros(cfg.N + k)
    padded[: cfg.N + 1] = logz
    windows = np.lib.stride_tricks.sliding_window_view(padded, k)
    return _log_renewal_dp(windows, logK, cfg.law.n_max)


def log_coarse_grain_term(cfg: QuenchedConfig, k: int, logz: np.ndarray) -> np.ndarray:
    """log of every coarse-grained term of the partition decomposition of
    one disorder draw omega, in `enumerate_target_sets` order.

    A term collects every pinned path whose first-return scan visits
    exactly its target blocks: first return n_r in block i_r, last contact
    j_r in [n_r, n_r + k), no contact in the long gap to n_(r+1) >= n_r + k.
    The draw enters through `logz` = `_site_log_weights(cfg, omega)`.

    Each block prefix (i_1, ..., i_r) holds a (k, k) array of log weights
    over its (n_r, j_r - n_r).  Block b starts the prefix (b,) and extends
    every earlier prefix, in the order they were made, by one jump from
    j_r to n_(r+1) in block b.  So the prefixes ending at b come in the
    bit-mask order of their inner blocks, and those ending at the last
    block are the terms.
    """
    if cfg.N % k != 0:
        raise InvalidParameter("N must be divisible by the window size")
    n_blocks = cfg.N // k
    if n_blocks > MAX_BLOCK_COUNT:
        raise ResourceGuard(f"too many blocks ({n_blocks} > {MAX_BLOCK_COUNT})")
    logK = _log_K(cfg.law)
    rows = pinned_rows(cfg, k, logz=logz, logK=logK)
    # log K at every gap 0..N: -inf at 0 (K(0) = 0) and past the law's horizon
    lk = np.full(cfg.N + 1, -np.inf)
    lk[: logK.size] = logK[: cfg.N + 1]
    a = np.arange(k)
    state, ends = np.empty((0, k, k)), np.empty(0, dtype=int)
    for b in range(1, n_blocks + 1):
        n = (b - 1) * k + 1 + a
        # a prefix ending at block c jumps from its (n', j') to n: the lead
        # n - n' over axes (prefix, n, n') must reach k, and the gap n - j'
        # reads its log K; a refused jump reads lk[0] = -inf
        lead = (b - ends)[:, None, None] * k + a[:, None] - a
        gap = np.where(lead[..., None] >= k, lead[..., None] - a, 0)
        jump = logsumexp_1d((state[:, None] + lk[gap]).reshape(-1, k * k))
        w_in = np.concatenate([lk[n][None], jump.reshape(-1, k)]) + logz[n]
        if b == n_blocks:
            return logsumexp_1d(w_in + rows[n, cfg.N - n])
        state = np.concatenate([state, w_in[:, :, None] + rows[n]])
        ends = np.concatenate([ends, np.full(w_in.shape[0], b)])


def enumerate_target_sets(n_blocks: int):
    """All strictly increasing block sequences ending at the last block, by inner-block bit mask."""
    inner = list(range(1, n_blocks))
    for mask in range(2 ** len(inner)):
        picked = [inner[i] for i in range(len(inner)) if mask >> i & 1]
        yield tuple(picked) + (n_blocks,)


def decomposition_residual(cfg: QuenchedConfig, omega: np.ndarray, k: int) -> float:
    """Relative gap between the full partition value and the sum of its
    coarse-grained terms (zero up to roundoff)."""
    total = logsumexp_1d(log_coarse_grain_term(cfg, k, _site_log_weights(cfg, omega)))
    # from omega, not logz: the benchmark's `quenched.dp` layer traces
    # log_partition_profile, and in renewal-paths only this call reaches it
    ref = log_partition_profile(cfg, omega)[cfg.N]
    return abs(math.expm1(total - ref))


_PROFILE_ROWS = 128   # paths per occupancy chunk, which bounds the working memory


def _inv_sqrt_table(n: int) -> np.ndarray:
    """[0, 1/sqrt(1), ..., 1/sqrt(n - 1)]: entry d is 1/sqrt(d) for 0 < d < n."""
    tab = np.zeros(n)
    np.reciprocal(np.sqrt(np.arange(1, n, dtype=float)), out=tab[1:])
    return tab


def _pair_sum_profiles(paths: RenewalPaths, horizon: int):
    """The pair-sum profiles of `paths`, `_PROFILE_ROWS` rows at a time.

    Row r, column m is S[m] = sum over pairs i < j <= m of path r of
    1/sqrt(j - i), as `oracles.pair_sum_profile` gives it path by path.
    With occ the 0/1 occupancy of sites 1..horizon and T[i, j] =
    (j - i)^-1/2 for j > i, (occ @ T)[r, j] sums over the points of path
    r before j, so the profiles are cumsum(occ * (occ @ T)) along the sites.
    """
    # T[i, j] = ext[horizon - 1 + j - i]: the table at j - i >= 0, zero below
    ext = np.concatenate([np.zeros(horizon - 1), _inv_sqrt_table(horizon)])
    T = np.lib.stride_tricks.sliding_window_view(ext, horizon)[::-1].copy()
    for lo in range(0, len(paths), _PROFILE_ROWS):
        hi = min(lo + _PROFILE_ROWS, len(paths))
        a, b = paths.offsets[lo], paths.offsets[hi]
        pts = paths.points[a:b]
        row = np.repeat(np.arange(hi - lo), np.diff(paths.offsets[lo : hi + 1]))
        inside = (pts >= 1) & (pts <= horizon)
        occ = np.zeros((hi - lo, horizon))
        occ[row[inside], pts[inside] - 1] = 1.0
        prof = np.zeros((hi - lo, horizon + 1))
        np.cumsum(occ * (occ @ T), axis=1, out=prof[:, 1:])
        yield prof


@dataclass(frozen=True)
class UWeightTable:
    """Shared-path estimates of the tilted block weight, all gaps below k.

    u_over_c8[j] estimates U(j)/c8 = u(j) * s(k, j) where s is the mean
    of the in-block anti-correlation factor over free renewal paths on
    [1, j/2].
    """

    k: int
    green: GreenTable      # u(0..max(k - 1, 2)), which also gives c9
    s_mean: np.ndarray     # indexed by the half-window m = 0..(k-1)//2
    s_err: np.ndarray

    @property
    def u_over_c8(self) -> np.ndarray:
        j = np.arange(self.k)
        return self.green.u[: self.k] * self.s_mean[j // 2]

    @property
    def u_err_over_c8(self) -> np.ndarray:
        j = np.arange(self.k)
        return self.green.u[: self.k] * self.s_err[j // 2]


def u_weight_table(beta: float, k: int, gamma: float, law: RenewalLaw,
                   samples: int, rng: np.random.Generator) -> UWeightTable:
    """Monte Carlo estimate of the tilted block weights U(j)/c8 for gaps j < k.

    s(k, j) is the mean over free renewal paths on [1, m], m = j // 2, of
    exp(-beta^2 h S[m]), where S is the path's pair-sum profile and h =
    (1 - gamma) / sqrt(c k log k) the paper's in-block coupling scale.  All
    `samples` paths come from one batched `sample_path` call on the
    half-window [0, (k - 1) // 2]; every profile on it is computed at once
    by `_pair_sum_profiles`, so each path serves every m.  The window k = 2
    has an empty half-window: it draws nothing, and s = 1.  The Green table
    runs to max(k - 1, 2), which is also the horizon of Lemma 5.1's c9.
    This is the one Monte Carlo estimate that streams: all samples x
    half-window values (16 MB at k 1 000) are what `_PROFILE_ROWS` bounds,
    so each block of profiles is its own accumulator add.
    """
    if k < 2:
        raise InvalidParameter("window must be at least 2")
    if samples < 1:
        raise InvalidParameter(f"need at least one sample, got {samples}")
    m_max = (k - 1) // 2
    table = green_function(law, max(k - 1, 2))
    hscale = (1.0 - gamma) / math.sqrt(_BLOCK_DENOM * k * math.log(k))
    profiles = (_pair_sum_profiles(sample_path(law, m_max, rng, size=samples), m_max)
                if m_max else [np.zeros((samples, 1))])
    acc = MeanAccumulator()
    for prof in profiles:
        acc.add(np.exp(-(beta**2) * hscale * prof.T))
    return UWeightTable(k=k, green=table, s_mean=acc.mean, s_err=acc.std_error)


def green_bound_constant(table: GreenTable) -> float:
    """c9: the max of u(n) sqrt(n) over the computed horizon."""
    n = np.arange(1, table.horizon + 1, dtype=float)
    return float(np.max(table.u[1:] * np.sqrt(n)))


def long_jump_constant(law: RenewalLaw, k: int) -> float:
    """Empirical C2: max of K(m) d^(3/2) k^(3/2) at the long-jump onset
    m = (d-2)k + 2 for d up to min(n_max // k, _LONG_JUMP_D_MAX), floored at 2^(3/2)."""
    d_max = min(law.n_max // max(k, 1), _LONG_JUMP_D_MAX)
    best = 2.0**1.5
    for d in range(3, max(d_max + 1, 4)):
        m = (d - 2) * k + 2
        if m > law.n_max:
            break
        best = max(best, float(law.mass[m]) * d**1.5 * k**1.5)
    return best


@dataclass(frozen=True)
class Lemma51Report:
    gamma: float
    k: int
    c8: float
    lhs1_over_sqrt_k: float     # sum of U(j) over the window (c8 included) / sqrt(k)
    lhs2: float                 # window sum against the long-gap mass
    eta_min: float
    eta_err: float
    c9: float
    c2_hat: float
    zeta_sum: float             # sum over n of n^(-3 gamma / 2)
    h_hat: float                # reduced pure-model reward at eta_min
    h_hat_negative: bool
    eta_star: float             # largest eta with a negative reduced reward
    delta_closing: float        # delta solving 4 c8 c9 (sqrt(d)+d) = eta_min


def reduced_reward(eta: float, gamma: float, c2: float, zeta_sum: float) -> float:
    """Reward of the reduced pure model: log(eta^g c2^g e sum n^(-3g/2))."""
    return gamma * math.log(eta) + gamma * math.log(c2) + 1.0 + math.log(zeta_sum)


def reduced_reward_threshold(gamma: float, c2: float, zeta_sum: float) -> float:
    """The eta below which the reduced reward turns negative."""
    return math.exp(-(gamma * math.log(c2) + 1.0 + math.log(zeta_sum)) / gamma)


def lemma51_conditions(beta: float, h: float, gamma: float, law: RenewalLaw,
                       samples: int, rng: np.random.Generator, c8: float) -> Lemma51Report:
    """Assemble both window-sum conditions and the reduced-model reward.

    c8 is e times the conditioning ratio (`renewal.conditioning_ratio`).
    Reports the smallest eta satisfying both conditions, the exact reduced
    reward at that eta, and the eta threshold below which the reward turns
    negative (the attainability frontier of the sign test).
    """
    k = window_size(h)
    tab = u_weight_table(beta, k, gamma, law, samples, rng)
    uw = tab.u_over_c8 * c8
    uw_err = tab.u_err_over_c8 * c8
    # P(gap > k - 1 - j) for j < k; a finite-support law's cdf is flat past n_max
    surv = law.grand_total - law.cdf[np.minimum(np.arange(k - 1, -1, -1), law.n_max)]
    lhs2 = float(np.dot(uw, surv))
    eta1 = float(uw.sum()) / math.sqrt(k)
    eta_min = max(eta1, lhs2)
    err1 = float(np.sqrt(np.sum(uw_err**2))) / math.sqrt(k)
    err2 = float(np.sqrt(np.sum((uw_err * surv) ** 2)))
    eta_err = max(err1, err2)

    c9 = green_bound_constant(tab.green)
    c2 = long_jump_constant(law, k)
    zsum = zeta(1.5 * gamma)
    hhat = reduced_reward(eta_min, gamma, c2, zsum)
    eta_star = reduced_reward_threshold(gamma, c2, zsum)
    ratio = eta_min / (4.0 * c8 * c9)
    s = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * ratio))
    return Lemma51Report(
        gamma=gamma, k=k, c8=c8, lhs1_over_sqrt_k=eta1, lhs2=lhs2,
        eta_min=eta_min, eta_err=eta_err, c9=c9, c2_hat=c2, zeta_sum=zsum,
        h_hat=hhat, h_hat_negative=hhat < 0.0, eta_star=eta_star,
        delta_closing=s * s,
    )


def _padded_pair_sums(Y: np.ndarray, tab: np.ndarray, gaps: np.ndarray,
                      vals: np.ndarray) -> np.ndarray:
    """sum over i < j of tab[Y[:, j] - Y[:, i]] for each row of a padded group.

    Y (g, 2P) holds increasing int64 points from 1 to tab.size, padded
    with 0, so a pair that touches a pad has a gap <= 0, which the clip
    maps onto tab[0] = +0.0.  U[:, a, k] = Y[:, a + k + 1] is the point
    at lag k + 1 from point a; each block of rows a..a+r-1 reads the
    columns of its first row, and the r x r corner past the triangle
    lands on pads.  `gaps` (int64) and `vals` (float) are scratch of the
    same size.
    """
    g, P = Y.shape[0], Y.shape[1] // 2
    U = np.lib.stride_tricks.sliding_window_view(Y[:, 1:], P - 1, axis=1)
    total = np.zeros(g)
    for a in range(0, P - 1, _W_ROWS):
        r, n = min(_W_ROWS, P - 1 - a), P - 1 - a
        d = gaps[: g * r * n].reshape(g, r, n)
        v = vals[: g * r * n].reshape(g, r, n)
        np.subtract(U[:, a : a + r, :n], Y[:, a : a + r, None], out=d)
        np.take(tab, d, mode="clip", out=v)
        total += v.sum(axis=(1, 2))
    return total


def w_statistic(paths: RenewalPaths, L: int) -> np.ndarray:
    """Normalized pair sum of inverse square-root gaps over each path in [1, L].

    One W per path, in input order.  The paths are sorted by their point
    count in [1, L] and cut into groups of `_W_GROUP`, each padded with 0
    to its longest path and summed by lag blocks (`_padded_pair_sums`) in
    scratch sized to the longest group.  The gaps are integers below the
    largest point D in [1, L], so each 1/sqrt(gap) is read from one table
    of D entries (`_inv_sqrt_table`), sized by D and not by L.  A call
    refuses more than `MAX_W_PAIRS` point pairs before it sums any.
    """
    if L < 3:
        raise InvalidParameter("need L >= 3")
    offsets, pts = paths.offsets, paths.points
    # every path starts at 0 <= L and increases, so its points in [1, L]
    # are the `counts` points after its first
    inside = pts <= L
    below = np.concatenate([[0], np.cumsum(inside)])
    counts = below[offsets[1:]] - below[offsets[:-1]] - 1
    pairs = float(np.sum(counts * (counts - 1) // 2))
    if pairs > MAX_W_PAIRS:
        raise ResourceGuard(f"{pairs:.3g} point pairs beyond the desk-scale guard "
                            f"{MAX_W_PAIRS:.3g}")
    tab = _inv_sqrt_table(int(pts[inside].max(initial=0)))
    order = np.argsort(counts, kind="stable")
    w = np.zeros(counts.size)
    size = _W_GROUP * _W_ROWS * int(counts.max(initial=0))
    gaps, vals = np.empty(size, dtype=np.int64), np.empty(size)
    for lo in range(0, order.size, _W_GROUP):
        grp = order[lo : lo + _W_GROUP]
        c = counts[grp]
        P = int(c[-1])
        if P < 2:
            continue
        col = np.arange(P)
        take = np.minimum(offsets[grp, None] + 1 + col, pts.size - 1)
        Y = np.zeros((grp.size, 2 * P), dtype=np.int64)
        Y[:, :P] = np.where(col < c[:, None], pts[take], 0)
        w[grp] = _padded_pair_sums(Y, tab, gaps, vals)
    w /= math.sqrt(L) * math.log(L)
    return w


def w_limit_scale(law: RenewalLaw) -> float:
    """Scale of the half-normal limit of the pair statistic: (2 pi)^-3/2 / c_k^2."""
    return (2.0 * math.pi) ** -1.5 / law.c_k**2


def chung_erdos_check(law: RenewalLaw, L: int) -> tuple[float, float]:
    """Exact mean and variance of the inverse-sqrt-weighted contact count.

    The variance's cross term is sum_{i < L} u(i) i^-1/2 (A_i - B_i) with
    A_i = sum_{m <= L - i} d(m) (i + m)^-1/2, one FFT convolution of d
    against the reversed n^-1/2, and B_i = sum_{i < j <= L} d(j) j^-1/2, a
    suffix sum.  Here d = u - u(L): the constant cancels between A and B,
    and the FFT's roundoff then scales with the decaying part of u only.
    O(L log L) past the Green table; guarded at desk scale.
    """
    if L > MAX_CHUNG_ERDOS_L:
        raise ResourceGuard(f"L={L} beyond the desk-scale guard {MAX_CHUNG_ERDOS_L}")
    u = green_function(law, L).u
    idx = np.arange(1, L + 1, dtype=float)
    mean = float(np.sum(u[1:] / np.sqrt(idx)))
    var = float(np.sum((u[1:] - u[1:] ** 2) / idx))
    if L >= 2:
        r = 1.0 / np.sqrt(idx)
        d = u[1:] - u[L]
        A = _convolve(d[:-1], r[::-1], 0, L - 1)[::-1]
        B = np.cumsum((d * r)[:0:-1])[::-1]
        var += 2.0 * float(np.dot(u[1:L] * r[:-1], A - B))
    return mean, var


@dataclass(frozen=True)
class FractionalSumBound:
    direct: PoolEstimate            # mean of Z^gamma
    termwise: PoolEstimate          # sum over target sets of Zhat^gamma
    tilted_bound: float             # sum of e^(|M|/2) (tilted mean)^gamma
    tilted_bound_err: float
    pointwise_ok: bool              # Z^gamma <= sum Zhat^gamma on every sample
    chain_margin_sigma: float       # ((iii) - (ii)) / combined sigma
    holder_max_ratio: float         # max exact holder value / e^(|M|/2)


def fractional_sum_bound(beta: float, h: float, gamma: float, law: RenewalLaw,
                         omega_samples: int, N: int,
                         rng: np.random.Generator) -> FractionalSumBound:
    """Assemble the fractional-moment chain on a small block system.

    (i) direct Monte Carlo of the gamma-moment of Z; (ii) the termwise
    sum over coarse-grained pieces; (iii) the tilted-measure bound with
    the crude per-set cost e^(|M|/2).  (i) and (ii) share one draw of
    `omega_samples` iid rows and one DP call; (iii) draws as many rows per
    target set in one tilted batch, which spans all N sites, since every
    set ends at the last block.  (i) <= (ii) holds pointwise by
    subadditivity; (ii) <= (iii) within Monte Carlo error.
    """
    k = window_size(h)
    cfg = QuenchedConfig(law=law, beta=beta, h=h, N=N)
    logz = _site_log_weights(cfg, rng.standard_normal((omega_samples, N)))
    v_direct = np.exp(gamma * _log_renewal_dp(logz, _log_K(law), law.n_max)[:, N])
    v_sum = np.array([np.exp(gamma * log_coarse_grain_term(cfg, k, z)).sum() for z in logz])
    est_d, est_t = PoolEstimate.from_samples(v_direct), PoolEstimate.from_samples(v_sum)

    total3 = 0.0
    var3 = 0.0
    hratio = 0.0
    for i, t in enumerate(enumerate_target_sets(N // k)):
        M = tilted_blocks(t)
        spec = factorize(build_block_coupling(k, gamma, M))
        cost = holder_cost(spec, 1.0, gamma)
        hratio = max(hratio, cost.value / cost.bound)
        rows = _site_log_weights(cfg, sample_tilted_batch(spec, 1.0, rng, omega_samples))
        tilted = PoolEstimate.from_samples(
            np.exp([log_coarse_grain_term(cfg, k, z)[i] for z in rows]))
        m = tilted.mean
        if m == 0.0:   # every draw gave the set a zero term: it adds 0 and no error
            continue
        factor = math.exp(0.5 * len(M))
        total3 += factor * m**gamma
        var3 += (factor * gamma * m ** (gamma - 1.0) * tilted.std_error) ** 2

    sigma = math.sqrt(est_t.std_error**2 + var3)
    return FractionalSumBound(
        direct=est_d, termwise=est_t, tilted_bound=total3,
        tilted_bound_err=math.sqrt(var3),
        pointwise_ok=bool(np.all(v_direct <= v_sum * (1.0 + 1e-9))),
        chain_margin_sigma=(total3 - est_t.mean) / sigma if sigma > 0 else math.inf,
        holder_max_ratio=hratio,
    )

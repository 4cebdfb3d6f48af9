"""Independent brute-force oracles used to validate the fast paths.

Everything here proceeds by enumeration or direct definition-chasing and
deliberately avoids the closed forms it is meant to check.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import HorizonExceeded, InvalidParameter
from .hierarchy import B_CRITICAL, HierParams
from .numerics import logsumexp_1d
from .quenched import QuenchedConfig
from .renewal import GreenTable, RenewalLaw, _convolve, green_function


@lru_cache(maxsize=None)
def gw_outcomes(depth: int, B: float) -> tuple[tuple[float, frozenset], ...]:
    """All (probability, alive-leafset) outcomes of the branching tree.

    The outcome count squares with each level (1, 2, 5, 26, 677, ...), so
    this is for depth <= 4 only.
    """
    if depth > 4:
        raise ValueError("outcome enumeration explodes beyond depth 4")
    if depth == 0:
        return ((1.0, frozenset({1})),)
    sub = gw_outcomes(depth - 1, B)
    half = 2 ** (depth - 1)
    agg: dict[frozenset, float] = {frozenset(): (B - 1.0) / B}
    for p_l, s_l in sub:
        for p_r, s_r in sub:
            leaves = frozenset(s_l | {i + half for i in s_r})
            agg[leaves] = agg.get(leaves, 0.0) + p_l * p_r / B
    return tuple((p, s) for s, p in agg.items())


def gw_enumeration_expectation(n: int, leaves, B: float) -> float:
    """E[prod of leaf indicators] by summing over every branching outcome."""
    target = frozenset(int(i) for i in leaves)
    return sum(p for p, alive in gw_outcomes(n, B) if target <= alive)


def gw_cascade_leaves(n: int, B: float, rng: np.random.Generator,
                      size: int) -> tuple[np.ndarray, np.ndarray]:
    """Alive leaves of `size` branching realizations as (sample, leaf) pairs.

    The leaf-index replay of the cascade, in a single pass: it replays a
    `hierarchy.gw_overlap_samples` call of at most one chunk
    (`hierarchy._sparse_chunk`) draw for draw, consuming the generator
    exactly as that call does, but tracks an explicit sample id and 0-based
    leaf index for every alive node, so each realization's leaf set can be
    handed to `y_statistic`.  Rows come out sorted by (sample, leaf).  A
    longer call draws chunk by chunk, so its draws differ from this pass,
    but this pass run one chunk at a time on one generator replays it.
    """
    sid = np.arange(size, dtype=np.int64)
    nid = np.zeros(size, dtype=np.int64)
    p = 1.0 / B
    for _ in range(n):
        keep = rng.random(sid.size) < p
        sid = np.repeat(sid[keep], 2)
        nid = np.repeat(nid[keep] << 1, 2)
        nid[1::2] |= 1
    return sid, nid


def y_statistic(n: int, leaves, B: float) -> float:
    """Overlap statistic of one leaf set, given as distinct 0-based leaf
    indices: the pair sum of two-point functions over n.

    O(p^2) over the p surviving leaves, join levels from index arithmetic.
    """
    if n < 1:
        raise InvalidParameter("need generation >= 1")
    idx = np.asarray(leaves, dtype=np.int64)
    if idx.size < 2:
        return 0.0
    x = np.bitwise_xor.outer(idx, idx)
    a = np.frexp(x.astype(float))[1]  # bit length of the xor = join level
    w = float(B) ** -(n + a - 1.0)
    np.fill_diagonal(w, 0.0)
    return float(w.sum()) / n


def subtree_nodes_by_paths(n: int, leaves) -> int:
    """Count internal nodes by materializing each root-to-leaf path."""
    nodes = set()
    for leaf in leaves:
        node = int(leaf) - 1
        for level in range(1, n + 1):
            node >>= 1
            nodes.add((level, node))
    return len(nodes)


def overlap_sum_brute(n: int, B: float) -> float:
    """Ordered pair sum of squared two-point functions by enumeration."""
    total = 0.0
    for i in range(1, 2**n + 1):
        for j in range(1, 2**n + 1):
            if i != j:
                v = subtree_nodes_by_paths(n, (i, j))
                total += float(B) ** (-2 * v)
    return total


def y_second_moment_brute(n: int) -> float:
    """Second moment of the overlap statistic at the critical B, by
    enumeration of the leaf quadruples (i, j, k, l) with i = 0, times 2^n.

    Xor with a constant is an automorphism of the binary tree that keeps
    every common-ancestor level and xor distance, so each first leaf
    contributes alike.  O(2^(3n)), so n <= 7 only.
    """
    if not 2 <= n <= 7:
        raise InvalidParameter("enumeration needs 2 <= n <= 7")
    B = B_CRITICAL
    size = 2**n
    idx = np.arange(size, dtype=np.int64)
    trip = [idx.reshape(s) for s in [(size, 1, 1), (1, size, 1), (1, 1, size)]]
    # distinct-value count among four small ints, via pairwise equalities:
    # 0 eq -> 4 distinct, 1 -> 3, 2 or 3 -> 2, 6 -> 1
    distinct_of_eq = np.array([4, 3, 2, 2, 0, 0, 1], dtype=np.int8)
    v = np.zeros((size,) * 3, dtype=np.int16)
    for level in range(1, n + 1):
        anc = [0] + [q >> level for q in trip]  # leaf 0's ancestors are all 0
        eq = np.zeros((size,) * 3, dtype=np.int8)
        for p in range(4):
            for q in range(p + 1, 4):
                eq = eq + (anc[p] == anc[q])
        v += distinct_of_eq[eq]
    x = np.bitwise_xor.outer(idx, idx)
    a = np.frexp(x.astype(float))[1]
    e2 = B ** -(n + a - 1.0)
    np.fill_diagonal(e2, 0.0)  # zero diagonal enforces i != j and k != l
    w = e2[0].reshape(size, 1, 1) * e2.reshape(1, size, size)
    total = float(np.sum(w * B ** (-v.astype(np.float64))))
    return 2.0**n * total / n**2


def hier_log_partition_log_domain(params: HierParams, n: int,
                                  omega: np.ndarray) -> np.ndarray:
    """log X_n with every level in the log domain, from the leaves up.

    Each leaf starts at beta omega - beta^2/2 + h, and a level maps sibling
    values to log((e^(L_l + L_r) + B - 1)/B) by `np.logaddexp`: the
    reference for `hierarchy.hier_log_partition_batch`'s linear-domain fold
    of the sibling sums.  Far-apart inputs underflow inside `np.logaddexp`,
    harmlessly.
    """
    logB, logC = math.log(params.B), math.log(params.B - 1.0)
    L = params.beta * np.asarray(omega, dtype=float) - 0.5 * params.beta**2 + params.h
    for _ in range(n):
        L = np.logaddexp(L[..., 0::2] + L[..., 1::2], logC) - logB
    return L[..., 0]


def gap_survival(law: RenewalLaw, m: int) -> float:
    """P(gap > m), tail mass included; exact beyond n_max only for
    finite-support laws."""
    if m > law.n_max:
        if law.tail_mass > 0.0:
            raise HorizonExceeded("gap survival beyond the stored tail")
        return law.grand_total - float(law.cdf[-1])
    return float(law.grand_total - law.cdf[m])


def enumerate_paths(law: RenewalLaw, N: int):
    """Every renewal path on [0, N] (by gap tuples) with its probability.

    Yields (points tuple, probability of exactly this restriction),
    including the event that the next gap jumps past the horizon.
    """
    def rec(pos: int, prob: float, pts: tuple):
        yield pts, prob * gap_survival(law, N - pos)
        for gap in range(1, min(law.n_max, N - pos) + 1):
            yield from rec(pos + gap, prob * float(law.mass[gap]), pts + (pos + gap,))

    yield from rec(0, 1.0, (0,))


def green_by_enumeration(law: RenewalLaw, N: int) -> np.ndarray:
    """u(0..N) summed over every path, for small horizons."""
    u = np.zeros(N + 1)
    u[0] = 1.0
    for pts, prob in enumerate_paths(law, N):
        for p in pts[1:]:
            u[p] += prob
    return u


def coarse_grain_terms_by_enumeration(cfg: QuenchedConfig, omega: np.ndarray,
                                      k: int) -> np.ndarray:
    """log of each term of `quenched.log_coarse_grain_term`, summed over
    every path pinned at N (small N only).  A path's target set comes from
    its first-return scan: the first contact n_1, then the first contact
    n_(r+1) >= n_r + k, until n_r is in the last block.  Entry m is the set
    whose inner blocks are the set bits of m (block b is bit b - 1); a set
    no path reaches is -inf.
    """
    N, n_blocks = cfg.N, cfg.N // k
    totals = np.zeros(2 ** (n_blocks - 1))
    for pts, prob in enumerate_paths(cfg.law, N):
        if pts[-1] != N:
            continue
        mask, n = 0, pts[1]
        while n <= N - k:   # n before the last block
            mask |= 1 << (n - 1) // k
            n = next(p for p in pts if p >= n + k)
        log_z = sum(cfg.beta * omega[p - 1] + cfg.h - cfg.beta**2 / 2 for p in pts[1:])
        # prob carries the survival factor of a gap past N, P(gap > 0) here
        totals[mask] += prob / gap_survival(cfg.law, 0) * math.exp(log_z)
    with np.errstate(divide="ignore"):
        return np.log(totals)


def green_direct(law: RenewalLaw, N: int) -> np.ndarray:
    """u(0..N) by the O(N^2) direct convolution u(n) = sum_j K(j) u(n - j)."""
    K = np.zeros(N + 1)
    K[: min(N, law.n_max) + 1] = law.mass[: N + 1]
    u = np.empty(N + 1)
    u[0] = 1.0
    for n in range(1, N + 1):
        u[n] = np.dot(K[1 : n + 1], u[n - 1 :: -1][:n])
    return u


def sample_path_sequential(law: RenewalLaw, N: int, rng: np.random.Generator) -> np.ndarray:
    """The int64 points of one path on [0, N], drawing gaps 256 uniforms at
    a time until one leaves.

    The per-block loop that `renewal.sample_path` replaced: it draws the
    same gaps from the same uniforms, so n calls in turn give the paths of
    one `sample_path(..., size=n)` and leave the generator where it does.
    It maps each uniform by a plain binary search of the cdf, so that the
    comparison also checks the sampler's guide table.
    """
    if law.tail_mass > 0.0 and N > law.n_max:
        raise HorizonExceeded(
            f"exact sampling needs N <= n_max = {law.n_max} for tailed laws"
        )
    segs = [np.zeros(1, dtype=np.int64)]
    pos = 0
    cdf = law.cdf[1:]  # unnormalized: a draw above cdf[-1] ends the path
    while True:
        gaps = np.searchsorted(cdf, rng.random(256)) + 1
        gaps[gaps > law.n_max] = N + 1
        cum = pos + np.cumsum(gaps)
        inside = cum[cum <= N]
        segs.append(inside.astype(np.int64))
        if inside.size < cum.size:
            break
        pos = int(cum[-1])
    return np.concatenate(segs)


def pair_sum_profile(points: np.ndarray, horizon: int) -> np.ndarray:
    """S[m] = sum over path pairs i<j<=m of 1/sqrt(j-i), for m = 0..horizon.

    One path at a time from its dense p x p difference matrix.
    """
    jumps = np.zeros(horizon + 1)
    pts = points[(points >= 1) & (points <= horizon)]
    if pts.size >= 2:
        diff = (pts[:, None] - pts[None, :]).astype(float)
        inv = np.zeros_like(diff)
        pos = diff > 0
        inv[pos] = 1.0 / np.sqrt(diff[pos])
        jumps[pts] = inv.sum(axis=1)
    return np.cumsum(jumps)


def log_renewal_dp_direct(logz: np.ndarray, logK: np.ndarray, band: int) -> np.ndarray:
    """The renewal DP site by site in the log domain, pinned at site 0:
    L[0] = 0 and L[n] = logz[n] + logsumexp_{j <= min(n, band)} (L[n-j] + log K(j))."""
    L = np.empty(logz.size)
    L[0] = 0.0
    for n in range(1, logz.size):
        w = min(n, band)
        L[n] = logz[n] + logsumexp_1d(L[n - w : n][::-1] + logK[1 : w + 1])
    return L


def w_mean_exact(table: GreenTable, L: int) -> float:
    """Exact finite-L mean of the pair statistic `quenched.w_statistic`: the
    sum over 1 <= i < j <= L of u(i) u(j - i) / sqrt(j - i), over sqrt(L) log L."""
    u = table.u
    if L > table.horizon:
        raise HorizonExceeded("Green table shorter than L")
    d = np.arange(1, L + 1, dtype=float)
    prefix = np.concatenate([[0.0], np.cumsum(u[1 : L + 1] / np.sqrt(d))])
    i = np.arange(1, L)
    total = float(np.dot(u[1:L], prefix[L - i]))
    return total / (math.sqrt(L) * math.log(L))


def chung_erdos_direct(law: RenewalLaw, L: int) -> tuple[float, float]:
    """Mean and variance of the inverse-sqrt-weighted contact count on [1, L],
    with the variance's cross term summed row by row: O(L^2).

    It reads the same Green table as the fast path, so a comparison tests the
    variance's assembly alone: on a law with few gap lengths the variance
    cancels enough to lift the table's roundoff several hundredfold.
    """
    u = green_function(law, L).u
    idx = np.arange(1, L + 1, dtype=float)
    mean = float(np.sum(u[1:] / np.sqrt(idx)))
    var = float(np.sum((u[1:] - u[1:] ** 2) / idx))
    for i in range(1, L):
        ji = np.arange(i + 1, L + 1, dtype=float)
        cross = (u[1 : L - i + 1] - u[i + 1 :]) / np.sqrt(ji)
        var += 2.0 * u[i] / math.sqrt(i) * float(np.sum(cross))
    return mean, var


def conditioning_ratio_brute(law: RenewalLaw, N: int) -> float:
    """max over n of P(last epoch <= N is n | 2N renewed)/P(...) by paths."""
    last_any = np.zeros(N + 1)
    last_pin = np.zeros(N + 1)
    pin_total = 0.0
    for pts, prob in enumerate_paths(law, 2 * N):
        arr = [p for p in pts if p <= N]
        last = max(arr)
        last_any[last] += prob
        if 2 * N in pts:
            last_pin[last] += prob
            pin_total += prob
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = (last_pin / pin_total) / last_any
    return float(np.nanmax(ratios))


def conditioning_ratio_curve_fft(law: RenewalLaw, N_max: int) -> np.ndarray:
    """`renewal.conditioning_ratio_curve` with each S(N, .) taken as terms
    2N..N of its own FFT convolution of u(0..N-1) against K: one FFT per N."""
    if 2 * N_max > law.n_max:
        if law.tail_mass > 0.0:
            raise HorizonExceeded("need the law stored to 2*N_max")
        pad = 2 * N_max - law.n_max
        K = np.concatenate([law.mass, np.zeros(pad)])
        cdf = np.concatenate([law.cdf, np.full(pad, law.cdf[-1])])
    else:
        K = law.mass
        cdf = law.cdf
    u = green_function(law, 2 * N_max).u
    out = np.empty(N_max)
    running = 0.0
    for N in range(1, N_max + 1):
        S = _convolve(u[:N], K[: 2 * N + 1], N, 2 * N + 1)[::-1]
        surv = law.grand_total - cdf[N - np.arange(N + 1)]
        feasible = surv > 0.0
        ratios = S[feasible] / (u[2 * N] * surv[feasible])
        running = max(running, float(ratios.max()))
        out[N - 1] = running
    return out


def zeta_by_series(s: float, terms: int = 200_000) -> float:
    """Direct series for the zeta normalizer, with an integral tail correction."""
    n = np.arange(1, terms + 1, dtype=float)
    head = float(np.sum(n**-s))
    tail = (terms + 0.5) ** (1.0 - s) / (s - 1.0)
    return head + tail


def y_mean_by_enumeration(n: int, B: float) -> float:
    """E[Y_n] by summing the overlap statistic over all branching outcomes."""
    return sum(p * y_statistic(n, [i - 1 for i in sorted(alive)], B)
               for p, alive in gw_outcomes(n, B))


def weighted_contact_mean_brute(law: RenewalLaw, L: int) -> float:
    """Mean of the inverse-sqrt-weighted contact count by path enumeration."""
    total = 0.0
    for pts, prob in enumerate_paths(law, L):
        total += prob * sum(1.0 / math.sqrt(p) for p in pts[1:] if p <= L)
    return total

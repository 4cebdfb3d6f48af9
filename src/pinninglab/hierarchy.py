"""Exact machinery for the hierarchical pinning recursion.

The partition value of generation n is driven by a binary-tree branching
process: each present node has two children with probability 1/B, none
otherwise.  Surviving leaves carry the disorder rewards, and products of
leaf indicators have the closed form B^(-v) where v counts the internal
nodes of the union of root-to-leaf paths.  Everything here is either an
exact sum over that tree structure or a log-stable evaluation of the
recursion itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter
from .numerics import EXP_RANGE, bracketed_root

B_CRITICAL = math.sqrt(2.0)
_ANNEALED_REL_TOL = 1e-12   # the growth rate stops once a generation moves it less
_ANNEALED_MAX_GEN = 400
_K_HAT_N_CAP = 30           # the last generation of k_hat's running max
_GAMMA_TOL = 1e-12          # width of gamma_for_gap's final bracket


@dataclass(frozen=True)
class HierParams:
    B: float
    beta: float
    h: float

    def __post_init__(self):
        if not 1.0 < self.B < 2.0:
            raise InvalidParameter(f"B must lie in (1, 2), got {self.B}")
        if self.beta < 0.0:
            raise InvalidParameter("disorder strength must be nonnegative")


def annealed_map_step(x: float, B: float) -> float:
    """One step of the disorder-averaged recursion x -> (x^2 + B - 1)/B."""
    if x < 0.0:
        raise InvalidParameter("the recursion acts on nonnegative values")
    return (x * x + (B - 1.0)) / B


def alpha_of_B(B: float) -> float:
    if not 1.0 < B < 2.0:
        raise InvalidParameter(f"B must lie in (1, 2), got {B}")
    return math.log(2.0 / B) / math.log(2.0)


def envelope_generation(B: float, tol: float) -> int:
    """First generation at which (B-1) minus the envelope drops below tol."""
    x, n = 0.0, 0
    while (B - 1.0) - x > tol:
        x = annealed_map_step(x, B)
        n += 1
        if n > 10_000:
            raise InvalidParameter("envelope did not reach the tolerance")
    return n


def _combine_pair(s: np.ndarray | float, B: float):
    """log((e^s + C)/B), C = B - 1, without overflow; s may be hugely positive
    or negative.  The exponent is capped at -EXP_RANGE, so nothing drops to a
    subnormal; the cap moves no value, since e^-600 is far below an ulp of m."""
    logB, logC = math.log(B), math.log(B - 1.0)
    m = np.maximum(s, logC)
    return m + np.log1p(np.exp(-np.minimum(np.abs(s - logC), EXP_RANGE))) - logB


def annealed_log_iterate(log_x0: float, n: int, B: float) -> float:
    """log of the n-fold annealed iterate from e^log_x0; log_x0 = -inf starts
    from 0, where the iterate climbs monotonically toward B - 1."""
    L = log_x0
    for _ in range(n):
        L = float(_combine_pair(2.0 * L, B))
    return L


def annealed_free_energy(B: float, h: float) -> float:
    """Growth rate 2^-n log(iterate from e^h); 0 for h <= 0."""
    if h <= 0.0:
        return 0.0
    L = h
    prev = h
    for n in range(1, _ANNEALED_MAX_GEN + 1):
        L = float(_combine_pair(2.0 * L, B))
        cur = L / 2.0**n
        if n > 8 and abs(cur - prev) <= _ANNEALED_REL_TOL * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


def subtree_node_count(n: int, leaves) -> int:
    """Internal nodes (levels 1..n, root included, leaves not) in the union
    of the root-to-leaf paths of the depth-n tree's leaves, 1-based."""
    total = 0
    idx = np.fromiter(leaves, dtype=np.int64) - 1
    for level in range(1, n + 1):
        total += np.unique(idx >> level).size
    return total


def gw_product_expectation(n: int, leaves, B: float) -> float:
    """Mean of the product of the survival indicators of the depth-n tree's
    leaves, 1-based."""
    return float(B) ** -subtree_node_count(n, leaves)


def pair_overlap_sum(n: int, B: float) -> float:
    """Sum over ordered leaf pairs of the squared two-point function.

    Closed form by join level: 2^n * sum_a 2^(a-1) B^(-2(n+a-1)).
    Equals n exactly at the critical point B = sqrt(2).
    """
    if n < 1:
        raise InvalidParameter("need n >= 1")
    a = np.arange(1, n + 1, dtype=float)
    val = 2.0**n * np.sum(2.0 ** (a - 1) * float(B) ** (-2.0 * (n + a - 1)))
    return float(val)


def _sparse_chunk(n: int) -> int:
    """Realizations per cascade chunk: about 2^16 leaves at critical B, where
    each realization keeps ~2^(n/2).  This is the cascade's draw unit and
    part of its sampling contract, as `renewal._DRAW` is: a chunk draws its
    generations in turn, so the chunk size decides which uniform falls to
    which realization."""
    return max(1, (1 << 16) >> (n // 2))


def gw_overlap_samples(n: int, B: float, rng: np.random.Generator,
                       size: int) -> tuple[np.ndarray, np.ndarray]:
    """(overlap statistic, alive count) over `size` realizations.

    The realizations are drawn and folded `_sparse_chunk(n)` at a time, in
    order, so memory is bounded at any size.  A chunk's cascade is drawn
    top-down, one `rng.random` call per generation, keeping the indices of
    the kept nodes: the children of the kept nodes, in order, are the next
    generation, so realization r owns a contiguous node range of each.  Y
    depends on the tree's shape alone, so it is folded bottom-up over
    sibling pairs: a kept node at level a above the leaves has leaf count
    c_L + c_R and adds 2 B^-(n+a-1) c_L c_R, the pairs that join there.
    The fold starts at level 1, where every kept node has c = 2 and
    y = 2 B^-n.  Y agrees with `oracles.y_statistic` to rounding, and each
    chunk draws exactly as a call of `oracles.gw_cascade_leaves` does.
    """
    if n < 1:
        raise InvalidParameter("need generation >= 1")
    y, c = np.empty(size), np.empty(size)
    step = _sparse_chunk(n)
    for r in range(0, size, step):
        _overlap_chunk(n, B, rng, y[r : r + step], c[r : r + step])
    return y, c


def _overlap_chunk(n: int, B: float, rng: np.random.Generator,
                   y: np.ndarray, c: np.ndarray) -> None:
    """Draw y.size realizations and write their Y and alive counts into y
    and c."""
    p = 1.0 / B
    kept, m = [], [y.size]
    for _ in range(n):
        kept.append(np.flatnonzero(rng.random(m[-1]) < p))
        m.append(2 * kept[-1].size)
    cs, ys = np.zeros(m[n - 1]), np.zeros(m[n - 1])
    cs[kept[n - 1]] = 2.0
    ys[kept[n - 1]] = 2.0 * float(B) ** -float(n)
    for a in range(2, n + 1):
        cl, cr, yl, yr = cs[0::2], cs[1::2], ys[0::2], ys[1::2]
        k = kept[n - a]
        cs, ys = np.zeros(m[n - a]), np.zeros(m[n - a])
        cs[k] = cl + cr
        ys[k] = yl + yr + 2.0 * float(B) ** -(n + a - 1.0) * cl * cr
    c[:], y[:] = cs, ys / n


def hier_log_partition_batch(params: HierParams, n: int,
                             omega: np.ndarray) -> np.ndarray:
    """log of the generation-n partition value for each disorder row.

    omega has shape (..., 2^n).  X_n sees the disorder only through the
    sibling sums s = omega_2k + omega_2k+1: level 1 is (e^sigma + C)/B with
    sigma = beta s - beta^2 + 2h and C = B - 1, and each level above is
    (X_l X_r + C)/B.  Each row folds upward in the linear domain while a
    bound proves that nothing overflows: (1 + C)/B = 1, so a level's largest
    log value at most doubles, log X_l <= 2^(l-1) max(max sigma, 0), and a
    row stays linear through level l while that bound is at most EXP_RANGE.
    sigma is clamped below at -EXP_RANGE, so no subnormal forms; the clamp
    moves no value, since X_1 >= C/B.  The levels above a row's bound run
    in the log domain (`_combine_pair`), so doubly-exponential growth in the
    localized phase cannot overflow.  The bound reads each row alone, so a
    row's value does not depend on the rows batched with it.
    """
    om = np.asarray(omega, dtype=float)
    if om.shape[-1] != 2**n:
        raise InvalidParameter(f"disorder must have 2^{n} = {2**n} entries per row")
    beta, h = params.beta, params.h
    if n == 0:
        return beta * om[..., 0] - 0.5 * beta**2 + h
    sigma = (om[..., 0::2] + om[..., 1::2]).reshape(-1, 2 ** (n - 1))
    sigma *= beta
    sigma += 2.0 * h - beta**2
    np.maximum(sigma, -EXP_RANGE, out=sigma)
    out = np.empty(sigma.shape[0])
    if not out.size:
        return out.reshape(om.shape[:-1])
    top = np.maximum(sigma.max(axis=1), 0.0)
    linear = (2.0 ** np.arange(n) * top[:, None] <= EXP_RANGE).sum(axis=1)
    lo, hi = int(linear.min()), int(linear.max())
    # every row is linear through level lo, and those levels are elementwise,
    # so they run on all rows at once; each row's own bound takes it on
    x = _linear_levels(sigma, 0, lo, params.B)
    for k in range(lo, hi + 1):
        rows = slice(None) if lo == hi else linear == k
        y = _linear_levels(x[rows], lo, k, params.B)
        L = np.log(y) if k else _combine_pair(y, params.B)
        for _ in range(n - max(k, 1)):
            L = _combine_pair(L[:, 0::2] + L[:, 1::2], params.B)
        out[rows] = L[:, 0]
    return out.reshape(om.shape[:-1])


def _linear_levels(x: np.ndarray, start: int, stop: int, B: float) -> np.ndarray:
    """Rows of level-`start` values X (level 0: the exponents sigma) folded
    up to level `stop` in the linear domain; level 1 overwrites x."""
    C, r = B - 1.0, 1.0 / B
    for level in range(start + 1, stop + 1):
        x = np.exp(x, out=x) if level == 1 else x[:, 0::2] * x[:, 1::2]
        x += C
        x *= r
    return x


def y_second_moment(n: int) -> float:
    """Exact mean square of the overlap statistic at the critical B, by the
    moment recursion of `gw_overlap_samples`'s sibling fold;
    `oracles.y_second_moment_brute` enumerates it.

    Under a present node of height d, N counts the alive leaves and A sums
    B^-a over the ordered leaf pairs that join at height a, so that
    Y_n = B^-(n-1) A / n at the root.  With probability 1/B the node has two
    independent subtrees, and then N = N_L + N_R and
    A = A_L + A_R + 2 B^-d N_L N_R; otherwise both are 0.  So E[N], E[N^2],
    E[A], E[AN] and E[A^2] close level by level from a leaf's (1, 1, 0, 0, 0).
    """
    if n < 2:
        raise InvalidParameter("need n >= 2")
    B = B_CRITICAL
    n1, n2, a1, an, a2 = 1.0, 1.0, 0.0, 0.0, 0.0
    for d in range(1, n + 1):
        b = B ** -d
        n1, n2, a1, an, a2 = (
            2.0 * n1 / B,
            (2.0 * n2 + 2.0 * n1**2) / B,
            (2.0 * a1 + 2.0 * b * n1**2) / B,
            (2.0 * an + 2.0 * a1 * n1 + 4.0 * b * n2 * n1) / B,
            (2.0 * a2 + 2.0 * a1**2 + 8.0 * b * an * n1 + 4.0 * b**2 * n2**2) / B,
        )
    return B ** (-2.0 * (n - 1)) * a2 / n**2


@lru_cache(maxsize=None)
def k_hat() -> float:
    """Running max of the overlap second moment over generations 2.._K_HAT_N_CAP."""
    return max(y_second_moment(n) for n in range(2, _K_HAT_N_CAP + 1))


def fractional_threshold(B: float, gamma: float) -> float:
    """Contraction threshold B^g - 2(B-1)^g for the fractional-moment recursion."""
    if not 0.0 < gamma < 1.0:
        raise InvalidParameter("moment order must lie in (0, 1)")
    return float(B) ** gamma - 2.0 * (float(B) - 1.0) ** gamma


def gamma_positive_threshold(B: float) -> float:
    """Smallest moment order with a positive contraction threshold."""
    return math.log(2.0) / math.log(B / (B - 1.0))


def gap_excess(B: float, gamma: float, zeta: float) -> float:
    """B^g - 2(B-1)^g - t^g for t = 2 - B - zeta/4 > 0: nonnegative exactly
    when the contraction threshold^(1/g) reaches t, the moment-order gap."""
    return fractional_threshold(B, gamma) - (2.0 - B - zeta / 4.0) ** gamma


def gamma_for_gap(B: float, zeta: float) -> float:
    """Smallest moment order at which threshold^(1/gamma) reaches 2 - B - zeta/4.

    threshold^(1/gamma) increases toward 2 - B as gamma -> 1, so the order is
    the root of `gap_excess`, which is smooth and negative where the threshold
    is not positive.  The root's bracket is narrowed to _GAMMA_TOL and its
    upper end returned, where `gap_excess` is nonnegative.
    """
    if 2.0 - B - zeta / 4.0 <= 0.0:
        return gamma_positive_threshold(B)
    hi = 1.0 - 1e-15
    if gap_excess(B, hi, zeta) < 0.0:
        raise InvalidParameter("zeta too small: the gap condition is unreachable")
    _, hi = bracketed_root(lambda g: gap_excess(B, g, zeta), gamma_positive_threshold(B),
                           hi, atol=_GAMMA_TOL, rtol=0.0)
    return hi

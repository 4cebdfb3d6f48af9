"""Recurrent renewal processes with polynomial inter-arrival tails.

Laws are stored up to a finite horizon n_max; whatever probability mass
lives beyond the horizon is kept as an analytic tail (power-law shape)
so that infinite sums (normalization, the characteristic equation) stay
exact up to an explicit, reported truncation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import HorizonExceeded, InvalidParameter
from .numerics import bracketed_root, zeta

RECURRENT_TOL = 1e-9
_FREE_ENERGY_REL_TOL = 1e-10   # width of the free energy's final bracket, relative to its ends
_GREEN_BLOCK = 512   # sites per base block of the Green table
_EULER_GAMMA = 0.5772156649015329
_GUIDE = 1 << 16  # gap-lookup buckets: u * 2^16 is exact, so its floor is u's bucket


@dataclass(frozen=True)
class RenewalLaw:
    """Inter-arrival law K(1..n_max), plus the analytic tail beyond n_max.

    mass[n] = K(n) for 1 <= n <= n_max (mass[0] is a zero pad).
    alpha, c_k describe the tail K(n) ~ c_k / n^(1+alpha); finite-support
    laws use alpha = inf, c_k = 0.
    """

    mass: np.ndarray
    alpha: float
    c_k: float
    tail_mass: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.ndim != 1 or m.size < 3 or m[0] != 0.0:
            raise InvalidParameter("mass must be 1-d with a zero pad at index 0 and n_max >= 2")
        if np.any(m[1:] <= 0.0):
            raise InvalidParameter("every stored K(n) must be positive")
        if self.tail_mass < 0.0:
            raise InvalidParameter("tail mass must be nonnegative")
        if self.tail_mass > 0.0 and not self.alpha > 0.0:
            raise InvalidParameter(f"a power-law tail needs alpha > 0, got {self.alpha}")
        if self.grand_total > 1.0 + 1e-12:
            raise InvalidParameter("total mass exceeds 1")
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)

    @property
    def n_max(self) -> int:
        return self.mass.size - 1

    @property
    def total(self) -> float:
        return float(self.mass.sum())

    @property
    def grand_total(self) -> float:
        return self.total + self.tail_mass

    @property
    def recurrent(self) -> bool:
        return abs(self.grand_total - 1.0) <= RECURRENT_TOL

    @cached_property
    def cdf(self) -> np.ndarray:
        return np.cumsum(self.mass)

    @cached_property
    def sites(self) -> np.ndarray:
        """The stored sites 1..n_max, as floats."""
        ns = np.arange(1, self.n_max + 1, dtype=float)
        ns.setflags(write=False)
        return ns

    @cached_property
    def guide(self) -> np.ndarray:
        """Guide table for the gap lookup (Chen & Asau 1974): bucket b holds
        cdf[1:].searchsorted(b / 2^16), the lookup of every u in
        [b / 2^16, (b + 1) / 2^16), or -1 when a cdf value falls inside."""
        idx = self.cdf[1:].searchsorted(np.arange(_GUIDE + 1) / _GUIDE)
        g = np.where(idx[1:] == idx[:-1], idx[:-1], -1).astype(np.int32)
        g.setflags(write=False)
        return g


@dataclass(frozen=True)
class GreenTable:
    """u(n) = P(n is a renewal point) for n = 0..N."""

    u: np.ndarray
    law: RenewalLaw

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        if u[0] != 1.0:
            raise InvalidParameter("u(0) must be 1")

    @property
    def horizon(self) -> int:
        return self.u.size - 1


def make_power_law(alpha: float, n_max: int) -> RenewalLaw:
    """Pure power-law gap law K(n) = n^-(1+alpha) / zeta(1+alpha), stored to n_max."""
    if not alpha > 0.0:
        raise InvalidParameter(f"tail exponent must be positive, got {alpha}")
    if n_max < 2:
        raise InvalidParameter(f"horizon must be at least 2, got {n_max}")
    ns = np.arange(n_max + 1, dtype=float)
    c = 1.0 / zeta(1.0 + alpha)
    mass = np.zeros(n_max + 1)
    mass[1:] = c * ns[1:] ** -(1.0 + alpha)
    tail = max(1.0 - float(mass.sum()), 0.0)
    return RenewalLaw(mass=mass, alpha=alpha, c_k=c, tail_mass=tail)


def law_from_mass(values, alpha: float = math.inf, c_k: float = 0.0,
                  tail_mass: float = 0.0) -> RenewalLaw:
    """Wrap explicit masses K(1), K(2), ... into a law (finite tail by default)."""
    v = np.asarray(values, dtype=float)
    mass = np.zeros(v.size + 1)
    mass[1:] = v
    return RenewalLaw(mass=mass, alpha=alpha, c_k=c_k, tail_mass=tail_mass)


def _smooth_numbers(limit: int) -> np.ndarray:
    """Every 2^a 3^b 5^c up to limit, ascending."""
    out, p5 = [], 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            p = p35
            while p <= limit:
                out.append(p)
                p *= 2
            p35 *= 3
        p5 *= 5
    return np.sort(np.array(out, dtype=np.int64))


_FFT_LENGTHS = _smooth_numbers(1 << 40)   # 3 461 lengths, built in under 1 ms


def _next_fast_len(n):
    """The smallest 5-smooth integer (2^a 3^b 5^c) at least n, for n in
    1..2^40: a fast real FFT length.  Elementwise for an array n."""
    return _FFT_LENGTHS[_FFT_LENGTHS.searchsorted(n)]


def _convolve(a: np.ndarray, b: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Terms start..stop-1 of the linear convolution a * b, by real FFTs.

    A circular convolution of length m >= stop adds term t + m onto term t;
    m >= a.size + b.size - 1 - start leaves nothing to add from t >= start.
    """
    m = _next_fast_len(max(stop, a.size + b.size - 1 - start))
    return np.fft.irfft(np.fft.rfft(a, m) * np.fft.rfft(b, m), m)[start:stop]


def _green_divide_conquer(mass: np.ndarray, N: int) -> np.ndarray:
    """u(0..N) for the gap masses mass[1..], zero beyond their end.

    The recursion u(n) = sum_j K(j) u(n - j) runs site by site over u(1..511)
    and, when the support s of K is shorter than a block (N < 512 included),
    over all of u in O(N s): for a short support it settles on one value to
    the ulp, where a convolution would scatter its last bits, and
    `chung_erdos_check`'s variance lifts that scatter several hundredfold.
    Otherwise a block [lo, hi) of at most `_GREEN_BLOCK` sites solves
    (I - T) u[lo:hi] = acc[lo:hi], where T[i, i'] = K(i - i') is strictly
    lower triangular and acc holds the contributions of the sites before lo.
    (I - T)^-1 is the lower triangular Toeplitz matrix of u(0..b-1) itself,
    so the solve is the direct convolution of acc[lo:hi] with g = u(0..511);
    every term is positive.  A larger block solves its left half, carries
    that half into acc over the right half and solves the right half.  The
    carry is an FFT convolution, unless s is shorter than the left half:
    then only its last s sites reach, and only the first s sites of the
    right half, so the carry is a short direct product with no FFT roundoff.
    """
    s = min(mass.size - 1, N)
    K = np.zeros(N + 1)
    K[1 : s + 1] = mass[1 : s + 1]
    u = np.zeros(N + 1)
    u[0] = 1.0
    seq = N if s < _GREEN_BLOCK else _GREEN_BLOCK - 1
    for n in range(1, seq + 1):
        m = min(n, s)
        u[n] = np.dot(K[m:0:-1], u[n - m : n])
    if seq == N:
        return u
    g = u[:_GREEN_BLOCK].copy()
    acc = K.copy()  # contributions of u(0); acc[m] accumulates sums over finalized t < lo
    # blocks (lo, hi) in recursion order, each split into its left half, the
    # carry of that half (marked by a third entry) and its right half; an
    # explicit stack, since a recursive closure would hold these arrays in a
    # reference cycle until the garbage collector runs
    todo = [(1, N + 1)] if N else []
    while todo:
        lo, hi, *carry = todo.pop()
        b, mid = hi - lo, (lo + hi) // 2
        if carry:
            if s < mid - lo:
                r = min(s, hi - mid)
                acc[mid : mid + r] += np.convolve(u[mid - s : mid], K[1 : s + 1])[s - 1 : s - 1 + r]
            else:
                acc[mid:hi] += _convolve(u[lo:mid], K[1:b], mid - lo - 1, b - 1)
        elif b <= _GREEN_BLOCK:
            u[lo:hi] = np.convolve(acc[lo:hi], g[:b])[:b]
        else:
            todo += [(mid, hi), (lo, hi, True), (lo, mid)]
    return u


def green_function(law: RenewalLaw, N: int) -> GreenTable:
    """Renewal mass function on [0, N] by convolution of the gap law.

    Divide-and-conquer convolution, O(N log^2 N): blocks of up to 512 sites
    are one direct convolution each with u(0..511), built site by site once
    per table, and FFT convolutions carry each half into the next (a direct
    product when the law's support is shorter than the half).  A support
    shorter than a block runs the recursion site by site instead.  Laws
    with an analytic tail must be stored at least to N; for finite-support
    laws any horizon is exact.
    """
    if N > law.n_max and law.tail_mass > 0.0:
        raise HorizonExceeded(f"N={N} exceeds the stored law horizon {law.n_max}")
    return GreenTable(u=_green_divide_conquer(law.mass, N), law=law)


def renewal_residual(table: GreenTable) -> float:
    """sup-norm of u - K*u - e0; machine-zero for a correct table."""
    u, K = table.u, table.law.mass[: table.horizon + 1]
    res = u - _convolve(u, K, 0, u.size)
    res[0] -= 1.0
    return float(np.max(np.abs(res)))


@dataclass(frozen=True)
class RenewalPaths:
    """Paths drawn as one batch, ragged: path i is points[offsets[i]:offsets[i + 1]],
    strictly increasing from 0."""

    offsets: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=np.int64)
        p = np.asarray(self.points, dtype=np.int64)
        for a in (off, p):
            a.setflags(write=False)
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "points", p)
        if off.ndim != 1 or off.size == 0 or off[0] != 0 or off[-1] != p.size:
            raise InvalidParameter("offsets must run from 0 to the point count")
        starts = off[:-1]
        if np.any(np.diff(off) < 1) or np.any(p[starts] != 0):
            raise InvalidParameter("every path starts at 0")
        step = np.diff(p)
        step[starts[1:] - 1] = 1  # the jump back to 0 at each new path
        if np.any(step < 1):
            raise InvalidParameter("points must be strictly increasing")

    def __len__(self) -> int:
        return self.offsets.size - 1


_DRAW = 256          # uniforms per draw; a path consumes whole draws
_MAX_DRAWS = 64      # draws carved per round, which bounds the working memory


def _gaps(law: RenewalLaw, u: np.ndarray, N: int) -> np.ndarray:
    """Gaps 1 + cdf[1:].searchsorted(u), read off the guide table; a draw
    above cdf[-1] becomes a gap that leaves [0, N]."""
    idx = law.guide[(u * _GUIDE).astype(np.intp)]
    miss = np.flatnonzero(idx < 0)
    idx[miss] = law.cdf[1:].searchsorted(u[miss])
    gaps = idx + 1
    if N > law.n_max:
        gaps[gaps > law.n_max] = N + 1
    return gaps


def sample_path(law: RenewalLaw, N: int, rng: np.random.Generator,
                size: int) -> RenewalPaths:
    """`size` paths of IID gaps from the full law, each stopped at the horizon N.

    A draw landing in the mass beyond n_max (or in the terminating
    deficit of a sub-probability law) leaves the window or ends the
    renewal, so it simply ends the path; the restriction to [0, N] is
    sampled exactly as long as N <= n_max, and for any N when the law
    has finite support.  Conditioning gaps on <= n_max instead would
    compound a per-gap bias that fat tails make visible in the point
    counts, failing the Green-table consistency checks.

    Gaps come 256 uniforms at a time, and a path consumes whole draws:
    its last draw holds the gap that leaves [0, N], and the rest of that
    draw is discarded.  A uniform u maps to the gap
    1 + cdf[1:].searchsorted(u) through the law's guide table, with a
    binary search only in the buckets that hold a cdf value.  The paths
    equal `size` single draws in turn (`oracles.sample_path_sequential`),
    and `rng` is left where those draws would leave it.  Each round draws
    only as many uniforms as the unfinished paths must still consume
    (every gap within the window is at most n_max + 1, and a path that can
    end at any draw still consumes one), so nothing is drawn that the
    sequential sampler would not draw.  A round is one scan over whole
    draws: each draw's row holds 0 and then its running sums of gaps, a
    loop over the row totals gives each draw the position it starts from
    and whether it ends its path, and adding the start to the row gives
    the draw's points; the points within [0, N] are kept, and column 0
    only on a path's first draw, where it is the origin.
    """
    if law.tail_mass > 0.0 and N > law.n_max:
        raise HorizonExceeded(
            f"exact sampling needs N <= n_max = {law.n_max} for tailed laws"
        )
    n = int(size)
    if n < 0:
        raise InvalidParameter(f"size must be nonnegative, got {size}")
    # a path standing at pos still consumes at least ceil((N + 1 - pos) / span)
    # draws: every gap is at most n_max + 1, unless a draw above cdf[-1]
    # can end the path at once
    span = N + 1 if law.cdf[-1] < 1.0 else (law.n_max + 1) * _DRAW
    fresh = -(-(N + 1) // span)
    pieces, offsets = [], [0]
    # pos: where the path the next draw continues stands, 0 for a new path;
    # carved: the points kept so far
    pos, carved = 0, 0
    while len(offsets) <= n:
        m = min(-(-(N + 1 - pos) // span) + (n - len(offsets)) * fresh, _MAX_DRAWS)
        walk = np.zeros((m, _DRAW + 1), dtype=np.int64)
        np.cumsum(_gaps(law, rng.random(m * _DRAW), N).reshape(m, _DRAW), axis=1,
                  dtype=np.int64, out=walk[:, 1:])
        start, ends = np.empty(m, dtype=np.int64), np.empty(m, dtype=bool)
        for i, total in enumerate(walk[:, -1].tolist()):
            start[i], pos = pos, pos + total
            ends[i] = pos > N
            if ends[i]:
                pos = 0
        walk += start[:, None]
        keep = walk <= N
        keep[:, 0] = start == 0  # else column 0 repeats the last point before it
        pieces.append(walk[keep])
        kept = carved + keep.sum(axis=1).cumsum()
        offsets += kept[ends].tolist()
        carved = int(kept[-1])
    points = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
    return RenewalPaths(offsets=np.array(offsets), points=points)


def _tail_integral(law: RenewalLaw, rate: float) -> float:
    """Mass beyond n_max weighted by exp(-rate*n), power-law shape, exact at rate 0.

    For the density proportional to x^-(1+alpha) on x > x0 = n_max + 1/2 and
    z = rate * x0, the weighted fraction is alpha z^alpha Gamma(-alpha, z) =
    alpha e^-z t(-alpha), with t(s) = z^-s e^z Gamma(s, z).  For z >= 1,
    t(-alpha) is the continued fraction 1/(z+1+alpha- 1(1+alpha)/(z+3+alpha-
    2(2+alpha)/(z+5+alpha- ...))) (DLMF 8.9.2, contracted), by the modified
    Lentz scheme; nothing cancels in it.  Below, t starts at whichever of
    s = k - alpha and k + 1 - alpha lies in (-1/2, 1/2], k = floor(alpha),
    from the power series Gamma(s, z) = Gamma(s) - z^s sum_n (-z)^n /
    (n! (s + n)) (DLMF 8.7.3).  Its head z^-s Gamma(s) - 1/s is
    expm1(s (log Gamma(1 + s)/s - log z))/s, with log Gamma(1 + s) =
    -gamma_E s + sum_{j >= 2} zeta(j) (-s)^j / j (DLMF 5.7.3), so nothing
    cancels near an integer alpha, and its s -> 0 limit is E1(z)'s
    -gamma_E - log z (DLMF 6.6.2).  t then recurs down to t(-alpha) with
    t(s-1) = (1 - z t(s))/(1 - s) (DLMF 8.8.2), each step dividing by
    1 - s >= 1/2.  Against 40-digit mpmath both branches agree within 9e-15
    relative from z = 1e-10 to 50, at alpha 0.3 to 2.001 on both sides of
    1/2, 1 and 2.
    """
    if law.tail_mass == 0.0 or not np.isfinite(law.alpha):
        return 0.0
    if not rate >= 0.0:
        raise InvalidParameter(f"the power-law tail diverges at rate {rate} < 0")
    if rate == 0.0:
        return law.tail_mass
    a, z = law.alpha, rate * (law.n_max + 0.5)
    if z >= 1.0:  # the fraction takes about 90 terms at z = 1, and fewer above
        b = z + 1.0 + a
        c, d = math.inf, 1.0 / b
        t = d
        for n in range(1, 500):
            b += 2.0
            an = -n * (n + a)
            d = 1.0 / (b + an * d)
            c = b + an / c
            delta = c * d
            t *= delta
            if abs(delta - 1.0) <= 2.0**-52:  # within an ulp of 1
                return law.tail_mass * a * math.exp(-z) * t
        raise RuntimeError(f"tail continued fraction did not converge at z = {z}")
    steps = math.floor(a + 0.5)
    s = steps - a
    lg, power, j = -_EULER_GAMMA, -1.0, 1   # log Gamma(1 + s) / s
    while True:
        j += 1
        power *= -s
        add = zeta(j) * power / j
        lg += add
        if abs(add) <= 2.0**-53 * abs(lg):
            break
    series, term, n = 0.0, 1.0, 0   # sum_{n >= 1} (-z)^n / (n! (s + n))
    while True:
        n += 1
        term *= -z / n
        add = term / (s + n)
        series += add
        if abs(add) <= 2.0**-53 * abs(series):
            break
    g = lg - math.log(z)
    head = math.expm1(s * g) / s if s else g
    t = math.exp(z) * (head - series)
    for _ in range(steps):  # down to t(-alpha)
        t = (1.0 - z * t) / (1.0 - s)
        s -= 1.0
    return law.tail_mass * a * math.exp(-z) * t


def characteristic_sum(law: RenewalLaw, rate: float) -> float:
    """sum_n K(n) exp(-rate n), with the analytic tail correction.  The head
    is summed without BLAS: a threaded ddot over n_max sites can run 100x
    slower in some interpreters."""
    head = float((law.mass[1:] * np.exp(-rate * law.sites)).sum())
    return head + _tail_integral(law, rate)


def homogeneous_free_energy(law: RenewalLaw, h: float) -> float:
    """Pure-model free energy: the positive root of the characteristic equation.

    For h <= 0 the model is delocalized and the value is 0.
    """
    if not law.recurrent:
        raise InvalidParameter(
            "law is terminating (total mass < 1); apply terminating_shift first"
        )
    if h <= 0.0:
        return 0.0
    target = math.exp(-h)
    # each rate is summed once: the bracket's upper end is its last probe
    excess = cache(lambda rate: characteristic_sum(law, rate) - target)
    hi = max(h, 1e-12)
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise InvalidParameter("failed to bracket the free-energy root")
    lo, hi = bracketed_root(excess, 0.0, hi, atol=0.0, rtol=_FREE_ENERGY_REL_TOL)
    return 0.5 * (lo + hi)


def terminating_shift(law: RenewalLaw) -> tuple[RenewalLaw, float]:
    """Renormalize a terminating law to a recurrent one; returns (law, log-deficit)."""
    sigma = law.grand_total
    if abs(sigma - 1.0) <= 1e-12:
        return law, 0.0
    shifted = RenewalLaw(
        mass=law.mass / sigma,
        alpha=law.alpha,
        c_k=law.c_k / sigma,
        tail_mass=law.tail_mass / sigma,
    )
    return shifted, math.log(sigma)


def conditioning_ratio_curve(law: RenewalLaw, N_max: int) -> np.ndarray:
    """Running max over N' <= N of the last-epoch conditioning ratio, N = 1..N_max.

    ratio(N, n) = P(X_N = n | 2N in tau) / P(X_N = n) with X_N the last
    renewal epoch <= N, assembled exactly from the Green table and the
    gap tails: ratio(N, n) = S(N, n) / (u(2N) P(gap > N - n)) with
    S(N, n) = sum_{m < N} u(m) K(2N - n - m).  S(N, .) is the reversed slice
    C[2N : N - 1 : -1] of the running convolution C(t) = sum_{m < N} u(m)
    K(t - m), which takes one scaled add per N.  Every term is positive, so
    nothing cancels; `oracles.conditioning_ratio_curve_fft` builds each S
    by its own FFT convolution.
    """
    if 2 * N_max > law.n_max and law.tail_mass > 0.0:
        raise HorizonExceeded("need the law stored to 2*N_max")
    size = 2 * N_max + 1
    K = np.zeros(size)
    K[: min(size, law.mass.size)] = law.mass[:size]
    u = green_function(law, 2 * N_max).u
    surv = law.grand_total - np.cumsum(K[: N_max + 1])
    surv[surv <= 0.0] = np.inf  # a last epoch the law cannot realize: ratio 0
    C = K.copy()  # C(t) for N = 1: the term u(0) K(t)
    peak = np.empty(N_max)
    for N in range(1, N_max + 1):
        peak[N - 1] = (C[2 * N : N - 1 : -1] / (u[2 * N] * surv[N::-1])).max()
        C[N:] += u[N] * K[: size - N]
    return np.maximum.accumulate(peak)


def conditioning_ratio(law: RenewalLaw, N_max: int) -> float:
    """Empirical constant: the max conditioning ratio over N <= N_max, n <= N."""
    return float(conditioning_ratio_curve(law, N_max)[-1])

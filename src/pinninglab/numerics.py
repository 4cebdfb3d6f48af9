"""Shared numerical plumbing: seeding, Monte Carlo means, small stats,
log-sum-exp, the zeta function and a bracketed root finder."""
from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

EXP_RANGE = 600.0   # widest exponent range a linear-domain step may span (e^709 overflows)


def derive_rng(seed: int, *keys) -> np.random.Generator:
    """Independent substream of the master seed, keyed by ints or strings.

    Same (seed, keys) always yields the same stream, so results do not
    depend on how tasks are scheduled across workers.
    """
    spawn = tuple(
        zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in keys
    )
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=spawn))


def mean_and_error(values: np.ndarray):
    """The mean along the last axis and its standard error, in two passes:
    the mean, then the centered sum of squares, so that a large common
    offset does not cancel the variance away.  Floats for 1-d values, one
    of each per row otherwise; the error is inf below two samples."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    mean = v.mean(axis=-1)
    if n < 2:
        se = np.full(np.shape(mean), math.inf)
    else:
        se = np.sqrt(np.sum((v - mean[..., None]) ** 2, axis=-1) / (n - 1) / n)
    return (mean, se) if v.ndim > 1 else (float(mean), float(se))


@dataclass(frozen=True)
class PoolEstimate:
    """A Monte Carlo estimate with its standard error and sample count."""

    mean: float
    std_error: float
    sample_count: int
    annealed: float | None = None

    def __post_init__(self):
        if self.sample_count >= 2 and not self.std_error >= 0.0:
            raise ValueError("std_error must be nonnegative")

    @classmethod
    def from_samples(cls, values: np.ndarray,
                     annealed: float | None = None) -> "PoolEstimate":
        """The estimate over a whole 1-d sample vector."""
        return cls(*mean_and_error(values), len(values), annealed)


def logsumexp_1d(x: np.ndarray):
    """log sum exp(x), shifted by the maximum: one value per row of a 2-d x,
    a float for a 1-d x, which is one row.  An infinite maximum gives itself."""
    rows = np.atleast_2d(x)
    m = rows.max(axis=1, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        out = (m + np.log(np.exp(rows - shift).sum(axis=1, keepdims=True)))[:, 0]
    return float(out[0]) if x.ndim == 1 else out


# B_2k / (2k)! for k = 1..8
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                    -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)


@functools.cache
def zeta(s: float) -> float:
    """The Riemann zeta function at real s > 1, by Euler-Maclaurin summation
    from n = 10: the head sum_{n < 10} n^-s, the integral and half-term at 10,
    and eight Bernoulli corrections B_2k / (2k)! s (s + 1) ... (s + 2k - 2)
    10^(1 - s - 2k).  The first omitted correction is below 5e-18 of the
    value at every s > 1, and against 40-digit mpmath the result is within
    2.2e-16 relative from s = 1.0001 to 12."""
    if not s > 1.0:
        raise InvalidParameter(f"zeta needs s > 1, got {s}")
    n = 10.0
    head = float(np.sum(np.arange(1.0, n) ** -s))
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    term = s * n ** (-s - 1.0)
    for j, c in enumerate(_EULER_MACLAURIN):
        tail += c * term
        term *= (s + 2 * j + 1) * (s + 2 * j + 2) / (n * n)
    return head + tail


_ROOT_MAX_STEPS = 200   # steps after the two ends; an f spanning e^-240..e^240 took 88


def bracketed_root(f, lo: float, hi: float, *, atol: float,
                   rtol: float) -> tuple[float, float]:
    """A bracket [a, b] within [lo, hi] about a root of the continuous f, of
    width b - a <= atol + rtol max(|a|, |b|), by the Illinois variant of
    regula falsi: the next point is where the chord through the two ends
    crosses zero, and an end kept twice running has its f value halved, so
    that both ends close in superlinearly; a step that rounds onto an end
    takes the midpoint instead.  f must change sign on [lo, hi].
    f(a) has the sign of f(lo) and f(b) that of f(hi), or f is 0 at a = b.
    Raises InvalidParameter when f does not change sign, and
    ArithmeticError after _ROOT_MAX_STEPS steps."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0:
        return (lo, lo) if flo == 0.0 else (hi, hi)
    if (flo > 0.0) == (fhi > 0.0):
        raise InvalidParameter(f"no sign change on [{lo!r}, {hi!r}]")
    kept = 0   # +1 after an update kept hi, -1 after one kept lo
    for _ in range(_ROOT_MAX_STEPS):
        if hi - lo <= atol + rtol * max(abs(lo), abs(hi)):
            return lo, hi
        x = lo + (hi - lo) * (flo / (flo - fhi))
        if not lo < x < hi:   # the chord's step rounded onto an end
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            return x, x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
            fhi *= 0.5 if kept == 1 else 1.0
            kept = 1
        else:
            hi, fhi = x, fx
            flo *= 0.5 if kept == -1 else 1.0
            kept = -1
    raise ArithmeticError(f"no bracket of the tolerated width after {_ROOT_MAX_STEPS} steps")


def least_squares_slope(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    m = s.size
    f = cdf(s)
    upper = np.arange(1, m + 1) / m - f
    lower = f - np.arange(0, m) / m
    return float(max(upper.max(), lower.max()))

"""Shared numerical plumbing: seeding, Monte Carlo accumulation, small stats."""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np


def derive_rng(seed: int, *keys) -> np.random.Generator:
    """Independent substream of the master seed, keyed by ints or strings.

    Same (seed, keys) always yields the same stream, so results do not
    depend on how tasks are scheduled across workers.
    """
    spawn = tuple(
        zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in keys
    )
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=spawn))


@dataclass
class MeanAccumulator:
    """Streaming mean and standard error over sample chunks.

    Each chunk's own mean and centered sum of squares are folded in with
    the Chan-Golub-LeVeque update, so a large common offset does not
    cancel the variance away.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0         # sum of squared deviations from the mean

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=float)
        m = float(v.mean())
        total = self.count + v.size
        delta = m - self.mean
        self.mean += delta * v.size / total
        self.m2 += float(np.sum((v - m) ** 2)) + delta**2 * self.count * v.size / total
        self.count = total

    @property
    def std_error(self) -> float:
        if self.count < 2:
            return float("inf")
        return float(np.sqrt(self.m2 / (self.count - 1) / self.count))


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
    def from_accumulator(cls, acc: MeanAccumulator,
                         annealed: float | None = None) -> "PoolEstimate":
        return cls(acc.mean, acc.std_error, acc.count, annealed)


def chunk_sizes(total: int, chunk: int):
    done = 0
    while done < total:
        size = min(chunk, total - done)
        yield size
        done += size


def logsumexp_1d(x: np.ndarray) -> float:
    m = float(x.max())
    if not math.isfinite(m):
        return m
    return m + float(np.log(np.exp(x - m).sum()))


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

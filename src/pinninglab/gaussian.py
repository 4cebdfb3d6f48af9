"""Tilted Gaussian disorder laws and their sampling factorizations.

Two couplings are supported, each a frozen class that carries its own
parameters and its spectrum: the distinct eigenvalues `eigs` with their
multiplicities `mult`.  The hierarchical coupling puts the normalized
two-point function of the branching process off the diagonal; it is
constant on join-level classes, hence diagonal in the Haar wavelet basis
of the dyadic index tree, which gives O(dim) sampling.  The block
coupling is block-diagonal with a fixed inverse-square-root profile
inside each selected block and the identity elsewhere.

Each class supplies only its orthonormal change of basis (`energies`,
`synthesize`) and the paper's Hoelder bound for it (`holder`).  The
positive-definiteness window, the log-determinant, the sampling
deviations and the density ratio are written once against the spectrum.

A coupling is immutable, so what depends on it alone is built once per
instance: each class's index layout, and per tilt the density weights
and the log-determinant (`_tilt_constants`).  `dataclasses.replace`
makes a new instance, which starts with none of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NotPositiveDefinite
from .hierarchy import B_CRITICAL, pair_overlap_sum

SQRT2 = math.sqrt(2.0)
MAX_HIER_GENERATION = 26
PD_SAFETY = 0.999
_BLOCK_DENOM = 9.0    # the paper's c in the block profile (1-gamma)/sqrt(c k log(k) |i-j|)


@dataclass(frozen=True)
class _Coupling:
    eigs: np.ndarray      # distinct eigenvalues of the coupling
    mult: np.ndarray      # their multiplicities

    @property
    def lam_max(self) -> float:
        return float(self.eigs.max())

    @cached_property
    def _tilts(self) -> dict[float, tuple[np.ndarray, float]]:
        """Memo of `_tilt_constants`, keyed by the tilt."""
        return {}


@dataclass(frozen=True)
class HierCoupling(_Coupling):
    """Hierarchical coupling of generation n.

    eigs and mult follow the Haar coefficient vector: the smooth part,
    then detail block j = 1..n, which holds the 2^(j-1) wavelets of scale
    n + 1 - j (a scale-s wavelet lives on a dyadic block of size 2^s).
    """

    n: int
    B: float
    hs_norm: ClassVar[float] = 1.0    # exact, by the normalization of the entries

    @property
    def dim(self) -> int:
        return 2**self.n

    def energies(self, om: np.ndarray) -> np.ndarray:
        """Haar coefficient energy per block of eigs: (..., dim) -> (..., n + 1).

        The transform keeps unnormalized sums: a scale-s coefficient is a
        difference of two half-block sums over 2^(s/2), so each block's
        energy is scaled by mult / 2^n = 2^-s, an exact power of two.
        """
        coef = np.empty(om.shape)
        cur = om
        for j in range(self.n, 0, -1):
            a, b = cur[..., 0::2], cur[..., 1::2]
            np.subtract(a, b, out=coef[..., 2 ** (j - 1) : 2**j])
            cur = a + b
        coef[..., 0] = cur[..., 0]
        starts, scales = self._layout
        return np.add.reduceat(coef * coef, starts, axis=-1) * scales

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """First Haar coefficient of each block of eigs, and its energy scale."""
        return self.mult.cumsum() - self.mult, 0.5**self.n * self.mult

    def synthesize(self, std: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
        """size rows whose Haar coefficients in block j have deviation std[j];
        drawn finest scale first, the smooth part last."""
        details = [std[self.n + 1 - s] * rng.standard_normal((size, 2 ** (self.n - s)))
                   for s in range(1, self.n + 1)]
        smooth = std[0] * rng.standard_normal((size, 1))
        return haar_synthesis(details, smooth)

    def holder(self, epsilon: float, gamma: float) -> HolderCost:
        """The determinant-ratio value (a number <= 1) with its analytic lower
        bound exp(-eps^2 ||V||^2 / (2 gamma (1-gamma))), valid for
        eps/(1-gamma) <= 1/2."""
        if epsilon >= 1.0 - gamma:
            raise InvalidParameter(
                f"invalid tilt: need epsilon < 1 - gamma = {1.0 - gamma:.6g}"
            )
        log_num = coupling_logdet(self, epsilon / (1.0 - gamma))
        log_den = coupling_logdet(self, epsilon)
        value = math.exp((1.0 - gamma) / (2.0 * gamma) * log_num - log_den / (2.0 * gamma))
        bound = math.exp(-(epsilon * self.hs_norm) ** 2 / (2.0 * gamma * (1.0 - gamma)))
        return HolderCost(value=value, bound=bound)


@dataclass(frozen=True)
class BlockCoupling(_Coupling):
    """The k x k in-block profile on the 1-based blocks of M, the identity
    elsewhere; eigs and the columns of vectors diagonalize the profile, and
    each eigenvalue occurs once per block."""

    k: int
    blocks: tuple[int, ...]
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.k * self.blocks[-1]

    def energies(self, om: np.ndarray) -> np.ndarray:
        """Eigen-coefficient energy summed over the blocks of M: (..., dim) -> (..., k)."""
        segs = om.reshape(om.shape[:-1] + (-1, self.k))[..., self._rows, :]
        coeff = segs @ self.vectors
        return (coeff * coeff).sum(axis=-2)

    def synthesize(self, std: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
        """size rows: iid normals, then each block of M redrawn with deviation
        std along the in-block eigenvectors.  Each row reads its dim + k |M|
        normals in turn, and the stacked product treats it alone, so a batch
        equals its rows drawn one call at a time, bit for bit."""
        draw = rng.standard_normal((size, self.dim + self.k * len(self.blocks)))
        out = draw[:, : self.dim].reshape(size, -1, self.k)
        coeff = draw[:, self.dim :].reshape(size, -1, self.k) * std
        out[:, self._rows] = coeff @ self.vectors.T
        return out.reshape(size, self.dim)

    @cached_property
    def _rows(self) -> np.ndarray:
        """0-based index of each block of M among the k-site blocks."""
        return np.array([b - 1 for b in self.blocks])

    def holder(self, epsilon: float, gamma: float) -> HolderCost:
        """The per-block determinant ratio raised to |M|/2, with the crude
        upper bound exp(|M|/2)."""
        t = epsilon / (1.0 - gamma)
        if t * self.lam_max >= 1.0:
            raise InvalidParameter("invalid tilt: the numerator determinant vanishes")
        value = math.exp(0.5 * (coupling_logdet(self, epsilon)
                                - (1.0 - gamma) * coupling_logdet(self, t)))
        return HolderCost(value=value, bound=math.exp(0.5 * len(self.blocks)))


Coupling = HierCoupling | BlockCoupling


def hier_level_weights(n: int, B: float) -> np.ndarray:
    """Entry value per join level a = 1..n."""
    a = np.arange(1, n + 1, dtype=float)
    return B ** -(n + a - 1.0) / math.sqrt(pair_overlap_sum(n, B))


def build_hier_coupling(n: int, B: float = B_CRITICAL) -> HierCoupling:
    """Unit-tilt hierarchical coupling of generation n.

    Off-diagonal entries are B^-(n + a - 1) / sqrt(S) with a the join
    level and S the ordered pair-overlap sum, so the Hilbert-Schmidt norm
    is exactly 1.  The block-of-ones structure of the join-level classes
    gives the eigenvalue sum_a w_a 2^(a-1) on the constant vector and
    sum_(a<s) w_a 2^(a-1) - w_s 2^(s-1) on the wavelets of scale s.
    """
    if n < 1:
        raise InvalidParameter("need n >= 1")
    if n > MAX_HIER_GENERATION:
        raise DimensionMismatch(f"generation {n} exceeds the supported 2^{MAX_HIER_GENERATION}")
    w = hier_level_weights(n, float(B))
    pow2 = 2.0 ** np.arange(n)  # 2^(a-1) for a = 1..n
    prefix = np.concatenate([[0.0], np.cumsum(w * pow2)])
    eigs = np.concatenate([[np.dot(w, pow2)], (prefix[:-1] - w * pow2)[::-1]])
    mult = np.concatenate([[1], 2 ** np.arange(n)])
    return HierCoupling(eigs=eigs, mult=mult, n=n, B=float(B))


def dense_hier_coupling(spec: HierCoupling) -> np.ndarray:
    """Materialize the hierarchical coupling (small generations only)."""
    if spec.n > 13:
        raise DimensionMismatch("dense materialization capped at 2^13")
    idx = np.arange(spec.dim, dtype=np.int64)
    a = np.frexp(np.bitwise_xor.outer(idx, idx).astype(float))[1]
    w = np.concatenate([[0.0], hier_level_weights(spec.n, spec.B)])
    v = w[a]
    np.fill_diagonal(v, 0.0)
    return v


def block_profile(k: int, gamma: float) -> np.ndarray:
    """The k x k in-block coupling: (1-gamma)/sqrt(c k log(k) |i-j|), zero diagonal."""
    if k < 2:
        raise InvalidParameter("degenerate block: need k >= 2")
    if not 0.0 < gamma < 1.0:
        raise InvalidParameter("moment order must lie in (0, 1)")
    d = np.abs(np.subtract.outer(np.arange(k), np.arange(k))).astype(float)
    np.fill_diagonal(d, 1.0)
    h = (1.0 - gamma) / np.sqrt(_BLOCK_DENOM * k * math.log(k) * d)
    np.fill_diagonal(h, 0.0)
    return h


def build_block_coupling(k: int, gamma: float, M) -> BlockCoupling:
    """Block-diagonal coupling: the in-block profile on blocks listed in M,
    identity (zero coupling) elsewhere."""
    blocks = tuple(sorted(set(int(b) for b in M)))
    if not blocks:
        raise InvalidParameter("M must be nonempty")
    if blocks[0] < 1:
        raise InvalidParameter("block indices are 1-based")
    eigs, vectors = np.linalg.eigh(block_profile(k, gamma))
    return BlockCoupling(eigs=eigs, mult=np.full(k, len(blocks)), k=k, blocks=blocks,
                         vectors=vectors)


def factorize(spec: Coupling) -> Coupling:
    """Check that I - coupling is positive definite and return the spec.

    The builders already attach the spectrum; this is the unit-tilt check.
    """
    if spec.lam_max >= 1.0:
        raise NotPositiveDefinite(
            f"tilt 1.0 at or beyond the spectral threshold {1.0 / spec.lam_max:.6g}"
        )
    return spec


def haar_synthesis(details: list[np.ndarray], smooth: np.ndarray) -> np.ndarray:
    """Inverse orthonormal Haar transform: details per scale 1..n, plus the smooth part."""
    cur = smooth
    for rough in reversed(details):
        out = np.empty(cur.shape[:-1] + (2 * cur.shape[-1],))
        out[..., 0::2] = (cur + rough) / SQRT2
        out[..., 1::2] = (cur - rough) / SQRT2
        cur = out
    return cur


def sample_tilted_batch(spec: Coupling, epsilon: float,
                        rng: np.random.Generator, size: int) -> np.ndarray:
    """size x dim Gaussian rows with covariance I - epsilon * coupling."""
    _check_finite(epsilon)
    if epsilon < 0.0:
        raise InvalidParameter("tilt must be nonnegative")
    lam_max = spec.lam_max
    if lam_max > 0.0 and epsilon >= PD_SAFETY / lam_max:
        raise NotPositiveDefinite(
            f"tilt {epsilon} outside the validity window (< {PD_SAFETY / lam_max:.6g})"
        )
    return spec.synthesize(np.sqrt(1.0 - epsilon * spec.eigs), rng, size)


def _check_finite(t: float) -> None:
    if not math.isfinite(t):
        raise InvalidParameter(f"tilt must be finite, got {t}")


def _tilt_constants(spec: Coupling, t: float) -> tuple[np.ndarray, float]:
    """The density weights 1/(1 - t * eigs) - 1 and log det(I - t * coupling),
    built from the checked spectrum 1 - t * eigs and memoized on spec.

    A non-finite t raises InvalidParameter and a singular I - t * coupling
    NotPositiveDefinite; neither is memoized, so each call raises again.
    """
    memo = spec._tilts
    const = memo.get(t)
    if const is None:
        _check_finite(t)
        vals = 1.0 - t * spec.eigs
        if vals.min() <= 0.0:
            raise NotPositiveDefinite(f"I - {t} * coupling is singular")
        const = memo[t] = 1.0 / vals - 1.0, float(np.dot(spec.mult, np.log(vals)))
    return const


def coupling_logdet(spec: Coupling, t: float) -> float:
    """log det(I - t * coupling) = sum of mult * log(1 - t * eigs), built
    once per (spec, t); raises as `_tilt_constants` does."""
    return _tilt_constants(spec, t)[1]


@dataclass(frozen=True)
class HolderCost:
    value: float
    bound: float


def holder_cost(spec: Coupling, epsilon: float, gamma: float) -> HolderCost:
    """Exact change-of-measure cost of the fractional-moment step, paired
    with the paper's bound for the coupling (see each class's `holder`)."""
    if not 0.0 < gamma < 1.0:
        raise InvalidParameter("moment order must lie in (0, 1)")
    return spec.holder(epsilon, gamma)


def density_ratio(omega: np.ndarray, spec: Coupling, epsilon: float) -> np.ndarray | float:
    """log density of the tilted law against the standard Gaussian, per row.

    omega has shape (..., dim) and the result shape (...):
    -1/2 sum_j (1/(1 - eps lambda_j) - 1) E_j - 1/2 log det(I - eps V),
    with E_j the coefficient energy of the row on the eigenspace of lambda_j.
    The shape is checked on every call; the weights and the log det are
    built once per (spec, epsilon) and raise as `_tilt_constants` does.
    """
    om = np.asarray(omega, dtype=float)
    if om.shape[-1:] != (spec.dim,):
        raise DimensionMismatch(f"omega must have shape (..., {spec.dim})")
    weights, logdet = _tilt_constants(spec, epsilon)
    return -0.5 * (spec.energies(om) * weights).sum(axis=-1) - 0.5 * logdet

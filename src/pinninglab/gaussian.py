"""Tilted Gaussian disorder laws and their sampling factorizations.

Two coupling families are supported.  The hierarchical coupling puts the
normalized two-point function of the branching process off the diagonal;
it is constant on join-level classes, hence diagonal in the Haar wavelet
basis of the dyadic index tree, which gives O(dim) sampling.  The block
coupling is block-diagonal with a fixed inverse-square-root profile
inside each selected block and the identity elsewhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DimensionMismatch, InvalidParameter, NotFactorized,
                     NotPositiveDefinite)
from .hierarchy import B_CRITICAL, pair_overlap_sum

SQRT2 = math.sqrt(2.0)
MAX_HIER_GENERATION = 26
PD_SAFETY = 0.999


@dataclass(frozen=True)
class Factorization:
    """Eigen data enabling sampling and log-determinants."""

    scale_eigs: np.ndarray | None = None       # hierarchical: eigenvalue per Haar scale 0..n
    multiplicities: np.ndarray | None = None   # hierarchical: 1, 2^(n-1), ..., 1 pattern
    block_eigs: np.ndarray | None = None       # block: spectrum of the in-block coupling
    block_vectors: np.ndarray | None = None
    lam_max: float = 0.0
    lam_min: float = 0.0

    @property
    def spectral_radius(self) -> float:
        return max(abs(self.lam_max), abs(self.lam_min))


@dataclass(frozen=True)
class CovarianceSpec:
    """A tilted-disorder coupling: covariance is I - epsilon * coupling."""

    kind: str                   # "hierarchical" | "block"
    dim: int
    epsilon: float = 1.0        # tilt carried by the spec; ops may override
    n: int = 0
    B: float = 0.0
    norm: float = 1.0           # normalization divisor of the hierarchical entries
    k: int = 0
    gamma: float = 0.0
    blocks: tuple[int, ...] = ()
    denom_constant: float = 9.0
    hs_norm: float = 0.0        # Hilbert-Schmidt norm (per block for the block kind)
    factor: Factorization | None = None


def build_hier_coupling(n: int, B: float = B_CRITICAL) -> CovarianceSpec:
    """Unit-tilt hierarchical coupling of generation n.

    Off-diagonal entries are B^-(n + a - 1) / sqrt(S) with a the join
    level and S the ordered pair-overlap sum, so the Hilbert-Schmidt norm
    is exactly 1.
    """
    if n < 1:
        raise InvalidParameter("need n >= 1")
    if n > MAX_HIER_GENERATION:
        raise DimensionMismatch(f"generation {n} exceeds the supported 2^{MAX_HIER_GENERATION}")
    return CovarianceSpec(
        kind="hierarchical", dim=2**n, n=n, B=float(B),
        norm=math.sqrt(pair_overlap_sum(n, B)), hs_norm=1.0,
    )


def hier_level_weights(spec: CovarianceSpec) -> np.ndarray:
    """Entry value per join level a = 1..n."""
    a = np.arange(1, spec.n + 1, dtype=float)
    return spec.B ** -(spec.n + a - 1.0) / spec.norm


def hier_scale_eigenvalues(spec: CovarianceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Coupling eigenvalues on the Haar basis, by scale, with multiplicities.

    Scale 0 is the constant vector; a scale-s wavelet lives on a dyadic
    block of size 2^s.  The block-of-ones structure of the join-level
    classes gives lambda_0 = sum_a w_a 2^(a-1) and, for s >= 1,
    lambda_s = sum_(a<s) w_a 2^(a-1) - w_s 2^(s-1).
    """
    w = hier_level_weights(spec)
    n = spec.n
    eigs = np.empty(n + 1)
    pow2 = 2.0 ** np.arange(n)  # 2^(a-1) for a = 1..n
    eigs[0] = float(np.dot(w, pow2))
    prefix = np.concatenate([[0.0], np.cumsum(w * pow2)])
    for s in range(1, n + 1):
        eigs[s] = prefix[s - 1] - w[s - 1] * pow2[s - 1]
    mult = np.empty(n + 1, dtype=np.int64)
    mult[0] = 1
    mult[1:] = 2 ** (n - np.arange(1, n + 1))
    return eigs, mult


def dense_hier_coupling(spec: CovarianceSpec) -> np.ndarray:
    """Materialize the hierarchical coupling (small generations only)."""
    if spec.n > 13:
        raise DimensionMismatch("dense materialization capped at 2^13")
    idx = np.arange(spec.dim, dtype=np.int64)
    a = np.frexp(np.bitwise_xor.outer(idx, idx).astype(float))[1]
    w = np.concatenate([[0.0], hier_level_weights(spec)])
    v = w[a]
    np.fill_diagonal(v, 0.0)
    return v


def block_profile(k: int, gamma: float, denom_constant: float = 9.0) -> np.ndarray:
    """The k x k in-block coupling: (1-gamma)/sqrt(c k log(k) |i-j|), zero diagonal."""
    if k < 2:
        raise InvalidParameter("degenerate block: need k >= 2")
    if not 0.0 < gamma < 1.0:
        raise InvalidParameter("moment order must lie in (0, 1)")
    d = np.abs(np.subtract.outer(np.arange(k), np.arange(k))).astype(float)
    np.fill_diagonal(d, 1.0)
    h = (1.0 - gamma) / np.sqrt(denom_constant * k * math.log(k) * d)
    np.fill_diagonal(h, 0.0)
    return h


def block_hs_norm(k: int, gamma: float, denom_constant: float = 9.0) -> float:
    """Hilbert-Schmidt norm of the in-block coupling, in O(k) time."""
    if k < 2:
        raise InvalidParameter("degenerate block: need k >= 2")
    d = np.arange(1, k, dtype=float)
    s = 2.0 * np.sum((k - d) / d)
    return float((1.0 - gamma) * math.sqrt(s / (denom_constant * k * math.log(k))))


def smallest_block_size(gamma: float, denom_constant: float = 9.0,
                        k_max: int = 100_000) -> int:
    """Smallest k with in-block HS norm <= (1-gamma)/2."""
    for k in range(2, k_max + 1):
        if block_hs_norm(k, gamma, denom_constant) <= (1.0 - gamma) / 2.0:
            return k
    raise InvalidParameter("no block size below the norm target in range")


def build_block_coupling(k: int, gamma: float, M, denom_constant: float = 9.0) -> CovarianceSpec:
    """Block-diagonal coupling: the in-block profile on blocks listed in M,
    identity (zero coupling) elsewhere."""
    blocks = tuple(sorted(set(int(b) for b in M)))
    if not blocks:
        raise InvalidParameter("M must be nonempty")
    if blocks[0] < 1:
        raise InvalidParameter("block indices are 1-based")
    dim = k * blocks[-1]
    return CovarianceSpec(
        kind="block", dim=dim, k=k, gamma=float(gamma), blocks=blocks,
        denom_constant=float(denom_constant),
        hs_norm=block_hs_norm(k, gamma, denom_constant),
    )


def factorize(spec: CovarianceSpec) -> CovarianceSpec:
    """Attach a sampling factorization; fails if I - epsilon*coupling is not PD."""
    if spec.kind == "hierarchical":
        eigs, mult = hier_scale_eigenvalues(spec)
        fac = Factorization(scale_eigs=eigs, multiplicities=mult,
                            lam_max=float(eigs.max()), lam_min=float(eigs.min()))
    elif spec.kind == "block":
        h = block_profile(spec.k, spec.gamma, spec.denom_constant)
        lam, vec = np.linalg.eigh(h)
        fac = Factorization(block_eigs=lam, block_vectors=vec,
                            lam_max=float(lam.max()), lam_min=float(lam.min()))
    else:
        raise InvalidParameter(f"unknown coupling kind {spec.kind!r}")
    if spec.epsilon * fac.lam_max >= 1.0:
        raise NotPositiveDefinite(
            f"tilt {spec.epsilon} at or beyond the spectral threshold "
            f"{1.0 / fac.lam_max:.6g}"
        )
    return replace(spec, factor=fac)


def _require_factor(spec: CovarianceSpec) -> Factorization:
    if spec.factor is None:
        raise NotFactorized("factorize the spec before sampling")
    return spec.factor


def _check_epsilon(spec: CovarianceSpec, epsilon: float) -> None:
    fac = _require_factor(spec)
    if epsilon < 0.0:
        raise InvalidParameter("tilt must be nonnegative")
    if fac.lam_max > 0.0 and epsilon >= PD_SAFETY / fac.lam_max:
        raise NotPositiveDefinite(
            f"tilt {epsilon} outside the validity window (< {PD_SAFETY / fac.lam_max:.6g})"
        )


def haar_analysis(x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Orthonormal Haar coefficients: details per scale 1..n, plus the smooth part."""
    details = []
    cur = np.asarray(x, dtype=float)
    while cur.shape[-1] > 1:
        rough = (cur[..., 0::2] - cur[..., 1::2]) / SQRT2
        cur = (cur[..., 0::2] + cur[..., 1::2]) / SQRT2
        details.append(rough)
    return details, cur


def haar_synthesis(details: list[np.ndarray], smooth: np.ndarray) -> np.ndarray:
    cur = smooth
    for rough in reversed(details):
        out = np.empty(cur.shape[:-1] + (2 * cur.shape[-1],))
        out[..., 0::2] = (cur + rough) / SQRT2
        out[..., 1::2] = (cur - rough) / SQRT2
        cur = out
    return cur


def sample_tilted_batch(spec: CovarianceSpec, epsilon: float,
                        rng: np.random.Generator, size: int) -> np.ndarray:
    """size x dim Gaussian rows with covariance I - epsilon * coupling."""
    _check_epsilon(spec, epsilon)
    fac = spec.factor
    if spec.kind == "hierarchical":
        eigs = fac.scale_eigs
        n = spec.n
        details = []
        for s in range(1, n + 1):
            std = math.sqrt(1.0 - epsilon * eigs[s])
            details.append(std * rng.standard_normal((size, 2 ** (n - s))))
        smooth = math.sqrt(1.0 - epsilon * eigs[0]) * rng.standard_normal((size, 1))
        return haar_synthesis(details, smooth)
    out = rng.standard_normal((size, spec.dim))
    std = np.sqrt(1.0 - epsilon * fac.block_eigs)
    for b in spec.blocks:
        sl = slice((b - 1) * spec.k, b * spec.k)
        coeff = rng.standard_normal((size, spec.k)) * std
        out[:, sl] = coeff @ fac.block_vectors.T
    return out


def coupling_logdet(spec: CovarianceSpec, t: float) -> float:
    """log det(I - t * coupling); block kind counts every block in M."""
    fac = _require_factor(spec)
    if spec.kind == "hierarchical":
        vals = 1.0 - t * fac.scale_eigs
        if np.any(vals <= 0.0):
            raise NotPositiveDefinite(f"I - {t} * coupling is singular")
        return float(np.dot(fac.multiplicities, np.log(vals)))
    vals = 1.0 - t * fac.block_eigs
    if np.any(vals <= 0.0):
        raise NotPositiveDefinite(f"I - {t} * coupling is singular")
    return len(spec.blocks) * float(np.sum(np.log(vals)))


@dataclass(frozen=True)
class HolderCost:
    value: float
    bound: float
    bound_side: str   # "lower" for the hierarchical form, "upper" for blocks


def holder_cost(spec: CovarianceSpec, epsilon: float, gamma: float) -> HolderCost:
    """Exact change-of-measure cost of the fractional-moment step.

    Hierarchical: the determinant-ratio value (a number <= 1) paired with
    its analytic lower bound exp(-eps^2 ||V||^2 / (2 gamma (1-gamma))),
    valid for eps/(1-gamma) <= 1/2.  Block: the per-block determinant
    ratio raised to |M|/2, paired with the crude upper bound exp(|M|/2).
    """
    if not 0.0 < gamma < 1.0:
        raise InvalidParameter("moment order must lie in (0, 1)")
    fac = _require_factor(spec)
    t = epsilon / (1.0 - gamma)
    if spec.kind == "hierarchical":
        if epsilon >= 1.0 - gamma:
            raise InvalidParameter(
                f"invalid tilt: need epsilon < 1 - gamma = {1.0 - gamma:.6g}"
            )
        log_num = coupling_logdet(spec, t)
        log_den = coupling_logdet(spec, epsilon)
        value = math.exp((1.0 - gamma) / (2.0 * gamma) * log_num
                         - log_den / (2.0 * gamma))
        bound = math.exp(-(epsilon * spec.hs_norm) ** 2 / (2.0 * gamma * (1.0 - gamma)))
        return HolderCost(value=value, bound=bound, bound_side="lower")
    if t * fac.lam_max >= 1.0:
        raise InvalidParameter("invalid tilt: the numerator determinant vanishes")
    per_block = (float(np.sum(np.log(1.0 - epsilon * fac.block_eigs)))
                 - (1.0 - gamma) * float(np.sum(np.log(1.0 - t * fac.block_eigs))))
    m = len(spec.blocks)
    value = math.exp(0.5 * m * per_block)
    return HolderCost(value=value, bound=math.exp(0.5 * m), bound_side="upper")


def density_ratio(omega: np.ndarray, spec: CovarianceSpec, epsilon: float) -> float:
    """log density of the tilted law against the standard Gaussian at omega."""
    om = np.asarray(omega, dtype=float)
    if om.shape != (spec.dim,):
        raise DimensionMismatch(f"omega must have shape ({spec.dim},)")
    fac = _require_factor(spec)
    if spec.kind == "hierarchical":
        details, smooth = haar_analysis(om)
        eigs = fac.scale_eigs
        quad = (1.0 / (1.0 - epsilon * eigs[0]) - 1.0) * float(smooth[0] ** 2)
        for s, rough in enumerate(details, start=1):
            quad += (1.0 / (1.0 - epsilon * eigs[s]) - 1.0) * float(np.dot(rough, rough))
    else:
        quad = 0.0
        for b in spec.blocks:
            seg = om[(b - 1) * spec.k : b * spec.k]
            coeff = fac.block_vectors.T @ seg
            quad += float(np.dot((1.0 / (1.0 - epsilon * fac.block_eigs) - 1.0) * coeff,
                                 coeff))
    return -0.5 * quad - 0.5 * coupling_logdet(spec, epsilon)

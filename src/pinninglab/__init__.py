"""Numerical laboratory for disordered pinning models.

Renewal kernels with polynomial tails, the hierarchical branching
recursion and its exact tree identities, correlated-Gaussian disorder
tilts, Monte Carlo estimators with exact small-instance oracles, and a
batch experiment CLI.
"""
from .records import VERSION as __version__

from .errors import (ConfigError, DimensionMismatch, HorizonExceeded,
                     InvalidParameter, NotPositiveDefinite,
                     PinningLabError, ResourceGuard)
from .hierarchy import B_CRITICAL, HierParams, TreeIndexSet
from .renewal import (GreenTable, RenewalLaw, RenewalPaths, green_function,
                      homogeneous_free_energy, make_power_law, sample_path)
from .gaussian import BlockCoupling, HierCoupling, build_block_coupling, \
    build_hier_coupling, factorize, holder_cost
from .hiermc import Certificate, PoolEstimate, certify_delocalization, \
    pool_free_energy, tilted_mean
from .quenched import QuenchedConfig, quenched_free_energies

__all__ = [
    "__version__", "B_CRITICAL",
    "PinningLabError", "InvalidParameter", "HorizonExceeded", "DimensionMismatch",
    "NotPositiveDefinite", "ResourceGuard", "ConfigError",
    "RenewalLaw", "GreenTable", "RenewalPaths", "make_power_law",
    "green_function", "sample_path", "homogeneous_free_energy",
    "HierParams", "TreeIndexSet",
    "HierCoupling", "BlockCoupling", "build_hier_coupling", "build_block_coupling",
    "factorize", "holder_cost",
    "PoolEstimate", "Certificate", "pool_free_energy", "tilted_mean",
    "certify_delocalization",
    "QuenchedConfig", "quenched_free_energies",
]

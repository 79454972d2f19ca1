"""Lognormal MGF by four cross-validating numerical methods."""

from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    LogMgfError,
    NegativeRadicand,
    NonFiniteIntegrand,
    PathOverflow,
)
from .gaussian import (
    GaussianParams,
    RngSeed,
    cdf_std,
    inverse_cdf_std,
    lognormal_mean,
    lognormal_variance,
    pdf,
)
from .lambertw import LambertResult, lambert_w0, mgf_asmussen
from .montecarlo import McConfig, mgf_monte_carlo
from .tables import TABLES, TableSpec
from .thintile import (
    Expectation,
    TileGrid,
    TileGridConfig,
    build_grid,
    expectation,
    expectation_on_grid,
    mgf_thintile,
)
from .types import Method, MgfEstimate, MgfQuery
from .zeroentropy import (
    IntegrationInfo,
    OdeState,
    PathEnsemble,
    ZeroEntropyConfig,
    drift_m,
    drift_v,
    ensemble_moments,
    integrate,
    integrate_with_info,
    iter_states,
    mgf_zero_entropy,
    simulate_paths,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DivergenceError",
    "DomainError",
    "Expectation",
    "GaussianParams",
    "IntegrationInfo",
    "LambertResult",
    "LogMgfError",
    "McConfig",
    "Method",
    "MgfEstimate",
    "MgfQuery",
    "NegativeRadicand",
    "NonFiniteIntegrand",
    "OdeState",
    "PathEnsemble",
    "PathOverflow",
    "RngSeed",
    "TABLES",
    "TableSpec",
    "TileGrid",
    "TileGridConfig",
    "ZeroEntropyConfig",
    "build_grid",
    "cdf_std",
    "drift_m",
    "drift_v",
    "ensemble_moments",
    "expectation",
    "expectation_on_grid",
    "integrate",
    "integrate_with_info",
    "inverse_cdf_std",
    "iter_states",
    "lambert_w0",
    "lognormal_mean",
    "lognormal_variance",
    "mgf_asmussen",
    "mgf_monte_carlo",
    "mgf_thintile",
    "mgf_zero_entropy",
    "pdf",
    "simulate_paths",
]

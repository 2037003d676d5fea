"""Deterministic state-space toolkit for automated market makers.

Closed-form mechanics for weighted-product, amplified-stableswap, and
oracle-anchored pools plus reserve-backed bonding curves; a generic numeric
engine that re-derives every quantity from the conservation law alone; and
analysis sweeps (slippage, divergence loss, conservation cross-sections)
with a scenario-driven CLI.
"""
__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .analysis import (
    CurveSeries,
    SeriesKind,
    conservation_cross_section,
    default_cross_section_grid,
    default_shift_grid,
    default_trade_grid,
    divergence_curve,
    divergence_loss,
    hyperparameter_string,
    linear_grid,
    log_grid,
    slippage_curve,
)
from .bonding import (
    BondingCurveState,
    bonding_buy,
    bonding_curve,
    bonding_price,
    bonding_reserve_at,
    bonding_sell,
)
from .core import (
    RULE_TOLERANCE,
    PoolState,
    ProtocolFamily,
    ProtocolSpec,
    RuleCheck,
    SwapOutcome,
    TransitionKind,
    TransitionReceipt,
    add_liquidity_proportional,
    apply_swap,
    balancer_pool,
    bancor_pool,
    implicit_conservation,
    pmm_pool,
    slippage,
    spot_rate,
    stableswap_pool,
    sushiswap_pool,
    swap_amount,
    uniswap_pool,
    weighted_pool,
)
from .errors import (
    AmmError,
    AssetIndexError,
    ConservationViolation,
    ConvergenceFailure,
    DegenerateGradient,
    DomainError,
    IdenticalAssets,
    InfeasibleTrade,
    InvalidBracket,
    NonPositiveState,
    NoSolution,
    NotApplicable,
    ReserveDepletion,
    SingularAmplification,
    SupplyDepletion,
)
from .numerics import (
    DEFAULT_CONFIG,
    ImplicitConservation,
    RootBracket,
    SolverConfig,
    ValuationReport,
    find_root,
    generic_divergence_loss,
    implicit_swap,
    numeric_spot_rate,
    solve_rebalance,
)

# every name imported above but the submodules, which importing binds too
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not (name.startswith("_") or isinstance(value, _ModuleType))
]

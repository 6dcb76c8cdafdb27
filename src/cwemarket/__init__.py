"""Bundled-market stability: solvers, revenue extraction, exact oracles.

The package computes seller-chosen bundlings of indivisible items with
per-bundle prices under which every buyer receives a utility-maximizing
set of bundles.  Two ascending-auction solvers guarantee at least half
the welfare of any seed allocation; a uniform price-shift ladder turns
the result into revenue within a logarithmic factor of that welfare.
Exhaustive desk-scale oracles (optimal allocation, configuration LP,
supporting-price LPs, full stable-outcome enumeration) back every
guarantee with an independent check.
"""

from .errors import (
    InputError,
    MarketError,
    ResourceLimitError,
    SolverDeadlockError,
    SolverInvariantError,
)
from .instances import (
    gap3,
    generate,
    instance_names,
    item_pricing_um_sm,
    item_pricing_xos,
    logn_revenue,
    random_explicit,
)
from .market import (
    Agent,
    Auction,
    Catalog,
    CweViolation,
    Outcome,
    demand,
    demand_correspondence,
    find_violation,
    induced_value,
    initial_market,
    is_cwe,
    merge_bundles,
    revenue_of,
    social_welfare,
    utility,
    validate_initial_allocation,
)
from .revenue import LadderLevel, RevenueResult, maximize_revenue
from .scalars import format_scalar, parse_scalar
from .poly import PolySolver, run_poly
from .simple import SimpleSolver, run_simple
from .trace import Trace, replay
from .valuations import (
    AdditiveValuation,
    ExplicitValuation,
    SingleMindedValuation,
    UnitDemandValuation,
    Valuation,
    XosValuation,
)
from .verifier import (
    brute_force_optimal,
    config_lp_fractional_opt,
    max_cwe_revenue,
    max_cwe_welfare,
    revenue_maximizing_prices,
    singleton_catalog,
    stable_singleton_outcomes,
    supporting_prices,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveValuation",
    "Agent",
    "Auction",
    "Catalog",
    "CweViolation",
    "ExplicitValuation",
    "InputError",
    "LadderLevel",
    "MarketError",
    "Outcome",
    "PolySolver",
    "ResourceLimitError",
    "RevenueResult",
    "SimpleSolver",
    "SingleMindedValuation",
    "SolverDeadlockError",
    "SolverInvariantError",
    "Trace",
    "UnitDemandValuation",
    "Valuation",
    "XosValuation",
    "brute_force_optimal",
    "config_lp_fractional_opt",
    "demand",
    "demand_correspondence",
    "find_violation",
    "format_scalar",
    "gap3",
    "generate",
    "induced_value",
    "initial_market",
    "instance_names",
    "is_cwe",
    "item_pricing_um_sm",
    "item_pricing_xos",
    "logn_revenue",
    "max_cwe_revenue",
    "max_cwe_welfare",
    "maximize_revenue",
    "merge_bundles",
    "parse_scalar",
    "random_explicit",
    "replay",
    "revenue_maximizing_prices",
    "revenue_of",
    "run_poly",
    "run_simple",
    "singleton_catalog",
    "social_welfare",
    "stable_singleton_outcomes",
    "supporting_prices",
    "utility",
    "validate_initial_allocation",
]

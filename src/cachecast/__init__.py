"""Source-rate bounds and delivery allocations for cache-aided broadcast.

Scenario: K users behind a B-level broadcast channel, each holding a cache
of mu files' worth of prefetched data.  The package computes what per-file
source rate the transmitter can sustain (exact for two users and for
dominance-chain channels, an LP lower bound in general), the matching
information-theoretic ceiling, and Monte-Carlo validation of concrete
delivery allocations.
"""

from .caching import (
    CachingStrategy,
    CachingTuple,
    caching_tuple,
    central_coverage,
    central_strategy,
    central_tuple,
    coverage_measure,
    strategy_from_intervals,
)
from .channel import (
    ChannelStats,
    is_stochastically_dominant,
    sample_states,
    validate_stats,
)
from .degraded import (
    ZAllocation,
    chain_stats,
    degraded_optimal_rate,
    degraded_order,
    z_to_y,
)
from .lp import (
    LpSolution,
    solve_lp,
    solve_lps,
)
from .lp_scheme import (
    DeliveryAllocation,
    FeasibilityReport,
    achievable_rate_lp,
    build_delivery_lp,
    check_allocation,
    message_subsets,
)
from .simulator import (
    SimulationReport,
    empirical_ccdf,
    simulate_delivery,
)
from .errors import (
    BadT,
    CachecastError,
    EmptySubset,
    InfeasibleAllocation,
    InfeasibleZ,
    LengthMismatch,
    MuOutOfRange,
    NonIntegerT,
    NotDegraded,
    NotMonotone,
    NotTwoUser,
    NumericalFailure,
    OutOfRange,
    SolverError,
    TooManyUsers,
    UnexpectedLpStatus,
    ValidationError,
    WrongType,
    ZeroDenominator,
)
from .two_user import (
    TwoUserAllocation,
    achievable_allocation_two_user,
    optimal_rate_two_user,
)
from .upper_bound import (
    UpperBoundReport,
    build_permutation_lp,
    objective_at,
    upper_bound_rate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

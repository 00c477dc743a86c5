"""Careful synchronization of partial finite automata.

Exact reset thresholds for an extremal binary family and for prime-number
constructions, the pawn race underneath them, and the machinery to turn
optimal races into shortest synchronizing words.
"""

from .pfa import (
    FormatError,
    Pfa,
    StateSet,
    Word,
    apply_word,
    format_word,
    from_json,
    is_sync_word,
    parse_word,
    to_dot,
    to_json,
)
from .solver import (
    LimitExceeded,
    NotSynchronizing,
    SolveLimits,
    SolveResult,
    count_shortest,
    solve,
)
from .pawnrace import (
    RacePlan,
    RaceTrace,
    SequenceCache,
    TooManyPlans,
    build_sync_word,
    cache_info,
    count_races,
    enumerate_plans,
    f_closed,
    greedy_plan,
    plan_at,
    render_race,
    sequences,
    simulate_race,
    twinverse,
)
from .cerny import (
    DropEvent,
    build_cerny,
    build_cerny_star,
    local_optima,
    optimal_c,
    rt_formula,
    scan_drops,
    scan_optimal,
)
from .primes import (
    PrimeList,
    best_prime_list,
    build_prime_pfa,
    martyugin_stats,
    prime_rt_formula,
    transitive_lower_bound,
)
from .estimates import PhiRoot, f_bounds, f_leading_estimate, phi

__version__ = "0.1.0"

__all__ = [
    "FormatError", "Pfa", "StateSet", "Word",
    "apply_word", "format_word", "from_json", "is_sync_word", "parse_word",
    "to_dot", "to_json",
    "LimitExceeded", "NotSynchronizing", "SolveLimits", "SolveResult",
    "count_shortest", "solve",
    "RacePlan", "RaceTrace", "SequenceCache", "TooManyPlans",
    "build_sync_word", "cache_info", "count_races", "enumerate_plans", "f_closed",
    "greedy_plan", "plan_at", "render_race",
    "sequences", "simulate_race", "twinverse",
    "DropEvent", "build_cerny", "build_cerny_star",
    "local_optima", "optimal_c", "rt_formula",
    "scan_drops", "scan_optimal",
    "PrimeList", "best_prime_list", "build_prime_pfa", "martyugin_stats",
    "prime_rt_formula", "transitive_lower_bound",
    "PhiRoot", "f_bounds", "f_leading_estimate", "phi",
    "__version__",
]

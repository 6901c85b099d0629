"""Greedy approximation algorithms for project crashing and k-fold
longest-increasing-subsequence extraction, with exact oracles,
instance generators, and a ratio-experiment harness."""

from .crashing import (
    DecompositionTrace,
    GreedyCrashResult,
    cost_ratio_bound,
    decompose,
    greedy_crash,
    verify_trace,
)
from .generators import (
    RandomNetSpec,
    counterexample_network,
    matrix_sequence,
    random_network,
    random_sequence,
    with_convex_schedules,
)
from .klis import (
    SubseqSelection,
    greedy_klis,
    greedy_klis_scripted,
    lis,
    total_ratio_bound,
)
from .network import (
    Edge,
    Plan,
    ProjectNetwork,
    duration,
    is_k_crashing,
    k_max,
    linear_schedule,
)
from .oracle import exact_crash_cost, exact_klis, exact_klis_total

__all__ = [
    "DecompositionTrace",
    "Edge",
    "GreedyCrashResult",
    "Plan",
    "ProjectNetwork",
    "RandomNetSpec",
    "SubseqSelection",
    "cost_ratio_bound",
    "counterexample_network",
    "decompose",
    "duration",
    "exact_crash_cost",
    "exact_klis",
    "exact_klis_total",
    "greedy_crash",
    "greedy_klis",
    "greedy_klis_scripted",
    "is_k_crashing",
    "k_max",
    "linear_schedule",
    "lis",
    "matrix_sequence",
    "random_network",
    "random_sequence",
    "total_ratio_bound",
    "verify_trace",
    "with_convex_schedules",
]

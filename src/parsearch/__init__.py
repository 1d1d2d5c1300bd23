"""Exact simulation and query-complexity analysis of multi-item quantum
search across parallel database copies."""

from .core import (
    Database,
    MarkedPredicate,
    PlantedDatabase,
    QueryLedger,
    grover_iterate,
    init_uniform,
    measure,
    sample_after,
    success_probability,
)
from .algorithms import (
    RegimeParams,
    Repetition,
    SearchOutcome,
    TargetSet,
    bbht_search_unknown,
    choose_regime,
    grover_search_known,
    maxload_exceedance,
    multi_item_search,
    parallel_search,
    random_partition,
    theorem_envelope,
    union_bound,
)
from .adversary import (
    AdversaryGraph,
    AdversaryStats,
    InfeasibleInstanceError,
    InstanceFamily,
    ambainis_bound,
    build_adversary_graph,
    closed_form_bound,
    compute_stats,
)
from .experiments import (
    ExperimentConfig,
    build_database,
    run_adversary_check,
    run_bound_table,
    run_maxload_check,
    run_search_experiment,
)

__version__ = "0.1.0"

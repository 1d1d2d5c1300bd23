"""Experiment drivers: seeded search sweeps, exact max-load checks,
bound comparison tables, and brute-force adversary verification.

Every driver returns a plain dict ready for JSON serialization; all
randomness flows from the given seed, one derived stream per search trial,
so records are byte-stable across runs.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from . import adversary
from .algorithms import (
    RegimeParams,
    TargetSet,
    choose_regime,
    maxload_exceedance,
    parallel_search,
    theorem_envelope,
    union_bound,
)
from .core import (
    STREAM_TRIAL,
    PlantedDatabase,
    derive_stream,
)

SPEC_VERSION = "5.1"

#: largest n a search runs at: its addresses are int64, and numpy's
#: ``choice`` without replacement draws them from [0, N) for N up to 2**62.
MAX_SEARCH_BITS = 62

#: largest --t a search takes: the cap bounds a copy's steps, and no
#: array of its size is made.
MAX_COUNT = 1 << 24

#: largest d and trials a search takes.  A run's memory grows with them,
#: not with N, and each limit bounds one value: a trial's O(d) arrays are
#: freed when it ends, and its record keeps a fixed set of counts, about
#: 0.5 KB per trial; its JSON text is streamed, not held.  Peak RSS here and
#: under ``MAX_TARGETS`` is ``ru_maxrss`` / 1024, in MiB, of a fresh Python
#: process that runs ``cli.main`` once with ``--seed 3 --out /dev/null``,
#: one run each, on a 2-core host (Python 3.11.7, numpy 2.4.6):
#:
#: - ``search --n 40 --d 1048576 --k 64``: 186 MiB over 1 trial, 193 MiB
#:   over 4 and over 8;
#: - ``search --n 24 --d 4096 --k 2 --trials 1024``: 40 MiB (three runs);
#: - ``search --n 24 --k 2 --trials 65536``: 70 MiB at d = 1 and at
#:   d = 64, against 37 MiB over 1 trial.
MAX_COPIES = 1 << 20
MAX_TRIALS = 1 << 16

#: largest k a search takes.  A trial holds its k target addresses, never
#: O(N) numbers, but several structures per target: the database's address
#: arrays, the target set and the found items' maps.  That memory is freed
#: when the trial ends.  Peak RSS, measured as under ``MAX_COPIES``:
#:
#: - ``search --n 40 --d 1048576 --k 131072`` (d and k at their limits):
#:   245 MiB over 1 trial, 303 MiB over 4, 303 MiB over 8;
#: - ``search --n 40 --d 64 --k 131072``: 104 MiB over 1 trial, 145 MiB
#:   over 4, 150 MiB over 256;
#: - past the limit, with it lifted in the process, ``--d 1048576
#:   --k 262144`` over 1 trial: 299 MiB.
#:
#: The corner of all three limits, 2**16 trials at d = 2**20 and k = 2**17,
#: was not run: at about 15 s per trial it would take eleven days.  Its
#: trials peak near 0.3 GiB, and its record adds what the 2**16 trials above
#: add, about 33 MiB, so it would peak near 0.33 GiB.
MAX_TARGETS = 1 << 17

#: largest k the max-load check takes: its exact law costs O(k**2 log d).
#: The slowest case measured at the limit, (n, d, t) = (62, 2**16 - 1, 3),
#: took 3.2 s on a 2-core host.
MAX_MAXLOAD_K = 1 << 14


def address_count(n: int, limit: int, what: str) -> int:
    """N = 2**n addresses for *n* address bits.

    Refuses a negative n as a usage error and n above *limit*, the largest
    n that *what* handles, as infeasible, before computing 2**n.
    """
    if n < 0:
        raise ValueError(f"need n >= 0 address bits, got n={n}")
    if n > limit:
        raise adversary.InfeasibleInstanceError(
            f"n={n} exceeds the {what} limit n <= {limit}"
        )
    return 1 << n


def _check_seed(seed) -> None:
    """Refuse a negative integer seed as a usage error that names it."""
    if isinstance(seed, int) and seed < 0:
        raise ValueError(f"need seed >= 0, got seed={seed}")


def _check_limit(name: str, value: int, limit: int) -> None:
    """Refuse *value* above the search limit *limit* as infeasible, naming
    it."""
    if value > limit:
        raise adversary.InfeasibleInstanceError(
            f"{name}={value} exceeds the search limit {name} <= {limit}")


@dataclass
class ExperimentConfig:
    """Parameters of one seeded search experiment."""

    n: int
    d: int
    k: int
    trials: int
    seed: int
    t_override: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        _check_seed(self.seed)
        N = address_count(self.n, MAX_SEARCH_BITS, "search")
        if not 1 <= self.d <= N:
            raise ValueError(f"need 1 <= d <= N={N}, got d={self.d}")
        if not 1 <= self.k <= N:
            raise ValueError(f"need 1 <= k <= N={N}, got k={self.k}")
        t = self.t_override
        if t is not None and t < 1:
            raise ValueError(f"need t >= 1, got t={t}")
        for name, value, limit in (
                ("d", self.d, MAX_COPIES), ("k", self.k, MAX_TARGETS),
                ("t", t or 0, MAX_COUNT), ("trials", self.trials, MAX_TRIALS)):
            _check_limit(name, value, limit)


def build_database(n: int, k: int, seed) -> tuple:
    """Database of (n + 1)-bit items with targets 1..k at random distinct
    addresses, and its target set.

    Non-target addresses hold distinct fillers k + 1, ..., N, which fit in
    n + 1 bits.  The database is a :class:`~parsearch.core.PlantedDatabase`,
    which stores only the k target addresses.  Refuses n above
    ``MAX_SEARCH_BITS`` before computing 2**n.
    """
    N = address_count(n, MAX_SEARCH_BITS, "search")
    if k > N:
        raise ValueError("more targets than addresses")
    addresses = np.random.default_rng(seed).choice(N, size=k, replace=False)
    return PlantedDatabase(n, addresses), TargetSet(range(1, k + 1))


def run_search_experiment(cfg: ExperimentConfig) -> dict:
    """Run seeded trials of the parallel search and aggregate query counts."""
    N = 1 << cfg.n
    # decided even under --t: choose_regime gives the run's sqrt(N) warning
    regime = choose_regime(N, cfg.d, cfg.k)
    if cfg.t_override is not None:
        regime = RegimeParams(t=cfg.t_override, regime="override")

    trials = []
    for trial in range(cfg.trials):
        rng = np.random.default_rng(derive_stream(cfg.seed, STREAM_TRIAL, trial))
        db, targets = build_database(cfg.n, cfg.k, seed=rng)
        outcome = parallel_search(db, cfg.d, targets, seed=rng, t=regime.t)
        trials.append({
            "trial": trial,
            "success": bool(outcome.success),
            "parallel_rounds": int(outcome.parallel_rounds),
            "total_queries": int(outcome.ledger.oracle_counts.sum()),
            "rounds_per_repetition": [int(r) for r in
                                      outcome.ledger.rounds_per_repetition],
            "repetitions": int(outcome.repetitions),
        })

    rounds = [t["parallel_rounds"] for t in trials]
    record = {
        "spec_version": SPEC_VERSION,
        "command": "search",
        "config": {
            "n": cfg.n, "d": cfg.d, "k": cfg.k, "trials": cfg.trials,
            "seed": cfg.seed, "t_override": cfg.t_override,
        },
        "regime": {"tag": regime.regime, "t": regime.t},
        "reference": {
            "lower_bound": adversary.closed_form_bound(N, cfg.d, cfg.k),
            "upper_envelope": theorem_envelope(N, cfg.d, cfg.k),
        },
        "trials": trials,
        "aggregates": {
            "mean_rounds": statistics.fmean(rounds),
            "median_rounds": float(statistics.median(rounds)),
            "success_rate": statistics.fmean(
                1.0 if t["success"] else 0.0 for t in trials
            ),
        },
    }
    return record


def run_maxload_check(k: int, d: int, t: int, n: int | None = None) -> dict:
    """Exact probability that some cell exceeds the per-cell item cap t,
    against the union bound.

    Dropping k target addresses into a uniform random equipartition of [N]
    into d cells, the largest cell load exceeds t with the probability
    :func:`~parsearch.algorithms.maxload_exceedance`, which the union bound
    over the cells, :func:`~parsearch.algorithms.union_bound`, must not
    undercut.  Refuses n above
    ``MAX_SEARCH_BITS`` and k above ``MAX_MAXLOAD_K`` before computing
    anything.
    """
    if d < 1 or k < 0 or t < 0:
        raise ValueError("invalid max-load parameters")
    if n is None:
        n = max(12, max(d, k).bit_length())
    N = address_count(n, MAX_SEARCH_BITS, "max-load")
    if d > N or k > N:
        raise ValueError(f"need d, k <= N = {N}")
    if k > MAX_MAXLOAD_K:
        raise adversary.InfeasibleInstanceError(
            f"k={k} exceeds the max-load limit k <= {MAX_MAXLOAD_K}")
    exceedance = maxload_exceedance(N, d, k, t)
    bound = union_bound(k, t, d)
    return {
        "spec_version": SPEC_VERSION,
        "command": "maxload",
        "config": {"n": n, "k": k, "d": d, "t": t},
        "exceedance": exceedance,
        "union_bound": bound,
        "within_bound": exceedance <= bound,
    }


def run_bound_table(ns, ds, ks, trials: int, seed: int) -> dict:
    """Sweep (n, d, k) cells: measured mean rounds vs both bound formulas."""
    # every value, also of a sweep with no cell, and then every cell, as
    # search checks it, before the first cell runs
    _check_seed(seed)
    for n in ns:
        address_count(n, MAX_SEARCH_BITS, "search")
    for name, values, limit in (("d", ds, MAX_COPIES), ("k", ks, MAX_TARGETS),
                                ("trials", [trials], MAX_TRIALS)):
        for value in values:
            if value < 1:
                raise ValueError(f"need {name} >= 1, got {name}={value}")
            _check_limit(name, value, limit)
    cells = [ExperimentConfig(n=n, d=d, k=k, trials=trials, seed=seed)
             for n in ns for d in ds for k in ks]
    rows = []
    for cfg in cells:
        rec = run_search_experiment(cfg)
        mean_rounds = rec["aggregates"]["mean_rounds"]
        lower = rec["reference"]["lower_bound"]
        upper = rec["reference"]["upper_envelope"]
        rows.append({
            "N": 1 << cfg.n, "d": cfg.d, "k": cfg.k,
            "regime": rec["regime"]["tag"],
            "t": rec["regime"]["t"],
            "mean_rounds": mean_rounds,
            "success_rate": rec["aggregates"]["success_rate"],
            "lower_bound": lower,
            "upper_envelope": upper,
            "ratio_to_lower": mean_rounds / lower,
            "ratio_to_upper": mean_rounds / upper,
        })
    return {
        "spec_version": SPEC_VERSION,
        "command": "bounds",
        "config": {"n": list(ns), "d": list(ds), "k": list(ks),
                   "trials": trials, "seed": seed},
        "rows": rows,
    }


def run_adversary_check(n: int, m: int, d: int, k: int) -> dict:
    """Brute-force the adversary graph and compare with the claimed stats.

    The graph has at least N vertices, so n above the largest n with
    2**n <= ``FEASIBLE_VERTICES`` is refused before computing 2**n.
    """
    N = address_count(n, adversary.FEASIBLE_VERTICES.bit_length() - 1,
                      "adversary enumeration")
    fam = adversary.InstanceFamily(n=n, m=m, d=d, k=k)
    graph = adversary.build_adversary_graph(fam)
    stats = adversary.compute_stats(graph)
    claims = {
        "delta0_equals_N_minus_k_plus_1": stats.delta0 == N - k + 1,
        "delta1_equals_k": stats.delta1 == k,
        "ell0_at_most_d": stats.ell0 <= d,
        "ell1_at_most_min_d_k": stats.ell1 <= min(d, k),
    }
    miss_choices, placements = graph.v0_count_factored
    return {
        "spec_version": SPEC_VERSION,
        "command": "adversary",
        "config": {"n": n, "m": m, "d": d, "k": k},
        "vertex_counts": {
            "v0": len(graph.v0),
            "v0_factored": {"missing_item_choices": miss_choices,
                            "placements": placements},
            "v1": len(graph.v1),
            "edges": len(graph.edges),
        },
        "stats": {"delta0": stats.delta0, "delta1": stats.delta1,
                  "ell0": stats.ell0, "ell1": stats.ell1},
        "claims": claims,
        "all_claims_match": all(claims.values()),
        "ambainis_bound": adversary.ambainis_bound(stats),
        "closed_form_bound": adversary.closed_form_bound(N, d, k),
    }

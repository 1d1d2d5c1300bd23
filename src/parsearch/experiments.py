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
#: three runs each, on a 2-core host (Python 3.11.7, numpy 2.4.6):
#:
#: - ``search --n 40 --d 1048576 --k 64``: 194 MiB over 1 trial, 208 MiB
#:   over 4 and over 8;
#: - ``search --n 24 --d 4096 --k 2 --trials 1024``: 40 MiB;
#: - ``search --n 24 --k 2 --trials 65536``: 71 MiB at d = 1 and at
#:   d = 64, against 38 MiB over 1 trial.
MAX_COPIES = 1 << 20
MAX_TRIALS = 1 << 16

#: largest k a search takes.  A trial holds its k target addresses, never
#: O(N) numbers, but several structures per target: the database's address
#: arrays, the target set and the found items' maps.  That memory is freed
#: when the trial ends.  Peak RSS, measured as under ``MAX_COPIES``:
#:
#: - ``search --n 40 --d 1048576 --k 131072`` (d and k at their limits):
#:   217 MiB over 1 trial, 242 MiB over 4, 246-247 MiB over 8;
#: - ``search --n 40 --d 64 --k 131072``: 73-74 MiB over 1 trial, 92 MiB
#:   over 4, 97 MiB over 256;
#: - past the limit, with it lifted in the process, ``--d 1048576
#:   --k 262144`` over 1 trial: 234-235 MiB.
#:
#: The corner of all three limits, 2**16 trials at d = 2**20 and k = 2**17,
#: was not run: at about 2 s per trial (8 trials took 15-19 s) it would
#: take one and a half to two days.  Its trials peak near 0.24 GiB, and its
#: record adds what the 2**16 trials above add, about 33 MiB, so it would
#: peak near 0.27 GiB.
MAX_TARGETS = 1 << 17

#: largest k the max-load check takes: its exact law costs O(k**2 log d).
#: The slowest case measured at the limit, (n, d, t) = (62, 2**16 - 1, 3),
#: took 3.2 s on a 2-core host.
MAX_MAXLOAD_K = 1 << 14


def _check(name: str, value: int, least: int, limit: int | None = None,
           what: str = "search") -> None:
    """Refuse *value* below *least* as a usage error, and above *limit*,
    the largest that *what* takes, as infeasible; both name the value."""
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {name}={value}")
    if limit is not None and value > limit:
        raise adversary.InfeasibleInstanceError(
            f"{name}={value} exceeds the {what} limit {name} <= {limit}")


def _check_cell(N: int, d: int = 1, k: int = 1) -> None:
    """Refuse a d or a k above the N addresses as a usage error that
    names it."""
    for name, value in (("d", d), ("k", k)):
        if value > N:
            raise ValueError(f"need {name} <= N={N}, got {name}={value}")


def _check_search(seed, ns, ds, ks, trials: int, t=None) -> None:
    """Check each value of a search or a sweep on its own, in one order:
    seed, n, d, k, trials, then t, each against its floor and then its
    limit.  A search's cells are checked after this, as d, k <= N."""
    _check("seed", seed, 0)
    for n in ns:
        _check("n", n, 0, MAX_SEARCH_BITS)
    for d in ds:
        _check("d", d, 1, MAX_COPIES)
    for k in ks:
        _check("k", k, 1, MAX_TARGETS)
    _check("trials", trials, 1, MAX_TRIALS)
    if t is not None:
        _check("t", t, 1, MAX_COUNT)


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
        _check_search(self.seed, (self.n,), (self.d,), (self.k,), self.trials,
                      self.t_override)
        _check_cell(1 << self.n, d=self.d, k=self.k)


def build_database(n: int, k: int, seed) -> tuple:
    """Database of (n + 1)-bit items with targets 1..k at random distinct
    addresses, and its target set.

    Non-target addresses hold distinct fillers k + 1, ..., N, which fit in
    n + 1 bits.  The database is a :class:`~parsearch.core.PlantedDatabase`,
    which stores only the k target addresses.  Refuses n above
    ``MAX_SEARCH_BITS`` before computing 2**n.
    """
    _check("n", n, 0, MAX_SEARCH_BITS)
    N = 1 << n
    _check_cell(N, k=k)
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
    undercut.  With no n, n is max(12, max(d, k).bit_length()), at most
    ``MAX_SEARCH_BITS``.  Checks n, d, k and t as a search does, n above
    ``MAX_SEARCH_BITS``, k above ``MAX_MAXLOAD_K`` and, with no n, d above
    the largest N, and then d, k <= N, before computing anything.
    """
    if n is not None:
        _check("n", n, 0, MAX_SEARCH_BITS, "max-load")
    _check("d", d, 1, (1 << MAX_SEARCH_BITS) if n is None else None,
           "max-load")
    _check("k", k, 0, MAX_MAXLOAD_K, "max-load")
    _check("t", t, 0)
    if n is None:
        n = min(MAX_SEARCH_BITS, max(12, max(d, k).bit_length()))
    N = 1 << n
    _check_cell(N, d=d, k=k)
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
    _check_search(seed, ns, ds, ks, trials)
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
    _check("n", n, 0, adversary.FEASIBLE_VERTICES.bit_length() - 1,
           "adversary enumeration")
    N = 1 << n
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

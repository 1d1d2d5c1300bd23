"""Experiment drivers: seeded search sweeps, exact max-load checks,
bound comparison tables, and brute-force adversary verification.

Every driver returns a plain dict ready for JSON serialization; all
randomness flows from the given seed through derived streams, so records
are byte-stable across runs.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass

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
    STREAM_DATABASE,
    STREAM_TRIAL,
    PlantedDatabase,
    as_generator,
    derive_stream,
)

SPEC_VERSION = "3.0"

#: largest n a search runs at: its addresses are int64, and numpy's
#: ``choice`` without replacement draws them from [0, N) for N up to 2**62.
MAX_SEARCH_BITS = 62

#: largest --t a search takes: the cap bounds a copy's steps, and no
#: array of its size is made.
MAX_COUNT = 1 << 24

#: largest d, trials * d and trials a search takes.  A run's memory grows
#: with them, not with N: its record keeps d per-copy counts per trial,
#: about 80-120 bytes each, and about 2.2 KB more per trial.  Peak RSS of
#: ``search --n 40 --k 64`` (``--n 24 --k 2`` and ``--n 2 --k 1`` for the
#: many-trial runs), measured on a 2-core host:
#:
#: - d = 2**20, 1 trial: 342 MB; 4 trials (trials * d at its limit): 583 MB;
#: - trials * d at its limit: d = 2**12, 1024 trials: 551 MB; d = 2**8,
#:   16384 trials: 657 MB; d = 64, 65536 trials: 679 MB;
#: - d = 1, 65536 trials (trials at its limit): 177 MB;
#: - past the limits: d = 2**20, 8 trials: 1.1 GB; d = 32, 131072
#:   trials: 818 MB; d = 1 and 2**22 trials would hold about 9 GB.
MAX_COPIES = 1 << 20
MAX_COPY_TRIALS = 1 << 22
MAX_TRIALS = 1 << 16

#: largest k a search takes.  A trial holds its k target addresses, never
#: O(N) numbers, but several structures per target: the database's address
#: arrays, the target set and the found items' maps.  That memory is freed
#: after each trial, so it adds to the record's.  Peak RSS of
#: ``search --n 40 --d 1048576`` (d at its limit), measured on a 2-core
#: host:
#:
#: - 1 trial: k = 2**16: 385 MB; k = 2**18: 483 MB; k = 2**19: 604 MB;
#: - 4 trials (trials * d at its limit): k = 2**17: 631 MB; past the
#:   limit, k = 2**18: 737 MB.
#:
#: With d = 64 a trial at k = 2**17 took about 17 s and peaked at 116 MB
#: over 1 trial, 145 MB over 4 and 149 MB over 8, against 36 MB at
#: k = 64: it holds about 110 MB on top of the record.  So the corner
#: d = 64, 2**16 trials, k = 2**17, which was not run, would peak between
#: the record's 679 MB and about 0.8 GB.  Since ``multi_item_search``
#: draws its steps in batches, a d = 64, k = 2**17 trial takes 1.4 s and
#: peaks at 102 MB, and 4 trials at d = 2**20, k = 2**17 peak at 661 MB.
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
        if t is not None and t < 0:
            raise ValueError(f"need t >= 0, got t={t}")
        for name, value, limit in (
                ("d", self.d, MAX_COPIES), ("k", self.k, MAX_TARGETS),
                ("t", t or 0, MAX_COUNT), ("trials", self.trials, MAX_TRIALS),
                ("trials * d", self.trials * self.d, MAX_COPY_TRIALS)):
            if value > limit:
                raise adversary.InfeasibleInstanceError(
                    f"{name}={value} exceeds the search limit {name} <= {limit}")


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
    addresses = as_generator(seed).choice(N, size=k, replace=False)
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
        stream = derive_stream(cfg.seed, STREAM_TRIAL, trial)
        db, targets = build_database(
            cfg.n, cfg.k, seed=derive_stream(stream, STREAM_DATABASE))
        outcome = parallel_search(db, cfg.d, targets, seed=stream, t=regime.t)
        trials.append({
            "trial": trial,
            "success": bool(outcome.success),
            "parallel_rounds": int(outcome.parallel_rounds),
            "per_copy_queries": outcome.ledger.oracle_counts.tolist(),
            "rounds_per_repetition": [int(r) for r in
                                      outcome.ledger.rounds_per_repetition],
            "verification_rounds": int(outcome.ledger.verification_rounds),
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
    # every value, also of a sweep with no cell, and every cell's limits are
    # checked before the first cell runs
    _check_seed(seed)
    for n in ns:
        address_count(n, MAX_SEARCH_BITS, "search")
    for name, values in (("d", ds), ("k", ks), ("trials", [trials])):
        if min(values, default=1) < 1:
            raise ValueError(f"need {name} >= 1, got {name}={min(values)}")
    cells = [ExperimentConfig(n=n, d=d, k=k, trials=trials, seed=seed)
             for n in ns for d in ds for k in ks
             if max(d, k) <= address_count(n, MAX_SEARCH_BITS, "search")]
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

"""Seeded experiment drivers: search sweeps, max-load Monte Carlo checks,
bound comparison tables, and brute-force adversary verification.

Every driver returns a plain dict ready for JSON serialization; all
randomness flows from the given seed through derived streams, so records
are byte-stable across runs.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import adversary
from .algorithms import (
    RegimeParams,
    TargetSet,
    choose_regime,
    maxload_bound,
    parallel_search,
    theorem_envelope,
)
from .core import (
    STREAM_DATABASE,
    STREAM_TRIAL,
    Database,
    as_generator,
    derive_stream,
)

SPEC_VERSION = "2.0"

#: largest n the max-load check samples: numpy's multivariate
#: hypergeometric sampler (method "marginals") needs the N = 2**n colors to
#: total below 10**9, a tighter limit than int64 cell sizes.
MAX_MAXLOAD_BITS = 29

#: largest trials * d, the int64 cell loads the max-load check samples at
#: once.  At the limit, 2**20 trials of d = 64 cells, one check peaked at
#: 0.56 GB and took 7 s on a 2-core host.
MAX_MAXLOAD_LOADS = 1 << 26

#: largest n the explicit database is built for.  One search trial at
#: (N, d, k) = (2^20, 1024, 32) peaks about 140 MB above the interpreter's
#: 28 MB, about 105 bytes per address, so 2^24 addresses need about 1.8 GB.
MAX_EXPLICIT_BITS = 24


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
        N = address_count(self.n, MAX_EXPLICIT_BITS, "explicit database")
        if not 1 <= self.d <= N:
            raise ValueError(f"need 1 <= d <= N={N}, got d={self.d}")
        if not 1 <= self.k <= N:
            raise ValueError(f"need 1 <= k <= N={N}, got k={self.k}")
        if self.t_override is not None and self.t_override < 0:
            raise ValueError(f"need t >= 0, got t={self.t_override}")


def build_database(n: int, k: int, seed) -> tuple:
    """Database of (n + 1)-bit items with targets 1..k at random distinct
    addresses.

    Non-target addresses hold distinct fillers k + 1, ..., N, which fit in
    n + 1 bits.  Refuses n above ``MAX_EXPLICIT_BITS`` before allocating
    anything.
    """
    N = address_count(n, MAX_EXPLICIT_BITS, "explicit database")
    if k > N:
        raise ValueError("more targets than addresses")
    rng = as_generator(seed)
    addresses = rng.choice(N, size=k, replace=False)
    targets = TargetSet(range(1, k + 1))
    # the i-th non-target address in ascending order holds k + 1 + i, i
    # being its address less the targets below it
    is_target = np.zeros(N, dtype=bool)
    is_target[addresses] = True
    entries = np.arange(k + 1, N + k + 1, dtype=np.int64)
    entries -= np.cumsum(is_target)
    entries[addresses] = targets.items
    return Database(n=n, m=n + 1, entries=entries), targets


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
            "per_copy_queries": [int(c) for c in outcome.ledger.oracle_counts],
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


def run_maxload_check(
    k: int, d: int, t: int, trials: int, seed, n: int | None = None
) -> dict:
    """Empirical exceedance frequency of the per-cell item cap.

    Dropping k target addresses into a uniform random equipartition of [N]
    gives cell loads distributed multivariate-hypergeometrically with the
    cell sizes as color counts; the check samples that law directly, one
    draw per partition.  Refuses n above ``MAX_MAXLOAD_BITS`` and trials * d
    above ``MAX_MAXLOAD_LOADS`` before sampling anything.
    """
    if trials < 1 or d < 1 or k < 0 or t < 0:
        raise ValueError("invalid max-load parameters")
    _check_seed(seed)
    if n is None:
        n = max(12, max(d, k).bit_length())
    N = address_count(n, MAX_MAXLOAD_BITS, "max-load sampler")
    if d > N or k > N:
        raise ValueError(f"need d, k <= N = {N}")
    if trials * d > MAX_MAXLOAD_LOADS:
        raise adversary.InfeasibleInstanceError(
            f"trials * d = {trials * d} cell loads exceed the limit "
            f"{MAX_MAXLOAD_LOADS}"
        )
    base, extra = divmod(N, d)
    sizes = [base + 1] * extra + [base] * (d - extra)
    rng = as_generator(seed)
    loads = rng.multivariate_hypergeometric(sizes, k, size=trials)
    exceed = int(np.count_nonzero(loads.max(axis=1) > t))
    phat = exceed / trials
    stderr = math.sqrt(phat * (1.0 - phat) / trials)
    bound = d * maxload_bound(k, t, d)
    return {
        "spec_version": SPEC_VERSION,
        "command": "maxload",
        "config": {"n": n, "k": k, "d": d, "t": t, "trials": trials,
                   "seed": seed},
        "empirical_exceedance": phat,
        "exceed_count": exceed,
        "standard_error": stderr,
        "union_bound": bound,
        "within_bound": phat <= bound + 3 * stderr,
    }


def run_bound_table(ns, ds, ks, trials: int, seed: int) -> dict:
    """Sweep (n, d, k) cells: measured mean rounds vs both bound formulas."""
    _check_seed(seed)  # also when the sweep is empty
    rows = []
    for n in ns:
        for d in ds:
            for k in ks:
                N = address_count(n, MAX_EXPLICIT_BITS, "explicit database")
                if d > N or k > N:
                    continue
                rec = run_search_experiment(
                    ExperimentConfig(n=n, d=d, k=k, trials=trials, seed=seed)
                )
                mean_rounds = rec["aggregates"]["mean_rounds"]
                lower = rec["reference"]["lower_bound"]
                upper = rec["reference"]["upper_envelope"]
                rows.append({
                    "N": N, "d": d, "k": k,
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

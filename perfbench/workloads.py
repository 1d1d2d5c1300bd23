"""The benchmark's workloads: what each one runs, and how its outputs are checked.

Every workload is a sequence of rounds drawn from the workload seed; a round
is a fixed list of trials, so a run that stops between rounds keeps the same
mix of trials.  A trial returns a :class:`TrialResult`: its timed cost,
whether it failed, any output check it broke, and a digest of its
deterministic outputs that runs with the same seed must reproduce exactly.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from parsearch import adversary, algorithms, experiments

# acceptance bands of the parallel regimes (criteria 4 and 5)
MAX_ROUNDS_OVER_ENVELOPE = 4.0
MAX_LOWER_OVER_ROUNDS = 8.0
MIN_SUCCESS_RATE = 3 / 4


@dataclass
class TrialResult:
    seconds: float
    failed: bool
    digest: tuple
    problems: list = field(default_factory=list)
    cell: int = 0
    rounds: int = 0
    success: bool = True


def trial_seed(seed: int, round_index: int, slot: int) -> int:
    """Independent per-trial seed, a pure function of the workload seed."""
    return int(np.random.SeedSequence([seed, round_index, slot]).generate_state(1)[0])


class SearchWorkload:
    """Seeded trials of ``experiments.run_search_experiment``, the code path
    that ``parsearch search`` runs, one trial per call.

    One round is one trial in each cell.  A trial is one such call with
    ``trials=1``: one ``build_database`` call plus one ``parallel_search``
    call and the record around them.  Both calls are captured where
    ``experiments`` looks them up, which hands the database and the search
    outcome to the independent output checks.
    """

    def __init__(self, name: str, cells):
        self.name = name
        self.cells = tuple(cells)
        self._captured: dict = {}
        for attr in ("build_database", "parallel_search"):
            setattr(experiments, attr, self._capture(attr, getattr(experiments, attr)))

    def _capture(self, key, fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._captured[key] = result
            return result
        return captured

    @property
    def params(self) -> dict:
        return {"cells": [{"N": 1 << n, "n": n, "d": d, "k": k, "m": n + 1}
                          for n, d, k in self.cells],
                "trials_per_cell_per_round": 1}

    def warm_up(self) -> None:
        self._trial((6, 2, 2), 0)

    def rounds(self, seed: int):
        r = 0
        while True:
            yield [(c, trial_seed(seed, r, c)) for c in range(len(self.cells))]
            r += 1

    def run(self, spec) -> TrialResult:
        cell, cfg_seed = spec
        result = self._trial(self.cells[cell], cfg_seed)
        result.cell = cell
        return result

    def _trial(self, cell, cfg_seed) -> TrialResult:
        n, d, k = cell
        self._captured.clear()
        t0 = perf_counter()
        record = experiments.run_search_experiment(
            experiments.ExperimentConfig(n=n, d=d, k=k, trials=1, seed=cfg_seed))
        spent = perf_counter() - t0
        db, targets = self._captured["build_database"]
        outcome = self._captured["parallel_search"]
        trial = record["trials"][0]
        problems = []
        for item, addr in outcome.located.items():
            if item not in targets.items:
                problems.append(f"claimed non-target item {item}")
                continue
            holds = db.lookup(addr) if 0 <= addr < db.size else None
            if holds != item:
                problems.append(f"item {item} claimed at address {addr}, which holds {holds}")
        complete = set(outcome.located) == set(targets.items)
        if outcome.success and not complete:
            problems.append("search reports success with items missing")
        if trial["parallel_rounds"] != outcome.parallel_rounds or \
                trial["success"] != outcome.success:
            problems.append("record disagrees with the search outcome")
        problems = [f"{self.name} N=2^{n} d={d} k={k} seed={cfg_seed}: {p}"
                    for p in problems]
        self._captured.clear()
        return TrialResult(
            seconds=spent,
            failed=bool(problems) or not (outcome.success and complete),
            digest=(trial["parallel_rounds"], trial["success"]),
            problems=problems,
            rounds=trial["parallel_rounds"],
            success=bool(outcome.success),
        )

    def check_run(self, results) -> tuple:
        """Per-cell cost ratios against the regime bands, and band failures."""
        cells, problems = [], []
        for c, (n, d, k) in enumerate(self.cells):
            mine = [r for r in results if r.cell == c]
            N = 1 << n
            mean_rounds = statistics.fmean(r.rounds for r in mine)
            success = statistics.fmean(1.0 if r.success else 0.0 for r in mine)
            envelope = algorithms.theorem_envelope(N, d, k)
            lower = adversary.closed_form_bound(N, d, k)
            row = {
                "N": N, "d": d, "k": k, "trials": len(mine),
                "mean_rounds": mean_rounds, "success_rate": success,
                "rounds_over_envelope": mean_rounds / envelope,
                "lower_over_rounds": lower / mean_rounds if mean_rounds else math.inf,
            }
            cells.append(row)
            where = f"{self.name} N=2^{n} d={d} k={k}"
            if success < MIN_SUCCESS_RATE:
                problems.append(f"{where}: success rate {success:.3f} < 3/4")
            if row["rounds_over_envelope"] > MAX_ROUNDS_OVER_ENVELOPE:
                problems.append(f"{where}: rounds/envelope "
                                f"{row['rounds_over_envelope']:.2f} > 4")
            if row["lower_over_rounds"] > MAX_LOWER_OVER_ROUNDS:
                problems.append(f"{where}: lower/rounds {row['lower_over_rounds']:.2f} > 8")
        return cells, problems


class AdversaryWorkload:
    """Brute-force ``experiments.run_adversary_check``, the code path that
    ``parsearch adversary`` runs, one instance per trial.

    Every trial enumerates a graph of the same size, set by n and k, but
    each with a (m, d) pair of its own: the item width m and the copy count
    d change the instance, not the graph's size.  The seed fixes the order
    of the (m, d) pairs.
    """

    M_VALUES = 16          # item widths from the smallest that fits k
    D_VALUES = 64          # copy counts 1..64

    def __init__(self, n: int, k: int):
        self.name = "adversary_enum"
        self.n, self.k = n, k
        self.m_min = 1 + (k - 1).bit_length()   # smallest m with k <= 2**(m-1)

    @property
    def params(self) -> dict:
        fam = adversary.InstanceFamily(n=self.n, m=self.m_min, d=1, k=self.k)
        return {"instance": {"n": self.n, "k": self.k, "N": fam.N,
                             "m": [self.m_min, self.m_min + self.M_VALUES - 1],
                             "d": [1, self.D_VALUES]},
                "distinct_instances": self.M_VALUES * self.D_VALUES,
                "vertices": adversary.estimated_size(fam),
                "edges": self.k * math.perm(fam.N, self.k)}

    def warm_up(self) -> None:
        self.run((2, 2, 2, 2))

    def rounds(self, seed: int):
        """One distinct instance per round, in a seeded order; after every
        pair has been used once the order starts again."""
        pairs = [(m, d) for m in range(self.m_min, self.m_min + self.M_VALUES)
                 for d in range(1, self.D_VALUES + 1)]
        order = np.random.default_rng(seed).permutation(len(pairs))
        while True:
            for i in order:
                m, d = pairs[i]
                yield [(self.n, m, d, self.k)]

    @staticmethod
    def run(instance) -> TrialResult:
        n, m, d, k = instance
        t0 = perf_counter()
        record = experiments.run_adversary_check(n, m, d, k)
        spent = perf_counter() - t0
        fam = adversary.InstanceFamily(n=n, m=m, d=d, k=k)
        N, st, vc = fam.N, record["stats"], record["vertex_counts"]
        claims = {
            "delta0 = N-k+1": st["delta0"] == N - k + 1,
            "delta1 = k": st["delta1"] == k,
            "ell0 <= d": st["ell0"] <= d,
            "ell1 <= min(d,k)": st["ell1"] <= min(d, k),
            "v0 + v1 = estimated_size": vc["v0"] + vc["v1"] == adversary.estimated_size(fam),
            "v1 = N!/(N-k)!": vc["v1"] == math.perm(N, k),
            "edges = k * |v1|": vc["edges"] == k * math.perm(N, k),
        }
        problems = [f"adversary (n,m,d,k)={instance}: claim {name} fails "
                    f"(stats {st}, counts v0={vc['v0']} v1={vc['v1']} edges={vc['edges']})"
                    for name, ok in claims.items() if not ok]
        return TrialResult(
            seconds=spent,
            failed=bool(problems),
            digest=(st["delta0"], st["delta1"], st["ell0"], st["ell1"],
                    vc["v0"], vc["v1"], vc["edges"]),
            problems=problems,
        )

    def check_run(self, results) -> tuple:
        return [], []


def make(name: str, tiny: bool = False):
    """The named workload; *tiny* shrinks every size for smoke tests."""
    if name == "regime_cells":
        cells = ((8, 16, 4), (8, 4, 4), (8, 2, 8)) if tiny else \
            ((12, 64, 4), (12, 16, 16), (14, 8, 64))
        return SearchWorkload(name, cells)
    if name == "large_n":
        # 128 cells of 1024 addresses with k near sqrt(d), the shape of
        # (2^20,1024,32) at 1/8 of N: a trial takes about 0.5 s instead of
        # 3.5 s, so a run holds enough distinct trials to be steady
        return SearchWorkload(name, [(10, 32, 4) if tiny else (17, 128, 11)])
    if name == "adversary_enum":
        return AdversaryWorkload(*((2, 2) if tiny else (4, 4)))
    raise ValueError(f"unknown workload {name!r}")

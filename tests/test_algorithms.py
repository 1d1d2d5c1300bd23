"""Tests for the search algorithms and partition machinery."""
import inspect
import math
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parsearch import algorithms, experiments
from parsearch.algorithms import (
    MAX_REPETITIONS,
    TargetSet,
    bbht_search_unknown,
    choose_regime,
    grover_search_known,
    maxload_bound,
    multi_item_search,
    optimal_iterations,
    parallel_search,
    random_partition,
    theorem_envelope,
    verify_locations,
)
from parsearch.core import (
    STREAM_COPY,
    Database,
    MarkedPredicate,
    QueryLedger,
    derive_stream,
)
from parsearch.experiments import (
    ExperimentConfig,
    build_database,
    run_search_experiment,
)


@st.composite
def instances(draw):
    """(n, k, seed) of a database with k targets among 2**n <= 256 addresses."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(6, 1 << n)))
    return n, k, draw(st.integers(0, 2 ** 32 - 1))


class TestTargetSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TargetSet([1, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TargetSet([])


class TestBuildDatabase:
    @settings(derandomize=True, deadline=None)
    @given(st.integers(0, 10), st.data(), st.integers(0, 2 ** 32 - 1))
    def test_fill_matches_setdiff_reference(self, n, data, seed):
        N = 1 << n
        k = data.draw(st.integers(1, min(N, 12)))
        db, targets = build_database(n, k, seed)
        # the reference: the same address draw, then fillers k+1, k+2, ...
        # over the ascending non-target addresses
        addresses = np.random.default_rng(seed).choice(N, size=k, replace=False)
        entries = np.zeros(N, dtype=np.int64)
        rest = np.setdiff1d(np.arange(N), addresses)
        entries[rest] = np.arange(k + 1, N + 1, dtype=np.int64)
        entries[addresses] = targets.items
        np.testing.assert_array_equal(db.entries, entries)


class TestGroverSearchKnown:
    def test_four_addresses_one_marked(self):
        db, targets = build_database(2, 1, seed=0)
        for s in range(25):
            addr, queries = grover_search_known(
                MarkedPredicate(db, targets.items, np.arange(4)), 1, seed=s
            )
            assert queries == 2
            assert addr is not None and db.lookup(addr) == 1

    def test_all_marked_needs_no_iterations(self):
        entries = np.ones(8, dtype=np.int64)
        db = Database(n=3, m=1, entries=entries)
        addr, queries = grover_search_known(
            MarkedPredicate(db, [1], np.arange(8)), 8, seed=3
        )
        assert queries == 1
        assert addr is not None

    def test_large_search_success_rate(self):
        db, targets = build_database(10, 1, seed=5)
        hits = 0
        for s in range(10 ** 4):
            addr, queries = grover_search_known(
                MarkedPredicate(db, targets.items, np.arange(1024)), 1, seed=[5, s]
            )
            assert queries == 26
            hits += addr is not None
        assert abs(hits / 10 ** 4 - 0.9995) < 0.002

    def test_overlarge_assumed_count(self):
        db, targets = build_database(3, 1, seed=0)
        with pytest.raises(ValueError):
            grover_search_known(MarkedPredicate(db, targets.items, np.arange(8)),
                                9, seed=0)


class TestBbhtSearchUnknown:
    def test_nothing_to_find(self):
        db, _ = build_database(8, 1, seed=1)
        absent = TargetSet([500])
        cutoff = math.ceil(9 / 4 * 16) + 2 * math.ceil(math.log(16) / math.log(6 / 5))
        addr, queries = bbht_search_unknown(
            MarkedPredicate(db, absent.items, np.arange(256)), seed=2)
        assert addr is None
        assert queries <= cutoff

    def test_mean_queries_within_envelope(self):
        db, targets = build_database(8, 4, seed=11)
        totals, hits = [], 0
        for s in range(10 ** 4):
            addr, queries = bbht_search_unknown(
                MarkedPredicate(db, targets.items, np.arange(256)), seed=[11, s]
            )
            totals.append(queries)
            hits += addr is not None
        assert np.mean(totals) <= 4 * math.sqrt(256 / 4)
        assert hits / 10 ** 4 >= 3 / 4

    def test_everything_marked_is_cheap(self):
        entries = np.ones(64, dtype=np.int64)
        db = Database(n=6, m=1, entries=entries)
        totals = []
        for s in range(2000):
            addr, queries = bbht_search_unknown(
                MarkedPredicate(db, [1], np.arange(64)), seed=s
            )
            assert addr is not None
            totals.append(queries)
        assert np.mean(totals) <= 3

    def test_empty_subdomain_rejected(self):
        db, targets = build_database(3, 1, seed=0)
        with pytest.raises(ValueError):
            bbht_search_unknown(
                MarkedPredicate(db, targets.items, np.array([], dtype=np.int64)),
                seed=0)


class TestMultiItemSearch:
    def test_zero_cap_is_empty(self):
        db, targets = build_database(4, 2, seed=3)
        out = multi_item_search(db, np.arange(16), targets, 0, seed=0)
        assert out.located == {}
        assert out.ledger.oracle_counts[0] == 0

    def test_two_of_sixteen(self):
        successes, totals = 0, []
        for s in range(10 ** 4):
            db, targets = build_database(4, 2, seed=[7, s])
            out = multi_item_search(db, np.arange(16), targets, 2, seed=[8, s])
            successes += out.success
            totals.append(out.ledger.oracle_counts[0])
        assert successes / 10 ** 4 >= 3 / 4
        assert np.mean(totals) <= 4 * math.sqrt(16 * 2)

    def test_single_item_reduces_to_plain_grover(self):
        db, targets = build_database(10, 1, seed=9)
        totals = []
        for s in range(200):
            out = multi_item_search(db, np.arange(1024), targets, 1, seed=[9, s])
            totals.append(out.ledger.oracle_counts[0])
        # 25 iterations plus the check on success; the occasional fallback
        # adds more
        assert np.median(totals) == 26

    def test_success_means_all_present_located(self):
        db, targets = build_database(6, 4, seed=13)
        # search only half the address space: success must track what is
        # actually present there, not all of k
        sub = np.arange(32)
        present = {int(v) for v in db.entries[:32]} & set(targets.items)
        out = multi_item_search(db, sub, targets, 4, seed=14)
        if out.success:
            assert set(out.located) == present
        for item, addr in out.located.items():
            assert db.lookup(addr) == item

    @settings(derandomize=True, deadline=None)
    @given(instances(), st.integers(0, 2))
    def test_presence_matches_set_reference(self, instance, ghosts):
        # targets absent from the database, and a subdomain holding only
        # part of it, against per-element set membership
        n, k, seed = instance
        db, targets = build_database(n, k, seed=seed)
        targets = TargetSet(targets.items + tuple(range(db.size + 1,
                                                        db.size + 1 + ghosts)))
        sub = np.arange(max(1, db.size // 2))
        out = multi_item_search(db, sub, targets, targets.k, seed)
        present = {int(v) for v in db.entries[sub]} & set(targets.items)
        assert out.success == (set(out.located) == present)
        if ghosts > 0:
            assert not parallel_search(db, 1, targets, seed, 1).success

    def test_find_times_are_increasing_and_bounded(self):
        db, targets = build_database(8, 3, seed=15)
        out = multi_item_search(db, np.arange(256), targets, 3, seed=16)
        times = sorted(out.find_times.values())
        assert times == sorted(set(times))
        assert all(0 <= t <= out.ledger.oracle_counts[0] for t in times)


class TestRandomPartition:
    def test_single_cell(self):
        cells = random_partition(8, 1, seed=0)
        assert len(cells) == 1
        np.testing.assert_array_equal(cells[0], np.arange(8))

    def test_eight_into_four(self):
        cells = random_partition(8, 4, seed=1)
        assert [c.size for c in cells] == [2, 2, 2, 2]
        combined = np.concatenate(cells)
        assert sorted(combined.tolist()) == list(range(8))

    @pytest.mark.parametrize("N,d", [(10, 3), (1024, 16), (100, 7)])
    def test_soundness_over_seeds(self, N, d):
        for s in range(20):
            cells = random_partition(N, d, seed=s)
            combined = np.concatenate(cells)
            assert sorted(combined.tolist()) == list(range(N))
            sizes = [c.size for c in cells]
            assert max(sizes) - min(sizes) <= 1

    def test_too_many_cells(self):
        with pytest.raises(ValueError):
            random_partition(4, 5, seed=0)


class TestChooseRegime:
    def test_small_k(self):
        params = choose_regime(2 ** 16, 64, 4)
        assert params.regime == "k<=sqrt(d)" and params.t == 2

    def test_mid_k(self):
        params = choose_regime(2 ** 16, 16, 10)
        assert params.regime == "sqrt(d)<k<=d" and params.t == 20

    def test_large_k(self):
        params = choose_regime(2 ** 16, 4, 64)
        assert params.regime == "k>d*lg(d)" and params.t == 32

    def test_between_d_and_dlgd(self):
        params = choose_regime(2 ** 16, 16, 40)
        assert params.regime == "d<k<=d*lg(d)"
        assert params.t == math.ceil(5 * 40 * 4 / 16)

    def test_single_copy(self):
        params = choose_regime(2 ** 10, 1, 4)
        assert params.regime == "d=1" and params.t == 4

    def test_standing_assumption_warns(self):
        with pytest.warns(UserWarning):
            choose_regime(16, 8, 1)

    @pytest.mark.parametrize("t_override", [None, 1])
    def test_one_warning_per_run(self, t_override):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_search_experiment(ExperimentConfig(
                n=4, d=8, k=1, trials=1, seed=0, t_override=t_override))
        assert [w.category for w in caught] == [UserWarning]


class TestTheoremEnvelope:
    def test_d_one_uses_lg_floor(self):
        # lg 1 is treated as 1, recovering the sqrt(N*k) single-copy cost
        assert theorem_envelope(2 ** 10, 1, 4) == pytest.approx(
            math.sqrt(2 ** 10 * 4)
        )

    def test_case_two_value(self):
        assert theorem_envelope(2 ** 12, 16, 16) == pytest.approx(32.0)


class TestMaxloadBound:
    def test_direct_values(self):
        assert maxload_bound(2, 2, 4) == pytest.approx(0.0625)
        assert maxload_bound(1, 1, 1) == pytest.approx(1.0)
        assert maxload_bound(4, 2, 64) == pytest.approx(6 / 4096)

    def test_cap_above_k_is_zero(self):
        assert maxload_bound(16, 20, 16) == 0.0


class TestVerifyLocations:
    def _outcome(self, db, targets, located, d=1):
        from parsearch.algorithms import SearchOutcome

        return SearchOutcome(
            targets=targets, located=located, success=False,
            ledger=QueryLedger(d),
        )

    def test_empty_claim_fails(self):
        db, targets = build_database(4, 2, seed=0)
        out = self._outcome(db, targets, {})
        assert verify_locations(db, out) is False

    def test_correct_map_passes_and_counts_rounds(self):
        db, targets = build_database(4, 3, seed=1)
        located = {int(v): int(a) for a, v in enumerate(db.entries)
                   if v in targets.items}
        out = self._outcome(db, targets, located, d=2)
        assert verify_locations(db, out) is True
        assert out.ledger.verification_rounds == math.ceil(3 / 2)

    def test_one_wrong_address_fails(self):
        db, targets = build_database(4, 2, seed=2)
        located = {int(v): int(a) for a, v in enumerate(db.entries)
                   if v in targets.items}
        first = next(iter(located))
        located[first] = (located[first] + 1) % db.size
        out = self._outcome(db, targets, located)
        assert verify_locations(db, out) is False


class TestParallelSearch:
    def test_d_one_reduction(self):
        # same seed stream => identical oracle-query decisions as the
        # single-database multi-item search with cap k
        for s in range(15):
            db, targets = build_database(8, 3, seed=[41, s])
            par = parallel_search(db, 1, targets, seed=s)
            single = multi_item_search(
                db, np.arange(256), targets, 3,
                seed=derive_stream(s, STREAM_COPY, 0, 0),
            )
            assert par.located == single.located
            assert par.ledger.oracle_counts[0] == single.ledger.oracle_counts[0]

    def test_find_times_are_absolute_rounds(self):
        # k=4 items, d=2 cells of cap t=1: at least two repetitions
        for s in range(20):
            db, targets = build_database(8, 4, seed=[53, s])
            out = parallel_search(db, 2, targets, [54, s], 1)
            assert out.repetitions >= 2
            assert all(0 <= v <= out.parallel_rounds
                       for v in out.find_times.values())
            if out.success:
                assert max(out.find_times.values()) == out.parallel_rounds

    def test_success_soundness(self):
        for s in range(30):
            db, targets = build_database(8, 4, seed=[43, s])
            out = parallel_search(db, 4, targets, seed=[44, s])
            if out.success:
                assert set(out.located) == set(targets.items)
                for item, addr in out.located.items():
                    assert db.lookup(addr) == item

    def test_ledger_rounds_consistency(self):
        db, targets = build_database(10, 4, seed=45)
        out = parallel_search(db, 8, targets, seed=46)
        assert out.parallel_rounds == sum(out.ledger.rounds_per_repetition)
        assert len(out.ledger.rounds_per_repetition) == out.repetitions
        assert max(out.ledger.oracle_counts) <= out.parallel_rounds

    def test_promise_violation_flagged(self):
        db, _ = build_database(6, 2, seed=47)
        ghost = TargetSet([200, 201])  # not in the database
        out = parallel_search(db, 2, ghost, seed=48)
        assert out.success is False
        assert out.repetitions == MAX_REPETITIONS

    def test_invalid_copy_count(self):
        db, targets = build_database(3, 1, seed=0)
        with pytest.raises(ValueError):
            parallel_search(db, 100, targets, seed=0)

    def test_basic_parallel_run(self):
        hits = 0
        for s in range(30):
            db, targets = build_database(10, 2, seed=[49, s])
            out = parallel_search(db, 4, targets, seed=[50, s])
            hits += out.success
        assert hits / 30 >= 3 / 4

    def test_scaling_band(self):
        # desk-scale form of the parallel cost claim: the ratio of measured
        # rounds to the regime expression stays in a fixed band across N
        d, k = 4, 4
        for n in (8, 10, 12):
            rounds = []
            for s in range(30):
                db, targets = build_database(n, k, seed=[51, n, s])
                out = parallel_search(db, d, targets, seed=[52, n, s])
                rounds.append(out.parallel_rounds)
            ratio = np.mean(rounds) / theorem_envelope(1 << n, d, k)
            assert 1 / 8 <= ratio <= 4


def within_four_pooled_errors(a, b):
    """|mean(a) - mean(b)| <= 4 pooled standard errors."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    pooled = (((a.size - 1) * a.var(ddof=1) + (b.size - 1) * b.var(ddof=1))
              / (a.size + b.size - 2))
    stderr = math.sqrt(pooled * (1 / a.size + 1 / b.size))
    return abs(a.mean() - b.mean()) <= 4 * stderr


class TestDenseReference:
    """The closed-form attempt against the dense state-vector attempt."""

    @pytest.mark.parametrize("n,d,k", [(8, 4, 4), (10, 16, 16)])
    def test_parallel_search_matches_dense_reference(self, n, d, k, monkeypatch):
        def run():
            rounds, wins, reps, charged = [], [], [], []
            for s in range(200):
                db, targets = build_database(n, k, seed=[61, n, s])
                out = parallel_search(db, d, targets, seed=[62, n, s])
                rounds.append(out.parallel_rounds)
                wins.append(out.success)
                reps.append(out.repetitions)
                charged.append(sum(out.ledger.oracle_counts))
            return rounds, wins, reps, charged

        fast = run()
        monkeypatch.setattr(algorithms, "_grover_attempt",
                            algorithms._dense_grover_attempt)
        dense = run()
        for a, b in zip(fast, dense):
            assert within_four_pooled_errors(a, b)


class TestStreamIndependence:
    @staticmethod
    def record_seeds(monkeypatch, module, name, seen):
        fn = getattr(module, name)

        def recording(*args, **kwargs):
            seed = inspect.signature(fn).bind(*args, **kwargs).arguments["seed"]
            seen.append((name, seed))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    @pytest.mark.parametrize("d", [1, 4])
    def test_every_stream_of_a_run_is_distinct(self, d, monkeypatch):
        # the database stream, each repetition's partition stream and each
        # repetition's d copy streams, over two trials
        seen = []
        self.record_seeds(monkeypatch, experiments, "build_database", seen)
        self.record_seeds(monkeypatch, algorithms, "random_partition", seen)
        self.record_seeds(monkeypatch, algorithms, "multi_item_search", seen)
        record = run_search_experiment(
            ExperimentConfig(n=6, d=d, k=8, trials=2, seed=5, t_override=1)
        )
        assert all(t["repetitions"] >= 2 for t in record["trials"])
        kinds = Counter(name for name, _ in seen)
        assert kinds["build_database"] == 2
        assert kinds["multi_item_search"] == d * kinds["random_partition"]
        assert kinds["random_partition"] == sum(
            t["repetitions"] for t in record["trials"])
        states = [
            tuple(np.random.default_rng(seed).bit_generator.state["state"].values())
            for _, seed in seen
        ]
        assert len(set(states)) == len(states)


class RecordingLedger(QueryLedger):
    """A ledger that keeps its per-copy counts at every repetition's end."""

    def __init__(self, copies: int = 1):
        super().__init__(copies)
        self.closed = [list(self.oracle_counts)]

    def end_repetition(self) -> int:
        rounds = super().end_repetition()
        self.closed.append(list(self.oracle_counts))
        return rounds


class TestLedgerRule:
    """Properties of the accounting rule stated on ``QueryLedger``."""

    @settings(derandomize=True, deadline=None)
    @given(instances(), st.integers(1, 6))
    def test_known_count_search_returns_its_queries(self, instance, j):
        n, k, seed = instance
        db, targets = build_database(n, k, seed=seed)
        j = min(j, db.size)
        addr, queries = grover_search_known(
            MarkedPredicate(db, targets.items, np.arange(db.size)), j, seed)
        assert queries == optimal_iterations(db.size, j) + 1
        assert addr is None or db.lookup(addr) in targets.items

    @settings(derandomize=True, deadline=None)
    @given(instances(), st.booleans())
    def test_unknown_count_search_returns_its_queries(self, instance, absent):
        n, k, seed = instance
        db, targets = build_database(n, k, seed=seed)
        if absent:
            targets = TargetSet([db.size + 1])
        addr, queries = bbht_search_unknown(
            MarkedPredicate(db, targets.items, np.arange(db.size)), seed)
        sqrt_m = math.sqrt(db.size)
        budget = math.ceil(9 / 4 * sqrt_m)
        if db.size > 1:
            budget += 2 * math.ceil(math.log(sqrt_m) / math.log(6 / 5))
        assert 0 <= queries <= budget
        if absent:
            assert addr is None
        assert addr is None or db.lookup(addr) in targets.items

    @settings(derandomize=True, deadline=None)
    @given(instances(), st.integers(0, 6))
    def test_multi_item_search_charges_what_the_searches_return(self, instance, t):
        n, k, seed = instance
        db, targets = build_database(n, k, seed=seed)
        returned = []

        def recording(search):
            def run(*args, **kwargs):
                returned.append(search(*args, **kwargs))
                return returned[-1]
            return run

        with mock.patch.object(algorithms, "grover_search_known",
                               recording(grover_search_known)), \
                mock.patch.object(algorithms, "bbht_search_unknown",
                                  recording(bbht_search_unknown)):
            out = multi_item_search(db, np.arange(db.size), targets, t, seed)
        assert out.ledger.oracle_counts == [sum(q for _, q in returned)]
        running, finds = 0, {}
        for addr, queries in returned:
            running += queries
            if addr is not None:
                finds[db.lookup(addr)] = running
        assert out.find_times == finds

    @settings(derandomize=True, deadline=None)
    @given(instances(), st.integers(1, 8), st.integers(0, 3))
    def test_parallel_search_combines_one_copy_charges(self, instance, d, t):
        n, k, seed = instance
        db, targets = build_database(n, k, seed=seed)
        d = min(d, db.size)
        runs = []

        def recording(*args, **kwargs):
            runs.append(multi_item_search(*args, **kwargs))
            return runs[-1]

        with mock.patch.object(algorithms, "QueryLedger", RecordingLedger), \
                mock.patch.object(algorithms, "multi_item_search", recording):
            out = parallel_search(db, d, targets, seed, t)
        ledger = out.ledger
        reps = ledger.rounds_per_repetition
        assert len(reps) == out.repetitions
        assert out.parallel_rounds == sum(reps)
        assert ledger.verification_rounds == out.repetitions * math.ceil(k / d)

        closed = 0
        for i, rounds in enumerate(reps):
            copies = runs[i * d:(i + 1) * d]
            charges = [b - a for a, b in zip(ledger.closed[i], ledger.closed[i + 1])]
            assert rounds == max(charges)
            assert all(c <= own.ledger.oracle_counts[0]
                       for c, own in zip(charges, copies))
            # items found in this repetition: find times after every
            # earlier repetition's, within this one's rounds
            found = {y for own in copies for y in own.located}
            assert all(closed < out.find_times[y] <= closed + rounds for y in found)
            closed += rounds
        if out.success:
            assert max(out.find_times.values()) == out.parallel_rounds

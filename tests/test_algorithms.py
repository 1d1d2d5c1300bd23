"""Tests for the search algorithms and partition machinery."""
import inspect
import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parsearch import algorithms, experiments
from parsearch.algorithms import (
    MAX_REPETITIONS,
    SearchOutcome,
    TargetSet,
    bbht_search_unknown,
    cell_sizes,
    choose_regime,
    grover_search_known,
    maxload_bound,
    maxload_exceedance,
    multi_item_search,
    optimal_iterations,
    parallel_search,
    random_partition,
    theorem_envelope,
    verify_locations,
)
from parsearch.core import (
    MAX_EXPLICIT_BITS,
    STREAM_COPY,
    STREAM_PARTITION,
    Database,
    MarkedPredicate,
    PlantedDatabase,
    QueryLedger,
    derive_stream,
    marked_addresses,
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


def search_one_cell(db, subdomain, targets, t, seed):
    """``multi_item_search`` with one copy, whose cell is *subdomain*."""
    marked = marked_addresses(db, targets.items, subdomain)
    return multi_item_search(db, [len(subdomain)], marked, np.zeros_like(marked),
                             targets, t, seed)


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
        np.testing.assert_array_equal(db.explicit().entries, entries)

    @settings(derandomize=True, deadline=None)
    @given(st.integers(0, 10), st.data(), st.integers(0, 2 ** 32 - 1))
    def test_reads_match_the_explicit_table(self, n, data, seed):
        # lookup, items_at and locate of the k stored addresses against the
        # same reads of the N-entry table; both refuse an address outside
        # [0, N)
        N = 1 << n
        k = data.draw(st.integers(1, min(N, 12)))
        db, targets = build_database(n, k, seed)
        table = db.explicit()
        assert db.size == table.size and db.m == table.m == n + 1
        assert [db.lookup(a) for a in range(N)] == table.entries.tolist()
        some = data.draw(st.lists(st.integers(0, N - 1), max_size=20))
        np.testing.assert_array_equal(db.items_at(some), table.items_at(some))
        outside = data.draw(st.lists(st.integers(-2, -1) | st.integers(N, N + 1),
                                     min_size=1, max_size=4))
        for base in (db, table):
            for a in outside:
                with pytest.raises(IndexError):
                    base.lookup(a)
            with pytest.raises(IndexError):
                base.items_at(some + outside)
        wanted = data.draw(st.sets(st.integers(-2, N + k + 2), max_size=8))
        for items in (targets.items, wanted):
            np.testing.assert_array_equal(db.locate(items), table.locate(items))

    def test_explicit_table_is_refused_above_its_limit(self):
        with pytest.raises(ValueError, match="explicit"):
            PlantedDatabase(MAX_EXPLICIT_BITS + 1, [0]).explicit()

    @pytest.mark.parametrize("n,d,k,t", [
        (8, 4, 4, None),
        (8, 3, 5, None),    # cells of 86, 85 and 85 addresses
        (8, 2, 6, 1),       # a cap override: several repetitions
    ])
    def test_parallel_search_is_the_same_on_the_explicit_table(self, n, d, k, t):
        for s in range(40):
            db, targets = build_database(n, k, seed=[65, n, d, s])
            stored, table = (parallel_search(base, d, targets, [66, s], t)
                             for base in (db, db.explicit()))
            assert stored.located == table.located
            assert stored.find_times == table.find_times
            assert stored.success == table.success
            assert stored.repetitions == table.repetitions
            assert stored.ledger.oracle_counts == table.ledger.oracle_counts
            assert (stored.ledger.rounds_per_repetition
                    == table.ledger.rounds_per_repetition)
            assert (stored.ledger.verification_rounds
                    == table.ledger.verification_rounds)


class TestGroverSearchKnown:
    def test_four_addresses_one_marked(self):
        db, targets = build_database(2, 1, seed=0)
        for s in range(25):
            addr, queries = grover_search_known(
                MarkedPredicate.scan(db, targets.items, np.arange(4)), 1, seed=s
            )
            assert queries == 2
            assert addr is not None and db.lookup(addr) == 1

    def test_all_marked_needs_no_iterations(self):
        entries = np.ones(8, dtype=np.int64)
        db = Database(n=3, m=1, entries=entries)
        addr, queries = grover_search_known(
            MarkedPredicate.scan(db, [1], np.arange(8)), 8, seed=3
        )
        assert queries == 1
        assert addr is not None

    def test_large_search_success_rate(self):
        db, targets = build_database(10, 1, seed=5)
        hits = 0
        for s in range(10 ** 4):
            addr, queries = grover_search_known(
                MarkedPredicate.scan(db, targets.items, np.arange(1024)), 1, seed=[5, s]
            )
            assert queries == 26
            hits += addr is not None
        assert abs(hits / 10 ** 4 - 0.9995) < 0.002

    def test_overlarge_assumed_count(self):
        db, targets = build_database(3, 1, seed=0)
        with pytest.raises(ValueError):
            grover_search_known(MarkedPredicate.scan(db, targets.items, np.arange(8)),
                                9, seed=0)


class TestBbhtSearchUnknown:
    def test_nothing_to_find(self):
        db, _ = build_database(8, 1, seed=1)
        absent = TargetSet([500])
        cutoff = math.ceil(9 / 4 * 16) + 2 * math.ceil(math.log(16) / math.log(6 / 5))
        addr, queries = bbht_search_unknown(
            MarkedPredicate.scan(db, absent.items, np.arange(256)), seed=2)
        assert addr is None
        assert queries <= cutoff

    def test_mean_queries_within_envelope(self):
        db, targets = build_database(8, 4, seed=11)
        totals, hits = [], 0
        for s in range(10 ** 4):
            addr, queries = bbht_search_unknown(
                MarkedPredicate.scan(db, targets.items, np.arange(256)), seed=[11, s]
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
                MarkedPredicate.scan(db, [1], np.arange(64)), seed=s
            )
            assert addr is not None
            totals.append(queries)
        assert np.mean(totals) <= 3

    def test_empty_subdomain_rejected(self):
        db, targets = build_database(3, 1, seed=0)
        with pytest.raises(ValueError):
            bbht_search_unknown(
                MarkedPredicate.scan(db, targets.items, np.array([], dtype=np.int64)),
                seed=0)


class TestMultiItemSearch:
    def test_zero_cap_is_empty(self):
        db, targets = build_database(4, 2, seed=3)
        out = search_one_cell(db, np.arange(16), targets, 0, seed=0)
        assert out.located == {}
        assert out.ledger.oracle_counts[0] == 0
        # and so is every copy of several cells, with or without targets
        out = multi_item_search(db, [4, 4, 4, 4], marked_addresses(db, targets.items),
                                [1, 1], targets, 0, seed=0)
        assert out.located == {} and out.ledger.oracle_counts == [0, 0, 0, 0]

    def test_two_of_sixteen(self):
        successes, totals = 0, []
        for s in range(10 ** 4):
            db, targets = build_database(4, 2, seed=[7, s])
            out = search_one_cell(db, np.arange(16), targets, 2, seed=[8, s])
            successes += out.success
            totals.append(out.ledger.oracle_counts[0])
        assert successes / 10 ** 4 >= 3 / 4
        assert np.mean(totals) <= 4 * math.sqrt(16 * 2)

    def test_single_item_reduces_to_plain_grover(self):
        db, targets = build_database(10, 1, seed=9)
        totals = []
        for s in range(200):
            out = search_one_cell(db, np.arange(1024), targets, 1, seed=[9, s])
            totals.append(out.ledger.oracle_counts[0])
        # 25 iterations plus the check on success; the occasional fallback
        # adds more
        assert np.median(totals) == 26

    def test_success_means_all_present_located(self):
        db, targets = build_database(6, 4, seed=13)
        # search only half the address space: success must track what is
        # actually present there, not all of k
        sub = np.arange(32)
        present = set(db.items_at(sub).tolist()) & set(targets.items)
        out = search_one_cell(db, sub, targets, 4, seed=14)
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
        out = search_one_cell(db, sub, targets, targets.k, seed)
        present = set(db.items_at(sub).tolist()) & set(targets.items)
        assert out.success == (set(out.located) == present)
        if ghosts > 0:
            assert not parallel_search(db, 1, targets, seed, 1).success

    def test_cell_order_does_not_matter(self):
        # a copy's search reads only its cell's size and marked addresses,
        # so the order in which the (address, cell) pairs come is no input
        for s in range(200):
            db, targets = build_database(6, 4, seed=[17, s])
            addresses = marked_addresses(db, targets.items)
            cells = np.random.default_rng([18, s]).integers(0, 3, addresses.size)
            shuffle = np.random.default_rng([18, s]).permutation(addresses.size)
            shuffled, ordered = (
                multi_item_search(db, [22, 21, 21], a, c, targets, 4, seed=[19, s])
                for a, c in ((addresses[shuffle], cells[shuffle]), (addresses, cells)))
            assert shuffled.located == ordered.located
            assert shuffled.find_times == ordered.find_times
            assert shuffled.ledger.oracle_counts == ordered.ledger.oracle_counts

    def test_find_times_are_increasing_and_bounded(self):
        db, targets = build_database(8, 3, seed=15)
        out = search_one_cell(db, np.arange(256), targets, 3, seed=16)
        times = sorted(out.find_times.values())
        assert times == sorted(set(times))
        assert all(0 <= t <= out.ledger.oracle_counts[0] for t in times)

    def test_the_missing_items_are_read_once_per_call(self):
        # a predicate per cell holding a target must not rebuild the set of
        # all k' missing items, nor read the items at its addresses, and a
        # find must not look its item up: those cost O(k' * cells) per
        # repetition
        class CountingItems(tuple):
            reads = 0

            def __iter__(self):
                CountingItems.reads += 1
                return super().__iter__()

        class CountingDatabase:
            """A database that counts the reads of each of its attributes."""

            def __init__(self, db):
                self.db, self.reads = db, Counter()

            def __getattr__(self, name):
                self.reads[name] += 1
                return getattr(self.db, name)

        db, targets = build_database(12, 64, seed=17)
        addresses = db.locate(targets.items)
        cells = random_partition(db.size, 64, addresses, seed=18)
        assert np.unique(cells).size >= 32
        object.__setattr__(targets, "items", CountingItems(targets.items))
        counting = CountingDatabase(db)
        out = multi_item_search(counting, cell_sizes(db.size, 64), addresses, cells,
                                targets, 2, seed=19)
        assert len(out.located) >= 32
        assert CountingItems.reads == 1
        assert counting.reads["items_at"] == 1
        assert counting.reads["lookup"] == 0

    @pytest.mark.parametrize("sizes,addresses,cells", [
        ([4, 4], [1, 2], [0]),          # one cell per address
        ([4, 4], [1, 2], [0, 2]),       # no cell 2
        ([4, 4], [1, 2], [0, -1]),
        ([1, 4], [1, 2], [0, 0]),       # two marked addresses, one-address cell
        ([4, 4], [0, 1], [0, 1]),       # address 0 holds no target item
        ([4, 4], [1, 3], [0, 1]),       # target 1 at two addresses
    ])
    def test_rejects_inconsistent_cells(self, sizes, addresses, cells):
        # targets 1 and 2, with 1 stored at addresses 1 and 3
        db = Database(n=3, m=2, entries=np.array([0, 1, 2, 1, 0, 0, 0, 0]))
        with pytest.raises(ValueError):
            multi_item_search(db, sizes, addresses, cells, TargetSet([1, 2]), 1,
                              seed=0)


class TestEmptyCellLaw:
    """The programs of copies whose cells hold no target, drawn at once,
    against the same program run attempt by attempt on an empty predicate."""

    DRAWS = 4000

    def attempt_by_attempt(self, M, t, seed):
        pred = MarkedPredicate(M, [])
        rng = np.random.default_rng(seed)
        lengths = []
        for _ in range(self.DRAWS):
            hit, known = grover_search_known(pred, min(t, M), rng)
            miss, unknown = bbht_search_unknown(pred, rng)
            assert hit is None and miss is None
            lengths.append(known + unknown)
        return np.array(lengths)

    @pytest.mark.parametrize("M,t", [(1, 3), (2, 1), (37, 5), (500, 35), (1024, 2)])
    def test_matches_the_attempt_by_attempt_program(self, M, t):
        drawn = algorithms._empty_programs(np.full(self.DRAWS, M), t,
                                           np.random.default_rng([71, M, t]))
        reference = self.attempt_by_attempt(M, t, [72, M, t])
        assert drawn.min() == reference.min() and drawn.max() == reference.max()
        assert within_four_pooled_errors(drawn, reference)

    def test_two_sizes_in_one_draw_keep_their_own_laws(self):
        # parallel_search's cells have two sizes, drawn in one stage loop
        sizes = np.tile([1049, 1048], self.DRAWS)
        drawn = algorithms._empty_programs(sizes, 2, np.random.default_rng(73))
        for M in (1048, 1049):
            reference = self.attempt_by_attempt(M, 2, [74, M])
            mine = drawn[sizes == M]
            assert mine.min() == reference.min() and mine.max() == reference.max()
            assert within_four_pooled_errors(mine, reference)

    def test_steps_per_cell_in_one_draw_keep_their_own_laws(self):
        # the rest of a copy emptied by its last find at step i has
        # t - i + 1 steps, fewer than t, drawn with the other cells
        cells = [(31, 1), (31, 2), (6, 3), (500, 4), (1023, 1)]
        sizes, steps = (np.tile(column, self.DRAWS) for column in zip(*cells))
        drawn = algorithms._empty_programs(sizes, steps, np.random.default_rng(77))
        for M, s in cells:
            reference = self.attempt_by_attempt(M, s, [78, M, s])
            mine = drawn[(sizes == M) & (steps == s)]
            assert mine.min() == reference.min() and mine.max() == reference.max()
            assert within_four_pooled_errors(mine, reference)

    def test_zero_cap_programs_are_empty(self):
        drawn = algorithms._empty_programs([1, 37, 1024], 0, np.random.default_rng(0))
        assert drawn.tolist() == [0, 0, 0]


class TestRandomPartition:
    def test_single_cell(self):
        cells = random_partition(8, 1, [3, 5, 0], seed=0)
        assert cells.tolist() == [0, 0, 0]

    def test_eight_into_four(self):
        cells = random_partition(8, 4, np.arange(8), seed=1)
        assert np.bincount(cells, minlength=4).tolist() == [2, 2, 2, 2]

    @pytest.mark.parametrize("N,d", [(10, 3), (1024, 16), (100, 7)])
    def test_soundness_over_seeds(self, N, d):
        sizes = cell_sizes(N, d)
        assert sizes.sum() == N and sizes.max() - sizes.min() <= 1
        assert (np.diff(sizes) <= 0).all()
        for s in range(20):
            # every address placed: each cell is full
            cells = random_partition(N, d, np.arange(N), seed=s)
            np.testing.assert_array_equal(np.bincount(cells, minlength=d), sizes)
            some = random_partition(N, d, np.arange(0, N, 3), seed=s)
            assert (np.bincount(some, minlength=d) <= sizes).all()

    @pytest.mark.parametrize("N,d,k", [(7, 2, 3), (10, 3, 4), (9, 4, 5), (6, 6, 3),
                                       (5, 2, 5), (12, 5, 2)])
    def test_loads_follow_the_hypergeometric_law(self, N, d, k):
        # exact law of the loads of k addresses in the d blocks of a uniform
        # permutation: prod_c C(s_c, l_c) / C(N, k); every frequency within
        # four standard errors, and no load above its cell's size
        draws = 20000
        sizes = cell_sizes(N, d).tolist()
        rng = np.random.default_rng([81, N, d, k])
        seen = Counter()
        for _ in range(draws):
            loads = np.bincount(random_partition(N, d, np.arange(N - k, N), rng),
                                minlength=d)
            assert loads.size == d and all(l <= s for l, s in zip(loads, sizes))
            seen[tuple(loads.tolist())] += 1
        for loads in itertools.product(*(range(s + 1) for s in sizes)):
            if sum(loads) != k:
                continue
            p = math.prod(math.comb(s, l) for s, l in zip(sizes, loads)) / math.comb(N, k)
            freq = seen.pop(loads, 0) / draws
            assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / draws)
        assert not seen

    def test_too_many_cells(self):
        with pytest.raises(ValueError):
            random_partition(4, 5, [0], seed=0)

    def test_repeated_address_rejected(self):
        with pytest.raises(ValueError):
            random_partition(8, 2, [3, 3], seed=0)


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

    def test_clamped_to_one_without_overflow(self):
        # C(2000, 1000) alone exceeds every float
        assert maxload_bound(2000, 1000, 1) == 1.0
        assert maxload_bound(4, 1, 2) == 1.0

    def test_union_bound_is_on_a_cell_above_the_cap(self):
        # d * C(k, t + 1) * d**(-(t + 1)): P(some cell holds at least t + 1)
        rec = experiments.run_maxload_check(k=8, d=4, t=4, n=12)
        assert rec["union_bound"] == 4 * math.comb(8, 5) / 4 ** 5
        # d * C(k, t + 1) = d**(t + 1) exactly, where the float product
        # d * (C(23, 2) / 253**2) reads 0.9999999999999999: clamped to 1
        # on integers
        assert experiments.run_maxload_check(k=23, d=253, t=1)["union_bound"] == 1.0

    def test_union_bound_never_undercuts_the_exact_law(self):
        for n in range(5):
            N = 1 << n
            for d, k in itertools.product(range(1, N + 1), range(N + 1)):
                for t in range(k + 1):
                    rec = experiments.run_maxload_check(k, d, t, n)
                    assert rec["exceedance"] <= rec["union_bound"] <= 1


def integer_exceedance(N, d, k, t):
    """1 - [x^k] prod_c sum_{i<=t} C(s_c, i) x^i / C(N, k), in integers."""
    poly = [1]
    for size in cell_sizes(N, d).tolist():
        cap = [math.comb(size, i) for i in range(min(t, size) + 1)]
        out = [0] * min(len(poly) + len(cap) - 1, k + 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(cap[:len(out) - i]):
                out[i + j] += a * b
        poly = out
    within = poly[k] if k < len(poly) else 0
    return Fraction(math.comb(N, k) - within, math.comb(N, k))


class TestMaxloadExceedance:
    def test_matches_the_integer_formula_on_every_small_cell(self):
        # every (N, d, k, t) with N <= 12 and t <= k + 1, within 1e-12 of
        # the exact value both absolutely and relatively
        seen = Counter()
        for N in range(1, 13):
            for d, k in itertools.product(range(1, N + 1), range(N + 1)):
                for t in range(k + 2):
                    want = integer_exceedance(N, d, k, t)
                    got = maxload_exceedance(N, d, k, t)
                    assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 12) * want, \
                        (N, d, k, t)
                    seen.update({"d does not divide N": N % d != 0, "t = 0": t == 0,
                                 "t >= k": t >= k, "t * d < k": t * d < k})
        assert len(seen) == 4 and min(seen.values()) > 100

    def test_tiny_exceedance_keeps_its_digits(self):
        # d = N - 1: only the one two-address cell can overflow a cap of 1,
        # so the exceedance is C(k, 2) / C(N, 2), about 5e-32 here
        N, k = 2 ** 62, 1024
        want = Fraction(k * (k - 1), N * (N - 1))
        got = maxload_exceedance(N, N - 1, k, 1)
        assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 12) * want

    @pytest.mark.parametrize("N,d,k,t,rounded", [
        (2 ** 12, 8, 16, 4, 0.30983), (2 ** 12, 64, 64, 3, 0.70493),
        (2 ** 14, 16, 16, 2, 0.80460), (2 ** 20, 1024, 32, 2, 0.00461)])
    def test_matches_the_hypergeometric_sampler(self, N, d, k, t, rounded):
        # 10**5 draws of numpy's multivariate hypergeometric cell loads: the
        # frequency of a load above t lies within four standard errors
        p = maxload_exceedance(N, d, k, t)
        assert round(p, 5) == rounded
        rng = np.random.default_rng([90, N, d, k, t])
        draws, chunk = 10 ** 5, 2000
        exceed = sum(
            int(np.count_nonzero(rng.multivariate_hypergeometric(
                cell_sizes(N, d), k, size=chunk, method="count").max(axis=1) > t))
            for _ in range(draws // chunk))
        assert abs(exceed / draws - p) <= 4 * math.sqrt(p * (1 - p) / draws)

    @pytest.mark.parametrize("N,d,k,t", [(4, 5, 1, 1), (4, 0, 1, 1), (4, 2, 5, 1),
                                         (4, 2, -1, 1), (4, 2, 1, -1)])
    def test_rejects_out_of_range(self, N, d, k, t):
        with pytest.raises(ValueError):
            maxload_exceedance(N, d, k, t)


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
        located = {db.lookup(a): a for a in db.locate(targets.items).tolist()}
        out = self._outcome(db, targets, located, d=2)
        assert verify_locations(db, out) is True
        assert out.ledger.verification_rounds == math.ceil(3 / 2)

    def test_one_wrong_address_fails(self):
        db, targets = build_database(4, 2, seed=2)
        located = {db.lookup(a): a for a in db.locate(targets.items).tolist()}
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
            single = search_one_cell(db, np.arange(256), targets, 3,
                                     seed=derive_stream(s, STREAM_COPY, 0))
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

    def test_an_item_stored_twice_is_refused(self):
        # the search takes one address per target item: target 1 at
        # addresses 1 and 3 of the table is refused, not searched
        db = Database(n=3, m=3, entries=np.array([0, 1, 2, 1, 3, 4, 5, 6]))
        with pytest.raises(ValueError, match="two addresses"):
            parallel_search(db, 2, TargetSet([1, 2]), seed=0)

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


class TestLargeN:
    def test_a_trial_at_n_40_holds_no_table(self):
        # one trial's traced peak stays flat in N: at N = 2^40 it is below
        # 1 MB, where one N-entry table would take 8 TB
        cfg = ExperimentConfig(n=40, d=64, k=64, trials=1, seed=3)
        run_search_experiment(cfg)      # first-call allocations
        tracemalloc.start()
        try:
            record = run_search_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record["trials"][0]["success"]
        assert peak < 1 << 20


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


def per_copy_search(db, cell, targets, t, seed):
    """One copy's iterated search as a separate call: the scan of its
    cell's addresses, then the step loop.  Returns the located items, their
    find times and the copy's whole program."""
    rng = np.random.default_rng(seed)
    pred = MarkedPredicate.scan(db, targets, cell)
    located, find_times, queries = {}, {}, 0
    for i in range(1, t + 1):
        if len(located) == len(targets) or pred.size == 0:
            break
        addr, q = grover_search_known(pred, min(t - i + 1, pred.size), rng)
        queries += q
        if addr is None:
            addr, q = bbht_search_unknown(pred, rng)
            queries += q
            if addr is None:
                break
        located[db.lookup(addr)] = addr
        find_times[db.lookup(addr)] = queries
        pred = pred.without(addr)
    return located, find_times, queries


def per_copy_parallel_search(db, d, targets, seed):
    """The reference engine: each repetition cuts a uniform permutation of
    all N addresses into d blocks and runs every copy's search on its own,
    on the stream ``(STREAM_COPY, rep, c)``, under the same lockstep rule."""
    N = db.size
    t = choose_regime(N, d, targets.k).t
    outcome = SearchOutcome(targets=targets, located={}, success=False,
                            ledger=QueryLedger(d), repetitions=0)
    for rep in range(MAX_REPETITIONS):
        outcome.repetitions += 1
        missing = [y for y in targets.items if y not in outcome.located]
        perm = np.random.default_rng(
            derive_stream(seed, STREAM_PARTITION, rep)).permutation(N)
        copies = [per_copy_search(db, cell, missing, t,
                                  derive_stream(seed, STREAM_COPY, rep, c))
                  for c, cell in enumerate(np.array_split(perm, d))]
        if {y for located, _, _ in copies for y in located} == set(missing):
            stop = max(when for _, times, _ in copies for when in times.values())
        else:
            stop = max(queries for _, _, queries in copies)
        outcome.ledger.record_repetition(
            [min(queries, stop) for _, _, queries in copies])
        for located, _, _ in copies:
            outcome.located.update(located)
        outcome.success = verify_locations(db, outcome)
        if outcome.success:
            break
    return outcome


class TestPerCopyReference:
    """One ``multi_item_search`` call per repetition, with only the targets
    placed and the empty copies' programs drawn at once, against the
    engine that permutes every address and searches each copy on its own."""

    @pytest.mark.parametrize("n,d,k", [(8, 4, 4), (10, 16, 16), (12, 64, 4), (8, 2, 6)])
    def test_parallel_search_matches_per_copy_reference(self, n, d, k):
        def run(search):
            rounds, wins, reps, charged = [], [], [], []
            for s in range(600):
                db, targets = build_database(n, k, seed=[63, n, d, s])
                out = search(db, d, targets, [64, n, d, s])
                rounds.append(out.parallel_rounds)
                wins.append(out.success)
                reps.append(out.repetitions)
                charged.append(sum(out.ledger.oracle_counts))
            return rounds, wins, reps, charged

        for a, b in zip(run(parallel_search), run(per_copy_parallel_search)):
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

    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_every_stream_of_a_run_is_distinct(self, d, monkeypatch):
        # over two trials: the database stream, and in each repetition one
        # partition stream and one stream for all of its copies' searches
        seen, streams = [], []
        self.record_seeds(monkeypatch, experiments, "build_database", seen)
        self.record_seeds(monkeypatch, algorithms, "random_partition", seen)
        self.record_seeds(monkeypatch, algorithms, "multi_item_search", seen)
        derive = algorithms.derive_stream

        def deriving(seed, purpose, *indices):
            streams.append(((purpose, indices), derive(seed, purpose, *indices)))
            return streams[-1][1]

        monkeypatch.setattr(algorithms, "derive_stream", deriving)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # d = 16 exceeds sqrt(N)
            record = run_search_experiment(
                ExperimentConfig(n=6, d=d, k=8, trials=2, seed=5, t_override=1)
            )
        reps = [t["repetitions"] for t in record["trials"]]
        assert all(r >= 2 for r in reps)
        kinds = Counter(name for name, _ in seen)
        assert kinds["build_database"] == 2
        assert kinds["multi_item_search"] == kinds["random_partition"] == sum(reps)
        # the only derivations in algorithms: per repetition, in order, the
        # partition's stream, then the copies' one stream
        assert [kind for kind, _ in streams] == [
            (purpose, (rep,)) for count in reps for rep in range(count)
            for purpose in (STREAM_PARTITION, STREAM_COPY)]
        # the partition's and the searches' seeds are those streams
        derived = [stream for _, stream in streams]
        seeds = [seed for name, seed in seen if name != "build_database"]
        assert len(seeds) == len(derived)
        assert all(seed is stream for seed, stream in zip(seeds, derived))
        states = [
            tuple(np.random.default_rng(seed).bit_generator.state["state"].values())
            for seed in [seed for name, seed in seen if name == "build_database"]
            + derived
        ]
        assert len(set(states)) == len(states)


class RecordingLedger(QueryLedger):
    """A ledger that keeps its per-copy counts at every repetition's end."""

    def __init__(self, copies: int = 1):
        super().__init__(copies)
        self.closed = [list(self.oracle_counts)]

    def record_repetition(self, charges) -> int:
        rounds = super().record_repetition(charges)
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
            MarkedPredicate.scan(db, targets.items, np.arange(db.size)), j, seed)
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
            MarkedPredicate.scan(db, targets.items, np.arange(db.size)), seed)
        sqrt_m = math.sqrt(db.size)
        budget = math.ceil(9 / 4 * sqrt_m)
        if db.size > 1:
            budget += 2 * math.ceil(math.log(sqrt_m) / math.log(6 / 5))
        assert 0 <= queries <= budget
        if absent:
            assert addr is None
        assert addr is None or db.lookup(addr) in targets.items

    @settings(derandomize=True, deadline=None)
    @given(instances(), st.integers(1, 8), st.integers(0, 6))
    def test_multi_item_search_charges_what_the_searches_return(self, instance, d, t):
        n, k, seed = instance
        db, targets = build_database(n, k, seed=seed)
        d = min(d, db.size)
        addresses = marked_addresses(db, targets.items)
        cells = random_partition(db.size, d, addresses, seed)
        sizes = cell_sizes(db.size, d)
        events = []

        def recording(name, fn):
            def run(*args, **kwargs):
                events.append((name, args, kwargs, fn(*args, **kwargs)))
                return events[-1][3]
            return run

        with mock.patch.object(algorithms, "MarkedPredicate",
                               recording("cell", MarkedPredicate)), \
                mock.patch.object(algorithms, "grover_search_known",
                                  recording("search", grover_search_known)), \
                mock.patch.object(algorithms, "bbht_search_unknown",
                                  recording("search", bbht_search_unknown)), \
                mock.patch.object(algorithms, "_empty_programs",
                                  recording("drawn", algorithms._empty_programs)):
            out = multi_item_search(db, sizes, addresses, cells, targets, t, seed)
        # a predicate for each cell holding a target, in cell order, then
        # the searches on it; then, if some copy has steps left, one draw
        # for every copy with no marked address left: each empty cell from
        # its first step, and each cell whose last find emptied it while
        # items and steps are left
        held = np.unique(cells).tolist()
        names = [name for name, _, _, _ in events]
        assert names.count("cell") == len(held)
        charged, finds, found, order = {}, {}, Counter(), iter(held)
        rest = {c: (int(sizes[c]), t) for c in range(d) if c not in held}
        draws = []
        for name, args, kwargs, result in events:
            if name == "cell":
                c = next(order)
                charged[c] = 0
            elif name == "search":
                addr, queries = result
                charged[c] += queries
                if addr is not None:
                    finds[db.lookup(addr)] = charged[c]
                    found[c] += 1
            else:
                draws.append((args, kwargs, result))
        for c in held:
            f = found[c]
            if f == np.count_nonzero(cells == c) and f < min(t, k, sizes[c]):
                rest[c] = (int(sizes[c]) - f, t - f)
        assert len(draws) == any(steps for _, steps in rest.values())
        if draws:
            (drawn_sizes, drawn_steps, _), kwargs, lengths = draws[0]
            assert list(zip(drawn_sizes.tolist(), drawn_steps.tolist())) == \
                [rest[c] for c in sorted(rest)]
            # once every item is located, each rest is drawn up to the
            # lockstep halt less the queries its copy has made; else whole
            if len(finds) == k:
                stop = max(finds.values())
                assert kwargs["limits"].tolist() == \
                    [stop - charged.get(c, 0) for c in sorted(rest)]
            else:
                assert kwargs["limits"] is None
            # such a copy is charged its searches so far plus its drawn rest
            for c, length in zip(sorted(rest), lengths.tolist()):
                charged[c] = charged.get(c, 0) + length
        # and every charge is cut at the halt
        stop = max(finds.values()) if len(finds) == k else math.inf
        assert out.ledger.oracle_counts == [min(charged.get(c, 0), stop)
                                            for c in range(d)]
        assert out.find_times == finds

    def test_a_cell_emptied_by_its_last_find_is_charged_a_drawn_rest(self):
        # two cells of 32 addresses hold one target each, with t = 3: after
        # its find, a copy's two steps left are drawn, not walked, and cut
        # at the lockstep halt
        db, targets = build_database(6, 2, seed=75)
        addresses = db.locate(targets.items)
        both = 0
        for s in range(20):
            known, draws = [], []

            def recording(calls, fn):
                def run(*args, **kwargs):
                    calls.append((args, fn(*args, **kwargs)))
                    return calls[-1][1]
                return run

            with mock.patch.object(algorithms, "grover_search_known",
                                   recording(known, grover_search_known)), \
                    mock.patch.object(algorithms, "_empty_programs",
                                      recording(draws, algorithms._empty_programs)):
                out = multi_item_search(db, [32, 32], addresses, [0, 1], targets, 3,
                                        [76, s])
            if len(out.located) < 2:
                continue
            both += 1
            assert len(known) == 2      # one known-count attempt per copy
            assert len(draws) == 1
            (sizes, steps, _), lengths = draws[0]
            assert sizes.tolist() == [31, 31] and steps.tolist() == [2, 2]
            items = [db.lookup(a) for a in addresses.tolist()]
            # both items are found, so the copies halt at the later find:
            # each is charged its find plus its rest, cut there, and the
            # rest is at least one known-count attempt
            stop = max(out.find_times.values())
            assert out.ledger.oracle_counts == [
                min(out.find_times[y] + length, stop)
                for y, length in zip(items, lengths.tolist())]
            assert max(out.ledger.oracle_counts) == stop
            first = optimal_iterations(31, 2) + 1
            assert all(length >= first for length in lengths.tolist())
        assert both >= 15

    def test_no_stage_is_drawn_past_the_limits(self):
        # a cell at its limit adds nothing, and once every cell is there
        # the stage loop draws no further stage
        class CountingGenerator:
            def __init__(self, seed):
                self.rng, self.draws = np.random.default_rng(seed), 0

            def integers(self, *args, **kwargs):
                self.draws += 1
                return self.rng.integers(*args, **kwargs)

        def draw(limits):
            rng = CountingGenerator(81)
            lengths = algorithms._empty_programs([37, 1024], 3, rng, limits=limits)
            return lengths.tolist(), rng.draws

        known = [optimal_iterations(M, 3) + 1 for M in (37, 1024)]
        whole, stages = draw(None)
        assert stages > 1
        # with limits of 0 no stage is drawn: each copy has made only its
        # known-count attempt, which the caller cuts at the limit
        assert draw(0) == (known, 0)
        # one stage takes every copy past its known-count attempt, so a
        # limit one above it stops the loop after one draw
        limits = np.array(known) + 1
        cut, draws = draw(limits)
        assert draws == 1
        assert np.minimum(cut, limits).tolist() == np.minimum(whole, limits).tolist()

    @settings(derandomize=True, deadline=None)
    @given(instances(), st.integers(1, 8), st.integers(1, 6), st.integers(0, 2))
    def test_charges_stop_at_the_lockstep_halt(self, instance, d, t, ghosts):
        # the same search twice on one seed, the second with every drawn rest
        # whole: the first charges each copy the second's program up to the
        # halt, the round of the last find once every item is located (a
        # ghost target, stored nowhere, never is; with t = 1 a cell holding
        # two targets leaves one), and finds the same items at the same times
        n, k, seed = instance
        db, targets = build_database(n, k, seed=seed)
        targets = TargetSet(targets.items + tuple(range(db.size + 1,
                                                        db.size + 1 + ghosts)))
        d = min(d, db.size)
        addresses = marked_addresses(db, targets.items)
        cells = random_partition(db.size, d, addresses, seed)
        sizes = cell_sizes(db.size, d)
        out = multi_item_search(db, sizes, addresses, cells, targets, t, seed)
        draw = algorithms._empty_programs
        with mock.patch.object(algorithms, "_empty_programs",
                               lambda sizes, steps, rng, limits=None:
                               draw(sizes, steps, rng)):
            whole = multi_item_search(db, sizes, addresses, cells, targets, t, seed)
        assert out.located == whole.located
        assert out.find_times == whole.find_times
        programs = whole.ledger.oracle_counts
        if len(whole.located) == targets.k:
            stop = max(whole.find_times.values())
        else:
            stop = max(programs)
        assert out.ledger.oracle_counts == [min(p, stop) for p in programs]

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
        assert len(reps) == out.repetitions == len(runs)
        assert out.parallel_rounds == sum(reps)
        assert ledger.verification_rounds == out.repetitions * math.ceil(k / d)

        closed = 0
        for i, (rounds, run) in enumerate(zip(reps, runs)):
            programs = run.ledger.oracle_counts
            assert len(programs) == d
            charges = [b - a for a, b in zip(ledger.closed[i], ledger.closed[i + 1])]
            assert rounds == max(charges)
            # each copy is charged what multi_item_search charged it, which
            # ends at the lockstep halt once every missing item is located
            assert charges == programs
            if set(run.located) == set(run.targets.items):
                assert max(programs) == max(run.find_times.values())
            # items found in this repetition: find times after every
            # earlier repetition's, within this one's rounds
            assert all(closed < out.find_times[y] <= closed + rounds
                       for y in run.located)
            closed += rounds
        if out.success:
            assert max(out.find_times.values()) == out.parallel_rounds

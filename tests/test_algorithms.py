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
    bbht_budget,
    bbht_search_unknown,
    cell_sizes,
    choose_regime,
    grover_search_known,
    maxload_exceedance,
    multi_item_search,
    optimal_iterations,
    parallel_search,
    random_partition,
    theorem_envelope,
    union_bound,
)
from parsearch.core import (
    MAX_EXPLICIT_BITS,
    STREAM_TRIAL,
    Database,
    MarkedPredicate,
    PlantedDatabase,
    QueryLedger,
    derive_stream,
)
from parsearch.experiments import (
    ExperimentConfig,
    build_database,
    run_search_experiment,
)

#: purpose words of the per-copy reference engine's streams: a
#: repetition's permutation, and one copy of a repetition
STREAM_PARTITION, STREAM_COPY = 2, 3


@st.composite
def instances(draw):
    """(n, k, seed) of a database with k targets among 2**n <= 256 addresses."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(6, 1 << n)))
    return n, k, draw(st.integers(0, 2 ** 32 - 1))


def search_one_cell(db, subdomain, targets, t, seed):
    """``multi_item_search`` with one copy, whose cell is *subdomain*, for
    all of *targets*: the cell's marked addresses, and the repetition, whose
    ``found_at[i]`` is the find of the i-th of them."""
    marked = MarkedPredicate.scan(db, targets.items, subdomain).marked
    return marked, multi_item_search([len(subdomain)], np.zeros_like(marked),
                                     targets.k, t, seed)


def located(db, addresses, run):
    """The item -> address map of the addresses that *run* found, its
    ``found_at[i]`` being the find of ``addresses[i]``."""
    found = np.asarray(addresses)[run.found_at >= 0]
    return dict(zip(db.items_at(found).tolist(), found.tolist()))


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
            assert stored.success == table.success
            assert stored.repetitions == table.repetitions
            np.testing.assert_array_equal(stored.ledger.oracle_counts,
                                          table.ledger.oracle_counts)
            assert (stored.ledger.rounds_per_repetition
                    == table.ledger.rounds_per_repetition)


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


def budget_formula(M):
    """ceil(9/4 sqrt(M)) + 2 ceil(log_1.2 sqrt(M)), without the log term at
    M = 1: the unknown-count search's query budget, written out."""
    sqrt_m = math.sqrt(M)
    budget = math.ceil(9 / 4 * sqrt_m)
    if M > 1:
        budget += 2 * math.ceil(math.log(sqrt_m) / math.log(6 / 5))
    return budget


class TestBbhtSearchUnknown:
    def test_nothing_to_find(self):
        db, _ = build_database(8, 1, seed=1)
        absent = TargetSet([500])
        cutoff = budget_formula(256)
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

    def test_the_budget_has_one_formula(self):
        # every M up to 4096, and the largest cells `search` takes
        for M in [*range(1, 4097), 2 ** 62 - 2, 2 ** 62 - 1, 2 ** 62]:
            assert bbht_budget(M) == budget_formula(M)


class TestMultiItemSearch:
    def test_zero_cap_is_empty(self):
        db, targets = build_database(4, 2, seed=3)
        _, out = search_one_cell(db, np.arange(16), targets, 0, seed=0)
        assert out.found_at.tolist() == [-1, -1]
        assert out.ledger.oracle_counts[0] == 0
        # and so is every copy of several cells, with or without targets
        out = multi_item_search([4, 4, 4, 4], [1, 1], targets.k, 0, seed=0)
        assert out.found_at.tolist() == [-1, -1]
        assert out.ledger.oracle_counts.tolist() == [0, 0, 0, 0]

    def test_a_call_is_one_repetition(self):
        # a call records one repetition on its ledger, whether it finds
        # every marked address, some or none
        db, targets = build_database(6, 4, seed=13)
        for t in (0, 1, 4):
            _, out = search_one_cell(db, np.arange(32), targets, t, seed=t)
            assert len(out.ledger.rounds_per_repetition) == 1

    def test_two_of_sixteen(self):
        successes, totals = 0, []
        for s in range(10 ** 4):
            db, targets = build_database(4, 2, seed=[7, s])
            _, out = search_one_cell(db, np.arange(16), targets, 2, seed=[8, s])
            successes += (out.found_at >= 0).all()
            totals.append(out.ledger.oracle_counts[0])
        assert successes / 10 ** 4 >= 3 / 4
        assert np.mean(totals) <= 4 * math.sqrt(16 * 2)

    def test_single_item_reduces_to_plain_grover(self):
        db, targets = build_database(10, 1, seed=9)
        totals = []
        for s in range(200):
            _, out = search_one_cell(db, np.arange(1024), targets, 1, seed=[9, s])
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
        marked, out = search_one_cell(db, sub, targets, 4, seed=14)
        if (out.found_at >= 0).all():
            assert set(located(db, marked, out)) == present

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
        marked, out = search_one_cell(db, sub, targets, targets.k, seed)
        present = set(db.items_at(sub).tolist()) & set(targets.items)
        assert (out.found_at >= 0).all() == (set(located(db, marked, out)) == present)
        if ghosts > 0:
            assert not parallel_search(db, 1, targets, seed, 1).success

    def test_cell_order_does_not_matter(self):
        # a copy's search reads only its cell's size and how many marked
        # addresses it holds, so a shuffle of the cells moves no charge and
        # no cell's finds: a cell's marked addresses take its finds by their
        # order in the cells, whichever addresses they are
        for s in range(200):
            db, targets = build_database(6, 4, seed=[17, s])
            count = db.locate(targets.items).size
            cells = np.random.default_rng([18, s]).integers(0, 3, count)
            shuffle = np.random.default_rng([18, s]).permutation(count)
            shuffled, ordered = (
                multi_item_search([22, 21, 21], c, targets.k, 4, seed=[19, s])
                for c in (cells[shuffle], cells))
            np.testing.assert_array_equal(shuffled.ledger.oracle_counts,
                                          ordered.ledger.oracle_counts)
            for c in range(3):
                np.testing.assert_array_equal(
                    np.sort(shuffled.found_at[cells[shuffle] == c]),
                    np.sort(ordered.found_at[cells == c]))

    def test_finds_are_increasing_and_bounded(self):
        db, targets = build_database(8, 3, seed=15)
        _, out = search_one_cell(db, np.arange(256), targets, 3, seed=16)
        times = sorted(out.found_at[out.found_at >= 0].tolist())
        assert times == sorted(set(times))
        assert all(0 <= t <= out.ledger.oracle_counts[0] for t in times)

    @pytest.mark.parametrize("sizes,cells", [
        ([4, 4], [[0], [1]]),       # cells not 1-d
        ([4, 4], [0, 2]),           # no cell 2
        ([4, 4], [0, -1]),
        ([1, 4], [0, 0]),           # two marked addresses, one-address cell
        ([4, 4], [0, 1, 1]),        # three marked addresses, k = 2
    ])
    def test_rejects_inconsistent_cells(self, sizes, cells):
        with pytest.raises(ValueError):
            multi_item_search(sizes, cells, 2, 1, seed=0)

    def test_rejects_a_search_for_no_item(self):
        with pytest.raises(ValueError, match="k >= max"):
            multi_item_search([4, 4], [], 0, 1, seed=0)


def draw_rests(sizes, steps, rng):
    """The rests of copies whose cells hold no marked address, with *steps*
    steps left each: the step sampler at j = 0, which never hits."""
    sizes = np.asarray(sizes, dtype=np.int64)
    hits, lengths = algorithms._draw_steps(sizes, np.zeros_like(sizes),
                                           np.minimum(steps, sizes), rng,
                                           np.zeros(sizes.shape, dtype=bool))
    assert not hits.any()
    return lengths


class TestEmptyCellLaw:
    """The programs of copies whose cells hold no target, drawn at once by
    the step sampler, against the same program run attempt by attempt on an
    empty predicate."""

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
        drawn = draw_rests(np.full(self.DRAWS, M), t, np.random.default_rng([71, M, t]))
        reference = self.attempt_by_attempt(M, t, [72, M, t])
        assert drawn.min() == reference.min() and drawn.max() == reference.max()
        assert within_four_pooled_errors(drawn, reference)

    def test_two_sizes_in_one_draw_keep_their_own_laws(self):
        # parallel_search's cells have two sizes, drawn in one call
        sizes = np.tile([1049, 1048], self.DRAWS)
        drawn = draw_rests(sizes, 2, np.random.default_rng(73))
        for M in (1048, 1049):
            reference = self.attempt_by_attempt(M, 2, [74, M])
            mine = drawn[sizes == M]
            assert mine.min() == reference.min() and mine.max() == reference.max()
            assert within_four_pooled_errors(mine, reference)

    def test_steps_per_cell_in_one_draw_keep_their_own_laws(self):
        # the rest of a copy emptied by its last find at step i has
        # t - i steps, fewer than t, drawn with the other cells
        cells = [(31, 1), (31, 2), (6, 3), (500, 4), (1023, 1)]
        sizes, steps = (np.tile(column, self.DRAWS) for column in zip(*cells))
        drawn = draw_rests(sizes, steps, np.random.default_rng(77))
        for M, s in cells:
            reference = self.attempt_by_attempt(M, s, [78, M, s])
            mine = drawn[(sizes == M) & (steps == s)]
            assert mine.min() == reference.min() and mine.max() == reference.max()
            assert within_four_pooled_errors(mine, reference)

    def test_zero_cap_programs_are_empty(self):
        # a copy with no step left draws no rest and is charged nothing
        with mock.patch.object(algorithms, "_draw_steps",
                               side_effect=AssertionError("a rest was drawn")):
            out = multi_item_search([1, 37, 1024], [], 1, 0, seed=0)
        assert out.ledger.oracle_counts.tolist() == [0, 0, 0]


class TestStepLaw:
    """One step of the sampler on cells that hold marked addresses, against
    the known-count attempt and its unknown-count fallback run attempt by
    attempt on a predicate with the same marked count."""

    DRAWS = 4000

    # (M, j, assumed): one marked of one, every address marked, the assumed
    # count above, at and below the true one, and a fallback at large M
    @pytest.mark.parametrize("M,j,assumed", [(1, 1, 1), (6, 6, 2), (64, 1, 2),
                                             (37, 3, 5), (37, 3, 3), (1024, 2, 1),
                                             (2048, 8, 60)])
    def test_matches_the_attempt_by_attempt_step(self, M, j, assumed):
        pred = MarkedPredicate(M, np.arange(j))
        rng = np.random.default_rng([79, M, j, assumed])
        hits, queries = [], []
        for _ in range(self.DRAWS):
            addr, known = grover_search_known(pred, assumed, rng)
            unknown = 0
            if addr is None:
                addr, unknown = bbht_search_unknown(pred, rng)
            hits.append(addr is not None)
            queries.append(known + unknown)
        drawn_hits, drawn_queries = algorithms._draw_steps(
            np.full(self.DRAWS, M), np.full(self.DRAWS, j),
            np.full(self.DRAWS, assumed), np.random.default_rng([80, M, j, assumed]),
            np.zeros(self.DRAWS, dtype=bool))
        assert within_four_pooled_errors(drawn_hits, hits)
        assert within_four_pooled_errors(drawn_queries, queries)


def stage_law(M, j):
    """The tabled law of a step's unknown-count stages over M addresses of
    which j are marked, keyed as the step sampler keys it."""
    return algorithms._stage_law(bbht_budget(M), math.isqrt(M),
                                 math.asin(math.sqrt(j / M)))


class TestTabledStepLaw:
    """``TestStepLaw``'s cases, and a rest, drawn as a cell's first step:
    one uniform for the known-count attempt and the tabled law of its
    unknown-count stages, against the same step run attempt by attempt."""

    DRAWS = 4000

    @pytest.mark.parametrize("M,j,assumed", [(1, 1, 1), (6, 6, 2), (64, 1, 2),
                                             (37, 3, 5), (37, 3, 3), (1024, 2, 1),
                                             (2048, 8, 60), (37, 0, 3)])
    def test_matches_the_attempt_by_attempt_step(self, M, j, assumed):
        pred = MarkedPredicate(M, np.arange(j))
        rng = np.random.default_rng([79, M, j, assumed])
        hits, queries = [], []
        for _ in range(self.DRAWS):
            addr, known = grover_search_known(pred, assumed, rng)
            unknown = 0
            if addr is None:
                addr, unknown = bbht_search_unknown(pred, rng)
            hits.append(addr is not None)
            queries.append(known + unknown)
        first = np.ones(self.DRAWS, dtype=bool)
        drawn_hits, drawn_queries = algorithms._draw_steps(
            np.full(self.DRAWS, M), np.full(self.DRAWS, j),
            np.full(self.DRAWS, assumed), np.random.default_rng([80, M, j, assumed]),
            first)
        assert within_four_pooled_errors(drawn_hits, hits)
        assert within_four_pooled_errors(drawn_queries, queries)
        known = optimal_iterations(M, assumed) + 1
        assert known <= drawn_queries.min() and drawn_queries.max() <= known + bbht_budget(M)


def largest_tabled_size() -> int:
    """The largest cell size whose budget is within ``TABLE_BUDGET``, by
    bisection, since the budget grows with the cell size."""
    lo, hi = 1, 1 << 62     # bbht_budget(lo) <= TABLE_BUDGET < bbht_budget(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bbht_budget(mid) <= algorithms.TABLE_BUDGET:
            lo = mid
        else:
            hi = mid
    return lo


LARGEST_TABLED = largest_tabled_size()


def test_the_largest_tabled_size_today():
    # the limit case of both law classes; a change to the budget formula
    # or to TABLE_BUDGET moves it, and both classes with it
    assert LARGEST_TABLED == 52_391_860


class TestMarkedLaw:
    """The tabled law of a step's unknown-count stages over a cell with
    marked addresses, against the stage sampler, which draws a later step
    stage by stage.  The rows assume all M addresses marked, so their
    known-count attempt makes 0 iterations and 1 query and hits with
    probability j / M, and the stages follow it."""

    DRAWS = 20000

    # up to the largest cell size whose budget is within TABLE_BUDGET
    @pytest.mark.parametrize("M,j", [(64, 1), (1024, 3), (1 << 20, 1), (1 << 20, 2),
                                     (LARGEST_TABLED, 1)])
    def test_matches_the_stage_sampler(self, M, j):
        budget = bbht_budget(M)
        law = stage_law(M, j)
        assert law.size == 2 * (budget + 1)
        assert law[-1] == 1.0 and (np.diff(law) >= 0).all()
        mass = np.diff(law, prepend=0.0)
        stopped, hit = mass[:budget + 1], mass[budget + 1:]
        sizes = np.full(self.DRAWS, M)
        hits, queries = algorithms._draw_steps(
            sizes, np.full(self.DRAWS, j), sizes, np.random.default_rng([96, M, j]),
            np.zeros(self.DRAWS, dtype=bool))
        # the step's exact law: the known-count hit at 1 query, else 1 plus
        # the tabled stages
        p0 = j / M
        p_hit = p0 + (1 - p0) * hit.sum()
        mean = 1 + (1 - p0) * float((stopped + hit) @ np.arange(budget + 1))
        assert abs(hits.mean() - p_hit) <= 4 * math.sqrt(p_hit * (1 - p_hit) / self.DRAWS)
        assert abs(queries.mean() - mean) <= 4 * queries.std(ddof=1) / math.sqrt(self.DRAWS)
        # every drawn outcome of the stages has mass in the table
        staged = queries > 1
        assert (stopped[queries[~hits] - 1] > 0).all()
        assert (hit[queries[hits & staged] - 1] > 0).all()


class TestTableCache:
    """A draw takes a table path by its row alone, so a record does not
    depend on which tables are kept."""

    def test_a_record_does_not_depend_on_the_table_cache(self):
        cfg = ExperimentConfig(n=14, d=8, k=64, trials=20, seed=97)
        algorithms._stage_law.cache_clear()
        cold = run_search_experiment(cfg)
        for n, d, k in ((17, 128, 11), (12, 16, 16)):
            run_search_experiment(ExperimentConfig(n=n, d=d, k=k, trials=20, seed=98))
        warm = run_search_experiment(cfg)
        algorithms._stage_law.cache_clear()
        cleared = run_search_experiment(cfg)
        # rests and first steps share one cache: one tiny table more than
        # it keeps, none of a cell's, evicts every table the search built
        for i in range(algorithms._stage_law.cache_info().maxsize + 1):
            algorithms._stage_law(2, 1, i / 1000)
        evicted = run_search_experiment(cfg)
        assert cold == warm == cleared == evicted

    def test_the_kept_tables_fit_in_32_mb(self):
        # a table has 2 (budget + 1) entries, its stops and its hits
        entries = 2 * (algorithms.TABLE_BUDGET + 1)
        assert 8 * algorithms._stage_law.cache_info().maxsize * entries <= 32 << 20


class TestRestLaw:
    """The tabled law of a rest's unknown-count stages, against the stage
    sampler that draws them one by one: a rest is a row with nothing
    marked, so with no table it takes the stage sampler's path."""

    DRAWS = 20000

    @pytest.mark.parametrize("M", [64, 1023, 1024, 1 << 20, LARGEST_TABLED])
    def test_matches_the_stage_sampler(self, M):
        budget = bbht_budget(M)
        assert budget <= algorithms.TABLE_BUDGET
        law = stage_law(M, 0)[:budget + 1]
        mass = np.diff(law, prepend=0.0)
        support = np.flatnonzero(mass)
        mean = float(mass @ np.arange(mass.size))
        sizes = np.full(self.DRAWS, M)
        with mock.patch.object(algorithms, "TABLE_BUDGET", 0):
            hits, queries = algorithms._draw_steps(
                sizes, np.zeros_like(sizes), np.ones_like(sizes),
                np.random.default_rng([93, M]), np.zeros(self.DRAWS, dtype=bool))
        assert not hits.any()
        stages = queries - optimal_iterations(M, 1) - 1
        assert support[0] <= stages.min() and stages.max() <= support[-1]
        assert (mass[stages] > 0).all()
        # 4 pooled standard errors, the table's mean having none
        stderr = stages.std(ddof=1) / math.sqrt(stages.size)
        assert abs(stages.mean() - mean) <= 4 * stderr
        assert law[-1] == 1.0 and (np.diff(law) >= 0).all()

    @pytest.mark.parametrize("M", [64, 1 << 20, LARGEST_TABLED])
    def test_a_rest_never_hits(self, M):
        # at theta = 0 the hit half adds no mass, so from entry budget on
        # the table is exactly 1, above every key: each draw is a stop
        budget = bbht_budget(M)
        law = stage_law(M, 0)
        assert law.size == 2 * (budget + 1)
        assert (law[budget:] == 1.0).all()
        assert np.searchsorted(law, algorithms._BELOW_ONE, side="right") <= budget

    def test_the_largest_size_under_the_limit(self):
        # a rest of that size draws from a table, and one of the next size
        # takes the stage loop
        budget = bbht_budget(LARGEST_TABLED)
        assert budget <= algorithms.TABLE_BUDGET < bbht_budget(LARGEST_TABLED + 1)
        draw = algorithms._stage_law
        sizes = np.array([LARGEST_TABLED, LARGEST_TABLED + 1])
        with mock.patch.object(algorithms, "_stage_law", side_effect=draw) as built:
            algorithms._draw_steps(sizes, np.zeros_like(sizes), np.ones_like(sizes),
                                   np.random.default_rng(95), np.zeros(2, dtype=bool))
        assert {call.args[0] for call in built.call_args_list} == {budget}

    def test_nearby_sizes_share_one_table(self):
        # the stages read M through its budget and int(sqrt(M)) alone, so
        # 64 sizes from 2^20 on take two tables
        draw = algorithms._stage_law
        sizes = np.arange(1 << 20, (1 << 20) + 64)
        with mock.patch.object(algorithms, "_stage_law", side_effect=draw) as built:
            algorithms._draw_steps(sizes, np.zeros_like(sizes), np.ones_like(sizes),
                                   np.random.default_rng(94), np.zeros(sizes.shape, dtype=bool))
        keys = {call.args for call in built.call_args_list}
        assert keys == {(bbht_budget(M), math.isqrt(M), 0.0) for M in sizes.tolist()}
        assert len(keys) == 2


class TestRandomPartition:
    def test_single_cell(self):
        cells = random_partition(np.cumsum(cell_sizes(8, 1)), 3, seed=0)
        assert cells.tolist() == [0, 0, 0]

    def test_eight_into_four(self):
        cells = random_partition(np.cumsum(cell_sizes(8, 4)), 8, seed=1)
        assert np.bincount(cells, minlength=4).tolist() == [2, 2, 2, 2]

    @pytest.mark.parametrize("N,d", [(10, 3), (1024, 16), (100, 7)])
    def test_soundness_over_seeds(self, N, d):
        sizes = cell_sizes(N, d)
        assert sizes.sum() == N and sizes.max() - sizes.min() <= 1
        assert (np.diff(sizes) <= 0).all()
        for s in range(20):
            # every address placed: each cell is full
            cells = random_partition(np.cumsum(sizes), N, seed=s)
            np.testing.assert_array_equal(np.bincount(cells, minlength=d), sizes)
            some = random_partition(np.cumsum(sizes), len(range(0, N, 3)), seed=s)
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
            loads = np.bincount(random_partition(np.cumsum(sizes), k, rng), minlength=d)
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
            random_partition(np.cumsum(cell_sizes(4, 5)), 1, seed=0)

    @pytest.mark.parametrize("n", [0, 1, 3, 6, 12, 33, 62])
    def test_matches_the_closed_form_layout(self, n):
        # the same draw of positions, each mapped to its block by the
        # closed form of the equipartition's layout, the larger blocks
        # first; d = N where the N cells fit in memory
        N = 1 << n
        copies = {1, 2, 3, 7, 1000, 65537} | ({N - 1, N} if n <= 12 else set())
        for d in sorted(d for d in copies if 1 <= d <= N):
            base, extra = divmod(N, d)
            big = extra * (base + 1)
            for count in sorted({0, 1, min(N, 5), min(N, 64)}):
                seed = [95, n, d, count]
                p = np.random.default_rng(seed).choice(N, size=count, replace=False)
                want = np.where(p < big, p // (base + 1), extra + (p - big) // base)
                got = random_partition(np.cumsum(cell_sizes(N, d)), count, seed)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("N", [1, 8, 1 << 62])
    def test_cell_sizes_refuse_d_outside_one_to_n(self, N):
        for d in (0, N + 1):
            with pytest.raises(ValueError, match="1 <= d <= N"):
                cell_sizes(N, d)

    def test_refuses_no_cells(self):
        with pytest.raises(ValueError):
            random_partition(np.cumsum([]), 0, seed=0)


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
    @pytest.mark.parametrize("d", range(1, 70))
    def test_union_bound_grid(self, d):
        # min(1, d * C(k, t + 1) * d**(-(t + 1))) against the exact rational:
        # 0 from t = k on, 1 exactly where the integers clamp it, and
        # otherwise below 1 by at most the float value's rounding
        for k in range(45):
            for t in range(k + 2):
                bound = union_bound(k, t, d)
                if t >= k:
                    assert bound == 0.0
                    continue
                exact = Fraction(d * math.comb(k, t + 1), d ** (t + 1))
                if exact >= 1:
                    assert bound == 1.0
                else:
                    assert bound < 1
                    assert abs(Fraction(bound) - exact) <= Fraction(1e-15) * exact

    def test_direct_values(self):
        # d * C(k, t + 1) / d**(t + 1), worked by hand
        assert union_bound(2, 1, 4) == 4 * 1 / 16
        assert union_bound(4, 1, 64) == 64 * 6 / 4096
        assert union_bound(8, 4, 4) == 4 * 56 / 1024

    def test_cap_above_k_is_zero(self):
        assert union_bound(16, 16, 16) == union_bound(16, 20, 16) == 0.0

    def test_clamped_to_one_without_overflow(self):
        # C(2000, 1000) alone exceeds every float
        assert union_bound(2000, 999, 1) == 1.0
        bound = union_bound(2000, 999, 4)
        exact = Fraction(4 * math.comb(2000, 1000), 4 ** 1000)
        assert 0 < bound < 1
        assert abs(Fraction(bound) - exact) <= Fraction(1e-15) * exact

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


class TestParallelSearch:
    def test_d_one_reduction(self):
        # the same generator, past the same d = 1 partition => identical
        # oracle-query decisions as the single-database multi-item search
        # with cap k, and the same draws consumed
        for s in range(15):
            db, targets = build_database(8, 3, seed=[41, s])
            rng = np.random.default_rng(s)
            par = parallel_search(db, 1, targets, seed=rng)
            g = np.random.default_rng(s)
            random_partition(np.array([256]), 3, g)
            marked, single = search_one_cell(db, np.arange(256), targets, 3, seed=g)
            assert par.located == located(db, marked, single)
            assert par.ledger.oracle_counts[0] == single.ledger.oracle_counts[0]
            assert rng.bit_generator.state == g.bit_generator.state

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

    @pytest.mark.parametrize("entries, targets, refused", [
        ([0, 1, 2, 1, 3, 4, 5, 6], [1, 2], True),   # target 1 at addresses 1 and 3
        ([1, 0, 1, 2, 3, 1, 4, 5], [1, 2], True),   # target 1 at three addresses
        ([1, 2, 0, 1, 3, 2, 4, 5], [1, 2], True),   # targets 1 and 2 at two each
        ([6, 0, 1, 2, 3, 4, 5, 6], [1, 6], True),   # the first and last address
        ([0, 1, 0, 2, 3, 3, 0, 4], [1, 2], False),  # fillers repeat, targets once
    ], ids=["twice", "three-times", "two-items-twice", "first-and-last",
            "repeated-fillers"])
    def test_an_item_stored_twice_is_refused(self, entries, targets, refused):
        # the search takes one address per target item: a target item stored
        # at more than one address is refused, not searched, before any
        # partition is drawn; fillers may repeat
        db = Database(n=3, m=3, entries=np.array(entries))
        if not refused:
            out = parallel_search(db, 2, TargetSet(targets), seed=0)
            assert out.success
            assert out.located == {y: entries.index(y) for y in targets}
            return
        with pytest.raises(ValueError, match="two addresses"):
            parallel_search(db, 2, TargetSet(targets), seed=0)
        with mock.patch.object(algorithms, "random_partition",
                               side_effect=AssertionError("a partition was drawn")), \
                pytest.raises(ValueError, match="two addresses"):
            parallel_search(db, 2, TargetSet(targets), seed=0)

    def test_the_targets_are_read_once_per_search(self):
        # the targets' addresses are found, and their items read, once per
        # search, however many repetitions run: a find is its copy's checked
        # address, so success is read off the find array, with no second
        # read of the database or of the target set, and no find looks its
        # item up.  Rebuilding the set of the k' missing items or reading
        # their items in each repetition costs O(k') per repetition.  With
        # a target stored nowhere, every repetition runs and fails
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
        ghost = TargetSet(targets.items + (db.size + 1,))
        for wanted, found in ((targets, True), (ghost, False)):
            CountingItems.reads = 0
            object.__setattr__(wanted, "items", CountingItems(wanted.items))
            counting = CountingDatabase(db)
            out = parallel_search(counting, 64, wanted, seed=18, t=1)
            assert out.success is found
            if found:
                assert out.repetitions >= 3
            else:
                assert out.repetitions == MAX_REPETITIONS
            assert counting.reads["locate"] == 1
            assert counting.reads["items_at"] == 1
            assert counting.reads["lookup"] == 0
            assert CountingItems.reads == 1

    @settings(derandomize=True, deadline=None)
    @given(instances(), st.integers(1, 8), st.integers(0, 3), st.integers(0, 2))
    def test_success_is_every_target_located(self, instance, d, t, ghosts):
        # located comes only from database reads, so every located address
        # holds its item, and the search succeeds exactly when each target,
        # ghosts (items stored nowhere) included, is located
        n, k, seed = instance
        db, targets = build_database(n, k, seed=seed)
        d = min(d, db.size)
        targets = TargetSet(targets.items + tuple(range(db.size + 1,
                                                        db.size + 1 + ghosts)))
        out = parallel_search(db, d, targets, seed, t)
        assert out.success == (set(out.located) == set(targets.items))
        for item, addr in out.located.items():
            assert db.lookup(addr) == item

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


def run_trials(search, n, d, k, trials, db_seed, search_seed):
    """Per-trial parallel rounds, successes, repetitions and total charges
    of *search* with d copies: trial s builds its database of k targets in
    2**n addresses on ``[*db_seed, s]`` and searches it on
    ``[*search_seed, s]``."""
    rounds, wins, reps, charged = [], [], [], []
    for s in range(trials):
        db, targets = build_database(n, k, seed=[*db_seed, s])
        out = search(db, d, targets, [*search_seed, s])
        rounds.append(out.parallel_rounds)
        wins.append(out.success)
        reps.append(out.repetitions)
        charged.append(sum(out.ledger.oracle_counts))
    return rounds, wins, reps, charged


class TestDenseReference:
    """The engine against the per-copy reference engine run on the dense
    state-vector attempt."""

    @pytest.mark.parametrize("n,d,k", [(8, 4, 4), (10, 16, 16)])
    def test_parallel_search_matches_dense_reference(self, n, d, k, monkeypatch):
        fast = run_trials(parallel_search, n, d, k, 200, [61, n], [62, n])
        monkeypatch.setattr(algorithms, "_grover_attempt",
                            algorithms._dense_grover_attempt)
        dense = run_trials(per_copy_parallel_search, n, d, k, 200, [61, n], [62, n])
        for a, b in zip(fast, dense):
            assert within_four_pooled_errors(a, b)


def per_copy_search(db, cell, targets, t, seed):
    """One copy's iterated search as a separate call: the scan of its
    cell's addresses, then the step loop.  Returns the located items, the
    queries made when each was found and the copy's whole program."""
    rng = np.random.default_rng(seed)
    pred = MarkedPredicate.scan(db, targets, cell)
    located, finds, queries = {}, {}, 0
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
        finds[db.lookup(addr)] = queries
        pred = pred.without(addr)
    return located, finds, queries


def per_copy_parallel_search(db, d, targets, seed):
    """The reference engine: each repetition cuts a uniform permutation of
    all N addresses into d blocks and runs every copy's search on its own,
    on the stream ``(STREAM_COPY, rep, c)``, under the same lockstep rule."""
    N = db.size
    t = choose_regime(N, d, targets.k).t
    outcome = SearchOutcome(located={}, success=False, ledger=QueryLedger(d))
    for rep in range(MAX_REPETITIONS):
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
        outcome.success = set(outcome.located) == set(targets.items)
        if outcome.success:
            break
    return outcome


class TestPerCopyReference:
    """One ``multi_item_search`` call per repetition, with only the targets
    placed and the empty copies' programs drawn at once, against the
    engine that permutes every address and searches each copy on its own."""

    @pytest.mark.parametrize("n,d,k", [(8, 4, 4), (10, 16, 16), (12, 64, 4), (8, 2, 6)])
    def test_parallel_search_matches_per_copy_reference(self, n, d, k):
        runs = [run_trials(search, n, d, k, 600, [63, n, d], [64, n, d])
                for search in (parallel_search, per_copy_parallel_search)]
        for a, b in zip(*runs):
            assert within_four_pooled_errors(a, b)


class TestManyStepsPerCell:
    """The engine, which draws every step a copy could make at once and
    cuts each copy at its first miss, against the per-copy reference, which
    stops a copy there, at cells where a copy makes several steps: d = 2
    with k > d lg d, and d = 1."""

    @pytest.mark.parametrize("n,d,k", [(10, 2, 12), (8, 1, 6)])
    def test_parallel_search_matches_per_copy_reference(self, n, d, k):
        runs = [run_trials(search, n, d, k, 600, [87, n, d], [88, n, d])
                for search in (parallel_search, per_copy_parallel_search)]
        for a, b in zip(*runs):
            assert within_four_pooled_errors(a, b)


class TestStreamIndependence:
    """A search trial draws everything from one generator, seeded by its
    own stream ``(STREAM_TRIAL, trial)`` of the run's seed: its database,
    then per repetition its partition and then its copies' steps."""

    @staticmethod
    def record_seeds(monkeypatch, module, name, seen):
        fn = getattr(module, name)

        def recording(*args, **kwargs):
            seed = inspect.signature(fn).bind(*args, **kwargs).arguments["seed"]
            seen.append((name, seed, seed.bit_generator.state))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_every_stream_of_a_run_is_distinct(self, d, monkeypatch):
        # over two trials: with k = 2d targets and cap 1, each takes at
        # least two repetitions
        seen = []
        self.record_seeds(monkeypatch, experiments, "build_database", seen)
        self.record_seeds(monkeypatch, algorithms, "random_partition", seen)
        self.record_seeds(monkeypatch, algorithms, "multi_item_search", seen)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # d = 16 exceeds sqrt(N)
            record = run_search_experiment(
                ExperimentConfig(n=6, d=d, k=2 * d, trials=2, seed=5, t_override=1)
            )
        reps = [t["repetitions"] for t in record["trials"]]
        assert len(reps) == 2 and all(r >= 2 for r in reps)
        assert [name for name, _, _ in seen] == [
            name for count in reps for name in
            ["build_database"] + ["random_partition", "multi_item_search"] * count]
        starts = []
        for trial, count in enumerate(reps):
            calls, seen = seen[:1 + 2 * count], seen[1 + 2 * count:]
            rng, start = calls[0][1], calls[0][2]
            assert all(seed is rng for _, seed, _ in calls)
            assert start == np.random.default_rng(
                derive_stream(5, STREAM_TRIAL, trial)).bit_generator.state
            starts.append(start)
        assert starts[0] != starts[1]

    @pytest.mark.parametrize("n,d,k,t", [(12, 16, 16, None), (8, 2, 6, 1)])
    def test_a_trial_does_not_depend_on_the_trial_count(self, n, d, k, t):
        # trial i draws from its own stream alone, so the first trials of a
        # short run are those of a long one; with cap 1 every trial of the
        # second cell takes at least three repetitions
        few, many = (run_search_experiment(ExperimentConfig(
            n=n, d=d, k=k, trials=trials, seed=29, t_override=t))["trials"]
            for trials in (3, 10))
        assert few == many[:3]
        assert t is None or all(trial["repetitions"] >= 3 for trial in many)


class RecordingLedger(QueryLedger):
    """A ledger that keeps its per-copy counts at every repetition's end."""

    def __init__(self, copies: int = 1):
        super().__init__(copies)
        self.closed = [self.oracle_counts.tolist()]

    def record_repetition(self, charges) -> int:
        rounds = super().record_repetition(charges)
        self.closed.append(self.oracle_counts.tolist())
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
        assert 0 <= queries <= budget_formula(db.size)
        if absent:
            assert addr is None
        assert addr is None or db.lookup(addr) in targets.items

    @settings(derandomize=True, deadline=None)
    @given(instances(), st.integers(1, 8), st.integers(0, 6), st.booleans(),
           st.integers(0, 2))
    def test_multi_item_search_charges_what_the_searches_return(self, instance, d, t,
                                                                 rigged, ghosts):
        # a ghost target, stored nowhere, is never located, so a search with
        # one never halts; with t = 1 a cell holding two targets leaves one
        n, k, seed = instance
        db, targets = build_database(n, k, seed=seed)
        targets = TargetSet(targets.items + tuple(range(db.size + 1,
                                                        db.size + 1 + ghosts)))
        d = min(d, db.size)
        sizes = cell_sizes(db.size, d)
        cells = random_partition(np.cumsum(sizes), db.locate(targets.items).size, seed)
        calls = []
        draw = algorithms._draw_steps

        def recording(*args):
            hits, queries = draw(*args)
            if rigged:
                # misses are rare at these sizes: make about a third of the
                # steps miss, so that copies stop before their last row
                hits = hits & (np.random.default_rng(seed).random(hits.size) > 1 / 3)
            calls.append((args, (hits, queries)))
            return hits, queries

        with mock.patch.object(algorithms, "_draw_steps", recording):
            out = multi_item_search(sizes, cells, targets.k, t, seed)
        # one call draws a row for each step i = 1..min(load, t) of every
        # copy, in (cell, step) order, over the M = size - i + 1 addresses
        # left, load - i + 1 of them marked, each assuming min(t - i + 1, M),
        # and flags the rows with i = 1, each cell's first step.
        # A copy that would still have steps, items and addresses left once
        # it has found its cell's every marked address has one more row,
        # its rest, at i = load + 1 with nothing marked.  A copy is charged
        # its rows up to and including its first miss, and each hit before
        # that miss is a find at the copy's queries so far
        loads = np.bincount(cells, minlength=d)
        rest = [loads[c] < t and loads[c] < targets.k and loads[c] < sizes[c]
                for c in range(d)]
        rows = [(c, i) for c in range(d)
                for i in range(1, min(loads[c], t) + rest[c] + 1)]
        charged = np.zeros(d, dtype=np.int64)
        times = {c: [] for c in range(d)}
        assert len(calls) == bool(rows)
        if rows:
            (row_sizes, row_marked, assumed, _, first), (hits, queries) = calls[0]
            assert row_sizes.tolist() == [sizes[c] - i + 1 for c, i in rows]
            assert first.tolist() == [i == 1 for _, i in rows]
            assert row_marked.tolist() == [loads[c] - i + 1 for c, i in rows]
            assert assumed.tolist() == [min(t - i + 1, sizes[c] - i + 1)
                                        for c, i in rows]
            assert not hits[row_marked == 0].any()
            missed = set()
            for (c, i), hit, q in zip(rows, hits.tolist(), queries.tolist()):
                if c in missed:
                    continue
                charged[c] += q
                if hit:
                    times[c].append(int(charged[c]))
                else:
                    missed.add(c)
        # once every target is located the copies halt at the last find, and
        # every charge is cut there; each copy's finds are addresses of its
        # cell at the times of its hits
        finds = [when for c in range(d) for when in times[c]]
        stop = max(finds) if len(finds) == targets.k else None
        assert out.ledger.oracle_counts.tolist() == [
            int(c) if stop is None else min(int(c), stop) for c in charged]
        for c in range(d):
            mine = out.found_at[(cells == c) & (out.found_at >= 0)]
            assert sorted(mine.tolist()) == times[c]

    # (n, d, k, t): d = 1 with k = t = 32, 32 steps in one cell; then the
    # three acceptance cells
    @pytest.mark.parametrize("n,d,k,t", [(8, 1, 32, 32), (12, 64, 4, None),
                                         (12, 16, 16, None), (14, 8, 64, None)])
    def test_at_most_two_sampler_calls_per_search(self, n, d, k, t):
        # exactly one call, with a row for every step a copy could make and
        # one for every rest
        db, targets = build_database(n, k, seed=[82, n, d, k])
        if t is None:
            t = choose_regime(db.size, d, k).t
        count = db.locate(targets.items).size
        sizes = cell_sizes(db.size, d)
        draw = algorithms._draw_steps
        for s in range(10):
            cells = random_partition(np.cumsum(sizes), count, [83, s])
            with mock.patch.object(algorithms, "_draw_steps", side_effect=draw) as calls:
                multi_item_search(sizes, cells, k, t, [84, s])
            assert calls.call_count == 1
            loads = np.bincount(cells, minlength=d)
            rests = (loads < min(t, k)) & (loads < sizes)
            assert calls.call_args.args[0].size == (np.minimum(loads, t) + rests).sum()

    def test_a_copy_is_charged_nothing_past_its_first_miss(self):
        # cells 0 and 1 hold three targets each and cell 2 none, t = 3: the
        # one call is made to miss at cell 0's step 2 and at cell 2's rest,
        # and to hit at every other row, with row r costing 10 (r + 1) queries
        cells = np.array([0, 0, 0, 1, 1, 1])
        calls = []

        def rigged(*args):
            calls.append(args)
            hits = np.ones(7, dtype=bool)
            hits[[1, 6]] = False
            return hits, 10 * np.arange(1, 8)

        with mock.patch.object(algorithms, "_draw_steps", rigged):
            out = multi_item_search([32, 32, 32], cells, 6, 3, seed=86)
        times = {c: sorted(out.found_at[(cells == c) & (out.found_at >= 0)].tolist())
                 for c in range(3)}
        # cell 0 is charged its rows 1 and 2, and finds only at row 1; its
        # row 3 is neither charged nor a find
        assert times == {0: [10], 1: [40, 90, 150], 2: []}
        assert (out.found_at < 0).sum() == 2
        # only cell 2 has a rest, its one row: cells 0 and 1 have no step
        # left after their three; with an item unlocated, it is whole
        assert len(calls) == 1
        sizes, marked, assumed, _, first = calls[0]
        assert sizes.tolist() == [32, 31, 30, 32, 31, 30, 32]
        assert first.tolist() == [True, False, False, True, False, False, True]
        assert marked.tolist() == [3, 2, 1, 3, 2, 1, 0]
        assert assumed.tolist() == [3, 2, 1, 3, 2, 1, 3]
        assert out.ledger.oracle_counts.tolist() == [30, 150, 70]

    def test_a_cell_emptied_by_its_last_find_is_charged_a_drawn_rest(self):
        # two cells of 32 addresses hold one target each, with t = 3: after
        # its find at step 1, a copy's rest has t - 1 = 2 steps over the 31
        # addresses left, drawn in the one call after that step, and is cut
        # at the lockstep halt
        draw = algorithms._draw_steps
        first = optimal_iterations(31, 2) + 1
        both = 0
        for s in range(20):
            calls = []

            def recording(*args):
                calls.append((args, draw(*args)))
                return calls[-1][1]

            with mock.patch.object(algorithms, "_draw_steps", recording):
                out = multi_item_search([32, 32], [0, 1], 2, 3, [76, s])
            assert len(calls) == 1      # step 1 and the rest of each copy
            (sizes, marked, steps, _, firsts), (_, queries) = calls[0]
            assert sizes.tolist() == [32, 31, 32, 31]
            assert marked.tolist() == [1, 0, 1, 0] and steps.tolist() == [3, 2, 3, 2]
            assert firsts.tolist() == [True, False, True, False]
            if (out.found_at < 0).any():
                continue
            both += 1
            finds, lengths = queries[0::2].tolist(), queries[1::2].tolist()
            assert out.found_at.tolist() == finds
            # both items are found, so the copies halt at the later find:
            # each is charged its find plus its rest, cut there
            stop = max(finds)
            assert out.ledger.oracle_counts.tolist() == [
                min(find + length, stop) for find, length in zip(finds, lengths)]
            # a rest is its known-count attempt, then unknown-count stages
            # within their budget
            assert all(first <= length <= first + bbht_budget(31) for length in lengths)
        assert both >= 15

    def test_rows_with_nothing_marked_draw_no_hit(self):
        # rows with j = 2 of M = 2^20, later steps of their cells, whose
        # known-count attempts, assuming 60, mostly miss and whose stages are
        # drawn block by block, interleaved in one batch with rows with j = 0 of
        # M = 37: `random` returns one variate for each attempt of a row
        # with j >= 1, its known-count attempt and every stage of the
        # blocks it draws, and one for a row with j = 0, the draw of its
        # rest's stages from their table, which draws no `integers`.  From
        # stage 12 on the cutoffs of M = 2^20 pass sqrt(37), so the last
        # column of a block of stages tells its rows apart
        class CountingGenerator:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.variates = self.live = self.empty = 0

            def random(self, *args, **kwargs):
                out = self.rng.random(*args, **kwargs)
                self.variates += out.size
                return out

            def integers(self, low, high):
                live = high[:, -1] > math.isqrt(37) + 1
                self.live += int(live.sum()) * high.shape[1]
                self.empty += int((~live).sum())
                return self.rng.integers(low, high)

        half = 32
        sizes = np.tile([1 << 20, 37], half)
        marked = np.tile([2, 0], half)
        rng = CountingGenerator(89)
        hits, _ = algorithms._draw_steps(sizes, marked, np.tile([60, 3], half), rng,
                                         np.zeros(sizes.size, dtype=bool))
        assert not hits[marked == 0].any()
        assert rng.live and not rng.empty   # only the rows with j = 2 drew stages
        assert rng.variates == half + half + rng.live

    def test_only_rows_with_a_marked_address_draw_stages(self):
        # 4096 cells of 4096 addresses, of which cells 0 and 1 hold three
        # and two targets, cap 8: each copy's first step and each rest is
        # drawn from its table, one `random` variate and no `integers`, so
        # only the later steps of cells 0 and 1, three rows that assume
        # more marked addresses than they hold, draw stages.  Each block of
        # stages draws `integers` for those rows alone, and `random` one
        # variate per row (its table draw or its known-count hit) plus one
        # per stage
        class CountingGenerator:
            def __init__(self, rng):
                self.rng, self.variates, self.stages, self.widest = rng, 0, 0, 0

            def random(self, *args, **kwargs):
                out = self.rng.random(*args, **kwargs)
                self.variates += out.size
                return out

            def integers(self, low, high):
                self.stages += high.size
                self.widest = max(self.widest, high.shape[0])
                return self.rng.integers(low, high)

        draw = algorithms._draw_steps
        sizes = cell_sizes(1 << 24, 4096)
        cells = np.array([0, 0, 0, 1, 1])
        drew_stages = 0
        for s in range(8):
            calls = []

            def counting(sizes, marked, assumed, rng, first):
                calls.append((marked, first, CountingGenerator(rng)))
                return draw(sizes, marked, assumed, calls[-1][2], first)

            with mock.patch.object(algorithms, "_draw_steps", counting):
                multi_item_search(sizes, cells, 5, 8, [91, s])
            (marked, first, rng), = calls
            later = (marked > 0) & ~first
            assert marked.tolist()[:7] == [3, 2, 1, 0, 2, 1, 0]
            assert later.sum() == 3 and marked.size == 4101
            assert rng.widest <= later.sum()
            assert rng.variates == marked.size + rng.stages
            drew_stages += rng.stages > 0
        assert drew_stages

    def test_a_rest_above_the_table_limit_builds_no_table(self):
        # cells of 2^36 addresses have a budget past TABLE_BUDGET, so
        # their first steps and rests are drawn stage by stage
        assert bbht_budget(1 << 36) > algorithms.TABLE_BUDGET
        built = AssertionError("a table was built")
        with mock.patch.object(algorithms, "_stage_law", side_effect=built):
            out = multi_item_search([1 << 36] * 4, [0, 1], 2, 2, seed=92)
        assert (out.ledger.oracle_counts[2:] > 0).all()

    @settings(derandomize=True, deadline=None)
    @given(instances(), st.integers(1, 8), st.integers(0, 3))
    def test_parallel_search_combines_one_copy_charges(self, instance, d, t):
        n, k, seed = instance
        db, targets = build_database(n, k, seed=seed)
        d = min(d, db.size)
        runs = []

        def recording(sizes, cells, k, t, seed):
            run = multi_item_search(sizes, cells, k, t, seed)
            runs.append((k, run))
            return run

        with mock.patch.object(algorithms, "QueryLedger", RecordingLedger), \
                mock.patch.object(algorithms, "multi_item_search", recording):
            out = parallel_search(db, d, targets, seed, t)
        ledger = out.ledger
        reps = ledger.rounds_per_repetition
        assert len(reps) == out.repetitions == len(runs)
        assert out.parallel_rounds == sum(reps)

        # each repetition searches the addresses not yet found, ascending,
        # and found_at[i] is the find of the i-th of them
        addresses, found = db.locate(targets.items), []
        for i, (rounds, (missing, run)) in enumerate(zip(reps, runs)):
            programs = run.ledger.oracle_counts.tolist()
            assert len(programs) == d
            charges = [b - a for a, b in zip(ledger.closed[i], ledger.closed[i + 1])]
            assert rounds == max(charges)
            # each copy is charged what multi_item_search charged it, which
            # ends at the lockstep halt once every missing item is located
            assert charges == programs
            hit = run.found_at >= 0
            if hit.sum() == missing:
                assert max(programs) == run.found_at.max()
            found += addresses[hit].tolist()
            addresses = addresses[~hit]
        # the addresses found across the repetitions are exactly the located
        # ones, and each located item is the one stored at its address
        at = list(out.located.values())
        assert sorted(found) == sorted(at)
        assert db.items_at(at).tolist() == list(out.located)

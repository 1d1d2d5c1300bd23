"""Tests for the dense state-vector simulator and query accounting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parsearch.core import (
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


def make_db(n, marked_addresses, m=2):
    """Database storing item 1 at marked addresses, 0 elsewhere."""
    entries = np.zeros(1 << n, dtype=np.int64)
    entries[list(marked_addresses)] = 1
    return Database(n=n, m=m, entries=entries)


def marked_mass(state, pred):
    """Probability on the dense state's first j positions, which stand for
    the j marked addresses of *pred*."""
    return float(np.sum(np.abs(state[:pred.marked.size]) ** 2))


def predicate(db, subdomain=None):
    sub = np.arange(db.size) if subdomain is None else np.asarray(subdomain)
    return MarkedPredicate.scan(db=db, targets=frozenset([1]), subdomain=sub)


class TestDatabase:
    def test_size_and_lookup(self):
        db = make_db(3, [5])
        assert db.size == 8
        assert db.lookup(5) == 1
        assert db.lookup(0) == 0

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError):
            Database(n=2, m=1, entries=np.zeros(3, dtype=np.int64))

    def test_item_width_enforced(self):
        with pytest.raises(ValueError):
            Database(n=1, m=1, entries=np.array([0, 2]))


class TestPlantedDatabase:
    @pytest.mark.parametrize("n,addresses,reason", [
        (-1, [], "n >= 0"),
        (3, [1, 1], "distinct"),
        (3, [8], r"lie in \[0, 8\)"),
        (3, [-1], r"lie in \[0, 8\)"),
    ])
    def test_refuses(self, n, addresses, reason):
        with pytest.raises(ValueError, match=reason):
            PlantedDatabase(n, addresses)


@st.composite
def shared_item_predicates(draw):
    """A database whose items 0..3 repeat at several addresses, a
    predicate over an unsorted part of it, that part of the database, and
    the predicate's targets, among them ghosts 5 and 6 stored nowhere."""
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n))
    db = Database(n=n, m=3, entries=np.array(entries, dtype=np.int64))
    sub = draw(st.permutations(range(db.size)))
    sub = np.array(sub[:draw(st.integers(1, db.size))], dtype=np.int64)
    targets = frozenset(draw(st.sets(st.integers(0, 3), min_size=1)) | {5, 6})
    return db, MarkedPredicate.scan(db, targets, sub), sub, targets


class TestMarkedPredicateConstruction:
    def test_scan_keeps_size_and_ascending_marked(self):
        db = make_db(3, [1, 4, 6])
        pred = MarkedPredicate.scan(db, [1], np.array([6, 0, 4, 3]))
        assert pred.size == 4 and pred.marked.tolist() == [4, 6]
        assert db.locate([1]).tolist() == [1, 4, 6]
        assert db.locate([2]).tolist() == []

    @pytest.mark.parametrize("size,marked", [
        (1, [1, 4]),     # more marked addresses than the subdomain holds
        (3, [4, 1]),     # not ascending
        (3, [1, 1]),     # repeated
    ])
    def test_rejects_impossible_marked_addresses(self, size, marked):
        with pytest.raises(ValueError):
            MarkedPredicate(size, marked)


class TestMarkedPredicateWithout:
    @settings(derandomize=True, deadline=None)
    @given(shared_item_predicates(), st.data())
    def test_matches_a_fresh_predicate(self, case, data):
        db, pred, sub, targets = case
        # locate marked addresses one after another until none is left: each
        # leaves the subdomain, and the targets stay as they are
        while pred.marked.size:
            addr = data.draw(st.sampled_from(pred.marked.tolist()))
            shrunk = pred.without(addr)
            sub = sub[sub != addr]
            fresh = MarkedPredicate.scan(db, targets, sub)
            assert shrunk.size == fresh.size == sub.size
            np.testing.assert_array_equal(shrunk.marked, fresh.marked)
            pred = shrunk

    def test_other_addresses_of_the_found_item_stay_marked(self):
        db = make_db(3, [1, 4, 6])
        pred = MarkedPredicate.scan(db, frozenset([1]), np.array([6, 0, 4, 1]))
        shrunk = pred.without(4)
        assert shrunk.size == 3
        np.testing.assert_array_equal(shrunk.marked, [1, 6])
        # the original predicate is left as it was
        np.testing.assert_array_equal(pred.marked, [1, 4, 6])

    @pytest.mark.parametrize("address", [0, 2, 5])
    def test_unmarked_address_rejected(self, address):
        # 0 is unmarked and in the subdomain, 2 and 5 are outside it
        pred = predicate(make_db(3, [1, 5]), [0, 1, 3])
        with pytest.raises(ValueError):
            pred.without(address)


class TestInitUniform:
    def test_single_state(self):
        assert init_uniform(1).tolist() == [1.0]

    def test_four_states(self):
        np.testing.assert_allclose(init_uniform(4), 0.5)

    def test_uniform_distribution(self):
        np.testing.assert_allclose(np.abs(init_uniform(2)) ** 2, [0.5, 0.5])

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            init_uniform(0)


class TestGroverIterate:
    def test_single_marked_of_four_is_exact(self):
        db = make_db(2, [3])
        state = grover_iterate(init_uniform(4), predicate(db))
        assert marked_mass(state, predicate(db)) == pytest.approx(1.0, abs=1e-12)

    def test_empty_marked_set_fixed_point(self):
        db = make_db(2, [])
        state = grover_iterate(init_uniform(4), predicate(db))
        # uniform is a fixed point of the diffusion, up to global sign
        np.testing.assert_allclose(np.abs(state), 0.5, atol=1e-12)

    def test_all_marked_global_phase(self):
        db = make_db(2, range(4))
        before = init_uniform(4)
        after = grover_iterate(before, predicate(db))
        np.testing.assert_allclose(
            np.abs(after) ** 2, np.abs(before) ** 2, atol=1e-12
        )

    def test_dimension_mismatch(self):
        db = make_db(3, [0])
        with pytest.raises(ValueError):
            grover_iterate(init_uniform(4), predicate(db))

    @pytest.mark.parametrize("n,marked", [(4, [3]), (6, [1, 2, 3]), (8, [0])])
    def test_normalization_preserved(self, n, marked):
        db = make_db(n, marked)
        pred = predicate(db)
        state = init_uniform(db.size)
        for _ in range(60):
            state = grover_iterate(state, pred)
            norm = float(np.sum(np.abs(state) ** 2))
            assert abs(norm - 1.0) < 1e-9

    @pytest.mark.parametrize("M,j", [(16, 1), (64, 3), (256, 5)])
    def test_matches_closed_form(self, M, j):
        n = int(math.log2(M))
        db = make_db(n, range(j))
        pred = predicate(db)
        state = init_uniform(M)
        for r in range(1, 30):
            state = grover_iterate(state, pred)
            assert marked_mass(state, pred) == pytest.approx(
                success_probability(M, j, r), abs=1e-9
            )


class TestMeasure:
    def test_deterministic_outcome(self):
        assert measure(np.array([1, 0, 0, 0], dtype=np.complex128), seed=0) == 0
        assert measure(np.array([0, 1], dtype=np.complex128), seed=123) == 1

    def test_same_seed_same_sequence(self):
        state = init_uniform(8)
        a = [measure(state, seed=[9, i]) for i in range(50)]
        b = [measure(state, seed=[9, i]) for i in range(50)]
        assert a == b

    def test_uniform_two_state_frequency(self):
        state = init_uniform(2)
        rng = np.random.default_rng(77)
        hits = sum(measure(state, rng) == 0 for _ in range(10 ** 5))
        assert abs(hits / 10 ** 5 - 0.5) < 0.01

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            measure(np.array([0.5, 0.5], dtype=np.complex128), seed=0)


class TestSuccessProbability:
    def test_exact_small_case(self):
        assert success_probability(4, 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_everything_marked(self):
        assert success_probability(57, 57, 0) == pytest.approx(1.0, abs=1e-12)

    def test_large_single_target(self):
        assert success_probability(1024, 1, 25) == pytest.approx(0.99945, abs=1e-4)

    def test_zero_marked_rejected(self):
        with pytest.raises(ValueError):
            success_probability(8, 0, 1)


def scattered_predicate(M, j):
    """Positions 0..M-1 of a 256-address database, j of them marked at
    seeded random positions."""
    entries = np.zeros(256, dtype=np.int64)
    entries[np.random.default_rng([M, j]).choice(M, j, replace=False)] = 1
    return predicate(Database(n=8, m=1, entries=entries), np.arange(M))


class TestSampleAfter:
    """The closed-form sampler against the dense reference simulator."""

    def test_dense_law_is_the_sampler_law(self):
        # sample_after hits with p = sin^2((2r+1) theta) (0 and 1 when no or
        # every position is marked), then picks a marked position uniformly:
        # p/j on each marked index, (1-p)/(M-j) on each unmarked one
        worst = 0.0
        for M in range(1, 257):
            for j in range(0, min(4, M) + 1):
                pred = scattered_predicate(M, j)
                state = init_uniform(M)
                for r in range(13):
                    if r:
                        state = grover_iterate(state, pred)
                    p = success_probability(M, j, r) if 0 < j < M else j / M
                    law = np.where(np.arange(M) < j, p / max(j, 1),
                                   (1 - p) / max(M - j, 1))
                    worst = max(worst, float(np.abs(np.abs(state) ** 2 - law).max()))
        assert worst <= 1e-9

    @pytest.mark.parametrize("M,j,r", [(16, 1, 1), (64, 3, 2), (256, 4, 5),
                                       (5, 2, 0), (200, 2, 12)])
    def test_seeded_frequencies_match_dense(self, M, j, r):
        draws = 20000
        pred = scattered_predicate(M, j)
        state = init_uniform(M)
        for _ in range(r):
            state = grover_iterate(state, pred)
        rng = np.random.default_rng([31, M, j, r])
        picks = [sample_after(M, j, r, rng) for _ in range(draws)]
        hits = [q for q in picks if q is not None]
        # |frequency - p| <= 0.015 is over 4 standard errors at any p
        assert abs(len(hits) / draws - marked_mass(state, pred)) <= 0.015
        ranks = np.bincount(hits, minlength=j)
        assert ranks.size == j
        assert np.abs(ranks / len(hits) - 1 / j).max() <= 0.03

    def test_nothing_marked_never_hits(self):
        rng = np.random.default_rng(1)
        for M in (1, 7, 256):
            for r in (0, 3, 12):
                assert all(sample_after(M, 0, r, rng) is None for _ in range(200))

    def test_everything_marked_always_hits(self):
        rng = np.random.default_rng(2)
        for M in (1, 7, 256):
            for r in (0, 3, 12):
                picks = [sample_after(M, M, r, rng) for _ in range(200)]
                assert all(q is not None and 0 <= q < M for q in picks)

    def test_no_iterations_hit_with_marked_fraction(self):
        rng = np.random.default_rng(3)
        hits = sum(sample_after(10, 3, 0, rng) is not None for _ in range(20000))
        assert abs(hits / 20000 - 3 / 10) <= 0.015

    @pytest.mark.parametrize("M,j,r", [(0, 0, 0), (4, 5, 1), (4, -1, 1), (4, 1, -1)])
    def test_rejects_bad_arguments(self, M, j, r):
        with pytest.raises(ValueError):
            sample_after(M, j, r, np.random.default_rng(0))


class TestQueryLedger:
    def test_counts_only_increase(self):
        ledger = QueryLedger(2)
        with pytest.raises(ValueError):
            ledger.record_repetition([3, -1])
        # a refused repetition charges nothing
        assert ledger.oracle_counts.tolist() == [0, 0] and ledger.parallel_rounds == 0

    @pytest.mark.parametrize("charges", [[], [4], [4, 7, 5, 1]])
    def test_needs_one_charge_per_copy(self, charges):
        ledger = QueryLedger(3)
        with pytest.raises(ValueError):
            ledger.record_repetition(charges)
        assert ledger.oracle_counts.tolist() == [0, 0, 0]
        assert ledger.rounds_per_repetition == ()

    def test_parallel_rounds_is_max_per_repetition(self):
        ledger = QueryLedger(3)
        assert ledger.record_repetition([4, 7, 0]) == 7
        assert ledger.parallel_rounds == 7
        assert ledger.record_repetition(np.array([0, 0, 5])) == 5
        assert ledger.record_repetition([0, 0, 0]) == 0
        assert ledger.oracle_counts.tolist() == [4, 7, 5]
        assert ledger.rounds_per_repetition == (7, 5, 0)
        assert ledger.parallel_rounds == 12

    def test_needs_one_copy(self):
        with pytest.raises(ValueError):
            QueryLedger(0)

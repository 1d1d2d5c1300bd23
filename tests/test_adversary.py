"""Tests for the lower-bound module: formulas and brute-force enumeration."""
import math
import tracemalloc
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from parsearch.adversary import (
    AdversaryGraph,
    AdversaryStats,
    InfeasibleInstanceError,
    InstanceFamily,
    ambainis_bound,
    build_adversary_graph,
    closed_form_bound,
    _side_stats,
    compute_stats,
    estimated_size,
)
from parsearch.experiments import run_adversary_check


class TestClosedFormBound:
    def test_direct_value(self):
        assert closed_form_bound(1024, 2, 4) == pytest.approx(32.0)

    def test_single_copy_single_item(self):
        assert closed_form_bound(256, 1, 1) == pytest.approx(16.0)

    def test_k_equals_d(self):
        assert closed_form_bound(1024, 4, 4) == pytest.approx(math.sqrt(1024 / 4))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            closed_form_bound(0, 1, 1)


class TestInstanceFamily:
    def test_targets_are_distinct_nonzero(self):
        fam = InstanceFamily(n=2, m=2, d=1, k=2)
        assert fam.targets == (1, 2)
        assert 0 not in fam.targets

    def test_hypothesis_k_at_most_half_item_space(self):
        with pytest.raises(ValueError):
            InstanceFamily(n=2, m=1, d=1, k=2)

    @pytest.mark.parametrize("name,least", [("n", 0), ("m", 1), ("d", 1),
                                            ("k", 1)])
    def test_a_value_below_its_floor_is_named(self, name, least):
        values = {"n": 2, "m": 3, "d": 2, "k": 2, name: least - 1}
        with pytest.raises(ValueError, match=f"need {name} >= {least}, "
                                             f"got {name}={least - 1}"):
            InstanceFamily(**values)


def database(N, items, addrs):
    """The N-entry database of a vertex: each item at its address, zero
    elsewhere."""
    db = [0] * N
    for item, addr in zip(items, addrs):
        db[addr] = item
    return db


class TestBuildGraph:
    def test_single_item_counts(self):
        fam = InstanceFamily(n=2, m=1, d=1, k=1)
        g = build_adversary_graph(fam)
        assert len(g.v0) == 1          # only the all-zero database
        assert len(g.v1) == 4
        missing, placements = g.v0_count_factored
        assert missing * placements == len(g.v0)

    def test_two_item_counts(self):
        fam = InstanceFamily(n=2, m=2, d=1, k=2)
        g = build_adversary_graph(fam)
        assert len(g.v1) == math.comb(4, 2) * math.factorial(2)
        assert len(g.v0) == 2 * 4      # missing-item choice times placements

    def test_edges_differ_in_one_location(self):
        # the edges are exactly the (v0, v1) pairs whose databases differ
        # in one location, each listed once
        for n, k in [(2, 1), (2, 2), (3, 2), (3, 3), (2, 4)]:
            fam = InstanceFamily(n=n, m=k.bit_length() + 1, d=2, k=k)
            g = build_adversary_graph(fam)
            t = fam.targets
            dbs0 = [database(fam.N, t[:miss] + t[miss + 1:], p)
                    for miss, *p in g.v0]
            dbs1 = [database(fam.N, t, p) for p in g.v1]
            expected = set()
            for i0, f0 in enumerate(dbs0):
                for i1, f1 in enumerate(dbs1):
                    diffs = [a for a in range(fam.N) if f0[a] != f1[a]]
                    if len(diffs) == 1:
                        expected.add((i0, i1, diffs[0]))
            edges = set(map(tuple, g.edges.tolist()))
            assert len(edges) == len(g.edges)
            assert edges == expected

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2),
                                     (2, 3), (2, 4), (3, 4), (4, 3),
                                     (0, 1), (1, 1), (3, 5)])
    def test_arrays_match_tuple_enumeration(self, n, k):
        # reference: the same vertices and edges built one tuple at a time.
        # Each v1 row's last target leads to its parent row; its other
        # targets to lexicographic ranks, of width 2 at k = 3, 3 at k = 4
        # and 4 at k = 5, where every removed column but the last has
        # digits both before and after it
        fam = InstanceFamily(n=n, m=k.bit_length() + 1, d=1, k=k)
        addrs = range(fam.N)
        v1 = tuple(permutations(addrs, k))
        kept = tuple(permutations(addrs, k - 1))
        v0 = tuple((miss, p) for miss in range(k) for p in kept)
        index0 = {v: i for i, v in enumerate(v0)}
        edges = tuple((index0[(j, p[:j] + p[j + 1:])], i1, x)
                      for i1, p in enumerate(v1) for j, x in enumerate(p))
        g = build_adversary_graph(fam)
        assert (g.v0.dtype, g.v1.dtype, g.edges.dtype) == (np.int32,) * 3
        assert g.v1.tolist() == [list(p) for p in v1]
        assert g.v0.tolist() == [[miss, *p] for miss, p in v0]
        assert g.edges.tolist() == [list(e) for e in edges]

    def test_arrays_at_the_cap_are_int32(self):
        # n = 19 is the largest n built: 2**19 v1 rows, whose addresses and
        # indices reach 2**19 - 1, still far inside int32
        g = build_adversary_graph(InstanceFamily(n=19, m=2, d=1, k=1))
        assert (g.v0.dtype, g.v1.dtype, g.edges.dtype) == (np.int32,) * 3
        assert g.v1.max() == 2 ** 19 - 1
        assert g.edges[:, 1].max() == 2 ** 19 - 1

    def test_memory_grows_with_k_not_n(self):
        # a vertex holds its k target addresses, not an N-entry database
        fam = InstanceFamily(n=8, m=3, d=1, k=2)
        tracemalloc.start()
        try:
            build_adversary_graph(fam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_benchmark_instance_peak_memory(self):
        # the benchmark's adversary check, (n, m, d, k) = (4, 3, 5, 4):
        # int32 arrays and the counting passes keep its peak near 6 MiB,
        # where int64 arrays and run-length temporaries took 10.24 MiB
        tracemalloc.start()
        try:
            run_adversary_check(4, 3, 5, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_compute_stats_peak_memory(self):
        # the benchmark's graph, built before tracing starts: one sort and
        # one degree count per side keep compute_stats' peak near 2.3 MiB,
        # where two degree counts and a full first counting pass per side
        # took 3.17 MiB
        g = build_adversary_graph(InstanceFamily(n=4, m=3, d=5, k=4))
        tracemalloc.start()
        try:
            compute_stats(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * 2 ** 20

    def test_infeasible_refused_with_estimate(self):
        fam = InstanceFamily(n=10, m=6, d=1, k=4)
        with pytest.raises(InfeasibleInstanceError, match=str(estimated_size(fam))):
            build_adversary_graph(fam)


class TestComputeStats:
    def test_single_item_single_copy(self):
        g = build_adversary_graph(InstanceFamily(n=2, m=1, d=1, k=1))
        stats = compute_stats(g)
        assert (stats.delta0, stats.delta1, stats.ell0, stats.ell1) == (4, 1, 1, 1)

    def test_two_items_two_copies(self):
        g = build_adversary_graph(InstanceFamily(n=2, m=2, d=2, k=2))
        stats = compute_stats(g)
        assert stats.delta0 == 3
        assert stats.delta1 == 2
        assert stats.ell0 <= 2
        assert stats.ell1 <= 2

    @staticmethod
    def repeated_label_graph(d, side, isolated=False):
        """Vertex 0 of one side has six edges at addresses 0, 0, 0, 1, 1, 2:
        per-address counts (3, 2, 1).  Each vertex of the other side has
        one edge, and *isolated* adds one vertex with none."""
        fam = InstanceFamily(n=2, m=2, d=d, k=2)
        addrs = [0, 0, 0, 1, 1, 2]
        hub = [0] * len(addrs)
        leaves = list(range(len(addrs)))
        i0, i1 = (hub, leaves) if side == 0 else (leaves, hub)
        edges = np.array(list(zip(i0, i1, addrs)), dtype=np.int64)
        n0, n1 = max(i0) + 1, max(i1) + 1
        if isolated:
            n0, n1 = (n0, n1 + 1) if side == 0 else (n0 + 1, n1)
        v0 = np.zeros((n0, fam.k), dtype=np.int64)
        v1 = np.zeros((n1, fam.k), dtype=np.int64)
        return AdversaryGraph(family=fam, v0=v0, v1=v1, edges=edges)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("d,ell", [(1, 3), (2, 5), (4, 6)])
    def test_repeated_label_takes_top_d_counts(self, side, d, ell):
        # the top-d sum over counts (3, 2, 1): 3, 3+2, and all six edges
        stats = compute_stats(self.repeated_label_graph(d, side))
        expected = (6, 1, ell, 1) if side == 0 else (1, 6, 1, ell)
        got = (stats.delta0, stats.delta1, stats.ell0, stats.ell1)
        assert got == expected
        assert all(type(v) is int for v in got)

    @staticmethod
    def top_d_reference(vertex, addr, d):
        """Per vertex: a Counter of its edges' addresses, the counts in
        descending order, the first d summed; the largest such sum."""
        labels = {}
        for v, a in zip(vertex, addr):
            labels.setdefault(v, Counter())[a] += 1
        return max(sum(sorted(c.values(), reverse=True)[:d])
                   for c in labels.values())

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_top_d_sum_matches_per_vertex_reference(self, d, seed):
        # random edge lists with repeated (vertex, address) pairs, skewed
        # toward low addresses, so counts reach 6 and more and some vertices
        # have fewer distinct addresses than d; N = 8, so d = 8 takes all.
        # Each side is regular, 16 and 5 edges a vertex, as AdversaryStats
        # needs every top-d sum within the least degree.  The same edges are
        # checked as int32 columns, as built, and as int64 columns
        fam = InstanceFamily(n=3, m=2, d=d, k=2)
        rng = np.random.default_rng(seed)
        size, n0, n1 = 80, 5, 16
        i0 = rng.permutation(np.repeat(np.arange(n0), size // n0))
        i1 = rng.permutation(np.repeat(np.arange(n1), size // n1))
        x = np.minimum(rng.geometric(0.4, size) - 1, fam.N - 1)
        pairs = Counter(zip(i0.tolist(), x.tolist()))
        assert max(pairs.values()) >= 6
        distinct = Counter(v for v, _ in Counter(zip(i1.tolist(), x.tolist())))
        assert min(distinct.values()) < 3     # fewer than d at d = 3 and 8
        expected = (min(Counter(i0.tolist()).values()),
                    min(Counter(i1.tolist()).values()),
                    self.top_d_reference(i0.tolist(), x.tolist(), d),
                    self.top_d_reference(i1.tolist(), x.tolist(), d))
        for dtype in (np.int32, np.int64):
            g = AdversaryGraph(family=fam, v0=np.zeros((n0, 2), dtype=dtype),
                               v1=np.zeros((n1, 2), dtype=dtype),
                               edges=np.column_stack((i0, i1, x)).astype(dtype))
            stats = compute_stats(g)
            got = (stats.delta0, stats.delta1, stats.ell0, stats.ell1)
            assert got == expected
            assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("d", [1, 2, 3, "N"])
    @pytest.mark.parametrize("n,size,dense,spread",
                             [(3, 40, 200, 30), (19, 5000, 3000, 3000)],
                             ids=["int32", "int64"])
    def test_side_stats_match_counter_reference(self, n, size, dense, spread,
                                                d, seed):
        # irregular edge lists: the dense edges crowd onto the last vertices
        # and low addresses, so some (vertex, address) counts reach 6 and
        # more; the spread ones fall anywhere on the side, which leaves some
        # vertices with no edge.  A key is vertex << n | address, so at
        # N = 2**19 a side of more than 2**12 vertices needs int64 keys,
        # and the repeated keys sit at its largest vertices
        N = 1 << n
        d = N if d == "N" else d
        rng = np.random.default_rng(seed)
        vertex = np.concatenate((size - rng.geometric(0.3, dense),
                                 rng.integers(0, size, spread)))
        addr = np.concatenate((rng.geometric(0.5, dense) - 1,
                               rng.integers(0, N, spread)))
        vertex = np.maximum(vertex, 0).astype(np.int32)
        addr = np.minimum(addr, N - 1).astype(np.int32)
        degree = Counter(vertex.tolist())
        assert len(degree) < size
        assert max(Counter(zip(vertex.tolist(), addr.tolist())).values()) >= 6
        largest = int(vertex.max()) << n | (N - 1)
        assert (largest > np.iinfo(np.int32).max) == (n == 19)
        expected = (min(degree[v] for v in range(size)),
                    self.top_d_reference(vertex.tolist(), addr.tolist(), d))
        got = _side_stats(vertex, addr, size, N, d)
        assert got == expected
        assert all(type(v) is int for v in got)

    def test_edge_storage_order_does_not_matter(self):
        # the built edges are stored column by column; the same edge list
        # stored row by row gives the same statistics
        g = build_adversary_graph(InstanceFamily(n=3, m=3, d=2, k=3))
        assert g.edges.flags.f_contiguous
        rows = AdversaryGraph(family=g.family, v0=g.v0, v1=g.v1,
                              edges=np.ascontiguousarray(g.edges))
        assert rows.edges.flags.c_contiguous
        assert compute_stats(rows) == compute_stats(g)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_doubled_edges_double_every_statistic(self, d):
        # every (vertex, address) count is 2, so the counting takes two
        # passes, the second over the one key left of each run
        g = build_adversary_graph(InstanceFamily(n=2, m=3, d=d, k=3))
        twice = AdversaryGraph(family=g.family, v0=g.v0, v1=g.v1,
                               edges=np.repeat(g.edges, 2, axis=0))
        once, doubled = compute_stats(g), compute_stats(twice)
        assert (doubled.delta0, doubled.delta1, doubled.ell0, doubled.ell1) == (
            2 * once.delta0, 2 * once.delta1, 2 * once.ell0, 2 * once.ell1)

    # (delta0, delta1, ell0, ell1) by d, recorded from the statistics
    # before the sort keys were packed.  A key is vertex << s | address
    # with s = n bits (at least 1): at (4, 4) every key fits in int32; at
    # (19, 1) the v1 side's keys reach 2**38 and are int64, while the
    # one v0 vertex's keys still fit
    @pytest.mark.parametrize("n,k,expected", [
        (4, 4, {1: (13, 4, 1, 1), 2: (13, 4, 2, 2), 3: (13, 4, 3, 3),
                4: (13, 4, 4, 4), 5: (13, 4, 5, 4)}),
        (19, 1, {1: (524288, 1, 1, 1), 4: (524288, 1, 4, 1)}),
    ], ids=["int32", "int64"])
    def test_stats_on_both_key_widths(self, n, k, expected):
        fam = InstanceFamily(n=n, m=k.bit_length() + 1, d=1, k=k)
        g = build_adversary_graph(fam)
        largest = (len(g.v1) - 1) << max(n, 1) | (fam.N - 1)
        assert (largest > np.iinfo(np.int32).max) == (n == 19)
        for d, stats in expected.items():
            at_d = AdversaryGraph(family=InstanceFamily(n=n, m=fam.m, d=d, k=k),
                                  v0=g.v0, v1=g.v1, edges=g.edges)
            got = compute_stats(at_d)
            assert (got.delta0, got.delta1, got.ell0, got.ell1) == stats

    @pytest.mark.parametrize("side", [0, 1])
    def test_vertex_without_edge_is_refused(self, side):
        g = self.repeated_label_graph(2, side, isolated=True)
        with pytest.raises(ValueError, match="must be positive"):
            compute_stats(g)

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            AdversaryStats(delta0=1, delta1=1, ell0=2, ell1=1)
        with pytest.raises(ValueError):
            AdversaryStats(delta0=0, delta1=1, ell0=1, ell1=1)


class TestAmbainisBound:
    def test_examples(self):
        assert ambainis_bound(AdversaryStats(4, 1, 1, 1)) == pytest.approx(2.0)
        assert ambainis_bound(AdversaryStats(1, 1, 1, 1)) == pytest.approx(1.0)

    def test_symbolic_combination(self):
        # plugging the claimed statistics into the degree/multiplicity
        # formula reproduces the closed form up to the additive k-1 term
        N, d, k = 16, 2, 2
        stats = AdversaryStats(N - k + 1, k, d, min(d, k))
        assert ambainis_bound(stats) == pytest.approx(
            math.sqrt((N - k + 1) * k / (d * min(d, k)))
        )


class TestProofClaims:
    def test_stats_equal_their_closed_forms(self):
        # every enumerable instance with n <= 4 and k <= min(N, 4), each at
        # its smallest m: delta0 = N - k + 1, delta1 = k,
        # ell0 = min(d, N - k + 1), ell1 = min(d, k)
        checked = 0
        for n in range(5):
            N = 1 << n
            for k in range(1, min(N, 4) + 1):
                m = (k - 1).bit_length() + 1
                for d in (1, 2, 3, 5, 64):
                    stats = compute_stats(build_adversary_graph(
                        InstanceFamily(n=n, m=m, d=d, k=k)))
                    assert (stats.delta0, stats.delta1, stats.ell0,
                            stats.ell1) == (N - k + 1, k, min(d, N - k + 1),
                                            min(d, k)), (n, k, d)
                    checked += 1
        assert checked == 75

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_enumeration_matches_claims(self, n, m, d, k):
        if k > 2 ** (m - 1) or k > 2 ** n:
            return
        fam = InstanceFamily(n=n, m=m, d=d, k=k)
        stats = compute_stats(build_adversary_graph(fam))
        N = fam.N
        assert stats.delta0 == N - k + 1
        assert stats.delta1 == k
        assert stats.ell0 <= d
        assert stats.ell1 <= min(d, k)
        # graph bound dominates the closed form up to the k-1 slack
        assert ambainis_bound(stats) >= closed_form_bound(N, d, k) * math.sqrt(
            (N - k + 1) / N
        ) - 1e-12

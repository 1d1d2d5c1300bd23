"""Lower-bound side: closed-form query bound, brute-force construction of
the hard-instance bipartite graph, and the degree/multiplicity bound formula.

Vertices on one side are databases holding exactly k-1 of the fixed target
items (all other locations zero); on the other side, databases holding all
k targets.  Two databases are adjacent iff they differ in exactly one base
location.  With d copies, an edge is labeled by every d-fold address that
contains the differing base address in some coordinate; the statistics are
computed per base address and combined, which is equivalent and far smaller
than enumerating d-fold addresses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

FEASIBLE_VERTICES = 10 ** 6


class InfeasibleInstanceError(ValueError):
    """Raised when an instance would be too large to build or enumerate."""


def closed_form_bound(N: int, d: int, k: int) -> float:
    """sqrt(N*k / (d * min(d, k))): the parallel-query lower bound."""
    if N < 1 or d < 1 or k < 1:
        raise ValueError("need N, d, k >= 1")
    return math.sqrt(N * k / (d * min(d, k)))


@dataclass(frozen=True)
class InstanceFamily:
    """The hard distinguishing instances: k fixed non-zero target items,
    zero filler everywhere else, with d database copies."""

    n: int
    m: int
    d: int
    k: int

    def __post_init__(self):
        if self.n < 0 or self.m < 1 or self.d < 1 or self.k < 1:
            raise ValueError("need n >= 0, m >= 1, d >= 1, k >= 1")
        if self.k > 2 ** (self.m - 1):
            raise ValueError(
                f"need k <= 2**(m-1): k={self.k}, m={self.m}"
            )
        if self.k > self.N:
            raise ValueError("more targets than addresses")

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def targets(self) -> tuple:
        # distinct non-zero m-bit items; k <= 2**(m-1) guarantees room
        return tuple(range(1, self.k + 1))


@dataclass(frozen=True)
class AdversaryGraph:
    """Explicit vertex sets and labeled edges at brute-force scale.

    Vertices are item tuples of length N.  Each edge ``(i0, i1, x)`` joins
    ``v0[i0]`` to ``v1[i1]`` and carries the single base address ``x`` where
    the two databases differ.
    """

    family: InstanceFamily
    v0: tuple
    v1: tuple
    edges: tuple

    @property
    def v0_count_factored(self) -> tuple:
        """(missing-item choices, placements): k * C(N, k-1) * (k-1)!."""
        fam = self.family
        placements = math.comb(fam.N, fam.k - 1) * math.factorial(fam.k - 1)
        return fam.k, placements


@dataclass(frozen=True)
class AdversaryStats:
    """Minimum degrees and maximum same-label multiplicities of the graph."""

    delta0: int
    delta1: int
    ell0: int
    ell1: int

    def __post_init__(self):
        if min(self.delta0, self.delta1, self.ell0, self.ell1) < 1:
            raise ValueError("all four statistics must be positive")
        if self.ell0 > self.delta0 or self.ell1 > self.delta1:
            raise ValueError("label multiplicity cannot exceed degree")


def estimated_size(fam: InstanceFamily) -> int:
    """Number of vertices the enumeration would produce."""
    v1 = math.perm(fam.N, fam.k)
    v0 = fam.k * math.perm(fam.N, fam.k - 1)
    return v0 + v1


def build_adversary_graph(fam: InstanceFamily) -> AdversaryGraph:
    """Enumerate both vertex sets and all edges explicitly.

    A database pair is adjacent iff it differs in exactly one location,
    which forces the smaller database to hold zero there and the larger one
    the (unique) missing target.
    """
    size = estimated_size(fam)
    if size > FEASIBLE_VERTICES:
        raise InfeasibleInstanceError(
            f"instance would enumerate {size} vertices "
            f"(cutoff {FEASIBLE_VERTICES})"
        )
    N, targets = fam.N, fam.targets

    def place(items, addrs):
        db = [0] * N
        for item, addr in zip(items, addrs):
            db[addr] = item
        return tuple(db)

    v1 = [place(targets, addrs) for addrs in permutations(range(N), fam.k)]
    v0 = []
    for miss in range(fam.k):
        kept = targets[:miss] + targets[miss + 1:]
        v0.extend(place(kept, addrs)
                  for addrs in permutations(range(N), fam.k - 1))

    index0 = {db: i for i, db in enumerate(v0)}
    edges = []
    for i1, f1 in enumerate(v1):
        for x in range(N):
            if f1[x] == 0:
                continue
            f0 = f1[:x] + (0,) + f1[x + 1:]
            i0 = index0.get(f0)
            if i0 is not None:
                edges.append((i0, i1, x))

    return AdversaryGraph(family=fam, v0=tuple(v0), v1=tuple(v1),
                          edges=tuple(edges))


def compute_stats(g: AdversaryGraph) -> AdversaryStats:
    """Exact graph statistics by enumeration.

    The same-label multiplicity at a vertex is maximized by a d-fold
    address whose coordinates are the d base addresses with the most edges
    at that vertex, so it equals the sum of the top-d per-address edge
    counts.
    """
    if not g.edges:
        raise ValueError("adversary graph has no edges")
    d = g.family.d
    deg0 = [0] * len(g.v0)
    deg1 = [0] * len(g.v1)
    by_addr0 = [dict() for _ in g.v0]
    by_addr1 = [dict() for _ in g.v1]
    for i0, i1, x in g.edges:
        deg0[i0] += 1
        deg1[i1] += 1
        by_addr0[i0][x] = by_addr0[i0].get(x, 0) + 1
        by_addr1[i1][x] = by_addr1[i1].get(x, 0) + 1

    def max_label_multiplicity(per_vertex):
        best = 0
        for counts in per_vertex:
            if counts:
                top = sorted(counts.values(), reverse=True)[:d]
                best = max(best, sum(top))
        return best

    return AdversaryStats(
        delta0=min(deg0),
        delta1=min(deg1),
        ell0=max_label_multiplicity(by_addr0),
        ell1=max_label_multiplicity(by_addr1),
    )


def ambainis_bound(stats: AdversaryStats) -> float:
    """sqrt(delta0 * delta1 / (ell0 * ell1))."""
    if stats.ell0 == 0 or stats.ell1 == 0:
        raise ValueError("label multiplicities must be positive")
    return math.sqrt(stats.delta0 * stats.delta1 / (stats.ell0 * stats.ell1))

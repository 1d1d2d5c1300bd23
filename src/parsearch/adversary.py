"""Lower-bound side: closed-form query bound, brute-force construction of
the hard-instance bipartite graph, and the degree/multiplicity bound formula.

Vertices on one side are databases holding exactly k-1 of the fixed target
items (all other locations zero); on the other side, databases holding all
k targets.  Since every other location is zero, a vertex is stored as its
placement, the addresses where its targets sit: one row of an int64 array,
so memory grows as vertices * k, not vertices * N.  Two databases are
adjacent iff they differ in exactly one base location; the edges are rows
of an int64 array too, and the statistics are computed from that edge list
with numpy.  With d copies, an edge is labeled by every d-fold address
that contains the differing base address in some coordinate; the
statistics are computed per base address and combined, which is
equivalent and far smaller than enumerating d-fold addresses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        # k > 2**(m-1), without building 2**(m-1) for a huge m
        if (self.k - 1).bit_length() >= self.m:
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
    """Explicit vertex sets and labeled edges at brute-force scale, as int64
    arrays with one row per vertex or edge.

    A vertex is a placement.  ``v1`` has shape (perm(N, k), k): row i is
    the i-th k-permutation of the addresses in lexicographic order, and
    target item j+1 sits at ``v1[i, j]``.  ``v0`` has shape
    (k * perm(N, k-1), k): row ``miss * perm(N, k-1) + i`` is
    ``[miss, *kept_i]``, where target ``miss + 1`` is absent and the k-1
    kept targets sit, in order, at the addresses of the i-th
    (k-1)-permutation ``kept_i``.  Every other location holds zero.
    ``edges`` has shape (k * len(v1), 3): row ``i1 * k + j`` is
    ``(i0, i1, x)``, joining ``v0[i0]`` to ``v1[i1]`` by removing target
    j+1, and ``x = v1[i1, j]`` is the single base address where the two
    databases differ.  So ``i0`` is ``j * perm(N, k-1)`` plus the
    lexicographic rank of ``v1[i1]`` without column j.
    """

    family: InstanceFamily
    v0: np.ndarray
    v1: np.ndarray
    edges: np.ndarray

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


def _lex_rank(rows: np.ndarray, columns, N: int) -> np.ndarray:
    """Rank of each row's *columns*, read as a w-permutation of range(N),
    among all w-permutations in lexicographic order: its Lehmer code, the
    digit at position p being the entry less the smaller entries before
    it, weighted by perm(N-1-p, w-1-p), the placements of what follows."""
    w = len(columns)
    rank = np.zeros(len(rows), dtype=np.int64)
    for p, c in enumerate(columns):
        digit = rows[:, c].copy()
        for q in columns[:p]:
            digit -= rows[:, q] < rows[:, c]
        rank += digit * math.perm(N - 1 - p, w - 1 - p)
    return rank


def build_adversary_graph(fam: InstanceFamily) -> AdversaryGraph:
    """Enumerate both vertex sets and all edges explicitly.

    Two databases differ in exactly one location iff removing one target
    from the larger leaves the smaller, so each v1 vertex has one edge per
    target, labeled with that target's address.

    The w-permutations of range(N) are built from the (w-1)-permutations
    one column at a time: in each row's mask of still-free addresses, one
    ``np.nonzero`` gives every child's parent row and new last address,
    already in lexicographic order.  The width-(k-1) step is ``kept`` and
    the width-k step is ``v1``, so removing v1's last target leaves its
    parent row; removing any other target leaves a row found by its
    lexicographic rank, with no search.
    """
    # v1 alone has perm(N, k) >= k! vertices, so a large k is refused
    # before perm(N, k) is computed.  b! > 2**b > FEASIBLE_VERTICES for its
    # bit length b >= 4, so capping k at b keeps the comparison exact.
    b = FEASIBLE_VERTICES.bit_length()
    if math.factorial(min(fam.k, b)) > FEASIBLE_VERTICES:
        raise InfeasibleInstanceError(
            f"k={fam.k} targets give at least k! > {FEASIBLE_VERTICES} "
            f"vertices"
        )
    size = estimated_size(fam)
    if size > FEASIBLE_VERTICES:
        raise InfeasibleInstanceError(
            f"instance would enumerate {size} vertices "
            f"(cutoff {FEASIBLE_VERTICES})"
        )
    N, k = fam.N, fam.k

    v1 = np.empty((1, 0), dtype=np.int64)
    for width in range(1, k + 1):
        kept = v1
        free = np.ones((len(kept), N), dtype=bool)
        free[np.arange(len(kept))[:, None], kept] = False
        parent, last = np.nonzero(free)
        v1 = np.empty((len(parent), width), dtype=np.int64)
        v1[:, :-1] = kept[parent]
        v1[:, -1] = last
    v0 = np.empty((k * len(kept), k), dtype=np.int64)
    v0[:, 0] = np.repeat(np.arange(k), len(kept))
    v0[:, 1:] = np.tile(kept, (k, 1))
    edges = np.empty((k * len(v1), 3), dtype=np.int64)
    for j in range(k - 1):
        rest = [c for c in range(k) if c != j]
        edges[j::k, 0] = j * len(kept) + _lex_rank(v1, rest, N)
    edges[k - 1::k, 0] = (k - 1) * len(kept) + parent
    edges[:, 1] = np.repeat(np.arange(len(v1)), k)
    edges[:, 2] = v1.ravel()
    return AdversaryGraph(family=fam, v0=v0, v1=v1, edges=edges)


def _max_label_multiplicity(vertex: np.ndarray, addr: np.ndarray, N: int,
                            d: int) -> int:
    """Largest, over vertices, sum of the top-d per-address edge counts."""
    keys = np.sort(vertex * N + addr)
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(starts, append=len(keys))
    owner = keys[starts] // N
    # a vertex's top-d sum is sum over h >= 1 of min(d, its counts >= h),
    # constant for h between two distinct counts: one pass per distinct
    # count.  No vertex has more than N addresses, so d is capped at N.
    d = min(d, N)
    sums = np.zeros(owner[-1] + 1, dtype=np.int64)
    below = 0
    for h in np.flatnonzero(np.bincount(counts)):
        at_least = np.bincount(owner[counts >= h], minlength=len(sums))
        sums += (h - below) * np.minimum(at_least, d)
        below = h
    return int(sums.max())


def compute_stats(g: AdversaryGraph) -> AdversaryStats:
    """Exact graph statistics by enumeration.

    The same-label multiplicity at a vertex is maximized by a d-fold
    address whose coordinates are the d base addresses with the most edges
    at that vertex, so it equals the sum of the top-d per-address edge
    counts.
    """
    if len(g.edges) == 0:
        raise ValueError("adversary graph has no edges")
    fam = g.family
    i0, i1, x = g.edges.T
    return AdversaryStats(
        delta0=int(np.bincount(i0, minlength=len(g.v0)).min()),
        delta1=int(np.bincount(i1, minlength=len(g.v1)).min()),
        ell0=_max_label_multiplicity(i0, x, fam.N, fam.d),
        ell1=_max_label_multiplicity(i1, x, fam.N, fam.d),
    )


def ambainis_bound(stats: AdversaryStats) -> float:
    """sqrt(delta0 * delta1 / (ell0 * ell1))."""
    if stats.ell0 == 0 or stats.ell1 == 0:
        raise ValueError("label multiplicities must be positive")
    return math.sqrt(stats.delta0 * stats.delta1 / (stats.ell0 * stats.ell1))

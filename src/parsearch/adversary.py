"""Lower-bound side: closed-form query bound, brute-force construction of
the hard-instance bipartite graph, and the degree/multiplicity bound formula.

Vertices on one side are databases holding exactly k-1 of the fixed target
items (all other locations zero); on the other side, databases holding all
k targets.  Since every other location is zero, a vertex is stored as its
placement, the addresses where its targets sit: one row of an int32 array,
so memory grows as vertices * k, not vertices * N.  Two databases are
adjacent iff they differ in exactly one base location; the edges are rows
of an int32 array too, and the statistics are computed from that edge list
with numpy.  Every index and address fits in int32: a built graph has
at least N and at most FEASIBLE_VERTICES = 10**6 < 2**20 vertices.  With
d copies, an edge is labeled by every d-fold address that contains the
differing base address in some coordinate; the statistics are computed
per base address and combined, which is equivalent and far smaller than
enumerating d-fold addresses.
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
        for name, least in (("n", 0), ("m", 1), ("d", 1), ("k", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"need {name} >= {least}, got {name}={value}")
        # k > 2**(m-1), without building 2**(m-1) for a huge m
        if (self.k - 1).bit_length() >= self.m:
            raise ValueError(
                f"need k <= 2**(m-1): k={self.k}, m={self.m}"
            )
        if self.k > self.N:
            raise ValueError(f"need k <= N={self.N}, got k={self.k}")

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def targets(self) -> tuple:
        # distinct non-zero m-bit items; k <= 2**(m-1) guarantees room
        return tuple(range(1, self.k + 1))


@dataclass(frozen=True)
class AdversaryGraph:
    """Explicit vertex sets and labeled edges at brute-force scale, as int32
    arrays with one row per vertex or edge (every index and address is
    below FEASIBLE_VERTICES < 2**20).

    A vertex is a placement.  ``v1`` has shape (perm(N, k), k): row i is
    the i-th k-permutation of the addresses in lexicographic order, and
    target item j+1 sits at ``v1[i, j]``.  ``v0`` has shape
    (k * perm(N, k-1), k): row ``miss * perm(N, k-1) + i`` is
    ``[miss, *kept_i]``, where target ``miss + 1`` is absent and the k-1
    kept targets sit, in order, at the addresses of the i-th
    (k-1)-permutation ``kept_i``.  Every other location holds zero.
    ``edges`` has shape (k * len(v1), 3), stored column by column, so
    each column is one contiguous array: row ``i1 * k + j`` is
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


def build_adversary_graph(fam: InstanceFamily) -> AdversaryGraph:
    """Enumerate both vertex sets and all edges explicitly.

    Two databases differ in exactly one location iff removing one target
    from the larger leaves the smaller, so each v1 vertex has one edge per
    target, labeled with that target's address.

    The w-permutations of range(N) are built from the (w-1)-permutations
    one column at a time: each row has exactly N-w+1 children, contiguous
    and in lexicographic order, namely the row repeated with each of its
    free addresses appended.  The width-(k-1) step is ``kept`` and the
    width-k step is ``v1``, so removing v1's last target leaves its parent
    row; removing any other target leaves a row found by its lexicographic
    rank, with no search.  All those ranks come from one int32 digit table:
    row ``a``'s Lehmer digit at column p is ``a[p]`` less the smaller entries
    before it, and without column j the digits before j stay, each weighted
    by perm(N-1-p, k-2-p), while those after j move one place left, gain
    ``a[j] < a[p]`` and take the weight perm(N-p, k-1-p).
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
            f"instance n={fam.n}, k={fam.k} would enumerate {size} vertices "
            f"(cutoff {FEASIBLE_VERTICES})"
        )
    N, k = fam.N, fam.k

    v1 = np.empty((1, 0), dtype=np.int32)
    for width in range(1, k + 1):
        kept = v1
        free = np.ones((len(kept), N), dtype=bool)
        free[np.arange(len(kept))[:, None], kept] = False
        v1 = np.empty((len(kept) * (N - width + 1), width), dtype=np.int32)
        v1.reshape(len(kept), N - width + 1, width)[:, :, :-1] = kept[:, None]
        # each free address is its flat index mod N, a power of two
        np.bitwise_and(np.flatnonzero(free), N - 1, out=v1[:, -1])
    v0 = np.empty((k * len(kept), k), dtype=np.int32)
    v0[:, 0] = np.repeat(np.arange(k), len(kept))
    v0.reshape(k, len(kept), k)[:, :, 1:] = kept
    # edges column by column; [i1, j] of a column's (len(v1), k) view is
    # its row i1 * k + j
    edges = np.empty((k * len(v1), 3), dtype=np.int32, order="F")
    first = edges[:, 0].reshape(len(v1), k)
    digit = v1.T.copy()
    less = {(q, p): digit[q] < digit[p] for p in range(k) for q in range(p)}
    for q, p in less:
        digit[p] -= less[q, p]
    for j in range(k - 1):
        rank = np.full(len(v1), j * len(kept), dtype=np.int32)
        for p in range(j):
            rank += digit[p] * math.perm(N - 1 - p, k - 2 - p)
        for p in range(j + 1, k):
            rank += (digit[p] + less[j, p]) * math.perm(N - p, k - 1 - p)
        first[:, j] = rank
    first[:, -1] = (k - 1) * len(kept) + np.arange(len(kept)).repeat(N - k + 1)
    np.floor_divide(np.arange(len(edges), dtype=np.int32), k, out=edges[:, 1])
    edges[:, 2] = v1.ravel()
    return AdversaryGraph(family=fam, v0=v0, v1=v1, edges=edges)


def _side_stats(vertex: np.ndarray, addr: np.ndarray, size: int, N: int,
                d: int) -> tuple:
    """(least degree, largest top-d sum of per-address edge counts) over
    the ``size`` vertices of one side, from one sort and one degree count.

    Each edge is one packed sort key, ``vertex << s | addr`` with s the
    bit length of N - 1 (at least 1; N is a power of two, so every address
    fits in s bits), int32 when the largest key fits and int64 otherwise.
    Pass h keeps the repeated keys, dropping one key from every run, and
    counts them by vertex.  With n_h a vertex's keys before pass h, n_h -
    n_{h+1} is its number of addresses with at least h edges, and its
    top-d sum is the sum over h of min(d, n_h - n_{h+1}).  Passes after
    the first see repeated keys only; on a built graph the one pass leaves
    no key.
    """
    s = max((N - 1).bit_length(), 1)
    wide = (int(vertex.max()) << s | (N - 1)) > np.iinfo(np.int32).max
    keys = np.left_shift(vertex, s, dtype=np.int64 if wide else np.int32)
    np.bitwise_or(keys, addr, out=keys)
    keys.sort()
    held = np.bincount(vertex, minlength=size)
    # no vertex has more than N addresses, so d is capped at N
    least, d, sums = int(held.min()), min(d, N), 0
    while len(keys):
        keys = keys[1:][keys[1:] == keys[:-1]]
        left = np.bincount(keys >> s, minlength=len(held))
        sums = sums + np.minimum(held - left, d)
        held = left
    return least, int(sums.max())


def compute_stats(g: AdversaryGraph) -> AdversaryStats:
    """Exact graph statistics by enumeration, one sort and one degree
    count per side.

    The same-label multiplicity at a vertex is maximized by a d-fold
    address whose coordinates are the d base addresses with the most edges
    at that vertex, so it equals the sum of the top-d per-address edge
    counts.
    """
    if len(g.edges) == 0:
        raise ValueError("adversary graph has no edges")
    fam = g.family
    i0, i1, x = g.edges.T
    delta0, ell0 = _side_stats(i0, x, len(g.v0), fam.N, fam.d)
    delta1, ell1 = _side_stats(i1, x, len(g.v1), fam.N, fam.d)
    return AdversaryStats(delta0=delta0, delta1=delta1, ell0=ell0, ell1=ell1)


def ambainis_bound(stats: AdversaryStats) -> float:
    """sqrt(delta0 * delta1 / (ell0 * ell1))."""
    if stats.ell0 == 0 or stats.ell1 == 0:
        raise ValueError("label multiplicities must be positive")
    return math.sqrt(stats.delta0 * stats.delta1 / (stats.ell0 * stats.ell1))

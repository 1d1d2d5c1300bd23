"""Exact simulation of phase-oracle Grover iterations.

A search starts from the uniform superposition over an address subdomain
and applies a phase oracle, so its state never leaves the 2-d span of the
uniform marked and the uniform unmarked states.  :func:`sample_after` uses
that to measure the state after r iterations in O(1) from the closed form
of :func:`success_probability`; the searches run on it.  A search's state is
therefore only its subdomain size M and its marked addresses, which is what
:class:`MarkedPredicate` keeps.

The dense simulator (:class:`StateVector`, :func:`init_uniform`,
:func:`grover_iterate`, :func:`measure`) keeps an M-entry amplitude vector
whose first j basis positions stand for the j marked addresses, and is the
reference the closed form is checked against.  Its oracle is a phase flip on
those positions (the standard phase-kickback form of the XOR oracle); each
application is one query, which its caller counts by the rule of
:class:`QueryLedger`.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-9


def as_generator(seed) -> np.random.Generator:
    """Return *seed* itself if it is already a Generator, else seed a new one.

    Accepts anything ``numpy.random.default_rng`` accepts (ints, sequences
    of ints, SeedSequence).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


#: purpose words of derived streams: a search trial, its database
#: placement, a repetition's partition and one copy's search in it
STREAM_TRIAL, STREAM_DATABASE, STREAM_PARTITION, STREAM_COPY = range(4)


def derive_stream(seed, purpose: int, *indices: int) -> np.random.SeedSequence:
    """Child stream of *seed* for one *purpose*, numbered by *indices*.

    The child keeps the root entropy and extends the parent's spawn key by
    ``(purpose, *indices)``.  It never appends words to the entropy: numpy
    pads entropy with zeros, so ``[s, 0]`` and ``[s, 0, 0]`` seed the same
    stream, while distinct spawn keys give distinct streams.  *seed* is an
    int, a sequence of ints, or a SeedSequence from an earlier derivation.
    """
    if isinstance(seed, np.random.SeedSequence):
        root, key = seed.entropy, seed.spawn_key
    else:
        root, key = seed, ()
    return np.random.SeedSequence(
        entropy=root, spawn_key=key + (purpose, *(int(i) for i in indices))
    )


@dataclass(frozen=True)
class Database:
    """A lookup table of m-bit items stored at N = 2**n addresses."""

    n: int
    m: int
    entries: np.ndarray

    def __post_init__(self):
        if self.n < 0 or self.m < 1:
            raise ValueError("need n >= 0 and m >= 1")
        entries = np.ascontiguousarray(self.entries, dtype=np.int64)
        if entries.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} entries, got shape {entries.shape}"
            )
        if entries.size and (entries.min() < 0 or entries.max() >= (1 << self.m)):
            raise ValueError(f"entries must be {self.m}-bit values")
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return 1 << self.n

    def lookup(self, address: int) -> int:
        return int(self.entries[address])


class MarkedPredicate:
    """Membership test ``f(x) in targets`` restricted to a subdomain.

    A search over the subdomain reads only its size M and which of its
    addresses are marked, so that is all the predicate keeps: ``size`` and
    ``marked``, the marked addresses in ascending order.  The subdomain is
    scanned once, at construction; :meth:`without` derives the predicate
    left after a find from ``marked``, so one copy's whole search scans its
    cell once.
    """

    __slots__ = ("db", "targets", "size", "marked")

    def __init__(self, db: Database, targets, subdomain):
        sub = np.asarray(subdomain, dtype=np.int64)
        if sub.ndim != 1:
            raise ValueError("subdomain must be a 1-d address array")
        self.db = db
        self.targets = frozenset(int(y) for y in targets)
        self.size = int(sub.size)
        wanted = np.fromiter(self.targets, dtype=np.int64, count=len(self.targets))
        self.marked = np.sort(sub[np.isin(db.entries[sub], wanted)])

    @property
    def mask(self) -> np.ndarray:
        """Boolean marked/unmarked flags over the M basis positions of the
        dense reference: the j marked addresses take the first j positions,
        in ascending order.  Grover dynamics do not depend on how basis
        states are labelled, so any placement gives the same law."""
        return np.arange(self.size) < self.marked.size

    def without(self, address: int) -> "MarkedPredicate":
        """The predicate once the item at the marked *address* is located.

        The address leaves the subdomain and its item leaves the targets, so
        any other address holding that item is unmarked too.  Raises
        ValueError when *address* is not marked.
        """
        if not np.any(self.marked == address):
            raise ValueError(f"address {address} is not marked")
        item = self.db.lookup(address)
        shrunk = copy.copy(self)
        shrunk.targets = self.targets - {item}
        shrunk.size = self.size - 1
        shrunk.marked = self.marked[self.db.entries[self.marked] != item]
        return shrunk


class StateVector:
    """A normalized complex amplitude vector over M basis states."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, *, _skip_check: bool = False):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-d vector")
        if not _skip_check:
            norm = float(np.sum(np.abs(amps) ** 2))
            if abs(norm - 1.0) > NORM_TOL:
                raise ValueError(f"state not normalized: sum |a|^2 = {norm!r}")
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def marked_mass(self, mask: np.ndarray) -> float:
        """Total probability on basis states selected by *mask*."""
        return float(np.sum(np.abs(self.amplitudes[mask]) ** 2))


class QueryLedger:
    """Per-copy query counts under the one accounting rule of the package.

    The database is reached only through queries, so both a Grover
    iteration and the classical check of a measured address are one oracle
    query on the copy that makes it.  The searches return the queries they
    make, and :func:`~parsearch.algorithms.multi_item_search` alone charges
    them to its copy's one-copy ledger.  Only
    :func:`~parsearch.algorithms.parallel_search` holds a d-copy ledger:
    the copies run in lockstep, one parallel round per query, and halt at
    the round where the last needed item is confirmed, so each copy is
    charged its queries up to that stop and a repetition's rounds are the
    largest such charge; the total sums the repetitions.  Checking the k
    claimed locations at the end of a repetition costs ceil(k/d) parallel
    queries, kept apart as verification rounds.
    """

    def __init__(self, copies: int = 1):
        if copies < 1:
            raise ValueError("need at least one copy")
        self.copies = copies
        self.oracle_counts = [0] * copies
        self.verification_rounds = 0
        self._rep_rounds: list[int] = []
        self._snapshot = [0] * copies

    def record_oracle(self, copy: int, amount: int) -> None:
        if amount < 0:
            raise ValueError("counts only increase")
        self.oracle_counts[copy] += amount

    def record_verification(self, rounds: int) -> None:
        if rounds < 0:
            raise ValueError("counts only increase")
        self.verification_rounds += rounds

    def end_repetition(self) -> int:
        """Close the current repetition and return its parallel round count."""
        rounds = self._open_rounds()
        self._rep_rounds.append(rounds)
        self._snapshot = list(self.oracle_counts)
        return rounds

    def _open_rounds(self) -> int:
        return max(c - s for c, s in zip(self.oracle_counts, self._snapshot))

    @property
    def rounds_per_repetition(self) -> tuple:
        return tuple(self._rep_rounds)

    @property
    def parallel_rounds(self) -> int:
        """Lockstep rounds: per-repetition maxima summed, plus any open work."""
        return sum(self._rep_rounds) + self._open_rounds()


def init_uniform(M: int) -> StateVector:
    """Uniform superposition over M basis states."""
    if M < 1:
        raise ValueError("search-space size must be at least 1")
    amps = np.full(M, 1.0 / math.sqrt(M), dtype=np.complex128)
    return StateVector(amps, _skip_check=True)


def grover_iterate(state: StateVector, marked: MarkedPredicate) -> StateVector:
    """One Grover iteration: phase-flip marked addresses, reflect about mean.

    It is one oracle query, which its caller counts (see
    :class:`QueryLedger`).
    """
    if state.dim != marked.size:
        raise ValueError(
            f"state dim {state.dim} != subdomain size {marked.size}"
        )
    amps = state.amplitudes.copy()
    amps[marked.mask] *= -1.0
    amps = 2.0 * amps.mean() - amps
    return StateVector(amps, _skip_check=True)


def measure(state: StateVector, seed) -> int:
    """Sample a basis index from |amplitude|^2; deterministic given the seed."""
    probs = state.probabilities()
    total = float(probs.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"cannot measure unnormalized state: sum |a|^2 = {total!r}")
    rng = as_generator(seed)
    # renormalize exactly so the sampler sees a proper distribution
    return int(rng.choice(state.dim, p=probs / total))


def success_probability(M: int, j: int, r: int) -> float:
    """Closed-form marked-state probability after r iterations.

    sin^2((2r+1) * arcsin(sqrt(j/M))) for j marked items out of M, starting
    from the uniform superposition.
    """
    if M < 1 or j < 1 or j > M:
        raise ValueError("need 1 <= j <= M")
    if r < 0:
        raise ValueError("iteration count must be non-negative")
    theta = math.asin(math.sqrt(j / M))
    return math.sin((2 * r + 1) * theta) ** 2


def sample_after(M: int, j: int, r: int, rng: np.random.Generator) -> int | None:
    """Measure the state of r Grover iterations over M positions, j marked.

    The state stays in the span of the uniform marked and uniform unmarked
    states, so the marked mass is the closed form of
    :func:`success_probability` and each set is uniform within itself.  One
    Bernoulli draw decides a hit; a hit then picks one of the j marked
    positions uniformly.  Returns that pick's rank in ``range(j)``, or None
    on a miss.  With j = 0 every draw misses and with j = M every draw hits.
    """
    if M < 1 or not 0 <= j <= M:
        raise ValueError(f"need M >= 1 and 0 <= j <= M, got M={M}, j={j}")
    if r < 0:
        raise ValueError("iteration count must be non-negative")
    p = success_probability(M, j, r) if 0 < j < M else j / M
    if rng.random() >= p:
        return None
    return int(rng.integers(j))

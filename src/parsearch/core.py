"""Exact simulation of phase-oracle Grover iterations.

A search starts from the uniform superposition over an address subdomain
and applies a phase oracle, so its state never leaves the 2-d span of the
uniform marked and the uniform unmarked states.  :func:`sample_after` uses
that to measure the state after r iterations in O(1) from the closed form
of :func:`success_probability`; the searches run on it.  A search's state is
therefore only its subdomain size M and its marked addresses, which is what
:class:`MarkedPredicate` keeps; :func:`marked_addresses` finds those
addresses.  A database answers ``lookup``, ``items_at`` and ``locate``:
:class:`Database` from an N-entry table, :class:`PlantedDatabase` from its
k target addresses alone, at any N that int64 addresses allow.

The dense simulator (:class:`StateVector`, :func:`init_uniform`,
:func:`grover_iterate`, :func:`measure`) keeps an M-entry amplitude vector
whose first j basis positions stand for the j marked addresses, and is the
reference the closed form is checked against.  Its oracle is a phase flip on
those positions (the standard phase-kickback form of the XOR oracle); each
application is one query, which its caller counts by the rule of
:class:`QueryLedger`.

Every random stream of a run is a child of its seed made by
:func:`derive_stream`: one per search trial, and within a trial one for
its database and, per repetition, one for the partition and one for all
d copies' searches.
"""
from __future__ import annotations

import bisect
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
#: placement, a repetition's partition, and all of a repetition's copies
STREAM_TRIAL, STREAM_DATABASE, STREAM_PARTITION, STREAM_COPY = range(4)


def derive_stream(seed, purpose: int, *indices: int) -> np.random.SeedSequence:
    """Child stream of *seed* for one *purpose*, numbered by *indices*.

    The child keeps the root entropy and extends the parent's spawn key by
    ``(purpose, *indices)``.  It never appends words to the entropy: numpy
    pads entropy with zeros, so ``[s, 0]`` and ``[s, 0, 0]`` seed the same
    stream, while distinct spawn keys give distinct streams.  *seed* is an
    int, a sequence of ints, or a SeedSequence from an earlier derivation,
    so streams nest: a search trial's stream is the parent of its database
    stream and of each repetition's partition and copy streams, one each.
    """
    if isinstance(seed, np.random.SeedSequence):
        root, key = seed.entropy, seed.spawn_key
    else:
        root, key = seed, ()
    return np.random.SeedSequence(
        entropy=root, spawn_key=key + (purpose, *(int(i) for i in indices))
    )


#: largest n whose N-entry table :meth:`PlantedDatabase.explicit` builds.
#: The table holds 8 bytes per address, and building it peaks at about 40
#: (tracemalloc), so 2**24 addresses peak at about 0.7 GB.
MAX_EXPLICIT_BITS = 24


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

    def items_at(self, addresses) -> np.ndarray:
        """The items stored at *addresses*, in their order."""
        return self.entries[np.asarray(addresses, dtype=np.int64)]

    def locate(self, targets) -> np.ndarray:
        """The addresses holding an item of *targets*, in ascending order:
        one scan of the table."""
        wanted = np.fromiter({int(y) for y in targets}, dtype=np.int64)
        return np.flatnonzero(np.isin(self.entries, wanted))


class PlantedDatabase:
    """The database of (n + 1)-bit items with targets 1..k planted at k
    distinct addresses, stored as those k addresses alone.

    Target item i sits at ``addresses[i - 1]``; every other address a holds
    the filler k + 1 + a - (targets below a), so the fillers are the
    distinct items k + 1, ..., N in ascending address order.  Lookups cost
    O(log k) and locating targets O(k) each, whatever N is, so n may be as
    large as int64 addresses allow.  :meth:`explicit` builds the same
    database as an N-entry :class:`Database`.
    """

    __slots__ = ("n", "m", "_drawn", "_ascending", "_ascending_array",
                 "_ascending_items")

    def __init__(self, n: int, addresses):
        if n < 0:
            raise ValueError("need n >= 0")
        self._drawn = [int(a) for a in addresses]
        if len(set(self._drawn)) != len(self._drawn):
            raise ValueError("target addresses must be distinct")
        if any(not 0 <= a < 1 << n for a in self._drawn):
            raise ValueError(f"target addresses must lie in [0, {1 << n})")
        self.n = n
        self.m = n + 1
        order = np.argsort(self._drawn)
        self._ascending_array = np.array(self._drawn, dtype=np.int64)[order]
        self._ascending = self._ascending_array.tolist()
        self._ascending_items = order + 1

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def k(self) -> int:
        return len(self._drawn)

    def lookup(self, address: int) -> int:
        address = int(address)
        if not 0 <= address < self.size:
            raise IndexError(f"address {address} outside [0, {self.size})")
        below = bisect.bisect_left(self._ascending, address)
        if below < self.k and self._ascending[below] == address:
            return int(self._ascending_items[below])
        return self.k + 1 + address - below

    def items_at(self, addresses) -> np.ndarray:
        """The items stored at *addresses*, in their order."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and not (0 <= np.minimum.reduce(addresses)
                                   and np.maximum.reduce(addresses) < self.size):
            raise IndexError(f"addresses must lie in [0, {self.size})")
        below = self._ascending_array.searchsorted(addresses)
        items = addresses + (self.k + 1) - below
        if self.k:
            hits = self._ascending_array.take(below, mode="clip") == addresses
            items[hits] = self._ascending_items[below[hits]]
        return items

    def locate(self, targets) -> np.ndarray:
        """The addresses holding an item of *targets*, in ascending order."""
        k, found = self.k, []
        for y in {int(y) for y in targets}:
            if 1 <= y <= k:
                found.append(self._drawn[y - 1])
            elif k < y <= self.size:
                # the filler y sits at the (y - k - 1)-th non-target address
                a = y - k - 1
                for b in self._ascending:
                    if b > a:
                        break
                    a += 1
                found.append(a)
        return np.array(sorted(found), dtype=np.int64)

    def explicit(self) -> Database:
        """The same database as an N-entry table; refuses n above
        ``MAX_EXPLICIT_BITS``."""
        if self.n > MAX_EXPLICIT_BITS:
            raise ValueError(
                f"n={self.n} exceeds the explicit table limit n <= {MAX_EXPLICIT_BITS}")
        return Database(n=self.n, m=self.m,
                        entries=self.items_at(np.arange(self.size, dtype=np.int64)))


def marked_addresses(db, targets, subdomain=None) -> np.ndarray:
    """The addresses of *subdomain* (all of *db* by default) whose items
    are in *targets*, in ascending order: ``db.locate(targets)``, or one
    scan of the subdomain's items."""
    if subdomain is None:
        return db.locate(targets)
    wanted = np.fromiter({int(y) for y in targets}, dtype=np.int64)
    sub = np.asarray(subdomain, dtype=np.int64)
    if sub.ndim != 1:
        raise ValueError("subdomain must be a 1-d address array")
    return np.sort(sub[np.isin(db.items_at(sub), wanted)])


class MarkedPredicate:
    """Membership test ``f(x) in targets`` restricted to a subdomain.

    A search over the subdomain reads only its size M and which of its
    addresses are marked, so that is all the predicate keeps: ``size`` and
    ``marked``, the marked addresses in ascending order, both given at
    construction, and ``items``, the items stored there, read once from the
    database (through ``items_at``); :meth:`scan` finds the marked
    addresses from a subdomain's addresses.  :meth:`without` derives the
    predicate left after a find from ``marked`` and ``items``, so a search
    never goes back to the database.
    """

    __slots__ = ("size", "marked", "items")

    def __init__(self, db, targets, size: int, marked):
        marked = np.asarray(marked, dtype=np.int64)
        if marked.ndim != 1 or marked.size > size:
            raise ValueError(f"need at most size={size} marked addresses")
        held = marked.tolist()
        if any(a >= b for a, b in zip(held, held[1:])):
            raise ValueError("marked addresses must be distinct and ascending")
        items = db.items_at(marked)
        if not frozenset(targets).issuperset(items.tolist()):
            raise ValueError("a marked address holds no target item")
        self.size = int(size)
        self.marked = marked
        self.items = items

    @classmethod
    def scan(cls, db, targets, subdomain) -> "MarkedPredicate":
        """The predicate over the addresses in *subdomain*, from one scan."""
        sub = np.asarray(subdomain, dtype=np.int64)
        return cls(db, targets, sub.size, marked_addresses(db, targets, sub))

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
        at = np.flatnonzero(self.marked == address)
        if not at.size:
            raise ValueError(f"address {address} is not marked")
        keep = self.items != self.items[at[0]]
        shrunk = copy.copy(self)
        shrunk.size = self.size - 1
        shrunk.marked = self.marked[keep]
        shrunk.items = self.items[keep]
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
    them, each to the copy that made it, on the d-copy ledger of one
    repetition.  The copies run in lockstep, one parallel round per query,
    and halt at the round where the check of the last missing item confirms
    it, so no copy is charged past that round; a repetition that leaves an
    item unlocated charges every copy its whole program.  A repetition's
    rounds are its largest charge, and
    :func:`~parsearch.algorithms.parallel_search` sums the repetitions on
    the ledger of the whole search.  Checking the k claimed locations at
    the end of a repetition costs ceil(k/d) parallel queries, kept apart as
    verification rounds.
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

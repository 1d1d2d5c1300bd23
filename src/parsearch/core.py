"""Exact simulation of phase-oracle Grover iterations.

A search starts from the uniform superposition over an address subdomain
and applies a phase oracle, so its state never leaves the 2-d span of the
uniform marked and the uniform unmarked states.  :func:`sample_after` uses
that to measure the state after r iterations in O(1) from the closed form
of :func:`success_probability`; the per-attempt searches run on it, and
``algorithms.multi_item_search`` draws the same law for many cells at
once.  A search's state is therefore only its subdomain size M and its
marked addresses, which is all :class:`MarkedPredicate` keeps, and
:meth:`MarkedPredicate.scan` finds those of a subdomain.  A database answers
``lookup``, ``items_at`` and ``locate``, and refuses an address outside
[0, N) with IndexError: :class:`Database` from an N-entry table,
:class:`PlantedDatabase` from its k target addresses alone, at any N that
int64 addresses allow.

The dense simulator (:func:`init_uniform`, :func:`grover_iterate`,
:func:`measure`) runs on a plain M-entry complex128 amplitude vector whose
first j basis positions stand for the j marked addresses, and is the
reference the closed form is checked against.  Its oracle is a phase flip
on those positions (the standard phase-kickback form of the XOR oracle);
each application is one query, which its caller counts by the rule of
:class:`QueryLedger`.

Each search trial draws from one generator, seeded by its own child of
the run's seed (:func:`derive_stream`): first its database placement, then
per repetition its partition and then all d copies' steps, in that order.
A function that takes a *seed* passes it to ``numpy.random.default_rng``,
which returns a Generator as it is, so the trial's functions share that
one generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-9


#: purpose word of a search trial's stream
STREAM_TRIAL = 0


def derive_stream(seed, purpose: int, *indices: int) -> np.random.SeedSequence:
    """Child stream of *seed*, an int or a sequence of ints, for one
    *purpose*, numbered by *indices*.

    The child keeps *seed* as its entropy and takes ``(purpose, *indices)``
    as its spawn key.  It never appends words to the entropy: numpy pads
    entropy with zeros, so ``[s, 0]`` and ``[s, 0, 0]`` seed the same
    stream, while distinct spawn keys give distinct streams.  A search
    trial's stream seeds the one generator that every draw of the trial
    takes.
    """
    return np.random.SeedSequence(
        entropy=seed, spawn_key=(purpose, *(int(i) for i in indices)))


#: largest n whose N-entry table :meth:`PlantedDatabase.explicit` builds.
#: The table holds 8 bytes per address, and building it peaks at about 40
#: (tracemalloc), so 2**24 addresses peak at about 0.7 GB.
MAX_EXPLICIT_BITS = 24


def _in_range(addresses, size: int) -> np.ndarray:
    """*addresses* as an int64 array; IndexError unless each lies in
    [0, size)."""
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size and not (0 <= np.minimum.reduce(addresses)
                               and np.maximum.reduce(addresses) < size):
        raise IndexError(f"addresses must lie in [0, {size})")
    return addresses


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
        return int(self.items_at([address])[0])

    def items_at(self, addresses) -> np.ndarray:
        """The items stored at *addresses*, in their order."""
        return self.entries[_in_range(addresses, self.size)]

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
    distinct items k + 1, ..., N in ascending address order.  The k
    addresses are kept as int64 arrays, as drawn and ascending, and every
    read is a ``searchsorted`` on them: a lookup or the location of an item
    costs O(log k), whatever N is, so n may be as large as int64 addresses
    allow.  :meth:`explicit` builds the same database as an N-entry
    :class:`Database`.
    """

    __slots__ = ("n", "m", "_drawn", "_ascending", "_ascending_items")

    def __init__(self, n: int, addresses):
        if n < 0:
            raise ValueError("need n >= 0")
        drawn = np.array(addresses, dtype=np.int64).reshape(-1)
        order = np.argsort(drawn)
        ascending = drawn[order]
        if (ascending[1:] == ascending[:-1]).any():
            raise ValueError("target addresses must be distinct")
        if ascending.size and not (0 <= ascending[0] and int(ascending[-1]) < 1 << n):
            raise ValueError(f"target addresses must lie in [0, {1 << n})")
        self.n = n
        self.m = n + 1
        self._drawn = drawn
        self._ascending = ascending
        self._ascending_items = order + 1

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def k(self) -> int:
        return self._drawn.size

    def lookup(self, address: int) -> int:
        return int(self.items_at([address])[0])

    def items_at(self, addresses) -> np.ndarray:
        """The items stored at *addresses*, in their order."""
        addresses = _in_range(addresses, self.size)
        below = self._ascending.searchsorted(addresses)
        items = addresses + (self.k + 1) - below
        if self.k:
            hits = self._ascending.take(below, mode="clip") == addresses
            items[hits] = self._ascending_items[below[hits]]
        return items

    def locate(self, targets) -> np.ndarray:
        """The addresses holding an item of *targets*, in ascending order."""
        k = self.k
        wanted = np.fromiter({int(y) for y in targets}, dtype=np.int64)
        planted = wanted[(1 <= wanted) & (wanted <= k)]
        # the filler y sits at the (y - k - 1)-th non-target address, past
        # every target address b whose b - (targets below b) is at most that
        rank = wanted[(k < wanted) & (wanted <= self.size)] - (k + 1)
        fillers = rank + (self._ascending - np.arange(k)).searchsorted(rank, "right")
        return np.sort(np.concatenate([self._drawn[planted - 1], fillers]))

    def explicit(self) -> Database:
        """The same database as an N-entry table; refuses n above
        ``MAX_EXPLICIT_BITS``."""
        if self.n > MAX_EXPLICIT_BITS:
            raise ValueError(
                f"n={self.n} exceeds the explicit table limit n <= {MAX_EXPLICIT_BITS}")
        return Database(n=self.n, m=self.m,
                        entries=self.items_at(np.arange(self.size, dtype=np.int64)))


class MarkedPredicate:
    """Membership test ``f(x) in targets`` restricted to a subdomain.

    A search over the subdomain reads only its size M and which of its
    addresses are marked, so that is all the predicate keeps: ``size`` and
    ``marked``, the marked addresses in ascending order.  Which items they
    hold is the caller's to know; :meth:`scan` finds the marked addresses
    of a subdomain from the database.
    """

    __slots__ = ("size", "marked")

    def __init__(self, size: int, marked):
        marked = np.asarray(marked, dtype=np.int64)
        if marked.ndim != 1 or marked.size > size:
            raise ValueError(f"need at most size={size} marked addresses")
        if (marked[1:] <= marked[:-1]).any():
            raise ValueError("marked addresses must be distinct and ascending")
        self.size = int(size)
        self.marked = marked

    @classmethod
    def scan(cls, db, targets, subdomain) -> "MarkedPredicate":
        """The predicate over the addresses in *subdomain*, a 1-d address
        array, from one scan of its items: its addresses whose items are in
        *targets*, in ascending order.  All of *db*'s are
        ``db.locate(targets)``."""
        wanted = np.fromiter({int(y) for y in targets}, dtype=np.int64)
        sub = np.asarray(subdomain, dtype=np.int64)
        if sub.ndim != 1:
            raise ValueError("subdomain must be a 1-d address array")
        return cls(sub.size, np.sort(sub[np.isin(db.items_at(sub), wanted)]))

    def without(self, address: int) -> "MarkedPredicate":
        """The predicate once the item at the marked *address* is located:
        the address leaves the subdomain, and every other marked address
        stays marked.  Raises ValueError when *address* is not marked.
        """
        keep = self.marked != address
        if keep.all():
            raise ValueError(f"address {address} is not marked")
        return MarkedPredicate(self.size - 1, self.marked[keep])


class QueryLedger:
    """Per-copy query counts under the one accounting rule of the package.

    The database is reached only through queries, so both a Grover
    iteration and the classical check of a measured address are one oracle
    query on the copy that makes it.  The searches return the queries they
    make, and :func:`~parsearch.algorithms.multi_item_search` alone charges
    them, each to the copy that made it.  The copies run in lockstep, one
    parallel round per query, and halt at the round where the check of the
    last missing item confirms it, so no copy is charged past that round;
    a repetition that leaves an item unlocated charges every copy its whole
    program.  A ledger records a whole repetition at once, one charge per
    copy (:meth:`record_repetition`), added to :attr:`oracle_counts`, an
    int64 vector of the per-copy counts: its rounds are its largest charge,
    and :attr:`parallel_rounds` sums them over the repetitions.
    :func:`~parsearch.algorithms.parallel_search` records each repetition
    that :func:`~parsearch.algorithms.multi_item_search` charged on the
    ledger of the whole search.  That is the whole rule: a find is
    confirmed by its copy's own check, already charged inside its attempt,
    so a search is never charged a second check of what it located.
    """

    def __init__(self, copies: int = 1):
        if copies < 1:
            raise ValueError("need at least one copy")
        self.copies = copies
        self.oracle_counts = np.zeros(copies, dtype=np.int64)
        self._rep_rounds: list[int] = []

    def record_repetition(self, charges) -> int:
        """Charge each copy its queries of one repetition, ``charges[c]`` to
        copy c, and return the repetition's rounds, the largest charge."""
        charges = np.asarray(charges, dtype=np.int64)
        if charges.shape != (self.copies,):
            raise ValueError(f"need one charge per copy, {self.copies}, "
                             f"got shape {charges.shape}")
        if charges.min() < 0:
            raise ValueError("counts only increase")
        self.oracle_counts += charges
        self._rep_rounds.append(int(charges.max()))
        return self._rep_rounds[-1]

    @property
    def rounds_per_repetition(self) -> tuple:
        return tuple(self._rep_rounds)

    @property
    def parallel_rounds(self) -> int:
        """Lockstep rounds: the per-repetition maxima summed."""
        return sum(self._rep_rounds)


def init_uniform(M: int) -> np.ndarray:
    """Uniform superposition over M basis states, as a complex128 vector."""
    if M < 1:
        raise ValueError("search-space size must be at least 1")
    return np.full(M, 1.0 / math.sqrt(M), dtype=np.complex128)


def grover_iterate(state: np.ndarray, marked: MarkedPredicate) -> np.ndarray:
    """One Grover iteration of an M-entry *state*: phase-flip its first j
    positions, which stand for the j marked addresses of *marked*, then
    reflect about the mean.  Grover dynamics do not depend on how basis
    states are labelled, so any placement gives the same law.

    It is one oracle query, which its caller counts (see
    :class:`QueryLedger`).
    """
    amps = np.array(state, dtype=np.complex128)
    if amps.shape != (marked.size,):
        raise ValueError(
            f"state shape {amps.shape} != subdomain size {marked.size}"
        )
    amps[:marked.marked.size] *= -1.0
    return 2.0 * amps.mean() - amps


def measure(state: np.ndarray, seed) -> int:
    """Sample a basis index from |amplitude|^2; deterministic given the seed."""
    probs = np.abs(state) ** 2
    total = float(probs.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"cannot measure unnormalized state: sum |a|^2 = {total!r}")
    rng = np.random.default_rng(seed)
    # renormalize exactly so the sampler sees a proper distribution
    return int(rng.choice(probs.size, p=probs / total))


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

"""Exact state-vector simulation of phase-oracle Grover iterations.

The simulator works on a dense, re-indexed amplitude vector over an
arbitrary address subdomain.  The oracle is implemented as a phase flip on
the addresses whose stored item belongs to the current target set (the
standard phase-kickback form of the XOR oracle); each application costs one
query, which is recorded on a :class:`QueryLedger`.
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class MarkedPredicate:
    """Membership test ``f(x) in targets`` restricted to a subdomain.

    ``subdomain`` is the ordered list of addresses the current search runs
    over; the simulator's state vector is indexed by position within it.
    """

    db: Database
    targets: frozenset
    subdomain: np.ndarray

    def __post_init__(self):
        sub = np.ascontiguousarray(self.subdomain, dtype=np.int64)
        if sub.ndim != 1:
            raise ValueError("subdomain must be a 1-d address array")
        object.__setattr__(self, "subdomain", sub)
        object.__setattr__(self, "targets", frozenset(int(y) for y in self.targets))
        mask = np.isin(self.db.entries[sub], np.fromiter(self.targets, dtype=np.int64,
                                                         count=len(self.targets)))
        object.__setattr__(self, "_mask", mask)

    @property
    def size(self) -> int:
        return int(self.subdomain.size)

    @property
    def mask(self) -> np.ndarray:
        """Boolean marked/unmarked flags, aligned with ``subdomain``."""
        return self._mask

    def marked(self, address: int) -> bool:
        return self.db.lookup(address) in self.targets


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
    """Per-copy oracle-query counts plus a separate verification count.

    Copies run in lockstep against the d-fold oracle, so the parallel
    round count of one repetition is the maximum per-copy count within it;
    the total is summed across repetitions.
    """

    def __init__(self, copies: int = 1):
        if copies < 1:
            raise ValueError("need at least one copy")
        self.copies = copies
        self.oracle_counts = [0] * copies
        self.verification_rounds = 0
        self._rep_rounds: list[int] = []
        self._snapshot = [0] * copies

    def record_oracle(self, copy: int = 0, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counts only increase")
        self.oracle_counts[copy] += amount

    def record_verification(self, rounds: int = 1) -> None:
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


def grover_iterate(
    state: StateVector,
    marked: MarkedPredicate,
    ledger: QueryLedger | None = None,
    copy: int = 0,
) -> StateVector:
    """One Grover iteration: phase-flip marked addresses, reflect about mean.

    Costs exactly one oracle query, recorded for *copy* on *ledger*.
    """
    if state.dim != marked.size:
        raise ValueError(
            f"state dim {state.dim} != subdomain size {marked.size}"
        )
    amps = state.amplitudes.copy()
    amps[marked.mask] *= -1.0
    amps = 2.0 * amps.mean() - amps
    if ledger is not None:
        ledger.record_oracle(copy)
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

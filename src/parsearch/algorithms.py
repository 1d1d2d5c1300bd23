"""Upper-bound search algorithms: known-count Grover search, unknown-count
search with exponentially growing cutoffs, iterated multi-item search, and
the parallel partition algorithm with regime-dependent per-cell item caps.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Database,
    MarkedPredicate,
    STREAM_COPY,
    STREAM_PARTITION,
    QueryLedger,
    as_generator,
    derive_stream,
    grover_iterate,
    init_uniform,
    measure,
    sample_after,
)

#: growth factor of the unknown-count search's iteration cutoff
CUTOFF_GROWTH = 6 / 5

#: repetitions of the parallel algorithm before reporting failure
MAX_REPETITIONS = 10


@dataclass(frozen=True)
class TargetSet:
    """The k distinct items to locate."""

    items: tuple

    def __post_init__(self):
        items = tuple(int(y) for y in self.items)
        if len(set(items)) != len(items):
            raise ValueError("target items must be pairwise distinct")
        if len(items) < 1:
            raise ValueError("need at least one target item")
        object.__setattr__(self, "items", items)

    @property
    def k(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class RegimeParams:
    """Per-cell item cap t and the regime tag it was chosen by."""

    t: int
    regime: str


@dataclass
class SearchOutcome:
    """Result of a (multi-item or parallel) search run."""

    targets: TargetSet
    located: dict            # item -> address
    success: bool
    ledger: QueryLedger
    find_times: dict = field(default_factory=dict)  # item -> oracle round of find
    repetitions: int = 1

    @property
    def parallel_rounds(self) -> int:
        return self.ledger.parallel_rounds


def optimal_iterations(M: int, j: int) -> int:
    """floor(pi / (4 arcsin sqrt(j/M))): 0 when everything is marked."""
    theta = math.asin(math.sqrt(j / M))
    return int(math.pi / (4 * theta))


def _grover_attempt(pred: MarkedPredicate, r: int, rng):
    """One Grover attempt over the subdomain of *pred*: uniform start, r
    iterations, one measurement and the classical check of the measured
    address.  The measurement is sampled from the closed form by
    :func:`~parsearch.core.sample_after`; :func:`_dense_grover_attempt` is
    the state-vector reference.  The attempt costs r + 1 oracle queries
    (see :class:`~parsearch.core.QueryLedger`).

    Returns ``(address, r + 1)``, address None when it holds no target.
    """
    marked = pred.marked
    pick = sample_after(pred.size, int(marked.size), r, rng)
    addr = None if pick is None else int(marked[pick])
    return addr, r + 1


def _dense_grover_attempt(pred: MarkedPredicate, r: int, rng):
    """Reference for :func:`_grover_attempt` on the dense simulator: the
    same attempt and return, with r iterations of an M-entry state vector
    and a measurement over all M positions, of which the first j stand for
    the marked addresses (see :attr:`~parsearch.core.MarkedPredicate.mask`)."""
    state = init_uniform(pred.size)
    for _ in range(r):
        state = grover_iterate(state, pred)
    index = measure(state, rng)
    addr = int(pred.marked[index]) if index < pred.marked.size else None
    return addr, r + 1


def grover_search_known(pred: MarkedPredicate, j: int, seed):
    """Grover search assuming exactly *j* marked addresses in the subdomain
    of *pred*.

    One attempt with the optimal iteration count r for the assumed j.
    Returns ``(address, queries)``: ``address`` is None when the measurement
    missed, and ``queries`` = r + 1 is the oracle queries it made.
    """
    M = pred.size
    if j < 1 or j > M:
        raise ValueError(f"assumed count j={j} outside [1, {M}]")
    return _grover_attempt(pred, optimal_iterations(M, j), as_generator(seed))


def bbht_search_unknown(pred: MarkedPredicate, seed):
    """Search the subdomain of *pred* without knowing the marked count, via
    growing random cutoffs.

    Stage s draws an iteration count uniformly from [0, min(lambda**s,
    sqrt(M))] and makes one Grover attempt with it.  Aborts once the
    remaining budget cannot cover another stage; the budget is
    ceil(9/4 sqrt(M)) + 2 ceil(log_lambda sqrt(M)) total queries.

    Returns ``(address, queries)``: address None when nothing was found,
    and ``queries`` the oracle queries of all its stages.
    """
    M = pred.size
    if M == 0:
        raise ValueError("cannot search an empty subdomain")
    rng = as_generator(seed)
    sqrt_m = math.sqrt(M)
    budget = math.ceil(9 / 4 * sqrt_m)
    if M > 1:
        budget += 2 * math.ceil(math.log(sqrt_m) / math.log(CUTOFF_GROWTH))

    queries = 0
    stage = 0
    while True:
        cap = int(min(CUTOFF_GROWTH ** stage, sqrt_m))
        if queries + cap + 1 > budget:
            return None, queries
        r = int(rng.integers(0, cap + 1))
        addr, cost = _grover_attempt(pred, r, rng)
        queries += cost
        if addr is not None:
            return addr, queries
        stage += 1


def multi_item_search(
    db: Database,
    subdomain,
    targets: TargetSet,
    t: int,
    seed,
) -> SearchOutcome:
    """Iterated search for up to *t* of the target items in the subdomain.

    Step i (i = 1..t) searches with assumed marked count t-i+1; a found
    item is removed from the target set and its address from the search
    space.  A failed step falls back to the unknown-count search, since
    fewer than the assumed number may be present; when the fallback also
    finds nothing the subdomain is treated as exhausted.  The subdomain is
    scanned once, for the first predicate; each find then shrinks it with
    :meth:`~parsearch.core.MarkedPredicate.without`.

    ``success`` means every target item actually present in the subdomain
    was located, that is, no marked address is left.  The searches return
    their query counts and this is the one place that charges them, to the
    outcome's one-copy ledger; ``find_times`` gives the query count at
    which each item's check confirmed it.
    """
    rng = as_generator(seed)
    ledger = QueryLedger()
    pred = MarkedPredicate(db, frozenset(targets.items), subdomain)
    located: dict = {}
    find_times: dict = {}

    for i in range(1, t + 1):
        if not pred.targets or pred.size == 0:
            break
        assumed = min(t - i + 1, pred.size)
        addr, queries = grover_search_known(pred, assumed, rng)
        ledger.record_oracle(0, queries)
        if addr is None:
            addr, queries = bbht_search_unknown(pred, rng)
            ledger.record_oracle(0, queries)
            if addr is None:
                break
        y = db.lookup(addr)
        located[y] = addr
        find_times[y] = ledger.oracle_counts[0]
        pred = pred.without(addr)

    return SearchOutcome(
        targets=targets,
        located=located,
        success=pred.marked.size == 0,
        ledger=ledger,
        find_times=find_times,
    )


def random_partition(N: int, d: int, seed) -> tuple:
    """Uniformly random equipartition of [N] into d cells.

    A uniform permutation of [N] cut into d contiguous blocks whose sizes
    differ by at most one, the larger blocks first.  Returns the tuple of
    cells, each an array of its addresses in permutation order.
    """
    if d < 1 or d > N:
        raise ValueError(f"need 1 <= d <= N, got d={d}, N={N}")
    return tuple(np.array_split(as_generator(seed).permutation(N), d))


def choose_regime(N: int, d: int, k: int) -> RegimeParams:
    """Per-cell cap t for the four (k vs d) cases of the parallel algorithm.

    With one copy there is one cell, and the algorithm is exactly the
    multi-item search with cap t = k.  lg means log base 2; non-integer cap
    expressions are rounded up.  Warns when d or k exceeds sqrt(N), where
    the cost bounds no longer hold.
    """
    regime = _regime_case(d, k)
    if d > math.isqrt(N) or k > math.isqrt(N):
        warnings.warn(
            f"d={d}, k={k} exceed sqrt(N)={math.isqrt(N)}; cost bounds assume "
            "d, k <= sqrt(N)",
            stacklevel=2,
        )
    return regime


def _regime_case(d: int, k: int) -> RegimeParams:
    """The (k vs d) case and its cap t, without the sqrt(N) warning."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    if d == 1:
        return RegimeParams(t=k, regime="d=1")
    lg_d = math.log2(d)
    if k <= math.sqrt(d):
        return RegimeParams(t=2, regime="k<=sqrt(d)")
    if k <= d:
        return RegimeParams(t=math.ceil(5 * lg_d), regime="sqrt(d)<k<=d")
    if k <= d * lg_d:
        return RegimeParams(t=math.ceil(5 * k * lg_d / d), regime="d<k<=d*lg(d)")
    return RegimeParams(t=math.ceil(2 * k / d), regime="k>d*lg(d)")


def theorem_envelope(N: int, d: int, k: int) -> float:
    """Reference parallel-round expression for the regime of (N, d, k).

    Uses max(lg d, 1) so the d=1 case degenerates to the single-database
    sqrt(N*k) cost instead of zero.
    """
    regime = _regime_case(d, k).regime
    lg_d = max(math.log2(d), 1.0)
    if regime == "k<=sqrt(d)":
        return math.sqrt(N / d)
    if regime == "k>d*lg(d)":
        return math.sqrt(N * k) / d
    return math.sqrt(N * k * lg_d / (d * min(k, d)))


def maxload_bound(k: int, t: int, d: int) -> float:
    """Probability bound C(k, t) * d**(-t) that one cell holds more than t items."""
    if d < 1:
        raise ValueError("need d >= 1")
    if t < 0:
        raise ValueError("need t >= 0")
    if t > k:
        return 0.0
    return math.comb(k, t) / d ** t


def verify_locations(db: Database, outcome: SearchOutcome) -> bool:
    """Classically check a claimed item -> address map against the database.

    True iff all k target items are claimed and every claimed pair satisfies
    f(address) = item.  Costs ceil(k/d) verification rounds (k lookups spread
    over the d copies), tallied on the outcome's ledger.
    """
    k = outcome.targets.k
    d = outcome.ledger.copies
    outcome.ledger.record_verification(math.ceil(k / d))
    if set(outcome.located) != set(outcome.targets.items):
        return False
    return all(db.lookup(addr) == item for item, addr in outcome.located.items())


def parallel_search(
    db: Database,
    d: int,
    targets: TargetSet,
    seed,
    t: int | None = None,
) -> SearchOutcome:
    """Locate all target items using d database copies searched in lockstep.

    Each repetition draws a fresh random equipartition of the address space,
    dedicates one copy to each cell, and runs the iterated multi-item search
    with the per-cell cap *t* (by default the regime cap of
    :func:`choose_regime`) on every copy.  Copies run in lockstep, one
    parallel round per oracle query, charged by the rule of
    :class:`~parsearch.core.QueryLedger`; as soon as the check of the last
    still-missing item confirms it, all copies halt, so the repetition's
    round count is the find time of that item.  A repetition that leaves
    items unlocated costs the longest copy program and triggers another
    repetition (fresh partition, already-located items excluded) up to
    ``MAX_REPETITIONS``.  ``find_times`` count parallel rounds from the
    start of the search, across repetitions.

    The seed may be an int, a sequence of ints or a SeedSequence; each
    repetition's partition and each copy's search get their own stream
    from :func:`~parsearch.core.derive_stream`, so results do not depend on
    scheduling.
    """
    N = db.size
    if not 1 <= d <= N:
        raise ValueError(f"need 1 <= d <= N, got d={d}, N={N}")
    if t is None:
        t = choose_regime(N, d, targets.k).t

    outcome = SearchOutcome(
        targets=targets,
        located={},
        success=False,
        ledger=QueryLedger(d),
        repetitions=0,
    )
    ledger = outcome.ledger

    for rep in range(MAX_REPETITIONS):
        outcome.repetitions += 1
        closed = ledger.parallel_rounds
        missing = TargetSet([y for y in targets.items if y not in outcome.located])
        cells = random_partition(
            N, d, seed=derive_stream(seed, STREAM_PARTITION, rep)
        )
        copies = [
            multi_item_search(db, cell, missing, t,
                              seed=derive_stream(seed, STREAM_COPY, rep, c))
            for c, cell in enumerate(cells)
        ]
        if {y for out in copies for y in out.located} == set(missing.items):
            # lockstep halt: every copy stops at the round where the last
            # needed item was confirmed
            stop = max((when for out in copies for when in out.find_times.values()),
                       default=0)
        else:
            stop = max(out.ledger.oracle_counts[0] for out in copies)

        for c, out in enumerate(copies):
            ledger.record_oracle(c, min(out.ledger.oracle_counts[0], stop))
            outcome.located.update(out.located)
            for y, when in out.find_times.items():
                outcome.find_times[y] = closed + when
        ledger.end_repetition()

        outcome.success = verify_locations(db, outcome)
        if outcome.success:
            break
    return outcome

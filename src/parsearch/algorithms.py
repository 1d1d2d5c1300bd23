"""Upper-bound search algorithms: known-count Grover search, unknown-count
search with exponentially growing cutoffs, iterated multi-item search, and
the parallel partition algorithm with regime-dependent per-cell item caps.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
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


def bbht_schedule(M: int) -> tuple:
    """Query budget and stage cutoffs of the unknown-count search over M
    addresses.

    Returns ``(budget, caps)``.  The budget is ceil(9/4 sqrt(M)) +
    2 ceil(log_lambda sqrt(M)) queries, without the log term at M = 1, for
    lambda = ``CUTOFF_GROWTH``.  ``caps`` is the endless iterator of stage
    cutoffs, int(min(lambda**s, sqrt(M))) for stage s = 0, 1, ...
    """
    sqrt_m = math.sqrt(M)
    budget = math.ceil(9 / 4 * sqrt_m)
    if M > 1:
        budget += 2 * math.ceil(math.log(sqrt_m) / math.log(CUTOFF_GROWTH))
    caps = (int(min(CUTOFF_GROWTH ** s, sqrt_m)) for s in itertools.count())
    return budget, caps


def bbht_search_unknown(pred: MarkedPredicate, seed):
    """Search the subdomain of *pred* without knowing the marked count, via
    growing random cutoffs.

    Stage s draws an iteration count uniformly from [0, cap_s] and makes
    one Grover attempt with it, while the queries so far plus cap_s + 1
    stay within the budget; budget and cutoffs are those of
    :func:`bbht_schedule`.

    Returns ``(address, queries)``: address None when nothing was found,
    and ``queries`` the oracle queries of all its stages.
    """
    M = pred.size
    if M == 0:
        raise ValueError("cannot search an empty subdomain")
    rng = as_generator(seed)
    budget, caps = bbht_schedule(M)
    queries = 0
    for cap in caps:
        if queries + cap + 1 > budget:
            return None, queries
        r = int(rng.integers(0, cap + 1))
        addr, cost = _grover_attempt(pred, r, rng)
        queries += cost
        if addr is not None:
            return addr, queries


def _empty_programs(sizes, steps, rng, *, limits=None) -> np.ndarray:
    """Program lengths of copies with no marked address left in cells of
    the given *sizes*, and *steps* steps of :func:`multi_item_search` left,
    each drawn up to the stage that reaches its limit.

    Every attempt there misses, so the rest of a copy's program is fixed:
    with s >= 1 steps left, one known-count attempt of r + 1 queries,
    r = optimal_iterations(M, min(s, M)), then the stages of
    :func:`bbht_search_unknown` until its budget runs out, each costing
    one more query than its uniform draw from [0, cap]; with none left,
    nothing.  *steps* and *limits* are one count for all cells or one per
    cell; without *limits* every program is whole.  One stage loop draws
    the stages of all the cells at once from *rng*, one draw per cell per
    stage, and adds nothing to a cell that has reached its limit; it ends
    once no cell under its limit fits its next stage.  So a length below
    its limit is the whole program, one at or past it is cut by the caller,
    and the draws that decide it are those of the whole program.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    steps = np.broadcast_to(np.asarray(steps, dtype=np.int64), sizes.shape)
    kinds = sorted(set(sizes.tolist()))
    which = np.searchsorted(kinds, sizes)
    schedules = [bbht_schedule(M) for M in kinds]
    first = {(M, s): optimal_iterations(M, min(s, M)) + 1 if s else 0
             for M, s in set(zip(sizes.tolist(), steps.tolist()))}
    known = np.array([first[cell] for cell in zip(sizes.tolist(), steps.tolist())],
                     dtype=np.int64)
    # a copy with no step left fits no stage
    room = np.where(steps > 0, np.array([budget - 1 for budget, _ in schedules],
                                        dtype=np.int64)[which], -1)
    if limits is None:
        limits = np.iinfo(np.int64).max
    limits = np.asarray(limits, dtype=np.int64)
    spent = np.zeros(sizes.size, dtype=np.int64)
    for caps in zip(*(caps for _, caps in schedules)):
        cap = np.array(caps, dtype=np.int64)[which]
        # cutoffs never shrink, so a cell whose stage did not fit stays done
        running = (spent + cap <= room) & (known + spent < limits)
        if not running.any():
            break
        spent += np.where(running, rng.integers(0, cap + 1) + 1, 0)
    return known + spent


def multi_item_search(
    db,
    sizes,
    addresses,
    cells,
    targets: TargetSet,
    t: int,
    seed,
) -> SearchOutcome:
    """Iterated search for up to *t* of the target items in each of d cells,
    one copy per cell.

    Cell c holds ``sizes[c]`` addresses.  ``addresses`` are all the
    addresses of the cells that hold a target item, ``addresses[i]`` lying
    in cell ``cells[i]``, one address per item: the items stored there are
    read once, with one ``db.items_at`` call, and an address that holds no
    target item, or a target item at two of them, is refused with
    ValueError.  Every copy runs the same program on its cell: step i
    (i = 1..t) searches with assumed marked count t-i+1; a found item is
    removed from the target set and its address from the search space.  A
    failed step falls back to the unknown-count search, since fewer than
    the assumed number may be present; when the fallback also finds
    nothing the cell is treated as exhausted.  A copy that has located
    every target item stops.

    All of the copies' randomness comes from the one stream *seed*.  The
    cells with marked addresses are searched on it step by step, in
    ascending cell order, each over one predicate of its size and ascending
    marked addresses that each find shrinks with
    :meth:`~parsearch.core.MarkedPredicate.without`.  Where no marked
    address is left every attempt misses, so the rest of a copy's program
    is fixed in law: it is drawn from the first step at which its cell holds
    none, unless the copy has stopped.  Then one :func:`_empty_programs`
    call on the same stream draws all those rests at once.

    The copies run in lockstep and halt once every target item is located,
    at the round of the last find; the outcome's d-copy ledger charges each
    copy its program up to that halt, by the rule of
    :class:`~parsearch.core.QueryLedger`: every charge is cut at the halt.
    A drawn rest is drawn only up to the stage that reaches the halt, so
    no later stage is drawn.  A searched copy has made its last query by
    then.  A repetition that leaves an item unlocated charges whole
    programs.
    ``find_times`` gives, for each located item, the queries its copy had
    made when its check confirmed it.  ``success`` means no marked address
    is left in any cell.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    addresses = np.asarray(addresses, dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    if addresses.ndim != 1 or cells.shape != addresses.shape:
        raise ValueError("need one cell per address")
    if cells.size and not 0 <= cells.min() <= cells.max() < sizes.size:
        raise ValueError(f"cells must lie in [0, {sizes.size})")
    items = db.items_at(addresses)
    if not np.isin(items, targets.items).all():
        raise ValueError("an address holds no target item")
    ordered = np.sort(items)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("a target item is stored at two addresses")
    item_at = dict(zip(addresses.tolist(), items.tolist()))
    rng = as_generator(seed)
    spent = [0] * sizes.size    # the queries each copy has made
    located: dict = {}
    find_times: dict = {}
    left = 0

    held: dict = {}     # cell -> its ascending marked addresses, cells ascending
    for c, addr in sorted(zip(cells.tolist(), addresses.tolist())):
        held.setdefault(c, []).append(addr)
    # each copy's cell size and steps left once its cell holds no marked
    # address: all t steps of a cell with none, and none of a stopped copy
    left_sizes = sizes.copy()
    steps = np.full(sizes.size, t, dtype=np.int64)
    for c, marked in held.items():
        pred = MarkedPredicate(int(sizes[c]), marked)
        steps[c] = 0
        for i in range(1, t + 1):
            # step i follows i - 1 finds, one item each
            if i > targets.k or pred.size == 0:
                break
            if not pred.marked.size:
                left_sizes[c], steps[c] = pred.size, t - i + 1
                break
            assumed = min(t - i + 1, pred.size)
            addr, queries = grover_search_known(pred, assumed, rng)
            spent[c] += queries
            if addr is None:
                addr, queries = bbht_search_unknown(pred, rng)
                spent[c] += queries
                if addr is None:
                    break
            y = item_at[addr]
            located[y] = addr
            find_times[y] = spent[c]
            pred = pred.without(addr)
        left += pred.marked.size

    charges = np.array(spent, dtype=np.int64)
    # lockstep halt: the round where the last missing item was confirmed
    stop = max(find_times.values()) if len(located) == targets.k else None
    which = np.flatnonzero(steps)
    if which.size:
        limits = None if stop is None else stop - charges[which]
        charges[which] += _empty_programs(left_sizes[which], steps[which], rng,
                                          limits=limits)
    if stop is not None:
        charges = np.minimum(charges, stop)
    ledger = QueryLedger(sizes.size)
    ledger.record_repetition(charges.tolist())

    return SearchOutcome(
        targets=targets,
        located=located,
        success=left == 0,
        ledger=ledger,
        find_times=find_times,
    )


def cell_sizes(N: int, d: int) -> np.ndarray:
    """Sizes of the d cells of an equipartition of [N], the larger first."""
    base, extra = divmod(N, d)
    return np.repeat(np.array([base + 1, base], dtype=np.int64), [extra, d - extra])


def random_partition(N: int, d: int, addresses, seed) -> np.ndarray:
    """The cell of each of the distinct *addresses* in a uniformly random
    equipartition of [N] into d cells.

    The partition is a uniform permutation of [N] cut into d contiguous
    blocks of :func:`cell_sizes`, the larger first.  Only the addresses'
    positions in that permutation matter, and those are a uniform ordered
    sample of distinct positions, one ``rng.choice`` without replacement;
    no N-entry permutation is made.  Returns the cell of ``addresses[i]``
    at index i.
    """
    if d < 1 or d > N:
        raise ValueError(f"need 1 <= d <= N, got d={d}, N={N}")
    addresses = np.asarray(addresses, dtype=np.int64)
    if len(set(addresses.tolist())) != addresses.size:
        raise ValueError("addresses must be distinct")
    positions = as_generator(seed).choice(N, size=addresses.size, replace=False)
    base, extra = divmod(N, d)
    big = extra * (base + 1)    # positions in the larger blocks
    return np.where(positions < big, positions // (base + 1),
                    extra + (positions - big) // base)


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
    """Probability bound min(1, C(k, t) * d**(-t)) that one cell holds at
    least t items; the clamp is decided on integers, so no quotient
    overflows."""
    if d < 1:
        raise ValueError("need d >= 1")
    if t < 0:
        raise ValueError("need t >= 0")
    if t > k:
        return 0.0
    overloads, placements = math.comb(k, t), d ** t
    return 1.0 if overloads >= placements else overloads / placements


def maxload_exceedance(N: int, d: int, k: int, t: int) -> float:
    """Exact probability that some cell of a uniform equipartition of [N]
    into d cells holds more than t of k distinct uniform target addresses.

    With G = prod_c (1 + lam x)**s_c over the sizes s_c of
    :func:`cell_sizes`, and F the same product with each factor cut after
    degree t, this is [x^k] (G - F) / [x^k] G.  Each cell size's factor is
    raised to its count by squaring, every product cut after degree k:
    O(k**2 log d).  D = G - F is carried as D1 G2 + F1 D2, a sum of
    positive terms, so a tiny exceedance keeps its relative precision.
    lam = k / (N - k + 1) puts G's largest coefficient at degree k, and one
    power of two rescales each (G, F, D) after a product, which leaves
    their ratios exact.  Products are elementwise numpy arithmetic, not a
    BLAS dot product with a machine-dependent summation order, so every
    machine gives the same bits.
    """
    if not (1 <= d <= N and 0 <= k <= N and t >= 0):
        raise ValueError(f"need 1 <= d <= N, 0 <= k <= N and t >= 0, got "
                         f"N={N}, d={d}, k={k}, t={t}")
    if t >= k:
        return 0.0
    if t * d < k:
        return 1.0
    lam = k / (N - k + 1)

    def product(a, b):
        c = np.zeros(min(len(a) + len(b) - 1, k + 1))
        for i in np.flatnonzero(a):
            n = min(len(b), len(c) - i)
            c[i:i + n] += a[i] * b[:n]
        return c

    def factor(size):
        logs = [0.0]
        for i in range(1, min(size, k) + 1):
            logs.append(logs[-1] + math.log((size - i + 1) / i * lam))
        top = max(logs)
        g = np.array([math.exp(x - top) for x in logs])
        f = np.where(np.arange(len(g)) <= t, g, 0.0)
        return g, f, g - f

    def combine(x, y):
        # F and D keep G's length, so both parts of D's sum have it too
        (g1, f1, d1), (g2, f2, d2) = x, y
        g = product(g1, g2)
        shift = -math.frexp(g.max())[1]
        return tuple(np.ldexp(p, shift) for p in
                     (g, product(f1, f2), product(d1, g2) + product(f1, d2)))

    def power(x, count):
        out = None
        while count:
            if count & 1:
                out = x if out is None else combine(out, x)
            count >>= 1
            if count:
                x = combine(x, x)
        return out

    base, extra = divmod(N, d)
    g, _, diff = functools.reduce(combine, [
        power(factor(size), count)
        for size, count in ((base + 1, extra), (base, d - extra)) if count])
    return min(1.0, float(diff[k] / g[k]))


def verify_locations(db, outcome: SearchOutcome) -> bool:
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
    db,
    d: int,
    targets: TargetSet,
    seed,
    t: int | None = None,
) -> SearchOutcome:
    """Locate all target items using d database copies searched in lockstep.

    ``db.locate`` finds the addresses holding target items; *db* is read
    only through ``size``, ``lookup``, ``items_at`` and ``locate``, so a
    :class:`~parsearch.core.PlantedDatabase` of any N costs what its k
    targets cost.  Each repetition then draws a fresh random equipartition
    of the address space, of which it places only the addresses of
    still-missing items (:func:`random_partition`), dedicates one copy to
    each cell, and runs
    the iterated multi-item search with the per-cell cap *t* (by default
    the regime cap of :func:`choose_regime`) on all d copies in one
    :func:`multi_item_search` call.  Copies run in lockstep, one parallel
    round per oracle query; that call charges each copy up to the halt by
    the rule of :class:`~parsearch.core.QueryLedger`, and this one records
    its charges.  A repetition that leaves items unlocated costs the
    longest copy program and triggers another repetition (fresh partition,
    already-located items excluded) up to ``MAX_REPETITIONS``.
    ``find_times`` count parallel rounds from the start of the search,
    across repetitions.

    The seed may be an int, a sequence of ints or a SeedSequence.  Each
    repetition derives two streams from it with
    :func:`~parsearch.core.derive_stream`: ``(STREAM_PARTITION, rep)`` for
    its partition and ``(STREAM_COPY, rep)`` for all its copies' searches.
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
    sizes = cell_sizes(N, d)
    where = db.locate(targets.items)
    items = db.items_at(where)

    for rep in range(MAX_REPETITIONS):
        outcome.repetitions += 1
        closed = ledger.parallel_rounds
        missing = TargetSet([y for y in targets.items if y not in outcome.located])
        addresses = where[np.isin(items, missing.items)]
        cells = random_partition(
            N, d, addresses, seed=derive_stream(seed, STREAM_PARTITION, rep)
        )
        copies = multi_item_search(db, sizes, addresses, cells, missing, t,
                                   seed=derive_stream(seed, STREAM_COPY, rep))
        ledger.record_repetition(copies.ledger.oracle_counts)
        outcome.located.update(copies.located)
        for y, when in copies.find_times.items():
            outcome.find_times[y] = closed + when

        outcome.success = verify_locations(db, outcome)
        if outcome.success:
            break
    return outcome

"""Upper-bound search algorithms: known-count Grover search, unknown-count
search with exponentially growing cutoffs, iterated multi-item search, and
the parallel partition algorithm with regime-dependent per-cell item caps.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    MarkedPredicate,
    QueryLedger,
    grover_iterate,
    init_uniform,
    measure,
    sample_after,
)

#: growth factor of the unknown-count search's iteration cutoff
CUTOFF_GROWTH = 6 / 5

#: CUTOFF_GROWTH**s for s = 0..120; entry 120 is the first past
#: sqrt(2**63), so every later stage of any int64 cell size M has the
#: cutoff sqrt(M)
_GROWTH = np.array([CUTOFF_GROWTH ** s for s in range(121)])

#: unknown-count stages drawn at once per cell: a block costs two numpy
#: draws for all the cells still searching, and most searches end within
#: one or two blocks
STAGE_BLOCK = 32

#: cells drawn at once: a block's arrays hold BLOCK_ROWS * STAGE_BLOCK
#: entries, 1 MB each, however many copies a repetition has
BLOCK_ROWS = 1 << 12

#: largest bbht_budget of a row drawn from its tabled law
#: (:func:`_stage_law`), a rest or a cell's first step: that of
#: M = 52,391,860, about 2^25.6; a row of a larger budget is drawn stage by
#: stage.  Measured on 2 cores, Python 3.11, numpy 2.4, a cold table took
#: 1.0 ms for a rest and 3.1 ms for an (M, j) step, j = 1 to 64, at M = 2^20
#: (budget 2,382), 1.7 and 6.5 ms at 2^24 (9,308), and 2.4 and 11-13 ms
#: at this limit, while a row cost about 2 us drawn stage by stage and
#: 0.2 us from a table.  A search builds one table per (cell size, load)
#: of its first steps and per rest's budget, a few in all, so a single
#: trial at d = 65,536 cells of 2^24 pays about 20 ms for them and still
#: runs faster than with stage blocks.  The limit keeps a cold table near
#: 12 ms, where a search of few large cells (16 rows a repetition at
#: d = 16) would never repay it.
TABLE_BUDGET = 1 << 14

#: tables built by the unknown-count stages' dynamic program stop once the
#: mass still running is below this: a uniform of 53 bits cannot tell the
#: difference, and past it the program would only push underflowing mass
STAGE_MASS_FLOOR = 2.0 ** -64

#: the largest double below 1: a key that looks a uniform's outcome up in a
#: distribution function is kept below its last entry, 1
_BELOW_ONE = math.nextafter(1.0, 0.0)

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
    """Result of a :func:`parallel_search` run."""

    located: dict            # item -> address
    success: bool
    ledger: QueryLedger

    @property
    def parallel_rounds(self) -> int:
        return self.ledger.parallel_rounds

    @property
    def repetitions(self) -> int:
        """The repetitions recorded on the ledger, one per partition drawn."""
        return len(self.ledger.rounds_per_repetition)


@functools.lru_cache(maxsize=1 << 14)
def optimal_iterations(M: int, j: int) -> int:
    """floor(pi / (4 arcsin sqrt(j/M))): 0 when everything is marked.  The
    step sampler asks for it once per distinct (M, j) of each row block,
    and blocks of one search share most of them, so the last 2^14 pairs
    are kept."""
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
    the marked addresses (see :func:`~parsearch.core.grover_iterate`)."""
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
    return _grover_attempt(pred, optimal_iterations(M, j), np.random.default_rng(seed))


@functools.lru_cache(maxsize=1 << 14)
def bbht_budget(M: int) -> int:
    """Query budget of the unknown-count search over M >= 1 addresses:
    ceil(9/4 sqrt(M)) + 2 ceil(log_lambda sqrt(M)) queries, for lambda =
    ``CUTOFF_GROWTH``.  At M = 1 the log term is 0, since log 1 is exactly
    0, so the formula needs no case of its own.  The step sampler asks for
    it once per distinct M of each row block, and blocks of one search
    share most of them, so the last 2^14 are kept."""
    sqrt_m = math.sqrt(M)
    return (math.ceil(9 / 4 * sqrt_m)
            + 2 * math.ceil(math.log(sqrt_m) / math.log(CUTOFF_GROWTH)))


def _cutoffs(sqrt_m, stages=slice(None)) -> np.ndarray:
    """Stage cutoffs int(min(CUTOFF_GROWTH**s, sqrt(M))) of the given
    *stages*, all of ``_GROWTH``'s by default, for the given sqrt(M)."""
    return np.minimum(_GROWTH[stages], sqrt_m).astype(np.int64)


def _window_sums(mass: np.ndarray, cap: int) -> np.ndarray:
    """Entry x is the sum of mass[x - cap .. x], for x = 0 .. size + cap - 1:
    the convolution with cap + 1 ones, from one cumulative sum."""
    total = np.cumsum(mass)
    out = np.empty(mass.size + cap, dtype=total.dtype)
    out[:mass.size] = total
    out[mass.size:] = total[-1]
    out[cap + 1:] -= total[:-1]
    return out


@functools.lru_cache(maxsize=96)
def _stage_law(budget: int, root: int, theta: float) -> np.ndarray:
    """Distribution function of the unknown-count stages of
    :func:`bbht_search_unknown` over a cell of budget *budget* and
    int(sqrt(M)) = *root* in which the marked mass is sin^2 theta, over
    2 (budget + 1) outcomes: entry q <= budget is the probability that the
    stages end without a hit within q queries, and entry budget + 1 + q adds
    those that hit within q.  The stages read M only through budget and
    root, since the cutoffs int(min(lambda**s, sqrt(M))) of :func:`_cutoffs`
    equal those of sqrt(M) = root, and the hits only through theta, so cells
    of nearby sizes share a table.  Where nothing is marked, theta = 0, the
    stages never hit and the hit half is flat at exactly 1.  The last 96
    tables are kept, at most 25.2 MB under ``TABLE_BUDGET``, so a search
    builds each once for all of its trials.

    A dynamic program over the stages: ``mass[i]`` is the probability that
    every stage so far ran and missed, at lo + i queries spent in all.
    Stage s, of cutoff cap, stops the mass at q > budget - cap - 1, and the
    rest runs an attempt of r iterations, r uniform in 0..cap, which costs
    r + 1 queries and hits with sin^2((2r + 1) theta) = (1 - cos((2r + 1)
    phi)) / 2, phi = 2 theta.  So the mass it moves to x splits into the
    window sum of the uniform kernel, one cumulative sum, and that of the
    cosine, whose phase (2x - 2q - 1) phi factors into one of the start q
    and one of the end x: a second, complex, cumulative sum.  The vector
    spans only the queries the stages so far can reach, and the loop ends
    when the mass still running is below ``STAGE_MASS_FLOOR``.  Elementwise
    numpy and ``cumsum`` only, no BLAS convolution or dot product.
    """
    caps = _cutoffs(float(root)).tolist()
    law = np.zeros(2 * (budget + 1))
    stopped, hit = law[:budget + 1], law[budget + 1:]
    if theta:
        phase = 2 * theta * np.arange(budget + 1)
        start, end = np.exp(-2j * phase), np.exp(1j * (2 * phase - 2 * theta))
    mass, lo = np.ones(1), 0
    for s in itertools.count():
        cap = caps[min(s, len(caps) - 1)]
        runs = max(0, min(mass.size, budget - cap - lo))
        stopped[lo + runs:lo + mass.size] += mass[runs:]
        mass = mass[:runs]
        if mass.sum() < STAGE_MASS_FLOOR:
            break
        moved = _window_sums(mass, cap) / (cap + 1)
        if theta:
            # P(next = x, hit) = (moved[x] - cosine window[x]) / 2
            x = slice(lo + 1, lo + 1 + moved.size)
            cosine = (end[x] * _window_sums(mass * start[lo:lo + runs], cap)).real
            cosine = np.clip(cosine / (cap + 1), -moved, moved)
            hit[x] += (moved - cosine) / 2
            moved = (moved + cosine) / 2
        mass = moved
        lo += 1
    cdf = np.cumsum(law)
    return cdf / cdf[-1]


def bbht_search_unknown(pred: MarkedPredicate, seed):
    """Search the subdomain of *pred* without knowing the marked count, via
    growing random cutoffs.

    Stage s draws an iteration count uniformly from [0, cap_s] and makes
    one Grover attempt with it, while the queries so far plus cap_s + 1
    stay within the budget of :func:`bbht_budget`.  The cutoff of stage s
    is int(min(lambda**s, sqrt(M))), lambda = ``CUTOFF_GROWTH``, from
    :func:`_cutoffs`; the stages past its table's last entry share that
    entry.

    Returns ``(address, queries)``: address None when nothing was found,
    and ``queries`` the oracle queries of all its stages.
    """
    M = pred.size
    if M == 0:
        raise ValueError("cannot search an empty subdomain")
    rng = np.random.default_rng(seed)
    budget, caps = bbht_budget(M), _cutoffs(math.sqrt(M))
    queries = 0
    for s in itertools.count():
        cap = int(caps[min(s, caps.size - 1)])
        if queries + cap + 1 > budget:
            return None, queries
        r = int(rng.integers(0, cap + 1))
        addr, cost = _grover_attempt(pred, r, rng)
        queries += cost
        if addr is not None:
            return addr, queries


def _hit_chance(r, theta, full) -> np.ndarray:
    """The chance that a Grover attempt of r iterations hits, in a cell with
    theta = asin(sqrt(j/M)): sin^2((2r + 1) theta), or 1 where every address
    is marked (``full``)."""
    return np.where(full, 1.0, np.sin((2 * r + 1) * theta) ** 2)


def _draw_hits(r, theta, full, rng) -> np.ndarray:
    """Whether Grover attempts of r iterations hit, one entry per row of r,
    each with its :func:`_hit_chance`.  A row with nothing marked misses
    every attempt, and draws nothing."""
    live = np.flatnonzero(theta)
    hits = np.zeros(r.shape, dtype=bool)
    r = r[live]
    hits[live] = rng.random(r.shape) < _hit_chance(r, theta[live], full[live])
    return hits


def _draw_steps(sizes, marked, assumed, rng, first):
    """One step of :func:`multi_item_search` for each row of a batch: a cell
    with ``marked[i]`` of its ``sizes[i]`` addresses marked, assuming
    ``assumed[i]`` are.  ``first[i]`` says that the row is a cell's first
    step.

    A step is the known-count attempt of :func:`grover_search_known`, then,
    on a miss, the stages of :func:`bbht_search_unknown`, in the same law:
    an attempt of r iterations costs r + 1 queries and hits with the
    marked mass of :func:`~parsearch.core.sample_after`; the known-count
    attempt takes r0 = ``optimal_iterations(M, assumed)``, and stage s draws
    r uniformly from [0, cap_s] and runs while the stages' queries so far
    plus cap_s + 1 stay within the budget of :func:`bbht_budget`.  The rows
    are drawn ``BLOCK_ROWS`` at a time, all on *rng*, so a call's arrays
    stay small whatever the batch.

    In a block, the rows whose budget is within ``TABLE_BUDGET`` and that
    are a first step or have no marked address (a rest) are tabled; the
    others, later steps and rows past the limit, are staged.  One
    ``random`` call draws a uniform u for each known-count attempt, the
    tabled rows' and then those of the staged rows with a marked address:
    a staged row with none misses every attempt and draws no hit.  Below
    p0 = sin^2((2 r0 + 1) theta), the attempt's hit chance, the step hit
    at r0 + 1 queries.  Otherwise a tabled row's (u - p0) / (1 - p0) picks
    the stages' outcome, hit or not and their queries, from the exact law
    :func:`_stage_law` of the row's budget, int(sqrt(M)) and theta, of
    which a rest's, at theta = 0, never hits.  A table ends at exactly 1
    and every key stays below it, so the draw is exact to the 53-bit
    uniform and the table's doubles; the keys are sorted once, and one
    ``searchsorted`` per table serves its rows.  Which rows are tabled
    depends on the rows alone, never on which tables are kept, so a draw
    does not depend on what ran before.  Last the stages of the staged
    rows that missed are drawn ``STAGE_BLOCK`` at a time, one block for
    each row still searching.

    Returns ``(hits, queries)``: whether each row's step found a marked
    address, and the queries it made.
    """
    rows = [np.asarray(a) for a in (sizes, marked, assumed)]
    rows.append(np.asarray(first, dtype=bool))
    parts = [_draw_rows(rng, *(a[lo:lo + BLOCK_ROWS] for a in rows))
             for lo in range(0, rows[0].size, BLOCK_ROWS)]
    return tuple(np.concatenate(drawn) for drawn in zip(*parts))


def _draw_rows(rng, sizes, marked, assumed, first):
    """:func:`_draw_steps` for at most ``BLOCK_ROWS`` rows."""
    # the distinct (M, j, assumed) of the rows, sorted, and each row's kind
    order = np.lexsort((assumed, marked, sizes))
    M, j, a = sizes[order], marked[order], assumed[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (M[1:] != M[:-1]) | (j[1:] != j[:-1]) | (a[1:] != a[:-1])
    kind = np.empty(order.size, dtype=np.int64)
    kind[order] = np.cumsum(new) - 1
    M, j, a = M[new], j[new], a[new]
    # each kind's budget and known-count iterations r0, looked up once per
    # distinct M and once per distinct (M, assumed)
    Ms, js = M.tolist(), j.tolist()
    pairs = list(zip(Ms, a.tolist()))
    budget_of = {m: bbht_budget(m) for m in dict.fromkeys(Ms)}
    r0_of = {pair: optimal_iterations(*pair) for pair in dict.fromkeys(pairs)}
    budgets = list(map(budget_of.get, Ms))
    budget = np.array(budgets, dtype=np.int64)
    r0 = np.fromiter(map(r0_of.get, pairs), dtype=np.int64, count=len(pairs))
    theta = np.arcsin(np.sqrt(j / M))
    p0 = _hit_chance(r0, theta, j == M)
    queries = r0[kind] + 1
    spent = np.zeros(order.size, dtype=np.int64)    # by the unknown-count stages
    hits = np.zeros(order.size, dtype=bool)
    tabled = (budget <= TABLE_BUDGET)[kind] & (first | (marked == 0))
    row, staged = np.flatnonzero(tabled), np.flatnonzero(~tabled)
    # one uniform per known-count attempt, for the tabled rows and then the
    # staged ones with a marked address: with none, every attempt misses
    drawn = np.concatenate((row, staged[marked[staged] > 0]))
    u = rng.random(drawn.size)
    hits[drawn] = u < p0[kind[drawn]]
    miss = ~hits[row]
    row, u = row[miss], u[:row.size][miss]
    if row.size:
        # the stages' outcome from the table of each row's budget,
        # int(sqrt(M)) and theta, which nearby sizes share where nothing is
        # marked.  Each table ends at exactly 1 and a key stays below it, so
        # the first entry past the key is an outcome of positive mass: for a
        # rest, whose hit half is flat at 1, a stop
        g, laws = kind[row], {}
        slot = np.zeros(M.size, dtype=np.int64)
        for k in np.flatnonzero(np.bincount(g, minlength=M.size)).tolist():
            law = (budgets[k], int(math.sqrt(Ms[k])),
                   math.asin(math.sqrt(js[k] / Ms[k])))
            slot[k] = laws.setdefault(law, len(laws))
        p, table = p0[g], slot[g]
        key = np.minimum((u - p) / (1 - p), _BELOW_ONE)
        # each table's keys in one run, in ascending order: sorted keys
        # search faster, 2.5 times for thousands.  The sort key 2 table +
        # key only orders the rows: rounded, it stays in its table's run
        by = np.argsort(2 * table + key)
        bounds = np.cumsum(np.bincount(table, minlength=len(laws))).tolist()
        at = np.empty(key.size, dtype=np.int64)
        for law, lo, hi in zip(laws, [0, *bounds], bounds):
            run = by[lo:hi]
            at[run] = np.searchsorted(_stage_law(*law), key[run], side="right")
        stop = budget[g] + 1            # a table's hits follow its stops
        hits[row] = hit = at >= stop
        spent[row] = at - stop * hit
    # stage blocks for the staged rows whose known-count attempt missed
    at = staged[~hits[staged]]          # the rows still searching
    stages = np.arange(STAGE_BLOCK)
    while at.size:
        mine = kind[at]
        cap = _cutoffs(np.sqrt(sizes[at, None]), stages)
        r = rng.integers(0, cap + 1)
        cost = r + 1
        # a stage runs if the queries before it plus cap + 1 fit the
        # budget, up to the first hit
        fits = np.cumsum(cost, axis=1) - r + cap <= (budget[mine] - spent[at])[:, None]
        hit = fits & _draw_hits(r, theta[mine, None], (j == M)[mine, None], rng)
        spent[at] += (cost * (fits & (np.cumsum(hit, axis=1) <= hit))).sum(axis=1)
        found = hit.any(axis=1)
        hits[at] = found
        at = at[~found & fits[:, -1]]
        # the stages past the table's last entry share its cutoff, sqrt(M)
        stages = np.minimum(stages + STAGE_BLOCK, _GROWTH.size - 1)
    return hits, queries + spent


class Repetition(NamedTuple):
    """One repetition of the copies' search, from :func:`multi_item_search`:
    ``found_at[i]`` is the queries that copy ``cells[i]`` had made when its
    check confirmed the i-th marked address, the one in that cell, or -1
    where it was not found, and ``ledger`` is the d-copy ledger of the
    repetition's charges."""

    found_at: np.ndarray
    ledger: QueryLedger


def multi_item_search(sizes, cells, k: int, t: int, seed) -> Repetition:
    """Iterated search for up to *t* marked addresses in each of d cells, one
    copy per cell, while *k* target items are still sought.

    Cell c holds ``sizes[c]`` addresses, and the i-th marked address, one
    that holds a sought item, lies in cell ``cells[i]``.  Which addresses
    they are is no input, and no database is read: a copy's search needs
    only its cell's size and how many of its addresses are marked.  *k*
    counts every sought item, also those stored nowhere, so it is at least
    the number of marked addresses.  A *cells* that is not 1-d or names a
    cell outside [0, d), a *k* below its length or below 1, and a cell with
    more marked addresses than addresses are refused with ValueError.
    Every copy runs the same program on its cell: step i
    (i = 1..t) searches with assumed marked count t-i+1; a found address
    leaves the search space.  A failed step falls back to the unknown-count
    search, since fewer than the assumed number may be present; when the
    fallback also finds nothing the cell is treated as exhausted.

    All of the copies' randomness comes from the one stream *seed*.  A
    hit picks a uniform marked address, so a cell's finds come in a
    uniform order of its marked addresses: one key per marked address,
    drawn in (cell, position in *cells*) order, fixes it, so the order of
    *cells* changes only which of a cell's marked addresses takes which of
    its finds.  Then one :func:`_draw_steps` call
    draws every step a copy could make: for cell c, in ascending cell
    order, a row for each step i = 1..min(loads[c], t), over the
    sizes[c] - i + 1 addresses left, loads[c] - i + 1 of them marked.
    Where no marked address is left every attempt misses, so the rest of a
    copy's program is one more step, at j = 0: with s steps left, the
    known-count attempt assumes min(s, M') of the M' addresses left, and
    the unknown-count stages run until the budget does.  So a cell with
    loads[c] < min(t, k) and addresses to spare has one more row, its
    rest: t - loads[c] steps over the sizes[c] - loads[c] addresses left,
    none of them marked.  Its length is that attempt's r + 1 plus the
    stages' queries, whose law depends on M' alone.  A cell's first step,
    over all sizes[c] addresses with loads[c] marked, is flagged to the
    sampler too: up to ``TABLE_BUDGET``, a first step and a rest are each
    one uniform, drawn on the known-count attempt and the exact law of its
    stages, one table of :func:`_stage_law`, so a search builds at most one
    table per (cell size, load) and per rest's budget and int(sqrt(M')),
    which nearby rests share.  The later steps, and the rows past the
    limit, are drawn stage by stage.  Given that a copy reaches step i,
    that step's law depends on i alone, so each row is drawn whether or
    not its copy reaches it: a copy makes its steps up to its first miss,
    where both of a step's searches miss, and is charged none of the rows
    after it.  A rest never hits, so a copy is charged its rest only when
    it has found every marked address of its cell.  Its finds are at its
    queries summed over its rows up to each hit.

    The copies run in lockstep and halt once all k items are found, at the
    round of the last find; the ledger charges each copy its program up to
    that halt, by the rule of :class:`~parsearch.core.QueryLedger`: every
    charge is cut at the halt.  A repetition that leaves an item unfound,
    also one stored nowhere, charges whole programs.  Returns a
    :class:`Repetition`: each marked address's queries at its find, and
    that ledger.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim != 1:
        raise ValueError("cells must be 1-d")
    if cells.size and not 0 <= cells.min() <= cells.max() < sizes.size:
        raise ValueError(f"cells must lie in [0, {sizes.size})")
    if k < max(1, cells.size):
        raise ValueError(f"need k >= max(1, {cells.size} marked addresses), got k={k}")
    loads = np.bincount(cells, minlength=sizes.size)
    if (loads > sizes).any():
        raise ValueError("a cell holds more marked addresses than addresses")
    rng = np.random.default_rng(seed)
    order = np.argsort(cells, kind="stable")
    order = order[np.lexsort((rng.random(order.size), cells[order]))]
    first = np.cumsum(loads) - loads    # each cell's first marked address there
    # one row per step i < min(load, t) a copy could make, then its rest if
    # it has one, in (cell, step) order: row i follows i finds, one per row
    rows = np.minimum(loads, t) + ((loads < min(t, k)) & (loads < sizes))
    start = np.cumsum(rows) - rows      # each cell's first row
    row_cell = np.repeat(np.arange(sizes.size), rows)
    head = start[row_cell]              # each row's cell's first row
    step = np.arange(row_cell.size) - head
    hits, queries = np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    if row_cell.size:
        left = sizes[row_cell] - step
        hits, queries = _draw_steps(left, loads[row_cell] - step,
                                    np.minimum(t - step, left), rng, step == 0)
    # a copy makes its rows up to and including its first miss, and the
    # rows after it are dropped; total[r] is the made rows' queries before r
    missed = ~hits
    before = np.cumsum(missed) - missed     # misses in the rows before each
    made = before == before[head]
    total = np.concatenate(([0], np.cumsum(np.where(made, queries, 0))))
    spent = total[start + rows] - total[start]
    find = np.flatnonzero(made & hits)
    found_at = np.full(cells.size, -1, dtype=np.int64)  # queries at each find
    at = order[first[row_cell[find]] + step[find]]  # each find's marked address
    found_at[at] = total[find + 1] - total[head[find]]
    # lockstep halt: the round where the last missing item was confirmed
    stop = found_at.max() if find.size == k else None
    ledger = QueryLedger(sizes.size)
    ledger.record_repetition(spent if stop is None else np.minimum(spent, stop))
    return Repetition(found_at, ledger)


def cell_sizes(N: int, d: int) -> np.ndarray:
    """Sizes of the d cells of an equipartition of [N], the larger first:
    the one layout of [N] that a partition cuts.  Refuses d outside [1, N]
    with ValueError."""
    if not 1 <= d <= N:
        raise ValueError(f"need 1 <= d <= N, got d={d}, N={N}")
    base, extra = divmod(N, d)
    return np.repeat(np.array([base + 1, base], dtype=np.int64), [extra, d - extra])


def random_partition(ends, count: int, seed) -> np.ndarray:
    """The cells of *count* distinct addresses in a uniformly random
    partition of [N] into contiguous cells that end at *ends*, the
    cumulative sums of the cell sizes, N the last.

    The partition is a uniform permutation of [N] cut into blocks at
    *ends* (``np.cumsum(cell_sizes(N, d))`` in a search, which sums them
    once for all its repetitions).  Only the addresses' positions in that
    permutation matter, and those are a uniform ordered sample of *count*
    distinct positions, one ``rng.choice`` without replacement, whatever
    the addresses are; no N-entry permutation is made.  A position's cell
    is the block it falls in, one ``searchsorted`` on *ends*.  Returns the
    cell of the i-th address at index i.  Refuses empty *ends* with
    ValueError.
    """
    ends = np.asarray(ends)
    if not ends.size:
        raise ValueError("need at least one cell")
    positions = np.random.default_rng(seed).choice(
        int(ends[-1]), size=count, replace=False)
    return np.searchsorted(ends, positions, side="right")


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


def union_bound(k: int, t: int, d: int) -> float:
    """Union bound over the d cells on the probability that some cell holds
    more than t of k uniform targets: min(1, d * C(k, t + 1) * d**(-(t + 1))).
    The clamp is decided on integers, so no quotient overflows, and 0 where
    t >= k."""
    if d < 1:
        raise ValueError("need d >= 1")
    if t < 0:
        raise ValueError("need t >= 0")
    if t >= k:
        return 0.0
    overloads, placements = math.comb(k, t + 1), d ** (t + 1)
    return 1.0 if d * overloads >= placements else d * (overloads / placements)


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


def parallel_search(
    db,
    d: int,
    targets: TargetSet,
    seed,
    t: int | None = None,
) -> SearchOutcome:
    """Locate all target items using d database copies searched in lockstep.

    A d outside [1, N] is refused with ValueError by :func:`cell_sizes`,
    whose sizes both the partition and the search take.  The targets are
    this function's concern alone.  ``db.locate`` finds the addresses
    holding target items and one ``db.items_at`` call reads their items,
    once per search, however many repetitions run; a target item stored at
    two addresses is refused with ValueError there, before any draw, by one
    sort of the read items and a comparison of neighbours.  *db*
    is read only through ``size``, ``locate`` and ``items_at``, so a
    :class:`~parsearch.core.PlantedDatabase` of any N costs what its k
    targets cost, and the addresses serve only to build ``located``.  Each
    repetition then draws a fresh random equipartition of the address
    space, of which it places only the addresses not yet found
    (:func:`random_partition`, given their number), dedicates one copy to
    each cell, and runs the iterated multi-item search with the per-cell
    cap *t* (by default the regime cap of :func:`choose_regime`) on all d
    copies in one :func:`multi_item_search` call, given the cell sizes,
    the cells of the addresses not yet found and the number of items still
    sought, absent ones included.
    Copies run in lockstep, one parallel round per oracle query; that call
    charges each copy up to the halt by the rule of
    :class:`~parsearch.core.QueryLedger`, and this one records its charges,
    one ledger repetition per repetition.  A find is confirmed by its copy's
    own classical check of the measured address, charged inside the
    attempt's r + 1 queries, and is not checked again.  The items read at
    the found addresses are distinct targets, so every target is located
    exactly when all k are stored and all are found, and success is read off
    one mask of the found addresses.  A repetition that leaves items
    unlocated costs the longest copy program and triggers another repetition
    (fresh partition, already-found addresses excluded) up to
    ``MAX_REPETITIONS``.  ``located`` maps each item found to its address,
    built once after the last repetition; when each item was found is not
    part of the outcome.

    The seed may be a Generator or anything ``default_rng`` takes.  The
    search draws everything from that one generator: per repetition, its
    partition and then all its copies' steps.
    """
    N = db.size
    sizes = cell_sizes(N, d)
    ends = np.cumsum(sizes)     # the cells' ends, for every repetition's partition
    if t is None:
        t = choose_regime(N, d, targets.k).t

    ledger = QueryLedger(d)
    where = db.locate(targets.items)
    items = db.items_at(where)
    ordered = np.sort(items)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("a target item is stored at two addresses")
    del ordered     # not held through the repetitions
    found = np.zeros(where.size, dtype=bool)    # the target addresses found
    rng = np.random.default_rng(seed)

    for _ in range(MAX_REPETITIONS):
        missing = np.flatnonzero(~found)
        cells = random_partition(ends, missing.size, seed=rng)
        run = multi_item_search(sizes, cells, targets.k - (where.size - missing.size),
                                t, seed=rng)
        found[missing[run.found_at >= 0]] = True
        ledger.record_repetition(run.ledger.oracle_counts)
        success = bool(where.size == targets.k and found.all())
        if success:
            break
    located = dict(zip(items[found].tolist(), where[found].tolist()))
    return SearchOutcome(located, success, ledger)

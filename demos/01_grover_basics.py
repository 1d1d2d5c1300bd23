"""Walk through the exact Grover simulator on a tiny database.

Shows the amplitude dynamics of a single search, compares the simulated
marked-state probability with the closed form at every iteration,
counts the oracle queries, and measures the same state by the closed-form
sampler that the searches use.
"""
import math

import numpy as np

from parsearch import (
    Database,
    MarkedPredicate,
    grover_iterate,
    init_uniform,
    measure,
    sample_after,
    success_probability,
)

# A 16-address database storing item 7 at address 10 and zeros elsewhere.
entries = np.zeros(16, dtype=np.int64)
entries[10] = 7
db = Database(n=4, m=3, entries=entries)
pred = MarkedPredicate.scan(db, frozenset([7]), np.arange(16))
# the dense vector's first j positions stand for the j marked addresses
j = pred.marked.size

state = init_uniform(16)
print("iter  simulated P(marked)  closed form")
for r in range(1, 8):
    state = grover_iterate(state, pred)
    sim = np.sum(np.abs(state[:j]) ** 2)
    ref = success_probability(16, 1, r)
    print(f"{r:4d}  {sim:19.12f}  {ref:.12f}")

best_r = int(math.pi / (4 * math.asin(math.sqrt(1 / 16))))
print(f"\noptimal iteration count for 1 of 16: {best_r}")
print(f"oracle queries: {r}, one per Grover iteration")

# Measure a freshly amplified state a few times; the marked address
# dominates with probability ~0.96 at the optimal iteration count.  Index
# i is a hit at pred.marked[i] when i < j and a miss otherwise.
state = init_uniform(16)
for _ in range(best_r):
    state = grover_iterate(state, pred)
indices = [measure(state, seed=[42, i]) for i in range(10)]
outcomes = [int(pred.marked[i]) if i < j else None for i in indices]
print(f"ten seeded measurements (None: unmarked): {outcomes}")

# The searches never build this vector: a uniform start plus a phase oracle
# stays in a 2-d subspace, so sample_after draws the same measurement from
# the closed form in O(1).
rng = np.random.default_rng(42)
dense = sum(measure(state, rng) < j for _ in range(2000)) / 2000
closed = sum(sample_after(16, 1, best_r, rng) is not None for _ in range(2000)) / 2000
print(f"P(marked) over 2000 draws: dense {dense:.3f}, closed form {closed:.3f}")

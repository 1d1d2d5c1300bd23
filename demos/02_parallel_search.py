"""Search for several items at once with parallel database copies.

Builds a database with k target items, splits the address space into d
random cells, and runs the lockstep parallel search.  Prints the regime
cap, the per-copy query counts, and how the measured round count compares
with the lower bound and the regime cost expression.
"""
from parsearch import (
    build_database,
    choose_regime,
    closed_form_bound,
    parallel_search,
    theorem_envelope,
)

n, d, k = 12, 16, 8
N = 1 << n

db, targets = build_database(n, k=k, seed=2024)
params = choose_regime(N, d, k)
print(f"N={N}, d={d} copies, k={k} targets")
print(f"regime: {params.regime}, per-cell cap t={params.t}")

outcome = parallel_search(db, d, targets, seed=2024)
print(f"\nsuccess: {outcome.success} after {outcome.repetitions} repetition(s)")
print(f"located: {outcome.located}")
print(f"per-copy oracle queries: {outcome.ledger.oracle_counts.tolist()}")
print(f"parallel rounds: {outcome.parallel_rounds}")

print(f"\nlower bound  sqrt(Nk/(d*min(d,k))) = {closed_form_bound(N, d, k):.1f}")
print(f"regime cost expression              = {theorem_envelope(N, d, k):.1f}")

# Averaging over seeds shows the round count concentrating between the two.
import numpy as np

rounds = []
for s in range(50):
    db, targets = build_database(n, k=k, seed=[7, s])
    rounds.append(parallel_search(db, d, targets, seed=[8, s]).parallel_rounds)
print(f"mean parallel rounds over 50 seeds  = {np.mean(rounds):.1f}")

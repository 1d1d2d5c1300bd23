"""The per-cell load cap behind the parallel algorithm: exact law vs union bound.

Dropping k target addresses into a random equipartition of [N] into d
cells, the probability that some cell receives more than t of them is at
most min(1, d * C(k, t + 1) * d**(-(t + 1))), a union over the d cells of
the chance that one holds at least t + 1.  The check computes that
probability exactly
from the multivariate hypergeometric law of the cell loads, at any N up to
2**62, and compares it with the union bound.
"""
from parsearch import run_maxload_check

print(f"{'n':>3} {'k':>4} {'d':>5} {'t':>4} {'exact':>11} {'bound':>11}")
for n, k, d, t in ((12, 8, 4, 4), (12, 8, 4, 3), (12, 16, 8, 6), (12, 32, 8, 8),
                   (12, 16, 16, 20), (20, 32, 1024, 2), (40, 256, 256, 5),
                   (62, 64, 64, 4)):
    rec = run_maxload_check(k=k, d=d, t=t, n=n)
    print(f"{n:>3} {k:>4} {d:>5} {t:>4} {rec['exceedance']:>11.4e} "
          f"{rec['union_bound']:>11.4e}"
          f"   {'ok' if rec['within_bound'] else 'EXCEEDED'}")

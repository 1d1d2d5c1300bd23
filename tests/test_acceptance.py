"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report; the whole file takes about half a minute on a 2-core host,
dominated by the regime benchmarks.
"""
import math

import numpy as np
import pytest

from parsearch.adversary import (
    InstanceFamily,
    build_adversary_graph,
    closed_form_bound,
    compute_stats,
)
from parsearch.algorithms import (
    multi_item_search,
    parallel_search,
    theorem_envelope,
)
from parsearch.cli import main
from parsearch.core import (
    Database,
    MarkedPredicate,
    grover_iterate,
    init_uniform,
    success_probability,
)
from parsearch.experiments import build_database, run_maxload_check


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def marked_db(M, j):
    entries = np.zeros(M, dtype=np.int64)
    entries[:j] = 1
    return Database(n=int(math.log2(M)), m=1, entries=entries)


def test_criterion_1_closed_form_agreement():
    worst = 0.0
    for exp in range(1, 13):
        M = 2 ** exp
        for j in (1, 2, 4):
            if j > M:
                continue
            pred = MarkedPredicate.scan(marked_db(M, j), frozenset([1]), np.arange(M))
            state = init_uniform(M)
            for r in range(51):
                if r > 0:
                    state = grover_iterate(state, pred)
                err = abs(np.sum(np.abs(state[:j]) ** 2)
                          - success_probability(M, j, r))
                worst = max(worst, err)
    report(
        "criterion 1 (closed-form Grover agreement, M<=2^12, r<=50)",
        worst <= 1e-9,
        f"max |simulated - closed form| = {worst:.2e}",
    )


def test_criterion_2_exact_small_case():
    pred = MarkedPredicate.scan(marked_db(4, 1), frozenset([1]), np.arange(4))
    state = grover_iterate(init_uniform(4), pred)
    err = abs(np.abs(state[0]) ** 2 - 1.0)
    report(
        "criterion 2 (M=4, j=1, r=1 succeeds exactly)",
        err <= 1e-12,
        f"|p - 1| = {err:.2e}",
    )


def test_criterion_3_single_database_scaling():
    trials = 500
    k = t = 4
    ratios, rates = [], []
    for n in (8, 10, 12, 14):
        N = 1 << n
        totals, successes = [], 0
        for s in range(trials):
            db, targets = build_database(n, k, seed=[301, n, s])
            marked = db.locate(targets.items)
            out = multi_item_search([N], np.zeros_like(marked), targets.k, t,
                                    seed=[302, n, s])
            totals.append(out.ledger.oracle_counts[0])
            successes += (out.found_at >= 0).all()
        ratios.append(np.mean(totals) / math.sqrt(N * t))
        rates.append(successes / trials)
    ok = all(r >= 3 / 4 for r in rates) and all(1 / 8 <= q <= 4 for q in ratios)
    report(
        "criterion 3 (single-database multi-item cost scaling)",
        ok,
        f"ratios={[f'{q:.3f}' for q in ratios]}, "
        f"success={[f'{r:.3f}' for r in rates]}",
    )


@pytest.fixture(scope="module")
def regime_benchmarks():
    trials = 300
    results = []
    for n, d, k in ((12, 64, 4), (12, 16, 16), (14, 8, 64)):
        N = 1 << n
        rounds, successes = [], 0
        for s in range(trials):
            db, targets = build_database(n, k, seed=[401, n, d, s])
            out = parallel_search(db, d, targets, seed=[402, n, d, s])
            rounds.append(out.parallel_rounds)
            successes += out.success
        results.append({
            "N": N, "d": d, "k": k,
            "mean_rounds": float(np.mean(rounds)),
            "success_rate": successes / trials,
            "envelope": theorem_envelope(N, d, k),
        })
    return results


def test_criterion_4_parallel_regimes(regime_benchmarks):
    ok = True
    details = []
    for res in regime_benchmarks:
        within = res["mean_rounds"] <= 4 * res["envelope"]
        good_rate = res["success_rate"] >= 3 / 4
        ok = ok and within and good_rate
        details.append(
            f"(N={res['N']},d={res['d']},k={res['k']}): "
            f"{res['mean_rounds']:.1f} <= {4 * res['envelope']:.1f}, "
            f"success {res['success_rate']:.3f}"
        )
    report("criterion 4 (regime cost envelopes)", ok, "; ".join(details))


def test_criterion_5_lower_upper_sandwich(regime_benchmarks):
    ok = True
    details = []
    for res in regime_benchmarks:
        lower = closed_form_bound(res["N"], res["d"], res["k"])
        holds = lower <= 8 * res["mean_rounds"]
        ok = ok and holds
        details.append(
            f"(N={res['N']},d={res['d']},k={res['k']}): "
            f"{lower:.1f} <= 8*{res['mean_rounds']:.1f}"
        )
    report("criterion 5 (lower bound below measured cost)", ok, "; ".join(details))


def test_criterion_6_adversary_brute_force():
    checked = 0
    ok = True
    for n in (1, 2, 3):
        for m in (1, 2):
            for d in (1, 2, 3):
                for k in (1, 2):
                    if k > 2 ** (m - 1) or k > 2 ** n:
                        continue
                    fam = InstanceFamily(n=n, m=m, d=d, k=k)
                    stats = compute_stats(build_adversary_graph(fam))
                    N = fam.N
                    ok = ok and (
                        stats.delta0 == N - k + 1
                        and stats.delta1 == k
                        and stats.ell0 <= d
                        and stats.ell1 <= min(d, k)
                    )
                    checked += 1
    report(
        "criterion 6 (adversary graph matches claimed statistics)",
        ok and checked > 0,
        f"{checked} instances enumerated",
    )


def test_criterion_7_maxload_bound():
    ok = True
    details = []
    for k, d, t in ((8, 4, 4), (16, 16, 20), (32, 8, 8)):
        # the exact law against the bound, with no sampling slack
        rec = run_maxload_check(k=k, d=d, t=t)
        holds = rec["exceedance"] <= rec["union_bound"]
        ok = ok and holds and rec["within_bound"] is holds
        details.append(
            f"(k={k},d={d},t={t}): {rec['exceedance']:.4f} "
            f"<= {rec['union_bound']:.4f}"
        )
    report("criterion 7 (max-load union bound)", ok, "; ".join(details))


def test_criterion_8_determinism(tmp_path):
    commands = [
        ["search", "--n", "7", "--d", "2", "--k", "2", "--trials", "4",
         "--seed", "9"],
        ["maxload", "--k", "8", "--d", "4", "--t", "4"],
        ["bounds", "--n", "6", "--d", "2", "--k", "2", "--trials", "2",
         "--seed", "9"],
        ["adversary", "--n", "2", "--m", "2", "--d", "2", "--k", "2"],
    ]
    ok = True
    for i, args in enumerate(commands):
        a = tmp_path / f"{i}a.json"
        b = tmp_path / f"{i}b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(
        "criterion 8 (byte-identical reruns for every subcommand)",
        ok,
        f"{len(commands)} subcommands compared",
    )

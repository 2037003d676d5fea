"""How far the generic divergence-loss engine reaches, on three fixed corpora.

    PYTHONPATH=src python3 tools/oracle_reach.py

It takes no options and measures the `ammlab` that PYTHONPATH names, so the
same command on two checkouts gives two outputs whose diff names the points
lost and won. A point agrees when `generic_divergence_loss` returns a
finite L with 1 + L != 0 and |(1 + closed)/(1 + L) - 1| <= 1e-8 against the
closed form.

* grid: stableswap pools at A in AMPLIFICATIONS on each of GRID_RESERVES,
  every shift of `default_shift_grid()`, asset 1, the `defining_residual`
  law with D from `solve_invariant`, against `stableswap_divergence_loss`
  (8 x 6 x 60 = 2,880 points);
* corpus: 1,500 draws from `random.Random(2024)`: n in {2, 3, 4}, reserves
  100 * 6^U(0, 1), every third a weighted pool with weights U(1, 3)
  normalised and the rest stableswap pools at A = 10^U(-2, 4.5), asset o in
  1..n-1 and a shift U(-0.9, 4), against `divergence_loss`;
* edges: 3,000 draws from `random.Random(2025)`: n in {2, 3, 4}, a scale
  10^U(-300, 300), each reserve the scale times 10^U(-160, 160) clamped to
  [1e-300, 1e307], every third a stableswap pool at A = 10^U(-2, 3) and the
  rest weighted pools as above, skipping pools that refuse to build, asset o
  in 1..n-1 and a shift U(-0.9, 4) or 10^U(-9, 2), each with probability
  1/2, against `divergence_loss`.

In every corpus an `AmmError` is a refusal, a loss that does not agree is a
silent fault, and any other exception ends the tool with its traceback. It
prints the agreeing count per A and per reserve tuple, then for each corpus
the total, the mean law evaluations of agreeing and of failing points and
the counts that agree, refuse and fault silently, then one line per failing
point: the corpus, the point and its outcome, the error class's name or
`disagrees`.
"""
from __future__ import annotations

import math
import random
from collections import Counter

from ammlab import (
    ImplicitConservation,
    divergence_loss,
    generic_divergence_loss,
    implicit_conservation,
    stableswap_pool,
    weighted_pool,
)
from ammlab.analysis import default_shift_grid
from ammlab.errors import AmmError
from ammlab.stableswap import defining_residual, solve_invariant, stableswap_divergence_loss

AMPLIFICATIONS = (1e2, 1e3, 3e3, 1e4, 3e4, 1e5, 1e6, 1e8)
GRID_RESERVES = ((100.0, 100.0), (100.0, 450.0), (100.0, 100.0, 100.0), (100.0, 300.0, 600.0),
                 (1.0, 1.0), (1.0, 2.0, 3.0, 4.0))
CORPUS_DRAWS = 1500
EDGE_DRAWS = 3000


def solve(law, n, reserves, invariant, o, rho, closed):
    """(outcome, law evaluations): outcome is None where the engine agrees
    with closed, else the error class's name or 'disagrees'."""
    evaluations = 0

    def counting(r, inv):
        nonlocal evaluations
        evaluations += 1
        return law(r, inv)

    try:
        L = generic_divergence_loss(ImplicitConservation(counting, n), reserves, invariant, o, rho).L
    except AmmError as exc:
        return type(exc).__name__, evaluations
    agrees = math.isfinite(L) and 1.0 + L != 0.0 and abs((1.0 + closed) / (1.0 + L) - 1.0) <= 1e-8
    return (None if agrees else "disagrees"), evaluations


def grid_points():
    for amp in AMPLIFICATIONS:
        for reserves in GRID_RESERVES:
            d = solve_invariant(reserves, amp)
            law = lambda r, inv, amp=amp: defining_residual(r, inv[0], amp)  # noqa: E731
            for rho in default_shift_grid():
                closed = stableswap_divergence_loss(reserves, d, amp, 1, rho)
                yield (f"A={amp:g} reserves={reserves} o=1 rho={rho!r}", (amp, reserves),
                       (law, len(reserves), reserves, (d,), 1, rho, closed))


def corpus_points():
    rng = random.Random(2024)
    for k in range(CORPUS_DRAWS):
        n = rng.randint(2, 4)
        reserves = tuple(100.0 * 6.0 ** rng.uniform(0.0, 1.0) for _ in range(n))
        if k % 3 == 0:
            weights = [rng.uniform(1.0, 3.0) for _ in range(n)]
            pool = weighted_pool(reserves, tuple(w / sum(weights) for w in weights))
        else:
            pool = stableswap_pool(reserves, 10.0 ** rng.uniform(-2.0, 4.5))
        o, rho = rng.randint(1, n - 1), rng.uniform(-0.9, 4.0)
        yield (f"draw {k}: {pool.spec.family.value} n={n} o={o} rho={rho!r}", None,
               (implicit_conservation(pool).evaluate, n, pool.reserves, pool.invariant, o, rho,
                divergence_loss(pool, o, rho)))


def edge_points():
    rng = random.Random(2025)
    for k in range(EDGE_DRAWS):
        n = rng.randint(2, 4)
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        reserves = tuple(min(max(scale * 10.0 ** rng.uniform(-160.0, 160.0), 1e-300), 1e307)
                         for _ in range(n))
        try:
            if k % 3 == 0:
                pool = stableswap_pool(reserves, 10.0 ** rng.uniform(-2.0, 3.0))
            else:
                weights = [rng.uniform(1.0, 3.0) for _ in range(n)]
                pool = weighted_pool(reserves, tuple(w / sum(weights) for w in weights))
        except AmmError:
            continue
        o = rng.randint(1, n - 1)
        rho = rng.uniform(-0.9, 4.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(-9.0, 2.0)
        yield (f"draw {k}: {pool.spec.family.value} reserves={pool.reserves} o={o} rho={rho!r}",
               None, (implicit_conservation(pool).evaluate, n, pool.reserves, pool.invariant, o,
                      rho, divergence_loss(pool, o, rho)))


def measure(name, points):
    agree, total, failures, silent = Counter(), Counter(), [], 0
    evaluations = {True: [], False: []}
    for label, group, args in points:
        outcome, count = solve(*args)
        total[group] += 1
        agree[group] += outcome is None
        evaluations[outcome is None].append(count)
        silent += outcome == "disagrees"
        if outcome is not None:
            failures.append(f"fail {name} {label}: {outcome}")
    if name == "grid":
        for amp in AMPLIFICATIONS:
            print(f"{name} A={amp:g}: {sum(agree[amp, r] for r in GRID_RESERVES)} of "
                  f"{sum(total[amp, r] for r in GRID_RESERVES)} agree")
        for r in GRID_RESERVES:
            print(f"{name} reserves={r}: {sum(agree[a, r] for a in AMPLIFICATIONS)} of "
                  f"{sum(total[a, r] for a in AMPLIFICATIONS)} agree")
    mean = {k: sum(v) / len(v) if v else math.nan for k, v in evaluations.items()}
    print(f"{name} total: {sum(agree.values())} of {sum(total.values())} agree; mean law "
          f"evaluations {mean[True]:.1f} agreeing, {mean[False]:.1f} failing")
    print(f"{name} outcomes: {sum(agree.values())} agree, {len(failures) - silent} refused, "
          f"{silent} silent faults")
    return failures


def main() -> None:
    failures = (measure("grid", grid_points()) + measure("corpus", corpus_points())
                + measure("edges", edge_points()))
    print("\n".join(failures))


if __name__ == "__main__":
    main()

"""Two families at the limits of their amplification.

Stableswap tends to constant product as A -> 0 and to constant sum as
A -> inf (Egorov, *StableSwap*, 2019). Each limit of its divergence loss has
a closed form that needs neither the stableswap formulas nor the numeric
engine:

* as A -> 0, the loss of an equal-weight product pool,
  weighted_divergence_loss with w_k = 1/n;
* as A -> inf, the arbitraged pool holds all its value S = sum(r) in the
  cheapest asset, so L = S*min(1, 1+rho)/(S + rho*r_o) - 1.

A PMM pool at its equilibrium (C1, C2) with oracle price P swaps at the
constant price P as A -> 0. As A -> 1 it follows the A = 1 branch, the
hyperbola (r1 - C1 + P*C2)*r2 = P*C2^2 through (C1, C2), which is
r1*r2 = C1*C2 where C1 = P*C2. Both limits are checked in both orientations.

The tests hold each gap below a multiple of a power of the distance from
the limit, down to a rounding floor where one shows. The multiples and the
floors are the largest on these seeded pools, rounded up: they may only
fall.
"""
from __future__ import annotations

import math
import random

import pytest

from ammlab import pmm_pool, stableswap_pool, swap_amount
from ammlab.stableswap import stableswap_divergence_loss
from ammlab.weighted import weighted_divergence_loss

SIZES = (2, 3, 4)

# as A -> 0 the gap falls in proportion to A, to a floor of a few ulps of L
SMALL_A = (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-18)
SMALL_A_RATE = 0.22
SMALL_A_FLOOR = 3.4e-16

# as A -> inf the gap falls as A^(-1/n) where the shifted asset cheapens
# (rho < 0), and as A^(-1/2) where it grows dearer; no floor shows up to 1e18
LARGE_A = (1e3, 1e6, 1e9, 1e12, 1e15, 1e18)
LARGE_A_RATE = 0.85

# PMM, below: as A -> 0 the gap to the constant price is at most 3.9*A, and
# as A -> 1 the gap to the A = 1 branch at most 0.25*(1 - A), each down to a
# floor that shows from a distance of about 1e-13 on
PRICE_RATE = 3.9
PRICE_FLOOR = 2.7e-13
BRANCH_RATE = 0.25
BRANCH_FLOOR = 2.6e-13


def _shifts(rng: random.Random) -> list[float]:
    return [-0.9, -0.5, 0.5, 3.0] + [rng.uniform(-0.95, 4.0) for _ in range(4)]


@pytest.mark.parametrize("n", SIZES)
def test_small_amplification_reaches_the_equal_weight_product(n):
    rng = random.Random(f"limits/stableswap/small-a/{n}")
    reserves = (10.0 ** rng.uniform(-3.0, 3.0),) * n
    shifts = _shifts(rng)
    for amp in SMALL_A:
        d = stableswap_pool(reserves, amp).invariant[0]
        for o in range(1, n):
            for rho in shifts:
                got = stableswap_divergence_loss(reserves, d, amp, o, rho)
                want = weighted_divergence_loss((1.0 / n,) * n, o, rho)
                bound = max(SMALL_A_RATE * amp, SMALL_A_FLOOR)
                assert abs(got - want) <= bound, (n, amp, o, rho, got, want)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "unbalanced"])
def test_large_amplification_reaches_constant_sum(n, balanced):
    rng = random.Random(f"limits/stableswap/large-a/{n}/{balanced}")
    reserves = tuple(100.0 * (1.0 if balanced else rng.uniform(0.5, 2.0)) for _ in range(n))
    total = math.fsum(reserves)
    shifts = _shifts(rng)
    for amp in LARGE_A:
        d = stableswap_pool(reserves, amp).invariant[0]
        for o in range(1, n):
            for rho in shifts:
                got = stableswap_divergence_loss(reserves, d, amp, o, rho)
                want = total * min(1.0, 1.0 + rho) / (total + rho * reserves[o]) - 1.0
                rate = amp ** (-1.0 / n if rho < 0.0 else -0.5)
                assert abs(got - want) <= LARGE_A_RATE * rate, (n, amp, o, rho, got, want)


# PMM: the relative gap of a swap's output falls in proportion to A as
# A -> 0 and to 1 - A as A -> 1, down to a floor of rounding
PMM_DISTANCES = (1e-3, 1e-6, 1e-9, 1e-12, 1e-15)
PMM_LIMITS = {
    # limit: (A at distance d, rate, floor)
    "constant-price": (lambda d: d, PRICE_RATE, PRICE_FLOOR),
    "a-equals-one": (lambda d: 1.0 - d, BRANCH_RATE, BRANCH_FLOOR),
}


def _pmm_pools() -> list[tuple[float, float, float]]:
    """(C1, C2, P): the pool of ROADMAP's measurement, and seeded pools of
    every scale, price and composition."""
    rng = random.Random("limits/pmm")
    pools = [(100.0, 100.0, 1.0)]
    for _ in range(5):
        c1, p = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-2.0, 2.0)
        pools.append((c1, c1 / p * 10.0 ** rng.uniform(-1.0, 1.0), p))
    return pools


def _pmm_limit(limit: str, c1: float, c2: float, p: float, i: int, x: float) -> float:
    """The output of x of asset i at the limit; asset 1 in mirrors the pool
    (P -> 1/P, C1 <-> C2)."""
    if i == 1:
        c1, c2, p = c2, c1, 1.0 / p
    if limit == "constant-price":
        return x / p
    return c2 * x / (x + p * c2)


@pytest.mark.parametrize("limit", PMM_LIMITS)
@pytest.mark.parametrize("i", [0, 1], ids=["asset-0-in", "asset-1-in"])
def test_pmm_reaches_its_limits(limit, i):
    amplification, rate, floor = PMM_LIMITS[limit]
    rng = random.Random(f"limits/pmm/trades/{i}")
    # fractions of the output reserve's value at the oracle price
    fractions = [1e-3, 1e-2, 0.1, 0.5] + [10.0 ** rng.uniform(-3.0, 0.0) for _ in range(4)]
    for c1, c2, p in _pmm_pools():
        value_out = p * c2 if i == 0 else c1 / p
        for d in PMM_DISTANCES:
            pool = pmm_pool(c1, c2, p, amplification(d))
            for f in fractions:
                x = f * value_out
                got = swap_amount(pool, i, 1 - i, x)
                want = _pmm_limit(limit, c1, c2, p, i, x)
                gap = abs(got - want) / want
                assert gap <= max(rate * d, floor), (c1, c2, p, d, f, got, want)

"""Three families at their limits.

Stableswap tends to constant product as A -> 0 and to constant sum as
A -> inf (Egorov, *StableSwap*, 2019). Its swap outputs and spot rates tend
to those of the equal-weight product pool on the same reserves, and to the
constant sum's x and 1. Each limit of its divergence loss has a closed form
that needs neither the stableswap formulas nor the numeric engine:

* as A -> 0, the loss of an equal-weight product pool,
  weighted_divergence_loss with w_k = 1/n;
* as A -> inf, the arbitraged pool holds all its value S = sum(r) in the
  cheapest asset, so L = S*min(1, 1+rho)/(S + rho*r_o) - 1.

A PMM pool at its equilibrium (C1, C2) with oracle price P swaps at the
constant price P as A -> 0. As A -> 1 it follows the A = 1 branch, the
hyperbola (r1 - C1 + P*C2)*r2 = P*C2^2 through (C1, C2), which is
r1*r2 = C1*C2 where C1 = P*C2. Both limits are checked in both orientations.

A bonding curve with reserve C, supply s and reserve ratio F mints
s*((1 + t/C)^F - 1) for a deposit t, which tends to the constant price's
t*s/C as F -> 1.

The tests hold each gap below a multiple of a power of the distance from
the limit, down to a rounding floor where one shows. The multiples and the
floors are the largest on these seeded pools, rounded up: they may only
fall.
"""
from __future__ import annotations

import math
import random
from itertools import permutations

import pytest

from ammlab import pmm_pool, spot_rate, stableswap_pool, swap_amount, weighted_pool
from ammlab.bonding import bonding_buy, bonding_curve
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


# stableswap swaps and spot rates, 2 to 4 assets: the relative gap falls in
# proportion to A as A -> 0 and to 1/A as A -> inf. A swap's floor is its
# cancellation, at most floor/f for a trade of f times the input reserve
# (A -> 0) or the output reserve (A -> inf); a spot rate's is a few ulps
SWAP_LIMITS = {
    # limit: (amplifications, distance from the limit,
    #         {pool size: (swap rate, spot rate, swap floor, spot floor)})
    "constant-product": (SMALL_A, lambda a: a, {
        2: (3.1, 3.1, 9.6e-15, 2.2e-16),
        3: (3.1, 3.1, 9.6e-15, 2.2e-16),
        4: (3.1, 3.1, 1.9e-14, 2.5e-16),
    }),
    "constant-sum": (LARGE_A, lambda a: 1.0 / a, {
        2: (14.0, 6.3, 2.7e-14, 2.2e-16),
        3: (14.0, 6.3, 2.7e-14, 2.2e-16),
        4: (23.0, 11.0, 3.8e-14, 2.5e-16),
    }),
}

# bonding: the relative gap of the minted amount falls in proportion to
# 1 - F, down to MINT_FLOOR, two ulps, at any deposit (bonding_buy takes
# expm1 where (1 + u)^F - 1 would cancel), and down to POW_FLOOR/u where
# that is tighter, for a deposit of u times the reserve; F = 1 itself is
# checked too
BONDING_DISTANCES = (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0.0)
MINT_RATE = 3.0
MINT_FLOOR = 4.5e-16
POW_FLOOR = 1.8e-15


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


def _stableswap_swap_cases(limit: str, n: int):
    """(pools, trade fractions): toward constant product, ROADMAP's
    (100, 250) and pools of every scale with reserves 10x apart; toward
    constant sum, the balanced (100, ..., 100) and reserves 2x apart."""
    rng = random.Random(f"limits/stableswap/swaps/{limit}/{n}")
    if limit == "constant-product":
        pools = [(100.0, 250.0, 175.0, 130.0)[:n]]
        for _ in range(3):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            pools.append(tuple(scale * 10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n)))
        fractions = [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 10.0]
        return pools, fractions + [10.0 ** rng.uniform(-8.0, 1.0) for _ in range(4)]
    pools = [(100.0,) * n]
    pools += [tuple(100.0 * rng.uniform(0.5, 2.0) for _ in range(n)) for _ in range(2)]
    fractions = [1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5]
    return pools, fractions + [0.5 * 10.0 ** rng.uniform(-5.0, 0.0) for _ in range(4)]


@pytest.mark.parametrize("limit", SWAP_LIMITS)
@pytest.mark.parametrize("n", SIZES)
def test_stableswap_swaps_reach_their_limits(limit, n):
    amplifications, distance, bounds = SWAP_LIMITS[limit]
    swap_rate, spot_rate_rate, floor, spot_floor = bounds[n]
    product = limit == "constant-product"
    pools, fractions = _stableswap_swap_cases(limit, n)
    for reserves in pools:
        weighted = weighted_pool(reserves, (1.0 / n,) * n)
        for amp in amplifications:
            pool, d = stableswap_pool(reserves, amp), distance(amp)
            for i, o in permutations(range(n), 2):
                want = spot_rate(weighted, i, o) if product else 1.0
                gap = abs(spot_rate(pool, i, o) - want) / want
                assert gap <= max(spot_rate_rate * d, spot_floor), (reserves, amp, i, o)
                for f in fractions:
                    x = f * reserves[i if product else o]
                    want = swap_amount(weighted, i, o, x) if product else x
                    gap = abs(swap_amount(pool, i, o, x) - want) / want
                    assert gap <= max(swap_rate * d, floor / f), (reserves, amp, i, o, f)


def test_bonding_mints_at_the_constant_price_as_the_ratio_reaches_one():
    # the curve of ROADMAP's measurement, reserve 100 and supply 10, and
    # seeded curves of every scale; deposits of 1e-6 to 10 of the reserve
    rng = random.Random("limits/bonding")
    curves = [(100.0, 10.0)]
    curves += [(10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(5)]
    fractions = [1e-6, 1e-4, 1e-2, 0.05, 1.0, 10.0]
    fractions += [10.0 ** rng.uniform(-6.0, 1.0) for _ in range(4)]
    for reserve, supply in curves:
        for d in BONDING_DISTANCES:
            curve = bonding_curve(reserve, supply, 1.0 - d)
            for u in fractions:
                deposit = u * reserve
                want = deposit * supply / reserve
                gap = abs(bonding_buy(curve, deposit)[1] - want) / want
                assert gap <= max(MINT_RATE * d, min(MINT_FLOOR, POW_FLOOR / u)), (reserve, supply, d, u)

"""The stableswap divergence loss at the limits of its amplification.

Stableswap tends to constant product as A -> 0 and to constant sum as
A -> inf (Egorov, *StableSwap*, 2019). Each limit has a closed form that
needs neither the stableswap formulas nor the numeric engine:

* as A -> 0, the loss of an equal-weight product pool,
  weighted_divergence_loss with w_k = 1/n;
* as A -> inf, the arbitraged pool holds all its value S = sum(r) in the
  cheapest asset, so L = S*min(1, 1+rho)/(S + rho*r_o) - 1.

The tests hold each gap below a multiple of a power of the distance from
the limit, and at A -> 0 down to a rounding floor. The multiples and the
floor are the largest on these seeded pools, rounded up: they may only
fall.
"""
from __future__ import annotations

import math
import random

import pytest

from ammlab import stableswap_pool
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

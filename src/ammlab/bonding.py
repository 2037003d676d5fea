"""Bonding-curve exchange: a reserve-backed token whose price is a power
function of its supply.

The connector reserve C and token supply s are tied by a fixed reserve ratio
F in (0, 1]:

    P(s) = C / (F * s)          spot price, reserve units per token
    C(s) = C0 * (s / s0)^(1/F)  reserve as a function of supply

Buying deposits reserve and mints tokens; selling burns tokens and releases
reserve. Both closed forms below are exact integrals of the price curve, so a
buy followed by a sell of the minted amount returns the state to where it
began (up to rounding). F = 1 is the degenerate constant-price case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import quote
from .errors import DomainError, NonPositiveState, SupplyDepletion
from .numerics import ImplicitConservation
from .quote import check_positive


@dataclass(frozen=True)
class BondingCurveState:
    """Current reserve/supply plus the construction-time anchor pair used for
    consistency checks of C(s) along a trading path."""

    reserve: float
    supply: float
    reserve_ratio: float
    anchor_reserve: float
    anchor_supply: float

    def __post_init__(self) -> None:
        for name in ("reserve", "supply", "anchor_reserve", "anchor_supply"):
            check_positive(name, getattr(self, name))
        quote.check_unit_interval("reserve ratio", self.reserve_ratio)


def _moved(state: BondingCurveState, reserve: float, supply: float) -> BondingCurveState:
    """state with the reserve and supply a trade moved and checked; the
    ratio and the anchor pair are the parent's, checked when it was built,
    so they are not checked again (as core.apply_swap builds its post
    state)."""
    post = object.__new__(BondingCurveState)
    post.__dict__.update(state.__dict__, reserve=reserve, supply=supply)
    return post


def bonding_curve(reserve: float, supply: float, reserve_ratio: float) -> BondingCurveState:
    """A fresh curve anchored at its construction state."""
    return BondingCurveState(
        reserve=reserve,
        supply=supply,
        reserve_ratio=reserve_ratio,
        anchor_reserve=reserve,
        anchor_supply=supply,
    )


def conservation(state: BondingCurveState) -> ImplicitConservation:
    """The curve as a conservation law on (reserve, supply), for the generic
    engine: C(s) = C0 * (s / s0)^(1/F) keeps C^F / s constant, so
    Z(r, k) = (r0/k0)^F / (r1/k1) - 1 with k = (anchor_reserve, anchor_supply).
    Both coordinates rise together along it, so its spot rates are negative."""
    f = state.reserve_ratio
    return ImplicitConservation(evaluate=lambda r, k: (r[0] / k[0]) ** f / (r[1] / k[1]) - 1.0, n=2)


def bonding_price(state: BondingCurveState) -> float:
    """Spot price P = C / (F * s) in reserve units per token; a price that
    under- or overflows raises quote.rate_refusal."""
    den = state.reserve_ratio * state.supply  # 0 only where the price is past the largest float
    price = state.reserve / den if den else math.inf
    if 0.0 < price < math.inf:
        return price
    raise quote.rate_refusal(price)


def bonding_reserve_at(state: BondingCurveState, supply: float) -> float:
    """Reserve implied by the curve at the given supply, from the anchor:
    C = C0 * (s / s0)^(1/F), for a finite, positive supply; refused outside (0, inf)."""
    check_positive("supply", supply)
    f = state.reserve_ratio
    try:
        reserve = state.anchor_reserve * (supply / state.anchor_supply) ** (1.0 / f)
    except OverflowError:  # (s/s0)^(1/F) past the largest float
        reserve = math.inf
    if 0.0 < reserve < math.inf:
        return reserve
    raise DomainError(f"the bonding curve at supply {supply!r} leaves the floating-point range")


def bonding_buy(state: BondingCurveState, deposit: float) -> tuple[BondingCurveState, float]:
    """Deposit reserve, mint tokens: e = s * ((1 + t/C)^F - 1).

    Where g = (1 + t/C)^F is below 2, g - 1 would cancel: the amount is
    s * expm1(F * log1p(t/C)) there. Returns the post-trade state and the
    minted token amount.
    """
    if not math.isfinite(deposit):
        raise quote.trade_refusal(state.reserve, deposit)
    if deposit < 0.0:
        raise NonPositiveState(f"deposit must be non-negative, got {deposit}")
    if deposit == 0.0:
        return state, 0.0
    # a positive deposit raises the reserve and mints a non-negative amount,
    # so each moved field can leave (0, inf) only at the top
    reserve = state.reserve + deposit
    if not reserve < math.inf:
        raise quote.trade_refusal(state.reserve, deposit)
    u, f = deposit / state.reserve, state.reserve_ratio
    g = (1.0 + u) ** f
    minted = state.supply * (g - 1.0 if g >= 2.0 else math.expm1(f * math.log1p(u)))
    supply = state.supply + minted
    if not supply < math.inf:
        raise quote.mint_refusal(state.supply, minted)
    return _moved(state, reserve, supply), minted


def bonding_sell(state: BondingCurveState, burned: float) -> tuple[BondingCurveState, float]:
    """Burn tokens, release reserve: t = C * (1 - (1 - e/s)^(1/F)).

    Returns the post-trade state and the released reserve amount. Both are
    computed directly, not as a difference of nearly equal numbers, so a
    sell of nearly the whole supply stays on the curve. Burning the entire
    supply (or more), or so much that the reserve underflows to 0, is
    rejected — the curve needs a positive state.
    """
    if not math.isfinite(burned):
        raise quote.trade_refusal(state.supply, burned)
    if burned < 0.0:
        raise NonPositiveState(f"burned amount must be non-negative, got {burned}")
    if burned >= state.supply:
        raise SupplyDepletion(f"burning {burned} exhausts supply {state.supply}")
    if burned == 0.0:
        return state, 0.0
    supply = state.supply - burned
    exponent = 1.0 / state.reserve_ratio
    reserve = state.reserve * (supply / state.supply) ** exponent
    if reserve == 0.0:
        raise SupplyDepletion(f"burning {burned} of {state.supply} leaves no reserve")
    released = -state.reserve * math.expm1(math.log1p(-burned / state.supply) * exponent)
    # both moved fields shrink and stay positive, by the two checks above
    return _moved(state, reserve, supply), released

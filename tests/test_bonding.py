"""Tests for reserve-ratio bonding-curve token exchange."""

from __future__ import annotations

import decimal
import math
import random
from collections import Counter
from dataclasses import fields, replace
from decimal import Decimal

import pytest

from ammlab import (
    AmmError,
    BondingCurveState,
    DomainError,
    NonPositiveState,
    SupplyDepletion,
    bonding_buy,
    bonding_curve,
    bonding_price,
    bonding_reserve_at,
    bonding_sell,
)


def log_spaced(lo: float, hi: float, points: int) -> list[float]:
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return [math.exp(math.log(lo) + k * step) for k in range(points)]


class TestConstruction:
    def test_anchors_at_the_initial_state(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        assert state.anchor_reserve == 100.0
        assert state.anchor_supply == 1000.0

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            bonding_curve(reserve=0.0, supply=1000.0, reserve_ratio=0.5)
        with pytest.raises(ValueError):
            bonding_curve(reserve=100.0, supply=-1.0, reserve_ratio=0.5)

    def test_rejects_reserve_ratio_outside_unit_interval(self):
        with pytest.raises(ValueError):
            bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.0)
        with pytest.raises(ValueError):
            bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=1.5)


class TestPrice:
    def test_worked_example(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        assert bonding_price(state) == 0.2

    def test_unit_ratio_prices_at_reserve_per_token(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=1.0)
        assert bonding_price(state) == 0.1

    def test_reserve_stays_a_fixed_fraction_of_market_cap(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        for deposit in (3.0, 70.0, 1234.5):
            state, _ = bonding_buy(state, deposit)
            cap = state.supply * bonding_price(state)
            assert math.isclose(state.reserve, 0.5 * cap, rel_tol=1e-9)


class TestBuy:
    def test_worked_example(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        state, minted = bonding_buy(state, 300.0)
        assert math.isclose(minted, 1000.0, rel_tol=1e-12)
        assert math.isclose(state.reserve, 400.0, rel_tol=1e-12)
        assert math.isclose(state.supply, 2000.0, rel_tol=1e-12)
        assert math.isclose(bonding_price(state), 0.4, rel_tol=1e-12)

    def test_zero_deposit_is_identity(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        after, minted = bonding_buy(state, 0.0)
        assert minted == 0.0
        assert after == state

    def test_negative_deposit_rejected(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        with pytest.raises(NonPositiveState):
            bonding_buy(state, -1.0)

    def test_unit_ratio_mints_linearly(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=1.0)
        _, minted = bonding_buy(state, 50.0)
        assert math.isclose(minted, 1000.0 * 50.0 / 100.0, rel_tol=1e-12)

    def test_minting_is_increasing_and_concave(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        deposits = [10.0 * k for k in range(1, 11)]
        minted = [bonding_buy(state, t)[1] for t in deposits]
        assert all(a < b for a, b in zip(minted, minted[1:]))
        gains = [b - a for a, b in zip(minted, minted[1:])]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    @pytest.mark.parametrize("decade", range(-15, 3))
    def test_minting_matches_a_60_digit_reference(self, decade):
        # deposits of 10^decade to 10^(decade + 1) of the reserve, where
        # s * ((1 + t/C)^F - 1) would cancel to a relative error of 1
        ctx = decimal.Context(prec=60)
        rng = random.Random(f"bonding/mint/{decade}")
        worst = 0.0
        for _ in range(2000):
            reserve, supply = (10.0 ** rng.uniform(-150.0, 150.0) for _ in range(2))
            ratio = 1.0 if rng.random() < 0.5 else 1.0 - rng.random()
            deposit = reserve * 10.0 ** rng.uniform(decade, decade + 1)
            _, minted = bonding_buy(bonding_curve(reserve, supply, ratio), deposit)
            u = ctx.divide(Decimal(deposit), Decimal(reserve))
            g = ctx.power(ctx.add(1, u), Decimal(ratio))
            want = ctx.multiply(Decimal(supply), ctx.subtract(g, 1))
            worst = max(worst, float(abs(Decimal(minted) - want) / want))
        assert worst <= 6e-16


class TestSell:
    def test_worked_example_inverse(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        state, minted = bonding_buy(state, 300.0)
        state, released = bonding_sell(state, minted)
        assert math.isclose(released, 300.0, rel_tol=1e-12)
        assert math.isclose(state.reserve, 100.0, rel_tol=1e-12)
        assert math.isclose(state.supply, 1000.0, rel_tol=1e-12)

    def test_unit_ratio_releases_linearly(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=1.0)
        _, released = bonding_sell(state, 250.0)
        assert math.isclose(released, 100.0 * 250.0 / 1000.0, rel_tol=1e-12)

    def test_zero_burn_is_identity(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        assert bonding_sell(state, 0.0) == (state, 0.0)

    def test_negative_burn_rejected(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        with pytest.raises(NonPositiveState):
            bonding_sell(state, -1.0)

    def test_exhausting_supply_rejected(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        with pytest.raises(SupplyDepletion):
            bonding_sell(state, 1000.0)

    def test_selling_nearly_all_supply_stays_on_curve(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.2)
        for burned in (990.0, 1000.0 * (1.0 - 1e-4)):
            post, released = bonding_sell(state, burned)
            assert math.isclose(
                post.reserve, bonding_reserve_at(post, post.supply), rel_tol=1e-9
            )
            assert math.isclose(post.reserve + released, state.reserve, rel_tol=1e-12)

    def test_small_sell_releases_without_cancellation(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.2)
        _, released = bonding_sell(state, 1e-9)
        # first order: dC = C * (e/s) / F
        assert math.isclose(released, 100.0 * 1e-12 / 0.2, rel_tol=1e-9)

    def test_reserve_underflow_rejected(self):
        state = bonding_curve(reserve=1.0, supply=1.0, reserve_ratio=0.01)
        with pytest.raises(SupplyDepletion):
            bonding_sell(state, 1.0 - 1e-10)


class TestIdentities:
    def test_buy_sell_round_trip(self):
        start = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        for deposit in log_spaced(1e-6 * 100.0, 100.0 * 100.0, 25):
            state, minted = bonding_buy(start, deposit)
            state, released = bonding_sell(state, minted)
            assert math.isclose(released, deposit, rel_tol=1e-9)
            assert math.isclose(state.reserve, start.reserve, rel_tol=1e-9)
            assert math.isclose(state.supply, start.supply, rel_tol=1e-9)

    def test_reserve_tracks_the_original_anchor(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.4)
        for deposit, burn in ((300.0, 500.0), (12.0, 40.0), (9000.0, 2500.0)):
            state, _ = bonding_buy(state, deposit)
            assert math.isclose(
                state.reserve, bonding_reserve_at(state, state.supply), rel_tol=1e-9
            )
            state, _ = bonding_sell(state, burn)
            assert math.isclose(
                state.reserve, bonding_reserve_at(state, state.supply), rel_tol=1e-9
            )
        assert state.anchor_reserve == 100.0
        assert state.anchor_supply == 1000.0

    def test_reserve_at_the_anchor_supply_is_the_anchor_reserve(self):
        state = bonding_curve(reserve=100.0, supply=1000.0, reserve_ratio=0.5)
        assert bonding_reserve_at(state, 1000.0) == 100.0

    @pytest.mark.parametrize("supply", [math.nan, math.inf, 0.0, -1.0])
    def test_reserve_at_refuses_a_supply_off_the_positive_reals(self, supply):
        state = bonding_curve(reserve=100.0, supply=10.0, reserve_ratio=0.5)
        with pytest.raises(ValueError, match=f"^supply must be finite and positive, got {supply}$"):
            bonding_reserve_at(state, supply)


def _reference_buy(state, deposit):
    u, f = deposit / state.reserve, state.reserve_ratio
    g = (1.0 + u) ** f
    minted = state.supply * (g - 1.0 if g >= 2.0 else math.expm1(f * math.log1p(u)))
    return replace(state, reserve=state.reserve + deposit, supply=state.supply + minted), minted


def _reference_sell(state, burned):
    supply = state.supply - burned
    exponent = 1.0 / state.reserve_ratio
    reserve = state.reserve * (supply / state.supply) ** exponent
    released = -state.reserve * math.expm1(math.log1p(-burned / state.supply) * exponent)
    return replace(state, reserve=reserve, supply=supply), released


def _bits(result):
    state, amount = result
    assert type(state) is BondingCurveState
    return [float.hex(getattr(state, f.name)) for f in fields(state)], float.hex(amount)


class TestPostStates:
    """A trade builds its post state from the checked parent and checks the
    two fields it moved; the state and the amount must equal those of the
    same formulas rebuilt through dataclasses.replace, which checks every
    field, bit for bit. Where replace refuses a field that left the float
    range, the trade refuses it with DomainError."""

    def test_match_a_replace_reference(self):
        rng = random.Random("bonding/post-states")
        outcomes = Counter()
        for _ in range(3000):
            state = bonding_curve(
                10.0 ** rng.uniform(-150.0, 150.0),
                10.0 ** rng.uniform(-150.0, 150.0),
                1.0 - rng.random() if rng.random() < 0.9 else 1.0,
            )
            deposit = state.reserve * 10.0 ** rng.uniform(-20.0, 20.0)
            if rng.random() < 0.1:
                deposit = 10.0 ** rng.uniform(150.0, 308.0)
            burned = state.supply * rng.choice((rng.random(), 1.0 - 10.0 ** rng.uniform(-16, -1)))
            try:
                reference = _reference_buy(state, deposit)
            except ValueError:
                with pytest.raises(DomainError, match="past the floating-point range"):
                    bonding_buy(state, deposit)
                outcomes["buy refused"] += 1
                continue
            bought = bonding_buy(state, deposit)
            assert bought == reference
            assert _bits(bought) == _bits(reference)
            for parent, amount in ((state, burned), (bought[0], bought[1])):
                if not 0.0 < amount < parent.supply:
                    continue
                try:
                    reference = _reference_sell(parent, amount)
                except ValueError:
                    with pytest.raises(AmmError):
                        bonding_sell(parent, amount)
                    outcomes["sell refused"] += 1
                    continue
                assert _bits(bonding_sell(parent, amount)) == _bits(reference)
                outcomes["sell"] += 1
            outcomes["buy"] += 1
        assert outcomes["buy"] >= 2500
        assert outcomes["buy refused"] >= 50
        assert outcomes["sell"] >= 4000
        assert outcomes["sell refused"] >= 10

"""Tests for the pool state machine: states, swaps, liquidity changes, rules."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammlab import (
    AmmError,
    DomainError,
    IdenticalAssets,
    InfeasibleTrade,
    PoolState,
    ProtocolFamily,
    ProtocolSpec,
    ReserveDepletion,
    RuleCheck,
    TransitionKind,
    add_liquidity_proportional,
    apply_swap,
    balancer_pool,
    bancor_pool,
    implicit_conservation,
    pmm_pool,
    slippage,
    spot_rate,
    stableswap_pool,
    sushiswap_pool,
    swap_amount,
    uniswap_pool,
    weighted_pool,
)
from ammlab.stableswap import solve_invariant

reserve_values = st.floats(min_value=1.0, max_value=1e6)


def four_protocol_pools():
    return (
        uniswap_pool(100.0, 100.0),
        balancer_pool((100.0, 100.0), (0.8, 0.2)),
        stableswap_pool((100.0, 100.0), 10.0),
        pmm_pool(target1=100.0, target2=100.0, oracle_price=1.0, amplification=0.5),
    )


class TestProtocolSpec:
    def test_weighted_requires_weights(self):
        with pytest.raises(ValueError):
            ProtocolSpec(family=ProtocolFamily.WEIGHTED)
        with pytest.raises(ValueError):
            ProtocolSpec(
                family=ProtocolFamily.WEIGHTED, weights=(0.5, 0.5), amplification=10.0
            )

    def test_stableswap_requires_amplification(self):
        with pytest.raises(ValueError):
            ProtocolSpec(family=ProtocolFamily.STABLESWAP)
        with pytest.raises(ValueError):
            ProtocolSpec(family=ProtocolFamily.STABLESWAP, amplification=-1.0)

    def test_pmm_amplification_capped_at_one(self):
        with pytest.raises(ValueError):
            ProtocolSpec(family=ProtocolFamily.PMM, amplification=1.5)
        spec = ProtocolSpec(family=ProtocolFamily.PMM, amplification=1.0)
        assert spec.amplification == 1.0


class TestPoolState:
    def test_rejects_single_asset(self):
        spec = ProtocolSpec(family=ProtocolFamily.WEIGHTED, weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            PoolState(reserves=(100.0,), spec=spec, invariant=(10.0,))

    def test_rejects_nonpositive_reserves(self):
        spec = ProtocolSpec(family=ProtocolFamily.WEIGHTED, weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            PoolState(reserves=(100.0, 0.0), spec=spec, invariant=(100.0,))

    def test_rejects_reserves_off_the_stored_curve(self):
        spec = ProtocolSpec(family=ProtocolFamily.WEIGHTED, weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            PoolState(reserves=(100.0, 100.0), spec=spec, invariant=(150.0,))

    def test_rejects_oracle_price_on_non_pmm_pools(self):
        spec = ProtocolSpec(family=ProtocolFamily.WEIGHTED, weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            PoolState(
                reserves=(100.0, 100.0),
                spec=spec,
                invariant=(100.0,),
                oracle_price=1.0,
            )

    def test_pmm_pools_need_an_oracle_price(self):
        spec = ProtocolSpec(family=ProtocolFamily.PMM, amplification=0.5)
        with pytest.raises(ValueError):
            PoolState(
                reserves=(100.0, 100.0), spec=spec, invariant=(100.0, 100.0)
            )

    def test_pmm_pools_reject_off_curve_reserves(self):
        spec = ProtocolSpec(family=ProtocolFamily.PMM, amplification=0.5)
        with pytest.raises(ValueError):
            PoolState(
                reserves=(130.0, 100.0),
                spec=spec,
                invariant=(100.0, 100.0),
                oracle_price=1.0,
            )


class TestFactories:
    def test_constant_product_aliases(self):
        for pool in (uniswap_pool(100.0, 100.0), sushiswap_pool(100.0, 100.0)):
            assert pool.spec.weights == (0.5, 0.5)
            assert pool.invariant == (100.0,)

    def test_weighted_aliases(self):
        for pool in (
            balancer_pool((100.0, 100.0), (0.8, 0.2)),
            bancor_pool((100.0, 100.0), (0.8, 0.2)),
            weighted_pool((100.0, 100.0), (0.8, 0.2)),
        ):
            assert pool.spec.family is ProtocolFamily.WEIGHTED
            assert pool.spec.weights == (0.8, 0.2)

    def test_stableswap_solves_the_invariant(self):
        pool = stableswap_pool((100.0, 100.0), 10.0)
        assert pool.invariant == (200.0,)

    @pytest.mark.parametrize(
        "reserves",
        [(1e-200, 1e-200), (1e200, 1e200), (1e60,) * 8],
        ids=["underflow", "overflow", "eight-assets"],
    )
    def test_stableswap_at_the_float_range_edges_raises_amm_error(self, reserves):
        # the invariant equation's (D/n)^n and prod(r) leave the float range
        with pytest.raises(AmmError):
            stableswap_pool(reserves, 10.0)

    def test_pmm_defaults_to_equilibrium_reserves(self):
        pool = pmm_pool(
            target1=100.0, target2=400.0, oracle_price=0.25, amplification=0.5
        )
        assert pool.reserves == (100.0, 400.0)
        assert pool.invariant == (100.0, 400.0)
        assert pool.oracle_price == 0.25


class TestSpotRateDispatch:
    def test_same_asset_is_one(self):
        for pool in four_protocol_pools():
            assert spot_rate(pool, 0, 0) == 1.0

    def test_known_rates(self):
        assert spot_rate(uniswap_pool(100.0, 100.0), 0, 1) == 1.0
        assert spot_rate(balancer_pool((100.0, 100.0), (0.8, 0.2)), 0, 1) == 0.25
        assert spot_rate(stableswap_pool((100.0, 100.0), 10.0), 0, 1) == 1.0
        pool = pmm_pool(
            target1=100.0, target2=100.0, oracle_price=2.5, amplification=0.5
        )
        assert spot_rate(pool, 0, 1) == 2.5
        assert spot_rate(pool, 1, 0) == 1.0 / 2.5

    def test_reciprocity(self):
        for pool in four_protocol_pools():
            product = spot_rate(pool, 0, 1) * spot_rate(pool, 1, 0)
            assert abs(product - 1.0) <= 1e-9


class TestSwapDispatch:
    def test_constant_product_output(self):
        out = swap_amount(uniswap_pool(100.0, 100.0), 0, 1, 10.0)
        assert math.isclose(out, 100.0 / 11.0, rel_tol=1e-12)

    def test_identical_assets_rejected(self):
        with pytest.raises(IdenticalAssets):
            swap_amount(uniswap_pool(100.0, 100.0), 1, 1, 10.0)

    def test_constant_product_slippage(self):
        got = slippage(uniswap_pool(100.0, 100.0), 0, 1, 10.0)
        assert math.isclose(got, 0.1, rel_tol=1e-12)

    @pytest.mark.parametrize("x_in", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [swap_amount, slippage, apply_swap])
    @pytest.mark.parametrize(
        "make_pool",
        [
            lambda: uniswap_pool(100.0, 100.0),
            lambda: weighted_pool((100.0, 200.0, 300.0), (0.2, 0.3, 0.5)),
            lambda: stableswap_pool((100.0, 120.0), 10.0),
            lambda: stableswap_pool((100.0, 120.0, 80.0), 10.0),
            lambda: pmm_pool(100.0, 100.0, 1.0, 0.5),
        ],
        ids=["uniswap", "weighted3", "stableswap2", "stableswap3", "pmm"],
    )
    def test_non_finite_trade_sizes_rejected(self, make_pool, call, x_in):
        pool = make_pool()
        for i, o in ((0, 1), (1, 0)):
            with pytest.raises(DomainError, match="trade size must be finite"):
                call(pool, i, o, x_in)

    def test_both_directions_agree_with_round_trip(self):
        for pool in four_protocol_pools():
            out = swap_amount(pool, 0, 1, 10.0)
            post, _, _ = apply_swap(pool, 0, 1, 10.0)
            back = swap_amount(post, 1, 0, out)
            assert math.isclose(back, 10.0, rel_tol=1e-9)


class TestApplySwap:
    def test_constant_product_transition(self):
        post, outcome, receipt = apply_swap(uniswap_pool(100.0, 100.0), 0, 1, 10.0)
        assert post.reserves[0] == 110.0
        assert math.isclose(post.reserves[1], 100.0 - 100.0 / 11.0, rel_tol=1e-12)
        assert post.invariant == (100.0,)
        assert outcome.amount_in == 10.0
        assert math.isclose(outcome.amount_out, 100.0 / 11.0, rel_tol=1e-12)
        assert math.isclose(outcome.effective_rate, 1.1, rel_tol=1e-12)
        assert math.isclose(outcome.slippage, 0.1, rel_tol=1e-12)
        assert receipt.kind is TransitionKind.PURE_SWAP
        assert receipt.checks[0].rule == "invariant_preserved"
        assert receipt.checks[0].deviation <= 1e-9
        assert receipt.passed

    def test_zero_input_is_identity(self):
        pool = stableswap_pool((100.0, 100.0), 10.0)
        post, outcome, receipt = apply_swap(pool, 0, 1, 0.0)
        assert post is pool
        assert outcome.amount_out == 0.0
        assert receipt.checks[0].deviation == 0.0

    def test_negative_input_runs_the_trade_backwards(self):
        post, outcome, _ = apply_swap(uniswap_pool(100.0, 100.0), 0, 1, -10.0)
        assert post.reserves[0] == 90.0
        assert math.isclose(post.reserves[1], 10_000.0 / 90.0, rel_tol=1e-9)
        assert outcome.amount_out < 0.0

    def test_vanishing_output_rejected(self):
        with pytest.raises(InfeasibleTrade):
            apply_swap(uniswap_pool(100.0, 100.0), 0, 1, 1e-300)

    def test_invariant_kept_for_every_protocol(self):
        for pool in four_protocol_pools():
            _, _, receipt = apply_swap(pool, 0, 1, 25.0)
            assert receipt.passed

    def test_stableswap_invariant_resolved_after_swap(self):
        # balanced two-asset pool keeps its invariant across amplifications
        for amp in (0.01, 1.0, 10.0, 1e8):
            pool = stableswap_pool((100.0, 100.0), amp)
            post, _, receipt = apply_swap(pool, 0, 1, 10.0)
            assert post.invariant == (200.0,)
            assert receipt.checks[0].deviation <= 1e-9

    def test_composability(self):
        for pool in four_protocol_pools():
            first, step_one, _ = apply_swap(pool, 0, 1, 7.0)
            _, step_two, _ = apply_swap(first, 0, 1, 5.0)
            _, combined, _ = apply_swap(pool, 0, 1, 12.0)
            total = step_one.amount_out + step_two.amount_out
            assert math.isclose(total, combined.amount_out, rel_tol=1e-9)

    def test_reversibility(self):
        for pool in four_protocol_pools():
            post, outcome, _ = apply_swap(pool, 0, 1, 10.0)
            restored, _, _ = apply_swap(post, 1, 0, outcome.amount_out)
            for got, want in zip(restored.reserves, pool.reserves):
                assert math.isclose(got, want, rel_tol=1e-9)


class TestAddLiquidity:
    def test_constant_product_deposit(self):
        post, receipt = add_liquidity_proportional(uniswap_pool(100.0, 100.0), 0.1)
        assert post.reserves == (110.00000000000001, 110.00000000000001)
        assert math.isclose(post.invariant[0], 110.0, rel_tol=1e-12)
        assert math.isclose(post.share_supply, 1.1, rel_tol=1e-12)
        assert receipt.kind is TransitionKind.PURE_LIQUIDITY_CHANGE
        assert receipt.checks[0].rule == "spot_rates_preserved"
        assert receipt.passed

    def test_stableswap_invariant_scales(self):
        pool = stableswap_pool((50.0, 150.0), 10.0)
        post, receipt = add_liquidity_proportional(pool, 1.0)
        assert math.isclose(post.invariant[0], 2.0 * pool.invariant[0], rel_tol=1e-9)
        assert receipt.passed

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        exponents=st.lists(st.floats(min_value=-3.0, max_value=6.0), min_size=2, max_size=4),
        amp_exponent=st.floats(min_value=-2.0, max_value=4.0),
        fraction=st.floats(min_value=-0.9, max_value=10.0, exclude_min=True, exclude_max=True),
    )
    def test_stableswap_scaled_invariant_matches_re_solve(self, exponents, amp_exponent, fraction):
        amp = 10.0**amp_exponent
        pool = stableswap_pool(tuple(10.0**e for e in exponents), amp)
        post, receipt = add_liquidity_proportional(pool, fraction)
        assert math.isclose(
            post.invariant[0], solve_invariant(post.reserves, amp), rel_tol=1e-14
        )
        assert receipt.passed

    def test_pmm_targets_scale_off_equilibrium(self):
        pool = pmm_pool(
            target1=100.0, target2=100.0, oracle_price=1.0, amplification=0.5
        )
        displaced, _, _ = apply_swap(pool, 0, 1, 30.0)
        post, receipt = add_liquidity_proportional(displaced, 0.5)
        assert post.invariant == (150.0, 150.0)
        assert post.oracle_price == 1.0
        assert receipt.checks[0].deviation <= 1e-9

    def test_removal_shrinks_reserves(self):
        post, receipt = add_liquidity_proportional(uniswap_pool(100.0, 100.0), -0.5)
        assert post.reserves == (50.0, 50.0)
        assert math.isclose(post.share_supply, 0.5, rel_tol=1e-12)
        assert receipt.passed

    def test_full_withdrawal_rejected(self):
        with pytest.raises(ReserveDepletion):
            add_liquidity_proportional(uniswap_pool(100.0, 100.0), -1.0)

    def test_growth_beyond_the_float_range_raises_domain_error(self):
        with pytest.raises(DomainError):
            add_liquidity_proportional(stableswap_pool((80.0, 100.0), 100.0), 1e300)


class TestRuleCheck:
    def test_tolerance_boundary(self):
        assert RuleCheck("invariant_preserved", 1e-9).passed
        assert not RuleCheck("invariant_preserved", 2e-9).passed


class TestImplicitConservation:
    def test_zero_on_the_curve_for_every_protocol(self):
        for pool in four_protocol_pools():
            curve = implicit_conservation(pool)
            residual = curve.evaluate(pool.reserves, pool.invariant)
            assert abs(residual) <= 1e-9 * max(1.0, pool.invariant[0])


class TestRandomizedRules:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        r1=reserve_values,
        r2=reserve_values,
        w1=st.floats(min_value=0.1, max_value=0.9),
        fraction=st.floats(min_value=0.01, max_value=0.5),
        growth=st.floats(min_value=-0.5, max_value=1.0),
    )
    def test_weighted_pools(self, r1, r2, w1, fraction, growth):
        pool = weighted_pool((r1, r2), (w1, 1.0 - w1))
        swapped, _, swap_receipt = apply_swap(pool, 0, 1, fraction * r1)
        assert swap_receipt.passed
        _, grow_receipt = add_liquidity_proportional(swapped, growth)
        assert grow_receipt.passed

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        r1=reserve_values,
        r2=reserve_values,
        exponent=st.floats(min_value=-2.0, max_value=2.0),
        fraction=st.floats(min_value=0.01, max_value=0.5),
        growth=st.floats(min_value=-0.5, max_value=1.0),
    )
    def test_stableswap_pools(self, r1, r2, exponent, fraction, growth):
        pool = stableswap_pool((r1, r2), 10.0**exponent)
        swapped, _, swap_receipt = apply_swap(pool, 0, 1, fraction * r1)
        assert swap_receipt.passed
        _, grow_receipt = add_liquidity_proportional(swapped, growth)
        assert grow_receipt.passed

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        t1=reserve_values,
        t2=reserve_values,
        amp=st.floats(min_value=0.05, max_value=1.0),
        fraction=st.floats(min_value=0.01, max_value=0.5),
        growth=st.floats(min_value=-0.5, max_value=1.0),
    )
    def test_pmm_pools(self, t1, t2, amp, fraction, growth):
        price = t1 / t2
        pool = pmm_pool(
            target1=t1, target2=t2, oracle_price=price, amplification=amp
        )
        swapped, _, swap_receipt = apply_swap(pool, 0, 1, fraction * t1)
        assert swap_receipt.passed
        _, grow_receipt = add_liquidity_proportional(swapped, growth)
        assert grow_receipt.passed

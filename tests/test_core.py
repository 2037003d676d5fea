"""Tests for the pool state machine: states, swaps, liquidity changes, rules."""

from __future__ import annotations

import inspect
import math
import random
import types
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammlab import (
    RULE_TOLERANCE,
    AmmError,
    BondingCurveState,
    ConservationViolation,
    DomainError,
    IdenticalAssets,
    InfeasibleTrade,
    InvalidBracket,
    PoolState,
    ProtocolFamily,
    ProtocolSpec,
    ReserveDepletion,
    RootBracket,
    RuleCheck,
    SwapOutcome,
    TransitionKind,
    TransitionReceipt,
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
from ammlab import pmm as _pmm
from ammlab import stableswap as _ss
from ammlab import weighted as _w
from ammlab.core import swap_kernel
from ammlab import quote
from ammlab.quote import slippage_from_quote
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

    @pytest.mark.parametrize(
        "family, amplification",
        [(ProtocolFamily.STABLESWAP, 10.0), (ProtocolFamily.PMM, 0.5)],
        ids=["stableswap", "pmm"],
    )
    def test_only_weighted_pools_take_weights(self, family, amplification):
        with pytest.raises(ValueError, match=f"^{family.value} pools take no weights$"):
            ProtocolSpec(family=family, weights=(0.5, 0.5), amplification=amplification)

    def test_a_family_given_as_a_plain_string_is_refused(self):
        with pytest.raises(ValueError, match="^unknown protocol family 'weighted'$"):
            ProtocolSpec("weighted", weights=(0.5, 0.5))

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

    @pytest.mark.parametrize(
        "family, fields, message",
        [
            (
                ProtocolFamily.WEIGHTED,
                dict(reserves=(100.0, 100.0), invariant=(100.0,), share_supply=0.0),
                "share supply must be finite and positive, got 0.0",
            ),
            (
                ProtocolFamily.PMM,
                dict(reserves=(100.0, 100.0, 100.0), invariant=(100.0, 100.0), oracle_price=1.0),
                "pmm pools hold exactly two assets",
            ),
            (
                ProtocolFamily.PMM,
                dict(reserves=(100.0, 100.0), invariant=(100.0,), oracle_price=1.0),
                "pmm pools carry two conservation targets",
            ),
            (
                ProtocolFamily.PMM,
                dict(reserves=(100.0, 100.0), invariant=(100.0, 100.0)),
                "pmm pools need an oracle price",
            ),
            (
                ProtocolFamily.STABLESWAP,
                dict(reserves=(100.0, 100.0), invariant=(200.0, 200.0)),
                "weighted/stableswap pools carry one conservation value",
            ),
            (
                ProtocolFamily.STABLESWAP,
                dict(reserves=(100.0, 100.0), invariant=(-200.0,)),
                "conservation value must be finite and positive, got -200.0",
            ),
            (
                ProtocolFamily.WEIGHTED,
                dict(reserves=(100.0, 100.0, 100.0), invariant=(100.0,)),
                "one weight per asset required",
            ),
        ],
        ids=[
            "share-supply", "pmm-assets", "pmm-targets", "pmm-oracle", "one-value",
            "positive-value", "one-weight-per-asset",
        ],
    )
    def test_shape_refusals_come_before_the_curve(self, family, fields, message):
        if family is ProtocolFamily.WEIGHTED:
            spec = ProtocolSpec(family, weights=(0.5, 0.5))
        else:
            spec = ProtocolSpec(family, amplification=0.5)
        with pytest.raises(ValueError) as info:
            PoolState(spec=spec, **fields)
        assert type(info.value) is DomainError
        assert str(info.value) == message

    def test_off_curve_reserves_raise_conservation_violation(self):
        spec = ProtocolSpec(family=ProtocolFamily.WEIGHTED, weights=(0.5, 0.5))
        with pytest.raises(ConservationViolation, match=r"relative deviation 3\.333e-01"):
            PoolState(reserves=(100.0, 100.0), spec=spec, invariant=(150.0,))
        assert issubclass(ConservationViolation, AmmError)
        assert issubclass(ConservationViolation, ValueError)

    def test_nan_deviation_fails_the_check(self):
        # off the curve, a PMM residual over a value scale C1 + P*C2 that
        # overflows is inf/inf = NaN, which must not pass
        with pytest.raises(ConservationViolation, match="relative deviation nan"):
            pmm_pool(1e200, 1e200, 1e200, 0.5, reserves=(1e200, 1e100))
        # a NaN target is refused before the gate, by the PMM parameters
        with pytest.raises(ValueError) as info:
            pmm_pool(math.nan, 100.0, 1.0, 0.5, reserves=(100.0, 100.0))
        assert type(info.value) is DomainError
        assert str(info.value) == "target1 must be finite and positive, got nan"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_conservation_value_that_is_not_finite_is_refused(self, value):
        # the value rule refuses it before the gate, which read NaN or inf
        spec = ProtocolSpec(family=ProtocolFamily.WEIGHTED, weights=(0.5, 0.5))
        with pytest.raises(ValueError) as info:
            PoolState(reserves=(100.0, 100.0), spec=spec, invariant=(value,))
        assert type(info.value) is DomainError
        assert str(info.value) == f"conservation value must be finite and positive, got {value}"


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

    @pytest.mark.parametrize("reserves", [(1e120, 1e120), (1e80, 1e80, 1e80)])
    def test_stableswap_power_term_beyond_the_float_range_raises_domain_error(self, reserves):
        # D*(D/n)^n is inf while (D/n)^n is finite: the residual would be NaN
        with pytest.raises(DomainError, match="leaves the floating-point range"):
            stableswap_pool(reserves, 10.0)

    def test_stableswap_curve_constants_beyond_the_float_range_raise_domain_error(self):
        # a balanced pool's D = 2e200 is exact, but (D/n)^n overflows while
        # the pool builds its curve, before the conservation gate
        with pytest.raises(
            DomainError, match=r"^\(D/n\)\^n leaves the floating-point range at D=2e\+200$"
        ):
            stableswap_pool((1e200, 1e200), 10.0)
        with pytest.raises(DomainError, match=r"^\(D/n\)\^n leaves the floating-point range"):
            add_liquidity_proportional(stableswap_pool((100.0, 100.0), 10.0), 1e300)

    def test_stableswap_solver_keeps_an_infinite_bracket_end(self):
        # D*(D/n)^n overflows at the bracket's upper end D = sum(r), although
        # the root, near 7.4e67, is representable. Only the conservation gate
        # refuses an infinite last term: the solver's g is -inf there, and
        # the refusal is the root bracket's, which needs finite endpoint
        # values
        reserves = (1e103, 1e-3)
        D = math.fsum(reserves)
        power = D * (D / 2) ** 2 / math.prod(reserves)
        assert power == math.inf
        assert 1.0 * D + D - 1.0 * D - power == -math.inf
        with pytest.raises(InvalidBracket, match="endpoint values must be finite"):
            stableswap_pool(reserves, 1.0)

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

    def test_zero_trade_slippage_still_checks_the_assets(self):
        pool = uniswap_pool(100.0, 100.0)
        assert slippage(pool, 0, 1, 0.0) == 0.0
        with pytest.raises(IdenticalAssets, match="^swap needs distinct input and output assets$"):
            slippage(pool, 1, 1, 0.0)
        with pytest.raises(IndexError, match="^asset index 2 out of range for 2 assets$"):
            slippage(pool, 0, 2, 0.0)

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

    def test_identical_assets_rejected(self):
        with pytest.raises(IdenticalAssets, match="^swap needs distinct input and output assets$"):
            apply_swap(uniswap_pool(100.0, 100.0), 1, 1, 10.0)

    def test_post_state_shares_the_pool_curve(self):
        for pool in four_protocol_pools():
            post, _, _ = apply_swap(pool, 0, 1, 10.0)
            assert post._curve is pool._curve
            assert add_liquidity_proportional(pool, 0.1)[0]._curve is not pool._curve

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

    @pytest.mark.parametrize(
        "make_pool, x_in",
        [
            (lambda: uniswap_pool(100.0, 100.0), 1e10),
            (lambda: uniswap_pool(100.0, 100.0), 1e14),
            (lambda: weighted_pool((1.0, 1000.0), (0.9, 0.1)), 50.0),
        ],
        ids=["uniswap-1e10", "uniswap-1e14", "weighted-50"],
    )
    def test_cancelling_output_reserve_raises_amm_error(self, make_pool, x_in):
        # r_o - x_out cancels, so the post state is off its curve
        with pytest.raises(ConservationViolation):
            apply_swap(make_pool(), 0, 1, x_in)

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

    def test_rates_beyond_the_product_overflow_pass_the_receipt(self):
        # the stableswap spot rate's products, of order r^4, overflow here
        post, receipt = add_liquidity_proportional(stableswap_pool((1e99, 1e99), 10.0), 9.0)
        assert post.reserves == (1e100, 1e100)
        assert receipt.checks[0].deviation == 0.0
        assert receipt.passed


class TestRuleCheck:
    def test_tolerance_boundary(self):
        assert RuleCheck("invariant_preserved", 1e-9).passed
        assert not RuleCheck("invariant_preserved", 2e-9).passed


def _record_cases():
    """(class, positional arguments, defaulted trailing fields) for every
    record a transition or a root solve builds."""
    pool = uniswap_pool(100.0, 100.0)
    post, outcome, receipt = apply_swap(pool, 0, 1, 1.0)
    check = receipt.checks[0]
    return [
        (RuleCheck, ("invariant_preserved", 2.5e-12, 1e-6), {"tolerance": RULE_TOLERANCE}),
        (SwapOutcome, tuple(getattr(outcome, f.name) for f in fields(SwapOutcome)), {}),
        (TransitionReceipt, (TransitionKind.PURE_SWAP, pool, post, (check,)), {"checks": ()}),
        (BondingCurveState, (110.0, 1.0, 0.5, 100.0, 0.9), {}),
        (RootBracket, (1.0, 4.0, 3.0, -12.0), {}),
    ]


class TestRecords:
    """The transition records, the bonding state and the root bracket keep
    the dataclass contract whatever builds them: construction by position
    and by keyword, the constructor's signature, defaults, equality, hash,
    repr, fields, replace and the frozen assignment check."""

    @pytest.mark.parametrize(
        "cls, args, defaults", _record_cases(), ids=[c[0].__name__ for c in _record_cases()]
    )
    def test_dataclass_contract(self, cls, args, defaults):
        names = [f.name for f in fields(cls)]
        assert len(names) == len(args)
        record = cls(*args)
        assert record.__dict__ == dict(zip(names, args))
        by_keyword = cls(**dict(zip(names, args)))
        assert record == by_keyword and record is not by_keyword
        assert hash(record) == hash(by_keyword)
        assert repr(record) == (
            f"{cls.__name__}(" + ", ".join(f"{n}={a!r}" for n, a in zip(names, args)) + ")"
        )
        required = len(args) - len(defaults)
        assert names[required:] == list(defaults)
        # the constructor's signature is the fields, in order, with their defaults
        assert [(p.name, p.default) for p in inspect.signature(cls).parameters.values()] == [
            (n, defaults.get(n, inspect.Parameter.empty)) for n in names
        ]
        assert cls(*args[:required]).__dict__ == {**dict(zip(names, args)), **defaults}

        # replace() rebuilds through the same constructor
        last = names[-1]
        changed = replace(record, **{last: defaults.get(last, args[-1] * 2)})
        assert changed != record
        assert changed == cls(*args[:-1], getattr(changed, last))
        assert replace(record) == record

        for name in (names[0], last, "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, args[0])
        with pytest.raises(FrozenInstanceError):
            delattr(record, names[0])
        assert record == by_keyword

    def test_root_bracket_checks_every_construction(self):
        bracket = RootBracket(1.0, 4.0, 3.0, -12.0)
        with pytest.raises(InvalidBracket, match="no sign change"):
            replace(bracket, f_hi=1.0)
        with pytest.raises(InvalidBracket, match="0 < lo < hi"):
            RootBracket(lo=4.0, hi=1.0, f_lo=3.0, f_hi=-12.0)


class TestImplicitConservation:
    def test_zero_on_the_curve_for_every_protocol(self):
        for pool in four_protocol_pools():
            curve = implicit_conservation(pool)
            residual = curve.evaluate(pool.reserves, pool.invariant)
            assert abs(residual) <= 1e-9 * max(1.0, pool.invariant[0])

    def test_the_law_is_the_family_function_at_any_constants(self):
        # off-curve reserves and constants other than the pool's own, bit for
        # bit: a law that read the pool's own constants would differ
        rng = random.Random(36)
        branches = Counter()
        for _ in range(100):
            for n in (2, 3, 4):
                reserves = tuple(10 ** rng.uniform(0, 3) for _ in range(n))
                point = tuple(10 ** rng.uniform(0, 3) for _ in range(n))
                c = (sum(point) * rng.uniform(0.5, 2.0),)
                raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
                pool = weighted_pool(reserves, [w / sum(raw) for w in raw])
                law = implicit_conservation(pool)
                assert law.n == n
                want = _w.weighted_conservation(point, pool.spec.weights) - c[0]
                assert law.evaluate(point, c) == want
                pool = stableswap_pool(reserves, 10 ** rng.uniform(-1, 3))
                want = _ss.defining_residual(point, c[0], pool.spec.amplification)
                assert implicit_conservation(pool).evaluate(point, c) == want
            targets = (10 ** rng.uniform(0, 3), 10 ** rng.uniform(0, 3))
            pool = pmm_pool(*targets, 10 ** rng.uniform(-2, 2), rng.uniform(0.05, 1.0))
            point = (10 ** rng.uniform(0, 3), 10 ** rng.uniform(0, 3))
            c = (10 ** rng.uniform(0, 3), 10 ** rng.uniform(0, 3))
            params = _pmm.PMMParams(pool.oracle_price, pool.spec.amplification, *c)
            want = _pmm.conservation_gap(*point, params)
            assert implicit_conservation(pool).evaluate(point, c) == want
            branches[point[0] >= c[0]] += 1
        assert branches[True] > 10 and branches[False] > 10


# how many of 500 seeded pools per (family, size) give their asset-permuted
# twin a different invariant, spot rate or 1%-of-reserve swap output, and the
# worst relative gap; a sum or product of three or more doubles depends on
# its order (ROADMAP item 20). Each count and gap may only fall.
ORDER_GAPS = {
    ("stableswap", 2): {"invariant": (0, 0.0), "spot": (0, 0.0), "swap": (0, 0.0)},
    ("stableswap", 3): {"invariant": (49, 5.0e-15), "spot": (60, 9.7e-15), "swap": (49, 2.6e-12)},
    ("stableswap", 4): {"invariant": (100, 7.9e-15), "spot": (99, 1.3e-14), "swap": (176, 4.1e-12)},
    ("weighted", 2): {"invariant": (0, 0.0), "spot": (0, 0.0), "swap": (0, 0.0)},
    ("weighted", 3): {"invariant": (119, 2.2e-16), "spot": (0, 0.0), "swap": (0, 0.0)},
    ("weighted", 4): {"invariant": (196, 3.4e-16), "spot": (0, 0.0), "swap": (0, 0.0)},
}


def order_gaps(family: str, n: int) -> dict[str, list]:
    """[count, worst relative gap] of each quantity in ORDER_GAPS' corpus."""
    rng = random.Random(n + 10 * (family == "weighted"))
    found = {key: [0, 0.0] for key in ("invariant", "spot", "swap")}
    for _ in range(500):
        reserves = [10 ** rng.uniform(0, 6) for _ in range(n)]
        perm = rng.sample(range(n), n)
        twin_reserves = [reserves[a] for a in perm]
        if family == "stableswap":
            amplification = 10 ** rng.uniform(-1, 3)
            pool = stableswap_pool(reserves, amplification)
            twin = stableswap_pool(twin_reserves, amplification)
        else:
            raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
            weights = [w / sum(raw) for w in raw]
            pool = weighted_pool(reserves, weights)
            twin = weighted_pool(twin_reserves, [weights[a] for a in perm])
        i, o = rng.sample(range(n), 2)
        # the twin's index of each original asset
        ti, to = perm.index(i), perm.index(o)
        x_in = 0.01 * reserves[i]
        pairs = {
            "invariant": (pool.invariant[0], twin.invariant[0]),
            "spot": (spot_rate(pool, i, o), spot_rate(twin, ti, to)),
            "swap": (swap_amount(pool, i, o, x_in), swap_amount(twin, ti, to, x_in)),
        }
        for key, (a, b) in pairs.items():
            if a != b:
                found[key][0] += 1
                found[key][1] = max(found[key][1], abs(a - b) / abs(a))
    return found


class TestAssetOrder:
    @pytest.mark.parametrize("family, n", list(ORDER_GAPS), ids=[f"{f}-{n}" for f, n in ORDER_GAPS])
    def test_a_permuted_twin_differs_at_most_as_measured(self, family, n):
        found = order_gaps(family, n)
        for key, (count, worst) in ORDER_GAPS[family, n].items():
            assert found[key][0] <= count and found[key][1] <= worst, key
            if count == 0:
                assert found[key] == [0, 0.0], key


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


# ---------------------------------------------------------------------------
# transitions against their plain statement, bit for bit


def _params(state):
    return _pmm.PMMParams(state.oracle_price, state.spec.amplification, *state.invariant)


def _reference_rate(state, i, o):
    r, family = state.reserves, state.spec.family
    if family is ProtocolFamily.WEIGHTED:
        return _w.weighted_spot_rate(r, state.spec.weights, i, o)
    if family is ProtocolFamily.STABLESWAP:
        return _ss.stableswap_spot_rate(r, state.invariant[0], state.spec.amplification, i, o)
    rate = _pmm.pmm_spot_rate(r[0], r[1], _params(state))
    return rate if (i, o) == (0, 1) else 1.0 / rate


def _reference_amount(state, i, o, x_in):
    r, family = state.reserves, state.spec.family
    if family is ProtocolFamily.WEIGHTED:
        return _w.weighted_swap(r, state.spec.weights, i, o, x_in)
    if family is ProtocolFamily.STABLESWAP:
        return _ss.stableswap_swap(r, state.invariant[0], state.spec.amplification, i, o, x_in)
    if (i, o) == (0, 1):
        return _pmm.pmm_swap(r[0], r[1], _params(state), x_in)
    return _pmm.pmm_swap(r[1], r[0], _params(state).mirrored(), x_in)


def _reference_deviation(state):
    """The receipt's deviation: how far the reserves sit from the stored
    constants, relative; for stableswap, the drift of D to first order."""
    r, family = state.reserves, state.spec.family
    if family is ProtocolFamily.WEIGHTED:
        value = _w.weighted_conservation(r, state.spec.weights)
        return abs(value - state.invariant[0]) / state.invariant[0]
    if family is ProtocolFamily.STABLESWAP:
        d, amp = state.invariant[0], state.spec.amplification
        q, dq, _ = _ss.curve_constants(d, amp, len(r))
        return _ss.conservation_check(r, d, amp, q, dq)[1]
    return _pmm.conservation_residual(r[0], r[1], _params(state))


def _reference_swap(state, i, o, x_in):
    """apply_swap for distinct in-range assets and a nonzero finite trade:
    the kernels' public functions, the public PoolState constructor for the
    post state and _reference_deviation for the receipt."""
    rate = _reference_rate(state, i, o)
    x_out = _reference_amount(state, i, o, x_in)
    if x_out == 0.0:
        raise InfeasibleTrade(f"input {x_in} produced zero output; slippage undefined")
    reserves = list(state.reserves)
    reserves[i] += x_in
    reserves[o] -= x_out
    if reserves[o] <= 0.0:
        raise ReserveDepletion(f"trade would empty the output reserve ({reserves})")
    post = PoolState(
        reserves=tuple(reserves),
        spec=state.spec,
        invariant=state.invariant,
        oracle_price=state.oracle_price,
        share_supply=state.share_supply,
    )
    outcome = (i, o, x_in, x_out, post.reserves, rate, x_in / x_out, (x_in / x_out) / rate - 1.0)
    return post.reserves, outcome, _reference_deviation(post)


def _reference_liquidity(state, fraction):
    grow = 1.0 + fraction
    reserves = tuple(r * grow for r in state.reserves)
    if state.spec.family is ProtocolFamily.WEIGHTED:
        invariant = (_w.weighted_conservation(reserves, state.spec.weights),)
    else:
        invariant = tuple(c * grow for c in state.invariant)
    post = PoolState(
        reserves=reserves,
        spec=state.spec,
        invariant=invariant,
        oracle_price=state.oracle_price,
        share_supply=state.share_supply * grow,
    )
    changes = [
        abs(_reference_rate(post, i, o) / _reference_rate(state, i, o) - 1.0)
        for i in range(state.n_assets)
        for o in range(state.n_assets)
        if i != o
    ]
    worst = math.nan if any(math.isnan(c) for c in changes) else max(changes)
    return post.reserves, post.invariant, post.share_supply, worst


def _swap_result(state, i, o, x_in):
    post, outcome, receipt = apply_swap(state, i, o, x_in)
    assert receipt.post_state is post and receipt.pre_state is state
    assert post.reserves is outcome.reserves_after
    assert (post.spec, post.invariant, post.oracle_price, post.share_supply) == (
        state.spec, state.invariant, state.oracle_price, state.share_supply
    )
    fields = (
        outcome.input_asset, outcome.output_asset, outcome.amount_in, outcome.amount_out,
        outcome.reserves_after, outcome.spot_rate_before, outcome.effective_rate,
        outcome.slippage,
    )
    return post.reserves, fields, receipt.checks[0].deviation


def _liquidity_result(state, fraction):
    post, receipt = add_liquidity_proportional(state, fraction)
    return post.reserves, post.invariant, post.share_supply, receipt.checks[0].deviation


def _bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _settled(fn, *args):
    """float.hex of every float fn returns, or its exception class and
    message."""
    try:
        return _bits(fn(*args))
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


@st.composite
def transition_pools(draw):
    """Weighted (n = 2..4), PMM and stableswap (n = 2..4) pools, each
    displaced from its starting point by one swap when that swap succeeds."""
    family = draw(st.sampled_from(["weighted", "pmm", "stableswap"]))
    if family == "pmm":
        n = 2
        targets = [10.0 ** draw(st.floats(-3.0, 6.0)) for _ in range(2)]
        amp = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
        pool = pmm_pool(*targets, 10.0 ** draw(st.floats(-3.0, 3.0)), amp)
    else:
        n = draw(st.integers(2, 4))
        base = 10.0 ** draw(st.floats(-6.0, 9.0))
        reserves = [base * 10.0 ** draw(st.floats(0.0, 3.0)) for _ in range(n)]
        if family == "weighted":
            raw = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
            weights = [w / math.fsum(raw) for w in raw]
            pool = weighted_pool(reserves, weights)
        else:
            pool = stableswap_pool(reserves, 10.0 ** draw(st.floats(-3.0, 8.0)))
    i, o = draw(st.permutations(range(n)))[:2]
    shift = pool.reserves[i] * 10.0 ** draw(st.floats(-6.0, 0.0))
    try:
        pool, _, _ = apply_swap(pool, i, o, shift)
    except (AmmError, ValueError):
        pass
    return pool


class TestTransitionBits:
    """apply_swap and add_liquidity_proportional check their post state once,
    with one evaluation of the conservation law that also gives the receipt;
    they must equal the plain statement of each rule bit for bit, and fail
    where it fails, with the same message."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        pool=transition_pools(),
        pair=st.integers(0, 11),
        # trades of 1e-9 to 10 times the input reserve, and a third far
        # beyond, where r_o - x_out cancels and the post state is refused
        exponent=st.one_of(st.floats(-9.0, 1.0), st.floats(-9.0, 1.0), st.floats(1.0, 14.0)),
        sign=st.sampled_from([1.0, 1.0, 1.0, -1.0]),
    )
    def test_apply_swap(self, pool, pair, exponent, sign):
        pairs = [(i, o) for i in range(pool.n_assets) for o in range(pool.n_assets) if i != o]
        i, o = pairs[pair % len(pairs)]
        x_in = sign * pool.reserves[i] * 10.0**exponent
        got = _settled(_swap_result, pool, i, o, x_in)
        assert got == _settled(_reference_swap, pool, i, o, x_in)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        pool=transition_pools(),
        fraction=st.floats(-0.9, 10.0, exclude_min=True, exclude_max=True),
    )
    def test_add_liquidity_proportional(self, pool, fraction):
        got = _settled(_liquidity_result, pool, fraction)
        assert got == _settled(_reference_liquidity, pool, fraction)

    @pytest.mark.parametrize("scale", [1e-2, 1e14])
    @pytest.mark.parametrize(
        "make_pool",
        [
            lambda: weighted_pool((100.0, 300.0, 50.0), (0.5, 0.3, 0.2)),
            lambda: pmm_pool(100.0, 400.0, 0.25, 0.5, reserves=(100.0, 400.0)),
            lambda: stableswap_pool((100.0, 300.0, 50.0), 10.0),
        ],
        ids=["weighted", "pmm", "stableswap"],
    )
    def test_numpy_trade_leaves_float_reserves(self, make_pool, scale):
        # a numpy scalar trade moves the reserves by numpy arithmetic; the
        # post state holds them as floats, as PoolState(...) would
        pool = make_pool()
        x_in = np.float64(pool.reserves[0] * scale)
        got = _settled(_swap_result, pool, 0, 1, x_in)
        assert got == _settled(_reference_swap, pool, 0, 1, x_in)
        if scale < 1.0:
            post, outcome, _ = apply_swap(pool, 0, 1, x_in)
            assert all(type(r) is float for r in post.reserves)
            assert outcome.reserves_after is post.reserves


# ---------------------------------------------------------------------------
# single quotes and trades against the sweep kernel, bit for bit


def _kernel_amount(state, i, o, x_in):
    return swap_kernel(state, i, o)(x_in)


def _kernel_slippage(state, i, o, x_in):
    x_out = swap_kernel(state, i, o)(x_in)
    return slippage_from_quote(x_in, x_out, spot_rate(state, i, o))


def _kernel_swap(state, i, o, x_in):
    """apply_swap through swap_kernel, spot_rate and the public PoolState
    constructor; a zero trade keeps the state."""
    kernel = swap_kernel(state, i, o)
    rate = spot_rate(state, i, o)
    if x_in == 0.0:
        return state.reserves, (i, o, 0.0, 0.0, state.reserves, rate, rate, 0.0), 0.0
    x_out = kernel(x_in)
    slip = slippage_from_quote(x_in, x_out, rate)
    reserves = list(state.reserves)
    reserves[i] += x_in
    reserves[o] -= x_out
    if reserves[o] <= 0.0:
        raise ReserveDepletion(f"trade would empty the output reserve ({reserves})")
    post = PoolState(
        reserves=tuple(reserves),
        spec=state.spec,
        invariant=state.invariant,
        oracle_price=state.oracle_price,
        share_supply=state.share_supply,
    )
    outcome = (i, o, x_in, x_out, post.reserves, rate, x_in / x_out, slip)
    return post.reserves, outcome, _reference_deviation(post)


def _quote_cases(seed):
    """(pool, i, o, x_in, trade kind): weighted and stableswap pools of 2 to
    4 assets and PMM pools in both orientations, at scales up to the float
    range's edge; forward, reverse, zero, exhausting, non-finite and
    overflowing trades; and bad asset pairs."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < 2400:
        family = rng.choice(("weighted", "stableswap", "stableswap", "pmm"))
        # stableswap pools past about 1e100 do not build: D*(D/n)^n overflows
        scale = 10.0 ** rng.uniform(-100.0, 100.0 if family == "stableswap" else 300.0)
        try:
            if family == "pmm":
                n = 2
                t1, t2 = (scale * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2))
                price = t1 / t2 * 10.0 ** rng.uniform(-1.0, 1.0)
                pool = pmm_pool(t1, t2, price, rng.uniform(0.01, 1.0))
            else:
                n = rng.randint(2, 4)
                reserves = [scale * 10.0 ** rng.uniform(0.0, 3.0) for _ in range(n)]
                if family == "weighted":
                    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
                    pool = weighted_pool(reserves, [w / math.fsum(raw) for w in raw])
                else:
                    pool = stableswap_pool(reserves, 10.0 ** rng.uniform(-3.0, 6.0))
        except (AmmError, ValueError):
            continue
        i, o = rng.sample(range(n), 2)
        r_i = pool.reserves[i]
        kind = rng.choice(
            ("forward", "reverse", "zero", "exhausting", "non-finite", "overflowing", "bad pair")
        )
        x_in = {
            "forward": r_i * 10.0 ** rng.uniform(-12.0, 2.0),
            "reverse": -r_i * rng.uniform(1e-9, 0.999),
            "zero": rng.choice((0.0, -0.0)),
            "exhausting": -r_i * rng.choice((1.0, 1.5, 1e10)),
            "non-finite": rng.choice((math.nan, math.inf, -math.inf)),
            "overflowing": rng.choice((1.7e308, r_i * 10.0 ** rng.uniform(1.0, 300.0))),
            "bad pair": r_i * 0.01,
        }[kind]
        if kind == "bad pair":
            i, o = rng.choice(((-1, o), (n, o), (i, -1), (i, n), (i, i)))
        cases.append((pool, i, o, x_in, kind))
    return cases


class TestSingleQuotes:
    """swap_amount, slippage and apply_swap call each curve's output method
    directly; they must equal the swap_kernel(state, i, o)(x_in) path bit
    for bit, or raise the same error class with the same message."""

    def test_match_the_kernel_path(self):
        cases = _quote_cases("core/single-quotes")
        outcomes = Counter()
        for pool, i, o, x_in, kind in cases:
            family = pool.spec.family.value
            for direct, via_kernel in (
                (swap_amount, _kernel_amount),
                (slippage, _kernel_slippage),
                (_swap_result, _kernel_swap),
            ):
                got = _settled(direct, pool, i, o, x_in)
                assert got == _settled(via_kernel, pool, i, o, x_in), (pool, i, o, x_in)
            outcomes[family, kind, got[0].__name__ if isinstance(got[0], type) else "ok"] += 1
        for family in ("weighted", "stableswap", "pmm"):
            for kind in ("forward", "reverse", "zero"):
                assert outcomes[family, kind, "ok"] >= 50
            assert outcomes[family, "exhausting", "ReserveDepletion"] >= 50
            assert outcomes[family, "non-finite", "DomainError"] >= 50
            assert outcomes[family, "bad pair", "AssetIndexError"] >= 30
            assert outcomes[family, "bad pair", "IdenticalAssets"] >= 10
            refused = sum(
                count for (f, k, name), count in outcomes.items()
                if (f, k) == (family, "overflowing") and name != "ok"
            )
            assert refused >= 50
        sizes = Counter((pool.spec.family, pool.n_assets) for pool, *_ in cases)
        for n in (2, 3, 4):
            assert sizes[ProtocolFamily.WEIGHTED, n] >= 100
            assert sizes[ProtocolFamily.STABLESWAP, n] >= 100
        orientations = Counter(
            (i, o) for pool, i, o, _, kind in cases
            if pool.spec.family is ProtocolFamily.PMM and kind != "bad pair"
        )
        assert orientations[0, 1] >= 100 and orientations[1, 0] >= 100

    def test_one_comparison_guards_match_the_per_rule_checks(self):
        def indices(n, i, o):
            quote.check_index(n, i)
            quote.check_index(n, o)

        def assets(n, i, o):
            indices(n, i, o)
            if i == o:
                raise IdenticalAssets("swap needs distinct input and output assets")

        for n in (2, 3, 4):
            pool = weighted_pool((100.0,) * n, (1.0 / n,) * n)
            for i in range(-2, n + 2):
                for o in range(-2, n + 2):
                    refusal = _settled(assets, n, i, o)
                    assert _settled(quote.check_assets, n, i, o) == refusal
                    if refusal is not None:
                        for call in (swap_amount, slippage, apply_swap):
                            assert _settled(call, pool, i, o, 1.0) == refusal
                    rate, refusal = _settled(spot_rate, pool, i, o), _settled(indices, n, i, o)
                    assert rate == refusal if refusal is not None else isinstance(rate, str)

        values = (1.0, 5e-324, 1.7e308, 0.0, -0.0, -1.0, math.inf, -math.inf, math.nan)
        for a in values:
            for b in values:
                reserves = (a, 2.0, b)

                def each_value():
                    for r in (a, b):
                        quote.check_reserves((r,))

                want = _settled(each_value)
                if want is not None:
                    want = (DomainError, f"reserves must be finite and positive, got {reserves}")
                assert _settled(quote.check_reserves, reserves, (a, b)) == want


class TestPublicNames:
    def test_all_holds_each_imported_name_and_no_submodule(self):
        # __all__ is derived from the package's imports
        import ammlab

        assert len(ammlab.__all__) == len(set(ammlab.__all__)) == 65
        for name in ammlab.__all__:
            assert not isinstance(getattr(ammlab, name), types.ModuleType), name
        namespace = {}
        exec("from ammlab import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(ammlab.__all__)

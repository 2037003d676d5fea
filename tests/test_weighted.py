"""Tests for weighted constant-mean pool mechanics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammlab import (
    DomainError,
    ImplicitConservation,
    InfeasibleTrade,
    ReserveDepletion,
    implicit_swap,
    weighted_pool,
)
from ammlab.weighted import (
    weighted_conservation,
    weighted_divergence_loss,
    weighted_rebalanced_reserves,
    weighted_slippage,
    weighted_spot_rate,
    weighted_swap,
)

HALF = (0.5, 0.5)

reserve_values = st.floats(min_value=1.0, max_value=1e6)
trade_fractions = st.floats(min_value=0.01, max_value=0.5)


class TestParams:
    def test_accepts_unit_sum(self):
        pool = weighted_pool((100.0, 100.0, 100.0), (0.2, 0.3, 0.5))
        assert pool.spec.weights == (0.2, 0.3, 0.5)

    def test_rejects_non_unit_sum(self):
        with pytest.raises(ValueError):
            weighted_pool((100.0, 100.0), (0.6, 0.6))

    def test_rejects_boundary_weights(self):
        with pytest.raises(ValueError):
            weighted_pool((100.0,), (1.0,))
        with pytest.raises(ValueError):
            weighted_pool((100.0, 100.0), (0.0, 1.0))

    def test_rejects_single_asset(self):
        with pytest.raises(ValueError):
            weighted_pool((100.0,), (0.5,))


class TestConservation:
    def test_balanced_pool(self):
        assert weighted_conservation((100.0, 100.0), HALF) == 100.0

    def test_rebalanced_pool_keeps_value(self):
        value = weighted_conservation((110.0, 100.0 / 1.1), HALF)
        assert math.isclose(value, 100.0, rel_tol=1e-9)

    def test_preserved_across_swap(self):
        reserves = (100.0, 250.0)
        weights = (0.3, 0.7)
        before = weighted_conservation(reserves, weights)
        out = weighted_swap(reserves, weights, 0, 1, 17.0)
        after = weighted_conservation((117.0, 250.0 - out), weights)
        assert math.isclose(after, before, rel_tol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_conservation((100.0, 100.0, 100.0), HALF)


class TestSpotRate:
    def test_same_asset_is_one(self):
        assert weighted_spot_rate((100.0, 50.0), HALF, 1, 1) == 1.0

    def test_weight_ratio(self):
        assert weighted_spot_rate((100.0, 100.0), (0.8, 0.2), 0, 1) == 0.25
        assert weighted_spot_rate((100.0, 100.0), (0.8, 0.2), 1, 0) == 4.0

    def test_reserve_ratio(self):
        assert weighted_spot_rate((300.0, 100.0), HALF, 0, 1) == 3.0

    def test_increases_after_buying_the_output_asset(self):
        reserves = (100.0, 100.0)
        weights = (0.6, 0.4)
        before = weighted_spot_rate(reserves, weights, 0, 1)
        out = weighted_swap(reserves, weights, 0, 1, 25.0)
        after = weighted_spot_rate((125.0, 100.0 - out), weights, 0, 1)
        assert after > before


class TestSwap:
    def test_balanced_constant_product(self):
        out = weighted_swap((100.0, 100.0), HALF, 0, 1, 10.0)
        assert math.isclose(out, 100.0 / 11.0, rel_tol=1e-12)

    def test_asymmetric_weights(self):
        out = weighted_swap((100.0, 100.0), (0.8, 0.2), 0, 1, 10.0)
        assert math.isclose(out, 31.698654463492931, rel_tol=1e-12)

    def test_zero_input(self):
        assert weighted_swap((100.0, 100.0), HALF, 0, 1, 0.0) == 0.0

    def test_draining_input_reserve_rejected(self):
        with pytest.raises(ReserveDepletion):
            weighted_swap((100.0, 100.0), HALF, 0, 1, -100.0)

    def test_matches_implicit_solve(self):
        weights = (0.25, 0.45, 0.3)
        reserves = (120.0, 5000.0, 33.0)

        def evaluate(r, invariant):
            return weighted_conservation(r, weights) - invariant[0]

        curve = ImplicitConservation(evaluate=evaluate, n=3)
        invariant = (weighted_conservation(reserves, weights),)
        closed = weighted_swap(reserves, weights, 0, 2, 40.0)
        numeric = implicit_swap(curve, reserves, invariant, 0, 2, 40.0)
        assert math.isclose(closed, numeric, rel_tol=1e-9)


class TestSlippage:
    def test_asymmetric_weights(self):
        value = weighted_slippage((100.0, 100.0), (0.8, 0.2), 0, 1, 10.0)
        assert math.isclose(value, 0.26188321482439129, rel_tol=1e-12)

    def test_zero_input(self):
        assert weighted_slippage((100.0, 100.0), HALF, 0, 1, 0.0) == 0.0

    def test_vanishing_output_rejected(self):
        with pytest.raises(InfeasibleTrade):
            weighted_slippage((100.0, 100.0), HALF, 0, 1, 1e-300)

    def test_strictly_increasing_in_trade_size(self):
        values = [
            weighted_slippage((100.0, 100.0), (0.3, 0.7), 0, 1, x)
            for x in (1.0, 5.0, 10.0, 25.0, 50.0, 90.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestDivergenceLoss:
    def test_desk_values(self):
        assert math.isclose(
            weighted_divergence_loss(HALF, 1, -0.5),
            math.sqrt(0.5) / 0.75 - 1.0,
            rel_tol=1e-9,
        )
        assert math.isclose(
            weighted_divergence_loss(HALF, 1, 0.21), -1.0 / 221.0, rel_tol=1e-9
        )
        assert math.isclose(
            weighted_divergence_loss((0.2, 0.8), 1, 1.0),
            2.0**0.8 / 1.8 - 1.0,
            rel_tol=1e-9,
        )
        assert math.isclose(
            weighted_divergence_loss((0.8, 0.2), 1, 1.0),
            2.0**0.2 / 1.2 - 1.0,
            rel_tol=1e-9,
        )

    def test_zero_shift_is_lossless(self):
        assert weighted_divergence_loss((0.3, 0.7), 1, 0.0) == 0.0

    def test_never_positive_on_grid(self):
        shifts = [-0.99 + k * (10.0 + 0.99) / 99 for k in range(100)]
        for tenths in range(1, 10):
            w_o = tenths / 10.0
            weights = (1.0 - w_o, w_o)
            for rho in shifts:
                assert weighted_divergence_loss(weights, 1, rho) <= 0.0

    def test_shift_at_or_below_minus_one_rejected(self):
        with pytest.raises(DomainError):
            weighted_divergence_loss(HALF, 1, -1.0)

    def test_unknown_asset_rejected(self):
        with pytest.raises(IndexError):
            weighted_divergence_loss(HALF, 2, 0.5)


class TestRebalancedReserves:
    def test_constant_product_shift(self):
        got = weighted_rebalanced_reserves((100.0, 100.0), HALF, 1, 0.21)
        assert math.isclose(got[0], 110.0, rel_tol=1e-12)
        assert math.isclose(got[1], 100.0 / 1.1, rel_tol=1e-12)

    def test_keeps_conservation_and_scales_rates(self):
        weights = (0.2, 0.3, 0.5)
        reserves = (100.0, 200.0, 50.0)
        rho = 0.75
        got = weighted_rebalanced_reserves(reserves, weights, 2, rho)
        assert math.isclose(
            weighted_conservation(got, weights),
            weighted_conservation(reserves, weights),
            rel_tol=1e-12,
        )
        for j in (0, 1):
            before = weighted_spot_rate(reserves, weights, j, 2)
            after = weighted_spot_rate(got, weights, j, 2)
            assert math.isclose(after / before, 1.0 + rho, rel_tol=1e-12)


class TestUniswapReduction:
    """Equal weights must reproduce the constant-product closed forms."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(r1=reserve_values, r2=reserve_values, fraction=trade_fractions)
    def test_swap(self, r1, r2, fraction):
        x = fraction * r1
        got = weighted_swap((r1, r2), HALF, 0, 1, x)
        want = r2 * x / (r1 + x)
        assert math.isclose(got, want, rel_tol=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(r1=reserve_values, r2=reserve_values, fraction=trade_fractions)
    def test_slippage(self, r1, r2, fraction):
        x = fraction * r1
        got = weighted_slippage((r1, r2), HALF, 0, 1, x)
        assert math.isclose(got, x / r1, rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rho=st.floats(min_value=-0.9, max_value=4.0))
    def test_divergence_loss(self, rho):
        got = weighted_divergence_loss(HALF, 1, rho)
        want = math.sqrt(1.0 + rho) / (1.0 + rho / 2.0) - 1.0
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)

"""Tests for amplified stableswap pool mechanics."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ammlab import (
    IdenticalAssets,
    ImplicitConservation,
    InvalidBracket,
    ReserveDepletion,
    implicit_swap,
)
from ammlab.stableswap import (
    StableSwapParams,
    conservation_residual,
    defining_residual,
    invariant_drift,
    solve_invariant,
    stableswap_slippage,
    stableswap_spot_rate,
    stableswap_swap,
)

AMPLIFICATION_LADDER = (0.01, 0.1, 1.0, 10.0, 100.0)

# base-10 exponents: reserves 1e-3..1e6, amplification 1e-2..1e4
log_reserves = st.lists(st.floats(min_value=-3.0, max_value=6.0), min_size=2, max_size=4)
log_amplification = st.floats(min_value=-2.0, max_value=4.0)


class TestParams:
    def test_accepts_positive_amplification(self):
        assert StableSwapParams(10.0).amplification == 10.0

    def test_rejects_nonpositive_amplification(self):
        with pytest.raises(ValueError):
            StableSwapParams(0.0)
        with pytest.raises(ValueError):
            StableSwapParams(-1.0)

    def test_rejects_non_finite_amplification(self):
        with pytest.raises(ValueError):
            StableSwapParams(math.inf)

    def test_rejects_single_asset(self):
        with pytest.raises(ValueError):
            StableSwapParams(10.0, n=1)


class TestSolveInvariant:
    def test_balanced_pool_is_exact(self):
        assert solve_invariant((100.0, 100.0), 10.0) == 200.0
        assert solve_invariant((100.0, 100.0, 100.0), 10.0) == 300.0

    def test_imbalanced_pool(self):
        assert math.isclose(
            solve_invariant((50.0, 150.0), 10.0), 194.83104421110132, rel_tol=1e-13
        )

    def test_high_amplification_approaches_constant_sum(self):
        d = solve_invariant((50.0, 150.0), 1e8)
        assert math.isclose(d, 199.99999933333335, rel_tol=1e-13)
        assert math.isclose(d, 200.0, rel_tol=1e-4)

    def test_low_amplification_approaches_constant_product(self):
        d = solve_invariant((50.0, 150.0), 1e-8)
        assert math.isclose(d, 173.20508089086232, rel_tol=1e-13)
        assert math.isclose(d, 2.0 * math.sqrt(7500.0), rel_tol=1e-8)

    def test_defining_equation_residual_is_tiny(self):
        for amp in (1e-8, 0.01, 1.0, 10.0, 100.0, 1e8):
            for reserves in ((50.0, 150.0), (3.0, 40_000.0), (7.0, 8.0, 9.0)):
                d = solve_invariant(reserves, amp)
                assert conservation_residual(reserves, d, amp) <= 1e-12
                # the raw residual's terms are O(amplification), so "tiny"
                # scales with the amplification itself
                assert abs(defining_residual(reserves, d, amp)) <= 1e-12 * max(1.0, amp)

    def test_scale_equivariance(self):
        base = solve_invariant((50.0, 150.0), 10.0)
        for c in (0.001, 7.0, 1e3):
            scaled = solve_invariant((50.0 * c, 150.0 * c), 10.0)
            assert math.isclose(scaled, c * base, rel_tol=1e-9)

    def test_rejects_nonpositive_reserves(self):
        with pytest.raises(ValueError):
            solve_invariant((0.0, 100.0), 10.0)

    @pytest.mark.xfail(
        raises=InvalidBracket,
        strict=True,
        reason="known defect: when n*(prod r)^(1/n) and sum r round to the same "
        "double, the bracket collapses and the solve raises",
    )
    def test_near_balanced_pool_is_solved(self):
        reserves = (1.0, 10.0**1e-9)
        d = solve_invariant(reserves, 10.0**0.0078125)
        assert math.isclose(d, math.fsum(reserves), rel_tol=1e-15)


def _bracket_is_open(reserves) -> bool:
    """Whether solve_invariant's AM-GM bracket has distinct endpoints, or
    the pool is exactly balanced and needs no bracket."""
    n = len(reserves)
    geo = n * math.prod(reserves) ** (1.0 / n)
    return min(reserves) == max(reserves) or geo < math.fsum(reserves)


class TestInvariantDrift:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        exponents=log_reserves,
        amp_exponent=log_amplification,
        trade_exponent=st.floats(min_value=-6.0, max_value=math.log10(3.0)),
        data=st.data(),
    )
    def test_matches_re_solved_invariant_after_a_swap(
        self, exponents, amp_exponent, trade_exponent, data
    ):
        reserves = tuple(10.0**e for e in exponents)
        amp = 10.0**amp_exponent
        i, o = data.draw(st.permutations(range(len(reserves))))[:2]
        x_in = reserves[i] * 10.0**trade_exponent
        # the re-solve oracle cannot bracket pools this near balance (see
        # test_near_balanced_pool_is_solved)
        assume(_bracket_is_open(reserves))
        d = solve_invariant(reserves, amp)
        post = list(reserves)
        post[i] += x_in
        post[o] -= stableswap_swap(reserves, d, amp, i, o, x_in)
        assume(_bracket_is_open(post))
        re_solved = abs(solve_invariant(post, amp) - d) / d
        assert abs(invariant_drift(post, d, amp) - re_solved) <= 1e-14

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        exponents=log_reserves,
        amp_exponent=log_amplification,
        delta_exponent=st.floats(min_value=-10.0, max_value=-6.0),
    )
    def test_reports_a_perturbed_invariant(self, exponents, amp_exponent, delta_exponent):
        reserves = tuple(10.0**e for e in exponents)
        amp = 10.0**amp_exponent
        delta = 10.0**delta_exponent
        assume(_bracket_is_open(reserves))
        d = solve_invariant(reserves, amp)
        drift = invariant_drift(reserves, d * (1.0 + delta), amp)
        assert math.isclose(drift, delta / (1.0 + delta), rel_tol=1e-2)

    def test_zero_drift_on_a_balanced_pool(self):
        assert invariant_drift((100.0, 100.0), 200.0, 10.0) == 0.0


class TestSpotRate:
    def test_same_asset_is_one(self):
        d = solve_invariant((50.0, 150.0), 10.0)
        assert stableswap_spot_rate((50.0, 150.0), d, 10.0, 1, 1) == 1.0

    def test_balanced_pool_is_one(self):
        assert stableswap_spot_rate((100.0, 100.0), 200.0, 10.0, 0, 1) == 1.0

    def test_low_amplification_matches_reserve_ratio(self):
        d = solve_invariant((50.0, 150.0), 1e-8)
        rate = stableswap_spot_rate((50.0, 150.0), d, 1e-8, 0, 1)
        assert math.isclose(rate, 0.33333333525783422, rel_tol=1e-12)
        assert abs(rate - 1.0 / 3.0) <= 1e-6

    def test_high_amplification_pins_rate_to_one(self):
        d = solve_invariant((50.0, 150.0), 1e8)
        rate = stableswap_spot_rate((50.0, 150.0), d, 1e8, 0, 1)
        assert math.isclose(rate, 0.99999996444444670, rel_tol=1e-12)
        assert abs(rate - 1.0) <= 1e-6


class TestSwap:
    def test_frozen_outputs_across_amplifications(self):
        want = {
            1e-8: 9.0909090950413223,
            1.0: 9.3743903641320998,
            10.0: 9.8349583687112751,
            1e8: 9.9999999797979803,
        }
        for amp, expected in want.items():
            d = solve_invariant((100.0, 100.0), amp)
            out = stableswap_swap((100.0, 100.0), d, amp, 0, 1, 10.0)
            assert math.isclose(out, expected, rel_tol=1e-12)

    def test_limits_bracket_constant_sum_and_product(self):
        d_hi = solve_invariant((100.0, 100.0), 1e8)
        assert abs(stableswap_swap((100.0, 100.0), d_hi, 1e8, 0, 1, 10.0) - 10.0) <= 1e-3
        d_lo = solve_invariant((100.0, 100.0), 1e-8)
        out = stableswap_swap((100.0, 100.0), d_lo, 1e-8, 0, 1, 10.0)
        assert abs(out - 100.0 / 11.0) <= 1e-4

    def test_zero_input(self):
        assert stableswap_swap((100.0, 100.0), 200.0, 10.0, 0, 1, 0.0) == 0.0

    def test_identical_assets_rejected(self):
        with pytest.raises(IdenticalAssets):
            stableswap_swap((100.0, 100.0), 200.0, 10.0, 1, 1, 5.0)

    def test_draining_input_reserve_rejected(self):
        with pytest.raises(ReserveDepletion):
            stableswap_swap((100.0, 100.0), 200.0, 10.0, 0, 1, -100.0)

    def test_post_reserves_stay_on_curve(self):
        reserves = (80.0, 320.0)
        for amp in AMPLIFICATION_LADDER:
            d = solve_invariant(reserves, amp)
            out = stableswap_swap(reserves, d, amp, 0, 1, 40.0)
            assert conservation_residual((120.0, 320.0 - out), d, amp) <= 1e-9

    def test_matches_implicit_solve(self):
        reserves = (80.0, 320.0)
        for amp in AMPLIFICATION_LADDER:
            d = solve_invariant(reserves, amp)
            curve = ImplicitConservation(
                evaluate=lambda r, inv, a=amp: defining_residual(r, inv[0], a), n=2
            )
            closed = stableswap_swap(reserves, d, amp, 0, 1, 40.0)
            numeric = implicit_swap(curve, reserves, (d,), 0, 1, 40.0)
            assert math.isclose(closed, numeric, rel_tol=1e-9)

    def test_three_asset_swap_preserves_curve(self):
        reserves = (100.0, 200.0, 300.0)
        amp = 5.0
        d = solve_invariant(reserves, amp)
        out = stableswap_swap(reserves, d, amp, 0, 2, 50.0)
        post = (150.0, 200.0, 300.0 - out)
        assert conservation_residual(post, d, amp) <= 1e-9
        curve = ImplicitConservation(
            evaluate=lambda r, inv: defining_residual(r, inv[0], amp), n=3
        )
        numeric = implicit_swap(curve, reserves, (d,), 0, 2, 50.0)
        assert math.isclose(out, numeric, rel_tol=1e-9)


class TestSlippage:
    def test_matches_rate_composition(self):
        reserves = (80.0, 320.0)
        amp = 10.0
        d = solve_invariant(reserves, amp)
        out = stableswap_swap(reserves, d, amp, 0, 1, 40.0)
        rate = stableswap_spot_rate(reserves, d, amp, 0, 1)
        composed = (40.0 / out) / rate - 1.0
        got = stableswap_slippage(reserves, d, amp, 0, 1, 40.0)
        assert math.isclose(got, composed, rel_tol=1e-12)

    def test_high_amplification_kills_slippage(self):
        d = solve_invariant((100.0, 100.0), 1e8)
        assert stableswap_slippage((100.0, 100.0), d, 1e8, 0, 1, 10.0) <= 1e-3

    def test_low_amplification_matches_constant_product(self):
        d = solve_invariant((100.0, 100.0), 1e-8)
        got = stableswap_slippage((100.0, 100.0), d, 1e-8, 0, 1, 10.0)
        assert abs(got - 0.1) <= 1e-4

    def test_strictly_decreasing_in_amplification(self):
        values = []
        for amp in AMPLIFICATION_LADDER:
            d = solve_invariant((100.0, 100.0), amp)
            values.append(stableswap_slippage((100.0, 100.0), d, amp, 0, 1, 10.0))
        assert all(a > b for a, b in zip(values, values[1:]))

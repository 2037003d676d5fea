"""Tests for amplified stableswap pool mechanics."""

from __future__ import annotations

import inspect
import math
import random
import re
import traceback
from collections import Counter
from fractions import Fraction
from itertools import permutations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammlab import (
    AmmError,
    ConservationViolation,
    ConvergenceFailure,
    DomainError,
    IdenticalAssets,
    ImplicitConservation,
    NoSolution,
    PoolState,
    ProtocolFamily,
    ProtocolSpec,
    ReserveDepletion,
    apply_swap,
    generic_divergence_loss,
    implicit_swap,
    slippage,
    spot_rate,
    stableswap_pool,
    swap_amount,
)
from ammlab import analysis, stableswap
from ammlab.analysis import default_shift_grid, divergence_curve
from ammlab.stableswap import (
    conservation_residual,
    defining_residual,
    solve_invariant,
    stableswap_divergence_loss,
    stableswap_slippage,
    stableswap_spot_rate,
    stableswap_swap,
)
from ammlab.weighted import weighted_divergence_loss

import stableswap_reference as reference

AMPLIFICATION_LADDER = (0.01, 0.1, 1.0, 10.0, 100.0)


def _log_uniform(lo_exponent: float, hi_exponent: float):
    return st.floats(min_value=lo_exponent, max_value=hi_exponent).map(lambda x: 10.0**x)


def implicit_curve(amp: float, n: int) -> ImplicitConservation:
    return ImplicitConservation(
        evaluate=lambda r, inv: defining_residual(r, inv[0], amp), n=n
    )


# base-10 exponents: reserves 1e-3..1e6, amplification 1e-2..1e4
log_reserves = st.lists(st.floats(min_value=-3.0, max_value=6.0), min_size=2, max_size=4)
log_amplification = st.floats(min_value=-2.0, max_value=4.0)


def drift(reserves, d: float, amp: float) -> float:
    """The relative distance from d to the reserves' invariant, to first
    order: conservation_check's second value, a pool's receipt."""
    q, dq, _ = stableswap.curve_constants(d, amp, len(reserves))
    return stableswap.conservation_check(reserves, d, amp, q, dq)[1]


class TestParams:
    def test_accepts_positive_amplification(self):
        assert stableswap_pool((100.0, 100.0), 10.0).spec.amplification == 10.0

    def test_rejects_nonpositive_amplification(self):
        with pytest.raises(ValueError):
            stableswap_pool((100.0, 100.0), 0.0)
        with pytest.raises(ValueError):
            solve_invariant((100.0, 100.0), -1.0)

    def test_rejects_non_finite_amplification(self):
        with pytest.raises(ValueError):
            solve_invariant((100.0, 100.0), math.inf)

    def test_rejects_single_asset(self):
        with pytest.raises(ValueError):
            solve_invariant((100.0,), 10.0)


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

    def test_near_balanced_pool_is_solved(self):
        # n*(prod r)^(1/n) and sum r round to the same double here
        reserves = (1.0, 10.0**1e-9)
        d = solve_invariant(reserves, 10.0**0.0078125)
        assert math.isclose(d, math.fsum(reserves), rel_tol=1e-15)


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
        d = solve_invariant(reserves, amp)
        post = list(reserves)
        post[i] += x_in
        post[o] -= stableswap_swap(reserves, d, amp, i, o, x_in)
        re_solved = abs(solve_invariant(post, amp) - d) / d
        assert abs(drift(post, d, amp) - re_solved) <= 1e-14

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
        d = solve_invariant(reserves, amp)
        got = drift(reserves, d * (1.0 + delta), amp)
        assert math.isclose(got, delta / (1.0 + delta), rel_tol=1e-2)

    def test_zero_drift_on_a_balanced_pool(self):
        assert drift((100.0, 100.0), 200.0, 10.0) == 0.0


class TestConservationCheck:
    @staticmethod
    def _exact(reserves, d: float, amp: float):
        """(residual, drift, the sum of g's terms, |g'(D)|) of
        conservation_check, in exact rational arithmetic on the same floats."""
        n, r, D, A = len(reserves), [Fraction(x) for x in reserves], Fraction(d), Fraction(amp)
        power = D ** (n + 1) / (n**n * math.prod(r))
        g = A * sum(r) + D - A * D - power
        slope = abs(1 - A - (n + 1) * power / D)
        size = A * sum(r) + D + A * D + power
        return abs(g) / size, abs(g) / (D * slope), size, slope

    def _pools(self):
        # 2-4 assets, reserves 1e-6..1e9 and A 1e-3..1e8, on the curve and
        # off it by up to 1e-6 in D; then a pool whose terms sum past the
        # largest float, on the curve and off it by 1e-3
        rng = random.Random("stableswap/conservation-check")
        for _ in range(3_000):
            reserves = tuple(10.0 ** rng.uniform(-6.0, 9.0) for _ in range(rng.randint(2, 4)))
            amp = 10.0 ** rng.uniform(-3.0, 8.0)
            delta = rng.choice((0.0, rng.uniform(-1e-6, 1e-6)))
            yield reserves, solve_invariant(reserves, amp) * (1.0 + delta), amp
        yield (1e100, 1e100), 2e100, 5e207
        yield (1e100, 1e100), 1.998e100, 5e207

    def test_matches_the_exact_residual_and_drift(self):
        eps = Fraction(2.0**-52)
        for reserves, d, amp in self._pools():
            q, dq, _ = stableswap.curve_constants(d, amp, len(reserves))
            residual, receipt = stableswap.conservation_check(reserves, d, amp, q, dq)
            exact, exact_drift, size, slope = self._exact(reserves, d, amp)
            assert abs(Fraction(residual) - exact) <= 2 * eps, (reserves, d, amp)
            bound = 2 * eps * size / (Fraction(d) * slope)
            assert abs(Fraction(receipt) - exact_drift) <= bound, (reserves, d, amp)

    def test_a_state_whose_terms_sum_past_the_float_range_is_refused(self):
        # A*sum(r) + A*D overflows, every term and g(D) do not: the residual
        # read 0.0, and the pool built, off the curve by 1e-3 in D
        with pytest.raises(ConservationViolation, match=r"relative deviation 5\.003e-04"):
            PoolState(reserves=(1e100, 1e100), invariant=(1.998e100,), spec=ProtocolSpec(
                ProtocolFamily.STABLESWAP, amplification=5e207))
        assert stableswap_pool((1e100, 1e100), 5e207).invariant == (2e100,)

    def test_the_residual_refuses_an_infinite_last_term(self):
        # D*(D/n)^n overflows to inf without raising: the residual would be NaN
        with pytest.raises(DomainError) as info:
            conservation_residual((1e150, 1e150), 1.5e150, 10.0)
        assert str(info.value) == (
            "the invariant equation leaves the floating-point range at D=1.5e+150 "
            "for reserves (1e+150, 1e+150)"
        )


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        exponents=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=3),
        amp=_log_uniform(-3.0, 8.0),
        data=st.data(),
    )
    def test_power_of_two_scaling_keeps_the_rate_bit_for_bit(self, exponents, amp, data):
        # the rate is homogeneous of degree 0; beyond the scale where its
        # products of order r^(n+2) overflow it is evaluated in scaled units
        reserves = tuple(10.0**e for e in exponents)
        n = len(reserves)
        d = solve_invariant(reserves, amp)
        # D < 2^12 here, so D^(n+1) stays finite; below, no product of order
        # r^(n+2) may underflow
        k = data.draw(st.integers(-(1000 // (n + 2)) + 12, 1000 // (n + 1) - 12))
        scaled = tuple(math.ldexp(r, k) for r in reserves)
        i, o = data.draw(st.permutations(range(n)))[:2]
        got = stableswap_spot_rate(scaled, math.ldexp(d, k), amp, i, o)
        assert got.hex() == stableswap_spot_rate(reserves, d, amp, i, o).hex()

    @pytest.mark.parametrize("exponent", [77, 90, 102])
    @pytest.mark.parametrize("amp", [1.0, 10.0, 1000.0])
    def test_pools_up_to_the_float_range_have_finite_rates(self, exponent, amp):
        # balanced 2-asset pools from 1e77 to 1e102 build, but their rate's
        # products overflow
        r = 10.0**exponent
        pool = stableswap_pool((r, r), amp)
        assert spot_rate(pool, 0, 1) == 1.0
        assert math.isfinite(slippage(pool, 0, 1, 0.01 * r))
        _, outcome, receipt = apply_swap(pool, 0, 1, 0.01 * r)
        assert outcome.spot_rate_before == 1.0
        assert receipt.passed
        unbalanced = stableswap_pool((r, 1.3 * r), amp)
        want = spot_rate(stableswap_pool((1.0, 1.3), amp), 0, 1)
        assert math.isclose(spot_rate(unbalanced, 0, 1), want, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "reserves, amp",
        [
            ((1e100, 1.3e100), 10.0),  # both products overflow: NaN
            ((1.0841883749415982e41, 4.717810299113501e90), 145.14135431241363),  # 0 and inf
            # the denominator underflows: ZeroDivisionError
            ((3.856628684885056e-58, 9.18688017093514e-101, 1.516623333219833e-70), 0.0625),
        ],
    )
    def test_rates_beyond_the_float_range_of_their_products(self, reserves, amp):
        d = solve_invariant(reserves, amp)
        n = len(reserves)
        dq = d * (d / n) ** n
        exact = [Fraction(r) for r in reserves]
        a_prod = Fraction(amp) * math.prod(exact)
        for i, o in permutations(range(n), 2):
            want = exact[i] * (a_prod * exact[o] + Fraction(dq)) / (
                exact[o] * (a_prod * exact[i] + Fraction(dq))
            )
            got = stableswap_spot_rate(reserves, d, amp, i, o)
            assert abs(Fraction(got) / want - 1) <= 1e-15

    def test_rate_out_of_range_at_unit_scale_raises(self):
        # the largest reserve is already in [0.5, 1), and every product
        # underflows to zero
        with pytest.raises(DomainError, match="products leave the floating-point range"):
            stableswap_spot_rate((0.75, 1e-200, 1e-200), 1e-100, 10.0, 0, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: stableswap_spot_rate((1e200, 1e200), 2e200, 10.0, 0, 1),
            lambda: stableswap_swap((1e200, 1e200), 2e200, 10.0, 0, 1, 1.0),
            lambda: stableswap.curve_constants(2e200, 10.0, 2),
        ],
        ids=["spot_rate", "swap", "curve_constants"],
    )
    def test_invariant_beyond_the_float_range_raises_domain_error(self, call):
        # (D/n)^n overflows once D/n passes ~1e154; pools that build never
        # get there, but a caller passing D directly does
        with pytest.raises(DomainError, match=r"\(D/n\)\^n leaves the floating-point range"):
            call()


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


class TestDivergenceLoss:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        imbalance=st.lists(
            st.floats(min_value=0.0, max_value=math.log10(6.0)), min_size=2, max_size=4
        ),
        amp_exponent=st.floats(min_value=-2.0, max_value=5.0),
        rho=st.floats(min_value=-0.9, max_value=4.0, exclude_min=True),
        data=st.data(),
    )
    def test_matches_generic_rebalance(self, imbalance, amp_exponent, rho, data):
        reserves = tuple(100.0 * 10.0**e for e in imbalance)
        amp = 10.0**amp_exponent
        o = data.draw(st.integers(min_value=1, max_value=len(reserves) - 1))
        d = solve_invariant(reserves, amp)
        generic = generic_divergence_loss(implicit_curve(amp, len(reserves)), reserves, (d,), o, rho)
        closed = stableswap_divergence_loss(reserves, d, amp, o, rho)
        assert abs((1.0 + closed) / (1.0 + generic.L) - 1.0) <= 1e-8

    def test_generic_engine_reaches_every_shift_at_high_amplification(self):
        # Z's A*eps rounding noise grows with A; the rebalance Jacobian takes
        # the spot rates' own difference step, so that the noise does not
        # swamp it and report reachable shifts as unattainable
        amp = 3000.0
        for reserves in (
            (100.0, 100.0),
            (100.0, 450.0),
            (100.0, 100.0, 100.0),
            (100.0, 300.0, 600.0),
        ):
            d = solve_invariant(reserves, amp)
            curve = implicit_curve(amp, len(reserves))
            for rho in default_shift_grid():
                generic = generic_divergence_loss(curve, reserves, (d,), 1, rho)
                closed = stableswap_divergence_loss(reserves, d, amp, 1, rho)
                assert abs((1.0 + closed) / (1.0 + generic.L) - 1.0) <= 1e-8

    @pytest.mark.parametrize(
        "reserves, amp",
        [((100.0, 100.0), 3e4), ((100.0, 100.0, 100.0), 3e4), ((1.0, 2.0, 3.0, 4.0), 3e4),
         ((100.0, 100.0, 100.0), 1e5), ((1.0, 2.0, 3.0, 4.0), 1e6)],
        ids=["100-100", "100-100-100", "1-2-3-4", "100-100-100-at-1e5", "1-2-3-4-at-1e6"],
    )
    def test_generic_engine_reaches_every_shift_at_amplification_3e4_and_beyond(self, reserves, amp):
        # from A = 3e4 the rate rows stay near flat until a reserve is nearly
        # drained: the first Newton steps are long, and the line search
        # halves them until the residual falls, with no cap on their length;
        # each rate row is the log of the rate ratio, so a collapsing rate
        # reads as a large residual rather than saturating at -1
        d = solve_invariant(reserves, amp)
        curve = implicit_curve(amp, len(reserves))
        for rho in default_shift_grid():
            generic = generic_divergence_loss(curve, reserves, (d,), 1, rho)
            closed = stableswap_divergence_loss(reserves, d, amp, 1, rho)
            assert abs((1.0 + closed) / (1.0 + generic.L) - 1.0) <= 1e-8, rho

    def test_generic_engine_recovers_from_a_step_that_drains_a_reserve(self):
        # at A = 3e4 a long Newton step can take r_0 of (100, 300, 600) to
        # about 1e-3, where asset 0's rate nearly collapses: a rate row of
        # ratio - 1 reads about -1 there and leaves the solve no direction,
        # while the log row still points back
        reserves, amp, rho = (100.0, 300.0, 600.0), 3e4, -0.8169491525423729
        d = solve_invariant(reserves, amp)
        generic = generic_divergence_loss(implicit_curve(amp, 3), reserves, (d,), 1, rho)
        closed = stableswap_divergence_loss(reserves, d, amp, 1, rho)
        assert abs((1.0 + closed) / (1.0 + generic.L) - 1.0) <= 1e-8

    def test_zero_shift_is_exactly_zero(self):
        for reserves in ((100.0, 100.0), (50.0, 150.0, 90.0)):
            for amp in AMPLIFICATION_LADDER:
                d = solve_invariant(reserves, amp)
                assert stableswap_divergence_loss(reserves, d, amp, 1, 0.0) == 0.0

    def test_low_amplification_matches_constant_product(self):
        amp = 1e-8
        for reserves in ((100.0, 100.0), (50.0, 150.0)):
            d = solve_invariant(reserves, amp)
            for rho in (-0.9, -0.5, 0.21, 1.0, 4.0):
                got = stableswap_divergence_loss(reserves, d, amp, 1, rho)
                assert abs(got - weighted_divergence_loss((0.5, 0.5), 1, rho)) <= 1e-6

    def test_high_amplification_reaches_the_constant_sum_limit(self):
        # holding 100 + 100 at the shifted price against a pool drained
        # into the cheaper asset: 200/150 - 1 and 200/250 - 1
        d = solve_invariant((100.0, 100.0), 1e8)
        got = [stableswap_divergence_loss((100.0, 100.0), d, 1e8, 1, rho) for rho in (-0.5, 0.5)]
        assert abs(got[0] - (-1.0 / 3.0)) <= 1e-3
        assert abs(got[1] - (-0.2)) <= 1e-3

    def test_unrepresentable_rebalance_raises(self):
        d = solve_invariant((100.0, 100.0), 1e8)
        with pytest.raises(NoSolution):
            stableswap_divergence_loss((100.0, 100.0), d, 1e8, 1, 1e300)

    # balanced and unbalanced 2-, 3- and 4-asset pools across the
    # amplifications of the divergence benchmark
    SOLVE_POOLS = [
        stableswap_pool(reserves, amp)
        for reserves in ((100.0, 100.0), (100.0, 450.0), (100.0,) * 3, (100.0, 300.0, 600.0),
                         (100.0,) * 4, (100.0, 250.0, 400.0, 550.0))
        for amp in (1.0, 10.0, 100.0, 1000.0)
    ]

    def test_the_solve_calls_no_root_finder(self):
        # the divergence root comes from the curve equation's own slope: no
        # find_root, and so no finite-difference derivative
        with patch.object(stableswap, "find_root", side_effect=AssertionError("find_root")):
            for pool in self.SOLVE_POOLS:
                series = divergence_curve(pool, 1)
                assert not series.failures
                assert all(math.isfinite(y) for y in series.y_values)

    def test_the_solve_takes_few_evaluations(self):
        # Newton from the unshifted root with the analytic slope: about 7.5
        # curve evaluations per point on the default grid, where the bracket
        # walk and find_root took 19. Counted on the loop reference, which
        # TestUnrolledResidual ties bit for bit to the unrolled forms
        evaluations = []
        solve = reference.shift_root

        def counted(residual, *args):
            def f(s):
                evaluations.append(s)
                return residual(s)
            return solve(f, *args)

        points = 0
        with patch.object(reference, "shift_root", counted):
            for pool in self.SOLVE_POOLS:
                kernel = analysis._divergence_kernel(pool, 1)
                for rho in default_shift_grid():
                    reference.divergence_loss_at(*kernel.args, rho)
                    points += 1
        assert points == 24 * len(default_shift_grid())
        assert len(evaluations) / points <= 8.5

    def test_every_pool_size_runs_its_unrolled_form(self):
        # one function per pool size, written out from the template for
        # that size, which the pool's swaps and divergence sweeps call
        swaps, points = set(), set()
        for n in range(2, 7):
            pool = stableswap_pool(tuple(100.0 * (k + 1) for k in range(n)), 10.0)
            swap, point = pool._curve.swap, analysis._divergence_kernel(pool, n - 1).func
            assert swap is stableswap._swap_output_for(n)
            assert point is stableswap._divergence_point_for(n)
            assert swap.__code__.co_filename == f"<ammlab.stableswap swap_output, {n} assets>"
            assert point.__code__.co_filename == (
                f"<ammlab.stableswap divergence_point, {n} assets>"
            )
            swaps.add(swap)
            points.add(point)
        assert len(swaps) == len(points) == 5

    @pytest.mark.parametrize(
        "reserves, amp, o, rho, error, reason",
        [
            # at such A the curve equation's two A-sized terms cancel to
            # rounding noise, so Newton and bisection never settle: each form
            # runs out of iterations
            ((0.0791, 0.041), 1.4e139, 1, -0.9999999999998316, ConvergenceFailure,
             ": root not located to rel_tol=1e-14 within 256 iterations"),
            ((1110.0, 1170.0, 2600.0), 1.8e107, 2, -0.9999999999840418, ConvergenceFailure,
             ": root not located to rel_tol=1e-14 within 256 iterations"),
            ((0.00164, 8.58e-05, 7.25e-05, 7.51), 7.6e92, 1, -0.9838353391997732,
             ConvergenceFailure, ": root not located to rel_tol=1e-14 within 256 iterations"),
            # a subnormal A puts the bracket's lower end A/2 at 5e-324, and
            # the first bisection lands where the curve's P overflows
            ((1.4008219440704583e-69, 1.739693954112794e-67), 1e-323, 1, -0.9987283496557591,
             NoSolution, " is unattainable: the curve is not representable"),
            # at A = 5e-324 the lower end A/2 rounds to 0, and a bisection
            # from it makes an x_k underflow to 0
            ((4.0516221510570526e+62, 1.7298228857387102e+77, 3.363231831095374e+17,
              5.859623136055229e+47), 5e-324, 1, -0.7394837533598139,
             NoSolution, " is unattainable: the curve is not representable"),
            ((2.1326123117567886e-62, 8.868725201770162e-63, 3.931662555603119e+48), 5e-324, 1,
             3.3253380839887335e+290,
             NoSolution, " is unattainable: the curve is not representable"),
        ],
        ids=["2-unconverged", "3-unconverged", "4-unconverged", "2-not-finite", "4-underflow",
             "3-underflow"],
    )
    def test_a_pool_at_the_edge_of_the_solve_is_refused(self, reserves, amp, o, rho, error, reason):
        d = stableswap_pool(reserves, amp).invariant[0]
        message = f"rate shift {rho} for asset {o}{reason}"
        for loss in (stableswap_divergence_loss, reference.divergence_loss):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                loss(reserves, d, amp, o, rho)

    def test_a_zero_shift_on_four_assets_is_lossless(self):
        reserves = (100.0, 200.0, 300.0, 400.0)
        d = solve_invariant(reserves, 10.0)
        assert stableswap_divergence_loss(reserves, d, 10.0, 2, 0.0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            stableswap_divergence_loss((100.0, 100.0), 200.0, 10.0, 0, 0.5)
        with pytest.raises(IndexError):
            stableswap_divergence_loss((100.0, 100.0), 200.0, 10.0, 2, 0.5)
        with pytest.raises(DomainError):
            stableswap_divergence_loss((100.0, 100.0), 200.0, 10.0, 1, -1.0)


def _swap_cases(seed: str, sizes, count: int) -> list:
    """Random pools from 1e-100 to 1e100 with A from 1e-6 to 1e12 take their
    constants from curve_constants; forward, reverse, exhausting, zero and
    non-finite trades. Two fifths of the cases replace one of shift, scale
    and A with a value that no pool builds (negated, zero, subnormal,
    rescaled by up to 1e300 or not finite), so the corpus reaches every
    refusal of the quadratic."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.choice(sizes)
        scale = 10.0 ** rng.uniform(-100.0, 100.0)
        reserves = tuple(scale * 10.0 ** rng.uniform(-8.0, 8.0) for _ in range(n))
        amp = 10.0 ** rng.uniform(-6.0, 12.0)
        i, o = rng.sample(range(n), 2)
        r_i = reserves[i]
        x_in = rng.choice((
            r_i * 10.0 ** rng.uniform(-12.0, 3.0),
            r_i * 10.0 ** rng.uniform(3.0, 300.0),
            -r_i * rng.random(),
            -r_i * (1.0 + rng.random()),
            0.0,
            rng.choice((math.nan, math.inf, -math.inf)),
        ))
        try:
            _, dq, shift = stableswap.curve_constants(solve_invariant(reserves, amp), amp, n)
        except AmmError:
            continue
        constants = [shift, dq, amp]
        if rng.random() < 0.4:
            k = rng.randrange(3)
            constants[k] = rng.choice((
                -constants[k], 0.0, 5e-324, constants[k] * 10.0 ** rng.uniform(-300.0, 300.0),
                math.inf, -math.inf, math.nan,
            ))
        cases.append((reserves, i, o, *constants, x_in))
    return cases


class TestUnrolledSwap:
    """The swap output written out for each pool size must equal the loop
    reference over the non-output reserves bit for bit, or fail with the
    same error."""

    def test_matches_the_generic_loop(self):
        # equal bits, or the same exception by class and message, at 2 to 5
        # assets, each folding the non-output reserves in index order
        cases = _swap_cases("stableswap/swap-outputs", (2, 3), 4000)
        cases += _swap_cases("stableswap/swap-outputs/4-5", (4, 5), 6000)

        def outcome(swap, *args):
            try:
                return float.hex(swap(*args))
            except Exception as exc:
                return type(exc), str(exc)

        def kind(out):
            if isinstance(out, str):
                return "ok"
            error, message = out
            if message == "swap quadratic has no real root":
                return "no real root"
            if message.startswith("swap quadratic produced a non-positive reserve "):
                root = float(message.rsplit(" ", 1)[1])
                if math.isnan(root):
                    return "root nan"
                return "root inf" if math.isinf(root) else "root <= 0"
            return error.__name__

        kinds = Counter()
        for case in cases:
            n = len(case[0])
            unrolled = outcome(stableswap._swap_output_for(n), *case)
            assert outcome(reference.swap_output, *case) == unrolled, case
            kinds[n, kind(unrolled)] += 1
        for n in (2, 3, 4, 5):
            assert kinds[n, "ok"] >= 600
            assert kinds[n, "DomainError"] >= 200
            assert kinds[n, "ReserveDepletion"] >= 200
            # each refusal of the quadratic, and a division by zero
            for refusal in ("no real root", "root <= 0", "root inf", "root nan",
                            "ZeroDivisionError"):
                assert kinds[n, refusal] >= 10, (n, refusal, kinds)

    def test_a_pool_swaps_by_its_size_form(self):
        for n in (2, 3, 4, 5):
            pool = stableswap_pool((100.0,) * n, 10.0)
            curve = pool._curve
            for x_in in (1e-9, 1.0, 99.0, -50.0):
                assert float.hex(swap_amount(pool, 0, n - 1, x_in)) == float.hex(
                    reference.swap_output(pool.reserves, 0, n - 1, curve.shift, curve.dq,
                                          curve.A, x_in)
                )


def _divergence_cases(seed: str, sizes, count: int) -> list:
    """Random pools from 1e-100 to 1e100 with A up to 1e12 and shifts up to
    1e300, within 1e-12 of -1 and down to 1e-12 either way: they reach the
    regions where f cancels and the rebalanced reserves' range check."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.choice(sizes)
        scale = 10.0 ** rng.uniform(-100.0, 100.0)
        reserves = tuple(scale * 10.0 ** rng.uniform(-10.0, 10.0) for _ in range(n))
        amp = 10.0 ** rng.choice((rng.uniform(-6.0, 12.0), rng.uniform(10.0, 12.0)))
        o = rng.randrange(1, n)
        rho = rng.choice((
            rng.uniform(-1.0, 4.0),
            -1.0 + 10.0 ** rng.uniform(-12.0, 0.0),
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -4.0),
            10.0 ** rng.uniform(-12.0, 300.0),
        ))
        cases.append((reserves, amp, o, rho))
    return cases


class TestUnrolledResidual:
    """The divergence point written out for each pool size inlines the curve
    equation, its slope and the Newton loop; it must equal the loop
    reference bit for bit: a reordered float operation moves the roots the
    solve returns, and with them output bytes."""

    @staticmethod
    def compare(cases):
        """The outcome of each case that builds a D, after checking that the
        unrolled and the loop forms agree on it: equal bits, or the same
        error; and a Counter of the regions its solved points reach."""

        def outcome(loss, reserves, d, amp, o, rho):
            try:
                return float.hex(loss(reserves, d, amp, o, rho))
            except AmmError as exc:
                return type(exc), str(exc)

        excess = []
        curve = reference.curve

        def recorded(e, A):
            excess.append(max(e))
            return curve(e, A)

        outcomes, reached = [], Counter()
        for reserves, amp, o, rho in cases:
            try:
                d = solve_invariant(reserves, amp)
            except AmmError:
                continue
            unrolled = outcome(stableswap_divergence_loss, reserves, d, amp, o, rho)
            with patch.object(reference, "curve", recorded):
                loop = outcome(reference.divergence_loss, reserves, d, amp, o, rho)
            assert loop == unrolled, (reserves, amp, o, rho)
            outcomes.append(unrolled)
            if isinstance(unrolled, str):
                # the regions the solved points reach
                reached["A >= 1e11"] += amp >= 1e11
                reached["excess >= 1e280"] += excess[-1] >= 1e280
                reached["1 + rho <= 1e-10"] += 1.0 + rho <= 1e-10
                reached["|rho| <= 1e-10"] += abs(rho) <= 1e-10
                reached["o = n - 1 >= 2"] += o == len(reserves) - 1 >= 2
        return outcomes, reached

    def test_divergence_loss_matches_the_generic_path(self):
        # two 3-asset pools imbalanced by over 1e100 reach the solve's
        # finiteness check
        cases = _divergence_cases("stableswap/divergence-points", (2, 3), 3000)
        cases += [
            ((6.027984854914927e-20, 3.7187202283900295e-138, 3.3623626518537535e-118),
             27291316123.15527, 2, -0.976534714960766),
            ((1.5743298522794656e-134, 1.3221162647478556e-19, 1.0101688250408584e-149),
             73392281102087.28, 2, -0.999990037487363),
        ]
        outcomes, reached = self.compare(cases)
        reasons = Counter(
            out[1].rsplit(": ", 1)[-1] for out in outcomes if out[0] is NoSolution
        )
        assert reasons["the curve is not representable"] == 2
        assert reasons["a rebalanced reserve leaves the floating-point range"] >= 5
        assert sum(isinstance(out, str) for out in outcomes) >= 2000
        assert min(reached.values()) >= 20 and len(reached) == 5, reached

    def test_four_and_five_assets_match_the_generic_path(self):
        cases = _divergence_cases("stableswap/divergence-points/4-5", (4, 5), 2000)
        outcomes, reached = self.compare(cases)
        reasons = Counter(
            out[1].rsplit(": ", 1)[-1] for out in outcomes if out[0] is NoSolution
        )
        assert reasons["a rebalanced reserve leaves the floating-point range"] >= 5
        assert sum(isinstance(out, str) for out in outcomes) >= 1100
        assert min(reached.values()) >= 5 and len(reached) == 5, reached


class TestLongFolds:
    def test_a_fold_past_the_longest_keeps_its_bits(self):
        # from _LONGEST_FOLD + 1 assets on, the sums and products of the
        # divergence point are reduce calls: the same left folds
        rng = random.Random("stableswap/long-folds")
        for n in (stableswap._LONGEST_FOLD, stableswap._LONGEST_FOLD + 1):
            reserves = tuple(rng.uniform(0.5, 2.0) for _ in range(n))
            pool = stableswap_pool(reserves, 10.0)
            d = pool.invariant[0]
            assert ("reduce(" in inspect.getsource(stableswap._divergence_point_for(n))) == (
                n > stableswap._LONGEST_FOLD
            )
            for o, rho in ((1, -0.5), (n - 1, 0.21), (n // 2, 3.0)):
                assert float.hex(stableswap_divergence_loss(reserves, d, 10.0, o, rho)) == (
                    float.hex(reference.divergence_loss(reserves, d, 10.0, o, rho))
                )
            assert float.hex(swap_amount(pool, n - 1, 0, 0.5)) == float.hex(
                reference.swap_output(reserves, n - 1, 0, pool._curve.shift, pool._curve.dq,
                                      10.0, 0.5)
            )


class TestGeneratedSource:
    """The unrolled kernels are compiled from source that tracebacks,
    inspect and profilers can read."""

    def test_getsource_returns_the_generated_source(self):
        for n in (2, 3, 4):
            swap, point = stableswap._swap_output_for(n), stableswap._divergence_point_for(n)
            source = inspect.getsource(swap)
            assert source.startswith("def swap_output(reserves, i, o, shift, scale, ")
            assert 'raise NoSolution("swap quadratic has no real root")' in source
            source = inspect.getsource(point)
            assert source.startswith("def divergence_point(reserves, D, A, o, c, g, V, rho):")
            assert f"x{n - 1} = s + e{n - 1} * t" in source
            assert f"x{n} " not in source

    def test_a_refusal_shows_the_template_line(self):
        # a negated scale leaves the swap quadratic without a real root
        with pytest.raises(NoSolution, match="^swap quadratic has no real root$") as caught:
            stableswap._swap_output_for(3)((100.0, 100.0, 100.0), 0, 1, 0.0, -1e13, 10.0, 1.0)
        lines = traceback.format_tb(caught.value.__traceback__)
        assert 'File "<ammlab.stableswap swap_output, 3 assets>"' in lines[-1]
        assert 'raise NoSolution("swap quadratic has no real root")' in lines[-1]
        d = solve_invariant((100.0, 100.0, 100.0, 100.0), 1e8)
        with pytest.raises(NoSolution) as caught:
            stableswap_divergence_loss((100.0,) * 4, d, 1e8, 1, 1e300)
        lines = traceback.format_tb(caught.value.__traceback__)
        assert 'File "<ammlab.stableswap divergence_point, 4 assets>"' in lines[-1]
        assert "raise _unattainable(rho, o, _RESERVE_OUT_OF_RANGE)" in lines[-1]

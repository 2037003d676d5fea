"""Tests for oracle-anchored piecewise pool mechanics."""

from __future__ import annotations

import math
import random
from collections import Counter
from decimal import Decimal, localcontext

import pytest

from ammlab import (
    AmmError,
    DomainError,
    InfeasibleTrade,
    ReserveDepletion,
    SingularAmplification,
    apply_swap,
    pmm_pool,
    swap_amount,
)
from ammlab import pmm
from ammlab.pmm import (
    PMMParams,
    conservation_gap,
    conservation_residual,
    pmm_slippage,
    pmm_spot_rate,
    pmm_swap,
    quadratic_branch_reserve2,
    reserve2_given_reserve1,
)

import pmm_reference as reference

BALANCED = PMMParams(oracle_price=1.0, amplification=0.5, target1=100.0, target2=100.0)


def _outcome(fn, *args):
    """fn(*args) by float.hex, or the class and message of what it raised."""
    try:
        return float.hex(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


class TestParams:
    def test_rejects_nonpositive_price(self):
        with pytest.raises(ValueError):
            PMMParams(oracle_price=0.0, amplification=0.5, target1=1.0, target2=1.0)

    def test_rejects_amplification_outside_unit_interval(self):
        with pytest.raises(ValueError):
            PMMParams(oracle_price=1.0, amplification=0.0, target1=1.0, target2=1.0)
        with pytest.raises(ValueError):
            PMMParams(oracle_price=1.0, amplification=1.5, target1=1.0, target2=1.0)

    def test_rejects_nonpositive_targets(self):
        with pytest.raises(ValueError):
            PMMParams(oracle_price=1.0, amplification=0.5, target1=-1.0, target2=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_target_refusals_name_the_targets(self, bad):
        # NaN and +inf are refused as not finite; a target that is not
        # positive keeps its wording, which `ammlab validate` prints
        for targets in ((bad, 100.0), (100.0, bad), (bad, math.nan)):
            with pytest.raises(ValueError) as info:
                PMMParams(1.0, 0.5, *targets)
            assert type(info.value) is DomainError
            what = "positive" if bad <= 0.0 else "finite"
            assert str(info.value) == (
                f"equilibrium targets must be {what}, got ({targets[0]}, {targets[1]})"
            )

    def test_mirrored_swaps_orientation(self):
        params = PMMParams(
            oracle_price=4.0, amplification=0.25, target1=10.0, target2=40.0
        )
        flipped = params.mirrored()
        assert flipped.oracle_price == 0.25
        assert flipped.amplification == 0.25
        assert (flipped.target1, flipped.target2) == (40.0, 10.0)


class TestSpotRate:
    def test_equilibrium_rate_is_the_oracle_price(self):
        assert pmm_spot_rate(100.0, 100.0, BALANCED) == 1.0
        skew = PMMParams(
            oracle_price=3.5, amplification=0.8, target1=50.0, target2=700.0
        )
        assert pmm_spot_rate(50.0, 700.0, skew) == 3.5

    def test_shortage_of_output_asset_raises_rate(self):
        # r2 at half its target with full amplification pressure
        assert pmm_spot_rate(150.0, 50.0, BALANCED) == 2.5

    def test_surplus_of_input_asset_lowers_rate(self):
        assert pmm_spot_rate(50.0, 150.0, BALANCED) == 1.0 / 2.5

    def test_branches_agree_at_the_seam(self):
        # both branch formulas collapse to the oracle price at the targets
        upper = pmm_spot_rate(100.0, 100.0, BALANCED)
        lower = pmm_spot_rate(math.nextafter(100.0, 0.0), 100.0, BALANCED)
        assert abs(upper - lower) <= 1e-12

    def test_rejects_nonpositive_reserves(self):
        with pytest.raises(ValueError):
            pmm_spot_rate(0.0, 100.0, BALANCED)


class TestConservation:
    def test_targets_sit_on_the_curve(self):
        assert conservation_gap(100.0, 100.0, BALANCED) == 0.0

    def test_swap_results_sit_on_the_curve(self):
        out = pmm_swap(100.0, 100.0, BALANCED, 10.0)
        assert conservation_residual(110.0, 100.0 - out, BALANCED) <= 1e-12

    def test_displaced_reserves_do_not(self):
        assert conservation_gap(120.0, 100.0, BALANCED) != 0.0


class TestReserveBranches:
    def test_quadratic_branch_passes_through_the_targets(self):
        assert math.isclose(
            quadratic_branch_reserve2(100.0, BALANCED), 100.0, rel_tol=1e-12
        )

    def test_rational_branch_passes_through_the_targets(self):
        assert reserve2_given_reserve1(100.0, BALANCED) == 100.0

    def test_branches_join_continuously(self):
        eps = 1e-9
        above = reserve2_given_reserve1(100.0 + eps, BALANCED)
        below = reserve2_given_reserve1(100.0 - eps, BALANCED)
        assert abs(above - below) <= 1e-8
        assert abs(reserve2_given_reserve1(100.0, BALANCED) - 100.0) <= 1e-12

    def test_full_amplification_uses_the_analytic_limit(self):
        params = PMMParams(
            oracle_price=1.0, amplification=1.0, target1=100.0, target2=100.0
        )
        with pytest.raises(SingularAmplification):
            quadratic_branch_reserve2(110.0, params)
        # the swap path must not hit the singular quadratic
        assert math.isclose(
            reserve2_given_reserve1(110.0, params), 10_000.0 / 110.0, rel_tol=1e-12
        )

    def test_rejects_nonpositive_reserve(self):
        with pytest.raises(ValueError):
            reserve2_given_reserve1(0.0, BALANCED)

    @pytest.mark.parametrize("params, r1, r2, x1", [
        # c = -P*A*C2^2 underflows to -0 and b is exactly 0
        (PMMParams(2.8332113776164132e-303, 0.999999999999995, 5.910385770188295e-96,
                   1.6775729819587356e-53),
         1.3759091475769334e-99, 1.6274854138289453e-48, 5.909009861040718e-96),
        # a landing on r1' = C1 at A = 0.5 makes b exactly 0, and 4*lead*c
        # underflows, although the reserve-2 root C2 = 1 is representable
        (PMMParams(2e-300, 0.5, 1.0, 1.0), 0.5, 1.0, 0.5),
    ])
    def test_a_vanishing_linear_coefficient_and_discriminant_raise_domain_error(
        self, params, r1, r2, x1
    ):
        # the stable root form's q_half is 0, so c/q_half would divide by zero
        message = "^quadratic branch's linear coefficient and discriminant underflow to zero$"
        with pytest.raises(DomainError, match=message):
            pmm_swap(r1, r2, params, x1)
        with pytest.raises(DomainError, match=message):
            quadratic_branch_reserve2(r1 + x1, params)
        with pytest.raises(DomainError, match=message):
            reserve2_given_reserve1(r1 + x1, params)


    @pytest.mark.parametrize("r1, params", [
        # b*b overflows; the root is about P*A*C2^2/r1'
        (1e160, PMMParams(1.0, 0.5, 1.0, 1.0)),
        (1e300, PMMParams(1.0, 0.5, 1.0, 1.0)),
        # 4*lead*c overflows: at r1' = C1 the root is C2
        (1.0, PMMParams(1e200, 0.5, 1.0, 1.0)),
        (3.0, PMMParams(1e200, 0.25, 1.0, 2.0)),
    ])
    def test_a_discriminant_past_the_float_range_keeps_its_root(self, r1, params):
        with localcontext() as ctx:
            ctx.prec = 60
            p, a, c1, c2 = map(Decimal, (params.oracle_price, params.amplification,
                                         params.target1, params.target2))
            lead, b, c = p * (1 - a), Decimal(r1) - c1 - p * c2 * (1 - 2 * a), -p * a * c2 * c2
            s = (b * b - 4 * lead * c).sqrt()
            q_half = -(b + s if b >= 0 else b - s) / 2
            exact = float(max(q_half / lead, c / q_half))
        assert reserve2_given_reserve1(r1, params) == pytest.approx(exact, rel=2**-50, abs=0.0)
        assert quadratic_branch_reserve2(r1, params) == reserve2_given_reserve1(r1, params)


class TestSwap:
    def test_worked_example(self):
        out = pmm_swap(100.0, 100.0, BALANCED, 10.0)
        assert math.isclose(out, 9.5012437887910973, rel_tol=1e-12)
        assert math.isclose(100.0 - out, 90.498756211208903, rel_tol=1e-12)

    def test_full_amplification_reduces_to_constant_product(self):
        params = PMMParams(
            oracle_price=1.0, amplification=1.0, target1=100.0, target2=100.0
        )
        out = pmm_swap(100.0, 100.0, params, 10.0)
        assert math.isclose(out, 100.0 * 10.0 / 110.0, rel_tol=1e-9)

        skew = PMMParams(
            oracle_price=2.0, amplification=1.0, target1=200.0, target2=100.0
        )
        out = pmm_swap(200.0, 100.0, skew, 20.0)
        assert math.isclose(out, 100.0 - 20_000.0 / 220.0, rel_tol=1e-9)

    def test_zero_input(self):
        assert pmm_swap(100.0, 100.0, BALANCED, 0.0) == 0.0

    def test_draining_input_reserve_rejected(self):
        with pytest.raises(ReserveDepletion):
            pmm_swap(100.0, 100.0, BALANCED, -100.0)

    def test_input_reserve_past_the_float_range_rejected(self):
        # the post-trade reserve 1 rounds to inf, which the curve pairs with
        # no reserve 2; the pool then refuses the trade as it would refuse
        # any value leaving the floating-point range
        pool = pmm_pool(1e308, 100.0, 1.0, 0.5)
        message = r"^input 1e\+308 takes reserve 1e\+308 past the floating-point range$"
        with pytest.raises(DomainError, match=message):
            swap_amount(pool, 0, 1, 1e308)
        with pytest.raises(DomainError, match=message):
            apply_swap(pool, 0, 1, 1e308)

    def test_round_trip_restores_reserves(self):
        out = pmm_swap(100.0, 100.0, BALANCED, 10.0)
        back = pmm_swap(100.0 - out, 110.0, BALANCED.mirrored(), out)
        assert math.isclose(back, 10.0, rel_tol=1e-9)

    def test_swap_across_the_seam_stays_on_curve(self):
        # start short of the target on asset 1, swap through it
        r1 = 80.0
        r2 = reserve2_given_reserve1(r1, BALANCED)
        out = pmm_swap(r1, r2, BALANCED, 50.0)
        assert conservation_residual(130.0, r2 - out, BALANCED) <= 1e-12

    def test_landing_exactly_on_the_targets(self):
        r1 = 80.0
        r2 = reserve2_given_reserve1(r1, BALANCED)
        out = pmm_swap(r1, r2, BALANCED, 20.0)
        assert math.isclose(r2 - out, 100.0, rel_tol=1e-12)


class TestInlinedSwap:
    """_swap_output, reserve2_given_reserve1 and quadratic_branch_reserve2
    share one branch solve. Each must equal the standalone solve in
    tests/pmm_reference.py bit for bit, or raise the same exception: a
    reordered float operation moves output bytes."""

    def test_matches_the_composed_branch_solve(self):
        # oracle prices from subnormal to 1e300, A anywhere in (0, 1], at 1
        # and within 1e-12 of it, targets from 1e-100 to 1e100, half the
        # pools mirrored; reserve 1 at, near and far below its target, and
        # forward, reverse, exhausting, seam-landing, overflowing, zero and
        # non-finite trades
        rng = random.Random("pmm/swap-outputs")
        kinds = Counter()
        for _ in range(6000):
            price = rng.choice((
                10.0 ** rng.uniform(-3.0, 3.0),
                10.0 ** rng.uniform(-300.0, 300.0),
                5e-324 * rng.randrange(1, 1 << 20),
            ))
            amp = rng.choice((
                1.0, 1.0 - 10.0 ** rng.uniform(-16.0, -12.0), rng.uniform(1e-9, 1.0),
                10.0 ** rng.uniform(-300.0, 0.0),
            ))
            targets = 10.0 ** rng.uniform(-100.0, 100.0), 10.0 ** rng.uniform(-100.0, 100.0)
            try:
                params = PMMParams(price, amp, *targets)
                if rng.random() < 0.5:
                    params = params.mirrored()
            except (ValueError, DomainError):
                # a refused draw, or a price below about 5.6e-309, which has
                # no mirror: its reciprocal overflows
                continue
            c1 = params.target1
            r1 = c1 * rng.choice(
                (1.0, 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-300.0, 0.0))
            )
            r2 = params.target2 * 10.0 ** rng.uniform(-3.0, 3.0)
            x1 = rng.choice((
                r1 * 10.0 ** rng.uniform(-15.0, 3.0),
                -r1 * rng.random(),
                -r1 * (1.0 + rng.random()),
                c1 - r1,
                r1 * 10.0 ** rng.uniform(3.0, 300.0),
                1.7e308 * rng.random(),
                rng.choice((0.0, math.nan, math.inf, -math.inf)),
            ))
            r1_new = r1 + x1
            out = _outcome(pmm._swap_output, r1, r2, params, x1)
            assert out == _outcome(reference.swap_output, r1, r2, params, x1), (r1, r2, params, x1)
            for solve in ("reserve2_given_reserve1", "quadratic_branch_reserve2"):
                got = _outcome(getattr(pmm, solve), r1_new, params)
                assert got == _outcome(getattr(reference, solve), r1_new, params), (solve, r1_new)
            if not isinstance(out, str):
                kinds["output refusal" if "output reserve" in out[1]
                      else "q_half = 0" if out[1] == pmm._VANISHING else out[0].__name__] += 1
                continue
            if x1 == 0.0:
                kinds["zero trade"] += 1
                continue
            if r1_new < c1:
                kinds["r1' < C1"] += 1
            elif params.amplification == 1.0:
                kinds["A = 1"] += 1
                # the limit's 0/0, where the curve passes through (C1, C2)
                kinds["A = 1, 0/0"] += r1_new == c1 and params.oracle_price * params.target2 == 0.0
            else:
                kinds["quadratic"] += 1
                kinds["1 - A <= 1e-12"] += 1.0 - params.amplification <= 1e-12
            kinds["r1' = C1"] += r1_new == c1
            kinds["reverse"] += x1 < 0.0
            kinds["mirrored"] += params.target1 != targets[0]
        for kind, least in {
            "r1' < C1": 400, "quadratic": 700, "A = 1": 200, "1 - A <= 1e-12": 200,
            "r1' = C1": 200, "reverse": 300, "mirrored": 600, "zero trade": 200,
            "output refusal": 100, "SingularAmplification": 50, "q_half = 0": 10,
            "ReserveDepletion": 400, "DomainError": 250, "A = 1, 0/0": 5,
        }.items():
            assert kinds[kind] >= least, (kind, kinds)


class TestSlippage:
    def test_worked_example(self):
        got = pmm_slippage(100.0, 100.0, BALANCED, 10.0)
        assert math.isclose(got, 0.052493781056044514, rel_tol=1e-12)

    def test_full_amplification_matches_constant_product(self):
        params = PMMParams(
            oracle_price=1.0, amplification=1.0, target1=100.0, target2=100.0
        )
        got = pmm_slippage(100.0, 100.0, params, 10.0)
        assert math.isclose(got, 0.1, rel_tol=1e-9)

    def test_zero_input(self):
        assert pmm_slippage(100.0, 100.0, BALANCED, 0.0) == 0.0

    def test_vanishing_output_rejected(self):
        with pytest.raises(InfeasibleTrade):
            pmm_slippage(100.0, 100.0, BALANCED, 1e-300)

    def test_increasing_in_amplification(self):
        values = []
        for amp in (0.1, 0.5, 0.9):
            params = PMMParams(
                oracle_price=1.0, amplification=amp, target1=100.0, target2=100.0
            )
            values.append(pmm_slippage(100.0, 100.0, params, 10.0))
        assert all(a < b for a, b in zip(values, values[1:]))

"""Tests for the generic root-finding and implicit-curve engine."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest

from ammlab import (
    AmmError,
    ConvergenceFailure,
    DegenerateGradient,
    DomainError,
    IdenticalAssets,
    ImplicitConservation,
    InvalidBracket,
    NoSolution,
    ReserveDepletion,
    RootBracket,
    SupplyDepletion,
    ValuationReport,
    bonding_buy,
    bonding_curve,
    bonding_price,
    bonding_reserve_at,
    bonding_sell,
    divergence_loss,
    find_root,
    generic_divergence_loss,
    implicit_conservation,
    implicit_swap,
    numeric_spot_rate,
    pmm_pool,
    solve_rebalance,
    spot_rate,
    stableswap_pool,
    swap_amount,
    uniswap_pool,
    weighted_pool,
)
from ammlab import bonding, numerics
from ammlab.pmm import PMMParams, conservation_gap, pmm_swap
from ammlab.stableswap import defining_residual, solve_invariant
from ammlab.weighted import weighted_rebalanced_reserves

import stableswap_reference as reference


def constant_product(reserves, invariant) -> float:
    return reserves[0] * reserves[1] - invariant[0]


def weighted_curve(weights):
    def evaluate(reserves, invariant) -> float:
        value = 1.0
        for r, w in zip(reserves, weights):
            value *= r**w
        return value - invariant[0]

    return evaluate


UNISWAP = ImplicitConservation(evaluate=constant_product, n=2)


class TestRootBracket:
    def test_keeps_the_endpoint_values(self):
        bracket = RootBracket(1.0, 10.0, -3.0, 96.0)
        assert (bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi) == (1.0, 10.0, -3.0, 96.0)

    def test_rejects_nonpositive_lower_endpoint(self):
        with pytest.raises(InvalidBracket):
            RootBracket(0.0, 10.0, -1.0, 9.0)

    def test_rejects_inverted_endpoints(self):
        with pytest.raises(InvalidBracket):
            RootBracket(5.0, 2.0, 4.0, 1.0)

    def test_rejects_same_sign_endpoints(self):
        with pytest.raises(InvalidBracket):
            RootBracket(1.0, 10.0, 2.0, 101.0)

    def test_rejects_non_finite_values(self):
        with pytest.raises(InvalidBracket):
            RootBracket(lo=1.0, hi=10.0, f_lo=float("nan"), f_hi=1.0)


class TestFindRoot:
    def test_quadratic_root(self):
        root = find_root(lambda x: x * x - 4.0, RootBracket(1.0, 10.0, -3.0, 96.0))
        assert math.isclose(root, 2.0, rel_tol=1e-12)

    def test_a_triple_root_exhausts_the_iteration_budget(self):
        # Newton slows to a crawl on a multiple root and the finite-difference
        # derivative floors out near it, so the default tolerance is not
        # reachable within the default budget
        def f(x: float) -> float:
            return (x - 3.0) ** 3

        message = "^root not located to rel_tol=1e-14 within 256 iterations$"
        with pytest.raises(ConvergenceFailure, match=message):
            find_root(f, RootBracket(1.0, 10.0, f(1.0), f(10.0)))

    def test_endpoint_root_returned_immediately(self):
        bracket = RootBracket(lo=2.0, hi=10.0, f_lo=0.0, f_hi=96.0)
        assert find_root(lambda x: x * x - 4.0, bracket) == 2.0

    def test_upper_endpoint_root_returned_immediately(self):
        bracket = RootBracket(lo=1.0, hi=2.0, f_lo=-3.0, f_hi=0.0)
        assert find_root(lambda x: x * x - 4.0, bracket) == 2.0

    def test_probe_outside_the_domain_bisects(self):
        # the root sits closer to the domain's edge than the difference
        # step's 1e-12 floor, so a probe lands at x <= 0, where log raises
        def f(x: float) -> float:
            return math.log(x / 3e-13)

        root = find_root(f, RootBracket(1e-20, 1.0, f(1e-20), f(1.0)))
        assert math.isclose(root, 3e-13, rel_tol=1e-13)

    def test_probe_refused_as_a_domain_error_bisects(self):
        # the same root where f refuses x <= 0 with DomainError, as
        # stableswap's defining_residual refuses a (D/n)^n past the float range
        def f(x: float) -> float:
            if x <= 0.0:
                raise DomainError(f"x must be positive, got {x}")
            return math.log(x / 3e-13)

        root = find_root(f, RootBracket(1e-20, 1.0, f(1e-20), f(1.0)))
        assert math.isclose(root, 3e-13, rel_tol=1e-13)

    def test_matches_stableswap_invariant_solver(self):
        # Independent route to the same stableswap D: root of the defining
        # residual in D over a wide bracket.
        reserves = (50.0, 150.0)
        amp = 10.0

        def g(d: float) -> float:
            return defining_residual(reserves, d, amp)

        via_root = find_root(g, RootBracket(100.0, 300.0, g(100.0), g(300.0)))
        via_solver = solve_invariant(reserves, amp)
        assert math.isclose(via_root, via_solver, rel_tol=1e-12)

    def test_roots_keep_their_bits(self):
        # find_root's iterates decide every root's last bits, and with them
        # the output bytes: its results on a seeded set of brackets, by
        # float.hex, are pinned. The brackets are solve_invariant's on
        # stableswap pools, the stableswap divergence curve equation between
        # its a-priori bounds, and roots within the difference step's
        # floor of the domain's edge, where Newton gives way to bisection
        rng = random.Random("numerics/find_root")
        roots = []
        for _ in range(200):
            n = rng.randint(2, 3)
            reserves = tuple(10.0 ** rng.uniform(-8.0, 8.0) for _ in range(n))
            amp = 10.0 ** rng.uniform(-3.0, 6.0)
            roots.append(solve_invariant(reserves, amp))
        for _ in range(200):
            n = rng.randint(2, 4)
            e = (0.0, *(10.0 ** rng.uniform(-12.0, 12.0) for _ in range(n - 1)))
            amp = 10.0 ** rng.uniform(-6.0, 12.0)
            lo = 0.5 * amp if amp <= 1.0 else n * (2.0 * n) ** -(n + 1)
            hi = 2.0 * n * max(1.0, amp)
            curve = reference.curve(e, amp)
            f = lambda u, curve=curve, lo=lo: curve(lo * u)[2]  # noqa: E731
            roots.append(find_root(f, RootBracket(1.0, hi / lo, f(1.0), f(hi / lo))))
        for _ in range(50):
            r = 10.0 ** rng.uniform(-14.0, -10.0)
            f = lambda x, r=r: math.log(x / r)  # noqa: E731
            roots.append(find_root(f, RootBracket(1e-20, 1.0, f(1e-20), f(1.0))))
        results = [float.hex(x) for x in roots]
        assert results[:2] == ["0x1.2264ab1b39a96p-5", "0x1.bc5366b4ff3c2p+4"]
        digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
        assert digest == "8e4ae81208f6f6f589f13771458027ace618864cd29488dd6c09b3a549acec87"


class TestNumericSpotRate:
    def test_same_asset_is_exactly_one(self):
        assert numeric_spot_rate(UNISWAP, (100.0, 100.0), (10_000.0,), 0, 0) == 1.0

    def test_balanced_constant_product(self):
        rate = numeric_spot_rate(UNISWAP, (100.0, 100.0), (10_000.0,), 0, 1)
        assert math.isclose(rate, 1.0, rel_tol=1e-6)

    def test_weighted_rate_ratio(self):
        curve = ImplicitConservation(evaluate=weighted_curve((0.2, 0.8)), n=2)
        rate = numeric_spot_rate(curve, (100.0, 100.0), (100.0,), 0, 1)
        # r_i w_o / (r_o w_i) = 0.8 / 0.2
        assert math.isclose(rate, 4.0, rel_tol=1e-6)

    def test_low_amplification_stableswap_matches_reserve_ratio(self):
        reserves = (50.0, 150.0)
        amp = 1e-8
        d = solve_invariant(reserves, amp)
        curve = ImplicitConservation(
            evaluate=lambda r, inv: defining_residual(r, inv[0], amp), n=2
        )
        rate = numeric_spot_rate(curve, reserves, (d,), 0, 1)
        assert math.isclose(rate, 1.0 / 3.0, rel_tol=1e-4, abs_tol=1e-4)

    def test_flat_direction_raises(self):
        flat = ImplicitConservation(
            evaluate=lambda r, inv: r[1] - inv[0], n=2
        )
        with pytest.raises(DegenerateGradient):
            numeric_spot_rate(flat, (100.0, 100.0), (100.0,), 0, 1)

    def test_a_zero_output_partial_raises(self):
        # with a weight of 1e-12 on asset 1, dZ/dr_1 rounds to exactly 0: a
        # rate of 0, by which the rebalance's rate residual would divide
        pool = weighted_pool((100.0, 100.0), (1 - 1e-12, 1e-12))
        curve = implicit_conservation(pool)
        refusal = "^dZ/dr_1 = 0.0 is zero relative to scale 0.9999999999883514$"
        with pytest.raises(DegenerateGradient, match=refusal):
            numeric_spot_rate(curve, pool.reserves, pool.invariant, 0, 1)
        with pytest.raises(DegenerateGradient, match=refusal):
            solve_rebalance(curve, pool.reserves, pool.invariant, 1, 0.5)
        with pytest.raises(DegenerateGradient, match=refusal):
            generic_divergence_loss(curve, pool.reserves, pool.invariant, 1, 0.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: uniswap_pool(1.0, 1e13),
            lambda: uniswap_pool(1.0, 1e20),
            lambda: uniswap_pool(1.0, 1e60),
            lambda: weighted_pool((1.0, 1e20, 1e-3), (0.5, 0.3, 0.2)),
        ],
        ids=["uniswap-1e13", "uniswap-1e20", "uniswap-1e60", "weighted-1e20"],
    )
    def test_steep_rates_agree_both_ways(self, build):
        # a partial far smaller than the other is still a rate: only a zero
        # one is refused
        pool = build()
        curve = implicit_conservation(pool)
        for i in range(pool.n_assets):
            for o in range(pool.n_assets):
                rate = numeric_spot_rate(curve, pool.reserves, pool.invariant, i, o)
                assert math.isclose(rate, spot_rate(pool, i, o), rel_tol=1e-8), (i, o)

    def test_a_step_that_underflows_raises_domain_error(self):
        # the difference step is about 6e-6 of the reserve: for a subnormal
        # reserve of 1.5e-319 it rounds to 0
        pool = uniswap_pool(5e-320, 1.5e-319)
        curve = implicit_conservation(pool)
        with pytest.raises(DomainError) as caught:
            numeric_spot_rate(curve, pool.reserves, pool.invariant, 0, 1)
        assert type(caught.value) is DomainError
        assert str(caught.value) == "reserve 1 too small for the finite-difference step 0.0"

    @pytest.mark.parametrize(("i", "o", "rate"), [(0, 1, "0.0"), (1, 0, "inf")])
    def test_a_rate_past_the_float_range_raises_domain_error(self, i, o, rate):
        # both partials are finite, 1e200 and 1e-200, but their ratio 1e-400
        # underflows to 0 and its inverse overflows
        pool = uniswap_pool(1e-200, 1e200)
        refusal = f"^the rate dZ/dr_{o} / dZ/dr_{i} = {rate} is zero or not finite$"
        with pytest.raises(DomainError, match=refusal):
            numeric_spot_rate(implicit_conservation(pool), pool.reserves, pool.invariant, i, o)

    @pytest.mark.parametrize("function", [
        lambda Z, pool: numeric_spot_rate(Z, pool.reserves, pool.invariant, 0, 1),
        lambda Z, pool: generic_divergence_loss(Z, pool.reserves, pool.invariant, 1, 0.5),
    ], ids=["spot_rate", "divergence_loss"])
    def test_a_probe_past_the_largest_float_raises_domain_error(self, function):
        # the upper probe r_0 + h of the largest float overflows to inf, a
        # reserve that the law refuses with a bare ValueError
        pool = uniswap_pool(1.7976931348623157e308, 1.0)
        refusal = r"^reserve 0 too large for the finite-difference step 1.0885848897538956e\+303$"
        with pytest.raises(DomainError, match=refusal):
            function(implicit_conservation(pool), pool)

    @pytest.mark.parametrize("function", [
        lambda Z: numeric_spot_rate(Z, (1.0, 2.0), (2.0,), 0, 1),
        lambda Z: solve_rebalance(Z, (1.0, 2.0), (2.0,), 1, 0.5),
        lambda Z: generic_divergence_loss(Z, (1.0, 2.0), (2.0,), 1, 0.5),
    ], ids=["spot_rate", "rebalance", "divergence_loss"])
    @pytest.mark.parametrize("law", [
        lambda r, c: math.nan,
        lambda r, c: math.inf,
        lambda r, c: r[0] * 1e308 * r[1] * 1e308 - c[0],
    ], ids=["nan", "inf", "overflow"])
    def test_a_partial_that_is_not_finite_raises_domain_error(self, law, function):
        # inf - inf is nan: every one of these laws has a nan partial
        with pytest.raises(DomainError, match="^dZ/dr_1 = nan is not finite$"):
            function(ImplicitConservation(evaluate=law, n=2))


class TestImplicitSwap:
    def test_constant_product_output(self):
        out = implicit_swap(UNISWAP, (100.0, 100.0), (10_000.0,), 0, 1, 10.0)
        assert math.isclose(out, 100.0 / 11.0, rel_tol=1e-12)

    def test_zero_input_returns_zero(self):
        assert implicit_swap(UNISWAP, (100.0, 100.0), (10_000.0,), 0, 1, 0.0) == 0.0

    def test_identical_assets_rejected(self):
        with pytest.raises(IdenticalAssets):
            implicit_swap(UNISWAP, (100.0, 100.0), (10_000.0,), 1, 1, 10.0)

    def test_draining_input_reserve_rejected(self):
        with pytest.raises(ReserveDepletion):
            implicit_swap(UNISWAP, (100.0, 100.0), (10_000.0,), 0, 1, -100.0)

    def test_unreachable_output_reserve_raises(self):
        constant_sum = ImplicitConservation(
            evaluate=lambda r, inv: r[0] + r[1] - inv[0], n=2
        )
        with pytest.raises(NoSolution, match=r"^no post-trade reserve in \[5e-324, "
                           r"1\.4044477616111843e\+308\] satisfies the conservation law$"):
            implicit_swap(constant_sum, (100.0, 100.0), (200.0,), 0, 1, 250.0)

    @pytest.mark.parametrize(
        "build, i, o, x_in",
        [
            # r_o'/r_o = 1e-13 and about 1e6
            (lambda: uniswap_pool(100.0, 100.0), 0, 1, 1e15),
            (lambda: uniswap_pool(100.0, 100.0), 0, 1, -99.9999),
            (lambda: pmm_pool(100.0, 100.0, 1.0, 0.5), 0, 1, 1e16),
            # r_o'/r_o about 5,001
            (lambda: pmm_pool(100.0, 100.0, 1.0, 0.5), 1, 0, -99.99),
            # one end leaves the float range first and the other goes on:
            # 2^28*r_o overflows before r_o' = 1e-10*r_o is bracketed, and
            # 2^-46*r_o underflows before r_o' = 1e14*r_o is
            (lambda: uniswap_pool(1e290, 1e300), 0, 1, 1e300),
            (lambda: uniswap_pool(1.0, 1e-310), 0, 1, -0.99999999999999),
            # 2*r_o overflows, so the upper end starts at r_o
            (lambda: uniswap_pool(1.0, 1e308), 0, 1, 0.5),
            # r_o'/r_o = 1e-60, about 2^-199: find_root gets the last octave
            # alone, as its 256 steps would not bisect a bracket 2^400 wide
            (lambda: uniswap_pool(1.0, 1.0), 0, 1, 1e60),
            (lambda: uniswap_pool(1.0, 1e100), 0, 1, 1e60),
            # r_o'/r_o = 1e198: a bracket [lo, hi] walked that far has an
            # hi/lo past the largest float
            (lambda: weighted_pool((1.0, 1.0), (0.99, 0.01)), 0, 1, -0.99),
        ],
        ids=["uniswap-deposit", "uniswap-reverse", "pmm-deposit", "pmm-reverse",
             "past-the-largest-float", "past-the-smallest-float", "at-the-largest-float",
             "uniswap-1e-60-of-the-output", "uniswap-1e-60-of-a-steep-output",
             "weighted-1e198-times-the-output"],
    )
    def test_output_reserves_far_from_the_start_are_reached(self, build, i, o, x_in):
        pool = build()
        numeric = implicit_swap(
            implicit_conservation(pool), pool.reserves, pool.invariant, i, o, x_in
        )
        assert math.isclose(numeric, swap_amount(pool, i, o, x_in), rel_tol=1e-8)

    def test_a_deep_bonding_sell_is_reached(self):
        # the Bancor law R^F/S = const, as a residual relative to the start
        # state: burning 99% of the supply at F = 0.054 leaves 1.8e-38 of
        # the reserve, so r_o' lies some 126 octaves below r_o
        C, s, F = 8.539657578605524e30, 3.221602269713921e26, 0.05436871169178887
        e = 3.193024172725727e26
        curve = ImplicitConservation(
            evaluate=lambda r, k: (r[0] / k[0]) ** F / (r[1] / k[1]) - 1.0, n=2
        )
        released = implicit_swap(curve, (C, s), (C, s), 1, 0, -e)
        assert math.isclose(released, bonding_sell(bonding_curve(C, s, F), e)[1], rel_tol=1e-8)

    def test_an_output_reserve_whose_half_underflows_starts_the_lower_end_at_it(self):
        # r_o/2 of the smallest subnormal rounds to 0, which no law accepts;
        # r_o' is two subnormal steps, so the answer is good to one step
        pool = uniswap_pool(1.0, 5e-324)
        numeric = implicit_swap(
            implicit_conservation(pool), pool.reserves, pool.invariant, 0, 1, -0.5
        )
        assert abs(numeric - swap_amount(pool, 0, 1, -0.5)) <= 5e-324

    def test_law_evaluations_per_swap(self):
        # the bracket widens from [r_o/2, 2*r_o], so a trade costs a few
        # evaluations more than find_root's own; the counts are exact
        rng = random.Random("numerics/swap-evaluations")
        pools = [
            uniswap_pool(100.0, 120.0),
            weighted_pool((100.0, 200.0, 300.0), (0.5, 0.3, 0.2)),
            stableswap_pool((100.0, 120.0), 10.0),
            stableswap_pool((100.0, 120.0), 1000.0),
            stableswap_pool((100.0, 90.0, 110.0), 50.0),
            pmm_pool(100.0, 100.0, 1.0, 0.5),
        ]
        evaluations = swaps = 0
        for pool in pools:
            law = implicit_conservation(pool)

            def counting(reserves, invariant, evaluate=law.evaluate):
                nonlocal evaluations
                evaluations += 1
                return evaluate(reserves, invariant)

            curve = ImplicitConservation(evaluate=counting, n=pool.n_assets)
            for k in range(300):
                x_in = 10.0 ** rng.uniform(-6.0, 0.0) * pool.reserves[0]
                if k % 2:
                    x_in *= -0.5
                implicit_swap(curve, pool.reserves, pool.invariant, 0, 1, x_in)
                swaps += 1
        assert evaluations / swaps <= 45.0

    @pytest.mark.parametrize("scale", [1e-13, 1e-12, 1e-11])
    @pytest.mark.parametrize(
        "build",
        [lambda r: uniswap_pool(r, r), lambda r: stableswap_pool((r, r), 10.0)],
        ids=["uniswap", "stableswap"],
    )
    def test_reserves_below_the_difference_step(self, build, scale):
        pool = build(scale)
        x_in = 0.01 * scale
        numeric = implicit_swap(
            implicit_conservation(pool), pool.reserves, pool.invariant, 0, 1, x_in
        )
        assert math.isclose(numeric, swap_amount(pool, 0, 1, x_in), rel_tol=1e-8)

    def test_matches_oracle_anchored_closed_form(self):
        params = PMMParams(
            oracle_price=1.0, amplification=0.5, target1=100.0, target2=100.0
        )
        curve = ImplicitConservation(
            evaluate=lambda r, inv: conservation_gap(r[0], r[1], params), n=2
        )
        numeric = implicit_swap(
            curve, (100.0, 100.0), (params.target1, params.target2), 0, 1, 10.0
        )
        closed = pmm_swap(100.0, 100.0, params, 10.0)
        assert math.isclose(numeric, closed, rel_tol=1e-9)


class TestSolveRebalance:
    def test_zero_shift_is_identity(self):
        got = solve_rebalance(UNISWAP, (100.0, 100.0), (10_000.0,), 1, 0.0)
        assert got == (100.0, 100.0)

    def test_constant_product_closed_form(self):
        # r1' = r1 sqrt(1+rho), r2' = r2 / sqrt(1+rho)
        got = solve_rebalance(UNISWAP, (100.0, 100.0), (10_000.0,), 1, 0.21)
        assert math.isclose(got[0], 110.0, rel_tol=1e-6)
        assert math.isclose(got[1], 100.0 / 1.1, rel_tol=1e-6)

    def test_rate_shift_and_curve_membership(self):
        reserves = (100.0, 100.0)
        got = solve_rebalance(UNISWAP, reserves, (10_000.0,), 1, 0.21)
        before = numeric_spot_rate(UNISWAP, reserves, (10_000.0,), 0, 1)
        after = numeric_spot_rate(UNISWAP, got, (10_000.0,), 0, 1)
        assert abs(after / before - 1.0 - 0.21) <= 1e-8
        assert abs(constant_product(got, (10_000.0,))) <= 1e-9 * 10_000.0

    def test_three_asset_weighted_matches_closed_form(self):
        weights = (0.2, 0.3, 0.5)
        reserves = (100.0, 200.0, 50.0)
        curve = ImplicitConservation(evaluate=weighted_curve(weights), n=3)
        invariant = (weighted_curve(weights)(reserves, (0.0,)),)
        got = solve_rebalance(curve, reserves, invariant, 2, 1.0)
        want = weighted_rebalanced_reserves(reserves, weights, 2, 1.0)
        assert all(
            math.isclose(g, w, rel_tol=1e-8) for g, w in zip(got, want)
        )

    def test_inverse_shift_returns_start(self):
        start = (100.0, 100.0)
        shifted = solve_rebalance(UNISWAP, start, (10_000.0,), 1, 0.21)
        back = solve_rebalance(UNISWAP, shifted, (10_000.0,), 1, -0.21 / 1.21)
        assert all(math.isclose(b, s, rel_tol=1e-6) for b, s in zip(back, start))

    def test_shift_at_or_below_minus_one_rejected(self):
        with pytest.raises(DomainError):
            solve_rebalance(UNISWAP, (100.0, 100.0), (10_000.0,), 1, -1.0)

    def test_a_trial_step_off_the_domain_is_shortened(self, monkeypatch):
        # a stableswap law at A = 0.5 whose dZ/dr_0 is exactly 0 past 1.001
        # times the rebalanced r_0: a full Newton step lands past it, where
        # the spot rate is refused; the probe treats that as a step too long,
        # not as the solve's failure, and the halved step goes on to the
        # uncapped answer
        amp, reserves = 0.5, (100.0, 100.0)
        invariant = (solve_invariant(reserves, amp),)
        uncapped = ImplicitConservation(
            evaluate=lambda r, inv: defining_residual(r, inv[0], amp), n=2
        )
        want = solve_rebalance(uncapped, reserves, invariant, 1, 0.21)
        cap = 1.001 * want[0]
        curve = ImplicitConservation(
            evaluate=lambda r, inv: defining_residual((min(r[0], cap), r[1]), inv[0], amp), n=2
        )
        raised = []
        partials = numerics._partials

        def recorded(*args):
            try:
                return partials(*args)
            except DegenerateGradient as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(numerics, "_partials", recorded)
        got = solve_rebalance(curve, reserves, invariant, 1, 0.21)
        assert math.isclose(got[0], want[0], rel_tol=1e-8)
        assert math.isclose(got[1], want[1], rel_tol=1e-8)
        assert len(raised) == 1

    def test_the_iteration_budget_bounds_the_solve(self):
        # Z = sign(s)|s|^0.501 in s = log(r_0*r_1) - 1: each Newton step
        # takes s to s*(1 - 1/0.501), past the curve to nearly -s, so every
        # full step is accepted, yet |s| falls by only 0.4% a step, and 256
        # steps do not reach the curve
        def law(r, c):
            s = math.log(r[0]) + math.log(r[1]) - c[0]
            return math.copysign(abs(s) ** 0.501, s)

        curve = ImplicitConservation(evaluate=law, n=2)
        with pytest.raises(ConvergenceFailure,
                           match="^rebalance not converged within 256 iterations$"):
            solve_rebalance(curve, (1.0, 1.0), (1.0,), 1, 0.5)

    def test_a_tiny_weight_stagnates_short_of_an_attainable_shift(self):
        # a weight of 2.5e-8 on reserves near 1e118: the weighted closed form
        # rebalances this pool, but the Newton solve stagnates and refuses the
        # shift as unattainable
        pool = weighted_pool((5.95114610433313e118, 4.0551637544196295e111),
                             (0.999999974774507, 2.5225493027747348e-08))
        rho = 0.00018448313390398826
        want = weighted_rebalanced_reserves(pool.reserves, pool.spec.weights, 1, rho)
        assert all(0.0 < r < math.inf for r in want)
        message = (f"^rate shift {rho} for asset 1 is unattainable on this curve "
                   r"\(Newton stagnated\)$")
        with pytest.raises(NoSolution, match=message):
            solve_rebalance(implicit_conservation(pool), pool.reserves, pool.invariant, 1, rho)

    def test_a_residual_that_is_not_finite_at_the_start_raises(self):
        # the law is finite at every difference probe, so the spot rates
        # exist, but not at the start state itself, where the rebalance
        # evaluates Z alone
        curve = ImplicitConservation(
            evaluate=lambda r, c: math.inf if list(r) == [1.0, 2.0] else r[0] + r[1] - c[0],
            n=2,
        )
        with pytest.raises(ConvergenceFailure,
                           match="^conservation residual is not finite at the start state$"):
            solve_rebalance(curve, (1.0, 2.0), (3.0,), 1, 0.5)

    def test_a_newton_step_that_is_not_finite_raises(self):
        # the law is nan at one state alone, the first Jacobian probe
        # exp(log(1) + step) of r_0; the nan column makes the step nan, which
        # no halving could shorten
        probe = [math.exp(numerics._STEP), 2.0]
        curve = ImplicitConservation(
            evaluate=lambda r, c: math.nan if list(r) == probe else r[0] * r[1] - c[0], n=2
        )
        with pytest.raises(ConvergenceFailure, match="^rebalance Newton step is not finite$"):
            solve_rebalance(curve, (1.0, 2.0), (2.0,), 1, 0.5)

    def test_reserves_must_match_the_curve_size(self):
        with pytest.raises(ValueError, match="^expected 2 reserves, got 3$"):
            solve_rebalance(UNISWAP, (100.0, 100.0, 100.0), (10_000.0,), 1, 0.5)

    def test_unattainable_rate_raises_no_solution(self):
        # At extreme amplification the rates stay pinned near 1 until a
        # reserve is nearly drained; the damped Newton solve stalls before a
        # +50% shift, which stableswap_divergence_loss reaches near L = -0.2.
        amp = 1e8
        reserves = (100.0, 100.0)
        d = solve_invariant(reserves, amp)
        curve = ImplicitConservation(
            evaluate=lambda r, inv: defining_residual(r, inv[0], amp), n=2
        )
        with pytest.raises(NoSolution):
            solve_rebalance(curve, reserves, (d,), 1, 0.5)


def exact_solution(rows, b) -> list[Fraction]:
    """The solution of rows·x = b in rationals, by Gauss-Jordan elimination."""
    n = len(b)
    a = [[Fraction(v) for v in row] + [Fraction(bk)] for row, bk in zip(rows, b)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[p] = a[p], a[k]
        for i in range(n):
            if i != k:
                m = a[i][k] / a[k][k]
                a[i] = [x - m * y for x, y in zip(a[i], a[k])]
    return [a[i][n] / a[i][i] for i in range(n)]


class TestSolveLinear:
    """The n×n solve of the rebalance Newton step against exact rational
    elimination."""

    @pytest.mark.parametrize("seed", range(48))
    def test_matches_exact_elimination(self, seed):
        rng = random.Random(seed)
        n = 2 + seed % 4
        rows = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        b = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        if seed % 3 == 0:
            # a zero and a tiny leading entry: elimination must swap rows
            rows[0][0] = 0.0
            rows[1][1] = 1e-18 * rows[1][1]
        want = exact_solution(rows, b)
        got = numerics._solve_linear(rows, b)
        scale = max(abs(w) for w in want)
        assert all(abs(Fraction(g) - w) <= 1e-11 * scale for g, w in zip(got, want))

    def test_pivots_on_the_largest_entry(self):
        # without the row swap, 1 - 1e20 absorbs the 1 and x_0 comes out 0
        got = numerics._solve_linear([[1e-20, 1.0], [1.0, 1.0]], [1.0, 2.0])
        assert got == [1.0, 1.0]

    @pytest.mark.parametrize(
        "rows", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 2.0]], [[1.0, 1.0, 0.0]] * 3],
        ids=["dependent-rows", "zero-column", "equal-rows"],
    )
    def test_an_exactly_singular_matrix_raises(self, rows):
        with pytest.raises(ConvergenceFailure, match="^singular rebalance Jacobian: Singular matrix$"):
            numerics._solve_linear(rows, [1.0] * len(rows))


class TestGenericDivergenceLoss:
    def test_numeraire_cannot_appreciate(self):
        with pytest.raises(ValueError):
            generic_divergence_loss(UNISWAP, (100.0, 100.0), (10_000.0,), 0, 0.5)

    def test_zero_shift_is_lossless(self):
        report = generic_divergence_loss(UNISWAP, (100.0, 100.0), (10_000.0,), 1, 0.0)
        assert report.L == 0.0

    def test_constant_product_valuations(self):
        report = generic_divergence_loss(UNISWAP, (100.0, 100.0), (10_000.0,), 1, 0.21)
        assert math.isclose(report.V, 200.0, rel_tol=1e-9)
        assert math.isclose(report.V_held, 221.0, rel_tol=1e-9)
        assert math.isclose(report.V_prime, 220.0, rel_tol=1e-6)
        assert math.isclose(report.L, 220.0 / 221.0 - 1.0, abs_tol=1e-6)

    def test_low_amplification_stableswap_matches_constant_product(self):
        amp = 1e-8
        reserves = (100.0, 100.0)
        d = solve_invariant(reserves, amp)
        curve = ImplicitConservation(
            evaluate=lambda r, inv: defining_residual(r, inv[0], amp), n=2
        )
        report = generic_divergence_loss(curve, reserves, (d,), 1, -0.5)
        closed = math.sqrt(0.5) / 0.75 - 1.0
        assert math.isclose(report.L, closed, abs_tol=1e-4)

    def test_loss_is_never_a_gain(self):
        weights = (0.2, 0.8)
        curve = ImplicitConservation(evaluate=weighted_curve(weights), n=2)
        invariant = (weighted_curve(weights)((100.0, 100.0), (0.0,)),)
        for rho in (-0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 4.0):
            report = generic_divergence_loss(curve, (100.0, 100.0), invariant, 1, rho)
            assert report.L <= 1e-10

    def test_the_loss_is_derived_not_stored(self):
        with pytest.raises(TypeError):
            ValuationReport(V=200.0, V_held=221.0, V_prime=220.0, L=0.5, rho=0.21)
        report = generic_divergence_loss(UNISWAP, (100.0, 100.0), (10_000.0,), 1, 0.21)
        assert report.L == report.V_prime / report.V_held - 1.0

    def test_a_base_rate_that_underflows_raises_domain_error(self):
        # dZ/dr_1 / dZ/dr_0 = 1.9e-446 underflows to 0, by which the rate
        # rows would divide
        pool = uniswap_pool(2.7014294934210574e-151, 1.4480668941189615e+295)
        refusal = "^the rate dZ/dr_1 / dZ/dr_0 = 0.0 is zero or not finite$"
        with pytest.raises(DomainError, match=refusal):
            generic_divergence_loss(implicit_conservation(pool), pool.reserves, pool.invariant, 1, 0.5)

    @pytest.mark.parametrize(("reserves", "rho", "rate"), [
        ((1e-170, 1.0, 1e160), 0.5, "0.0"),
        ((1e-170, 1.0, 1e160), -0.3, "0.0"),
        ((1e170, 1.0, 1e-160), 0.5, "inf"),
    ])
    def test_a_price_past_the_float_range_raises_domain_error(self, reserves, rho, rate):
        # the price of asset 2 in asset 0 is r_0/r_2, 1e-330 or 1e330, which
        # leaves the float range, though the rebalance's rates of asset 1
        # do not; a price of 0 once gave a loss of -0.084, and even a gain
        pool = weighted_pool(reserves, (1 / 3,) * 3)
        refusal = f"^the rate dZ/dr_2 / dZ/dr_0 = {rate} is zero or not finite$"
        with pytest.raises(DomainError, match=refusal):
            generic_divergence_loss(implicit_conservation(pool), pool.reserves, pool.invariant, 1, rho)

    @pytest.mark.parametrize("rho", [0.5, -0.3])
    def test_a_value_past_the_float_range_raises_domain_error(self, rho):
        # 1e308 + 9e307 at prices near 1 overflows, where inf / inf once gave
        # a loss of nan or -1
        pool = uniswap_pool(1e308, 9e307)
        refusal = r"^the value of reserves \(1e\+308, 9e\+307\) leaves the floating-point range$"
        with pytest.raises(DomainError, match=refusal):
            generic_divergence_loss(implicit_conservation(pool), pool.reserves, pool.invariant, 1, rho)

    def test_a_solve_that_probes_past_the_largest_float_raises_domain_error(self):
        # a shift of -0.5 moves r_1 up from 1.55e308, until a difference
        # probe of the rebalance would pass the largest float
        pool = uniswap_pool(8.679608538495712e+82, 1.5545798001846313e+308)
        with pytest.raises(DomainError, match="^reserve 1 too large for the finite-difference step "):
            generic_divergence_loss(implicit_conservation(pool), pool.reserves, pool.invariant, 1, -0.5)

    def test_law_evaluations_per_loss(self):
        # seeded weighted and stableswap pools of 2 to 4 assets, up to 6x
        # unbalanced, A from 1e-2 to about 3e4 and shifts in (-0.9, 4): each
        # loss is solved, at a bounded mean count of law evaluations
        rng = random.Random("numerics/rebalance-evaluations")
        evaluations = 0
        for k in range(90):
            n = rng.randint(2, 4)
            reserves = tuple(100.0 * 6.0 ** rng.uniform(0.0, 1.0) for _ in range(n))
            if k % 3 == 0:
                weights = [rng.uniform(1.0, 3.0) for _ in range(n)]
                pool = weighted_pool(reserves, tuple(w / sum(weights) for w in weights))
            else:
                pool = stableswap_pool(reserves, 10.0 ** rng.uniform(-2.0, 4.5))
            law = implicit_conservation(pool)

            def counting(reserves, invariant, evaluate=law.evaluate):
                nonlocal evaluations
                evaluations += 1
                return evaluate(reserves, invariant)

            curve = ImplicitConservation(evaluate=counting, n=n)
            generic_divergence_loss(curve, pool.reserves, pool.invariant,
                                    rng.randint(1, n - 1), rng.uniform(-0.9, 4.0))
        assert evaluations / 90 <= 290.0


def _agreement_pools() -> dict:
    """Pool kind -> (reserve scale -> pool): one seeded pool per kind, whose
    reserves and PMM targets are those at scale 1 times the scale."""
    rng = random.Random("numerics/agreement")
    near = lambda: 2.0 ** rng.uniform(-1.0, 1.0)  # noqa: E731
    uni, bal = [near() for _ in range(2)], [near() for _ in range(3)]
    ss2, ss3 = [near() for _ in range(2)], [near() for _ in range(3)]
    amp = 10.0 ** rng.uniform(0.0, 2.0)
    # off the branch seam, as perfbench/generate.py's _pmm_below_target
    # builds it (at equilibrium the difference step straddles the seam),
    # but at most 9% below target1, so that a trade of 0.1 of reserve 1
    # ends on the r1 >= C1 branch: the test reaches both branches
    r1 = near()
    t1, t2 = r1 / (1.0 - rng.uniform(0.05, 0.09)), near()
    price, k = t1 / t2 * 2.0 ** rng.uniform(-0.3, 0.3), rng.uniform(0.1, 0.9)
    r2 = t2 + (t1 - r1) * (1.0 + k * (t1 / r1 - 1.0)) / price
    return {
        "uniswap": lambda s: uniswap_pool(uni[0] * s, uni[1] * s),
        "weighted3": lambda s: weighted_pool([r * s for r in bal], (0.5, 0.3, 0.2)),
        "stableswap2": lambda s: stableswap_pool([r * s for r in ss2], amp),
        "stableswap3": lambda s: stableswap_pool([r * s for r in ss3], amp),
        "pmm": lambda s: pmm_pool(t1 * s, t2 * s, price, k, reserves=(r1 * s, r2 * s)),
    }


AGREEMENT_POOLS = _agreement_pools()
# a bonding curve's reserve and supply at scale 1, drawn as the pools' are
_BONDING_RNG = random.Random("numerics/bonding")
BONDING_STATE = tuple(2.0 ** _BONDING_RNG.uniform(-1.0, 1.0) for _ in range(2))
AGREEMENT_SCALES = [10.0**k for k in (-300, -200, -100, -10, -8, -6, -3, 0, 3, 100, 200, 300)]
_PMM_EDGE = ("pmm._quadratic_root forms -P*A*C2^2 and b*b, which leave the float range: "
             "the closed-form swap takes all of reserve 2 at 1e-200 and refuses at 1e200")
_PMM_EDGE_REASONS = {
    1e-300: _PMM_EDGE,
    1e-200: _PMM_EDGE,
    1e200: _PMM_EDGE,
    1e300: _PMM_EDGE,
}


def _swap_case(kind: str, scale: float):
    if kind == "pmm" and scale in _PMM_EDGE_REASONS:
        return pytest.param(kind, scale, marks=pytest.mark.xfail(
            strict=True, reason=_PMM_EDGE_REASONS[scale]))
    return pytest.param(kind, scale)


def _pool_at(kind: str, scale: float):
    try:
        return AGREEMENT_POOLS[kind](scale)
    except Exception as refusal:
        assert isinstance(refusal, AmmError)
        pytest.skip(f"the pool refuses to build: {refusal}")


class TestAgreementAtEveryScale:
    """The oracle agrees with every closed form within 1e-8 at every reserve
    scale where the pool builds: its difference step is relative to the
    reserve, so no scale falls under it."""

    @pytest.mark.parametrize("scale", AGREEMENT_SCALES)
    @pytest.mark.parametrize("kind", list(AGREEMENT_POOLS))
    def test_spot_rate(self, kind, scale):
        pool = _pool_at(kind, scale)
        curve = implicit_conservation(pool)
        for o in range(1, pool.n_assets):
            numeric = numeric_spot_rate(curve, pool.reserves, pool.invariant, 0, o)
            assert math.isclose(numeric, spot_rate(pool, 0, o), rel_tol=1e-8)

    @pytest.mark.parametrize(("kind", "scale"), [
        _swap_case(kind, scale) for kind in AGREEMENT_POOLS for scale in AGREEMENT_SCALES
    ])
    def test_swap(self, kind, scale):
        pool = _pool_at(kind, scale)
        curve = implicit_conservation(pool)
        for x_in in (0.1 * pool.reserves[0], -0.1 * pool.reserves[0]):
            numeric = implicit_swap(curve, pool.reserves, pool.invariant, 0, 1, x_in)
            assert math.isclose(numeric, swap_amount(pool, 0, 1, x_in), rel_tol=1e-8), x_in

    @pytest.mark.parametrize("scale", AGREEMENT_SCALES)
    def test_pmm_swap_scales_with_the_pool(self, scale):
        # the PMM law is homogeneous in the reserves and targets, so the
        # oracle's swap scales with them where the closed form leaves the
        # float range
        def oracle(pool):
            curve = implicit_conservation(pool)
            return implicit_swap(curve, pool.reserves, pool.invariant, 0, 1, 0.1 * pool.reserves[0])

        pool = _pool_at("pmm", scale)
        assert math.isclose(oracle(pool), oracle(_pool_at("pmm", 1.0)) * scale, rel_tol=1e-8)

    @pytest.mark.parametrize(("kind", "scale"), [
        *((kind, scale) for kind in AGREEMENT_POOLS if kind != "pmm" for scale in AGREEMENT_SCALES),
        # reserves 1:3:6, wider than any drawn above, build at scale 1 alone
        ("stableswap3-wide", 1.0),
    ])
    def test_divergence_loss(self, kind, scale):
        if kind == "stableswap3-wide":
            pool = stableswap_pool((100.0, 300.0, 600.0), 10.0)
        else:
            pool = _pool_at(kind, scale)
        curve = implicit_conservation(pool)
        for o in range(1, pool.n_assets):
            for rho in (0.5, -0.3):
                report = generic_divergence_loss(curve, pool.reserves, pool.invariant, o, rho)
                closed = divergence_loss(pool, o, rho)
                assert math.isclose(1.0 + report.L, 1.0 + closed, rel_tol=1e-8), (o, rho)

    @pytest.mark.parametrize("scale", AGREEMENT_SCALES)
    @pytest.mark.parametrize("ratio", [0.05, 0.3, 0.5, 0.9, 1.0])
    def test_bonding(self, ratio, scale):
        # bonding.conservation on (reserve, supply): both rise together, so
        # a buy is a negative output, a sell a negative input, and the spot
        # rate is minus the price
        state = bonding_curve(BONDING_STATE[0] * scale, BONDING_STATE[1] * scale, ratio)
        curve, r = bonding.conservation(state), (state.reserve, state.supply)
        anchor = (state.anchor_reserve, state.anchor_supply)
        for deposit in (1e-6 * state.reserve, 0.1 * state.reserve):
            minted = -implicit_swap(curve, r, anchor, 0, 1, deposit)
            assert math.isclose(minted, bonding_buy(state, deposit)[1], rel_tol=1e-8), deposit
        price = -numeric_spot_rate(curve, r, anchor, 0, 1)
        assert math.isclose(price, bonding_price(state), rel_tol=1e-8)
        for supply in (1.5 * state.supply, 0.5 * state.supply):
            reserve = state.reserve - implicit_swap(curve, r, anchor, 1, 0, supply - state.supply)
            assert math.isclose(reserve, bonding_reserve_at(state, supply), rel_tol=1e-8), supply
        for burned in (0.5 * state.supply, 0.999 * state.supply, 0.9999 * state.supply):
            try:
                released = bonding_sell(state, burned)[1]
            except SupplyDepletion:
                # the reserve left, C * (1 - burned/s)^(1/F), is below the
                # smallest float (at F = 0.05 and scale 1e-300): no root exists
                with pytest.raises(NoSolution):
                    implicit_swap(curve, r, anchor, 1, 0, -burned)
                continue
            oracle = implicit_swap(curve, r, anchor, 1, 0, -burned)
            assert math.isclose(oracle, released, rel_tol=1e-8), burned

"""Tests for the generic root-finding and implicit-curve engine."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest

from ammlab import (
    ConvergenceFailure,
    DegenerateGradient,
    DomainError,
    IdenticalAssets,
    ImplicitConservation,
    InvalidBracket,
    NoSolution,
    ReserveDepletion,
    RootBracket,
    ValuationReport,
    find_root,
    generic_divergence_loss,
    implicit_conservation,
    implicit_swap,
    numeric_spot_rate,
    solve_rebalance,
    stableswap_pool,
    swap_amount,
    uniswap_pool,
    weighted_pool,
)
from ammlab import numerics
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
        # with a weight of 1e-11 on asset 1, dZ/dr_1 rounds to exactly 0: a
        # rate of 0, by which the rebalance's rate residual would divide
        pool = weighted_pool((100.0, 100.0), (1 - 1e-11, 1e-11))
        curve = implicit_conservation(pool)
        refusal = "^dZ/dr_1 = 0.0 is zero relative to scale 1.0000000001042508$"
        with pytest.raises(DegenerateGradient, match=refusal):
            numeric_spot_rate(curve, pool.reserves, pool.invariant, 0, 1)
        with pytest.raises(DegenerateGradient, match=refusal):
            solve_rebalance(curve, pool.reserves, pool.invariant, 1, 0.5)
        with pytest.raises(DegenerateGradient, match=refusal):
            generic_divergence_loss(curve, pool.reserves, pool.invariant, 1, 0.5)

    def test_reserves_below_the_step_floor_raise_domain_error(self):
        # the difference step's absolute floor of 1e-9 reaches past reserve 1
        pool = uniswap_pool(1e-10, 3e-10)
        curve = implicit_conservation(pool)
        with pytest.raises(DomainError) as caught:
            numeric_spot_rate(curve, pool.reserves, pool.invariant, 0, 1)
        assert type(caught.value) is DomainError
        assert str(caught.value) == "reserve 1 too small for the finite-difference step 1e-09"


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
        with pytest.raises(NoSolution):
            implicit_swap(constant_sum, (100.0, 100.0), (200.0,), 0, 1, 250.0)

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
        # one damped trial lands where a spot rate's gradient degenerates:
        # the probe treats that as a step too long, not as the solve's
        # failure, and the solve ends by stagnating
        pool = stableswap_pool((2159042186.8583684, 2937.887800825304, 1985550424803377.8),
                               3532.4062801936707)
        raised = []

        def recorded(*args):
            try:
                return numeric_spot_rate(*args)
            except DegenerateGradient as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(numerics, "numeric_spot_rate", recorded)
        message = ("^rate shift 514896.7606359474 for asset 1 is unattainable on this curve "
                   r"\(Newton stagnated\)$")
        with pytest.raises(NoSolution, match=message):
            solve_rebalance(implicit_conservation(pool), pool.reserves, pool.invariant, 1,
                            514896.7606359474)
        assert len(raised) == 1

    def test_the_iteration_budget_bounds_the_solve(self):
        # a weight of 2.5e-8 on reserves near 1e118: every damped step is
        # accepted, yet 256 of them do not reach the tolerances
        pool = weighted_pool((5.95114610433313e118, 4.0551637544196295e111),
                             (0.999999974774507, 2.5225493027747348e-08))
        with pytest.raises(ConvergenceFailure,
                           match="^rebalance not converged within 256 iterations$"):
            solve_rebalance(implicit_conservation(pool), pool.reserves, pool.invariant, 1,
                            0.00018448313390398826)

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

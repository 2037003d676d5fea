"""Tests for slippage/divergence/cross-section series production."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ammlab import (
    AmmError,
    DomainError,
    InfeasibleTrade,
    NotApplicable,
    ReserveDepletion,
    apply_swap,
    pmm_pool,
    slippage,
    stableswap_pool,
    swap_amount,
    uniswap_pool,
    weighted_pool,
)
from ammlab import analysis, quote, weighted
from ammlab.analysis import (
    MAX_GRID_POINTS,
    CurveSeries,
    SeriesKind,
    check_grid_domain,
    conservation_cross_section,
    default_shift_grid,
    default_trade_grid,
    divergence_curve,
    divergence_loss,
    hyperparameter_string,
    linear_grid,
    log_grid,
    slippage_curve,
)


# one pool of each family at (100, 100)
FOUR_POOLS = (
    uniswap_pool(100.0, 100.0),
    weighted_pool((100.0, 100.0), (0.8, 0.2)),
    stableswap_pool((100.0, 100.0), 10.0),
    pmm_pool(100.0, 100.0, 1.0, 0.5),
)


class TestGrids:
    def test_default_trade_grid(self):
        grid = default_trade_grid()
        assert len(grid) == 50
        assert math.isclose(grid[0], 0.01, rel_tol=1e-12)
        assert math.isclose(grid[-1], 0.9, rel_tol=1e-12)

    def test_default_shift_grid(self):
        grid = default_shift_grid()
        assert len(grid) == 60
        assert grid[0] == -0.9
        assert grid[-1] == 4.0

    def test_log_grid_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            log_grid(-1.0, 1.0, 10)
        with pytest.raises(ValueError):
            log_grid(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            log_grid(1.0, 2.0, 1)

    def test_linear_grid_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            linear_grid(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            linear_grid(1.0, 2.0, 1)

    @pytest.mark.parametrize(
        "build, lo, hi",
        [
            (linear_grid, -1e308, 1e308),
            (linear_grid, 0.0, math.inf),
            (linear_grid, -math.inf, 0.0),
            (log_grid, 1.0, math.inf),
        ],
    )
    def test_grids_refuse_unbounded_spans(self, build, lo, hi):
        # numpy would put NaN or inf on these grids
        with pytest.raises(ValueError, match="needs finite bounds and span"):
            build(lo, hi, 3)

    @pytest.mark.parametrize(
        "build, lo, hi, shown",
        [
            (log_grid, 1, 10**400, "[1.0, inf]"),
            (log_grid, 10**400, 10**401, "[inf, inf]"),
            (linear_grid, -(10**400), 0, "[-inf, 0.0]"),
            (linear_grid, 0, 2**1024 - 2**970, "[0.0, inf]"),
        ],
        ids=["log-hi", "log-both", "linear-lo", "linear-hi-at-the-threshold"],
    )
    def test_int_bounds_past_the_float_range_are_unbounded(self, build, lo, hi, shown):
        # float() refuses these ints with a bare OverflowError
        kind = "log" if build is log_grid else "linear"
        with pytest.raises(ValueError) as caught:
            build(lo, hi, 3)
        assert str(caught.value) == f"{kind} grid needs finite bounds and span, got {shown}"

    def test_int_bounds_that_round_to_the_largest_float_are_kept(self):
        largest = 2**1024 - 2**970 - 1
        assert log_grid(1, largest, 2) == (1.0, 1.7976931348623157e308)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        lo=st.floats(allow_nan=False, allow_infinity=False),
        hi=st.floats(allow_nan=False, allow_infinity=False),
        points=st.integers(2, 300),
    )
    @example(lo=0.0, hi=5e-324, points=3)  # a zero step: numpy's subnormal branch
    @example(lo=-5e-324, hi=1e-320, points=7)
    @example(lo=-0.9, hi=4.0, points=60)
    def test_linear_grid_is_numpy_linspace_bit_for_bit(self, lo, hi, points):
        lo, hi = min(lo, hi), max(lo, hi)
        assume(lo < hi and math.isfinite(hi - lo))
        # k * step can round past the float range at the last point, which
        # both builders then set to hi
        with np.errstate(over="ignore"):
            want = [float(v).hex() for v in np.linspace(lo, hi, points)]
        assert [v.hex() for v in linear_grid(lo, hi, points)] == want

    def test_grids_are_capped_before_allocating(self):
        for build in (log_grid, linear_grid):
            with pytest.raises(ValueError, match="at most 1000000 points, got 1000001"):
                build(1.0, 2.0, MAX_GRID_POINTS + 1)
            with pytest.raises(ValueError, match="at most"):
                build(1.0, 2.0, 10**400)

    def test_constant_default_grids_are_built_once(self):
        assert default_trade_grid() is default_trade_grid()
        assert default_shift_grid() is default_shift_grid()

    @pytest.mark.parametrize(
        "kind, good, bad, message",
        [
            (SeriesKind.SLIPPAGE, 0.95, 0.96, r"\(0, 0\.95\], got 0\.96"),
            (SeriesKind.SLIPPAGE, 0.01, 0.0, r"\(0, 0\.95\], got 0\.0"),
            (SeriesKind.DIVERGENCE_LOSS, -0.99, -1.0, r"exceed -1, got -1\.0"),
            (SeriesKind.CONSERVATION_CROSS_SECTION, 1e-300, 0.0, r"positive, got 0\.0"),
        ],
    )
    def test_grid_domain_names_the_first_value_outside_it(self, kind, good, bad, message):
        check_grid_domain(kind, ())
        check_grid_domain(kind, (good,))
        with pytest.raises(ValueError, match=message):
            check_grid_domain(kind, (good, bad, math.nan))


def _scanned_grid_domain(kind, grid):
    """check_grid_domain as two scans, the domain's then the order's: the
    reference that its ordered fast path must agree with."""
    if kind is SeriesKind.SLIPPAGE:
        for g in grid:
            if not 0.0 < g <= 0.95:
                raise ValueError(f"normalized trade sizes must lie in (0, 0.95], got {g}")
    elif kind is SeriesKind.DIVERGENCE_LOSS:
        for g in grid:
            if not -1.0 < g < math.inf:
                raise ValueError(f"price shifts must be finite and exceed -1, got {g}")
    else:
        for g in grid:
            if not g > 0.0:
                raise ValueError(f"reserve grid values must be positive, got {g}")
    for a, b in zip(grid, grid[1:]):
        if not b > a:
            raise ValueError("grid values must be strictly increasing")


# grid values at and around every domain's ends, NaN and the infinities
_EDGES = (-math.inf, -1.0001, -1.0, -0.99, -0.0, 0.0, 5e-324, 0.5, 0.95, 0.9500000000000001,
          1.0, 1e300, math.inf, math.nan)
_GRID_VALUES = st.one_of(st.sampled_from(_EDGES), st.floats(-2.0, 2.0), st.floats())


class TestGridDomainScan:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(list(SeriesKind)),
        grid=st.one_of(
            st.lists(_GRID_VALUES, max_size=8),
            st.lists(_GRID_VALUES, max_size=8, unique=True).map(sorted),
        ),
    )
    @example(kind=SeriesKind.SLIPPAGE, grid=[0.5, 0.96, 0.97])
    @example(kind=SeriesKind.SLIPPAGE, grid=[0.0, 0.5, 0.97])
    @example(kind=SeriesKind.DIVERGENCE_LOSS, grid=[-2.0, -1.0, 0.5])
    @example(kind=SeriesKind.CONSERVATION_CROSS_SECTION, grid=[1.0, 2.0, math.nan])
    def test_matches_the_two_scans(self, kind, grid):
        grid = tuple(grid)
        try:
            _scanned_grid_domain(kind, grid)
        except ValueError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                check_grid_domain(kind, grid)
        else:
            check_grid_domain(kind, grid)


class TestCurveSeries:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CurveSeries(
                kind=SeriesKind.SLIPPAGE,
                pool_id="p",
                protocol="weighted",
                hyperparameters="",
                x_values=(0.1, 0.2),
                y_values=(0.1,),
            )


class TestSweepGrids:
    SWEEPS = {
        "slippage": lambda pool, grid: slippage_curve(pool, 0, 1, grid),
        "divergence": lambda pool, grid: divergence_curve(pool, 1, grid),
        "cross_section": lambda pool, grid: conservation_cross_section(pool, 0, 1, grid),
    }

    def test_rejects_unordered_grid(self):
        pool = uniswap_pool(100.0, 100.0)
        for sweep in self.SWEEPS.values():
            for grid in ((0.2, 0.1), (0.1, 0.1)):
                with pytest.raises(ValueError, match="^grid values must be strictly increasing$"):
                    sweep(pool, grid)
        # a grid both unordered and out of the domain reports the domain
        with pytest.raises(ValueError, match=r"^normalized trade sizes .*, got 0\.96$"):
            slippage_curve(pool, 0, 1, (0.96, 0.5))

    @pytest.mark.parametrize("name", list(SWEEPS))
    def test_no_point_runs_before_the_order_refusal(self, name, monkeypatch):
        points = []

        def counting(kernel):
            def wrapped(*args):
                inner = kernel(*args)
                return lambda x: points.append(x) or inner(x)

            return wrapped

        def counting_losses(w, shifts):
            points.extend(shifts)
            return losses(w, shifts)

        # the kernels and the weighted divergence loop alike
        for attr in ("swap_kernel", "_divergence_kernel"):
            monkeypatch.setattr(analysis, attr, counting(getattr(analysis, attr)))
        losses = weighted._divergence_losses
        monkeypatch.setattr(weighted, "_divergence_losses", counting_losses)
        pool = uniswap_pool(100.0, 100.0)
        self.SWEEPS[name](pool, (0.1, 0.2, 0.5))
        assert len(points) == 3
        points.clear()
        with pytest.raises(ValueError, match="strictly increasing"):
            self.SWEEPS[name](pool, (0.5, 0.1, 0.2))
        assert points == []


class TestHyperparameterString:
    def test_weighted(self):
        assert hyperparameter_string(uniswap_pool(100.0, 100.0)) == "weights=0.5|0.5"

    def test_stableswap(self):
        pool = stableswap_pool((100.0, 100.0), 10.0)
        assert hyperparameter_string(pool) == "amplification=10"
        # 17 significant digits round-trip the double
        pool = stableswap_pool((100.0, 100.0), 0.1 + 0.2)
        assert hyperparameter_string(pool) == "amplification=0.30000000000000004"

    def test_pmm(self):
        pool = pmm_pool(100.0, 100.0, 1.0, 0.5)
        assert (
            hyperparameter_string(pool)
            == "amplification=0.5;oracle_price=1;target1=100;target2=100"
        )
        pool = pmm_pool(100.0, 80.0, 1.25, 0.1 + 0.2)
        assert (
            hyperparameter_string(pool)
            == "amplification=0.30000000000000004;oracle_price=1.25;target1=100;target2=80"
        )


class TestSlippageCurve:
    def test_constant_product_equals_the_grid(self):
        series = slippage_curve(uniswap_pool(100.0, 100.0), 0, 1, (0.1, 0.2, 0.3))
        assert series.kind is SeriesKind.SLIPPAGE
        for x, y in zip(series.x_values, series.y_values):
            assert abs(y - x) <= 1e-12

    def test_default_grid(self):
        series = slippage_curve(uniswap_pool(100.0, 100.0), 0, 1)
        assert series.x_values == default_trade_grid()
        assert len(series.y_values) == 50

    def test_rejects_out_of_range_grid(self):
        pool = uniswap_pool(100.0, 100.0)
        with pytest.raises(ValueError):
            slippage_curve(pool, 0, 1, (0.5, 0.96))
        with pytest.raises(ValueError):
            slippage_curve(pool, 0, 1, (0.0, 0.5))

    @pytest.mark.parametrize(
        "reserves, rate", [((1e-200, 1e200), "0.0"), ((1e200, 1e-200), "inf")]
    )
    def test_a_spot_rate_past_the_float_range_refuses_the_series(self, reserves, rate):
        # no slippage point is defined when the rate it divides by under- or
        # overflowed; the empty grid of validate is refused as well
        refusal = f"^spot rate {rate} is outside the float range; slippage undefined$"
        for grid in ((0.1, 0.5), ()):
            with pytest.raises(DomainError, match=refusal):
                slippage_curve(uniswap_pool(*reserves), 0, 1, grid)

    def test_positive_and_increasing_for_all_protocols(self):
        for pool in FOUR_POOLS:
            series = slippage_curve(pool, 0, 1)
            assert all(y > 0.0 for y in series.y_values)
            assert all(
                a < b for a, b in zip(series.y_values, series.y_values[1:])
            )

    def test_amplification_flattens_the_curve(self):
        calm = slippage_curve(stableswap_pool((100.0, 100.0), 100.0), 0, 1)
        wild = slippage_curve(stableswap_pool((100.0, 100.0), 1.0), 0, 1)
        assert all(a < b for a, b in zip(calm.y_values, wild.y_values))

    def test_metadata(self):
        series = slippage_curve(
            stableswap_pool((100.0, 100.0), 10.0), 0, 1, (0.1, 0.2), pool_id="c"
        )
        assert series.pool_id == "c"
        assert series.protocol == "stableswap"
        assert series.hyperparameters == "amplification=10"


class TestDivergenceLoss:
    def test_weighted_closed_form(self):
        got = divergence_loss(uniswap_pool(100.0, 100.0), 1, -0.5)
        assert math.isclose(got, math.sqrt(0.5) / 0.75 - 1.0, rel_tol=1e-9)

    def test_stableswap_low_amplification_matches_constant_product(self):
        got = divergence_loss(stableswap_pool((100.0, 100.0), 1e-8), 1, -0.5)
        assert math.isclose(got, math.sqrt(0.5) / 0.75 - 1.0, abs_tol=1e-4)

    def test_amplification_deepens_the_loss(self):
        mild = divergence_loss(stableswap_pool((100.0, 100.0), 1.0), 1, 0.5)
        deep = divergence_loss(stableswap_pool((100.0, 100.0), 100.0), 1, 0.5)
        uni = divergence_loss(uniswap_pool(100.0, 100.0), 1, 0.5)
        assert abs(deep) > abs(mild) > abs(uni) > 0.0

    def test_oracle_anchored_pools_have_none(self):
        with pytest.raises(NotApplicable):
            divergence_loss(pmm_pool(100.0, 100.0, 1.0, 0.5), 1, 0.5)

    def test_numeraire_rejected(self):
        with pytest.raises(ValueError):
            divergence_loss(uniswap_pool(100.0, 100.0), 0, 0.5)


class TestDivergenceCurve:
    def test_constant_product_closed_forms(self):
        series = divergence_curve(uniswap_pool(100.0, 100.0), 1, (-0.5, 0.0, 0.21, 1.0))
        want = (
            math.sqrt(0.5) / 0.75 - 1.0,
            0.0,
            -1.0 / 221.0,
            math.sqrt(2.0) / 1.5 - 1.0,
        )
        for got, expected in zip(series.y_values, want):
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-15)

    def test_asymmetric_weights(self):
        pool = weighted_pool((100.0, 100.0), (0.2, 0.8))
        series = divergence_curve(pool, 1, (1.0,))
        assert math.isclose(series.y_values[0], 2.0**0.8 / 1.8 - 1.0, rel_tol=1e-9)

    def test_never_positive_on_the_default_grid(self):
        series = divergence_curve(uniswap_pool(100.0, 100.0), 1)
        assert series.x_values == default_shift_grid()
        assert all(y <= 0.0 for y in series.y_values)

    def test_unattainable_shifts_marked_as_failures(self):
        # at A = 1e8, shifts of -50% and +50% reach the constant-sum limits
        # -1/3 and -1/5; a shift of 1e300 would move a rebalanced reserve
        # out of the floating-point range
        series = divergence_curve(
            stableswap_pool((100.0, 100.0), 1e8), 1, (-0.5, 0.5, 1e300)
        )
        assert abs(series.y_values[0] - (-1.0 / 3.0)) <= 1e-3
        assert abs(series.y_values[1] - (-0.2)) <= 1e-3
        assert [idx for idx, _ in series.failures] == [2]
        assert math.isnan(series.y_values[2])
        assert "unattainable" in series.failures[0][1]

    def test_rejects_shifts_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            divergence_curve(uniswap_pool(100.0, 100.0), 1, (-1.0, 0.5))

    def test_oracle_anchored_pools_rejected(self):
        with pytest.raises(NotApplicable):
            divergence_curve(pmm_pool(100.0, 100.0, 1.0, 0.5), 1, (0.5,))

    @pytest.mark.parametrize(
        "pool",
        [
            stableswap_pool((100.0, 200.0), 10.0),
            stableswap_pool((100.0, 200.0, 300.0), 10.0),
            weighted_pool((100.0, 200.0, 300.0), (0.5, 0.25, 0.25)),
        ],
        ids=["stableswap-2", "stableswap-3", "weighted-3"],
    )
    @pytest.mark.parametrize("asset", [5, -1])
    def test_bad_asset_rejected_before_the_first_point(self, pool, asset):
        message = f"asset index {asset} out of range for {pool.n_assets} assets"
        with pytest.raises(IndexError, match=message):
            divergence_curve(pool, asset, ())


class TestConservationCrossSection:
    def test_constant_product_hyperbola(self):
        series = conservation_cross_section(
            uniswap_pool(100.0, 100.0), 0, 1, (50.0, 100.0, 200.0)
        )
        for x, y in zip(series.x_values, series.y_values):
            assert math.isclose(y, 10_000.0 / x, rel_tol=1e-9)

    def test_high_amplification_approaches_constant_sum(self):
        series = conservation_cross_section(
            stableswap_pool((100.0, 100.0), 1e8), 0, 1, (50.0,)
        )
        assert abs(series.y_values[0] - 150.0) <= 1e-3

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            conservation_cross_section(
                uniswap_pool(100.0, 100.0), 0, 1, (-1.0, 100.0)
            )

    def test_bad_asset_index_is_named(self):
        with pytest.raises(IndexError, match="asset index 5 out of range for 2 assets"):
            conservation_cross_section(uniswap_pool(100.0, 100.0), 0, 5, (50.0,))
        with pytest.raises(IndexError, match="asset index 5 out of range for 2 assets"):
            conservation_cross_section(uniswap_pool(100.0, 100.0), 5, 0)

    def test_default_grid_spans_a_decade_around_the_reserve(self):
        series = conservation_cross_section(uniswap_pool(100.0, 100.0), 0, 1)
        assert len(series.x_values) == 50
        assert math.isclose(series.x_values[0], 10.0, rel_tol=1e-12)
        assert math.isclose(series.x_values[-1], 1000.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the sweeps against the scalar path, bit for bit

reserve_sizes = st.floats(min_value=1.0, max_value=1e6)


@st.composite
def swept_pools(draw, families=("weighted", "stableswap", "pmm")):
    """(pool, input asset, output asset): 2- to 4-asset weighted and
    stableswap pools with any asset pair, and PMM pools in both
    orientations, displaced against the sweep's direction so that its
    trades cross the equilibrium seam."""
    family = draw(st.sampled_from(families))
    if family == "pmm":
        target1, target2 = draw(reserve_sizes), draw(reserve_sizes)
        pool = pmm_pool(
            target1,
            target2,
            target1 / target2 * draw(st.floats(0.5, 2.0)),
            draw(st.floats(0.01, 1.0)),
        )
        i, o = draw(st.sampled_from([(0, 1), (1, 0)]))
        displacement = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.5)))
        if displacement:
            pool, _, _ = apply_swap(pool, o, i, displacement * pool.reserves[o])
        return pool, i, o
    n = draw(st.sampled_from([2, 3, 4]))
    reserves = draw(st.lists(reserve_sizes, min_size=n, max_size=n))
    i, o = draw(st.permutations(range(n)))[:2]
    if family == "weighted":
        raw = draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n))
        weights = [w / math.fsum(raw) for w in raw[:-1]]
        weights.append(1.0 - math.fsum(weights))
        return weighted_pool(reserves, weights), i, o
    amplification = 10.0 ** draw(st.floats(-2.0, 4.0))
    return stableswap_pool(reserves, amplification), i, o


@st.composite
def stableswap_divergence_cases(draw):
    """(pool, appreciating asset): 2- to 4-asset stableswap pools with A up
    to 1e8, where the largest shifts have no rebalanced state."""
    n = draw(st.sampled_from([2, 3, 4]))
    reserves = draw(st.lists(reserve_sizes, min_size=n, max_size=n))
    pool = stableswap_pool(reserves, 10.0 ** draw(st.floats(-2.0, 8.0)))
    return pool, draw(st.integers(1, n - 1))


# price shifts, moderate and extreme
shifts = st.one_of(st.floats(-0.999, 10.0), st.sampled_from([1e10, 1e100, 1e300]))


def sorted_grid(values):
    return st.lists(values, min_size=1, max_size=40, unique=True).map(sorted)


def scalar_series(function, grid):
    """function over the grid as a sweep records it: an AmmError becomes NaN
    plus a (grid index, "<ErrorClass>: <message>") failure."""
    ys, failures = [], []
    for k, x in enumerate(grid):
        try:
            ys.append(function(x))
        except AmmError as exc:
            ys.append(math.nan)
            failures.append((k, f"{type(exc).__name__}: {exc}"))
    return ys, failures


def assert_bitwise_equal(got, want):
    # hex() shows every bit, the sign of zero included, and reads NaN as nan
    assert [y.hex() for y in got] == [float(y).hex() for y in want]


class TestSweepsMatchTheScalarPath:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(swept_pools(), sorted_grid(st.floats(1e-6, 0.95)))
    def test_slippage_curve(self, case, grid):
        pool, i, o = case
        r_in = pool.reserves[i]
        want, failures = scalar_series(lambda g: slippage(pool, i, o, g * r_in), grid)
        series = slippage_curve(pool, i, o, grid)
        assert_bitwise_equal(series.y_values, want)
        assert list(series.failures) == failures

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(swept_pools(), sorted_grid(st.floats(0.05, 20.0)))
    def test_conservation_cross_section(self, case, multiples):
        pool, i, o = case
        r_in, r_out = pool.reserves[i], pool.reserves[o]
        grid = sorted({m * r_in for m in multiples})
        want, failures = scalar_series(lambda g: r_out - swap_amount(pool, i, o, g - r_in), grid)
        series = conservation_cross_section(pool, i, o, grid)
        assert_bitwise_equal(series.y_values, want)
        assert list(series.failures) == failures

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(swept_pools(families=("weighted",)), sorted_grid(st.floats(-0.999, 10.0)))
    def test_weighted_divergence_curve(self, case, grid):
        pool, i, o = case
        asset = o or i  # any asset but the numeraire
        want, failures = scalar_series(lambda rho: divergence_loss(pool, asset, rho), grid)
        series = divergence_curve(pool, asset, grid)
        assert_bitwise_equal(series.y_values, want)
        assert list(series.failures) == failures == []

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(stableswap_divergence_cases(), sorted_grid(shifts))
    @example(case=(stableswap_pool((100.0, 100.0), 1e8), 1), grid=[-0.5, 4.0, 1e10, 1e300])
    def test_stableswap_divergence_curve(self, case, grid):
        pool, asset = case
        want, failures = scalar_series(lambda rho: divergence_loss(pool, asset, rho), grid)
        series = divergence_curve(pool, asset, grid)
        assert_bitwise_equal(series.y_values, want)
        assert list(series.failures) == failures

    @pytest.mark.parametrize(
        "reserves, asset",
        [((100.0, 100.0), 1), ((100.0, 150.0, 80.0), 2), ((100.0, 150.0, 80.0, 120.0), 3)],
    )
    def test_stableswap_divergence_failures(self, reserves, asset):
        # at A = 1e8 a shift of 1e300 takes a rebalanced reserve out of the
        # float range: a NaN row with the scalar path's reason
        pool = stableswap_pool(reserves, 1e8)
        grid = (-0.5, 4.0, 1e300)
        want, failures = scalar_series(lambda rho: divergence_loss(pool, asset, rho), grid)
        series = divergence_curve(pool, asset, grid)
        assert [k for k, _ in failures] == [2]
        assert failures[0][1].startswith("NoSolution: ")
        assert_bitwise_equal(series.y_values, want)
        assert list(series.failures) == failures

    @pytest.mark.parametrize(
        "reserves, i, o",
        [((100.0, 100.0), 0, 1), ((100.0, 150.0, 80.0), 2, 0), ((100.0, 150.0, 80.0, 120.0), 3, 1)],
    )
    def test_cross_section_failures(self, reserves, i, o):
        # reserves of 1e200 and more have no positive solution: NaN rows
        pool = stableswap_pool(reserves, 10.0)
        r_in, r_out = pool.reserves[i], pool.reserves[o]
        grid = (50.0, 100.0, 1e200, 1e300)
        want, failures = scalar_series(lambda g: r_out - swap_amount(pool, i, o, g - r_in), grid)
        series = conservation_cross_section(pool, i, o, grid)
        assert [k for k, _ in failures] == [2, 3]
        assert all(reason.startswith("NoSolution: ") for _, reason in failures)
        assert math.isnan(want[2]) and math.isnan(want[3])
        assert_bitwise_equal(series.y_values, want)
        assert list(series.failures) == failures

    def test_pmm_sweeps_cross_the_equilibrium_seam(self):
        # the strategy's displacement puts the sweep's input reserve below its
        # target; pin one such case in each orientation explicitly
        for i, o in ((0, 1), (1, 0)):
            pool, _, _ = apply_swap(pmm_pool(100.0, 80.0, 1.25, 0.3), o, i, 30.0)
            assert pool.reserves[i] < pool.invariant[i]
            grid = log_grid(1e-3, 0.95, 60)
            assert max(grid) * pool.reserves[i] > pool.invariant[i] - pool.reserves[i]
            want = [slippage(pool, i, o, g * pool.reserves[i]) for g in grid]
            assert_bitwise_equal(slippage_curve(pool, i, o, grid).y_values, want)


def kernel_calls(monkeypatch):
    """The trades that sweeps hand to swap_kernel's function from here on, in
    order: a series recomputed through the wrapped per-point form hands them
    over a second time."""
    calls = []
    original = analysis.swap_kernel

    def counting(*args):
        kernel = original(*args)
        return lambda x: calls.append(x) or kernel(x)

    monkeypatch.setattr(analysis, "swap_kernel", counting)
    return calls


class TestSweepGridEdges:
    """Grids at the edges of the sweeps' kernel comprehensions: every sweep
    equals the scalar path bit for bit, a failing point as NaN with the
    scalar path's error, and recomputes its series exactly where the
    comprehension meets a point that only the wrapped per-point form
    handles."""

    POOLS = {
        "uniswap": lambda s: uniswap_pool(100.0 * s, 100.0 * s),
        "weighted3": lambda s: weighted_pool((100.0 * s, 200.0 * s, 300.0 * s), (0.5, 0.3, 0.2)),
        "stableswap2": lambda s: stableswap_pool((100.0 * s, 120.0 * s), 10.0),
        "stableswap3": lambda s: stableswap_pool((100.0 * s, 120.0 * s, 80.0 * s), 10.0),
        "pmm": lambda s: pmm_pool(100.0 * s, 80.0 * s, 1.25, 0.3),
    }

    @pytest.mark.parametrize("name", list(POOLS))
    def test_one_point_grids(self, name, monkeypatch):
        pool = self.POOLS[name](1.0)
        r_in, r_out = pool.reserves[0], pool.reserves[1]
        calls = kernel_calls(monkeypatch)
        want = [slippage(pool, 0, 1, 0.3 * r_in)]
        assert_bitwise_equal(slippage_curve(pool, 0, 1, (0.3,)).y_values, want)
        want = [r_out - swap_amount(pool, 0, 1, 0.5 * r_in - r_in)]
        assert_bitwise_equal(conservation_cross_section(pool, 0, 1, (0.5 * r_in,)).y_values, want)
        if name != "pmm":
            want = [divergence_loss(pool, 1, 0.5)]
            assert_bitwise_equal(divergence_curve(pool, 1, (0.5,)).y_values, want)
        assert calls == [0.3 * r_in, 0.5 * r_in - r_in]

    @pytest.mark.parametrize("name", [*POOLS, "pmm-displaced"])
    def test_a_cross_section_point_at_the_input_reserve(self, name, monkeypatch):
        # the cross-section point at the input reserve itself; the displaced
        # PMM pool's curve pairs its reserve 1 with a reserve 2 one ulp off
        i, o = 0, 1
        if name == "pmm-displaced":
            pool, _, _ = apply_swap(pmm_pool(100.0, 80.0, 1.25, 0.3), 0, 1, 20.0)
            i, o = 1, 0
        else:
            pool = self.POOLS[name](1.0)
        r_in, r_out = pool.reserves[i], pool.reserves[o]
        calls = kernel_calls(monkeypatch)
        series = conservation_cross_section(pool, i, o, (0.5 * r_in, r_in, 2.0 * r_in))
        want = [r_out - swap_amount(pool, i, o, g - r_in) for g in series.x_values]
        assert series.y_values[1] == r_out
        assert_bitwise_equal(series.y_values, want)
        assert calls == [g - r_in for g in series.x_values]

    @pytest.mark.parametrize("name", list(POOLS))
    def test_a_trade_that_underflows_to_zero_has_zero_slippage(self, name, monkeypatch):
        pool = self.POOLS[name](1e-3)
        r_in = pool.reserves[0]
        grid = (5e-324, 0.5)
        assert grid[0] * r_in == 0.0
        calls = kernel_calls(monkeypatch)
        got = slippage_curve(pool, 0, 1, grid).y_values
        assert got[0] == 0.0
        assert_bitwise_equal(got, [slippage(pool, 0, 1, g * r_in) for g in grid])
        # the zero trade divides by zero in the comprehension; the wrapped
        # form recomputes the series from its first point
        assert calls == [0.0, 0.0, 0.5 * r_in]

    @pytest.mark.parametrize("name", ["uniswap", "weighted3"])
    def test_a_zero_output_is_a_nan_slippage_point(self, name, monkeypatch):
        # 1e-20 of the reserve does not move it: the output is exactly 0
        pool = self.POOLS[name](1e4)
        r_in = pool.reserves[0]
        with pytest.raises(InfeasibleTrade) as scalar:
            slippage(pool, 0, 1, 1e-20 * r_in)
        calls = kernel_calls(monkeypatch)
        series = slippage_curve(pool, 0, 1, (1e-20, 0.5))
        assert math.isnan(series.y_values[0])
        assert series.failures == ((0, f"InfeasibleTrade: {scalar.value}"),)
        assert_bitwise_equal(series.y_values[1:], [slippage(pool, 0, 1, 0.5 * r_in)])
        # the zero output divides by zero in the comprehension; _solved_points
        # recomputes the series from its first point
        assert calls == [1e-20 * r_in] * 2 + [0.5 * r_in]

    def test_a_slippage_past_the_float_range_is_a_nan_point(self, monkeypatch):
        # the realized rate at 0.95 of the reserve overflows against the spot
        # rate 1e308; the slippage at 0.01 is a value
        pool = uniswap_pool(1e300, 1e-8)
        with pytest.raises(DomainError) as scalar:
            slippage(pool, 0, 1, 0.95 * 1e300)
        calls = kernel_calls(monkeypatch)
        series = slippage_curve(pool, 0, 1, (0.01, 0.95))
        assert math.isnan(series.y_values[1])
        assert series.failures == ((1, f"DomainError: {scalar.value}"),)
        assert_bitwise_equal(series.y_values[:1], [slippage(pool, 0, 1, 0.01 * 1e300)])
        # the comprehension's inf sends the series through _solved_points
        assert calls == [0.01 * 1e300, 0.95 * 1e300] * 2

    def test_a_slippage_of_minus_1_is_a_nan_point(self, monkeypatch):
        # an output 1e300 times the input rounds (x_in/x_out)/E - 1 to -1.0
        monkeypatch.setattr(analysis, "swap_kernel", lambda *args: lambda x: 1e300 * x)
        series = slippage_curve(self.POOLS["uniswap"](1.0), 0, 1, (0.5,))
        with pytest.raises(DomainError) as scalar:
            quote.slippage_from_quote(50.0, 5e301, 1.0)
        assert math.isnan(series.y_values[0])
        assert series.failures == ((0, f"DomainError: {scalar.value}"),)

    def test_a_point_without_solution_recomputes_the_cross_section(self, monkeypatch):
        pool = self.POOLS["stableswap2"](1.0)
        r_in = pool.reserves[0]
        grid = (50.0, 100.0, 1e200, 1e300)
        calls = kernel_calls(monkeypatch)
        series = conservation_cross_section(pool, 0, 1, grid)
        assert [k for k, _ in series.failures] == [2, 3]
        # NoSolution at 1e200 stops the comprehension; _solved_points
        # recomputes every point and writes the NaN rows
        assert calls == [g - r_in for g in grid[:3]] + [g - r_in for g in grid]

    @pytest.mark.parametrize(
        "pool, grid",
        [
            # the output reserve's product overflows to inf
            (lambda: weighted_pool((1.0, 1e300), (0.9, 0.1)), (1e-5, 1.0, 2.0)),
            # ratio ** (w_i/w_o) raises OverflowError
            (lambda: weighted_pool((1.0, 1.0), (0.99, 0.01)), (1e-4, 1.0)),
            # the PMM curve's reserve 2 is inf
            (lambda: pmm_pool(1e300, 8e299, 1.25, 0.3), (1e285, 1e300)),
        ],
        ids=["weighted-product", "weighted-power", "pmm"],
    )
    def test_a_reverse_trade_past_the_float_range_is_a_nan_point(self, pool, grid, monkeypatch):
        # at the grid's low end the output reserve grows past the largest float
        pool = pool()
        r_in, r_out = pool.reserves[0], pool.reserves[1]
        with pytest.raises(DomainError) as scalar:
            swap_amount(pool, 0, 1, grid[0] - r_in)
        assert "takes output reserve" in str(scalar.value)
        calls = kernel_calls(monkeypatch)
        series = conservation_cross_section(pool, 0, 1, grid)
        assert math.isnan(series.y_values[0])
        assert series.failures == ((0, f"DomainError: {scalar.value}"),)
        want = [r_out - swap_amount(pool, 0, 1, g - r_in) for g in grid[1:]]
        assert_bitwise_equal(series.y_values[1:], want)
        # the comprehension stops at the first point; _solved_points
        # recomputes every point
        assert calls == [grid[0] - r_in] + [g - r_in for g in grid]

    @pytest.mark.parametrize("name", list(POOLS))
    @pytest.mark.parametrize(
        "grid, error",
        [((1e-300, 50.0), ReserveDepletion), ((50.0, math.inf), DomainError)],
        ids=["low-end", "high-end"],
    )
    def test_a_grid_end_outside_the_trade_guard_is_a_nan_point(
        self, name, grid, error, monkeypatch
    ):
        # 1e-300 - r_in rounds to -r_in, which empties the input reserve
        pool = self.POOLS[name](1.0)
        r_in, r_out = pool.reserves[0], pool.reserves[1]
        bad = 0 if error is ReserveDepletion else 1
        with pytest.raises(error) as scalar:
            swap_amount(pool, 0, 1, grid[bad] - r_in)
        calls = kernel_calls(monkeypatch)
        series = conservation_cross_section(pool, 0, 1, grid)
        assert math.isnan(series.y_values[bad])
        assert series.failures == ((bad, f"{error.__name__}: {scalar.value}"),)
        good = 1 - bad
        want = [r_out - swap_amount(pool, 0, 1, grid[good] - r_in)]
        assert_bitwise_equal([series.y_values[good]], want)
        assert calls == [g - r_in for g in grid[: bad + 1]] + [g - r_in for g in grid]

    @pytest.mark.parametrize("amplification", [0.3, 1.0])
    @pytest.mark.parametrize("i, o", [(0, 1), (1, 0)])
    def test_pmm_grids_cross_the_equilibrium_seam(self, amplification, i, o, monkeypatch):
        # the input reserve starts below its target, so the trades cross the
        # seam; at A = 1 the r1 >= C1 branch is the constant-product limit
        pool, _, _ = apply_swap(pmm_pool(100.0, 80.0, 1.25, amplification), o, i, 30.0)
        r_in, r_out, target = pool.reserves[i], pool.reserves[o], pool.invariant[i]
        assert r_in < target
        calls = kernel_calls(monkeypatch)
        sizes = log_grid(1e-3, 0.95, 60)
        assert sizes[-1] * r_in > target - r_in
        want = [slippage(pool, i, o, g * r_in) for g in sizes]
        assert_bitwise_equal(slippage_curve(pool, i, o, sizes).y_values, want)
        grid = log_grid(0.5 * r_in, 3.0 * target, 60)
        want = [r_out - swap_amount(pool, i, o, g - r_in) for g in grid]
        assert_bitwise_equal(conservation_cross_section(pool, i, o, grid).y_values, want)
        assert calls == [g * r_in for g in sizes] + [g - r_in for g in grid]

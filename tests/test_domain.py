"""The domain rules that `core`, the pool kernels, `analysis`, the numeric
engine and the CLI share through `ammlab.quote`: each is stated once, every
public kernel that takes reserves refuses a non-finite one, every swap
kernel refuses a trade whose input reserve leaves (0, inf) in the same
words, and every slippage reads a zero trade and a zero output alike."""

from __future__ import annotations

import ast
import builtins
import math
import random
import re
from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import permutations
from pathlib import Path

import pytest

from ammlab import analysis, bonding, numerics, pmm, quote, stableswap, weighted
from ammlab.core import (
    add_liquidity_proportional,
    apply_swap,
    balancer_pool,
    implicit_conservation,
    pmm_pool,
    slippage,
    spot_rate,
    stableswap_pool,
    swap_amount,
    uniswap_pool,
    weighted_pool,
)
from ammlab.errors import AmmError, DomainError, IdenticalAssets, InfeasibleTrade, ReserveDepletion
from ammlab.pmm import PMMParams

W = (0.5, 0.5)
PMM = PMMParams(oracle_price=1.0, amplification=0.5, target1=100.0, target2=100.0)
# the (100, 100) constant-product law, for the generic engine
UNI_Z = implicit_conservation(uniswap_pool(100.0, 100.0))

# every public kernel function that takes reserves, as reserves -> call
KERNELS = {
    "weighted_conservation": lambda r: weighted.weighted_conservation(r, W),
    "weighted_spot_rate": lambda r: weighted.weighted_spot_rate(r, W, 0, 1),
    "weighted_swap": lambda r: weighted.weighted_swap(r, W, 0, 1, 1.0),
    "weighted_slippage": lambda r: weighted.weighted_slippage(r, W, 0, 1, 1.0),
    "weighted_slippage zero trade": lambda r: weighted.weighted_slippage(r, W, 0, 1, 0.0),
    "weighted_rebalanced_reserves": lambda r: weighted.weighted_rebalanced_reserves(r, W, 1, 0.5),
    "solve_invariant": lambda r: stableswap.solve_invariant(r, 10.0),
    "defining_residual": lambda r: stableswap.defining_residual(r, 200.0, 10.0),
    "stableswap.conservation_residual": lambda r: stableswap.conservation_residual(r, 200.0, 10.0),
    "stableswap_spot_rate": lambda r: stableswap.stableswap_spot_rate(r, 200.0, 10.0, 0, 1),
    "stableswap_swap": lambda r: stableswap.stableswap_swap(r, 200.0, 10.0, 0, 1, 1.0),
    "stableswap_slippage": lambda r: stableswap.stableswap_slippage(r, 200.0, 10.0, 0, 1, 1.0),
    "stableswap_slippage zero trade": lambda r: stableswap.stableswap_slippage(
        r, 200.0, 10.0, 0, 1, 0.0
    ),
    "stableswap_divergence_kernel": lambda r: stableswap.stableswap_divergence_kernel(
        r, 200.0, 10.0, 1
    ),
    "stableswap_divergence_loss": lambda r: stableswap.stableswap_divergence_loss(
        r, 200.0, 10.0, 1, 0.5
    ),
    "pmm_spot_rate": lambda r: pmm.pmm_spot_rate(*r, PMM),
    "conservation_gap": lambda r: pmm.conservation_gap(*r, PMM),
    "pmm.conservation_residual": lambda r: pmm.conservation_residual(*r, PMM),
    "pmm_swap": lambda r: pmm.pmm_swap(*r, PMM, 1.0),
    "pmm_slippage": lambda r: pmm.pmm_slippage(*r, PMM, 1.0),
    "pmm_slippage zero trade": lambda r: pmm.pmm_slippage(*r, PMM, 0.0),
}


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(KERNELS))
def test_kernels_refuse_non_finite_reserves(name, bad, position):
    reserves = [100.0, 100.0]
    reserves[position] = bad
    message = f"^reserves must be finite and positive, got {re.escape(str(tuple(reserves)))}$"
    with pytest.raises(ValueError, match=message):
        KERNELS[name](tuple(reserves))


@pytest.mark.parametrize(
    "zero_trade",
    [
        lambda i, o: weighted.weighted_slippage((100.0, 100.0), W, i, o, 0.0),
        lambda i, o: stableswap.stableswap_slippage((100.0, 100.0), 200.0, 10.0, i, o, 0.0),
    ],
    ids=["weighted_slippage", "stableswap_slippage"],
)
def test_zero_trade_slippage_judges_the_asset_pair(zero_trade):
    assert zero_trade(0, 1) == 0.0
    with pytest.raises(IdenticalAssets, match="^swap needs distinct input and output assets$"):
        zero_trade(1, 1)
    with pytest.raises(IndexError, match="^asset index 2 out of range for 2 assets$"):
        zero_trade(0, 2)


# every slippage that takes an asset pair, as (i, o, x_in) -> its slippage
# on a (100, 100) pool
SLIPPAGES = {
    "slippage uniswap": lambda i, o, x: slippage(uniswap_pool(100.0, 100.0), i, o, x),
    "slippage stableswap": lambda i, o, x: slippage(stableswap_pool((100.0, 100.0), 10.0), i, o, x),
    "slippage pmm": lambda i, o, x: slippage(pmm_pool(100.0, 100.0, 1.0, 0.5), i, o, x),
    "weighted_slippage": lambda i, o, x: weighted.weighted_slippage((100.0, 100.0), W, i, o, x),
    "stableswap_slippage": lambda i, o, x: stableswap.stableswap_slippage(
        (100.0, 100.0), 200.0, 10.0, i, o, x
    ),
}


@pytest.mark.parametrize("x_in", [0.0, 1.0])
@pytest.mark.parametrize("name", list(SLIPPAGES))
def test_identical_assets_read_alike_at_any_trade(name, x_in):
    # a zero trade takes the swap's checks, and its words
    with pytest.raises(IdenticalAssets, match="^swap needs distinct input and output assets$"):
        SLIPPAGES[name](1, 1, x_in)


@pytest.mark.parametrize("call", [slippage, apply_swap])
def test_zero_output_is_refused_in_one_wording(call):
    # the input 1e-30 rounds away against a reserve of 1e150; the spot rate
    # is 1e300 (on (1e300, 1e-300) it is 1e600, refused before the trade)
    message = "^input 1e-30 produced zero output; slippage undefined$"
    with pytest.raises(InfeasibleTrade, match=message):
        call(uniswap_pool(1e150, 1e-150), 0, 1, 1e-30)


@pytest.mark.parametrize(
    "call",
    [
        lambda r, x: slippage(uniswap_pool(*r), 0, 1, x),
        lambda r, x: apply_swap(uniswap_pool(*r), 0, 1, x),
        lambda r, x: weighted.weighted_slippage(r, W, 0, 1, x),
        lambda r, x: analysis.slippage_curve(uniswap_pool(*r), 0, 1, ()),
        lambda r, x: spot_rate(uniswap_pool(*r), 0, 1),
        lambda r, x: weighted.weighted_spot_rate(r, W, 0, 1),
        lambda r, x: add_liquidity_proportional(uniswap_pool(*r), 0.1),
    ],
    ids=[
        "slippage", "apply_swap", "weighted_slippage", "slippage_curve", "spot_rate",
        "weighted_spot_rate", "add_liquidity_proportional",
    ],
)
@pytest.mark.parametrize(
    "reserves, x_in, rate", [((1e-200, 1e200), 1e-201, "0.0"), ((1e200, 1e-200), 1e199, "inf")]
)
def test_a_spot_rate_past_the_float_range_is_refused_in_one_wording(call, reserves, x_in, rate):
    # the rates 1e-400 and 1e400 under- and overflow, and each is refused
    # where the curve forms it: at a nonzero trade and at a zero one alike
    message = f"^spot rate {rate} is outside the float range; slippage undefined$"
    for x in (x_in, 0.0):
        with pytest.raises(DomainError, match=message):
            call(reserves, x)


@pytest.mark.parametrize(
    "x_in, x_out, rate, s",
    [(1e200, 1e-150, 1.0, "inf"), (1e-200, 1e150, 1.0, "-1.0"), (9.5e299, 4.8e-9, 1e308, "inf")],
)
def test_a_slippage_outside_its_range_is_refused(x_in, x_out, rate, s):
    # S > -1 for any finite positive quote; -1.0 and inf are rounding
    message = (
        f"realized rate {x_in!r}/{x_out!r} against spot rate {rate!r} gives slippage {s},"
        " outside (-1, inf)"
    )
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        quote.slippage_from_quote(x_in, x_out, rate)


@pytest.mark.parametrize(
    "call",
    [lambda p, x: slippage(p, 0, 1, x), lambda p, x: apply_swap(p, 0, 1, x)],
    ids=["slippage", "apply_swap"],
)
def test_a_swap_whose_slippage_overflows_is_refused(call):
    # the spot rate 1e308 is a value, but 9.5e299 in for about 4.9e-9 out
    # is a realized rate past the float range
    message = (
        "realized rate 9.5e+299/4.871794871794871e-09 against spot rate 1e+308 gives"
        " slippage inf, outside (-1, inf)"
    )
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(uniswap_pool(1e300, 1e-8), 9.5e299)


# PMM pools with an oracle price of 7.6494e-319, whose reciprocal overflows,
# as (pool, their spot rate 0 -> 1): one off equilibrium, whose rate
# underflows to 0.0, and one at equilibrium, whose rate is the price
_TINY_PRICE = PMMParams(7.6494e-319, 0.98875, 1.04e-33, 1.34e92)
RECIPROCAL_POOLS = {
    "rate-0.0": (lambda: pmm_pool(1.04e-33, 1.34e92, 7.6494e-319, 0.98875, reserves=(
        1.16e-36, pmm.reserve2_given_reserve1(1.16e-36, _TINY_PRICE))), "0.0"),
    "subnormal-price": (lambda: pmm_pool(1.04e-33, 1.34e92, 7.6494e-319, 0.98875), "7.6494e-319"),
}
# every call that quotes such a pool 1 -> 0 or divides by its rate, as
# (pool -> call, whether it inverts the spot rate or the oracle price)
RECIPROCAL_CALLS = {
    "spot_rate": (lambda p: spot_rate(p, 1, 0), "spot"),
    "swap_amount": (lambda p: swap_amount(p, 1, 0, 1e80), "price"),
    "slippage": (lambda p: slippage(p, 1, 0, 1e80), "price"),
    "apply_swap": (lambda p: apply_swap(p, 1, 0, 1e80), "spot"),
    "slippage_curve": (lambda p: analysis.slippage_curve(p, 1, 0), "price"),
    "conservation_cross_section": (
        lambda p: analysis.conservation_cross_section(p, 1, 0), "price"
    ),
    "add_liquidity_proportional": (lambda p: add_liquidity_proportional(p, 0.1), "spot"),
}


@pytest.mark.parametrize("pool", list(RECIPROCAL_POOLS))
@pytest.mark.parametrize("name", list(RECIPROCAL_CALLS))
def test_a_rate_without_a_reciprocal_in_the_float_range_is_refused(name, pool):
    # these raised a bare ZeroDivisionError, or ValueError for the mirrored
    # oracle price inf, or returned inf or a receipt with a NaN deviation
    make_pool, spot = RECIPROCAL_POOLS[pool]
    call, inverts = RECIPROCAL_CALLS[name]
    rate = spot if inverts == "spot" else "7.6494e-319"
    message = f"^rate {rate} has no reciprocal in the float range$"
    if rate == "0.0":
        # the rate 0 -> 1 that underflows is refused where it is formed
        message = "^spot rate 0.0 is outside the float range; slippage undefined$"
    with pytest.raises(DomainError, match=message):
        call(make_pool())


# PMM pools whose curve leaves the float range: at reserve 1e160 the
# square (C2/r2)^2 of the spot rate 0 -> 1 overflows, though the rate, 1e120,
# does not; at reserve 1.5 the swap's c = -P*A*C2^2 overflows to -inf
_SQUARE = PMMParams(1e-200, 1.0, 1.0, 1e200)
_C_PAST_RANGE = PMMParams(1e10, 0.5, 1.0, 1e150)


def _square_pool():
    return pmm_pool(1.0, 1e200, 1e-200, 1.0, reserves=(
        1e160, pmm.reserve2_given_reserve1(1e160, _SQUARE)))


# every call that reaches such a value, as (call, the reserve it names)
CURVE_CALLS = {
    "spot_rate": (lambda: spot_rate(_square_pool(), 0, 1), 1e160),
    "spot_rate reverse": (lambda: spot_rate(_square_pool(), 1, 0), 1e160),
    "pmm_spot_rate": (lambda: pmm.pmm_spot_rate(*_square_pool().reserves, _SQUARE), 1e160),
    "slippage rate": (lambda: slippage(_square_pool(), 0, 1, 1e150), 1e160),
    "apply_swap rate": (lambda: apply_swap(_square_pool(), 0, 1, 1e150), 1e160),
    "slippage_curve": (lambda: analysis.slippage_curve(_square_pool(), 0, 1), 1e160),
    "swap_amount": (lambda: swap_amount(pmm_pool(1.0, 1e150, 1e10, 0.5), 0, 1, 0.5), 1.5),
    "slippage": (lambda: slippage(pmm_pool(1.0, 1e150, 1e10, 0.5), 0, 1, 0.5), 1.5),
    "apply_swap": (lambda: apply_swap(pmm_pool(1.0, 1e150, 1e10, 0.5), 0, 1, 0.5), 1.5),
    "pmm_swap": (lambda: pmm.pmm_swap(1.0, 1e150, _C_PAST_RANGE, 0.5), 1.5),
    "pmm_slippage": (lambda: pmm.pmm_slippage(1.0, 1e150, _C_PAST_RANGE, 0.5), 1.5),
    "quadratic_branch_reserve2": (
        lambda: pmm.quadratic_branch_reserve2(1.5, _C_PAST_RANGE), 1.5
    ),
    "reserve2_given_reserve1": (lambda: pmm.reserve2_given_reserve1(1.5, _C_PAST_RANGE), 1.5),
    # the r1 < C1 branch, and the constant-product limit's P*C2^2
    "reserve2_given_reserve1 below C1": (
        lambda: pmm.reserve2_given_reserve1(1.0, PMMParams(1e-10, 0.5, 1e300, 1.0)), 1.0
    ),
    "reserve2_given_reserve1 at A = 1": (
        lambda: pmm.reserve2_given_reserve1(1.0, PMMParams(1e10, 1.0, 1.0, 1e200)), 1.0
    ),
}


@pytest.mark.parametrize("name", list(CURVE_CALLS))
def test_a_pmm_curve_value_past_the_float_range_is_refused(name):
    # these raised a bare OverflowError, or returned an output of inf, a
    # slippage of -1.0 or a reserve 2 of -inf or inf
    call, reserve = CURVE_CALLS[name]
    message = f"the PMM curve at reserve {reserve!r} leaves the floating-point range"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_a_spot_rate_of_0_is_refused_on_every_family():
    # the PMM rate 0 -> 1 off equilibrium underflows to 0.0, as a weighted
    # pool's and a bonding curve's price can
    message = "^spot rate 0.0 is outside the float range; slippage undefined$"
    for call in (
        lambda: spot_rate(RECIPROCAL_POOLS["rate-0.0"][0](), 0, 1),
        lambda: pmm.pmm_spot_rate(1.16e-36, 1.34e92, _TINY_PRICE),
        lambda: spot_rate(uniswap_pool(1e-200, 1e200), 0, 1),
        lambda: bonding.bonding_price(bonding.bonding_curve(1e-200, 1e200, 0.5)),
    ):
        with pytest.raises(DomainError, match=message):
            call()


def _output_overflow(x_in, r_out):
    reserve = re.escape(str(r_out))
    return f"^input {x_in} takes output reserve {reserve} past the floating-point range$"


@pytest.mark.parametrize("call", [swap_amount, slippage, apply_swap])
@pytest.mark.parametrize(
    "make_pool, x_in, r_out",
    [
        (lambda: uniswap_pool(100.0, 1e305), -99.99999, 1e305),
        # (r_in / r_in')^(w_i / w_o) overflows
        (lambda: balancer_pool((100.0, 100.0), (0.99, 0.01)), -99.99999, 100.0),
        # the output is finite, the output reserve plus it is not
        (lambda: uniswap_pool(100.0, 1e308), -50.0, 1e308),
        (lambda: pmm_pool(100.0, 1e300, 1e-298, 0.5), -99.9999999, 1e300),
    ],
    ids=["uniswap", "weighted-power", "uniswap-sum", "pmm"],
)
def test_a_reverse_trade_whose_output_overflows_is_refused(call, make_pool, x_in, r_out):
    with pytest.raises(DomainError, match=_output_overflow(x_in, r_out)):
        call(make_pool(), 0, 1, x_in)


def test_the_kernels_refuse_an_overflowing_output_reserve():
    with pytest.raises(DomainError, match=_output_overflow(-99.99999, 100.0)):
        weighted.weighted_swap((100.0, 100.0), (0.99, 0.01), 0, 1, -99.99999)
    params = PMMParams(oracle_price=1e-298, amplification=0.5, target1=100.0, target2=1e300)
    with pytest.raises(DomainError, match=_output_overflow(-99.9999999, 1e300)):
        pmm.pmm_swap(100.0, 1e300, params, -99.9999999)


@pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("trade", [bonding.bonding_buy, bonding.bonding_sell])
def test_bonding_refuses_a_non_finite_trade(trade, amount):
    with pytest.raises(DomainError, match=f"^trade size must be finite, got {amount}$"):
        trade(bonding.bonding_curve(100.0, 10.0, 0.5), amount)


@pytest.mark.parametrize(
    "curve, deposit, message",
    [
        ((1e308, 10.0, 0.5), 1.7e308, "input 1.7e+308 takes reserve 1e+308 "),
        ((1e-300, 1e300, 1.0), 1.0, "minting inf takes supply 1e+300 "),
    ],
    ids=["reserve", "supply"],
)
def test_bonding_refuses_a_buy_past_the_float_range(curve, deposit, message):
    # a finite deposit that takes the reserve, or mints enough to take the
    # supply, past the largest float
    with pytest.raises(DomainError, match=f"^{re.escape(message)}past the floating-point range$"):
        bonding.bonding_buy(bonding.bonding_curve(*curve), deposit)


@pytest.mark.parametrize(
    "loss",
    [
        lambda rho: analysis.divergence_loss(uniswap_pool(100.0, 100.0), 1, rho),
        lambda rho: weighted.weighted_divergence_loss((0.5, 0.5), 1, rho),
        lambda rho: stableswap.stableswap_divergence_loss((100.0, 100.0), 200.0, 10.0, 1, rho),
        lambda rho: stableswap.stableswap_divergence_loss(
            (100.0, 100.0, 100.0), 300.0, 10.0, 2, rho
        ),
        lambda rho: stableswap.stableswap_divergence_loss((100.0,) * 4, 400.0, 10.0, 3, rho),
        lambda rho: numerics.generic_divergence_loss(UNI_Z, (100.0, 100.0), (100.0,), 1, rho),
        lambda rho: numerics.solve_rebalance(UNI_Z, (100.0, 100.0), (100.0,), 1, rho),
        lambda rho: weighted.weighted_rebalanced_reserves((100.0, 100.0), W, 1, rho),
    ],
    ids=[
        "uniswap", "weighted", "stableswap-2", "stableswap-3", "stableswap-4", "generic",
        "solve_rebalance", "weighted_rebalanced_reserves",
    ],
)
def test_divergence_loss_refuses_a_nan_price_shift(loss):
    # an infinite shift is refused before any arithmetic, which would give a
    # NaN loss, (inf, nan) reserves, or a solver failure
    with pytest.raises(DomainError, match="^price shift must exceed -1, got nan$"):
        loss(math.nan)
    with pytest.raises(DomainError, match="^price shift must be finite, got inf$"):
        loss(math.inf)


@pytest.mark.parametrize(
    "pool",
    [uniswap_pool(100.0, 100.0), stableswap_pool((100.0, 100.0, 100.0), 10.0)],
    ids=["uniswap", "stableswap"],
)
def test_a_divergence_sweep_refuses_an_infinite_shift_first(pool):
    # the shift grid's domain is -1 < g < inf, so inf is refused by the grid
    # check, as a ValueError, before the first point
    with pytest.raises(ValueError, match=r"^price shifts must be finite and exceed -1, got inf$"):
        analysis.divergence_curve(pool, 1, [0.5, math.inf])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "helper",
    [pmm.reserve2_given_reserve1, pmm.quadratic_branch_reserve2],
    ids=["reserve2_given_reserve1", "quadratic_branch_reserve2"],
)
def test_pmm_post_trade_helpers_refuse_a_non_finite_reserve(helper, bad):
    with pytest.raises(ValueError, match=f"^reserve must stay finite, got {bad}$"):
        helper(bad, PMM)


# every swap kernel, closed-form and generic, as x_in -> output of asset 1
# for x_in of asset 0 on a (100, 100) pool
SWAPS = {
    "weighted_swap": lambda x: weighted.weighted_swap((100.0, 100.0), W, 0, 1, x),
    "stableswap_swap": lambda x: stableswap.stableswap_swap(
        (100.0, 100.0), 200.0, 10.0, 0, 1, x
    ),
    "pmm_swap": lambda x: pmm.pmm_swap(100.0, 100.0, PMM, x),
    "implicit_swap": lambda x: numerics.implicit_swap(UNI_Z, (100.0, 100.0), (100.0,), 0, 1, x),
}


@pytest.mark.parametrize(
    "x_in, error, message",
    [
        (math.nan, DomainError, "trade size must be finite, got nan"),
        (math.inf, DomainError, "trade size must be finite, got inf"),
        (-math.inf, DomainError, "trade size must be finite, got -inf"),
        (-150.0, ReserveDepletion, "input -150.0 exhausts reserve 100.0"),
    ],
    ids=["nan", "inf", "-inf", "exhausting"],
)
@pytest.mark.parametrize("name", list(SWAPS))
def test_swap_kernels_refuse_a_trade_alike(name, x_in, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        SWAPS[name](x_in)


OVERFLOW = r"^input 1e\+308 takes reserve 1e\+308 past the floating-point range$"


@pytest.mark.parametrize("call", [swap_amount, slippage, apply_swap])
def test_an_overflowing_weighted_trade_is_refused(call):
    # the input reserve overflows to inf: before, the quote drained the
    # whole output reserve
    with pytest.raises(DomainError, match=OVERFLOW):
        call(uniswap_pool(1e308, 100.0), 0, 1, 1e308)


def test_an_overflowing_implicit_swap_is_refused():
    pool = uniswap_pool(1e308, 100.0)
    with pytest.raises(DomainError, match=OVERFLOW):
        numerics.implicit_swap(
            implicit_conservation(pool), pool.reserves, pool.invariant, 0, 1, 1e308
        )


# the generic engine's entry points that take reserves, as (law, reserves) -> call
ENGINE = {
    "numeric_spot_rate": lambda z, r: numerics.numeric_spot_rate(z, r, (1e4,), 0, 1),
    "implicit_swap": lambda z, r: numerics.implicit_swap(z, r, (1e4,), 0, 1, 1.0),
    "solve_rebalance": lambda z, r: numerics.solve_rebalance(z, r, (1e4,), 1, 0.5),
    "generic_divergence_loss": lambda z, r: numerics.generic_divergence_loss(z, r, (1e4,), 1, 0.5),
}


@pytest.mark.parametrize(
    "reserves",
    [(math.nan, 100.0), (math.inf, 100.0), (100.0, -100.0), (100.0, 0.0)],
    ids=["nan", "inf", "negative", "zero"],
)
@pytest.mark.parametrize(
    "law",
    # a law that evaluates anywhere, and the built-in (100, 100) constant-product law
    [numerics.ImplicitConservation(lambda r, c: r[0] * r[1] - c[0], 2), UNI_Z],
    ids=["permissive", "built-in"],
)
@pytest.mark.parametrize("name", list(ENGINE))
def test_the_generic_engine_judges_the_callers_reserves(name, law, reserves):
    # the reserves are judged before any difference probe or bracket is
    # built from them, so the message names the caller's reserves, whatever
    # the law accepts
    message = f"^reserves must be finite and positive, got {re.escape(str(reserves))}$"
    with pytest.raises(ValueError, match=message):
        ENGINE[name](law, reserves)


@pytest.mark.parametrize("name", list(ENGINE))
def test_the_generic_engine_judges_the_reserve_count_before_the_law(name):
    # three reserves for a 2-asset stableswap law, which would evaluate on
    # them: each entry point refuses them before the law sees them
    law = implicit_conservation(stableswap_pool((100.0, 120.0), 10.0))
    seen = []

    def evaluate(reserves, invariant):
        seen.append(reserves)
        return law.evaluate(reserves, invariant)

    with pytest.raises(ValueError, match="^expected 2 reserves, got 3$"):
        ENGINE[name](numerics.ImplicitConservation(evaluate, 2), (100.0, 120.0, 90.0))
    assert seen == []


def test_the_generic_engine_words_its_rules_as_quote():
    with pytest.raises(IdenticalAssets, match="^swap needs distinct input and output assets$"):
        numerics.implicit_swap(UNI_Z, (100.0, 100.0), (100.0,), 1, 1, 10.0)
    with pytest.raises(ValueError, match="^a pool needs at least two assets$"):
        numerics.ImplicitConservation(lambda r, inv: 0.0, 1)


@pytest.mark.parametrize(
    "make_pool, fraction, error, message",
    [
        (lambda: uniswap_pool(1e300, 1e300), 1e10, DomainError,
         "fraction 10000000000.0 scales 1e+300 to inf, outside (0, inf)"),
        (lambda: pmm_pool(1e300, 1e300, 1.0, 0.5), 1e10, DomainError,
         "fraction 10000000000.0 scales 1e+300 to inf, outside (0, inf)"),
        # the reserves stay in range, the equilibrium target 1e307 does not
        (lambda: pmm_pool(1e307, 1.0, 1e10, 1e-6, reserves=(1e306, 9.000080999999999e296)),
         19.0, DomainError, "fraction 19.0 scales 1e+307 to inf, outside (0, inf)"),
        # the share supply, 1e300 after a first change, leaves the range
        (lambda: add_liquidity_proportional(uniswap_pool(1e-300, 1e-300), 1e300)[0], 1e300,
         DomainError, "fraction 1e+300 scales 1e+300 to inf, outside (0, inf)"),
        (lambda: uniswap_pool(1e-310, 1e-310), -1.0 + 2.0**-53, ReserveDepletion,
         "fraction -0.9999999999999999 scales 1e-310 to 0.0, outside (0, inf)"),
        # the reserves stay in range; their spot rate 1e-400 underflows to 0.0
        (lambda: uniswap_pool(1e-200, 1e200), 0.1, DomainError,
         "spot rate 0.0 is outside the float range; slippage undefined"),
        # the spot rate's square overflows
        (_square_pool, 0.1, DomainError,
         "the PMM curve at reserve 1e+160 leaves the floating-point range"),
    ],
    ids=["uniswap", "pmm", "pmm-target", "share-supply", "underflow", "rate-0.0", "pmm-rate"],
)
def test_liquidity_leaving_the_float_range_is_refused(make_pool, fraction, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        add_liquidity_proportional(make_pool(), fraction)


@pytest.mark.parametrize("fraction", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_a_non_finite_fraction_is_refused(fraction):
    # judged before the bound at -1, as a trade's size is
    with pytest.raises(DomainError, match=f"^fraction must be finite, got {fraction}$"):
        add_liquidity_proportional(uniswap_pool(100.0, 100.0), fraction)


@pytest.mark.parametrize("weights", [(0.0, 0.5, 0.5), (1.0, 1e-13)], ids=["zero", "one"])
def test_a_weight_of_exactly_zero_or_one_is_refused(weights):
    # each set passes every other rule: (1.0, 1e-13) sums to 1 within the
    # tolerance of the sum rule
    with pytest.raises(ValueError, match=re.escape(f"every weight must lie in (0, 1), got {weights}")):
        quote.check_weights(weights)


# every public stableswap function that takes an invariant D, as D -> call
INVARIANT_CALLS = {
    "curve_constants": lambda d: stableswap.curve_constants(d, 10.0, 2),
    "stableswap_spot_rate": lambda d: stableswap.stableswap_spot_rate((100.0, 100.0), d, 10.0, 0, 1),
    "stableswap_spot_rate same asset": lambda d: stableswap.stableswap_spot_rate(
        (100.0, 100.0), d, 10.0, 1, 1
    ),
    "stableswap_swap": lambda d: stableswap.stableswap_swap((100.0, 100.0), d, 10.0, 0, 1, 1.0),
    "stableswap_slippage": lambda d: stableswap.stableswap_slippage(
        (100.0, 100.0), d, 10.0, 0, 1, 1.0
    ),
    "stableswap_divergence_kernel": lambda d: stableswap.stableswap_divergence_kernel(
        (100.0, 100.0), d, 10.0, 1
    ),
    "stableswap_divergence_loss": lambda d: stableswap.stableswap_divergence_loss(
        (100.0, 100.0), d, 10.0, 1, 0.5
    ),
    "stableswap.conservation_residual": lambda d: stableswap.conservation_residual(
        (100.0, 100.0), d, 10.0
    ),
}


@pytest.mark.parametrize("d", [-1.0, 0.0, -0.0, -200.0, -math.inf, math.nan])
@pytest.mark.parametrize("name", list(INVARIANT_CALLS))
def test_a_non_positive_invariant_is_refused(name, d):
    # the balanced spot rate returned 1.0 and curve_constants negative
    # constants; a NaN D was refused as leaving the float range
    with pytest.raises(DomainError, match=f"^stableswap invariant D must be positive, got {d}$"):
        INVARIANT_CALLS[name](d)


@pytest.mark.parametrize(
    "call",
    [
        lambda: stableswap.stableswap_spot_rate((math.nan, 100.0), -1.0, 10.0, 0, 1),
        lambda: stableswap.stableswap_divergence_kernel((), -1.0, 10.0, 1),
    ],
    ids=["spot-rate", "divergence-kernel"],
)
def test_the_invariant_is_judged_before_the_reserves(call):
    with pytest.raises(DomainError, match="^stableswap invariant D must be positive, got -1.0$"):
        call()


# every public stableswap function that takes an amplification, as
# (reserves, D, A) -> call
AMPLIFICATION_CALLS = {
    "solve_invariant": lambda r, d, a: stableswap.solve_invariant(r, a),
    "curve_constants": lambda r, d, a: stableswap.curve_constants(d, a, len(r)),
    "stableswap.conservation_residual": lambda r, d, a: stableswap.conservation_residual(r, d, a),
    "defining_residual": lambda r, d, a: stableswap.defining_residual(r, d, a),
    "stableswap_spot_rate": lambda r, d, a: stableswap.stableswap_spot_rate(r, d, a, 0, 1),
    "stableswap_spot_rate same asset": lambda r, d, a: stableswap.stableswap_spot_rate(
        r, d, a, 1, 1
    ),
    "stableswap_swap": lambda r, d, a: stableswap.stableswap_swap(r, d, a, 0, 1, 10.0),
    "stableswap_slippage": lambda r, d, a: stableswap.stableswap_slippage(r, d, a, 0, 1, 10.0),
    "stableswap_divergence_kernel": lambda r, d, a: stableswap.stableswap_divergence_kernel(
        r, d, a, 1
    ),
    "stableswap_divergence_loss": lambda r, d, a: stableswap.stableswap_divergence_loss(
        r, d, a, 1, 0.5
    ),
}
# the ones that also take D, and judge it first
_JUDGE_D = ("curve_constants", "stableswap_spot_rate", "stableswap_spot_rate same asset",
            "stableswap_swap", "stableswap_slippage", "stableswap_divergence_kernel",
            "stableswap_divergence_loss", "stableswap.conservation_residual")


@pytest.mark.parametrize("a", [0.0, -0.0, -0.001, -math.inf, math.inf, math.nan])
@pytest.mark.parametrize("name", list(AMPLIFICATION_CALLS))
def test_a_stableswap_amplification_outside_its_domain_is_refused(name, a):
    # at A = 0 the swap divided by zero, at A = -0.001 it returned -289,788.86,
    # the divergence loss at A = 0 was positive and the residual at A = NaN NaN
    message = f"stableswap amplification must be finite and positive, got {a}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AMPLIFICATION_CALLS[name]((100.0, 200.0), 290.0, a)


@pytest.mark.parametrize("name", [k for k in AMPLIFICATION_CALLS if k != "curve_constants"])
def test_the_reserves_are_judged_before_the_amplification(name):
    message = r"^reserves must be finite and positive, got \(nan, 200.0\)$"
    with pytest.raises(ValueError, match=message):
        AMPLIFICATION_CALLS[name]((math.nan, 200.0), 290.0, 0.0)


@pytest.mark.parametrize("name", _JUDGE_D)
def test_the_invariant_is_judged_before_the_amplification(name):
    with pytest.raises(DomainError, match="^stableswap invariant D must be positive, got -1.0$"):
        AMPLIFICATION_CALLS[name]((100.0, 200.0), -1.0, 0.0)


# every public weighted function that takes weights, as (reserves, weights) -> call
WEIGHT_CALLS = {
    "weighted_conservation": lambda r, w: weighted.weighted_conservation(r, w),
    "weighted_spot_rate": lambda r, w: weighted.weighted_spot_rate(r, w, 0, 1),
    "weighted_spot_rate same asset": lambda r, w: weighted.weighted_spot_rate(r, w, 1, 1),
    "weighted_swap": lambda r, w: weighted.weighted_swap(r, w, 0, 1, 10.0),
    "weighted_slippage": lambda r, w: weighted.weighted_slippage(r, w, 0, 1, 10.0),
    "weighted_rebalanced_reserves": lambda r, w: weighted.weighted_rebalanced_reserves(
        r, w, 1, 0.5
    ),
    "weighted_divergence_kernel": lambda r, w: weighted.weighted_divergence_kernel(w, 1),
    "weighted_divergence_loss": lambda r, w: weighted.weighted_divergence_loss(w, 1, 0.5),
}


@pytest.mark.parametrize(
    "weights, message",
    [
        ((1.0, 0.0), "every weight must lie in (0, 1), got (1.0, 0.0)"),
        ((math.nan, 0.5), "every weight must lie in (0, 1), got (nan, 0.5)"),
        ((-0.5, 1.5), "every weight must lie in (0, 1), got (-0.5, 1.5)"),
        ((0.5, math.inf), "every weight must lie in (0, 1), got (0.5, inf)"),
        ((0.5, 0.6), "weights must sum to 1, got (0.5, 0.6)"),
    ],
    ids=["zero", "nan", "negative", "inf", "sum"],
)
@pytest.mark.parametrize("name", list(WEIGHT_CALLS))
def test_weights_outside_their_domain_are_refused(name, weights, message):
    # weights (1, 0) divided by zero, (nan, 0.5) gave NaN and (-0.5, 1.5) a
    # spot rate of -1.5
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WEIGHT_CALLS[name]((100.0, 200.0), weights)


@pytest.mark.parametrize("name", [k for k in WEIGHT_CALLS if "divergence" not in k])
def test_the_reserves_are_judged_before_the_weights(name):
    message = r"^reserves must be finite and positive, got \(nan, 200.0\)$"
    with pytest.raises(ValueError, match=message):
        WEIGHT_CALLS[name]((math.nan, 200.0), (1.0, 0.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda w: weighted.weighted_divergence_kernel(w, 5),
        lambda w: weighted.weighted_divergence_loss(w, 5, 0.5),
    ],
    ids=["weighted_divergence_kernel", "weighted_divergence_loss"],
)
def test_the_weights_are_judged_before_the_asset_index(call):
    with pytest.raises(ValueError, match=r"^every weight must lie in \(0, 1\), got \(1.0, 0.0\)$"):
        call((1.0, 0.0))


# one message per rule, and the one module of src/ammlab that words it; the
# modules that enforce a rule call the check or the refusal built there
# finite reserves whose sum is not finite, and ones whose sum times A = 1e250 is not
SUM_PAST_RANGE = (1e308, 9e307)
BIG_A_RESERVES = (1e100, 1e100)


@pytest.mark.parametrize(
    "call, reserves, d",
    [
        (lambda: stableswap_pool(SUM_PAST_RANGE, 10.0), SUM_PAST_RANGE, "inf"),
        (lambda: stableswap.solve_invariant(SUM_PAST_RANGE, 10.0), SUM_PAST_RANGE, "inf"),
        # balanced: D = n*r is inf, and the pool's conservation gate refuses it
        (lambda: stableswap_pool((1e308, 1e308), 10.0), (1e308, 1e308), "inf"),
        (lambda: stableswap.conservation_residual(SUM_PAST_RANGE, 1e308, 10.0),
         SUM_PAST_RANGE, "1e+308"),
        (lambda: stableswap.conservation_residual((1.0, 1.0), 1e300, 10.0), (1.0, 1.0), "1e+300"),
        # prod(r) underflows to zero
        (lambda: stableswap.conservation_residual((1e-200, 1e-200), 2e-200, 10.0),
         (1e-200, 1e-200), "2e-200"),
        # (D/n)^n / prod(r) is finite, D times it is not
        (lambda: stableswap.conservation_residual((1.0, 1.0), 1e150, 10.0), (1.0, 1.0), "1e+150"),
        # A*sum(r) and A*D overflow, the last term does not
        (lambda: stableswap.conservation_residual(BIG_A_RESERVES, 2e100, 1e250),
         BIG_A_RESERVES, "2e+100"),
        (lambda: stableswap_pool(BIG_A_RESERVES, 1e250), BIG_A_RESERVES, "2e+100"),
        # (D/n)^n overflows, and prod(r) underflows to zero
        (lambda: stableswap.defining_residual((1.0, 1.0), 1e300, 10.0), (1.0, 1.0), "1e+300"),
        (lambda: stableswap.defining_residual((1e-200, 1e-200), 2e-200, 10.0),
         (1e-200, 1e-200), "2e-200"),
    ],
    ids=["pool", "solve_invariant", "balanced-pool", "conservation_residual",
         "residual-power", "residual-product", "residual-last-term",
         "residual-amplified-sum", "pool-amplified-sum",
         "defining-residual-power", "defining-residual-product"],
)
def test_the_stableswap_equation_past_the_float_range_is_refused(call, reserves, d):
    message = (f"the invariant equation leaves the floating-point range at D={d} "
               f"for reserves {reserves}")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_the_pmm_constant_product_limit_at_the_targets_is_c2():
    # A = 1 and r1' = C1, where P*C2 underflows to zero: the limit's formula
    # is 0/0, and the curve passes through (C1, C2)
    params = PMMParams(5e-324, 1.0, 1.0, 0.1)
    assert pmm.reserve2_given_reserve1(1.0, params) == 0.1
    assert pmm.pmm_swap(0.5, 0.1, params, 0.5) == 0.0


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: bonding.bonding_curve(reserve=v, supply=1.0, reserve_ratio=0.5), "reserve"),
        (lambda v: PMMParams(v, 0.5, 100.0, 100.0), "oracle price"),
        (lambda v: replace(uniswap_pool(100.0, 100.0), share_supply=v), "share supply"),
    ],
    ids=["bonding", "pmm", "pool"],
)
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_a_quantity_that_is_not_finite_and_positive_is_refused_alike(build, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {bad}$"):
        build(bad)


RULES = {
    "reserves must be finite and positive": "quote",
    "a pool needs at least two assets": "quote",
    "asset index": "quote",
    "needs distinct input and output assets": "quote",
    "price shift must exceed -1": "quote",
    "price shift must be finite": "quote",
    "asset 0 is the numeraire": "quote",
    "stableswap amplification must be finite and positive": "quote",
    "stableswap invariant D must be positive": "quote",
    "pmm amplification must lie in (0, 1]": "quote",
    "exhausts reserve": "quote",
    "past the floating-point range": "quote",
    "trade size must be finite": "quote",
    "fraction must exceed -1": "quote",
    "fraction must be finite": "quote",
    "takes supply": "quote",
    "produced zero output": "quote",
    "every weight must lie in (0, 1)": "quote",
    "weights must sum to 1": "quote",
    "one weight per asset required": "quote",
    "{name} must be finite and positive": "quote",
    "has no reciprocal in the float range": "quote",
    "the PMM curve at reserve": "quote",
    "outside (-1, inf)": "quote",
    "grid values must be strictly increasing": "analysis",
    "the curve is not representable": "stableswap",
    "a rebalanced reserve leaves the floating-point range": "stableswap",
    "dZ/dr_{k} = {d} is not finite": "numerics",
}


@pytest.mark.parametrize("message", list(RULES))
def test_each_rule_is_stated_once(message):
    src = Path(__file__).resolve().parent.parent / "src" / "ammlab"
    where = [
        path.stem for path in sorted(src.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if message in line
    ]
    assert where == [RULES[message]]


BUILT_IN_EXCEPTIONS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def test_no_module_raises_a_built_in_exception():
    # every refusal is an AmmError; DomainError and AssetIndexError also
    # subclass ValueError and IndexError, so code that catches those works
    src = Path(__file__).resolve().parent.parent / "src" / "ammlab"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # an instance built, to raise here or elsewhere, or a class raised
            made = node.func if isinstance(node, ast.Call) else getattr(node, "exc", None)
            if isinstance(made, ast.Name) and made.id in BUILT_IN_EXCEPTIONS:
                found.append(f"{path.name}:{node.lineno} {made.id}")
    assert found == []


def _extreme_rates(rng, kind):
    """The spot-rate calls of a pool of kind whose reserves, targets and
    prices lie at 10^U(-320, 308), a stableswap pool's within 1e±10 of one
    another (few others build): each ordered pair's, or a curve's price."""

    def scale():
        return 10.0 ** rng.uniform(-320.0, 308.0)

    if kind == "bonding":
        curve = bonding.bonding_curve(scale(), scale(), rng.uniform(0.01, 1.0))
        return [lambda: bonding.bonding_price(curve)]
    n = 2 if kind == "pmm" else rng.randint(2, 4)
    if kind == "weighted":
        w = [rng.uniform(1.0, 3.0) for _ in range(n)]
        pool = weighted_pool([scale() for _ in range(n)], [x / sum(w) for x in w])
    elif kind == "stableswap":
        at = scale()
        reserves = [at * 10.0 ** rng.uniform(-10.0, 10.0) for _ in range(n)]
        pool = stableswap_pool(reserves, 10.0 ** rng.uniform(-3.0, 6.0))
    else:
        params = PMMParams(scale(), rng.uniform(0.01, 1.0), scale(), scale())
        r1 = params.target1 * 10.0 ** rng.uniform(-3.0, 3.0)
        r2 = pmm.reserve2_given_reserve1(r1, params)
        pool = pmm_pool(params.target1, params.target2, params.oracle_price,
                        params.amplification, reserves=(r1, r2))
    return [partial(spot_rate, pool, i, o) for i, o in permutations(range(n), 2)]


def test_every_spot_rate_lies_in_the_float_range_or_is_refused():
    # each curve refuses a rate outside (0, inf) where it forms it, so no
    # caller of a spot rate (a slippage, its sweep, a liquidity change's
    # receipt) meets a rate of 0 or inf
    rng = random.Random(46)
    seen = Counter()
    for _ in range(4000):
        kind = rng.choice(("weighted", "stableswap", "pmm", "bonding"))
        try:
            rates = _extreme_rates(rng, kind)
        except AmmError:
            continue
        for rate in rates:
            try:
                value = rate()
            except AmmError:
                seen[kind, "refused"] += 1
            else:
                assert 0.0 < value < math.inf, (kind, rate, value)
                seen[kind, "rate"] += 1
    for kind in ("weighted", "stableswap", "pmm", "bonding"):
        assert seen[kind, "rate"] >= 100, seen
        # the families whose rates reach past the float range in this draw
        assert kind == "stableswap" or seen[kind, "refused"] >= 10, seen

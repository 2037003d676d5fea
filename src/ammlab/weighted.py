"""Closed forms for weighted geometric-mean pools.

The conservation law is C(r) = prod_k r_k^{w_k} with fixed positive weights
summing to 1. A two-asset pool with w = (1/2, 1/2) is the classic constant
product market (its invariant is the square root of r1*r2, a monotone
relabeling, so all trade math agrees); the general case covers weighted
multi-asset pools. Asset 0 serves as the numeraire for divergence loss.
"""
from __future__ import annotations

import math
from functools import partial

from . import quote
from .quote import slippage_from_quote


def _check_shape(reserves, weights) -> None:
    quote.check_weight_count(len(reserves), weights)
    quote.check_reserves(reserves)
    quote.check_weights(weights)


def _conservation(reserves, weights) -> float:
    out = 1.0
    for r, w in zip(reserves, weights):
        out *= r**w
    return out


def weighted_conservation(reserves, weights) -> float:
    """Invariant value prod_k r_k^{w_k}."""
    _check_shape(reserves, weights)
    return _conservation(reserves, weights)


def _spot_rate(reserves, weights, i: int, o: int) -> float:
    den = reserves[o] * weights[i]  # 0 only where the rate is past the largest float
    rate = reserves[i] * weights[o] / den if den else math.inf
    if 0.0 < rate < math.inf:
        return rate
    raise quote.rate_refusal(rate)


def weighted_spot_rate(reserves, weights, i: int, o: int) -> float:
    """Spot rate (token i per token o): (r_i * w_o) / (r_o * w_i); a rate
    that under- or overflows raises quote.rate_refusal."""
    _check_shape(reserves, weights)
    if i == o:
        return 1.0
    return _spot_rate(reserves, weights, i, o)


def _swap_output(r_in: float, r_out: float, exponent: float, x_in: float) -> float:
    r_in_new = r_in + x_in
    if not 0.0 < r_in_new < math.inf:
        raise quote.trade_refusal(r_in, x_in)
    ratio = r_in / r_in_new
    try:
        x_out = r_out * (1.0 - ratio**exponent)
    except OverflowError:
        raise quote.output_refusal(r_out, x_in) from None
    # only a reverse trade raises the output reserve
    if x_in < 0.0 and not r_out - x_out < math.inf:
        raise quote.output_refusal(r_out, x_in)
    return x_out


def weighted_swap(reserves, weights, i: int, o: int, x_in: float) -> float:
    """Output amount for adding x_in of asset i: the output reserve moves to
    r_o * (r_i / (r_i + x_in))^{w_i/w_o}, all other reserves untouched.

    Negative x_in is the reverse-trade convention (the trader receives asset
    i) and produces a negative output, meaning asset o is paid in; one that
    takes the output reserve past the float range raises
    quote.output_refusal.
    """
    _check_shape(reserves, weights)
    quote.check_assets(len(reserves), i, o)
    return _swap_output(reserves[i], reserves[o], weights[i] / weights[o], x_in)


def weighted_slippage(reserves, weights, i: int, o: int, x_in: float) -> float:
    """Slippage (quote.slippage_from_quote) of adding x_in of asset i."""
    x_out = weighted_swap(reserves, weights, i, o, x_in)
    return slippage_from_quote(x_in, x_out, weighted_spot_rate(reserves, weights, i, o))


def _divergence_loss_at(w: float, rho: float) -> float:
    quote.check_price_shift(rho)
    return _divergence_losses(w, (rho,))[0]


def _divergence_losses(w: float, shifts) -> tuple[float, ...]:
    """The loss (1+rho)^w / (1 + w*rho) - 1 for each rho of shifts, all
    finite and above -1, from one loop."""
    return tuple([(1.0 + rho) ** w / (1.0 + w * rho) - 1.0 for rho in shifts])


def weighted_divergence_kernel(weights, o: int):
    """rho -> weighted_divergence_loss(weights, o, rho), with the index check
    and the weight w_o taken once for a sweep."""
    quote.check_weights(weights)
    quote.check_index(len(weights), o)
    return partial(_divergence_loss_at, weights[o])


def weighted_divergence_loss(weights, o: int, rho: float) -> float:
    """Loss of pooled value versus holding when asset o appreciates by rho:
    L = (1+rho)^{w_o} / (1 + w_o*rho) - 1, which is <= 0 with equality only
    at rho = 0 (weighted AM-GM)."""
    return weighted_divergence_kernel(weights, o)(rho)


def weighted_rebalanced_reserves(reserves, weights, o: int, rho: float) -> tuple[float, ...]:
    """Reserves after arbitrage restores equilibrium at the shifted price:
    r_o scales by (1+rho)^{w_o - 1}, every other reserve by (1+rho)^{w_o}.
    This leaves the invariant unchanged and moves every spot rate against o
    by exactly (1+rho)."""
    _check_shape(reserves, weights)
    quote.check_price_shift(rho)
    grow = (1.0 + rho) ** weights[o]
    return tuple(
        r * grow / (1.0 + rho) if k == o else r * grow for k, r in enumerate(reserves)
    )

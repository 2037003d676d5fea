"""Proactive-market-making engine: oracle-anchored pricing with equilibrium
targets.

The pool quotes around an external oracle price P (asset-1 units per unit of
asset 2) and a pair of equilibrium targets (C1, C2). Reserves move along the
piecewise conservation curve through (C1, C2):

    r1 >= C1:  r1 - C1 = P * (C2 - r2) * (1 + A*(C2/r2 - 1))
    r1 <= C1:  r2 - C2 = (C1 - r1) * (1 + A*(C1/r1 - 1)) / P

with A in (0, 1] weighting how hard the rate leans away from P as the pool
leaves equilibrium. A -> 0 pins the rate at P; A = 1 collapses the curve to
the constant-product hyperbola r1*r2 = C1*C2.

Asset indices: reserve 1 is asset 0, reserve 2 is asset 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import quote
from .errors import DomainError, SingularAmplification
from .quote import slippage_from_quote


@dataclass(frozen=True)
class PMMParams:
    """Oracle price, deviation weight A, and the equilibrium targets."""

    oracle_price: float
    amplification: float
    target1: float
    target2: float

    def __post_init__(self) -> None:
        quote.check_positive("oracle price", self.oracle_price)
        quote.check_unit_interval("pmm amplification", self.amplification)
        quote.check_positive("target1", self.target1)
        quote.check_positive("target2", self.target2)

    def mirrored(self) -> "PMMParams":
        """The same pool with the two assets relabeled (price inverted);
        the conservation curve is symmetric under this relabeling."""
        return self._mirror

    @cached_property
    def _mirror(self) -> "PMMParams":
        # built on first use only: 1/P overflows below about 5.6e-309
        if 1.0 / self.oracle_price == math.inf:
            raise quote.reciprocal_refusal(self.oracle_price)
        return PMMParams(1.0 / self.oracle_price, self.amplification, self.target2, self.target1)


def _spot_rate(r1: float, r2: float, params: PMMParams) -> float:
    a = params.amplification
    try:
        if r1 >= params.target1:
            rate = params.oracle_price * (1.0 + a * ((params.target2 / r2) ** 2 - 1.0))
        else:  # at most the oracle price: the denominator is at least 1
            rate = params.oracle_price / (1.0 + a * ((params.target1 / r1) ** 2 - 1.0))
    except OverflowError:
        rate = math.inf
    if 0.0 < rate < math.inf:
        return rate
    raise quote.rate_refusal(rate) if rate == 0.0 else quote.curve_refusal(r1)


def pmm_spot_rate(r1: float, r2: float, params: PMMParams) -> float:
    """Spot rate (asset-1 units per asset 2), the oracle price scaled by the
    pool-composition adjustment; P exactly at equilibrium. Refused below the
    float range by quote.rate_refusal, above it by quote.curve_refusal."""
    quote.check_reserves((r1, r2))
    return _spot_rate(r1, r2, params)


def _gap(r1: float, r2: float, params: PMMParams) -> float:
    p, a = params.oracle_price, params.amplification
    c1, c2 = params.target1, params.target2
    if r1 >= c1:
        return (r1 - c1) - p * (c2 - r2) * (1.0 + a * (c2 / r2 - 1.0))
    return p * (r2 - c2) - (c1 - r1) * (1.0 + a * (c1 / r1 - 1.0))


def conservation_gap(r1: float, r2: float, params: PMMParams) -> float:
    """Signed residual of the conservation relation, in asset-1 units on both
    branches (the r1 <= C1 branch is multiplied through by P, which keeps the
    residual's gradient continuous at the equilibrium point). Zero exactly on
    the curve. A residual beyond the float range raises quote.curve_refusal."""
    quote.check_reserves((r1, r2))
    gap = _gap(r1, r2, params)
    if math.isfinite(gap):
        return gap
    raise quote.curve_refusal(r1)


def _residual(gap: float, params: PMMParams) -> float:
    return abs(gap) / (params.target1 + params.oracle_price * params.target2)


def conservation_residual(r1: float, r2: float, params: PMMParams) -> float:
    """|conservation_gap| over the value scale C1 + P*C2; past the float range, curve_refusal."""
    residual = _residual(conservation_gap(r1, r2, params), params)
    if residual < math.inf:
        return residual
    raise quote.curve_refusal(r1)


def _post_reserve_error(r1_new: float) -> DomainError:
    # a post-trade reserve 1 outside (0, inf), which the curve pairs with no reserve 2
    what = "positive" if r1_new <= 0.0 else "finite"
    return DomainError(f"reserve must stay {what}, got {r1_new}")


_SINGULAR = "quadratic branch undefined at A = 1; evaluate the constant-product limit"
_VANISHING = "quadratic branch's linear coefficient and discriminant underflow to zero"


def _quadratic_root(r1_new: float, params: PMMParams) -> float:
    # the positive root of P*(1-A)*u^2 + (r1' - C1 - P*C2*(1-2A))*u - P*A*C2^2 = 0
    p, a = params.oracle_price, params.amplification
    c1, c2 = params.target1, params.target2
    lead = p * (1.0 - a)
    if lead == 0.0:
        raise SingularAmplification(_SINGULAR)
    b = (r1_new - c1) - p * c2 * (1.0 - 2.0 * a)
    c = -p * a * c2 * c2
    disc = b * b - 4.0 * lead * c
    sqrt_disc = math.sqrt(disc)
    if sqrt_disc == math.inf:
        # b*b or lead*c overflowed: the same square root without the squares
        sqrt_disc = math.hypot(b, 2.0 * math.sqrt(lead) * math.sqrt(-c))
    # stable two-root form; the roots have opposite signs (c/lead < 0)
    q_half = -0.5 * (b + math.copysign(sqrt_disc, b))
    root = q_half / lead
    try:
        other = c / q_half
    except ZeroDivisionError:
        raise DomainError(_VANISHING) from None
    # max(root, other), without the call; c, b*b or P*C2 can overflow
    root = other if other > root else root
    if 0.0 < root < math.inf:
        return root
    raise quote.curve_refusal(r1_new)


def _reserve2(r1_new: float, params: PMMParams) -> float:
    # the curve's reserve 2 at r1' in (0, inf)
    p, a = params.oracle_price, params.amplification
    c1, c2 = params.target1, params.target2
    if r1_new < c1:
        return c2 + (c1 - r1_new) * (1.0 + a * (c1 / r1_new - 1.0)) / p
    if a == 1.0:
        # removable singularity: the curve is r1*r2 = C1*C2 exactly
        try:
            return p * c2 * c2 / (r1_new - c1 + p * c2)
        except ZeroDivisionError:
            # r1' = C1 and P*C2 underflows to 0: the curve's point (C1, C2)
            return c2
    return _quadratic_root(r1_new, params)


def quadratic_branch_reserve2(r1_new: float, params: PMMParams) -> float:
    """Post-trade reserve 2 on the r1 >= C1 branch: the positive root of
    P*(1-A)*u^2 + (r1' - C1 - P*C2*(1-2A))*u - P*A*C2^2 = 0.

    At A = 1 the leading coefficient vanishes; use the analytic limit via
    reserve2_given_reserve1 instead.
    """
    if not 0.0 < r1_new < math.inf:
        raise _post_reserve_error(r1_new)
    return _quadratic_root(r1_new, params)


def reserve2_given_reserve1(r1_new: float, params: PMMParams) -> float:
    """The reserve 2 paired with r1_new on the curve; past the float range, curve_refusal."""
    if not 0.0 < r1_new < math.inf:
        raise _post_reserve_error(r1_new)
    r2 = _reserve2(r1_new, params)
    if r2 < math.inf:
        return r2
    raise quote.curve_refusal(r1_new)


def _swap_output(r1: float, r2: float, params: PMMParams, x1: float) -> float:
    r1_new = r1 + x1
    if not 0.0 < r1_new < math.inf:
        raise quote.trade_refusal(r1, x1)
    if x1 == 0.0:
        return 0.0
    r2_new = _reserve2(r1_new, params)
    if not r2_new < math.inf:
        raise quote.output_refusal(r2, x1)
    return r2 - r2_new


def pmm_swap(r1: float, r2: float, params: PMMParams, x1: float) -> float:
    """Output of asset 2 for adding x1 of asset 1, moving along the
    conservation curve; the branch is chosen by the post-trade reserve, so
    trades crossing the equilibrium point are handled by their endpoint.
    Negative x1 is the reverse-trade convention; one that takes reserve 2
    past the float range raises quote.output_refusal."""
    quote.check_reserves((r1, r2))
    return _swap_output(r1, r2, params, x1)


def pmm_slippage(r1: float, r2: float, params: PMMParams, x1: float) -> float:
    """Slippage (quote.slippage_from_quote) of adding x1 of asset 1 against
    the pre-trade spot rate."""
    x2 = pmm_swap(r1, r2, params, x1)
    return slippage_from_quote(x1, x2, pmm_spot_rate(r1, r2, params))

"""The PMM reserve-2 solve written out as standalone functions.

`ammlab.pmm` states the solve once, in `_quadratic_root` (the r1 >= C1
quadratic) and `_reserve2` (the whole piecewise curve), and the swap kernel
and both public helpers call them. These are the same rules as separate
functions, in the same float operations and the same order; the identity
tests require the kernel and the helpers to return their bits, or raise
their errors, on a seeded corpus.
"""
from __future__ import annotations

import math

from ammlab import quote
from ammlab.errors import DomainError, SingularAmplification
from ammlab.pmm import _SINGULAR, _VANISHING, PMMParams, _post_reserve_error


def quadratic_branch_reserve2(r1_new: float, params: PMMParams) -> float:
    # the positive root of P*(1-A)*u^2 + (r1' - C1 - P*C2*(1-2A))*u - P*A*C2^2 = 0
    if not 0.0 < r1_new < math.inf:
        raise _post_reserve_error(r1_new)
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
    try:
        root = max(q_half / lead, c / q_half)
    except ZeroDivisionError:
        raise DomainError(_VANISHING) from None
    if not 0.0 < root < math.inf:
        raise quote.curve_refusal(r1_new)
    return root


def reserve2_given_reserve1(r1_new: float, params: PMMParams) -> float:
    r2 = _reserve2(r1_new, params)
    if not r2 < math.inf:
        raise quote.curve_refusal(r1_new)
    return r2


def _reserve2(r1_new: float, params: PMMParams) -> float:
    # the curve's reserve 2 at r1', beyond the float range on the r1' < C1
    # branch as inf, which a swap refuses as its output's overflow
    if not 0.0 < r1_new < math.inf:
        raise _post_reserve_error(r1_new)
    p, a = params.oracle_price, params.amplification
    c1, c2 = params.target1, params.target2
    if r1_new >= c1:
        if a == 1.0:
            # removable singularity: the curve is r1*r2 = C1*C2 exactly
            try:
                return p * c2 * c2 / (r1_new - c1 + p * c2)
            except ZeroDivisionError:
                # r1' = C1 and P*C2 underflows to 0: the curve's point (C1, C2)
                return c2
        return quadratic_branch_reserve2(r1_new, params)
    return c2 + (c1 - r1_new) * (1.0 + a * (c1 / r1_new - 1.0)) / p


def swap_output(r1: float, r2: float, params: PMMParams, x1: float) -> float:
    # r2 - _reserve2(r1 + x1, params) behind the swap's guards
    r1_new = r1 + x1
    if not 0.0 < r1_new < math.inf:
        raise quote.trade_refusal(r1, x1)
    if x1 == 0.0:
        return 0.0
    r2_new = _reserve2(r1_new, params)
    if not r2_new < math.inf:
        raise quote.output_refusal(r2, x1)
    return r2 - r2_new

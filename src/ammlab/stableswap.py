"""Stableswap engine: amplified interpolation between constant-sum and
constant-product markets.

The invariant D is the unique positive solution of

    A * (sum_k r_k / D - 1) = (D/n)^n / prod_k r_k - 1

where the amplification A already absorbs the conventional n^n factor.
Large A flattens the curve toward constant sum (spot rate pinned near 1,
D -> sum r_k); small A relaxes it toward the constant-product hyperbola
(D -> n * (prod r_k)^{1/n}).

solve_invariant finds D with numerics.find_root; the divergence loss solves
its curve equation by its own Newton iteration with the closed-form slope.
"""
from __future__ import annotations

import math
from functools import partial, reduce
from operator import add

from . import quote
from .errors import ConvergenceFailure, DomainError, NoSolution
from .numerics import DEFAULT_CONFIG, RootBracket, find_root
from .quote import slippage_from_quote


def _check_reserves(reserves) -> None:
    quote.check_asset_count(len(reserves))
    quote.check_reserves(reserves)


def _out_of_range(reserves, D: float) -> DomainError:
    # sum(r), (D/n)^n or D*(D/n)^n overflows, or prod(r) underflows to 0:
    # the equation is not representable at this scale without rescaling the
    # reserves
    return DomainError(
        f"the invariant equation leaves the floating-point range at D={D} "
        f"for reserves {tuple(reserves)}"
    )


def conservation_residual(reserves, D: float, amplification: float) -> float:
    """Relative residual of the defining equation at (reserves, D):
    |g(D)| normalized by the magnitudes of g's terms, for
    g(D) = A*sum(r) + D - A*D - D^{n+1} / (n^n * prod(r)). Zero on the curve.
    A last term beyond the float range raises DomainError: it would make the
    residual NaN."""
    _check_reserves(reserves)
    quote.check_stableswap_amplification(amplification)
    n = len(reserves)
    try:
        a_total, a_d = amplification * math.fsum(reserves), amplification * D
        power = D * (D / n) ** n / math.prod(reserves)
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(reserves, D) from None
    if not math.isfinite(power):
        raise _out_of_range(reserves, D)
    return abs(a_total + D - a_d - power) / max(sum(map(abs, (a_total, D, a_d, power))), 1e-300)


def _constants(D: float, amplification: float, n: int) -> tuple[float, float, float]:
    """curve_constants without its check of D*q, for a pool, whose
    conservation gate refuses a D*q beyond the float range in its own words."""
    shift = D * (1.0 - 1.0 / amplification)
    try:
        q = (D / n) ** n
    except OverflowError:
        raise DomainError(f"(D/n)^n leaves the floating-point range at D={D}") from None
    return q, D * q, shift


def curve_constants(D: float, amplification: float, n: int) -> tuple[float, float, float]:
    """(q, D*q, D*(1 - 1/A)) with q = (D/n)^n: the constants that a pool's
    spot rates, swaps and conservation checks share. A D that is not
    positive, then a q or a D*q beyond the float range, raises DomainError."""
    quote.check_invariant(D)
    quote.check_stableswap_amplification(amplification)
    constants = _constants(D, amplification, n)
    if not math.isfinite(constants[1]):
        raise DomainError(f"D*(D/n)^n leaves the floating-point range at D={D}")
    return constants


def conservation_check(reserves, D: float, amplification: float, q: float, dq: float):
    """(conservation_residual, invariant_drift) at (reserves, D) from one
    pass, bit for bit, given q and D*q from curve_constants: a transition's
    gate and its receipt. The reserves are not checked; where invariant_drift
    divides by a zero slope, the drift is inf."""
    n = len(reserves)
    prod = math.prod(reserves)
    try:
        total = math.fsum(reserves)
        power = dq / prod
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(reserves, D) from None
    if not math.isfinite(power):
        raise _out_of_range(reserves, D)
    a_total, a_d = amplification * total, amplification * D
    head = a_total + D - a_d
    # the four terms are positive, so their sum is that of their magnitudes
    residual = abs(head - power) / max(sum((a_total, D, a_d, power)), 1e-300)
    ratio = q / prod
    denominator = D * abs(1.0 - amplification - (n + 1) * ratio)
    return residual, abs(head - D * ratio) / denominator if denominator else math.inf


def defining_residual(reserves, D: float, amplification: float) -> float:
    """Signed residual (D/n)^n/prod(r) - 1 - A*(sum(r)/D - 1), zero exactly
    on the curve and strictly decreasing in every reserve — the form handed
    to the generic numeric engine.

    The excess sum(r) - D is summed exactly before A multiplies it: rounding
    sum(r)/D first would put noise of order A*eps on the residual."""
    _check_reserves(reserves)
    quote.check_stableswap_amplification(amplification)
    n = len(reserves)
    prod = math.prod(reserves)
    return (D / n) ** n / prod - 1.0 - amplification * (math.fsum((*reserves, -D)) / D)


def invariant_drift(reserves, D: float, amplification: float) -> float:
    """Relative distance |D* - D| / D from D to the reserves' invariant D*,
    to first order: one Newton step on g from D, |g(D)| / (D * |g'(D)|) with
    g'(D) = 1 - A - (n+1) * (D/n)^n / prod(r).

    g' is strictly negative near the root and the neglected term is of the
    order of the result squared, so at drifts near 1e-9 this agrees with
    re-solving D to ~1e-18, without a root solve.
    """
    _check_reserves(reserves)
    quote.check_stableswap_amplification(amplification)
    n = len(reserves)
    try:
        ratio = (D / n) ** n / math.prod(reserves)
        g = amplification * math.fsum(reserves) + D - amplification * D - D * ratio
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(reserves, D) from None
    slope = 1.0 - amplification - (n + 1) * ratio
    return abs(g) / (D * abs(slope))


def solve_invariant(reserves, amplification: float) -> float:
    """The unique positive invariant D for the given reserves: the root of
    g(D) = A*sum(r) + D - A*D - D^{n+1} / (n^n * prod(r)).

    AM-GM brackets the root inside [n*(prod r)^{1/n}, sum r], where g has
    opposite signs at the endpoints and is strictly decreasing; a balanced
    pool sits exactly at the upper endpoint and returns n*r directly.
    """
    _check_reserves(reserves)
    quote.check_stableswap_amplification(amplification)
    n = len(reserves)
    if min(reserves) == max(reserves):
        return n * reserves[0]
    try:
        total = math.fsum(reserves)
    except OverflowError:
        # the upper end of the bracket, D = sum(r), is beyond the float range
        raise _out_of_range(reserves, math.inf) from None
    prod = math.prod(reserves)
    geo = n * prod ** (1.0 / n)
    a_total = amplification * total

    def g(D: float) -> float:
        # the last term can overflow to inf at D = sum(r) even where the root
        # is representable: g is then -inf, and the root bracket refuses it
        try:
            power = D * (D / n) ** n / prod
        except (OverflowError, ZeroDivisionError):
            raise _out_of_range(reserves, D) from None
        return a_total + D - amplification * D - power

    g_lo, g_hi = g(geo), g(total)
    # analytically g(geo) >= 0 >= g(total); an endpoint where rounding makes g
    # zero or flips its sign already is the root, which also covers endpoints
    # that round to the same double
    if g_lo <= 0.0:
        return geo
    if g_hi >= 0.0:
        return total
    return find_root(g, RootBracket(geo, total, g_lo, g_hi))


def _spot_rate(reserves, dq: float, amplification: float, i: int, o: int) -> float:
    a_prod = amplification * math.prod(reserves)
    try:
        rate = (reserves[i] * (a_prod * reserves[o] + dq)) / (
            reserves[o] * (a_prod * reserves[i] + dq)
        )
    except ZeroDivisionError:
        rate = 0.0
    if 0.0 < rate < math.inf:
        return rate
    # products of order r^(n+2) overflowed or underflowed: on balanced
    # 2-asset pools that build from about 1e77 up, and on small pools. The
    # rate is homogeneous of degree 0 in the reserves and D, so evaluate it
    # again with both scaled by the exact power of two that brings the
    # largest reserve into [0.5, 1) (dq = D*(D/n)^n scales by that power to
    # the n+1); every rate in range keeps its bits
    e = math.frexp(max(reserves))[1]
    if e == 0:
        raise DomainError("the spot rate's products leave the floating-point range")
    scaled = [math.ldexp(r, -e) for r in reserves]
    return _spot_rate(scaled, math.ldexp(dq, -e * (len(reserves) + 1)), amplification, i, o)


def stableswap_spot_rate(reserves, D: float, amplification: float, i: int, o: int) -> float:
    """Spot rate (token i per token o) on the amplified curve:
    r_i*(A*r_o*prod + D*q) / (r_o*(A*r_i*prod + D*q)) with q = (D/n)^n.
    A D that is not positive is refused first."""
    quote.check_invariant(D)
    _check_reserves(reserves)
    quote.check_stableswap_amplification(amplification)
    if i == o:
        return 1.0
    _, dq, _ = curve_constants(D, amplification, len(reserves))
    return _spot_rate(reserves, dq, amplification, i, o)


def _swap_output(
    reserves, i: int, o: int, shift: float, scale: float, amplification: float, x_in: float
) -> float:
    r_in_new = reserves[i] + x_in
    if not 0.0 < r_in_new < math.inf:
        raise quote.trade_refusal(reserves[i], x_in)
    if x_in == 0.0:
        return 0.0
    s0, p0 = 0.0, 1.0
    for k, r in enumerate(reserves):
        if k == o:
            continue
        val = r_in_new if k == i else r
        s0 += val
        p0 *= val
    b = s0 - shift
    c = scale / (amplification * p0)
    disc = b * b + 4.0 * c
    if disc < 0.0:
        raise NoSolution("swap quadratic has no real root")
    # the post-trade output reserve is the positive root of u^2 + b*u - c = 0;
    # the stable two-root form's roots have opposite signs (product -c < 0)
    q_half = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    root = max(q_half, -c / q_half)
    if not (root > 0.0 and math.isfinite(root)):
        raise NoSolution(f"swap quadratic produced a non-positive reserve {root}")
    return reserves[o] - root


# The 2- and 3-asset forms of _swap_output, bit for bit: the loop's leading
# 0.0 + and 1.0 * are exact, and a sum or product of two doubles does not
# depend on their order. Each carries the loop form's quadratic in its
# operation order (max(x, y) as y if y > x else x, isfinite as < inf: the same
# NaN outcomes), so the three change together. The pool size picks its form
# once (_SWAP_OUTPUTS); the loop runs for 4 or more assets and is their reference.
def _swap_output_2(
    reserves, i: int, o: int, shift: float, scale: float, amplification: float, x_in: float
) -> float:
    r_in_new = reserves[i] + x_in
    if not 0.0 < r_in_new < math.inf:
        raise quote.trade_refusal(reserves[i], x_in)
    if x_in == 0.0:
        return 0.0
    b = r_in_new - shift
    c = scale / (amplification * r_in_new)
    disc = b * b + 4.0 * c
    if disc < 0.0:
        raise NoSolution("swap quadratic has no real root")
    q_half = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    root = -c / q_half
    if not root > q_half:
        root = q_half
    if not 0.0 < root < math.inf:
        raise NoSolution(f"swap quadratic produced a non-positive reserve {root}")
    return reserves[o] - root


def _swap_output_3(
    reserves, i: int, o: int, shift: float, scale: float, amplification: float, x_in: float
) -> float:
    r_in_new = reserves[i] + x_in
    if not 0.0 < r_in_new < math.inf:
        raise quote.trade_refusal(reserves[i], x_in)
    if x_in == 0.0:
        return 0.0
    r_other = reserves[3 - i - o]
    b = (r_in_new + r_other) - shift
    c = scale / (amplification * (r_in_new * r_other))
    disc = b * b + 4.0 * c
    if disc < 0.0:
        raise NoSolution("swap quadratic has no real root")
    q_half = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    root = -c / q_half
    if not root > q_half:
        root = q_half
    if not 0.0 < root < math.inf:
        raise NoSolution(f"swap quadratic produced a non-positive reserve {root}")
    return reserves[o] - root


_SWAP_OUTPUTS = {2: _swap_output_2, 3: _swap_output_3}


def _swap_output_for(n: int):
    """The swap output function for an n-asset pool: unrolled for 2 and 3."""
    return _SWAP_OUTPUTS.get(n, _swap_output)


def stableswap_swap(reserves, D: float, amplification: float, i: int, o: int, x_in: float) -> float:
    """Output amount for adding x_in of asset i at fixed invariant D.

    The post-trade output reserve is the positive root of
    u^2 + (S0 - D*(1 - 1/A))*u - q*D/(A*P0) = 0, with S0 and P0 the sum and
    product of all non-output reserves after the input lands. Non-traded
    reserves stay untouched.
    """
    _check_reserves(reserves)
    quote.check_assets(len(reserves), i, o)
    n = len(reserves)
    _, scale, shift = curve_constants(D, amplification, n)
    return _swap_output_for(n)(reserves, i, o, shift, scale, amplification, x_in)


def stableswap_divergence_kernel(reserves, D: float, amplification: float, o: int):
    """rho -> stableswap_divergence_loss(reserves, D, amplification, o, rho),
    bit for bit, with the invariant, reserve, asset-index and numeraire
    checks and the unshifted curve gradient done once for a sweep. Each point
    runs the pool size's form in _DIVERGENCE_POINTS, or the generic one."""
    quote.check_invariant(D)
    _check_reserves(reserves)
    quote.check_stableswap_amplification(amplification)
    n = len(reserves)
    quote.check_index(n, o)
    quote.check_numeraire(o)
    A = amplification
    c = D * math.prod(D / (n * r) for r in reserves)
    g = [A + c / r for r in reserves]
    V = math.fsum(gk / g[0] * r for gk, r in zip(g, reserves))
    point = _DIVERGENCE_POINTS.get(n, _divergence_loss_at)
    return partial(point, tuple(reserves), D, A, o, c, tuple(g), V)


def _curve(e, A: float):
    """s -> (x, P, f, f') on the rebalanced state: x_k = s + e_k*(s + A),
    P = prod(n/x_k)^(1/(n+1)), the curve equation
    f = A*sum(1/x_k) + (1 - A)*P - 1 (see stableswap_divergence_loss) and its
    slope in s, f' = -A*sum((1 + e_k)/x_k^2) - (1 - A)*P*sum((1 + e_k)/x_k)/(n+1).

    The generic divergence point evaluates it for any n; the 2- and 3-asset
    forms unroll it. Sums are folded left to right, as the unrolled forms
    add: the built-in sum compensates its rounding on Python 3.12 and
    later."""
    n = len(e)
    B = 1.0 - A

    def curve(s: float) -> tuple[list[float], float, float, float]:
        t = s + A
        x = [s + ek * t for ek in e]
        P = math.prod(n / xk for xk in x) ** (1.0 / (n + 1))
        inv = [1.0 / xk for xk in x]
        d = [(1.0 + ek) * ik for ek, ik in zip(e, inv)]
        f = A * reduce(add, inv) + B * P - 1.0
        d2 = reduce(add, [dk * ik for dk, ik in zip(d, inv)])
        return x, P, f, -A * d2 - B * P * reduce(add, d) / (n + 1)

    return curve


_UNREPRESENTABLE = "the curve is not representable"
_RESERVE_OUT_OF_RANGE = "a rebalanced reserve leaves the floating-point range"
_REL_TOL = DEFAULT_CONFIG.root_rel_tol
_MAX_ITERATIONS = DEFAULT_CONFIG.root_max_iterations


def _unattainable(rho: float, o: int, reason: str) -> NoSolution:
    return NoSolution(f"rate shift {rho} for asset {o} is unattainable: {reason}")


def _unconverged(rho: float, o: int) -> ConvergenceFailure:
    return ConvergenceFailure(
        f"rate shift {rho} for asset {o}: root not located to rel_tol={_REL_TOL} "
        f"within {_MAX_ITERATIONS} iterations"
    )


def _shift_root(residual, n: int, A: float, s: float, rho: float, o: int) -> float:
    """The root in s of the curve equation, for residual(s) -> (f, f'):
    Newton from s, the unshifted root, inside the bracket [s_lo, s_hi] where
    f is positive at s_lo and negative at s_hi (bounds from x_k >= s). Each
    iterate replaces the bracket end whose sign its f shares; a Newton step
    that leaves the bracket bisects it in log space instead. The solve stops
    once a step moves s by at most _REL_TOL relative.

    The generic divergence point (n >= 4) solves by this function.
    _divergence_loss_2 and _divergence_loss_3 each carry their own copy of
    this loop, with the curve equation inlined; change all three together."""
    lo = 0.5 * A if A <= 1.0 else n * (2.0 * n) ** -(n + 1)
    hi = 2.0 * n * (A if A > 1.0 else 1.0)
    s = min(max(s, lo), hi)
    for _ in range(_MAX_ITERATIONS):
        f, slope = residual(s)
        if not math.isfinite(f):
            raise _unattainable(rho, o, _UNREPRESENTABLE)
        if f > 0.0:
            lo = s
        elif f < 0.0:
            hi = s
        else:
            return s
        if not lo < hi:
            # rounding gives f the wrong sign at a bracket end
            raise _unattainable(rho, o, _UNREPRESENTABLE)
        # s is now a bracket end: a step that rounds to zero ends the solve,
        # and a zero slope bisects
        t = s - f / slope if slope else math.nan
        if t != s and not lo < t < hi:
            t = math.sqrt(lo) * math.sqrt(hi)
        if abs(t - s) <= _REL_TOL * t:
            return t
        s = t
    raise _unconverged(rho, o)


def _divergence_loss_at(reserves, D, A, o, c, g, V, rho: float) -> float:
    quote.check_price_shift(rho)
    if rho == 0.0:
        return 0.0
    n = len(reserves)
    w = list(g)
    w[o] *= 1.0 + rho
    m = min(range(n), key=w.__getitem__)

    def excess(k: int) -> float:
        # w_k - w_m as c*(1/r_k - 1/r_m) plus the shift term, not as a
        # difference of the A-sized weights, whose rounding error a large A
        # would carry into x_k
        if k == m:
            return 0.0
        out = c * (reserves[m] - reserves[k]) / (reserves[k] * reserves[m])
        if k == o:
            out += rho * g[o]
        elif m == o:
            out -= rho * g[o]
        return max(out, 0.0) / w[m]

    e = [excess(k) for k in range(n)]
    # _divergence_loss_2 and _divergence_loss_3 repeat all of this in the same
    # order for 2 and 3 assets, so this form runs for 4 or more and is their
    # reference
    curve = _curve(e, A)
    root = _shift_root(lambda s: curve(s)[2:], n, A, c / reserves[m], rho, o)
    x, P, _, _ = curve(root)
    rebalanced = [D / (P * xk) if P * xk > 0.0 else math.inf for xk in x]
    if not all(0.0 < r < math.inf for r in rebalanced):
        raise _unattainable(rho, o, _RESERVE_OUT_OF_RANGE)
    V_held = V + g[o] / g[0] * reserves[o] * rho
    V_prime = math.fsum(wk / w[0] * r for wk, r in zip(w, rebalanced))
    return V_prime / V_held - 1.0


# The 2- and 3-asset forms of _divergence_loss_at, bit for bit. They set up
# w, m and e, solve, and revalue at the root, unrolled: tuple unpacking and
# plain comparisons in place of min(key=), max, all() and the comprehensions
# (each conditional keeps the generic form's choice, NaN included). Each
# carries _shift_root's loop with the same bracket, bisection, stop rule and
# errors, and evaluates f, f' and the rebalanced x and P with _curve's float
# operations in _curve's order. The solve's iterates follow the last bits of
# f and f', and the loss follows those of P*x_k, so a reordered operation
# moves output bytes. What differs is exact: math.prod's leading 1 and the
# folds' leading 0 are dropped, n/x_k is written n.0/x_k, n + 1 and 1/(n+1)
# and the bracket ends are literals, and f' is formed only where a step
# needs it.
def _divergence_loss_2(reserves, D, A, o, c, g, V, rho: float) -> float:
    quote.check_price_shift(rho)
    if rho == 0.0:
        return 0.0
    r0, r1 = reserves
    g0, g1 = g
    w1 = g1 * (1.0 + rho)  # o is 1
    if w1 < g0:
        out = c * (r1 - r0) / (r0 * r1) - rho * g1
        e0, e1 = (0.0 if out < 0.0 else out) / w1, 0.0
        r_m = r1
    else:
        out = c * (r0 - r1) / (r1 * r0) + rho * g1
        e0, e1 = 0.0, (0.0 if out < 0.0 else out) / g0
        r_m = r0
    a0, a1, B = 1.0 + e0, 1.0 + e1, 1.0 - A
    lo = 0.5 * A if A <= 1.0 else 2 * 4.0**-3
    hi = 4.0 * (A if A > 1.0 else 1.0)
    s = c / r_m
    s = lo if lo > s else hi if hi < s else s
    for _ in range(_MAX_ITERATIONS):
        t = s + A
        x0 = s + e0 * t
        x1 = s + e1 * t
        P = ((2.0 / x0) * (2.0 / x1)) ** (1.0 / 3.0)
        i0, i1 = 1.0 / x0, 1.0 / x1
        f = A * (i0 + i1) + B * P - 1.0
        if not math.isfinite(f):
            raise _unattainable(rho, o, _UNREPRESENTABLE)
        if f > 0.0:
            lo = s
        elif f < 0.0:
            hi = s
        else:
            break
        if not lo < hi:
            raise _unattainable(rho, o, _UNREPRESENTABLE)
        d0, d1 = a0 * i0, a1 * i1
        slope = -A * (d0 * i0 + d1 * i1) - B * P * (d0 + d1) / 3
        step = s - f / slope if slope else math.nan
        if step != s and not lo < step < hi:
            step = math.sqrt(lo) * math.sqrt(hi)
        converged = abs(step - s) <= _REL_TOL * step
        s = step
        if converged:
            break
    else:
        raise _unconverged(rho, o)
    t = s + A
    x0 = s + e0 * t
    x1 = s + e1 * t
    P = ((2.0 / x0) * (2.0 / x1)) ** (1.0 / 3.0)
    p0, p1 = P * x0, P * x1
    if p0 > 0.0 and p1 > 0.0:
        q0, q1 = D / p0, D / p1
        if 0.0 < q0 < math.inf and 0.0 < q1 < math.inf:
            V_held = V + g1 / g0 * r1 * rho
            return math.fsum((g0 / g0 * q0, w1 / g0 * q1)) / V_held - 1.0
    raise _unattainable(rho, o, _RESERVE_OUT_OF_RANGE)


def _divergence_loss_3(reserves, D, A, o, c, g, V, rho: float) -> float:
    quote.check_price_shift(rho)
    if rho == 0.0:
        return 0.0
    r0, r1, r2 = reserves
    g0, g1, g2 = g
    w1, w2 = (g1 * (1.0 + rho), g2) if o == 1 else (g1, g2 * (1.0 + rho))
    shift = rho * g[o]
    m, r_m, w_m = 0, r0, g0
    if w1 < w_m:
        m, r_m, w_m = 1, r1, w1
    if w2 < w_m:
        m, r_m, w_m = 2, r2, w2
    e0 = e1 = e2 = 0.0
    if m != 0:
        out = c * (r_m - r0) / (r0 * r_m)
        if m == o:
            out -= shift
        e0 = (0.0 if out < 0.0 else out) / w_m
    if m != 1:
        out = c * (r_m - r1) / (r1 * r_m)
        if o == 1:
            out += shift
        elif m == o:
            out -= shift
        e1 = (0.0 if out < 0.0 else out) / w_m
    if m != 2:
        out = c * (r_m - r2) / (r2 * r_m)
        if o == 2:
            out += shift
        elif m == o:
            out -= shift
        e2 = (0.0 if out < 0.0 else out) / w_m
    a0, a1, a2, B = 1.0 + e0, 1.0 + e1, 1.0 + e2, 1.0 - A
    lo = 0.5 * A if A <= 1.0 else 3 * 6.0**-4
    hi = 6.0 * (A if A > 1.0 else 1.0)
    s = c / r_m
    s = lo if lo > s else hi if hi < s else s
    for _ in range(_MAX_ITERATIONS):
        t = s + A
        x0 = s + e0 * t
        x1 = s + e1 * t
        x2 = s + e2 * t
        P = ((3.0 / x0) * (3.0 / x1) * (3.0 / x2)) ** 0.25
        i0, i1, i2 = 1.0 / x0, 1.0 / x1, 1.0 / x2
        f = A * (i0 + i1 + i2) + B * P - 1.0
        if not math.isfinite(f):
            raise _unattainable(rho, o, _UNREPRESENTABLE)
        if f > 0.0:
            lo = s
        elif f < 0.0:
            hi = s
        else:
            break
        if not lo < hi:
            raise _unattainable(rho, o, _UNREPRESENTABLE)
        d0, d1, d2 = a0 * i0, a1 * i1, a2 * i2
        slope = -A * (d0 * i0 + d1 * i1 + d2 * i2) - B * P * (d0 + d1 + d2) / 4
        step = s - f / slope if slope else math.nan
        if step != s and not lo < step < hi:
            step = math.sqrt(lo) * math.sqrt(hi)
        converged = abs(step - s) <= _REL_TOL * step
        s = step
        if converged:
            break
    else:
        raise _unconverged(rho, o)
    t = s + A
    x0 = s + e0 * t
    x1 = s + e1 * t
    x2 = s + e2 * t
    P = ((3.0 / x0) * (3.0 / x1) * (3.0 / x2)) ** 0.25
    p0, p1, p2 = P * x0, P * x1, P * x2
    if p0 > 0.0 and p1 > 0.0 and p2 > 0.0:
        q0, q1, q2 = D / p0, D / p1, D / p2
        if 0.0 < q0 < math.inf and 0.0 < q1 < math.inf and 0.0 < q2 < math.inf:
            V_held = V + g[o] / g0 * reserves[o] * rho
            return math.fsum((g0 / g0 * q0, w1 / g0 * q1, w2 / g0 * q2)) / V_held - 1.0
    raise _unattainable(rho, o, _RESERVE_OUT_OF_RANGE)


_DIVERGENCE_POINTS = {2: _divergence_loss_2, 3: _divergence_loss_3}


def stableswap_divergence_loss(
    reserves, D: float, amplification: float, o: int, rho: float
) -> float:
    """Loss L of providing liquidity versus holding when asset o appreciates
    by rho against asset 0 (the numeraire): rebalance along the curve to the
    shifted rates, revalue, compare.

    The curve's gradient is g_k = A + c/r_k with c = D*(D/n)^n/prod(r), and
    the rebalanced state's gradient is proportional to w, where w = g except
    w_o = (1+rho)*g_o. Writing x_k = c'/r'_k for the rebalanced state, A + x_k
    is proportional to w_k, so x_k = s + e_k*(s + A) with e_k = w_k/w_m - 1
    >= 0 against the smallest weight w_m and s = x_m > 0. On the curve
    A*sum(1/x_k) + (1-A)*P - 1 = 0 with P = prod(n/x_k)^(1/(n+1)) = D/c':
    one equation in s, +inf at s -> 0 and -1 at s -> inf, with a single root
    because one point of the strictly convex curve has its normal along w.
    Its slope in s is a closed form (_curve), so Newton's method solves it
    from the unshifted root s = c/r_m inside a-priori bounds, in about 7.5
    evaluations on the default shift grid. Then r'_k = D/(P*x_k), valued at
    the prices w_k/w_0, as numerics.generic_divergence_loss values a pool at
    g_k/g_0.
    """
    return stableswap_divergence_kernel(reserves, D, amplification, o)(rho)


def stableswap_slippage(reserves, D: float, amplification: float, i: int, o: int, x_in: float) -> float:
    """Slippage (quote.slippage_from_quote) of adding x_in of asset i."""
    x_out = stableswap_swap(reserves, D, amplification, i, o, x_in)
    rate = stableswap_spot_rate(reserves, D, amplification, i, o)
    return slippage_from_quote(x_in, x_out, rate)

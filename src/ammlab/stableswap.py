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

The swap output is one plain function (_swap_output). The divergence point
is written once, as a source template for every pool size, unrolled for a
size on its first use, compiled and cached (_divergence_point_for).
"""
from __future__ import annotations

import linecache
import math
import re
import string
from functools import cache, partial, reduce
from itertools import takewhile
from operator import add, mul  # with reduce, read by the generated kernels

from . import quote
from .errors import ConvergenceFailure, DomainError, NoSolution
from .numerics import DEFAULT_CONFIG, RootBracket, find_root
from .quote import slippage_from_quote


def _check(reserves, amplification: float, D: float = 1.0, n: int | None = None) -> None:
    """Every public entry's one check, in order: D (1.0: none), n, the reserves, A."""
    quote.check_positive("stableswap invariant D", D)
    quote.check_asset_count(len(reserves) if n is None else n)
    quote.check_reserves(reserves)
    quote.check_positive("stableswap amplification", amplification)


def _out_of_range(reserves, D: float) -> DomainError:
    # sum(r), (D/n)^n or D*(D/n)^n overflows, or prod(r) underflows to 0:
    # the equation is not representable at this scale without rescaling the
    # reserves
    return DomainError(
        f"the invariant equation leaves the floating-point range at D={D} "
        f"for reserves {tuple(reserves)}"
    )


def _constants(D: float, A: float, n: int, finite: bool = False) -> tuple[float, float, float]:
    """curve_constants on checked arguments. A pool leaves finite off: its
    conservation gate refuses a D*q beyond the float range in its own words."""
    shift = D * (1.0 - 1.0 / A)
    try:
        q = (D / n) ** n
    except OverflowError:
        raise DomainError(f"(D/n)^n leaves the floating-point range at D={D}") from None
    if finite and not math.isfinite(D * q):
        raise DomainError(f"D*(D/n)^n leaves the floating-point range at D={D}")
    if finite and not math.isfinite(shift):
        raise DomainError(f"the shift D*(1 - 1/A) leaves the floating-point range at A={A}")
    return q, D * q, shift


def curve_constants(D: float, amplification: float, n: int) -> tuple[float, float, float]:
    """(q, D*q, D*(1 - 1/A)) with q = (D/n)^n: the constants that a pool's
    spot rates, swaps and conservation checks share. D, n and A are judged in
    that order; a q, a D*q or a shift beyond the float range raises DomainError."""
    _check((), amplification, D, n)
    return _constants(D, amplification, n, finite=True)


def conservation_check(reserves, D: float, amplification: float, q: float, dq: float):
    """(residual, drift) at (reserves, D) from one pass, given q and D*q from
    curve_constants: a transition's gate and its receipt. With g(D) =
    A*sum(r) + D - A*D - D^{n+1} / (n^n * prod(r)), the residual is |g(D)|
    over the sum of g's terms, and the drift, one Newton step on g from D,
    |g(D)| / (D * |g'(D)|), is the relative distance from D to the reserves'
    invariant to first order (inf at a zero slope). The reserves are not
    checked."""
    n = len(reserves)
    prod = math.prod(reserves)
    try:
        total = math.fsum(reserves)
        power = dq / prod
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(reserves, D) from None
    a_total, a_d = amplification * total, amplification * D
    head = a_total + D - a_d
    gap = head - power
    if not math.isfinite(gap):
        # the last term, A*sum(r) or A*D overflows: g(D) would be inf or NaN
        raise _out_of_range(reserves, D)
    # the four terms are positive, so their sum is that of their magnitudes;
    # where it overflows, the quotient is taken on all of them over 4
    size = sum((a_total, D, a_d, power))
    if size == math.inf:
        gap, size = gap / 4.0, a_total / 4.0 + D / 4.0 + a_d / 4.0 + power / 4.0
    residual = abs(gap) / max(size, 1e-300)
    ratio = q / prod
    denominator = D * abs(1.0 - amplification - (n + 1) * ratio)
    return residual, abs(head - D * ratio) / denominator if denominator else math.inf


def conservation_residual(reserves, D: float, amplification: float) -> float:
    """The relative residual of the defining equation at (reserves, D), zero
    on the curve: conservation_check's first value, on checked arguments."""
    _check(reserves, amplification, D)
    try:
        q = (D / len(reserves)) ** len(reserves)
    except OverflowError:
        raise _out_of_range(reserves, D) from None
    return conservation_check(reserves, D, amplification, q, D * q)[0]


def defining_residual(reserves, D: float, amplification: float) -> float:
    """Signed residual (D/n)^n/prod(r) - 1 - A*(sum(r)/D - 1), zero exactly
    on the curve and strictly decreasing in every reserve — the form handed
    to the generic numeric engine. A first term or a residual beyond the
    float range raises DomainError.

    The excess sum(r) - D is summed exactly before A multiplies it: rounding
    sum(r)/D first would put noise of order A*eps on the residual."""
    _check(reserves, amplification, D)
    n = len(reserves)
    try:
        power = (D / n) ** n / math.prod(reserves)
        residual = power - 1.0 - amplification * (math.fsum((*reserves, -D)) / D)
    except (OverflowError, ZeroDivisionError):
        residual = math.nan
    if math.isfinite(residual):
        return residual
    raise _out_of_range(reserves, D)


def solve_invariant(reserves, amplification: float) -> float:
    """The unique positive invariant D for the given reserves: the root of
    g(D) = A*sum(r) + D - A*D - D^{n+1} / (n^n * prod(r)).

    AM-GM brackets the root inside [n*(prod r)^{1/n}, sum r], where g has
    opposite signs at the endpoints and is strictly decreasing; a balanced
    pool sits exactly at the upper endpoint and returns n*r directly. A D
    beyond the float range raises DomainError."""
    _check(reserves, amplification)
    n = len(reserves)
    if min(reserves) == max(reserves) and n * reserves[0] < math.inf:
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
    try:
        if e:
            scaled = [math.ldexp(r, -e) for r in reserves]
            return _spot_rate(scaled, math.ldexp(dq, -e * (len(reserves) + 1)), amplification, i, o)
    except OverflowError:  # D*q scaled past the largest float: D lies far off the reserves
        pass
    raise DomainError("the spot rate's products leave the floating-point range")


def stableswap_spot_rate(reserves, D: float, amplification: float, i: int, o: int) -> float:
    """Spot rate (token i per token o) on the amplified curve:
    r_i*(A*r_o*prod + D*q) / (r_o*(A*r_i*prod + D*q)) with q = (D/n)^n."""
    _check(reserves, amplification, D)
    if i == o:
        return 1.0
    _, dq, _ = _constants(D, amplification, len(reserves), finite=True)
    return _spot_rate(reserves, dq, amplification, i, o)


# the longest sum or product _unrolled writes as one expression: the compiler
# recurses once per operator, and its depth limit lies near 3,000 on Python 3.11
_LONGEST_FOLD = 64
_FOLDS = {" + ": "add", " * ": "mul"}


def _unrolled(template: str, name: str, n: int, /, **constants):
    """The function `name` that template defines, written out for an n-asset
    pool and compiled against this module's globals; linecache holds its
    source for tracebacks, inspect and profilers until linecache.clearcache(),
    which drops it for the rest of the process. In template, `$key` stands
    for constants[key]; then the lines between `%each` and `%end` repeat,
    and `[[body|sep]]` joins body with sep, for k = 0..n-1, where `@` stands
    for k. Beyond _LONGEST_FOLD terms a sum or product becomes the same left
    fold by reduce."""

    def join(match) -> str:
        body, sep = match[1], match[2]
        terms = [body.replace("@", str(k)) for k in range(n)]
        if n > _LONGEST_FOLD and sep in _FOLDS:
            return f"reduce({_FOLDS[sep]}, ({', '.join(terms)}))"
        return sep.join(terms)

    lines = iter(string.Template(template).substitute(constants).splitlines())
    out = []
    for line in lines:
        if line.lstrip().startswith("%each"):
            block = list(takewhile(lambda text: text.strip() != "%end", lines))
            out += [text.replace("@", str(k)) for k in range(n) for text in block]
        else:
            out.append(line)
    source = re.sub(r"\[\[(.*?)\|(.*?)\]\]", join, "\n".join(out)) + "\n"
    filename = f"<ammlab.stableswap {name}, {n} assets>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace[name]


def _swap_output(reserves, i, o, shift, scale, amplification, x_in):
    """The swap output (see stableswap_swap) on constants from _constants."""
    r_in_new = reserves[i] + x_in
    if not 0.0 < r_in_new < math.inf:
        raise quote.trade_refusal(reserves[i], x_in)
    if x_in == 0.0:
        return 0.0
    # s0 and p0 fold the non-output reserves in index order, which counts
    # from 4 assets on, with the input reserve after the trade
    s0, p0, k = 0.0, 1.0, 0
    for r in reserves:
        if k != o:
            if k == i:
                r = r_in_new
            s0 += r
            p0 *= r
        k += 1
    b = s0 - shift
    a_p0 = amplification * p0
    if a_p0:
        c = scale / a_p0
    else:
        # A*P0 underflows to 0: divide by A, then by P0; where P0 itself
        # underflows, c is taken past the float range and the quadratic
        # refuses it
        c = scale / amplification / p0 if p0 else math.inf
    disc = b * b + 4.0 * c
    if disc < 0.0:
        raise NoSolution("swap quadratic has no real root")
    # the post-trade output reserve is the positive root of u^2 + b*u - c = 0;
    # the stable two-root form's roots have opposite signs (product -c < 0)
    q_half = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    root = -c / q_half
    if not root > q_half:
        root = q_half
    if not 0.0 < root < math.inf:
        raise NoSolution(f"swap quadratic produced a non-positive reserve {root}")
    return reserves[o] - root


def stableswap_swap(reserves, D: float, amplification: float, i: int, o: int, x_in: float) -> float:
    """Output amount for adding x_in of asset i at fixed invariant D.

    The post-trade output reserve is the positive root of
    u^2 + (S0 - D*(1 - 1/A))*u - q*D/(A*P0) = 0, with S0 and P0 the sum and
    product of all non-output reserves after the input lands. Non-traded
    reserves stay untouched.
    """
    _check(reserves, amplification, D)
    quote.check_assets(len(reserves), i, o)
    n = len(reserves)
    _, scale, shift = _constants(D, amplification, n, finite=True)
    return _swap_output(reserves, i, o, shift, scale, amplification, x_in)


_UNREPRESENTABLE = "the curve is not representable"
_RESERVE_OUT_OF_RANGE = "a rebalanced reserve leaves the floating-point range"
_REL_TOL = DEFAULT_CONFIG.root_rel_tol
_MAX_ITERATIONS = DEFAULT_CONFIG.max_iterations


def _unattainable(rho: float, o: int, reason: str) -> NoSolution:
    return NoSolution(f"rate shift {rho} for asset {o} is unattainable: {reason}")


def _unconverged(rho: float, o: int) -> ConvergenceFailure:
    return ConvergenceFailure(
        f"rate shift {rho} for asset {o}: root not located to rel_tol={_REL_TOL} "
        f"within {_MAX_ITERATIONS} iterations"
    )


# The divergence point (see stableswap_divergence_loss), unrolled by
# _divergence_point_for. Newton on f(s) = A*sum(1/x_k) + (1 - A)*P - 1 runs
# inside [lo, hi], where f is positive at lo and negative at hi (bounds from
# x_k >= s); each iterate replaces the bracket end whose sign its f shares,
# and a step that leaves the bracket bisects it in log space. The iterates
# follow the last bits of f and f', and the loss those of P*x_k, so sums and
# products fold left to right: a reordered operation moves output bytes.
_DIVERGENCE_POINT = """\
def divergence_point(reserves, D, A, o, c, g, V, rho):
    quote.check_price_shift(rho)
    if rho == 0.0:
        return 0.0
    [[r@|, ]] = reserves
    [[g@|, ]] = g
    [[w@|, ]] = [[g@ * (1.0 + rho) if o == @ else g@|, ]]
    shift = rho * g[o]
    m, r_m, w_m = 0, r0, w0
    %each
    if w@ < w_m:
        m, r_m, w_m = @, r@, w@
    %end
    try:
        # w_k - w_m as c*(1/r_k - 1/r_m) plus the shift term, not as a
        # difference of the A-sized weights, whose rounding error a large A
        # would carry into x_k
        %each
        e@ = 0.0
        if m != @:
            out = c * (r_m - r@) / (r@ * r_m)
            if o == @:
                out += shift
            elif m == o:
                out -= shift
            e@ = (0.0 if out < 0.0 else out) / w_m
        %end
        [[a@|, ]], B = [[1.0 + e@|, ]], 1.0 - A
        lo = 0.5 * A if A <= 1.0 else $lo
        hi = $hi * (A if A > 1.0 else 1.0)
        s = c / r_m
        s = lo if lo > s else hi if hi < s else s
        for _ in range(_MAX_ITERATIONS):
            t = s + A
            %each
            x@ = s + e@ * t
            %end
            P = ([[($n / x@)| * ]]) ** $power
            [[i@|, ]] = [[1.0 / x@|, ]]
            f = A * ([[i@| + ]]) + B * P - 1.0
            if not math.isfinite(f):
                raise _unattainable(rho, o, _UNREPRESENTABLE)
            if f > 0.0:
                lo = s
            elif f < 0.0:
                hi = s
            else:
                break
            if not lo < hi:
                # rounding gives f the wrong sign at a bracket end
                raise _unattainable(rho, o, _UNREPRESENTABLE)
            # s is now a bracket end: a step that rounds to zero ends the
            # solve, and a zero slope bisects
            [[d@|, ]] = [[a@ * i@|, ]]
            slope = -A * ([[d@ * i@| + ]]) - B * P * ([[d@| + ]]) / $n_plus_1
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
        %each
        x@ = s + e@ * t
        %end
        P = ([[($n / x@)| * ]]) ** $power
        [[p@|, ]] = [[P * x@|, ]]
        if [[p@ > 0.0| and ]]:
            [[q@|, ]] = [[D / p@|, ]]
            if [[0.0 < q@ < math.inf| and ]]:
                V_held = V + g[o] / g0 * reserves[o] * rho
                return math.fsum(([[w@ / g0 * q@|, ]])) / V_held - 1.0
    except (OverflowError, ZeroDivisionError):
        # a product r_k*r_m or an x_k underflows to 0 (at a subnormal A the
        # bracket's lower end A/2 rounds to 0), or the value sum overflows
        raise _unattainable(rho, o, _UNREPRESENTABLE) from None
    raise _unattainable(rho, o, _RESERVE_OUT_OF_RANGE)
"""


@cache
def _divergence_point_for(n: int):
    """The divergence point function for an n-asset pool, _DIVERGENCE_POINT
    written out for n: (reserves, D, A, o, c, g, V, rho) -> loss."""
    return _unrolled(
        _DIVERGENCE_POINT, "divergence_point", n, n=float(n), n_plus_1=n + 1,
        power=1.0 / (n + 1), lo=n * (2.0 * n) ** -(n + 1), hi=2.0 * n,
    )


def stableswap_divergence_kernel(reserves, D: float, amplification: float, o: int):
    """rho -> stableswap_divergence_loss(reserves, D, amplification, o, rho),
    with the invariant, reserve, asset-index and numeraire checks and the
    unshifted curve gradient done once for a sweep. Each point runs the
    divergence point written out for the pool size (_DIVERGENCE_POINT)."""
    _check(reserves, amplification, D)
    n = len(reserves)
    quote.check_index(n, o)
    quote.check_numeraire(o)
    A = amplification
    c = D * math.prod(D / (n * r) for r in reserves)
    g = [A + c / r for r in reserves]
    try:
        V = math.fsum(gk / g[0] * r for gk, r in zip(g, reserves))
    except OverflowError:
        raise _out_of_range(reserves, D) from None
    return partial(_divergence_point_for(n), tuple(reserves), D, A, o, c, tuple(g), V)


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
    Its slope in s is a closed form, so Newton's method solves it from the
    unshifted root s = c/r_m inside a-priori bounds, in about 7.5 evaluations
    on the default shift grid. Then r'_k = D/(P*x_k), valued at
    the prices w_k/w_0, as numerics.generic_divergence_loss values a pool at
    g_k/g_0.
    """
    return stableswap_divergence_kernel(reserves, D, amplification, o)(rho)


def stableswap_slippage(reserves, D: float, amplification: float, i: int, o: int, x_in: float) -> float:
    """Slippage (quote.slippage_from_quote) of adding x_in of asset i."""
    x_out = stableswap_swap(reserves, D, amplification, i, o, x_in)
    rate = stableswap_spot_rate(reserves, D, amplification, i, o)
    return slippage_from_quote(x_in, x_out, rate)

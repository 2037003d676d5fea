"""The plain-loop form of the stableswap divergence point.

`ammlab.stableswap` writes the divergence point once, as a template that it
unrolls for every pool size. This is the same rule written as loops over the
assets, in the same float operations and the same order; the identity tests
require the unrolled forms to return its bits, or raise its errors, on seeded
corpora.
"""
from __future__ import annotations

import math
from functools import reduce
from operator import add

from ammlab import quote, stableswap
from ammlab.stableswap import (
    _MAX_ITERATIONS,
    _REL_TOL,
    _RESERVE_OUT_OF_RANGE,
    _UNREPRESENTABLE,
    _unattainable,
    _unconverged,
)


def curve(e, A: float):
    """s -> (x, P, f, f') on the rebalanced state: x_k = s + e_k*(s + A),
    P = prod(n/x_k)^(1/(n+1)), the curve equation
    f = A*sum(1/x_k) + (1 - A)*P - 1 (see stableswap_divergence_loss) and its
    slope in s, f' = -A*sum((1 + e_k)/x_k^2) - (1 - A)*P*sum((1 + e_k)/x_k)/(n+1).

    Sums are folded left to right, as the unrolled forms add: the built-in
    sum compensates its rounding on Python 3.12 and later."""
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


def shift_root(residual, n: int, A: float, s: float, rho: float, o: int) -> float:
    """The root in s of the curve equation, for residual(s) -> (f, f'):
    Newton from s, the unshifted root, inside the bracket [s_lo, s_hi] where
    f is positive at s_lo and negative at s_hi (bounds from x_k >= s). Each
    iterate replaces the bracket end whose sign its f shares; a Newton step
    that leaves the bracket bisects it in log space instead. The solve stops
    once a step moves s by at most _REL_TOL relative."""
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


def divergence_loss_at(reserves, D, A, o, c, g, V, rho: float) -> float:
    """The divergence point: the arguments of a stableswap divergence
    kernel's point function, then rho."""
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
    equation = curve(e, A)
    try:
        root = shift_root(lambda s: equation(s)[2:], n, A, c / reserves[m], rho, o)
        x, P, _, _ = equation(root)
    except ZeroDivisionError:
        # an x_k underflows to 0: at a subnormal A the bracket's lower end
        # A/2 rounds to 0
        raise _unattainable(rho, o, _UNREPRESENTABLE) from None
    rebalanced = [D / (P * xk) if P * xk > 0.0 else math.inf for xk in x]
    if not all(0.0 < r < math.inf for r in rebalanced):
        raise _unattainable(rho, o, _RESERVE_OUT_OF_RANGE)
    V_held = V + g[o] / g[0] * reserves[o] * rho
    V_prime = math.fsum(wk / w[0] * r for wk, r in zip(w, rebalanced))
    return V_prime / V_held - 1.0


def divergence_loss(reserves, D: float, amplification: float, o: int, rho: float) -> float:
    """stableswap_divergence_loss by the loop form: the kernel's checks and
    unshifted gradient, then divergence_loss_at."""
    kernel = stableswap.stableswap_divergence_kernel(reserves, D, amplification, o)
    return divergence_loss_at(*kernel.args, rho)

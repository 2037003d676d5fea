"""`decimal` references for stableswap divergence loss and for log grids.

`divergence_reference` recomputes, from the same float inputs, the quantities
that `stableswap_divergence_loss` approximates in double precision: the
shift weights, the root s of the curve equation (by Newton's method in
`Decimal`) and the loss L. The tests hold the closed form's worst error on a
seeded corpus, counted in ulps, to the figures recorded below, so that a
change that moves output bits has to show that it does not lose accuracy.

`log_grid_reference` computes every point of a log grid by its own 80-digit
`exp`; `log_grid` must equal it at every point of a seeded corpus.
"""
from __future__ import annotations

import hashlib
import math
import random
import sys
from decimal import Context, Decimal, localcontext
from unittest.mock import patch

import pytest

from ammlab.analysis import default_trade_grid, log_grid
from ammlab.core import implicit_conservation, stableswap_pool
from ammlab.numerics import generic_divergence_loss
from ammlab.stableswap import solve_invariant, stableswap_divergence_loss

import stableswap_reference as reference

CONTEXT = Context(prec=60)

# The worst errors on CORPUS, rounded up, of the divergence solve that walked
# a bracket and then called numerics.find_root with its finite-difference
# slope: neither may grow. The root's error is dominated by the shift
# weights' rounding, which the solve inherits.
WORST_S_ULPS = 1417.83
WORST_ONE_PLUS_L_ULPS = 6.057


def ulp_error(x: float, ref: Decimal, unit: float | None = None) -> float:
    """|x - ref| in units of unit, by default the ulp of ref rounded to a
    double."""
    if unit is None:
        unit = math.ulp(float(ref))
    with localcontext(CONTEXT):
        return float(abs(Decimal(x) - ref) / Decimal(unit))


def _curve(e, A: Decimal, n: int, s: Decimal):
    """(x, P, f, f') of the curve equation at s, as stableswap_reference.curve
    defines them, in Decimal."""
    x = [s + ek * (s + A) for ek in e]
    log_prod = sum((Decimal(n) / xk).ln() for xk in x)
    P = (log_prod / (n + 1)).exp()
    f = A * sum(1 / xk for xk in x) + (1 - A) * P - 1
    slope = -A * sum((1 + ek) / (xk * xk) for ek, xk in zip(e, x)) - (1 - A) * P * sum(
        (1 + ek) / xk for ek, xk in zip(e, x)
    ) / (n + 1)
    return x, P, f, slope


def invariant_reference(reserves, amplification: float) -> Decimal:
    """The stableswap invariant D of the float reserves: the root of
    g(D) = A*sum(r) + D - A*D - D^(n+1)/(n^n*prod(r)), by Newton's method
    from sum(r), where g is concave, decreasing and not positive, so the
    iterates decrease to the root."""
    with localcontext(CONTEXT):
        r = [Decimal(x) for x in reserves]
        A, n = Decimal(amplification), len(r)
        total, denominator = sum(r), n**n * math.prod(r)
        D = total
        for _ in range(200):
            power = D ** (n + 1) / denominator
            step = (A * total + D - A * D - power) / (1 - A - (n + 1) * power / D)
            D -= step
            if abs(step) <= Decimal("1e-52") * D:
                return D
        raise AssertionError(f"reference invariant did not converge for {reserves}")


def divergence_reference(reserves, D: float, amplification: float, o: int, rho: float, start: float):
    """(s, L) for stableswap_divergence_loss(reserves, D, amplification, o,
    rho), to about 50 significant digits: the root s of the curve equation
    for the exact shift weights, by Newton's method from start, and the loss
    L at that root."""
    with localcontext(CONTEXT):
        r = [Decimal(x) for x in reserves]
        D_, A, shift = Decimal(D), Decimal(amplification), Decimal(rho)
        n = len(r)
        c = D_
        for rk in r:
            c *= D_ / (n * rk)
        g = [A + c / rk for rk in r]
        w = list(g)
        w[o] *= 1 + shift
        m = min(range(n), key=w.__getitem__)
        e = [(wk - w[m]) / w[m] for wk in w]
        s = Decimal(start)
        for _ in range(60):
            _, _, f, slope = _curve(e, A, n, s)
            step = f / slope
            while step >= s:  # keep s positive
                step /= 2
            s -= step
            if abs(step) <= Decimal("1e-52") * s:
                break
        else:
            raise AssertionError(f"reference Newton did not converge from {start}")
        x, P, _, _ = _curve(e, A, n, s)
        held = sum(wk * rk for wk, rk in zip(w, r))
        pooled = sum(wk * D_ / (P * xk) for wk, xk in zip(w, x))
        return s, pooled / held - 1


def _corpus():
    """Seeded divergence points: n = 2, 3, 4; A from 1e-2 to 1e4; balanced
    and unbalanced pools at scales from 1e-50 to 1e50; shifts in (-1, 1e3],
    near -1, near 0 and large."""
    rng = random.Random("reference/stableswap-divergence")
    cases = []
    for n in (2, 3, 4):
        for k in range(100):
            scale = 10.0 ** rng.uniform(-50.0, 50.0)
            if k % 2:
                reserves = tuple(scale * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(n))
            else:
                reserves = (scale,) * n
            amp = 10.0 ** rng.uniform(-2.0, 4.0)
            o = rng.randrange(1, n)
            for rho in (
                rng.uniform(-1.0, 4.0),
                rng.choice((-1.0 + 10.0 ** rng.uniform(-6.0, 0.0), 10.0 ** rng.uniform(0.0, 3.0),
                            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, -2.0))),
            ):
                if rho > -1.0:
                    cases.append((reserves, amp, o, rho))
    return cases


CORPUS = _corpus()


def _solved(cases, invariant=lambda reserves, amp: float(invariant_reference(reserves, amp))):
    """(inputs, L, s) for each case, with the invariant D, by default the
    reference's rounded, and the root s that the closed form's solve
    returned. The unrolled forms solve inline, so s is recorded on the loop
    reference, which must return the same L bit for bit."""
    roots = []
    solve = reference.shift_root

    def recorded(*args):
        roots.append(solve(*args))
        return roots[-1]

    out = []
    for reserves, amp, o, rho in cases:
        d = invariant(reserves, amp)
        loss = stableswap_divergence_loss(reserves, d, amp, o, rho)
        with patch.object(reference, "shift_root", recorded):
            assert reference.divergence_loss(reserves, d, amp, o, rho).hex() == loss.hex()
        out.append(((reserves, d, amp, o, rho), loss, roots[-1]))
    assert len(roots) == len(cases)
    return out


def test_the_reference_agrees_with_the_generic_engine():
    # the independent route: numerics.generic_divergence_loss rebalances by
    # Newton on the conservation law alone, to about 1e-9 through 1+L
    cases = [
        ((100.0, 100.0), 10.0, 1, 0.5),
        ((100.0, 450.0), 1000.0, 1, -0.5),
        ((50.0, 150.0, 90.0), 0.1, 2, 2.0),
        ((100.0, 300.0, 600.0, 200.0), 50.0, 3, -0.3),
    ]
    for inputs, loss, s in _solved(cases):
        reserves, d, amp, o, rho = inputs
        curve = implicit_conservation(stableswap_pool(reserves, amp))
        generic = generic_divergence_loss(curve, reserves, (d,), o, rho).L
        _, ref = divergence_reference(*inputs, start=s)
        assert abs(float((1 + ref) / (1 + Decimal(generic)) - 1)) <= 1e-8
        assert ulp_error(loss, ref, math.ulp(float(1 + ref))) <= 8.0


def test_ulp_error_counts_in_units_of_the_reference_ulp():
    assert ulp_error(1.0, Decimal(1)) == 0.0
    assert ulp_error(1.0 + 2.0**-51, Decimal(1)) == 2.0
    assert ulp_error(0.5, CONTEXT.add(Decimal("0.5"), Decimal(2.0**-54))) == 0.5
    assert ulp_error(3.0, Decimal(1), unit=0.5) == 4.0


def test_the_divergence_loss_error_does_not_grow():
    # 1+L is known only to the grid of L, which the closed form returns, so
    # its error counts in the larger of the ulps of 1+L and of L
    worst_s = worst_one_plus_l = 0.0
    for inputs, loss, s in _solved(CORPUS):
        ref_s, ref_l = divergence_reference(*inputs, start=s)
        unit = max(math.ulp(float(1 + ref_l)), math.ulp(float(ref_l)))
        worst_s = max(worst_s, ulp_error(s, ref_s))
        worst_one_plus_l = max(worst_one_plus_l, ulp_error(loss, ref_l, unit))
    assert len(CORPUS) == 600
    assert worst_s <= WORST_S_ULPS
    assert worst_one_plus_l <= WORST_ONE_PLUS_L_ULPS


def test_a_newton_step_that_rounds_to_zero_ends_the_solve():
    # on this pool's own D the step from a bracket end rounds to zero; a
    # solve that bisected there instead returned a root 49 ulps off, and a
    # loss 30 ulps off
    cases = [((2.3091103372819853e-34, 2.263792963330521e-30), 259.2982769463943, 1, 1.0)]
    [(inputs, loss, s)] = _solved(cases, solve_invariant)
    ref_s, ref_l = divergence_reference(*inputs, start=s)
    assert ulp_error(s, ref_s) <= 2.0
    assert ulp_error(loss, ref_l, math.ulp(float(1 + ref_l))) <= 4.0


GRID_CONTEXT = Context(prec=80)
# sha256 of the float.hex values of default_trade_grid(), space-separated
DEFAULT_TRADE_GRID_SHA256 = "f6ad30881969b2501e9b7e53b28ed19fcdf2d1dc5fe3c2a3acbd73bf3abcb07a"


def log_grid_reference(lo: float, hi: float, points: int) -> list[float]:
    """log_grid(lo, hi, points) correctly rounded: point k is
    lo*(hi/lo)^(k/(points - 1)), each from its own 80-digit exp, then
    rounded to the nearest double (float() of a Decimal rounds correctly,
    subnormals included); the endpoints are lo and hi themselves."""
    with localcontext(GRID_CONTEXT):
        span = (Decimal(hi) / Decimal(lo)).ln()
        inner = [float(Decimal(lo) * (span * k / (points - 1)).exp()) for k in range(1, points - 1)]
    return [lo, *inner, hi]


def _grid_corpus():
    """Seeded log grids: lo from the smallest subnormal to 1e308, spans from
    a few ulps to the whole float range, 2 to 400 points; plus the default
    trade grid, the benchmark's 2,000-point shapes, and spans from a
    subnormal lo and across [1e-300, 1e300]."""
    rng = random.Random("reference/log-grid")
    cases = [
        (0.01, 0.9, 50),
        (1e-4, 0.9, 2000),
        (5.4e4, 5.4e6, 2000),
        (1e-300, 1e300, 2000),
        (5e-324, 1e-300, 300),
        (5e-324, 2.2250738585072014e-308, 100),
        (5e-324, sys.float_info.max, 500),
    ]
    while len(cases) < 107:
        log_lo = rng.uniform(-323.3, 308.0)
        decades = rng.choice((10.0 ** rng.uniform(-14.0, 0.0), rng.uniform(0.0, 632.0)))
        lo, hi = 10.0**log_lo, 10.0 ** min(log_lo + decades, 308.25)
        if lo < hi:
            cases.append((lo, hi, rng.choice((2, 3, rng.randint(4, 60), rng.randint(61, 400)))))
    return cases


def test_log_grid_is_correctly_rounded():
    points = 0
    for lo, hi, n in _grid_corpus():
        got = [v.hex() for v in log_grid(lo, hi, n)]
        want = [v.hex() for v in log_grid_reference(lo, hi, n)]
        assert got == want, (lo, hi, n)
        points += n
    assert points > 10_000


def test_the_default_trade_grid_keeps_its_bits():
    text = " ".join(v.hex() for v in default_trade_grid())
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_TRADE_GRID_SHA256

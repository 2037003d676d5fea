"""Generic numeric engine for pools defined by an implicit conservation law.

A pool is treated as an opaque relation Z(reserves; invariant) = 0. Everything
here works from Z alone: safeguarded root finding, finite-difference spot
rates, swap solving, rate-targeted rebalancing, and the five-step divergence
loss procedure. None of it touches the protocol closed forms, so these
routines double as an independent cross-check of those closed forms. It is
plain Python: the rebalance Newton step solves its n×n system by Gaussian
elimination with partial pivoting, and its sums are folded left to right,
as the built-in sum compensates its rounding on Python 3.12 and later.

One table, DEFAULT_CONFIG (a SolverConfig record), holds every tolerance
and budget; the literals left are find_root's Newton step (1e-7 of x, floor
1e-12) and the 1e-300 floor under z_scale. Each state's partials of Z, and
the rates formed and refused from them, are taken once, by central
differences of step _STEP relative to the variable, with no per-call
override, so outputs are reproducible bit-for-bit.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Sequence

from . import quote
from .errors import ConvergenceFailure, DegenerateGradient, DomainError, InvalidBracket, NoSolution

ResidualFn = Callable[[Sequence[float], Sequence[float]], float]


@dataclass(frozen=True)
class SolverConfig:
    """The numeric tolerances and budget that this module's routines read."""

    root_rel_tol: float = 1e-14
    # budget of find_root, solve_rebalance and the stableswap divergence Newton
    max_iterations: int = 256
    # bounds each row of the normalised rebalance system; a rate row is the
    # log of the rate over the *target* rate, so the achieved |E'/E - 1 - rho|
    # error carries a (1+rho) factor, and 1e-9 keeps it under 1e-8 up to rho = 9
    rebalance_tol: float = 1e-9


DEFAULT_CONFIG = SolverConfig()
# the central-difference step of every partial of Z, relative to r_k, and of
# the rebalance Jacobian in log-reserves: truncation error grows as h^2 and
# rounding error as eps/h, so eps^(1/3) balances the two (Nocedal and Wright,
# Numerical Optimization, section 8.1)
_STEP = sys.float_info.epsilon ** (1 / 3)


@dataclass(frozen=True)
class ImplicitConservation:
    """A conservation law in residual form.

    evaluate(reserves, invariant) returns Z, zero exactly when the reserves
    sit on the curve pinned by the invariant values. Z must be continuously
    differentiable in each reserve on the positive orthant.
    """

    evaluate: ResidualFn
    n: int

    def __post_init__(self) -> None:
        quote.check_asset_count(self.n)


@dataclass(frozen=True)
class RootBracket:
    """[lo, hi] and f_lo = f(lo), f_hi = f(hi): positive reals straddling a sign change."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        lo, hi, f_lo, f_hi = self.lo, self.hi, self.f_lo, self.f_hi
        if not (0.0 < lo < hi) or not math.isfinite(hi):
            raise InvalidBracket(f"bracket endpoints must satisfy 0 < lo < hi, got [{lo}, {hi}]")
        if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
            raise InvalidBracket("bracket endpoint values must be finite")
        if f_lo != 0.0 and f_hi != 0.0 and (f_lo < 0.0) == (f_hi < 0.0):
            raise InvalidBracket(f"no sign change on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}")


def find_root(f: Callable[[float], float], bracket: RootBracket) -> float:
    """Safeguarded Newton iteration inside a validated bracket.

    Newton steps (finite-difference derivative) are accepted only while they
    stay strictly inside the current bracket; anything else falls back to
    bisection. A difference probe that leaves f's domain (f raises
    ValueError, a DomainError among them, or OverflowError) ends the Newton steps: the rest
    of the solve bisects. The bracket shrinks monotonically, so the method
    cannot diverge; it stops at DEFAULT_CONFIG's root_rel_tol or fails after
    its max_iterations steps."""
    rel_tol, max_iterations = DEFAULT_CONFIG.root_rel_tol, DEFAULT_CONFIG.max_iterations
    lo, hi = bracket.lo, bracket.hi
    f_lo, f_hi = bracket.f_lo, bracket.f_hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    # RootBracket makes 0 < lo < hi, and every x lies in [lo, hi], so lo, hi
    # and x are positive throughout and need no abs(); each x replaces the
    # endpoint whose sign it shares, so f(lo) keeps f_lo's sign
    lo_negative = f_lo < 0.0
    x = 0.5 * (lo + hi)
    newton = True
    for _ in range(max_iterations):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == lo_negative:
            lo = x
        else:
            hi = x
        if hi - lo <= rel_tol * hi:
            return 0.5 * (lo + hi)
        x_next = math.inf
        if newton:
            h = x * 1e-7
            if h < 1e-12:
                h = 1e-12
            try:
                d = (f(x + h) - f(x - h)) / (2.0 * h)
            except (ValueError, OverflowError):
                # the step's absolute floor reaches past the edge of f's
                # domain: this close to it a difference quotient misleads
                # even where both probes succeed, and a tiny Newton step
                # would pass for convergence
                newton = False
            else:
                if d != 0.0 and math.isfinite(d):
                    x_next = x - fx / d
        if lo < x_next < hi:
            tol = rel_tol * x_next
            if -tol <= x_next - x <= tol:
                return x_next
            x = x_next
        else:
            x = 0.5 * (lo + hi)
    raise ConvergenceFailure(
        f"root not located to rel_tol={rel_tol} within {max_iterations} iterations"
    )


def _check_state(Z: ImplicitConservation, reserves: Sequence[float]) -> None:
    # every entry point judges the caller's reserves here, before Z sees them
    quote.check_reserves(reserves)
    if len(reserves) != Z.n:
        raise DomainError(f"expected {Z.n} reserves, got {len(reserves)}")


def _partials(
    Z: ImplicitConservation,
    reserves: Sequence[float],
    invariant: Sequence[float],
    pairs: Sequence[tuple[int, int]],
) -> tuple[dict[int, float], list[float]]:
    """dZ/dr_k by one central difference, once per state for each k of the
    rate pairs (i, o), and each pair's rate (dZ/dr_o)/(dZ/dr_i). Each pair
    refuses a non-finite partial, then a zero one: a zero dZ/dr_i leaves no
    rate, and a zero dZ/dr_o a rate of 0. Then it refuses a rate that
    underflows to 0 or overflows; a law whose coordinates rise together
    has a negative rate, which stays."""
    partials: dict[int, float] = {}
    rates = []
    for i, o in pairs:
        for k in (o, i):
            if k not in partials:
                h = _STEP * reserves[k]
                if h == 0.0:
                    raise DomainError(f"reserve {k} too small for the finite-difference step {h}")
                if reserves[k] + h == math.inf:
                    raise DomainError(f"reserve {k} too large for the finite-difference step {h}")
                up, dn = list(reserves), list(reserves)
                up[k], dn[k] = reserves[k] + h, reserves[k] - h
                partials[k] = (Z.evaluate(up, invariant) - Z.evaluate(dn, invariant)) / (2.0 * h)
        for k, d in ((o, partials[o]), (i, partials[i])):
            if not math.isfinite(d):
                raise DomainError(f"dZ/dr_{k} = {d} is not finite")
        scale = max(abs(partials[o]), abs(partials[i]))
        for k, d in ((i, partials[i]), (o, partials[o])):
            if d == 0.0:
                raise DegenerateGradient(f"dZ/dr_{k} = {d} is zero relative to scale {scale}")
        rates.append(partials[o] / partials[i])
        if rates[-1] == 0.0 or not math.isfinite(rates[-1]):
            raise DomainError(f"the rate dZ/dr_{o} / dZ/dr_{i} = {rates[-1]} is zero or not finite")
    return partials, rates


def numeric_spot_rate(
    Z: ImplicitConservation,
    reserves: Sequence[float],
    invariant: Sequence[float],
    i: int,
    o: int,
) -> float:
    """Spot rate (token i per token o) as the ratio of central-difference
    partials (dZ/dr_o)/(dZ/dr_i). Returns 1 exactly when i == o."""
    _check_state(Z, reserves)
    quote.check_index(len(reserves), i)
    quote.check_index(len(reserves), o)
    if i == o:
        return 1.0
    return _partials(Z, reserves, invariant, [(i, o)])[1][0]


def implicit_swap(
    Z: ImplicitConservation,
    reserves: Sequence[float],
    invariant: Sequence[float],
    i: int,
    o: int,
    x_in: float,
) -> float:
    """Swap by root finding: add x_in to reserve i, solve Z = 0 for the new
    reserve o (all other reserves fixed), return x_out = r_o - r_o'; a
    negative x_in is the reverse trade and yields a negative x_out. Each end
    of [r_o/2, 2*r_o] doubles outward until Z changes sign across the two,
    and the root is solved for in the octave where the sign changed; once
    both ends have left (0, inf), the swap raises NoSolution."""
    _check_state(Z, reserves)
    quote.check_assets(len(reserves), i, o)
    r_in_new = reserves[i] + x_in
    if not 0.0 < r_in_new < math.inf:
        raise quote.trade_refusal(reserves[i], x_in)
    if x_in == 0.0:
        return 0.0

    def g(y: float) -> float:
        probe = list(reserves)
        probe[i], probe[o] = r_in_new, y
        return Z.evaluate(probe, invariant)

    # both ends move: off its curve, a state can put a tiny trade's root on
    # either side of r_o; an end whose first value leaves (0, inf) starts at r_o
    r_o = reserves[o]
    lo = 0.5 * r_o if 0.5 * r_o > 0.0 else r_o
    hi = 2.0 * r_o if 2.0 * r_o < math.inf else r_o
    g_lo, g_hi = g(lo), g(hi)
    inner = None
    while g_lo != 0.0 and g_hi != 0.0 and (g_lo < 0.0) == (g_hi < 0.0):
        if 0.5 * lo == 0.0 and 2.0 * hi == math.inf:
            raise NoSolution(f"no post-trade reserve in [{lo}, {hi}] satisfies the "
                             "conservation law")
        inner = lo, g_lo, hi, g_hi
        if 0.5 * lo > 0.0:
            lo, g_lo = 0.5 * lo, g(0.5 * lo)
        if 2.0 * hi < math.inf:
            hi, g_hi = 2.0 * hi, g(2.0 * hi)
    if inner is not None:
        # the ends before the last step shared a sign, so Z changes sign
        # between a new end and the one it replaced: keep that octave alone
        if g_lo == 0.0 or (g_lo < 0.0) != (inner[1] < 0.0):
            hi, g_hi = inner[0], inner[1]
        else:
            lo, g_lo = inner[2], inner[3]
    # u = r_o'/lo lies in [1, 2], or [1, 4] unwalked: find_root's step is relative
    u = find_root(lambda u: g(u * lo), RootBracket(1.0, hi / lo, g_lo, g_hi))
    return reserves[o] - u * lo


def _solve_linear(rows: Sequence[Sequence[float]], b: Sequence[float]) -> list[float]:
    """x with rows·x = b: Gaussian elimination with partial pivoting (the
    first row of largest magnitude) and back substitution, in the order of
    LAPACK's getf2 and getrs, which numpy.linalg.solve calls, less their
    fused multiply-adds; so the multipliers scale by the reciprocal pivot. An
    exactly zero pivot raises ConvergenceFailure."""
    n = len(b)
    a = [[*row, bk] for row, bk in zip(rows, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        a[k], a[p] = a[p], a[k]
        pivot = a[k][k]
        if pivot == 0.0:
            raise ConvergenceFailure("singular rebalance Jacobian: Singular matrix")
        inverse = 1.0 / pivot
        for i in range(k + 1, n):
            m = a[i][k] * inverse
            a[i] = [x - m * y for x, y in zip(a[i], a[k])]
    x = [row[n] for row in a]
    for i in reversed(range(n)):
        x[i] /= a[i][i]
        for j in range(i):
            x[j] -= x[i] * a[j][i]
    return x


def solve_rebalance(
    Z: ImplicitConservation,
    reserves: Sequence[float],
    invariant: Sequence[float],
    o: int,
    rho: float,
) -> tuple[float, ...]:
    """Reserves after arbitrage rebalancing to a shifted price of asset o.

    Solves the stacked system by Newton in log-reserves from the current
    reserves: for every j != o, log(jE_o / ((1+rho) * jE_o at the start)) = 0,
    and Z = 0; at the start only Z is evaluated, as each rate row there is
    log(1/(1+rho)). The line search halves each step until the residual norm
    falls, and refuses the shift once no reserve would move by a relative ulp.
    """
    n = len(reserves)
    quote.check_index(n, o)
    _check_state(Z, reserves)
    quote.check_price_shift(rho)
    config = DEFAULT_CONFIG
    pairs = [(j, o) for j in range(n) if j != o]
    d, base = _partials(Z, reserves, invariant, pairs)
    target = 1.0 + rho
    # the characteristic variation of Z over relative reserve moves: it
    # normalizes the conservation equation, so that "within 1e-9" means the
    # same thing for every protocol family
    z_scale = max(reduce(add, [abs(d[k]) * r for k, r in enumerate(reserves)]), 1e-300)

    def system(u: list[float]) -> list[float]:
        r = [math.exp(v) for v in u]
        _check_state(Z, r)
        _, rates = _partials(Z, r, invariant, pairs)
        out = [math.log(rate / b / target) for rate, b in zip(rates, base)]
        out.append(Z.evaluate(r, invariant) / z_scale)
        return out

    def probe(u: list[float]) -> list[float] | None:
        # trial evaluation during damping: leaving the evaluable domain just
        # means the step was too long, not that the solve failed
        try:
            out = system(u)
        except (ValueError, OverflowError, DegenerateGradient):
            return None
        return out if all(map(math.isfinite, out)) else None

    def converged(F: list[float]) -> bool:
        return all(abs(v) <= config.rebalance_tol for v in F)

    def norm(F: list[float]) -> float:
        return math.sqrt(reduce(add, [v * v for v in F]))

    u = [math.log(r) for r in reserves]
    F = [math.log(1.0 / target)] * (n - 1) + [Z.evaluate(reserves, invariant) / z_scale]
    if not math.isfinite(F[-1]):
        raise ConvergenceFailure("conservation residual is not finite at the start state")
    if converged(F):
        return tuple(reserves)

    for _ in range(config.max_iterations):
        columns = []
        for k in range(n):
            up, dn = list(u), list(u)
            up[k] += _STEP
            dn[k] -= _STEP
            columns.append([(a - b) / (2.0 * _STEP) for a, b in zip(system(up), system(dn))])
        step = _solve_linear(list(zip(*columns)), [-v for v in F])
        if not all(map(math.isfinite, step)):
            raise ConvergenceFailure("rebalance Newton step is not finite")
        F_norm = norm(F)
        alpha = 1.0
        while True:
            trial_u = [v + alpha * s for v, s in zip(u, step)]
            trial_F = probe(trial_u)
            if trial_F is not None and norm(trial_F) < F_norm:
                break
            alpha *= 0.5
            # the step would move no reserve by more than about a relative ulp
            if alpha * max(map(abs, step)) < sys.float_info.epsilon:
                raise NoSolution(f"rate shift {rho} for asset {o} is unattainable on this "
                                 "curve (Newton stagnated)")
        u, F = trial_u, trial_F
        if converged(F):
            return tuple(math.exp(v) for v in u)
    raise ConvergenceFailure(f"rebalance not converged within {config.max_iterations} iterations")


@dataclass(frozen=True)
class ValuationReport:
    """Pool valuation around a price shift: V before, V_held if the deposit
    had been held outside, V_prime after rebalancing; L = V_prime/V_held - 1."""

    V: float
    V_held: float
    V_prime: float
    rho: float

    @property
    def L(self) -> float:
        return self.V_prime / self.V_held - 1.0


def generic_divergence_loss(
    Z: ImplicitConservation,
    reserves: Sequence[float],
    invariant: Sequence[float],
    o: int,
    rho: float,
) -> ValuationReport:
    """Divergence loss of providing liquidity versus holding, when asset o
    appreciates by rho against the rest. Asset 0 is the numeraire.

    Five steps: value the pool at its start rates p, value the held portfolio
    at p with p_o times 1+rho, rebalance the pool to those shifted rates,
    value it at them, compare. A value past the float range is refused.
    """
    n = len(reserves)
    quote.check_index(n, o)
    quote.check_numeraire(o)
    quote.check_price_shift(rho)
    _check_state(Z, reserves)
    prices = [1.0, *_partials(Z, reserves, invariant, [(0, j) for j in range(1, n)])[1]]
    shifted = [p * (1.0 + rho) if k == o else p for k, p in enumerate(prices)]

    def value(p: Sequence[float], r: Sequence[float]) -> float:
        v = reduce(add, [pk * rk for pk, rk in zip(p, r)])
        if not math.isfinite(v):
            raise DomainError(f"the value of reserves {tuple(r)} leaves the floating-point range")
        return v

    V, V_held = value(prices, reserves), value(shifted, reserves)
    V_prime = value(shifted, solve_rebalance(Z, reserves, invariant, o, rho))
    return ValuationReport(V=V, V_held=V_held, V_prime=V_prime, rho=rho)

"""Generic numeric engine for pools defined by an implicit conservation law.

A pool is treated as an opaque relation Z(reserves; invariant) = 0. Everything
here works from Z alone: safeguarded root finding, finite-difference spot
rates, swap solving, rate-targeted rebalancing, and the five-step divergence
loss procedure. None of it touches the protocol closed forms, so these
routines double as an independent cross-check of those closed forms. It is
plain Python: the rebalance Newton step solves its n×n system by Gaussian
elimination with partial pivoting, and its sums are folded left to right,
as the built-in sum compensates its rounding on Python 3.12 and later.

One table, DEFAULT_CONFIG (a SolverConfig record), holds every tolerance,
step and budget but three literals: find_root's Newton step (1e-7 of x,
floor 1e-12), the line search's sufficient-decrease factor 1e-4 and the
1e-300 floor that guards the division by z_scale. There is no per-call
override, so outputs are reproducible bit-for-bit across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Sequence

from . import quote
from .errors import ConvergenceFailure, DegenerateGradient, DomainError, InvalidBracket, NoSolution

ResidualFn = Callable[[Sequence[float], Sequence[float]], float]


@dataclass(frozen=True)
class SolverConfig:
    """The numeric tolerances, steps and budget that this module's routines read."""

    root_rel_tol: float = 1e-14
    # budget of find_root, solve_rebalance and the stableswap divergence Newton
    max_iterations: int = 256
    # finite-difference step for spot rates, relative to r_k
    spot_rel_step: float = 1e-6
    degenerate_gradient_rtol: float = 1e-12
    # swap root bracket, as multiples of the output reserve
    swap_bracket_lo: float = 1e-12
    swap_bracket_hi: float = 1e3
    # bounds each row of the normalised rebalance system; a rate row is
    # relative to the *target* rate, so the achieved |E'/E - 1 - rho| error
    # carries a (1+rho) factor, and 1e-9 keeps it under 1e-8 up to rho = 9
    rebalance_tol: float = 1e-9
    rebalance_jacobian_step: float = 1e-7
    rebalance_max_log_step: float = 1.0
    rebalance_min_damping: float = 1.0 / 1024.0


DEFAULT_CONFIG = SolverConfig()


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
    ValueError, OverflowError or DomainError) ends the Newton steps: the rest
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
            except (ValueError, OverflowError, DomainError):
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


def _partial(
    Z: ImplicitConservation,
    reserves: Sequence[float],
    invariant: Sequence[float],
    k: int,
) -> float:
    h = DEFAULT_CONFIG.spot_rel_step * reserves[k]
    if h == 0.0:
        raise DomainError(f"reserve {k} too small for the finite-difference step {h}")
    up = list(reserves)
    dn = list(reserves)
    up[k] = reserves[k] + h
    dn[k] = reserves[k] - h
    return (Z.evaluate(up, invariant) - Z.evaluate(dn, invariant)) / (2.0 * h)


def numeric_spot_rate(
    Z: ImplicitConservation,
    reserves: Sequence[float],
    invariant: Sequence[float],
    i: int,
    o: int,
) -> float:
    """Spot rate (token i per token o) as the ratio of central-difference
    partials (dZ/dr_o)/(dZ/dr_i). Returns 1 exactly when i == o."""
    quote.check_reserves(reserves)
    quote.check_index(len(reserves), i)
    quote.check_index(len(reserves), o)
    if i == o:
        return 1.0
    d_o = _partial(Z, reserves, invariant, o)
    d_i = _partial(Z, reserves, invariant, i)
    for k, d in ((o, d_o), (i, d_i)):
        if not math.isfinite(d):
            raise DomainError(f"dZ/dr_{k} = {d} is not finite")
    scale = max(abs(d_o), abs(d_i))
    if scale == 0.0 or abs(d_i) <= DEFAULT_CONFIG.degenerate_gradient_rtol * scale:
        raise DegenerateGradient(
            f"dZ/dr_{i} = {d_i} is numerically zero relative to scale {scale}"
        )
    if d_o == 0.0:
        # a rate of 0 is no spot rate, and a rebalance divides by it
        raise DegenerateGradient(f"dZ/dr_{o} = {d_o} is zero relative to scale {scale}")
    return d_o / d_i


def implicit_swap(
    Z: ImplicitConservation,
    reserves: Sequence[float],
    invariant: Sequence[float],
    i: int,
    o: int,
    x_in: float,
) -> float:
    """Swap by root finding: add x_in to reserve i, solve Z = 0 for the new
    reserve o (all other reserves fixed), return x_out = r_o - r_o'.

    The root is bracketed inside [1e-12*r_o, 1e3*r_o]; no sign change there
    raises NoSolution. Negative x_in is the reverse-trade convention and
    yields negative x_out.
    """
    quote.check_reserves(reserves)
    quote.check_assets(len(reserves), i, o)
    r_in_new = reserves[i] + x_in
    if not 0.0 < r_in_new < math.inf:
        raise quote.trade_refusal(reserves[i], x_in)
    if x_in == 0.0:
        return 0.0
    work = list(reserves)
    work[i] = r_in_new

    def g(y: float) -> float:
        probe = list(work)
        probe[o] = y
        return Z.evaluate(probe, invariant)

    lo = DEFAULT_CONFIG.swap_bracket_lo * reserves[o]
    hi = DEFAULT_CONFIG.swap_bracket_hi * reserves[o]
    g_lo, g_hi = g(lo), g(hi)
    if g_lo != 0.0 and g_hi != 0.0 and (g_lo < 0.0) == (g_hi < 0.0):
        raise NoSolution(
            f"no post-trade reserve in [{lo}, {hi}] satisfies the conservation law"
        )
    return reserves[o] - find_root(g, RootBracket(lo, hi, g_lo, g_hi))


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

    Solves the stacked system: for every j != o the spot rate jE_o rises by
    the factor (1+rho), and Z stays zero. Damped Newton with a
    finite-difference Jacobian, iterated in log-reserve coordinates so every
    iterate stays in the positive orthant; the initial guess is the current
    reserves.
    """
    n = len(reserves)
    quote.check_index(n, o)
    if n != Z.n:
        raise ValueError(f"expected {Z.n} reserves, got {n}")
    quote.check_price_shift(rho)
    config = DEFAULT_CONFIG
    others = [j for j in range(n) if j != o]
    base = [numeric_spot_rate(Z, reserves, invariant, j, o) for j in others]
    target = 1.0 + rho
    # the characteristic variation of Z over relative reserve moves: it
    # normalizes the conservation equation, so that "within 1e-9" means the
    # same thing for every protocol family
    z_scale = max(reduce(add, [abs(_partial(Z, reserves, invariant, k)) * r
                               for k, r in enumerate(reserves)]), 1e-300)

    def system(u: list[float]) -> list[float]:
        r = [math.exp(v) for v in u]
        out = [numeric_spot_rate(Z, r, invariant, j, o) / (b * target) - 1.0
               for j, b in zip(others, base)]
        out.append(Z.evaluate(r, invariant) / z_scale)
        return out

    def probe(u: list[float]) -> list[float] | None:
        # trial evaluation during damping: leaving the evaluable domain just
        # means the step was too long, not that the solve failed
        try:
            out = system(u)
        except (ValueError, OverflowError, DomainError, DegenerateGradient):
            return None
        return out if all(map(math.isfinite, out)) else None

    def converged(F: list[float]) -> bool:
        return all(abs(v) <= config.rebalance_tol for v in F)

    def norm(F: list[float]) -> float:
        return math.sqrt(reduce(add, [v * v for v in F]))

    u = [math.log(r) for r in reserves]
    F = system(u)
    if not all(map(math.isfinite, F)):
        raise ConvergenceFailure("conservation residual is not finite at the start state")
    if converged(F):
        return tuple(reserves)

    jac_h = config.rebalance_jacobian_step
    for _ in range(config.max_iterations):
        columns = []
        for k in range(n):
            up, dn = list(u), list(u)
            up[k] += jac_h
            dn[k] -= jac_h
            columns.append([(a - b) / (2.0 * jac_h) for a, b in zip(system(up), system(dn))])
        step = _solve_linear(list(zip(*columns)), [-v for v in F])
        if not all(map(math.isfinite, step)):
            raise ConvergenceFailure("rebalance Newton step is not finite")
        biggest = max(map(abs, step))
        if biggest > config.rebalance_max_log_step:
            step = [s * (config.rebalance_max_log_step / biggest) for s in step]
        F_norm = norm(F)
        alpha = 1.0
        while True:
            trial_u = [v + alpha * s for v, s in zip(u, step)]
            trial_F = probe(trial_u)
            if trial_F is not None and norm(trial_F) < (1.0 - 1e-4 * alpha) * F_norm:
                break
            alpha *= 0.5
            if alpha < config.rebalance_min_damping:
                raise NoSolution(
                    f"rate shift {rho} for asset {o} is unattainable on this curve "
                    "(Newton stagnated)"
                )
        u, F = trial_u, trial_F
        if converged(F):
            return tuple(math.exp(v) for v in u)
    raise ConvergenceFailure(
        f"rebalance not converged within {config.max_iterations} iterations"
    )


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

    Five steps: value the pool, value the held portfolio after the shift,
    rebalance the pool to the shifted rates, revalue, compare.
    """
    n = len(reserves)
    quote.check_index(n, o)
    quote.check_numeraire(o)
    quote.check_price_shift(rho)

    def value(state: Sequence[float]) -> tuple[float, list[float]]:
        rates = [numeric_spot_rate(Z, state, invariant, 0, j) for j in range(n)]
        return reduce(add, [rate * r for rate, r in zip(rates, state)]), rates

    V, rates = value(reserves)
    V_held = V + rates[o] * reserves[o] * rho
    rebalanced = solve_rebalance(Z, reserves, invariant, o, rho)
    V_prime, _ = value(rebalanced)
    return ValuationReport(V=V, V_held=V_held, V_prime=V_prime, rho=rho)

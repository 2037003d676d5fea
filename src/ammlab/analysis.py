"""Comparison artifacts: slippage curves, divergence-loss curves, and
conservation-law cross-sections for any configured pool.

Every sweep returns a ``CurveSeries`` — plain x/y vectors with pool metadata —
ready for CSV emission. A sweep checks all its arguments before its first
point (the grid's domain, then its order, through ``check_grid_domain``;
``ammlab validate`` relies on this, calling each sweep on an empty grid),
dispatches on the pool family and computes the curve's constants (spot
rate, weight ratios, the stableswap quadratic's D-terms, PMM parameters) once,
through ``core.swap_kernel`` (the constants each pool keeps) and the family
``*_divergence_kernel`` functions, then runs only the point-dependent
arithmetic. Each point runs the same floating-point
operations, in the same order, as the scalar function it samples
(``core.slippage``, ``core.swap_amount``, ``divergence_loss``), so a curve
equals the scalar path bit for bit. The kernels are plain Python: numpy's
vectorised ``power`` rounds differently from the C library's ``pow`` in a
few percent of values, which would break that equality. The grids load no
numpy either: ``log_grid`` is correctly rounded, from `decimal` and integer
arithmetic, so its bits do not depend on the machine, and ``linear_grid``
repeats ``numpy.linspace``'s float operations in plain Python.

Slippage and cross-section sweeps call the ``swap_kernel`` function in one
comprehension over the grid, and weighted divergence sweeps run one loop over
the closed form. That comprehension leaves out the per-point wrapping: the
slippage quotient's zero cases and the failing points. Where it meets one of
them (a ``ZeroDivisionError`` or an ``AmmError``), the sweep recomputes its
series from the first point through ``_solved_points``, which states them.

Divergence loss comes from closed forms on every family: weighted pools
have it outright, stableswap pools through a one-dimensional Newton solve
along the curve with the curve equation's own slope, which calls no
``numerics`` solver. The generic rebalance-and-revalue engine in
``numerics`` is kept apart as their independent check.

A point that raises an ``AmmError`` (a shift whose rebalanced reserves leave
the float range, a reserve with no positive solution, a zero output) is NaN
in its series and one (index, "<ErrorClass>: <message>") failure, and the
series goes on: ``_solved_points`` alone turns such an error into data. A
sweep refuses bad arguments before its first point; any other exception at
a point is a bug and propagates.
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Sequence

from . import quote
from . import stableswap as _ss
from . import weighted as _w
# implicit_conservation, slippage, swap_amount and generic_divergence_loss are
# bound here for perfbench/tracing.py, which wraps them in this module
from .core import (
    PoolState,
    ProtocolFamily,
    implicit_conservation,
    slippage,
    spot_rate,
    swap_amount,
    swap_kernel,
)
from .errors import AmmError, NotApplicable
from .numerics import generic_divergence_loss
from .quote import slippage_from_quote


class SeriesKind(str, enum.Enum):
    SLIPPAGE = "slippage"
    DIVERGENCE_LOSS = "divergence_loss"
    CONSERVATION_CROSS_SECTION = "conservation_cross_section"


@dataclass(frozen=True)
class CurveSeries:
    """One x/y sweep with pool metadata; NaN y-values mark failed points,
    each listed in `failures` as (grid index, "<ErrorClass>: <message>")."""

    kind: SeriesKind
    pool_id: str
    protocol: str
    hyperparameters: str
    x_values: tuple[float, ...]
    y_values: tuple[float, ...]
    failures: tuple[tuple[int, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # tuple() returns a tuple as it is: every sweep passes tuples of floats
        object.__setattr__(self, "x_values", tuple(self.x_values))
        object.__setattr__(self, "y_values", tuple(self.y_values))
        if len(self.x_values) != len(self.y_values):
            raise ValueError("x and y vectors must have equal length")


# ---------------------------------------------------------------------------
# grids


# the largest grid log_grid and linear_grid build: each holds the whole grid
# before any point is evaluated
MAX_GRID_POINTS = 1_000_000
# the fixed-point fraction bits of log_grid's running product
_FRACTION_BITS = 128
_INT_OVERFLOW = 2**1024 - 2**970  # the least int magnitude that float() refuses


def _check_grid(kind: str, lo, hi, points: int) -> tuple[float, float]:
    """lo and hi as floats (an int past the float range as an infinity), given
    lo < hi; refuses an unbounded span, which would put NaN or inf on the
    grid, and a point count outside [2, MAX_GRID_POINTS]."""
    lo, hi = (
        float(b) if abs(b) < _INT_OVERFLOW else math.inf if b > 0 else -math.inf for b in (lo, hi)
    )
    if not math.isfinite(hi - lo):
        raise ValueError(f"{kind} grid needs finite bounds and span, got [{lo}, {hi}]")
    if points < 2:
        raise ValueError("a grid needs at least two points")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"a grid holds at most {MAX_GRID_POINTS} points, got {points}")
    return lo, hi


def log_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    """Log-spaced grid on [lo, hi], endpoints included: point k is lo*q^k
    with q = (hi/lo)^(1/(points - 1)), correctly rounded, the same bits on
    every machine.

    q comes from 60-digit `decimal` ln and exp, which are correctly rounded
    and computed in integers. lo*q^k is then a fixed-point running product
    in Python ints with 128 fraction bits, off by at most about k*2^-127
    relative, and int/int true division rounds it correctly, subnormals
    included. A point could round the wrong way only if lo*q^k lay that
    close to a midpoint between two doubles; tests/test_reference.py checks
    every point of a seeded corpus against a per-point reference."""
    if not (0.0 < lo < hi):
        raise ValueError(f"log grid needs 0 < lo < hi, got [{lo}, {hi}]")
    lo, hi = _check_grid("log", lo, hi, points)
    # imported here, so that importing the package does not load decimal
    from decimal import Context, Decimal

    ctx = Context(prec=60)
    q = ctx.exp(ctx.divide(ctx.ln(ctx.divide(Decimal(hi), Decimal(lo))), points - 1))
    step = int(ctx.to_integral_value(ctx.multiply(q, 1 << _FRACTION_BITS)))
    # lo = num/den exactly; m/den is then lo*q^k, with m truncated at each step
    num, den = lo.as_integer_ratio()
    m, den = num << _FRACTION_BITS, den << _FRACTION_BITS
    values = [lo]
    for _ in range(points - 2):
        m = m * step >> _FRACTION_BITS
        values.append(m / den)
    values.append(hi)
    return tuple(values)


def linear_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    """Evenly spaced grid on [lo, hi], endpoints included: numpy.linspace's
    values, bit for bit, from the same float operations."""
    if not lo < hi:
        raise ValueError(f"linear grid needs lo < hi, got [{lo}, {hi}]")
    lo, hi = _check_grid("linear", lo, hi, points)
    delta = hi - lo
    div = points - 1
    step = delta / div
    if step == 0.0:
        # a subnormal span: numpy scales k/div by the span instead (gh-5437)
        values = [lo + k / div * delta for k in range(points)]
    else:
        values = [lo + k * step for k in range(points)]
    values[-1] = hi
    return tuple(values)


@cache
def default_trade_grid() -> tuple[float, ...]:
    """Normalized trade sizes x_in/r_in: 50 log-spaced points on [0.01, 0.9]."""
    return log_grid(0.01, 0.9, 50)


@cache
def default_shift_grid() -> tuple[float, ...]:
    """Price shifts rho: 60 evenly spaced points on [-0.9, 4]."""
    return linear_grid(-0.9, 4.0, 60)


def default_cross_section_grid(reserve: float) -> tuple[float, ...]:
    """Input-reserve sweep around the current value: 50 log-spaced points on
    [0.1*r, 10*r]."""
    return log_grid(0.1 * reserve, 10.0 * reserve, 50)


# each sweep's grid domain, an interval, as (membership test, refusal); the
# tests are written so that NaN fails them
_GRID_DOMAINS = {
    SeriesKind.SLIPPAGE: (
        lambda g: 0.0 < g <= 0.95, "normalized trade sizes must lie in (0, 0.95], got {}"
    ),
    SeriesKind.DIVERGENCE_LOSS: (
        lambda g: -1.0 < g < math.inf, "price shifts must be finite and exceed -1, got {}"
    ),
    SeriesKind.CONSERVATION_CROSS_SECTION: (
        lambda g: g > 0.0, "reserve grid values must be positive, got {}"
    ),
}


def check_grid_domain(kind: SeriesKind, grid: Sequence[float]) -> None:
    """Raise ValueError at the first grid value outside the sweep's domain
    (normalized trade sizes in (0, 0.95] for slippage, finite price shifts
    above -1 for divergence loss, positive reserves for a cross-section),
    then unless the grid strictly increases."""
    inside, refusal = _GRID_DOMAINS[kind]
    # every domain is an interval, so a strictly increasing grid lies in it
    # exactly when its two ends do; any other grid is scanned in order
    if all(map(operator.lt, grid, grid[1:])) and (
        not grid or inside(grid[0]) and inside(grid[-1])
    ):
        return
    for g in grid:
        if not inside(g):
            raise ValueError(refusal.format(g))
    raise ValueError("grid values must be strictly increasing")


# how every float of an output file is written: 17 significant digits, enough
# to round-trip any double exactly
FLOAT_FORMAT = "%.17g"


def format_floats(values) -> list[str]:
    """Each value in FLOAT_FORMAT, from one % operation for the sequence."""
    return ((FLOAT_FORMAT + ",") * len(values) % tuple(values)).split(",")[:-1]


def hyperparameter_string(state: PoolState) -> str:
    """Deterministic key=value;... encoding of a pool's hyperparameters."""
    spec = state.spec
    if spec.family is ProtocolFamily.WEIGHTED:
        # "|" keeps the encoding free of commas, so CSV fields never need quoting
        return "weights=" + "|".join(format_floats(spec.weights))
    if spec.family is ProtocolFamily.STABLESWAP:
        return "amplification=" + FLOAT_FORMAT % spec.amplification
    return (
        "amplification=" + FLOAT_FORMAT + ";oracle_price=" + FLOAT_FORMAT
        + ";target1=" + FLOAT_FORMAT + ";target2=" + FLOAT_FORMAT
    ) % (spec.amplification, state.oracle_price, *state.invariant)


# ---------------------------------------------------------------------------
# single-point divergence loss


def divergence_loss(state: PoolState, asset: int, rho: float) -> float:
    """Loss L of providing liquidity versus holding when `asset` appreciates
    by rho against asset 0 (the numeraire).

    Weighted pools use the closed form (1+rho)^w / (1 + w*rho) - 1;
    stableswap pools rebalance along the curve by a one-dimensional Newton
    solve (stableswap.stableswap_divergence_loss), which the generic
    rebalance-and-revalue procedure in numerics checks. Oracle-anchored
    pools have no divergence loss to measure — their quoted rates follow the
    market instead of diverging from it — so they are rejected with
    NotApplicable.
    """
    return _divergence_kernel(state, asset)(rho)


def _divergence_kernel(state: PoolState, asset: int):
    """rho -> divergence_loss(state, asset, rho), with the family dispatch
    and the argument checks done once."""
    family = state.spec.family
    if family is ProtocolFamily.PMM:
        raise NotApplicable(
            "oracle-anchored pools track the market rate; divergence loss does not arise"
        )
    quote.check_numeraire(asset)
    if family is ProtocolFamily.WEIGHTED:
        return _w.weighted_divergence_kernel(state.spec.weights, asset)
    return _ss.stableswap_divergence_kernel(
        state.reserves, state.invariant[0], state.spec.amplification, asset
    )


# ---------------------------------------------------------------------------
# sweeps


def _solved_points(solve: Callable[[float], float], grid):
    """y-values and (grid index, reason) failures of solve over the grid: a
    point that raises an AmmError becomes NaN, its reason "<ErrorClass>:
    <message>". No other code turns a point's error into data."""

    def point(x: float) -> tuple[float, str | None]:
        try:
            return solve(x), None
        except AmmError as exc:
            return math.nan, f"{type(exc).__name__}: {exc}"

    results = tuple(map(point, grid))
    failures = tuple((k, msg) for k, (_, msg) in enumerate(results) if msg is not None)
    return tuple(y for y, _ in results), failures


def _series(kind, state, grid, y, failures, pool_id, protocol) -> CurveSeries:
    """The sweep's record; the protocol label defaults to the family name."""
    return CurveSeries(
        kind=kind,
        pool_id=pool_id,
        protocol=protocol if protocol is not None else state.spec.family.value,
        hyperparameters=hyperparameter_string(state),
        x_values=grid,
        y_values=y,
        failures=failures,
    )


def slippage_curve(
    state: PoolState,
    input_asset: int,
    output_asset: int,
    grid: Sequence[float] | None = None,
    pool_id: str = "pool",
    protocol: str | None = None,
) -> CurveSeries:
    """Slippage S against normalized trade size x_in/r_in over the grid
    (values restricted to (0, 0.95]). Equal, bit for bit, to
    core.slippage(state, input_asset, output_asset, g * r_in) at every grid
    value g; a point where that raises an AmmError, a slippage outside (-1,
    inf) included, is a NaN entry. A spot rate that under- or overflowed to 0
    or inf raises quote.rate_refusal."""
    grid = default_trade_grid() if grid is None else tuple(map(float, grid))
    check_grid_domain(SeriesKind.SLIPPAGE, grid)
    swap = swap_kernel(state, input_asset, output_asset)
    rate = spot_rate(state, input_asset, output_asset)
    if not 0.0 < rate < math.inf:
        raise quote.rate_refusal(rate)
    r_in = state.reserves[input_asset]
    try:
        # slippage_from_quote but for its zero cases, its refusals and failing points
        y, failures = tuple([(x / swap(x)) / rate - 1.0 for x in map(r_in.__mul__, grid)]), ()
    except (ZeroDivisionError, AmmError):
        y = None
    if y is None or y and not (-1.0 < min(y) and max(y) < math.inf):
        y, failures = _solved_points(
            lambda x: slippage_from_quote(x, swap(x), rate), map(r_in.__mul__, grid)
        )
    return _series(SeriesKind.SLIPPAGE, state, grid, y, failures, pool_id, protocol)


def divergence_curve(
    state: PoolState,
    asset: int,
    grid: Sequence[float] | None = None,
    pool_id: str = "pool",
    protocol: str | None = None,
) -> CurveSeries:
    """Divergence loss L against price shift rho over the grid (values in
    (-1, inf)), equal to divergence_loss at every point; a point where that
    raises an AmmError becomes a NaN entry."""
    loss = _divergence_kernel(state, asset)
    grid = default_shift_grid() if grid is None else tuple(map(float, grid))
    check_grid_domain(SeriesKind.DIVERGENCE_LOSS, grid)
    if state.spec.family is ProtocolFamily.WEIGHTED:
        # the grid check admits exactly the shifts that the kernel admits
        y, failures = _w._divergence_losses(state.spec.weights[asset], grid), ()
    else:
        y, failures = _solved_points(loss, grid)
    return _series(SeriesKind.DIVERGENCE_LOSS, state, grid, y, failures, pool_id, protocol)


def conservation_cross_section(
    state: PoolState,
    input_asset: int,
    output_asset: int,
    grid: Sequence[float] | None = None,
    pool_id: str = "pool",
    protocol: str | None = None,
) -> CurveSeries:
    """The conservation curve itself: for each input-reserve value g on the
    grid, the output reserve r_out - swap_amount(state, input_asset,
    output_asset, g - r_in) keeping the law satisfied with every other
    reserve fixed. A point where that raises an AmmError is a NaN entry."""
    swap = swap_kernel(state, input_asset, output_asset)
    r_in = state.reserves[input_asset]
    r_out = state.reserves[output_asset]
    grid = default_cross_section_grid(r_in) if grid is None else tuple(map(float, grid))
    check_grid_domain(SeriesKind.CONSERVATION_CROSS_SECTION, grid)
    try:
        # a failing point makes a NaN row, which _solved_points states
        y, failures = tuple([r_out - swap(g - r_in) for g in grid]), ()
    except AmmError:
        y, failures = _solved_points(lambda g: r_out - swap(g - r_in), grid)
    return _series(
        SeriesKind.CONSERVATION_CROSS_SECTION, state, grid, y, failures, pool_id, protocol
    )

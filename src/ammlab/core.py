"""Pool state space and the two transition rules every protocol obeys.

A pool is a value ``PoolState`` holding reserves, a protocol description, and
the conservation-law constants those reserves must satisfy. Transitions come
in exactly two pure kinds:

* a **swap** moves reserves along the conservation curve (constants fixed);
* a **proportional liquidity change** scales every reserve by the same factor
  (spot rates fixed, constants rescaled).

Each transition returns a receipt measuring how well its rule held, checked
against ``RULE_TOLERANCE``. Each state builds its family's curve once, at
construction, and is gated by it: reserves off the conservation curve are
refused with ``ConservationViolation``. A quote or a swap is one direct call
into the curve; a swap's post state shares its parent's curve and constants,
so one law evaluation gives its check and its receipt, and only the two moved
reserves are checked again. All operations are pure functions from states to
new states; nothing is mutated, so states can be shared across threads.

Arithmetic is double-precision real arithmetic; on-chain integer rounding and
fees are out of scope. Disproportionate deposits are not a primitive — they
decompose into a proportional change plus a swap, which callers compose.
"""
from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from itertools import permutations

from . import pmm as _pmm
from . import quote
from . import stableswap as _ss
from . import weighted as _w
from .errors import ConservationViolation, DomainError, ReserveDepletion
from .numerics import ImplicitConservation
from .quote import slippage_from_quote

RULE_TOLERANCE = 1e-9


class ProtocolFamily(str, enum.Enum):
    """The three conservation-law families covered by the library."""

    WEIGHTED = "weighted"
    STABLESWAP = "stableswap"
    PMM = "pmm"


@dataclass(frozen=True)
class ProtocolSpec:
    """Family tag plus the family's hyperparameters.

    weights: per-asset exponents, weighted family only (sum to 1).
    amplification: stableswap 𝒜 > 0, or PMM deviation weight in (0, 1].
    """

    family: ProtocolFamily
    weights: tuple[float, ...] | None = None
    amplification: float | None = None

    def __post_init__(self) -> None:
        if self.family is ProtocolFamily.WEIGHTED:
            if self.weights is None:
                raise DomainError("weighted pools need weights")
            if self.amplification is not None:
                raise DomainError("weighted pools take no amplification")
            object.__setattr__(self, "weights", quote.check_weights(self.weights))
        elif self.family is ProtocolFamily.STABLESWAP:
            if self.weights is not None:
                raise DomainError("stableswap pools take no weights")
            quote.check_positive("stableswap amplification", self.amplification)
            object.__setattr__(self, "amplification", float(self.amplification))
        elif self.family is ProtocolFamily.PMM:
            if self.weights is not None:
                raise DomainError("pmm pools take no weights")
            quote.check_unit_interval("pmm amplification", self.amplification)
            object.__setattr__(self, "amplification", float(self.amplification))
        else:  # a family that is not a ProtocolFamily, such as a plain str
            raise DomainError(f"unknown protocol family {self.family!r}")


@dataclass(frozen=True)
class PoolState:
    """Immutable pool snapshot: reserves plus the constants they satisfy.

    invariant: one value (C or D) for weighted/stableswap, the two
    equilibrium targets (C1, C2) for PMM.
    oracle_price: PMM market rate (asset-1 units per asset 2); None otherwise.
    share_supply: scalar pool-share supply, scaled by liquidity changes.
    _curve (not a field): the family's curve, built at construction and shared by swaps.
    """

    reserves: tuple[float, ...]
    spec: ProtocolSpec
    invariant: tuple[float, ...]
    oracle_price: float | None = None
    share_supply: float = 1.0

    def __post_init__(self) -> None:
        reserves = tuple(float(r) for r in self.reserves)
        invariant = tuple(float(c) for c in self.invariant)
        object.__setattr__(self, "reserves", reserves)
        object.__setattr__(self, "invariant", invariant)
        quote.check_asset_count(len(reserves))
        quote.check_reserves(reserves)
        quote.check_positive("share supply", self.share_supply)
        family = self.spec.family
        if family is ProtocolFamily.PMM:
            if len(reserves) != 2:
                raise DomainError("pmm pools hold exactly two assets")
            if len(invariant) != 2:
                raise DomainError("pmm pools carry two conservation targets")
            if self.oracle_price is None:
                raise DomainError("pmm pools need an oracle price")
        else:
            if self.oracle_price is not None:
                raise DomainError("only pmm pools carry an oracle price")
            if len(invariant) != 1:
                raise DomainError("weighted/stableswap pools carry one conservation value")
            quote.check_positive("conservation value", invariant[0])
            if family is ProtocolFamily.WEIGHTED:
                quote.check_weight_count(len(reserves), self.spec.weights)
        curve = _CURVES[family](self)
        object.__setattr__(self, "_curve", curve)
        _gate(curve.deviations(reserves)[0])

    @property
    def n_assets(self) -> int:
        return len(self.reserves)


def _gate(deviation: float) -> None:
    """The conservation check every state passes; NaN fails it."""
    if not deviation <= RULE_TOLERANCE:
        raise ConservationViolation(
            f"reserves violate the conservation law (relative deviation {deviation:.3e})"
        )


# The per-pool curves: each holds its family's constants and evaluates the
# kernels' per-point helpers on checked reserves: output(reserves, i, o, x_in)
# one quote, kernel(reserves, i, o) the same call with x_in left open for a
# sweep, deviations(reserves) (gate, receipt) from one law evaluation, and
# law(reserves, invariant) the signed residual Z at any constants.


class _WeightedCurve:
    __slots__ = ("weights", "value")

    def __init__(self, state: PoolState) -> None:
        self.weights = state.spec.weights
        self.value = state.invariant[0]

    def spot_rate(self, reserves, i: int, o: int) -> float:
        return _w._spot_rate(reserves, self.weights, i, o)

    def output(self, reserves, i: int, o: int, x_in: float) -> float:
        return _w._swap_output(reserves[i], reserves[o], self.weights[i] / self.weights[o], x_in)

    def kernel(self, reserves, i: int, o: int):
        w = self.weights
        return partial(_w._swap_output, reserves[i], reserves[o], w[i] / w[o])

    def deviations(self, reserves) -> tuple[float, float]:
        deviation = abs(_w._conservation(reserves, self.weights) - self.value) / self.value
        return deviation, deviation

    def law(self, reserves, invariant) -> float:
        return _w.weighted_conservation(reserves, self.weights) - invariant[0]


class _StableSwapCurve:
    __slots__ = ("D", "A", "q", "dq", "shift")

    def __init__(self, state: PoolState) -> None:
        self.D = state.invariant[0]
        self.A = state.spec.amplification
        self.q, self.dq, self.shift = _ss._constants(self.D, self.A, state.n_assets)

    def spot_rate(self, reserves, i: int, o: int) -> float:
        return _ss._spot_rate(reserves, self.dq, self.A, i, o)

    def output(self, reserves, i: int, o: int, x_in: float) -> float:
        return _ss._swap_output(reserves, i, o, self.shift, self.dq, self.A, x_in)

    def kernel(self, reserves, i: int, o: int):
        return partial(_ss._swap_output, reserves, i, o, self.shift, self.dq, self.A)

    def deviations(self, reserves) -> tuple[float, float]:
        # the gate is the residual of the defining equation, the receipt the
        # drift of D to first order
        return _ss.conservation_check(reserves, self.D, self.A, self.q, self.dq)

    def law(self, reserves, invariant) -> float:
        return _ss.defining_residual(reserves, invariant[0], self.A)


class _PMMCurve:
    __slots__ = ("params",)

    def __init__(self, state: PoolState) -> None:
        self.params = _pmm.PMMParams(
            oracle_price=state.oracle_price,
            amplification=state.spec.amplification,
            target1=state.invariant[0],
            target2=state.invariant[1],
        )

    def spot_rate(self, reserves, i: int, o: int) -> float:
        rate = _pmm._spot_rate(reserves[0], reserves[1], self.params)
        if (i, o) == (0, 1):
            return rate
        if 1.0 / rate < math.inf:
            return 1.0 / rate
        raise quote.reciprocal_refusal(rate)

    def output(self, reserves, i: int, o: int, x_in: float) -> float:
        if i == 0:
            return _pmm._swap_output(reserves[0], reserves[1], self.params, x_in)
        return _pmm._swap_output(reserves[1], reserves[0], self.params.mirrored(), x_in)

    def kernel(self, reserves, i: int, o: int):
        if (i, o) == (0, 1):
            return partial(_pmm._swap_output, reserves[0], reserves[1], self.params)
        return partial(_pmm._swap_output, reserves[1], reserves[0], self.params.mirrored())

    def deviations(self, reserves) -> tuple[float, float]:
        deviation = _pmm._residual(_pmm._gap(reserves[0], reserves[1], self.params), self.params)
        return deviation, deviation

    def law(self, reserves, invariant) -> float:
        params = replace(self.params, target1=invariant[0], target2=invariant[1])
        return _pmm.conservation_gap(reserves[0], reserves[1], params)


_CURVES = {
    ProtocolFamily.WEIGHTED: _WeightedCurve,
    ProtocolFamily.STABLESWAP: _StableSwapCurve,
    ProtocolFamily.PMM: _PMMCurve,
}


# ---------------------------------------------------------------------------
# pool factories


def weighted_pool(reserves, weights) -> PoolState:
    """Weighted-product pool; the conservation value is computed from the
    starting reserves."""
    spec = ProtocolSpec(ProtocolFamily.WEIGHTED, weights=tuple(weights))
    value = _w.weighted_conservation(tuple(float(r) for r in reserves), spec.weights)
    return PoolState(reserves=tuple(reserves), spec=spec, invariant=(value,))


def uniswap_pool(reserve1: float, reserve2: float) -> PoolState:
    """Two-asset constant-product pool (equal weights)."""
    return weighted_pool((reserve1, reserve2), (0.5, 0.5))


def sushiswap_pool(reserve1: float, reserve2: float) -> PoolState:
    """Identical mechanics to uniswap_pool; separate name for labeling."""
    return uniswap_pool(reserve1, reserve2)


def balancer_pool(reserves, weights) -> PoolState:
    """Weighted pool under its best-known brand name."""
    return weighted_pool(reserves, weights)


def bancor_pool(reserves, weights) -> PoolState:
    """Connector-style two-asset weighted pool; same mechanics as
    weighted_pool (the single-token bonding curve lives in `bonding`)."""
    return weighted_pool(reserves, weights)


def stableswap_pool(reserves, amplification: float) -> PoolState:
    """Amplified hybrid pool; D is solved from the starting reserves."""
    spec = ProtocolSpec(ProtocolFamily.STABLESWAP, amplification=amplification)
    reserves = tuple(float(r) for r in reserves)
    d = _ss.solve_invariant(reserves, spec.amplification)
    return PoolState(reserves=reserves, spec=spec, invariant=(d,))


def pmm_pool(
    target1: float,
    target2: float,
    oracle_price: float,
    amplification: float,
    reserves=None,
) -> PoolState:
    """Oracle-anchored pool. Without explicit reserves the pool starts at its
    equilibrium point (reserves equal to the targets); explicit reserves must
    already lie on the conservation curve through the targets."""
    spec = ProtocolSpec(ProtocolFamily.PMM, amplification=amplification)
    if reserves is None:
        reserves = (target1, target2)
    return PoolState(
        reserves=tuple(reserves),
        spec=spec,
        invariant=(float(target1), float(target2)),
        oracle_price=float(oracle_price),
    )


# ---------------------------------------------------------------------------
# derived quantities


def spot_rate(state: PoolState, i: int, o: int) -> float:
    """Marginal exchange rate in asset-i units per unit of asset o; exactly 1
    when i == o, and exact reciprocals across the two orientations; a rate
    outside (0, inf) raises quote.rate_refusal, or quote.reciprocal_refusal."""
    n = len(state.reserves)
    if not 0 <= i < n > o >= 0:
        quote.check_index(n, i)
        quote.check_index(n, o)
    if i == o:
        return 1.0
    return state._curve.spot_rate(state.reserves, i, o)


def swap_amount(state: PoolState, i: int, o: int, x_in: float) -> float:
    """Output of asset o for adding x_in of asset i (closed form per family).
    Negative x_in is the reverse-trade sign convention; a trade that takes
    the input reserve out of (0, inf) raises quote.trade_refusal; one that
    takes the output reserve past the float range raises
    quote.output_refusal on weighted and PMM pools, NoSolution on
    stableswap pools."""
    quote.check_assets(len(state.reserves), i, o)
    return state._curve.output(state.reserves, i, o, x_in)


def swap_kernel(state: PoolState, i: int, o: int):
    """x_in -> swap_amount(state, i, o, x_in), bit for bit: the curve's output
    call with the index checks, the family dispatch and the operands done
    once, the per-point function of a sweep over trade sizes or reserves."""
    quote.check_assets(len(state.reserves), i, o)
    return state._curve.kernel(state.reserves, i, o)


def slippage(state: PoolState, i: int, o: int, x_in: float) -> float:
    """S = (x_in/x_out)/E - 1 (quote.slippage_from_quote): excess of the
    effective rate over the pre-trade spot rate; swap_amount's refusals
    apply, then spot_rate's, at a zero trade too."""
    quote.check_assets(len(state.reserves), i, o)
    x_out = state._curve.output(state.reserves, i, o, x_in)
    return slippage_from_quote(x_in, x_out, state._curve.spot_rate(state.reserves, i, o))


# ---------------------------------------------------------------------------
# transitions


class TransitionKind(str, enum.Enum):
    PURE_SWAP = "pure_swap"
    PURE_LIQUIDITY_CHANGE = "pure_liquidity_change"


def _record(cls):
    """A frozen dataclass whose __init__ fills every field in one write,
    ``self.__dict__.update(name=name, ...)``, where the __init__ a frozen
    dataclass generates calls object.__setattr__ once per field. It is
    written from the fields, with their defaults, as dataclasses writes its
    own; equality, hash, repr, replace() and the frozen assignment check stay
    the dataclass's."""
    cls = dataclass(frozen=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    defaults = {f"_{f.name}": f.default for f in fields(cls) if f.default is not MISSING}
    params = ", ".join(f"{n}=_{n}" if f"_{n}" in defaults else n for n in names)
    body = ", ".join(f"{n}={n}" for n in names)
    scope = {}
    exec(f"def __init__(self, {params}):\n    self.__dict__.update({body})", defaults, scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@_record
class RuleCheck:
    """One measured transition-rule deviation against its tolerance."""

    rule: str
    deviation: float
    tolerance: float = RULE_TOLERANCE

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@_record
class SwapOutcome:
    """Quantities of a single swap, oriented input-per-output like spot."""

    input_asset: int
    output_asset: int
    amount_in: float
    amount_out: float
    reserves_after: tuple[float, ...]
    spot_rate_before: float
    effective_rate: float
    slippage: float


@_record
class TransitionReceipt:
    """Audit record of one transition and its rule-check measurements."""

    kind: TransitionKind
    pre_state: PoolState
    post_state: PoolState
    checks: tuple[RuleCheck, ...] = ()

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def apply_swap(
    state: PoolState,
    input_asset: int,
    output_asset: int,
    x_in: float,
) -> tuple[PoolState, SwapOutcome, TransitionReceipt]:
    """Execute a pure swap: reserves move, conservation constants stay.

    Returns the post state, the trade quantities, and a receipt recording the
    measured relative invariant deviation. A trade is refused as by
    spot_rate, then as by slippage; a post state off the curve raises
    ConservationViolation.
    """
    quote.check_assets(len(state.reserves), input_asset, output_asset)
    curve = state._curve
    rate_before = curve.spot_rate(state.reserves, input_asset, output_asset)
    if x_in == 0.0:
        # a zero trade keeps the state, checked on construction
        post, x_in, x_out, deviation, effective, slip = state, 0.0, 0.0, 0.0, rate_before, 0.0
    else:
        x_out = curve.output(state.reserves, input_asset, output_asset, x_in)
        slip = slippage_from_quote(x_in, x_out, rate_before)
        reserves = list(state.reserves)
        reserves[input_asset] += x_in
        reserves[output_asset] -= x_out
        if reserves[output_asset] <= 0.0:
            raise ReserveDepletion(f"trade would empty the output reserve ({reserves})")
        # the post state differs from the checked one in the two moved
        # reserves alone: PoolState's checks that remain open are their float
        # coercion (x_in may be a numpy scalar), their values and the
        # conservation law, evaluated once
        reserves[input_asset] = r_in = float(reserves[input_asset])
        reserves[output_asset] = r_out = float(reserves[output_asset])
        reserves = tuple(reserves)
        quote.check_reserves(reserves, (r_in, r_out))
        gate, deviation = curve.deviations(reserves)
        _gate(gate)
        post = object.__new__(PoolState)
        post.__dict__.update(state.__dict__, reserves=reserves)
        effective = x_in / x_out
    outcome = SwapOutcome(
        input_asset, output_asset, x_in, x_out, post.reserves, rate_before, effective, slip
    )
    receipt = TransitionReceipt(
        TransitionKind.PURE_SWAP, state, post, (RuleCheck("invariant_preserved", deviation),)
    )
    return post, outcome, receipt


def add_liquidity_proportional(
    state: PoolState,
    fraction: float,
) -> tuple[PoolState, TransitionReceipt]:
    """Scale every reserve by (1 + fraction); negative fraction is removal.

    Conservation constants are recomputed for the new reserves (weighted:
    product re-evaluated; stableswap: D scaled by the same factor, as D is
    homogeneous of degree 1 in the reserves; PMM: both equilibrium targets
    scaled by the same factor, keeping the pool's composition and so its
    rates). Every field changes, so the new state takes the full PoolState
    check, after a growth that leaves (0, inf) is refused
    (quote.growth_refusal). The receipt records the worst relative spot-rate
    change over all ordered asset pairs.
    """
    quote.check_fraction(fraction)
    grow = 1.0 + fraction
    for value in (*state.reserves, *state.invariant, state.share_supply):
        if not 0.0 < value * grow < math.inf:
            raise quote.growth_refusal(fraction, value)
    reserves = tuple(r * grow for r in state.reserves)
    if state.spec.family is ProtocolFamily.WEIGHTED:
        invariant = (_w.weighted_conservation(reserves, state.spec.weights),)
    else:
        invariant = tuple(c * grow for c in state.invariant)
    post = PoolState(
        reserves=reserves,
        spec=state.spec,
        invariant=invariant,
        oracle_price=state.oracle_price,
        share_supply=state.share_supply * grow,
    )
    curve, post_curve = state._curve, post._curve
    worst = 0.0
    for i, o in permutations(range(state.n_assets), 2):
        before = curve.spot_rate(state.reserves, i, o)
        # each rate lies in (0, inf), so no change is NaN
        worst = max(worst, abs(post_curve.spot_rate(post.reserves, i, o) / before - 1.0))
    receipt = TransitionReceipt(
        kind=TransitionKind.PURE_LIQUIDITY_CHANGE,
        pre_state=state,
        post_state=post,
        checks=(RuleCheck("spot_rates_preserved", worst),),
    )
    return post, receipt


# ---------------------------------------------------------------------------
# generic-engine bridge


def implicit_conservation(state: PoolState) -> ImplicitConservation:
    """The pool's conservation law as a bare residual Z(reserves, constants),
    suitable for the generic numeric engine (root solves, finite-difference
    rates, rebalancing): its curve's law. Z is zero exactly on the pool's
    curve."""
    return ImplicitConservation(evaluate=state._curve.law, n=state.n_assets)

"""The domain rules shared by `core`, the pool kernels, `analysis`, the
numeric engine and the CLI, each stated once as a check or a refusal, and
the slippage definition shared by every pool family, `core.slippage` and the
slippage sweeps. Pools live on the positive orthant: a NaN or infinite
reserve is refused like a non-positive one."""
from __future__ import annotations

import math

from .errors import (
    AmmError, AssetIndexError, DomainError, IdenticalAssets, InfeasibleTrade, ReserveDepletion
)

_WEIGHT_SUM_TOL = 1e-12
# how a trade that takes a reserve past the largest float is refused
_PAST_RANGE = "past the floating-point range"


def check_asset_count(n: int) -> None:
    if n < 2:
        raise DomainError("a pool needs at least two assets")


def check_reserves(reserves, values=None) -> None:
    """Every reserve, or each of values taken from reserves (a swap's two moved
    ones: one comparison), is finite and positive; the message names them all."""
    if values is None or not 0.0 < values[0] < math.inf > values[1] > 0.0:
        for r in reserves if values is None else values:
            if not (math.isfinite(r) and r > 0.0):
                raise DomainError(f"reserves must be finite and positive, got {tuple(reserves)}")


def check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")


def check_index(n: int, k: int) -> None:
    if not 0 <= k < n:
        raise AssetIndexError(f"asset index {k} out of range for {n} assets")


def check_assets(n: int, i: int, o: int) -> None:
    """A swap takes two distinct assets in [0, n): the chain's test."""
    if not i >= 0 <= o < n > i != o:
        check_index(n, i)
        check_index(n, o)
        if i == o:
            raise IdenticalAssets("swap needs distinct input and output assets")


def check_weights(weights) -> tuple[float, ...]:
    """The weights as a float tuple: at least two, each in (0, 1), summing
    to 1."""
    weights = tuple(float(w) for w in weights)
    check_asset_count(len(weights))
    if any(not 0.0 < w < 1.0 for w in weights):
        raise DomainError(f"every weight must lie in (0, 1), got {weights}")
    if abs(math.fsum(weights) - 1.0) > _WEIGHT_SUM_TOL:
        raise DomainError(f"weights must sum to 1, got {weights}")
    return weights


def check_weight_count(n: int, weights) -> None:
    if len(weights) != n:
        raise DomainError("one weight per asset required")


def check_price_shift(rho: float) -> None:
    # written so that a NaN shift fails the first test
    if not rho > -1.0:
        raise DomainError(f"price shift must exceed -1, got {rho}")
    if rho == math.inf:
        raise DomainError(f"price shift must be finite, got {rho}")


def check_numeraire(o: int) -> None:
    if o == 0:
        raise DomainError("asset 0 is the numeraire; pick a different appreciating asset")


def trade_refusal(r_in: float, x_in: float) -> AmmError:
    """What a swap kernel raises when r_in + x_in lies outside (0, inf), and
    what any transition raises for a trade of NaN or infinite size x_in."""
    if not math.isfinite(x_in):
        return DomainError(f"trade size must be finite, got {x_in}")
    if r_in + x_in <= 0.0:
        return ReserveDepletion(f"input {x_in} exhausts reserve {r_in}")
    return DomainError(f"input {x_in} takes reserve {r_in} {_PAST_RANGE}")


def output_refusal(r_out: float, x_in: float) -> DomainError:
    """What a swap kernel raises when a reverse trade x_in takes the output
    reserve r_out past the largest float."""
    return DomainError(f"input {x_in} takes output reserve {r_out} {_PAST_RANGE}")


def mint_refusal(supply: float, minted: float) -> DomainError:
    """What a bonding-curve buy raises when the minted amount takes the
    token supply past the largest float."""
    return DomainError(f"minting {minted} takes supply {supply} {_PAST_RANGE}")


def check_fraction(fraction) -> None:
    if not math.isfinite(fraction):
        raise DomainError(f"fraction must be finite, got {fraction}")
    if fraction <= -1.0:
        raise ReserveDepletion(f"fraction must exceed -1, got {fraction}")


def growth_refusal(fraction: float, value: float) -> AmmError:
    """What a liquidity change by fraction raises when it scales value out of (0, inf)."""
    scaled = value * (1.0 + fraction)
    error = ReserveDepletion if scaled <= 0.0 else DomainError
    return error(f"fraction {fraction} scales {value} to {scaled}, outside (0, inf)")


def check_stableswap_amplification(a) -> None:
    if a is None or not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"stableswap amplification must be finite and positive, got {a}")


def check_invariant(D) -> None:
    # written so that a NaN D fails too
    if not D > 0.0:
        raise DomainError(f"stableswap invariant D must be positive, got {D}")


def check_pmm_amplification(a) -> None:
    if a is None or not (math.isfinite(a) and 0.0 < a <= 1.0):
        raise DomainError(f"pmm amplification must lie in (0, 1], got {a}")


def rate_refusal(rate: float) -> DomainError:
    """What a curve raises where it forms a spot rate of 0 or inf."""
    return DomainError(f"spot rate {rate!r} is outside the float range; slippage undefined")


def reciprocal_refusal(rate: float) -> DomainError:
    """What the reverse of a rate, or a change relative to it, raises where
    1/rate leaves the float range: at 0, or below about 5.6e-309."""
    return DomainError(f"rate {rate!r} has no reciprocal in the float range")


def curve_refusal(reserve: float) -> DomainError:
    """What a PMM kernel raises where its spot rate or reserve 2 leaves the float range."""
    return DomainError(f"the PMM curve at reserve {reserve!r} leaves the floating-point range")


def slippage_from_quote(x_in: float, x_out: float, rate: float) -> float:
    """S = (x_in/x_out)/E - 1: relative excess of the realized rate over the
    pre-trade spot rate E in (0, inf), as every curve's spot rate is (one
    outside that range is refused where it is formed: rate_refusal). A zero
    trade has zero slippage by convention; a nonzero one raises InfeasibleTrade
    on a zero output, then DomainError where S rounds to -1 or below, or to inf."""
    if x_in == 0.0:
        return 0.0
    if x_out == 0.0:
        raise InfeasibleTrade(f"input {x_in} produced zero output; slippage undefined")
    s = (x_in / x_out) / rate - 1.0
    if -1.0 < s < math.inf:
        return s
    raise DomainError(
        f"realized rate {x_in!r}/{x_out!r} against spot rate {rate!r} gives slippage"
        f" {s!r}, outside (-1, inf)"
    )

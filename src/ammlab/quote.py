"""The slippage definition shared by every pool family, `core.slippage` and
the slippage sweeps."""
from __future__ import annotations

from .errors import InfeasibleTrade


def slippage_from_quote(x_in: float, x_out: float, rate: float) -> float:
    """S = (x_in/x_out)/E - 1: relative excess of the realized rate over the
    pre-trade spot rate E, for a nonzero input x_in that returned x_out.
    Zero output leaves slippage undefined and raises InfeasibleTrade."""
    if x_out == 0.0:
        raise InfeasibleTrade(f"input {x_in} produced zero output; slippage undefined")
    return (x_in / x_out) / rate - 1.0

"""The domain rules that `core`, the pool kernels and `analysis` share through
`ammlab.quote`: each is stated once, and every public kernel that takes
reserves refuses a non-finite one."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from ammlab import analysis, pmm, stableswap, weighted
from ammlab.core import uniswap_pool
from ammlab.errors import DomainError, IdenticalAssets
from ammlab.pmm import PMMParams

W = (0.5, 0.5)
PMM = PMMParams(oracle_price=1.0, amplification=0.5, target1=100.0, target2=100.0)

# every public kernel function that takes reserves, as reserves -> call
KERNELS = {
    "weighted_conservation": lambda r: weighted.weighted_conservation(r, W),
    "weighted_spot_rate": lambda r: weighted.weighted_spot_rate(r, W, 0, 1),
    "weighted_swap": lambda r: weighted.weighted_swap(r, W, 0, 1, 1.0),
    "weighted_slippage": lambda r: weighted.weighted_slippage(r, W, 0, 1, 1.0),
    "weighted_slippage zero trade": lambda r: weighted.weighted_slippage(r, W, 0, 1, 0.0),
    "weighted_rebalanced_reserves": lambda r: weighted.weighted_rebalanced_reserves(r, W, 1, 0.5),
    "solve_invariant": lambda r: stableswap.solve_invariant(r, 10.0),
    "defining_residual": lambda r: stableswap.defining_residual(r, 200.0, 10.0),
    "stableswap.conservation_residual": lambda r: stableswap.conservation_residual(r, 200.0, 10.0),
    "invariant_drift": lambda r: stableswap.invariant_drift(r, 200.0, 10.0),
    "stableswap_spot_rate": lambda r: stableswap.stableswap_spot_rate(r, 200.0, 10.0, 0, 1),
    "stableswap_swap": lambda r: stableswap.stableswap_swap(r, 200.0, 10.0, 0, 1, 1.0),
    "stableswap_slippage": lambda r: stableswap.stableswap_slippage(r, 200.0, 10.0, 0, 1, 1.0),
    "stableswap_slippage zero trade": lambda r: stableswap.stableswap_slippage(
        r, 200.0, 10.0, 0, 1, 0.0
    ),
    "stableswap_divergence_kernel": lambda r: stableswap.stableswap_divergence_kernel(
        r, 200.0, 10.0, 1
    ),
    "stableswap_divergence_loss": lambda r: stableswap.stableswap_divergence_loss(
        r, 200.0, 10.0, 1, 0.5
    ),
    "pmm_spot_rate": lambda r: pmm.pmm_spot_rate(*r, PMM),
    "conservation_gap": lambda r: pmm.conservation_gap(*r, PMM),
    "pmm.conservation_residual": lambda r: pmm.conservation_residual(*r, PMM),
    "pmm_swap": lambda r: pmm.pmm_swap(*r, PMM, 1.0),
    "pmm_slippage": lambda r: pmm.pmm_slippage(*r, PMM, 1.0),
    "pmm_slippage zero trade": lambda r: pmm.pmm_slippage(*r, PMM, 0.0),
}


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(KERNELS))
def test_kernels_refuse_non_finite_reserves(name, bad, position):
    reserves = [100.0, 100.0]
    reserves[position] = bad
    message = f"^reserves must be finite and positive, got {re.escape(str(tuple(reserves)))}$"
    with pytest.raises(ValueError, match=message):
        KERNELS[name](tuple(reserves))


@pytest.mark.parametrize(
    "zero_trade",
    [
        lambda i, o: weighted.weighted_slippage((100.0, 100.0), W, i, o, 0.0),
        lambda i, o: stableswap.stableswap_slippage((100.0, 100.0), 200.0, 10.0, i, o, 0.0),
    ],
    ids=["weighted_slippage", "stableswap_slippage"],
)
def test_zero_trade_slippage_judges_the_asset_pair(zero_trade):
    assert zero_trade(0, 1) == 0.0
    with pytest.raises(IdenticalAssets, match="^slippage needs distinct input and output assets$"):
        zero_trade(1, 1)
    with pytest.raises(IndexError, match="^asset index 2 out of range for 2 assets$"):
        zero_trade(0, 2)


@pytest.mark.parametrize(
    "loss",
    [
        lambda rho: analysis.divergence_loss(uniswap_pool(100.0, 100.0), 1, rho),
        lambda rho: weighted.weighted_divergence_loss((0.5, 0.5), 1, rho),
        lambda rho: stableswap.stableswap_divergence_loss((100.0, 100.0), 200.0, 10.0, 1, rho),
        lambda rho: stableswap.stableswap_divergence_loss(
            (100.0, 100.0, 100.0), 300.0, 10.0, 2, rho
        ),
        lambda rho: stableswap.stableswap_divergence_loss((100.0,) * 4, 400.0, 10.0, 3, rho),
    ],
    ids=["uniswap", "weighted", "stableswap-2", "stableswap-3", "stableswap-4"],
)
def test_divergence_loss_refuses_a_nan_price_shift(loss):
    with pytest.raises(DomainError, match="^price shift must exceed -1, got nan$"):
        loss(math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "helper",
    [pmm.reserve2_given_reserve1, pmm.quadratic_branch_reserve2],
    ids=["reserve2_given_reserve1", "quadratic_branch_reserve2"],
)
def test_pmm_post_trade_helpers_refuse_a_non_finite_reserve(helper, bad):
    with pytest.raises(ValueError, match=f"^reserve must stay finite, got {bad}$"):
        helper(bad, PMM)


# one message per rule; the modules that enforce a rule call the check in quote
RULES = (
    "reserves must be finite and positive",
    "a pool needs at least two assets",
    "asset index",
    "needs distinct input and output assets",
    "price shift must exceed -1",
    "asset 0 is the numeraire",
    "stableswap amplification must be finite and positive",
    "pmm amplification must lie in (0, 1]",
)
MODULES = ("core", "weighted", "stableswap", "pmm", "analysis", "quote")


@pytest.mark.parametrize("message", RULES)
def test_each_rule_is_stated_once(message):
    src = Path(__file__).resolve().parent.parent / "src" / "ammlab"
    where = [
        name for name in MODULES
        for line in (src / f"{name}.py").read_text(encoding="utf-8").splitlines()
        if message in line
    ]
    assert where == ["quote"]

"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and returns plain data (pool
definitions or a scenario document); the same seed always gives the same
inputs. Nothing here imports ammlab, so the inputs do not depend on the code
under test.
"""
from __future__ import annotations

import math
import random

SCALE = 1e6
AMPLIFICATIONS = (0.1, 1.0, 10.0, 100.0, 1000.0)
SWEEP_POINTS = 2000


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _weights(rng: random.Random, n: int) -> list[float]:
    raw = [rng.uniform(1.0, 3.0) for _ in range(n)]
    total = math.fsum(raw)
    weights = [w / total for w in raw[:-1]]
    weights.append(1.0 - math.fsum(weights))
    return weights


def _pmm_below_target(rng: random.Random, reserve1: float) -> dict:
    """An oracle-anchored pool displaced off its equilibrium point onto the
    r1 < C1 branch, where reserve 2 has the closed form
    C2 + (C1 - r1) * (1 + k * (C1 / r1 - 1)) / P. Keeping the pool off the
    branch seam keeps finite-difference spot rates accurate."""
    target1 = reserve1 / (1.0 - rng.uniform(0.05, 0.3))
    target2 = SCALE * log_uniform(rng, 0.5, 2.0)
    price = target1 / target2 * log_uniform(rng, 0.8, 1.25)
    k = rng.uniform(0.1, 0.9)
    reserve2 = target2 + (target1 - reserve1) * (1.0 + k * (target1 / reserve1 - 1.0)) / price
    return {
        "reserves": [reserve1, reserve2],
        "targets": [target1, target2],
        "oracle_price": price,
        "amplification": k,
    }


def stream_pools(seed: int) -> list[dict]:
    """The six pools of `trade_stream`, in a fixed order and in the scenario
    format (plus a `bonding` protocol): constant product, 3-asset weighted,
    oracle-anchored at equilibrium, bonding curve, 2-asset and 3-asset
    stableswap."""
    rng = random.Random(f"trade_stream/pools/{seed}")
    size = lambda: SCALE * log_uniform(rng, 0.5, 2.0)  # noqa: E731
    near = lambda: SCALE * log_uniform(rng, 0.7, 1.4)  # noqa: E731
    target1, target2 = size(), size()
    return [
        {"id": "uniswap", "protocol": "uniswap", "reserves": [size(), size()]},
        {"id": "weighted3", "protocol": "balancer", "reserves": [size(), size(), size()],
         "weights": _weights(rng, 3)},
        {"id": "pmm", "protocol": "dodo", "reserves": [target1, target2],
         "oracle_price": target1 / target2 * log_uniform(rng, 0.8, 1.25),
         "amplification": rng.uniform(0.1, 0.9)},
        {"id": "bonding", "protocol": "bonding", "reserve": size(), "supply": size(),
         "reserve_ratio": rng.uniform(0.2, 0.8)},
        {"id": "stableswap2", "protocol": "curve", "reserves": [near(), near()],
         "amplification": log_uniform(rng, 1.0, 100.0)},
        {"id": "stableswap3", "protocol": "curve", "reserves": [near(), near(), near()],
         "amplification": log_uniform(rng, 1.0, 100.0)},
    ]


def trader_rng(seed: int, pool_index: int) -> random.Random:
    """The simulated trader's draws for one pool of `trade_stream`."""
    return random.Random(f"trade_stream/trader/{seed}/{pool_index}")


def sample_rng(seed: int, pool_index: int) -> random.Random:
    """Which of one pool's swaps the output check re-solves."""
    return random.Random(f"trade_stream/sample/{seed}/{pool_index}")


def sweep_scenario(seed: int) -> dict:
    """`sweep_closed_form`: slippage and cross-section comparisons over a
    constant-product, a 3-asset weighted, a stableswap and an oracle-anchored
    pool, a closed-form weighted divergence comparison, then a few swaps and
    liquidity changes so receipt lines are written."""
    rng = random.Random(f"sweep_closed_form/{seed}")
    r0 = SCALE * log_uniform(rng, 0.5, 2.0)
    size = lambda: SCALE * log_uniform(rng, 0.5, 2.0)  # noqa: E731
    dodo = _pmm_below_target(rng, r0)
    pools = [
        {"id": "uni", "protocol": "uniswap", "reserves": [r0, size()]},
        {"id": "bal", "protocol": "balancer", "reserves": [r0, size(), size()],
         "weights": _weights(rng, 3)},
        {"id": "crv", "protocol": "curve", "reserves": [r0, r0 * log_uniform(rng, 0.7, 1.4)],
         "amplification": log_uniform(rng, 1.0, 100.0)},
        {"id": "ddo", "protocol": "dodo", **dodo},
    ]
    ids = [p["id"] for p in pools]
    actions = [
        {"action": "compare", "pools": ids, "kind": "slippage", "input_asset": 0,
         "output_asset": 1,
         "grid": {"start": 1e-4, "stop": 0.9, "points": SWEEP_POINTS, "spacing": "log"}},
        {"action": "compare", "pools": ids, "kind": "cross_section", "input_asset": 0,
         "output_asset": 1,
         "grid": {"start": 0.1 * r0, "stop": 10.0 * r0, "points": SWEEP_POINTS, "spacing": "log"}},
        {"action": "compare", "pools": ["uni", "bal"], "kind": "divergence_loss",
         "output_asset": 1,
         "grid": {"start": -0.9, "stop": 4.0, "points": SWEEP_POINTS, "spacing": "linear"}},
    ]
    for pid in ids:
        actions.append({"action": "swap", "pool": pid, "input_asset": 0, "output_asset": 1,
                        "amount": r0 * log_uniform(rng, 1e-4, 0.5)})
        actions.append({"action": "add_liquidity", "pool": pid,
                        "fraction": log_uniform(rng, 1e-3, 0.1)})
    return {"output": {"stem": "sweep"}, "pools": pools, "actions": actions}


def divergence_scenario(seed: int) -> dict:
    """`divergence_solve`: stableswap divergence curves on the default
    60-point shift grid, for 2- and 3-asset pools, balanced and unbalanced,
    at every amplification in AMPLIFICATIONS. 2-asset pools each get a
    `divergence_curve` action; the 3-asset pools share one `compare`."""
    rng = random.Random(f"divergence_solve/{seed}")
    pools = []
    for n in (2, 3):
        for balanced in (True, False):
            for amp in AMPLIFICATIONS:
                scale = SCALE * log_uniform(rng, 0.5, 2.0)
                if balanced:
                    reserves = [scale] * n
                else:
                    reserves = [scale] + [scale * log_uniform(rng, 3.0, 6.0) for _ in range(n - 1)]
                pools.append({
                    "id": f"n{n}_{'bal' if balanced else 'unbal'}_a{amp:g}".replace(".", "p"),
                    "protocol": "curve",
                    "reserves": reserves,
                    "amplification": amp,
                })
    actions = [
        {"action": "divergence_curve", "pool": p["id"], "asset": 1}
        for p in pools if len(p["reserves"]) == 2
    ]
    actions.append({"action": "compare", "kind": "divergence_loss", "output_asset": 1,
                    "pools": [p["id"] for p in pools if len(p["reserves"]) == 3]})
    return {"output": {"stem": "divergence"}, "pools": pools, "actions": actions}

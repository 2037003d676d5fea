"""Byte-identity check of two ammlab source trees on one seeded corpus.

    python3 tools/identity.py compare TREE_A TREE_B [options]

TREE_A and TREE_B are checkouts of this repository (each with `src/ammlab`).
The corpus is generated once, from this checkout and the seeds alone, and fed
to both trees:

* scenario files: `scenarios/*.json`, perfbench's generated sweep and
  divergence scenarios for seeds 1-3, structural and value mutants of a
  7-pool, 8-action base scenario over all six protocols, a few hand-made
  edge cases and an unparseable file;
* the cases of each kind in KINDS, the table that names each kind's draw
  and record, written to one `cases.json`:
  - `pool`: stableswap pools, n from 2 to 4, reserve scale 1e±160,
    per-asset imbalance 1e±40, amplification 1e-3 to 1e6;
  - `weighted`: weighted pools, n from 2 to 4, weights U(1, 3) normalised,
    reserve scale 1e±150, per-asset imbalance 1e±40, a trade of
    10^U(-15, 3) or -U(0, 1) of reserve 0;
  - `pmm`: PMM pools, oracle price 1e±300 or subnormal, A in (0, 1] with
    exactly 1 and 1 - 1e-16 to 1 - 1e-12 among the draws, targets 1e±100,
    reserve 1 at, near or far from C1 on either side, and reserve 2 paired
    with it on the curve;
  - `curve`: bonding curves, reserve and supply 1e±150, reserve ratio in
    (0, 1], each with a deposit and a burn, plus hand-made buys whose
    reserve or minted supply leaves the float range (BONDING_HAND_MADE).

Each tree runs in its own interpreter (`PYTHONPATH=TREE/src`). For every
scenario file it runs `ammlab validate`, `ammlab run` and
`ammlab run --parallel 2` in-process and records the exit code, stdout,
stderr and the sha256 of every file written. For every case it records the
build's refusal, or each step's values by `float.hex` or the error class
and message the step raised. The values of a swap, and of a bonding trade's
post state, are the fields of `SwapOutcome` and `BondingCurveState` in field
order, as `dataclasses.fields` lists them. A stableswap or weighted pool
records its invariant, the spot rate both ways, a swap (with the receipt
deviation, the post reserves and whether the post state shares the pool's
curve), a liquidity change (post reserves, invariant, share supply and
receipt) and the divergence loss of the last asset at each shift in SHIFTS.
A PMM pool records reserve 2, the spot rate both ways, swaps both ways (one
of random size, one that lands on the input reserve's target and one that
crosses it), each with `reserve2_given_reserve1` and
`quadratic_branch_reserve2` at its post-trade input reserve, and a liquidity
change. A bonding curve records a buy of the deposit, a sell of the burn and
a sell of the minted amount from the bought state.

Tree B must also keep the CLI contract on its own: no mode may end in an
uncaught exception, `run` and `run --parallel 2` must give the same exit
code and the same files for every scenario, and a scenario that passes
`validate` must not make `run` exit 2, since exit 2 comes only from
validation (a failing series point is a NaN row and exit 3). The tool
prints, for tree B, how many scenarios end with each pair of `validate` and
`run` exit codes.

The two records must match exactly. `--accept 'OLD=>NEW'` (repeatable)
declares a wording change: OLD is replaced by NEW in tree A's text before
the comparison, and the cases it reconciles are counted. `--accept-re
'PATTERN=>REPLACEMENT'` does the same with `re.sub`, for a new wording that
quotes a value the old one did not: each bonding record names its curve's
inputs, which a group of PATTERN can pick up. Exit status 0 when
every case matches and tree B keeps the CLI contract, 1 otherwise. Of the
records that still differ, those whose outputs differ only in `float.hex`
values are summarised by the largest distance in ulps of each field that
moved between two nonzero values (`div(1)`, `swap[9]`, …), and by the count
of each field's moves from or to ±0.0, which no ulp distance measures.
After the first SHOWN differing records the tool names every differing
scenario file with its differing modes, and counts the differing records of
each kind.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = {
    "validate": lambda path, out: ["validate", path],
    "run": lambda path, out: ["run", path, "--out", out],
    "run --parallel 2": lambda path, out: ["run", path, "--parallel", "2", "--out", out],
}
POOL_SEEDS = (1, 2)
# (reserve, supply, reserve ratio, deposit, burn): a buy whose reserve, and
# one whose minted supply, leaves the float range
BONDING_HAND_MADE = ((1e308, 10.0, 0.5, 1.7e308, 1.0), (1e-300, 1e300, 1.0, 1.0, 1.0))
SHIFTS = (-0.9, -0.5, 0.01, 1.0, 4.0, 1e3)  # price shifts of each pool's divergence loss
SHOWN = 20  # differing cases printed in full

# ---------------------------------------------------------------------------
# corpus

BASE = {
    "output": {"stem": "base"},
    "pools": [
        {"id": "uni", "protocol": "uniswap", "reserves": [100, 100]},
        {"id": "sushi", "protocol": "sushiswap", "reserves": [250, 80]},
        {"id": "bal", "protocol": "balancer", "reserves": [100, 200, 300],
         "weights": [0.5, 0.3, 0.2]},
        {"id": "ban", "protocol": "bancor", "reserves": [50, 150], "weights": [0.6, 0.4]},
        {"id": "crv", "protocol": "curve", "reserves": [100, 120], "amplification": 10},
        {"id": "crv3", "protocol": "curve", "reserves": [100, 90, 110], "amplification": 50},
        {"id": "ddo", "protocol": "dodo", "reserves": [100, 100], "amplification": 0.5,
         "oracle_price": 1.0, "targets": [100, 100]},
    ],
    "actions": [
        {"action": "swap", "pool": "uni", "input_asset": 0, "output_asset": 1, "amount": 10},
        {"action": "add_liquidity", "pool": "crv", "fraction": 0.1},
        {"action": "swap", "pool": "ddo", "input_asset": 1, "output_asset": 0, "amount": 5},
        {"action": "slippage_curve", "pool": "bal", "input_asset": 0, "output_asset": 2,
         "grid": {"start": 0.01, "stop": 0.5, "points": 12, "spacing": "linear"}},
        {"action": "divergence_curve", "pool": "crv3", "asset": 2, "grid": [-0.5, 0.0, 0.5, 2.0]},
        {"action": "cross_section", "pool": "sushi",
         "grid": {"start": 10, "stop": 1000, "points": 9}},
        {"action": "compare", "pools": ["uni", "ban", "crv", "ddo"], "kind": "slippage",
         "grid": [0.01, 0.1, 0.5]},
        {"action": "compare", "pools": ["bal", "crv"], "kind": "divergence_loss",
         "output_asset": 1, "grid": {"start": -0.9, "stop": 3, "points": 7, "spacing": "linear"}},
    ],
}

# replacement values for structural mutants: wrong types, edge numbers, names
VALUES = (
    0, -1, 1, 2, 3, 5, -0.0, 0.5, 0.96, 1.5, 1e-300, 1e300, 1e308, -1e300, 10**400,
    math.nan, math.inf, -math.inf, "x", "uni", "crv", "ddo", "slippage", "divergence_loss",
    "cross_section", "log", "linear", "swap", "compare", None, True, [], {}, [1], [0.5, 0.1],
    [100, -1], [100, 0], [1e300, 1e300], [0.5, 0.5], [1.0],
    {"start": 0.5, "stop": 0.1, "points": 3},
)

HAND_MADE = {
    # a swap whose quadratic leaves the float range: solver failure, exit 3
    "solver-failure": {"pools": [BASE["pools"][4]], "actions": [
        {"action": "swap", "pool": "crv", "amount": 1},
        {"action": "swap", "pool": "crv", "amount": 1e300},
        {"action": "slippage_curve", "pool": "crv", "grid": [0.5]}]},
    # reserves scaled out of the spot rate's range while executing: exit 2
    "domain-error": {"pools": [BASE["pools"][4]], "actions": [
        {"action": "add_liquidity", "pool": "crv", "fraction": 1e300}]},
    # a dodo swap whose post-trade reserve 1 overflows to inf: exit 2
    "overflowing-dodo-swap": {"pools": [dict(BASE["pools"][6], reserves=[1e308, 100],
                                             targets=[1e308, 100])], "actions": [
        {"action": "swap", "pool": "ddo", "amount": 1e308}]},
    # a uniswap swap whose input reserve overflows to inf: exit 2
    "overflowing-uniswap-swap": {"pools": [dict(BASE["pools"][0], reserves=[1e308, 100])],
                                 "actions": [{"action": "swap", "pool": "uni", "amount": 1e308}]},
    # a swap whose output rounds to zero: slippage undefined, exit 2; on
    # (1e300, 1e-300) the spot rate 1e600 is refused before the trade
    **{
        f"zero-output-swap{suffix}": {
            "pools": [dict(BASE["pools"][0], reserves=reserves)],
            "actions": [{"action": "swap", "pool": "uni", "amount": 1e-30}]}
        for suffix, reserves in (("", [1e300, 1e-300]), ("-on-a-rate-in-range", [1e150, 1e-150]))
    },
    # reverse swaps whose output overflows, by the product r_o * (1 - p) and
    # by the power p = (r_i / r_i')^(w_i / w_o) itself: exit 2
    "reverse-overflowing-uniswap-swap": {
        "pools": [dict(BASE["pools"][0], reserves=[100, 1e305])],
        "actions": [{"action": "swap", "pool": "uni", "amount": -99.99999}]},
    "reverse-overflowing-balancer-swap": {
        "pools": [dict(BASE["pools"][3], protocol="balancer", reserves=[100, 100],
                       weights=[0.99, 0.01])],
        "actions": [{"action": "swap", "pool": "ban", "amount": -99.99999}]},
    # three weights on two reserves
    "balancer-weight-count": {"pools": [dict(BASE["pools"][2], reserves=[100, 200])],
                              "actions": []},
    # a grid both unordered and out of its domain
    "unordered-grid-out-of-domain": {"pools": [BASE["pools"][0]], "actions": [
        {"action": "slippage_curve", "pool": "uni", "grid": [0.5, 1e300, 0.1]}]},
    # a fraction at the floor, and one that overflows the reserves of 100
    **{
        f"add-liquidity-{fraction:g}": {"pools": [BASE["pools"][0]], "actions": [
            {"action": "add_liquidity", "pool": "uni", "fraction": fraction}]}
        for fraction in (-1, 1e308)
    },
    "divergence-on-dodo": {"pools": [BASE["pools"][6]], "actions": [
        {"action": "divergence_curve", "pool": "ddo", "asset": 1}]},
    # series points with no value, each a NaN row and a failure line, exit 3:
    # a slippage output that rounds to zero, a cross-section grid whose low
    # end empties the input reserve, and a compare with a pool that fails
    # every point, followed by a swap that still runs
    "zero-output-slippage-point": {
        "pools": [dict(BASE["pools"][0], reserves=[1e150, 1e-150])],
        "actions": [{"action": "slippage_curve", "pool": "uni", "grid": [1e-300]}]},
    "emptying-cross-section-point": {"pools": [BASE["pools"][0]], "actions": [
        {"action": "cross_section", "pool": "uni", "grid": [1e-300, 50]}]},
    "failing-compare-then-swap": {
        "pools": [dict(BASE["pools"][4], amplification=1e-300), BASE["pools"][0]],
        "actions": [
            {"action": "compare", "pools": ["crv", "uni"], "kind": "slippage"},
            {"action": "swap", "pool": "uni", "amount": 10}]},
    # a slippage series on a spot rate that underflows to 0, which every
    # point would divide by: a validation problem, exit 2
    "underflowing-spot-rate-slippage": {
        "pools": [dict(BASE["pools"][0], reserves=[1e-200, 1e200])],
        "actions": [{"action": "slippage_curve", "pool": "uni"}]},
    # swaps on the spot rates 0 and inf, whose slippage would divide by them:
    # a validation problem, exit 2
    **{
        f"swap-on-{name}-spot-rate": {
            "pools": [dict(BASE["pools"][0], reserves=reserves)],
            "actions": [{"action": "swap", "pool": "uni", "amount": amount}]}
        for name, reserves, amount in (("underflowing", [1e-200, 1e200], 1e-201),
                                       ("overflowing", [1e200, 1e-200], 1e199))
    },
    # dodo pools with an oracle price whose reciprocal overflows, off
    # equilibrium (spot rate 0 -> 1 underflows to 0.0) and at it (the rate is
    # the subnormal price): a 1 -> 0 swap and a liquidity change, each a
    # validation problem, exit 2
    **{
        f"dodo-{name}": {
            "pools": [dict(BASE["pools"][6], reserves=reserves, amplification=0.98875,
                           oracle_price=7.6494e-319, targets=[1.04e-33, 1.34e92])],
            "actions": [
                {"action": "swap", "pool": "ddo", "input_asset": 1, "output_asset": 0,
                 "amount": 1e80},
                {"action": "add_liquidity", "pool": "ddo", "fraction": 0.1}]}
        for name, reserves in (("spot-rate-0", [1.16e-36, 1.20389184067004e288]),
                               ("subnormal-price", [1.04e-33, 1.34e92]))
    },
    # a dodo pool whose swap quadratic's c = -P*A*C2^2 overflows at every
    # reserve 1 above its target: its series points are NaN rows, exit 3, and
    # a 0 -> 1 swap is a validation problem, exit 2
    **{
        f"dodo-curve-past-range-{name}": {
            "pools": [dict(BASE["pools"][6], reserves=[1, 1e150], targets=[1, 1e150],
                           oracle_price=1e10)],
            "actions": actions}
        for name, actions in (
            ("series", [{"action": "slippage_curve", "pool": "ddo"},
                        {"action": "cross_section", "pool": "ddo"}]),
            ("swap", [{"action": "swap", "pool": "ddo", "amount": 0.5}]))
    },
    # a balancer pool whose spot rate 0 -> 1 divides by r_1*w_0, which
    # underflows to 0, and a uniswap pool whose rate 0 -> 1 underflows to 0:
    # each action is refused where the rate is formed, a zero-size swap too,
    # a validation problem, exit 2
    "subnormal-balancer-spot-rate": {
        "pools": [dict(BASE["pools"][3], protocol="balancer", reserves=[1.0, 5e-324],
                       weights=[0.4, 0.6])],
        "actions": [{"action": "swap", "pool": "ban", "amount": 0.5},
                    {"action": "slippage_curve", "pool": "ban"},
                    {"action": "add_liquidity", "pool": "ban", "fraction": 0.1}]},
    "uniswap-spot-rate-0-zero-swap": {
        "pools": [dict(BASE["pools"][0], reserves=[1e-200, 1e200])],
        "actions": [{"action": "swap", "pool": "uni", "amount": 0},
                    {"action": "add_liquidity", "pool": "uni", "fraction": 0.1}]},
    # a curve pool whose conservation terms sum past the largest float
    "curve-terms-past-range": {
        "pools": [dict(BASE["pools"][4], reserves=[1e100, 1e100], amplification=5e207)],
        "actions": [{"action": "swap", "pool": "crv", "amount": 1e99},
                    {"action": "slippage_curve", "pool": "crv"},
                    {"action": "divergence_curve", "pool": "crv", "asset": 1}]},
    # default grids, whose x columns a run formats once per distinct grid:
    # two divergence curves on the shift grid, a cross-section compare whose
    # pools share an input reserve and differ in it, and explicit grids equal
    # to the default trade and shift grids next to the defaults themselves
    "default-divergence-grids": {"pools": BASE["pools"], "actions": [
        {"action": "divergence_curve", "pool": pid, "asset": 1} for pid in ("crv", "bal")]},
    "default-cross-section-grids": {
        "pools": [BASE["pools"][0], dict(BASE["pools"][0], id="uni2", reserves=[100, 50]),
                  dict(BASE["pools"][0], id="uni3", reserves=[200, 100])],
        "actions": [{"action": "compare", "pools": ["uni", "uni2", "uni3"],
                     "kind": "cross_section"}]},
    "explicit-default-grids": {"pools": BASE["pools"], "actions": [
        {"action": "slippage_curve", "pool": "uni", "grid": {"start": 0.01, "stop": 0.9,
                                                             "points": 50}},
        {"action": "compare", "pools": ["uni", "crv"], "kind": "slippage"},
        {"action": "divergence_curve", "pool": "crv", "asset": 1, "grid": {
            "start": -0.9, "stop": 4, "points": 60, "spacing": "linear"}},
        {"action": "divergence_curve", "pool": "bal", "asset": 1}]},
    "default-grids": {"pools": BASE["pools"], "actions": [
        {"action": "compare", "pools": ["uni", "bal", "crv", "ddo"], "kind": kind}
        for kind in ("slippage", "cross_section")]},
    **{
        f"non-positive-reserve-{pool['protocol']}-{pool['id']}": {
            "pools": [dict(pool, reserves=[-1.0] + pool["reserves"][1:])], "actions": []}
        for pool in BASE["pools"]
    },
}


def _paths(node, prefix=()):
    """Every (container path, key) in a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def structural_mutant(rng: random.Random) -> dict:
    doc = copy.deepcopy(BASE)
    for _ in range(rng.randint(1, 3)):
        path, key = rng.choice(list(_paths(doc)))
        parent = _at(doc, path)
        op = rng.randrange(4)
        if op == 0:
            del parent[key]
        elif op == 1:
            parent[key] = copy.deepcopy(rng.choice(VALUES))
        elif op == 2 and isinstance(parent, list):
            parent.insert(rng.randrange(len(parent) + 1), copy.deepcopy(parent[key]))
        elif isinstance(parent, dict):
            parent[rng.choice(("fee", "grid", "asset", "targets", "weights"))] = rng.choice(VALUES)
        else:
            j = rng.randrange(len(parent))
            parent[key], parent[j] = parent[j], parent[key]
    return doc


def value_mutant(rng: random.Random) -> dict:
    doc = copy.deepcopy(BASE)
    numbers = [
        (path, key) for path, key in _paths(doc)
        if type(_at(doc, path)[key]) in (int, float)
    ]
    for path, key in rng.sample(numbers, rng.randint(1, 3)):
        parent = _at(doc, path)
        factor = 10.0 ** rng.uniform(-30, 30) if rng.random() < 0.8 else rng.choice((-1.0, 0.0))
        parent[key] = parent[key] * factor
    return doc


def _perfbench_generate():
    # perfbench/ is the benchmark's tree: leave no bytecode cache in it
    sys.dont_write_bytecode = True
    path = ROOT / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stableswap_case(rng: random.Random) -> list:
    scale = 10.0 ** rng.uniform(-160, 160)
    n = rng.randint(2, 4)
    reserves = [scale * 10.0 ** rng.uniform(-40, 40) for _ in range(n)]
    return [reserves, 10.0 ** rng.uniform(-3, 6)]


def weighted_case(rng: random.Random) -> list:
    scale = 10.0 ** rng.uniform(-150, 150)
    n = rng.randint(2, 4)
    reserves = [scale * 10.0 ** rng.uniform(-40, 40) for _ in range(n)]
    raw = [rng.uniform(1.0, 3.0) for _ in range(n)]
    weights = [w / math.fsum(raw) for w in raw[:-1]]
    weights.append(1.0 - math.fsum(weights))
    # a trade of asset 0, as a fraction of its reserve
    return [reserves, weights, rng.choice((10.0 ** rng.uniform(-15, 3), -rng.random()))]


def pmm_case(rng: random.Random) -> list:
    price = rng.choice((
        10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-300, 300),
        5e-324 * rng.randrange(1, 1 << 20),
    ))
    amplification = rng.choice((
        1.0, 1.0 - 10.0 ** rng.uniform(-16, -12), 1.0 - rng.random(),
        10.0 ** rng.uniform(-300, 0),
    ))
    c1, c2 = 10.0 ** rng.uniform(-100, 100), 10.0 ** rng.uniform(-100, 100)
    near = 10.0 ** rng.uniform(-16, -1)
    r1 = c1 * rng.choice((1.0, 1.0 + near, 1.0 - near, 10.0 ** rng.uniform(-3, 3)))
    # trades of asset 0 and of asset 1, as fractions of their reserves
    x, y = (rng.choice((10.0 ** rng.uniform(-15, 3), -rng.random())) for _ in range(2))
    return [price, amplification, c1, c2, r1, x, y]


def bonding_case(rng: random.Random) -> list:
    reserve = 10.0 ** rng.uniform(-150, 150)
    supply = 10.0 ** rng.uniform(-150, 150)
    ratio = 1.0 if rng.random() < 0.1 else 1.0 - rng.random()
    deposit = rng.choice((reserve * 10.0 ** rng.uniform(-20, 20), 10.0 ** rng.uniform(150, 308)))
    burn = supply * rng.choice((rng.random(), 1.0 - 10.0 ** rng.uniform(-16, -1), 1.0))
    return [reserve, supply, ratio, deposit, burn]


def _draws(stream: str, draw, count: int) -> list:
    rng = random.Random(f"identity/{stream}")
    return [draw(rng) for _ in range(count)]


def _per_seed(stream: str, draw):
    """The cases of `pools` draws from each of POOL_SEEDS' streams."""
    return lambda pools, curves: [
        case for seed in POOL_SEEDS for case in _draws(f"{stream}/{seed}", draw, pools)
    ]


# ---------------------------------------------------------------------------
# worker: runs inside one tree


def _hex(x) -> str:
    return float(x).hex() if type(x) in (int, float) else repr(x)


def _values(record) -> list:
    """A record's field values in field order, each tuple spread out."""
    values = []
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        values += value if isinstance(value, tuple) else [value]
    return values


def _attempt(step: str, fn) -> str:
    """`step=v1,v2,...` of the values fn returns, or the error it raises."""
    try:
        return f"{step}={','.join(map(_hex, fn()))}"
    except Exception as exc:  # noqa: BLE001 - the class is the record
        return f"{step} {_refused(exc)}"


def _refused(exc: Exception) -> str:
    return f"refused {type(exc).__name__}: {exc}"


def _swap(am, pool, i: int, amount: float) -> list:
    post, out, receipt = am.apply_swap(pool, i, 1 - i, amount)
    return [*_values(out), receipt.checks[0].deviation, *post.reserves,
            post._curve is pool._curve]


def _liquidity(am, pool) -> list:
    post, receipt = am.add_liquidity_proportional(pool, 0.1)
    return [*post.reserves, *post.invariant, post.share_supply, receipt.checks[0].deviation,
            receipt.passed]


def _pool_line(am, build, fraction: float) -> str:
    """The record of a stableswap or weighted pool: its invariant, the spot
    rate both ways, a swap of fraction of reserve 0, a liquidity change, and
    the last asset's divergence loss at each of SHIFTS."""
    try:
        pool = build()
    except Exception as exc:  # noqa: BLE001
        return _refused(exc)
    o = len(pool.reserves) - 1
    steps = [("invariant", lambda: pool.invariant),
             ("spot(0,1)", lambda: [am.spot_rate(pool, 0, 1)]),
             ("spot(1,0)", lambda: [am.spot_rate(pool, 1, 0)]),
             ("swap", lambda: _swap(am, pool, 0, fraction * pool.reserves[0])),
             ("add", lambda: _liquidity(am, pool))]
    steps += [(f"div({rho:g})", lambda rho=rho: [am.divergence_loss(pool, o, rho)])
              for rho in SHIFTS]
    return " ".join(_attempt(step, fn) for step, fn in steps)


def _pmm_line(am, price, amplification, c1, c2, r1, x, y) -> str:
    pmm = am.pmm
    try:
        params = pmm.PMMParams(price, amplification, c1, c2)
        r2 = pmm.reserve2_given_reserve1(r1, params)
        pool = am.pmm_pool(c1, c2, price, amplification, reserves=(r1, r2))
    except Exception as exc:  # noqa: BLE001
        return _refused(exc)
    parts = [f"r2={_hex(r2)}", _attempt("spot(0,1)", lambda: [am.spot_rate(pool, 0, 1)]),
             _attempt("spot(1,0)", lambda: [am.spot_rate(pool, 1, 0)])]
    # per input asset: a trade of random size, one that lands on the input
    # reserve's target and one that crosses it, each with both reserve-2
    # solves at its post-trade input reserve, in that asset's orientation
    solves = (("r2g", pmm.reserve2_given_reserve1), ("quad", pmm.quadratic_branch_reserve2))
    sides = ((r1, c1, x, lambda: params), (r2, c2, y, params.mirrored))
    for i, (reserve, target, fraction, oriented) in enumerate(sides):
        land = target - reserve
        for trade, amount in (("swap", reserve * fraction), ("land", land),
                              ("cross", 2.0 * land if land else reserve * fraction)):
            parts.append(_attempt(f"{trade}{i}", lambda: _swap(am, pool, i, amount)))
            for name, solve in solves:
                parts.append(_attempt(f"{trade}{i}.{name}",
                                      lambda: [solve(reserve + amount, oriented())]))
    parts.append(_attempt("add", lambda: _liquidity(am, pool)))
    return " ".join(parts)


def _curve_line(am, reserve, supply, ratio, deposit, burn) -> str:
    inputs = f"curve=({reserve!r}, {supply!r}, {ratio!r}) deposit={deposit!r} burn={burn!r}"
    try:
        state = am.bonding_curve(reserve, supply, ratio)
    except Exception as exc:  # noqa: BLE001
        return f"{_refused(exc)}; {inputs}"
    done = {}  # step: (post state, amount), for the sell of the minted amount

    def trade(step, fn, parent, amount):
        post, moved = done[step] = fn(parent, amount)
        return [*_values(post), moved]

    parts = [inputs, _attempt("buy", lambda: trade("buy", am.bonding_buy, state, deposit)),
             _attempt("sell", lambda: trade("sell", am.bonding_sell, state, burn))]
    if "buy" in done:
        parts.append(_attempt("sell-minted",
                              lambda: trade("sell-minted", am.bonding_sell, *done["buy"])))
    return " ".join(parts)


# kind: (its cases from the --pools and --curves counts, the record of one case)
KINDS = {
    "pool": (_per_seed("stableswap", stableswap_case),
             lambda am, reserves, a: _pool_line(am, lambda: am.stableswap_pool(reserves, a), 0.1)),
    "weighted": (_per_seed("weighted", weighted_case),
                 lambda am, reserves, weights, fraction: _pool_line(
                     am, lambda: am.weighted_pool(reserves, weights), fraction)),
    "pmm": (_per_seed("pmm", pmm_case), _pmm_line),
    "curve": (lambda pools, curves: [*BONDING_HAND_MADE, *_draws("bonding", bonding_case, curves)],
              _curve_line),
}


def write_corpus(
    directory: Path, mutants: int, value_mutants: int, pools: int, curves: int
) -> tuple[int, dict]:
    """Write the scenario files under directory/scenarios and each kind's
    cases to directory/cases.json; returns the number of scenario files and
    the number of cases of each kind."""
    scenarios = directory / "scenarios"
    scenarios.mkdir(parents=True)
    docs = {f"bundled-{p.stem}": json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / "scenarios").glob("*.json"))}
    generate = _perfbench_generate()
    for seed in (1, 2, 3):
        docs[f"perfbench-sweep-{seed}"] = generate.sweep_scenario(seed)
        docs[f"perfbench-divergence-{seed}"] = generate.divergence_scenario(seed)
    docs.update(HAND_MADE)
    rng = random.Random("identity/structural")
    docs.update((f"structural-{k:04d}", structural_mutant(rng)) for k in range(mutants))
    rng = random.Random("identity/value")
    docs.update((f"value-{k:04d}", value_mutant(rng)) for k in range(value_mutants))
    for name, doc in docs.items():
        (scenarios / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    (scenarios / "unparseable.json").write_text('{"pools": [', encoding="utf-8")
    cases = {kind: generate_cases(pools, curves) for kind, (generate_cases, _) in KINDS.items()}
    (directory / "cases.json").write_text(json.dumps(cases), encoding="utf-8")
    return len(docs) + 1, {kind: len(c) for kind, c in cases.items()}


def worker(tree: Path, corpus: Path, out: Path) -> int:
    import ammlab
    from ammlab import cli

    if tree.resolve() not in Path(ammlab.__file__).resolve().parents:
        print(f"ammlab was imported from {ammlab.__file__}, not from {tree}", file=sys.stderr)
        return 2
    scratch = Path(tempfile.mkdtemp(prefix="identity-out-"))
    try:
        _record_all(ammlab, cli, corpus, scratch, out)
    finally:
        shutil.rmtree(scratch)
    return 0


def _record_all(am, cli, corpus: Path, scratch: Path, out: Path) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        for path in sorted((corpus / "scenarios").glob("*.json")):
            for mode, argv in MODES.items():
                target = scratch / "out"
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = cli.main(argv(str(path), str(target)))
                    except SystemExit as exc:
                        code = exc.code
                    except Exception as exc:  # noqa: BLE001 - a traceback is a result
                        code = f"uncaught {type(exc).__name__}: {exc}"
                files = {}
                if target.exists():
                    for f in sorted(target.rglob("*")):
                        if f.is_file():
                            digest = hashlib.sha256(f.read_bytes()).hexdigest()
                            files[str(f.relative_to(target))] = digest
                    shutil.rmtree(target)
                record = {"case": f"{mode} {path.stem}", "exit": code,
                          "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "files": files}
                fh.write(json.dumps(record) + "\n")
        cases = json.loads((corpus / "cases.json").read_text(encoding="utf-8"))
        for kind, (_, line) in KINDS.items():
            for k, case in enumerate(cases[kind]):
                record = {"case": f"{kind} {k:05d}", "exit": None, "stdout": line(am, *case),
                          "stderr": "", "files": {}}
                fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# compare: generate the corpus, run both trees, diff their records


def _records(tree: Path, corpus: Path, out: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    subprocess.run(
        [sys.executable, __file__, "worker", str(tree), str(corpus), str(out)],
        env=env, check=True,
    )
    with open(out, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _digest(record: dict) -> tuple:
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()  # noqa: E731
    return record["exit"], sha(record["stdout"]), sha(record["stderr"]), record["files"]


_HEX = re.compile(r"-?0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+")


def _ordinal(x: float) -> int:
    """x's position among the doubles, with -0.0 and 0.0 at 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _float_moves(ra: dict, rb: dict):
    """({field: ulp distance}, Counter({field: moves from or to ±0.0})) when
    the two records differ only in float.hex values of their space-separated
    `key=v1,v2,...` output, else None. The ulp distance covers only moves
    between two nonzero values: from 0.0 it would count every double below
    the new value."""
    if (ra["exit"], ra["stderr"], ra["files"]) != (rb["exit"], rb["stderr"], rb["files"]):
        return None
    a, b = ra["stdout"].split(" "), rb["stdout"].split(" ")
    if len(a) != len(b):
        return None
    moves, zeros, seen = {}, Counter(), Counter()
    for ta, tb in zip(a, b):
        key, _, va = ta.partition("=")
        seen[key] += 1
        if ta == tb:
            continue
        kb, _, vb = tb.partition("=")
        pa, pb = va.split(","), vb.split(",")
        if key != kb or len(pa) != len(pb):
            return None
        for j, (x, y) in enumerate(zip(pa, pb)):
            if x == y:
                continue
            if not (_HEX.fullmatch(x) and _HEX.fullmatch(y)):
                return None
            field = key if len(pa) == 1 else f"{key}[{j}]"
            if seen[key] > 1:  # a key's later uses, as the D after a liquidity change
                field += f"#{seen[key]}"
            fx, fy = float.fromhex(x), float.fromhex(y)
            if fx == 0.0 or fy == 0.0:
                zeros[field] += 1
                continue
            distance = abs(_ordinal(fx) - _ordinal(fy))
            moves[field] = max(moves.get(field, 0), distance)
    return moves, zeros


def _contract(records: list[dict]) -> tuple[list[str], Counter]:
    """The CLI contract's violations in one tree's records, and how many
    scenarios end with each (validate, run) pair of exit codes; a scenario
    that validates and makes run exit 2 is a violation."""
    violations, by_scenario = [], {}
    for r in records:
        if isinstance(r["exit"], str) and r["exit"].startswith("uncaught"):
            violations.append(f"{r['case']}: {r['exit']}")
        mode, _, name = r["case"].rpartition(" ")
        if mode in MODES:
            by_scenario.setdefault(name, {})[mode] = r
    for name, modes in by_scenario.items():
        serial, parallel = modes["run"], modes["run --parallel 2"]
        if (serial["exit"], serial["files"]) != (parallel["exit"], parallel["files"]):
            violations.append(f"{name}: run and run --parallel 2 differ")
        if (modes["validate"]["exit"], serial["exit"]) == (0, 2):
            violations.append(f"{name}: validate exits 0, run exits 2")
    exits = Counter((m["validate"]["exit"], m["run"]["exit"]) for m in by_scenario.values())
    return violations, exits


def compare(args) -> int:
    accept = [rule.split("=>", 1) for rule in args.accept]
    accept_re = [rule.split("=>", 1) for rule in args.accept_re]
    if any(len(rule) != 2 for rule in accept + accept_re):
        raise SystemExit("--accept and --accept-re take OLD=>NEW")
    work = Path(tempfile.mkdtemp(prefix="identity-"))
    try:
        files, cases = write_corpus(
            work, args.mutants, args.value_mutants, args.pools, args.curves)
        print(f"corpus: {files} scenario files x {len(MODES)} modes, "
              + ", ".join(f"{n} {kind} cases" for kind, n in cases.items()))
        a = _records(args.tree_a.resolve(), work, work / "a.jsonl")
        b = _records(args.tree_b.resolve(), work, work / "b.jsonl")
    finally:
        shutil.rmtree(work)
    if [r["case"] for r in a] != [r["case"] for r in b]:
        print("the two trees recorded different cases")
        return 1
    same = accepted = 0
    differ = []
    for ra, rb in zip(a, b):
        if _digest(ra) == _digest(rb):
            same += 1
            continue
        for key in ("stdout", "stderr"):
            for old, new in accept:
                ra[key] = ra[key].replace(old, new)
            for pattern, replacement in accept_re:
                ra[key] = re.sub(pattern, replacement, ra[key])
        if _digest(ra) == _digest(rb):
            accepted += 1
        else:
            differ.append((ra, rb))
    print(f"identical: {same}; identical after --accept: {accepted}; different: {len(differ)}")
    moved = [m for m in (_float_moves(ra, rb) for ra, rb in differ) if m is not None]
    if moved:
        worst, zeros = {}, Counter()
        for moves, zero_moves in moved:
            for field, distance in moves.items():
                worst[field] = max(worst.get(field, 0), distance)
            zeros.update(zero_moves)
        print(f"  {len(moved)} of them differ only in float.hex values; the largest ulp distance "
              "between nonzero values by field: "
              + ", ".join(f"{f} {d}" for f, d in sorted(worst.items())))
        print("  moves from or to zero by field: "
              + ", ".join(f"{f} x {n}" for f, n in sorted(zeros.items())))
    outcomes = Counter(
        (r["case"].rsplit(" ", 1)[0], r["exit"] if r["exit"] is not None
         else "refused" if r["stdout"].startswith("refused") else "built")
        for r in b
    )
    for mode in (*MODES, *KINDS):
        counts = ", ".join(f"{code} x {n}" for (m, code), n in sorted(outcomes.items(), key=str)
                           if m == mode)
        print(f"  tree B {mode}: {counts}")
    violations, exits = _contract(b)
    print("  tree B (validate, run) exits: "
          + ", ".join(f"{pair} x {n}" for pair, n in sorted(exits.items(), key=str)))
    for ra, rb in differ[:SHOWN]:
        print(f"DIFF {ra['case']}")
        for key in ("exit", "stdout", "stderr", "files"):
            if ra[key] != rb[key]:
                print(f"  {key} A: {ra[key]!r}\n  {key} B: {rb[key]!r}")
    files, kinds = {}, Counter()
    for ra, _ in differ:
        kind, _, name = ra["case"].rpartition(" ")
        if kind in MODES:
            files.setdefault(name, []).append(kind)
            kind = "scenario"
        kinds[kind] += 1
    for name, modes in files.items():
        print(f"differing file {name}: {', '.join(modes)}")
    print("differing records: "
          + ", ".join(f"{kind} {kinds[kind]}" for kind in ("scenario", *KINDS)))
    print(f"CLI contract of tree B: {len(violations)} violations")
    for line in violations:
        print(f"  {line}")
    return 1 if differ or violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("compare", help="compare two trees on the corpus")
    p.add_argument("tree_a", type=Path)
    p.add_argument("tree_b", type=Path)
    p.add_argument("--mutants", type=int, default=1500, help="structural scenario mutants")
    p.add_argument("--value-mutants", type=int, default=300, help="numeric scenario mutants")
    p.add_argument("--pools", type=int, default=10000,
                   help="stableswap, weighted and PMM pools, per seed")
    p.add_argument("--curves", type=int, default=5000, help="random bonding curves")
    p.add_argument("--accept", action="append", default=[], metavar="OLD=>NEW",
                   help="a declared wording change in tree B")
    p.add_argument("--accept-re", action="append", default=[], metavar="PATTERN=>REPLACEMENT",
                   help="a declared wording change in tree B, as a regular expression")
    w = sub.add_parser("worker", help=argparse.SUPPRESS)
    w.add_argument("tree", type=Path)
    w.add_argument("corpus", type=Path)
    w.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    if args.command == "worker":
        return worker(args.tree, args.corpus, args.out)
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())

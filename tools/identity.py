"""Byte-identity check of two ammlab source trees on one seeded corpus.

    python3 tools/identity.py compare TREE_A TREE_B [options]

TREE_A and TREE_B are checkouts of this repository (each with `src/ammlab`).
The corpus is generated once, from this checkout and the seeds alone, and fed
to both trees:

* scenario files: `scenarios/*.json`, perfbench's generated sweep and
  divergence scenarios for seeds 1-3, structural and value mutants of a
  7-pool, 8-action base scenario over all six protocols, a few hand-made
  edge cases and an unparseable file;
* random stableswap pools: n from 2 to 4, reserve scale 1e±160, per-asset
  imbalance 1e±40, amplification 1e-3 to 1e6;
* random PMM pools: oracle price 1e±300 or subnormal, A in (0, 1] with
  exactly 1 and 1 - 1e-16 to 1 - 1e-12 among the draws, targets 1e±100,
  reserve 1 at, near or far from C1 on either side, and reserve 2 paired
  with it on the curve;
* random bonding curves: reserve and supply 1e±150, reserve ratio in
  (0, 1], each with a deposit and a burn, plus hand-made buys whose reserve
  or minted supply leaves the float range (BONDING_HAND_MADE).

Each tree runs in its own interpreter (`PYTHONPATH=TREE/src`). For every
scenario file it runs `ammlab validate`, `ammlab run` and
`ammlab run --parallel 2` in-process and records the exit code, stdout,
stderr and the sha256 of every file written. For every pool it records the
build's accept or refuse decision with the error class and message, and on
a built pool, by `float.hex`: D, `spot_rate(0, 1)`, every `SwapOutcome`
field, the receipt deviation and post reserves of a swap, the post
reserves, D, share supply and receipt of a liquidity change, and the
divergence loss of the last asset at each shift in SHIFTS. For every PMM
pool it records, by `float.hex`, the reserve 2 paired with reserve 1 and the
build, the spot rate both ways, swaps both ways (one of random size, one
that lands on the input reserve's target and one that crosses it), a
liquidity change, and `reserve2_given_reserve1` and
`quadratic_branch_reserve2` at each swap's post-trade input reserve. For
every bonding curve it records, by `float.hex`, the post state's five
fields and the amount of a buy of the deposit, of a sell of the burn, and of
a sell of the minted amount from the bought state. Each step that raises is
recorded as its error class and message.

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
moved (`div(1)`, `swap[9]`, …). After the first SHOWN differing records the
tool names every differing scenario file with its differing modes, and
counts the differing records of each kind.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
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
    # a swap whose output rounds to zero: slippage undefined, exit 2
    "zero-output-swap": {"pools": [dict(BASE["pools"][0], reserves=[1e300, 1e-300])],
                         "actions": [{"action": "swap", "pool": "uni", "amount": 1e-30}]},
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


def bonding_case(rng: random.Random) -> list:
    reserve = 10.0 ** rng.uniform(-150, 150)
    supply = 10.0 ** rng.uniform(-150, 150)
    ratio = 1.0 if rng.random() < 0.1 else 1.0 - rng.random()
    deposit = rng.choice((reserve * 10.0 ** rng.uniform(-20, 20), 10.0 ** rng.uniform(150, 308)))
    burn = supply * rng.choice((rng.random(), 1.0 - 10.0 ** rng.uniform(-16, -1), 1.0))
    return [reserve, supply, ratio, deposit, burn]


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


def write_corpus(
    directory: Path, mutants: int, value_mutants: int, pools: int, curves: int
) -> int:
    """Write the scenario files under directory/scenarios, the pool list to
    directory/pools.json, the PMM cases to directory/pmm.json and the
    bonding cases to directory/curves.json; returns the number of scenario
    files."""
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

    corpus = []
    for seed in POOL_SEEDS:
        rng = random.Random(f"identity/stableswap/{seed}")
        for _ in range(pools):
            scale = 10.0 ** rng.uniform(-160, 160)
            n = rng.randint(2, 4)
            reserves = [scale * 10.0 ** rng.uniform(-40, 40) for _ in range(n)]
            corpus.append([reserves, 10.0 ** rng.uniform(-3, 6)])
    (directory / "pools.json").write_text(json.dumps(corpus), encoding="utf-8")
    cases = []
    for seed in POOL_SEEDS:
        rng = random.Random(f"identity/pmm/{seed}")
        cases += [pmm_case(rng) for _ in range(pools)]
    (directory / "pmm.json").write_text(json.dumps(cases), encoding="utf-8")
    rng = random.Random("identity/bonding")
    cases = [list(case) for case in BONDING_HAND_MADE]
    cases += [bonding_case(rng) for _ in range(curves)]
    (directory / "curves.json").write_text(json.dumps(cases), encoding="utf-8")
    return len(docs) + 1


# ---------------------------------------------------------------------------
# worker: runs inside one tree


def _hex(x) -> str:
    return float(x).hex() if isinstance(x, (int, float)) else repr(x)


def _pool_line(core, analysis, reserves, amplification) -> str:
    def attempt(step, fn):
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - the class is the record
            return f"{step} refused {type(exc).__name__}: {exc}"

    try:
        pool = core.stableswap_pool(reserves, amplification)
    except Exception as exc:  # noqa: BLE001
        return f"refused {type(exc).__name__}: {exc}"
    parts = [f"D={_hex(pool.invariant[0])}"]
    parts.append(attempt("spot", lambda: f"spot={_hex(core.spot_rate(pool, 0, 1))}"))

    def swap():
        post, out, receipt = core.apply_swap(pool, 0, 1, 0.1 * pool.reserves[0])
        fields = [out.input_asset, out.output_asset, out.amount_in, out.amount_out,
                  *out.reserves_after, out.spot_rate_before, out.effective_rate, out.slippage]
        return (f"swap={','.join(map(_hex, fields))} dev={_hex(receipt.checks[0].deviation)}"
                f" post={','.join(map(_hex, post.reserves))} shared={post._curve is pool._curve}")

    def liquidity():
        post, receipt = core.add_liquidity_proportional(pool, 0.1)
        return (f"add={','.join(map(_hex, post.reserves))} D={_hex(post.invariant[0])}"
                f" shares={_hex(post.share_supply)} dev={_hex(receipt.checks[0].deviation)}"
                f" passed={receipt.passed}")

    parts.append(attempt("swap", swap))
    parts.append(attempt("add", liquidity))
    o = len(pool.reserves) - 1
    for rho in SHIFTS:
        step = f"div({rho:g})"
        parts.append(attempt(step, lambda: f"{step}={_hex(analysis.divergence_loss(pool, o, rho))}"))
    return " ".join(parts)


def _pmm_line(core, pmm, price, amplification, c1, c2, r1, x, y) -> str:
    def attempt(step, fn):
        try:
            return f"{step}={fn()}"
        except Exception as exc:  # noqa: BLE001 - the class is the record
            return f"{step} refused {type(exc).__name__}: {exc}"

    try:
        params = pmm.PMMParams(price, amplification, c1, c2)
        r2 = pmm.reserve2_given_reserve1(r1, params)
        pool = core.pmm_pool(c1, c2, price, amplification, reserves=(r1, r2))
    except Exception as exc:  # noqa: BLE001
        return f"refused {type(exc).__name__}: {exc}"
    parts = [f"r2={_hex(r2)}", attempt(
        "spot", lambda: f"{_hex(core.spot_rate(pool, 0, 1))},{_hex(core.spot_rate(pool, 1, 0))}"
    )]

    def swap(i, amount):
        post, out, receipt = core.apply_swap(pool, i, 1 - i, amount)
        fields = [out.amount_out, *out.reserves_after, out.spot_rate_before,
                  out.effective_rate, out.slippage, receipt.checks[0].deviation]
        return ",".join(map(_hex, fields))

    # per input asset: a trade of random size, one that lands on the input
    # reserve's target and one that crosses it, each with both reserve-2
    # solves at its post-trade input reserve, in that asset's orientation
    solves = (("r2g", pmm.reserve2_given_reserve1), ("quad", pmm.quadratic_branch_reserve2))
    sides = ((r1, c1, x, lambda: params), (r2, c2, y, params.mirrored))
    for i, (reserve, target, fraction, oriented) in enumerate(sides):
        land = target - reserve
        for trade, amount in (("swap", reserve * fraction), ("land", land),
                              ("cross", 2.0 * land if land else reserve * fraction)):
            parts.append(attempt(f"{trade}{i}", lambda: swap(i, amount)))
            for name, solve in solves:
                parts.append(attempt(f"{trade}{i}.{name}",
                                     lambda: _hex(solve(reserve + amount, oriented()))))

    def liquidity():
        post, receipt = core.add_liquidity_proportional(pool, 0.1)
        fields = [*post.reserves, *post.invariant, post.share_supply, receipt.checks[0].deviation]
        return ",".join(map(_hex, fields))

    parts.append(attempt("add", liquidity))
    return " ".join(parts)


def _curve_line(bonding, reserve, supply, ratio, deposit, burn) -> str:
    def trade(step, fn, state, amount):
        try:
            post, moved = fn(state, amount)
        except Exception as exc:  # noqa: BLE001 - the class is the record
            return None, f"{step} refused {type(exc).__name__}: {exc}"
        values = [post.reserve, post.supply, post.reserve_ratio, post.anchor_reserve,
                  post.anchor_supply, moved]
        return (post, moved), f"{step}={','.join(map(_hex, values))}"

    inputs = f"curve=({reserve!r}, {supply!r}, {ratio!r}) deposit={deposit!r} burn={burn!r}"
    try:
        state = bonding.bonding_curve(reserve, supply, ratio)
    except Exception as exc:  # noqa: BLE001
        return f"refused {type(exc).__name__}: {exc}; {inputs}"
    bought, buy = trade("buy", bonding.bonding_buy, state, deposit)
    parts = [inputs, buy, trade("sell", bonding.bonding_sell, state, burn)[1]]
    if bought is not None:
        parts.append(trade("sell-minted", bonding.bonding_sell, *bought)[1])
    return " ".join(parts)


def worker(tree: Path, corpus: Path, out: Path) -> int:
    import ammlab
    from ammlab import analysis, bonding, cli, core, pmm

    if tree.resolve() not in Path(ammlab.__file__).resolve().parents:
        print(f"ammlab was imported from {ammlab.__file__}, not from {tree}", file=sys.stderr)
        return 2
    scratch = Path(tempfile.mkdtemp(prefix="identity-out-"))
    try:
        _record_all(cli, core, analysis, bonding, pmm, corpus, scratch, out)
    finally:
        shutil.rmtree(scratch)
    return 0


def _record_all(
    cli, core, analysis, bonding, pmm, corpus: Path, scratch: Path, out: Path
) -> None:
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
        pools = json.loads((corpus / "pools.json").read_text(encoding="utf-8"))
        for k, (reserves, amplification) in enumerate(pools):
            line = _pool_line(core, analysis, reserves, amplification)
            record = {"case": f"pool {k:05d}", "exit": None, "stdout": line, "stderr": "",
                      "files": {}}
            fh.write(json.dumps(record) + "\n")
        cases = json.loads((corpus / "pmm.json").read_text(encoding="utf-8"))
        for k, case in enumerate(cases):
            record = {"case": f"pmm {k:05d}", "exit": None,
                      "stdout": _pmm_line(core, pmm, *case), "stderr": "", "files": {}}
            fh.write(json.dumps(record) + "\n")
        curves = json.loads((corpus / "curves.json").read_text(encoding="utf-8"))
        for k, case in enumerate(curves):
            record = {"case": f"curve {k:05d}", "exit": None,
                      "stdout": _curve_line(bonding, *case), "stderr": "", "files": {}}
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
    """{field: ulp distance} when the two records differ only in float.hex
    values of their space-separated `key=v1,v2,...` output, else None."""
    if (ra["exit"], ra["stderr"], ra["files"]) != (rb["exit"], rb["stderr"], rb["files"]):
        return None
    a, b = ra["stdout"].split(" "), rb["stdout"].split(" ")
    if len(a) != len(b):
        return None
    moves, seen = {}, Counter()
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
            distance = abs(_ordinal(float.fromhex(x)) - _ordinal(float.fromhex(y)))
            moves[field] = max(moves.get(field, 0), distance)
    return moves


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
        files = write_corpus(work, args.mutants, args.value_mutants, args.pools, args.curves)
        print(f"corpus: {files} scenario files x {len(MODES)} modes, "
              f"{args.pools * len(POOL_SEEDS)} stableswap pools, "
              f"{args.pools * len(POOL_SEEDS)} PMM pools, "
              f"{args.curves + len(BONDING_HAND_MADE)} bonding curves")
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
        worst = {}
        for moves in moved:
            for field, distance in moves.items():
                worst[field] = max(worst.get(field, 0), distance)
        print(f"  {len(moved)} of them differ only in float.hex values; the largest ulp distance "
              "by field: " + ", ".join(f"{f} {d}" for f, d in sorted(worst.items())))
    outcomes = Counter(
        (r["case"].rsplit(" ", 1)[0], r["exit"] if r["exit"] is not None
         else "refused" if r["stdout"].startswith("refused") else "built")
        for r in b
    )
    for mode in (*MODES, "pool", "pmm", "curve"):
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
          + ", ".join(f"{kind} {kinds[kind]}" for kind in ("scenario", "pool", "pmm", "curve")))
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
                   help="stableswap pools, and PMM pools, per seed")
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

"""Scenario-driven command line.

``ammlab run <scenario.json>`` reads a declarative scenario — pool
definitions plus an ordered action list — executes it, and writes CSV series
files and a plain-text transition-receipt log. ``ammlab validate`` reports
every scenario problem without executing anything: it checks the document's
shape (keys, types, list lengths, pool references, grid specs) itself, and
the library judges every value: it builds each pool and checks each grid,
fraction and action argument, in its own words; those problems are prefixed
``pools[k]:`` or ``actions[k]:``. ``run`` makes the same checks and executes
what they built: the pools, the resolved grids and each action's arguments
with their defaults filled in, so nothing is built twice. Output is
deterministic: identical scenarios produce byte-identical files. Everything
runs in one thread, in grid order; ``--parallel N`` must be at least 1 and
does not change the output (a thread pool cannot speed up this pure-Python
arithmetic, which holds the interpreter lock, so none is started).

Exit codes: 0 success, 1 parse error, 2 validation error (or a domain error
hit while executing), 3 solver failure (partial outputs are kept and a
manifest of failed points is written).

Scenario schema (JSON object):

    {
      "output": {"stem": "demo", "directory": "out"},     # both optional
      "pools": [
        {"id": "uni", "protocol": "uniswap", "reserves": [100, 100]},
        {"id": "bal", "protocol": "balancer", "reserves": [100, 100],
         "weights": [0.8, 0.2]},
        {"id": "crv", "protocol": "curve", "reserves": [100, 100],
         "amplification": 10},
        {"id": "ddo", "protocol": "dodo", "reserves": [100, 100],
         "amplification": 0.5, "oracle_price": 1.0, "targets": [100, 100]}
      ],
      "actions": [
        {"action": "swap", "pool": "uni", "input_asset": 0,
         "output_asset": 1, "amount": 10},
        {"action": "add_liquidity", "pool": "uni", "fraction": 0.1},
        {"action": "slippage_curve", "pool": "uni"},
        {"action": "divergence_curve", "pool": "bal", "asset": 1},
        {"action": "cross_section", "pool": "crv"},
        {"action": "compare", "pools": ["uni", "bal", "crv", "ddo"],
         "kind": "slippage"}
      ]
    }

Grids are either explicit strictly increasing arrays or
``{"start": a, "stop": b, "points": n, "spacing": "log"|"linear"}``
(spacing defaults to "log"). ``sushiswap`` is mechanically ``uniswap``;
``bancor`` is mechanically ``balancer``. Relative ``output.directory``
resolves against the scenario file's directory; ``--out`` (which overrides
it) resolves against the working directory.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import chain
from pathlib import Path

from . import __version__, quote
from .analysis import (
    FLOAT_FORMAT,
    SeriesKind,
    check_grid_domain,
    conservation_cross_section,
    default_cross_section_grid,
    divergence_curve,
    format_floats,
    linear_grid,
    log_grid,
    slippage_curve,
)
from .core import (
    PoolState,
    add_liquidity_proportional,
    apply_swap,
    bancor_pool,
    pmm_pool,
    stableswap_pool,
    sushiswap_pool,
    swap_kernel,
    uniswap_pool,
    weighted_pool,
)
from .errors import AmmError, ConvergenceFailure, NoSolution, NotApplicable

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

_ID_PATTERN = re.compile(r"^[A-Za-z0-9_-]+$")
_PROTOCOLS = ("uniswap", "sushiswap", "balancer", "bancor", "curve", "dodo")
_KINDS = {
    "slippage": SeriesKind.SLIPPAGE,
    "divergence_loss": SeriesKind.DIVERGENCE_LOSS,
    "cross_section": SeriesKind.CONSERVATION_CROSS_SECTION,
}
_POOL_KEYS = {
    "uniswap": {"id", "protocol", "reserves"},
    "sushiswap": {"id", "protocol", "reserves"},
    "balancer": {"id", "protocol", "reserves", "weights"},
    "bancor": {"id", "protocol", "reserves", "weights"},
    "curve": {"id", "protocol", "reserves", "amplification"},
    "dodo": {"id", "protocol", "reserves", "amplification", "oracle_price", "targets"},
}
_SERIES_ACTIONS = {
    "slippage_curve": SeriesKind.SLIPPAGE,
    "divergence_curve": SeriesKind.DIVERGENCE_LOSS,
    "cross_section": SeriesKind.CONSERVATION_CROSS_SECTION,
}
_ACTION_KEYS = {
    "swap": {"action", "pool", "input_asset", "output_asset", "amount"},
    "add_liquidity": {"action", "pool", "fraction"},
    "slippage_curve": {"action", "pool", "input_asset", "output_asset", "grid"},
    "divergence_curve": {"action", "pool", "asset", "grid"},
    "cross_section": {"action", "pool", "input_asset", "output_asset", "grid"},
    "compare": {"action", "pools", "kind", "input_asset", "output_asset", "grid"},
}


def _is_number(v) -> bool:
    # the comparison is exact for integers of any size, and false for NaN
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_index(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# validation: the CLI checks the document's shape (keys, types, list lengths,
# references, grid specs); every value is judged by the library code using it

# what the library raises for a value outside a formula's domain (overflow
# included: huge reserves leave the floating-point range inside a formula)
_DOMAIN_ERRORS = (AmmError, ArithmeticError, IndexError, ValueError)
# the lists the two-asset factories take as two separate arguments
_PAIRS = {"uniswap": "reserves", "sushiswap": "reserves", "dodo": "targets"}


def _resolve_grid(spec):
    """Turn a grid spec (array or start/stop/points object) into a tuple;
    None when the spec is absent. A bad spec raises ValueError, and the
    library's grid builders their own errors."""
    if spec is None:
        return None
    if isinstance(spec, list):
        if len(spec) == 0:
            raise ValueError("grid array is empty")
        if not all(_is_number(v) for v in spec):
            raise ValueError("grid values must be finite numbers")
        values = tuple(float(v) for v in spec)
    elif isinstance(spec, dict):
        unknown = set(spec) - {"start", "stop", "points", "spacing"}
        if unknown:
            raise ValueError(f"unknown grid keys {sorted(unknown)}")
        if not (_is_number(spec.get("start")) and _is_number(spec.get("stop"))):
            raise ValueError("grid start/stop must be finite numbers")
        points = spec.get("points")
        if not _is_index(points):
            raise ValueError("grid points must be an integer")
        spacing = spec.get("spacing", "log")
        if spacing not in ("log", "linear"):
            raise ValueError("grid spacing must be 'log' or 'linear'")
        build = log_grid if spacing == "log" else linear_grid
        values = build(float(spec["start"]), float(spec["stop"]), points)
    else:
        raise ValueError("grid must be an array or a start/stop/points object")
    return values


def _check_pool(defn, where: str, problems: list[str]):
    """Shape checks for one pool definition, then the library's verdict on
    its values by building it; returns (id, protocol, state) with None for
    whatever failed."""
    if not isinstance(defn, dict):
        problems.append(f"{where}: pool definition must be an object")
        return None, None, None
    pid = defn.get("id")
    if not (isinstance(pid, str) and _ID_PATTERN.match(pid)):
        problems.append(f"{where}: pool id must match [A-Za-z0-9_-]+, got {pid!r}")
        pid = None
    protocol = defn.get("protocol")
    if protocol not in _PROTOCOLS:
        problems.append(
            f"{where}: unknown protocol {protocol!r} (expected one of {', '.join(_PROTOCOLS)})"
        )
        return pid, None, None
    before = len(problems)
    unknown = set(defn) - _POOL_KEYS[protocol]
    if unknown:
        problems.append(f"{where}: unknown keys for {protocol}: {sorted(unknown)}")
    for key in sorted(_POOL_KEYS[protocol] - {"id", "protocol"}):
        if key == "targets" and key not in defn:
            continue
        value = defn.get(key)
        if key in ("amplification", "oracle_price"):
            if not _is_number(value):
                problems.append(f"{where}: {key} must be a finite number")
        elif not (isinstance(value, list) and all(_is_number(v) for v in value)):
            problems.append(f"{where}: {key} must be a list of finite numbers")
    pair = _PAIRS.get(protocol)
    # dodo targets default to the reserves
    if len(problems) == before and pair and len(defn.get(pair, defn["reserves"])) != 2:
        problems.append(f"{where}: {protocol} {pair} must have exactly two entries")
    if len(problems) > before:
        return pid, protocol, None
    try:
        return pid, protocol, _build_pool(defn)
    except _DOMAIN_ERRORS as exc:
        problems.append(f"{where}: {exc}")
        return pid, protocol, None


def _build_pool(defn) -> PoolState:
    """Construct the PoolState for a shape-checked definition; the factories
    reject values outside their domain."""
    protocol = defn["protocol"]
    reserves = [float(r) for r in defn["reserves"]]
    if protocol == "uniswap":
        return uniswap_pool(reserves[0], reserves[1])
    if protocol == "sushiswap":
        return sushiswap_pool(reserves[0], reserves[1])
    if protocol == "balancer":
        return weighted_pool(reserves, [float(w) for w in defn["weights"]])
    if protocol == "bancor":
        return bancor_pool(reserves, [float(w) for w in defn["weights"]])
    if protocol == "curve":
        return stableswap_pool(reserves, float(defn["amplification"]))
    targets = defn.get("targets", reserves)
    return pmm_pool(
        float(targets[0]),
        float(targets[1]),
        float(defn["oracle_price"]),
        float(defn["amplification"]),
        reserves=reserves,
    )


def _compile(data):
    """(problems, pools, steps) of a parsed scenario document; pools and
    steps are complete only when there are no problems. pools maps each pool
    id to (protocol, state), the states the checks built. steps holds one
    step per action, led by its name: (name, pid, i, o, amount) for a swap,
    (name, pid, fraction) for add_liquidity, (name, kind, pids, i, o, grid or
    None) for a series, where o is a divergence series' appreciating asset."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["scenario root must be a JSON object"], {}, []
    unknown = set(data) - {"output", "pools", "actions"}
    if unknown:
        problems.append(f"unknown top-level keys: {sorted(unknown)}")
    output = data.get("output", {})
    if not isinstance(output, dict):
        problems.append("output must be an object")
    else:
        bad = set(output) - {"stem", "directory"}
        if bad:
            problems.append(f"output: unknown keys {sorted(bad)}")
        stem = output.get("stem")
        if stem is not None and not (isinstance(stem, str) and _ID_PATTERN.match(stem)):
            problems.append(f"output: stem must match [A-Za-z0-9_-]+, got {stem!r}")
        directory = output.get("directory")
        if directory is not None and not isinstance(directory, str):
            problems.append("output: directory must be a string")

    pools = data.get("pools")
    # pool id -> (protocol, state, or None when the pool failed its checks)
    built: dict[str, tuple[str, PoolState | None]] = {}
    if not isinstance(pools, list):
        problems.append("pools must be an array")
        pools = []
    for k, defn in enumerate(pools):
        where = f"pools[{k}]"
        pid, protocol, state = _check_pool(defn, where, problems)
        if pid is not None:
            if pid in built:
                problems.append(f"{where}: duplicate pool id {pid!r}")
            elif protocol is not None:
                built[pid] = (protocol, state)

    actions = data.get("actions")
    if not isinstance(actions, list):
        problems.append("actions must be an array")
        actions = []
    steps: list[tuple] = []
    for k, act in enumerate(actions):
        where = f"actions[{k}]"
        if not isinstance(act, dict):
            problems.append(f"{where}: action must be an object")
            continue
        name = act.get("action")
        if not (isinstance(name, str) and name in _ACTION_KEYS):
            problems.append(
                f"{where}: unknown action {name!r} (expected one of {', '.join(_ACTION_KEYS)})"
            )
            continue
        before = len(problems)
        unknown = set(act) - _ACTION_KEYS[name]
        if unknown:
            problems.append(f"{where}: unknown keys for {name}: {sorted(unknown)}")
        if name == "compare":
            pids = act.get("pools")
            if not isinstance(pids, list):
                problems.append(f"{where}: pools must be an array of pool ids")
                pids = []
            if len(set(map(str, pids))) != len(pids):
                problems.append(f"{where}: duplicate pool ids in compare")
            kind = act.get("kind", "slippage")
            if not (isinstance(kind, str) and kind in _KINDS):
                problems.append(
                    f"{where}: unknown kind {kind!r} (expected one of {', '.join(_KINDS)})"
                )
                continue
            kind = _KINDS[kind]
        else:
            pids = [act.get("pool")]
            kind = _SERIES_ACTIONS.get(name)
        known = [pid for pid in pids if isinstance(pid, str) and pid in built]
        for pid in pids:
            if pid not in known:
                problems.append(f"{where}: references undefined pool {pid!r}")
        if name == "add_liquidity":
            fraction = act.get("fraction")
            try:
                if not _is_number(fraction):
                    raise ValueError("fraction must be a finite number")
                quote.check_fraction(fraction)
            except _DOMAIN_ERRORS as exc:
                problems.append(f"{where}: {exc}")
            if len(problems) == before:
                steps.append((name, pids[0], float(fraction)))
            continue
        keys = ("asset",) if name == "divergence_curve" else ("input_asset", "output_asset")
        for key in keys:
            if not _is_index(act.get(key, 0)):
                problems.append(f"{where}: {key} must be an integer")
        if name == "swap" and not _is_number(act.get("amount")):
            problems.append(f"{where}: amount must be a finite number")
        grid = None
        if kind is not None:
            try:
                grid = _resolve_grid(act.get("grid"))
            except _DOMAIN_ERRORS as exc:
                problems.append(f"{where}: {exc}")
        if len(problems) > before:
            continue
        # o is the appreciating asset of a divergence_curve
        i, o = act.get("input_asset", 0), act.get(keys[-1], 1)
        if name == "swap":
            steps.append((name, pids[0], i, o, float(act["amount"])))
        else:
            steps.append((name, kind, tuple(pids), i, o, grid))
        # the library judges a well-formed action without evaluating a point:
        # the grid's domain and order, then on each built pool a swap's asset
        # pair by the swap kernel, a series' sweep on an empty grid, and the
        # default grid of a cross-section without one
        if grid is not None:
            try:
                check_grid_domain(kind, grid)
            except ValueError as exc:
                problems.append(f"{where}: {exc}")
        for pid in known:
            protocol, state = built[pid]
            if state is None:
                continue
            try:
                if kind is None:
                    swap_kernel(state, i, o)
                else:
                    _sweep(kind, state, i, o, (), pid, protocol)
                    if grid is None and kind is SeriesKind.CONSERVATION_CROSS_SECTION:
                        default_cross_section_grid(state.reserves[i])
            except NotApplicable:
                problems.append(
                    f"{where}: divergence loss does not apply to {protocol} pool {pid!r}"
                )
            except _DOMAIN_ERRORS as exc:
                problems.append(f"{where}: pool {pid!r}: {exc}")
    return problems, built, steps


def validate_scenario_data(data) -> list[str]:
    """Every problem in a parsed scenario document, without executing it:
    shape problems, then each pool's and each action's values as the library
    judges them, prefixed pools[k]: or actions[k]:."""
    return _compile(data)[0]


def validate_scenario(path) -> list[str]:
    """Parse the scenario file and return every validation problem."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return validate_scenario_data(data)


# ---------------------------------------------------------------------------
# execution


def _series_csv(series, x_column: list[str]) -> str:
    """The series as CSV text; x_column holds the grid values already
    formatted, so a compare formats its shared grid once."""
    tail = f"{series.pool_id},{series.protocol},{series.hyperparameters}".replace("%", "%%")
    row = "%s," + FLOAT_FORMAT + "," + tail + "\n"
    # one % for the whole series: the same bytes as one % per row
    values = tuple(chain.from_iterable(zip(x_column, series.y_values)))
    return "grid,value,pool,protocol,hyperparameters\n" + (row * len(series.y_values)) % values


def _series_failures(series, idx: int) -> list[str]:
    return [
        f"action {idx:03d} {series.kind.value} pool={series.pool_id} "
        f"point={k} x={series.x_values[k]!r}: {msg}"
        for k, msg in series.failures
    ]


def _receipt_tail(receipt) -> str:
    """The receipt line's account of the rule checked on a transition."""
    check = receipt.checks[0]
    return (
        f" kind={receipt.kind.value} rule={check.rule}"
        f" deviation={check.deviation!r} tolerance={check.tolerance!r}"
        f" passed={'yes' if check.passed else 'no'}"
    )


def _execute(pools: dict, steps: list):
    """Run the steps _compile built on its pools; returns (receipt lines,
    [(csv name, csv content)], manifest lines, exit code, fatal message or
    None)."""
    states = {pid: state for pid, (_, state) in pools.items()}
    receipts: list[str] = []
    csvs: list[tuple[str, str]] = []
    manifest: list[str] = []
    exit_code = EXIT_OK

    for idx, (name, *args) in enumerate(steps):
        try:
            if name == "swap":
                pid, i, o, amount = args
                states[pid], outcome, receipt = apply_swap(states[pid], i, o, amount)
                receipts.append(
                    f"action {idx:03d} swap pool={pid}"
                    f" input_asset={outcome.input_asset} output_asset={outcome.output_asset}"
                    f" x_in={outcome.amount_in!r} x_out={outcome.amount_out!r}"
                    + _receipt_tail(receipt)
                )
            elif name == "add_liquidity":
                pid, fraction = args
                states[pid], receipt = add_liquidity_proportional(states[pid], fraction)
                receipts.append(
                    f"action {idx:03d} add_liquidity pool={pid} fraction={fraction!r}"
                    + _receipt_tail(receipt)
                )
            else:
                kind, pids, i, o, grid = args
                x_column = None if grid is None else format_floats(grid)
                for pid in pids:
                    series = _sweep(kind, states[pid], i, o, grid, pid, pools[pid][0])
                    if series.failures:
                        manifest.extend(_series_failures(series, idx))
                        exit_code = EXIT_SOLVER
                    # without an explicit grid each pool's series has its own
                    column = x_column or format_floats(series.x_values)
                    csvs.append(
                        (f"a{idx:03d}_{series.kind.value}_{pid}.csv", _series_csv(series, column))
                    )
        except (NoSolution, ConvergenceFailure) as exc:
            manifest.append(f"action {idx:03d} {name}: {exc}")
            return receipts, csvs, manifest, EXIT_SOLVER, None
        except _DOMAIN_ERRORS as exc:
            return receipts, csvs, manifest, EXIT_VALIDATION, f"action {idx:03d} {name}: {exc}"
    return receipts, csvs, manifest, exit_code, None


def _sweep(kind, state, i, o, grid, pool_id, protocol):
    # o is the appreciating asset of a divergence series
    if kind is SeriesKind.DIVERGENCE_LOSS:
        return divergence_curve(state, o, grid, pool_id=pool_id, protocol=protocol)
    sweep = slippage_curve if kind is SeriesKind.SLIPPAGE else conservation_cross_section
    return sweep(state, i, o, grid, pool_id=pool_id, protocol=protocol)


def run_scenario(path, out_dir=None, parallel: int = 1) -> int:
    """Execute a scenario file end to end; returns the process exit code.
    `parallel` must be at least 1; the output is the same at every value."""
    scenario_path = Path(path)
    try:
        with open(scenario_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot parse scenario: {exc}", file=sys.stderr)
        return EXIT_PARSE
    problems, pools, steps = _compile(data)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return EXIT_VALIDATION
    if parallel < 1:
        print("--parallel must be >= 1", file=sys.stderr)
        return EXIT_VALIDATION

    output = data.get("output", {})
    stem = output.get("stem", scenario_path.stem)
    if out_dir is not None:
        directory = Path(out_dir)
    elif "directory" in output:
        directory = Path(output["directory"])
        if not directory.is_absolute():
            directory = scenario_path.parent / directory
    else:
        directory = Path.cwd()

    receipts, csvs, manifest, code, fatal = _execute(pools, steps)

    directory.mkdir(parents=True, exist_ok=True)
    content = "".join(line + "\n" for line in receipts)
    (directory / f"{stem}_receipts.log").write_text(content, encoding="utf-8", newline="\n")
    for name, text in csvs:
        (directory / f"{stem}_{name}").write_text(text, encoding="utf-8", newline="\n")
    if manifest:
        failures = "".join(line + "\n" for line in manifest)
        (directory / f"{stem}_failures.txt").write_text(
            failures, encoding="utf-8", newline="\n"
        )
    if fatal is not None:
        print(fatal, file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ammlab",
        description="Deterministic AMM scenario runner: swaps, liquidity "
        "changes, and comparison curves to CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to the scenario JSON file")
    p_run.add_argument("--out", default=None, help="output directory (overrides the scenario)")
    p_run.add_argument(
        "--parallel",
        type=int,
        default=1,
        help="degree of parallelism, at least 1; grids are evaluated in one "
        "thread and the output is identical at every degree",
    )
    p_validate = sub.add_parser("validate", help="report scenario problems without executing")
    p_validate.add_argument("scenario", help="path to the scenario JSON file")
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)

    if args.command == "version":
        print(f"ammlab {__version__}")
        return EXIT_OK
    if args.command == "validate":
        try:
            problems = validate_scenario(args.scenario)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot parse scenario: {exc}", file=sys.stderr)
            return EXIT_PARSE
        for problem in problems:
            print(problem)
        return EXIT_VALIDATION if problems else EXIT_OK
    return run_scenario(args.scenario, out_dir=args.out, parallel=args.parallel)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

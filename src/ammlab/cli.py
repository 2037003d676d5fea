"""Scenario-driven command line.

``ammlab run <scenario.json>`` reads a declarative scenario — pool
definitions plus an ordered action list — executes it, and writes CSV series
files and a plain-text transition-receipt log. ``ammlab validate`` reports
every scenario problem and writes nothing. It checks the document's shape
(keys, types, list lengths, pool references, grid specs) itself; the library
judges every value. Pools are built, grids and fractions checked, and then
every action runs in order: each swap and liquidity change moves its pool's
state through ``apply_swap`` or ``add_liquidity_proportional``, and each
series is judged on an empty grid, on the state before it. Problems are
prefixed ``pools[k]:`` or ``actions[k]:``. ``run`` makes the same checks,
then executes what they built (the pools, the resolved grids and each
action's arguments with their defaults filled in), so nothing is built
twice. Output is deterministic: identical scenarios produce byte-identical
files. Everything runs in one thread, in grid order; ``--parallel N`` must be
at least 1 and does not change the output (a thread pool cannot speed up this
pure-Python arithmetic, which holds the interpreter lock, so none is started).

Exit codes: 0 success; 1 a scenario or output path that cannot be read or
written; 2 a validation problem, which only validation reports; 3 a point with
no value (a NaN row; the run goes on) or a transition that fails to solve.

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


def _check_action(act, where: str, built: dict):
    """(problems, step) of one action's shape and grid; step is None where
    a problem leaves nothing to replay. A step is (name, kind, pool ids, i,
    o, value): kind is None for a swap or add_liquidity, whose value is its
    amount or fraction; a series' value is its grid, None for the default,
    and a divergence series' o its appreciating asset."""
    if not isinstance(act, dict):
        return [f"{where}: action must be an object"], None
    name = act.get("action")
    if not (isinstance(name, str) and name in _ACTION_KEYS):
        return [
            f"{where}: unknown action {name!r} (expected one of {', '.join(_ACTION_KEYS)})"
        ], None
    problems = []
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
            return problems, None
        kind = _KINDS[kind]
    else:
        pids = [act.get("pool")]
        kind = _SERIES_ACTIONS.get(name)
    for pid in pids:
        if not (isinstance(pid, str) and pid in built):
            problems.append(f"{where}: references undefined pool {pid!r}")
    keys = {"divergence_curve": ("asset",), "add_liquidity": ()}.get(
        name, ("input_asset", "output_asset")
    )
    for key in keys:
        if not _is_index(act.get(key, 0)):
            problems.append(f"{where}: {key} must be an integer")
    arg = "fraction" if name == "add_liquidity" else "amount"
    value = act.get(arg)
    try:
        if kind is not None:
            value = _resolve_grid(act.get("grid"))
        elif not _is_number(value):
            raise ValueError(f"{arg} must be a finite number")
        elif name == "add_liquidity":
            quote.check_fraction(value)
    except _DOMAIN_ERRORS as exc:
        problems.append(f"{where}: {exc}")
    if problems:
        return problems, None
    if kind is None:
        value = float(value)
    elif value is not None:
        # a grid outside its domain or order is a problem, but its pools are
        # still judged
        try:
            check_grid_domain(kind, value)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    o = act.get("asset" if name == "divergence_curve" else "output_asset", 1)
    return problems, (name, kind, tuple(pids), act.get("input_asset", 0), o, value)


def _compile(data):
    """(problems, pools, actions) of a parsed scenario document: the problems
    of its shape outside the actions, the pools as built, and each action's
    (problems, step) from _check_action. pools maps each pool id to
    (protocol, state), the state None where the pool failed its checks."""
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
    return problems, built, [
        _check_action(act, f"actions[{k}]", built) for k, act in enumerate(actions)
    ]


def _act(idx: int, step: tuple, pid: str, state: PoolState, protocol: str, evaluate: bool):
    """What action idx does to the pool pid: (its state after, its record).
    A swap or a liquidity change moves the state and records its receipt
    line. A series keeps the state and records its sweep, over its grid when
    evaluating, else over an empty grid, with a cross-section's default grid
    built from the reserves."""
    name, kind, _, i, o, value = step
    if kind is None:
        if name == "swap":
            state, outcome, receipt = apply_swap(state, i, o, value)
            moved = (
                f"input_asset={outcome.input_asset} output_asset={outcome.output_asset}"
                f" x_in={outcome.amount_in!r} x_out={outcome.amount_out!r}"
            )
        else:
            state, receipt = add_liquidity_proportional(state, value)
            moved = f"fraction={value!r}"
        check = receipt.checks[0]
        return state, (
            f"action {idx:03d} {name} pool={pid} {moved} kind={receipt.kind.value}"
            f" rule={check.rule} deviation={check.deviation!r} tolerance={check.tolerance!r}"
            f" passed={'yes' if check.passed else 'no'}"
        )
    grid = value if evaluate else ()
    if kind is SeriesKind.DIVERGENCE_LOSS:
        return state, divergence_curve(state, o, grid, pool_id=pid, protocol=protocol)
    sweep = slippage_curve if kind is SeriesKind.SLIPPAGE else conservation_cross_section
    series = sweep(state, i, o, grid, pool_id=pid, protocol=protocol)
    if value is None and not evaluate and kind is SeriesKind.CONSERVATION_CROSS_SECTION:
        default_cross_section_grid(state.reserves[i])
    return state, series


def _validate(data):
    """(problems, pools, steps) of a parsed scenario document: the shape
    problems, then the validate pass. It runs each action in order on each
    pool it names, by _act on the state that the earlier actions left, with
    empty grids. A failing transition is a problem and leaves the state as
    it was; a solver failure is not a problem, since run stops there with
    exit 3, and the pool's later actions are not judged, as for a pool that
    failed to build. pools and steps are complete only when there are no
    problems."""
    problems, pools, actions = _compile(data)
    states = {pid: state for pid, (_, state) in pools.items()}
    for k, (found, step) in enumerate(actions):
        problems += found
        if step is None:
            continue
        for pid in step[2]:
            protocol, state = pools[pid][0], states[pid]
            if state is None:
                continue
            try:
                states[pid] = _act(k, step, pid, state, protocol, False)[0]
            except NotApplicable:
                problems.append(
                    f"actions[{k}]: divergence loss does not apply to {protocol} pool {pid!r}"
                )
            except (NoSolution, ConvergenceFailure):
                states[pid] = None
            except _DOMAIN_ERRORS as exc:
                problems.append(f"actions[{k}]: pool {pid!r}: {exc}")
    return problems, pools, [step for _, step in actions]


def validate_scenario_data(data) -> list[str]:
    """Every problem in a parsed scenario document: shape problems, then
    each pool's and each action's values as the library judges them,
    prefixed pools[k]: or actions[k]:. Swaps and liquidity changes are
    replayed in order; no series point is evaluated."""
    return _validate(data)[0]


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


def _execute(pools: dict, steps: list):
    """The evaluating pass: run the validated steps by _act on the pools as
    built; returns (receipt lines, [(csv name, csv content)], manifest lines,
    exit code). Validation replayed each transition, so only a solver failure stops it."""
    states = {pid: state for pid, (_, state) in pools.items()}
    receipts: list[str] = []
    csvs: list[tuple[str, str]] = []
    manifest: list[str] = []
    exit_code = EXIT_OK

    for idx, step in enumerate(steps):
        name, kind, pids, _, _, grid = step
        x_column = None if kind is None or grid is None else format_floats(grid)
        try:
            for pid in pids:
                states[pid], record = _act(idx, step, pid, states[pid], pools[pid][0], True)
                if kind is None:
                    receipts.append(record)
                    continue
                if record.failures:
                    manifest += [
                        f"action {idx:03d} {record.kind.value} pool={pid} "
                        f"point={k} x={record.x_values[k]!r}: {msg}"
                        for k, msg in record.failures
                    ]
                    exit_code = EXIT_SOLVER
                # without an explicit grid each pool's series has its own
                column = x_column or format_floats(record.x_values)
                csvs.append(
                    (f"a{idx:03d}_{record.kind.value}_{pid}.csv", _series_csv(record, column))
                )
        except (NoSolution, ConvergenceFailure) as exc:
            manifest.append(f"action {idx:03d} {name}: {exc}")
            return receipts, csvs, manifest, EXIT_SOLVER
    return receipts, csvs, manifest, exit_code


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
    problems, pools, steps = _validate(data)
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

    try:
        directory.mkdir(parents=True, exist_ok=True)  # before the run: a bad path fails at once
        receipts, csvs, manifest, code = _execute(pools, steps)
        files = [("receipts.log", "".join(line + "\n" for line in receipts)), *csvs]
        if manifest:
            files.append(("failures.txt", "".join(line + "\n" for line in manifest)))
        for name, text in files:
            (directory / f"{stem}_{name}").write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
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
    p_validate = sub.add_parser("validate", help="report scenario problems; writes nothing")
    p_validate.add_argument("scenario", help="path to the scenario JSON file")
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)

    if args.command == "version":
        print(f"ammlab {__version__}")
        return EXIT_OK
    if args.command == "validate":
        try:
            with open(args.scenario, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot parse scenario: {exc}", file=sys.stderr)
            return EXIT_PARSE
        problems = validate_scenario_data(data)
        for problem in problems:
            print(problem)
        return EXIT_VALIDATION if problems else EXIT_OK
    return run_scenario(args.scenario, out_dir=args.out, parallel=args.parallel)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

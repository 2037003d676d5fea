"""Scenario-driven command line.

``ammlab run <scenario.json>`` reads a declarative scenario — pool
definitions plus an ordered action list — executes it, and writes CSV series
files and a plain-text transition-receipt log. ``ammlab validate`` reports
every scenario problem and writes nothing. It checks the document's shape
(keys, types, list lengths, pool references, grid specs) itself; the library
judges every value. Pools are built, and then each action is checked and
run on each pool it names, in order, in one pass: each swap and liquidity
change moves its pool's state through ``apply_swap`` or
``add_liquidity_proportional``, and each series binds its sweep to the state
before it and judges that sweep on an empty grid. Problems are prefixed
``pools[k]:`` or ``actions[k]:``. ``run`` makes the same checks, and their
replay is its only transition pass: it copies the replay's receipt lines and
calls each bound sweep on its grid, so no pool, grid or transition is
computed twice. Output is deterministic: identical scenarios produce
byte-identical files. Everything runs in one thread, in grid order;
``--parallel N`` must be at least 1 and does not change the output (a thread
pool cannot speed up this pure-Python arithmetic, which holds the
interpreter lock, so none is started).
Each series' CSV is written as soon as it is formatted; the receipt log and
any failure manifest follow at the end, so a write error (exit 1) or a bug
mid-run leaves the CSVs written before it and no receipt log.

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
from functools import partial
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
from .errors import AmmError, ConvergenceFailure, DomainError, NoSolution, NotApplicable

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

_ID_PATTERN = re.compile(r"^[A-Za-z0-9_-]+$")
# each series kind by its name in a compare and by its action, in SeriesKind's order
_KINDS = dict(zip(("slippage", "divergence_loss", "cross_section"), SeriesKind))
_SERIES_ACTIONS = dict(zip(("slippage_curve", "divergence_curve", "cross_section"), SeriesKind))
# protocol -> (its keys besides id and protocol, in its factory's argument
# order; the list that its two-asset factory takes as two arguments; the
# factory, which looks the pool builder up in this module at each call)
_PROTOCOLS = {
    "uniswap": (("reserves",), "reserves", lambda r: uniswap_pool(*r)),
    "sushiswap": (("reserves",), "reserves", lambda r: sushiswap_pool(*r)),
    "balancer": (("reserves", "weights"), None, lambda r, w: weighted_pool(r, w)),
    "bancor": (("reserves", "weights"), None, lambda r, w: bancor_pool(r, w)),
    "curve": (("reserves", "amplification"), None, lambda r, a: stableswap_pool(r, a)),
    # targets default to the reserves
    "dodo": (
        ("reserves", "amplification", "oracle_price", "targets"), "targets",
        lambda r, a, p, t=None: pmm_pool(*(t or r), p, a, reserves=r),
    ),
}
_SCALARS = ("amplification", "oracle_price")
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


def _resolve_grid(spec):
    """Turn a grid spec (array or start/stop/points object) into a tuple;
    None when the spec is absent. A bad spec raises DomainError, as the
    library's grid builders do."""
    if spec is None:
        return None
    if isinstance(spec, list):
        if len(spec) == 0:
            raise DomainError("grid array is empty")
        if not all(_is_number(v) for v in spec):
            raise DomainError("grid values must be finite numbers")
        values = tuple(float(v) for v in spec)
    elif isinstance(spec, dict):
        unknown = set(spec) - {"start", "stop", "points", "spacing"}
        if unknown:
            raise DomainError(f"unknown grid keys {sorted(unknown)}")
        if not (_is_number(spec.get("start")) and _is_number(spec.get("stop"))):
            raise DomainError("grid start/stop must be finite numbers")
        points = spec.get("points")
        if not _is_index(points):
            raise DomainError("grid points must be an integer")
        spacing = spec.get("spacing", "log")
        if spacing not in ("log", "linear"):
            raise DomainError("grid spacing must be 'log' or 'linear'")
        build = log_grid if spacing == "log" else linear_grid
        values = build(float(spec["start"]), float(spec["stop"]), points)
    else:
        raise DomainError("grid must be an array or a start/stop/points object")
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
    if not (isinstance(protocol, str) and protocol in _PROTOCOLS):
        problems.append(
            f"{where}: unknown protocol {protocol!r} (expected one of {', '.join(_PROTOCOLS)})"
        )
        return pid, None, None
    keys, pair, build = _PROTOCOLS[protocol]
    before = len(problems)
    unknown = set(defn) - {"id", "protocol", *keys}
    if unknown:
        problems.append(f"{where}: unknown keys for {protocol}: {sorted(unknown)}")
    for key in sorted(keys):
        if key == "targets" and key not in defn:
            continue
        value = defn.get(key)
        if key in _SCALARS:
            if not _is_number(value):
                problems.append(f"{where}: {key} must be a finite number")
        elif not (isinstance(value, list) and all(_is_number(v) for v in value)):
            problems.append(f"{where}: {key} must be a list of finite numbers")
    if len(problems) == before and pair and len(defn.get(pair, defn["reserves"])) != 2:
        problems.append(f"{where}: {protocol} {pair} must have exactly two entries")
    if len(problems) > before:
        return pid, protocol, None
    try:
        # the factories reject values outside their domain
        return pid, protocol, build(*(
            float(defn[key]) if key in _SCALARS else [float(v) for v in defn[key]]
            for key in keys if key in defn
        ))
    except AmmError as exc:
        problems.append(f"{where}: {exc}")
        return pid, protocol, None


def _transition(idx: int, name: str, pid: str, state: PoolState, i, o, value: float):
    """(state after, receipt line) of the swap or liquidity change idx on
    the pool pid."""
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


def _check_action(k: int, act, pools: dict, problems: list[str], entries: list) -> None:
    """Check action k's shape and grid, then replay it on each pool it names,
    in order, on the state the earlier actions left in pools (pool id ->
    (protocol, state), the state None where nothing is left to judge). It
    appends its problems, shape before replay, and one (k, name, grid,
    outcome) entry per pool replayed without one: grid is a series' explicit
    grid, else None, and outcome the receipt line, the solver failure that
    stops run, or the series' sweep bound to the state, assets, pool id and
    protocol, as judged on an empty grid (a cross-section's default grid is
    built too). A failing transition leaves the state; a solver failure
    leaves None, so the pool's later actions are not judged."""
    where = f"actions[{k}]"
    if not isinstance(act, dict):
        problems.append(f"{where}: action must be an object")
        return
    name = act.get("action")
    if not (isinstance(name, str) and name in _ACTION_KEYS):
        problems.append(
            f"{where}: unknown action {name!r} (expected one of {', '.join(_ACTION_KEYS)})"
        )
        return
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
            return
        kind = _KINDS[kind]
    else:
        pids = [act.get("pool")]
        kind = _SERIES_ACTIONS.get(name)
    for pid in pids:
        if not (isinstance(pid, str) and pid in pools):
            problems.append(f"{where}: references undefined pool {pid!r}")
    for key in sorted(key for key in _ACTION_KEYS[name] if key.endswith("asset")):
        if not _is_index(act.get(key, 0)):
            problems.append(f"{where}: {key} must be an integer")
    arg = "fraction" if name == "add_liquidity" else "amount"
    value, grid = act.get(arg), None
    try:
        if kind is not None:
            grid = _resolve_grid(act.get("grid"))
        elif not _is_number(value):
            raise DomainError(f"{arg} must be a finite number")
        elif name == "add_liquidity":
            quote.check_fraction(value)
    except AmmError as exc:
        problems.append(f"{where}: {exc}")
    if len(problems) > before:
        return
    if kind is None:
        value = float(value)
    elif grid is not None:
        # a grid outside its domain or order is a problem, but its pools are
        # still judged
        try:
            check_grid_domain(kind, grid)
        except AmmError as exc:
            problems.append(f"{where}: {exc}")
    i = act.get("input_asset", 0)
    o = act.get("asset" if name == "divergence_curve" else "output_asset", 1)
    for pid in pids:
        protocol, state = pools[pid]
        if state is None:
            continue
        try:
            if kind is None:
                state, outcome = _transition(k, name, pid, state, i, o, value)
            else:
                # each sweep is looked up by its name in this module here, at
                # each replay, so a wrapper set on that name sees every call
                if kind is SeriesKind.DIVERGENCE_LOSS:
                    sweep, assets = divergence_curve, (o,)
                elif kind is SeriesKind.SLIPPAGE:
                    sweep, assets = slippage_curve, (i, o)
                else:
                    sweep, assets = conservation_cross_section, (i, o)
                outcome = partial(sweep, state, *assets, pool_id=pid, protocol=protocol)
                outcome(())
                if grid is None and kind is SeriesKind.CONSERVATION_CROSS_SECTION:
                    default_cross_section_grid(state.reserves[i])
        except NotApplicable:
            problems.append(f"{where}: divergence loss does not apply to {protocol} pool {pid!r}")
            continue
        except (NoSolution, ConvergenceFailure) as exc:
            state, outcome = None, exc
        except AmmError as exc:
            problems.append(f"{where}: pool {pid!r}: {exc}")
            continue
        pools[pid] = (protocol, state)
        entries.append((k, name, grid, outcome))


def _validate(data):
    """(problems, entries) of a parsed scenario document: the problems of its
    shape outside the actions, each pool's as it is built, then each action's
    from _check_action, whose replay is also run's only transition pass.
    entries holds _check_action's entries in action order; it is complete
    only when there are no problems."""
    if not isinstance(data, dict):
        return ["scenario root must be a JSON object"], []
    problems: list[str] = []
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

    defns = data.get("pools")
    pools: dict[str, tuple[str, PoolState | None]] = {}
    if not isinstance(defns, list):
        problems.append("pools must be an array")
        defns = []
    for k, defn in enumerate(defns):
        where = f"pools[{k}]"
        pid, protocol, state = _check_pool(defn, where, problems)
        if pid is not None:
            if pid in pools:
                problems.append(f"{where}: duplicate pool id {pid!r}")
            elif protocol is not None:
                pools[pid] = (protocol, state)

    actions = data.get("actions")
    if not isinstance(actions, list):
        problems.append("actions must be an array")
        actions = []
    entries: list[tuple] = []
    for k, act in enumerate(actions):
        _check_action(k, act, pools, problems, entries)
    return problems, entries


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


def _execute(entries: list, write):
    """The evaluating pass over validation's entries: it copies each receipt
    line, calls each bound sweep on its grid and hands the series' CSV,
    named by the pool id and kind the series records, to write(csv name,
    content) as soon as it is formatted, and stops at the first solver
    failure; returns (receipt lines, manifest lines, exit code). A series'
    points cannot stop it: a failing point is a NaN row."""
    receipts: list[str] = []
    manifest: list[str] = []
    columns: dict[tuple, list[str]] = {}
    column = last_grid = None
    exit_code = EXIT_OK

    for idx, name, grid, outcome in entries:
        if isinstance(outcome, AmmError):
            manifest.append(f"action {idx:03d} {name}: {outcome}")
            return receipts, manifest, EXIT_SOLVER
        if isinstance(outcome, str):
            receipts.append(outcome)
            continue
        record = outcome(grid)
        kind, pid = record.kind.value, record.pool_id
        if record.failures:
            manifest += [
                f"action {idx:03d} {kind} pool={pid} point={k} x={record.x_values[k]!r}: {msg}"
                for k, msg in record.failures
            ]
            exit_code = EXIT_SOLVER
        if grid is None:
            # a default grid, each pool's own, is formatted once per run
            column = columns.get(record.x_values)
            if column is None:
                column = columns[record.x_values] = format_floats(record.x_values)
        elif grid is not last_grid:
            # an explicit grid once per action, whose pools share it
            column = format_floats(grid)
        last_grid = grid
        write(f"a{idx:03d}_{kind}_{pid}.csv", _series_csv(record, column))
    return receipts, manifest, exit_code


def _load(path, stream) -> tuple:
    """(exit code, document, entries) of a scenario file: EXIT_PARSE where it
    cannot be read as JSON, else _validate's entries, with EXIT_VALIDATION
    where it finds problems, which go to stream, one a line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot parse scenario: {exc}", file=sys.stderr)
        return EXIT_PARSE, None, None
    problems, entries = _validate(data)
    for problem in problems:
        print(problem, file=stream)
    return EXIT_VALIDATION if problems else EXIT_OK, data, entries


def run_scenario(path, out_dir=None, parallel: int = 1) -> int:
    """Execute a scenario file end to end; returns the process exit code.
    `parallel` must be at least 1; the output is the same at every value.
    _execute writes each CSV, then the receipt log and any failure manifest
    follow; an error mid-run leaves the CSVs written before it in place."""
    scenario_path = Path(path)
    code, data, entries = _load(scenario_path, sys.stderr)
    if code:
        return code
    if parallel < 1:
        print("--parallel must be >= 1", file=sys.stderr)
        return EXIT_VALIDATION

    output = data.get("output", {})
    stem = output.get("stem", scenario_path.stem)
    if out_dir is None:
        # an absolute directory, the working one included, replaces the path before it
        out_dir = scenario_path.parent / output.get("directory", Path.cwd())
    directory = Path(out_dir)

    def write(name: str, text: str) -> None:
        (directory / f"{stem}_{name}").write_text(text, encoding="utf-8", newline="\n")

    try:
        directory.mkdir(parents=True, exist_ok=True)  # before the run: a bad path fails at once
        receipts, manifest, code = _execute(entries, write)
        write("receipts.log", "".join(line + "\n" for line in receipts))
        if manifest:
            write("failures.txt", "".join(line + "\n" for line in manifest))
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
        return _load(args.scenario, sys.stdout)[0]
    return run_scenario(args.scenario, out_dir=args.out, parallel=args.parallel)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

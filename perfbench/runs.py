"""`sweep_closed_form` and `divergence_solve`: `ammlab run` on a generated
scenario, called in-process through `cli.main`, repeated at `--parallel 1`
for the timed part, then PAR_RUNS times at `--parallel <threads>`.

Output checks, made after timing: every repeat at both degrees must write
byte-identical files; every receipt line must say `passed=yes`; the NaN rows
of the CSVs must match the failure manifest line for line; and a seeded
sample of CSV rows is recomputed by the other path (the generic numeric
engine for slippage and cross-sections, `generic_divergence_loss` for
divergence loss).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import time
from pathlib import Path

from ammlab import cli, core, numerics

import generate
from stream import build_pool
from measure import Samples, reference_loop, relative_gap

ORACLE_BOUND = 1e-8  # acceptance criterion 3's bound for closed form vs numeric engine
ORACLE_ROWS_PER_FILE = 4
LOOPS_PER_REQUEST = 5
# Runs at --parallel <threads> after timing: they feed the byte-identity
# check and a report line. Their times are not a gated metric: on a shared
# 2-CPU machine the thread fan-out swung by more than 50% between runs.
PAR_RUNS = 2
DEFAULT_POINTS = {"slippage": 50, "divergence_loss": 60, "cross_section": 50}
SERIES_FILE_KIND = {
    "slippage": "slippage",
    "divergence_loss": "divergence_loss",
    "cross_section": "conservation_cross_section",
}
CURVE_ACTIONS = {
    "slippage_curve": "slippage",
    "divergence_curve": "divergence_loss",
    "cross_section": "cross_section",
}
GENERATORS = {
    "sweep_closed_form": generate.sweep_scenario,
    "divergence_solve": generate.divergence_scenario,
}
# One request at one thread plus its reference loops, at the seed commit.
REQUEST_S = {"sweep_closed_form": 0.15, "divergence_solve": 2.0}


class ScenarioRuns:
    """Set-up generates and validates the scenario; each request is one
    `ammlab run` into a fresh output directory."""

    def __init__(self, name: str, seed: int, workdir: Path, threads: int) -> None:
        self.name = name
        self.seed = seed
        self.request_s = REQUEST_S[name]
        self.workdir = workdir
        self.threads = max(1, threads)
        self.data = GENERATORS[name](seed)
        problems = cli.validate_scenario_data(self.data)
        if problems:
            raise RuntimeError(f"generated scenario is invalid: {problems}")
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / f"{name}.json"
        self.path.write_text(json.dumps(self.data), encoding="utf-8")
        self.stem = self.data["output"]["stem"]
        self.series = self._expected_series()
        self.transitions = sum(
            1 for act in self.data["actions"] if act["action"] in ("swap", "add_liquidity")
        )
        self.points = sum(points for _, _, points in self.series)
        self.requests: list[tuple[int, int, dict]] = []  # (parallel, exit code, digests)
        self.reference: dict[str, bytes] | None = None
        self.runs, self.par_runs, self.loop = (
            Samples(f"{name}/{kind}/{seed}") for kind in ("runs", "par", "loop")
        )

    def _expected_series(self) -> list[tuple[str, dict, int]]:
        """(csv file name, action, grid points) for every series the
        scenario asks for."""
        out = []
        for idx, act in enumerate(self.data["actions"]):
            if act["action"] == "compare":
                kind, pids = act.get("kind", "slippage"), act["pools"]
            elif act["action"] in CURVE_ACTIONS:
                kind, pids = CURVE_ACTIONS[act["action"]], [act["pool"]]
            else:
                continue
            grid = act.get("grid")
            points = grid["points"] if isinstance(grid, dict) else (
                len(grid) if grid else DEFAULT_POINTS[kind])
            for pid in pids:
                name = f"{self.stem}_a{idx:03d}_{SERIES_FILE_KIND[kind]}_{pid}.csv"
                out.append((name, dict(act, kind=kind, pool=pid), points))
        return out

    def request(self, parallel: int) -> None:
        """One timed `ammlab run`, recorded under its parallel degree."""
        out = self.workdir / f"out{parallel}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = ["run", str(self.path), "--out", str(out), "--parallel", str(parallel)]
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter_ns()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed request, not a benchmark error
                code = -1
            elapsed = time.perf_counter_ns() - start
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if self.reference is None:
            self.reference = files
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in files.items()}
        self.requests.append((parallel, code, digests))
        (self.runs if parallel == 1 else self.par_runs).add(elapsed)

    def run_requests(self, count: int, deadline: float) -> int:
        """`count` requests at one thread, each preceded by LOOPS_PER_REQUEST
        reference loops, or fewer (at least one) if the `time.perf_counter()`
        deadline passes first; then PAR_RUNS requests at `threads`. Returns
        how many requests ran at one thread."""
        done = 0
        while done < count and not (done and time.perf_counter() >= deadline):
            for _ in range(LOOPS_PER_REQUEST):
                self.loop.add(reference_loop())
            self.request(1)
            done += 1
        for _ in range(PAR_RUNS):
            self.request(self.threads)
        return done

    # output checks -----------------------------------------------------------

    def check(self) -> tuple[int, int, int, list[str]]:
        """(attempted ops, failed ops, failed output checks, messages)."""
        errors: list[str] = []
        per_request = self.points + self.transitions
        attempted = per_request * len(self.requests)
        failed = check_failed = 0
        ref = self.reference or {}
        ref_digests = {k: hashlib.sha256(v).hexdigest() for k, v in ref.items()}
        for parallel, code, digests in self.requests:
            if code not in (cli.EXIT_OK, cli.EXIT_SOLVER):
                failed += per_request
                errors.append(f"run at --parallel {parallel} exited with {code}")
            differing = sorted(k for k in ref_digests.keys() | digests.keys()
                               if ref_digests.get(k) != digests.get(k))
            if differing:
                failed += len(differing)
                check_failed += len(differing)
                errors.append(f"run at --parallel {parallel}: files differ: {differing[:3]}")
        ref_failed, ref_check_failed = self._check_reference(ref, errors)
        failed += ref_failed * len(self.requests)
        check_failed += ref_check_failed
        oracle_checked, oracle_failed = self._check_oracle(ref, errors)
        return attempted + oracle_checked, failed + oracle_failed, check_failed + oracle_failed, errors

    def _rows(self, content: bytes) -> list[tuple[float, float]]:
        lines = content.decode("utf-8").splitlines()[1:]
        return [(float(x), float(y)) for x, y, *_ in (line.split(",") for line in lines)]

    def _check_reference(self, files: dict, errors: list[str]) -> tuple[int, int]:
        """Failed ops in one request's outputs (NaN rows, missing rows,
        receipts that did not pass), and output-check mismatches."""
        failed = check_failed = 0
        nan_rows = 0
        for name, _, points in self.series:
            if name not in files:
                failed += points
                continue
            rows = self._rows(files[name])
            bad = sum(1 for _, y in rows if not math.isfinite(y))
            nan_rows += bad
            failed += bad + max(0, points - len(rows))
        receipts = files.get(f"{self.stem}_receipts.log", b"").decode("utf-8").splitlines()
        passed = sum(1 for line in receipts if line.endswith("passed=yes"))
        failed += self.transitions - passed
        if passed != len(receipts):
            check_failed += len(receipts) - passed
            errors.append(f"{len(receipts) - passed} receipt lines did not pass")
        manifest = files.get(f"{self.stem}_failures.txt", b"").decode("utf-8").splitlines()
        point_lines = sum(1 for line in manifest if " point=" in line)
        if point_lines != nan_rows:
            check_failed += 1
            errors.append(f"failure manifest lists {point_lines} points, CSVs hold {nan_rows} NaN rows")
        return failed, check_failed

    def _check_oracle(self, files: dict, errors: list[str]) -> tuple[int, int]:
        """Recompute a seeded sample of finite CSV rows by the other path."""
        rng = random.Random(f"{self.name}/oracle/{self.seed}")
        pools = {d["id"]: build_pool(d) for d in self.data["pools"]}
        checked = failed = 0
        for name, act, _ in self.series:
            if name not in files:
                continue
            rows = [row for row in self._rows(files[name]) if math.isfinite(row[1])]
            for x, y in rng.sample(rows, min(ORACLE_ROWS_PER_FILE, len(rows))):
                checked += 1
                try:
                    gap = self._oracle_gap(pools[act["pool"]], act, x, y)
                except Exception as exc:
                    gap = math.inf
                    errors.append(f"{name} x={x!r}: oracle raised {type(exc).__name__}: {exc}")
                if not gap <= ORACLE_BOUND:
                    failed += 1
                    errors.append(f"{name} x={x!r}: oracle gap {gap:.3e} > {ORACLE_BOUND:.0e}")
        return checked, failed

    @staticmethod
    def _oracle_gap(state, act: dict, x: float, y: float) -> float:
        """Relative gap between one CSV value and the other path's value.
        Slippage and divergence loss are compared through 1+S and 1+L, the
        ratios that define them, where "relative" is well posed near zero."""
        curve = core.implicit_conservation(state)
        i, o = act.get("input_asset", 0), act.get("output_asset", 1)
        kind = act["kind"]
        if kind == "slippage":
            x_in = x * state.reserves[i]
            x_out = numerics.implicit_swap(curve, state.reserves, state.invariant, i, o, x_in)
            rate = numerics.numeric_spot_rate(curve, state.reserves, state.invariant, i, o)
            return relative_gap(1.0 + y, (x_in / x_out) / rate)
        if kind == "cross_section":
            x_in = x - state.reserves[i]
            x_out = numerics.implicit_swap(curve, state.reserves, state.invariant, i, o, x_in)
            return relative_gap(y, state.reserves[o] - x_out)
        asset = act.get("asset", o)
        report = numerics.generic_divergence_loss(
            curve, state.reserves, state.invariant, asset, x
        )
        return relative_gap(1.0 + y, 1.0 + report.L)

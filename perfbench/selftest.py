"""Self-test of the benchmark at tiny run lengths.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that:
- every workload prints, as its last line, one JSON object whose metrics are
  exactly the end-to-end metrics (--trace 0) or the per-layer metrics
  (--trace 1) that BENCHMARK.json names, each a finite number with its unit;
- attempted and failed, and the count-type per-layer metrics, repeat
  exactly across two runs with the same seed;
- deliberately corrupted outputs make the output checks fail;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from run import is_count  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = ROOT / ".perfbench_work" / "selftest"

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        problems.append(message)


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc, label: str) -> dict | None:
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{label}: last stdout line is not JSON (exit {proc.returncode})")
        return None
    expect(proc.returncode == 0 and result.get("correct") is True,
           f"{label}: exit 0 and correct")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result has exactly the four keys")
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1
           and isinstance(result.get("failed"), int), f"{label}: attempted/failed are counts")
    return result


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared},
           f"{label}: emits exactly the declared metrics")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        expect(got.get("unit") == m["unit"] and isinstance(value, (int, float))
               and math.isfinite(value), f"{label}: {m['name']} has unit {m['unit']}")


def corrupted_outputs_fail() -> None:
    """Corrupt outputs in place and run the real output checks on them."""
    from runs import ScenarioRuns
    from stream import TradeStream

    job = ScenarioRuns("sweep_closed_form", 3, WORK / "corrupt", threads=2)
    job.request(1)
    job.request(2)
    expect(job.check()[2] == 0, "uncorrupted sweep outputs pass the output checks")
    name = next(n for n in job.reference if n.endswith(".csv"))
    pristine = job.reference[name]
    job.reference[name] = pristine.replace(b"0", b"1", 1)
    expect(job.check()[2] > 0, "a corrupted byte fails the byte-identity check")
    lines = pristine.decode().splitlines()
    shifted = [lines[0]] + [
        ",".join([x, repr(float(y) * (1 + 1e-6) + 1e-6), *rest])
        for x, y, *rest in (line.split(",") for line in lines[1:])
    ]
    errors: list[str] = []
    files = dict(job.reference, **{name: ("\n".join(shifted) + "\n").encode()})
    expect(job._check_oracle(files, errors)[1] > 0, "corrupted CSV values fail the oracle check")

    stream = TradeStream(3)
    stream.run_rounds(300)
    expect(stream.check()[2] == 0, "uncorrupted trade_stream outputs pass the output checks")
    trader = next(t for t in stream.traders if t.samples and not t.is_curve)
    state, i, o, x, x_out = trader.samples[0]
    trader.samples[0] = (state, i, o, x, x_out * (1 + 1e-6))
    expect(stream.check()[2] > 0, "a corrupted swap output fails the oracle check")


def bare_directory_fails() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("trade_stream", 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/, the benchmark exits non-zero and prints no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        result = result_of(bench(workload, 0), f"{workload} --trace 0")
        repeat = result_of(bench(workload, 0), f"{workload} --trace 0 (repeat)")
        if result:
            check_metrics(result, SPEC["end_to_end"], f"{workload} --trace 0")
        if result and repeat:
            expect((result["attempted"], result["failed"]) == (repeat["attempted"], repeat["failed"]),
                   f"{workload}: attempted and failed repeat exactly with the same seed")
        first = result_of(bench(workload, 1), f"{workload} --trace 1")
        second = result_of(bench(workload, 1), f"{workload} --trace 1 (repeat)")
        if first and second:
            check_metrics(first, SPEC["per_layer"], f"{workload} --trace 1")
            counts = [k for k in first["metrics"] if is_count(k)]
            same = all(first["metrics"][k]["value"] == second["metrics"][k]["value"]
                       for k in counts)
            expect(same, f"{workload}: {len(counts)} count metrics repeat exactly")
    corrupted_outputs_fail()
    bare_directory_fails()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

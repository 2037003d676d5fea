"""ammlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src and
nowhere else, and every file the run writes goes under ./.perfbench_work.
Workloads, metrics and bounds are declared in BENCHMARK.json; README.md in
this directory explains each one.

--trace 0 measures with tracing off and prints the end-to-end metrics. It
runs a fixed number of requests, the number that takes S seconds at the
seed commit's speed, so two runs with the same seed attempt the same
operations and report the same attempted and failed counts; a run that
takes more than CAP_FACTOR * S seconds stops early and says so. --trace 1 runs a fixed amount of the workload once untraced and
twice traced, and prints the per-layer metrics, the tracing overhead, and
fails if any count differs between the two traced passes. Human-readable
report lines go first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 when every
output check passed, 1 when one failed, and 2 when the benchmark could not
run at all (for example when ./src/ammlab is missing).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from measure import speed_factor

ROOT = Path.cwd()
WORKLOADS = ("trade_stream", "sweep_closed_form", "divergence_solve")
# Set-up is mostly starting an interpreter and importing extension modules
# (numpy alone takes ~0.15 s of ~0.25 s). Neither the CPU reference loop nor
# a numpy-import probe tracked its drift, and scaling by either made the
# figure noisier, so setup_s is the plain median of the probes.
SETUP_PROBES = 9
TRACE_ROUNDS = 1000  # trade_stream rounds (of six steps) in a traced pass
CAP_FACTOR = 3.0  # keeps a much slower program within the run's time limit


def import_package():
    """Import ammlab from ./src only; an installed copy elsewhere does not
    count, because the benchmark measures the checkout it runs in."""
    src = ROOT / "src"
    if not (src / "ammlab" / "__init__.py").is_file():
        fail(f"no ammlab package under {src}")
    sys.path.insert(0, str(src))
    import ammlab

    if Path(ammlab.__file__).resolve().parent != (src / "ammlab").resolve():
        fail(f"ammlab imported from {ammlab.__file__}, not from {src}")
    return ammlab


def fail(message: str):
    """Stop without a result: the benchmark cannot run here."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def prepare(workload: str, seed: int, workdir: Path, threads: int):
    """Everything before the first timed operation: input generation and
    building the pools (trade_stream) or validating the scenario."""
    if workload == "trade_stream":
        from stream import TradeStream

        return TradeStream(seed)
    from runs import ScenarioRuns

    return ScenarioRuns(workload, seed, workdir, threads)


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall time from spawning a fresh interpreter until it reports that its
    set-up is done, for SETUP_PROBES interpreters in turn."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(probe_dir)]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            fail(f"set-up probe failed (exit {code}): {line!r}")
        times.append(elapsed)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def timing_line(name: str, unit: str, scale: float, samples) -> str:
    """Median plus the highest of p99.9/p99/p95/p90/p75 that has at least
    ten samples beyond it, with the sample count."""
    values = samples.values()
    line = f"# {name}: p50={statistics.median(values) / scale:.6g}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            line += f" p{p:g}={percentile(values, p) / scale:.6g}"
            break
    return f"{line} {unit} (n={len(samples)})"


def environment() -> dict:
    import numpy

    src = ROOT / "src"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
    sha = "unknown"
    if (ROOT / ".git").exists():  # git would search parent directories otherwise
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_lines": lines,
        "machine": "no CPU pinning, no cache dropping, no machine settings changed; "
                   "other processes may share the CPUs",
    }


def measure(workload: str, seed: int, seconds: float, workdir: Path, threads: int):
    setup = measure_setup(workload, seed, workdir)
    job = prepare(workload, seed, workdir, threads)
    planned = max(1, round(seconds / job.request_s))
    done = job.run_requests(planned, time.perf_counter() + CAP_FACTOR * seconds)
    attempted, failed, check_failed, errors = job.check()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = speed_factor(job.loop)
    lines = [timing_line("reference loop", "ms", 1e6, job.loop),
             f"# speed factor: {speed:.6g}; the lines below are raw wall times,"
             " the JSON metrics except setup_s are scaled by it",
             f"# requests: {done} of {planned} planned"
             + ("" if done == planned else f" (stopped after {CAP_FACTOR:g} x {seconds:g} s)"),
             f"# setup_s: p50={statistics.median(setup):.6g} s (n={len(setup)})",
             f"# peak_rss_mb: {rss_mb:.6g} MB"]
    if workload == "trade_stream":
        requests = job.requests
        ops = len(job.reads) + len(job.writes)
        lines += [timing_line("quote_us", "us", 1e3, job.reads),
                  timing_line("transition_us", "us", 1e3, job.writes),
                  timing_line("request_ms (50 rounds)", "ms", 1e6, job.requests),
                  f"# stream_ops_per_s: {ops / ((job.reads.total + job.writes.total) / 1e9):.6g} 1/s"]
    else:
        requests = job.runs
        lines += [timing_line("run_s (--parallel 1)", "s", 1e9, requests),
                  timing_line(f"run_par_s (--parallel {threads}, ungated)", "s", 1e9, job.par_runs)]
    lines.append(f"# failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "req_ms.p50": (requests.median() * speed / 1e6, "ms"),
    }
    return attempted, failed, check_failed, errors, lines, metrics


def is_count(metric: str) -> bool:
    """Per-layer metrics that are exact counts and must repeat exactly."""
    return (metric.endswith(".calls") or "evals" in metric
            or metric in ("analysis.points", "analysis.failed_points", "cli.bytes_written"))


def traced(workload: str, seed: int, workdir: Path, threads: int):
    """One untraced and two traced passes over the same fixed work."""
    from tracing import Tracer

    if workload == "trade_stream":
        work = lambda job: job.run_rounds(TRACE_ROUNDS)  # noqa: E731
    else:
        work = lambda job: job.request(1)  # noqa: E731

    def one_pass(tracer):
        job = prepare(workload, seed, workdir, threads)
        start = time.perf_counter()
        with tracer.install() if tracer else contextlib.nullcontext():
            work(job)
        return job, time.perf_counter() - start

    _, plain_s = one_pass(None)
    first, second = Tracer(), Tracer()
    job, traced_s = one_pass(first)
    _, traced2_s = one_pass(second)
    attempted, failed, check_failed, errors = job.check()
    metrics = per_layer(first, job, workload)
    repeat = per_layer(second, job, workload)
    for key in filter(is_count, metrics):
        if metrics[key][0] != repeat[key][0]:
            check_failed += 1
            failed += 1
            errors.append(f"count {key} differs across traced passes: "
                          f"{metrics[key][0]} vs {repeat[key][0]}")
    overhead = min(traced_s, traced2_s) / plain_s - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    first.dump(workdir.parent / f"trace_{workload}_{seed}.json")
    lines = [f"# traced pass: {traced_s:.4g} s and {traced2_s:.4g} s, untraced {plain_s:.4g} s "
             f"(overhead {overhead:.3g})"]
    return attempted, failed, check_failed, errors, lines, metrics


def per_layer(t, job, workload: str) -> dict:
    counts = t.counts
    points = {k: counts[f"analysis.{k}.points"] for k in
              ("slippage_curve", "conservation_cross_section", "divergence_curve")}
    per_point = lambda span, n: (t.spans.get(span, [0, 0, 0])[2] / n / 1e3 if n else 0.0)  # noqa: E731
    rebalance = t.spans.get("numerics.solve_rebalance", [0, 0, 0, 0, 0])
    find_root = t.calls("numerics.find_root")
    run_calls = t.calls("cli.run_scenario")
    written = 0
    if workload != "trade_stream":
        written = sum(p.stat().st_size for p in (job.workdir / "out1").iterdir())
    return {
        "core.apply_swap.self_us": (t.self_us_per_call("core.apply_swap"), "us"),
        "core.add_liquidity_proportional.self_us":
            (t.self_us_per_call("core.add_liquidity_proportional"), "us"),
        "core.PoolState.calls": (t.calls("core.PoolState"), "count"),
        "core.spot_rate.self_us": (t.self_us_per_call("core.spot_rate"), "us"),
        "core.swap_amount.self_us": (t.self_us_per_call("core.swap_amount"), "us"),
        "core.slippage.self_us": (t.self_us_per_call("core.slippage"), "us"),
        "weighted.us_per_call": (t.layer_us_per_entry("weighted"), "us"),
        "pmm.us_per_call": (t.layer_us_per_entry("pmm"), "us"),
        "stableswap.stableswap_swap.us_per_call":
            (t.inclusive_us_per_call("stableswap.stableswap_swap"), "us"),
        "bonding.us_per_call": (t.layer_us_per_entry("bonding"), "us"),
        "stableswap.solve_invariant.calls": (t.calls("stableswap.solve_invariant"), "count"),
        "stableswap.solve_invariant.self_us":
            (t.self_us_per_call("stableswap.solve_invariant"), "us"),
        "numerics.find_root.calls": (find_root, "count"),
        "numerics.find_root.evals_per_call":
            (counts["numerics.find_root.evals"] / find_root if find_root else 0.0, "count"),
        "analysis.slippage_curve.self_us_per_point":
            (per_point("analysis.slippage_curve", points["slippage_curve"]), "us"),
        "analysis.conservation_cross_section.self_us_per_point":
            (per_point("analysis.conservation_cross_section",
                       points["conservation_cross_section"]), "us"),
        "analysis.points": (counts["analysis.points"], "count"),
        "cli.validate_scenario_data.s":
            (t.inclusive_us_per_call("cli.validate_scenario_data") / 1e6, "s"),
        "cli.run_scenario.self_s": (t.self_us_per_call("cli.run_scenario") / 1e6, "s"),
        "cli.bytes_written": (written if run_calls else 0, "B"),
        "numerics.solve_rebalance.calls": (rebalance[0], "count"),
        "numerics.solve_rebalance.self_us":
            (t.self_us_per_call("numerics.solve_rebalance"), "us"),
        "numerics.numeric_spot_rate.calls": (t.calls("numerics.numeric_spot_rate"), "count"),
        "numerics.residual_evals_per_point":
            (counts["numerics.residual_evals"] / points["divergence_curve"]
             if points["divergence_curve"] else 0.0, "count"),
        "numerics.solve_rebalance.solved_frac":
            ((rebalance[0] - rebalance[4]) / rebalance[0] if rebalance[0] else 0.0, "frac"),
        "analysis.failed_points": (counts["analysis.failed_points"], "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help="set up in DIR, print 'ready' and exit (set-up time probe)")
    args = parser.parse_args(argv)

    threads = os.cpu_count() or 1
    import_package()
    if args.setup_only is not None:
        prepare(args.workload, args.seed, Path(args.setup_only), threads)
        print("ready", flush=True)
        return 0

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, workdir, threads)
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, check_failed, errors, lines, metrics = result
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(environment(), sort_keys=True)}")
    for line in lines:
        print(line)
    for message, times in list(Counter(errors).items())[:20]:
        print(f"# error ({times}x): {message}")
    correct = check_failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

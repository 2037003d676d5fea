"""Per-layer tracing from outside the package.

`Tracer.install()` replaces the public module-level names through which one
ammlab layer calls another (for example `ammlab.cli.apply_swap`,
`ammlab.stableswap.find_root`, `ammlab.core.spot_rate`) with wrappers that
record a span per call, and restores the originals on exit. Spans are
aggregated in memory per name (calls, inclusive time, self time, calls
entering from another layer, calls that raised) and written out once, at the
end of the run. Self time is a span's duration minus the time covered by its
child spans. Tracing is single-threaded: the traced run uses one thread.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter

# namespace module -> {attribute: span name}. The span is named after the
# module that defines the function, whichever namespace the call goes through.
_CORE_CALLS = {
    name: f"core.{name}"
    for name in ("spot_rate", "swap_amount", "slippage", "apply_swap",
                 "add_liquidity_proportional", "uniswap_pool", "sushiswap_pool",
                 "weighted_pool", "bancor_pool", "stableswap_pool", "pmm_pool")
}
BOUNDARIES = {
    "ammlab.cli": {
        "run_scenario": "cli.run_scenario",
        "validate_scenario_data": "cli.validate_scenario_data",
        "slippage_curve": "analysis.slippage_curve",
        "divergence_curve": "analysis.divergence_curve",
        "conservation_cross_section": "analysis.conservation_cross_section",
        **{k: v for k, v in _CORE_CALLS.items() if k not in ("spot_rate", "swap_amount", "slippage")},
    },
    "ammlab.analysis": {
        "slippage": "core.slippage",
        "swap_amount": "core.swap_amount",
        "divergence_loss": "analysis.divergence_loss",
        "generic_divergence_loss": "numerics.generic_divergence_loss",
        "implicit_conservation": "core.implicit_conservation",
    },
    "ammlab.core": _CORE_CALLS,
    "ammlab.weighted": {
        name: f"weighted.{name}"
        for name in ("weighted_conservation", "weighted_spot_rate", "weighted_swap",
                     "weighted_slippage", "weighted_divergence_loss",
                     "weighted_rebalanced_reserves")
    },
    "ammlab.stableswap": {
        **{name: f"stableswap.{name}"
           for name in ("solve_invariant", "stableswap_spot_rate", "stableswap_swap",
                        "conservation_residual", "defining_residual", "stableswap_slippage")},
        "find_root": "numerics.find_root",
    },
    "ammlab.pmm": {
        name: f"pmm.{name}"
        for name in ("pmm_spot_rate", "conservation_gap", "conservation_residual",
                     "quadratic_branch_reserve2", "reserve2_given_reserve1", "pmm_swap",
                     "pmm_slippage")
    },
    "ammlab.bonding": {
        name: f"bonding.{name}"
        for name in ("bonding_price", "bonding_reserve_at", "bonding_buy", "bonding_sell")
    },
    "ammlab.numerics": {
        name: f"numerics.{name}"
        for name in ("find_root", "numeric_spot_rate", "implicit_swap", "solve_rebalance",
                     "generic_divergence_loss")
    },
}
_SERIES = ("analysis.slippage_curve", "analysis.divergence_curve",
           "analysis.conservation_cross_section")


class Tracer:
    """Span aggregates plus exact event counts for one traced pass."""

    def __init__(self) -> None:
        # name -> [calls, inclusive ns, self ns, entries from another layer, raised]
        self.spans: dict[str, list[int]] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []

    def _wrap(self, name: str, fn, before=None, after=None):
        stats = self.spans.setdefault(name, [0, 0, 0, 0, 0])
        layer = name.split(".", 1)[0]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(*args)
            frame = [layer, 0]
            entry = not stack or stack[-1][0] != layer
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[4] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                stats[3] += entry
            return result if after is None else after(result)

        return traced

    def _hooks(self, span: str):
        """(before, after) hooks that turn some spans into exact work counts:
        callback evaluations per root solve, grid points and failed points
        per sweep, and conservation-residual evaluations (`Z.evaluate`)."""
        counts = self.counts
        if span == "numerics.find_root":
            def count_callback(f, *rest):
                def counted(x):
                    counts["numerics.find_root.evals"] += 1
                    return f(x)
                return (counted, *rest)
            return count_callback, None
        if span in _SERIES:
            def record(series):
                counts["analysis.points"] += len(series.x_values)
                counts[f"{span}.points"] += len(series.x_values)
                counts["analysis.failed_points"] += len(series.failures)
                return series
            return None, record
        if span == "core.implicit_conservation":
            from ammlab.numerics import ImplicitConservation

            def count_residuals(curve):
                evaluate = curve.evaluate

                def counted(reserves, invariant):
                    counts["numerics.residual_evals"] += 1
                    return evaluate(reserves, invariant)
                return ImplicitConservation(evaluate=counted, n=curve.n)
            return None, count_residuals
        return None, None

    @contextlib.contextmanager
    def install(self):
        """Wrap every boundary name for the duration of the block."""
        patched = []
        try:
            for module_name, names in BOUNDARIES.items():
                module = importlib.import_module(module_name)
                for attr, span in names.items():
                    original = getattr(module, attr)
                    setattr(module, attr, self._wrap(span, original, *self._hooks(span)))
                    patched.append((module, attr, original))
            pool_state = importlib.import_module("ammlab.core").PoolState
            original = pool_state.__post_init__
            pool_state.__post_init__ = self._wrap("core.PoolState", original)
            patched.append((pool_state, "__post_init__", original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # summaries ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def self_us_per_call(self, name: str) -> float:
        calls, _, self_ns, _, _ = self.spans.get(name, [0, 0, 0, 0, 0])
        return self_ns / calls / 1e3 if calls else 0.0

    def inclusive_us_per_call(self, name: str) -> float:
        calls, total_ns, _, _, _ = self.spans.get(name, [0, 0, 0, 0, 0])
        return total_ns / calls / 1e3 if calls else 0.0

    def layer_us_per_entry(self, layer: str) -> float:
        """Self time of all of a layer's spans per call into the layer from
        another layer."""
        self_ns = entries = 0
        for name, (_, _, s, e, _) in self.spans.items():
            if name.split(".", 1)[0] == layer:
                self_ns += s
                entries += e
        return self_ns / entries / 1e3 if entries else 0.0

    def dump(self, path) -> None:
        """Write the aggregated spans and counts as JSON."""
        spans = {
            name: {"calls": c, "inclusive_ns": t, "self_ns": s, "entries": e, "raised": r}
            for name, (c, t, s, e, r) in sorted(self.spans.items()) if c
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(sorted(self.counts.items()))}, fh, indent=1)

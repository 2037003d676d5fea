"""`trade_stream`: one simulated trader driving six pools in a closed loop.

Each step on a pool makes three reads (`spot_rate`, `swap_amount`,
`slippage`; on the bonding curve `bonding_price` and two `bonding_reserve_at`
quotes) and then one write (`apply_swap`, or `bonding_buy`/`bonding_sell`);
every 50th write on a pool is an `add_liquidity_proportional` instead. Trade
sizes are log-uniform over [1e-6, 1) times the input reserve. The trader
picks the direction at random while the pool stays within a factor of
`DRIFT` of its starting composition, and trades back toward it otherwise,
so long runs stay in the same region of the curve.

Functions are looked up on their modules at call time (`core.spot_rate`),
so the traced run sees every call the untraced run makes.
"""
from __future__ import annotations

import math
import time

from ammlab import bonding, core, numerics

import generate
from measure import Samples, reference_loop, relative_gap

DRIFT = 4.0
LIQUIDITY_EVERY = 50
ROUNDS_PER_REQUEST = 50  # ~17 ms: long enough to average the machine's speed swings
REQUEST_S = 0.025  # one request plus its reference loop and bookkeeping, at the seed commit
ORACLE_SAMPLE_RATE = 0.01
ORACLE_SAMPLES_PER_POOL = 50
ORACLE_BOUND = 1e-8  # acceptance criterion 3's bound for closed form vs numeric engine
# implicit_swap locates the post-trade reserve to root_rel_tol of the
# reserve, so it resolves x_out only to about root_rel_tol * r_o / x_out
# relative; trades of 1e-6 of the reserve sit at that floor. Criterion 3
# samples trades of at least 1% of the reserve, where the floor is far
# below 1e-8.
ROOT_RESOLUTION = 4.0 * numerics.DEFAULT_CONFIG.root_rel_tol
BONDING_BOUND = 1e-9


def build_pool(defn: dict):
    """The pool a scenario-format definition describes (plus the `bonding`
    protocol), built through the public factories, as `ammlab run` builds
    them."""
    protocol = defn["protocol"]
    if protocol == "bonding":
        return bonding.bonding_curve(defn["reserve"], defn["supply"], defn["reserve_ratio"])
    reserves = defn["reserves"]
    if protocol in ("uniswap", "sushiswap"):
        return core.uniswap_pool(*reserves)
    if protocol in ("balancer", "bancor"):
        return core.weighted_pool(reserves, defn["weights"])
    if protocol == "curve":
        return core.stableswap_pool(reserves, defn["amplification"])
    targets = defn.get("targets", reserves)
    return core.pmm_pool(*targets, defn["oracle_price"], defn["amplification"], reserves=reserves)


class Trader:
    """The closed-loop trader on one pool: its state, its random draws, and
    the latencies and failures it saw."""

    def __init__(self, seed: int, index: int, defn: dict) -> None:
        self.name = defn["id"]
        self.is_curve = defn["protocol"] == "bonding"
        self.state = build_pool(defn)
        self.start = self.state.supply if self.is_curve else self.state.reserves
        self.rng = generate.trader_rng(seed, index)
        self.sampler = generate.sample_rng(seed, index)
        self.writes = 0
        self.steps = 0
        self.failed = 0
        self.check_failed = 0
        self.errors: list[str] = []
        self.samples: list[tuple] = []  # swaps the output check re-solves

    def _direction(self) -> tuple[int, int]:
        rng = self.rng
        if self.is_curve:
            drift = self.state.supply / self.start
            if drift > DRIFT:
                return 1, 0  # sell
            if drift < 1.0 / DRIFT:
                return 0, 1  # buy
            return (0, 1) if rng.random() < 0.5 else (1, 0)
        moved = [r / r0 for r, r0 in zip(self.state.reserves, self.start)]
        lo = min(range(len(moved)), key=moved.__getitem__)
        hi = max(range(len(moved)), key=moved.__getitem__)
        if moved[hi] / moved[lo] > DRIFT:
            return lo, hi
        i, o = rng.sample(range(len(moved)), 2)
        return i, o

    def step(self) -> tuple[int, int, int, int] | None:
        """One trader step; returns the three read latencies and the write
        latency in ns, or None when an operation raised."""
        clock = time.perf_counter_ns
        i, o = self._direction()
        u = 10.0 ** self.rng.uniform(-6.0, 0.0)
        self.writes += 1
        self.steps += 1
        liquidity = not self.is_curve and self.writes % LIQUIDITY_EVERY == 0
        fraction = 0.0
        if liquidity:
            fraction = generate.log_uniform(self.rng, 1e-3, 0.1)
            supply = self.state.share_supply
            if supply > DRIFT or (supply >= 1.0 / DRIFT and self.rng.random() < 0.5):
                fraction = -fraction / (1.0 + fraction)
        sample = self.sampler.random() < ORACLE_SAMPLE_RATE
        state = self.state
        try:
            if self.is_curve:
                supply = state.supply
                t0 = clock()
                bonding.bonding_price(state)
                t1 = clock()
                bonding.bonding_reserve_at(state, supply * (1.0 + u))
                t2 = clock()
                bonding.bonding_reserve_at(state, supply * (1.0 - u))
                t3 = clock()
                if i == 0:
                    post, _ = bonding.bonding_buy(state, u * state.reserve)
                else:
                    post, _ = bonding.bonding_sell(state, u * supply)
                t4 = clock()
                passed = True
            else:
                x = u * state.reserves[i]
                t0 = clock()
                core.spot_rate(state, i, o)
                t1 = clock()
                core.swap_amount(state, i, o, x)
                t2 = clock()
                core.slippage(state, i, o, x)
                t3 = clock()
                if liquidity:
                    post, receipt = core.add_liquidity_proportional(state, fraction)
                else:
                    post, outcome, receipt = core.apply_swap(state, i, o, x)
                t4 = clock()
                passed = receipt.passed
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{self.name}: {type(exc).__name__}: {exc}")
            return None
        if not passed:
            self.failed += 1
            self.check_failed += 1
            self.errors.append(f"{self.name}: receipt did not pass")
        if sample and len(self.samples) < ORACLE_SAMPLES_PER_POOL:
            if self.is_curve:
                self.samples.append((post,))
            elif not liquidity:
                self.samples.append((state, i, o, x, outcome.amount_out))
        self.state = post
        return t1 - t0, t2 - t1, t3 - t2, t4 - t3

    def check(self) -> tuple[int, int]:
        """Re-solve the sampled swaps with the generic engine; returns
        (checked, failed). On the bonding curve, sampled states are compared
        with the curve's closed form instead. A gap there is the precision
        loss of `bonding_sell` on sells of nearly the whole supply (the new
        reserve is a difference of nearly equal numbers, the bonding form of
        the cancellation defect in ROADMAP item 2), so it counts as a failed
        operation, like a solver failure, not as a failed output check."""
        failed = 0
        for sample in self.samples:
            if self.is_curve:
                (state,) = sample
                gap = relative_gap(state.reserve, bonding.bonding_reserve_at(state, state.supply))
                if not gap <= BONDING_BOUND:
                    self.failed += 1
                    self.errors.append(f"{self.name}: reserve off its curve by {gap:.3e}")
                continue
            state, i, o, x, x_out = sample
            try:
                curve = core.implicit_conservation(state)
                numeric = numerics.implicit_swap(curve, state.reserves, state.invariant, i, o, x)
                floor = ROOT_RESOLUTION * state.reserves[o] / abs(x_out)
                gap, bound = relative_gap(x_out, numeric), max(ORACLE_BOUND, floor)
            except Exception as exc:
                gap, bound = math.inf, 0.0
                self.errors.append(f"{self.name}: oracle raised {type(exc).__name__}: {exc}")
            if not gap <= bound:
                failed += 1
                self.errors.append(f"{self.name}: output check gap {gap:.3e} > {bound:.0e}")
        return len(self.samples), failed


class TradeStream:
    """Set-up builds the six pools and the sample buffers. A request is a
    batch of ROUNDS_PER_REQUEST rounds, a round being one step on each pool
    in turn; its latency is the sum of its calls' latencies."""

    def __init__(self, seed: int) -> None:
        self.traders = [Trader(seed, k, d) for k, d in enumerate(generate.stream_pools(seed))]
        self.request_s = REQUEST_S
        self.reads, self.writes, self.requests, self.loop = (
            Samples(f"trade_stream/{name}/{seed}")
            for name in ("reads", "writes", "requests", "loop")
        )

    def run_rounds(self, rounds: int) -> None:
        """A fixed amount of work, unrecorded (the traced run)."""
        for _ in range(rounds):
            for trader in self.traders:
                trader.step()

    def run_requests(self, count: int, deadline: float) -> int:
        """`count` requests, each followed by one reference loop, or fewer
        if the `time.perf_counter()` deadline passes first; returns how many
        ran."""
        for done in range(count):
            if done and time.perf_counter() >= deadline:
                return done
            busy = 0
            for _ in range(ROUNDS_PER_REQUEST):
                for trader in self.traders:
                    step = trader.step()
                    if step is not None:
                        for read in step[:3]:
                            self.reads.add(read)
                        self.writes.add(step[3])
                        busy += sum(step)
            self.requests.add(busy)
            self.loop.add(reference_loop())
        return count

    def check(self) -> tuple[int, int, int, list[str]]:
        """Output checks after timing: (attempted ops, failed ops incl.
        receipts and exceptions, failed output checks, messages)."""
        attempted = failed = check_failed = 0
        errors: list[str] = []
        for trader in self.traders:
            checked, bad = trader.check()
            attempted += 4 * trader.steps + checked
            failed += trader.failed + bad
            check_failed += trader.check_failed + bad
            errors.extend(trader.errors)
        return attempted, failed, check_failed, errors

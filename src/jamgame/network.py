"""Finite-population analytics and simulation of the shared collision channel.

A round draws one observation per sensor, applies the homogeneous
transmission rule, and resolves the channel: up to `capacity` simultaneous
packets are delivered; more transmissions (intrinsic) or a jam (extrinsic)
produce the collision symbol, after which every estimator falls back to the
collision symbol x_hat1.  Silent sensors on a clean channel are estimated by
x_hat0, delivered ones incur zero error.  The simulator reads the source
only through the deviation X - mean: it draws deviations and solves the
transmit rule on the symbols' deviations, so its costs keep their digits at
any mean; only `simulate_round`'s packet list adds the mean back.

The exact finite-n cost of any rule against any jammer needs only the
rule's window terms and the law of the other n-1 sensors' transmission
count (`jn_analytic`), validated here against the Monte Carlo
estimate and, for growing n, against the infinite-population objective.

Reproducibility: draw (trial, stream) is addressed as position `trial` of a
counter-based substream (one per sensor, one for the jammer), with exactly
one uniform consumed per position and normals obtained by inversion.  Costs
are therefore bit-identical however trials are chunked, and a single round
can be replayed in isolation.  Each span of a run (below) opens one live
generator per stream at its first trial, a replay at its trial, and
streams its trials through them in chunks of `_CHUNK` trials, small enough
that a chunk's arrays stay in cache: each sensor's draws are made, masked
and added into the per-trial transmit count and errors before the next
sensor's, and a replay lists a delivered round's packets by rewinding the
same generators.  The sums over the first n sensors are the same for every
point with the same seed and transmit rule, so `estimate_costs` takes any
points of one source, splits them by rule itself and makes one pass a rule,
each point bit for bit as on its own.  Every rule takes one form, the
points where it switches between silence and transmission: threshold
points share it whatever their jammer and costs, and best-response points
share it when they differ in n or capacity, or in a jammer and costs that
give the same switch points.

Each point reduces its costs in blocks of `_BLOCK` trials aligned at trial
0: a pairwise sum and a two-pass sum of squared deviations a block, combined
at the end by the update of Chan, Golub & LeVeque (1979).  Up to `_BLOCK`
trials an estimate is numpy's `mean` and `std(ddof=1)` bit for bit; above,
the mean and standard error differ from numpy's over all trials in their
last bits only (at most 3.4e-16 relative over every simulate op of the
benchmark's workloads at three seeds), and they are the same for every
chunk size.

A rule's pass cuts its trials at block edges into at most `_SPANS` spans,
each streamed in chunks of `_CHUNK` trials from its own start: two where
the process may run on two CPUs or more, one otherwise, and never more
than its whole blocks.  Each span opens its own generators at its first
trial; the first runs on the calling thread, each other one on a pool
thread, made on first use.  Philox and the numpy ufuncs release the GIL,
so the spans draw at the same time.  Each span adds its own blocks of each
point's partials, and the blocks are combined in order, so every entry is
the same for any span count.  The cap is measured: on a two-CPU host two
spans took a sweep's simulate op from about 73 to 48-55 ms, and a third
gained nothing.  So memory is a few arrays of chunk length per span
whatever the trial count and n are, plus a live generator (about 1 KB) per
stream and span and 16 bytes per block of each point.
"""

from __future__ import annotations

import contextvars
import copy
import functools
import itertools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .gaussian import ScalarGaussian, _count, philox_rng
from .proactive import (
    _FAILURES,
    GameCosts,
    ReprSymbols,
    _check_nonnegative,
    _entry,
    _kappa,
    _raised,
    _rule_window,
    _threshold_cost,
    _threshold_rule,
    _window,
)
from .reactive import ReactivePolicy, _region_edges

_MIN_UNIFORM = np.float64(2.0**-54)
# Trials a chunk streams: its dozen or so arrays of chunk length fit in cache.
_CHUNK = 16_384
# Trials a block of the reduction sums; a divisor of _CHUNK, so chunks cut no
# block.
_BLOCK = 4096
# Spans a group's trials are cut into, one thread each: two where the process
# may run on two CPUs or more, one where it may run on one.
_SPANS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)


@dataclass(frozen=True)
class NetworkConfig:
    """Population size and channel capacity; capacity = n only for n = 1."""

    n: int
    capacity: int

    def __post_init__(self):
        _count("n", self.n, 1)
        _count("capacity", self.capacity)
        if not (0 < self.capacity <= self.n):
            raise ValueError(
                f"capacity must lie in (0, {self.n}], got {self.capacity}"
            )
        if self.n > 1 and self.capacity >= self.n:
            raise ValueError("capacity must be strictly below n for n > 1")

    @classmethod
    def from_kappa(cls, n: int, kappa_bar: float) -> "NetworkConfig":
        """Capacity ceil(kappa_bar * n), n checked first, at least 1 and, for
        n > 1, at most n - 1: fixed rounding for reproducibility."""
        _count("n", n, 1)
        kappa = max(1, math.ceil(_kappa(kappa_bar) * n))
        return cls(n, min(kappa, n - 1) if n > 1 else kappa)


@dataclass(frozen=True)
class ChannelOutcome:
    """One round's channel resolution with collision provenance."""

    kind: str  # "idle" | "delivered" | "collision"
    delivered: tuple[tuple[int, float], ...]
    intrinsic: bool
    extrinsic: bool


@dataclass(frozen=True)
class EmpiricalEstimate:
    mean: float
    std_err: float
    trials: int

    def __post_init__(self):
        _count("trials", self.trials, 2)


@dataclass(frozen=True, eq=False)
class RoundPolicies:
    """Homogeneous per-round strategies: one jammer, channel-blind with
    probability phi when alpha == beta == phi and channel-sensing otherwise,
    and one transmission rule, a threshold on the squared deviation from
    x_hat0 or, when `threshold` is None, the coordinator's best response to
    the jammer (`transmit_region`).  Either rule is used in one form, the
    points where it switches between silence and transmission (`_rule`)."""

    symbols: ReprSymbols
    jammer: ReactivePolicy
    threshold: float | None = None

    def __post_init__(self):
        if self.threshold is not None:
            _check_nonnegative(self.threshold, "threshold")


def binomial_cdf(n: int, kappa: int, p: float) -> float:
    """P(Bin(n, p) <= kappa) = I_{1-p}(n - kappa, kappa + 1), the
    regularized incomplete beta (Abramowitz & Stegun 26.5.24), read as
    1 - I_p(kappa + 1, n - kappa) where 1 - p rounds, and 1 at kappa = n.
    n and kappa must be integers (Python or numpy, not bool)."""
    _count("n", n)
    _count("kappa", kappa)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0 <= kappa <= n:
        raise ValueError(f"kappa must lie in [0, {n}], got {kappa}")
    if kappa == n:
        return 1.0
    if 1.0 - (1.0 - p) != p:
        return float(special.betaincc(kappa + 1, n - kappa, p))
    return float(special.betainc(n - kappa, kappa + 1, 1.0 - p))


def jn_analytic(
    source: ScalarGaussian,
    costs: GameCosts,
    config: NetworkConfig,
    policies: RoundPolicies,
) -> float:
    """Exact per-sensor cost of any round policy (`RoundPolicies`) at any n.

    A tagged sensor's draw is independent of the others' transmit count
    K ~ Bin(n - 1, p).  A silent sensor's channel is free of intrinsic
    collisions with F = P(K <= capacity), a transmitting one's packet fits
    with F- = P(K <= capacity - 1), and the others are all silent with
    e = (1 - p)^(n-1).  A jammer that jams an idle channel with alpha and an
    occupied one with beta costs what a blind one at beta costs
    (`_threshold_cost`) plus (beta - alpha) (e (err0_silent - err1_silent)
    + d (1 - p)^n), a term that is zero at alpha == beta.
    """
    alpha, beta = policies.jammer.alpha, policies.jammer.beta
    window = _rule_window(source, *_rule(source, costs, policies))
    p, err0_silent, err1_silent, _ = window
    f_cap, f_cap_minus = _capacity_cdfs(config.n, config.capacity, p)
    e = (1.0 - p) ** (config.n - 1)
    sensing = e * (err0_silent - err1_silent) + costs.d * e * (1.0 - p)
    blind = _threshold_cost(costs, beta, window, f_cap, f_cap_minus)
    return blind + (beta - alpha) * sensing


def _capacity_cdfs(n: int, capacity: int, p: float) -> tuple[float, float]:
    """`jn_analytic`'s (F, F-) for K ~ Bin(n - 1, p), both 1 at n = 1."""
    f_cap = binomial_cdf(n - 1, min(capacity, n - 1), p)
    return f_cap, binomial_cdf(n - 1, capacity - 1, p)


def _rule(source: ScalarGaussian, costs: GameCosts, policies: RoundPolicies):
    """A point's transmit rule as (y0, y1, edges, first): the symbols'
    deviations from the mean and, in the deviation, the points where the
    rule switches, ascending, with whether it transmits left of the first
    (`transmit_region`, or `_threshold_rule` for a threshold)."""
    if policies.threshold is not None:
        return _threshold_rule(source, policies.symbols, policies.threshold)
    y0, y1 = (x - source.mean for x in policies.symbols.scalars())
    alpha, beta = policies.jammer.alpha, policies.jammer.beta
    return y0, y1, *_region_edges(alpha, beta, y0, y1, costs.c, costs.d)


def _stream(seed: int, stream: int, start: int) -> np.random.Generator:
    """A live generator of a substream, at position `start`.

    One double is consumed per position.  Philox advances in counter blocks
    of four 64-bit words (four doubles), so position `start` is reached by
    skipping start // 4 blocks and discarding start % 4 leading draws, and
    each later draw continues from where the last one ended; any chunking
    then reproduces the same values bit for bit.
    """
    gen = philox_rng(seed, stream)
    block, lead = divmod(int(start), 4)
    if block:
        gen.bit_generator.advance(block)
    if lead:
        gen.random(lead)
    return gen


def _draw(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """The next `out.size` uniforms of a live stream, written into `out`."""
    gen.random(out=out)
    return np.maximum(out, _MIN_UNIFORM, out=out)


def _transmits(y, edges, first: bool):
    """Whether the rule cut at `edges` (at most two) transmits at each
    deviation y: on every other open segment of the line, the first iff
    `first`, so a draw on an edge stays silent."""
    if not edges:
        return np.full(y.shape, first)
    if len(edges) == 1:
        return y < edges[0] if first else y > edges[0]
    lo, hi = edges
    return (y < lo) | (y > hi) if first else (y > lo) & (y < hi)


def _sensor_draws(source: ScalarGaussian, rule, u: np.ndarray, sq0=None):
    """A sensor's deviations X - mean from the uniforms `u` of its stream
    (overwritten), their squared distances to y0 = x_hat0 - mean (into
    `sq0` if given), and whether each is transmitted by `rule` (`_rule`)."""
    y0, _, edges, first = rule
    y = special.ndtri(u, out=u)
    y *= source.std
    sq0 = np.subtract(y, y0, out=sq0)
    sq0 *= sq0
    return y, sq0, _transmits(y, edges, first)


def _trial_costs(source: ScalarGaussian, rule, points, streams, count: int):
    """Per-trial costs and channel state of each point of a group, for the
    next `count` trials of `streams`: yields (index, cost, p_count, jam,
    intrinsic) per point for each chunk of at most `_CHUNK` trials, the
    chunks in order and a chunk's points in ascending n.

    `points` holds (costs, config, policies) triples whose transmit rule
    (`_rule`) is `rule`, made by the caller, and `streams` the caller's live
    generators (`_stream`) of streams 0 ... max n, all at the same position,
    which every chunk continues.  Sensors 0 ... max n - 1 stream once per
    chunk, one at a time, into arrays of chunk length: the transmit count,
    the silent error against x_hat0 (zero for a transmitting sensor) and the
    total error against x_hat1, which every sensor pays on a collision.  A
    point reads these running sums once its own n sensors are in, so its
    costs are those of its own run bit for bit.  The jammer stream n is
    drawn once for every point at n, and is sensor n's stream too, so a
    larger n reuses it.  A round's cost is its lost cost (total + c
    p_count) / n where it collides or is jammed, its clean cost (silent + c
    p_count) / n otherwise, less d where it is jammed.  Memory is a few
    arrays of chunk length whatever n and `count` are.  `p_count` is the
    running count: it changes when the generator resumes.
    """
    _, y1, _, _ = rule
    order = sorted(range(len(points)), key=lambda i: points[i][1].n)
    by_n = [(n, list(at_n))
            for n, at_n in itertools.groupby(order, key=lambda i: points[i][1].n)]
    # draws, jammer draws, squares and two sums
    buffers = np.empty((5, min(_CHUNK, count)))
    counts = np.empty(min(_CHUNK, count), dtype=np.int64)
    for at in range(0, count, _CHUNK):
        size = min(_CHUNK, count - at)
        u, w, sq, silent, total = buffers[:, :size]
        buffers[3:, :size] = 0.0
        p_count = counts[:size]
        p_count[:] = 0
        drawn = 0
        for n, at_n in by_n:
            for s in range(drawn, n):
                # sensor s = drawn > 0 reads the uniforms its stream drew
                # as the last jammer
                y = w if s == drawn > 0 else _draw(streams[s], u)
                y, sq0, transmit = _sensor_draws(source, rule, y, sq)
                p_count += transmit
                sq0 *= np.logical_not(transmit, out=transmit)
                silent += sq0
                y -= y1
                y *= y
                total += y
            drawn = n
            _draw(streams[n], w)
            occupied = p_count > 0
            costs_at_n = {}
            for i in at_n:
                costs, config, policies = points[i]
                # an occupied channel is jammed with probability beta, an idle one alpha
                alpha, beta = policies.jammer.alpha, policies.jammer.beta
                jam = w < beta
                if alpha != beta:
                    jam &= occupied
                    jam |= (w < alpha) & ~occupied
                intrinsic = p_count > config.capacity
                if costs.c not in costs_at_n:
                    # the first c at this n overwrites the spent draws and squares
                    lost, paid = np.empty((2, size)) if costs_at_n else (u, sq)
                    np.multiply(costs.c, p_count, out=paid)
                    np.add(total, paid, out=lost)
                    lost /= n
                    paid += silent
                    paid /= n
                    costs_at_n[costs.c] = lost, paid
                lost, clean = costs_at_n[costs.c]
                cost = np.where(intrinsic, lost, clean)
                np.subtract(lost, costs.d, out=cost, where=jam)
                yield i, cost, p_count, jam, intrinsic
                del cost  # so the next point's is the chunk's only cost array


def simulate_round(
    source: ScalarGaussian,
    costs: GameCosts,
    config: NetworkConfig,
    policies: RoundPolicies,
    seed: int,
    trial: int = 0,
) -> tuple[float, ChannelOutcome]:
    """Replay a single round of the addressed trial stream.

    The cost and channel state come from the batch kernel with one point and
    one trial, on the n + 1 streams opened here at `trial`; a delivered
    round rewinds the sensor streams to `trial` to list the packets.  Both
    read the one transmit rule (`_rule`) made here.
    """
    _count("trial", trial)
    rule = _rule(source, costs, policies)
    streams = [_stream(seed, s, trial) for s in range(config.n + 1)]
    at_trial = [gen.bit_generator.state for gen in streams[:-1]]
    ((_, cost, p_count, jam, intrinsic),) = _trial_costs(
        source, rule, [(costs, config, policies)], streams, 1
    )
    p = int(p_count[0])
    jammed = bool(jam[0])
    if intrinsic[0] or jammed:
        outcome = ChannelOutcome("collision", (), bool(intrinsic[0]), jammed)
    elif p == 0:
        outcome = ChannelOutcome("idle", (), False, False)
    else:
        packets = []
        for s, (gen, state) in enumerate(zip(streams, at_trial)):
            gen.bit_generator.state = state
            y, _, transmit = _sensor_draws(source, rule, _draw(gen, np.empty(1)))
            if transmit[0]:
                packets.append((s, source.mean + float(y[0])))
        outcome = ChannelOutcome("delivered", tuple(packets), False, False)
    listed = p if outcome.kind == "delivered" else 0
    if len(outcome.delivered) != listed or (
        (outcome.kind == "collision") != (p > config.capacity or jammed)
    ):
        raise RuntimeError(f"inconsistent channel outcome {outcome} for p = {p}")
    return float(cost[0]), outcome


class _Moments:
    """One point's mean and standard error over `trials` per-trial costs
    that arrive chunk by chunk, the same for every chunk size.

    One loop gives each `_BLOCK`-trial block, aligned at trial 0, its
    pairwise sum (`np.add.reduce`) and its two-pass M2, the sum of squared
    deviations from its own mean: in place for a block inside the incoming
    chunk, and from the stage for one that a chunk edge cuts.
    `estimate` combines the blocks by the update of Chan, Golub & LeVeque
    (1979), M2 = sum M2_b + sum len_b (mean_b - mean)^2, so one block is
    numpy's `mean` and `std(ddof=1)` bit for bit.  The partials, 16 bytes a
    block, are allocated here, before any draw, so a trial count they
    cannot hold fails up front.
    """

    def __init__(self, trials: int):
        blocks = -(-trials // _BLOCK)
        self.sums, self.m2s = np.empty(blocks), np.empty(blocks)
        self.trials, self.seen, self.stage = trials, 0, None

    def at(self, start: int) -> "_Moments":
        """A view that shares these partials and takes costs from trial
        `start`, a block edge, on: each span of trials adds through its own
        view, and `estimate` combines every span's blocks in order."""
        view = copy.copy(self)
        view.seen, view.stage = start, None
        return view

    def add(self, x: np.ndarray) -> None:
        """Reduce the blocks that the next `x.size` costs make whole, and
        stage the costs of a block that `x` ends inside."""
        while x.size:
            b, lead = divmod(self.seen, _BLOCK)
            size = min(_BLOCK, self.trials - b * _BLOCK)
            block, x = x[:size - lead], x[size - lead:]
            self.seen += block.size
            if block.size < size:
                if self.stage is None:
                    self.stage = np.empty(_BLOCK)
                self.stage[lead:lead + block.size] = block
                if lead + block.size < size:
                    return
                block = self.stage[:size]
            self.sums[b] = total = np.add.reduce(block)
            dev = block - total / size
            dev *= dev
            self.m2s[b] = np.add.reduce(dev)

    def estimate(self) -> EmpiricalEstimate:
        n = self.trials
        mean = np.add.reduce(self.sums) / n
        lengths = np.full(self.sums.size, float(_BLOCK))
        lengths[-1] = n - _BLOCK * (self.sums.size - 1)
        between = self.sums / lengths - mean
        between *= between
        m2 = np.add.reduce(self.m2s) + np.add.reduce(lengths * between)
        return EmpiricalEstimate(
            float(mean), math.sqrt(m2 / (n - 1)) / math.sqrt(n), n
        )


def _spans(trials: int) -> list[int]:
    """The first trials of the spans a group's trials run in: at most
    `_SPANS`, cut at block edges, each with a whole block or more."""
    blocks = trials // _BLOCK
    spans = max(1, min(_SPANS, blocks))
    return [_BLOCK * (blocks * k // spans) for k in range(spans)]


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The threads that run every span after a group's first, made on first
    use, so a run that draws no second span starts none."""
    return ThreadPoolExecutor(_SPANS - 1, thread_name_prefix="jamgame-span")


def _run_spans(source: ScalarGaussian, rule, group, moments, trials: int, seed: int):
    """Add every per-trial cost of `group` (`_trial_costs`) to its
    `moments`, span by span (`_spans`): each span opens its own streams 0
    ... max n at its first trial (`_stream`) and adds through its own views
    of the partials (`_Moments.at`), the first on this thread and each other
    one on `_pool` in a copy of this thread's context, so numpy's error
    state holds there too.  A span that raises stops the spans after it;
    once every span has stopped, the first error in trial order is raised,
    the one a single pass raises."""
    starts = _spans(trials)
    ends = [*starts[1:], trials]
    last = max(config.n for _, config, _ in group)
    raised = [False] * len(starts)  # each written by its own span only

    def run(k):
        try:
            streams = [_stream(seed, s, starts[k]) for s in range(last + 1)]
            span = [m.at(starts[k]) for m in moments]
            kernel = _trial_costs(source, rule, group, streams, ends[k] - starts[k])
            for j, cost, *_ in kernel:
                if any(raised[:k]):
                    return
                span[j].add(cost)
                del cost  # so the next point's is the span's only cost array
        except BaseException:
            raised[k] = True
            raise

    tasks = []
    try:
        for k in range(1, len(starts)):
            tasks.append(_pool().submit(contextvars.copy_context().run, run, k))
        run(0)
    finally:
        errors = [task.exception() for task in tasks]
    for error in errors:
        if error is not None:
            raise error


def estimate_costs(source: ScalarGaussian, points, trials: int, seed: int) -> list:
    """Average each point's per-round cost over `trials` addressed rounds.

    `points` are any (costs, config, policies) triples of one source, in any
    order, and the entries come in their order: each point's estimate, bit
    for bit its own `estimate_cost`'s for any chunk size and span count, or
    the exception that call raises.  Points with the same transmit rule
    (`_rule`) are one pass of the kernel, and a pass that raises, or a rule
    that cannot be formed, fails its own points alone.  A pass runs its
    trials in up to `_SPANS` block-aligned spans on as many threads, each
    of which opens every stream of the pass once, at its first trial
    (`_run_spans`).  Each point reduces its costs chunk by chunk
    (`_Moments`), so no array of trial length is held.
    """
    _count("trials", trials, 2)
    entries = [_Moments(trials) for _ in points]
    by_rule = {}
    for i, (costs, _, policies) in enumerate(points):
        # a rule that cannot be formed is its exception, a group of its own
        by_rule.setdefault(_entry(_rule, source, costs, policies), []).append(i)
    for rule, at in by_rule.items():
        try:
            _run_spans(source, _raised(rule), [points[i] for i in at],
                       [entries[i] for i in at], trials, seed)
        except _FAILURES as exc:
            for i in at:
                entries[i] = exc
    return [e if isinstance(e, BaseException) else e.estimate() for e in entries]


def estimate_cost(
    source: ScalarGaussian,
    costs: GameCosts,
    config: NetworkConfig,
    policies: RoundPolicies,
    trials: int,
    seed: int,
) -> EmpiricalEstimate:
    """Average the per-round cost over `trials` addressed rounds: the
    one-point group of `estimate_costs`, whose entry it returns or raises."""
    return _raised(estimate_costs(source, [(costs, config, policies)], trials, seed)[0])


def chernoff_upper_bound(n: int, p: float, kind: str, delta: float) -> float:
    """Multiplicative Chernoff bound for Bin(n, p) with mean mu = n p.

    kind "upper": P(S > (1 + delta) mu) <= exp(-mu delta^2 / (2 + delta)),
    any delta > 0.  kind "lower": P(S <= (1 - delta) mu) <=
    exp(-mu delta^2 / 2), delta in (0, 1).
    """
    mu = n * p
    if not mu > 0.0:
        raise ValueError("n * p must be positive")
    if kind == "upper":
        if not delta > 0.0:
            raise ValueError("upper-tail delta must be positive")
        return math.exp(-mu * delta * delta / (2.0 + delta))
    if kind == "lower":
        if not (0.0 < delta < 1.0):
            raise ValueError("lower-tail delta must lie in (0, 1)")
        return math.exp(-mu * delta * delta / 2.0)
    raise ValueError(f"kind must be 'upper' or 'lower', got {kind!r}")


def convergence_probe(
    source: ScalarGaussian,
    threshold: float,
    kappa_bar: float,
    n_grid,
) -> list[tuple[int, float, float]]:
    """Both capacity CDF sequences along n_grid for the threshold policy.

    p is the transmit probability of the centered threshold rule; each row
    holds (n, P(Bin(n-1, p) <= kappa(n)), P(Bin(n-1, p) <= kappa(n) - 1))
    with kappa(n) the capacity `NetworkConfig.from_kappa` gives, ceil(kappa_bar
    n) capped at n - 1.  As n grows both approach the indicator of
    p <= kappa_bar; the boundary p = kappa_bar is excluded.
    """
    kappa_bar = _kappa(kappa_bar)
    _check_nonnegative(threshold, "threshold")
    p = _window(source, ReprSymbols(source.mean, source.mean), threshold)[0]
    if abs(p - kappa_bar) < 1e-6:
        warnings.warn(
            "transmit probability sits on the capacity boundary; the CDF "
            "sequences do not converge to an indicator there",
            RuntimeWarning,
            stacklevel=2,
        )
    rows = []
    for n in n_grid:
        capacity = NetworkConfig.from_kappa(n, kappa_bar).capacity
        rows.append((int(n), *_capacity_cdfs(n, capacity, p)))
    return rows

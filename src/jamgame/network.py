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
are therefore bit-identical however trials are chunked or distributed, and a
single round can be replayed in isolation.  The same addressing lets a chunk
of trials stream one sensor at a time: each sensor's draws are made, masked
and added into per-trial sums before the next sensor's, so a chunk's memory
is a few arrays of chunk length whatever n is.  The sums over the first n
sensors are the same for every point with the same seed and transmit rule,
so one pass serves a group of such points (`estimate_costs`), each bit for
bit as on its own.  Every rule takes one form, the points where it switches
between silence and transmission: threshold points share it whatever
their jammer and costs, and best-response points share it when they
differ in n or capacity, or in a jammer and costs that give the same
switch points.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .gaussian import ScalarGaussian, philox_rng
from .largescale import _kappa
from .proactive import (
    GameCosts,
    ReprSymbols,
    _rule_window,
    _threshold_cost,
    _threshold_rule,
    _window,
)
from .reactive import ReactivePolicy, _check_count, _region_edges

_MIN_UNIFORM = 2.0**-54
_CHUNK = 100_000


@dataclass(frozen=True)
class NetworkConfig:
    """Population size and channel capacity; capacity = n only for n = 1."""

    n: int
    capacity: int

    def __post_init__(self):
        _check_count("n", self.n)
        _check_count("capacity", self.capacity)
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not (0 < self.capacity <= self.n):
            raise ValueError(
                f"capacity must lie in (0, {self.n}], got {self.capacity}"
            )
        if self.n > 1 and self.capacity >= self.n:
            raise ValueError("capacity must be strictly below n for n > 1")

    @classmethod
    def from_kappa(cls, n: int, kappa_bar: float) -> "NetworkConfig":
        """Capacity ceil(kappa_bar * n), capped at n - 1 (see `_capacity`)."""
        return cls(n, _capacity(n, kappa_bar))


def _capacity(n: int, kappa_bar: float) -> int:
    """Capacity ceil(kappa_bar * n), at least 1 and, for n > 1, at most
    n - 1: fixed rounding for reproducibility."""
    kappa = max(1, math.ceil(_kappa(kappa_bar) * n))
    return min(kappa, n - 1) if n > 1 else kappa


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
        if self.trials < 2:
            raise ValueError("at least 2 trials are required")


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
        if self.threshold is not None and not self.threshold >= 0.0:
            raise ValueError("threshold must be nonnegative")


def binomial_cdf(n: int, kappa: int, p: float) -> float:
    """P(Bin(n, p) <= kappa) = I_{1-p}(n - kappa, kappa + 1), the
    regularized incomplete beta (Abramowitz & Stegun 26.5.24), and 1 at
    kappa = n.  n and kappa must be integers (Python or numpy, not bool)."""
    _check_count("n", n)
    _check_count("kappa", kappa)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0 <= kappa <= n:
        raise ValueError(f"kappa must lie in [0, {n}], got {kappa}")
    if kappa == n:
        return 1.0
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


def _uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """`count` uniforms at positions [start, start + count) of a substream.

    One double is consumed per position.  Philox advances in counter blocks
    of four 64-bit words (four doubles), so positions are addressed by
    skipping start // 4 blocks and discarding start % 4 leading draws; any
    chunking then reproduces the same values bit for bit.
    """
    gen = philox_rng(seed, stream)
    block, lead = divmod(start, 4)
    if block:
        gen.bit_generator.advance(block)
    u = gen.random(lead + count)[lead:]
    return np.maximum(u, _MIN_UNIFORM, out=u)


def _group_rule(source: ScalarGaussian, points):
    """The transmit rule (`_rule`) every point of a group shares."""
    if not points:
        raise ValueError("a group needs at least one point")
    rules = [_rule(source, costs, policies) for costs, _, policies in points]
    if any(rule != rules[0] for rule in rules[1:]):
        raise ValueError("the points of a group must share the transmit rule")
    return rules[0]


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


def _sensor_draws(
    source: ScalarGaussian, rule, seed: int, sensor: int, start: int, count: int
):
    """Sensor `sensor`'s deviations X - mean for trials [start, start +
    count), their squared distances to y0 = x_hat0 - mean, and whether each
    is transmitted by `rule` (`_rule`)."""
    y0, _, edges, first = rule
    u = _uniforms(seed, sensor, start, count)
    y = special.ndtri(u, out=u)
    y *= source.std
    sq0 = y - y0
    sq0 *= sq0
    return y, sq0, _transmits(y, edges, first)


def _trial_costs(source: ScalarGaussian, points, seed: int, start: int, count: int):
    """Per-trial costs and channel state of each point of a group, for
    trials [start, start + count): yields (index, cost, p_count, jam,
    intrinsic) per point, in ascending n.

    `points` holds (costs, config, policies) triples that share the
    transmit rule (`_group_rule`).  Sensors 0 ... max n - 1 stream once, one
    at a time, into arrays of chunk length: the transmit count, the silent
    error against x_hat0 (zero for a transmitting sensor) and the total
    error against x_hat1, which every sensor pays on a collision.  A point
    reads these running sums once its own n sensors are in, so its costs
    are those of its own run bit for bit, and the jammer stream n is drawn
    once for every point at n.  Memory is a few arrays of `count` elements
    whatever n is.  `p_count` is the running count: it changes when the
    generator resumes.
    """
    rule = _group_rule(source, points)
    _, y1, _, _ = rule
    p_count = np.zeros(count, dtype=np.int64)
    silent = np.zeros(count)
    total = np.zeros(count)
    drawn = 0
    order = sorted(range(len(points)), key=lambda i: points[i][1].n)
    for n, at_n in itertools.groupby(order, key=lambda i: points[i][1].n):
        for s in range(drawn, n):
            y, sq0, transmit = _sensor_draws(source, rule, seed, s, start, count)
            p_count += transmit
            # multiplying by the silent mask adds +0.0 for a transmitting sensor
            sq0 *= np.logical_not(transmit, out=transmit)
            silent += sq0
            y -= y1
            y *= y
            total += y
        drawn = n
        w = _uniforms(seed, n, start, count)
        occupied = p_count > 0
        for i in at_n:
            costs, config, policies = points[i]
            # an occupied channel is jammed with probability beta, an idle one alpha
            jammer = policies.jammer
            jam = w < np.where(occupied, jammer.beta, jammer.alpha)
            intrinsic = p_count > config.capacity
            err = np.where(intrinsic | jam, total, silent)
            cost = (err + costs.c * p_count) / n - costs.d * jam
            yield i, cost, p_count, jam, intrinsic


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
    one trial; a delivered round re-draws its sensors one at a time to list
    the packets.
    """
    if trial < 0:
        raise ValueError(f"trial must be nonnegative, got {trial}")
    point = [(costs, config, policies)]
    ((_, cost, p_count, jam, intrinsic),) = _trial_costs(
        source, point, seed, trial, 1
    )
    p = int(p_count[0])
    jammed = bool(jam[0])
    if intrinsic[0] or jammed:
        outcome = ChannelOutcome("collision", (), bool(intrinsic[0]), jammed)
    elif p == 0:
        outcome = ChannelOutcome("idle", (), False, False)
    else:
        rule = _group_rule(source, point)
        packets = []
        for s in range(config.n):
            y, _, transmit = _sensor_draws(source, rule, seed, s, trial, 1)
            if transmit[0]:
                packets.append((s, source.mean + float(y[0])))
        outcome = ChannelOutcome("delivered", tuple(packets), False, False)
    listed = p if outcome.kind == "delivered" else 0
    if len(outcome.delivered) != listed or (
        (outcome.kind == "collision") != (p > config.capacity or jammed)
    ):
        raise RuntimeError(f"inconsistent channel outcome {outcome} for p = {p}")
    return float(cost[0]), outcome


def estimate_costs(
    source: ScalarGaussian, points, trials: int, seed: int
) -> list[EmpiricalEstimate]:
    """Average each point's per-round cost over `trials` addressed rounds.

    `points` is a group of (costs, config, policies) triples that share the
    transmit rule (`_group_rule`), so every sensor stream is drawn once for
    the whole group.  Each point's per-trial costs are written chunk by
    chunk into one array, reduced once its last chunk is in and then
    dropped, so every estimate is bit-identical to `estimate_cost` on that
    point alone, for any chunk size or worker split of the same (seed,
    trials).
    """
    if trials < 2:
        raise ValueError("at least 2 trials are required")
    estimates = [None] * len(points)
    kept = {}
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        for i, cost, *_ in _trial_costs(source, points, seed, start, count):
            if count < trials:
                if start == 0:
                    kept[i] = np.empty(trials)
                kept[i][start:start + count] = cost
            if start + count == trials:
                all_costs = kept.pop(i, cost)
                mean = float(all_costs.mean())
                std_err = float(all_costs.std(ddof=1) / math.sqrt(trials))
                estimates[i] = EmpiricalEstimate(mean, std_err, trials)
    return estimates


def estimate_cost(
    source: ScalarGaussian,
    costs: GameCosts,
    config: NetworkConfig,
    policies: RoundPolicies,
    trials: int,
    seed: int,
) -> EmpiricalEstimate:
    """Average the per-round cost over `trials` addressed rounds: the
    one-point group of `estimate_costs`."""
    return estimate_costs(source, [(costs, config, policies)], trials, seed)[0]


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
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
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
        _check_count("n", n)
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        rows.append((int(n), *_capacity_cdfs(n, _capacity(n, kappa_bar), p)))
    return rows

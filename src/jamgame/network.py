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

The exact finite-n cost of a threshold policy needs only the transmit
probability p and two binomial CDFs of the other n-1 sensors' transmission
count, giving a four-term expression validated here against the Monte Carlo
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
so one pass serves a group of points that differ only in n, capacity,
jammer and costs (`estimate_costs`), each point bit for bit as on its own.
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
from .proactive import GameCosts, ReprSymbols, _threshold_cost, _window
from .reactive import ReactivePolicy, TransmitRegion, transmit_region

_MIN_UNIFORM = 2.0**-54
_CHUNK = 100_000


@dataclass(frozen=True)
class NetworkConfig:
    """Population size and channel capacity; capacity = n only for n = 1."""

    n: int
    capacity: int

    def __post_init__(self):
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
    probability phi when alpha == beta == phi, and one transmission rule, a
    threshold on the squared deviation from x_hat0 or, when `threshold` is
    None, the coordinator's best response to the jammer (`transmit_region`).
    A jammer with alpha != beta senses the channel and needs n = 1."""

    symbols: ReprSymbols
    jammer: ReactivePolicy
    threshold: float | None = None

    def __post_init__(self):
        if self.threshold is not None and not self.threshold >= 0.0:
            raise ValueError("threshold must be nonnegative")


def binomial_cdf(n: int, kappa: int, p: float) -> float:
    """P(Bin(n, p) <= kappa) = I_{1-p}(n - kappa, kappa + 1), the
    regularized incomplete beta (Abramowitz & Stegun 26.5.24), and 1 at
    kappa = n.  n and kappa must be integers (Python or numpy)."""
    if not all(isinstance(k, (int, np.integer)) for k in (n, kappa)):
        raise ValueError(f"n and kappa must be integers, got {n!r}, {kappa!r}")
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
    threshold: float,
    symbols: ReprSymbols,
    phi: float,
) -> float:
    """Exact per-sensor cost of the homogeneous threshold policy.

    Conditioning each sensor on its own decision and on how many of the
    others transmit yields four terms: the silent-and-clean one weighted by
    F = P(Bin(n-1, p) <= capacity), the silent-but-saturated and the
    transmitting-but-saturated remainders, and the channel-blind jamming
    term that ignores the collision state entirely.
    """
    if not (0.0 <= phi <= 1.0):
        raise ValueError(f"phi must lie in [0, 1], got {phi}")
    if not threshold >= 0.0:
        raise ValueError("threshold must be nonnegative")
    window = _window(source, symbols, threshold)
    if config.n > 1:
        p = window[0]
        f_cap = binomial_cdf(config.n - 1, config.capacity, p)
        f_cap_minus = binomial_cdf(config.n - 1, config.capacity - 1, p)
    else:
        f_cap = f_cap_minus = 1.0
    return _threshold_cost(costs, phi, window, f_cap, f_cap_minus)


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


def _group_rule(
    source: ScalarGaussian, points
) -> tuple[float, float, float | None, TransmitRegion | None]:
    """The transmit rule every point of a group shares: the symbols'
    deviations y0, y1 from the mean, the threshold, and, with no threshold,
    the coordinator's transmit region on the deviation.  A threshold rule
    is shared by points with the same symbols and threshold; a best
    response depends on each point's jammer and costs, so it is a group of
    one.  A channel-sensing jammer needs n = 1."""
    for _, config, policies in points:
        jammer = policies.jammer
        if jammer.alpha != jammer.beta and config.n != 1:
            raise ValueError(
                "a channel-sensing jammer (alpha != beta) is only supported for n = 1"
            )
    costs, _, first = points[0]
    symbols = first.symbols.scalars()
    if any(p.symbols.scalars() != symbols or p.threshold != first.threshold
           for _, _, p in points[1:]):
        raise ValueError("the points of a group must share the symbols and threshold")
    y0, y1 = (x - source.mean for x in symbols)
    if first.threshold is not None:
        return y0, y1, first.threshold, None
    if len(points) > 1:
        raise ValueError("a best-response rule is simulated one point at a time")
    return y0, y1, None, transmit_region(ReprSymbols(y0, y1), first.jammer, costs)


def _sensor_draws(
    source: ScalarGaussian,
    y0: float,
    threshold: float | None,
    region: TransmitRegion | None,
    seed: int,
    sensor: int,
    start: int,
    count: int,
):
    """Sensor `sensor`'s deviations X - mean for trials [start, start +
    count), their squared distances to y0 = x_hat0 - mean, and whether each
    is transmitted: by the threshold on that distance or, with no threshold,
    by `region`."""
    u = _uniforms(seed, sensor, start, count)
    y = special.ndtri(u, out=u)
    y *= source.std
    sq0 = y - y0
    sq0 *= sq0
    if region is None:
        return y, sq0, sq0 > threshold
    return y, sq0, region.contains(y)


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
    y0, y1, threshold, region = _group_rule(source, points)
    p_count = np.zeros(count, dtype=np.int64)
    silent = np.zeros(count)
    total = np.zeros(count)
    drawn = 0
    order = sorted(range(len(points)), key=lambda i: points[i][1].n)
    for n, at_n in itertools.groupby(order, key=lambda i: points[i][1].n):
        for s in range(drawn, n):
            y, sq0, transmit = _sensor_draws(
                source, y0, threshold, region, seed, s, start, count
            )
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
        y0, _, threshold, region = _group_rule(source, point)
        packets = []
        for s in range(config.n):
            y, _, transmit = _sensor_draws(
                source, y0, threshold, region, seed, s, trial, 1
            )
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

    `points` is a group of (costs, config, policies) triples that differ at
    most in n, capacity, jammer and costs (`_group_rule`), so every sensor
    stream is drawn once for the whole group.  Each point's per-trial costs
    are written chunk by chunk into one array, reduced once its last chunk
    is in and then dropped, so every estimate is bit-identical to
    `estimate_cost` on that point alone, for any chunk size or worker split
    of the same (seed, trials).
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
        kappa = _capacity(n, kappa_bar)
        rows.append(
            (
                int(n),
                binomial_cdf(n - 1, kappa, p) if n > 1 else 1.0,
                binomial_cdf(n - 1, kappa - 1, p) if n > 1 else 1.0,
            )
        )
    return rows

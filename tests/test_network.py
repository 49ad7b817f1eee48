"""Tests for the finite-population channel analytics and simulator."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

import jamgame
import jamgame.network as network
from jamgame.gaussian import ScalarGaussian, interval_moments, philox_rng
from jamgame.largescale import asymptotic_objective
from jamgame.network import (
    ChannelOutcome,
    EmpiricalEstimate,
    NetworkConfig,
    RoundPolicies,
    binomial_cdf,
    chernoff_upper_bound,
    convergence_probe,
    estimate_cost,
    estimate_costs,
    jn_analytic,
    simulate_round,
)
from jamgame.proactive import (
    GameCosts,
    ReprSymbols,
    _threshold_cost,
    _window,
    objective_tilde,
    objective_with_threshold,
    solve_saddle,
)
from jamgame.reactive import ExactScalarModel, ReactivePolicy, transmit_region

STD = ScalarGaussian(0.0, 1.0)

# Frozen value, 40-digit quadrature (Gaussian interval moments via erf,
# binomial CDFs as exact sums): per-sensor cost of the threshold policy for
# source N(0.3, 1.44), c=0.8, d=1.1, n=6, capacity=2, threshold=1.5,
# symbols (0.2, -0.4), phi=0.35.
JN_FROZEN = 1.19645075088457438


def test_config_validation():
    NetworkConfig(1, 1)
    NetworkConfig(5, 2)
    for n, cap in ((0, 1), (5, 0), (5, 6), (5, 5), (3, -1)):
        with pytest.raises(ValueError):
            NetworkConfig(n, cap)
    # counts are Python or numpy integers, never a float or a bool
    for n, cap, name in ((2.5, 1, "n"), (True, True, "n"), (5, 2.0, "capacity")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            NetworkConfig(n, cap)
    NetworkConfig(np.int64(5), np.int32(2))


def test_config_from_kappa():
    assert NetworkConfig.from_kappa(10, 0.25) == NetworkConfig(10, 3)
    assert NetworkConfig.from_kappa(10, 0.3) == NetworkConfig(10, 3)
    # n is checked before kappa_bar is multiplied by it
    with pytest.raises(ValueError, match="^n must be an integer, got '3'$"):
        NetworkConfig.from_kappa("3", 0.5)
    assert NetworkConfig.from_kappa(1, 0.5) == NetworkConfig(1, 1)
    assert NetworkConfig.from_kappa(20, 0.05) == NetworkConfig(20, 1)
    # ceil(4.5) = 5 = n leaves no contention; capacity stops at n - 1
    assert NetworkConfig.from_kappa(5, 0.9) == NetworkConfig(5, 4)
    assert NetworkConfig.from_kappa(2, 0.6) == NetworkConfig(2, 1)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            NetworkConfig.from_kappa(10, bad)


def test_round_policies_validation():
    # one jammer pair and one optional threshold; None is the best response
    assert [f.name for f in dataclasses.fields(RoundPolicies)] == [
        "symbols", "jammer", "threshold",
    ]
    sym = ReprSymbols(0.0, 0.0)
    assert RoundPolicies(sym, ReactivePolicy(0.5, 0.5), 1.0).threshold == 1.0
    assert RoundPolicies(sym, ReactivePolicy(0.1, 0.2)).threshold is None
    RoundPolicies(sym, ReactivePolicy(0.5, 0.5), 0.0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            RoundPolicies(sym, ReactivePolicy(0.5, 0.5), bad)
    with pytest.raises(ValueError):
        RoundPolicies(sym, ReactivePolicy(1.5, 1.5), 1.0)


def test_empirical_estimate_validation():
    EmpiricalEstimate(0.0, 0.1, 2)
    with pytest.raises(ValueError):
        EmpiricalEstimate(0.0, 0.1, 1)


def test_binomial_cdf_against_direct_sum():
    n, kappa, p = 50, 20, 0.3
    direct = sum(
        math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(kappa + 1)
    )
    assert binomial_cdf(n, kappa, p) == pytest.approx(direct, rel=1e-12)
    assert binomial_cdf(2, 1, 0.5) == pytest.approx(0.75, abs=1e-14)
    assert binomial_cdf(7, 7, 0.42) == pytest.approx(1.0, abs=1e-14)
    assert binomial_cdf(7, 0, 0.42) == pytest.approx(0.58**7, rel=1e-12)
    # a p whose complement 1 - p rounds (below 0.5, with bits below 2^-53)
    # is read as itself: within 2e-16 of the exact rational sum, where
    # reading it through 1 - p lost up to 5e-15
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 200:
        p = float(10 ** rng.uniform(-8, math.log10(0.5)))
        if 1.0 - (1.0 - p) == p:
            continue
        n = int(rng.integers(2, 60))
        kappa = int(rng.integers(0, n))
        q = Fraction(p)
        exact = sum(math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(kappa + 1))
        error = abs(Fraction(binomial_cdf(n, kappa, p)) - exact)
        assert error <= Fraction(2e-16) * exact, (n, kappa, p)
        checked += 1
    with pytest.raises(ValueError):
        binomial_cdf(5, 6, 0.3)
    with pytest.raises(ValueError):
        binomial_cdf(5, -1, 0.3)
    with pytest.raises(ValueError):
        binomial_cdf(5, 2, 1.3)
    with pytest.raises(ValueError):
        binomial_cdf(5.0, 2, 0.3)
    with pytest.raises(ValueError):
        binomial_cdf(5, 2.5, 0.3)
    with pytest.raises(ValueError, match="^kappa must be an integer, got True$"):
        binomial_cdf(5, True, 0.3)


def test_binomial_cdf_equals_scipy_stats():
    # the library imports no scipy.stats; its binom.cdf is the reference.  p
    # enters through 1 - p, and every p the library passes is 1 - q, whose
    # complement is exact, as it is for the uniform doubles drawn here
    rng = np.random.default_rng(16)
    ns = [1, 2, 3, 10, 100_000] + [int(v) for v in rng.integers(2, 100_001, 40)]
    p_grid = [0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0] + list(rng.random(15))
    for n in ns:
        kappas = {0, n - 1, n} | {int(v) for v in rng.integers(0, n + 1, 5)}
        for kappa in sorted(kappas):
            for p in p_grid:
                expected = float(stats.binom.cdf(kappa, n, p))
                assert binomial_cdf(n, kappa, p) == expected, (n, kappa, p)
    assert binomial_cdf(np.int64(50), np.int32(20), 0.25) == stats.binom.cdf(20, 50, 0.25)


def test_import_leaves_out_scipy_stats():
    # a fresh interpreter importing the jamgame these tests import; scipy's
    # optimize and integrate load only at a run's first root or integral
    src = os.path.dirname(os.path.dirname(network.__file__))
    code = ("import sys, jamgame; sys.exit(any(m in sys.modules for m in "
            "('scipy.stats', 'scipy.optimize', 'scipy.integrate')))")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert run.returncode == 0


# names deleted from the package because nothing in it called them, or
# because one other name does their work (`McVectorModel._split`)
_DELETED = ("tail_prob", "tail_second_moment", "whiten", "project_box",
            "as_array", "complement_intervals", "iterations_to",
            "TransmitRegion", "_endpoint", "_piece_moments", "_std_tail",
            "_std_pdf", "_group_rule", "_simulate_key", "_source_key",
            "group_key", "_sq_dists", "_branches", "_y_sums",
            "CapacityFraction")


def test_public_surface_resolves_and_holds_no_deleted_name():
    assert len(set(jamgame.__all__)) == len(jamgame.__all__)
    for name in jamgame.__all__:
        assert hasattr(jamgame, name), name
    # no module of the package, nor any class it defines, binds a deleted
    # name; `solve_l_phi` lives in `proactive` alone
    modules = [m for key, m in sys.modules.items()
               if key == "jamgame" or key.startswith("jamgame.")]
    owners = modules + [v for m in modules for v in vars(m).values()
                        if isinstance(v, type) and v.__module__.startswith("jamgame.")]
    for owner in owners:
        for name in _DELETED:
            assert not hasattr(owner, name), (owner, name)
    assert not hasattr(jamgame.largescale, "solve_l_phi")
    # kappa_bar is checked in `proactive`: `network` binds nothing that
    # `largescale` defines
    assert not [name for name, value in vars(jamgame.network).items()
                if getattr(value, "__module__", None) == "jamgame.largescale"]
    # the library decides which points share a transmit rule; the CLI
    # groups by source, trials and seed alone
    assert not hasattr(jamgame.cli, "_rule")


def test_jn_frozen_value():
    v = jn_analytic(
        ScalarGaussian(0.3, 1.44),
        GameCosts(0.8, 1.1),
        NetworkConfig(6, 2),
        RoundPolicies(ReprSymbols(0.2, -0.4), ReactivePolicy(0.35, 0.35), 1.5),
    )
    assert v == pytest.approx(JN_FROZEN, rel=1e-13)


def test_jn_single_sensor_reduces_to_point_to_point():
    rng = philox_rng(31, 0)
    costs = GameCosts(1.0, 1.0)
    config = NetworkConfig(1, 1)
    for _ in range(20):
        source = ScalarGaussian(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        symbols = ReprSymbols(rng.uniform(-1, 1), rng.uniform(-1, 1))
        threshold = rng.uniform(0.1, 4.0)
        phi = rng.uniform(0.0, 0.9)
        expect = objective_with_threshold(source, costs, symbols, threshold, phi)
        blind = RoundPolicies(symbols, ReactivePolicy(phi, phi), threshold)
        got = jn_analytic(source, costs, config, blind)
        assert got == pytest.approx(expect, rel=1e-13)
        # the best response to a channel-sensing jammer: the exact model's
        # objective, from the same rows
        jammer = ReactivePolicy(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        expect = ExactScalarModel(source, costs).evaluate(symbols, jammer).objective
        got = jn_analytic(source, costs, config, RoundPolicies(symbols, jammer))
        assert got == pytest.approx(expect, rel=1e-13)


def test_jn_single_sensor_at_optimized_threshold():
    saddle = solve_saddle(STD, GameCosts(1.0, 1.0))
    config = NetworkConfig(1, 1)
    phi = saddle.phi_star
    policies = RoundPolicies(saddle.estimator, ReactivePolicy(phi, phi), saddle.threshold)
    got = jn_analytic(STD, GameCosts(1.0, 1.0), config, policies)
    tilde = objective_tilde(STD, GameCosts(1.0, 1.0), saddle.estimator, saddle.phi_star)
    assert got == pytest.approx(tilde, rel=1e-12)


def test_jn_nonincreasing_in_capacity():
    # with both symbols at the mean the silent-side errors coincide, so extra
    # capacity can only remove transmit-side collision error
    source = ScalarGaussian(0.4, 2.0)
    symbols = ReprSymbols(0.4, 0.4)
    costs = GameCosts(0.7, 0.9)
    policies = RoundPolicies(symbols, ReactivePolicy(0.25, 0.25), 1.2)
    window = _window(source, symbols, 1.2)
    values = []
    for cap in range(1, 10):
        values.append(jn_analytic(source, costs, NetworkConfig(10, cap), policies))
        # a blind jammer's cost is the four-term threshold cost bit for bit
        f_cap, f_cap_minus = (binomial_cdf(9, k, window[0]) for k in (cap, cap - 1))
        assert values[-1] == _threshold_cost(costs, 0.25, window, f_cap, f_cap_minus)
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-15


def test_jn_validation():
    # the round policy carries the range checks
    with pytest.raises(ValueError, match="alpha must lie in"):
        jn_analytic(STD, GameCosts(1.0, 1.0), NetworkConfig(5, 2),
                    RoundPolicies(ReprSymbols(0.0, 0.0), ReactivePolicy(1.5, 1.5), 1.0))
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            jn_analytic(STD, GameCosts(1.0, 1.0), NetworkConfig(5, 2),
                        RoundPolicies(ReprSymbols(0.0, 0.0), ReactivePolicy(0.5, 0.5), bad))


def _live_uniforms(seed, stream, start, count):
    """`count` uniforms of a substream from a live generator (`network._stream`)
    opened at position `start`."""
    return network._draw(network._stream(seed, stream, start), np.empty(count))


def test_uniform_addressing_is_chunk_invariant():
    one_shot = _live_uniforms(7, 3, 0, 100)
    for cuts in ((37,), (1, 3), (4, 8, 96), (25, 50, 75), (2, 3, 5, 7, 99)):
        edges = (0,) + cuts + (100,)
        parts = [
            _live_uniforms(7, 3, a, b - a) for a, b in zip(edges, edges[1:])
        ]
        assert np.array_equal(one_shot, np.concatenate(parts))
    # positions are absolute: a later window is a slice of the full draw
    assert np.array_equal(one_shot[13:42], _live_uniforms(7, 3, 13, 29))
    assert not np.array_equal(one_shot, _live_uniforms(7, 4, 0, 100))
    assert not np.array_equal(one_shot, _live_uniforms(8, 3, 0, 100))
    assert one_shot.min() >= 2.0**-54


def test_simulate_round_matches_estimate(monkeypatch):
    costs = GameCosts(1.0, 1.0)
    config = NetworkConfig(5, 2)
    policies = RoundPolicies(ReprSymbols(0.1, -0.2), ReactivePolicy(0.4, 0.4), 1.3)
    est = estimate_cost(STD, costs, config, policies, trials=64, seed=11)
    open_rng = network.philox_rng
    opened = []

    def counted(*args):
        opened.append(args)
        return open_rng(*args)

    monkeypatch.setattr(network, "philox_rng", counted)
    replayed, opened_by_kind = [], {}
    for t in range(64):
        opened.clear()
        cost, outcome = simulate_round(STD, costs, config, policies, seed=11, trial=t)
        replayed.append(cost)
        opened_by_kind.setdefault(outcome.kind, set()).add(len(opened))
    # a replay opens each of its n + 1 streams once, whatever the round: a
    # delivered one lists its packets from the same sensor streams
    assert opened_by_kind == {
        kind: {config.n + 1} for kind in ("idle", "collision", "delivered")
    }
    assert est.mean == float(np.array(replayed).mean())
    assert est.trials == 64
    # no trial index addresses a negative position of the stream, and a
    # trial index or a seed is an integer: True is not trial 1, nor 1.5 seed 1
    with pytest.raises(ValueError, match="trial must be nonnegative, got -1"):
        simulate_round(STD, costs, config, policies, seed=11, trial=-1)
    for bad in (True, 3.0):
        with pytest.raises(ValueError, match="^trial must be an integer, got"):
            simulate_round(STD, costs, config, policies, seed=11, trial=bad)
    for bad in (True, 11.0, 1.5):
        with pytest.raises(ValueError, match="^seed must be an integer, got"):
            simulate_round(STD, costs, config, policies, seed=bad, trial=0)
    assert simulate_round(STD, costs, config, policies, seed=np.int64(11),
                          trial=np.int32(5)) == simulate_round(
        STD, costs, config, policies, seed=11, trial=5)
    # a batch kernel that reports an intrinsic collision for one packet at
    # capacity 2 and no jam contradicts the channel rule: the replay refuses it
    monkeypatch.setattr(network, "_trial_costs", lambda *args: [(
        0, np.array([0.5]), np.array([1]), np.array([False]), np.array([True]))])
    with pytest.raises(RuntimeError, match="^inconsistent channel outcome .* p = 1$"):
        simulate_round(STD, costs, config, policies, seed=11, trial=0)


def _shared_rule(source, points):
    """The transmit rule (`network._rule`) that every point of a group
    shares, as `_trial_costs` takes it."""
    rules = {network._rule(source, costs, policies) for costs, _, policies in points}
    assert len(rules) == 1
    return rules.pop()


def _streams(seed, start, points):
    """A group's live streams 0 ... max n at position `start`, as
    `_trial_costs` takes them."""
    last = max(config.n for _, config, _ in points)
    return [network._stream(seed, s, start) for s in range(last + 1)]


def test_estimate_chunking_invariant(monkeypatch):
    costs = GameCosts(1.0, 1.0)
    config = NetworkConfig(3, 1)
    policies = RoundPolicies(ReprSymbols(0.0, 0.0), ReactivePolicy(0.2, 0.2), 0.8)
    whole = {trials: estimate_cost(STD, costs, config, policies, trials, seed=4)
             for trials in (500, 12_000)}
    # a group that shares the threshold rule, with n out of order and
    # repeated, and mixed capacities, jammers and costs: each point is its
    # own run bit for bit, and so is each replayed round
    source, symbols = ScalarGaussian(0.4, 2.0), ReprSymbols(0.3, -0.5)
    group = [
        (GameCosts(c, d), NetworkConfig(n, cap),
         RoundPolicies(symbols, ReactivePolicy(phi, phi), 1.1))
        for n, cap, phi, c, d in (
            (20, 6, 0.3, 0.7, 1.3), (1, 1, 0.9, 1.0, 0.2), (5, 2, 0.0, 2.0, 1.0),
            (5, 4, 0.6, 0.1, 1.9), (2, 1, 1.0, 1.5, 0.5),
        )
    ]
    alone = [estimate_cost(source, *point, trials=500, seed=4) for point in group]
    assert estimate_costs(source, group, trials=500, seed=4) == alone
    rule = _shared_rule(source, group)
    kernel = network._trial_costs(source, rule, group, _streams(4, 0, group), 500)
    per_trial = {i: cost for i, cost, *_ in kernel}
    for i, point in enumerate(group):
        for k in (0, 123, 499):
            replayed, _ = simulate_round(source, *point, seed=4, trial=k)
            assert replayed == per_trial[i][k]
    # at 12 000 trials a chunk of 4097 or 6000 holds a block reduced in
    # place and a block that its edge cuts
    for chunk in (4097, 6000, 7):
        monkeypatch.setattr(network, "_CHUNK", chunk)
        for trials, estimate in whole.items():
            chunked = estimate_cost(STD, costs, config, policies, trials, seed=4)
            assert estimate.mean == chunked.mean
            assert estimate.std_err == chunked.std_err
        assert estimate_costs(source, group, trials=500, seed=4) == alone
    # best responses to one jammer at one set of costs share their rule
    # whatever n and capacity are, and are one group in the same way
    sensing = RoundPolicies(symbols, ReactivePolicy(0.2, 0.7))
    responses = [
        (GameCosts(0.9, 1.1), NetworkConfig(n, cap), sensing)
        for n, cap in ((20, 6), (1, 1), (5, 2), (2, 1))
    ]
    own_runs = [estimate_cost(source, *point, trials=500, seed=4) for point in responses]
    assert estimate_costs(source, responses, trials=500, seed=4) == own_runs
    # points whose rules differ, in any order, are one call too, which
    # splits them by rule: another threshold, the best response next to a
    # threshold, or to another jammer; each estimate is its own run's, in
    # the order of the points, and no points give no estimates
    threshold = (costs, config, RoundPolicies(symbols, ReactivePolicy(0.2, 0.2), 0.8))
    other_jammer = (costs, config, RoundPolicies(symbols, ReactivePolicy(0.2, 0.2)))
    for mixed in ([group[3], threshold, *group[:3]], group + responses[::-1],
                  [responses[1], other_jammer, *responses]):
        alone = [estimate_cost(source, *point, trials=500, seed=4) for point in mixed]
        assert estimate_costs(source, mixed, trials=500, seed=4) == alone
    # a point whose rule cannot be formed, here for vector symbols, is its
    # own group: its entry is the exception its own run raises, and the
    # other points keep their own runs' estimates
    vector = (costs, config, RoundPolicies(
        ReprSymbols(np.zeros(2), np.zeros(2)), ReactivePolicy(0.2, 0.7)))
    mixed = [responses[1], vector, group[0], *responses[2:]]
    entries = estimate_costs(source, mixed, trials=500, seed=4)
    with pytest.raises(ValueError, match="^symbols are not scalar$"):
        estimate_cost(source, *vector, trials=500, seed=4)
    assert type(entries[1]) is ValueError
    assert str(entries[1]) == "symbols are not scalar"
    for i, point in enumerate(mixed):
        if i != 1:
            assert entries[i] == estimate_cost(source, *point, trials=500, seed=4)
    assert estimate_costs(source, [], trials=500, seed=4) == []
    # a rule whose pass raises, here partway through it, is the entry of
    # each of its points, the exception that point's own run raises; the
    # other rule's points keep their own runs' estimates
    mixed = group + responses[::-1]
    failing_rule = _shared_rule(source, responses)
    trial_costs = network._trial_costs

    def failing(source, rule, points, *args):
        for item in trial_costs(source, rule, points, *args):
            if rule == failing_rule and item[0] == len(points) - 1:
                raise FloatingPointError("overflow in the kernel")
            yield item

    monkeypatch.setattr(network, "_trial_costs", failing)
    entries = estimate_costs(source, mixed, trials=500, seed=4)
    for point, entry in zip(mixed, entries, strict=True):
        if point[2] is sensing:
            assert type(entry) is FloatingPointError
            assert str(entry) == "overflow in the kernel"
            with pytest.raises(FloatingPointError, match="^overflow in the kernel$"):
                estimate_cost(source, *point, trials=500, seed=4)
        else:
            assert entry == estimate_cost(source, *point, trials=500, seed=4)


# Past one block of the reduction the estimate is its blocks' combination:
# against an exactly rounded oracle (math.fsum) the mean was off by at most
# 1.6 eps times the mean absolute cost, and the standard error by 1.6 eps
# relative, over 120 points of 4097 to 60 000 trials; the bound is
# REDUCTION_EPS of those units.
REDUCTION_EPS = 4


def test_estimate_reduction_is_blocked(monkeypatch):
    source, symbols = ScalarGaussian(0.4, 2.0), ReprSymbols(0.3, -0.5)
    group = [
        (GameCosts(c, d), NetworkConfig(n, cap),
         RoundPolicies(symbols, ReactivePolicy(alpha, beta), 1.1))
        for n, cap, alpha, beta, c, d in (
            (20, 6, 0.3, 0.3, 0.7, 1.3), (1, 1, 0.9, 0.1, 1.0, 0.2),
            (5, 2, 0.0, 0.0, 2.0, 1.0),
        )
    ]
    for trials in (network._BLOCK, 2 * network._BLOCK + 123):
        monkeypatch.setattr(network, "_CHUNK", trials)
        kernel = network._trial_costs(
            source, _shared_rule(source, group), group, _streams(4, 0, group), trials
        )
        per_trial = {i: cost.copy() for i, cost, *_ in kernel}
        blocked = estimate_costs(source, group, trials=trials, seed=4)
        # blocks start at trial 0 whatever the chunk, so every chunking
        # reduces the same blocks
        for chunk in (7, 700, 4097):
            monkeypatch.setattr(network, "_CHUNK", chunk)
            assert estimate_costs(source, group, trials=trials, seed=4) == blocked
        for i, estimate in enumerate(blocked):
            x = per_trial[i]
            if trials <= network._BLOCK:
                # one block: numpy's mean and std(ddof=1), bit for bit
                assert estimate.mean == float(x.mean())
                assert estimate.std_err == float(x.std(ddof=1) / math.sqrt(trials))
                continue
            mean = math.fsum(x) / trials
            std_err = math.sqrt(math.fsum((x - mean) ** 2) / (trials - 1) / trials)
            eps = REDUCTION_EPS * sys.float_info.epsilon
            assert abs(estimate.mean - mean) <= eps * math.fsum(abs(x)) / trials
            assert estimate.std_err == pytest.approx(std_err, rel=eps, abs=0.0)


def test_estimate_determinism_and_error_scaling(monkeypatch):
    costs = GameCosts(1.0, 1.0)
    config = NetworkConfig(4, 2)
    policies = RoundPolicies(ReprSymbols(0.2, -0.1), ReactivePolicy(0.3, 0.3), 1.0)
    a = estimate_cost(STD, costs, config, policies, trials=20_000, seed=2)
    b = estimate_cost(STD, costs, config, policies, trials=20_000, seed=2)
    assert a.mean == b.mean and a.std_err == b.std_err
    c = estimate_cost(STD, costs, config, policies, trials=20_000, seed=3)
    assert c.mean != a.mean
    wide = estimate_cost(STD, costs, config, policies, trials=80_000, seed=2)
    assert wide.std_err == pytest.approx(a.std_err / 2.0, rel=0.2)
    with pytest.raises(ValueError):
        estimate_cost(STD, costs, config, policies, trials=1, seed=2)
    for bad in (True, 1000.0):
        with pytest.raises(ValueError, match="^trials must be an integer, got"):
            estimate_cost(STD, costs, config, policies, trials=bad, seed=2)
    # the seed is checked inside the spans: one at 100 trials, two at two
    # whole blocks and more
    monkeypatch.setattr(network, "_SPANS", 2)
    for trials in (100, 2 * network._BLOCK + 123):
        for bad in (True, 2.0, 1.5):
            with pytest.raises(ValueError, match="^seed must be an integer, got"):
                estimate_cost(STD, costs, config, policies, trials=trials, seed=bad)
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            estimate_cost(STD, costs, config, policies, trials=trials, seed=-1)
    assert estimate_cost(STD, costs, config, policies, trials=np.int64(100),
                         seed=np.uint32(2)) == estimate_cost(
        STD, costs, config, policies, trials=100, seed=2)


def test_estimate_agrees_with_analytic():
    costs = GameCosts(1.0, 1.0)
    for n, cap, threshold, phi, seed in (
        (5, 2, 0.9, 0.3, 5),
        (5, 2, 2.0, 0.0, 6),
        (20, 8, 0.9, 0.3, 7),
    ):
        config = NetworkConfig(n, cap)
        symbols = ReprSymbols(0.1, -0.2)
        policies = RoundPolicies(symbols, ReactivePolicy(phi, phi), threshold)
        exact = jn_analytic(STD, costs, config, policies)
        est = estimate_cost(STD, costs, config, policies, trials=200_000, seed=seed)
        assert abs(est.mean - exact) <= 3.0 * est.std_err


def test_silent_round_outcome_and_cost():
    # a huge threshold silences every sensor; with no jamming the channel is
    # idle and each sensor pays its squared deviation from x_hat0
    costs = GameCosts(1.0, 1.0)
    config = NetworkConfig(5, 2)
    symbols = ReprSymbols(0.3, -0.3)
    policies = RoundPolicies(symbols, ReactivePolicy(0.0, 0.0), 1e12)
    for trial in range(5):
        cost, outcome = simulate_round(STD, costs, config, policies, seed=3, trial=trial)
        assert outcome == ChannelOutcome("idle", (), False, False)
        x = np.array([
            STD.mean
            + math.sqrt(STD.var) * special.ndtri(_reference_uniforms(3, s, trial, 1)[0])
            for s in range(config.n)
        ])
        assert cost == pytest.approx(float(((x - 0.3) ** 2).mean()), rel=1e-12)


def test_jammed_round_outcome():
    costs = GameCosts(1.0, 2.0)
    config = NetworkConfig(5, 2)
    symbols = ReprSymbols(0.3, -0.3)
    policies = RoundPolicies(symbols, ReactivePolicy(1.0, 1.0), 1e12)
    cost, outcome = simulate_round(STD, costs, config, policies, seed=3, trial=0)
    assert outcome == ChannelOutcome("collision", (), False, True)
    x = np.array([
        STD.mean
        + math.sqrt(STD.var) * special.ndtri(_reference_uniforms(3, s, 0, 1)[0])
        for s in range(config.n)
    ])
    assert cost == pytest.approx(float(((x + 0.3) ** 2).mean()) - 2.0, rel=1e-12)


def test_delivered_round_carries_packets():
    costs = GameCosts(1.0, 1.0)
    config = NetworkConfig(3, 2)
    symbols = ReprSymbols(0.0, 0.0)
    policies = RoundPolicies(symbols, ReactivePolicy(0.0, 0.0), 1.0)
    kinds = set()
    for trial in range(200):
        cost, outcome = simulate_round(STD, costs, config, policies, seed=9, trial=trial)
        kinds.add(outcome.kind)
        if outcome.kind == "delivered":
            assert 1 <= len(outcome.delivered) <= config.capacity
            for sensor, value in outcome.delivered:
                drawn = STD.mean + math.sqrt(STD.var) * special.ndtri(
                    _reference_uniforms(9, sensor, trial, 1)[0]
                )
                assert value == drawn
                assert (drawn - 0.0) ** 2 > 1.0
        if outcome.kind == "collision" and outcome.intrinsic:
            assert not outcome.delivered
    assert {"idle", "delivered", "collision"} <= kinds


@pytest.mark.parametrize("jammer, threshold, n, capacity", [
    ((0.1, 0.45), None, 1, 1),  # a channel-sensing jammer, best response
    ((0.2, 0.2), 1.0, 4, 2),  # a blind jammer, threshold rule
])
def test_simulator_reads_only_the_deviation(jammer, threshold, n, capacity):
    # symbols 1e8 +- 0.5 are exact in floating point; the simulator draws
    # deviations and solves the rule on the symbols' deviations, so a far
    # mean moves no cost, and only the listed packets carry the mean
    mean = 1e8
    costs, config = GameCosts(1.0, 1.0), NetworkConfig(n, capacity)
    far = RoundPolicies(ReprSymbols(mean + 0.5, mean - 0.5), ReactivePolicy(*jammer), threshold)
    near = RoundPolicies(ReprSymbols(0.5, -0.5), ReactivePolicy(*jammer), threshold)
    shifted = ScalarGaussian(mean, 1.0)
    assert estimate_cost(shifted, costs, config, far, trials=20_000, seed=5) == (
        estimate_cost(STD, costs, config, near, trials=20_000, seed=5))
    delivered = 0
    for trial in range(40):
        cost, outcome = simulate_round(shifted, costs, config, far, seed=5, trial=trial)
        twin_cost, twin = simulate_round(STD, costs, config, near, seed=5, trial=trial)
        assert cost == twin_cost
        assert outcome == dataclasses.replace(
            twin, delivered=tuple((s, mean + y) for s, y in twin.delivered))
        delivered += bool(outcome.delivered)
    assert delivered


def test_sensing_jammer_matches_jn_analytic():
    # a channel-sensing jammer at n > 1, against a threshold rule and the best
    # response: an idle channel is jammed with alpha, an occupied one with
    # beta.  At these points the blind jammer at beta is 4 to 48 standard
    # errors from the simulated threshold-rule costs.
    source, costs = ScalarGaussian(0.2, 1.5), GameCosts(0.8, 1.1)
    symbols, jammer = ReprSymbols(0.5, -0.3), ReactivePolicy(0.15, 0.6)
    for n, capacity, seed in ((2, 1, 41), (5, 2, 42), (20, 6, 43)):
        config = NetworkConfig(n, capacity)
        for threshold in (3.0, None):
            policies = RoundPolicies(symbols, jammer, threshold)
            exact = jn_analytic(source, costs, config, policies)
            est = estimate_cost(source, costs, config, policies, trials=100_000, seed=seed)
            assert abs(est.mean - exact) <= 3.0 * est.std_err


def test_reactive_jammer_matches_exact_objective():
    costs = GameCosts(1.0, 1.0)
    config = NetworkConfig(1, 1)
    symbols = ReprSymbols(0.5, -0.5)
    policy = ReactivePolicy(0.1, 0.45)
    policies = RoundPolicies(symbols, policy)
    exact, _ = ExactScalarModel(STD, costs).objective(symbols, policy)
    est = estimate_cost(STD, costs, config, policies, trials=200_000, seed=9)
    assert abs(est.mean - exact) <= 3.0 * est.std_err


def test_reactive_collapses_to_blind_jammer():
    # with alpha == beta the jam draw ignores the channel and the transmit
    # region is exactly the squared-deviation threshold, so the per-trial
    # costs coincide bit for bit under a shared seed
    costs = GameCosts(1.0, 1.0)
    config = NetworkConfig(1, 1)
    symbols = ReprSymbols(0.4, -0.6)
    phi = 0.3
    reactive = RoundPolicies(symbols, ReactivePolicy(phi, phi))
    blind = RoundPolicies(symbols, ReactivePolicy(phi, phi), costs.c / (1.0 - phi))
    a = estimate_cost(STD, costs, config, reactive, trials=50_000, seed=21)
    b = estimate_cost(STD, costs, config, blind, trials=50_000, seed=21)
    assert a.mean == b.mean
    assert a.std_err == b.std_err


def _span_group():
    """Two rules of one source: threshold points at n 1-20 with their own
    jammers and costs, and best responses to one sensing jammer."""
    source, symbols = ScalarGaussian(0.4, 2.0), ReprSymbols(0.3, -0.5)
    thresholds = [
        (GameCosts(c, d), NetworkConfig(n, cap),
         RoundPolicies(symbols, ReactivePolicy(alpha, beta), 1.1))
        for n, cap, alpha, beta, c, d in (
            (20, 6, 0.3, 0.3, 0.7, 1.3), (1, 1, 0.9, 0.1, 1.0, 0.2),
            (5, 2, 0.0, 0.0, 2.0, 1.0), (5, 4, 0.6, 0.6, 2.0, 1.9),
        )
    ]
    sensing = RoundPolicies(symbols, ReactivePolicy(0.2, 0.7))
    responses = [(GameCosts(0.9, 1.1), NetworkConfig(n, cap), sensing)
                 for n, cap in ((8, 3), (2, 1))]
    return source, thresholds + responses, sensing


def test_estimate_is_the_same_for_any_span_count(monkeypatch):
    # the trials of a rule's pass run in block-aligned spans, the first on
    # the calling thread and each other one on a pool thread, each opening
    # the rule's streams at its first trial on its own thread; every entry
    # is the one-span entry bit for bit, for any chunk
    source, group, _ = _span_group()
    opened, kernels = [], []
    open_stream, trial_costs = network._stream, network._trial_costs

    def counted(seed, stream, start):
        gen = open_stream(seed, stream, start)
        opened.append((stream, start, threading.get_ident(), gen))
        return gen

    def traced(source, rule, group, streams, count):
        kernels.append((threading.get_ident(), streams))
        yield from trial_costs(source, rule, group, streams, count)

    monkeypatch.setattr(network, "_stream", counted)
    monkeypatch.setattr(network, "_trial_costs", traced)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # so the spans' threads interleave finely
    try:
        for trials, chunk, spans in itertools.product(
            (network._BLOCK, 2 * network._BLOCK + 123, 100_000), (network._CHUNK, 3001),
            (1, 2, 3),
        ):
            monkeypatch.setattr(network, "_CHUNK", chunk)
            monkeypatch.setattr(network, "_SPANS", spans)
            opened.clear()
            kernels.clear()
            entries = estimate_costs(source, group, trials, seed=4)
            runs.setdefault(trials, []).append([(e.mean, e.std_err) for e in entries])
            # a span for each rule and each whole block, up to the cap, the
            # first of each rule on this thread and the others not
            cut = min(spans, trials // network._BLOCK)
            threads = [thread for thread, _ in kernels]
            # each span opens each stream of its rule once, at its first
            # trial, on the thread that runs its kernel
            assert sorted(s for s, *_ in opened) == sorted([*range(21), *range(9)] * cut)
            assert {start for _, start, *_ in opened} <= set(network._spans(trials))
            at = {id(gen): (start, thread) for _, start, thread, gen in opened}
            assert sorted(at[id(streams[0])][0] for _, streams in kernels) == sorted(
                network._spans(trials) * 2)
            for thread, streams in kernels:
                assert {at[id(gen)] for gen in streams} == {(at[id(streams[0])][0], thread)}
            assert len(threads) == 2 * cut
            assert threads.count(threading.get_ident()) == 2
            assert (len(set(threads)) > 1) == (cut > 1)
    finally:
        sys.setswitchinterval(interval)
    for trials, entries in runs.items():
        assert all(run == entries[0] for run in entries), trials


def test_span_failure_fails_its_rule_after_every_span_stops(monkeypatch):
    # a rule whose pass raises in one span fails its own points, as a
    # one-span pass does, with the first error in trial order, and only
    # once every span has stopped: a span after the failing one stops at
    # its next cost, one before it runs to its end.  The other rule's
    # points keep their estimates
    source, group, sensing = _span_group()
    monkeypatch.setattr(network, "_SPANS", 2)
    expected = estimate_costs(source, group, 100_000, seed=4)
    failing_rule = network._rule(source, *group[-1][::2])
    trial_costs, main = network._trial_costs, threading.current_thread()
    running, passed, finished = [], [], []

    def failing(source, rule, *args):
        span = "first" if threading.current_thread() is main else "second"
        running.append(span)
        try:
            for item in trial_costs(source, rule, *args):
                if rule == failing_rule:
                    if span in raising:
                        raised.set()
                        raise FloatingPointError(f"overflow in the {span} span")
                    if span not in passed:
                        # the other span raises meanwhile, and its run sees it
                        assert raised.wait(10)
                        time.sleep(0.05)
                    passed.append(span)
                yield item
            if rule == failing_rule:
                finished.append(span)
        finally:
            running.remove(span)

    monkeypatch.setattr(network, "_trial_costs", failing)
    for raising, first, ran in ((("second",), "second", ["first"]), (("first",), "first", []),
                                (("first", "second"), "first", [])):
        passed.clear()
        finished.clear()
        raised = threading.Event()
        entries = estimate_costs(source, group, 100_000, seed=4)
        assert running == []
        assert finished == ran
        # the second span stops at the first cost it passes after the first raised
        assert passed.count("second") == (raising == ("first",))
        for point, entry, want in zip(group, entries, expected, strict=True):
            if point[2] is sensing:
                assert type(entry) is FloatingPointError
                assert str(entry) == f"overflow in the {first} span"
            else:
                assert entry == want


@pytest.mark.parametrize("spans", [1, 2])
def test_span_threads_keep_the_callers_error_state(monkeypatch, spans):
    # numpy keeps its error state per context: under over="raise" every
    # span's overflow raises, so the group fails as one span does and no
    # span only warns; x_hat1 = 1e200 overflows the error against x_hat1
    monkeypatch.setattr(network, "_SPANS", spans)
    group = [(GameCosts(1.0, 1.0), NetworkConfig(3, 1),
              RoundPolicies(ReprSymbols(0.0, 1e200), ReactivePolicy(0.2, 0.2), 1.0))]
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="raise"):
        warnings.simplefilter("always")
        (entry,) = estimate_costs(STD, group, 2 * network._BLOCK + 123, seed=5)
    assert caught == []
    assert type(entry) is FloatingPointError
    assert str(entry) == "overflow encountered in multiply"


def _one_point(source, costs, config, policies, seed, trials):
    """The kernel's per-trial costs and transmit counts for one point."""
    point = [(costs, config, policies)]
    ((_, cost, p_count, *_),) = network._trial_costs(
        source, _shared_rule(source, point), point, _streams(seed, 0, point), trials
    )
    return cost, p_count


@st.composite
def _simulator_cases(draw):
    """(source, costs, config, policies, trials, chunk, seed): n in 1-24, so
    past the row length where a (trials, n) sum would change order, the
    threshold rule or the best response, and a blind jammer (alpha == beta)
    or a channel-sensing one, at any n."""
    n = draw(st.integers(1, 24))
    config = NetworkConfig(n, draw(st.integers(1, max(1, n - 1))))
    source = ScalarGaussian(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.3, 3.0)))
    costs = GameCosts(draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0)))
    symbols = ReprSymbols(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    alpha = draw(st.floats(0.0, 1.0))
    beta = draw(st.floats(0.0, 1.0)) if draw(st.booleans()) else alpha
    threshold = draw(st.one_of(st.none(), st.floats(0.0, 4.0)))
    policies = RoundPolicies(symbols, ReactivePolicy(alpha, beta), threshold)
    trials = draw(st.integers(2, 300))
    chunk = draw(st.integers(1, trials + 5))
    return source, costs, config, policies, trials, chunk, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_simulator_cases())
@example((
    ScalarGaussian(0.2, 1.5), GameCosts(0.8, 1.1), NetworkConfig(5, 2),
    RoundPolicies(ReprSymbols(0.1, -0.4), ReactivePolicy(0.3, 0.3)), 200, 7, 5,
))
def test_simulator_contracts(case):
    source, costs, config, policies, trials, chunk, seed = case
    per_trial, p_count = _one_point(source, costs, config, policies, seed, trials)
    whole = estimate_cost(source, costs, config, policies, trials, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_CHUNK", chunk)
        chunked = estimate_cost(source, costs, config, policies, trials, seed)
    # the same bits for every chunk size, and up to one block of trials the
    # mean and standard error are numpy's
    assert (chunked.mean, chunked.std_err) == (whole.mean, whole.std_err)
    assert whole.mean == float(per_trial.mean())
    assert whole.std_err == float(per_trial.std(ddof=1) / math.sqrt(trials))
    jammer = policies.jammer
    x0 = policies.symbols.scalars()[0]
    edges, first = transmit_region(policies.symbols, jammer, costs)
    bounds = (-math.inf, *edges, math.inf)
    segments = tuple(zip(bounds[:-1], bounds[1:]))[0 if first else 1::2]
    for k in sorted({0, trials - 1, seed % trials}):
        replayed, outcome = simulate_round(
            source, costs, config, policies, seed, trial=k
        )
        assert replayed == per_trial[k]
        if outcome.kind != "delivered":
            assert outcome.delivered == ()
            continue
        # exactly the transmitting sensors, each with its own addressed draw
        draws = [
            source.mean
            + source.std * special.ndtri(_reference_uniforms(seed, s, k, 1)[0])
            for s in range(config.n)
        ]
        sent = [
            (s, x) for s, x in enumerate(draws)
            if (
                any(lo < x < hi for lo, hi in segments) if policies.threshold is None
                else (x - x0) ** 2 > policies.threshold
            )
        ]
        assert outcome.delivered == tuple(sent)
        assert len(sent) == p_count[k]
    if policies.threshold is None and jammer.alpha == jammer.beta < 1.0:
        # against a blind jammer the best response is the threshold
        # c / (1 - phi) on the squared deviation from x_hat0
        rule = RoundPolicies(
            policies.symbols, jammer, costs.c / (1.0 - jammer.alpha)
        )
        assert np.array_equal(
            _one_point(source, costs, config, rule, seed, trials)[0], per_trial
        )


def _reference_uniforms(seed, stream, start, count):
    """The kernel's uniforms as one addressed draw: a fresh generator
    advanced to `start`, whatever came before."""
    gen = philox_rng(seed, stream)
    block, lead = divmod(start, 4)
    if block:
        gen.bit_generator.advance(block)
    u = gen.random(lead + count)[lead:]
    return np.maximum(u, 2.0**-54, out=u)


def _reference_trial_costs(source, rule, points, seed, start, count):
    """The per-trial kernel in its earlier form, as the oracle of the live
    one: one addressed draw a stream for all `count` trials, the channel
    read through `np.where`, and per-point arrays of its own; yields
    (index, cost, p_count, jam, intrinsic) per point in ascending n."""
    y0, y1, edges, first = rule
    p_count = np.zeros(count, dtype=np.int64)
    silent = np.zeros(count)
    total = np.zeros(count)
    drawn, spare = 0, {}
    order = sorted(range(len(points)), key=lambda i: points[i][1].n)
    for n, at_n in itertools.groupby(order, key=lambda i: points[i][1].n):
        for s in range(drawn, n):
            u = spare.pop(s) if s in spare else _reference_uniforms(seed, s, start, count)
            y = special.ndtri(u, out=u)
            y *= source.std
            sq0 = y - y0
            sq0 *= sq0
            transmit = network._transmits(y, edges, first)
            p_count += transmit
            sq0 *= np.logical_not(transmit, out=transmit)
            silent += sq0
            y -= y1
            y *= y
            total += y
        drawn = n
        w = spare[n] = _reference_uniforms(seed, n, start, count)
        occupied = p_count > 0
        costs_at_n = {}
        for i in at_n:
            costs, config, policies = points[i]
            jammer = policies.jammer
            jam = w < np.where(occupied, jammer.beta, jammer.alpha)
            intrinsic = p_count > config.capacity
            if costs.c not in costs_at_n:
                paid = costs.c * p_count
                costs_at_n[costs.c] = (total + paid) / n, (silent + paid) / n
            lost, clean = costs_at_n[costs.c]
            cost = np.where(jam, lost - costs.d, np.where(intrinsic, lost, clean))
            yield i, cost, p_count.copy(), jam, intrinsic


@st.composite
def _kernel_cases(draw):
    """(source, points, seed, start, count, chunk): a group of one to four
    points with n in 1-24 that share a threshold rule (each with its own
    blind or sensing jammer and costs) or a best response (one jammer and
    costs, n and capacity their own), symbols whose deviations may be the
    same float, integer or fractional costs, any start and any chunk."""
    source = ScalarGaussian(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.3, 3.0)))
    x0 = draw(st.floats(-2.0, 2.0))
    symbols = ReprSymbols(x0, x0 if draw(st.booleans()) else draw(st.floats(-2.0, 2.0)))
    price = st.one_of(st.integers(1, 3).map(float), st.floats(0.1, 2.0))

    def jammer():
        alpha = draw(st.floats(0.0, 1.0))
        return ReactivePolicy(alpha, draw(st.floats(0.0, 1.0)) if draw(st.booleans())
                              else alpha)

    threshold = draw(st.one_of(st.none(), st.floats(0.0, 4.0)))
    shared = GameCosts(draw(price), draw(price)), jammer()
    points = []
    for n in draw(st.lists(st.integers(1, 24), min_size=1, max_size=4)):
        costs, policy = shared if threshold is None else (
            GameCosts(draw(price), draw(price)), jammer())
        config = NetworkConfig(n, draw(st.integers(1, max(1, n - 1))))
        points.append((costs, config, RoundPolicies(symbols, policy, threshold)))
    count = draw(st.integers(1, 300))
    chunk = draw(st.one_of(st.integers(1, 9), st.integers(10, 4097)))
    return (source, points, draw(st.integers(0, 2**32)), draw(st.integers(0, 2**40)),
            count, chunk)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_kernel_cases())
# symbols at +0.0 and -0.0 deviations, a blind and a sensing jammer at
# integer costs, over chunks of the production size and longer than 4096
@example((
    ScalarGaussian(0.0, 1.0),
    [(GameCosts(1.0, 2.0), NetworkConfig(n, cap),
      RoundPolicies(ReprSymbols(0.0, -0.0), ReactivePolicy(*jammer), 0.7))
     for n, cap, jammer in ((3, 1, (0.3, 0.3)), (24, 7, (0.2, 0.9)), (3, 2, (1.0, 0.0)))],
    9, 12_345, 20_000, 4097,
))
@example((
    ScalarGaussian(0.3, 2.0),
    [(GameCosts(0.7, 1.3), NetworkConfig(n, cap),
      RoundPolicies(ReprSymbols(0.5, -0.5), ReactivePolicy(0.25, 0.6)))
     for n, cap in ((5, 2), (1, 1), (5, 4))],
    4, 3, 40_000, network._CHUNK,
))
# points at one n that share a capacity and c but not the jammer, and a
# larger n at that capacity and c, with symbols whose deviations are the
# same float, over five chunks
@example((
    ScalarGaussian(0.1, 1.3),
    [(GameCosts(0.9, d), NetworkConfig(n, 2),
      RoundPolicies(ReprSymbols(0.4, 0.4), ReactivePolicy(*jammer), 1.2))
     for n, d, jammer in ((6, 1.4, (0.2, 0.2)), (6, 0.6, (0.7, 0.7)),
                          (6, 1.4, (0.1, 0.5)), (9, 1.4, (0.2, 0.2)))],
    17, 77, 5_000, 1024,
))
def test_kernel_matches_the_reference_bit_for_bit(case):
    # the live kernel streams its trials chunk by chunk on live generators;
    # each point's cost, count, jam and
    # intrinsic-collision arrays equal the earlier kernel's to the bit
    source, points, seed, start, count, chunk = case
    rule = _shared_rule(source, points)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_CHUNK", chunk)
        parts = {i: [] for i in range(len(points))}
        streams = _streams(seed, start, points)
        for i, *arrays in network._trial_costs(source, rule, points, streams, count):
            parts[i].append([a.copy() for a in arrays])
    for i, *expected in _reference_trial_costs(source, rule, points, seed, start, count):
        assert len(parts[i]) == -(-count // chunk)
        for got, want in zip(zip(*parts[i]), expected, strict=True):
            got = np.concatenate(got)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("threshold", [0.9, None])
def test_estimate_memory_does_not_grow_with_n(threshold):
    # sensors stream one at a time through chunks of _CHUNK trials, and each
    # point reduces its costs block by block, so a group of 12 points up to
    # n = 40 holds a few arrays of chunk length (about 15 measured) whatever
    # n and the trial count are: at n = 40 a (trials, n) matrix would be 40
    # arrays of trial length, and keeping each point's costs 12
    policies = [
        RoundPolicies(ReprSymbols(0.1, -0.2), ReactivePolicy(phi, phi), threshold)
        for phi in (0.1, 0.4, 0.8)
    ] if threshold is not None else [
        RoundPolicies(ReprSymbols(0.1, -0.2), ReactivePolicy(0.3, 0.3))
    ] * 3
    group = [
        (GameCosts(1.0, 1.0), NetworkConfig.from_kappa(n, kappa_bar), policy)
        for n in (2, 5, 12, 40)
        for kappa_bar, policy in zip((0.1, 0.3, 0.6), policies)
    ]
    for trials in (100_000, 1_000_000):
        tracemalloc.start()
        try:
            estimate_costs(STD, group, trials, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 8 * network._CHUNK, trials


def test_chernoff_values_and_validation():
    # n=100, p=0.3, delta=2/3: exponent mu delta^2 / (2 + delta) = 5
    assert chernoff_upper_bound(100, 0.3, "upper", 2.0 / 3.0) == pytest.approx(
        math.exp(-5.0), rel=1e-15
    )
    assert chernoff_upper_bound(100, 0.3, "lower", 0.5) == pytest.approx(
        math.exp(-30.0 * 0.125), rel=1e-15
    )
    for p in (0.0, math.nan):
        with pytest.raises(ValueError, match=r"n \* p must be positive"):
            chernoff_upper_bound(100, p, "upper", 0.5)
    for delta in (-0.1, math.nan):
        with pytest.raises(ValueError, match="upper-tail delta must be positive"):
            chernoff_upper_bound(100, 0.3, "upper", delta)
    with pytest.raises(ValueError):
        chernoff_upper_bound(100, 0.3, "lower", 1.5)
    with pytest.raises(ValueError):
        chernoff_upper_bound(100, 0.3, "sideways", 0.5)


def test_chernoff_dominates_exact_tails():
    for n in (10, 100, 1000):
        for p in (0.1, 0.3, 0.5):
            mu = n * p
            for delta in (0.1, 0.5, 2.0):
                exact = 1.0 - binomial_cdf(n, min(n, math.floor((1 + delta) * mu)), p)
                assert exact <= chernoff_upper_bound(n, p, "upper", delta) + 1e-15
            for delta in (0.1, 0.5, 0.9):
                exact = binomial_cdf(n, math.floor((1 - delta) * mu), p)
                assert exact <= chernoff_upper_bound(n, p, "lower", delta) + 1e-15


def test_convergence_probe_limits():
    # p = 2 Q(sqrt(t)); t = 1.8 gives p ~= 0.18 < 0.5, t = 0.1 gives
    # p ~= 0.75 > 0.5
    rows_under = convergence_probe(STD, 1.8, 0.5, (2, 50, 500, 5000))
    assert rows_under[-1][0] == 5000
    assert rows_under[-1][1] >= 1.0 - 1e-3
    assert rows_under[-1][2] >= 1.0 - 1e-3
    assert rows_under[0][1] <= rows_under[-1][1]
    rows_over = convergence_probe(STD, 0.1, 0.5, (2, 50, 500, 5000))
    assert rows_over[-1][1] <= 1e-3
    assert rows_over[-1][2] <= 1e-3
    single = convergence_probe(STD, 1.8, 0.5, (1,))
    assert single == [(1, 1.0, 1.0)]
    for n_grid in ((10,), ()):
        with pytest.raises(ValueError, match=r"kappa_bar must lie in \(0, 1\)"):
            convergence_probe(STD, 1.8, 1.5, n_grid)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="threshold must be nonnegative, got"):
            convergence_probe(STD, bad, 0.5, (10,))


def test_convergence_probe_uses_config_capacity():
    # the probe's kappa(n) is the capacity of the network from_kappa builds
    w = 1.2
    p = 1.0 - interval_moments(STD, -w, w)[0]
    for kappa_bar in (0.05, 0.3, 0.5, 0.9):
        n_grid = (2, 3, 5, 10, 40)
        for n, f_cap, f_cap_minus in convergence_probe(STD, w * w, kappa_bar, n_grid):
            capacity = NetworkConfig.from_kappa(n, kappa_bar).capacity
            assert f_cap == binomial_cdf(n - 1, capacity, p)
            assert f_cap_minus == binomial_cdf(n - 1, capacity - 1, p)
    # a population is at least one sensor, checked as each n is read
    for n_grid in ([0], [-3], iter([2, 0])):
        with pytest.raises(ValueError, match="^n must be at least 1, got"):
            convergence_probe(STD, w * w, 0.3, n_grid)
    with pytest.raises(ValueError, match="^n must be an integer, got 2.0$"):
        convergence_probe(STD, w * w, 0.3, [2.0])


def test_convergence_probe_boundary_warning():
    # threshold chosen so the transmit probability equals kappa_bar
    kappa_bar = 0.5
    w = -special.ndtri(kappa_bar / 2.0)
    with pytest.warns(RuntimeWarning):
        convergence_probe(STD, w * w, kappa_bar, (10,))


def test_jn_approaches_asymptotic_objective():
    costs = GameCosts(1.0, 0.5)
    symbols = ReprSymbols(0.1, -0.3)
    threshold = 1.6
    phi = 0.4
    kappa_bar = 0.4
    limit = asymptotic_objective(STD, costs, kappa_bar, threshold, symbols, phi)
    blind = RoundPolicies(symbols, ReactivePolicy(phi, phi), threshold)
    gaps = []
    for n in (50, 200, 2000):
        finite = jn_analytic(STD, costs, NetworkConfig.from_kappa(n, kappa_bar), blind)
        gaps.append(abs(finite - limit))
    assert gaps[-1] < 0.01
    assert gaps[-1] <= gaps[0]
    # a channel-sensing jammer at beta = phi: the others are all silent with
    # probability (1 - p)^(n-1) -> 0, so in the limit it is the blind jammer
    sensing = RoundPolicies(symbols, ReactivePolicy(0.1, phi), threshold)
    gaps = [
        abs(jn_analytic(STD, costs, NetworkConfig.from_kappa(n, kappa_bar), sensing) - limit)
        for n in (5, 10_000)
    ]
    assert gaps[0] > 1e-3 and gaps[1] <= 1e-6

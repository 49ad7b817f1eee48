"""Tests for the finite-population channel analytics and simulator."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

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


# names deleted from the package because nothing in it called them
_DELETED = ("tail_prob", "tail_second_moment", "whiten", "project_box",
            "as_array", "complement_intervals", "iterations_to",
            "TransmitRegion", "_endpoint", "_piece_moments", "_std_tail",
            "_std_pdf")


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


def test_uniform_addressing_is_chunk_invariant():
    one_shot = network._uniforms(7, 3, 0, 100)
    for cuts in ((37,), (1, 3), (4, 8, 96), (25, 50, 75), (2, 3, 5, 7, 99)):
        edges = (0,) + cuts + (100,)
        parts = [
            network._uniforms(7, 3, a, b - a) for a, b in zip(edges, edges[1:])
        ]
        assert np.array_equal(one_shot, np.concatenate(parts))
    # positions are absolute: a later window is a slice of the full draw
    assert np.array_equal(one_shot[13:42], network._uniforms(7, 3, 13, 29))
    assert not np.array_equal(one_shot, network._uniforms(7, 4, 0, 100))
    assert not np.array_equal(one_shot, network._uniforms(8, 3, 0, 100))
    assert one_shot.min() >= 2.0**-54


def test_simulate_round_matches_estimate():
    costs = GameCosts(1.0, 1.0)
    config = NetworkConfig(5, 2)
    policies = RoundPolicies(ReprSymbols(0.1, -0.2), ReactivePolicy(0.4, 0.4), 1.3)
    est = estimate_cost(STD, costs, config, policies, trials=64, seed=11)
    replayed = np.array([
        simulate_round(STD, costs, config, policies, seed=11, trial=t)[0]
        for t in range(64)
    ])
    assert est.mean == float(replayed.mean())
    assert est.trials == 64
    # no trial index addresses a negative position of the stream
    with pytest.raises(ValueError, match="trial must be nonnegative, got -1"):
        simulate_round(STD, costs, config, policies, seed=11, trial=-1)


def test_estimate_chunking_invariant(monkeypatch):
    costs = GameCosts(1.0, 1.0)
    config = NetworkConfig(3, 1)
    policies = RoundPolicies(ReprSymbols(0.0, 0.0), ReactivePolicy(0.2, 0.2), 0.8)
    whole = estimate_cost(STD, costs, config, policies, trials=500, seed=4)
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
    kernel = network._trial_costs(source, group, 4, 0, 500)
    per_trial = {i: cost for i, cost, *_ in kernel}
    for i, point in enumerate(group):
        for k in (0, 123, 499):
            replayed, _ = simulate_round(source, *point, seed=4, trial=k)
            assert replayed == per_trial[i][k]
    monkeypatch.setattr(network, "_CHUNK", 7)
    chunked = estimate_cost(STD, costs, config, policies, trials=500, seed=4)
    assert whole.mean == chunked.mean
    assert whole.std_err == chunked.std_err
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
    # points whose rules differ are not one group: another threshold, the
    # best response next to a threshold, or to another jammer
    threshold = (costs, config, RoundPolicies(symbols, ReactivePolicy(0.2, 0.2), 0.8))
    other_jammer = (costs, config, RoundPolicies(symbols, ReactivePolicy(0.2, 0.2)))
    for mixed in (group + [threshold], group + [responses[0]],
                  responses + [other_jammer]):
        with pytest.raises(ValueError, match="^the points of a group must share "
                                             "the transmit rule$"):
            estimate_costs(source, mixed, trials=500, seed=4)
    with pytest.raises(ValueError, match="^a group needs at least one point$"):
        estimate_costs(source, [], trials=500, seed=4)


def test_estimate_determinism_and_error_scaling():
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
            + math.sqrt(STD.var) * special.ndtri(network._uniforms(3, s, trial, 1)[0])
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
        + math.sqrt(STD.var) * special.ndtri(network._uniforms(3, s, 0, 1)[0])
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
                    network._uniforms(9, sensor, trial, 1)[0]
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


def _one_point(source, costs, config, policies, seed, trials):
    """The kernel's per-trial costs and transmit counts for one point."""
    ((_, cost, p_count, *_),) = network._trial_costs(
        source, [(costs, config, policies)], seed, 0, trials
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
    # the same bits for every chunk size, and the mean is that of the trials
    assert (chunked.mean, chunked.std_err) == (whole.mean, whole.std_err)
    assert whole.mean == float(per_trial.mean())
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
            + source.std * special.ndtri(network._uniforms(seed, s, k, 1)[0])
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


@pytest.mark.parametrize("threshold", [0.9, None])
def test_estimate_memory_does_not_grow_with_n(threshold):
    # sensors stream one at a time, so a chunk holds a few arrays of chunk
    # length: at n = 40 a (trials, n) matrix alone would be 40 of them
    trials = 50_000
    policies = RoundPolicies(
        ReprSymbols(0.1, -0.2), ReactivePolicy(0.3, 0.3), threshold
    )
    tracemalloc.start()
    try:
        estimate_cost(
            STD, GameCosts(1.0, 1.0), NetworkConfig(40, 12), policies, trials, seed=1
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * trials


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

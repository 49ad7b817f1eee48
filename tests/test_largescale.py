"""Tests for the infinite-sensor saddle point and its Lagrangian machinery."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from jamgame.gaussian import (
    ScalarGaussian,
    interval_moments,
    norm_sq_tail,
)
from jamgame.largescale import (
    CapacityFraction,
    asymptotic_objective,
    classify_and_solve,
    lagrangian_value,
    solve_l_lambda,
)
from jamgame.proactive import (
    GameCosts,
    ReprSymbols,
    objective_with_threshold,
    solve_l_phi,
    solve_saddle,
)

STD = ScalarGaussian(0.0, 1.0)

# Frozen values, 40-digit quadrature/root-finding:
#   L_LAMBDA_KBAR_025: square of the standard normal upper-0.125 quantile.
#   L_PHI_D_075:       root of 2 E[X^2 1(X > sqrt(l))] = 0.75.
#   D_C4A:             2 E[X^2 1(X > sqrt(L_LAMBDA_KBAR_025))], the jamming
#                      cost that makes both thresholds coincide at kbar=0.25.
#   LAGRANGIAN_FROZEN: Lagrangian at phi=0.3, lam=0.2, c=1, d=0.5, kbar=0.25.
#   VALUE_D025_K025:   saddle value for c=1, d=0.25, kbar=0.25.
L_LAMBDA_KBAR_025 = 1.32330369693146595
L_PHI_D_075 = 1.21253290304566907
D_C4A = 0.723606961762328242
LAGRANGIAN_FROZEN = 0.584882609475270967
VALUE_D025_K025 = 0.79267210243523832

# thresholds frozen in the point-to-point tests solve the same indifference
# equation: l_phi(d) = c / (1 - phi_tilde(c=1, d))
L_PHI_D_025 = 4.10834493563231684
L_PHI_D_050 = 2.36597388437533827


def test_capacity_fraction_validation():
    CapacityFraction(0.5)
    for bad in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValueError):
            CapacityFraction(bad)


def test_l_lambda_frozen_and_residual():
    l = solve_l_lambda(STD, 0.25)
    assert l == pytest.approx(L_LAMBDA_KBAR_025, rel=1e-12)
    assert norm_sq_tail(STD)(l, 0) == pytest.approx(0.25, abs=1e-10)
    assert solve_l_lambda(STD, 0.999999) < 1e-10
    scaled = solve_l_lambda(ScalarGaussian(0.0, 4.0), 0.25)
    assert scaled == pytest.approx(4.0 * L_LAMBDA_KBAR_025, rel=1e-12)
    # the trigger keeps its digits at a tiny capacity and near 1, where
    # 1 - kappa_bar / 2 rounds.  The tail's relative condition number in l
    # is about l / 2, so the round trip holds to 1e-14 or to two roundings
    # of l carried through it, whichever is larger (1373 at 1e-300)
    for kb in (1e-10, 1e-14, 1e-17, 1e-300, 0.99999999):
        l = solve_l_lambda(STD, kb)
        with mp.workdps(50):
            # 2 Q(sqrt l) = erfc(sqrt(l / 2)) = kappa_bar
            x = mp.findroot(lambda x: mp.erfc(x) - kb, math.sqrt(l / 2.0))
            assert abs(mp.mpf(l) / (2 * x * x) - 1) <= 1e-14, kb
        round_trip = norm_sq_tail(STD)(l, 0) / kb - 1.0
        assert abs(round_trip) <= max(1e-14, l * np.finfo(float).eps), kb


def test_l_phi_frozen_and_residual():
    for d, expected in ((0.25, L_PHI_D_025), (0.5, L_PHI_D_050), (0.75, L_PHI_D_075)):
        l = solve_l_phi(STD, GameCosts(1.0, d))
        assert l == pytest.approx(expected, rel=1e-10)
        assert norm_sq_tail(STD)(l, 1) == pytest.approx(d, abs=1e-10)


def test_l_phi_degenerate_warns():
    with pytest.warns(RuntimeWarning):
        l = solve_l_phi(STD, GameCosts(1.0, 1.0))
    assert l == 0.0
    with pytest.warns(RuntimeWarning):
        assert solve_l_phi(STD, GameCosts(1.0, 2.5)) == 0.0


def test_lagrangian_frozen_value():
    value = lagrangian_value(STD, GameCosts(1.0, 0.5), 0.25, 0.3, 0.2)
    assert value == pytest.approx(LAGRANGIAN_FROZEN, rel=1e-13)


def test_lagrangian_validation():
    with pytest.raises(ValueError):
        lagrangian_value(STD, GameCosts(1.0, 0.5), 0.25, 1.0, 0.0)
    for lam in (-0.1, math.nan):
        with pytest.raises(ValueError, match="lambda must be nonnegative"):
            lagrangian_value(STD, GameCosts(1.0, 0.5), 0.25, 0.5, lam)


def test_objectives_reject_out_of_range_inputs():
    costs, symbols = GameCosts(1.0, 0.5), ReprSymbols(0.0, 0.0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            objective_with_threshold(STD, costs, symbols, bad, 0.5)
    with pytest.raises(ValueError, match=r"phi must lie in \[0, 1\]"):
        objective_with_threshold(STD, costs, symbols, 1.0, 1.5)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="transmit_threshold must be nonnegative"):
            asymptotic_objective(STD, costs, 0.25, bad, symbols, 0.5)
    with pytest.raises(ValueError, match=r"phi must lie in \[0, 1\)"):
        asymptotic_objective(STD, costs, 0.25, 1.0, symbols, 1.0)


def test_lagrangian_reduces_to_p2p_at_lambda_zero():
    from jamgame.proactive import objective_tilde

    rng = np.random.default_rng(3)
    for _ in range(20):
        source = ScalarGaussian(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        costs = GameCosts(rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0))
        phi = rng.uniform(0.0, 0.95)
        symbols = ReprSymbols(source.mean, source.mean)
        lhs = lagrangian_value(source, costs, 0.4, phi, 0.0)
        rhs = objective_tilde(source, costs, symbols, phi)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_table_one_sweep():
    rows = {
        (0.25, 0.25): (4.11, 0.04, 0.76, 0.0),
        (0.25, 0.50): (4.11, 0.04, 0.76, 0.0),
        (0.25, 0.75): (4.11, 0.04, 0.76, 0.0),
        (0.50, 0.25): (2.37, 0.12, 0.58, 0.0),
        (0.50, 0.50): (2.37, 0.12, 0.58, 0.0),
        (0.50, 0.75): (2.37, 0.12, 0.58, 0.0),
        (0.75, 0.25): (1.32, 0.25, 0.0, 0.32),
        (0.75, 0.50): (1.21, 0.27, 0.18, 0.0),
        (0.75, 0.75): (1.21, 0.27, 0.18, 0.0),
        (1.00, 0.25): (1.32, 0.25, 0.0, 0.32),
        (1.00, 0.50): (1.00, 0.32, 0.0, 0.0),
        (1.00, 0.75): (1.00, 0.32, 0.0, 0.0),
    }
    for (d, kb), (thr, p, phi, lam) in rows.items():
        saddle = classify_and_solve(STD, GameCosts(1.0, d), kb)
        assert saddle.threshold == pytest.approx(thr, abs=0.01)
        assert saddle.transmit_prob == pytest.approx(p, abs=0.01)
        assert saddle.phi_star == pytest.approx(phi, abs=0.01)
        assert saddle.lambda_star == pytest.approx(lam, abs=0.01)


def test_case_ids_and_binding_constraints():
    grid = [(c, d, kb)
            for c in (0.5, 0.8, 1.0, 1.5, 2.0)
            for d in (0.2, 0.5, 0.8, 1.2, 2.0)
            for kb in (0.1, 0.25, 0.5, 0.75, 0.9)]
    seen = set()
    for c, d, kb in grid:
        saddle = classify_and_solve(STD, GameCosts(c, d), kb)
        seen.add(saddle.case_id)
        assert abs(saddle.lambda_star * (saddle.transmit_prob - kb)) <= 1e-8
        assert saddle.transmit_prob <= kb + 1e-8
        assert saddle.estimator.scalars() == (0.0, 0.0)
        if saddle.case_id in ("C2", "C4b"):
            assert saddle.transmit_prob == pytest.approx(kb, abs=1e-12)
            assert saddle.lambda_star > 0.0
        if saddle.case_id in ("C1", "C3"):
            assert saddle.lambda_star == 0.0
            assert saddle.transmit_prob < kb + 1e-12
        value = lagrangian_value(STD, GameCosts(c, d), kb, saddle.phi_star, saddle.lambda_star)
        assert value == pytest.approx(saddle.value, rel=1e-12)
    assert {"C1", "C2", "C3", "C4b", "C4c"} <= seen


def test_case4_discriminant_against_independent_roots():
    for c, d, kb in [(1.0, 0.9, 0.25), (1.0, D_C4A, 0.25), (0.5, 0.3, 0.4), (1.0, 0.6, 0.2)]:
        source = STD
        saddle = classify_and_solve(source, GameCosts(c, d), kb)
        if not saddle.case_id.startswith("C4"):
            continue
        l_lam = optimize.brentq(
            lambda l: 2.0 * stats.norm.sf(math.sqrt(l)) - kb, 1e-10, 50.0, xtol=1e-14
        )
        l_phi = optimize.brentq(
            lambda l: 2.0 * (stats.norm.sf(math.sqrt(l)) + math.sqrt(l) * stats.norm.pdf(math.sqrt(l))) - d,
            1e-10, 50.0, xtol=1e-14,
        )
        if saddle.case_id == "C4b":
            assert l_lam > l_phi + 1e-8
        elif saddle.case_id == "C4c":
            assert l_phi > l_lam + 1e-8
        else:
            assert abs(l_lam - l_phi) <= 1e-6


def test_case4a_interval_and_flatness():
    costs = GameCosts(1.0, D_C4A)
    saddle = classify_and_solve(STD, costs, 0.25)
    assert saddle.case_id == "C4a"
    assert saddle.threshold == pytest.approx(L_LAMBDA_KBAR_025, rel=1e-10)
    lo, hi = saddle.phi_star_interval
    assert lo == 0.0
    assert hi == pytest.approx(1.0 - 1.0 / L_LAMBDA_KBAR_025, rel=1e-8)
    assert saddle.phi_star == lo
    l = saddle.threshold
    for phi in np.linspace(lo, hi, 5):
        lam = max(0.0, l * (1.0 - phi) - costs.c)
        value = lagrangian_value(STD, costs, 0.25, phi, lam)
        assert value == pytest.approx(saddle.value, abs=1e-8)


def test_degenerate_jam_root_never_jams():
    # d >= var: jamming never pays, since E[Z^2 1(Z^2 > c)] < var for every
    # c > 0, so the jam gate stays shut however tiny c is and the capacity
    # alone picks the case
    for c, kappa_bar, case in ((1e-18, 1.0 - 1e-12, "C1"),
                               (1e-18, 0.99999999, "C2"), (1e-8, 0.5, "C2")):
        saddle = classify_and_solve(STD, GameCosts(c, 1.0), kappa_bar)
        assert saddle.case_id == case
        assert saddle.phi_star == 0.0
        if case == "C1":
            assert saddle.threshold == c
            assert saddle.transmit_prob <= kappa_bar
        else:
            # the capacity binds, so the probability is kappa_bar to rounding
            assert saddle.threshold == solve_l_lambda(STD, kappa_bar)
            assert saddle.transmit_prob == pytest.approx(kappa_bar, rel=1e-15)
        assert math.isfinite(saddle.value)


# one unit-variance instance per case: (c, d, kappa_bar) -> case id.  The
# first is the small-variance C3 reproducer of an absolute jam-gate
# tolerance, N(0, 1e-12), c = 1e-9, d = 5e-13, kappa_bar = 0.5, at unit scale
SCALE_TWINS = [
    pytest.param((1e3, 0.5, 0.5), "C1", id="C1-gate-tolerance"),
    pytest.param((1.0, 2.0, 0.5), "C1", id="C1"),
    pytest.param((0.2, 2.0, 0.5), "C2", id="C2"),
    pytest.param((1.0, 0.5, 0.9), "C3", id="C3"),
    pytest.param((1.0, D_C4A, 0.25), "C4a", id="C4a"),
    pytest.param((1.0, 0.5, 0.1), "C4b", id="C4b"),
    pytest.param((0.1, 0.2, 0.5), "C4c", id="C4c"),
]


@pytest.mark.parametrize("instance, case", SCALE_TWINS)
def test_case_and_saddle_are_the_same_at_every_scale(instance, case):
    # N(0, s) with costs c s and d s is N(0, 1) in units of s: the same case,
    # phi_star, interval and value / s, with no tolerance that is absolute
    c, d, kb = instance
    unit = classify_and_solve(STD, GameCosts(c, d), kb)
    assert unit.case_id == case
    for s in (1e-300, 1e-12, 1e-6, 1e6):
        source, costs = ScalarGaussian(0.0, s), GameCosts(c * s, d * s)
        twin = classify_and_solve(source, costs, kb)
        assert twin.case_id == case, s
        for got, want in ((twin.threshold / s, unit.threshold),
                          (twin.phi_star, unit.phi_star),
                          (twin.lambda_star / s, unit.lambda_star),
                          (twin.value / s, unit.value),
                          (twin.transmit_prob, unit.transmit_prob)):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), s
        if case == "C4a":
            assert twin.phi_star_interval == pytest.approx(
                unit.phi_star_interval, rel=1e-12, abs=0.0
            )
        else:
            assert twin.phi_star_interval is None
        if case in ("C1", "C3", "C4c"):
            # the capacity does not bind: the point-to-point saddle verbatim
            p2p = solve_saddle(source, costs)
            assert (twin.threshold, twin.phi_star, twin.transmit_prob, twin.value) \
                == (p2p.threshold, p2p.phi_star, p2p.transmit_prob, p2p.value)
            assert twin.lambda_star == 0.0


def test_saddle_value_frozen():
    saddle = classify_and_solve(STD, GameCosts(1.0, 0.25), 0.25)
    assert saddle.value == pytest.approx(VALUE_D025_K025, rel=1e-12)


def _perturbed_lagrangian(source, costs, kb, saddle, threshold, symbols):
    """Coordinator-side Lagrangian at the saddle's (phi*, lambda*) for an
    arbitrary symmetric threshold policy."""
    x0, x1 = symbols.scalars()
    w = math.sqrt(threshold)
    p_in, m1, m2 = interval_moments(source, x0 - w, x0 + w)
    inside = m2 - 2.0 * x0 * m1 + x0 * x0 * p_in
    p_tx = 1.0 - p_in
    err_collision = source.var + (source.mean - x1) ** 2
    return (
        (1.0 - saddle.phi_star) * inside
        + (costs.c + saddle.lambda_star) * p_tx
        + saddle.phi_star * (err_collision - costs.d)
        - saddle.lambda_star * kb
    )


def test_lagrangian_saddle_inequalities_on_grid():
    rng = np.random.default_rng(17)
    grid = [(c, d, kb)
            for c in (0.5, 0.8, 1.0, 1.5, 2.0)
            for d in (0.2, 0.5, 0.8, 1.2, 2.0)
            for kb in (0.1, 0.25, 0.5, 0.75, 0.9)]
    for c, d, kb in grid:
        costs = GameCosts(c, d)
        saddle = classify_and_solve(STD, costs, kb)
        for phi in np.linspace(0.0, 0.999, 100):
            assert lagrangian_value(STD, costs, kb, phi, saddle.lambda_star) \
                <= saddle.value + 1e-8
        for _ in range(20):
            threshold = rng.uniform(0.0, 6.0)
            symbols = ReprSymbols(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            perturbed = _perturbed_lagrangian(STD, costs, kb, saddle, threshold, symbols)
            assert perturbed >= saddle.value - 1e-8


def test_kkt_multiplier_direction():
    # partial derivative in lambda is transmit_prob - kappa_bar: nonpositive
    # at the saddle, zero when the multiplier is active
    h = 1e-6
    for c, d, kb in [(1.0, 1.0, 0.25), (1.0, 1.0, 0.5), (1.0, 0.25, 0.25)]:
        costs = GameCosts(c, d)
        saddle = classify_and_solve(STD, costs, kb)
        up = lagrangian_value(STD, costs, kb, saddle.phi_star, saddle.lambda_star + h)
        fd = (up - saddle.value) / h
        assert fd <= 1e-6
        if saddle.lambda_star > 0.0:
            assert abs(fd) <= 1e-5


def test_monotonicity_in_costs_and_capacity():
    phis = [classify_and_solve(STD, GameCosts(1.0, d), 0.25).phi_star
            for d in np.linspace(0.1, 2.0, 12)]
    assert all(a >= b - 1e-12 for a, b in zip(phis, phis[1:]))
    lams = [classify_and_solve(STD, GameCosts(1.0, 1.0), kb).lambda_star
            for kb in np.linspace(0.05, 0.95, 12)]
    assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))


def test_asymptotic_objective_matches_p2p_within_capacity():
    rng = np.random.default_rng(29)
    for _ in range(25):
        source = ScalarGaussian(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        costs = GameCosts(rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0))
        symbols = ReprSymbols(rng.uniform(-1, 1) + source.mean, source.mean)
        phi = rng.uniform(0.0, 0.9)
        threshold = rng.uniform(1.0, 8.0) * source.var
        x0 = symbols.scalars()[0]
        w = math.sqrt(threshold)
        p_tx = 1.0 - interval_moments(source, x0 - w, x0 + w)[0]
        if p_tx > 0.95:
            continue
        value = asymptotic_objective(source, costs, 0.96, threshold, symbols, phi)
        p2p = objective_with_threshold(source, costs, symbols, threshold, phi)
        assert value == pytest.approx(p2p, rel=1e-12)


def test_asymptotic_objective_saturated_branch():
    # above capacity every transmission collides; with phi=0 the value is
    # bounded below by var + c * kappa_bar.  The capacity's tolerance is
    # relative: five times a capacity of 1e-10 is saturated
    cases = [(0.2, threshold) for threshold in (0.0, 0.05, 0.2)]
    cases.append((1e-10, solve_l_lambda(STD, 5e-10)))
    for kb, threshold in cases:
        p_tx = norm_sq_tail(STD)(threshold, 0)
        assert p_tx > kb
        value = asymptotic_objective(
            STD, GameCosts(1.0, 0.5), kb, threshold, ReprSymbols(0.0, 0.0), 0.0
        )
        assert value >= 1.0 + 1.0 * kb - 1e-12
        assert value == pytest.approx(1.0 + p_tx, rel=1e-12)


def test_asymptotic_objective_at_saddle_matches_value():
    for c, d, kb in [(1.0, 0.25, 0.25), (1.0, 1.0, 0.25), (1.0, 1.0, 0.5),
                     (1.0, D_C4A, 0.25), (0.5, 0.3, 0.4)]:
        costs = GameCosts(c, d)
        saddle = classify_and_solve(STD, costs, kb)
        value = asymptotic_objective(
            STD, costs, kb, saddle.threshold, saddle.estimator, saddle.phi_star
        )
        assert value == pytest.approx(saddle.value, abs=1e-10)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    mean=st.floats(-2.0, 2.0),
    var=st.floats(0.25, 4.0),
    c=st.floats(0.1, 4.0),
    d_frac=st.one_of(st.floats(0.05, 0.999), st.floats(1.001, 4.0)),
)
def test_c3_matches_the_point_to_point_saddle(mean, var, c, d_frac):
    # far from capacity the network game is the point-to-point game: below
    # the jamming gate's d it is C3, above it C1, and either way the record
    # is the point-to-point saddle bit for bit
    source = ScalarGaussian(mean, var)
    gate = norm_sq_tail(ScalarGaussian(0.0, var))(c, 1)
    costs = GameCosts(c, d_frac * gate)
    large = classify_and_solve(source, costs, 0.999)
    assert large.case_id == ("C3" if d_frac < 1.0 else "C1")
    p2p = solve_saddle(source, costs)
    assert large.threshold == p2p.threshold
    assert large.phi_star == p2p.phi_star
    assert large.transmit_prob == p2p.transmit_prob
    assert large.value == p2p.value
    assert large.lambda_star == 0.0

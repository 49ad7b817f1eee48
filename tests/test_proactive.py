"""Proactive point-to-point equilibria: roots, saddle inequalities, vector path."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from jamgame.gaussian import (
    _MAX_TERMS,
    DiagonalGaussian,
    GeneralGaussian,
    ScalarGaussian,
    _imhof_tail,
    _ruben_tail,
    _ruben_terms,
    norm_sq_tail,
    sample,
)
from jamgame.proactive import (
    INTERIOR_JAM,
    NO_JAM,
    ConvergenceError,
    GameCosts,
    ProactiveSaddle,
    ReprSymbols,
    _threshold_root,
    jammer_marginal,
    objective_tilde,
    objective_with_threshold,
    solve_l_phi,
    solve_saddle,
    solve_saddle_vector,
)

STD = ScalarGaussian(0.0, 1.0)

# mpmath oracle outputs (dps=40) frozen for the standard source, c = 1
D_EXACT_ROOT_AT_0 = 0.801251956901200802  # 2 int_1^inf x^2 f(x) dx
PHI_TILDE_D_05 = 0.577341065933185961
THRESH_D_05 = 2.36597388437533827
PHI_TILDE_D_025 = 0.756592979492339135
THRESH_D_025 = 4.10834493563231684
E_MIN_X2_1 = 0.5160585509617133


def test_jammer_marginal_root_and_monotonicity():
    costs = GameCosts(1.0, D_EXACT_ROOT_AT_0)
    assert abs(jammer_marginal(STD, costs, 0.0)) <= 1e-12
    costs = GameCosts(1.0, 0.5)
    grid = np.linspace(0.0, 0.995, 60)
    vals = [jammer_marginal(STD, costs, p) for p in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # limit toward phi -> 1 is -d
    assert jammer_marginal(STD, costs, 1.0 - 1e-9) == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ValueError):
        jammer_marginal(STD, costs, 1.0)
    with pytest.raises(ValueError):
        jammer_marginal(STD, costs, -0.1)


def test_phi_tilde_frozen_roots():
    # phi_tilde, the root in phi of the jammer's marginal value, is the
    # saddle's jam level
    saddle = solve_saddle(STD, GameCosts(1.0, 0.5))
    phi = saddle.phi_star
    assert saddle.case == INTERIOR_JAM
    assert phi == pytest.approx(PHI_TILDE_D_05, abs=1e-9)
    assert 1.0 / (1.0 - phi) == pytest.approx(THRESH_D_05, rel=1e-8)
    assert abs(jammer_marginal(STD, GameCosts(1.0, 0.5), phi)) <= 1e-10
    phi = solve_saddle(STD, GameCosts(1.0, 0.25)).phi_star
    assert phi == pytest.approx(PHI_TILDE_D_025, abs=1e-9)
    assert 1.0 / (1.0 - phi) == pytest.approx(THRESH_D_025, rel=1e-8)


def test_phi_tilde_no_root():
    # the marginal value is negative already at phi = 0: no interior root
    costs = GameCosts(1.0, 2.0)
    assert jammer_marginal(STD, costs, 0.0) < 0.0
    saddle = solve_saddle(STD, costs)
    assert saddle.case == NO_JAM
    assert saddle.phi_star == 0.0


def test_threshold_depends_only_on_d():
    # c/(1 - phi_tilde) is invariant in c at fixed d
    thresholds = []
    for c in (0.5, 1.0, 2.0):
        phi = solve_saddle(STD, GameCosts(c, 0.5)).phi_star
        thresholds.append(c / (1.0 - phi))
    assert thresholds[0] == pytest.approx(thresholds[1], rel=1e-8)
    assert thresholds[1] == pytest.approx(thresholds[2], rel=1e-8)
    # the saddle reports the indifference root itself, with no digits lost
    # to c / (1 - phi_star) as c / l_phi shrinks
    for c in (1e-2, 1e-4, 1e-6):
        costs = GameCosts(c, 0.01)
        assert solve_saddle(STD, costs).threshold == solve_l_phi(STD, costs)


def _l_phi_reference(var: float, d: float):
    """The indifference root at 50 digits: bisection in l of
    2 E[Z^2 1(|Z| > sqrt(l))] - d = 2 var (t pdf(t) + Q(t)) - d, t^2 = l / var,
    on the exact binary values of var and d."""
    with mp.workdps(50):
        v, d = mp.mpf(var), mp.mpf(d)

        def residual(l):
            t = mp.sqrt(l / v)
            return 2 * v * (t * mp.npdf(t) + mp.ncdf(-t)) - d

        lo, hi = mp.mpf(0), 50 * v
        for _ in range(200):
            mid = (lo + hi) / 2
            if residual(mid) >= 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def test_l_phi_keeps_its_digits_at_every_scale():
    # the bisection's stopping width and residual check are relative to the
    # source scale, so small variances lose no digits
    for var in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4):
        for ratio in (1e-6, 1e-4, 1e-2, 0.1, 0.5, 0.9):
            d = ratio * var
            got = solve_l_phi(ScalarGaussian(0.0, var), GameCosts(1.0, d))
            want = _l_phi_reference(var, d)
            assert abs(mp.mpf(got) / want - 1) <= 1e-14, (var, ratio)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e300])
def test_saddle_scale_twins_match_the_unit_source(scale):
    # the root is solved in units of the variance (or trace), so a source
    # scaled by s, with its costs scaled alike, has the unit source's
    # threshold and value in those units
    sources = (
        lambda s: ScalarGaussian(0.0, s),
        lambda s: DiagonalGaussian(np.zeros(2), np.array([s, 2.0 * s])),
    )
    for build in sources:
        unit, twin = (
            solve_saddle(build(s), GameCosts(0.1 * s, 0.2 * s))
            for s in (1.0, scale)
        )
        assert twin.case == unit.case == INTERIOR_JAM
        assert twin.threshold / scale == pytest.approx(unit.threshold, rel=1e-12)
        assert twin.value / scale == pytest.approx(unit.value, rel=1e-12)


def test_root_near_the_largest_float():
    # with c = d = 1 the root of N(0, 1e305) is about 1.41e308, below the
    # largest float, and that of N(0, 1e306) lies past it
    source = ScalarGaussian(0.0, 1e305)
    sad = solve_saddle(source, GameCosts(1.0, 1.0))
    assert sad.case == INTERIOR_JAM
    assert 1e308 < sad.threshold < math.inf
    assert norm_sq_tail(source)(sad.threshold, 1) == pytest.approx(1.0, rel=1e-11)
    with pytest.raises(ConvergenceError, match="indifference root past r"):
        solve_saddle(ScalarGaussian(0.0, 1e306), GameCosts(1.0, 1.0))


def test_solve_saddle_cases():
    sad = solve_saddle(STD, GameCosts(1.0, 0.5))
    assert sad.case == INTERIOR_JAM
    assert sad.phi_star == pytest.approx(PHI_TILDE_D_05, abs=1e-9)
    assert sad.threshold == pytest.approx(THRESH_D_05, rel=1e-8)
    assert sad.estimator.scalars() == (0.0, 0.0)

    sad = solve_saddle(STD, GameCosts(1.0, 2.0))
    assert sad.case == NO_JAM
    assert sad.phi_star == 0.0
    assert sad.threshold == 1.0
    assert sad.value == pytest.approx(E_MIN_X2_1, rel=1e-12)

    # boundary tie G(0) = 0 is reported as the interior case at phi = 0
    d0 = norm_sq_tail(STD)(1.0, 1)
    sad = solve_saddle(STD, GameCosts(1.0, d0))
    assert sad.case == INTERIOR_JAM
    assert sad.phi_star <= 1e-9


def test_jamming_never_pays_at_d_at_least_the_trace():
    # E[S 1(S > c)] < E[S] at every c > 0, so d >= E[S] shuts the jam gate
    # even at a c so small that G(c) rounds to 0
    cases = [(STD, 1.0)] + [
        (DiagonalGaussian(np.zeros(2), v), 2.0)
        for v in (np.ones(2), np.array([0.5, 1.5]))
    ]
    for source, trace in cases:
        for d in (trace, 1.5 * trace):
            sad = solve_saddle(source, GameCosts(1e-18, d))
            assert sad.case == NO_JAM
            assert sad.phi_star == 0.0
            assert sad.threshold == 1e-18


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    log_ratio=st.floats(-3.0, 6.0),
    sign=st.sampled_from([-1.0, 1.0]),
    var=st.floats(0.25, 4.0),
    c=st.floats(0.1, 4.0),
    d=st.floats(0.05, 4.0),
    s0=st.floats(-3.0, 3.0),
    s1=st.floats(-3.0, 3.0),
    tau=st.floats(0.0, 10.0),
    phi=st.floats(0.0, 1.0),
)
@example(log_ratio=math.log10(2.0), sign=1.0, var=1.0, c=1.0, d=0.5, s0=0.3,
         s1=-0.2, tau=1.5, phi=0.2)
@example(log_ratio=6.0, sign=1.0, var=1.0, c=1.0, d=0.5, s0=0.3, s1=-0.2,
         tau=1.5, phi=0.2)
def test_solve_saddle_shift_invariance(log_ratio, sign, var, c, d, s0, s1, tau, phi):
    # the game reads the source only through its deviation from the mean:
    # shifting the source, and the symbols with it, moves no number, up to
    # |mean| / sigma = 1e6
    mean = sign * 10.0**log_ratio * math.sqrt(var)
    shifted, centred = ScalarGaussian(mean, var), ScalarGaussian(0.0, var)
    costs = GameCosts(c, d)
    a, b = solve_saddle(centred, costs), solve_saddle(shifted, costs)
    assert b.estimator.scalars() == (mean, mean)
    assert b.case == a.case
    for name in ("threshold", "phi_star", "transmit_prob", "value"):
        assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-12)
    # symbols shifted with the source; x - mean is exact for the float x
    x0, x1 = mean + s0 * math.sqrt(var), mean + s1 * math.sqrt(var)
    moved = objective_with_threshold(
        shifted, costs, ReprSymbols(x0, x1), tau * var, phi
    )
    still = objective_with_threshold(
        centred, costs, ReprSymbols(x0 - mean, x1 - mean), tau * var, phi
    )
    assert moved == pytest.approx(still, rel=1e-12)


def test_objective_forms_agree_at_optimal_threshold():
    rng = np.random.default_rng(2)
    for _ in range(25):
        g = ScalarGaussian(float(rng.normal()), float(rng.uniform(0.3, 3.0)))
        costs = GameCosts(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 2.0)))
        sym = ReprSymbols(float(rng.normal()), float(rng.normal()))
        phi = float(rng.uniform(0.0, 0.98))
        tilde = objective_tilde(g, costs, sym, phi)
        thresh = objective_with_threshold(g, costs, sym, costs.c / (1.0 - phi), phi)
        assert tilde == pytest.approx(thresh, rel=1e-13, abs=1e-13)
        # any other trigger can only raise the cost at fixed phi
        tau = costs.c / (1.0 - phi) * float(rng.uniform(0.4, 2.5))
        assert objective_with_threshold(g, costs, sym, tau, phi) >= tilde - 1e-12


def test_objective_tilde_nonconvex_in_symbols():
    # The clipped loss saturates at c far from the mean, so the cost bends
    # concave once x_hat0 leaves the bulk of the density: the chord between
    # widely spaced symbol choices dips below the midpoint value.
    costs = GameCosts(1.0, 1.0)
    phi = 0.5
    j_a = objective_tilde(STD, costs, ReprSymbols(0.0, 0.0), phi)
    j_b = objective_tilde(STD, costs, ReprSymbols(6.0, 0.0), phi)
    j_mid = objective_tilde(STD, costs, ReprSymbols(3.0, 0.0), phi)
    assert 0.5 * (j_a + j_b) < j_mid - 1e-6
    # curvature flips sign along the axis: convex near the mean, concave out
    h = 1e-4

    def g(x0):
        return objective_tilde(STD, costs, ReprSymbols(x0, 0.0), phi)

    assert g(0.5 + h) - 2.0 * g(0.5) + g(0.5 - h) > 0.0
    assert g(2.0 + h) - 2.0 * g(2.0) + g(2.0 - h) < 0.0


def test_objective_tilde_concave_in_phi():
    rng = np.random.default_rng(3)
    for _ in range(40):
        g = ScalarGaussian(0.0, float(rng.uniform(0.3, 3.0)))
        costs = GameCosts(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 2.0)))
        sym = ReprSymbols(float(rng.normal()), float(rng.normal()))
        p1, p2 = sorted(rng.uniform(0.0, 1.0, size=2))
        mid = objective_tilde(STD, costs, sym, 0.5 * (p1 + p2))
        ends = 0.5 * (
            objective_tilde(STD, costs, sym, p1) + objective_tilde(STD, costs, sym, p2)
        )
        assert mid >= ends - 1e-12


def _random_instances(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        var = float(rng.uniform(0.3, 4.0))
        c = float(rng.uniform(0.2, 2.5))
        d = float(rng.uniform(0.05, 2.0) * var)
        out.append((ScalarGaussian(float(rng.normal()), var), GameCosts(c, d)))
    return out


def test_saddle_inequalities_random_instances():
    seen = set()
    for g, costs in _random_instances(8, 11):
        sad = solve_saddle(g, costs)
        seen.add(sad.case)
        rng = np.random.default_rng(17)
        # jammer side: no phi beats phi_star against the fixed equilibrium pair
        for phi in np.linspace(0.0, 1.0 - 1e-6, 100):
            fixed = objective_with_threshold(
                g, costs, sad.estimator, sad.threshold, phi
            )
            assert fixed <= sad.value + 1e-8
            if sad.case == INTERIOR_JAM:
                # the jammer is indifferent: the top is flat
                assert fixed == pytest.approx(sad.value, abs=1e-8)
            assert objective_tilde(g, costs, sad.estimator, phi) <= sad.value + 1e-8
        # coordinator side: perturbing symbols or trigger never helps
        for _ in range(20):
            sym = ReprSymbols(
                g.mean + float(rng.normal(scale=g.std)),
                g.mean + float(rng.normal(scale=g.std)),
            )
            tau = sad.threshold * float(rng.uniform(0.3, 3.0))
            probe = objective_with_threshold(g, costs, sym, tau, sad.phi_star)
            assert probe >= sad.value - 1e-8
    assert seen == {NO_JAM, INTERIOR_JAM}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    mean=st.floats(-2.0, 2.0),
    var=st.floats(0.25, 4.0),
    c=st.floats(0.1, 4.0),
    d_frac=st.floats(0.02, 1.5),
    phis=st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20),
    scales=st.lists(st.floats(0.0, 4.0), min_size=20, max_size=20),
)
def test_saddle_inequalities_hold_to_rounding(mean, var, c, d_frac, phis, scales):
    # at the exact saddle neither player gains by more than rounding: the
    # jammer's payoff is flat in phi only when the trigger is l_phi itself
    g = ScalarGaussian(mean, var)
    costs = GameCosts(c, d_frac * var)
    sad = solve_saddle(g, costs)
    for phi in [0.0, 1.0] + phis:
        fixed = objective_with_threshold(g, costs, sad.estimator, sad.threshold, phi)
        assert fixed <= sad.value + 1e-12
    for scale in [0.0] + scales:
        tau = scale * sad.threshold
        probe = objective_with_threshold(g, costs, sad.estimator, tau, sad.phi_star)
        assert probe >= sad.value - 1e-12


def test_vector_isotropic_matches_scalar():
    costs = GameCosts(1.0, 0.5)
    source = DiagonalGaussian(np.zeros(1), np.ones(1))
    vec = solve_saddle(source, costs)
    # the name the benchmark traces is the same call
    assert solve_saddle_vector(source, costs).threshold == vec.threshold
    assert vec.case == INTERIOR_JAM
    assert vec.phi_star == pytest.approx(PHI_TILDE_D_05, abs=1e-8)
    scal = solve_saddle(STD, costs)
    assert vec.value == pytest.approx(scal.value, rel=1e-9)
    assert vec.transmit_prob == pytest.approx(scal.transmit_prob, rel=1e-12)


def test_vector_isotropic_m5_and_no_jam():
    iso = DiagonalGaussian(np.zeros(5), np.full(5, 0.4))
    sad = solve_saddle(iso, GameCosts(1.0, 1.0))
    assert sad.case == INTERIOR_JAM
    assert 0.0 < sad.phi_star < 1.0
    # condition residual is tiny on the exact path
    resid = norm_sq_tail(iso)(sad.threshold, 1) - 1.0
    assert abs(resid) <= 1e-9

    no_jam = solve_saddle(
        DiagonalGaussian(np.zeros(3), np.ones(3)), GameCosts(1.0, 4.0)
    )
    assert no_jam.case == NO_JAM
    assert no_jam.phi_star == 0.0


@st.composite
def _isotropic_instances(draw):
    """(m, var, c, d) with var, c and d log-uniform; d at most 0.9 trace."""
    m = draw(st.integers(1, 64))
    var = 10.0 ** draw(st.floats(-3.0, 3.0))
    trace = m * var
    c = trace * 10.0 ** draw(st.floats(-4.0, 1.0))
    d = trace * 10.0 ** draw(st.floats(-6.0, math.log10(0.9)))
    return m, var, c, d


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instance=_isotropic_instances())
@example(instance=(7, 3.2541768737133654, 0.1744254987750131, 1.6028246347057813))
def test_vector_isotropic_root_solves_the_condition(instance):
    # the exact isotropic saddle shares the scalar root loop in the threshold:
    # it always converges, and at m = 1 it lands on the scalar saddle's root
    m, var, c, d = instance
    iso = DiagonalGaussian(np.zeros(m), np.full(m, var))
    costs = GameCosts(c, d)
    sad = solve_saddle(iso, costs)
    assert sad.phi_star == 1.0 - c / sad.threshold
    if sad.case == INTERIOR_JAM:
        assert abs(norm_sq_tail(iso)(sad.threshold, 1) - d) <= 1e-10
    else:
        assert sad.threshold == c
    if m == 1:
        scalar = solve_saddle(ScalarGaussian(0.0, var), costs).threshold
        assert sad.threshold == pytest.approx(scalar, rel=1e-12, abs=0.0)


# thresholds of the chi-square path that isotropic sources took before the
# tail integral covered every spectrum, frozen: (m, var, c, d) -> threshold
ISOTROPIC_THRESHOLDS = {
    (5, 0.4, 1.0, 1.0): 2.538324478208607,
    (7, 3.2541768737133654, 0.1744254987750131, 1.6028246347057813): 51.5365582762946,
    (2, 1.0, 0.5, 0.25): 7.214047072940363,
    (64, 0.01, 0.002, 1e-4): 1.15580454720146,
}


def test_vector_isotropic_thresholds_match_the_chi_square_path():
    for (m, var, c, d), threshold in ISOTROPIC_THRESHOLDS.items():
        iso = DiagonalGaussian(np.zeros(m), np.full(m, var))
        sad = solve_saddle(iso, GameCosts(c, d))
        assert sad.threshold == pytest.approx(threshold, rel=1e-12, abs=0.0)


def test_vector_mc_determinism_and_whitening():
    costs = GameCosts(1.0, 2.0)
    aniso = DiagonalGaussian(np.zeros(2), np.array([1.0, 3.0]))
    a = solve_saddle(aniso, costs)
    b = solve_saddle(aniso, costs)
    assert a.phi_star == b.phi_star and a.value == b.value
    corr = GeneralGaussian(
        np.array([1.0, -1.0]), np.array([[2.0, 1.0], [1.0, 2.0]])
    )
    c = solve_saddle(corr, costs)
    # same eigenvalues {1, 3}: the same equilibrium
    for field in ("threshold", "phi_star", "value", "transmit_prob"):
        assert getattr(c, field) == pytest.approx(getattr(a, field), rel=1e-12)
    assert np.allclose(c.estimator.x_hat0, corr.mean)
    assert np.allclose(c.estimator.x_hat1, corr.mean)
    assert c.threshold == pytest.approx(costs.c / (1.0 - c.phi_star), rel=1e-12)


def _spectrum(rng, m, log_kappa):
    """m eigenvalues log-uniform between 1 and 10^log_kappa, both ends taken,
    at a random scale."""
    lam = 10.0 ** rng.uniform(0.0, log_kappa, m)
    lam[:2] = 1.0, 10.0 ** log_kappa
    return lam * 10.0 ** rng.uniform(-2.0, 2.0)


def _mc_tail(source, r, seed):
    """Monte Carlo oracle: ((E[S 1(S > r)], SE), (P(S > r), SE)) for
    S = ||X - mean||^2, from 1e6 draws of `source` in five chunks."""
    draws, chunk = 1_000_000, 200_000
    total = total_sq = hits = 0.0
    for i in range(draws // chunk):
        x = sample(source, seed + i, chunk) - source.mean
        sq = np.einsum("ij,ij->i", x, x)
        over = np.where(sq > r, sq, 0.0)
        total, total_sq = total + over.sum(), total_sq + over @ over
        hits += np.count_nonzero(sq > r)
    mean, p = total / draws, hits / draws
    return (
        (mean, math.sqrt((total_sq / draws - mean * mean) / draws)),
        (p, math.sqrt(p * (1.0 - p) / draws)),
    )


@pytest.mark.parametrize("general, log_kappa", [
    (False, (0.0, 2.0)), (True, (2.0, 3.0)), (False, (6.0, 8.0)), (True, (4.0, 6.0)),
])
def test_vector_saddle_matches_monte_carlo_on_random_spectra(general, log_kappa):
    # seeded random spectra with lambda_max / lambda_min in [1, 1e8], on the
    # series side of the term budget and on Imhof's
    rng = np.random.default_rng([17, general, *map(int, log_kappa)])
    m = int(rng.integers(2, 7))
    lam = _spectrum(rng, m, rng.uniform(*log_kappa))
    assert (_ruben_terms(lam) > _MAX_TERMS) == (log_kappa[0] >= 4.0)
    mean = rng.uniform(-1.0, 1.0, m)
    if general:
        rotation = np.linalg.qr(rng.standard_normal((m, m)))[0]
        cov = rotation @ np.diag(lam) @ rotation.T
        source = GeneralGaussian(mean, 0.5 * (cov + cov.T))
    else:
        source = DiagonalGaussian(mean, lam)
    trace = lam.sum()
    costs = GameCosts(0.05 * trace, 0.3 * trace)
    sad = solve_saddle(source, costs)
    assert sad.case == INTERIOR_JAM
    (moment, moment_se), (p, p_se) = _mc_tail(source, sad.threshold, seed=23)
    assert abs(moment - costs.d) <= 5.0 * moment_se
    assert abs(p - sad.transmit_prob) <= 5.0 * p_se


def test_series_and_imhof_agree():
    lam = np.array([0.02, 0.3, 1.0, 2.5])
    trace, d = lam.sum(), 0.2
    series, imhof = _ruben_tail(lam, _ruben_terms(lam)), _imhof_tail(lam)
    for r in (0.0, 1e-9, 0.01, 1.0, 3.0, 10.0, 40.0):
        for p in (0, 1):
            assert abs(series(r, p) - imhof(r, p)) <= 1e-10 * trace**p
    roots = [_threshold_root(lambda x: tail(x, 1) - d, trace) for tail in (series, imhof)]
    assert roots[0] == pytest.approx(roots[1], rel=1e-9)
    # the isotropic series is the single chi-square term
    iso = norm_sq_tail(DiagonalGaussian(np.zeros(3), np.full(3, 2.0)))
    assert iso(5.0, 0) == stats.chi2.sf(2.5, 3)
    assert iso(5.0, 1) == 2.0 * 3 * stats.chi2.sf(2.5, 5)

"""Tests for the channel-sensing jammer game: regions, gradients, solvers."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special

from jamgame import network, reactive
from jamgame.gaussian import (
    DiagonalGaussian,
    GeneralGaussian,
    ScalarGaussian,
    _region_rows,
    sample,
)
from jamgame.proactive import GameCosts, ReprSymbols, objective_tilde, solve_saddle
from jamgame.reactive import (
    Evaluation,
    ExactScalarModel,
    McVectorModel,
    ReactivePolicy,
    SolverConfig,
    box_lp_gap,
    default_init,
    solve_gda,
    solve_pga_ccp,
    transmit_region,
)

STD = ScalarGaussian(0.0, 1.0)
UNIT_COSTS = GameCosts(1.0, 1.0)

# Frozen oracle values for the instance alpha=0.3, beta=0.1, x_hat=(0.2, -0.1),
# c=d=1, standard normal source.  The transmit-region endpoints are the roots
# of 0.9 x^2 - 0.24 x - 1.17 and the objective integrates the two quadratic
# branches against the density with the region endpoints as quadrature
# breakpoints (40-digit working precision, cross-checked against a
# closed-form truncated-moment evaluation; both agree to 25 digits).
REGION_LO = -1.01461169051483762
REGION_HI = 1.28127835718150429
OBJECTIVE_FROZEN = 0.364637844780907606


def _interval_mask(intervals, xs):
    mask = np.zeros(xs.shape, dtype=bool)
    for lo, hi in intervals:
        mask |= (xs > lo) & (xs < hi)
    return mask


def _segments(edges, first, transmit=True):
    """The open segments of the line cut at `edges` on which the rule
    (edges, first) of `transmit_region` transmits, or with `transmit` false
    stays silent: every other one, from the first or the second."""
    bounds = (-math.inf, *edges, math.inf)
    return tuple(zip(bounds[:-1], bounds[1:]))[0 if first == transmit else 1::2]


def _piece(lo, hi, s, var):
    """(P, E[Y 1], E[Y^2 1]) of Y ~ N(0, var), std s, over (lo, hi): each
    end's z, small tail P(Z > |z|), density q and z q, then the probability
    from the two small tails.  A copy of the library's piece, kept here so
    that the oracle below shares no code with `_region_rows`."""
    if not lo < hi:
        return 0.0, 0.0, 0.0
    ends = []
    for z in (lo / s, hi / s):
        q = 1.0 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * z * z)
        # q = 0 at an infinite end, where the product is 0
        ends.append((z, 0.5 * float(special.erfc(abs(z) / math.sqrt(2.0))), q,
                     z * q if q != 0.0 else 0.0))
    (za, ta, qa, ea), (zb, tb, qb, eb) = ends
    if za >= 0.0:
        p = ta - tb
    elif zb <= 0.0:
        p = tb - ta
    else:
        p = 1.0 - ta - tb
    p = max(p, 0.0)
    return p, s * (qa - qb), var * (p + ea - eb)


def _smooth_config(rng):
    """Random instance kept away from degenerate quadratics and the policy
    box boundary so central differences are trustworthy."""
    while True:
        source = ScalarGaussian(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        costs = GameCosts(rng.uniform(0.5, 2.0), rng.uniform(0.3, 2.0))
        symbols = ReprSymbols(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        policy = ReactivePolicy(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        a, b = policy.alpha, policy.beta
        x0, x1 = symbols.scalars()
        qa = 1.0 - b
        qb = -2.0 * ((a - b) * x1 + (1.0 - a) * x0)
        qc = (a - b) * x1**2 + (1.0 - a) * x0**2 - costs.c - costs.d * (a - b)
        disc = qb * qb - 4.0 * qa * qc
        scale = qb * qb + abs(4.0 * qa * qc) + 1.0
        if qa > 1e-2 and abs(disc) / scale > 1e-2:
            return source, costs, symbols, policy


def test_region_two_tail_threshold():
    edges, first = transmit_region(
        ReprSymbols(0.0, 0.7), ReactivePolicy(0.0, 0.0), UNIT_COSTS
    )
    lo, hi = edges
    assert first
    assert lo == pytest.approx(-1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert _segments(edges, first) == ((-math.inf, lo), (hi, math.inf))
    xs = np.array([1.5, -1.5, 0.0, 0.99])
    assert network._transmits(xs, edges, first).tolist() == [True, True, False, False]


def test_region_empty_when_always_jammed():
    edges, first = transmit_region(
        ReprSymbols(0.3, 0.3), ReactivePolicy(1.0, 1.0), UNIT_COSTS
    )
    assert (edges, first) == ((), False)
    assert _segments(edges, first) == ()
    assert _segments(edges, first, transmit=False) == ((-math.inf, math.inf),)
    assert not network._transmits(np.array([0.3]), edges, first)[0]
    # with no edge the one piece is the whole line, silent, and the transmit
    # row is empty
    assert _region_rows(edges, first, 2.0, 4.0) == (0.0, 0.0, 0.0, 1.0, 0.0, 4.0)


def test_region_full_line():
    # jamming only the occupied channel, at high jam cost: transmitting is
    # worth it everywhere because it provokes the expensive jam
    edges, first = transmit_region(
        ReprSymbols(0.0, 0.0), ReactivePolicy(0.0, 0.9), GameCosts(1.0, 2.0)
    )
    assert (edges, first) == ((), True)
    assert _segments(edges, first) == ((-math.inf, math.inf),)
    assert _segments(edges, first, transmit=False) == ()
    assert network._transmits(np.array([0.0]), edges, first)[0]


def test_region_linear_when_beta_one():
    # one sign change: a half-line transmits, right of it or left of it
    right = transmit_region(ReprSymbols(0.0, 1.0), ReactivePolicy(0.5, 1.0), UNIT_COSTS)
    ((edge,), first) = right
    assert edge == pytest.approx(1.0, abs=1e-12) and not first
    assert _segments(*right) == ((edge, math.inf),)
    left = transmit_region(ReprSymbols(0.0, -1.0), ReactivePolicy(0.5, 1.0), UNIT_COSTS)
    ((edge,), first) = left
    assert edge == pytest.approx(-1.0, abs=1e-12) and first
    assert _segments(*left) == ((-math.inf, edge),)
    xs = np.array([-2.0, -0.5, 0.5, 2.0])
    assert network._transmits(xs, *right).tolist() == [False, False, False, True]
    assert network._transmits(xs, *left).tolist() == [True, False, False, False]
    # both probabilities one: the comparison is constant and negative
    region = transmit_region(ReprSymbols(0.4, -0.2), ReactivePolicy(1.0, 1.0), UNIT_COSTS)
    assert region == ((), False)


def test_region_sign_scan():
    symbols = ReprSymbols(0.2, -0.1)
    policy = ReactivePolicy(0.3, 0.1)
    edges, first = transmit_region(symbols, policy, UNIT_COSTS)
    r1, r2 = edges
    assert first
    assert r1 == pytest.approx(REGION_LO, rel=1e-14)
    assert r2 == pytest.approx(REGION_HI, rel=1e-14)

    def q(x):
        # (alpha - beta)(x - x1)^2 + (1 - alpha)(x - x0)^2 - c - d (alpha - beta)
        return 0.2 * (x + 0.1) ** 2 + 0.7 * (x - 0.2) ** 2 - 1.0 - 0.2

    xs = np.linspace(-8.0, 8.0, 1_000_000)
    near_edge = (np.abs(xs - r1) < 1e-9) | (np.abs(xs - r2) < 1e-9)
    xs = xs[~near_edge]
    assert np.array_equal(_interval_mask(_segments(edges, first), xs), q(xs) > 0.0)
    # the simulator's mask of the same rule
    assert np.array_equal(network._transmits(xs, edges, first), q(xs) > 0.0)
    # a draw on an edge stays silent, as on an open segment's end
    assert not network._transmits(np.array(edges), edges, first).any()


def test_region_rejects_vector_symbols():
    symbols = ReprSymbols(np.array([0.2, -0.3]), np.array([-0.1, 0.4]))
    with pytest.raises(ValueError, match="scalar"):
        transmit_region(symbols, ReactivePolicy(0.3, 0.1), UNIT_COSTS)
    with pytest.raises(ValueError, match="^x_hat0 and x_hat1 must be 1-D of equal length$"):
        ReprSymbols(np.zeros(2), np.zeros(3))


def test_objective_frozen_value():
    model = ExactScalarModel(STD, UNIT_COSTS)
    value, _ = model.objective(ReprSymbols(0.2, -0.1), ReactivePolicy(0.3, 0.1))
    assert value == pytest.approx(OBJECTIVE_FROZEN, rel=1e-13)


def test_objective_matches_clipped_loss_at_zero_policy():
    rng = np.random.default_rng(11)
    for _ in range(25):
        source = ScalarGaussian(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        costs = GameCosts(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        symbols = ReprSymbols(rng.uniform(-2.0, 2.0), rng.uniform(-2, 2))
        model = ExactScalarModel(source, costs)
        value, _ = model.objective(symbols, ReactivePolicy(0.0, 0.0))
        # at phi = 0 the reduced objective is the clipped loss
        # E[min((X - x_hat0)^2, c)]
        expected = objective_tilde(source, costs, symbols, 0.0)
        assert value == pytest.approx(expected, rel=1e-12)


def test_reduction_to_proactive_identity():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        phi = rng.uniform(0.0, 0.999)
        source = ScalarGaussian(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        costs = GameCosts(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
        symbols = ReprSymbols(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs, _ = ExactScalarModel(source, costs).objective(
            symbols, ReactivePolicy(phi, phi)
        )
        rhs = objective_tilde(source, costs, symbols, phi)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_grad_xhat_matches_fd():
    rng = np.random.default_rng(31)
    h = 1e-5
    for _ in range(40):
        source, costs, symbols, policy = _smooth_config(rng)
        model = ExactScalarModel(source, costs)
        grad, _ = model.grad_xhat(symbols, policy)
        x0, x1 = symbols.scalars()
        for j, g in enumerate(grad):
            def at(eps):
                pt = [x0, x1]
                pt[j] += eps
                return model.objective(ReprSymbols(pt[0], pt[1]), policy)[0]

            fd = (at(h) - at(-h)) / (2.0 * h)
            assert abs(fd - g) <= 1e-6 * max(1.0, abs(g))


def test_grad_phi_matches_fd():
    rng = np.random.default_rng(37)
    h = 1e-5
    for _ in range(40):
        source, costs, symbols, policy = _smooth_config(rng)
        model = ExactScalarModel(source, costs)
        grad, _ = model.grad_phi(symbols, policy)
        base = np.array([policy.alpha, policy.beta])
        for i, g in enumerate(grad):
            def at(eps):
                p = base.copy()
                p[i] += eps
                return model.objective(symbols, ReactivePolicy(*p))[0]

            fd = (at(h) - at(-h)) / (2.0 * h)
            assert abs(fd - g) <= 1e-6 * max(1.0, abs(g))


def test_ccp_g_matches_fd_of_concave_part():
    rng = np.random.default_rng(41)
    h = 1e-5
    for _ in range(40):
        source, costs, symbols, policy = _smooth_config(rng)
        model = ExactScalarModel(source, costs)
        g = model.ccp_g(symbols, policy)
        x0, x1 = symbols.scalars()
        for j in range(2):
            def at(eps):
                pt = [x0, x1]
                pt[j] += eps
                return model.dc_concave_part(ReprSymbols(pt[0], pt[1]), policy)[0]

            fd = (at(h) - at(-h)) / (2.0 * h)
            assert abs(fd - g[j]) <= 1e-6 * max(1.0, abs(g[j]))


def test_ccp_update_solves_block_system():
    rng = np.random.default_rng(43)
    for _ in range(25):
        source, costs, symbols, policy = _smooth_config(rng)
        model = ExactScalarModel(source, costs)
        g = model.ccp_g(symbols, policy)
        new = model.ccp_update(symbols, policy)
        n0, n1 = new.scalars()
        assert 2.0 * (1.0 - policy.alpha) * (n0 - source.mean) == pytest.approx(
            g[0], abs=1e-12
        )
        assert 2.0 * (policy.alpha + policy.beta) * (n1 - source.mean) == pytest.approx(
            g[1], abs=1e-12
        )
    # singular blocks park the symbol at the mean
    src = ScalarGaussian(0.4, 1.0)
    model = ExactScalarModel(src, GameCosts(1e8, 1.0))
    new = model.ccp_update(ReprSymbols(3.0, -2.0), ReactivePolicy(0.0, 0.0))
    assert new.scalars() == (pytest.approx(0.4), pytest.approx(0.4))
    model = ExactScalarModel(src, UNIT_COSTS)
    new = model.ccp_update(ReprSymbols(3.0, -2.0), ReactivePolicy(1.0, 0.3))
    assert new.scalars()[0] == pytest.approx(0.4)


def test_ccp_descent_along_trace():
    config = SolverConfig(epsilon=1e-5, max_iters=400)
    report = solve_pga_ccp(STD, UNIT_COSTS, config)
    model = ExactScalarModel(STD, UNIT_COSTS)
    symbols, _ = default_init(STD)
    prev = symbols
    for row in report.trace:
        policy = ReactivePolicy(row.alpha, row.beta)
        before, _ = model.objective(prev, policy)
        after, _ = model.objective(ReprSymbols(row.x_hat0, row.x_hat1), policy)
        assert after <= before + 1e-10
        prev = ReprSymbols(row.x_hat0, row.x_hat1)


def test_fixed_point_at_convergence():
    config = SolverConfig(epsilon=1e-7, max_iters=20_000)
    report = solve_pga_ccp(STD, UNIT_COSTS, config)
    assert report.converged
    updated = ExactScalarModel(STD, UNIT_COSTS).ccp_update(
        report.symbols, report.policy
    )
    gap = np.concatenate(
        [
            updated.x_hat0 - report.symbols.x_hat0,
            updated.x_hat1 - report.symbols.x_hat1,
        ]
    )
    assert np.linalg.norm(gap) <= 1e-6


def test_index_vanishes_at_embedded_saddle():
    # jamming cost above the conditional tail second moment: the no-jam
    # proactive saddle is also a first-order equilibrium against the
    # channel-sensing jammer
    costs = GameCosts(1.0, 3.0)
    saddle = solve_saddle(STD, costs)
    assert saddle.case == "no_jam"
    phi = saddle.phi_star
    idx, _ = ExactScalarModel(STD, costs).fne_index(
        ReprSymbols(0.0, 0.0), ReactivePolicy(phi, phi)
    )
    assert idx <= 1e-8


def test_box_lp_gap_vertex_bruteforce():
    rng = np.random.default_rng(47)
    for _ in range(200):
        grad = rng.uniform(-2.0, 2.0, size=2)
        point = rng.uniform(0.0, 1.0, size=2)
        best = max(
            float(grad @ (np.array(v) - point))
            for v in [(0, 0), (0, 1), (1, 0), (1, 1)]
        )
        gap = box_lp_gap(grad, point)
        assert gap == pytest.approx(best, abs=1e-12)
        perm = np.array([1, 0])
        assert box_lp_gap(grad[perm], point[perm]) == pytest.approx(gap, abs=1e-15)


def test_pga_ccp_scalar_equilibrium():
    report = solve_pga_ccp(STD, UNIT_COSTS)
    assert report.converged and report.iterations <= 5000
    x0, x1 = report.symbols.scalars()
    assert abs(x0) > 0.1 and abs(x1) > 0.1
    assert abs(x0 - x1) > 0.5
    assert report.policy.beta > 0.0
    # the report repeats the trace tail, and recomputing the certificate at
    # the reported point reproduces it
    assert report.fne_index == report.trace[-1].fne_index
    recomputed, _ = ExactScalarModel(STD, UNIT_COSTS).fne_index(
        report.symbols, report.policy
    )
    assert abs(recomputed - report.fne_index) <= 1e-12
    assert min(row.fne_index for row in report.trace) <= 0.05


def test_alpha_clamps_when_jamming_expensive():
    report = solve_pga_ccp(STD, GameCosts(1.0, 1.5))
    assert report.converged
    assert report.policy.alpha <= 1e-8


def test_gda_baseline_report():
    config = SolverConfig(epsilon=1e-5, max_iters=3000)
    report = solve_gda(STD, UNIT_COSTS, config)
    assert report.iterations == len(report.trace)
    assert report.converged
    assert report.fne_index <= config.epsilon
    # the alternating solver needs at most half the iterations here
    alt = solve_pga_ccp(STD, UNIT_COSTS, config)
    assert alt.iterations <= report.iterations // 2


def test_step_rule_and_config_validation():
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            SolverConfig(epsilon=bad)
    for name in ("pga_step", "gd_step"):
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                SolverConfig(**{name: bad})
    with pytest.raises(ValueError):
        SolverConfig(pga_step_rule="linear")
    # counts are Python or numpy integers, never a float or a bool
    for name, bad in (("max_iters", 2.5), ("mc_samples", 100.5), ("max_iters", True)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            SolverConfig(**{name: bad})
    assert SolverConfig(max_iters=np.int64(7)).max_iters == 7
    with pytest.raises(ValueError):
        ReactivePolicy(1.2, 0.0)
    # the solver loop checks every iterate as ReactivePolicy and ReprSymbols
    # do: the ascent overflows to NaN, and the descent to infinite symbols
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got nan$"):
        solve_gda(ScalarGaussian(0.0, 1e300), UNIT_COSTS,
                  SolverConfig(gd_step=1e10, max_iters=50))
    with pytest.raises(ValueError, match="^symbols must be finite$"), \
            np.errstate(over="ignore", invalid="ignore"):
        solve_gda(DiagonalGaussian(np.zeros(2), np.array([1e4, 2e4])), UNIT_COSTS,
                  SolverConfig(gd_step=1e308, max_iters=50, mc_samples=1000))
    # the decayed rule trades speed for robustness: allow a looser target
    decayed = SolverConfig(epsilon=1e-3, pga_step_rule="inv_sqrt", max_iters=3000)
    report = solve_pga_ccp(STD, UNIT_COSTS, decayed)
    assert report.converged
    constant = solve_pga_ccp(STD, UNIT_COSTS, SolverConfig(epsilon=1e-3))
    assert constant.iterations < report.iterations


def test_vector_mc_determinism():
    src = DiagonalGaussian(np.zeros(3), np.array([1.0, 2.0, 0.5]))
    config = SolverConfig(epsilon=0.1, max_iters=500, mc_samples=10_000, seed=3)
    rep_a = solve_pga_ccp(src, UNIT_COSTS, config)
    rep_b = solve_pga_ccp(src, UNIT_COSTS, config)
    assert rep_a.converged
    assert rep_a.fne_index == rep_b.fne_index
    assert rep_a.iterations == rep_b.iterations
    assert np.array_equal(rep_a.symbols.x_hat0, rep_b.symbols.x_hat0)
    assert np.array_equal(rep_a.symbols.x_hat1, rep_b.symbols.x_hat1)
    other = solve_pga_ccp(
        src, UNIT_COSTS, SolverConfig(epsilon=0.1, max_iters=500, mc_samples=10_000, seed=4)
    )
    assert other.fne_index != rep_a.fne_index


# Solves pinned at their iteration count, converged flag and final
# objective and index: (solver, source, costs, config, iterations,
# converged, objective, fne_index), an index of None left unpinned.  The
# vector solves are seeded; Monte Carlo kernels that sum the same draws in
# another order move the objective by rounding only, never the trajectory.
# The exact scalar solves pin each update rule and step rule over tens to
# thousands of iterations, and a GDA run stopped by max_iters.
_SCALAR = ScalarGaussian(0.3, 1.7), GameCosts(0.8, 1.2)
_PINNED_SOLVES = {
    "scalar-pga-ccp": (
        solve_pga_ccp, *_SCALAR, SolverConfig(epsilon=1e-5),
        57, True, 0.8827709459171886, 5.086123544484245e-06,
    ),
    "scalar-pga-ccp-inv-sqrt": (
        solve_pga_ccp, *_SCALAR,
        SolverConfig(epsilon=1e-4, pga_step_rule="inv_sqrt"),
        391, True, 0.8827709413468671, 9.720936593448794e-05,
    ),
    "scalar-gda": (
        solve_gda, *_SCALAR, SolverConfig(epsilon=1e-5),
        3067, True, 0.8827709460677143, 9.992178463850951e-06,
    ),
    "scalar-gda-capped": (
        solve_gda, *_SCALAR, SolverConfig(epsilon=1e-5, max_iters=3000),
        3000, False, 0.8827709461499265, 1.2227635461243579e-05,
    ),
    "diagonal-3": (
        solve_pga_ccp,
        DiagonalGaussian(np.array([0.5, -0.25, 0.0]), np.array([0.5, 1.5, 3.0])),
        GameCosts(1.0, 0.75), SolverConfig(epsilon=0.05, mc_samples=20_000, seed=7),
        5, True, 4.517600299469167, None,
    ),
    "general-3": (
        solve_pga_ccp,
        GeneralGaussian(
            np.array([0.1, 0.0, -0.2]),
            np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.5]]),
        ),
        GameCosts(0.8, 1.2), SolverConfig(epsilon=0.05, mc_samples=15_000, seed=11),
        8, True, 2.6390464791152177, None,
    ),
    "diagonal-6": (
        solve_pga_ccp,
        DiagonalGaussian(np.zeros(6), np.linspace(0.5, 5.0, 6)),
        GameCosts(1.5, 0.6),
        SolverConfig(epsilon=0.02, mc_samples=30_000, seed=3, max_iters=60),
        14, True, 16.038118241011983, None,
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SOLVES))
def test_solver_trajectories_pinned(name):
    solve, source, costs, config, iterations, converged, value, index = (
        _PINNED_SOLVES[name])
    report = solve(source, costs, config)
    assert report.iterations == iterations
    assert report.converged is converged
    assert report.trace[-1].objective == pytest.approx(value, rel=1e-12, abs=0.0)
    if index is not None:
        assert report.fne_index == pytest.approx(index, rel=1e-12, abs=0.0)


def test_vector_mc_gradients_coupled_fd():
    src = DiagonalGaussian(np.zeros(3), np.array([1.0, 2.0, 0.5]))
    model = McVectorModel(src, UNIT_COSTS, samples=20_000, seed=11)
    symbols = ReprSymbols(np.array([0.3, -0.2, 0.1]), np.array([-0.1, 0.4, 0.0]))
    policy = ReactivePolicy(0.4, 0.3)
    h = 1e-5
    grad, _ = model.grad_xhat(symbols, policy)
    flat = np.concatenate([symbols.x_hat0, symbols.x_hat1])
    for j in range(6):
        def at(eps):
            bumped = flat.copy()
            bumped[j] += eps
            return model.objective(ReprSymbols(bumped[:3], bumped[3:]), policy)[0]

        fd = (at(h) - at(-h)) / (2.0 * h)
        assert abs(fd - grad[j]) <= 1e-6 * max(1.0, abs(grad[j]))
    gphi, _ = model.grad_phi(symbols, policy)
    base = np.array([policy.alpha, policy.beta])
    for i in range(2):
        def at_phi(eps):
            p = base.copy()
            p[i] += eps
            return model.objective(symbols, ReactivePolicy(*p))[0]

        fd = (at_phi(h) - at_phi(-h)) / (2.0 * h)
        assert abs(fd - gphi[i]) <= 1e-6 * max(1.0, abs(gphi[i]))


def test_mc_objective_matches_exact_within_3_se():
    src = DiagonalGaussian(np.array([0.2]), np.array([1.3]))
    exact_src = ScalarGaussian(0.2, 1.3)
    symbols = ReprSymbols(0.5, -0.3)
    policy = ReactivePolicy(0.35, 0.2)
    model = McVectorModel(src, UNIT_COSTS, samples=200_000, seed=19)
    est, se = model.objective(symbols, policy)
    truth, _ = ExactScalarModel(exact_src, UNIT_COSTS).objective(symbols, policy)
    assert abs(est - truth) <= 3.0 * se


def test_scalar_ops_reject_vector_sources():
    src = DiagonalGaussian(np.zeros(2), np.ones(2))
    with pytest.raises(TypeError, match="scalar"):
        ExactScalarModel(src, UNIT_COSTS)
    with pytest.raises(TypeError):
        McVectorModel(STD, UNIT_COSTS)
    with pytest.raises(ValueError, match="^samples must be at least 2, got 1$"):
        McVectorModel(src, UNIT_COSTS, samples=1)
    with pytest.raises(ValueError, match="^samples must be an integer, got 2.5$"):
        McVectorModel(src, UNIT_COSTS, samples=2.5)
    # a source of no supported type is refused by name
    with pytest.raises(TypeError, match="^unsupported source type str$"):
        solve_pga_ccp("N(0, 1)", UNIT_COSTS)


def _per_sample_reference(source, costs, seed, n, symbols, policy):
    """Every MC statistic from stacked per-sample arrays, mean / std(ddof=1),
    over the draws `McVectorModel(source, costs, n, seed)` is built on."""
    a, b = policy.alpha, policy.beta
    c, d = costs.c, costs.d
    draws = sample(source, seed, n)
    dev0 = draws - symbols.x_hat0
    dev1 = draws - symbols.x_hat1
    sq0 = np.sum(dev0 * dev0, axis=1)
    sq1 = np.sum(dev1 * dev1, axis=1)
    f_t = b * sq1 + c - d * b
    f_nt = a * sq1 + (1.0 - a) * sq0 - d * a
    tx = (f_nt - f_t > 0.0)[:, None]
    sil = ~tx
    per = {
        "objective": np.where(tx[:, 0], f_t, f_nt),
        "concave": np.where(tx[:, 0], f_nt, f_t),
        "grad_xhat": np.hstack([
            -2.0 * (1.0 - a) * dev0 * sil,
            -2.0 * b * dev1 * tx - 2.0 * a * dev1 * sil,
        ]),
        "grad_phi": np.column_stack([(sq1 - sq0 - d) * sil[:, 0], (sq1 - d) * tx[:, 0]]),
        "ccp_g": np.hstack([
            -2.0 * (1.0 - a) * dev0 * tx,
            -2.0 * b * dev1 * sil - 2.0 * a * dev1 * tx,
        ]),
    }
    return {
        k: (v.mean(axis=0), v.std(axis=0, ddof=1) / math.sqrt(n))
        for k, v in per.items()
    }


def test_mc_evaluate_matches_per_sample_reference():
    src = DiagonalGaussian(np.array([0.4, -0.7, 0.1]), np.array([1.0, 2.0, 0.5]))
    costs = GameCosts(1.2, 0.7)
    model = McVectorModel(src, costs, samples=5_000, seed=9)
    rng = np.random.default_rng(53)
    cases = [
        (ReprSymbols(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)),
         ReactivePolicy(*rng.uniform(0.0, 1.0, 2)))
        for _ in range(12)
    ]
    edge = ReprSymbols(np.array([0.3, -0.2, 0.5]), np.array([-0.6, 0.1, 0.0]))
    cases += [(edge, ReactivePolicy(0.0, 0.0)), (edge, ReactivePolicy(1.0, 1.0))]
    # the split's q loses its sq1 term at an interior alpha = beta, and its
    # sq0 term at alpha = 1, beta = 0
    cases += [(edge, ReactivePolicy(0.4, 0.4)), (edge, ReactivePolicy(1.0, 0.0))]
    for symbols, policy in cases:
        ev = model.evaluate(symbols, policy)
        ref = _per_sample_reference(src, costs, 9, 5_000, symbols, policy)
        for name, (mean, se) in ref.items():
            np.testing.assert_allclose(getattr(ev, name), mean, rtol=1e-12, atol=0)
            np.testing.assert_allclose(getattr(ev, name + "_se"), se, rtol=1e-9, atol=0)
        gx, gp = ref["grad_xhat"], ref["grad_phi"]
        idx = max(np.linalg.norm(gx[0]),
                  box_lp_gap(gp[0], np.array([policy.alpha, policy.beta])))
        assert ev.fne_index == pytest.approx(idx, rel=1e-12)
        assert ev.fne_index_se == pytest.approx(
            max(np.linalg.norm(gx[1]), np.linalg.norm(gp[1])), rel=1e-9
        )
        # the per-quantity methods are views of the same evaluation
        assert model.objective(symbols, policy) == (ev.objective, ev.objective_se)
        assert model.fne_index(symbols, policy) == (ev.fne_index, ev.fne_index_se)
        assert np.array_equal(model.ccp_g(symbols, policy), ev.ccp_g)


def test_exact_evaluate_bundles_the_model_methods():
    rng = np.random.default_rng(59)
    for _ in range(10):
        source, costs, symbols, policy = _smooth_config(rng)
        model = ExactScalarModel(source, costs)
        ev = model.evaluate(symbols, policy)
        assert model.objective(symbols, policy) == (ev.objective, 0.0)
        assert model.dc_concave_part(symbols, policy) == (ev.concave, 0.0)
        assert np.array_equal(model.grad_phi(symbols, policy)[0], ev.grad_phi)
        assert np.array_equal(model.grad_xhat(symbols, policy)[0], ev.grad_xhat)
        assert model.fne_index(symbols, policy) == (ev.fne_index, 0.0)
        assert np.array_equal(model.ccp_g(symbols, policy), ev.ccp_g)


def _per_piece_reference(source, costs, symbols, policy):
    """Every exact statistic in the deviation frame Y = X - mean: one
    `_piece` per segment of the line on which the rule of the symbols'
    deviations transmits and per segment on which it is silent, each row's
    pieces summed before its quadratic a2 M2 + a1 M1 + a0 P."""
    a, b = policy.alpha, policy.beta
    x0, x1 = (x - source.mean for x in symbols.scalars())
    c, d = costs.c, costs.d
    rule = transmit_region(ReprSymbols(x0, x1), policy, costs)

    def row(segments):
        total = [0.0, 0.0, 0.0]
        for lo, hi in segments:
            for k, v in enumerate(_piece(lo, hi, source.std, source.var)):
                total[k] += v
        return total

    t, n = row(_segments(*rule)), row(_segments(*rule, transmit=False))

    def quad(a2, a1, a0, moments):
        p, m1, m2 = moments
        return a2 * m2 + a1 * m1 + a0 * p

    f_t = (b, -2.0 * b * x1, b * x1 * x1 + c - d * b)
    f_nt = (1.0, -2.0 * (a * x1 + (1.0 - a) * x0),
            a * x1 * x1 + (1.0 - a) * x0 * x0 - d * a)
    (p_t, m1_t, _), (p_n, m1_n, _) = t, n
    grad_xhat = np.array([
        -2.0 * (1.0 - a) * (m1_n - x0 * p_n),
        -2.0 * b * (m1_t - x1 * p_t) - 2.0 * a * (m1_n - x1 * p_n),
    ])
    grad_phi = np.array([
        quad(0.0, 2.0 * (x0 - x1), x1 * x1 - x0 * x0 - d, n),
        quad(1.0, -2.0 * x1, x1 * x1 - d, t),
    ])
    return {
        "objective": quad(*f_t, t) + quad(*f_nt, n),
        "concave": quad(*f_t, n) + quad(*f_nt, t),
        "grad_xhat": grad_xhat,
        "grad_phi": grad_phi,
        "ccp_g": np.array([
            -2.0 * (1.0 - a) * (m1_t - x0 * p_t),
            -2.0 * b * (m1_n - x1 * p_n) - 2.0 * a * (m1_t - x1 * p_t),
        ]),
        "fne_index": max(
            _norm_reference(grad_xhat),
            box_lp_gap(grad_phi, np.array([policy.alpha, policy.beta])),
        ),
    }


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


_unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))

# region shapes the property test below always meets: its arguments, and
# the transmit intervals' endpoints as -1 / 0 / +1 for -inf / finite / +inf
_SHAPES = {
    "b = 1, transmit right": (
        dict(mean=0.0, var=1.0, c=1.0, d=1.0, x0=0.0, x1=1.0, alpha=0.5, beta=1.0),
        ((0, 1),)),
    "b = 1, transmit left": (
        dict(mean=0.2, var=2.0, c=1.0, d=1.0, x0=0.0, x1=-1.0, alpha=0.5, beta=1.0),
        ((-1, 0),)),
    "full line": (
        dict(mean=0.0, var=1.0, c=1.0, d=2.0, x0=0.0, x1=0.0, alpha=0.0, beta=0.9),
        ((-1, 1),)),
    "empty": (
        dict(mean=-0.4, var=0.7, c=1.0, d=1.0, x0=0.3, x1=0.3, alpha=1.0, beta=1.0),
        ()),
    "two tails": (
        dict(mean=0.0, var=1.0, c=1.0, d=1.0, x0=0.2, x1=-0.1, alpha=0.3, beta=0.1),
        ((-1, 0), (0, 1))),
}


def _instance(mean, var, c, d, x0, x1, alpha, beta):
    return (ScalarGaussian(mean, var), GameCosts(c, d), ReprSymbols(x0, x1),
            ReactivePolicy(alpha, beta))


def test_region_shape_examples():
    for name, (kwargs, shape) in _SHAPES.items():
        _, costs, symbols, policy = _instance(**kwargs)
        segments = _segments(*transmit_region(symbols, policy, costs))
        got = tuple(tuple(0 if math.isfinite(v) else int(math.copysign(1, v))
                          for v in piece) for piece in segments)
        assert got == shape, name


def _with_shape_examples(test):
    for kwargs, _ in _SHAPES.values():
        test = example(**kwargs)(test)
    return test


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    mean=st.floats(-3.0, 3.0), var=st.floats(0.05, 10.0),
    c=st.floats(0.05, 5.0), d=st.floats(0.05, 5.0),
    x0=st.floats(-5.0, 5.0), x1=st.floats(-5.0, 5.0), alpha=_unit, beta=_unit,
)
@_with_shape_examples
def test_exact_evaluate_matches_per_piece_reference(mean, var, c, d, x0, x1, alpha, beta):
    source, costs, symbols, policy = _instance(mean, var, c, d, x0, x1, alpha, beta)
    ref = _per_piece_reference(source, costs, symbols, policy)
    model = ExactScalarModel(source, costs)
    ev = model.evaluate(symbols, policy)
    for name, want in ref.items():
        assert _bits(getattr(ev, name)) == _bits(want), (name, getattr(ev, name), want)
        assert not np.any(getattr(ev, name + "_se"))
    assert type(ev.objective) is float and type(ev.fne_index) is float
    assert _bits(model.ccp_g(symbols, policy)) == _bits(ev.ccp_g)


@pytest.mark.parametrize("mean", [1.0, 1e2, 1e4, 1e6, 1e8])
def test_exact_model_reads_only_the_deviation(mean):
    # deviations 0.25 and -0.125 are exact in floating point at each mean,
    # so the shifted model sees the centred one's deviations and every
    # statistic is its twin's bit for bit
    costs = GameCosts(1.0, 0.5)
    shifted = ExactScalarModel(ScalarGaussian(mean, 1.0), costs)
    centred = ExactScalarModel(STD, costs)
    far = ReprSymbols(mean + 0.25, mean - 0.125)
    near = ReprSymbols(0.25, -0.125)
    assert tuple(x - mean for x in far.scalars()) == near.scalars()
    # two finite edges, one edge (beta = 1), the full line and the empty one
    for alpha, beta in ((0.3, 0.6), (0.5, 1.0), (0.0, 0.0), (1.0, 1.0)):
        policy = ReactivePolicy(alpha, beta)
        ev, twin = shifted.evaluate(far, policy), centred.evaluate(near, policy)
        for name in Evaluation._fields:
            got, want = getattr(ev, name), getattr(twin, name)
            assert _bits(got) == _bits(want), (name, policy, got, want)
        assert _bits(shifted.ccp_g(far, policy)) == _bits(twin.ccp_g)
    # the whole PGA-CCP solve on N(mean, 2) and N(0, 2) with the default
    # config: the iterates' deviations round, so the same iterations reach
    # the same value to rounding
    far_solve, near_solve = (
        solve_pga_ccp(ScalarGaussian(mu, 2.0), UNIT_COSTS, SolverConfig())
        for mu in (mean, 0.0)
    )
    assert far_solve.iterations == near_solve.iterations
    assert far_solve.trace[-1].objective == pytest.approx(
        near_solve.trace[-1].objective, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mean", [2.0**40, 1e15])
@pytest.mark.parametrize("general", [False, True])
def test_mc_model_reads_only_the_deviation(mean, general):
    # the draws are deviations, never shifted by the mean and back, and the
    # symbol deviations (multiples of 1/8) are exact at each mean, so the
    # shifted model's statistics are the centred one's bit for bit
    variances = np.array([0.5, 1.5, 3.0])
    rotation, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    centre = mean * np.array([1.0, -1.0, 1.0])

    def model(mu):
        if general:
            source = GeneralGaussian(mu, (rotation * variances) @ rotation.T)
        else:
            source = DiagonalGaussian(mu, variances)
        return McVectorModel(source, GameCosts(1.0, 0.75), samples=2_000, seed=5)

    shifted, centred = model(centre), model(np.zeros(3))
    y0, y1 = np.array([0.25, -0.125, 1.5]), np.array([-0.5, 0.75, 0.0])
    far = ReprSymbols(centre + y0, centre + y1)
    assert np.array_equal(far.x_hat0 - centre, y0)
    assert np.array_equal(far.x_hat1 - centre, y1)
    near = ReprSymbols(y0, y1)
    for alpha, beta in ((0.3, 0.6), (0.5, 1.0), (0.0, 0.0), (1.0, 1.0)):
        policy = ReactivePolicy(alpha, beta)
        ev, twin = shifted.evaluate(far, policy), centred.evaluate(near, policy)
        for name in Evaluation._fields:
            got, want = getattr(ev, name), getattr(twin, name)
            assert _bits(got) == _bits(want), (name, policy, got, want)
        assert _bits(shifted.ccp_g(far, policy)) == _bits(twin.ccp_g)


@st.composite
def _mc_cases(draw):
    """A diagonal or general-covariance source (m 1-12, variances or
    eigenvalues 0.1-10, means in [-10, 10]), symbols within 3 sd of the
    mean, a policy, costs, and a sample set (N 100-5000, seed)."""
    m = draw(st.integers(1, 12))
    vectors = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=m, max_size=m)
    mean = np.array(draw(vectors(-10.0, 10.0)))
    variances = np.array(draw(vectors(0.1, 10.0)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rotation, _ = np.linalg.qr(rng.standard_normal((m, m)))
        source = GeneralGaussian(mean, (rotation * variances) @ rotation.T)
        sd = np.sqrt(np.diag(source.covariance))
    else:
        source = DiagonalGaussian(mean, variances)
        sd = np.sqrt(variances)
    symbols = ReprSymbols(
        mean + sd * np.array(draw(vectors(-3.0, 3.0))),
        mean + sd * np.array(draw(vectors(-3.0, 3.0))),
    )
    # no subnormal jam probability: its gradients sit below the resolution
    # of a relative bar
    prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_subnormal=False))
    policy = ReactivePolicy(draw(prob), draw(prob))
    costs = GameCosts(draw(st.floats(0.05, 5.0)), draw(st.floats(0.05, 5.0)))
    # at beta = 1 with equal symbols and c = d (1 - alpha) the two branch
    # costs are equal on every sample, so rounding alone picks who transmits
    assume(not (
        policy.beta > 1.0 - 1e-6
        and np.allclose(symbols.x_hat0, symbols.x_hat1, rtol=1e-6, atol=0.0)
        and math.isclose(costs.c, costs.d * (1.0 - policy.alpha), rel_tol=1e-6)
    ))
    n, seed = draw(st.integers(100, 5_000)), draw(st.integers(0, 2**32 - 1))
    return source, costs, seed, n, symbols, policy


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_mc_cases())
def test_mc_evaluate_matches_per_sample_reference_property(case):
    source, costs, seed, n, symbols, policy = case
    model = McVectorModel(source, costs, n, seed)
    ev = model.evaluate(symbols, policy)
    for name, (mean, se) in _per_sample_reference(*case).items():
        # rounding scales with the per-sample terms' spread, sqrt(n) se, so a
        # component near zero is held to that scale and not to its own size
        err = np.abs(getattr(ev, name) - mean)
        assert np.all(err <= 1e-12 * (np.abs(mean) + math.sqrt(n) * se)), name
        # an SE comes from sum x^2 - n mean^2, whose rounding scales with the
        # second moment: where the spread is far below the mean (beta = 0 and
        # the symbols at the mean) its digits go, on the parent's kernel too
        got = getattr(ev, name + "_se")
        assert np.all(np.abs(got**2 - se**2) <= 1e-9 * (se**2 + mean**2 / n)), name
    assert _bits(model.ccp_g(symbols, policy)) == _bits(ev.ccp_g)


def _reference_trace(solve, source, costs, config):
    """`solve`'s trace rows, replayed on the public model methods
    (`evaluate`, and `ccp_update` for PGA-CCP) and the projected policy
    step, each row a tuple of `TraceRow`'s fields."""
    model = ExactScalarModel(source, costs)
    symbols, policy = default_init(source)
    ev = model.evaluate(symbols, policy)
    rows = []
    for k in range(1, config.max_iters + 1):
        step = config.pga_step
        if config.pga_step_rule == "inv_sqrt":
            step /= math.sqrt(k)
        policy = ReactivePolicy(*(
            min(max(p + step * g, 0.0), 1.0)
            for p, g in zip((policy.alpha, policy.beta), ev.grad_phi.tolist())
        ))
        if solve is solve_pga_ccp:
            symbols = model.ccp_update(symbols, policy)
        else:
            symbols = ReprSymbols(*(
                x - config.gd_step * g
                for x, g in zip(symbols.scalars(), ev.grad_xhat.tolist())
            ))
        ev = model.evaluate(symbols, policy)
        rows.append((
            k, ev.fne_index, ev.fne_index_se, ev.objective, policy.alpha,
            policy.beta, symbols.x_hat0, symbols.x_hat1,
        ))
        if ev.fne_index <= config.epsilon + 3.0 * ev.fne_index_se:
            break
    return rows


@pytest.mark.parametrize("solve, config", [
    (solve_pga_ccp, SolverConfig(epsilon=1e-5)),
    (solve_pga_ccp, SolverConfig(epsilon=1e-4, pga_step_rule="inv_sqrt")),
    (solve_gda, SolverConfig(epsilon=1e-4, max_iters=800)),
])
def test_scalar_trace_replays_the_public_methods(solve, config):
    # the solver loop reads its cores' plain tuples; every trace field is
    # the public methods' bit for bit, on sources at several means and scales
    for source, costs in (
        _SCALAR, (STD, UNIT_COSTS), (ScalarGaussian(-40.0, 0.3), GameCosts(0.2, 0.4)),
        (ScalarGaussian(2.5, 4.0), GameCosts(1.5, 2.0)),
    ):
        report = solve(source, costs, config)
        want = _reference_trace(solve, source, costs, config)
        assert len(report.trace) == len(want) == report.iterations
        for row, ref in zip(report.trace, want):
            assert type(row) is reactive.TraceRow
            for field, got, value in zip(row._fields, row, ref):
                assert _bits(got) == _bits(value), (field, got, value)
        assert report.objective == report.trace[-1].objective
        assert _bits(report.symbols.x_hat0) == _bits(report.trace[-1].x_hat0)
        assert _bits(report.symbols.x_hat1) == _bits(report.trace[-1].x_hat1)


def _counting(base):
    # counts the model cores, which the solver loop calls
    class Counting(base):
        calls = 0
        ccp_g_calls = 0

        def _evaluate(self, x0, x1, a, b):
            type(self).calls += 1
            return super()._evaluate(x0, x1, a, b)

        def _ccp_g(self, x0, x1, a, b):
            type(self).ccp_g_calls += 1
            return super()._ccp_g(x0, x1, a, b)

    return Counting


@pytest.mark.parametrize("vector", [False, True])
def test_solvers_evaluate_once_per_point(monkeypatch, vector):
    name = "McVectorModel" if vector else "ExactScalarModel"
    counting = _counting(getattr(reactive, name))
    monkeypatch.setattr(reactive, name, counting)
    if vector:
        src = DiagonalGaussian(np.zeros(3), np.array([1.0, 2.0, 0.5]))
        config = SolverConfig(epsilon=0.1, max_iters=40, mc_samples=2_000, seed=3)
    else:
        src, config = STD, SolverConfig(epsilon=1e-5, max_iters=400)
    report = solve_pga_ccp(src, UNIT_COSTS, config)
    # the CCP step computes ccp_g alone
    assert counting.ccp_g_calls == report.iterations
    assert 0 < counting.calls <= report.iterations + 1
    counting.calls = 0
    report = solve_gda(src, UNIT_COSTS, config)
    assert 0 < counting.calls <= report.iterations + 1


def _norm_reference(gx) -> float:
    return math.sqrt(math.fsum([g * g for g in np.asarray(gx).tolist()]))


def test_fne_index_norm_is_exactly_rounded():
    # Gradient pairs whose BLAS dot product, on builds that fuse the
    # multiply-add, rounds to a different norm than the exactly rounded sum
    # of squares; the index must not depend on the build.
    policy = ReactivePolicy(0.5, 0.5)
    for pair in (
        ("0x1.1875bf6652583p-12", "-0x1.d8e4e9dc0a3f2p-13"),
        ("-0x1.dfae888bef3f3p-10", "0x1.26391cd94698ap-11"),
        ("0x1.534a9379eee9dp+2", "0x1.0d5e4d9630810p+4"),
        ("-0x1.00bf0bb807d7ap-20", "0x1.1f599db01f03bp-19"),
    ):
        gx = np.array([float.fromhex(h) for h in pair])
        # zero policy gradient: the box gap is 0 and the norm is the index
        index = reactive._certificate(gx, (0.0, 0.0), (policy.alpha, policy.beta))
        assert index.hex() == _norm_reference(gx).hex()
    # the index of the exact scalar and the Monte Carlo model at random points
    rng = np.random.default_rng(71)
    models = [
        ExactScalarModel(ScalarGaussian(0.3, 1.7), GameCosts(0.8, 1.2)),
        McVectorModel(
            DiagonalGaussian(np.zeros(3), np.array([1.0, 0.5, 2.0])),
            GameCosts(1.0, 1.0), samples=2000, seed=3,
        ),
    ]
    for model in models:
        m = 1 if isinstance(model, ExactScalarModel) else 3
        for _ in range(150):
            x0, x1 = rng.normal(size=m), rng.normal(size=m)
            symbols = ReprSymbols(x0, x1)
            policy = ReactivePolicy(*rng.uniform(0.0, 1.0, size=2))
            ev = model.evaluate(symbols, policy)
            want = max(
                _norm_reference(ev.grad_xhat),
                box_lp_gap(ev.grad_phi, np.array([policy.alpha, policy.beta])),
            )
            assert ev.fne_index.hex() == want.hex()

"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single `criterion N PASS` line with its measured numbers
(visible under `pytest -s`); the per-test PASSED/FAILED verdicts of
`pytest -v` give the same one-line-per-criterion report.  Seeds are fixed,
so every run is bit-reproducible.
"""

import math
import time

import numpy as np
import pytest
from scipy import optimize, special

import jamgame.network as network
from jamgame.cli import execute, parse_config
from jamgame.gaussian import (
    DiagonalGaussian,
    ScalarGaussian,
    interval_moments,
    norm_sq_tail,
    philox_rng,
)
from jamgame.largescale import asymptotic_objective
from jamgame.network import (
    NetworkConfig,
    RoundPolicies,
    binomial_cdf,
    chernoff_upper_bound,
    convergence_probe,
    estimate_cost,
    jn_analytic,
)
from jamgame.proactive import (
    GameCosts,
    ReprSymbols,
    objective_tilde,
    objective_with_threshold,
    solve_saddle,
)
from jamgame.reactive import (
    ExactScalarModel,
    McVectorModel,
    ReactivePolicy,
    SolverConfig,
    random_init,
    solve_gda,
    solve_pga_ccp,
    transmit_region,
)

STD = ScalarGaussian(0.0, 1.0)
MASTER_SEED = 2026

# saddle point table for N(0, 1), c = 1: (threshold, transmit_prob,
# phi_star, lambda_star) by (d, kappa_bar), rounded as published
SADDLE_TABLE = {
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


def _report(n: int, detail: str) -> None:
    print(f"criterion {n} PASS: {detail}")


def test_criterion_1_saddle_table_sweep():
    config = {
        "mode": "sweep",
        "source": {"mean": 0.0, "variance": 1.0},
        "costs": {"c": 1.0, "d": 0.25},
        "kappa_bar": 0.25,
        "sweep": {
            "mode": "large_scale",
            "axes": [
                {"parameter": "costs.d", "grid": [0.25, 0.5, 0.75, 1.0]},
                {"parameter": "kappa_bar", "grid": [0.25, 0.5, 0.75]},
            ],
        },
    }
    start = time.perf_counter()
    result = execute(parse_config(config))
    elapsed = time.perf_counter() - start
    assert len(result.point_records) == 12
    for record in result.point_records:
        d = record.config["costs"]["d"]
        kb = record.config["kappa_bar"]
        thr, p, phi, lam = SADDLE_TABLE[(d, kb)]
        out = record.outputs
        assert out["threshold"] == pytest.approx(thr, abs=0.01)
        assert out["transmit_prob"] == pytest.approx(p, abs=0.01)
        assert out["phi_star"] == pytest.approx(phi, abs=0.01)
        assert out["lambda_star"] == pytest.approx(lam, abs=0.01)
    assert elapsed < 1.0
    _report(1, f"12/12 sweep rows within 0.01 in {elapsed:.2f}s")


def test_criterion_2_gate_integrals():
    # the tail E[S^p 1(S > r)] of S = X^2 at r = 1 is twice the one-sided
    # integral of X^(2p) over X > 1
    tail = norm_sq_tail(STD)
    p, m = 0.5 * tail(1.0, 0), 0.5 * tail(1.0, 1)
    assert p == pytest.approx(0.1587, abs=0.0005)
    assert m == pytest.approx(0.4007, abs=0.0005)
    _report(2, f"P(X > 1)={p:.4f} (0.1587), E[X^2 1(X > 1)]={m:.4f} (0.4007)")


def test_criterion_3_proactive_saddle_inequalities():
    rng = philox_rng(MASTER_SEED, 3)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        source = ScalarGaussian(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        costs = GameCosts(rng.uniform(0.3, 2.0), rng.uniform(0.1, 2.0))
        saddle = solve_saddle(source, costs)
        for phi in np.linspace(0.0, 1.0 - 1e-6, 100):
            fixed = objective_with_threshold(
                source, costs, saddle.estimator, saddle.threshold, phi
            )
            slack = saddle.value - fixed
            worst = min(worst, slack)
            assert slack >= -1e-8
        for _ in range(20):
            sym = ReprSymbols(
                source.mean + float(rng.normal(scale=source.std)),
                source.mean + float(rng.normal(scale=source.std)),
            )
            tau = saddle.threshold * float(rng.uniform(0.3, 3.0))
            probe = objective_with_threshold(
                source, costs, sym, tau, saddle.phi_star
            )
            slack = probe - saddle.value
            worst = min(worst, slack)
            assert slack >= -1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"10 instances, worst slack {worst:.2e} >= -1e-8 in {elapsed:.1f}s")


def test_criterion_4_reactive_fne_structure():
    costs = GameCosts(1.0, 1.0)
    report = solve_pga_ccp(STD, costs, SolverConfig(epsilon=1e-5))
    assert report.converged and report.iterations <= 5000
    assert report.fne_index <= 1e-5
    x0 = float(report.symbols.x_hat0[0])
    x1 = float(report.symbols.x_hat1[0])
    assert abs(x0) > 0.01 and abs(x1) > 0.01 and abs(x0 - x1) > 0.01

    alphas_d10 = [
        solve_pga_ccp(
            ScalarGaussian(0.0, var), costs, SolverConfig(epsilon=1e-5)
        ).policy.alpha
        for var in (1.0, 2.0, 3.0, 4.0, 5.0)
    ]
    assert max(alphas_d10) > 0.0

    # Idle jamming at d = 1.5.  Expanding the squares, the idle-jam gradient is
    #     dJ/dalpha = 2 (x0 - x1) E[(X - x0) 1_S] + ((x0 - x1)^2 - d) P(S)
    # on the silent region S.  Stationary symbols have x0 = E[X | S], so it
    # reduces to ((x0 - x1)^2 - d) P(S): an interior alpha forces the symbols
    # exactly sqrt(d) apart, and alpha = 0 needs (x0 - x1)^2 <= d.  The
    # separation grows with the source spread, so idle jamming switches on at
    # some variance; at d = 1.5 that is near variance 1.2.
    costs_d15 = GameCosts(1.0, 1.5)
    alphas_d15 = []
    for var in (1.0, 2.0, 3.0, 4.0, 5.0):
        source = ScalarGaussian(0.0, var)
        rep = solve_pga_ccp(source, costs_d15, SolverConfig(epsilon=1e-5))
        assert rep.converged
        alpha, beta = rep.policy.alpha, rep.policy.beta
        alphas_d15.append(alpha)
        s0 = float(rep.symbols.x_hat0[0])
        s1 = float(rep.symbols.x_hat1[0])
        sep2 = (s0 - s1) ** 2
        if var == 1.0:
            assert alpha <= 1e-8 and sep2 < costs_d15.d, (alpha, sep2)
            continue
        p_silent = m1_silent = 0.0
        region = transmit_region(rep.symbols, rep.policy, costs_d15)
        edges = (-math.inf, *(v for piece in region.intervals for v in piece), math.inf)
        for lo, hi in zip(edges[::2], edges[1::2]):
            p, m1, _ = interval_moments(source, lo, hi)
            p_silent += p
            m1_silent += m1
        assert alpha > 0.0 and beta == 1.0, (var, alpha, beta)
        assert abs(sep2 - costs_d15.d) <= 1e-4, (var, sep2)
        assert abs(s0 - m1_silent / p_silent) <= 1e-4, (var, s0, p_silent)
        if var == 2.0:
            # J is concave in (alpha, beta) and the converged index certifies
            # the jammer's side, so the point is a saddle point when no symbol
            # pair does better against (alpha, beta).  The first-order index
            # cannot show that; at variances 3-5 the coordinator would rather
            # never transmit (see solve_pga_ccp), so only variance 2 is checked.
            value, _ = ExactScalarModel(source, costs_d15).objective(
                rep.symbols, rep.policy
            )
            best = _coordinator_best_response(var, 1.0, 1.5, alpha, beta)
            assert abs(best - value) <= 1e-6, (value, best)
            face = max(
                _coordinator_best_response(var, 1.0, 1.5, 0.0, b)
                for b in np.linspace(0.0, 1.0, 21)
            )
            assert face < value, (face, value)
    _report(4, (
        f"1e-5 FNE in {report.iterations} iters, symbols ({x0:.3f}, {x1:.3f}); "
        f"max alpha*={max(alphas_d10):.3f} for d=1; d=1.5 idle jam off at "
        f"var 1, alpha* {min(alphas_d15[1:]):.3f}-{max(alphas_d15):.3f} with "
        f"(x0-x1)^2=d for var 2-5, var-2 saddle J={value:.6f} beats the "
        f"alpha=0 face's {face:.4f}"
    ))


def _game_value(var, c, d, alpha, beta, x0, x1):
    """E[min(f_t, f_nt)] for X ~ N(0, var), from normal moments alone.

    Broadcasts over the symbol arrays.  min(f_t, f_nt) = f_nt - max(q, 0)
    with q = f_nt - f_t = qa X^2 + qb X + qc.
    """
    x0, x1 = np.broadcast_arrays(np.asarray(x0, float), np.asarray(x1, float))
    sd = math.sqrt(var)
    mean_f_nt = alpha * (var + x1**2) + (1.0 - alpha) * (var + x0**2) - d * alpha
    qa = 1.0 - beta
    qb = -2.0 * ((alpha - beta) * x1 + (1.0 - alpha) * x0)
    qc = (alpha - beta) * x1**2 + (1.0 - alpha) * x0**2 - c - d * (alpha - beta)
    if qa == 0.0:
        # q(X) ~ N(qc, s^2): E[q+] = qc Phi(qc/s) + s phi(qc/s)
        s = np.abs(qb) * sd
        z = qc / np.where(s > 0.0, s, 1.0)
        pos = qc * special.ndtr(z) + s * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return mean_f_nt - np.where(s > 0.0, pos, np.maximum(qc, 0.0))
    # qa > 0: q < 0 only between its real roots r1 <= r2, so
    # E[q+] = E[q] - E[q 1(r1 < X < r2)]; without real roots the interval is empty
    half = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)) / (2.0 * qa)
    a = (-qb / (2.0 * qa) - half) / sd
    b = (-qb / (2.0 * qa) + half) / sd
    pdf_a = np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    pdf_b = np.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
    p = special.ndtr(b) - special.ndtr(a)
    inner = qa * var * (p + a * pdf_a - b * pdf_b) + qb * sd * (pdf_a - pdf_b) + qc * p
    return mean_f_nt - (qa * var + qc - inner)


def _coordinator_best_response(var, c, d, alpha, beta):
    """min over symbol pairs of J at a fixed jam policy: a 25 x 25 grid over
    +-3 sigma, then Nelder-Mead from the three best grid points."""
    grid = np.linspace(-3.0, 3.0, 25) * math.sqrt(var)
    g0, g1 = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    values = _game_value(var, c, d, alpha, beta, g0, g1)

    def value(x):
        return float(_game_value(var, c, d, alpha, beta, x[0], x[1]))

    return min(
        optimize.minimize(
            value, [g0[k], g1[k]], method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000},
        ).fun
        for k in np.argsort(values)[:3]
    )


def test_criterion_5_pga_ccp_versus_gda():
    costs = GameCosts(1.0, 1.0)
    start = time.perf_counter()
    ratios = []
    for var in (1.0, 3.0, 5.0):
        source = ScalarGaussian(0.0, var)
        pga_iters, gda_iters = [], []
        for seed in range(20):
            init = random_init(source, seed)
            cfg = SolverConfig(epsilon=0.05, max_iters=2000, seed=seed)
            rp = solve_pga_ccp(source, costs, cfg, init)
            rg = solve_gda(source, costs, cfg, init)
            pga_iters.append(rp.iterations if rp.converged else cfg.max_iters)
            gda_iters.append(rg.iterations if rg.converged else cfg.max_iters)
        avg_pga = float(np.mean(pga_iters))
        avg_gda = float(np.mean(gda_iters))
        ratios.append(avg_pga / avg_gda)
        assert avg_pga <= avg_gda / 2.0

    vector = DiagonalGaussian(np.zeros(10), np.ones(10))
    cfg = SolverConfig(epsilon=0.1, max_iters=500, mc_samples=10_000, seed=0)
    rep = solve_pga_ccp(vector, costs, cfg)
    assert rep.converged and rep.iterations <= 500
    assert rep.fne_index <= 0.1 + 3.0 * rep.fne_std_err
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, (
        f"scalar iteration ratios {[f'{r:.3f}' for r in ratios]} all <= 0.5; "
        f"m=10 0.1-FNE in {rep.iterations} iters "
        f"(index {rep.fne_index:.3f} +- {rep.fne_std_err:.3f}); {elapsed:.1f}s"
    ))


def _smooth_instance(rng):
    # redraw until the transmit-region quadratic is well conditioned, so the
    # point sits away from region boundary crossings
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


def test_criterion_6_gradient_correctness():
    rng = np.random.default_rng(MASTER_SEED)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        source, costs, symbols, policy = _smooth_instance(rng)
        x0, x1 = symbols.scalars()
        model = ExactScalarModel(source, costs)
        gx, _ = model.grad_xhat(symbols, policy)
        for j in range(2):
            def at(eps, j=j):
                pt = [x0, x1]
                pt[j] += eps
                return model.objective(ReprSymbols(pt[0], pt[1]), policy)[0]

            fd = (at(h) - at(-h)) / (2.0 * h)
            err = abs(fd - gx[j]) / max(1.0, abs(gx[j]))
            worst = max(worst, err)
            assert err <= 1e-6
        gp, _ = model.grad_phi(symbols, policy)
        base = np.array([policy.alpha, policy.beta])
        for i in range(2):
            def at_phi(eps, i=i):
                p = base.copy()
                p[i] += eps
                return model.objective(symbols, ReactivePolicy(*p))[0]

            fd = (at_phi(h) - at_phi(-h)) / (2.0 * h)
            err = abs(fd - gp[i]) / max(1.0, abs(gp[i]))
            worst = max(worst, err)
            assert err <= 1e-6

    source = DiagonalGaussian(np.zeros(3), np.array([1.0, 2.0, 0.5]))
    model = McVectorModel(source, GameCosts(1.0, 1.0), 20_000, 11)
    symbols = ReprSymbols(np.array([0.3, -0.2, 0.1]), np.array([-0.1, 0.4, 0.0]))
    policy = ReactivePolicy(0.4, 0.3)
    gx, gx_se = model.grad_xhat(symbols, policy)
    flat = np.concatenate([symbols.x_hat0, symbols.x_hat1])
    for j in range(6):
        def at(eps, j=j):
            bumped = flat.copy()
            bumped[j] += eps
            return model.objective(
                ReprSymbols(bumped[:3], bumped[3:]), policy
            )[0]

        fd = (at(h) - at(-h)) / (2.0 * h)
        assert abs(fd - gx[j]) <= 3.0 * gx_se[j] + 1e-9
    gp, gp_se = model.grad_phi(symbols, policy)
    base = np.array([policy.alpha, policy.beta])
    for i in range(2):
        def at_phi(eps, i=i):
            p = base.copy()
            p[i] += eps
            return model.objective(symbols, ReactivePolicy(*p))[0]

        fd = (at_phi(h) - at_phi(-h)) / (2.0 * h)
        assert abs(fd - gp[i]) <= 3.0 * gp_se[i] + 1e-9
    _report(6, (
        f"100 scalar points, worst relative error {worst:.2e} <= 1e-6; "
        "vector MC gradients within 3 SE of coupled differences"
    ))


def test_criterion_7_simulator_analytic_agreement():
    rng = philox_rng(MASTER_SEED, 0)
    start = time.perf_counter()
    trials = 1_000_000
    worst = 0.0

    def draw_source_costs():
        source = ScalarGaussian(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        costs = GameCosts(rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0))
        return source, costs

    def draw_symbols(source):
        sd = source.std
        return ReprSymbols(
            source.mean + rng.uniform(-1.5, 1.5) * sd,
            source.mean + rng.uniform(-1.5, 1.5) * sd,
        )

    for i in range(10):
        source, costs = draw_source_costs()
        phi = rng.uniform(0.0, 0.9)
        symbols = draw_symbols(source)
        threshold = costs.c / (1.0 - phi)
        policies = RoundPolicies(symbols, ReactivePolicy(phi, phi), threshold)
        est = estimate_cost(
            source, costs, NetworkConfig(1, 1), policies,
            trials=trials, seed=MASTER_SEED + i,
        )
        z = (est.mean - objective_tilde(source, costs, symbols, phi)) / est.std_err
        worst = max(worst, abs(z))
        assert abs(z) <= 3.0

    for i in range(10):
        source, costs = draw_source_costs()
        symbols = draw_symbols(source)
        policy = ReactivePolicy(rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9))
        policies = RoundPolicies(symbols, policy)
        est = estimate_cost(
            source, costs, NetworkConfig(1, 1), policies,
            trials=trials, seed=MASTER_SEED + 100 + i,
        )
        exact, _ = ExactScalarModel(source, costs).objective(symbols, policy)
        z = (est.mean - exact) / est.std_err
        worst = max(worst, abs(z))
        assert abs(z) <= 3.0

    for j, n in enumerate((5, 20)):
        for i in range(10):
            source, costs = draw_source_costs()
            config = NetworkConfig(n, int(rng.integers(1, n)))
            symbols = draw_symbols(source)
            threshold = rng.uniform(0.2, 4.0) * source.var
            phi = rng.uniform(0.0, 0.9)
            policies = RoundPolicies(symbols, ReactivePolicy(phi, phi), threshold)
            est = estimate_cost(
                source, costs, config, policies,
                trials=trials, seed=MASTER_SEED + 200 + 50 * j + i,
            )
            exact = jn_analytic(source, costs, config, threshold, symbols, phi)
            z = (est.mean - exact) / est.std_err
            worst = max(worst, abs(z))
            assert abs(z) <= 3.0
    elapsed = time.perf_counter() - start
    _report(7, (
        f"40 instances x 1e6 rounds, max |z| = {worst:.2f} <= 3 in {elapsed:.0f}s"
    ))


def test_criterion_8_limit_behavior():
    kappa_bar = 0.5
    gaps = {}
    for p in (kappa_bar - 0.2, kappa_bar + 0.2):
        w = float(special.ndtri(1.0 - p / 2.0))
        rows = convergence_probe(STD, w * w, kappa_bar, (5000,))
        _, f_cap, f_below = rows[0]
        indicator = 1.0 if p < kappa_bar else 0.0
        gaps[p] = max(abs(f_cap - indicator), abs(f_below - indicator))
        assert gaps[p] <= 1e-3

    for n in (10, 100, 1000):
        for p in (0.1, 0.3, 0.5):
            mu = n * p
            for delta in (0.1, 0.5, 2.0):
                exact = 1.0 - binomial_cdf(
                    n, min(n, math.floor((1 + delta) * mu)), p
                )
                assert exact <= chernoff_upper_bound(n, p, "upper", delta) + 1e-15
            for delta in (0.1, 0.5, 0.9):
                exact = binomial_cdf(n, math.floor((1 - delta) * mu), p)
                assert exact <= chernoff_upper_bound(n, p, "lower", delta) + 1e-15

    costs = GameCosts(1.0, 0.5)
    symbols = ReprSymbols(0.1, -0.3)
    limit = asymptotic_objective(STD, costs, 0.4, 1.6, symbols, 0.4)
    finite = jn_analytic(
        STD, costs, NetworkConfig.from_kappa(2000, 0.4), 1.6, symbols, 0.4
    )
    assert abs(finite - limit) < 0.01
    _report(8, (
        f"capacity CDF gaps {gaps[0.3]:.1e}/{gaps[0.7]:.1e} <= 1e-3 at n=5000; "
        f"Chernoff dominates on the grid; |jn - limit| = {abs(finite - limit):.4f}"
    ))


def test_criterion_9_reactive_reduces_to_proactive():
    rng = philox_rng(MASTER_SEED, 9)
    worst = 0.0
    for _ in range(1000):
        source = ScalarGaussian(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        costs = GameCosts(rng.uniform(0.3, 2.0), rng.uniform(0.2, 2.0))
        sd = source.std
        symbols = ReprSymbols(
            source.mean + rng.uniform(-1.5, 1.5) * sd,
            source.mean + rng.uniform(-1.5, 1.5) * sd,
        )
        phi = rng.uniform(0.0, 0.95)
        r, _ = ExactScalarModel(source, costs).objective(
            symbols, ReactivePolicy(phi, phi)
        )
        t = objective_tilde(source, costs, symbols, phi)
        err = abs(r - t) / max(1.0, abs(t))
        worst = max(worst, err)
        assert err <= 1e-12
    _report(9, f"1000 points, worst relative gap {worst:.2e} <= 1e-12")

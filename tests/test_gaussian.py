"""Closed-form Gaussian integrals against an independent quadrature oracle.

The oracle is mpmath tanh-sinh quadrature at 30 digits; expected values for
the named cases were computed with it and are frozen below as literals.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from jamgame.gaussian import (
    DiagonalGaussian,
    GeneralGaussian,
    ScalarGaussian,
    _deviations,
    interval_moments,
    norm_sq_tail,
    philox_rng,
    sample,
)
from jamgame.proactive import GameCosts, ReprSymbols, objective_tilde

mp.mp.dps = 25


def oracle_pdf(x, mean, sigma):
    return mp.exp(-((x - mean) / sigma) ** 2 / 2) / (sigma * mp.sqrt(2 * mp.pi))


def oracle_integral(weight, mean, var, lo, hi, breaks=()):
    """Adaptive quadrature of weight(x) * f(x) over (lo, hi).

    `breaks` lists kink locations of the weight; tanh-sinh quadrature needs
    each non-smooth point as a segment boundary to converge.
    """
    sigma = mp.sqrt(var)
    pts = [mp.mpf(lo) if math.isfinite(lo) else -mp.inf]
    for anchor in sorted(set(breaks) | {mean - 6 * sigma, mean, mean + 6 * sigma}):
        if pts[-1] < anchor < hi:
            pts.append(mp.mpf(anchor))
    pts.append(mp.mpf(hi) if math.isfinite(hi) else mp.inf)
    return float(mp.quad(lambda x: weight(x) * oracle_pdf(x, mean, sigma), pts))


# Frozen oracle outputs (mpmath, dps=40).
TAIL_PROB_N04_AT_2 = 0.158655253931457051
TSM_N02_AT_1_5 = 0.771042668242890365
E_MIN_X2_1 = 0.5160585509617133
Q_AT_1 = 0.158655253931457051
TSM_AT_1 = 0.400625978450600401
CHI2_M3_R3 = 2.09995750763588253
CLIPPED_SHIFTED = 0.478595226168709836


def upper_tail(source, t, p):
    """A scalar source's `norm_sq_tail` at r = (t - mean)^2: for t >= mean,
    twice the one-sided tail int_t^inf (x - mean)^(2p) f(x) dx."""
    return norm_sq_tail(source)((t - source.mean) ** 2, p)


def test_tail_prob_frozen_values():
    assert upper_tail(ScalarGaussian(0.0, 4.0), 2.0, 0) == pytest.approx(2 * TAIL_PROB_N04_AT_2, rel=1e-14)
    assert upper_tail(ScalarGaussian(0.0, 1.0), 1.0, 0) == pytest.approx(2 * Q_AT_1, rel=1e-14)
    assert upper_tail(ScalarGaussian(0.0, 2.7), 0.0, 0) == pytest.approx(1.0, rel=1e-14)
    # noncentered: shift invariance
    assert upper_tail(ScalarGaussian(1.5, 4.0), 3.5, 0) == pytest.approx(2 * TAIL_PROB_N04_AT_2, rel=1e-14)


def test_tail_second_moment_frozen_values():
    assert upper_tail(ScalarGaussian(0.0, 2.0), 1.5, 1) == pytest.approx(2 * TSM_N02_AT_1_5, rel=1e-13)
    assert upper_tail(ScalarGaussian(0.0, 1.0), 1.0, 1) == pytest.approx(2 * TSM_AT_1, rel=1e-13)
    # t = 0 gives the whole variance: half of it on each side, by symmetry
    assert upper_tail(ScalarGaussian(0.0, 3.3), 0.0, 1) == pytest.approx(2 * 1.65, rel=1e-13)


def test_tails_match_quadrature_oracle_to_1e8():
    # relative error <= 1e-8 out to t/sigma = 8 in both integrals
    for var in (0.25, 1.0, 5.1):
        sigma = math.sqrt(var)
        for z in (0.0, 0.3, 1.0, 2.5, 5.0, 8.0):
            t = z * sigma
            got_p = upper_tail(ScalarGaussian(0.0, var), t, 0)
            want_p = 2 * oracle_integral(lambda x: 1, 0.0, var, t, math.inf)
            assert abs(got_p - want_p) <= 1e-8 * abs(want_p)
            got_m = upper_tail(ScalarGaussian(0.0, var), t, 1)
            want_m = 2 * oracle_integral(lambda x: x * x, 0.0, var, t, math.inf)
            assert abs(got_m - want_m) <= 1e-8 * abs(want_m)


def test_interval_moments_against_oracle():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(12):
        mean = float(rng.normal(scale=2.0))
        var = float(rng.uniform(0.2, 4.0))
        a, b = np.sort(rng.normal(loc=mean, scale=3.0 * math.sqrt(var), size=2))
        cases.append((mean, var, float(a), float(b)))
    cases.append((0.3, 1.2, -math.inf, 0.8))
    cases.append((0.3, 1.2, 0.8, math.inf))
    cases.append((-1.0, 0.5, -math.inf, math.inf))
    for mean, var, a, b in cases:
        g = ScalarGaussian(mean, var)
        p, m1, m2 = interval_moments(g, a, b)
        assert p == pytest.approx(oracle_integral(lambda x: 1, mean, var, a, b), abs=1e-13)
        assert m1 == pytest.approx(oracle_integral(lambda x: x, mean, var, a, b), abs=1e-12)
        assert m2 == pytest.approx(oracle_integral(lambda x: x * x, mean, var, a, b), abs=1e-12)


def test_interval_moments_empty_and_tail_accuracy():
    g = ScalarGaussian(0.0, 1.0)
    assert interval_moments(g, 2.0, 2.0) == (0.0, 0.0, 0.0)
    assert interval_moments(g, 3.0, 1.0) == (0.0, 0.0, 0.0)
    # far-tail interval keeps relative accuracy (erfc, not cdf differences)
    p, _, _ = interval_moments(g, 7.0, 9.0)
    want = oracle_integral(lambda x: 1, 0.0, 1.0, 7.0, 9.0)
    assert abs(p - want) <= 1e-10 * want


def test_closed_forms_return_python_floats():
    # the exact scalar solvers do all their arithmetic on these values, so
    # they must be plain floats, not numpy scalars
    g = ScalarGaussian(0.3, 1.7)
    for lo, hi in ((-math.inf, -0.4), (-0.4, 1.1), (0.5, 2.0), (-2.0, -1.0),
                   (1.1, math.inf), (-math.inf, math.inf), (1.0, 1.0)):
        assert all(type(v) is float for v in interval_moments(g, lo, hi))
    assert type(upper_tail(g, 0.8, 0)) is float
    assert type(upper_tail(g, 0.8, 1)) is float


def clipped_sq_loss(source, x0, c, phi):
    """E[min((1 - phi)(X - x0)^2, c)] as the package computes it: the
    reduced objective with d = var and x_hat1 = mean, which zeroes the jam
    term phi (E[(X - x_hat1)^2] - d) bit for bit."""
    costs = GameCosts(c, source.var)
    return objective_tilde(source, costs, ReprSymbols(x0, source.mean), phi)


def test_clipped_sq_loss_frozen_values():
    assert clipped_sq_loss(ScalarGaussian(0.0, 1.0), 0.0, 1.0, 0.0) == pytest.approx(E_MIN_X2_1, rel=1e-13)
    assert clipped_sq_loss(ScalarGaussian(0.3, 1.5), -0.2, 0.8, 0.3) == pytest.approx(CLIPPED_SHIFTED, rel=1e-13)


def test_clipped_sq_loss_against_oracle_grid():
    for var, x0, c, phi, rel, abs_tol in [
        (1.0, 0.0, 1.0, 0.5, 1e-10, 1e-12),
        (2.0, 0.7, 0.3, 0.9, 1e-10, 1e-12),
        (0.5, -1.2, 2.0, 0.0, 1e-10, 1e-12),
        (1.7, 0.1, 0.9, 0.999, 1e-10, 1e-12),
        # within 1e-9 of 1, where a clamp on phi would be 10x and 2x off
        (1.0, 0.0, 1.0, 1.0 - 1e-10, 1e-12, 0.0),
        (1.0, 0.0, 1.0, 1.0 - 5e-10, 1e-12, 0.0),
    ]:
        got = clipped_sq_loss(ScalarGaussian(0.0, var), x0, c, phi)
        hw = math.sqrt(c / (1 - phi))
        want = oracle_integral(
            lambda x: min((1 - phi) * (x - x0) ** 2, c),
            0.0, var, -math.inf, math.inf, breaks=(x0 - hw, x0 + hw),
        )
        assert got == pytest.approx(want, rel=rel, abs=abs_tol)


def test_clipped_sq_loss_degenerate_phi():
    g = ScalarGaussian(0.0, 1.0)
    assert clipped_sq_loss(g, 0.0, 1.0, 1.0) == 0.0
    # just below 1 the trigger c / (1 - phi) is large but finite, and the
    # loss is about (1 - phi) var
    val = clipped_sq_loss(g, 0.0, 1.0, 1.0 - 1e-15)
    assert math.isfinite(val)
    assert val == pytest.approx(1.0 - (1.0 - 1e-15), rel=1e-9)
    with pytest.raises(ValueError):
        clipped_sq_loss(g, 0.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        clipped_sq_loss(g, 0.0, 1.0, 1.5)


def test_monotonicity_in_threshold_and_phi():
    g = ScalarGaussian(0.0, 1.0)
    ts = np.linspace(0.0, 4.0, 41)
    probs = [upper_tail(g, t, 0) for t in ts]
    moms = [upper_tail(g, t, 1) for t in ts]
    assert all(a > b for a, b in zip(probs, probs[1:]))
    assert all(a > b for a, b in zip(moms, moms[1:]))
    # clipped loss decreases as jamming rises (less weight on the quadratic)
    phis = np.linspace(0.0, 0.99, 34)
    vals = [clipped_sq_loss(g, 0.0, 1.0, p) for p in phis]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_sample_reproducible_and_stream_split():
    g = ScalarGaussian(5.0, 1.0)
    a = sample(g, 3, 1000)
    b = sample(g, 3, 1000)
    assert np.array_equal(a, b)
    c = sample(g, 4, 1000)
    assert not np.array_equal(a, c)
    r1 = philox_rng(11, 0).standard_normal(100)
    r2 = philox_rng(11, 1).standard_normal(100)
    assert not np.array_equal(r1, r2)
    assert np.array_equal(r1, philox_rng(11, 0).standard_normal(100))
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        philox_rng(-1)
    with pytest.raises(ValueError, match="^stream id must be nonnegative, got -2$"):
        philox_rng(11, 0, -2)
    # seeds and stream ids are Python or numpy integers, never a float or a
    # bool, which int() would quietly turn into another stream
    for bad, name in (((1.5,), "seed"), ((True,), "seed"), ((11, 1.0), "stream id"),
                      ((11, 0, False), "stream id")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            philox_rng(*bad)
    assert np.array_equal(r1, philox_rng(np.int64(11), np.uint8(0)).standard_normal(100))
    with pytest.raises(ValueError, match="^count must be nonnegative, got -1$"):
        _deviations(g, 3, -1)
    with pytest.raises(ValueError, match="^count must be an integer, got 2.5$"):
        _deviations(g, 3, 2.5)


def test_sample_moments_scalar_and_correlated():
    g = ScalarGaussian(5.0, 1.0)
    xs = sample(g, 3, 100_000)
    assert abs(xs.mean() - 5.0) < 0.02
    cov = np.array([[2.0, 0.6, 0.2], [0.6, 1.5, -0.3], [0.2, -0.3, 1.0]])
    gg = GeneralGaussian(np.array([1.0, -2.0, 0.5]), cov)
    ys = sample(gg, 9, 200_000)
    assert np.max(np.abs(ys.mean(axis=0) - gg.mean)) < 0.02
    emp = np.cov(ys.T)
    for i in range(3):
        assert abs(emp[i, i] - cov[i, i]) < 0.02 * cov[i, i]
    assert np.max(np.abs(emp - cov)) < 0.05


def test_whiten_rejects_rank_deficient_covariance():
    with pytest.raises(ValueError):
        GeneralGaussian(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        GeneralGaussian(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    # every source constructor checks shapes, length and finiteness
    for mean, var in ((math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="^mean and var must be finite$"):
            ScalarGaussian(mean, var)
    for mean, variances, message in (
        (np.zeros(2), np.ones(3), "mean and variances must be 1-D arrays of equal length"),
        (np.zeros(0), np.ones(0), "dimension must be at least 1"),
        (np.array([0.0, math.inf]), np.ones(2), "mean and variances must be finite"),
        (np.zeros(2), np.array([1.0, math.nan]), "mean and variances must be finite"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DiagonalGaussian(mean, variances)
    for mean, cov, message in (
        (np.zeros(2), np.ones((2, 3)), "covariance must be square with side len"),
        (np.zeros(0), np.ones((0, 0)), "dimension must be at least 1"),
        (np.zeros(2), np.array([[1.0, math.nan], [math.nan, 1.0]]),
         "mean and covariance must be finite"),
        (np.array([math.inf, 0.0]), np.eye(2), "mean and covariance must be finite"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            GeneralGaussian(mean, cov)


def test_norm_sq_tail_moment_exact_and_mc():
    iso = DiagonalGaussian(np.zeros(3), np.ones(3))
    est = norm_sq_tail(iso)(3.0, 1)
    assert est == pytest.approx(CHI2_M3_R3, rel=1e-12)
    # r = 0 recovers the full second moment, trace of the covariance
    assert norm_sq_tail(iso)(0.0, 1) == pytest.approx(3.0, rel=1e-12)
    # a direct Monte Carlo estimate agrees within 3 standard errors
    draws = sample(iso, 5, 200_000)
    sq = np.einsum("ij,ij->i", draws, draws)
    vals = np.where(sq > 3.0, sq, 0.0)
    assert abs(vals.mean() - est) <= 3.0 * vals.std(ddof=1) / math.sqrt(vals.size)
    # a source of no supported type is refused by name
    with pytest.raises(TypeError, match="^unsupported source type str$"):
        norm_sq_tail("N(0, 1)")


def test_norm_sq_tail_moment_anisotropic_vs_oracle():
    # X1 ~ N(0,1), X2 ~ N(0,2), S = X1^2 + X2^2, want E[S 1(S > 2)].
    # Conditioning on one coordinate leaves a 1-D chi-square tail moment:
    # E[Xi^2 1(Xi^2 > q)] = vi P(chi2_3 > q / vi), integrated over the other.
    g = DiagonalGaussian(np.zeros(2), np.array([1.0, 2.0]))
    r = mp.mpf(2)

    def chi2_tail(k, q):
        return mp.gammainc(mp.mpf(k) / 2, q / 2, mp.inf, regularized=True)

    def over(y, v_in):
        return max(r - y * y, mp.mpf(0)) / v_in

    def cross(v_int, v_out):
        # E[Xint^2 1(S > r)] where Xint has variance v_int, Xout v_out
        s_out = mp.sqrt(v_out)
        return mp.quad(
            lambda y: oracle_pdf(y, 0, s_out) * v_int * chi2_tail(3, over(y, v_int)),
            [-mp.inf, -mp.sqrt(r), 0, mp.sqrt(r), mp.inf],
        )

    want = float(cross(1, 2) + cross(2, 1))
    assert norm_sq_tail(g)(2.0, 1) == pytest.approx(want, rel=1e-12)
    # P(S > 2) the same way, conditioning on X2
    want_p = float(mp.quad(
        lambda y: oracle_pdf(y, 0, mp.sqrt(2)) * chi2_tail(1, over(y, 1)),
        [-mp.inf, -mp.sqrt(r), 0, mp.sqrt(r), mp.inf],
    ))
    assert norm_sq_tail(g)(2.0, 0) == pytest.approx(want_p, rel=1e-12)
    # the tail is of the deviation from the mean: a shifted source, diagonal
    # or scalar, has its centred source's tail
    shifted = DiagonalGaussian(np.array([3.0, -1e6]), g.variances)
    scalar, centred = ScalarGaussian(1e6, 2.0), ScalarGaussian(0.0, 2.0)
    for p in (0, 1):
        assert norm_sq_tail(shifted)(2.0, p) == norm_sq_tail(g)(2.0, p)
        assert norm_sq_tail(scalar)(2.0, p) == norm_sq_tail(centred)(2.0, p)

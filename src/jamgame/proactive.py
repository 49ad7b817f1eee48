"""Saddle points of the point-to-point estimation game against a proactive jammer.

The jammer commits to a jam probability phi before seeing the channel.  For a
fixed phi the coordinator transmits iff the squared deviation S from the
source mean exceeds r = c / (1 - phi), and both representation symbols sit at
the mean.  The jammer's marginal value of jamming, G(r) = E[S 1(S > r)] - d,
falls strictly in r toward -d.  If G(c) < 0 jamming never pays and r = c;
otherwise the equilibrium trigger is the root of G, where the jammer is
indifferent over all phi, and phi_star = 1 - c / r.  Exact saddles find that
root with one bisection in r; on a Monte Carlo sample G is a step function
whose root is an order statistic of the sampled norms.  The reduced scalar
objective (`objective_tilde`) is the cost of the threshold rule at the best
trigger c / (1 - phi), with no clamp on phi: below 1 that trigger is finite,
and phi = 1 is the infinite trigger.  The scalar root l_phi and the cost of a
threshold rule are shared with the many-sensor game (`largescale`,
`network`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .gaussian import (
    DiagonalGaussian,
    GeneralGaussian,
    ScalarGaussian,
    interval_moments,
    mean_std_err,
    norm_sq_tail_moment,
    sample,
    tail_second_moment,
    whiten,
)

NO_JAM = "no_jam"
INTERIOR_JAM = "interior_jam"

# Default Monte Carlo sample count of the vector saddle.
MC_SAMPLES = 400_000

# Largest residual of the indifference condition accepted at an exact root,
# relative to the source's variance (or trace).
_RESIDUAL_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """An iterative routine failed to meet its accuracy contract."""


@dataclass(frozen=True)
class GameCosts:
    """Communication price `c` and jamming price `d`, both positive."""

    c: float
    d: float

    def __post_init__(self):
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not (self.d > 0.0 and math.isfinite(self.d)):
            raise ValueError(f"d must be positive and finite, got {self.d}")


@dataclass(frozen=True, eq=False)
class ReprSymbols:
    """Representation pair: x_hat0 when silent, x_hat1 when the channel is lost."""

    x_hat0: np.ndarray
    x_hat1: np.ndarray

    def __post_init__(self):
        a, b = self.x_hat0, self.x_hat1
        if type(a) is float and type(b) is float:
            # scalar symbols, as the scalar solvers build them
            finite = math.isfinite(a) and math.isfinite(b)
            a, b = np.array(a, ndmin=1), np.array(b, ndmin=1)
        else:
            a = np.atleast_1d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
                raise ValueError("x_hat0 and x_hat1 must be 1-D of equal length")
            finite = np.isfinite(a).all() and np.isfinite(b).all()
        if not finite:
            raise ValueError("symbols must be finite")
        object.__setattr__(self, "x_hat0", a)
        object.__setattr__(self, "x_hat1", b)

    @property
    def dim(self) -> int:
        return self.x_hat0.size

    def scalars(self) -> tuple[float, float]:
        if self.dim != 1:
            raise ValueError("symbols are not scalar")
        return self.x_hat0.item(), self.x_hat1.item()


@dataclass(frozen=True, eq=False)
class ProactiveSaddle:
    """Equilibrium summary of the proactive point-to-point game.

    `threshold` is the squared-deviation trigger: transmit iff
    ||x - x_hat0||^2 > threshold.  It is c when jamming does not pay, and
    otherwise the root r of the indifference condition itself, with
    phi_star = 1 - c / r; c / (1 - phi_star) would lose its digits as c / r
    shrinks.  Standard errors are zero on exact solve paths and populated by
    the Monte Carlo vector path.
    """

    case: str
    phi_star: float
    threshold: float
    estimator: ReprSymbols
    value: float
    value_std_err: float = 0.0
    condition_std_err: float = 0.0


def _indifference_residual(centered: ScalarGaussian, d: float, l: float) -> float:
    """2 E[Z^2 1(Z > sqrt(l))] - d for the centered deviation Z: the jammer's
    marginal value of jamming when the coordinator transmits iff Z^2 > l."""
    return 2.0 * tail_second_moment(centered, math.sqrt(l)) - d


def jammer_marginal(source: ScalarGaussian, costs: GameCosts, phi: float) -> float:
    """G(c / (1 - phi)), the jammer's marginal value of raising phi at the
    best response.  The trigger is formed as is: finite for every phi < 1."""
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"phi must lie in [0, 1), got {phi}")
    return _indifference_residual(
        source.centered(), costs.d, costs.c / (1.0 - phi)
    )


def solve_l_phi(source: ScalarGaussian, costs: GameCosts) -> float:
    """Squared trigger at which the jammer is indifferent.

    Root of 2 E[Z^2 1(Z > sqrt(l))] = d.  For d >= var the tail second
    moment cannot reach d/2 at any positive trigger; the boundary solution
    l = 0 is returned with a warning.
    """
    centered = source.centered()
    d = costs.d
    if d >= source.var:
        warnings.warn(
            "jamming cost d >= source variance: the indifference threshold "
            "degenerates to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return _threshold_root(
        lambda l: _indifference_residual(centered, d, l), source.var
    )


def _threshold_root(residual, scale: float) -> float:
    """Root in r of a residual falling from positive to negative, for a source
    of variance (or trace) `scale`: bracketed from [1e-12, 50 scale], then
    bisected to a width of 1e-15 r; |residual| <= 1e-10 scale there is
    checked.  Both tolerances are relative, so the root keeps its digits at
    any source scale."""
    lo, hi = 1e-12, 50.0 * scale
    while residual(hi) > 0.0:
        hi *= 4.0
    while residual(lo) < 0.0:
        lo *= 0.25
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    root = 0.5 * (lo + hi)
    resid = residual(root)
    bound = _RESIDUAL_TOL * scale
    if not abs(resid) <= bound:
        raise ConvergenceError(
            f"indifference root residual {resid:.3e} exceeds {bound:.3e}"
        )
    return root


def objective_tilde(
    source: ScalarGaussian, costs: GameCosts, symbols: ReprSymbols, phi: float
) -> float:
    """Game value with the transmission rule already optimized for (symbols, phi).

    E[min((1 - phi)(X - x_hat0)^2, c)] + phi (E[(X - x_hat1)^2] - d): the
    threshold rule's cost at the best trigger c / (1 - phi), infinite at
    phi = 1, where the coordinator never transmits.
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi must lie in [0, 1], got {phi}")
    threshold = math.inf if phi == 1.0 else costs.c / (1.0 - phi)
    return objective_with_threshold(source, costs, symbols, threshold, phi)


def objective_with_threshold(
    source: ScalarGaussian,
    costs: GameCosts,
    symbols: ReprSymbols,
    threshold: float,
    phi: float,
) -> float:
    """Game value for an arbitrary squared-deviation trigger.

    The sensor transmits iff (x - x_hat0)^2 > threshold; nothing here is
    optimized, which makes this the right probe for saddle inequalities.
    """
    if threshold < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi must lie in [0, 1], got {phi}")
    return _threshold_cost(
        costs, phi, _window(source, symbols, threshold), 1.0, 1.0
    )


def _window(
    source: ScalarGaussian, symbols: ReprSymbols, threshold: float
) -> tuple[float, float, float, float]:
    """Terms of the rule that transmits iff (x - x_hat0)^2 > threshold:
    (p, err0_silent, err1_silent, err1_total), the transmit probability,
    E[(X - x_hat0)^2 1(silent)], E[(X - x_hat1)^2 1(silent)] and
    E[(X - x_hat1)^2]."""
    x0, x1 = symbols.scalars()
    w = math.sqrt(threshold)
    p_in, m1, m2 = interval_moments(source, x0 - w, x0 + w)
    return (
        1.0 - p_in,
        m2 - 2.0 * x0 * m1 + x0 * x0 * p_in,
        m2 - 2.0 * x1 * m1 + x1 * x1 * p_in,
        source.var + (source.mean - x1) ** 2,
    )


def _threshold_cost(
    costs: GameCosts, phi: float, window, f_cap: float, f_cap_minus: float
) -> float:
    """Per-sensor cost of a threshold rule from its `_window` terms.

    f_cap is the probability that a silent sensor's channel is free of
    intrinsic collisions and f_cap_minus that a transmitting sensor's packet
    fits: a silent sensor is estimated by x_hat0 on a free channel and by
    x_hat1 otherwise, a transmitting one exactly when its packet gets
    through, and a jam, with probability phi, sends every estimate to x_hat1.
    """
    p, err0_silent, err1_silent, err1_total = window
    err1_transmit = err1_total - err1_silent
    return (
        (1.0 - phi)
        * (
            err0_silent * f_cap
            + err1_silent * (1.0 - f_cap)
            + err1_transmit * (1.0 - f_cap_minus)
        )
        + costs.c * p
        + phi * (err1_total - costs.d)
    )


def solve_saddle(source: ScalarGaussian, costs: GameCosts) -> ProactiveSaddle:
    """Scalar saddle point: symbols at the mean, jam level from the root of G.

    G(0) = 0 counts as the interior case with phi_star = 0; the two labels
    coincide in value there and differ only in how the tie is reported.
    """
    g0 = jammer_marginal(source, costs, 0.0)
    threshold = costs.c
    if g0 > 0.0:
        # the root l_phi itself: c / (1 - phi_star) would lose its digits
        # as c / l_phi shrinks
        threshold = max(costs.c, solve_l_phi(source, costs))
    case = NO_JAM if g0 < 0.0 else INTERIOR_JAM
    phi_star = 1.0 - costs.c / threshold
    estimator = ReprSymbols(source.mean, source.mean)
    value = objective_tilde(source, costs, estimator, phi_star)
    return ProactiveSaddle(case, phi_star, threshold, estimator, value)


class _SortedNorms:
    """Squared norms of a fixed sample, sorted once, with suffix sums of the
    norms and of their squares, so every threshold query is a binary search.
    """

    def __init__(self, sq: np.ndarray):
        self.sq = np.sort(sq)
        self.n = n = sq.size
        # tail[i] = sum of sq[i:] (and of its squares), with tail[n] = 0;
        # the sums accumulate into reversed views, with no temporaries
        self.tail1, self.tail2 = np.zeros(n + 1), np.zeros(n + 1)
        np.cumsum(self.sq[::-1], out=self.tail1[n - 1::-1])
        np.cumsum(np.square(self.sq)[::-1], out=self.tail2[n - 1::-1])

    def above(self, r: float) -> tuple[int, float, float]:
        """(index of the first norm > r, sum and sum of squares of those)."""
        i = int(np.searchsorted(self.sq, r, side="right"))
        return i, float(self.tail1[i]), float(self.tail2[i])

    def condition(self, r: float, d: float) -> tuple[float, float]:
        """E[S 1(S > r)] - d and its standard error."""
        _, s1, s2 = self.above(r)
        mean, se = mean_std_err(s1, s2, self.n)
        return mean - d, float(se)

    def root(self, d: float) -> float:
        """Smallest sampled norm r with condition(r, d) <= 0: the order
        statistic sq[j - 1] for the first j with sum(sq[j:]) / n <= d."""
        j = int(np.searchsorted(-(self.tail1 / self.n), -d))
        return float(self.sq[max(j - 1, 0)])

    def clipped(self, r: float, scale: float, c: float) -> tuple[float, float]:
        """E[c 1(S > r) + scale S 1(S <= r)] and its standard error."""
        i, s1, s2 = self.above(r)
        over = self.n - i
        total = c * over + scale * (self.tail1[0] - s1)
        total_sq = c * c * over + scale * scale * (self.tail2[0] - s2)
        mean, se = mean_std_err(total, total_sq, self.n)
        return float(mean), float(se)


def solve_saddle_vector(
    source,
    costs: GameCosts,
    samples: int = MC_SAMPLES,
    seed: int = 0,
    method: str = "auto",
) -> ProactiveSaddle:
    """Vector saddle point; transmit iff ||x - mean||^2 > threshold.

    The rotation to independent coordinates never changes the deviation norm,
    so a correlated model is first whitened and the equilibrium trigger r
    solves

        E[||X - mean||^2 1(||X - mean||^2 > r)] = d

    in eigencoordinates, with phi_star = 1 - c / r; when the left side falls
    short of d already at r = c, jamming never pays and r = c.  Isotropic
    models are solved exactly (chi-square) by the scalar saddle's root loop.
    Otherwise the left side is estimated on a fixed common-random-number
    sample, where it is a step function of r, and the root is the smallest
    sampled norm at which the condition holds.  The MC root is accepted only
    when some sample lies above it and |condition| <= 3 standard errors.
    """
    if isinstance(source, GeneralGaussian):
        diag, _ = whiten(source)
        mean = source.mean
    elif isinstance(source, DiagonalGaussian):
        diag, mean = source, source.mean
    else:
        raise TypeError("solve_saddle_vector expects a vector source")
    if method not in ("auto", "mc"):
        raise ValueError(f"unknown method {method!r}")
    diag0 = diag.centered()
    c, d = costs.c, costs.d
    trace = float(diag0.variances.sum())
    r, value_se, cond_se = c, 0.0, 0.0
    if diag0.is_isotropic and method == "auto":
        g0 = norm_sq_tail_moment(diag0, c) - d
        if g0 > 0.0:
            r = max(
                c, _threshold_root(lambda x: norm_sq_tail_moment(diag0, x) - d, trace)
            )
        # E[min(c/r ||X||^2, c)] through the chi-square identity
        p_over = float(stats.chi2.sf(r / float(diag0.variances[0]), diag0.dim))
        clipped = c / r * (trace - norm_sq_tail_moment(diag0, r)) + c * p_over
    else:
        draws = sample(diag0, seed, samples)
        sq = np.einsum("ij,ij->i", draws, draws)
        del draws  # only the norms are needed from here on
        norms = _SortedNorms(sq)
        g0, _ = norms.condition(c, d)
        if g0 > 0.0:
            # the condition is positive at c, so the root is a norm above c
            r = norms.root(d)
            resid, cond_se = norms.condition(r, d)
            if norms.above(r)[0] == norms.n:
                raise ConvergenceError(
                    f"no sample of the {norms.n} exceeds the threshold {r:.6g} "
                    f"at phi_star = {1.0 - c / r:.6g}: the root lies beyond the "
                    "sampled norms; increase samples"
                )
            if abs(resid) > 3.0 * cond_se:
                raise ConvergenceError(
                    f"MC equilibrium residual {resid:.3e} exceeds "
                    f"3 x {cond_se:.3e}; increase samples"
                )
        clipped, value_se = norms.clipped(r, c / r, c)
    case = NO_JAM if g0 < 0.0 else INTERIOR_JAM
    phi_star = 1.0 - c / r
    value = clipped + phi_star * (trace - d)
    estimator = ReprSymbols(mean, mean)
    return ProactiveSaddle(
        case, phi_star, r, estimator, value, value_se, cond_se
    )

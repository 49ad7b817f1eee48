"""Saddle points of the point-to-point estimation game against a proactive jammer.

The jammer commits to a jam probability phi before seeing the channel.  For a
fixed phi the coordinator transmits iff the squared deviation S from the
source mean exceeds r = c / (1 - phi), and both representation symbols sit at
the mean.  The jammer's marginal value of jamming, G(r) = E[S 1(S > r)] - d,
falls strictly in r toward -d.  If G(c) < 0 or d >= E[S], jamming never
pays and r = c; otherwise the equilibrium trigger is the root of G, where
the jammer is indifferent over all phi, and phi_star = 1 - c / r.  The game
reads the source only through the law of S, so every saddle, scalar or
vector, has one body on one tail integral (`gaussian.norm_sq_tail`), exact
at any source mean and scale, and finds that root with one bracketing root
in r / E[S].  The reduced scalar objective (`objective_tilde`) is the cost
of the threshold rule at the best trigger c / (1 - phi), with no clamp on
phi: below 1 that trigger is finite, and phi = 1 is the infinite trigger.
The saddle itself, the scalar root l_phi and the cost of a threshold rule
are shared with the many-sensor game (`largescale`, `network`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    _RESIDUAL_TOL,
    ConvergenceError,
    DiagonalGaussian,
    GeneralGaussian,
    ScalarGaussian,
    _region_rows,
    _spectrum,
    norm_sq_tail,
)

NO_JAM = "no_jam"
INTERIOR_JAM = "interior_jam"


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


def _check_finite(x_hat0, x_hat1) -> None:
    """`ReprSymbols`' finiteness check, on two floats or two arrays."""
    if type(x_hat0) is float:
        finite = math.isfinite(x_hat0) and math.isfinite(x_hat1)
    else:
        finite = np.isfinite(x_hat0).all() and np.isfinite(x_hat1).all()
    if not finite:
        raise ValueError("symbols must be finite")


@dataclass(frozen=True, eq=False)
class ReprSymbols:
    """Representation pair: x_hat0 when silent, x_hat1 when the channel is lost."""

    x_hat0: np.ndarray
    x_hat1: np.ndarray

    def __post_init__(self):
        a, b = self.x_hat0, self.x_hat1
        if not (type(a) is float and type(b) is float):
            a = np.atleast_1d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
                raise ValueError("x_hat0 and x_hat1 must be 1-D of equal length")
        _check_finite(a, b)
        if type(a) is float:
            a, b = np.array(a, ndmin=1), np.array(b, ndmin=1)
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
    shrinks.  `transmit_prob` is the probability of that event.  Every field
    is exact.
    """

    case: str
    phi_star: float
    threshold: float
    estimator: ReprSymbols
    value: float
    transmit_prob: float


def jammer_marginal(source: ScalarGaussian, costs: GameCosts, phi: float) -> float:
    """G(c / (1 - phi)), the jammer's marginal value of raising phi at the
    best response.  The trigger is formed as is: finite for every phi < 1."""
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"phi must lie in [0, 1), got {phi}")
    return norm_sq_tail(source)(costs.c / (1.0 - phi), 1) - costs.d


def solve_l_phi(source: ScalarGaussian, costs: GameCosts) -> float:
    """Squared trigger at which the jammer is indifferent.

    Root of 2 E[Z^2 1(Z > sqrt(l))] = d.  For d >= var the tail second
    moment cannot reach d/2 at any positive trigger; the boundary solution
    l = 0 is returned with a warning.
    """
    d = costs.d
    if d >= source.var:
        warnings.warn(
            "jamming cost d >= source variance: the indifference threshold "
            "degenerates to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    tail = norm_sq_tail(source)
    return _threshold_root(lambda l: tail(l, 1) - d, source.var)


def _threshold_root(residual, scale: float) -> float:
    """Root in r of a residual falling from positive to negative, for a source
    of variance (or trace) `scale`, solved in x = r / scale: bracketed from
    [1e-12, 50] up to the largest x whose r is finite, then found by Brent's
    method (Brent 1973) to a width of 4 eps x, where |residual| <= 1e-10
    scale is checked.  So the root keeps its digits at any source scale."""
    # imported here, so that only a run that solves a root pays for it
    from scipy import optimize

    def reduced(x: float) -> float:
        return residual(x * scale) / scale

    # one step below the quotient, which may round up
    top = math.nextafter(float(np.finfo(float).max) / max(scale, 1.0), 0.0)
    lo, hi = 1e-12, min(50.0, top)
    while reduced(hi) > 0.0:
        if hi == top:
            raise ConvergenceError(f"indifference root past r = {top * scale:.6g}")
        hi = min(4.0 * hi, top)
    while reduced(lo) < 0.0:
        lo *= 0.25
    # rtol is the tightest Brent's method accepts, and xtol 0 is refused
    root, info = optimize.brentq(
        reduced, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps,
        full_output=True, disp=False,
    )
    if not info.converged:
        raise ConvergenceError(f"indifference root: {info.flag}")
    resid, bound = residual(root * scale), _RESIDUAL_TOL * scale
    if not abs(resid) <= bound:
        raise ConvergenceError(
            f"indifference root residual {resid:.3e} exceeds {bound:.3e}"
        )
    return root * scale


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
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi must lie in [0, 1], got {phi}")
    return _threshold_cost(
        costs, phi, _window(source, symbols, threshold), 1.0, 1.0
    )


def _window(source: ScalarGaussian, symbols: ReprSymbols, threshold: float):
    """`_rule_window` of the rule that transmits iff (x - x_hat0)^2 > threshold."""
    return _rule_window(source, *_threshold_rule(source, symbols, threshold))


def _threshold_rule(source: ScalarGaussian, symbols: ReprSymbols, threshold: float):
    """The rule that is silent on (x - x_hat0)^2 <= threshold alone, in the
    deviation from the mean, as (y0, y1, edges, first) (`network._rule`)."""
    y0, y1 = (x - source.mean for x in symbols.scalars())
    w = math.sqrt(threshold)
    return y0, y1, (y0 - w, y0 + w), True


def _rule_window(source: ScalarGaussian, y0, y1, edges, transmit_first: bool):
    """Terms of a scalar rule, cut at `edges` (`gaussian._region_rows`), for
    symbols at deviations y0, y1: (p, err0_silent, err1_silent, err1_total),
    the transmit probability, E[(X - x_hat0)^2 1(silent)],
    E[(X - x_hat1)^2 1(silent)] and E[(X - x_hat1)^2], integrated in the
    deviation X - mean, so they keep their digits at any source mean."""
    q, m1, m2 = _region_rows(edges, transmit_first, source.std, source.var)[3:]
    return (
        1.0 - q,
        m2 - 2.0 * y0 * m1 + y0 * y0 * q,
        m2 - 2.0 * y1 * m1 + y1 * y1 * q,
        source.var + y1**2,
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


def solve_saddle(
    source: ScalarGaussian | DiagonalGaussian | GeneralGaussian, costs: GameCosts
) -> ProactiveSaddle:
    """Saddle point of any source, scalar, diagonal or general: symbols at the
    mean, transmit iff ||x - mean||^2 > threshold, jam level from the root of
    G.  Only the covariance spectrum matters (`_saddle`)."""
    return _saddle(source, costs)


def solve_saddle_vector(source, costs: GameCosts) -> ProactiveSaddle:
    """The same call as `solve_saddle`, kept only while the benchmark's tracer
    (`bench/tracing.py`) names it."""
    return _saddle(source, costs)


def _saddle(source, costs: GameCosts) -> ProactiveSaddle:
    """Saddle point of any source from the tail of S = ||X - mean||^2.

    This is the one jam gate: jamming pays iff d < E[S] and
    G(c) = E[S 1(S > c)] - d >= 0.  E[S 1(S > c)] < E[S] at every c > 0, so
    d >= E[S] shuts the gate even where G(c) rounds to 0.  Shut, r = c;
    open, the trigger r solves G(r) = 0, with phi_star = 1 - c / r (0, to
    rounding, at the tie G(c) = 0).
    """
    tail = norm_sq_tail(source)
    trace = float(_spectrum(source).sum())
    c, d = costs.c, costs.d
    jam = d < trace and tail(c, 1) >= d
    r = c
    if jam:
        # the root itself: c / (1 - phi_star) would lose its digits as c / r
        # shrinks
        r = max(c, _threshold_root(lambda x: tail(x, 1) - d, trace))
    phi_star, transmit_prob, value = _trigger_value(tail, trace, d, c, r)
    estimator = ReprSymbols(source.mean, source.mean)
    case = INTERIOR_JAM if jam else NO_JAM
    return ProactiveSaddle(case, phi_star, r, estimator, value, transmit_prob)


def _trigger_value(tail, trace: float, d: float, price: float, r: float):
    """(phi, transmit_prob, value) at trigger r >= price, a transmission
    costing `price` (c, or c + lambda in `largescale`) and the jam level
    phi = 1 - price / r that makes r the best response; the value is
    E[min(price / r S, price)] + phi (E[S] - d)."""
    transmit_prob, phi = tail(r, 0), 1.0 - price / r
    value = price / r * (trace - tail(r, 1)) + price * transmit_prob
    return phi, transmit_prob, value + phi * (trace - d)

"""Saddle point of the infinite-sensor estimation game under a capacity cap.

With countably many sensors sharing a channel that carries a fraction
kappa_bar of simultaneous packets, the per-sensor threshold policy couples to
the population only through the capacity constraint P(transmit) <= kappa_bar.
Dualizing that constraint with a multiplier lam gives the Lagrangian

    L(phi, lam) = phi (var - d) + E[min{(1 - phi) Z^2, c + lam}] - lam kappa_bar

over the centered deviation Z = X - mean, whose saddle reduces to two scalar
thresholds:

    l_lambda: 2 P(Z > sqrt(l)) = kappa_bar   (capacity binds exactly)
    l_phi:    2 E[Z^2 1(Z > sqrt(l))] = d    (jammer indifferent)

The equilibrium falls into six cases depending on whether the unconstrained
threshold c violates the capacity gate, the jamming gate, or both; in the
doubly-tied case the optimal jam probability is a whole interval and the
Lagrangian is constant along the curve (c + lam)/(1 - phi) = l.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy import special

from .gaussian import ScalarGaussian, norm_sq_tail
from .proactive import (
    GameCosts,
    ReprSymbols,
    _threshold_cost,
    _window,
    objective_tilde,
    solve_l_phi,
)

# ties on the case gates resolve toward the ">=" branch; the gates compare
# two-sided tails, so this is twice the one-sided 1e-10
_GATE_TOL = 2e-10


@dataclass(frozen=True)
class CapacityFraction:
    """Fraction of simultaneous packets the channel carries, in (0, 1)."""

    kappa_bar: float

    def __post_init__(self):
        if not (0.0 < self.kappa_bar < 1.0):
            raise ValueError(
                f"kappa_bar must lie in (0, 1), got {self.kappa_bar}"
            )


def _kappa(kappa_bar) -> float:
    if isinstance(kappa_bar, CapacityFraction):
        return kappa_bar.kappa_bar
    return CapacityFraction(float(kappa_bar)).kappa_bar


@dataclass(frozen=True, eq=False)
class LargeScaleSaddle:
    """Closed-form equilibrium of the infinite-sensor game.

    `phi_star` is a single representative jam probability; in case C4a the
    optimum is the whole closed interval `phi_star_interval` (the Lagrangian
    is flat along it) and the representative is its left endpoint 0 with
    `lambda_star` the multiplier induced at that endpoint.
    """

    case_id: str
    threshold: float
    phi_star: float
    lambda_star: float
    transmit_prob: float
    value: float
    estimator: ReprSymbols
    phi_star_interval: tuple[float, float] | None = None


def solve_l_lambda(source: ScalarGaussian, kappa_bar) -> float:
    """Squared trigger at which the transmit probability equals kappa_bar.

    2 P(Z > sqrt(l)) = kappa_bar for the centered deviation Z, so
    l = (sigma Q^{-1}(kappa_bar / 2))^2 with Q the standard normal tail.
    """
    kb = _kappa(kappa_bar)
    z = special.ndtri(1.0 - 0.5 * kb)
    return source.var * z * z


def lagrangian_value(
    source: ScalarGaussian, costs: GameCosts, kappa_bar, phi: float, lam: float
) -> float:
    """phi (var - d) + E[min{(1 - phi) Z^2, c + lam}] - lam kappa_bar: the
    point-to-point reduced objective at price c + lam, less lam kappa_bar."""
    kb = _kappa(kappa_bar)
    if not (0.0 <= phi < 1.0):
        raise ValueError(f"phi must lie in [0, 1), got {phi}")
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    shifted = GameCosts(costs.c + lam, costs.d)
    return objective_tilde(
        source.centered(), shifted, ReprSymbols(0.0, 0.0), phi
    ) - lam * kb


def classify_and_solve(
    source: ScalarGaussian, costs: GameCosts, kappa_bar
) -> LargeScaleSaddle:
    """Resolve the six-case equilibrium from the two gates at threshold c.

    With tail the law of Z^2 (`norm_sq_tail`), gate A: transmit probability
    at trigger c exceeds capacity (tail(c, 0) >= kappa_bar).  Gate B: jamming
    pays at trigger c (d < var and tail(c, 1) >= d).  Neither: C1 (trigger
    c).  A only: C2 (capacity binds at l_lambda).  B only: C3 (jammer
    indifferent at l_phi).  Both: compare the two triggers - the larger constraint wins
    (C4b/C4c), and an exact tie C4a makes every phi in [0, 1 - c/l] optimal.
    """
    kb = _kappa(kappa_bar)
    tail = norm_sq_tail(source)
    c, d = costs.c, costs.d
    gate_cap = tail(c, 0) >= kb - _GATE_TOL
    # tail(c, 1) < var for every c > 0, so jamming never pays at d >= var
    gate_jam = d < source.var and tail(c, 1) >= d - _GATE_TOL

    estimator = ReprSymbols(source.mean, source.mean)
    interval = None
    # every jam level is 1 - c / max(c, l_phi), as in `solve_saddle`: a
    # gate tie can put l_phi just below c
    if not gate_cap and not gate_jam:
        case, threshold, phi_star, lam_star = "C1", c, 0.0, 0.0
    elif gate_cap and not gate_jam:
        threshold = solve_l_lambda(source, kb)
        case, phi_star, lam_star = "C2", 0.0, max(0.0, threshold - c)
    elif gate_jam and not gate_cap:
        threshold = solve_l_phi(source, costs)
        case, phi_star, lam_star = "C3", 1.0 - c / max(c, threshold), 0.0
    else:
        l_lam = solve_l_lambda(source, kb)
        l_phi = solve_l_phi(source, costs)
        if abs(l_lam - l_phi) <= 1e-8 * max(1.0, l_lam):
            case, threshold = "C4a", l_lam
            phi_star, lam_star = 0.0, max(0.0, threshold - c)
            interval = (0.0, 1.0 - c / max(c, l_phi))
        elif l_lam > l_phi:
            case, threshold = "C4b", l_lam
            phi_star, lam_star = 0.0, max(0.0, threshold - c)
        else:
            case, threshold = "C4c", l_phi
            phi_star, lam_star = 1.0 - c / max(c, threshold), 0.0

    transmit_prob = tail(threshold, 0)
    value = lagrangian_value(source, costs, kb, phi_star, lam_star)
    return LargeScaleSaddle(
        case_id=case,
        threshold=threshold,
        phi_star=phi_star,
        lambda_star=lam_star,
        transmit_prob=transmit_prob,
        value=value,
        estimator=estimator,
        phi_star_interval=interval,
    )


def asymptotic_objective(
    source: ScalarGaussian,
    costs: GameCosts,
    kappa_bar,
    transmit_threshold: float,
    symbols: ReprSymbols,
    phi: float,
) -> float:
    """Limiting per-sensor cost of a homogeneous threshold policy.

    The sensor transmits when (X - x_hat0)^2 exceeds `transmit_threshold`.
    While the population transmit probability stays within capacity no
    intrinsic collisions occur and the cost is the point-to-point form;
    beyond capacity every transmission collides, so all estimates fall back
    to the collision symbol:

        E[(X - x_hat1)^2] + c P(transmit) - d phi.
    """
    kb = _kappa(kappa_bar)
    if not (0.0 <= phi < 1.0):
        raise ValueError(f"phi must lie in [0, 1), got {phi}")
    if transmit_threshold < 0.0:
        raise ValueError("transmit_threshold must be nonnegative")
    window = _window(source, symbols, transmit_threshold)
    # the exactly-binding boundary is collision-free; the tolerance absorbs
    # round-trip error when the threshold was solved from kappa_bar itself
    free = 1.0 if window[0] <= kb + 1e-9 else 0.0
    return _threshold_cost(costs, phi, window, free, free)

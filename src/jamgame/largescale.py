"""Saddle point of the infinite-sensor estimation game under a capacity cap.

With countably many sensors sharing a channel that carries a fraction
kappa_bar of simultaneous packets, the per-sensor threshold policy couples to
the population only through the capacity constraint P(transmit) <= kappa_bar.
Dualizing that constraint with a multiplier lam gives the Lagrangian

    L(phi, lam) = phi (var - d) + E[min{(1 - phi) Z^2, c + lam}] - lam kappa_bar

over the centered deviation Z = X - mean: the point-to-point game with
transmission priced at c + lam.  So one trigger, max(c, l_phi, l_lambda),
decides the equilibrium: the point-to-point trigger max(c, l_phi)
(`proactive._saddle`), or the capacity trigger 2 P(Z > sqrt(l_lambda)) =
kappa_bar with lam = l_lambda - c where that one transmits above capacity.
The six case ids name the two gates at c, capacity and jamming; in the
doubly-tied case C4a the optimal jam probability is a whole interval and
the Lagrangian is constant along the curve (c + lam)/(1 - phi) = l.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy import special

from .gaussian import ScalarGaussian, norm_sq_tail
from .proactive import (
    INTERIOR_JAM,
    GameCosts,
    ReprSymbols,
    _saddle,
    _threshold_cost,
    _trigger_value,
    _window,
    objective_tilde,
)


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
    l = (sigma Phi^{-1}(kappa_bar / 2))^2 with Phi the standard normal law,
    which keeps its digits where 1 - kappa_bar / 2 would round.
    """
    kb = _kappa(kappa_bar)
    z = special.ndtri(0.5 * kb)
    return source.var * z * z


def lagrangian_value(
    source: ScalarGaussian, costs: GameCosts, kappa_bar, phi: float, lam: float
) -> float:
    """phi (var - d) + E[min{(1 - phi) Z^2, c + lam}] - lam kappa_bar: the
    point-to-point reduced objective at price c + lam, less lam kappa_bar."""
    kb = _kappa(kappa_bar)
    if not (0.0 <= phi < 1.0):
        raise ValueError(f"phi must lie in [0, 1), got {phi}")
    if not lam >= 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    shifted = GameCosts(costs.c + lam, costs.d)
    at_mean = ReprSymbols(source.mean, source.mean)
    return objective_tilde(source, shifted, at_mean, phi) - lam * kb


def classify_and_solve(
    source: ScalarGaussian, costs: GameCosts, kappa_bar
) -> LargeScaleSaddle:
    """The point-to-point saddle with the capacity priced in.

    If l_lambda <= the point-to-point trigger max(c, l_phi), that saddle is
    the answer, with lam = 0 (C1, C3, C4c); otherwise the capacity binds at
    trigger l_lambda, phi = 0, lam = l_lambda - c (C2, C4b).  The case id
    names the gates at c, capacity (l_lambda >= c) and jamming (that saddle
    jams): neither C1, capacity C2, jamming C3, both C4b or C4c by the larger
    trigger, and C4a when the two agree to 1e-8 relative, where every phi in
    [0, 1 - c / l] is optimal and its capacity-binding end phi = 0 is
    reported.
    """
    kb = _kappa(kappa_bar)
    free = _saddle(source, costs)
    l_lam = solve_l_lambda(source, kb)
    gate_cap, gate_jam = l_lam >= costs.c, free.case == INTERIOR_JAM
    both = gate_cap and gate_jam
    tie = both and abs(l_lam - free.threshold) <= 1e-8 * l_lam
    if both:
        case = "C4a" if tie else "C4b" if l_lam > free.threshold else "C4c"
    else:
        case = "C2" if gate_cap else "C3" if gate_jam else "C1"

    if l_lam <= free.threshold and not tie:
        threshold, phi_star, lam_star = free.threshold, free.phi_star, 0.0
        transmit_prob, value = free.transmit_prob, free.value
    else:
        threshold, lam_star = l_lam, l_lam - costs.c
        phi_star, transmit_prob, value = _trigger_value(
            norm_sq_tail(source), source.var, costs.d, l_lam, l_lam
        )
        value -= lam_star * kb
    return LargeScaleSaddle(
        case_id=case,
        threshold=threshold,
        phi_star=phi_star,
        lambda_star=lam_star,
        transmit_prob=transmit_prob,
        value=value,
        estimator=free.estimator,
        phi_star_interval=(0.0, free.phi_star) if tie else None,
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
    if not transmit_threshold >= 0.0:
        raise ValueError("transmit_threshold must be nonnegative")
    window = _window(source, symbols, transmit_threshold)
    # the exactly-binding boundary is collision-free; the relative tolerance
    # absorbs round-trip error when the threshold was solved from kappa_bar
    free = 1.0 if window[0] <= kb * (1.0 + 1e-9) else 0.0
    return _threshold_cost(costs, phi, window, free, free)

"""First-order equilibria of the estimation game against a channel-sensing jammer.

The jammer observes whether the channel is occupied and jams with probability
alpha when idle and beta when occupied.  With the best transmission rule
substituted, the coordinator minimizes and the jammer maximizes

    J(xhat, (alpha, beta)) = E[ min{ beta ||X - xhat1||^2 + c - d beta,
                                     alpha ||X - xhat1||^2
                                     + (1 - alpha) ||X - xhat0||^2 - d alpha } ]

which is nonconvex in the symbol pair and concave in the jam probabilities.
The solver of choice alternates projected gradient ascent for the jammer with
a convex-concave-procedure step for the symbols; the certificate is the
first-order Nash index

    max{ ||grad_xhat J||_2,  max_{p in [0,1]^2} <grad_phi J, p - phi> }

whose second term is a box LP solved componentwise in closed form.  A plain
simultaneous gradient-descent-ascent loop is included as the baseline.

Scalar sources evaluate everything exactly through truncated Gaussian
moments.  Vector sources use Monte Carlo over a common-random-number sample
set frozen per solve, which keeps the convex-concave steps monotone and the
traces bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gaussian import (
    DiagonalGaussian,
    GeneralGaussian,
    ScalarGaussian,
    _deviations,
    _region_rows,
    mean_std_err,
    philox_rng,
)
from .proactive import GameCosts, ReprSymbols, _check_finite


@dataclass(frozen=True)
class ReactivePolicy:
    """Jam probabilities: `alpha` on an idle channel, `beta` on an occupied one."""

    alpha: float
    beta: float

    def __post_init__(self):
        _check_policy(self.alpha, self.beta)


def _check_policy(alpha, beta) -> None:
    """`ReactivePolicy`'s range check, on two floats; NaN fails it."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must lie in [0, 1], got {beta}")


def _check_count(name: str, value) -> None:
    """That a count is a Python or numpy integer and not a bool, checked
    before its range."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _region_edges(a, b, x0, x1, c, d) -> tuple[tuple[float, ...], bool]:
    """The scalar region {q > 0} as the points where q changes sign, and
    whether q > 0 left of the first.  The region is every other segment of
    the line cut at those points, the first segment included or not."""
    # q(x) = qa x^2 + qb x + qc
    qa = 1.0 - b
    qb = -2.0 * ((a - b) * x1 + (1.0 - a) * x0)
    qc = (a - b) * x1 * x1 + (1.0 - a) * x0 * x0 - c - d * (a - b)
    if qa == 0.0:
        if qb == 0.0:
            return (), qc > 0.0
        return (-qc / qb,), qb < 0.0
    disc = qb * qb - 4.0 * qa * qc
    if disc <= 0.0:
        # qa > 0 here, so the parabola never dips below zero
        return (), True
    s = -0.5 * (qb + math.copysign(math.sqrt(disc), qb if qb != 0.0 else 1.0))
    r1, r2 = s / qa, qc / s
    return ((r2, r1) if r2 < r1 else (r1, r2)), True


def transmit_region(
    symbols: ReprSymbols, policy: ReactivePolicy, costs: GameCosts
) -> tuple[tuple[float, ...], bool]:
    """The scalar set {x : q(x) > 0} where the sensor prefers to transmit,

    q(x) = (alpha - beta) (x - xhat1)^2 + (1 - alpha) (x - xhat0)^2
           - c - d (alpha - beta),

    as `_region_edges` gives it: the at most two points where q changes
    sign, ascending, and whether the first segment of the line they cut
    transmits.  The set is every other open segment from there.  A
    quadratic tangent to zero from above is the full line; its one silent
    point has measure zero.  Scalar symbols only (`ReprSymbols.scalars`)."""
    return _region_edges(policy.alpha, policy.beta, *symbols.scalars(), costs.c, costs.d)


def box_lp_gap(grad, point) -> float:
    """max over p in [0,1]^len of <grad, p - point>, solved per component;
    `grad` and `point` are equal-length sequences of numbers."""
    gap = 0.0
    for g, p in zip(grad, point):
        gap += max(g * (0.0 - p), g * (1.0 - p))
    return gap


class Evaluation(NamedTuple):
    """Everything the solvers read at one (symbols, policy) point.

    `concave` is G = E[max{...}], the concave part of the convex-concave
    split, and `ccp_g` its gradient in the symbol pair.  Each `*_se` is the
    Monte Carlo standard error of its statistic (zero on exact paths).

    The models' `evaluate` gives every vector field as one flat array.  The
    solver loop reads their cores' form instead: a plain tuple in this
    field order, with `grad_xhat` and `ccp_g` as a pair of blocks, one per
    symbol, and `grad_phi` as a pair of floats.
    """

    objective: float
    objective_se: float
    concave: float
    concave_se: float
    grad_xhat: np.ndarray
    grad_xhat_se: np.ndarray
    grad_phi: np.ndarray
    grad_phi_se: np.ndarray
    ccp_g: np.ndarray
    ccp_g_se: np.ndarray
    fne_index: float
    fne_index_se: float


def _certificate(gx, gp, point) -> float:
    """The first-order Nash index max{||gx||_2, box_lp_gap(gp, point)}, with
    `gx` a sequence of floats and `gp` and `point` pairs of them.  The norm
    sums the squares exactly rounded, not through BLAS, whose fused or
    reordered products change its last bit."""
    norm = math.sqrt(math.fsum([g * g for g in gx]))
    return max(norm, box_lp_gap(gp, point))


# The models' public methods: wrappers over each model's cores, `_evaluate`
# and `_ccp_g`, which take the symbols (`_pair` of a ReprSymbols) and the
# jam probabilities as (x0, x1, alpha, beta).

def _public_evaluate(self, symbols, policy) -> Evaluation:
    """The model's statistics at one point, each vector field (`grad_xhat`
    to `ccp_g_se`) a flat array."""
    ev = self._evaluate(*self._pair(symbols), policy.alpha, policy.beta)
    return Evaluation(*ev[:4], *map(np.ravel, ev[4:10]), *ev[10:])


def _public_ccp_g(self, symbols, policy) -> np.ndarray:
    """`evaluate(symbols, policy).ccp_g` without the other quantities."""
    return np.ravel(self._ccp_g(*self._pair(symbols), policy.alpha, policy.beta))


def _view(name: str):
    """A model method returning (value, std err) of one Evaluation field."""

    def method(self, symbols, policy):
        ev = self.evaluate(symbols, policy)
        return getattr(ev, name), getattr(ev, name + "_se")

    method.__name__ = name
    return method


def _ccp_update(self, symbols, policy) -> ReprSymbols:
    a, b = policy.alpha, policy.beta
    pair = _ccp_inverse(self._ccp_g(*self._pair(symbols), a, b), a, b, self.mean)
    # copies: a parked symbol is the model's own mean
    return ReprSymbols(*(np.array(x, dtype=float, ndmin=1) for x in pair))


# the exact model's standard errors of a pair
_ZERO_PAIR = (0.0, 0.0)


class ExactScalarModel:
    """Closed-form objective, gradients and convex-concave pieces for scalars.

    The model reads the source only through the deviation Y = X - mean: it
    subtracts the mean from the symbols once, solves the transmit region in
    that frame, and sums its transmit pieces and its silent pieces into one
    (P, M1, M2) row each, E[Y^k 1(Y in region)] for k = 0, 1, 2
    (`gaussian._region_rows`).  Every quadratic a2 M2 + a1 M1 + a0 P is read
    from those two rows, the closed-form twin of `McVectorModel`'s masked
    sums, so the results keep their digits at any mean; for symbols whose
    deviations are exact in floating point they equal the centred source's
    bit for bit.  The cores `_evaluate` and `_ccp_g` take the symbols and
    the policy as four floats and work on floats end to end; numpy arrays
    appear only in what `evaluate` and the other public methods return,
    with zero standard errors (interface parity with the Monte Carlo model).

    The first-order Nash index (`fne_index`) is first-order only, and a zero
    index does not make a point an equilibrium.  For N(0, 2), c = 1, d = 1.5
    the point alpha = 0, beta = 1, x_hat0 = x_hat1 = 0 has index exactly 0:
    the sensor always transmits, so the silent symbol gets no gradient.  Yet
    moving x_hat0 to any v > 0 lowers J, because silence then wins for
    X > (v^2 + 0.5) / (2v).
    """

    def __init__(self, source: ScalarGaussian, costs: GameCosts):
        if not isinstance(source, ScalarGaussian):
            raise TypeError(
                "closed-form ops take scalar sources; build McVectorModel for vectors"
            )
        self.source = source
        self.costs = costs
        self.mean = float(source.mean)
        self._std, self._var = source.std, source.var
        self._c, self._d = costs.c, costs.d

    @staticmethod
    def _pair(symbols):
        return symbols.scalars()

    def _rows(self, x0, x1, a, b):
        """The symbols' deviations y0, y1, then the (P, M1, M2) rows of the
        transmit and the silent region (`_region_rows`): eight floats."""
        y0, y1 = x0 - self.mean, x1 - self.mean
        edges, transmit = _region_edges(a, b, y0, y1, self._c, self._d)
        return (y0, y1, *_region_rows(edges, transmit, self._std, self._var))

    def _evaluate(self, x0, x1, a, b) -> tuple:
        c, d = self._c, self._d
        y0, y1, p_t, m1_t, m2_t, p_n, m1_n, m2_n = self._rows(x0, x1, a, b)
        # Every expectation E[(a2 Y^2 + a1 Y + a0) 1(region)] is
        # a2 M2 + a1 M1 + a0 P in this order; a product by a2 = 1 is exact
        # and dropped, one by a2 = 0 is kept (it can be -0 or NaN).  The
        # branch costs: a2 = b, t1, t0 transmitting, and 1, n1, n0 silent.
        t1, t0 = -2.0 * b * y1, b * y1 * y1 + c - d * b
        n1 = -2.0 * (a * y1 + (1.0 - a) * y0)
        n0 = a * y1 * y1 + (1.0 - a) * y0 * y0 - d * a
        # `_ccp_g` of the rows, and the symbol gradient, which is the same
        # with the rows swapped
        w0, wb = -2.0 * (1.0 - a), -2.0 * b
        d0_t, d1_t = m1_t - y0 * p_t, m1_t - y1 * p_t
        d0_n, d1_n = m1_n - y0 * p_n, m1_n - y1 * p_n
        g0, g1 = w0 * d0_n, wb * d1_t - 2.0 * a * d1_n
        ga = 0.0 * m2_n + 2.0 * (y0 - y1) * m1_n + (y1 * y1 - y0 * y0 - d) * p_n
        gb = m2_t + -2.0 * y1 * m1_t + (y1 * y1 - d) * p_t
        # `_certificate`: the exactly rounded norm, and the box gap from 0.0
        norm = math.sqrt(math.fsum((g0 * g0, g1 * g1)))
        gap = 0.0 + max(ga * (0.0 - a), ga * (1.0 - a))
        gap += max(gb * (0.0 - b), gb * (1.0 - b))
        return (
            (b * m2_t + t1 * m1_t + t0 * p_t) + (m2_n + n1 * m1_n + n0 * p_n), 0.0,
            (b * m2_n + t1 * m1_n + t0 * p_n) + (m2_t + n1 * m1_t + n0 * p_t), 0.0,
            (g0, g1), _ZERO_PAIR, (ga, gb), _ZERO_PAIR,
            (w0 * d0_t, wb * d1_n - 2.0 * a * d1_t), _ZERO_PAIR,
            max(norm, gap), 0.0,
        )

    def _ccp_g(self, x0, x1, a, b) -> tuple[float, float]:
        # from the P and M1 entries of the transmit (_t) and the silent (_n)
        # row: each block is gated on the region where its quadratic is the
        # larger branch
        y0, y1, p_t, m1_t, _, p_n, m1_n, _ = self._rows(x0, x1, a, b)
        return (
            -2.0 * (1.0 - a) * (m1_t - y0 * p_t),
            -2.0 * b * (m1_n - y1 * p_n) - 2.0 * a * (m1_t - y1 * p_t),
        )

    evaluate = _public_evaluate
    ccp_g = _public_ccp_g
    objective = _view("objective")
    dc_concave_part = _view("concave")
    grad_xhat = _view("grad_xhat")
    grad_phi = _view("grad_phi")
    ccp_update = _ccp_update
    fne_index = _view("fne_index")


class McVectorModel:
    """Monte Carlo twin of ExactScalarModel over a frozen sample set.

    The same draws back every expectation for the lifetime of the model
    (common random numbers), so solver trajectories are deterministic given
    (seed, samples) and the convex-concave descent argument applies to the
    sampled objective exactly.

    The draws are deviations y = x - mean, never shifted by the mean, kept
    transposed: one (2m, N) array holds y in its first m rows and y^2 in the
    m rows below, beside ||y||^2 per sample.  Each pass is one product:

    - the squared distances ||x - x_hat_k||^2 = ||y||^2 - 2 <y, delta_k>
      + ||delta_k||^2, delta_k = x_hat_k - mean, take one (2, m) @ (m, N)
      product and are kept for the last symbol pair, so a policy step at
      fixed symbols skips it;
    - the symbol gradients come from the sums of y and of y^2 over the
      transmit and the silent samples, `masks @ Y.T` and `masks @ Y2.T`.

    `ccp_g` builds only the transmit mask and the y sums, the product
    `evaluate` makes, so it is bit for bit `evaluate(...).ccp_g`.  The
    cores `_evaluate` and `_ccp_g` take the symbols as two arrays and the
    policy as two floats.
    """

    def __init__(self, source, costs: GameCosts, samples: int = 10_000, seed: int = 0):
        if isinstance(source, ScalarGaussian):
            raise TypeError("use ExactScalarModel for scalar sources")
        if samples < 2:
            raise ValueError("samples must be at least 2")
        self.costs = costs
        self.mean = np.asarray(source.mean, dtype=float)
        self.n = samples
        m = self.mean.size
        powers = np.empty((2 * m, samples))
        self._y, self._y2 = powers[:m], powers[m:]
        self._y[...] = _deviations(source, seed, samples).T
        np.multiply(self._y, self._y, out=self._y2)
        self._norm_sq = self._y2.sum(axis=0)
        self._key = self._sq = None

    @staticmethod
    def _pair(symbols):
        return symbols.x_hat0, symbols.x_hat1

    def _sq_dists(self, x0, x1):
        """Squared distances of the draws to both symbols, a (2, N) array
        kept per symbol pair."""
        key = np.concatenate([x0, x1])
        if not np.array_equal(key, self._key):
            self._key = key
            delta = key.reshape(2, -1) - self.mean
            sq = delta @ self._y
            sq *= -2.0
            sq += self._norm_sq
            sq += np.einsum("ij,ij->i", delta, delta)[:, None]
            self._sq = sq
        return self._sq

    def _branches(self, x0, x1, a, b):
        """Per sample: the squared distances, the transmit and the silent
        branch's cost, and whether the sensor transmits."""
        c, d = self.costs.c, self.costs.d
        sq0, sq1 = self._sq_dists(x0, x1)
        f_t = b * sq1 + c - d * b
        f_nt = a * sq1 + (1.0 - a) * sq0 - d * a
        return sq0, sq1, f_t, f_nt, f_nt > f_t

    def _y_sums(self, transmit, x0, x1):
        """The 0/1 masks (rows: transmit, silent), their counts, the masked
        sums of y, and from those the sums of (x - x_hat) per symbol block
        and row."""
        masks = np.empty((2, self.n))
        masks[0] = transmit
        np.subtract(1.0, masks[0], out=masks[1])
        s1 = masks @ self._y.T
        n_t = np.count_nonzero(transmit)
        counts = np.array([[n_t], [self.n - n_t]], dtype=float)
        delta = (np.stack([x0, x1]) - self.mean)[:, None]
        return masks, s1, counts, delta, s1 - counts * delta

    def _evaluate(self, x0, x1, a, b) -> tuple:
        d = self.costs.d
        sq0, sq1, f_t, f_nt, transmit = self._branches(x0, x1, a, b)
        masks, s1, counts, delta, dev = self._y_sums(transmit, x0, x1)
        # per-sample rows: objective, concave part, grad_phi
        per = np.empty((4, self.n))
        np.minimum(f_t, f_nt, out=per[0])
        np.maximum(f_t, f_nt, out=per[1])
        np.subtract(sq1, sq0, out=per[2])
        per[2] -= d
        per[2] *= masks[1]
        np.subtract(sq1, d, out=per[3])
        per[3] *= masks[0]
        mean, se = mean_std_err(
            per.sum(axis=1), np.einsum("ij,ij->i", per, per), self.n
        )
        s2 = masks @ self._y2.T
        dev_sq = s2 - 2.0 * delta * s1 + counts * delta * delta
        w = _ccp_weights(a, b)
        w_sq = tuple(v * v for v in w)
        # grad_xhat is ccp_g with the transmit and silent rows swapped
        g_mean, g_se = mean_std_err(
            np.stack([_block_sums(w, dev[:, ::-1]), _block_sums(w, dev)]),
            np.stack([_block_sums(w_sq, dev_sq[:, ::-1]), _block_sums(w_sq, dev_sq)]),
            self.n,
        )
        # conservative: the index is a max of two statistics whose spreads are
        # bounded by the rms of their component standard errors
        idx_se = max(float(np.linalg.norm(g_se[0])), float(np.linalg.norm(se[2:])))
        grad_phi = tuple(mean[2:].tolist())
        return (
            float(mean[0]), float(se[0]), float(mean[1]), float(se[1]),
            _halves(g_mean[0]), g_se[0], grad_phi, se[2:], _halves(g_mean[1]), g_se[1],
            _certificate(g_mean[0].tolist(), grad_phi, (a, b)), idx_se,
        )

    def _ccp_g(self, x0, x1, a, b):
        """`_evaluate(...).ccp_g` from the transmit mask and the y sums alone."""
        transmit = self._branches(x0, x1, a, b)[-1]
        dev = self._y_sums(transmit, x0, x1)[-1]
        return _halves(_block_sums(_ccp_weights(a, b), dev) / self.n)

    evaluate = _public_evaluate
    ccp_g = _public_ccp_g
    objective = _view("objective")
    dc_concave_part = _view("concave")
    grad_xhat = _view("grad_xhat")
    grad_phi = _view("grad_phi")
    ccp_update = _ccp_update
    fne_index = _view("fne_index")


def _ccp_weights(a, b):
    """The per-sample ccp_g is w (x - x_hat) with w = -2 (1 - alpha) on the
    transmit samples of block 0, and -2 alpha (transmit) or -2 beta
    (silent) on block 1."""
    return -2.0 * (1.0 - a), -2.0 * a, -2.0 * b


def _block_sums(w, dev):
    """Sums over the samples of the per-sample ccp_g, with weights `w` and
    per block and row (transmit, silent) sums `dev` of (x - x_hat); with
    squared weights and sums of (x - x_hat)^2, the sums of its squares."""
    w0, wa, wb = w
    return np.concatenate([w0 * dev[0, 0], wa * dev[1, 0] + wb * dev[1, 1]])


def _halves(g: np.ndarray):
    """A vector's two symbol blocks, as views."""
    m = g.size // 2
    return g[:m], g[m:]


def _ccp_inverse(g, a, b, mean):
    """x_new = pinv(diag(2(1-alpha) I, 2(alpha+beta) I)) g + (mean, mean),
    on a pair of blocks `g` (floats or arrays, as `mean`).

    A zero diagonal block has an all-zero pseudo-inverse block, which parks
    the corresponding symbol at the mean: the quadratic part of the convex
    component is flat there and the mean is its unconstrained minimizer.
    The parked symbol is `mean` itself, not a copy.
    """
    g0, g1 = g
    a0 = 2.0 * (1.0 - a)
    a1 = 2.0 * (a + b)
    return mean + g0 / a0 if a0 != 0.0 else mean, mean + g1 / a1 if a1 != 0.0 else mean


# -- solvers -----------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the two solvers; defaults follow the reference runs."""

    epsilon: float = 1e-5
    max_iters: int = 5000
    pga_step: float = 0.1
    pga_step_rule: str = "constant"  # or "inv_sqrt" for step/sqrt(k)
    gd_step: float = 0.01
    mc_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        _check_count("max_iters", self.max_iters)
        _check_count("mc_samples", self.mc_samples)
        if not self.epsilon >= 0.0:
            raise ValueError("epsilon must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        for name in ("pga_step", "gd_step"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.pga_step_rule not in ("constant", "inv_sqrt"):
            raise ValueError(f"unknown pga_step_rule {self.pga_step_rule!r}")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be at least 2")


class TraceRow(NamedTuple):
    """One iterate of a solve: its certificate, objective, policy and symbols."""

    iteration: int
    fne_index: float
    fne_std_err: float
    objective: float
    alpha: float
    beta: float
    x_hat0: np.ndarray
    x_hat1: np.ndarray


@dataclass(frozen=True, eq=False)
class FneReport:
    """Outcome of one solver run, with the full per-iteration trace.

    The loop keeps each iteration's statistics and iterates as plain
    values; the `TraceRow`s are built from them the first time `trace` is
    read, so a run whose trace is never read builds none.
    """

    symbols: ReprSymbols
    policy: ReactivePolicy
    fne_index: float
    fne_std_err: float
    iterations: int
    converged: bool
    # per iteration: (k, fne_index, fne_std_err, objective, alpha, beta),
    # and each symbol's iterate, a float or an array
    _stats: list = field(repr=False)
    _x0s: list = field(repr=False)
    _x1s: list = field(repr=False)

    @property
    def objective(self) -> float:
        """The last iterate's objective, `trace[-1].objective`."""
        return self._stats[-1][3]

    @cached_property
    def trace(self) -> tuple[TraceRow, ...]:
        # each symbol's iterates as one (n, m) array, a row holding views
        n = len(self._stats)
        x0s = np.array(self._x0s, dtype=float).reshape(n, -1)
        x1s = np.array(self._x1s, dtype=float).reshape(n, -1)
        return tuple(
            TraceRow(*row, r0, r1) for row, r0, r1 in zip(self._stats, x0s, x1s)
        )


def _build_model(source, costs, config: SolverConfig):
    if isinstance(source, ScalarGaussian):
        return ExactScalarModel(source, costs)
    if isinstance(source, (DiagonalGaussian, GeneralGaussian)):
        return McVectorModel(source, costs, config.mc_samples, config.seed)
    raise TypeError(f"unsupported source type {type(source).__name__}")


def _source_moments(source):
    if isinstance(source, ScalarGaussian):
        return np.array([source.mean]), np.array([source.std])
    if isinstance(source, DiagonalGaussian):
        return source.mean.copy(), np.sqrt(source.variances)
    return source.mean.copy(), np.sqrt(np.diag(source.covariance))


def default_init(source) -> tuple[ReprSymbols, ReactivePolicy]:
    """Symbols at the mean with a symmetry-breaking 0.1 sigma offset on the
    silent symbol; jam probabilities at the center of the box."""
    mean, std = _source_moments(source)
    return ReprSymbols(mean + 0.1 * std, mean), ReactivePolicy(0.5, 0.5)


def random_init(source, seed: int) -> tuple[ReprSymbols, ReactivePolicy]:
    """Seeded random start: symbols drawn at source scale, policy uniform."""
    mean, std = _source_moments(source)
    rng = philox_rng(seed, 1)
    symbols = ReprSymbols(
        mean + std * rng.standard_normal(mean.size),
        mean + std * rng.standard_normal(mean.size),
    )
    a, b = rng.uniform(0.0, 1.0, size=2)
    return symbols, ReactivePolicy(float(a), float(b))


def _run(source, costs, config, init, symbol_step):
    """Iterate from the start point: a projected ascent step on the jam
    probabilities, then `symbol_step` on the symbols.

    The loop carries plain values: the symbols as two floats (scalar source)
    or two arrays, the policy as two floats, and of each core evaluation
    (`Evaluation`'s fields, as a plain tuple) only what it reads.  Each
    iterate passes the checks of `ReactivePolicy` and `ReprSymbols`, with
    their messages, and its symbol gradient is handed to the next step, so
    no point is evaluated twice.
    """
    model = _build_model(source, costs, config)
    symbols, policy = default_init(source) if init is None else init
    x0, x1 = model._pair(symbols)
    a, b = float(policy.alpha), float(policy.beta)
    evaluate, epsilon = model._evaluate, config.epsilon
    _, _, _, _, gx, _, gp, *_ = evaluate(x0, x1, a, b)
    step, inv_sqrt = config.pga_step, config.pga_step_rule == "inv_sqrt"
    stats, x0s, x1s = [], [], []
    converged = False
    for k in range(1, config.max_iters + 1):
        if inv_sqrt:
            step = config.pga_step / math.sqrt(k)
        ga, gb = gp
        a, b = min(max(a + step * ga, 0.0), 1.0), min(max(b + step * gb, 0.0), 1.0)
        _check_policy(a, b)
        x0, x1 = symbol_step(model, x0, x1, a, b, gx)
        _check_finite(x0, x1)
        objective, _, _, _, gx, _, gp, _, _, _, index, index_se = evaluate(x0, x1, a, b)
        stats.append((k, index, index_se, objective, a, b))
        x0s.append(x0)
        x1s.append(x1)
        if index <= epsilon + 3.0 * index_se:
            converged = True
            break
    # copies: a parked symbol is the model's own mean
    x0, x1 = (np.array(x, dtype=float, ndmin=1) for x in (x0, x1))
    return FneReport(
        ReprSymbols(x0, x1), ReactivePolicy(a, b), index, index_se, len(stats),
        converged, stats, x0s, x1s,
    )


def solve_pga_ccp(source, costs, config: SolverConfig | None = None, init=None) -> FneReport:
    """Alternate projected gradient ascent on the jam probabilities with a
    closed-form convex-concave step on the symbols until the first-order
    certificate drops below epsilon (MC paths allow 3 standard errors).

    Convergence certifies a first-order Nash point, not a saddle point: the
    coordinator's side is nonconvex and a global best response may do better
    (see `ExactScalarModel`).  With c = 1, d = 1.5 and the default start, the
    point reached for N(0, 2) is a saddle point, but for N(0, 3), N(0, 4)
    and N(0, 5) the coordinator lowers J from 1.905 / 2.850 / 3.811 to
    1.878 / 2.808 / 3.764 by never transmitting.
    """
    config = config or SolverConfig()

    def symbol_step(model, x0, x1, a, b, grad_xhat):
        return _ccp_inverse(model._ccp_g(x0, x1, a, b), a, b, model.mean)

    return _run(source, costs, config, init, symbol_step)


def solve_gda(source, costs, config: SolverConfig | None = None, init=None) -> FneReport:
    """Baseline: simultaneous projected ascent on the jam probabilities
    (pga_step) and plain descent on the symbols (gd_step)."""
    config = config or SolverConfig()

    def symbol_step(model, x0, x1, a, b, grad_xhat):
        g0, g1 = grad_xhat
        return x0 - config.gd_step * g0, x1 - config.gd_step * g1

    return _run(source, costs, config, init, symbol_step)

"""Gaussian source models and the closed-form integrals the game solvers build on.

Every quantity computed by the solvers in this package reduces to two kinds
of Gaussian integrals:

* interval moments              E[Y^k 1(a < X < b)], Y = X - mean, k = 0, 1, 2
* norm-square tail integrals    E[S^p 1(S > r)], S = ||X - mean||^2, p = 0, 1

Scalar forms are erfc-based and exact.  The norm-square tail integrals are
exact for any spectrum: Ruben's chi-square mixture, and Imhof's inversion
integral where that series grows too long.
Sampling uses counter-based Philox streams keyed by integer ids, so consumers
can split reproducible substreams without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Largest residual of the indifference condition accepted at an exact root,
# and largest error of an Imhof tail integral, relative to the variance (or
# trace).
_RESIDUAL_TOL = 1e-10

# Most terms the Ruben series of `norm_sq_tail` may take: the measured
# crossover, near lambda_max / lambda_min = 3e3, past which Imhof's integral
# is the faster exact form.
_MAX_TERMS = 100_000


class ConvergenceError(RuntimeError):
    """An iterative routine failed to meet its accuracy contract."""


@dataclass(frozen=True)
class ScalarGaussian:
    """Scalar normal source with mean `mean` and variance `var` (> 0)."""

    mean: float
    var: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.var)):
            raise ValueError("mean and var must be finite")
        if self.var <= 0.0:
            raise ValueError(f"variance must be positive, got {self.var}")

    @property
    def std(self) -> float:
        return math.sqrt(self.var)


@dataclass(frozen=True, eq=False)
class DiagonalGaussian:
    """Vector normal source with independent coordinates.

    `mean` and `variances` are 1-D arrays of equal length; all variances
    must be strictly positive.
    """

    mean: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        variances = np.asarray(self.variances, dtype=float)
        if mean.ndim != 1 or variances.ndim != 1 or mean.shape != variances.shape:
            raise ValueError("mean and variances must be 1-D arrays of equal length")
        if mean.size == 0:
            raise ValueError("dimension must be at least 1")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(variances))):
            raise ValueError("mean and variances must be finite")
        if np.any(variances <= 0.0):
            raise ValueError("all variances must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variances", variances)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True, eq=False)
class GeneralGaussian:
    """Vector normal source with a symmetric positive-definite covariance.

    The eigendecomposition is computed once at construction.  Eigenvalues
    below the floor 1e-12 * trace / dim are treated as a rank deficiency and
    rejected, rather than silently regularized.
    """

    mean: np.ndarray
    covariance: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.ndim != 1 or cov.ndim != 2 or cov.shape != (mean.size, mean.size):
            raise ValueError("covariance must be square with side len(mean)")
        if mean.size == 0:
            raise ValueError("dimension must be at least 1")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and covariance must be finite")
        scale = float(np.max(np.abs(cov))) or 1.0
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10 * scale):
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        floor = 1e-12 * float(np.trace(cov)) / mean.size
        if np.any(eigenvalues < floor):
            raise ValueError(
                f"covariance is not positive definite: eigenvalue "
                f"{eigenvalues.min():.3e} below floor {floor:.3e}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    @property
    def dim(self) -> int:
        return self.mean.size


def interval_moments(
    source: ScalarGaussian, lo: float, hi: float
) -> tuple[float, float, float]:
    """(E[1(lo<X<hi)], E[X 1(lo<X<hi)], E[X^2 1(lo<X<hi)]) in closed form.

    Endpoints may be -inf / +inf.  Both tails are computed via erfc so the
    result stays relatively accurate far from the mean.  This is the only
    form with moments about the origin, shifted from those of the deviation
    X - mean over the one piece (lo, hi) (`_region_rows`).  The library
    never calls it: the game code integrates the deviation itself, which
    keeps its digits at any mean.
    """
    if not (lo < hi):
        return 0.0, 0.0, 0.0
    m = source.mean
    p, e1, e2 = _region_rows((lo - m, hi - m), False, source.std, source.var)[:3]
    m1 = m * p + e1
    return p, m1, m * (m1 + e1) + e2


def _region_rows(edges, transmit_first: bool, s, var):
    """(P, E[Y 1], E[Y^2 1]) of the deviation Y over the transmit and then
    the silent set, six floats, of a rule that cuts the line at `edges`
    (ascending, in Y) and transmits on every other segment, the first iff
    `transmit_first`.

    One pass over the edges: each edge's standardised z, small tail
    P(Z > |z|), density q(z) and z q(z) are formed once for the two pieces
    it bounds.  A piece takes its probability from the two small tails, so
    it stays relatively accurate far from the mean."""
    tp = t1 = t2 = np_ = n1 = n2 = 0.0
    # -inf: no tail, no density
    za, ta, qa, ea = -math.inf, 0.0, 0.0, 0.0
    transmit = transmit_first
    for edge in (*edges, None):
        if edge is None:  # +inf
            zb, tb, qb, eb = math.inf, 0.0, 0.0, 0.0
        else:
            zb = edge / s
            tb = 0.5 * float(special.erfc(abs(zb) / _SQRT2))
            qb = _INV_SQRT_2PI * math.exp(-0.5 * zb * zb)
            # q = 0 at an infinite edge, where the product is 0
            eb = zb * qb if qb != 0.0 else 0.0
        if za >= 0.0:
            p = ta - tb
        elif zb <= 0.0:
            p = tb - ta
        else:
            p = 1.0 - ta - tb
        if p < 0.0:  # max(p, 0.0), which keeps a NaN
            p = 0.0
        m1 = s * (qa - qb)
        m2 = var * (p + ea - eb)
        if transmit:
            tp += p
            t1 += m1
            t2 += m2
        else:
            np_ += p
            n1 += m1
            n2 += m2
        za, ta, qa, ea = zb, tb, qb, eb
        transmit = not transmit
    return tp, t1, t2, np_, n1, n2


def philox_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for substream `stream` of the root `seed`.

    Distinct stream id tuples give statistically independent streams; the
    same (seed, stream) pair always reproduces the same draws.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if any(s < 0 for s in stream):
        raise ValueError("stream ids must be nonnegative")
    seq = np.random.SeedSequence(entropy=(int(seed),) + tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(seq))


def sample(source, seed: int, count: int) -> np.ndarray:
    """Draw `count` samples; shape (count,) scalar, (count, dim) vector."""
    return _deviations(source, seed, count) + source.mean


def _deviations(source, seed: int, count: int) -> np.ndarray:
    """`count` draws of the deviation X - mean: the draws of `sample` before
    the mean is added."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = philox_rng(seed)
    if isinstance(source, ScalarGaussian):
        return source.std * rng.standard_normal(count)
    lam = _spectrum(source)
    z = rng.standard_normal((count, lam.size))
    z *= np.sqrt(lam)
    return z @ source.eigenvectors.T if isinstance(source, GeneralGaussian) else z


def mean_std_err(total, total_sq, n: int):
    """Monte Carlo mean and its standard error from a sum and a sum of
    squares over n samples; works elementwise on arrays."""
    mean = total / n
    var = np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def norm_sq_tail(source):
    """tail(r, p) = E[S^p 1(S > r)], p = 0 or 1, for the squared deviation
    S = ||X - mean||^2 of any source, built once per source.  It is the one
    law of S the proactive game reads, so a source's mean never enters.

    A scalar tail is 2 Q(z) or 2 var (Q(z) + z q(z)) at z = sqrt(r) / sigma.
    A vector tail depends only on the spectrum lambda, the variances of a
    diagonal source and the eigenvalues of a general one.
    With beta = min lambda and a_i = 1 - beta / lambda_i, Ruben's series
    (Ann. Math. Statist. 1962) makes S / beta a chi2_{m+2k} with probability
    c_k, the coefficients of F(z) = prod_i (beta / lambda_i)^(1/2)
    (1 - a_i z)^(-1/2), so E[S^p 1(S > r)] = sum_k c_k (beta (m + 2k))^p
    Q(m + 2k + 2p, r / beta), Q the chi-square upper tail.  An isotropic
    source has the one term c_0 = 1.  A spectrum whose series needs more than
    `_MAX_TERMS` terms (about 36 lambda_max / lambda_min) takes Imhof's
    inversion integral instead.
    """
    if isinstance(source, ScalarGaussian):
        s, var = source.std, source.var

        def tail(r: float, p: int) -> float:
            # Q(z) and q(z) on plain floats, as `_region_rows` forms them
            z = math.sqrt(r) / s
            moment = 0.5 * float(special.erfc(z / _SQRT2))
            if p:
                moment = var * (moment + z * (_INV_SQRT_2PI * math.exp(-0.5 * z * z)))
            return 2.0 * moment

        return tail
    lam = _spectrum(source)
    terms = _ruben_terms(lam)
    return _imhof_tail(lam) if terms > _MAX_TERMS else _ruben_tail(lam, terms)


def _spectrum(source) -> np.ndarray:
    """Variances of the independent coordinates of a source: its variance,
    its variances or its covariance eigenvalues."""
    if isinstance(source, ScalarGaussian):
        return np.array([source.var])
    if isinstance(source, DiagonalGaussian):
        return source.variances
    if isinstance(source, GeneralGaussian):
        return source.eigenvalues
    raise TypeError(f"unsupported source type {type(source).__name__}")


def _ruben_terms(lam: np.ndarray) -> int:
    """Last index K of the series whose dropped terms of E[S] stay below
    1e-13 trace, by the Chernoff bound sum_{k>K} c_k (m + 2k) <= H(z) z^-(K+1),
    H = F (m + z sum_i a_i / (1 - a_i z)), at the best z in (1, 1 / max a)."""
    beta = lam.min()
    a = 1.0 - beta / lam
    if a.max() == 0.0:
        return 0
    z = 1.0 + np.linspace(0.01, 0.99, 99) * (1.0 / a.max() - 1.0)
    za = np.outer(z, a)
    log_h = 0.5 * np.log(beta / lam).sum() - 0.5 * np.log1p(-za).sum(axis=1)
    log_h += np.log(lam.size + (za / (1.0 - za)).sum(axis=1))
    log_tol = math.log(1e-13 * lam.sum() / beta)
    return max(0, math.ceil(np.min((log_h - log_tol) / np.log(z))) - 1)


def _ruben_tail(lam: np.ndarray, terms: int):
    """Ruben's series to `terms`: c_k from one FFT of F on the N-th roots of
    unity, N a power of two above 2 `terms`, one eigenvalue at a time."""
    beta = lam.min()
    n = 1 << (2 * terms).bit_length()
    w = np.exp(2j * np.pi * np.arange(n) / n)
    log_f = np.zeros(n, dtype=complex)
    for a in 1.0 - beta / lam:
        log_f -= np.log1p(-a * w)
    f = np.exp(0.5 * (log_f + np.log(beta / lam).sum()))
    c = np.fft.fft(f).real[: terms + 1] / n
    dof = lam.size + 2.0 * np.arange(terms + 1)
    weights = (c, c * (beta * dof))
    return lambda r, p: float(weights[p] @ special.chdtrc(dof + 2 * p, r / beta))


def _imhof_tail(lam: np.ndarray):
    """Imhof's inversion (Biometrika 1961), at unit trace: x^p P(dx) has the
    transform psi(t) = phi(t) s(t)^p, phi(t) = prod_i (1 - 2i lambda_i t)^(-1/2),
    s(t) = sum_i lambda_i / (1 - 2i lambda_i t), and E[S^p 1(S > r)] =
    1/2 + (1/pi) int_0^inf Im(e^(-itr) psi(t)) / t dt.  The 1/t pole of Re psi
    is taken out as e^(-t) / t, whose sine transform is arctan(r)."""
    trace = lam.sum()
    lam = lam / trace
    # Im psi(t) / t at t = 0: E[S^(p+1)]
    slope = (1.0, 1.0 + 2.0 * (lam @ lam))

    def tail(r: float, p: int) -> float:
        def psi(t: float) -> complex:
            z = 1.0 - 2j * t * lam
            phi = np.exp(-0.5 * np.log(z).sum())
            return phi * (lam / z).sum() if p else phi

        x = r / trace
        if x == 0.0:
            return trace**p
        # past the first cycle and where every factor of psi is a power law
        end = max(2.0 * math.pi / x, 100.0 / lam.min())
        cos_part = _fourier(lambda t: psi(t).imag / t if t else slope[p], x, "cos", end)
        sin_part = _fourier(
            lambda t: (psi(t).real - math.exp(-t)) / t if t else 1.0, x, "sin", end
        )
        return trace**p * (0.5 + (cos_part - sin_part - math.atan(x)) / math.pi)

    return tail


def _fourier(f, x: float, weight: str, end: float) -> float:
    """int_0^inf f(t) w(x t) dt, w = cos or sin: QUADPACK's oscillatory
    routine on [0, 1], [1, 4], ... below `end`, its Fourier routine past it.
    That one extrapolates over cycles pi / x long, so `end` lies past the
    first cycle and past the last change of shape of f's envelope.  An error
    estimate above pi/2 `_RESIDUAL_TOL` raises ConvergenceError."""
    # imported here, so that only a run that integrates pays for it
    from scipy import integrate

    edges = [0.0, *4.0 ** np.arange(math.ceil(math.log(end, 4.0))), math.inf]
    pieces = [
        integrate.quad(f, lo, hi, weight=weight, wvar=x, epsabs=1e-13,
                       epsrel=1e-13, full_output=1)[:2]
        for lo, hi in zip(edges, edges[1:])
    ]
    value, err = np.sum(pieces, axis=0)
    bound = 0.5 * math.pi * _RESIDUAL_TOL
    if not err <= bound:
        raise ConvergenceError(f"Imhof {weight} integral error estimate {err:.3e} "
                               f"exceeds {bound:.3e} at r / trace = {x:.6g}")
    return float(value)

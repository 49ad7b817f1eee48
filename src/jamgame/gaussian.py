"""Gaussian source models and the closed-form integrals the game solvers build on.

Every quantity computed by the solvers in this package reduces to a small set
of Gaussian integrals:

* upper-tail probability        int_t^inf f(x) dx
* upper-tail second moment      int_t^inf x^2 f(x) dx
* interval moments              E[X^k 1(a < X < b)]  for k = 0, 1, 2
* norm-square tail moment       E[||X||^2 1(||X||^2 > r)]

Scalar forms are erfc-based and exact.  The norm-square tail moment is the
exact chi-square identity, for isotropic vector models.
Sampling uses counter-based Philox streams keyed by integer ids, so consumers
can split reproducible substreams without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _std_tail(z: float) -> float:
    """P(Z > z) for standard normal Z, accurate into the far tail.

    A Python float, so the closed forms built on it run on plain floats.
    """
    return 0.5 * float(special.erfc(z / _SQRT2))


def _std_pdf(z: float) -> float:
    if math.isinf(z):
        return 0.0
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


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

    def centered(self) -> "ScalarGaussian":
        return ScalarGaussian(0.0, self.var)


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

    @property
    def is_isotropic(self) -> bool:
        # Exact equality on purpose: the chi-square closed form is selected
        # only when the model is isotropic by construction, never by rounding.
        return bool(np.all(self.variances == self.variances[0]))

    def centered(self) -> "DiagonalGaussian":
        return DiagonalGaussian(np.zeros(self.dim), self.variances)


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


def whiten(source: GeneralGaussian) -> tuple[DiagonalGaussian, np.ndarray]:
    """Rotate a correlated source into independent coordinates.

    Returns `(diag, W)` where `W` has orthonormal rows and rotating samples
    of `source` by `W` yields samples of `diag`, whose variances are the
    covariance eigenvalues.
    """
    rotation = source.eigenvectors.T
    diag = DiagonalGaussian(rotation @ source.mean, source.eigenvalues.copy())
    return diag, rotation


def tail_prob(source: ScalarGaussian, t: float) -> float:
    """int_t^inf f(x) dx, the probability that the source exceeds `t`."""
    return _std_tail((t - source.mean) / source.std)


def tail_second_moment(source: ScalarGaussian, t: float) -> float:
    """int_t^inf x^2 f(x) dx for a centered scalar source and t >= 0.

    Closed form sigma^2 [Q(z) + z q(z)] with z = t/sigma, Q the standard
    normal tail and q its density.  Callers with noncentered sources shift
    first; the x^2 weight is about the origin.
    """
    if source.mean != 0.0:
        raise ValueError("tail_second_moment requires a centered source")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    z = t / source.std
    return source.var * (_std_tail(z) + z * _std_pdf(z))


def interval_moments(
    source: ScalarGaussian, lo: float, hi: float
) -> tuple[float, float, float]:
    """(E[1(lo<X<hi)], E[X 1(lo<X<hi)], E[X^2 1(lo<X<hi)]) in closed form.

    Endpoints may be -inf / +inf.  Both tails are computed via erfc so the
    result stays relatively accurate far from the mean.
    """
    if not (lo < hi):
        return 0.0, 0.0, 0.0
    m, s = source.mean, source.std
    return _piece_moments(
        _endpoint(lo, m, s), _endpoint(hi, m, s), m, s, m * m + source.var
    )


def _endpoint(x: float, m: float, s: float) -> tuple[float, float, float, float]:
    """(z, P(Z > |z|), q(z), (x + m) q(z)) of an interval endpoint x, with
    z = (x - m) / s and q the standard normal density."""
    z = (x - m) / s
    q = _std_pdf(z)
    # q = 0 at infinite endpoints, where the product is 0
    return z, _std_tail(abs(z)), q, (x + m) * q if q != 0.0 else 0.0


def _piece_moments(left, right, m, s, mv) -> tuple[float, float, float]:
    """`interval_moments` of a nonempty interval from its `_endpoint`s, the
    mean m, the standard deviation s and mv = m^2 + var.  Intervals that
    share an endpoint can share its tail and density."""
    za, ta, qa, ea = left
    zb, tb, qb, eb = right
    # P(lo < X < hi) from the two small tails, each P(Z > |z|)
    if za >= 0.0:
        p = ta - tb
    elif zb <= 0.0:
        p = tb - ta
    else:
        p = 1.0 - ta - tb
    p = max(p, 0.0)
    return p, m * p + s * (qa - qb), mv * p + s * (ea - eb)


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
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = philox_rng(seed)
    if isinstance(source, ScalarGaussian):
        return source.mean + source.std * rng.standard_normal(count)
    # vector draws are scaled and shifted in place: one (count, dim) array
    # at a time, the same values as mean + scale * z
    if isinstance(source, DiagonalGaussian):
        z = rng.standard_normal((count, source.dim))
        z *= np.sqrt(source.variances)
        z += source.mean
        return z
    if isinstance(source, GeneralGaussian):
        z = rng.standard_normal((count, source.dim))
        z *= np.sqrt(source.eigenvalues)
        x = z @ source.eigenvectors.T
        x += source.mean
        return x
    raise TypeError(f"unsupported source type {type(source).__name__}")


def mean_std_err(total, total_sq, n: int):
    """Monte Carlo mean and its standard error from a sum and a sum of
    squares over n samples; works elementwise on arrays."""
    mean = total / n
    var = np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def norm_sq_tail_moment(source: DiagonalGaussian, r: float) -> float:
    """E[||X||^2 1(||X||^2 > r)] for a zero-mean isotropic diagonal source.

    Exact through the chi-square identity E[S 1(S > q)] = m P(chi2_{m+2} > q)
    for S ~ chi2_m.  Anisotropic sources have no such closed form; the vector
    saddle estimates their tail moment by Monte Carlo.
    """
    if np.any(source.mean != 0.0):
        raise ValueError("norm_sq_tail_moment requires a zero-mean source")
    if not source.is_isotropic:
        raise ValueError("norm_sq_tail_moment requires an isotropic source")
    if r < 0.0:
        raise ValueError(f"r must be nonnegative, got {r}")
    v = float(source.variances[0])
    return v * source.dim * float(stats.chi2.sf(r / v, source.dim + 2))

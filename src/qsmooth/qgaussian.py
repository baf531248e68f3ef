"""Multivariate q-Gaussian distribution with q-mean 0 and q-covariance beta^2 I.

The family interpolates between a uniform law on a shrinking ball
(q -> -inf), the Gaussian (q = 1) and heavy power-law tails
(1 < q < 1 + 2/N, Cauchy at q = 1 + 2/(N+1)).  Everything here works in
terms of the *standard* member (unit q-variance per coordinate); the
kernel's ``beta`` enters only as an affine scale.

All Gamma-ratio constants are evaluated as log-gamma differences: the
naive Gamma quotients overflow long before q reaches 1.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .rng import _BLOCK, RngStream, _count, _real, _reals

# Constructions this close to the q = 1 + 2/dim boundary are rejected: the
# normalizing constant diverges there and nothing finite can be computed.
_BOUNDARY_GUARD = 1e-9

_LOG_2PI = math.log(2.0 * math.pi)


def _gammaln(x: float) -> float:
    """scipy's log-gamma, imported on first use, when it takes this
    function's place: only the analytic values need it, and scipy would
    otherwise load with every import of qsmooth.  ``math.lgamma`` differs
    from it in the last bits."""
    global _gammaln
    from scipy.special import gammaln as _gammaln

    return _gammaln(x)


class QGaussianDomainError(ValueError):
    """N is not an integer >= 1, or q is outside (-inf, 1 + 2/N), where the
    distribution is undefined, or so far below 1 that the sampler's
    constants overflow."""


class MomentDoesNotExistError(ValueError):
    """The requested generalized moment is infinite for this (q, N)."""


def _check_q_domain(q: float, dim: int) -> None:
    if not isinstance(dim, numbers.Integral) or isinstance(dim, bool):
        raise QGaussianDomainError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise QGaussianDomainError(f"dim must be >= 1, got {dim}")
    if not q < 1.0 + 2.0 / dim - _BOUNDARY_GUARD:
        raise QGaussianDomainError(
            f"q={q} not admissible for dim={dim}; need q < 1 + 2/dim = {1.0 + 2.0 / dim}"
        )


def tail_coefficient(q: float, dim: int) -> float:
    """The recurring constant N + 2 - N*q (exactly 2 at q = 1)."""
    return dim + 2.0 - dim * q


@dataclass(frozen=True)
class QKernel:
    """Parameters of the perturbation distribution: shape q, scale beta, dimension."""

    q: float
    beta: float
    dim: int

    def __post_init__(self):
        _real(self.q, "q")
        _real(self.beta, "beta")  # checks only: a float32 beta computes in float32
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be > 0 and finite, got {self.beta}")
        _transform_constants(self.q, self.dim)

    @property
    def tail_coefficient(self) -> float:
        return tail_coefficient(self.q, self.dim)


@dataclass(frozen=True)
class MomentSpec:
    """Powers for E[prod_i X_i^{powers[i]} / rho(X)^b]."""

    b: int
    powers: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "b", _count(self.b, "b"))
        object.__setattr__(self, "powers", tuple(_count(p, "powers entry") for p in self.powers))


def _point(x, dim: int, name: str) -> np.ndarray:
    """``x`` as a float array of shape (dim,), or ValueError naming ``name``."""
    x = _reals(x, name)
    if x.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {x.shape}")
    return x


def rho(eta: np.ndarray, q: float, dim: int) -> float:
    """Correction factor 1 - ((1-q)/(N+2-Nq)) * ||eta||^2; exactly 1 at q = 1."""
    constants = _transform_constants(q, dim)
    eta = _point(eta, dim, "eta")
    if constants is None:
        return 1.0
    return float(1.0 - constants[2] * np.dot(eta, eta))


@functools.lru_cache(maxsize=64, typed=True)
def log_normalizing_constant(q: float, dim: int) -> float:
    """log K_{q,N}, the normalizer of the standard (beta = 1) density,
    computed once per (q, dim)."""
    _check_q_domain(q, dim)
    n = dim
    if q == 1.0:
        return 0.5 * n * _LOG_2PI
    c = tail_coefficient(q, n)
    if q < 1.0:
        u = (2.0 - q) / (1.0 - q)
        return (
            0.5 * n * (math.log(c) - math.log(1.0 - q))
            + 0.5 * n * math.log(math.pi)
            + _gammaln(u)
            - _gammaln(u + 0.5 * n)
        )
    v = 1.0 / (q - 1.0)
    return (
        0.5 * n * (math.log(c) - math.log(q - 1.0))
        + 0.5 * n * math.log(math.pi)
        + _gammaln(v - 0.5 * n)
        - _gammaln(v)
    )


def normalizing_constant(q: float, dim: int) -> float:
    """K_{q,N}; the Gaussian value (2*pi)^{N/2} at q = 1."""
    return math.exp(log_normalizing_constant(q, dim))


def support_radius_sq(q: float, dim: int) -> float:
    """Squared support radius of the standard density: finite iff q < 1."""
    if q < 1.0:
        return tail_coefficient(q, dim) / (1.0 - q)
    return math.inf


def support_contains(x: np.ndarray, kernel: QKernel) -> bool:
    """Strict membership in the support (the boundary itself is excluded)."""
    x = _point(x, kernel.dim, "x")
    if kernel.q >= 1.0:
        return True
    r2 = float(np.dot(x, x)) / (kernel.beta * kernel.beta)
    return r2 < support_radius_sq(kernel.q, kernel.dim)


def density(x: np.ndarray, kernel: QKernel) -> float:
    """Density of the kernel's law (q-mean 0, q-covariance beta^2 I) at x."""
    x = _point(x, kernel.dim, "x")
    q, beta, n = kernel.q, kernel.beta, kernel.dim
    r2 = float(np.dot(x, x)) / (beta * beta)
    if q == 1.0:
        return math.exp(-0.5 * r2 - 0.5 * n * _LOG_2PI - n * math.log(beta))
    base = 1.0 - (1.0 - q) / tail_coefficient(q, n) * r2
    if base <= 0.0:  # Tsallis cut-off; only reachable for q < 1
        return 0.0
    log_dens = (
        math.log(base) / (1.0 - q)
        - log_normalizing_constant(q, n)
        - n * math.log(beta)
    )
    return math.exp(log_dens)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64, typed=True)
def _transform_constants(q: float, dim: int):
    """The per-(q, dim) constants of the exact sampler, checked and computed
    once: the mixing chi-squared's df, the scale of Z and the rho
    coefficient (1-q)/(N+2-Nq); None at q = 1.  A q so far below 1 that a
    constant is not finite is out of the domain too: no sampler draw would
    ever be accepted."""
    _check_q_domain(q, dim)
    if q == 1.0:
        return None
    c = tail_coefficient(q, dim)
    gap = abs(1.0 - q)  # bit for bit q - 1 when q > 1
    df = 2.0 * (2.0 - q) / gap if q < 1.0 else c / gap
    constants = df, math.sqrt(c / gap), (1.0 - q) / c
    if not all(map(math.isfinite, constants)):
        raise QGaussianDomainError(f"q={q} is too far below 1 for dim={dim}: {constants}")
    return constants


def sample_standard(q: float, dim: int, stream: RngStream) -> tuple[np.ndarray, float]:
    """One draw of the standard q-Gaussian (unit q-variance per coordinate)
    and its rho value.

    Uses the exact chi-squared mixture representation: a Gaussian vector Z
    is shrunk onto the finite support for q < 1 and scaled by an inverse
    chi-squared factor for q > 1; q = 1 returns Z itself (no chi-squared
    variate is consumed).
    """
    constants = _transform_constants(q, dim)
    z = stream.standard_normal(dim)
    if constants is None:
        return z, 1.0
    df, scale, rho_coeff = constants
    a = stream.chi_squared(df)
    if q < 1.0:
        a += float(np.dot(z, z))
    y = scale * z / math.sqrt(a)
    return y, 1.0 - rho_coeff * float(np.dot(y, y))


def _rhos(etas: np.ndarray, q: float, dim: int) -> np.ndarray:
    """rho of each row of a (count, dim) array of standard draws."""
    constants = _transform_constants(q, dim)
    if constants is None:
        return np.ones(etas.shape[0])
    rhos = np.einsum("ij,ij->i", etas, etas)
    rhos *= constants[2]
    return np.subtract(1.0, rhos, out=rhos)


# Not merged with sample_standard: np.dot and the row-wise einsum norms differ
# in the last bit on many rows, so one form would change the other's numbers.
def _standard_blocks(q: float, dim: int, count: int, stream: RngStream):
    """``count`` standard draws as ``(rows, etas, rhos)`` for each slice
    ``rows`` of _BLOCK draws, by the block rule of ``qsmooth.rng``: each
    block reads its ``rows * dim`` normals, then its chi-squared values
    (``RngStream._gamma_block``), and the normals are scaled into the draws
    in place."""
    constants = _transform_constants(q, dim)
    for start in range(0, count, _BLOCK):
        rows = slice(start, min(start + _BLOCK, count))
        z = stream.standard_normal((rows.stop - start) * dim).reshape(-1, dim)
        if constants is not None:
            df, scale, _ = constants
            a = stream._gamma_block(0.5 * df, z.shape[0])
            a *= 2.0  # the chi-squared draws
            if q < 1.0:
                a += np.einsum("ij,ij->i", z, z)
            np.multiply(scale, z, out=z)
            np.divide(z, np.sqrt(a, out=a)[:, None], out=z)
        yield rows, z, _rhos(z, q, dim)


def sample_standard_many(
    q: float, dim: int, count: int, stream: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized standard draws: (count, dim) samples and their rho values,
    drawn a block at a time (``_standard_blocks``)."""
    _transform_constants(q, dim)  # checked before the draws are allocated
    count = _count(count, "count")
    etas, rhos = np.empty((count, dim)), np.empty(count)
    for rows, block, block_rhos in _standard_blocks(q, dim, count, stream):
        etas[rows], rhos[rows] = block, block_rhos
    return etas, rhos


def sample(kernel: QKernel, mean: np.ndarray, stream: RngStream) -> np.ndarray:
    """Draw from the kernel's law shifted to the given mean."""
    mean = _point(mean, kernel.dim, "mean")
    eta, _ = sample_standard(kernel.q, kernel.dim, stream)
    return mean + kernel.beta * eta


# ---------------------------------------------------------------------------
# analytic moments
# ---------------------------------------------------------------------------

def moment_exists(spec: MomentSpec, q: float, dim: int) -> bool:
    """Existence condition for E[prod X_i^{b_i} / rho^b] (always true at q=1)."""
    if q == 1.0:
        return True
    if q < 1.0:
        return spec.b < 1.0 + 1.0 / (1.0 - q)
    return 1.0 / (q - 1.0) - 0.5 * dim > 0.5 * sum(spec.powers) - spec.b


def _even_gaussian_moment(p: int) -> float:
    # E[Z^p] for standard normal Z and even p: p! / (2^{p/2} (p/2)!)
    return math.factorial(p) / (2 ** (p // 2) * math.factorial(p // 2))


def analytic_moment(spec: MomentSpec, q: float, dim: int) -> float:
    """Closed form of E[prod_i X_i^{powers[i]} / rho(X)^b] for standard draws.

    Zero whenever any power is odd.  At q = 1 the value is the product of
    independent standard-normal moments (rho is identically 1 there).
    Raises :class:`MomentDoesNotExistError` when the defining integral is
    infinite, which is a property of (spec, q, dim) jointly -- the same
    spec can be valid for one shape and not another.  Raises
    :class:`QGaussianDomainError` outside the sampler's domain, as for a q
    so far below 1 that its constants are not finite.
    """
    if len(spec.powers) != dim:
        raise ValueError(f"powers must have length dim={dim}, got {len(spec.powers)}")
    _transform_constants(q, dim)
    if not moment_exists(spec, q, dim):
        raise MomentDoesNotExistError(
            f"moment b={spec.b}, powers={spec.powers} does not exist at q={q}, dim={dim}"
        )
    if any(p % 2 == 1 for p in spec.powers):
        return 0.0
    if spec.b == 0 and not any(spec.powers):
        return 1.0  # total probability
    if q == 1.0:
        return math.prod(_even_gaussian_moment(p) for p in spec.powers)

    half_sum = 0.5 * sum(spec.powers)
    c = tail_coefficient(q, dim)
    if q < 1.0:
        u = 1.0 / (1.0 - q)
        log_kbar = (
            _gammaln(u - spec.b + 1.0)
            + _gammaln(u + 1.0 + 0.5 * dim)
            - _gammaln(u + 1.0)
            - _gammaln(u - spec.b + 1.0 + 0.5 * dim + half_sum)
        )
    else:
        v = 1.0 / (q - 1.0)
        log_kbar = (
            _gammaln(v)
            + _gammaln(v + spec.b - 0.5 * dim - half_sum)
            - _gammaln(v + spec.b)
            - _gammaln(v - 0.5 * dim)
        )
    scale = half_sum * (math.log(c) - math.log(abs(1.0 - q)))
    parity_prod = math.prod(
        math.factorial(p) / (2**p * math.factorial(p // 2)) for p in spec.powers
    )
    return math.exp(log_kbar + scale) * parity_prod

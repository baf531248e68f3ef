"""Smoothed-functional machinery: kernel-convolved objectives and the
per-sample gradient-estimator terms.

The terms are pure functions of (perturbation, observed cost(s)); averaging
them is the caller's business -- the two-timescale optimizer runs them
through its fast recursion, while the Monte-Carlo helpers here average them
directly, which is what the property tests exercise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qgaussian import Perturbation, QKernel, sample_standard_many
from .rng import RngStream

_MC_CHUNK = 1 << 19


class InvalidRhoError(RuntimeError):
    """rho <= 0 reached an estimator term: impossible for in-support draws,
    so the perturbation was corrupted somewhere upstream."""


def _check_cost(value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"cost observations must be finite and >= 0, got {value}")
    return value


@dataclass(frozen=True)
class GradientSampleOne:
    """One perturbation and the cost observed at the (+) perturbed parameter."""

    eta: Perturbation
    cost: float

    def __post_init__(self):
        object.__setattr__(self, "cost", _check_cost(self.cost))


@dataclass(frozen=True)
class GradientSampleTwo:
    """One perturbation and the costs observed at the (+/-) perturbed parameters."""

    eta: Perturbation
    cost_plus: float
    cost_minus: float

    def __post_init__(self):
        object.__setattr__(self, "cost_plus", _check_cost(self.cost_plus))
        object.__setattr__(self, "cost_minus", _check_cost(self.cost_minus))


def _term_weight(kernel: QKernel, rho, signal):
    """signal / (beta * (N+2-Nq) * rho): the weight of eta in a Gq-SF term,
    with signal 2h (Gq-SF1) or h+ - h- (Gq-SF2).  ``rho`` and ``signal`` may
    be floats or equal-length arrays."""
    if isinstance(rho, np.ndarray):
        if np.any(rho <= 0.0):
            raise InvalidRhoError("batch contains rho <= 0")
    elif rho <= 0.0:
        raise InvalidRhoError(f"rho={rho} <= 0; perturbation outside the support")
    return signal / (kernel.beta * kernel.tail_coefficient * rho)


def sf_term_one(sample: GradientSampleOne, kernel: QKernel) -> np.ndarray:
    """Single-sample integrand of the one-simulation gradient estimate:
    2 * eta * cost / (beta * (N+2-Nq) * rho(eta))."""
    return sample.eta.eta * _term_weight(kernel, sample.eta.rho, 2.0 * sample.cost)


def sf_term_two(sample: GradientSampleTwo, kernel: QKernel) -> np.ndarray:
    """Single-sample integrand of the two-simulation (antithetic) estimate:
    eta * (cost_plus - cost_minus) / (beta * (N+2-Nq) * rho(eta))."""
    return sample.eta.eta * _term_weight(
        kernel, sample.eta.rho, sample.cost_plus - sample.cost_minus
    )


def sf_term_one_batch(
    etas: np.ndarray, rhos: np.ndarray, costs: np.ndarray, kernel: QKernel
) -> np.ndarray:
    """Vectorized one-simulation terms: (n, dim) array, one row per draw."""
    w = _term_weight(kernel, rhos, 2.0 * np.asarray(costs, dtype=float))
    return etas * w[:, None]


def sf_term_two_batch(
    etas: np.ndarray,
    rhos: np.ndarray,
    costs_plus: np.ndarray,
    costs_minus: np.ndarray,
    kernel: QKernel,
) -> np.ndarray:
    """Vectorized two-simulation terms."""
    signal = np.asarray(costs_plus, float) - np.asarray(costs_minus, float)
    return etas * _term_weight(kernel, rhos, signal)[:, None]


def _mc_theta(theta, kernel: QKernel, n_samples: int) -> np.ndarray:
    """``theta`` as a float array of the kernel's dimension.  Raises
    ValueError, naming the argument, for any other shape or for an
    ``n_samples`` that is not an integer >= 1, before any draw."""
    if not isinstance(n_samples, numbers.Integral) or n_samples < 1:
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (kernel.dim,):
        raise ValueError(f"theta must have shape ({kernel.dim},), got {theta.shape}")
    return theta


def smoothed_value(
    f: Callable[[np.ndarray], float],
    theta: np.ndarray,
    kernel: QKernel,
    n_samples: int,
    stream: RngStream,
) -> float:
    """Monte-Carlo estimate of the smoothed objective E[f(theta - beta*eta)].

    f must be defined wherever theta - beta*eta can land (all of R^N unless
    q < 1 bounds the perturbation).
    """
    theta = _mc_theta(theta, kernel, n_samples)
    total = 0.0
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        etas, _ = sample_standard_many(kernel.q, kernel.dim, m, stream)
        pts = theta[None, :] - kernel.beta * etas
        total += float(sum(f(p) for p in pts))
        done += m
    return total / n_samples


def smoothed_gradient_mc(
    f: Callable[[np.ndarray], float],
    theta: np.ndarray,
    kernel: QKernel,
    n_samples: int,
    stream: RngStream,
) -> np.ndarray:
    """Monte-Carlo estimate of the smoothed gradient: the average of
    one-simulation terms with cost f(theta + beta*eta)."""
    theta = _mc_theta(theta, kernel, n_samples)
    acc = np.zeros(kernel.dim)
    done = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        etas, rhos = sample_standard_many(kernel.q, kernel.dim, m, stream)
        pts = theta[None, :] + kernel.beta * etas
        costs = np.fromiter((f(p) for p in pts), dtype=float, count=m)
        acc += sf_term_one_batch(etas, rhos, costs, kernel).sum(axis=0)
        done += m
    return acc / n_samples

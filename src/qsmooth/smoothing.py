"""Smoothed-functional machinery: kernel-convolved objectives and the
gradient-estimator terms.

``sf_term_one_batch`` and ``sf_term_two_batch`` are the Gq-SF1 and Gq-SF2
terms, one row per draw of a batch (one draw is a batch of one); they, the
Monte-Carlo helpers and the optimizer share one coefficient, ``_term_weight``.
Averaging the terms is the caller's business -- the optimizer runs them
through its fast recursion, while the Monte-Carlo helpers here average them
directly, which is what the property tests exercise.

The Monte-Carlo helpers draw _MC_CHUNK (2**19) perturbations at a time,
_BUFFER_SIZE rows at a time from the sampler's block generator
(``qgaussian._standard_blocks``), which reads the stream through readers
positioned ahead of it and never holds a section of the stream whole (see
``qsmooth.rng``).  ``smoothed_value`` evaluates f on each block as it
comes and holds nothing of chunk size: 0.6 MiB traced for 2**18 draws in
2-d.  ``smoothed_gradient_mc`` holds the chunk's draws, checking every
block's rho values as it stores them, so that none reaches f unchecked;
it then evaluates f and weights the draws a block at a time, recomputing
each block's rho values from its draws and writing each term over its
draw in place: 4.6 MiB traced for 2**18 draws in 2-d, 4 MiB of them the
draws.  Their results depend on _MC_CHUNK, which splits the draws and the
sums, but not on the block length: each chunk's terms are reduced in one
``sum(axis=0)`` and each chunk's values in one ``sum``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# sample_standard_many is not called here, but perfbench's tracer wraps it
# under this module's name
from .qgaussian import QKernel, _rhos, _standard_blocks, sample_standard_many  # noqa: F401
from .rng import _BUFFER_SIZE, RngStream, _count, _reals

_MC_CHUNK = 1 << 19


class InvalidRhoError(RuntimeError):
    """rho <= 0 reached an estimator term: impossible for in-support draws,
    so the perturbation was corrupted somewhere upstream."""


def _check_rhos(rhos: np.ndarray) -> None:
    if np.any(rhos <= 0.0):
        raise InvalidRhoError("batch contains rho <= 0")


def _term_weight(kernel: QKernel, rho, signal):
    """signal / (beta * (N+2-Nq) * rho): the weight of eta in a Gq-SF term,
    with signal 2h (Gq-SF1) or h+ - h- (Gq-SF2).  ``rho`` and ``signal`` may
    be floats or equal-length arrays."""
    if isinstance(rho, np.ndarray):
        _check_rhos(rho)
    elif rho <= 0.0:
        raise InvalidRhoError(f"rho={rho} <= 0; perturbation outside the support")
    return signal / (kernel.beta * kernel.tail_coefficient * rho)


def _checked_costs(costs) -> np.ndarray:
    """``costs`` as a float64 array; ValueError unless each is finite and >= 0."""
    costs = np.asarray(costs, dtype=float)
    # written so that NaN fails the check too
    bad = costs[~((costs >= 0.0) & (costs < math.inf))]
    if bad.size:
        raise ValueError(f"cost observations must be finite and >= 0, got {bad[0]}")
    return costs


def _check_rows(*arrays) -> None:
    """ValueError unless each array has one row per draw: numpy would broadcast one row."""
    shapes = [np.shape(x) for x in arrays]
    if len({shape[:1] for shape in shapes}) != 1 or not shapes[0]:
        raise ValueError(f"etas, rhos and costs must have one row per draw, got shapes {shapes}")


def sf_term_one_batch(
    etas: np.ndarray, rhos: np.ndarray, costs: np.ndarray, kernel: QKernel
) -> np.ndarray:
    """One-simulation terms 2 * eta * cost / (beta * (N+2-Nq) * rho(eta)):
    an (n, dim) array, one row per draw."""
    _check_rows(etas, rhos, costs)
    return etas * _term_weight(kernel, rhos, 2.0 * _checked_costs(costs))[:, None]


def sf_term_two_batch(
    etas: np.ndarray,
    rhos: np.ndarray,
    costs_plus: np.ndarray,
    costs_minus: np.ndarray,
    kernel: QKernel,
) -> np.ndarray:
    """Two-simulation (antithetic) terms
    eta * (cost_plus - cost_minus) / (beta * (N+2-Nq) * rho(eta)), one row
    per draw."""
    _check_rows(etas, rhos, costs_plus, costs_minus)
    signal = _checked_costs(costs_plus) - _checked_costs(costs_minus)
    return etas * _term_weight(kernel, rhos, signal)[:, None]


def _mc_theta(theta, kernel: QKernel, n_samples: int) -> np.ndarray:
    """``theta`` as a float array of the kernel's dimension.  Raises
    ValueError, naming the argument, for any other shape or for an
    ``n_samples`` that is not an integer >= 1, before any draw."""
    _count(n_samples, "n_samples", 1)
    theta = _reals(theta, "theta")
    if theta.shape != (kernel.dim,):
        raise ValueError(f"theta must have shape ({kernel.dim},), got {theta.shape}")
    return theta


def _chunks(n_samples: int):
    """The sizes of the chunks of _MC_CHUNK draws that make ``n_samples``."""
    return (min(_MC_CHUNK, n_samples - done) for done in range(0, n_samples, _MC_CHUNK))


def _blocks(theta: np.ndarray, step: float, etas: np.ndarray):
    """``(rows, theta + step * etas[rows])`` for each slice ``rows`` of
    _BUFFER_SIZE rows."""
    for start in range(0, etas.shape[0], _BUFFER_SIZE):
        rows = slice(start, start + _BUFFER_SIZE)
        yield rows, theta[None, :] + step * etas[rows]


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
    for count in _chunks(n_samples):
        draws = _standard_blocks(kernel.q, kernel.dim, count, stream)
        # one sum over the chunk: sums per block, added up, would round
        # differently (CPython's float sum is compensated from 3.12 on)
        total += float(sum(f(p) for _, etas, _ in draws for p in theta - kernel.beta * etas))
    return total / n_samples


def smoothed_gradient_mc(
    f: Callable[[np.ndarray], float],
    theta: np.ndarray,
    kernel: QKernel,
    n_samples: int,
    stream: RngStream,
) -> np.ndarray:
    """Monte-Carlo estimate of the smoothed gradient: the average of
    one-simulation terms with cost f(theta + beta*eta).  A chunk with a rho
    <= 0 raises InvalidRhoError before f sees any of its points."""
    theta = _mc_theta(theta, kernel, n_samples)
    q, dim = kernel.q, kernel.dim
    acc = np.zeros(dim)
    for count in _chunks(n_samples):
        etas = np.empty((count, dim))
        for rows, block, rhos in _standard_blocks(q, dim, count, stream):
            _check_rhos(rhos)
            etas[rows] = block
        for rows, pts in _blocks(theta, kernel.beta, etas):
            costs = np.fromiter((f(p) for p in pts), dtype=float, count=len(pts))
            terms = etas[rows]
            # the block's rhos again, bit for bit: the same einsum of the same rows
            terms *= _term_weight(kernel, _rhos(terms, q, dim), 2.0 * costs)[:, None]
        acc += etas.sum(axis=0)
    return acc / n_samples

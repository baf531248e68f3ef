"""Two-timescale projected stochastic-approximation loops (one- and
two-simulation variants) over an abstract simulated system.

The fast iterate Z averages estimator terms with step b(n) = 1/n^gamma
while the slow iterate theta descends with step a(n) = 1/n; gamma in
(0.5, 1) makes a(n)/b(n) -> 0, so Z equilibrates between parameter moves.
Per the algorithm listing, the theta update at outer iteration n uses the
Z value *entering* that iteration, and the control parameter handed to the
simulator is the projected perturbed point while the estimator keeps the
raw perturbation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .qgaussian import QKernel, sample_standard
from .rng import RngStream
from .smoothing import _term_weight

Z_DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """The fast iterate blew past the divergence guard (|Z_i| > 1e12)."""

    def __init__(self, outer_index: int, z: np.ndarray, seed_info: dict):
        self.outer_index = outer_index
        self.z = z
        self.seed_info = seed_info
        super().__init__(
            f"fast iterate diverged at outer iteration {outer_index} "
            f"(max |Z| = {np.max(np.abs(z)):.3e}, seed info {seed_info})"
        )


class SimulationError(RuntimeError):
    """A simulator raised mid-run; carries the (outer, inner) position."""

    def __init__(self, outer_index: int, inner_index: int, seed_info: dict):
        self.outer_index = outer_index
        self.inner_index = inner_index
        self.seed_info = seed_info
        super().__init__(
            f"simulator failed at outer={outer_index}, inner={inner_index}, "
            f"seed info {seed_info}"
        )


class SimulatorHandle(Protocol):
    """Anything optimizable: advance one observation under a control
    parameter, return a nonnegative cost.  State persists across calls."""

    def step(self, control: np.ndarray) -> float: ...


@dataclass(frozen=True)
class BoxConstraint:
    """Feasible box C = prod [lower_i, upper_i], compact and convex."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape:
            raise ValueError("lower/upper must have the same shape")
        if not np.all(lower < upper):
            raise ValueError("need lower < upper component-wise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    @classmethod
    def cube(cls, lower: float, upper: float, dim: int) -> "BoxConstraint":
        return cls(np.full(dim, lower), np.full(dim, upper))


def project(x: np.ndarray, box: BoxConstraint) -> np.ndarray:
    """Component-wise clamp onto the box (idempotent, identity on C)."""
    return np.clip(np.asarray(x, dtype=float), box.lower, box.upper)


@dataclass(frozen=True)
class StepSchedule:
    """a(n) = 1/n, b(n) = 1/n^gamma for n >= 1, with gamma in (0.5, 1).

    This pair is square-summable but not summable, and a(n)/b(n) =
    n^(gamma-1) -> 0, which is what separates the two timescales.
    """

    gamma: float = 0.75

    def __post_init__(self):
        if not 0.5 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie strictly in (0.5, 1), got {self.gamma}")

    def step_sizes(self, n: int) -> tuple[float, float]:
        if n < 1:
            raise ValueError(f"step sizes are defined for n >= 1, got {n}")
        return 1.0 / n, float(n) ** (-self.gamma)


@dataclass(frozen=True)
class TrajectoryPoint:
    n: int
    theta: np.ndarray
    distance: float | None


@dataclass(frozen=True)
class RunResult:
    theta_final: np.ndarray
    distance: float | None
    z: np.ndarray  # the fast iterate after the last outer iteration
    trajectory: list[TrajectoryPoint] | None
    wall_time: float
    seed_info: dict = field(default_factory=dict)


class QuadraticCostSimulator:
    """Deterministic reference system: cost is the squared distance of the
    control parameter from a fixed target.  Useful as a noise-free end-to-end
    fixture; trivially ergodic."""

    def __init__(self, target: np.ndarray):
        self.target = np.asarray(target, dtype=float)

    def step(self, control: np.ndarray) -> float:
        d = control - self.target
        return float(np.dot(d, d))


def _check_run_args(kernel, box, theta0, M, L):
    theta0 = np.asarray(theta0, dtype=float).copy()
    if kernel.dim != box.dim or theta0.size != box.dim:
        raise ValueError(
            f"dimension mismatch: kernel {kernel.dim}, box {box.dim}, theta0 {theta0.size}"
        )
    if not box.contains(theta0):
        raise ValueError("theta0 must lie in the constraint box")
    if M < 1 or L < 1:
        raise ValueError("M and L must be >= 1")
    return theta0


def _distance(theta, target):
    if target is None:
        return None
    return float(np.linalg.norm(theta - np.asarray(target, dtype=float)))


def _run_loop(
    sims: tuple,
    kernel: QKernel,
    box: BoxConstraint,
    schedule: StepSchedule,
    M: int,
    L: int,
    theta0,
    stream: RngStream,
    target,
    record_every: int,
) -> RunResult:
    theta = _check_run_args(kernel, box, theta0, M, L)
    n_dim = kernel.dim
    q, beta = kernel.q, kernel.beta
    lower, upper = box.lower, box.upper
    two_sided = len(sims) == 2
    # the term's signal is 2h one-sided and h+ - h- two-sided; the costs
    # enter through s below, the factor 2 or 1 through the coefficient
    numer = 1.0 if two_sided else 2.0
    seed_info = {"seed": stream.seed, "stream_id": stream.stream_id}
    z = np.zeros(n_dim)
    trajectory: list[TrajectoryPoint] | None = [] if record_every > 0 else None
    if trajectory is not None:
        trajectory.append(TrajectoryPoint(0, theta.copy(), _distance(theta, target)))
    t_start = time.perf_counter()
    for n in range(M):
        # the listing starts at n = 0 but 1/n is undefined there; the
        # schedule is evaluated at n+1
        a_n, b_n = schedule.step_sizes(n + 1)
        one_minus_b = 1.0 - b_n

        pert = sample_standard(q, n_dim, stream)
        eta = pert.eta
        coeff = _term_weight(kernel, pert.rho, numer) * eta

        # The costs enter Z linearly with a fixed per-iteration coefficient
        # vector, so the L inner updates collapse to one scalar recursion:
        #   Z <- (1-b)^L Z + coeff * s,   s = sum_m b (1-b)^(L-1-m) h_m
        s = 0.0
        if two_sided:
            control_plus = np.clip(theta + beta * eta, lower, upper)
            control_minus = np.clip(theta - beta * eta, lower, upper)
            step_plus = sims[0].step
            step_minus = sims[1].step
            for m in range(L):
                try:
                    h_diff = step_plus(control_plus) - step_minus(control_minus)
                except Exception as err:
                    raise SimulationError(n, m, seed_info) from err
                s = one_minus_b * s + b_n * h_diff
        else:
            control = np.clip(theta + beta * eta, lower, upper)
            step = sims[0].step
            for m in range(L):
                try:
                    h = step(control)
                except Exception as err:
                    raise SimulationError(n, m, seed_info) from err
                s = one_minus_b * s + b_n * h

        z_entering = z
        z = (one_minus_b**L) * z_entering + s * coeff
        if not np.all(np.abs(z) <= Z_DIVERGENCE_LIMIT):
            raise DivergenceError(n, z, seed_info)
        # theta steps with the Z value that entered this outer iteration
        theta = np.clip(theta - a_n * z_entering, lower, upper)

        if trajectory is not None and ((n + 1) % record_every == 0 or n + 1 == M):
            trajectory.append(
                TrajectoryPoint(n + 1, theta.copy(), _distance(theta, target))
            )
    wall = time.perf_counter() - t_start
    return RunResult(
        theta_final=theta,
        distance=_distance(theta, target),
        z=z,
        trajectory=trajectory,
        wall_time=wall,
        seed_info=seed_info,
    )


def run_gqsf1(
    sim: SimulatorHandle,
    kernel: QKernel,
    box: BoxConstraint,
    schedule: StepSchedule,
    M: int,
    L: int,
    theta0,
    stream: RngStream,
    *,
    target=None,
    record_every: int = 0,
) -> RunResult:
    """One-simulation algorithm: a single system is driven at the projected
    (+) perturbed parameter and Z averages 2*eta*h / (beta*(N+2-Nq)*rho)."""
    return _run_loop(
        (sim,), kernel, box, schedule, M, L, theta0, stream, target, record_every
    )


def run_gqsf2(
    sim_plus: SimulatorHandle,
    sim_minus: SimulatorHandle,
    kernel: QKernel,
    box: BoxConstraint,
    schedule: StepSchedule,
    M: int,
    L: int,
    theta0,
    stream: RngStream,
    *,
    target=None,
    record_every: int = 0,
) -> RunResult:
    """Two-simulation algorithm: parallel systems at the projected (+/-)
    perturbed parameters; Z averages eta*(h+ - h-) / (beta*(N+2-Nq)*rho)."""
    if sim_plus is sim_minus:
        raise ValueError("the two simulations must be distinct system instances")
    return _run_loop(
        (sim_plus, sim_minus),
        kernel,
        box,
        schedule,
        M,
        L,
        theta0,
        stream,
        target,
        record_every,
    )

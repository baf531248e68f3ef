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

from . import _native
from .qgaussian import QKernel, _transform_constants, sample_standard
from .queueing import QueueSimulator, equal_by_value
from .rng import RngStream, _count, _real, _reals
from .smoothing import _term_weight

Z_DIVERGENCE_LIMIT = 1e12
# M, L and record_every reach the compiled loop as int64 fields
_RUN_SIZE_MAX = 2**63 - 1


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
    """A simulator raised mid-run; carries the (outer, inner) position.
    ``inner`` counts the costs the failing simulator returned in that outer
    iteration before the fault: the steps taken by one that defines only
    ``step``, and 0 for one whose ``observe`` raised or returned a number
    of costs other than L."""

    def __init__(self, outer_index: int, inner_index: int, seed_info: dict):
        self.outer_index = outer_index
        self.inner_index = inner_index
        self.seed_info = seed_info
        super().__init__(
            f"simulator failed at outer={outer_index}, inner={inner_index}, "
            f"seed info {seed_info}"
        )


class SimulatorHandle(Protocol):
    """Anything optimizable: ``step`` advances one observation under a
    control parameter and returns a nonnegative cost; state persists across
    calls.  A simulator may also define ``observe(control, L)``, returning
    the costs of its next L observations under one control, as
    ``QueueSimulator`` does; the optimizers call it once per outer
    iteration, and call ``step`` L times for a simulator without it.  Either
    way a simulator gives exactly L costs per iteration, each taken as a
    float64.  Runs go to the compiled loop (``sf_run`` in ``_mg1.c``), with
    the same numbers: it runs a ``QueueSimulator`` on the compiled kernel
    that keeps its ``observe`` itself, computes the costs of a
    ``QuadraticCostSimulator`` that keeps its ``step`` and ``observe``, and
    returns to Python to observe every other simulator (see
    ``_compiled_run``)."""

    def step(self, control: np.ndarray) -> float: ...


class _StepObserver:
    """``observe`` for a simulator that defines only ``step``.  ``costs``
    holds the current call's costs so far, so a fault can name its inner
    index."""

    def __init__(self, sim):
        self.step = sim.step
        self.costs = []

    def observe(self, control, L):
        self.costs = costs = []
        step = self.step
        for _ in range(L):
            costs.append(step(control))
        return costs


@dataclass(frozen=True, eq=False)
class BoxConstraint:
    """Feasible box C = prod [lower_i, upper_i], compact and convex."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(_reals(self.lower, "lower"))
        upper = np.atleast_1d(_reals(self.upper, "upper"))
        if lower.shape != upper.shape:
            raise ValueError("lower/upper must have the same shape")
        if lower.ndim != 1:
            raise ValueError(f"lower/upper must be 1-d, got shape {lower.shape}")
        if not np.all(lower < upper):
            raise ValueError("need lower < upper component-wise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    __eq__ = equal_by_value

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(((x >= self.lower) & (x <= self.upper)).all())

    @classmethod
    def cube(cls, lower: float, upper: float, dim: int) -> "BoxConstraint":
        return cls(np.full(dim, lower), np.full(dim, upper))


def project(x: np.ndarray, box: BoxConstraint) -> np.ndarray:
    """Component-wise clamp onto the box (idempotent, identity on C), as
    both outer loops project (``sf_run`` in this order too)."""
    return np.minimum(np.maximum(x, box.lower), box.upper)


@dataclass(frozen=True)
class StepSchedule:
    """a(n) = 1/n, b(n) = 1/n^gamma for n >= 1, with gamma in (0.5, 1).

    This pair is square-summable but not summable, and a(n)/b(n) =
    n^(gamma-1) -> 0, which is what separates the two timescales.
    """

    gamma: float

    def __post_init__(self):
        _real(self.gamma, "gamma")  # a check only, as in QKernel
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
        self.target = _reals(target, "target")

    def step(self, control: np.ndarray) -> float:
        d = control - self.target
        return float(np.dot(d, d))

    def observe(self, control: np.ndarray, L: int) -> list[float]:
        """The next ``L`` costs: ``step``'s, computed once, as the system
        has no state."""
        return [self.step(control)] * L


# the methods as defined here, whose costs the compiled loop computes itself
_QUADRATIC_STEP, _QUADRATIC_OBSERVE = QuadraticCostSimulator.step, QuadraticCostSimulator.observe


def _check_run_args(kernel, box, theta0, M, L, record_every):
    """A float copy of theta0; ValueError, naming the argument, for a bad
    one (a string or a bool entry too) or for an M or L that is not an
    integer >= 1 or a record_every that is not an integer >= 0, or any of
    the three above _RUN_SIZE_MAX."""
    for name, value, least in (("M", M, 1), ("L", L, 1), ("record_every", record_every, 0)):
        if _count(value, name, least) > _RUN_SIZE_MAX:
            raise ValueError(f"{name} must be at most 2**63 - 1, got {value}")
    theta0 = _reals(theta0, "theta0").copy()
    if kernel.dim != box.dim or theta0.shape != (box.dim,):
        raise ValueError(
            f"dimension mismatch: kernel {kernel.dim}, box {box.dim}, theta0 {theta0.shape}"
        )
    if not box.contains(theta0):
        raise ValueError("theta0 must lie in the constraint box")
    return theta0


def _distance(theta, target):
    if target is None:
        return None
    return float(np.linalg.norm(theta - np.asarray(target, dtype=float)))


def _observe(observe, control, L: int, n: int, seed_info: dict) -> np.ndarray:
    """``observe(control, L)`` as L float64 costs, on either loop.  Raises
    SimulationError(n, inner) when it fails, or returns another number of
    costs (inner 0)."""
    try:
        costs = np.asarray(observe(control, L), dtype=float)
        if costs.shape != (L,):
            raise ValueError(f"a simulator gave costs of shape {costs.shape} for L = {L}")
    except Exception as err:
        observer = getattr(observe, "__self__", None)
        inner = len(observer.costs) if isinstance(observer, _StepObserver) else 0
        raise SimulationError(n, inner, seed_info) from err
    return costs


def _fold(signal: np.ndarray, one_minus_b: float, b: float) -> float:
    """s = (1-b) s + b h_m from s = 0 over m = 0..L-1, where h_m is the
    m-th entry of ``signal``: the costs of one simulation, or the (+) one's
    minus the (-) one's."""
    s = 0.0
    for h in signal.tolist():
        s = one_minus_b * s + b * h
    return s


def _compiled_run(sims, kernel, box, schedule, M, L, theta, stream, record_every, numer):
    """The run as a ``_native.CompiledRun``, unless the compiled library
    or numpy's checked ``ddot`` or ``log`` loop is missing (``_native.load``
    also refuses both where ``np.cos`` and ``np.sin`` are not libm's), the
    step schedule is not a ``StepSchedule``, or compiled code
    may not read the perturbation stream (``_native._refills_in_c``); then
    None, and the Python loop, its reference, serves the run.

    The loop runs a simulator itself when it is a ``QueueSimulator`` on the
    C kernel (so on a stream that the same rule allows) that keeps its
    ``observe``, over a network of the kernel's dimension, with a stream
    that neither the perturbations nor the other simulator draw from.  It
    computes the costs of a simulator whose ``step`` and ``observe`` are
    ``QuadraticCostSimulator``'s as defined here (not a subclass's, an
    instance's or a patch's) and whose target is a contiguous float64
    ndarray of the kernel's dimension, reading that array, as it stands at
    each iteration, through the run.  It hands every other simulator back to
    its caller to observe.  The loop reads uniforms from the buffer itself,
    so an override of ``uniform01`` (one that counts draws, say) sees none
    of its draws."""
    lib = _native.load()
    if (
        lib is None
        or lib.ddot is None
        or lib.loops is None
        or type(schedule) is not StepSchedule
        or not _native._refills_in_c(stream)
    ):
        return None
    streams = [stream, *(getattr(sim, "stream", None) for sim in sims)]

    def compiled(sim):
        """The simulator as the loop runs it: its kernel, its target, or
        None."""
        observe = getattr(getattr(sim, "observe", None), "__func__", None)
        if (
            observe is QueueSimulator.observe
            and sim.kernel == "c"
            and sim.config.total_dim == kernel.dim
            and sum(other is sim.stream for other in streams) == 1
        ):
            return sim.state
        step = getattr(getattr(sim, "step", None), "__func__", None)
        target = getattr(sim, "target", None)
        if (
            step is _QUADRATIC_STEP
            and observe is _QUADRATIC_OBSERVE
            and type(target) is np.ndarray
            and target.dtype == np.float64
            and target.shape == (kernel.dim,)
            and target.flags.c_contiguous
        ):
            return target
        return None

    q = kernel.q
    df, scale, rho_coeff = _transform_constants(q, kernel.dim) or (0.0, 0.0, 0.0)
    return _native.CompiledRun(
        lib, [compiled(sim) for sim in sims], stream, theta,
        box.lower, box.upper,
        dim=kernel.dim, M=M, L=L, record_every=record_every, q_cmp=(q > 1.0) - (q < 1.0),
        shape=0.5 * df, scale=scale, rho_coeff=rho_coeff, numer=numer,
        beta_tc=kernel.beta * kernel.tail_coefficient, beta=kernel.beta,
        gamma=schedule.gamma, z_limit=Z_DIVERGENCE_LIMIT,
    )


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
    theta = _check_run_args(kernel, box, theta0, M, L, record_every)
    n_dim = kernel.dim
    q = kernel.q
    beta = kernel.beta
    observes = [(sim if hasattr(sim, "observe") else _StepObserver(sim)).observe for sim in sims]
    # the term's signal is 2h one-sided and h+ - h- two-sided; the costs
    # enter through s below, the factor 2 or 1 through the coefficient
    numer = 2.0 if len(sims) == 1 else 1.0
    seed_info = {"seed": stream.seed, "stream_id": stream.stream_id}
    z = np.zeros(n_dim)
    trajectory: list[TrajectoryPoint] | None = [] if record_every > 0 else None
    if trajectory is not None:
        trajectory.append(TrajectoryPoint(0, theta.copy(), _distance(theta, target)))
    t_start = time.perf_counter()
    run = _compiled_run(sims, kernel, box, schedule, M, L, theta, stream, record_every, numer)
    if run is not None:
        while (stop := run.resume()) != run.DONE:
            if stop == run.OBSERVE:
                for i in run.observing:
                    run.costs[i][:] = _observe(observes[i], run.control(i), L, run.n, seed_info)
            elif stop == run.RECORD:
                trajectory.append(
                    TrajectoryPoint(run.n, run.theta.copy(), _distance(run.theta, target))
                )
            elif stop == run.DIVERGED:
                raise DivergenceError(run.n, run.z.copy(), seed_info)
            else:
                _term_weight(kernel, run.rho, numer)  # raises InvalidRhoError
        # copies, which do not keep the run's arrays alive
        theta, z = run.theta.copy(), run.z.copy()
    else:
        for n in range(M):
            # the listing starts at n = 0 but 1/n is undefined there; the
            # schedule is evaluated at n+1
            a_n, b_n = schedule.step_sizes(n + 1)
            one_minus_b = 1.0 - b_n

            eta, rho = sample_standard(q, n_dim, stream)
            coeff = _term_weight(kernel, rho, numer) * eta

            # one call per simulator: the (+) one at theta + beta*eta, the (-)
            # one at theta - beta*eta, both projected onto the box
            shift = beta * eta
            controls = [project(theta + shift, box)]
            if len(observes) == 2:
                controls.append(project(theta - shift, box))
            costs = [
                _observe(observe, control, L, n, seed_info)
                for observe, control in zip(observes, controls)
            ]

            # The costs enter Z linearly with a fixed per-iteration coefficient
            # vector, so the L inner updates collapse to one scalar recursion:
            #   Z <- (1-b)^L Z + coeff * s,   s = sum_m b (1-b)^(L-1-m) h_m
            s = _fold(costs[0] if len(costs) == 1 else costs[0] - costs[1], one_minus_b, b_n)

            z_entering = z
            z = (one_minus_b**L) * z_entering + s * coeff
            # NaN fails the comparison too
            if not abs(z).max() <= Z_DIVERGENCE_LIMIT:
                raise DivergenceError(n, z, seed_info)
            # theta steps with the Z value that entered this outer iteration
            theta = project(theta - a_n * z_entering, box)

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

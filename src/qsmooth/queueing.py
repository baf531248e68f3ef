"""Benchmark system: a K-node M/G/1 tandem network with Bernoulli feedback.

Node i receives external Poisson(lambda_i) arrivals; a customer finishing
service at node i leaves the system with probability p_leave[i], otherwise
moves to node i+1 (the last node feeds back to the first).  Service times
are U(0,1) * (1/R_i + ||theta_i - theta_target_i||^2), so the mean service
time -- and with it congestion -- is minimized exactly at the target
parameter.

Conventions fixed here (the underlying model leaves them open):
  * one observation = one service completion anywhere in the network;
  * the cost returned at an observation is the sum over all customers
    present *immediately before the completing customer departs* of their
    sojourn time since system entry (feedback customers keep their
    original entry timestamp);
  * service times are drawn at service start from the control parameter in
    force at that moment and never preempted;
  * simulation starts from an empty network at clock 0.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from . import _native
from .rng import RngStream, _count, _real, _reals


def equal_by_value(self, other):
    """``__eq__`` for a dataclass with array fields, which the generated
    one would compare with ``==``, whose truth value is ambiguous: arrays
    by ``np.array_equal``, every other field by ``==``."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(
        np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
        for mine, theirs in (
            (getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )
    )


@dataclass(frozen=True, eq=False)
class QueueNetworkConfig:
    """Static description of the network.

    ``theta_target`` is the concatenation of the per-node target parameter
    blocks; node i's block has length ``dims[i]``.
    """

    arrival_rates: tuple[float, ...]
    p_leave: tuple[float, ...]
    service_constants: tuple[float, ...]
    dims: tuple[int, ...]
    theta_target: np.ndarray

    def __post_init__(self):
        # float() would take a bool or a string, and int() a float
        for name in ("arrival_rates", "p_leave", "service_constants"):
            values = tuple(_real(x, f"{name} entry") for x in getattr(self, name))
            object.__setattr__(self, name, values)
        object.__setattr__(self, "dims", tuple(_count(d, "dims entry", 1) for d in self.dims))
        # a read-only copy: every event loop reads the target the network
        # was built with, and the caller's array stays theirs to change
        target = np.array(_reals(self.theta_target, "theta_target"))
        target.flags.writeable = False
        object.__setattr__(self, "theta_target", target)
        k = len(self.arrival_rates)
        if not (len(self.p_leave) == len(self.service_constants) == len(self.dims) == k):
            raise ValueError("per-node parameter tuples must all have length K")
        if k < 1:
            raise ValueError("need at least one node")
        # written so that NaN fails each check too
        if not all(0.0 <= r < math.inf for r in self.arrival_rates):
            raise ValueError("arrival rates must be finite and >= 0")
        if not any(r > 0 for r in self.arrival_rates):
            raise ValueError("at least one node needs external arrivals")
        if any(not 0.0 <= p <= 1.0 for p in self.p_leave):
            raise ValueError("departure probabilities must lie in [0, 1]")
        if not all(r > 0.0 for r in self.service_constants):
            raise ValueError("service constants must be > 0")
        if self.theta_target.shape != (sum(self.dims),):
            raise ValueError(
                f"theta_target must have length {sum(self.dims)}, "
                f"got {self.theta_target.shape}"
            )
        if not np.all(np.isfinite(self.theta_target)):
            raise ValueError("theta_target entries must be finite")
        # per node: its block of the parameter vector and 1/R_i, for the
        # service factors (not a field: equality and repr ignore it)
        bounds = np.cumsum((0,) + self.dims)
        object.__setattr__(
            self,
            "_node_blocks",
            tuple(
                (slice(int(bounds[i]), int(bounds[i + 1])), 1.0 / r)
                for i, r in enumerate(self.service_constants)
            ),
        )

    __eq__ = equal_by_value

    def __reduce__(self):
        # through the constructor, so that a copy or an unpickled network
        # keeps its own read-only target
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n_nodes(self) -> int:
        return len(self.arrival_rates)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def worst_utilisation(self, lower, upper) -> np.ndarray:
        """Per node, the utilisation lambda_i * E[S_i] with every control in
        the box [lower, upper] at the corner farthest from the target.

        lambda solves the traffic equations
        lambda_i = a_i + (1 - p_{i-1}) lambda_{i-1} (node 0 is fed by node
        K-1), and E[S_i] = (1/R_i + sum_j max((lo_j - t_j)^2,
        (hi_j - t_j)^2)) / 2 over node i's block.  A node at 1 or above
        grows its queue without bound.  Raises ValueError when the traffic
        equations have no nonnegative solution, as when every p_leave is 0
        and no customer ever leaves.
        """
        k = self.n_nodes
        fed = np.eye(k)
        for i in range(k):
            fed[i, i - 1] -= 1.0 - self.p_leave[i - 1]
        try:
            rates = np.linalg.solve(fed, np.array(self.arrival_rates))
        except np.linalg.LinAlgError:
            rates = None
        if rates is None or not np.all(rates >= 0.0):
            raise ValueError("the traffic equations have no solution: no customer leaves")
        t = self.theta_target
        with np.errstate(over="ignore"):  # a bound far out gives inf, which is rejected
            worst = np.maximum((lower - t) ** 2, (upper - t) ** 2)
        service = [0.5 * (inv_r + worst[block].sum()) for block, inv_r in self._node_blocks]
        return rates * np.array(service)


class PythonKernel:
    """The event loop in Python, and the live state of one network under it:
    event clock, per-node FIFO queues of system-entry timestamps, in-service
    entries with absolute completion times, and the pending external-arrival
    time per node.  It is the reference the compiled kernel in ``_mg1.c``
    must match bit for bit, and the fallback where it cannot be built.  A
    call reads its service factors from ``factors``."""

    __slots__ = ("clock", "queues", "serving_entry", "completion_time", "next_arrival",
                 "n_present", "entry_sum", "arrivals_seen", "departures_seen", "factors",
                 "_bound", "__weakref__")

    def __init__(self, config: QueueNetworkConfig, stream: RngStream, next_arrival):
        k = config.n_nodes
        self.clock = 0.0
        self.queues = [deque() for _ in range(k)]
        self.serving_entry = [0.0] * k
        self.completion_time = [math.inf] * k
        self.next_arrival = next_arrival
        self.n_present = 0
        self.entry_sum = 0.0
        self.arrivals_seen = 0
        self.departures_seen = 0
        self.factors = [0.0] * k
        # everything run reads but the counters, bound once (the lists are
        # mutated in place); not the kernel itself, which would make it a
        # cycle that only the cyclic collector frees
        self._bound = (self.queues, self.serving_entry, self.completion_time, self.next_arrival,
                       config.arrival_rates, config.p_leave, k, stream, self.factors)

    def run(self, L: int) -> list[float]:
        """Run the event loop through the next ``L`` service completions
        under the service factors ``factors`` and return the cost observed
        at each.

        Random-draw order per event is fixed: an arrival draws its next
        interarrival time, then (if the server was idle) a service time; a
        completion draws a routing uniform only at nodes with p_leave > 0,
        then service times for the destination (if it starts service) and
        for the completing node's next customer (if any), in that order.
        Before each event, the stream refills when fewer than 3 uniforms
        (the most one event draws) remain, as the compiled loop does, so
        both leave the stream with the same buffer and generator.
        """
        queues, serving, comp, nxt, rates, p_leave, k, stream, fac = self._bound
        u01 = stream.uniform01
        reserve = stream.reserve
        log = math.log
        inf = math.inf
        n_present = self.n_present
        entry_sum = self.entry_sum
        arrivals = self.arrivals_seen
        departures = self.departures_seen
        clock = self.clock
        costs = []

        for _ in range(L):
            while True:  # arrivals, up to the next service completion
                if stream._buf.size - stream._pos < 3:
                    reserve(3)
                t_min = inf
                node = -1
                is_completion = False
                for i in range(k):
                    t = nxt[i]
                    if t < t_min:
                        t_min = t
                        node = i
                        is_completion = False
                    t = comp[i]
                    if t < t_min:
                        t_min = t
                        node = i
                        is_completion = True
                if is_completion:
                    break
                nxt[node] = t_min - log(u01()) / rates[node]
                n_present += 1
                entry_sum += t_min
                arrivals += 1
                if comp[node] == inf:
                    serving[node] = t_min
                    comp[node] = t_min + u01() * fac[node]
                else:
                    queues[node].append(t_min)

            # service completion: the observation epoch
            clock = t_min
            costs.append(n_present * clock - entry_sum)
            entry = serving[node]
            p = p_leave[node]
            if p > 0.0 and u01() < p:
                n_present -= 1
                entry_sum -= entry
                departures += 1
            else:
                dest = node + 1 if node + 1 < k else 0
                if dest == node or comp[dest] != inf:
                    queues[dest].append(entry)
                else:
                    serving[dest] = entry
                    comp[dest] = clock + u01() * fac[dest]
            q = queues[node]
            if q:
                serving[node] = q.popleft()
                comp[node] = clock + u01() * fac[node]
            else:
                comp[node] = inf
        self.clock = clock
        self.n_present = n_present
        self.entry_sum = entry_sum
        self.arrivals_seen = arrivals
        self.departures_seen = departures
        return costs


class QueueSimulator:
    """SimulatorHandle over one network instance.  ``observe(control, L)``
    runs through the next L service completions and returns their costs;
    ``step(control)`` is ``observe(control, 1)[0]``.  ``kernel`` names the
    event loop in use: ``"c"``, compiled from ``_mg1.c`` on first use, or
    ``"python"`` where that cannot be built or where compiled code may not
    read the stream (``_native._refills_in_c``).  Both draw the same
    uniforms and return the same costs, bit for bit.  ``state`` is the
    kernel, its own state: a :class:`PythonKernel` or a
    ``_native.NativeKernel`` (the C kernel's ``mg1_state`` record).  Both
    carry ``clock``, ``arrivals_seen``, ``departures_seen`` and
    ``completion_time``."""

    def __init__(self, config: QueueNetworkConfig, stream: RngStream):
        self.config = config
        self.stream = stream
        # the first external arrival of each node is drawn at construction,
        # in node order, in one array draw: the same uniforms as one draw
        # per node, and a fresh stream's first fill brings just those
        rates = config.arrival_rates
        first = iter(stream.uniform01(sum(lam > 0.0 for lam in rates)).tolist())
        next_arrival = [(-math.log(next(first)) / lam) if lam > 0.0 else math.inf for lam in rates]
        lib = _native.load()
        if lib is not None and _native._refills_in_c(stream):
            self.kernel = "c"
            self.state = _native.NativeKernel(lib, config, stream, next_arrival)
        else:
            self.kernel = "python"
            self.state = PythonKernel(config, stream, next_arrival)

    def _set_service_factors(self, control) -> None:
        """Per node i, 1/R_i + ||theta_i - target_i||^2 into the kernel's
        ``factors[i]``: a service time there is U(0,1) times this.  Raises
        ValueError, before any event, when ``control`` is not a vector of the
        network's dimension, or when a factor is not finite: no event loop
        can run on one."""
        if np.shape(control) != (self.config.total_dim,):
            raise ValueError(f"control of shape {np.shape(control)} for a network of "
                             f"dimension {self.config.total_dim}")
        fac = self.state.factors
        with np.errstate(over="ignore"):  # an overflow gives inf, which is refused
            diff = np.subtract(control, self.config.theta_target)
            for i, (block, inv_r) in enumerate(self.config._node_blocks):
                f = fac[i] = inv_r + float(np.dot(diff[block], diff[block]))
                if not f < math.inf:
                    raise ValueError(f"control {control} gives node {i} the service factor {f}")

    def observe(self, control: np.ndarray, L: int) -> list[float]:
        """The costs of the next ``L`` observations under one control.  The
        service factors are computed from ``control`` on every call, so an
        array changed in place takes effect; a negative ``L`` is refused."""
        if L < 0:
            raise ValueError(f"cannot observe L = {L} costs")
        self._set_service_factors(control)
        return self.state.run(L)

    def step(self, control: np.ndarray) -> float:
        """The cost of the next observation."""
        return self.observe(control, 1)[0]


def kernel_name() -> str:
    """The event loop that simulators of this process run on a plain
    ``RngStream``, ``"c"`` or ``"python"`` (see ``QueueSimulator.kernel``).
    The first call compiles the C kernel if need be."""
    return "python" if _native.load() is None else "c"


def make_simulator(config: QueueNetworkConfig, stream: RngStream) -> QueueSimulator:
    """Fresh simulator with an empty network at clock 0."""
    return QueueSimulator(config, stream)


# ---------------------------------------------------------------------------
# shipped experiment presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BenchmarkPreset:
    """A network plus the box, start and target used in the experiments."""

    network: QueueNetworkConfig
    box_lower: float
    box_upper: float
    theta0: np.ndarray

    __eq__ = equal_by_value


def _preset_4d() -> BenchmarkPreset:
    network = QueueNetworkConfig(
        arrival_rates=(0.2, 0.1),
        p_leave=(0.0, 0.4),
        service_constants=(10.0, 20.0),
        dims=(2, 2),
        theta_target=np.full(4, 0.3),
    )
    return BenchmarkPreset(
        network=network,
        box_lower=0.1,
        box_upper=0.6,
        theta0=np.array([0.1, 0.1, 0.6, 0.6]),
    )


def _preset_20d() -> BenchmarkPreset:
    network = QueueNetworkConfig(
        arrival_rates=(0.2,) * 4,
        p_leave=(0.2,) * 4,
        service_constants=(10.0,) * 4,
        dims=(5,) * 4,
        theta_target=np.full(20, 0.3),
    )
    return BenchmarkPreset(
        network=network,
        box_lower=0.1,
        box_upper=0.6,
        theta0=np.full(20, 0.6),
    )


_PRESETS = {
    "mg1-4d": _preset_4d,
    "mg1-20d": _preset_20d,
}


def preset(name: str) -> BenchmarkPreset:
    """Load a shipped benchmark preset by name ('mg1-4d' or 'mg1-20d')."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    return factory()


def preset_names() -> list[str]:
    return sorted(_PRESETS)

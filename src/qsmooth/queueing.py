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
from dataclasses import dataclass

import numpy as np

from .rng import RngStream


@dataclass(frozen=True)
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
        object.__setattr__(self, "arrival_rates", tuple(float(x) for x in self.arrival_rates))
        object.__setattr__(self, "p_leave", tuple(float(x) for x in self.p_leave))
        object.__setattr__(
            self, "service_constants", tuple(float(x) for x in self.service_constants)
        )
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(
            self, "theta_target", np.asarray(self.theta_target, dtype=float)
        )
        k = len(self.arrival_rates)
        if not (len(self.p_leave) == len(self.service_constants) == len(self.dims) == k):
            raise ValueError("per-node parameter tuples must all have length K")
        if k < 1:
            raise ValueError("need at least one node")
        if any(r < 0 for r in self.arrival_rates):
            raise ValueError("arrival rates must be >= 0")
        if not any(r > 0 for r in self.arrival_rates):
            raise ValueError("at least one node needs external arrivals")
        if any(not 0.0 <= p <= 1.0 for p in self.p_leave):
            raise ValueError("departure probabilities must lie in [0, 1]")
        if any(r <= 0 for r in self.service_constants):
            raise ValueError("service constants must be > 0")
        if any(d < 1 for d in self.dims):
            raise ValueError("per-node parameter dimensions must be >= 1")
        if self.theta_target.shape != (sum(self.dims),):
            raise ValueError(
                f"theta_target must have length {sum(self.dims)}, "
                f"got {self.theta_target.shape}"
            )

    @property
    def n_nodes(self) -> int:
        return len(self.arrival_rates)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def block_slices(self) -> list[tuple[int, int]]:
        bounds = np.cumsum((0,) + self.dims)
        return [(int(bounds[i]), int(bounds[i + 1])) for i in range(self.n_nodes)]


class QueueState:
    """Live state of one network: event clock, per-node FIFO queues of
    system-entry timestamps, in-service entries with absolute completion
    times, and the pending external-arrival time per node."""

    __slots__ = (
        "clock",
        "queues",
        "serving_entry",
        "completion_time",
        "next_arrival",
        "n_present",
        "entry_sum",
        "arrivals_seen",
        "departures_seen",
        "_control_ref",
        "_service_factors",
    )

    def __init__(self, config: QueueNetworkConfig, stream: RngStream):
        k = config.n_nodes
        self.clock = 0.0
        self.queues = [deque() for _ in range(k)]
        self.serving_entry = [0.0] * k
        self.completion_time = [math.inf] * k
        # the first external arrival of each node is drawn at construction,
        # in node order
        self.next_arrival = [
            (-math.log(stream.uniform01()) / lam) if lam > 0.0 else math.inf
            for lam in config.arrival_rates
        ]
        self.n_present = 0
        self.entry_sum = 0.0
        self.arrivals_seen = 0
        self.departures_seen = 0
        self._control_ref = None
        self._service_factors = None


def _service_factors(state, control, config):
    # Cached per control array; pass a fresh array to change parameters
    # (in-place mutation of a previously seen array is not supported).
    if control is state._control_ref:
        return state._service_factors
    diff = np.asarray(control, dtype=float) - config.theta_target
    fac = []
    for (lo, hi), r in zip(config.block_slices(), config.service_constants):
        block = diff[lo:hi]
        fac.append(1.0 / r + float(np.dot(block, block)))
    state._service_factors = fac
    state._control_ref = control
    return fac


class QueueSimulator:
    """SimulatorHandle over one network instance: ``step`` advances to the
    next completion and returns its cost."""

    def __init__(self, config: QueueNetworkConfig, stream: RngStream):
        self.config = config
        self.stream = stream
        self.state = QueueState(config, stream)

    def step(self, control: np.ndarray) -> float:
        """Run the event loop until the next service completion and return
        the waiting-time cost observed there.  The state persists for the
        next call.

        Random-draw order per event is fixed: an arrival draws its next
        interarrival time, then (if the server was idle) a service time; a
        completion draws a routing uniform only at nodes with p_leave > 0,
        then service times for the destination (if it starts service) and
        for the completing node's next customer (if any), in that order.
        """
        state = self.state
        config = self.config
        fac = _service_factors(state, control, config)
        queues = state.queues
        serving = state.serving_entry
        comp = state.completion_time
        nxt = state.next_arrival
        rates = config.arrival_rates
        p_leave = config.p_leave
        k = config.n_nodes
        u01 = self.stream.uniform01
        inf = math.inf
        n_present = state.n_present
        entry_sum = state.entry_sum

        while True:
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
            clock = t_min

            if not is_completion:
                nxt[node] = clock - math.log(u01()) / rates[node]
                n_present += 1
                entry_sum += clock
                state.arrivals_seen += 1
                if comp[node] == inf:
                    serving[node] = clock
                    comp[node] = clock + u01() * fac[node]
                else:
                    queues[node].append(clock)
                continue

            # service completion: the observation epoch
            state.clock = clock
            cost = n_present * clock - entry_sum
            entry = serving[node]
            p = p_leave[node]
            if p > 0.0 and u01() < p:
                n_present -= 1
                entry_sum -= entry
                state.departures_seen += 1
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
            state.n_present = n_present
            state.entry_sum = entry_sum
            return cost


def make_simulator(config: QueueNetworkConfig, stream: RngStream) -> QueueSimulator:
    """Fresh simulator with an empty network at clock 0."""
    return QueueSimulator(config, stream)


# ---------------------------------------------------------------------------
# shipped experiment presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkPreset:
    """A network plus the box, start and target used in the experiments."""

    network: QueueNetworkConfig
    box_lower: float
    box_upper: float
    theta0: np.ndarray


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

import math

import numpy as np
import pytest
from scipy import stats

from qsmooth.queueing import (
    QueueNetworkConfig,
    _service_factors,
    make_simulator,
    preset,
    preset_names,
)
from qsmooth.rng import RngStream


class LedgerReferenceNetwork:
    """Independent reference implementation.

    Tracks every customer individually (explicit per-node FIFO lists plus
    in-service slots) and computes the observation cost by summing sojourn
    times over the full customer ledger.  Consumes random draws in the same
    documented order as the production simulator, so cost sequences can be
    compared one-to-one.
    """

    def __init__(self, config, stream):
        self.config = config
        self.stream = stream
        k = config.n_nodes
        self.clock = 0.0
        self.queues = [[] for _ in range(k)]  # entry timestamps, FIFO
        self.in_service = [None] * k  # (entry, completion_time)
        self.next_arrival = [
            (-math.log(stream.uniform01()) / lam) if lam > 0 else math.inf
            for lam in config.arrival_rates
        ]
        self.arrival_log = [[] for _ in range(k)]

    def _service(self, node, control):
        lo = sum(self.config.dims[:node])
        hi = lo + self.config.dims[node]
        d = np.asarray(control[lo:hi]) - self.config.theta_target[lo:hi]
        return self.stream.uniform01() * (
            1.0 / self.config.service_constants[node] + float(d @ d)
        )

    def all_entries(self):
        entries = []
        for q in self.queues:
            entries.extend(q)
        for slot in self.in_service:
            if slot is not None:
                entries.append(slot[0])
        return entries

    def step(self, control):
        cfg = self.config
        k = cfg.n_nodes
        while True:
            t_min, node, is_completion = math.inf, -1, False
            for i in range(k):
                if self.next_arrival[i] < t_min:
                    t_min, node, is_completion = self.next_arrival[i], i, False
                if self.in_service[i] is not None and self.in_service[i][1] < t_min:
                    t_min, node, is_completion = self.in_service[i][1], i, True
            self.clock = t_min

            if not is_completion:
                self.arrival_log[node].append(self.clock)
                self.next_arrival[node] = (
                    self.clock - math.log(self.stream.uniform01()) / cfg.arrival_rates[node]
                )
                if self.in_service[node] is None:
                    self.in_service[node] = (
                        self.clock,
                        self.clock + self._service(node, control),
                    )
                else:
                    self.queues[node].append(self.clock)
                continue

            entry = self.in_service[node][0]
            cost = sum(self.clock - e for e in self.all_entries())
            self.in_service[node] = None
            p = cfg.p_leave[node]
            leaves = p > 0.0 and self.stream.uniform01() < p
            if not leaves:
                dest = node + 1 if node + 1 < k else 0
                if dest == node or self.in_service[dest] is not None:
                    self.queues[dest].append(entry)
                else:
                    self.in_service[dest] = (
                        entry,
                        self.clock + self._service(dest, control),
                    )
            if self.queues[node]:
                nxt = self.queues[node].pop(0)
                self.in_service[node] = (nxt, self.clock + self._service(node, control))
            return cost


SINGLE_NODE = QueueNetworkConfig(
    arrival_rates=(1.0,),
    p_leave=(1.0,),
    service_constants=(10.0,),
    dims=(2,),
    theta_target=np.array([0.3, 0.3]),
)


# -- service times ------------------------------------------------------------

# A service time at node i is U(0,1) * (1/R_i + ||theta_i - target_i||^2);
# mg1-4d has R = (10, 20) and target 0.3 everywhere.

def _check_service_factors(theta, want, seed):
    cfg = preset("mg1-4d").network
    sim = make_simulator(cfg, RngStream(seed, 0))
    for _ in range(2_000):
        sim.step(theta)
        # the factors the simulator used for this control
        assert _service_factors(sim.state, theta, cfg) == pytest.approx(want, rel=1e-12)
        # a service in progress ends within one full service time of now
        for comp, fac in zip(sim.state.completion_time, want):
            assert comp == np.inf or 0.0 <= comp - sim.state.clock <= fac


def test_service_time_at_target():
    _check_service_factors(np.full(4, 0.3), [0.1, 0.05], seed=50)


def test_service_time_with_offset():
    # node 1 at (0.5, 0.5): offset (0.2, 0.2) -> factor 0.05 + 0.08 = 0.13
    _check_service_factors(np.array([0.3, 0.3, 0.5, 0.5]), [0.1, 0.13], seed=51)
    _check_service_factors(
        np.array([0.1, 0.6, 0.2, 0.45]), [0.1 + 0.13, 0.05 + 0.0325], seed=52
    )


# -- event mechanics vs the ledger reference ----------------------------------

@pytest.mark.parametrize(
    "config,theta",
    [
        (preset("mg1-4d").network, np.array([0.2, 0.5, 0.4, 0.1])),
        (SINGLE_NODE, np.array([0.45, 0.2])),
    ],
)
def test_costs_match_ledger_reference(config, theta):
    sim = make_simulator(config, RngStream(60, 1))
    ref = LedgerReferenceNetwork(config, RngStream(60, 1))
    for i in range(5000):
        got = sim.step(theta)
        want = ref.step(theta)
        assert got == pytest.approx(want, abs=1e-9), f"observation {i}"
        assert got > 0.0  # the completing customer is still counted


def test_reference_equivalence_with_parameter_changes():
    config = preset("mg1-4d").network
    sim = make_simulator(config, RngStream(61, 4))
    ref = LedgerReferenceNetwork(config, RngStream(61, 4))
    thetas = [
        np.array([0.2, 0.5, 0.4, 0.1]),
        np.array([0.3, 0.3, 0.3, 0.3]),
        np.array([0.6, 0.6, 0.1, 0.1]),
    ]
    for k, theta in enumerate(thetas * 5):
        for _ in range(100):
            assert sim.step(theta) == pytest.approx(ref.step(theta), abs=1e-9)


def test_conservation_counters():
    sim = make_simulator(preset("mg1-4d").network, RngStream(62, 0))
    theta = np.full(4, 0.3)
    for _ in range(20_000):
        sim.step(theta)
    st = sim.state
    assert st.arrivals_seen - st.departures_seen == st.n_present
    assert st.n_present >= 0


def test_statefulness_two_calls_equal_one_sequence():
    cfg = preset("mg1-4d").network
    theta = np.full(4, 0.45)
    a = make_simulator(cfg, RngStream(63, 9))
    costs_split = [a.step(theta) for _ in range(50)] + [a.step(theta) for _ in range(50)]
    b = make_simulator(cfg, RngStream(63, 9))
    costs_joint = [b.step(theta) for _ in range(100)]
    assert costs_split == costs_joint


def test_identical_seeds_identical_sequences():
    cfg = preset("mg1-4d").network
    theta = np.full(4, 0.25)
    a = make_simulator(cfg, RngStream(64, 3))
    b = make_simulator(cfg, RngStream(64, 3))
    assert [a.step(theta) for _ in range(500)] == [b.step(theta) for _ in range(500)]


def test_poisson_arrival_process():
    # validated on the reference (equivalent by the ledger test): external
    # interarrival gaps at a node are Exp(lambda_i)
    ref = LedgerReferenceNetwork(SINGLE_NODE, RngStream(65, 0))
    theta = np.array([0.3, 0.3])
    for _ in range(100_000):
        ref.step(theta)
    gaps = np.diff(np.array(ref.arrival_log[0]))
    assert gaps.size > 30_000
    assert stats.kstest(gaps, stats.expon(scale=1.0).cdf).pvalue > 0.01


def test_average_cost_minimized_at_target():
    cfg = preset("mg1-4d").network
    target = cfg.theta_target
    offsets = [np.zeros(4), np.array([0.2, 0, 0, 0]), np.array([-0.2, 0, 0, 0])]
    for seed in (1, 2, 3):
        means = []
        for off in offsets:
            sim = make_simulator(cfg, RngStream(800 + seed, 0))
            theta = target + off
            means.append(np.mean([sim.step(theta) for _ in range(100_000)]))
        assert means[0] < means[1] and means[0] < means[2], (seed, means)


# -- configuration -------------------------------------------------------------

def test_preset_4d_matches_published_setting():
    loaded = preset("mg1-4d")
    net = loaded.network
    assert net.arrival_rates == (0.2, 0.1)
    assert net.p_leave == (0.0, 0.4)
    assert net.service_constants == (10.0, 20.0)
    assert net.dims == (2, 2)
    assert net.total_dim == 4
    np.testing.assert_array_equal(net.theta_target, np.full(4, 0.3))
    assert (loaded.box_lower, loaded.box_upper) == (0.1, 0.6)
    np.testing.assert_array_equal(loaded.theta0, [0.1, 0.1, 0.6, 0.6])


def test_preset_20d_matches_published_setting():
    loaded = preset("mg1-20d")
    net = loaded.network
    assert net.n_nodes == 4
    assert net.arrival_rates == (0.2,) * 4
    assert net.p_leave == (0.2,) * 4
    assert net.service_constants == (10.0,) * 4
    assert net.dims == (5,) * 4
    np.testing.assert_array_equal(net.theta_target, np.full(20, 0.3))
    np.testing.assert_array_equal(loaded.theta0, np.full(20, 0.6))


def test_preset_names_and_unknown():
    assert preset_names() == ["mg1-20d", "mg1-4d"]
    with pytest.raises(KeyError):
        preset("nope")


def test_config_validation():
    with pytest.raises(ValueError):
        QueueNetworkConfig((0.2,), (0.4, 0.1), (10.0,), (2,), np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        QueueNetworkConfig((0.2,), (1.4,), (10.0,), (2,), np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        QueueNetworkConfig((0.2,), (0.4,), (-1.0,), (2,), np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        QueueNetworkConfig((0.2,), (0.4,), (10.0,), (2,), np.array([0.3, 0.3, 0.3]))
    with pytest.raises(ValueError):
        QueueNetworkConfig((0.0,), (0.4,), (10.0,), (2,), np.array([0.3, 0.3]))

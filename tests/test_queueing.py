import copy
import dataclasses
import hashlib
import math
import pickle
import shutil
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from qsmooth import _native
from qsmooth.bench import config_from_dict
from qsmooth.optimizer import BoxConstraint
from qsmooth.queueing import (
    QueueNetworkConfig,
    make_simulator,
    preset,
    preset_names,
)
from qsmooth.rng import RngStream

from conftest import stream_state

# the event loops a simulator can run here: the compiled one needs gcc
KERNELS = ("c", "python") if shutil.which("gcc") else ("python",)


def kernel_simulator(kernel, config, stream):
    """A simulator on the named event loop."""
    if kernel == "python":
        with mock.patch.object(_native, "load", return_value=None):
            sim = make_simulator(config, stream)
    else:
        sim = make_simulator(config, stream)
    assert sim.kernel == kernel
    return sim


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
        assert list(sim.state.factors) == pytest.approx(want, rel=1e-12)
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
    for kernel in KERNELS:
        for name in ("mg1-4d", "mg1-20d"):
            loaded = preset(name)
            sim = kernel_simulator(kernel, loaded.network, RngStream(62, 0))
            theta = loaded.network.theta_target.copy()
            st = sim.state
            for i in range(20_000):
                sim.step(theta)
                assert st.arrivals_seen - st.departures_seen == st.n_present, (kernel, name, i)
                assert st.n_present >= 0
            assert st.departures_seen > 0


# Exact costs, compared with ==: the ledger tests above allow 1e-9, so only
# these catch a last-bit change or a reordered draw.
@pytest.mark.parametrize(
    "name,head,digest",
    [
        (
            "mg1-4d",
            [0.10494302426896995, 0.18521983054365654, 0.11243917503981127,
             0.1567681617557044],
            "e2c63a07a322540bdf9716cb59ca26617908f20a17d8474fe052a48f9e2f6a0d",
        ),
        (
            "mg1-20d",
            [0.1083386256734098, 0.45190277162838743, 0.1411024123872444,
             0.3682866201417525],
            "70ebff50d698c2c2b7b42d4966538a6cefcd17efe4c0670aca5da5149f64a9ca",
        ),
    ],
)
def test_pinned_cost_sequence(name, head, digest):
    loaded = preset(name)
    start, target = loaded.theta0, loaded.network.theta_target
    for kernel in KERNELS:
        sim = kernel_simulator(kernel, loaded.network, RngStream(66, 2))
        costs = []
        for j in range(20):  # a fresh control every 100 steps, start to target
            theta = start + (target - start) * (j / 19)
            costs.extend(sim.step(theta) for _ in range(100))
        costs = np.array(costs, dtype="<f8")
        assert costs[:4].tolist() == head, kernel
        assert hashlib.sha256(costs.tobytes()).hexdigest() == digest, kernel


def test_control_changed_in_place_takes_effect():
    # the service factors follow the control's values, not its identity
    cfg = preset("mg1-4d").network
    for kernel in KERNELS:
        a = kernel_simulator(kernel, cfg, RngStream(1, 1))
        b = kernel_simulator(kernel, cfg, RngStream(1, 1))
        control = np.full(4, 0.3)
        assert [a.step(control) for _ in range(100)] == [
            b.step(np.full(4, 0.3)) for _ in range(100)
        ]
        control[:] = 0.6
        assert [a.step(control) for _ in range(500)] == [
            b.step(np.full(4, 0.6)) for _ in range(500)
        ], kernel


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200])
def test_a_control_with_no_finite_service_factor_is_rejected(value):
    # an infinite factor is the idle sentinel and a NaN one never wins the
    # event scan: a loop run on either never returns; 1e200 overflows when
    # squared
    cfg = preset("mg1-4d").network
    good = np.full(4, 0.45)
    counters = ("clock", "entry_sum", "n_present", "arrivals_seen", "departures_seen")
    for kernel in KERNELS:
        sim = kernel_simulator(kernel, cfg, RngStream(68, 4))
        twin = kernel_simulator(kernel, cfg, RngStream(68, 4))
        assert sim.observe(good, 50) == twin.observe(good, 50)
        for bad in (np.full(4, value), np.array([0.45, 0.45, 0.45, value])):
            before = [getattr(sim.state, name) for name in counters]
            next_uniforms = copy.deepcopy(sim.stream).uniform01(4).tolist()
            with np.errstate(over="ignore"), pytest.raises(ValueError):
                sim.observe(bad, 1)
            assert [getattr(sim.state, name) for name in counters] == before, kernel
            assert copy.deepcopy(sim.stream).uniform01(4).tolist() == next_uniforms
        assert sim.observe(good, 300) == twin.observe(good, 300), kernel


@pytest.mark.parametrize(
    "control", [np.array([0.3]), 0.3, np.full(5, 0.3), np.full((1, 4), 0.3)],
    ids=["length-1", "scalar", "length-5", "row"],
)
def test_a_control_of_another_shape_is_rejected(control):
    # a length-1 control or a scalar would broadcast against the target
    cfg = preset("mg1-4d").network
    counters = ("clock", "entry_sum", "n_present", "arrivals_seen", "departures_seen")
    for kernel in KERNELS:
        sim = kernel_simulator(kernel, cfg, RngStream(68, 5))
        sim.observe(np.full(4, 0.45), 20)
        before = [getattr(sim.state, name) for name in counters]
        next_uniforms = copy.deepcopy(sim.stream).uniform01(4).tolist()
        with pytest.raises(ValueError, match="dimension 4"):
            sim.observe(control, 3)
        assert [getattr(sim.state, name) for name in counters] == before, kernel
        assert copy.deepcopy(sim.stream).uniform01(4).tolist() == next_uniforms, kernel


def test_observe_is_a_batch_of_steps():
    cfg = preset("mg1-20d").network
    theta = np.full(20, 0.45)
    for kernel in KERNELS:
        a = kernel_simulator(kernel, cfg, RngStream(67, 1))
        b = kernel_simulator(kernel, cfg, RngStream(67, 1))
        batched = a.observe(theta, 700) + a.observe(theta, 1) + a.observe(theta, 99)
        assert batched == [b.step(theta) for _ in range(800)], kernel
        assert a.state.arrivals_seen == b.state.arrivals_seen


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
            means.append(np.mean(sim.observe(theta, 100_000)))
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


def test_config_needs_a_node():
    with pytest.raises(ValueError, match="^need at least one node$"):
        QueueNetworkConfig((), (), (), (), np.zeros(0))


@pytest.mark.parametrize("field", ["arrival_rates", "p_leave", "service_constants"])
def test_config_refuses_a_rate_beyond_the_float_range(field):
    # float(10**400) raised OverflowError
    values = {
        "arrival_rates": (0.2, 0.1), "p_leave": (0.0, 0.4), "service_constants": (10.0, 20.0)
    }
    values[field] = (values[field][0], 10**400)
    with pytest.raises(ValueError, match=f"^{field} entry is too large, got 1000"):
        QueueNetworkConfig(**values, dims=(2, 2), theta_target=np.full(4, 0.3))


@pytest.mark.parametrize("target", [[0.3, "0.3"], [0.3, True], [0.3, 10**400]])
def test_config_refuses_a_target_entry_that_is_no_number(target):
    with pytest.raises(ValueError, match="^theta_target entry "):
        QueueNetworkConfig((0.2,), (0.4,), (10.0,), (2,), target)


@pytest.mark.parametrize("dims", [(0, 2), (2, -1)])
def test_config_refuses_a_dimension_below_one(dims):
    # config files stop earlier, in bench, which sizes theta_target from the dims
    with pytest.raises(ValueError, match=r"^dims entry must be an integer >= 1, got -?\d+$"):
        QueueNetworkConfig((0.2, 0.1), (0.0, 0.4), (10.0, 20.0), dims, np.full(sum(dims), 0.3))


@pytest.mark.parametrize(
    "rates, constants, message",
    [
        # an infinite rate would draw every interarrival time as 0, and the
        # event loop would never leave that instant: only built here, never run
        ((math.inf, 0.1), (10.0, 20.0), "arrival rates must be finite and >= 0"),
        ((0.2, -math.inf), (10.0, 20.0), "arrival rates must be finite and >= 0"),
        # a NaN rate would never bring an arrival to its node
        ((math.nan, 0.1), (10.0, 20.0), "arrival rates must be finite and >= 0"),
        ((0.2, 0.1), (math.nan, 20.0), "service constants must be > 0"),
    ],
    ids=["inf rate", "-inf rate", "nan rate", "nan constant"],
)
def test_config_refuses_non_finite_rates_and_nan_service_constants(rates, constants, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        QueueNetworkConfig(rates, (0.0, 0.4), constants, (2, 2), np.full(4, 0.3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_refuses_a_non_finite_target(bad):
    # which the first observe would refuse only as a service factor
    with pytest.raises(ValueError, match="^theta_target entries must be finite$"):
        QueueNetworkConfig((0.2, 0.1), (0.0, 0.4), (10.0, 20.0), (2, 2), [0.3, 0.3, bad, 0.3])


@pytest.mark.parametrize("field", ["arrival_rates", "p_leave", "service_constants"])
@pytest.mark.parametrize("bad", ["0.2", True, False, None], ids=repr)
def test_config_refuses_a_string_or_bool_where_a_number_belongs(field, bad):
    # arrival_rates=("0.2", True) built as (0.2, 1.0), as JSON configs never do
    values = {
        "arrival_rates": (0.2, 0.1), "p_leave": (0.0, 0.4), "service_constants": (10.0, 20.0)
    }
    values[field] = (values[field][0], bad)
    with pytest.raises(ValueError, match=f"^{field} entry must be a number, got "):
        QueueNetworkConfig(**values, dims=(2, 2), theta_target=np.full(4, 0.3))
    # numpy's floats and Python's ints are numbers
    values[field] = (np.float64(values[field][0]), 1)
    built = QueueNetworkConfig(**values, dims=(2, 2), theta_target=np.full(4, 0.3))
    assert all(type(x) is float for x in getattr(built, field))


@pytest.mark.parametrize(
    "dims", [(2.9, 2.2), (2.0, 2), (True, 3), (np.float64(2.0), 2), "22"],
    ids=["floats", "a whole float", "a bool", "a numpy float", "a string"],
)
def test_config_refuses_a_dimension_that_is_not_an_integer(dims):
    # (2.9, 2.2) used to be truncated to (2, 2), as JSON configs never are
    with pytest.raises(ValueError, match="^dims entry must be an integer >= 1, got "):
        QueueNetworkConfig((0.2, 0.1), (0.0, 0.4), (10.0, 20.0), dims, np.full(4, 0.3))
    # an integer of numpy's is one
    net = QueueNetworkConfig((0.2, 0.1), (0.0, 0.4), (10.0, 20.0), np.array([2, 2]),
                             np.full(4, 0.3))
    assert net.dims == (2, 2) and all(type(d) is int for d in net.dims)


@pytest.mark.parametrize("kernel", KERNELS)
def test_observe_refuses_a_negative_L_before_any_event(kernel):
    # where the C kernel once returned the stale costs left in its buffer;
    # L = 0 gives no costs, and neither moves the stream or the network
    loaded = preset("mg1-4d")
    stream = RngStream(4, 1)
    sim = kernel_simulator(kernel, loaded.network, stream)
    sim.observe(loaded.theta0, 50)

    def stands():
        return (stream_state(stream), list(sim.state.factors), sim.state.clock,
                sim.state.arrivals_seen, sim.state.departures_seen)

    before = stands()
    for L in (-1, -50):
        with pytest.raises(ValueError, match=f"L = {L}"):
            sim.observe(np.full(4, 0.5), L)  # another control: its factors are not set
        assert stands() == before
    assert sim.observe(loaded.theta0, 0) == []
    assert stands() == before


def test_network_configs_compare_by_value():
    assert preset("mg1-4d").network == preset("mg1-4d").network
    assert preset("mg1-4d").network != preset("mg1-20d").network
    net = preset("mg1-4d").network
    moved = QueueNetworkConfig(
        net.arrival_rates, net.p_leave, net.service_constants, net.dims, np.full(4, 0.4)
    )
    assert net != moved
    # another type is not equal: __eq__ hands the comparison back to it
    assert net.__eq__(3) is NotImplemented
    assert not net == 3 and net != 3
    # and so do the records that hold a network or an array beside it
    assert preset("mg1-4d") == preset("mg1-4d")
    assert preset("mg1-4d") != preset("mg1-20d")
    assert dataclasses.replace(preset("mg1-4d"), theta0=np.full(4, 0.2)) != preset("mg1-4d")
    spec = {"algorithm": "gqsf2", "q_grid": [0.8], "beta_grid": [0.005], "M": 10,
            "base_seed": 1, "system": "mg1-4d"}
    config = config_from_dict(spec)
    assert config == config_from_dict(dict(spec))
    assert config != config_from_dict({**spec, "theta0": [0.2] * 4})
    assert config != config_from_dict({**spec, "box": {"lower": 0.1, "upper": 0.7}})
    assert config != config_from_dict({**spec, "L": 10})
    assert config.box == BoxConstraint.cube(0.1, 0.6, 4)
    assert config.box != BoxConstraint.cube(0.1, 0.7, 4)
    # compared by value, but not hashable: the arrays are mutable
    for record in (net, preset("mg1-4d"), config, config.box):
        with pytest.raises(TypeError):
            hash(record)


def test_a_network_keeps_its_own_read_only_target():
    # the event loops read the target the network was built with: a write
    # to it fails, and the caller's array stays theirs
    mine = np.full(4, 0.3)
    net = QueueNetworkConfig((0.2, 0.1), (0.0, 0.4), (10.0, 20.0), (2, 2), mine)
    with pytest.raises(ValueError, match="read-only"):
        net.theta_target[:] = 0.5
    mine[:] = 0.5
    assert mine.flags.writeable
    assert net.theta_target.tolist() == [0.3] * 4
    # and so does a copy, as a pool worker gets it
    for copied in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net), copy.copy(net)):
        assert copied == net and not copied.theta_target.flags.writeable


def test_worst_utilisation():
    # mg1-4d: lambda = (0.65, 0.75) from the traffic equations; the corner
    # 0.6 is 0.3 from the target in each coordinate
    net = preset("mg1-4d").network
    np.testing.assert_allclose(
        net.worst_utilisation(0.1, 0.6), [0.65 * 0.5 * 0.28, 0.75 * 0.5 * 0.23]
    )
    np.testing.assert_allclose(preset("mg1-20d").network.worst_utilisation(0.1, 0.6), 0.275)
    closed = QueueNetworkConfig((0.2, 0.1), (0.0, 0.0), (10.0, 20.0), (2, 2), np.full(4, 0.3))
    with pytest.raises(ValueError):
        closed.worst_utilisation(0.1, 0.6)

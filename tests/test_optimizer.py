import contextlib
import re
from unittest import mock

import numpy as np
import pytest

from qsmooth import _native
from qsmooth.optimizer import (
    BoxConstraint,
    DivergenceError,
    QuadraticCostSimulator,
    SimulationError,
    StepSchedule,
    project,
    run_gqsf1,
    run_gqsf2,
)
from qsmooth.qgaussian import QKernel, sample_standard
from qsmooth.queueing import QueueSimulator, make_simulator, preset
from qsmooth.rng import RngStream

from conftest import stream_state
from test_queueing import KERNELS


BOX4 = BoxConstraint.cube(0.1, 0.6, 4)
TARGET4 = np.full(4, 0.3)


def reference_run(sims, kernel, box, schedule, M, L, theta0, stream):
    """Direct transcription of the update listing, inner loop un-collapsed."""
    theta = np.asarray(theta0, dtype=float).copy()
    z = np.zeros(kernel.dim)
    c = kernel.tail_coefficient
    for n in range(M):
        a_n, b_n = schedule.step_sizes(n + 1)
        eta, r = sample_standard(kernel.q, kernel.dim, stream)
        z_entering = z.copy()
        if len(sims) == 1:
            control = project(theta + kernel.beta * eta, box)
            for _ in range(L):
                h = sims[0].step(control)
                z = (1 - b_n) * z + b_n * (2.0 * eta * h / (kernel.beta * c * r))
        else:
            cp = project(theta + kernel.beta * eta, box)
            cm = project(theta - kernel.beta * eta, box)
            for _ in range(L):
                hp = sims[0].step(cp)
                hm = sims[1].step(cm)
                z = (1 - b_n) * z + b_n * (eta * (hp - hm) / (kernel.beta * c * r))
        theta = project(theta - a_n * z_entering, box)
    return theta, z


class RecordingSimulator:
    """Wraps another simulator and logs every control it is stepped with."""

    def __init__(self, inner):
        self.inner = inner
        self.controls = []

    def step(self, control):
        self.controls.append(np.array(control, copy=True))
        return self.inner.step(control)


class FailingSimulator:
    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.calls = 0

    def step(self, control):
        self.calls += 1
        if self.calls >= self.fail_at:
            raise RuntimeError("boom")
        return 1.0


class ConstantCostSimulator:
    def __init__(self, value):
        self.value = value

    def step(self, control):
        return self.value


class LinearCostSimulator:
    def step(self, control):
        return 50.0 * float(np.sum(control))


# -- projection and schedules --------------------------------------------------

def test_project_basics():
    box = BoxConstraint.cube(0.1, 0.6, 1)
    assert project(np.array([0.4]), box)[0] == 0.4
    assert project(np.array([0.7]), box)[0] == 0.6
    assert project(np.array([-3.0]), box)[0] == 0.1
    x = np.array([0.9])
    np.testing.assert_array_equal(project(project(x, box), box), project(x, box))


def test_box_validation():
    with pytest.raises(ValueError):
        BoxConstraint(np.array([0.5, 0.1]), np.array([0.4, 0.6]))
    for lower, upper in ((np.zeros(2), np.ones(3)), (np.zeros(3), np.ones((1, 3))),
                         ([0.0, 0.0], 1.0)):
        with pytest.raises(ValueError, match="same shape"):
            BoxConstraint(lower, upper)
    box = BoxConstraint(np.array([0.0]), np.array([1.0]))
    assert box.contains(np.array([0.5]))
    assert not box.contains(np.array([1.5]))
    assert BoxConstraint(0.0, 1.0) == box  # scalar bounds make a 1-d box


@pytest.mark.parametrize("shape", [(2, 2), (1, 3), (2, 1, 2)])
def test_a_box_needs_1d_bounds(shape):
    # a (2, 2) box used to build as a 4-d one, on which every run failed
    # in numpy's broadcasting
    with pytest.raises(ValueError, match="1-d"):
        BoxConstraint(np.zeros(shape), np.ones(shape))


def test_step_sizes():
    sched = StepSchedule(0.75)
    assert sched.step_sizes(1) == (1.0, 1.0)
    a, b = sched.step_sizes(16)
    assert a == pytest.approx(0.0625)
    assert b == pytest.approx(0.125)
    # timescale separation: a(n) < b(n) from n = 2 on, ratio -> 0
    ratios = [sched.step_sizes(n)[0] / sched.step_sizes(n)[1] for n in range(2, 5000)]
    assert all(r < 1.0 for r in ratios)
    assert ratios[-1] < ratios[0] and ratios[-1] == pytest.approx(4999 ** (-0.25))


@pytest.mark.parametrize("gamma", [0.5, 1.0, 0.2, 1.4])
def test_schedule_rejects_bad_gamma(gamma):
    with pytest.raises(ValueError):
        StepSchedule(gamma)


@pytest.mark.parametrize("gamma", ["0.75", True, None])
def test_schedule_refuses_a_gamma_that_is_no_number(gamma):
    # "0.75" raised TypeError from the range test
    with pytest.raises(ValueError, match=f"^gamma must be a number, got {re.escape(repr(gamma))}$"):
        StepSchedule(gamma)


def test_schedule_keeps_a_numpy_gamma_as_given():
    assert type(StepSchedule(np.float32(0.75)).gamma) is np.float32
    assert type(StepSchedule(np.float64(0.75)).gamma) is np.float64


def test_schedule_rejects_n0():
    with pytest.raises(ValueError):
        StepSchedule(0.75).step_sizes(0)


# -- loop fidelity ---------------------------------------------------------------

@pytest.mark.parametrize("q", [0.5, 1.0, 1.2])
def test_gqsf1_matches_reference_listing(q):
    kernel = QKernel(q=q, beta=0.01, dim=4)
    sched = StepSchedule(0.75)
    net = preset("mg1-4d").network
    res = run_gqsf1(
        make_simulator(net, RngStream(5, 1)), kernel, BOX4, sched,
        40, 7, TARGET4, RngStream(5, 2),
    )
    ref_theta, ref_z = reference_run(
        (make_simulator(net, RngStream(5, 1)),), kernel, BOX4, sched,
        40, 7, TARGET4, RngStream(5, 2),
    )
    np.testing.assert_allclose(res.theta_final, ref_theta, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(res.z, ref_z, rtol=1e-9, atol=1e-12)


def test_gqsf2_matches_reference_listing():
    kernel = QKernel(q=0.8, beta=0.01, dim=4)
    sched = StepSchedule(0.65)
    net = preset("mg1-4d").network
    res = run_gqsf2(
        make_simulator(net, RngStream(6, 1)), make_simulator(net, RngStream(6, 2)),
        kernel, BOX4, sched, 30, 5, TARGET4, RngStream(6, 3),
    )
    ref_theta, ref_z = reference_run(
        (make_simulator(net, RngStream(6, 1)), make_simulator(net, RngStream(6, 2))),
        kernel, BOX4, sched, 30, 5, TARGET4, RngStream(6, 3),
    )
    np.testing.assert_allclose(res.theta_final, ref_theta, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(res.z, ref_z, rtol=1e-9, atol=1e-12)


def test_gaussian_sf_equivalence():
    # at q = 1 the run must coincide with a hand-rolled Gaussian-SF loop
    # using eta*h/beta terms and plain Box-Muller perturbations
    kernel = QKernel(q=1.0, beta=0.02, dim=4)
    sched = StepSchedule(0.75)
    net = preset("mg1-4d").network
    res = run_gqsf1(
        make_simulator(net, RngStream(9, 1)), kernel, BOX4, sched,
        50, 4, TARGET4, RngStream(9, 2),
    )

    sim = make_simulator(net, RngStream(9, 1))
    stream = RngStream(9, 2)
    theta = TARGET4.copy()
    z = np.zeros(4)
    for n in range(50):
        a_n = 1.0 / (n + 1)
        b_n = (n + 1) ** -0.75
        eta = stream.standard_normal(4)
        control = np.clip(theta + 0.02 * eta, 0.1, 0.6)
        z_entering = z.copy()
        for _ in range(4):
            z = (1 - b_n) * z + b_n * (eta * sim.step(control) / 0.02)
        theta = np.clip(theta - a_n * z_entering, 0.1, 0.6)
    np.testing.assert_allclose(res.theta_final, theta, rtol=1e-10)


def test_controls_are_projected_and_constant_within_inner_loop():
    kernel = QKernel(q=0.5, beta=0.4, dim=4)  # large beta: perturbations escape the box
    rec = RecordingSimulator(ConstantCostSimulator(1.0))
    run_gqsf1(rec, kernel, BOX4, StepSchedule(0.75), 20, 6, TARGET4, RngStream(11, 0))
    assert len(rec.controls) == 20 * 6
    for i in range(20):
        block = rec.controls[i * 6 : (i + 1) * 6]
        for ctrl in block:
            np.testing.assert_array_equal(ctrl, block[0])
            assert np.all(ctrl >= 0.1) and np.all(ctrl <= 0.6)


# -- behavior --------------------------------------------------------------------

def test_constant_cost_drifts_less_than_sloped_cost():
    kernel = QKernel(q=0.5, beta=0.5, dim=4)
    sched = StepSchedule(0.75)
    theta0 = np.full(4, 0.35)
    res_const = run_gqsf1(
        ConstantCostSimulator(0.05), kernel, BOX4, sched, 3000, 10, theta0, RngStream(21, 0)
    )
    res_slope = run_gqsf1(
        LinearCostSimulator(), kernel, BOX4, sched, 3000, 10, theta0, RngStream(21, 0)
    )
    drift_const = float(np.linalg.norm(res_const.theta_final - theta0))
    drift_slope = float(np.linalg.norm(res_slope.theta_final - theta0))
    # the sloped system walks to the lower corner; zero-gradient noise does not
    assert drift_slope > 0.4
    assert drift_const < 0.5 * drift_slope


def test_quadratic_fixture_gqsf1():
    kernel = QKernel(q=0.8, beta=0.005, dim=4)
    res = run_gqsf1(
        QuadraticCostSimulator(TARGET4), kernel, BOX4, StepSchedule(0.75),
        10_000, 10, np.array([0.1, 0.1, 0.6, 0.6]), RngStream(2024, 1),
        target=TARGET4,
    )
    assert res.distance < 0.05


def test_quadratic_fixture_gqsf2():
    kernel = QKernel(q=0.8, beta=0.005, dim=4)
    res = run_gqsf2(
        QuadraticCostSimulator(TARGET4), QuadraticCostSimulator(TARGET4),
        kernel, BOX4, StepSchedule(0.75),
        10_000, 10, np.array([0.1, 0.1, 0.6, 0.6]), RngStream(2024, 2),
        target=TARGET4,
    )
    assert res.distance < 0.02


def test_gqsf2_identical_sims_keep_theta_fixed():
    # antisymmetry: equal costs on both sides leave Z at zero forever
    kernel = QKernel(q=0.5, beta=0.01, dim=4)
    res = run_gqsf2(
        ConstantCostSimulator(2.0), ConstantCostSimulator(2.0),
        kernel, BOX4, StepSchedule(0.75), 200, 5, TARGET4, RngStream(1, 1),
    )
    np.testing.assert_array_equal(res.theta_final, TARGET4)
    np.testing.assert_array_equal(res.z, np.zeros(4))


def test_feasibility_under_extreme_beta():
    kernel = QKernel(q=0.5, beta=5.0, dim=4)
    res = run_gqsf1(
        ConstantCostSimulator(1.0), kernel, BOX4, StepSchedule(0.51),
        1000, 2, TARGET4, RngStream(33, 3), record_every=1,
    )
    assert len(res.trajectory) == 1001
    for point in res.trajectory:
        assert np.all(point.theta >= 0.1) and np.all(point.theta <= 0.6)


def test_determinism_same_seed_same_result():
    kernel = QKernel(q=1.2, beta=0.01, dim=4)
    net = preset("mg1-4d").network

    def go():
        return run_gqsf2(
            make_simulator(net, RngStream(7, 10)), make_simulator(net, RngStream(7, 11)),
            kernel, BOX4, StepSchedule(0.75), 100, 20, TARGET4, RngStream(7, 12),
            target=TARGET4, record_every=10,
        )

    a, b = go(), go()
    np.testing.assert_array_equal(a.theta_final, b.theta_final)
    assert a.distance == b.distance
    assert len(a.trajectory) == len(b.trajectory)
    for pa, pb in zip(a.trajectory, b.trajectory):
        assert pa.n == pb.n
        np.testing.assert_array_equal(pa.theta, pb.theta)


def test_divergence_guard():
    kernel = QKernel(q=0.5, beta=0.005, dim=4)
    with pytest.raises(DivergenceError) as exc:
        run_gqsf1(
            ConstantCostSimulator(1e300), kernel, BOX4, StepSchedule(0.75),
            10, 5, TARGET4, RngStream(3, 0),
        )
    assert exc.value.outer_index == 0
    assert exc.value.seed_info["seed"] == 3


class NanAfterSimulator:
    """Cost 1.0 for its first ``finite`` steps, NaN from then on."""

    def __init__(self, finite):
        self.finite = finite
        self.calls = 0

    def step(self, control):
        self.calls += 1
        return 1.0 if self.calls <= self.finite else float("nan")


class NanQueueSimulator(QueueSimulator):
    """A queue simulator whose ``nan_call``-th observation batch holds a NaN
    cost; the compiled loop hands it back to Python to observe."""

    def __init__(self, network, stream, nan_call):
        super().__init__(network, stream)
        self.nan_call = nan_call
        self.calls = 0

    def observe(self, control, L):
        costs = super().observe(control, L)
        self.calls += 1
        if self.calls == self.nan_call:
            costs[L // 2] = float("nan")
        return costs


def _nan_queue_sims(kernel_name, nan_calls):
    network = preset("mg1-4d").network
    on_python = mock.patch.object(_native, "load", return_value=None)
    with on_python if kernel_name == "python" else contextlib.nullcontext():
        sims = [NanQueueSimulator(network, RngStream(4, i), c) for i, c in enumerate(nan_calls)]
    assert all(sim.kernel == kernel_name for sim in sims)
    return tuple(sims)


@pytest.mark.parametrize("kernel_name", KERNELS)
@pytest.mark.parametrize("algorithm", ["gqsf1", "gqsf2"])
def test_divergence_guard_catches_nan(algorithm, kernel_name):
    # A NaN cost makes Z NaN, which passes no comparison with the limit.
    # With L = 5, steps 11-15 of a simulator fall in outer iteration 2.
    kernel = QKernel(q=0.5, beta=0.005, dim=4)
    if algorithm == "gqsf1":
        run, want = run_gqsf1, 2
        cases = [(NanAfterSimulator(finite=12),), _nan_queue_sims(kernel_name, [3])]
    else:
        run, want = run_gqsf2, 3
        cases = [
            (ConstantCostSimulator(1.0), NanAfterSimulator(finite=17)),
            _nan_queue_sims(kernel_name, [0, 4]),
        ]
    for sims in cases:
        with pytest.raises(DivergenceError) as exc:
            run(*sims, kernel, BOX4, StepSchedule(0.75), 10, 5, TARGET4, RngStream(3, 0))
        assert exc.value.outer_index == want
        assert np.isnan(exc.value.z).all()


def test_simulator_failure_carries_context():
    kernel = QKernel(q=0.5, beta=0.005, dim=4)
    with pytest.raises(SimulationError) as exc:
        run_gqsf1(
            FailingSimulator(fail_at=6), kernel, BOX4, StepSchedule(0.75),
            10, 4, TARGET4, RngStream(3, 1),
        )
    assert (exc.value.outer_index, exc.value.inner_index) == (1, 1)
    assert isinstance(exc.value.__cause__, RuntimeError)


def test_argument_validation():
    kernel = QKernel(q=0.5, beta=0.01, dim=4)
    sim = ConstantCostSimulator(1.0)
    with pytest.raises(ValueError):
        run_gqsf1(sim, kernel, BOX4, StepSchedule(0.75), 10, 5,
                  np.full(4, 0.9), RngStream(0, 0))  # theta0 outside C
    with pytest.raises(ValueError):
        run_gqsf2(sim, sim, kernel, BOX4, StepSchedule(0.75), 10, 5,
                  TARGET4, RngStream(0, 0))  # same instance twice
    with pytest.raises(ValueError):
        run_gqsf1(sim, kernel, BOX4, StepSchedule(0.75), 0, 5, TARGET4, RngStream(0, 0))


@pytest.mark.parametrize("loop", ["compiled", "python"])
@pytest.mark.parametrize("n_sims", [1, 2])
def test_both_loops_refuse_a_kernel_of_another_dimension_before_they_draw(loop, n_sims):
    sims = QuadraticCostSimulator(TARGET4), QuadraticCostSimulator(TARGET4)
    run = run_gqsf1 if n_sims == 1 else run_gqsf2
    stream = RngStream(5, 0)
    stream.standard_normal()
    before = stream_state(stream)
    message = re.escape("dimension mismatch: kernel 3, box 4, theta0 (4,)")
    on_python = mock.patch.object(_native, "load", return_value=None)
    with on_python if loop == "python" else contextlib.nullcontext():
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(*sims[:n_sims], QKernel(q=0.5, beta=0.01, dim=3), BOX4, StepSchedule(0.75),
                10, 2, TARGET4, stream)
    assert stream_state(stream) == before


VECTOR_INPUTS = {
    "box lower": lambda v: BoxConstraint(v, [0.6, 0.6]),
    "box upper": lambda v: BoxConstraint([0.1, 0.1], v),
    "quadratic target": QuadraticCostSimulator,
    "gqsf1 theta0": lambda v: run_gqsf1(
        QuadraticCostSimulator([0.3, 0.3]), QKernel(q=0.5, beta=0.01, dim=2),
        BoxConstraint.cube(0.1, 0.6, 2), StepSchedule(0.75), 4, 2, v, RngStream(5, 0)),
    "gqsf2 theta0": lambda v: run_gqsf2(
        QuadraticCostSimulator([0.3, 0.3]), QuadraticCostSimulator([0.3, 0.3]),
        QKernel(q=0.5, beta=0.01, dim=2), BoxConstraint.cube(0.1, 0.6, 2), StepSchedule(0.75),
        4, 2, v, RngStream(5, 0)),
}


@pytest.mark.parametrize(
    "value, refused",
    [(["0.3", 0.4], " entry must be a number, got '0.3'"),
     ([0.3, True], " entry must be a number, got True"),
     ([0.3, None], " entry must be a number, got None"),
     ([0.3, [0.4]], r" entry must be a number, got \[0.4\]"),
     (np.array([False, True]), r" must be a number, got array\(\[False,  True\]\)"),
     (np.array(["0.3", "0.4"]), r" must be a number, got array\(\['0.3', '0.4'\]"),
     ("0.3", " must be a number, got '0.3'")],
    ids=["string", "bool", "None", "list", "bool array", "string array", "a string"],
)
@pytest.mark.parametrize("use", sorted(VECTOR_INPUTS))
def test_vector_inputs_refuse_what_is_no_number(use, value, refused):
    # each of these but the nested list used to load: "0.3" as 0.3, and
    # True as 1.0
    name = {"box lower": "lower", "box upper": "upper", "quadratic target": "target"}
    with pytest.raises(ValueError, match=f"^{name.get(use, 'theta0')}{refused}"):
        VECTOR_INPUTS[use](value)


@pytest.mark.parametrize(
    "value",
    [[0.3, 0.4], (0.3, 0.4), [np.float32(0.3), 1], np.array([0.3, 0.4], np.float32),
     np.array([3, 4]), np.array([0.3, 0.4])],
    ids=["list", "tuple", "numpy scalars", "float32 array", "int array", "float64 array"],
)
def test_vector_inputs_of_numbers_convert_as_before(value):
    # the checks change no value: each input is converted as np.asarray did
    expected = np.asarray(value, dtype=float)
    box = BoxConstraint(np.zeros(2), np.full(2, 9.0))
    assert np.array_equal(BoxConstraint(value, np.full(2, 9.0)).lower, expected)
    assert np.array_equal(BoxConstraint(np.zeros(2), value).upper, expected)
    target = QuadraticCostSimulator(value).target
    assert target.dtype == np.float64 and np.array_equal(target, expected)
    result = run_gqsf1(QuadraticCostSimulator(expected), QKernel(q=0.5, beta=0.01, dim=2), box,
                       StepSchedule(0.75), 3, 2, value, RngStream(5, 0))
    twin = run_gqsf1(QuadraticCostSimulator(expected), QKernel(q=0.5, beta=0.01, dim=2), box,
                     StepSchedule(0.75), 3, 2, expected, RngStream(5, 0))
    assert result.theta_final.tobytes() == twin.theta_final.tobytes()
    # a float64 target is still read where it stands, not copied
    array = np.array([0.3, 0.4])
    assert QuadraticCostSimulator(array).target is array


@pytest.mark.parametrize("loop", ["compiled", "python"])
@pytest.mark.parametrize(
    "name, value, least",
    [("M", 0, 1), ("M", True, 1), ("M", 2.5, 1),
     ("L", 0, 1), ("L", True, 1), ("L", 1.5, 1),
     ("record_every", -1, 0), ("record_every", True, 0), ("record_every", 2.5, 0)],
)
def test_both_loops_refuse_a_count_that_is_no_count_before_they_draw(loop, name, value, least):
    # record_every=2.5 raised TypeError on the compiled loop and recorded at
    # n = 0, 5, 10 on the Python one; M=True ran one iteration on both
    message = f"{name} must be an integer >= {least}, got {value!r}"
    _refused_before_any_draw(loop, {name: value}, message)


@pytest.mark.parametrize("loop", ["compiled", "python"])
@pytest.mark.parametrize(
    "name, value",
    [("M", 2**64 + 3), ("M", 2**63 + 3), ("M", 2**63), ("L", 2**64 + 1),
     ("record_every", 2**64 + 2), ("record_every", 2**63)],
)
def test_both_loops_refuse_a_run_size_beyond_int64_before_they_draw(loop, name, value):
    # the compiled loop takes them as int64: M = 2**64 + 3 stopped after 3
    # iterations, M = 2**63 + 3 hung and record_every = 2**64 + 2 recorded
    # at n = 2 and 4
    _refused_before_any_draw(loop, {name: value}, f"{name} must be at most 2**63 - 1, got {value}")


def _on_loop(loop):
    on_python = mock.patch.object(_native, "load", return_value=None)
    return on_python if loop == "python" else contextlib.nullcontext()


def _refused_before_any_draw(loop, bad, message):
    args = {"M": 10, "L": 2, "record_every": 0, **bad}
    sims = QuadraticCostSimulator(TARGET4), QuadraticCostSimulator(TARGET4)
    stream = RngStream(5, 0)
    stream.standard_normal()
    before = stream_state(stream)
    with _on_loop(loop), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_gqsf2(*sims, QKernel(q=0.5, beta=0.01, dim=4), BOX4, StepSchedule(0.75),
                  args["M"], args["L"], TARGET4, stream, record_every=args["record_every"])
    assert stream_state(stream) == before


@pytest.mark.parametrize("loop", ["compiled", "python"])
def test_a_record_every_of_2_to_the_63_minus_1_records_the_start_and_the_end(loop):
    sims = QuadraticCostSimulator(TARGET4), QuadraticCostSimulator(TARGET4)
    with _on_loop(loop):
        result = run_gqsf2(*sims, QKernel(q=0.5, beta=0.01, dim=4), BOX4, StepSchedule(0.75),
                           5, 2, TARGET4, RngStream(5, 0), record_every=2**63 - 1)
    assert [point.n for point in result.trajectory] == [0, 5]

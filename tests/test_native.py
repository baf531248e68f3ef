"""The compiled event loop and outer loop: bit-identical to the Python
kernel and loop, and a safe fallback to them when the library cannot be
built."""

import contextlib
import copy
import ctypes
import dataclasses
import gc
import math
import os
import re
import resource
import shutil
import stat
import subprocess
import sys
import textwrap
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsmooth
from qsmooth import _native, optimizer, qgaussian
from qsmooth.optimizer import (
    BoxConstraint,
    DivergenceError,
    QuadraticCostSimulator,
    SimulationError,
    StepSchedule,
    run_gqsf1,
    run_gqsf2,
)
from qsmooth.qgaussian import QKernel
from qsmooth.queueing import QueueNetworkConfig, QueueSimulator, make_simulator, preset
from qsmooth.rng import RngStream
from qsmooth.smoothing import InvalidRhoError

transform_constants = qgaussian._transform_constants

from test_queueing import kernel_simulator

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")

# 60 examples of the fixed sequence that the suite's profile (conftest.py) pins
DETERMINISTIC = settings(max_examples=60)

# the state both event loops keep, compared between them
COUNTERS = ("clock", "entry_sum", "n_present", "arrivals_seen", "departures_seen",
            "completion_time")


def _next_uniforms(stream):
    """The stream's next draws, without drawing from it."""
    return copy.deepcopy(stream).uniform01(4).tolist()


@st.composite
def networks(draw, max_dim=3):
    k = draw(st.integers(1, 4))

    def per_node(values, n=k):
        return draw(st.lists(values, min_size=n, max_size=n))

    rate = st.floats(0.05, 3.0)
    dims = per_node(st.integers(1, max_dim))
    return QueueNetworkConfig(
        arrival_rates=[draw(rate)] + per_node(rate | st.just(0.0), k - 1),
        p_leave=per_node(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        service_constants=per_node(st.floats(0.5, 50.0)),
        dims=dims,
        theta_target=per_node(st.floats(0.0, 1.0), sum(dims)),
    )


@needs_gcc
@DETERMINISTIC
@given(network=networks(), data=st.data())
def test_kernels_agree_bit_for_bit(network, data):
    # Unstable networks are drawn too: their queues outgrow the rings.
    seed = data.draw(st.integers(0, 2**32), label="seed")
    skip = data.draw(st.integers(0, 4095), label="uniforms drawn before")
    streams = [RngStream(seed, 5), RngStream(seed, 5)]
    for stream in streams:
        stream.uniform01(skip)  # the kernels meet buffer ends anywhere
    sims = [kernel_simulator(k, network, s) for k, s in zip(("c", "python"), streams)]
    control_of = st.lists(
        st.floats(0.0, 1.0), min_size=network.total_dim, max_size=network.total_dim
    ).map(np.array)
    control = data.draw(control_of, label="control")
    calls = data.draw(
        st.lists(st.tuples(st.integers(1, 150), st.booleans()), min_size=1, max_size=10),
        label="calls (L, new control)",
    )
    for L, new_control in calls:
        if new_control:
            control = data.draw(control_of, label="control")
        c_costs, py_costs = (sim.observe(control, L) for sim in sims)
        assert np.array(c_costs).tobytes() == np.array(py_costs).tobytes()
        assert len(c_costs) == L and np.all(np.isfinite(c_costs))
        assert min(c_costs) >= 0.0
        c_state, py_state = (sim.state for sim in sims)
        for name in COUNTERS:
            assert getattr(c_state, name) == getattr(py_state, name), name
        assert c_state.arrivals_seen - c_state.departures_seen == c_state.n_present
        assert _next_uniforms(streams[0]) == _next_uniforms(streams[1])


class RefillCountingStream(RngStream):
    """A stream that counts its refills, through an override of ``_fresh``:
    compiled code may not read it, so its simulators run the Python
    kernel."""

    __slots__ = ("refills",)

    def __init__(self, seed, stream_id=0):
        super().__init__(seed, stream_id)
        self.refills = 0

    def _fresh(self, count):
        self.refills += 1
        return super()._fresh(count)


def _stands(stream):
    """Where a stream stands, to the bit: its unread uniforms and its
    generator's next raw draw, without drawing it."""
    return stream._buf[stream._pos :].tobytes(), copy.deepcopy(stream._bitgen).random_raw()


def _to_come(stream):
    """The stream's next 8192 uniforms, without drawing them: more than one
    refill brings, so streams that agree on them stand at the same place in
    the sequence, wherever their buffers end."""
    return copy.deepcopy(stream).uniform01(8192).tobytes()


# the steps of the refill test below: observe L costs, or draw n uniforms
# from the simulator's stream, one at a time or as an array
REFILL_STEPS = (
    st.tuples(st.just("observe"), st.integers(1, 5000))
    | st.tuples(st.just("scalar"), st.integers(1, 4))
    | st.tuples(st.just("array"), st.integers(1, 4100))
)


@needs_gcc
@DETERMINISTIC
@given(network=networks(), data=st.data())
def test_the_loop_refills_as_the_stream_would(network, data):
    # Against the Python kernel, which a stream whose class overrides
    # _fresh gets: the same costs, and each stream with the same uniforms
    # to come, after every step.  The C loop refills when fewer than 3
    # remain, the Python kernel at its next draw, so their buffers may end
    # apart for a while
    seed = data.draw(st.integers(0, 2**32), label="seed")
    skip = data.draw(st.integers(0, 4095), label="uniforms drawn before")
    streams = [RngStream(seed, 5), RefillCountingStream(seed, 5)]
    for stream in streams:
        stream.uniform01(skip)
    sims = [QueueSimulator(network, stream) for stream in streams]
    assert [sim.kernel for sim in sims] == ["c", "python"]
    control = np.array(data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=network.total_dim, max_size=network.total_dim),
        label="control",
    ))
    for kind, n in data.draw(st.lists(REFILL_STEPS, min_size=1, max_size=8), label="steps"):
        if kind == "observe":
            got = [np.array(sim.observe(control, n)).tobytes() for sim in sims]
        elif kind == "scalar":
            got = [[stream.uniform01() for _ in range(n)] for stream in streams]
        else:
            got = [stream.uniform01(n).tobytes() for stream in streams]
        assert got[0] == got[1]
        assert _to_come(streams[0]) == _to_come(streams[1])
        assert _queue_counters(sims[0]) == _queue_counters(sims[1])


@needs_gcc
def test_the_loop_refills_at_every_tail_many_times():
    # A call of 50 observations refills at most once, and leaves the stream
    # with the unread tail the refill kept (0, 1 or 2 uniforms) ahead of the
    # 4096 fresh ones; on mg1-20d, whose completions often draw 3 uniforms,
    # every tail comes up
    loaded = preset("mg1-20d")
    streams = [RngStream(3, 1), RefillCountingStream(3, 1)]
    sims = [QueueSimulator(loaded.network, stream) for stream in streams]
    state = sims[0].state
    tails = set()
    for _ in range(3000):
        refills = state.refills
        got = [np.array(sim.observe(loaded.theta0, 50)).tobytes() for sim in sims]
        assert got[0] == got[1]
        if state.refills > refills:
            assert _stands(streams[0]) == _stands(streams[1])
            tails.add(streams[0]._buf.size - 4096)
    assert tails == {0, 1, 2}
    assert state.refills >= 50
    assert _stands(streams[0]) == _stands(streams[1])


@needs_gcc
def test_a_stream_that_overrides_fresh_keeps_its_refills_in_python():
    # The loop refills a plain stream's buffer itself, so it stops only to
    # grow a full ring; a simulator on a stream whose class overrides
    # _fresh runs the Python kernel, which the loop hands back at every
    # iteration, and the stream sees every refill.  Overloaded queues grow
    # the rings until the run diverges
    grown = []
    grow_rings = _native.NativeKernel.grow_rings

    def counted(state):
        grown.append(state.full)  # the node whose full ring stopped the loop
        grow_rings(state)

    runs = {}
    for kind in ("queue", "fresh-overriding"):
        grown.clear()
        with mock.patch.object(_native.NativeKernel, "grow_rings", counted):
            (out, ends, sims), stops, observed = _stops_of(_far_target_spec(kinds=[kind] * 2))
        runs[kind] = out, ends
        assert out[0] is DivergenceError and stops[-1] == _native.CompiledRun.DIVERGED
        if kind == "queue":
            assert [sim.kernel for sim in sims] == ["c", "c"]
            assert grown and min(grown) >= 0 and observed == []
            assert min(sim.state.refills for sim in sims) > 0
        else:
            assert [sim.kernel for sim in sims] == ["python", "python"]
            # at every iteration, the one that diverged included
            assert grown == [] and observed == [[0, 1]] * (out[2] + 1)
            assert all(sim.stream.refills >= 4 for sim in sims)
    assert runs["queue"] == runs["fresh-overriding"]


def _bits(spare):
    """A cached normal to the bit, -0.0 apart from 0.0, or None."""
    return None if spare is None else np.float64(spare).tobytes()


@needs_gcc
@pytest.mark.parametrize("spare", [None, 0.25, -0.0], ids=["none", "0.25", "-0.0"])
def test_a_kernel_hands_its_streams_cached_normal_back_bit_for_bit(spare):
    # no event draws a normal, but the loops hand a simulator's stream over
    # whole, cached normal included: it comes back as it went, after an
    # observe and after a compiled run, and the stream then draws as on the
    # Python kernel
    loaded = preset("mg1-4d")
    draws = {}
    for kernel in ("c", "python"):
        streams = [RngStream(5, i) for i in (1, 2)]
        for stream in streams:
            stream.spare_normal = spare
        sims = [kernel_simulator(kernel, loaded.network, stream) for stream in streams]
        sims[0].observe(loaded.theta0, 3000)  # crosses refills on the C kernel
        assert _bits(streams[0].spare_normal) == _bits(spare)
        with mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as compiled:
            run_gqsf2(*sims, QKernel(0.8, 0.005, 4), BoxConstraint.cube(0.1, 0.6, 4),
                      StepSchedule(0.75), 100, 50, loaded.theta0, RngStream(5, 0))
        assert compiled.call_count == 1
        assert [_bits(stream.spare_normal) for stream in streams] == [_bits(spare)] * 2
        if kernel == "c":
            assert min(sim.state.refills for sim in sims) > 0
        draws[kernel] = [(stream.standard_normal(3).tobytes(), stream.uniform01(5000).tobytes())
                         for stream in streams]
    assert draws["c"] == draws["python"]


@needs_gcc
@pytest.mark.parametrize("name", [*_native._COMPILED_REFILL, "_bitgen"])
def test_only_a_plain_philox_stream_is_refilled_by_the_loop(name):
    # a stream whose class overrides a method the loop's refill stands in
    # for, or whose generator is not Philox, gets the Python kernel
    def same(self, *args):
        return getattr(RngStream, name)(self, *args)

    if name == "_bitgen":
        stream = RngStream(5, 1)
        stream._bitgen = np.random.PCG64(5)
    else:
        stream = type("Overriding", (RngStream,), {"__slots__": (), name: same})(5, 1)
    assert QueueSimulator(preset("mg1-4d").network, stream).kernel == "python"


class CountingStream(RngStream):
    """A stream that counts the uniforms drawn through ``uniform01``, as a
    profiler's might."""

    __slots__ = ("uniforms",)

    def __init__(self, seed, stream_id=0):
        super().__init__(seed, stream_id)
        self.uniforms = 0

    def uniform01(self, size=None):
        self.uniforms += 1 if size is None else size
        return super().uniform01(size)


def _end_state(stream):
    """Where a stream stands: its cached normal and the uniforms it draws
    next, without drawing them."""
    return stream.spare_normal, _next_uniforms(stream)


def _queue_counters(sim):
    return [getattr(sim.state, name) for name in COUNTERS]


class RecordingQueueSimulator(QueueSimulator):
    """Keeps every cost it returns."""

    def __init__(self, network, stream):
        super().__init__(network, stream)
        self.costs = []

    def observe(self, control, L):
        costs = super().observe(control, L)
        self.costs.extend(costs)
        return costs


class StepOnlySimulator:
    """A queue simulator seen through ``step`` alone."""

    def __init__(self, network, stream):
        self.inner = QueueSimulator(network, stream)
        self.state = self.inner.state

    def step(self, control):
        return self.inner.step(control)


class DrawingSimulator:
    """A quadratic cost plus draws from a stream that the run also reads
    elsewhere: the perturbation stream, or the other simulator's.  Its
    scalar normal moves the stream's cached normal, and its uniforms the
    stream's position."""

    def __init__(self, target, source):
        self.target = target
        self.source = source

    def observe(self, control, L):
        d = control - self.target
        cost = float(np.dot(d, d)) + abs(self.source.standard_normal())
        return (cost + self.source.uniform01(L)).tolist()


# what an observe returns in place of the L costs of a quadratic system
COST_FORMS = {
    "short": lambda cost, L: [cost] * (L - 1),
    "long": lambda cost, L: [cost] * (L + 1),
    "int": lambda cost, L: [round(1e6 * cost)] * L,
    "float32": lambda cost, L: np.full(L, cost, dtype=np.float32),
    "float32 as float64": lambda cost, L: [float(np.float32(cost))] * L,
}


class FormedCostSimulator(QuadraticCostSimulator):
    """A quadratic system whose costs come back in one of ``COST_FORMS``."""

    def __init__(self, target, form):
        super().__init__(target)
        self.form = COST_FORMS[form]

    def observe(self, control, L):
        return self.form(self.step(control), L)


def _simulator(kind, network, streams, i, recording):
    """Simulator ``i`` of a run, of ``kind``: ``"queue"``, ``"overriding"``
    (a queue simulator whose ``observe`` is its subclass's),
    ``"fresh-overriding"`` (a queue simulator on a stream whose class
    overrides ``_fresh``: see ``_run``), ``"step-only"``, ``"quadratic"``,
    ``("drawing", j)`` (drawing from ``streams[j]``), ``("costs", form)``,
    or a function that makes one from the network.  ``recording`` makes a
    queue simulator an overriding one, which keeps its costs."""
    if callable(kind):
        return kind(network)
    stream = streams[1 + i]
    if kind in ("queue", "fresh-overriding") and not recording:
        return QueueSimulator(network, stream)
    if kind in ("queue", "overriding", "fresh-overriding"):
        return RecordingQueueSimulator(network, stream)
    if kind == "step-only":
        return StepOnlySimulator(network, stream)
    if kind == "quadratic":
        return QuadraticCostSimulator(network.theta_target)
    if kind[0] == "drawing":
        return DrawingSimulator(network.theta_target, streams[kind[1]])
    return FormedCostSimulator(network.theta_target, kind[1])


def _outcome(call):
    """``call()``'s run as bytes, or the optimizer error it raised."""
    try:
        result = call()
    except (DivergenceError, InvalidRhoError, SimulationError) as err:
        z = err.z.tobytes() if isinstance(err, DivergenceError) else None
        return (type(err), str(err), getattr(err, "outer_index", None), z,
                getattr(err, "inner_index", None), repr(err.__cause__))
    return (
        result.theta_final.tobytes(),
        result.z.tobytes(),
        [(point.n, point.theta.tobytes()) for point in result.trajectory or ()],
    )


def _run(spec, on_python=False, recording=False):
    """One optimizer run of ``spec``: its result, or the error it raised,
    as bytes, with the end state of every stream and simulator.  With
    ``on_python`` the compiled library is hidden, so the simulators run the
    Python kernel and the run the Python loop; ``recording`` has the queue
    simulators keep their costs.  The simulators are queue simulators
    unless ``spec["kinds"]`` names others (see ``_simulator``); a
    ``"fresh-overriding"`` one draws from a ``RefillCountingStream``."""
    network, box, kernel, M, L, record_every, theta0, seeds = (
        spec[name] for name in ("network", "box", "kernel", "M", "L", "record_every", "theta0",
                                "seeds")
    )
    hidden = mock.patch.object(_native, "load", return_value=None)
    with hidden if on_python else contextlib.nullcontext():
        kinds = spec.get("kinds", ["queue"] * (len(seeds) - 1))
        types = [spec["stream_type"]] + [
            RefillCountingStream if kind == "fresh-overriding" else spec["stream_type"]
            for kind in kinds
        ]
        streams = [stream_type(*seed) for stream_type, seed in zip(types, seeds)]
        for stream, skip in zip(streams, spec["skips"]):
            stream.uniform01(skip)  # the loop meets buffer ends anywhere
        sims = [_simulator(kind, network, streams, i, recording) for i, kind in enumerate(kinds)]
        run = run_gqsf1 if len(sims) == 1 else run_gqsf2
        out = _outcome(lambda: run(
            *sims, kernel, box, StepSchedule(0.75), M, L, theta0, streams[0],
            record_every=record_every,
        ))
    ends = [_end_state(stream) for stream in streams]
    ends += [_queue_counters(sim) if hasattr(sim, "state") else None for sim in sims]
    return out, ends, sims


@st.composite
def run_specs(draw):
    network = draw(networks(max_dim=5), label="network")
    dim = network.total_dim
    cauchy = 1.0 + 2.0 / (dim + 1)  # chi-squared df 1: gamma shape 1/2
    q = draw(
        st.sampled_from([1.0, cauchy, 0.5])
        | st.floats(-3.0, 0.999)
        | st.floats(1.001, 1.0 + 2.0 / dim - 1e-3),
        label="q",
    )
    lower = draw(st.floats(-0.5, 0.5), label="box lower")
    upper = lower + draw(st.floats(0.05, 1.0), label="box width")
    box = BoxConstraint.cube(lower, upper, dim)
    theta0 = np.array(
        draw(st.lists(st.floats(lower, upper), min_size=dim, max_size=dim), label="theta0")
    )
    L = draw(st.integers(1, 300), label="L")
    # 300 to 3000 observations per simulator: enough to meet buffer ends
    M = draw(st.integers(max(1, 300 // L), 3000 // L), label="M")
    n_sims = draw(st.sampled_from([1, 2]), label="simulations")
    # the perturbation stream, or the other simulator's, for one that draws
    sources = [[0] + [2 - i] * (n_sims == 2) for i in range(n_sims)]
    kinds = [
        draw(
            st.just("queue")
            | st.sampled_from(["overriding", "fresh-overriding", "step-only", "quadratic"])
            | st.sampled_from(sources[i]).map(lambda j: ("drawing", j)),
            label=f"simulator {i}",
        )
        for i in range(n_sims)
    ]
    seed = draw(st.integers(0, 2**32), label="seed")
    common = n_sims == 2 and draw(st.booleans(), label="common random numbers")
    sim_ids = [1, 1] if common else [1, 2][:n_sims]
    return {
        "network": network,
        "box": box,
        "kernel": QKernel(q, draw(st.floats(1e-3, 0.5), label="beta"), dim),
        "M": M,
        "L": L,
        "record_every": draw(st.integers(0, M + 1), label="record_every"),
        "theta0": theta0,
        "seeds": [(seed, 0)] + [(seed, i) for i in sim_ids],
        "skips": draw(
            st.lists(st.integers(0, 4095), min_size=n_sims + 1, max_size=n_sims + 1),
            label="uniforms drawn before",
        ),
        "stream_type": RngStream,
        "kinds": kinds,
    }


@needs_gcc
@DETERMINISTIC
@given(spec=run_specs())
def test_compiled_loop_matches_the_python_loop(spec):
    # Unstable networks are drawn too: their queues outgrow the rings.
    # Whatever its simulators, the compiled loop serves the run, running
    # the queue simulators itself and handing the others back to Python.
    with mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as compiled:
        got, got_ends, _ = _run(spec)
    assert compiled.call_count == 1
    want, want_ends, sims = _run(spec, on_python=True, recording=True)
    assert got == want
    assert got_ends == want_ends
    for sim in sims:
        if isinstance(sim, RecordingQueueSimulator):
            assert min(sim.costs, default=0.0) >= 0.0


def _far_target_spec(**changes):
    """mg1-4d with its target far outside the box: overloaded queues whose
    growing costs carry the fast iterate past the guard after a few
    iterations."""
    loaded = preset("mg1-4d")
    network = QueueNetworkConfig(
        arrival_rates=loaded.network.arrival_rates,
        p_leave=loaded.network.p_leave,
        service_constants=loaded.network.service_constants,
        dims=loaded.network.dims,
        theta_target=np.full(4, 30.0),
    )
    spec = {
        "network": network,
        "box": BoxConstraint.cube(loaded.box_lower, loaded.box_upper, 4),
        "kernel": QKernel(0.8, 0.005, 4),
        "M": 200,
        "L": 100,
        "record_every": 7,
        "theta0": loaded.theta0,
        "seeds": [(41, 0), (41, 1), (41, 2)],
        "skips": [0, 0, 0],
        "stream_type": RngStream,
    }
    return {**spec, **changes}


@needs_gcc
def test_compiled_loop_diverges_where_the_python_loop_does():
    got, got_ends, _ = _run(_far_target_spec())
    want, want_ends, _ = _run(_far_target_spec(), on_python=True)
    assert got[0] is DivergenceError and got[2] > 0
    assert got == want and got_ends == want_ends


@needs_gcc
@pytest.mark.parametrize("q", [0.5, 1.2])
def test_compiled_loop_rejects_rho_where_the_python_loop_does(q):
    # rho <= 0 cannot come from a correct draw: scale up the rho
    # coefficient so that some draws give it, on both loops alike
    def corrupted(q, dim):
        df, scale, rho_coeff = transform_constants(q, dim)
        return df, scale, rho_coeff * (1.3 if q < 1.0 else -40.0)

    spec = {**_far_target_spec(), "network": preset("mg1-4d").network,
            "kernel": QKernel(q, 0.005, 4)}
    with mock.patch.object(optimizer, "_transform_constants", corrupted), \
            mock.patch.object(qgaussian, "_transform_constants", corrupted):
        got, got_ends, _ = _run(spec)
        want, want_ends, _ = _run(spec, on_python=True)
    assert got[0] is InvalidRhoError and got[2] is None
    assert got == want and got_ends == want_ends


@needs_gcc
@pytest.mark.parametrize("n_sims", [1, 2])
def test_compiled_loop_catches_nan_where_the_python_loop_does(n_sims):
    # a NaN rho coefficient makes rho, the weight and so Z NaN at the first
    # iteration, while the controls stay finite; NaN must fail the guard.
    # One iteration: a loop that let NaN through would step theta to NaN
    # in the next, and NaN service times never complete
    def corrupted(q, dim):
        df, scale, _ = transform_constants(q, dim)
        return df, scale, math.nan

    spec = _far_target_spec(network=preset("mg1-4d").network, M=1,
                            seeds=[(41, 0), (41, 1), (41, 2)][: n_sims + 1],
                            skips=[0] * (n_sims + 1))
    with mock.patch.object(optimizer, "_transform_constants", corrupted), \
            mock.patch.object(qgaussian, "_transform_constants", corrupted):
        with mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as compiled:
            got, got_ends, _ = _run(spec)
        want, want_ends, _ = _run(spec, on_python=True)
    assert compiled.call_count == 1
    assert got[0] is DivergenceError and got[2] == 0
    assert np.isnan(np.frombuffer(got[3])).all()
    assert got == want and got_ends == want_ends


@needs_gcc
def test_compiled_perturbations_match_at_every_buffer_offset():
    # Two short iterations leave each perturbation's last bits in z; 19-d
    # draws carry a cached normal from one to the next.  Started from every
    # third offset of a buffer, the runs read every table entry, at both
    # parities.
    network = QueueNetworkConfig(
        arrival_rates=(0.2, 0.1), p_leave=(0.3, 0.4), service_constants=(10.0, 20.0),
        dims=(10, 9), theta_target=np.full(19, 0.3),
    )
    box, kernel = BoxConstraint.cube(0.1, 0.6, 19), QKernel(0.8, 0.01, 19)
    hidden = mock.patch.object(_native, "load", return_value=None)
    for offset in range(0, 4096, 3):
        runs = []
        for on_python in (False, True):
            with hidden if on_python else contextlib.nullcontext():
                stream = RngStream(41, 0)
                stream.uniform01(offset)
                sims = [QueueSimulator(network, RngStream(41, i)) for i in (1, 2)]
                result = run_gqsf2(
                    *sims, kernel, box, StepSchedule(0.75), 2, 2, np.full(19, 0.35), stream,
                    record_every=1,
                )
            runs.append(
                (result.z.tobytes(), [point.theta.tobytes() for point in result.trajectory],
                 stream.spare_normal)
            )
        assert runs[0] == runs[1], offset


@needs_gcc
def test_compiled_loop_crosses_refills_and_ring_growth():
    # 20-d draws empty the perturbation stream's buffer every ~180
    # iterations, and a heavy load outgrows the rings
    network = QueueNetworkConfig(
        arrival_rates=(2.0, 0.0), p_leave=(0.3, 0.3), service_constants=(1.0, 1.0),
        dims=(10, 10), theta_target=np.full(20, 0.3),
    )
    spec = {**_far_target_spec(), "network": network, "kernel": QKernel(0.9, 0.01, 20),
            "box": BoxConstraint.cube(0.1, 0.6, 20), "theta0": np.full(20, 0.6),
            "M": 900, "L": 3, "record_every": 100, "stream_type": CountingStream}
    got, got_ends, sims = _run(spec)
    assert got[2][-1][0] == 900
    assert all(sim.state.cap > 16 for sim in sims)
    spec["stream_type"] = RngStream
    want, want_ends, _ = _run(spec, on_python=True)
    assert got == want and got_ends == want_ends


@needs_gcc
def test_a_counting_stream_gives_the_same_numbers():
    spec = _far_target_spec(network=preset("mg1-4d").network)
    plain = _run(spec)[:2]
    assert _run({**spec, "stream_type": CountingStream})[:2] == plain


@needs_gcc
def test_an_overridden_observe_is_called_from_the_compiled_loop():
    spec = _far_target_spec(network=preset("mg1-4d").network, M=30)
    with mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as compiled:
        got, got_ends, sims = _run(spec, recording=True)
    assert compiled.call_count == 1
    assert len(sims[0].costs) == 30 * 100
    assert (got, got_ends) == _run(spec, on_python=True)[:2]


class NegatedNormals(RngStream):
    """A stream whose normals are the plain stream's, negated."""

    __slots__ = ()

    def standard_normal(self, size=None):
        return -super().standard_normal(size)


class SubclassedPhilox(np.random.Philox):
    """Philox itself, under another class: the same draws."""


@needs_gcc
@pytest.mark.parametrize(
    "name", [*_native._COMPILED_DRAWS, *_native._COMPILED_REFILL, "_bitgen"]
)
def test_a_stream_that_overrides_a_compiled_draw_keeps_the_python_loop(name):
    # a stream whose class overrides a draw the loop computes, or a method
    # its refill stands in for, or whose generator is not exactly Philox
    def same(self, *args):
        return getattr(RngStream, name)(self, *args)

    def subclassed(self, seed, stream_id=0):
        RngStream.__init__(self, seed, stream_id)
        self._bitgen = SubclassedPhilox(key=self._bitgen.state["state"]["key"])

    members = {"__init__": subclassed} if name == "_bitgen" else {name: same}
    overriding = type("Overriding", (RngStream,), {"__slots__": (), **members})
    spec = _far_target_spec(network=preset("mg1-4d").network, M=30, stream_type=overriding)
    with mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as compiled:
        got = _run(spec)[:2]
    assert compiled.call_count == 0
    assert got == _run({**spec, "stream_type": RngStream})[:2]


@needs_gcc
def test_a_stream_that_changes_its_draws_gets_its_own_numbers():
    spec = _far_target_spec(network=preset("mg1-4d").network, M=30, stream_type=NegatedNormals)
    got = _run(spec)[:2]
    assert got == _run(spec, on_python=True)[:2]
    assert got != _run({**spec, "stream_type": RngStream})[:2]


@needs_gcc
@pytest.mark.parametrize("dim", [1, 2, 20])
@pytest.mark.parametrize("n_sims", [1, 2])
def test_a_network_of_another_dimension_fails_as_on_the_python_loop(dim, n_sims):
    # the simulators' service factors read a control of the network's
    # dimension: another one cannot be served, on either loop; a 1-d
    # control would broadcast, and is refused as well.  The compiled loop
    # hands such a simulator to its own observe, which refuses the control
    network = preset("mg1-4d").network
    sims = [QueueSimulator(network, RngStream(0, i)) for i in range(1, n_sims + 1)]
    run = run_gqsf1 if n_sims == 1 else run_gqsf2
    with mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as compiled, \
            pytest.raises(SimulationError) as caught:
        run(*sims, QKernel(0.8, 0.005, dim), BoxConstraint.cube(0.1, 0.6, dim),
            StepSchedule(0.75), 3, 5, np.full(dim, 0.3), RngStream(0, 0))
    assert compiled.call_count == 1
    assert (caught.value.outer_index, caught.value.inner_index) == (0, 0)
    assert isinstance(caught.value.__cause__, ValueError)


@needs_gcc
def test_compiled_run_is_freed_with_its_run():
    # no reference cycle keeps a compiled run, and the arrays it holds, alive
    runs = []
    original = _native.CompiledRun

    def remembered(*args, **kwargs):
        run = original(*args, **kwargs)
        runs.append(weakref.ref(run))
        return run

    with mock.patch.object(_native, "CompiledRun", remembered):
        _run(_far_target_spec(network=preset("mg1-4d").network, M=20))
    assert len(runs) == 1 and runs[0]() is None


@needs_gcc
@pytest.mark.parametrize("kernel", ["c", "python"])
def test_a_simulator_is_freed_by_reference_counting_alone(kernel):
    # with the cyclic collector off, a simulator's kernel goes with it, also
    # after a compiled run: a kernel that reached itself (through a reader
    # that kept it, or a stored ctypes.byref of it) would live on until the
    # collector ran
    loaded = preset("mg1-4d")
    runs = []
    original = _native.CompiledRun

    def remembered(*args, **kwargs):
        run = original(*args, **kwargs)
        runs.append(weakref.ref(run))
        return run

    gc.disable()
    try:
        sim = kernel_simulator(kernel, loaded.network, RngStream(7, 1))
        sim.observe(loaded.theta0, 50)
        state = weakref.ref(sim.state)
        del sim
        assert state() is None
        sims = [kernel_simulator(kernel, loaded.network, RngStream(7, i)) for i in (1, 2)]
        with mock.patch.object(_native, "CompiledRun", remembered):
            run_gqsf2(*sims, QKernel(0.8, 0.005, 4), BoxConstraint.cube(0.1, 0.6, 4),
                      StepSchedule(0.75), 20, 20, loaded.theta0, RngStream(7, 0))
        states = [weakref.ref(sim.state) for sim in sims]
        del sims
        assert len(runs) == 1 and runs[0]() is None
        assert [state() for state in states] == [None, None]
    finally:
        gc.enable()


def test_compiled_loop_serves_simulators_off_the_c_kernel():
    # queue and quadratic simulators, in either position, give the Python
    # loop's numbers: the compiled loop runs the queue simulator on its
    # kernel and computes the quadratic's costs itself
    network = preset("mg1-4d").network

    def runs():
        queue = make_simulator(network, RngStream(0, 0))
        quadratic = QuadraticCostSimulator(network.theta_target)
        args = (QKernel(0.8, 0.005, 4), BoxConstraint.cube(0.1, 0.6, 4), StepSchedule(0.75), 3,
                5, np.full(4, 0.3), RngStream(0, 1))
        results = [run_gqsf2(queue, quadratic, *args), run_gqsf2(quadratic, queue, *args),
                   run_gqsf1(quadratic, *args), run_gqsf1(queue, *args)]
        return [(result.theta_final.tobytes(), result.z.tobytes()) for result in results]

    with mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as compiled:
        got = runs()
    lib = _native.load()
    assert compiled.call_count == (4 if lib is not None and lib.ddot is not None else 0)
    with mock.patch.object(_native, "load", return_value=None):
        assert got == runs()


def _stops_of(spec):
    """``_run(spec)`` on the compiled loop, the stops its ``resume``
    returned, and the simulators each ``OBSERVE`` stop handed back."""
    stops, observed, resume = [], [], _native.CompiledRun.resume

    def counted(self):
        stops.append(resume(self))
        if stops[-1] == self.OBSERVE:
            observed.append(list(self.observing))
        return stops[-1]

    with mock.patch.object(_native.CompiledRun, "resume", counted):
        return _run(spec), stops, observed


def _quadratic_spec(kinds, **changes):
    """mg1-4d, whose target is 0.3, with the simulators ``kinds``."""
    seeds = [(41, 0), (41, 1), (41, 2)][: len(kinds) + 1]
    return _far_target_spec(network=preset("mg1-4d").network, M=30, kinds=kinds, seeds=seeds,
                            skips=[0] * len(seeds), **changes)


@needs_gcc
@pytest.mark.parametrize(
    "kinds", [["quadratic"], ["quadratic", "quadratic"], ["quadratic", "queue"],
              ["queue", "quadratic"]],
)
def test_a_plain_quadratic_never_stops_the_compiled_loop(kinds):
    (got, got_ends, _), stops, observed = _stops_of(_quadratic_spec(kinds))
    assert stops[-1] == _native.CompiledRun.DONE and observed == []
    assert (got, got_ends) == _run(_quadratic_spec(kinds), on_python=True)[:2]


class SteppedQuadratic(QuadraticCostSimulator):
    """A quadratic system whose subclass counts the steps."""

    def __init__(self, target):
        super().__init__(target)
        self.calls = 0

    def step(self, control):
        self.calls += 1
        return super().step(control)


def _with_instance_step(network):
    """A quadratic system whose instance counts the steps."""
    sim = QuadraticCostSimulator(network.theta_target)
    sim.calls, step = 0, sim.step

    def counted(control):
        sim.calls += 1
        return step(control)

    sim.step = counted
    return sim


def _with_target(target):
    """A quadratic system on mg1-4d whose target is then set to ``target``."""

    def make(network):
        sim = QuadraticCostSimulator(network.theta_target)
        sim.target = target
        return sim

    return make


# quadratic systems the compiled loop hands back to their own methods
HANDED_BACK = {
    "subclass step": lambda network: SteppedQuadratic(network.theta_target),
    "instance step": _with_instance_step,
    "float32 target": _with_target(np.full(4, 0.3, dtype=np.float32)),
    "wrong-length target": _with_target(np.full(5, 0.3)),
    "strided target": _with_target(np.full(8, 0.3)[::2]),
}


@needs_gcc
@pytest.mark.parametrize("name", HANDED_BACK)
@pytest.mark.parametrize("kinds", [["back"], ["back", "quadratic"], ["quadratic", "back"]])
def test_a_quadratic_the_loop_cannot_compute_is_handed_back(name, kinds):
    # and only that one: a plain quadratic beside it stays in the loop
    back = kinds.index("back")
    spec = _quadratic_spec([HANDED_BACK[name] if kind == "back" else kind for kind in kinds])
    (got, got_ends, sims), _, observed = _stops_of(spec)
    want, want_ends, want_sims = _run(spec, on_python=True)
    assert (got, got_ends) == (want, want_ends)
    if name == "wrong-length target":
        assert observed == [[back]]
        assert got[0] is SimulationError and (got[2], got[4]) == (0, 0)
        assert got[5].startswith("ValueError(")
    else:
        assert observed == [[back]] * 30 and len(got[2]) > 1
    if name.endswith("step"):
        assert sims[back].calls == want_sims[back].calls == 30


@needs_gcc
def test_a_patched_quadratic_step_is_called_from_the_compiled_loop():
    # the loop compares against the methods as defined, so a patch of the
    # class, such as a tracer's, keeps the handoff
    calls, step = [], QuadraticCostSimulator.step

    def counting(self, control):
        calls.append(self)
        return step(self, control)

    spec = _quadratic_spec(["quadratic", "quadratic"])
    with mock.patch.object(QuadraticCostSimulator, "step", counting):
        (got, got_ends, sims), _, observed = _stops_of(spec)
        assert observed == [[0, 1]] * 30
        assert calls == sims * 30
        calls.clear()
        want, want_ends, _ = _run(spec, on_python=True)
        assert len(calls) == 60
    assert (got, got_ends) == (want, want_ends)
    assert (got, got_ends) == _run(spec)[:2]  # and unpatched, on the compiled path


@needs_gcc
@pytest.mark.parametrize("target", [math.inf, -math.inf, math.nan, 1e200])
@pytest.mark.parametrize("n_sims", [1, 2])
def test_a_quadratic_whose_cost_is_not_finite_diverges_as_on_the_python_loop(target, n_sims):
    # the loop hands such a cost to the simulator's observe, which warns as
    # numpy does (1e200 overflows np.dot); the guard then fails at once
    bad = np.array([0.3, target, 0.3, 0.3])
    spec = _quadratic_spec([_with_target(bad)] + ["quadratic"] * (n_sims - 1))
    runs = []
    for on_python in (False, True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, got_ends, _ = _run(spec, on_python=on_python)
        runs.append((got, got_ends, [str(w.message) for w in caught]))
    assert runs[0] == runs[1]
    got = runs[0][0]
    assert got[0] is DivergenceError and got[2] == 0
    assert runs[0][2] == (["overflow encountered in dot"] if target == 1e200 else [])


@needs_gcc
@pytest.mark.parametrize("form", COST_FORMS)
@pytest.mark.parametrize("n_sims", [1, 2])
def test_both_loops_take_exactly_L_costs_as_float64(form, n_sims):
    # a wrong count fails the run at its first iteration; int and float32
    # costs fold as the float64 values they are
    spec = _far_target_spec(network=preset("mg1-4d").network, M=30, L=7,
                            seeds=[(41, 0), (41, 1), (41, 2)][: n_sims + 1],
                            skips=[0] * (n_sims + 1),
                            kinds=[("costs", form), "queue"][:n_sims])
    with mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as compiled:
        got, got_ends, _ = _run(spec)
    assert compiled.call_count == 1
    want, want_ends, _ = _run(spec, on_python=True)
    assert got == want and got_ends == want_ends
    if form in ("short", "long"):
        assert got[0] is SimulationError and (got[2], got[4]) == (0, 0)
        assert got[5].startswith("ValueError(")
    elif form == "float32":
        widened = {**spec, "kinds": [("costs", "float32 as float64"), "queue"][:n_sims]}
        assert _run(widened)[:2] == (got, got_ends)


def _far_control_run(targets):
    """Gq-SF1 or Gq-SF2, one simulator per target, on mg1-4d networks with
    those targets and every control at 1e200: there a target of 0.3 gives
    the service factor inf, and 1e200 a finite one.  The SimulationError's
    position and cause, with the end state of every stream and simulator;
    a RuntimeWarning fails the run instead."""
    network = preset("mg1-4d").network
    streams = [RngStream(5, i) for i in range(len(targets) + 1)]
    sims = [
        QueueSimulator(dataclasses.replace(network, theta_target=np.full(4, target)), stream)
        for target, stream in zip(targets, streams[1:])
    ]
    run = run_gqsf1 if len(sims) == 1 else run_gqsf2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SimulationError) as caught:
            run(*sims, QKernel(0.8, 0.005, 4), BoxConstraint.cube(-1e200, 1e200, 4),
                StepSchedule(0.75), 3, 5, np.full(4, 1e200), streams[0])
    err = caught.value
    return ((err.outer_index, err.inner_index, repr(err.__cause__)),
            [_end_state(stream) for stream in streams], [_queue_counters(sim) for sim in sims])


@needs_gcc
@pytest.mark.parametrize("targets", [(0.3,), (0.3, 0.3), (1e200, 0.3)])
def test_a_control_with_no_finite_service_factor_fails_both_loops_alike(targets):
    # the compiled loop hands the simulator to its own observe, which
    # raises; it runs in a process of its own, so that a loop that hangs
    # (with a bounded address space, as its rings grow) fails the test
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(qsmooth.__file__).resolve().parent.parent)
    code = (
        "from unittest import mock\n"
        "from qsmooth import _native\n"
        "import test_native\n"
        "with mock.patch.object(_native, 'CompiledRun', wraps=_native.CompiledRun) as spy:\n"
        f"    outcome = test_native._far_control_run({targets!r})\n"
        "print(repr((outcome, spy.call_count)))\n"
    )

    def bounded():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((src, tests))}, preexec_fn=bounded,
    )
    assert done.returncode == 0, done.stderr
    with mock.patch.object(_native, "load", return_value=None):
        want = _far_control_run(targets)
    assert want[0][:2] == (0, 0) and "service factor inf" in want[0][2]
    assert done.stdout == repr((want, 1)) + "\n"


@needs_gcc
@pytest.mark.parametrize("size", [*range(1, 12), 20])
def test_box_muller_tables_give_standard_normal_draws(size):
    # sf_run's draw of a q = 1 perturbation, whose Box-Muller tables (the
    # radius, cosine and sine of each pair) numpy's loops compute, at every
    # offset in the buffer, with and without a cached normal, and across the
    # refill that keeps a buffer's unread tail: the draws of
    # stream.standard_normal(size), and the stream left where it leaves one
    base = RngStream(8, 3)
    base.uniform01()
    buf, bitgen = base._buf, base._bitgen.state
    stream = RngStream(8, 3)
    run = optimizer._compiled_run(
        [QuadraticCostSimulator(np.full(size, 0.3))], QKernel(1.0, 0.01, size),
        BoxConstraint.cube(0.1, 0.6, size), StepSchedule(0.75), 2 * 4097, 1,
        np.full(size, 0.35), stream, 1, 2.0,
    )
    for offset in range(4097):
        refill = offset + size + 1 > 4096  # the draw may refill
        for spare in (None, 0.25):
            # a draw that refills moves the generator, so it needs a copy of it
            here = (copy.deepcopy if refill else copy.copy)(base)
            here._pos, here.spare_normal = offset, spare
            want = here.standard_normal(size)
            stream._buf, stream._pos, stream.spare_normal = buf, offset, spare
            stream._bitgen.state = bitgen
            assert run.resume() == run.RECORD
            assert run._arrays["eta"].tobytes() == want.tobytes()
            assert stream.spare_normal == here.spare_normal
            if refill:
                assert _stands(stream) == _stands(here)
            else:
                assert stream._buf is buf and stream._pos == here._pos


@needs_gcc
def test_a_draw_longer_than_a_refill_takes_all_it_needs():
    # a 9001-d draw reads more uniforms than one refill of 4096 brings: the
    # loop appends them all at once, as RngStream.reserve(n) does
    dim, runs = 9001, []
    for on_python in (False, True):
        hidden = mock.patch.object(_native, "load", return_value=None)
        with hidden if on_python else contextlib.nullcontext(), \
                mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as compiled:
            stream = RngStream(4, 0)
            stream.uniform01(100)
            result = run_gqsf1(
                QuadraticCostSimulator(np.full(dim, 0.3)), QKernel(0.8, 0.01, dim),
                BoxConstraint.cube(0.1, 0.6, dim), StepSchedule(0.75), 3, 2, np.full(dim, 0.35),
                stream, record_every=1,
            )
        assert compiled.call_count == (0 if on_python else 1)
        runs.append((result.z.tobytes(), [point.theta.tobytes() for point in result.trajectory],
                     _end_state(stream)))
    assert runs[0] == runs[1]


@needs_gcc
@pytest.mark.parametrize("name", ["log", "cos", "sin"])
def test_each_numpy_loop_gives_its_ufunc_bits(name):
    # at the strides sf_run calls it with (every other uniform for the
    # logarithms), at every length from 1 to 64 and at 4096, and at every
    # byte offset from an array's start that a double can take
    loop = _native.load().loops[name]
    ufunc, step = {"log": (np.log, 2), "cos": (np.cos, 1), "sin": (np.sin, 1)}[name]
    values = np.random.default_rng(9).uniform(size=2 * 4096 + 16)
    if name != "log":
        values = 2.0 * np.pi * values
    call = _native._LOOP(loop.loop)
    for n in (*range(1, 65), 4096):
        for shift in range(8):
            x = values[shift : shift + step * n : step]
            out = np.empty(n + 8)[shift : shift + n]
            data = (ctypes.c_void_p * 2)(x.ctypes.data, out.ctypes.data)
            strides = (ctypes.c_ssize_t * 2)(8 * step, 8)
            assert call(loop.context, data, (ctypes.c_ssize_t * 1)(n), strides, loop.auxdata) == 0
            assert out.tobytes() == ufunc(x).tobytes(), (n, shift)


@needs_gcc
def test_the_blas_ddot_gives_np_dot():
    address = _native._checked_ddot()
    assert address is not None and _native.load().ddot == address
    ddot = _native._DDOT(address)
    draws = np.random.default_rng(5)
    for n in range(1, 33):
        x, y = draws.standard_normal((2, n)) * draws.uniform(0.01, 100.0)
        got = np.float64(0.0 + ddot(n, x.ctypes.data, 1, y.ctypes.data, 1))
        assert got.tobytes() == np.dot(x, y).tobytes()


# a left-to-right sum: not the BLAS kernel np.dot runs
@_native._DDOT
def _naive_ddot(n, x, incx, y, incy):
    xs = ctypes.cast(x, ctypes.POINTER(ctypes.c_double))
    ys = ctypes.cast(y, ctypes.POINTER(ctypes.c_double))
    total = 0.0
    for i in range(n):
        total += xs[i * incx] * ys[i * incy]
    return total


@needs_gcc
def test_a_wrong_ddot_fails_the_check_and_runs_take_the_python_loop(use_cache, monkeypatch):
    spec = _far_target_spec(network=preset("mg1-4d").network, M=60)
    want = _run(spec)[:2]
    address = ctypes.cast(_naive_ddot, ctypes.c_void_p).value
    monkeypatch.setattr(_native, "_numpy_ddot", lambda: address)
    assert _native._checked_ddot() is None
    use_cache()
    assert _native.load() is not None and _native.load().ddot is None
    with mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as compiled:
        assert _run(spec)[:2] == want
    assert compiled.call_count == 0


_numpy_loop = _native._numpy_loop


def _wrong_loop(ufunc, step):
    """np.exp's loop in place of np.log's."""
    return _numpy_loop(np.exp if ufunc is np.log else ufunc, step)


def _loop_asking_for_python(ufunc, step):
    """The right loop, with numpy's flag that it needs the Python API."""
    loop, flags = _numpy_loop(ufunc, step)
    return loop, flags | _native._REQUIRES_PYAPI


@needs_gcc
@pytest.mark.parametrize(
    "lookup", [_wrong_loop, _loop_asking_for_python, lambda ufunc, step: None],
    ids=["wrong", "python-api", "missing"],
)
def test_a_wrong_loop_fails_the_check_and_runs_take_the_python_loop(lookup, use_cache,
                                                                    monkeypatch):
    spec = _far_target_spec(network=preset("mg1-4d").network, M=60)
    want = _run(spec)[:2]
    assert _native._checked_loops() is not None
    monkeypatch.setattr(_native, "_numpy_loop", lookup)
    assert _native._checked_loops() is None
    use_cache()
    assert _native.load() is not None and _native.load().loops is None
    with mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as compiled:
        assert _run(spec)[:2] == want
    assert compiled.call_count == 0


@needs_gcc
def test_c_kernel_builds_where_gcc_is_installed():
    assert _native.load() is not None
    sim = make_simulator(preset("mg1-4d").network, RngStream(0, 0))
    assert sim.kernel == "c"


@needs_gcc
def test_the_records_are_laid_out_as_the_c_compiler_lays_them_out(tmp_path):
    # a program built from _mg1.c prints each record's size and each
    # member's offset and size, and each stop code
    records = {"stream_t": _native._RECORDS["stream_t"], "ufunc_loop_t": _native.UfuncLoop,
               "mg1_state": _native.NativeKernel, "sf_run_t": _native.RunRecord}
    prints = [f'printf("{name} %zu\\n", sizeof({name}));' for name in records]
    want = {name: ctypes.sizeof(record) for name, record in records.items()}
    for name, record in records.items():
        for field, _ in record._fields_:
            prints.append(f'printf("{name}.{field} %zu %zu\\n", offsetof({name}, {field}), '
                          f'sizeof((({name} *)0)->{field}));')
            want[f"{name}.{field}"] = (getattr(record, field).offset, getattr(record, field).size)
    stops = ("DONE", "RECORD", "DIVERGED", "BAD_RHO", "OBSERVE", "_SIMULATOR")
    prints += [f'printf("{stop} %d\\n", SF{stop if stop[0] == "_" else "_" + stop});'
               for stop in stops]
    want.update({stop: getattr(_native.CompiledRun, stop) for stop in stops})
    program = (f'#include <stddef.h>\n#include <stdio.h>\n#include "{_native._SOURCE}"\n'
               "int main(void)\n{\n" + "\n".join(prints) + "\nreturn 0;\n}\n")
    exe = tmp_path / "layout"
    subprocess.run(["gcc", "-x", "c", "-o", str(exe), "-", "-lm"], input=program, text=True,
                   check=True, capture_output=True, timeout=120)
    printed = subprocess.run([str(exe)], capture_output=True, text=True, check=True).stdout
    got = {}
    for line in printed.splitlines():
        name, *numbers = line.split()
        got[name] = tuple(map(int, numbers)) if len(numbers) > 1 else int(numbers[0])
    assert got == want
    assert [len(record._fields_) for record in records.values()] == [10, 3, 25, 42]
    # a record held by value lays out its members as the outer record's own
    for name in ("mg1_state", "sf_run_t"):
        record = records[name]
        assert (record.u_pos.offset - record.stream.offset
                == records["stream_t"].u_pos.offset)


# what a sanitized build adds to _native._CC: both sanitizers, frames a
# report can name, and a stop at the first undefined behaviour
_SANITIZE = ("-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
             "-fno-sanitize-recover=undefined")


def _sanitizer_runtimes():
    """gcc's ASan and UBSan runtimes, or None where either is missing."""
    paths = []
    for name in ("libasan.so", "libubsan.so"):
        path = subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                              text=True, timeout=60).stdout.strip()
        if not os.path.isabs(path) or not os.path.exists(path):
            return None
        paths.append(path)
    return paths


@needs_gcc
def test_the_c_loops_are_clean_under_asan_and_ubsan(tmp_path):
    # sanitizer_scenarios.py runs the stream refills, a cached normal
    # carried across calls, ring growth, the handoffs and every stop on a
    # sanitized build, in a child process that loads both runtimes first:
    # no report, and the numbers of an unsanitized build.  With every
    # record's own one slot short, the kernel's refills must overflow it,
    # or the sanitizer sees nothing
    runtimes = _sanitizer_runtimes()
    if runtimes is None:
        pytest.skip("gcc finds no ASan or UBSan runtime")
    script = Path(__file__).with_name("sanitizer_scenarios.py")
    src = str(Path(qsmooth.__file__).resolve().parent.parent)

    def child(*args, sanitized=True):
        env = {**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": str(tmp_path)}
        if sanitized:
            env.update(LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0")
        return subprocess.run([sys.executable, str(script), *args], env=env,
                              capture_output=True, text=True, timeout=300)

    plain, checked = child(sanitized=False), child(*_SANITIZE)
    assert plain.returncode == 0, plain.stderr
    assert checked.returncode == 0, checked.stderr
    assert "Sanitizer" not in checked.stderr and "runtime error" not in checked.stderr
    assert checked.stdout == plain.stdout and len(plain.stdout) == 65
    short = child("--short-own", *_SANITIZE)
    assert short.returncode != 0
    assert "ERROR: AddressSanitizer: heap-buffer-overflow" in short.stderr
    assert " in reserve" in short.stderr  # the refill, in _mg1.c


def test_the_record_reader_takes_each_allowed_form():
    source = textwrap.dedent("""\
        typedef struct {
            int64_t a;
            double b;
        } inner;
        typedef struct {
            double x;         /* a comment,
                                 over two lines */
            const int64_t *p; // and another
            mg1_state *sims[2];
            ddot_fn f;
            next_fn g;
            loop_fn h;
            inner held;
            inner *pointed;
        } rec;
        enum { A, /* between */ B };
    """)
    records, values = _native._read_declarations(source)
    rec = records["rec"]
    assert [(name, ctypes.sizeof(kind)) for name, kind in rec._fields_] == [
        ("x", 8), ("p", 8), ("sims", 16), ("f", 8), ("g", 8), ("h", 8), ("held", 16),
        ("pointed", 8),
    ]
    assert rec._fields_[2][1]._type_ is ctypes.c_void_p
    assert rec._fields_[6][1] is records["inner"] and rec._anonymous_ == ["held"]
    assert (rec.a.offset, rec.b.offset) == (56, 64)
    assert (values["A"], values["B"]) == (0, 1)


@pytest.mark.parametrize(
    "line", ["double a, b;", "float x;", "double x[2];", "unsigned int x;", "double *a, *b;",
             "int64_tx;", "struct { double y; } inner;"],
)
def test_the_record_reader_refuses_any_other_line(line):
    # the reader never guesses a type: it quotes the line it cannot lay out
    source = f"typedef struct {{\n    int64_t k;  /* a\n    comment */\n    {line}\n}} rec;\n"
    with pytest.raises(ValueError, match=f"cannot lay out {re.escape(repr(line))} in rec$"):
        _native._read_declarations(source)


def test_without_its_c_source_qsmooth_imports_and_runs_the_python_kernel(tmp_path):
    package = Path(qsmooth.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "qsmooth",
                    ignore=shutil.ignore_patterns("_mg1.c", "__pycache__"))
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"), "PYTHONPATH": str(tmp_path)}
    code = (
        "import qsmooth._native\n"
        "assert qsmooth._native.load() is None\n"
        "from qsmooth.queueing import make_simulator, preset\n"
        "from qsmooth.rng import RngStream\n"
        "p = preset('mg1-4d')\n"
        "sim = make_simulator(p.network, RngStream(66, 2))\n"
        "assert qsmooth._native.__file__.startswith(" + repr(str(tmp_path)) + ")\n"
        "print(sim.kernel, repr(sim.observe(p.theta0, 1000)[-1]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = preset("mg1-4d")
    want = make_simulator(loaded.network, RngStream(66, 2)).observe(loaded.theta0, 1000)[-1]
    assert done.stdout == f"python {want!r}\n"


@pytest.fixture
def use_cache(monkeypatch, tmp_path):
    """Point the build cache at an empty directory; libraries load afresh
    from the first call of the returned function on."""

    def switch():
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _native.load.cache_clear()
        return tmp_path / "qsmooth"

    yield switch
    _native.load.cache_clear()


def _costs(network):
    """A simulator, its first 2000 costs, and where its stream then stands."""
    sim = make_simulator(network, RngStream(66, 2))
    costs = sim.observe(np.full(network.total_dim, 0.45), 2000)
    return sim, (costs, _end_state(sim.stream))


def _runs():
    """Gq-SF1 and Gq-SF2 on mg1-4d, each run's theta_final, z and
    trajectory as bytes and the end state of each simulator's stream, and
    whether the compiled loop served them."""
    loaded = preset("mg1-4d")
    box = BoxConstraint.cube(loaded.box_lower, loaded.box_upper, 4)
    kernel = QKernel(0.8, 0.005, 4)
    out, compiled = [], []
    for run, n_sims in ((run_gqsf1, 1), (run_gqsf2, 2)):
        sims = [make_simulator(loaded.network, RngStream(66, 3 + i)) for i in range(n_sims)]
        with mock.patch.object(_native, "CompiledRun", wraps=_native.CompiledRun) as spy:
            result = run(
                *sims, kernel, box, StepSchedule(0.75), 300, 100, loaded.theta0,
                RngStream(66, 9), record_every=40,
            )
        compiled.append(spy.call_count == 1)
        out.append(
            (result.theta_final.tobytes(), result.z.tobytes(),
             [(point.n, point.theta.tobytes()) for point in result.trajectory],
             [_end_state(sim.stream) for sim in sims])
        )
    return out, compiled


# argv ends "-o <path> -": write the start of a library there, then fail
_PARTIAL_WRITE = (
    "import sys; open(sys.argv[sys.argv.index('-o') + 1], 'wb').write(b'\\x7fELF'); sys.exit(1)"
)


@pytest.mark.parametrize(
    "compiler",
    [("no-such-compiler-for-qsmooth",), (sys.executable, "-c", _PARTIAL_WRITE)],
    ids=["missing", "failing"],
)
def test_falls_back_to_python_when_the_build_fails(compiler, use_cache, monkeypatch):
    network = preset("mg1-4d").network
    _, want = _costs(network)
    want_runs, compiled = _runs()
    assert compiled == [shutil.which("gcc") is not None] * 2
    monkeypatch.setattr(_native, "_CC", compiler)
    cache = use_cache()
    sim, got = _costs(network)
    assert sim.kernel == "python"
    assert got == want  # the same numbers as the kernel built before
    # and the same runs, from the Python kernel and the Python loop
    assert _runs() == (want_runs, [False, False])
    assert list(cache.iterdir()) == []  # no partial library left behind


def test_cache_directory_is_private(use_cache):
    cache = use_cache()
    make_simulator(preset("mg1-4d").network, RngStream(0, 0))
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    # a directory others can write to is not loaded from
    cache.chmod(0o777)
    _native.load.cache_clear()
    assert _native.load() is None


@needs_gcc
def test_processes_compiling_at_once_each_load_the_library(tmp_path):
    # as the forked workers of `qsmooth run` do on a cold cache
    src = str(Path(qsmooth.__file__).resolve().parent.parent)
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": src}
    code = (
        "from qsmooth.queueing import make_simulator, preset\n"
        "from qsmooth.rng import RngStream\n"
        "p = preset('mg1-4d')\n"
        "sim = make_simulator(p.network, RngStream(66, 2))\n"
        "print(sim.kernel, repr(sim.observe(p.theta0, 1000)[-1]))\n"
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs[0] == outs[1] and outs[0].startswith("c ")
    built = list((tmp_path / "qsmooth").iterdir())
    assert len(built) == 1 and built[0].name.startswith("mg1-")

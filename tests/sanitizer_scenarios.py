"""The C loops' scenarios that ``test_the_c_loops_are_clean_under_asan_and_ubsan``
runs in a child process: the refills of a kernel's stream and of the
perturbation stream (9001-d and 4097-d draws included), fresh streams'
first fills, a cached normal carried across calls, ring growth, rings and
costs that outgrow the blocks they were laid out in, a compiled quadratic,
the handoff of each kind of simulator that the loop does not run itself,
and every stop of ``sf_run``.
Prints one digest of every number they give, of every error they raise and
of where every stream ends.

    python sanitizer_scenarios.py [--overrun] [FLAG ...]

Each FLAG extends the compiler command the library is built with.  With
``--overrun``, every record's ``u_len`` is bound one slot past its stream's
buffer, and only the kernel scenario runs: the loop reads one slot past
the buffer, and a sanitized build must report the overflow."""

import hashlib
import sys

import numpy as np

from qsmooth import _native, optimizer
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
from qsmooth.queueing import QueueNetworkConfig, QueueSimulator, preset
from qsmooth.rng import RngStream
from qsmooth.smoothing import InvalidRhoError


class HandedBackQuadratic(QuadraticCostSimulator):
    """A quadratic whose ``observe`` is its own, so the loop hands it back."""

    def observe(self, control, L):
        return super().observe(control, L)


class StepOnly:
    """A queue simulator seen through ``step`` alone."""

    def __init__(self, network, stream):
        self.step = QueueSimulator(network, stream).step


class FreshOverriding(RngStream):
    """A stream that compiled code may not read: its simulator runs the
    Python kernel, which the loop hands back."""

    __slots__ = ()

    def _fresh(self, count):
        return super()._fresh(count)


def _overrun():
    attach = _native._attach

    def overrunning(record, stream):
        attach(record, stream)
        record.u_len += 1

    _native._attach = overrunning


def _stream_end(stream):
    spare = stream.spare_normal
    return (stream._buf[stream._pos :].tobytes(), stream._bitgen.random_raw(),
            None if spare is None else np.float64(spare).tobytes())


def _kernel_refills(digest):
    # the buffer's end falls inside and between events, and the loop
    # refills it there; the cached normal is left be
    loaded = preset("mg1-20d")
    stream = RngStream(3, 1)
    stream.spare_normal = -0.0
    sim = QueueSimulator(loaded.network, stream)
    assert sim.kernel == "c"
    for _ in range(600):
        digest.update(np.array(sim.observe(loaded.theta0, 50)).tobytes())
    assert sim.state.refills >= 10
    digest.update(repr(_stream_end(stream)).encode())


def _run_result(digest, result, streams):
    if result is not None:
        digest.update(result.theta_final.tobytes() + result.z.tobytes())
        for point in result.trajectory or ():
            digest.update(point.theta.tobytes())
    for stream in streams:
        digest.update(repr(_stream_end(stream)).encode())


def _perturbation_refills(digest):
    # a 9001-d draw, from a fresh stream, and a 4097-d one, from a stream
    # 4000 uniforms into its buffer, need more uniforms than a refill
    # brings, and read them a refill at a time; the 20-d and 3-d runs cross
    # many refills, the 3-d one, resumed at every iteration, with a cached
    # normal carried from one call to the next
    for dim, q, M, record_every, skip in (
        (9001, 1.0, 3, 0, 0), (4097, 1.0002, 3, 1, 4000),
        (20, 0.8, 600, 0, 0), (3, 0.5, 3000, 1, 0),
    ):
        stream = RngStream(8, dim)
        stream.uniform01(skip)
        result = run_gqsf1(
            QuadraticCostSimulator(np.full(dim, 0.3)), QKernel(q, 0.01, dim),
            BoxConstraint.cube(0.1, 0.6, dim), StepSchedule(0.75), M, 1, np.full(dim, 0.35),
            stream, record_every=record_every,
        )
        _run_result(digest, result, [stream])


def _fresh_stream_refills(digest):
    # a fresh perturbation stream's first fill is made in C; a fresh kernel
    # stream's first fill is made in Python, for its first arrivals, and
    # the loop reads on from there and refills at its end
    for dim, q in ((3, 0.5), (20, 1.0), (4, 1.2)):
        stream = RngStream(12, dim)
        result = run_gqsf1(
            QuadraticCostSimulator(np.full(dim, 0.3)), QKernel(q, 0.01, dim),
            BoxConstraint.cube(0.1, 0.6, dim), StepSchedule(0.75), 700, 1, np.full(dim, 0.35),
            stream,
        )
        _run_result(digest, result, [stream])
    loaded = preset("mg1-20d")
    stream = RngStream(12, 0)
    sim = QueueSimulator(loaded.network, stream)
    assert stream._pos == 4 and sim.kernel == "c"
    for _ in range(200):
        digest.update(np.array(sim.observe(loaded.theta0, 50)).tobytes())
    assert sim.state.refills >= 3
    digest.update(repr(_stream_end(stream)).encode())


def _arrays_outgrowing_their_blocks(digest):
    # a kernel's first ring and first costs are views of its record's
    # blocks; a heavy load and L > 128 rebind both to arrays of their own,
    # which the loop then fills, across refills
    network = QueueNetworkConfig(
        arrival_rates=(3.0, 1.0, 0.0), p_leave=(0.2, 0.5, 0.3), service_constants=(1.0,) * 3,
        dims=(1, 2, 1), theta_target=np.full(4, 0.3),
    )
    stream = RngStream(13, 0)
    sim = QueueSimulator(network, stream)
    for L in (100, 500, 1000):
        digest.update(np.array(sim.observe(np.full(4, 0.4), L)).tobytes())
    state = sim.state
    assert state.cap > 16 and state.arrays["costs"].size >= 1000 and state.refills >= 1
    digest.update(repr(_stream_end(stream)).encode())


def _ring_growth_and_handoffs(digest):
    # a heavy load outgrows the rings; a simulator with its own observe is
    # handed back to Python at every iteration
    network = QueueNetworkConfig(
        arrival_rates=(2.0, 0.0), p_leave=(0.3, 0.3), service_constants=(1.0, 1.0),
        dims=(10, 10), theta_target=np.full(20, 0.3),
    )
    args = (QKernel(0.9, 0.01, 20), BoxConstraint.cube(0.1, 0.6, 20), StepSchedule(0.75))
    streams = [RngStream(9, i) for i in range(3)]
    sims = [QueueSimulator(network, stream) for stream in streams[1:]]
    result = run_gqsf2(*sims, *args, 300, 3, np.full(20, 0.6), streams[0], record_every=100)
    assert all(sim.state.cap > 16 for sim in sims)
    _run_result(digest, result, streams)
    streams = [RngStream(10, i) for i in range(2)]
    sims = [QueueSimulator(network, streams[1]), HandedBackQuadratic(np.full(20, 0.3))]
    result = run_gqsf2(*sims, *args, 50, 3, np.full(20, 0.4), streams[0])
    _run_result(digest, result, streams)


def _far_network(dims=(2, 2)):
    """mg1-4d's queues with a target far outside the box: they overload,
    and their costs carry the fast iterate past the guard."""
    loaded = preset("mg1-4d")
    return QueueNetworkConfig(
        arrival_rates=loaded.network.arrival_rates, p_leave=loaded.network.p_leave,
        service_constants=loaded.network.service_constants, dims=dims,
        theta_target=np.full(sum(dims), 30.0),
    )


def _each_stop_and_handoff(digest):
    # beside a queue simulator the loop runs, a step-only one, one on a
    # stream that compiled code may not read and one of another dimension
    # are handed back; the far target diverges; a rho coefficient scaled up
    # gives rho <= 0
    loaded = preset("mg1-4d")
    box = BoxConstraint.cube(loaded.box_lower, loaded.box_upper, 4)
    far = _far_network()
    transform = optimizer._transform_constants

    def corrupted(q, dim):
        df, scale, rho_coeff = transform(q, dim)
        return df, scale, 1.3 * rho_coeff

    def queue(network, stream_type=RngStream):
        return lambda i: QueueSimulator(network, stream_type(41, i))

    others = [queue(far), lambda i: StepOnly(far, RngStream(41, i)),
              queue(far, FreshOverriding), queue(_far_network((3, 3)))]
    cases = [(queue(far), other, 0.8, transform) for other in others]
    cases.append((queue(loaded.network), queue(loaded.network), 0.5, corrupted))
    for first, other, q, constants in cases:
        stream = RngStream(41, 0)
        sims = [first(1), other(2)]
        optimizer._transform_constants = constants
        try:
            run_gqsf2(*sims, QKernel(q, 0.005, 4), box, StepSchedule(0.75), 200, 100,
                      loaded.theta0, stream, record_every=7)
        except (DivergenceError, InvalidRhoError, SimulationError) as err:
            digest.update(f"{type(err).__name__}: {err}".encode())
        finally:
            optimizer._transform_constants = transform
        _run_result(digest, None, [stream])


def main(argv):
    overrun = "--overrun" in argv
    _native._CC += tuple(flag for flag in argv if flag != "--overrun")
    lib = _native.load()
    assert lib is not None and lib.ddot is not None and lib.loops is not None
    if overrun:
        _overrun()
    stops, resume = [], _native.CompiledRun.resume

    def resumed(run):
        stops.append(resume(run))
        return stops[-1]

    _native.CompiledRun.resume = resumed
    digest = hashlib.sha256()
    _kernel_refills(digest)
    if not overrun:
        _perturbation_refills(digest)
        _fresh_stream_refills(digest)
        _arrays_outgrowing_their_blocks(digest)
        _ring_growth_and_handoffs(digest)
        _each_stop_and_handoff(digest)
        run = _native.CompiledRun
        assert set(stops) == {run.DONE, run.RECORD, run.DIVERGED, run.BAD_RHO, run.OBSERVE}
    print(digest.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1:])

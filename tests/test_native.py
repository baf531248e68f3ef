"""The compiled event loop: bit-identical to the Python kernel, and a safe
fallback to it when the library cannot be built."""

import copy
import os
import shutil
import stat
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsmooth
from qsmooth import _native
from qsmooth.optimizer import (
    BoxConstraint,
    QuadraticCostSimulator,
    StepSchedule,
    _fold,
    run_gqsf1,
    run_gqsf2,
)
from qsmooth.qgaussian import QKernel
from qsmooth.queueing import QueueNetworkConfig, make_simulator, preset
from qsmooth.rng import RngStream

from test_queueing import kernel_simulator

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")

# a fixed example sequence, so the suite runs the same cases every time
DETERMINISTIC = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _next_uniforms(stream):
    """The stream's next draws, without drawing from it."""
    return copy.deepcopy(stream).uniform01(4).tolist()


@st.composite
def networks(draw):
    k = draw(st.integers(1, 4))

    def per_node(values, n=k):
        return draw(st.lists(values, min_size=n, max_size=n))

    rate = st.floats(0.05, 3.0)
    dims = per_node(st.integers(1, 3))
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
        c_state, py_state = (sim.state for sim in sims)
        for name in ("clock", "entry_sum", "n_present", "arrivals_seen", "departures_seen",
                     "completion_time"):
            assert getattr(c_state, name) == getattr(py_state, name), name
        assert c_state.arrivals_seen - c_state.departures_seen == c_state.n_present
        assert _next_uniforms(streams[0]) == _next_uniforms(streams[1])


# costs of every magnitude and sign, and the zeros and subnormals between
costs_of = st.floats(allow_nan=False, allow_infinity=False)


@needs_gcc
@DETERMINISTIC
@given(data=st.data())
def test_compiled_fold_matches_the_python_fold(data):
    n_sims = data.draw(st.sampled_from([1, 2]), label="simulations")
    L = data.draw(st.integers(1, 300), label="L")
    costs = [
        np.array(data.draw(st.lists(costs_of, min_size=L, max_size=L), label="costs"))
        for _ in range(n_sims)
    ]
    # buffers longer than L, as a kernel's are: the fold reads only L costs
    buffers = [np.concatenate((c, np.full(7, np.nan))) for c in costs]
    fold = _native.Fold(_native.load(), buffers, L)
    for b in data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4), label="b"):
        want = _fold([c.tolist() for c in costs], 1.0 - b, b)
        assert np.float64(fold(1.0 - b, b)).tobytes() == np.float64(want).tobytes()


@needs_gcc
def test_compiled_fold_is_freed_with_its_run():
    # no reference cycle keeps a fold, and the cost buffers it holds, alive
    network = preset("mg1-4d").network
    sims = [make_simulator(network, RngStream(0, i)) for i in range(2)]
    fold = weakref.ref(_native.compiled_fold(sims, 100))
    assert fold() is None


def test_compiled_fold_needs_every_simulator_on_the_c_kernel():
    network = preset("mg1-4d").network
    queue = make_simulator(network, RngStream(0, 0))
    quadratic = QuadraticCostSimulator(network.theta_target)
    assert _native.compiled_fold((queue, quadratic), 10) is None
    assert (_native.compiled_fold((queue,), 10) is None) == (queue.kernel == "python")


@needs_gcc
def test_c_kernel_builds_where_gcc_is_installed():
    assert _native.load() is not None
    sim = make_simulator(preset("mg1-4d").network, RngStream(0, 0))
    assert sim.kernel == "c"


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
    sim = make_simulator(network, RngStream(66, 2))
    return sim, sim.observe(np.full(network.total_dim, 0.45), 2000)


def _runs():
    """Gq-SF1 and Gq-SF2 on mg1-4d, each run's theta_final, z and
    trajectory as bytes, and whether the compiled fold served them."""
    loaded = preset("mg1-4d")
    box = BoxConstraint.cube(loaded.box_lower, loaded.box_upper, 4)
    kernel = QKernel(0.8, 0.005, 4)
    out, folds = [], []
    for run, n_sims in ((run_gqsf1, 1), (run_gqsf2, 2)):
        sims = [make_simulator(loaded.network, RngStream(66, 3 + i)) for i in range(n_sims)]
        folds.append(_native.compiled_fold(sims, 100) is not None)
        result = run(
            *sims, kernel, box, StepSchedule(0.75), 300, 100, loaded.theta0,
            RngStream(66, 9), record_every=40,
        )
        out.append(
            (result.theta_final.tobytes(), result.z.tobytes(),
             [(point.n, point.theta.tobytes()) for point in result.trajectory])
        )
    return out, folds


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
    want_runs, folds = _runs()
    assert folds == [shutil.which("gcc") is not None] * 2
    monkeypatch.setattr(_native, "_CC", compiler)
    cache = use_cache()
    sim, got = _costs(network)
    assert sim.kernel == "python"
    assert got == want  # the same numbers as the kernel built before
    # and the same runs, from the Python kernel and the Python fold
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

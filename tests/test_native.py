"""The compiled event loop: bit-identical to the Python kernel, and a safe
fallback to it when the library cannot be built."""

import copy
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsmooth
from qsmooth import _native
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
    monkeypatch.setattr(_native, "_CC", compiler)
    cache = use_cache()
    sim, got = _costs(network)
    assert sim.kernel == "python"
    assert got == want  # the same numbers as the kernel built before
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

"""The array draws and the Monte-Carlo estimators work through their
arrays a block at a time and in place, reading the stream through readers
positioned ahead of it.  These tests pin them, bit for bit and with the
stream left at the same place, against the whole-array formulas they
replace, copied here; and they bound the memory the blocks save."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsmooth import qgaussian, smoothing
from qsmooth.qgaussian import QKernel, sample_standard_many
from qsmooth.rng import RngStream
from qsmooth.smoothing import sf_term_one_batch, smoothed_gradient_mc, smoothed_value

from conftest import stream_state

# -- the whole-array formulas ------------------------------------------------


def whole_uniforms(stream, size):
    out = np.empty(size)
    filled = 0
    while filled < size:
        buf, pos = stream.reserve(min(size - filled, 4096))
        take = min(size - filled, buf.size - pos)
        out[filled : filled + take] = buf[pos : pos + take]
        stream._pos = pos + take
        filled += take
    return out


def whole_normals(stream, size):
    spare = stream.spare_normal if size > 0 else None
    need = size if spare is None else size - 1
    u = whole_uniforms(stream, 2 * ((need + 1) // 2))
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    ang = 2.0 * np.pi * u[1::2]
    z = np.empty(u.size)
    np.multiply(r, np.cos(ang), out=z[0::2])
    np.multiply(r, np.sin(ang), out=z[1::2])
    if spare is None and need % 2 == 0:
        return z
    out = np.empty(size)
    if spare is not None:
        out[0] = spare
        stream.spare_normal = None
    out[size - need :] = z[:need]
    if need % 2 == 1:
        stream.spare_normal = float(z[need])
    return out


def whole_chi_squared(stream, df, size):
    shape = 0.5 * df
    boost = None
    if shape < 1.0:
        boost = whole_uniforms(stream, size) ** (1.0 / shape)
        shape = shape + 1.0
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(size)
    filled = 0
    while filled < size:
        n = size - filled
        x = whole_normals(stream, n)
        t = 1.0 + c * x
        v = t * t * t
        u = whole_uniforms(stream, n)
        with np.errstate(invalid="ignore"):
            ok = (t > 0.0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(v))
        acc = d * v[ok]
        out[filled : filled + acc.size] = acc
        filled += acc.size
    if boost is not None:
        out *= boost
    return 2.0 * out


def whole_sample_standard_many(q, dim, count, stream):
    constants = qgaussian._transform_constants(q, dim)
    z = whole_normals(stream, count * dim).reshape(count, dim)
    if constants is None:
        return z, np.ones(count)
    df, scale, rho_coeff = constants
    a = whole_chi_squared(stream, df, count)
    if q < 1.0:
        a += np.einsum("ij,ij->i", z, z)
    y = scale * z / np.sqrt(a)[:, None]
    return y, 1.0 - rho_coeff * np.einsum("ij,ij->i", y, y)


def whole_gradient(f, theta, kernel, n_samples, stream):
    acc = np.zeros(kernel.dim)
    done = 0
    while done < n_samples:
        m = min(smoothing._MC_CHUNK, n_samples - done)
        etas, rhos = whole_sample_standard_many(kernel.q, kernel.dim, m, stream)
        pts = theta[None, :] + kernel.beta * etas
        costs = np.fromiter((f(p) for p in pts), dtype=float, count=m)
        acc += sf_term_one_batch(etas, rhos, costs, kernel).sum(axis=0)
        done += m
    return acc / n_samples


def whole_value(f, theta, kernel, n_samples, stream):
    total = 0.0
    done = 0
    while done < n_samples:
        m = min(smoothing._MC_CHUNK, n_samples - done)
        etas, _ = whole_sample_standard_many(kernel.q, kernel.dim, m, stream)
        pts = theta[None, :] - kernel.beta * etas
        total += float(sum(f(p) for p in pts))
        done += m
    return total / n_samples


# -- the pins ----------------------------------------------------------------

# what a stream has drawn before the pinned draw: nothing, a scalar normal
# (which caches its pair's other half), a uniform (which leaves the read
# position odd, so pairs straddle the buffer reads) or both
LEADS = {
    "fresh": lambda s: None,
    "spare": lambda s: s.standard_normal(),
    "odd": lambda s: s.uniform01(),
    "odd+spare": lambda s: (s.uniform01(), s.standard_normal()),
}


def twins(lead, stream_id=1):
    """Two streams at the same place, after ``lead``."""
    streams = RngStream(8, stream_id), RngStream(8, stream_id)
    for stream in streams:
        LEADS[lead](stream)
    assert stream_state(streams[0]) == stream_state(streams[1])
    return streams


def assert_same(got, want, streams):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert stream_state(streams[0]) == stream_state(streams[1])


@pytest.mark.parametrize("lead", sorted(LEADS))
@pytest.mark.parametrize("size", [0, 1, 2, 4095, 4096, 4097, 8192, 8193, 3 * 4096 + 1])
def test_array_normals_match_the_whole_array_formula(size, lead):
    streams = twins(lead, size)
    assert_same(streams[0].standard_normal(size), whole_normals(streams[1], size), streams)


class WaveCountingStream(RngStream):
    """Records the size of every array normal draw: each is a rejection
    wave of an array chi-squared draw."""

    __slots__ = ("waves",)

    def __init__(self, *args):
        super().__init__(*args)
        self.waves = []

    def standard_normal(self, size=None):
        if size is not None:
            self.waves.append(size)
        return super().standard_normal(size)


@pytest.mark.parametrize("df,size", [
    (0.6, 3 * 4096 + 1),  # df < 2: each draw boosted from df + 2
    (1.0, 4097),  # the boost is squared
    (1.9, 5),
    (2.5, 5 * 4096 + 3),
    (6.0, 4096),
    (40.0, 0),
])
@pytest.mark.parametrize("lead", ["fresh", "odd+spare"])
def test_array_chi_squared_matches_the_whole_array_formula(df, size, lead):
    streams = WaveCountingStream(8, 2), RngStream(8, 2)
    for stream in streams:
        LEADS[lead](stream)
    assert_same(streams[0].chi_squared(df, size), whole_chi_squared(streams[1], df, size), streams)
    if size > 4096:  # later waves redraw the rejected candidates
        assert len(streams[0].waves) >= 3


@pytest.mark.parametrize("q,dim", [(0.5, 2), (0.0, 3), (1.0, 2), (1.0, 3), (1.3, 2), (1.1, 3)])
@pytest.mark.parametrize("lead", ["fresh", "odd+spare"])
def test_many_standard_draws_match_the_whole_array_formula(q, dim, lead):
    count = 3 * 4096 + 1  # an odd number of normals in 3-d
    streams = twins(lead, dim)
    got = sample_standard_many(q, dim, count, streams[0])
    want = whole_sample_standard_many(q, dim, count, streams[1])
    assert_same(got[0], want[0], streams)
    assert_same(got[1], want[1], streams)


def sq_norm(x):
    return float(x[0] * x[0] + x[1] * x[1])


@pytest.mark.parametrize("chunk", [smoothing._MC_CHUNK, 5000])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.3])
def test_the_estimators_match_the_whole_array_formulas(q, chunk, monkeypatch):
    # 2 * 4096 + 5 draws, in one chunk or in chunks that end inside a block
    monkeypatch.setattr(smoothing, "_MC_CHUNK", chunk)
    kernel, theta, n = QKernel(q, 0.05, 2), np.array([0.3, -0.2]), 2 * 4096 + 5
    for blocked, whole in ((smoothed_gradient_mc, whole_gradient), (smoothed_value, whole_value)):
        streams = twins("odd", 3)
        assert_same(blocked(sq_norm, theta, kernel, n, streams[0]),
                    whole(sq_norm, theta, kernel, n, streams[1]), streams)


def test_the_gradient_checks_rho_before_it_evaluates_f(monkeypatch):
    # a corrupted block, the chunk's last, is refused before f sees any of
    # the chunk's points
    def corrupted(q, dim, count, stream):
        blocks = list(qgaussian._standard_blocks(q, dim, count, stream))
        blocks[-1][2][-1] = 0.0
        return iter(blocks)

    monkeypatch.setattr(smoothing, "_standard_blocks", corrupted)
    calls = []
    with pytest.raises(smoothing.InvalidRhoError, match="rho <= 0"):
        smoothed_gradient_mc(lambda x: calls.append(x) or 1.0, np.zeros(2),
                             QKernel(0.5, 0.1, 2), 2 * 4096 + 5, RngStream(3, 1))
    assert calls == []


# -- readers and moves ---------------------------------------------------------

# offsets inside the unread tail of every lead's buffer (4093 to 4095 long
# but for a fresh stream's), at its end and past it, where the raw they
# start at falls on each place of a Philox step of four
OFFSETS = [0, 1, 2, 3, 4, 5, 4092, 4093, 4094, 4095, 4096, 4097, 4098, 4099, 3 * 4096 + 5]


@pytest.mark.parametrize("lead", sorted(LEADS))
@pytest.mark.parametrize("k", OFFSETS)
def test_a_reader_reads_on_from_k_past_the_stream_and_leaves_it_alone(k, lead):
    stream, twin = twins(lead, 4)
    before = stream_state(stream)
    reader = stream._reader(k)
    got = [reader.uniform01() for _ in range(3)] + reader.uniform01(5000).tolist()
    assert stream_state(stream) == before
    for _ in range(k):
        twin.uniform01()
    assert got == [twin.uniform01() for _ in range(3)] + twin.uniform01(5000).tolist()


def test_a_reader_starts_with_the_normal_it_is_given():
    stream = RngStream(8, 1)
    before = stream_state(stream)
    assert stream._reader(3, 0.25).standard_normal(3).tolist() == (
        [0.25] + stream._reader(3).standard_normal(2).tolist())
    assert stream_state(stream) == before


@given(
    lead=st.sampled_from(sorted(LEADS)),
    # a read of any size, or one that ends next to a buffer's end: past the
    # unread tail, ``buffers`` whole buffers and ``extra`` uniforms more
    steps=st.lists(
        st.tuples(st.none(), st.integers(0, 3 * 4096 + 5) | st.integers(0, 5))
        | st.tuples(st.integers(0, 3), st.integers(-2, 2)),
        max_size=6,
    ),
)
def test_a_move_leaves_the_stream_where_its_reads_would(lead, steps):
    stream, twin = twins(lead, 5)
    reads = []
    for buffers, extra in steps:
        tail = twin._buf.size - twin._pos
        reads.append(extra if buffers is None else max(0, tail + buffers * 4096 + extra))
        twin.uniform01(reads[-1])
    stream._move(reads, stream.spare_normal)
    assert stream._buf.tobytes() == twin._buf.tobytes()
    assert stream_state(stream) == stream_state(twin)


@st.composite
def shapes(draw):
    """(q, dim): q below 1, at 1, above 1, or so near 1 + 2/dim that the
    mixing chi-squared has df < 2, whose gammas are boosted."""
    dim = draw(st.integers(1, 25))
    boosted = (dim + 4) / (dim + 2)  # df < 2 from here up to 1 + 2/dim
    return draw(st.one_of(
        st.floats(-3.0, 0.99),
        st.just(1.0),
        st.floats(1.01, boosted),
        st.floats(boosted + 1e-9, 1.0 + 2.0 / dim - 1e-3),
    )), dim


@given(
    shape=shapes(),
    count=st.sampled_from([0, 1, 2, 3, 7, 4095, 4096, 4097, 2 * 4096 + 1, 3 * 4096 - 1]),
    lead=st.sampled_from(sorted(LEADS)),
    skip=st.sampled_from([0, 1, 4095, 4096, 4097]),
)
def test_the_block_generator_matches_the_whole_array_formula(shape, count, lead, skip):
    (q, dim), streams = shape, twins(lead, 6)
    for stream in streams:
        stream.uniform01(skip)
    blocks = list(qgaussian._standard_blocks(q, dim, count, streams[0]))
    want = whole_sample_standard_many(q, dim, count, streams[1])
    assert [rows.stop - rows.start for rows, _, _ in blocks] == [
        min(4096, count - start) for start in range(0, count, 4096)]
    assert_same(np.concatenate([etas for _, etas, _ in blocks] or [np.empty((0, dim))]),
                want[0], streams)
    assert_same(np.concatenate([rhos for _, _, rhos in blocks] or [np.empty(0)]), want[1], streams)


@given(
    df=st.floats(0.05, 60.0),
    size=st.sampled_from([4096, 4097, 3 * 4096 + 1]) | st.integers(0, 3 * 4096),
    lead=st.sampled_from(sorted(LEADS)),
)
def test_array_chi_squared_matches_the_whole_array_formula_at_any_df(df, size, lead):
    streams = twins(lead, 7)
    assert_same(streams[0].chi_squared(df, size), whole_chi_squared(streams[1], df, size), streams)


# -- memory ------------------------------------------------------------------


def traced_peak(draw, n):
    """What ``draw(n)`` returns, and the peak of the memory it allocates
    beyond what was allocated before, by tracemalloc.  A small draw runs
    first, so that one-time allocations are not counted."""
    draw(64)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = draw(n)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_the_draws_and_the_estimators_hold_no_whole_size_temporaries():
    # the whole-array forms peaked at 3.4 times the samples' bytes, and the
    # estimators each at about twice the sampler's peak
    kernel, theta, n = QKernel(0.5, 0.05, 2), np.array([0.3, 0.3]), 1 << 18
    (etas, rhos), sampler = traced_peak(
        lambda m: sample_standard_many(kernel.q, kernel.dim, m, RngStream(5, 1)), n)
    assert sampler <= 2 * (etas.nbytes + rhos.nbytes)

    def one(x):  # allocates nothing, which tracemalloc would slow
        return 1.0

    for estimate in (smoothed_gradient_mc, smoothed_value):
        _, peak = traced_peak(lambda m: estimate(one, theta, kernel, m, RngStream(5, 2)), n)
        assert peak <= sampler + (1 << 20), estimate.__name__


def test_the_sampler_holds_one_block_beside_its_outputs_and_the_estimators_their_draws():
    kernel, theta, n = QKernel(0.5, 0.05, 2), np.array([0.3, 0.3]), 1 << 18
    (etas, rhos), sampler = traced_peak(
        lambda m: sample_standard_many(kernel.q, kernel.dim, m, RngStream(5, 1)), n)
    assert sampler <= etas.nbytes + rhos.nbytes + (1 << 20)

    def one(x):
        return 1.0

    _, peak = traced_peak(lambda m: smoothed_value(one, theta, kernel, m, RngStream(5, 2)), n)
    assert peak <= 1 << 20
    _, peak = traced_peak(lambda m: smoothed_gradient_mc(one, theta, kernel, m, RngStream(5, 3)), n)
    assert peak <= etas.nbytes + (1 << 20)

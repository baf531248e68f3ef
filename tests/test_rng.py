import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

import qsmooth
from qsmooth.qgaussian import sample_standard
from qsmooth.rng import RngStream, derive_stream_id

from conftest import stream_state


def test_uniform01_open_interval():
    s = RngStream(123, 7)
    u = s.uniform01(100_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_uniform01_determinism():
    a = RngStream(42, 1).uniform01(1000)
    b = RngStream(42, 1).uniform01(1000)
    np.testing.assert_array_equal(a, b)


def test_uniform01_mean():
    u = RngStream(7, 0).uniform01(1_000_000)
    assert abs(u.mean() - 0.5) < 0.002


def test_uniform01_scalar_array_same_sequence():
    s1 = RngStream(5, 5)
    s2 = RngStream(5, 5)
    singles = np.array([s1.uniform01() for _ in range(4100)])  # spans a refill
    np.testing.assert_array_equal(singles, s2.uniform01(4100))


def test_normals_one_at_a_time_or_as_an_array_read_the_same_uniforms():
    # libm's and numpy's transcendentals differ in the last bits of a few
    s1, s2 = RngStream(1, 2), RngStream(1, 2)
    singles = np.array([s1.standard_normal() for _ in range(200_000)])
    np.testing.assert_array_max_ulp(singles, s2.standard_normal(200_000), maxulp=2)
    assert stream_state(s1) == stream_state(s2)


@example(seed=0, stream_id=2**64 - 1, draws=[None])
@example(seed=2**64 - 1, stream_id=0, draws=[2])
@example(seed=2**64 - 1, stream_id=2**64 - 1, draws=[None])
@given(
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2**64 - 1),
    draws=st.lists(st.none() | st.integers(0, 5000), min_size=1, max_size=8),
)
def test_a_fresh_stream_reads_its_generator_in_order(seed, stream_id, draws):
    # a stream's generator is Philox(key=[seed, stream_id]), the key given
    # as two uint64 words (a list of Python ints, one word at or above 2**63
    # and one below, would pass through float64); whatever the split of the
    # first n uniforms into scalar (None) and array draws, across a small
    # first fill and whole buffers: the generator's first n raw draws, each
    # made a uniform on (0, 1)
    stream = RngStream(seed, stream_id)
    key = np.array([seed, stream_id], dtype=np.uint64)
    assert repr(stream._bitgen.state) == repr(np.random.Philox(key=key).state)
    assert stream._bitgen.state["state"]["key"].tolist() == [seed, stream_id]
    got = np.concatenate(
        [[stream.uniform01()] if n is None else stream.uniform01(n) for n in draws]
    )
    raw = np.random.Philox(key=key).random_raw(got.size)
    assert got.tobytes() == (((raw >> np.uint64(11)) + 0.5) * 2.0**-53).tobytes()


class _CopyingStream(RngStream):
    """A stream whose array normals are written out pair by pair from
    uniforms copied out through ``uniform01(size)``, a reference for
    ``RngStream.standard_normal``; ``drawn`` counts every uniform it hands
    out."""

    __slots__ = ("drawn",)

    def __init__(self, seed, stream_id=0):
        super().__init__(seed, stream_id)
        self.drawn = 0

    def uniform01(self, size=None):
        self.drawn += 1 if size is None else size
        return super().uniform01(size)

    def standard_normal(self, size=None):
        if size is None:
            return super().standard_normal()
        out = np.empty(size)
        start = 0
        if self.spare_normal is not None and size > 0:
            out[0] = self.spare_normal
            self.spare_normal = None
            start = 1
        need = size - start
        if need > 0:
            npairs = (need + 1) // 2
            u = self.uniform01(2 * npairs)
            r = np.sqrt(-2.0 * np.log(u[0::2]))
            ang = 2.0 * np.pi * u[1::2]
            z = np.empty(2 * npairs)
            z[0::2] = r * np.cos(ang)
            z[1::2] = r * np.sin(ang)
            out[start:] = z[:need]
            if need % 2 == 1:
                self.spare_normal = float(z[need])
        return out


def _sample_standard_reference(q, dim, stream):
    """sample_standard as written out before its constants were cached."""
    z = stream.standard_normal(dim)
    if q == 1.0:
        return z, 1.0
    c = dim + 2.0 - dim * q
    if q < 1.0:
        a = stream.chi_squared(2.0 * (2.0 - q) / (1.0 - q))
        y = math.sqrt(c / (1.0 - q)) * z / math.sqrt(a + float(np.dot(z, z)))
    else:
        a = stream.chi_squared(c / (q - 1.0))
        y = math.sqrt(c / (q - 1.0)) * z / math.sqrt(a)
    return y, float(1.0 - ((1.0 - q) / c) * np.dot(y, y))


def test_interleaved_uniform_draws_match_one_array_draw():
    # Scalar draws read the current buffer; a refill made by an array,
    # normal or in-place read must leave them reading the refilled one,
    # which is always the stream's one buffer.  Array
    # normals must match the reference's, with a spare normal carried
    # between calls and across scalar chi-squared draws, and so must
    # q-Gaussian perturbations.
    stream = RngStream(31, 4)
    buffer = stream._buf
    old = _CopyingStream(31, 4)  # drawn in lockstep; old.drawn counts the uniforms used
    positions, values = [], []

    def scalars(n):
        for _ in range(n):
            positions.append(old.drawn)
            values.append(stream.uniform01())
            assert values[-1] == old.uniform01()

    def array(n):
        positions.extend(range(old.drawn, old.drawn + n))
        values.extend(stream.uniform01(n).tolist())
        assert values[-n:] == old.uniform01(n).tolist()

    def normals(n):
        got = stream.standard_normal(n)
        assert got.shape == (n,) and got.tobytes() == old.standard_normal(n).tobytes()

    def in_place(n):
        # read as the compiled loops read: from the buffer itself, refilled
        # in place when it is read to its end, then move _pos
        while n:
            if stream._pos == buffer.size:
                stream._refill()
            take = min(n, buffer.size - stream._pos)
            positions.extend(range(old.drawn, old.drawn + take))
            values.extend(buffer[stream._pos : stream._pos + take].tolist())
            assert old.uniform01(take).tolist() == values[-take:]
            stream._pos += take
            n -= take

    def chi(df):
        assert stream.chi_squared(df) == old.chi_squared(df)

    def sample(q, dim):
        eta, rho = sample_standard(q, dim, stream)
        ref_eta, ref_rho = _sample_standard_reference(q, dim, old)
        assert eta.tobytes() == ref_eta.tobytes() and rho == ref_rho

    scalars(10)
    array(4086)  # ends the first buffer exactly
    scalars(6)  # refills on the scalar path
    normals(4090)  # ends the second buffer exactly
    scalars(3)
    in_place(4091)  # leaves two in the third buffer
    in_place(5)  # reads those two, then refills
    in_place(9000)  # more than a buffer holds
    normals(3)  # leaves a spare normal
    chi(3.7)  # scalar normals: the spare is used, another may be left
    normals(1)
    normals(4097)  # more than a buffer holds
    for k in range(40):
        scalars(k * 7 % 13 + 1)
        array(k * 997 % 1500 + 1)
        in_place(k * 613 % 2000 + 1)
        normals(2 * (k * 389 % 400 + 1))
        normals(k % 5 + 1)  # odd and even, with and without a spare
        chi(0.5 + k % 7)
        for dim in (1, 2, 3, 4, 7, 20):
            sample((0.5, 1.0, 1.0 + 1.0 / (dim + 1))[(k + dim) % 3], dim)
    for dim in range(1, 21):
        for q in (0.8, 1.0, 1.0 + 1.0 / (dim + 1)):
            sample(q, dim)
    assert old.drawn > 3 * 4096

    twin = RngStream(31, 4).uniform01(old.drawn)
    assert values == twin[positions].tolist()
    assert stream.uniform01(8).tolist() == old.uniform01(8).tolist()
    assert stream._buf is buffer


def test_standard_normal_moments():
    z = RngStream(11, 3).standard_normal(1_000_000)
    assert abs(z.mean()) < 0.003
    assert abs(z.var() - 1.0) < 0.005
    assert np.all(np.isfinite(z))


def test_standard_normal_determinism_and_pair_parity():
    s1 = RngStream(9, 9)
    s2 = RngStream(9, 9)
    # odd counts leave half a Box-Muller pair cached; state must still line up
    a = np.concatenate([s1.standard_normal(3), s1.standard_normal(2)])
    b = s2.standard_normal(5)
    np.testing.assert_array_equal(a, b)
    s3 = RngStream(9, 9)
    singles = np.array([s3.standard_normal() for _ in range(5)])
    np.testing.assert_array_equal(singles, b)


def test_chi_squared_mean_fractional_df():
    x = RngStream(21, 0).chi_squared(3.7, 1_000_000)
    assert np.all(x >= 0.0)
    assert abs(x.mean() - 3.7) < 0.03


def test_chi_squared_df2_is_exponential():
    x = RngStream(13, 2).chi_squared(2.0, 200_000)
    assert stats.kstest(x, stats.expon(scale=2.0).cdf).pvalue > 0.01


def test_chi_squared_small_shape_branch():
    # df/2 < 1 exercises the boosted gamma path
    x = RngStream(3, 3).chi_squared(0.6, 500_000)
    assert np.all(x >= 0.0)
    assert abs(x.mean() - 0.6) < 0.02


@pytest.mark.parametrize("df", [0.0, -1.5])
def test_chi_squared_rejects_bad_df(df):
    with pytest.raises(ValueError):
        RngStream(0, 0).chi_squared(df)


@pytest.mark.parametrize("size", [None, 3])
@pytest.mark.parametrize("df", [True, "3", None])
def test_chi_squared_refuses_a_df_that_is_no_number(df, size):
    # True drew as df = 1, and "3" raised TypeError from the range test
    stream = RngStream(0, 0)
    before = stream_state(stream)
    with pytest.raises(ValueError, match=f"^df must be a number, got {re.escape(repr(df))}$"):
        stream.chi_squared(df, size)
    assert stream_state(stream) == before


@pytest.mark.parametrize("size", [None, 3])
def test_chi_squared_rejects_an_infinite_df(size):
    # at df = inf every candidate's test reads inf - inf = NaN, and the draw
    # never returned; a child process under a timeout fails a regression
    # instead of hanging the suite
    src = str(Path(qsmooth.__file__).resolve().parent.parent)
    code = (
        "from qsmooth.rng import RngStream\n"
        "try:\n"
        f"    RngStream(0, 0).chi_squared(float('inf'), size={size!r})\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "chi_squared requires 0 < df < inf, got inf\n"


ARRAY_DRAWS = {
    "uniform01": lambda stream, size: stream.uniform01(size),
    "standard_normal": lambda stream, size: stream.standard_normal(size),
    "chi_squared": lambda stream, size: stream.chi_squared(3.0, size),
}


@pytest.mark.parametrize("size", [-1, 2.5, 3.0, np.float64(2.0), True, False, "4"])
@pytest.mark.parametrize("draw", sorted(ARRAY_DRAWS))
def test_array_draws_refuse_a_size_that_is_no_count_before_they_draw(draw, size):
    # a float failed inside numpy and True drew one value; each now fails,
    # naming the argument, with the stream where it was
    stream = RngStream(4, 4)
    stream.uniform01()
    stream.standard_normal()
    before = stream_state(stream)
    with pytest.raises(ValueError, match=re.escape(f"size must be an integer >= 0, got {size!r}")):
        ARRAY_DRAWS[draw](stream, size)
    assert stream_state(stream) == before


def test_array_draws_take_a_numpy_integer_size():
    streams = RngStream(4, 5), RngStream(4, 5)
    for draw in ARRAY_DRAWS.values():
        got = [draw(stream, size) for stream, size in zip(streams, (np.int32(5), 5))]
        assert got[0].tobytes() == got[1].tobytes()
    assert stream_state(streams[0]) == stream_state(streams[1])


def test_stream_independence():
    a = RngStream(1000, derive_stream_id(0, "a")).uniform01(100_000)
    b = RngStream(1000, derive_stream_id(0, "b")).uniform01(100_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_mixed_draw_replay_is_bit_identical():
    def consume(stream):
        out = [stream.uniform01(), stream.standard_normal()]
        out.extend(stream.chi_squared(1.3, 5).tolist())
        out.append(stream.standard_normal())
        out.extend(stream.uniform01(3).tolist())
        out.append(stream.chi_squared(0.4))
        return out

    assert consume(RngStream(77, 8)) == consume(RngStream(77, 8))


def test_distinct_stream_ids_differ():
    a = RngStream(5, 1).uniform01(64)
    b = RngStream(5, 2).uniform01(64)
    assert not np.array_equal(a, b)


def test_derive_stream_id_rules():
    assert derive_stream_id(1, 2, "sim+") == derive_stream_id(1, 2, "sim+")
    assert derive_stream_id(1, 2, "sim+") != derive_stream_id(1, 2, "sim-")
    assert derive_stream_id(1, 2) != derive_stream_id(2, 1)
    assert derive_stream_id("a", "b") != derive_stream_id("ab")
    assert 0 <= derive_stream_id(0) < 2**64


@pytest.mark.parametrize("part", [0.3, 1.9, 1.0, True, False, None, b"a", np.float64(2.0)])
def test_derive_stream_id_refuses_a_part_that_is_no_integer_or_string(part):
    # int() folded 0.3 into 0, 1.9 and True into 1: silent stream collisions
    with pytest.raises(ValueError, match=re.escape(f"got {part!r}")):
        derive_stream_id(7, part)
    # numpy's integers are integers, and enter as the Python int of equal value
    assert derive_stream_id(7, np.int64(-3), np.uint8(5)) == derive_stream_id(7, -3, 5)


@pytest.mark.parametrize("value", [True, False, 1.5, 1.0, "1", None, np.float64(2.0)])
@pytest.mark.parametrize("name", ["seed", "stream_id"])
def test_a_stream_refuses_a_seed_or_stream_id_that_is_no_integer(name, value):
    # RngStream(True) drew what RngStream(1) draws, and 1.5 failed inside
    # the masking with TypeError
    args = {"seed": 1, "stream_id": 0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        RngStream(**args)


def test_a_stream_takes_any_integer_seed_modulo_2_to_the_64():
    # negative seeds load, and numpy's integers enter as the Python int of
    # equal value (np.int64 failed in the masking with OverflowError)
    first = RngStream(2**64 - 1, 2**64 + 3).uniform01(3).tolist()
    assert RngStream(-1, 3).uniform01(3).tolist() == first
    for seed, stream_id in [(np.int64(-1), np.uint8(3)), (np.uint64(2**64 - 1), np.int32(3))]:
        stream = RngStream(seed, stream_id)
        assert (stream.seed, stream.stream_id) == (2**64 - 1, 3)
        assert stream.uniform01(3).tolist() == first


def _number_tests(source: str) -> list[str]:
    """The functions of ``source`` that name ``numbers.Integral`` or
    ``numbers.Real``, as "function" (or "<module>")."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
            elif (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "numbers"
                and child.attr in ("Integral", "Real")
            ):
                found.append(where)
            else:
                visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_one_integer_check_and_one_number_check_for_the_whole_package():
    # _count and _real in rng answer every "is this an integer / a number?";
    # derive_stream_id takes strings too, and _check_q_domain raises the
    # domain error the CLI reports
    src = Path(qsmooth.__file__).parent
    asked = {path.name: _number_tests(path.read_text()) for path in sorted(src.glob("*.py"))}
    asked = {name: sorted(set(where)) for name, where in asked.items() if where}
    assert asked == {
        "qgaussian.py": ["_check_q_domain"],
        "rng.py": ["_count", "_real", "derive_stream_id"],
    }
    bench = ast.parse((src / "bench.py").read_text())
    defined = {node.name for node in ast.walk(bench) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_real", "_integer", "_dimension"}


def test_derive_stream_id_pinned_values():
    # regression pins: the derivation rule is part of the reproducibility
    # contract, so accidental changes must be loud
    assert derive_stream_id(0) == 7960286522194355700
    assert derive_stream_id(42, "perturbation") == derive_stream_id(42, "perturbation")

"""Deterministic, stream-splittable random number streams.

Every stochastic component of the package draws from an :class:`RngStream`,
which wraps a counter-based Philox-4x64 bit generator keyed by
``(seed, stream_id)``.  Distinct keys give statistically independent,
non-overlapping streams, so parallel replications can be seeded from a
config file alone.

Stream derivation rule (fixed, documented so results are reproducible):

    stream_id = derive_stream_id(part_0, part_1, ...)

where integer parts enter modulo 2**64, string parts enter as their
64-bit FNV-1a hash, and the parts are folded left-to-right with a
splitmix64 finalizer (see :func:`derive_stream_id`).  A stream's generator
is then ``np.random.Philox(key=np.array([seed, stream_id], np.uint64))``,
numpy's keyed form, with the key as two uint64 words (a list of Python
ints would pass through float64 wherever one word is 2**63 or more and
another is not).  ``numpy.random`` is imported when the first stream is
made, not when qsmooth is.

Block rule: an array chi-squared draw, and ``qgaussian``'s array draws,
read the stream one block of _BLOCK slots (rows) after another, each block
as a whole-array draw of its own size; so a draw of up to _BLOCK slots is
one block, and a larger one draws what a run of such draws would.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF
_BUFFER_SIZE = 4096
# the slots an array draw reads the stream for at a time (the block rule):
# it defines the draws, so it does not follow the refill size _BUFFER_SIZE
_BLOCK = 4096
# 2**-53; raw >> 11 keeps 53 bits, +0.5 centers in the cell so the open
# interval (0, 1) is hit by construction (never exactly 0 or 1).
_TO_UNIT = 2.0 ** -53


def _count(value, name: str, least: int | None = 0) -> int:
    """``value`` as an int, or ValueError naming ``name`` when it is not an
    integer >= ``least``, or no integer at all when ``least`` is None."""
    floor = -math.inf if least is None else least
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < floor:
        at_least = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float, or ValueError naming ``name`` when it is no real
    number (a bool or a string is none) or beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large, got {value!r}") from None


def _reals(values, name: str) -> np.ndarray:
    """``np.asarray(values, dtype=float)`` of an integer or float array, a list
    of numbers or a number, or ValueError naming ``name`` (``_real``)."""
    if isinstance(values, (list, tuple)):
        for entry in values:
            _real(entry, f"{name} entry")
    elif not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        _real(values, name)
    return np.asarray(values, dtype=float)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _U64
    return h


def derive_stream_id(*parts: int | str) -> int:
    """Fold ints and string tags into a 64-bit stream id.

    The rule is fixed: start from the splitmix64 increment constant, then
    for each part XOR in its 64-bit value (ints mod 2**64, strings via
    FNV-1a of their UTF-8 bytes) and apply splitmix64.  Any change to the
    part sequence changes the id, so e.g. ``(cell, rep, "sim+")`` and
    ``(cell, rep, "sim-")`` never collide in practice.  Any other part,
    a bool or a float among them, raises ValueError: ``int`` would fold 0.3
    into 0 and True into 1, and their streams into those ids' streams.
    """
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        if isinstance(part, str):
            x = _fnv1a64(part.encode("utf-8"))
        elif isinstance(part, numbers.Integral) and not isinstance(part, bool):
            x = int(part) & _U64
        else:
            raise ValueError(f"stream id parts must be integers or strings, got {part!r}")
        acc = _splitmix64(acc ^ x)
    return acc


class RngStream:
    """One independently seeded random stream.

    A stream owns its state and must not be drawn from concurrently; it is
    cheap to construct (about 10 µs on a 2-core host, half of it the OS
    entropy numpy draws for a keyed Philox's unused seed sequence; its
    first read, of any size, fills the buffer's 4096 uniforms, about 25 µs
    more), so give every replication/component its own.
    Identical ``(seed, stream_id)`` and an identical call pattern replay an
    identical variate sequence.  ``uniform01`` produces the same sequence
    whether drawn one at a time or as arrays.  ``standard_normal`` reads the
    same uniforms either way and leaves the stream at the same place, but
    its scalar form takes libm's log and its array form numpy's (numpy's
    float64 cos and sin are libm's), so a value may differ in its last bits
    (289 of the first 200 000 normals of stream (1, 2), by at most 2 ulp,
    all from the logarithm).  ``chi_squared``
    array draws are a distinct (still deterministic) call pattern because
    rejection candidates are processed in vectorized waves
    (:meth:`_gamma_block`), one block after another.
    """

    __slots__ = ("seed", "stream_id", "_bitgen", "_buf", "_pos", "spare_normal")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _count(seed, "seed", None) & _U64
        self.stream_id = _count(stream_id, "stream_id", None) & _U64
        self._bitgen = np.random.Philox(key=np.array([self.seed, self.stream_id], np.uint64))
        # the buffer, kept for life and refilled in place when read to its
        # end (compiled loops bind it once), and the next unread slot in it
        self._buf = np.empty(_BUFFER_SIZE)
        self._pos = _BUFFER_SIZE
        # the unused half of the last Box-Muller pair, which the next normal
        # draw returns first (None when there is none); compiled loops take
        # it with the position and hand back the one they leave
        self.spare_normal: float | None = None

    # -- uniforms ----------------------------------------------------------

    def _fresh(self, count: int) -> np.ndarray:
        return ((self._bitgen.random_raw(count) >> np.uint64(11)) + 0.5) * _TO_UNIT

    def _refill(self) -> None:
        """Refill the buffer in place with the generator's next
        _BUFFER_SIZE uniforms and read it from its start, as a reader that
        finds it read to its end does; ``next_uniform`` in ``_mg1.c``
        does the same."""
        self._buf[:] = self._fresh(_BUFFER_SIZE)
        self._pos = 0

    def uniform01(self, size: int | None = None):
        """Uniform draw(s) on the open interval (0, 1)."""
        if size is None:
            pos = self._pos
            if pos == _BUFFER_SIZE:
                self._refill()
                pos = 0
            self._pos = pos + 1
            return self._buf.item(pos)
        out = np.empty(_count(size, "size"))
        for _ in self._fill(out, 0):
            pass
        return out

    def _fill(self, out: np.ndarray, start: int):
        """Copy the next uniforms into ``out[start:]``, up to the end of
        the buffer at a time, yielding how far ``out`` is filled after each
        copy."""
        filled, size = start, out.size
        while filled < size:
            if self._pos == _BUFFER_SIZE:
                self._refill()
            pos = self._pos
            take = min(size - filled, _BUFFER_SIZE - pos)
            out[filled : filled + take] = self._buf[pos : pos + take]
            self._pos = pos + take
            filled += take
            yield filled

    # -- normals (Box-Muller) ----------------------------------------------

    def standard_normal(self, size: int | None = None):
        """N(0,1) draw(s) via the Box-Muller transform.

        Pairs are generated from consecutive uniforms; the unused half of a
        pair is cached, so odd draw counts advance state deterministically
        and scalar and array call patterns read the same uniforms (their
        values may differ in the last bits: see the class docstring).  An array
        draw copies the uniforms into its output one buffer read at a time
        and turns each read's whole pairs into normals there, in place, so
        it holds no whole-size temporary; numpy's float64 ``log``, ``cos``
        and ``sin`` work element by element, so the normals do not depend
        on how the reads split the pairs.
        """
        if size is None:
            if self.spare_normal is not None:
                v = self.spare_normal
                self.spare_normal = None
                return v
            u1 = self.uniform01()
            u2 = self.uniform01()
            r = math.sqrt(-2.0 * math.log(u1))
            self.spare_normal = r * math.sin(2.0 * math.pi * u2)
            return r * math.cos(2.0 * math.pi * u2)

        size = _count(size, "size")
        # out[0] takes a cached normal, out[start:] the pairs' uniforms; an
        # odd count draws one normal past out[size - 1], which is cached
        start = 0 if self.spare_normal is None or size == 0 else 1
        out = np.empty(start + 2 * ((size - start + 1) // 2))
        if start:
            out[0] = self.spare_normal
            self.spare_normal = None
        done = start
        for filled in self._fill(out, start):
            pairs = out[done : filled - (filled - start) % 2]
            r = np.log(pairs[0::2])
            r *= -2.0
            np.sqrt(r, out=r)
            ang = pairs[1::2] * (2.0 * np.pi)
            np.multiply(r, np.cos(ang), out=pairs[0::2])
            np.multiply(r, np.sin(ang, out=ang), out=pairs[1::2])
            done += pairs.size
        if out.size > size:
            self.spare_normal = out.item(size)
            out = out[:size]
        return out

    # -- gamma / chi-squared -------------------------------------------------

    def _gamma_unit_scale(self, shape: float):
        """One gamma(shape, scale=1) draw, any real shape > 0.

        Marsaglia-Tsang squeeze for shape >= 1; shape < 1 is boosted via
        gamma(shape) = gamma(shape + 1) * U**(1/shape).
        """
        boost = 1.0
        if shape < 1.0:
            boost = self.uniform01() ** (1.0 / shape)
            shape = shape + 1.0
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.standard_normal()
            t = 1.0 + c * x
            if t <= 0.0:
                continue
            v = t * t * t
            u = self.uniform01()
            if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
                return boost * d * v

    def chi_squared(self, df: float, size: int | None = None):
        """Chi-squared draw(s); df may be any finite real > 0 (at df = inf
        every rejection test reads inf - inf, and no candidate would ever be
        accepted)."""
        _real(df, "df")
        if not 0.0 < df < math.inf:
            raise ValueError(f"chi_squared requires 0 < df < inf, got {df}")
        if size is None:
            return 2.0 * self._gamma_unit_scale(0.5 * df)
        out = np.empty(_count(size, "size"))
        for start in range(0, out.size, _BLOCK):
            gammas = self._gamma_block(0.5 * df, min(_BLOCK, out.size - start))
            np.multiply(gammas, 2.0, out=out[start : start + _BLOCK])
        return out

    # Not merged with _gamma_unit_scale: the scalar form skips the uniform
    # when t <= 0, so the two forms consume the stream differently.
    def _gamma_block(self, shape: float, size: int) -> np.ndarray:
        """``size`` gamma(shape, scale=1) draws, Marsaglia-Tsang in waves:
        each wave draws one candidate per empty slot, its normals and then
        its uniforms, and its accepted candidates fill the next slots in
        order; shape < 1 first draws one boost uniform per slot and
        multiplies each accepted value by its slot's boost.  Array draws
        call it for one block at a time (the block rule)."""
        out = np.empty(size)
        boost = None
        if shape < 1.0:
            boost = self.uniform01(out.size)
            boost **= 1.0 / shape
            shape = shape + 1.0
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        filled = 0
        while filled < out.size:
            x = self.standard_normal(out.size - filled)
            t = 1.0 + c * x
            v = t * t * t
            u = self.uniform01(out.size - filled)
            with np.errstate(invalid="ignore"):  # log(v<=0) slots are rejected anyway
                ok = (t > 0.0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(v))
            accepted = v[ok]
            out[filled : filled + accepted.size] = d * accepted
            filled += accepted.size
        if boost is not None:
            out *= boost
        return out

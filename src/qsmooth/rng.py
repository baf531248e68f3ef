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

Reader rule: a stream's uniform sequence is fixed, the i-th uniform being
``((raw_i >> 11) + 0.5) * 2**-53`` of the generator's i-th raw draw, however
the buffer splits it.  Philox is counter-based, so any raw can be reached
without drawing the ones before it.  An array draw that reads the stream in
sections (a chi-squared draw's waves of normals and uniforms, say) reads
each section through its own reader (:meth:`RngStream._reader`): a copy of
the stream, positioned at the section's offset, which reads the rest of the
stream's buffer and then a Philox set to the matching raw.  Readers never
draw from the stream itself; the draw then moves the stream
(:meth:`RngStream._move`) to where whole-array reads of each section would
have left it, so the draw's results and the stream's state are those of
the whole-array reads, bit for bit.  Beside its output such a draw holds
one block of _BUFFER_SIZE values per section: ``chi_squared(12.0, 2**18)``
peaks at 2.4 MiB traced, 2 MiB of it the output (6.3 MiB with each wave
held whole).
"""

from __future__ import annotations

import copy
import math
import numbers

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF
_BUFFER_SIZE = 4096
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


def _uniforms(raw: np.ndarray) -> np.ndarray:
    return ((raw >> np.uint64(11)) + 0.5) * _TO_UNIT


def _after_read(size: int, pos: int, n: int) -> tuple[int, int, int]:
    """The buffer size and read position after ``_fill`` reads ``n``
    uniforms from a buffer of ``size`` read up to ``pos``, and the fresh
    uniforms its refills draw: ``reserve``'s rule, worked out without
    reading."""
    tail = size - pos
    if n <= tail:
        return size, pos + n, 0
    drawn = 0
    if tail < min(n, _BUFFER_SIZE):  # the first reserve refills
        drawn = min(n, _BUFFER_SIZE) if size == 0 and n > 1 else _BUFFER_SIZE
        tail += drawn
        if n <= tail:
            return tail, n, drawn
    # the rest comes one fresh buffer of _BUFFER_SIZE at a time
    blocks = -(-(n - tail) // _BUFFER_SIZE)
    return _BUFFER_SIZE, n - tail - (blocks - 1) * _BUFFER_SIZE, drawn + blocks * _BUFFER_SIZE


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
    entropy numpy draws for a keyed Philox's unused seed sequence; a first
    draw of a few uniforms takes about 5 µs more, a first scalar draw, which
    fills 4096, about 25 µs), so give every replication/component its own.
    Identical ``(seed, stream_id)`` and an identical call pattern replay an
    identical variate sequence.  ``uniform01`` and ``standard_normal``
    additionally produce the *same* sequence whether drawn one at a time or
    as arrays; ``chi_squared`` array draws are a distinct (still
    deterministic) call pattern because rejection candidates are processed
    in vectorized waves (:func:`_gamma_blocks`), which are read through
    readers a block at a time, so no wave is held whole.
    """

    __slots__ = ("seed", "stream_id", "_bitgen", "_buf", "_pos", "spare_normal")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _count(seed, "seed", None) & _U64
        self.stream_id = _count(stream_id, "stream_id", None) & _U64
        self._bitgen = np.random.Philox(key=np.array([self.seed, self.stream_id], np.uint64))
        self._buf = np.empty(0)
        self._pos = 0
        # the unused half of the last Box-Muller pair, which the next normal
        # draw returns first (None when there is none); compiled loops take
        # it with the buffer and hand back the one they leave
        self.spare_normal: float | None = None

    # -- uniforms ----------------------------------------------------------

    def _fresh(self, count: int) -> np.ndarray:
        return _uniforms(self._bitgen.random_raw(count))

    def reserve(self, n: int):
        """The buffer and read position, with at least ``n`` unread uniforms
        from there on, for a caller that reads them in place and then moves
        ``_pos`` past them.  A refill keeps the unread tail at the front of
        the new buffer, so the values keep their order, and appends
        max(_BUFFER_SIZE, n - tail) fresh uniforms, except in a stream's
        first fill for a read of more than one (a simulator's first
        arrivals, say), which brings just those n.  The C ``reserve`` in
        ``_mg1.c`` keeps the same rule, and :func:`_after_read` works it out
        for whole reads."""
        buf, pos = self._buf, self._pos
        tail = buf.size - pos
        if tail < n:
            least = 0 if buf.size == 0 and n > 1 else _BUFFER_SIZE
            fresh = self._fresh(max(least, n - tail))
            self._buf = fresh if tail == 0 else np.concatenate((buf[pos:], fresh))
            self._pos = pos = 0
        return self._buf, pos

    def uniform01(self, size: int | None = None):
        """Uniform draw(s) on the open interval (0, 1)."""
        if size is None:
            buf, pos = self._buf, self._pos
            if pos >= buf.size:
                buf, pos = self.reserve(1)
            self._pos = pos + 1
            return buf.item(pos)
        out = np.empty(_count(size, "size"))
        for _ in self._fill(out, 0):
            pass
        return out

    def _fill(self, out: np.ndarray, start: int):
        """Copy the next uniforms into ``out[start:]``, one ``reserve`` of
        at most _BUFFER_SIZE at a time, yielding how far ``out`` is filled
        after each copy."""
        filled, size = start, out.size
        while filled < size:
            buf, pos = self.reserve(min(size - filled, _BUFFER_SIZE))
            take = min(size - filled, buf.size - pos)
            out[filled : filled + take] = buf[pos : pos + take]
            self._pos = pos + take
            filled += take
            yield filled

    # -- reading ahead -------------------------------------------------------

    def _drawn(self) -> int:
        """How many raws the generator has drawn: a Philox draws four per
        step of its counter and hands them out one by one."""
        state = self._bitgen.state
        counter = int.from_bytes(state["state"]["counter"].astype("<u8").tobytes(), "little")
        return 4 * counter + state["buffer_pos"] - 4

    def _philox_at(self, drawn: int):
        """A Philox keyed like this stream's, in the state this stream's
        would be in after drawing ``drawn`` raws."""
        bitgen = np.random.Philox(key=np.array([self.seed, self.stream_id], np.uint64))
        if drawn:
            bitgen.advance((drawn - 1) // 4)
            bitgen.random_raw((drawn - 1) % 4 + 1)
        return bitgen

    def _reader(self, k: int, spare: float | None = None) -> RngStream:
        """A copy of this stream that reads its uniforms from ``k`` past its
        read position on, with ``spare`` as its cached normal: it reads the
        rest of this stream's buffer, then a Philox positioned at the
        matching raw.  This stream is left as it is."""
        reader = copy.copy(self)
        start = self._pos + k
        reader._buf, reader._pos, reader.spare_normal = self._buf[start:], 0, spare
        reader._bitgen = self._philox_at(self._drawn() + max(0, start - self._buf.size))
        return reader

    def _move(self, reads, spare: float | None) -> None:
        """Leave this stream where ``_fill`` reads of each size in ``reads``,
        one after another, would, with ``spare`` as its cached normal.  The
        buffer size, read position and raws drawn follow from the fill rule
        (:func:`_after_read`); only the last buffer, at most twice
        _BUFFER_SIZE, is drawn, from a Philox positioned at its start."""
        size, pos, drawn = self._buf.size, self._pos, 0
        for n in reads:
            size, pos, fresh = _after_read(size, pos, n)
            drawn += fresh
        if drawn:
            bitgen = self._philox_at(self._drawn() + drawn - size)
            self._buf = _uniforms(bitgen.random_raw(size))
            self._bitgen.state = bitgen.state
        self._pos, self.spare_normal = pos, spare

    # -- normals (Box-Muller) ----------------------------------------------

    def standard_normal(self, size: int | None = None):
        """N(0,1) draw(s) via the Box-Muller transform.

        Pairs are generated from consecutive uniforms; the unused half of a
        pair is cached, so odd draw counts advance state deterministically
        and scalar/array call patterns yield the same sequence.  An array
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
        if not 0.0 < df < math.inf:
            raise ValueError(f"chi_squared requires 0 < df < inf, got {df}")
        if size is None:
            return 2.0 * self._gamma_unit_scale(0.5 * df)
        out = np.empty(_count(size, "size"))
        sections = _Sections(self)
        for rows, gammas in _gamma_blocks(0.5 * df, out.size, sections):
            np.multiply(gammas, 2.0, out=out[rows])
        sections.close()
        return out


class _Sections:
    """The sections of a whole-array draw from ``stream``, in the order the
    whole-array form reads them: each is read by its own reader, from the
    offset where the sections before it end, and :meth:`close` moves the
    stream past them all."""

    def __init__(self, stream: RngStream):
        self.stream, self.offset, self.reads = stream, 0, []
        self.spare = stream.spare_normal  # the normal cached where the next section starts

    def uniforms(self, n: int) -> RngStream:
        """A reader of the next ``n`` uniforms."""
        reader = self.stream._reader(self.offset)
        self.offset += n
        self.reads.append(n)
        return reader

    def normals(self, n: int) -> RngStream:
        """A reader of the next ``n`` normals, as ``standard_normal(n)``
        draws them: the cached normal first, then whole pairs, the odd
        one out of which is cached for the next section."""
        reader = self.stream._reader(self.offset, self.spare)
        if n:
            paired = n - (self.spare is not None)
            fill = paired + paired % 2
            if paired % 2:  # the other half of the last pair
                last = self.stream._reader(self.offset + fill - 2).standard_normal(2)
                self.spare = last.item(1)
            else:
                self.spare = None
            self.offset += fill
            self.reads.append(fill)
        return reader

    def close(self) -> None:
        self.stream._move(self.reads, self.spare)


# Not merged with RngStream._gamma_unit_scale: the scalar form skips the
# uniform when t <= 0, so the two forms consume the stream differently.
def _gamma_blocks(shape: float, count: int, sections: _Sections):
    """gamma(shape, scale=1) draws for ``count`` slots, as ``(rows, values)``
    for each slice ``rows`` of _BUFFER_SIZE slots.  Marsaglia-Tsang in
    waves: each wave draws one candidate per empty slot, its normals and
    then its uniforms (two sections), and its accepted candidates fill the
    next slots in order; shape < 1 first draws ``count`` boost uniforms (a
    section) and multiplies each accepted value by its slot's boost.  A
    wave's candidates are tested _BUFFER_SIZE at a time, as a block needs
    them."""
    boosts = None
    if shape < 1.0:
        boosts, power, shape = sections.uniforms(count), 1.0 / shape, shape + 1.0
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    accepted = left = 0  # candidates accepted so far, and left in this wave
    pending = np.empty(0)  # accepted values not yet in a block
    for start in range(0, count, _BUFFER_SIZE):
        out = np.empty(min(_BUFFER_SIZE, count - start))
        got = 0
        while got < out.size:
            if not pending.size:
                if not left:
                    left = count - accepted
                    xs, us = sections.normals(left), sections.uniforms(left)
                n = min(left, _BUFFER_SIZE)
                left -= n
                x = xs.standard_normal(n)
                t = 1.0 + c * x
                v = t * t * t
                with np.errstate(invalid="ignore"):  # log(v<=0) slots are rejected anyway
                    ok = (t > 0.0) & (np.log(us.uniform01(n)) < 0.5 * x * x + d - d * v + d * np.log(v))
                pending = d * v[ok]
                accepted += pending.size
            take = min(pending.size, out.size - got)
            out[got : got + take] = pending[:take]
            pending = pending[take:]
            got += take
        if boosts is not None:
            boost = boosts.uniform01(out.size)
            boost **= power
            out *= boost
        yield slice(start, start + out.size), out

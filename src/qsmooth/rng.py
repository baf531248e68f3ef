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
splitmix64 finalizer (see :func:`derive_stream_id`).
"""

from __future__ import annotations

import math

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF
_BUFFER_SIZE = 4096
# 2**-53; raw >> 11 keeps 53 bits, +0.5 centers in the cell so the open
# interval (0, 1) is hit by construction (never exactly 0 or 1).
_TO_UNIT = 2.0 ** -53


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
    ``(cell, rep, "sim-")`` never collide in practice.
    """
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        if isinstance(part, str):
            x = _fnv1a64(part.encode("utf-8"))
        else:
            x = int(part) & _U64
        acc = _splitmix64(acc ^ x)
    return acc


class RngStream:
    """One independently seeded random stream.

    A stream owns its state and must not be drawn from concurrently; it is
    cheap to construct, so give every replication/component its own.
    Identical ``(seed, stream_id)`` and an identical call pattern replay an
    identical variate sequence.  ``uniform01`` and ``standard_normal``
    additionally produce the *same* sequence whether drawn one at a time or
    as arrays; ``chi_squared`` array draws are a distinct (still
    deterministic) call pattern because rejection candidates are processed
    in vectorized waves.
    """

    __slots__ = ("seed", "stream_id", "_bitgen", "_buf", "_values", "_pos", "spare_normal")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed & _U64
        self.stream_id = stream_id & _U64
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)
        self._buf = np.empty(0)
        # the buffer as Python floats, built by the first scalar draw after
        # a refill: indexing a list is cheaper than float(self._buf[i])
        self._values: list[float] | None = None
        self._pos = 0
        # the unused half of the last Box-Muller pair, which the next normal
        # draw returns first (None when there is none); compiled loops take
        # it with the buffer and hand back the one they leave
        self.spare_normal: float | None = None

    # -- uniforms ----------------------------------------------------------

    def _fresh(self, count: int) -> np.ndarray:
        raw = self._bitgen.random_raw(count)
        return ((raw >> np.uint64(11)) + 0.5) * _TO_UNIT

    def reserve(self, n: int):
        """The buffer and read position, with at least ``n`` unread uniforms
        from there on, for a caller that reads them in place and then moves
        ``_pos`` past them.  A refill keeps the unread tail at the front of
        the new buffer, so the values keep their order."""
        pos = self._pos
        tail = self._buf.size - pos
        if tail < n:
            fresh = self._fresh(max(_BUFFER_SIZE, n - tail))
            self._buf = np.concatenate((self._buf[pos:], fresh))
            self._values = None
            self._pos = pos = 0
        return self._buf, pos

    def uniform01(self, size: int | None = None):
        """Uniform draw(s) on the open interval (0, 1)."""
        if size is None:
            pos = self._pos
            values = self._values
            if values is None or pos >= len(values):
                buf, pos = self.reserve(1)
                values = self._values = buf.tolist()
            self._pos = pos + 1
            return values[pos]
        out = np.empty(size)
        filled = 0
        while filled < size:
            buf, pos = self.reserve(1)
            take = min(size - filled, buf.size - pos)
            out[filled : filled + take] = buf[pos : pos + take]
            self._pos = pos + take
            filled += take
        return out

    # -- normals (Box-Muller) ----------------------------------------------

    def standard_normal(self, size: int | None = None):
        """N(0,1) draw(s) via the Box-Muller transform.

        Pairs are generated from consecutive uniforms; the unused half of a
        pair is cached, so odd draw counts advance state deterministically
        and scalar/array call patterns yield the same sequence.
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

        spare = self.spare_normal if size > 0 else None
        need = size if spare is None else size - 1
        u = self.uniform01(2 * ((need + 1) // 2))
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
            self.spare_normal = None
        out[size - need :] = z[:need]
        if need % 2 == 1:
            self.spare_normal = float(z[need])
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

    # Not merged with _gamma_unit_scale: the scalar form skips the uniform
    # when t <= 0, so the two forms consume the stream differently.
    def _gamma_unit_scale_array(self, shape: float, size: int):
        boost = None
        if shape < 1.0:
            boost = self.uniform01(size) ** (1.0 / shape)
            shape = shape + 1.0
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(size)
        filled = 0
        while filled < size:
            n = size - filled
            x = self.standard_normal(n)
            t = 1.0 + c * x
            v = t * t * t
            u = self.uniform01(n)
            with np.errstate(invalid="ignore"):  # log(v<=0) slots are rejected anyway
                ok = (t > 0.0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(v))
            acc = d * v[ok]
            out[filled : filled + acc.size] = acc
            filled += acc.size
        if boost is not None:
            out *= boost
        return out

    def chi_squared(self, df: float, size: int | None = None):
        """Chi-squared draw(s); df may be any finite real > 0 (at df = inf
        every rejection test reads inf - inf, and no candidate would ever be
        accepted)."""
        if not 0.0 < df < math.inf:
            raise ValueError(f"chi_squared requires 0 < df < inf, got {df}")
        if size is None:
            return 2.0 * self._gamma_unit_scale(0.5 * df)
        return 2.0 * self._gamma_unit_scale_array(0.5 * df, size)

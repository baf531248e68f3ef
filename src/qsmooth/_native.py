"""The compiled event loop behind ``QueueSimulator.observe``, and the
compiled outer loop of the optimizers over it.

``_mg1.c``, shipped beside this file, is compiled on the first call of
:func:`load`, which the first simulator makes; importing qsmooth compiles
nothing.  The build is cached in ``$XDG_CACHE_HOME/qsmooth`` (by default
``~/.cache/qsmooth``), a directory private to the user (mode 0700), under a
name keyed by the hash of the source and the compiler command, so a changed
source or flag never loads a stale build.  A build is written to a
temporary name and renamed into place, so processes that compile at once,
such as the workers of one pool, each load a complete library.  When the
library cannot be built or loaded, :func:`load` returns None and simulators
run the Python kernel, which gives the same numbers.

The outer loop (``sf_run``) calls numpy's own BLAS ``ddot`` wherever the
Python loop calls ``np.dot``; :func:`load` finds it in numpy's extension
module and checks it against ``np.dot``.  Where it is missing or
disagrees, optimizer runs take the Python loop, with the same numbers.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import hashlib
import math
import os
import re
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .rng import _BUFFER_SIZE, RngStream, box_muller_tables

_SOURCE = Path(__file__).with_name("_mg1.c")
# no FMA contraction: every product and sum rounds as it does in Python;
# sin and cos stay separate libm calls, as in Python, not one sincos
_CC = (
    "gcc", "-O2", "-ffp-contract=off", "-fno-builtin-sin", "-fno-builtin-cos",
    "-shared", "-fPIC",
)
_RING_SLOTS = 16  # initial entries per node queue; doubled when one fills


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base) / "qsmooth"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.stat()
    # a library is only loaded from a directory no one else can write to
    if info.st_uid != os.getuid() or info.st_mode & 0o077:
        raise PermissionError(f"{path} is not private to this user")
    return path


def _build(cache: Path) -> Path:
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(" ".join(_CC).encode() + b"\0" + source).hexdigest()[:16]
    target = cache / f"mg1-{key}.so"
    if target.exists():
        return target
    fd, tmp = tempfile.mkstemp(prefix=".mg1-", suffix=".so", dir=cache)
    os.close(fd)
    try:
        # compile the bytes just hashed, read from stdin
        subprocess.run(
            [*_CC, "-x", "c", "-o", tmp, "-"],
            input=source, check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
    return target


# a record member, `T name;`, `T *name;` or `T *name[N];` after an optional const
_MEMBER = re.compile(r"(?:const\s+)?(\w+)(?:\s+(\w+)|\s*(\*)\s*(\w+)(?:\[(\d+)\])?);")
_BY_VALUE = {
    "double": ctypes.c_double, "int64_t": ctypes.c_int64, "ddot_fn": ctypes.c_void_p,
    "next_fn": ctypes.c_void_p,
}


def _read_declarations(source: str) -> tuple[dict, dict]:
    """The ctypes ``_fields_`` of every ``typedef struct`` in the C
    ``source``, one member per line, and the value of every enum member,
    by name.  Raises ValueError, quoting the line, at a record line that is
    not one member of a form above, by value of a type in ``_BY_VALUE``."""
    # comments go, but their line breaks stay, so that no two lines join
    code = re.sub(r"/\*.*?\*/|//[^\n]*", lambda c: "\n" * c[0].count("\n"), source, flags=re.S)
    records = {}
    for body, name in re.findall(r"^typedef struct \{$(.*?)^\} (\w+);", code, flags=re.M | re.S):
        records[name] = fields = []
        for line in filter(None, map(str.strip, body.splitlines())):
            member = _MEMBER.fullmatch(line)
            kind = member and (ctypes.c_void_p if member[3] else _BY_VALUE.get(member[1]))
            if not kind:
                raise ValueError(f"{_SOURCE.name} cannot lay out {line!r} in {name}")
            fields.append((member[2] or member[4], kind * int(member[5]) if member[5] else kind))
    enums = re.findall(r"enum\s*\{([^}]*)\}", code)
    return records, {name.strip(): i for body in enums for i, name in enumerate(body.split(","))}


# read at import, so that the workers a pool forks share them; where _mg1.c
# cannot be read, load() cannot build it either and returns None
try:
    _RECORDS, _ENUM = _read_declarations(_SOURCE.read_text())
except OSError:
    _RECORDS, _ENUM = collections.defaultdict(list), collections.defaultdict(int)


class NativeState(ctypes.Structure):
    """The C kernel's state record, ``mg1_state``, laid out as ``_mg1.c``
    declares it.  It owns the arrays its pointers address."""

    _fields_ = _RECORDS["mg1_state"]

    def __init__(self, config, next_arrival):
        k = config.n_nodes
        super().__init__(k=k, cap=_RING_SLOTS, full=-1)
        self.arrays = {
            "rates": np.array(config.arrival_rates),
            "p_leave": np.array(config.p_leave),
            "fac": np.zeros(k),
            "serving": np.zeros(k),
            "comp": np.full(k, math.inf),
            "nxt": np.array(next_arrival, dtype=float),
            "ring": np.empty((k, _RING_SLOTS)),
            "head": np.zeros(k, dtype=np.int64),
            "len": np.zeros(k, dtype=np.int64),
            "costs": np.empty(128),
            "target": config.theta_target,
            "bounds": np.cumsum((0,) + config.dims, dtype=np.int64),
            "inv_r": np.array([inv_r for _, inv_r in config._node_blocks]),
            "diff": np.empty(config.total_dim),
        }
        for name, array in self.arrays.items():
            self.bind(name, array)

    def bind_generator(self, bitgen: np.random.Philox) -> None:
        """Let the loop refill its buffer from ``bitgen`` itself, into
        ``own``, ``rng._BUFFER_SIZE`` fresh uniforms at a time."""
        self.generator = bitgen  # kept alive while the loop draws from it
        interface = bitgen.ctypes
        self.bitgen = interface.state_address
        self.next_uint64 = ctypes.cast(interface.next_uint64, ctypes.c_void_p).value
        self.refill_size = _BUFFER_SIZE
        self.bind("own", np.empty(_BUFFER_SIZE + 2))  # + the unread tail, at most 2

    def bind(self, name: str, array: np.ndarray) -> None:
        """Point field ``name`` at ``array``, and keep the array alive."""
        self.arrays[name] = array
        setattr(self, name, array.ctypes.data)

    @property
    def completion_time(self) -> list[float]:
        return self.arrays["comp"].tolist()

    def grow_rings(self) -> None:
        """Double every node's ring, each queue's oldest entry first."""
        old, head = self.arrays["ring"], self.arrays["head"]
        ring = np.empty((self.k, 2 * self.cap))
        for i in range(self.k):
            ring[i, : self.cap] = np.roll(old[i], -int(head[i]))
        head[:] = 0
        self.bind("ring", ring)
        self.cap = 2 * self.cap


class _InPlaceReader:
    """For a compiled loop that reads a stream's buffer in place: hands the
    loop buffers with enough unread uniforms (through :meth:`_point_at`,
    which a subclass defines) and the stream the positions the loop
    reaches."""

    def _read_from(self, stream) -> None:
        self._stream = stream
        self._buf = None
        self._synced = 0  # the loop's position when the stream last heard of it

    def _reserve(self, pos: int, n: int) -> int:
        """Mark the uniforms read up to ``pos`` as drawn, and return the
        position from which the stream's buffer holds at least ``n`` unread
        ones."""
        self._sync_to(pos)
        buf, pos = self._stream.reserve(n)
        if buf is not self._buf:
            self._buf = buf
            self._point_at(buf)
        self._synced = pos
        return pos

    def _sync_to(self, pos: int) -> None:
        """Mark the uniforms read up to ``pos`` as drawn."""
        self._stream.advance(pos - self._synced)
        self._synced = pos


# the RngStream methods that the event loop's own refill stands in for
_COMPILED_REFILL = ("_fresh", "reserve", "advance")


def _refills_in_c(stream) -> bool:
    """Whether the event loop may refill ``stream``'s buffer itself: the
    stream's class keeps ``RngStream``'s refill (``_COMPILED_REFILL``) and
    its generator is a ``np.random.Philox``."""
    return all(
        getattr(type(stream), name, None) is getattr(RngStream, name) for name in _COMPILED_REFILL
    ) and type(getattr(stream, "_bitgen", None)) is np.random.Philox


class NativeKernel(_InPlaceReader):
    """Runs the compiled event loop over one :class:`NativeState`, reading
    uniforms straight from the stream's buffer, and refilling it from the
    stream's generator where :func:`_refills_in_c` allows.  A call reads its
    service factors from ``fac`` and leaves its costs at the front of
    ``costs``."""

    def __init__(self, lib, config, stream, next_arrival):
        self.state = NativeState(config, next_arrival)
        self.fac = self.state.arrays["fac"]
        self.costs = self.state.arrays["costs"]
        self._observe = lib.mg1_observe
        self._state_ref = ctypes.byref(self.state)
        self._read_from(stream)
        if _refills_in_c(stream):
            self.state.bind_generator(stream._bitgen)
        self._refills = 0  # the loop's refills the stream has taken

    def _point_at(self, buf: np.ndarray) -> None:
        self.state.u = buf.ctypes.data
        self.state.u_len = buf.size

    def hold(self, L: int) -> None:
        """Grow ``costs`` to hold ``L`` costs if need be."""
        if L > self.costs.size:
            self.costs = np.empty(L)
            self.state.bind("costs", self.costs)

    def refill(self) -> None:
        """Point the state at the stream's buffer, with at least 3 unread
        uniforms (the most one event draws) from its ``u_pos`` on."""
        self.state.u_pos = self._reserve(self.state.u_pos, 3)

    def sync(self) -> None:
        """Hand the stream where the loop stands: the uniforms read in place
        since the last refill, or, when the loop has refilled the buffer
        itself, a copy of that buffer and the position in it."""
        state = self.state
        if state.refills == self._refills:
            self._sync_to(state.u_pos)
            return
        self._refills = state.refills
        # what stream.reserve would have left, with the generator already
        # moved on by the loop's draws
        buf = state.arrays["own"][: state.u_len].copy()
        stream = self._stream
        stream._buf, stream._pos, stream._values = buf, state.u_pos, None
        self._buf, self._synced = buf, state.u_pos
        self._point_at(buf)

    def unblock(self) -> None:
        """Clear what stopped the loop: grow the rings if one was full,
        else refill (only a loop with no generator bound stops for
        that)."""
        if self.state.full >= 0:
            self.state.grow_rings()
        else:
            self.refill()

    def run(self, L: int) -> list[float]:
        """The costs of the next ``L`` service completions."""
        self.hold(L)
        self.state.done, self.state.want = 0, L
        self.refill()
        while self._observe(self._state_ref) < L:
            self.unblock()
        self.sync()
        return self.costs[:L].tolist()


# the compiled outer loop's record, laid out as _mg1.c declares sf_run_t
RunRecord = type("RunRecord", (ctypes.Structure,), {"_fields_": _RECORDS["sf_run_t"]})


class CompiledRun(_InPlaceReader):
    """One optimizer run in ``sf_run``.  Each simulator is a compiled
    kernel, which the loop runs itself, a quadratic cost's target (a
    contiguous float64 array of ``dim``), whose costs the loop computes,
    or None: one its caller observes.
    :meth:`resume` runs outer iterations until one of the stops its caller
    handles: ``OBSERVE`` (the caller is to observe the simulators in
    ``observing`` at their ``control`` rows of iteration ``n`` and write
    their costs into ``costs``), ``DONE``, ``RECORD`` (iteration ``n``
    ended at a trajectory point), ``DIVERGED`` (the fast iterate of
    iteration ``n``, now ``z``, failed the guard) or ``BAD_RHO`` (iteration
    ``n`` drew ``rho`` <= 0).  ``theta`` and ``z`` are the iterates so
    far.  The loop also hands the caller a kernel whose service factors are
    not all finite, whose own ``observe`` raises the error, and a quadratic
    whose cost is not finite, whose ``observe`` computes it with numpy's
    warnings."""

    DONE, RECORD, DIVERGED, BAD_RHO, OBSERVE, _PERTURBATION, _SIMULATOR = (
        _ENUM[f"SF_{name}"]  # sf_run's stop codes, by their names in _mg1.c
        for name in ("DONE", "RECORD", "DIVERGED", "BAD_RHO", "OBSERVE", "PERTURBATION",
                     "SIMULATOR")
    )

    def __init__(self, lib, sims, stream, theta, lower, upper, **constants):
        """``constants`` are the record's by field name."""
        dim, L = constants["dim"], constants["L"]
        self.theta = np.array(theta, dtype=float)
        self.z = np.zeros(dim)
        self._controls = np.empty((len(sims), dim))
        self._arrays = {
            "theta": self.theta,
            "z": self.z,
            "lower": np.ascontiguousarray(lower, dtype=float),
            "upper": np.ascontiguousarray(upper, dtype=float),
            **{name: np.empty(dim) for name in ("z_next", "eta", "coeff", "diff")},
            "controls": self._controls,
        }
        self._record = record = RunRecord(
            n_sims=len(sims), ddot=lib.ddot, **constants,
            **{name: array.ctypes.data for name, array in self._arrays.items()},
        )
        self._sims = sims  # the kernels, and the targets the loop reads, kept alive
        self._kernels = [sim for sim in sims if isinstance(sim, NativeKernel)]
        self.costs = []
        for i, sim in enumerate(sims):
            if isinstance(sim, NativeKernel):
                sim.hold(L)
                self.costs.append(sim.costs[:L])
                record.sims[i] = ctypes.addressof(sim.state)
            else:
                self.costs.append(np.empty(L))
                if sim is not None:
                    record.targets[i] = sim.ctypes.data
            record.costs[i] = self.costs[i].ctypes.data
        self._read_from(stream)
        self._run = lib.sf_run
        self._ref = ctypes.byref(record)

    @property
    def n(self) -> int:
        return self._record.n

    @property
    def rho(self) -> float:
        return self._record.rho

    @property
    def observing(self) -> range:
        """The simulators an ``OBSERVE`` stop hands the caller."""
        return range(self._record.stopped, self._record.phase - 1)

    def control(self, i: int) -> np.ndarray:
        """A fresh copy of simulator ``i``'s control in this iteration."""
        return self._controls[i].copy()

    def resume(self) -> int:
        """Runs from where every stream stands, and hands each stream back
        where the loop leaves it: the caller may draw from any of them
        between calls."""
        record = self._record
        self._read()
        try:
            while True:
                stop = self._run(self._ref)
                if stop == self._PERTURBATION:
                    self._refill_perturbations(record.need)
                elif stop == self._SIMULATOR:
                    self._sims[record.stopped].unblock()
                else:
                    return stop
        finally:
            self._sync()

    def _read(self) -> None:
        """Read where every stream stands, and the perturbation stream's
        cached normal."""
        record = self._record
        self._refill_perturbations(0)
        spare = self._stream.spare_normal
        record.has_spare, record.spare = spare is not None, 0.0 if spare is None else spare
        for kernel in self._kernels:
            kernel.refill()

    def _sync(self) -> None:
        """Hand every stream the positions, and the perturbation stream the
        cached normal, that the loop has reached."""
        record = self._record
        self._sync_to(record.u_pos)
        self._stream.spare_normal = record.spare if record.has_spare else None
        for kernel in self._kernels:
            kernel.sync()

    def _refill_perturbations(self, n: int) -> None:
        """Point the record at the perturbation stream's buffer, with at
        least ``n`` unread uniforms."""
        record = self._record
        record.u_pos = self._reserve(record.u_pos, n)

    def _point_at(self, buf: np.ndarray) -> None:
        """Point the record at a new buffer and at its Box-Muller tables."""
        record = self._record
        self._tables = tables = (buf, *box_muller_tables(buf))
        for name, array in zip(("u", "radius", "cosine", "sine"), tables):
            setattr(record, name, array.ctypes.data)
        record.u_len = buf.size


_DDOT = ctypes.CFUNCTYPE(
    ctypes.c_double, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
    ctypes.c_int64,
)


def _numpy_ddot() -> int | None:
    """The address of the ILP64 CBLAS ``ddot`` that ``np.dot`` calls, from
    the library numpy's extension module links; None where there is none."""
    try:
        from numpy._core import _multiarray_umath

        ddot = ctypes.CDLL(_multiarray_umath.__file__).scipy_cblas_ddot64_
    except (ImportError, OSError, AttributeError):
        return None
    return ctypes.cast(ddot, ctypes.c_void_p).value


def _checked_ddot() -> int | None:
    """:func:`_numpy_ddot`, if it gives ``np.dot``'s bits on vectors of
    every length from 1 to 32 (``np.dot`` adds its result to 0.0); None
    otherwise."""
    address = _numpy_ddot()
    if address is None:
        return None
    ddot = _DDOT(address)
    draws = np.random.default_rng(0)
    for n in range(1, 33):
        x, y = draws.standard_normal((2, n))
        got = np.float64(0.0 + ddot(n, x.ctypes.data, 1, y.ctypes.data, 1))
        if got.tobytes() != np.dot(x, y).tobytes():
            return None
    return address


@functools.cache
def load():
    """The compiled library (``mg1_observe`` and ``sf_run``), built on first
    use, with ``ddot`` set to numpy's checked BLAS ``ddot`` (None where
    there is none); None when the library cannot be built or loaded
    here."""
    try:
        lib = ctypes.CDLL(str(_build(_cache_dir())))
    except (OSError, subprocess.SubprocessError):
        return None
    lib.mg1_observe.argtypes = (ctypes.POINTER(NativeState),)
    lib.mg1_observe.restype = ctypes.c_int64
    lib.sf_run.argtypes = (ctypes.POINTER(RunRecord),)
    lib.sf_run.restype = ctypes.c_int64
    lib.ddot = _checked_ddot()
    return lib

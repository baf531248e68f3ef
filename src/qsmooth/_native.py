"""The compiled event loop behind ``QueueSimulator.observe``, and the
compiled outer loop of the optimizers over it.

``_mg1.c``, shipped beside this file, is compiled on the first call of
:func:`load`, which the first simulator makes; importing qsmooth compiles
nothing.  The build is cached in ``$XDG_CACHE_HOME/qsmooth`` (by default
``~/.cache/qsmooth``), a directory private to the user (mode 0700), under a
name keyed by the hash of the source and the compiler command, so a changed
source or flag never loads a stale build.  A build is written to a
temporary name and renamed into place, so processes that compile at once
each load a complete library.  When the library cannot be built or
loaded, :func:`load` returns None and simulators run the Python kernel,
which gives the same numbers.

The outer loop (``sf_run``) calls numpy's own BLAS ``ddot`` wherever the
Python loop calls ``np.dot`` and numpy's own float64 ``log`` loop wherever
``RngStream.standard_normal(size)`` calls ``np.log``; where it calls
``np.cos`` and ``np.sin``, ``sf_run`` calls libm's ``cos`` and ``sin``,
which numpy's float64 ``cos`` and ``sin`` are: only the logarithm is
numpy's own.  :func:`load` finds ``ddot`` in numpy's extension module and
the ``log`` loop through the ufunc's ``_resolve_dtypes_and_context`` and
``_get_strided_loop`` (NEP 43), checks each against numpy itself, and
checks ``np.cos`` and ``np.sin`` against libm's (``math.cos`` and
``math.sin``): a loop that asks for the Python API, or any code that gives
other bits than numpy, is refused.  Where one is missing or refused,
:func:`load` warns, naming the check, and optimizer runs take the Python
loop, with the same numbers.  Both loops read a stream's own buffer,
which :func:`_attach` binds once, and refill it in place from the
stream's generator when they find it read to its end, as
``RngStream._refill`` does; so they read only a stream that
:func:`_refills_in_c` allows: a simulator on any other runs the Python
kernel, and a run with any other perturbation stream the Python loop.
:func:`_hand_in` and :func:`_hand_back` pass each stream's position and
cached normal to its record and back.  A simulator's compiled kernel,
:class:`NativeKernel`, is itself the ``mg1_state`` record.
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
import warnings
from pathlib import Path

import numpy as np

from .rng import RngStream

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
    "next_fn": ctypes.c_void_p, "loop_fn": ctypes.c_void_p,
}


def _read_declarations(source: str) -> tuple[dict, dict]:
    """A ctypes ``Structure`` for every ``typedef struct`` in the C
    ``source``, one member per line, and the value of every enum member,
    by name.  A member held by value is of a type in ``_BY_VALUE`` or a
    record declared before it, whose members the outer record then has as
    its own (ctypes' ``_anonymous_``).  Raises ValueError, quoting the
    line, at a record line that is not one member of a form above."""
    # comments go, but their line breaks stay, so that no two lines join
    code = re.sub(r"/\*.*?\*/|//[^\n]*", lambda c: "\n" * c[0].count("\n"), source, flags=re.S)
    records = {}
    for body, name in re.findall(r"^typedef struct \{$(.*?)^\} (\w+);", code, flags=re.M | re.S):
        fields, held = [], []
        for line in filter(None, map(str.strip, body.splitlines())):
            member = _MEMBER.fullmatch(line)
            kind = member and (
                ctypes.c_void_p if member[3] else _BY_VALUE.get(member[1], records.get(member[1]))
            )
            if not kind:
                raise ValueError(f"{_SOURCE.name} cannot lay out {line!r} in {name}")
            fields.append((member[2] or member[4], kind * int(member[5]) if member[5] else kind))
            if member[1] in records and not member[3]:
                held.append(member[2])
        records[name] = type(name, (ctypes.Structure,), {"_anonymous_": held, "_fields_": fields})
    enums = re.findall(r"enum\s*\{([^}]*)\}", code)
    return records, {name.strip(): i for body in enums for i, name in enumerate(body.split(","))}


# read once, at import; where _mg1.c cannot be read, load() cannot build it
# either and returns None
try:
    _RECORDS, _ENUM = _read_declarations(_SOURCE.read_text())
except OSError:
    _RECORDS = collections.defaultdict(lambda: type("Unread", (ctypes.Structure,), {}))
    _ENUM = collections.defaultdict(int)


def _blocks(floats: dict, ints: dict) -> tuple[dict, dict]:
    """A zeroed array of each size in ``floats``, by name, as views of one
    float64 block, and of each in ``ints`` as views of one int64 block; and
    the address of each, by name, from its block's one ``.ctypes`` access
    (about 2 µs each)."""
    arrays, addresses = {}, {}
    for sizes, dtype in ((floats, np.float64), (ints, np.int64)):
        if not sizes:
            continue
        block = np.zeros(sum(sizes.values()), dtype)
        address, start = block.ctypes.data, 0
        for name, size in sizes.items():
            arrays[name] = block[start : start + size]
            addresses[name] = address + 8 * start
            start += size
    return arrays, addresses


class NativeKernel(_RECORDS["mg1_state"]):
    """The compiled event loop over one network, and its state: the C
    kernel's record ``mg1_state``, laid out as ``_mg1.c`` declares it.  It
    owns the arrays its pointers address and reads uniforms straight from
    the buffer of ``rng_stream`` (``stream`` is the record's ``stream_t``).
    A call reads its service factors from ``factors`` and leaves its costs
    at the front of ``arrays["costs"]``.  Nothing it holds refers back to
    it, so reference counting alone frees it."""

    def __init__(self, lib, config, stream, next_arrival):
        k, dim = config.n_nodes, config.total_dim
        arrays, addresses = _blocks(
            {
                **dict.fromkeys(("rates", "p_leave", "fac", "serving", "comp", "nxt", "inv_r"), k),
                "ring": k * _RING_SLOTS, "costs": 128, "target": dim, "diff": dim,
            },
            {"head": k, "len": k, "bounds": k + 1},
        )
        super().__init__(k=k, cap=_RING_SLOTS, full=-1, **addresses)
        self.arrays = arrays
        arrays["rates"][:] = config.arrival_rates
        arrays["p_leave"][:] = config.p_leave
        arrays["comp"][:] = math.inf
        arrays["nxt"][:] = next_arrival
        arrays["inv_r"][:] = [inv_r for _, inv_r in config._node_blocks]
        arrays["ring"] = arrays["ring"].reshape(k, _RING_SLOTS)
        arrays["target"][:] = config.theta_target
        arrays["bounds"][1:] = [block.stop for block, _ in config._node_blocks]
        self.factors = arrays["fac"]
        self._observe = lib.mg1_observe
        self.rng_stream = stream
        _attach(self, stream)

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

    def hold(self, L: int) -> None:
        """Grow ``arrays["costs"]`` to hold ``L`` costs if need be."""
        if L > self.arrays["costs"].size:
            self.bind("costs", np.empty(L))

    def run(self, L: int) -> list[float]:
        """The costs of the next ``L`` service completions."""
        self.hold(L)
        self.done, self.want = 0, L
        _hand_in(self, self.rng_stream)
        while self._observe(self) < L:  # a ring is full
            self.grow_rings()
        _hand_back(self, self.rng_stream)
        return self.arrays["costs"][:L].tolist()


# the RngStream methods that compiled code stands in for: the draws that
# sf_run computes, and the refill that both loops make themselves
_COMPILED_DRAWS = ("standard_normal", "chi_squared", "_gamma_unit_scale")
_COMPILED_REFILL = ("_fresh", "_refill")


def _refills_in_c(stream) -> bool:
    """Whether compiled code may read ``stream``, the one rule for it: an
    ``RngStream`` whose class keeps ``RngStream``'s ``_COMPILED_DRAWS`` and
    ``_COMPILED_REFILL``, and whose generator is a ``np.random.Philox``."""
    kind = type(stream)
    return (kind is RngStream or issubclass(kind, RngStream) and all(
        getattr(kind, name) is getattr(RngStream, name)
        for name in _COMPILED_DRAWS + _COMPILED_REFILL
    )) and type(getattr(stream, "_bitgen", None)) is np.random.Philox


# numpy's bitgen_t, as far as sf_run and mg1_observe call it, behind the
# capsule of every numpy bit generator
class _BitGen(ctypes.Structure):
    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", ctypes.c_void_p)]


def _attach(record, stream) -> None:
    """Bind ``record``'s ``stream_t`` to ``stream``'s buffer, which the
    stream keeps for life, and to its generator, from which the loop
    refills that buffer in place.  Raises ValueError for a stream that
    :func:`_refills_in_c` refuses."""
    if not _refills_in_c(stream):
        raise ValueError("compiled code reads only a stream that _refills_in_c allows")
    record.arrays.update(bitgen=stream._bitgen, u=stream._buf)
    record.u, record.u_len = stream._buf.ctypes.data, stream._buf.size
    bitgen = _BitGen.from_address(_CAPSULE_POINTER(stream._bitgen.capsule, b"BitGenerator"))
    record.bitgen, record.next_uint64 = bitgen.state, bitgen.next_uint64


def _hand_in(record, stream) -> None:
    """Hand ``record``'s ``stream_t`` where ``stream`` stands: its position
    and its cached normal."""
    record.u_pos = stream._pos
    spare = stream.spare_normal
    record.has_spare, record.spare = spare is not None, 0.0 if spare is None else spare


def _hand_back(record, stream) -> None:
    """Hand ``stream`` where the loop left ``record``'s ``stream_t``: its
    position and its cached normal."""
    stream._pos = record.u_pos
    stream.spare_normal = record.spare if record.has_spare else None


# the compiled outer loop's record, laid out as _mg1.c declares sf_run_t
RunRecord = _RECORDS["sf_run_t"]


class CompiledRun:
    """One optimizer run in ``sf_run``.  Each simulator is a
    :class:`NativeKernel`, which the loop binds and runs itself, a
    quadratic cost's target (a contiguous float64 array of ``dim``), whose
    costs the loop computes, or None: one its caller observes.  Every stream it reads is one that
    :func:`_refills_in_c` allows.  :meth:`resume` runs outer iterations
    until one of the stops its caller handles: ``OBSERVE`` (the caller is to observe the simulators in
    ``observing`` at their ``control`` rows of iteration ``n`` and write
    their costs into ``costs``), ``DONE``, ``RECORD`` (iteration ``n``
    ended at a trajectory point), ``DIVERGED`` (the fast iterate of
    iteration ``n``, now ``z``, failed the guard) or ``BAD_RHO`` (iteration
    ``n`` drew ``rho`` <= 0).  ``theta`` and ``z`` are the iterates so
    far.  The loop also hands the caller a kernel whose service factors are
    not all finite, whose own ``observe`` raises the error, and a quadratic
    whose cost is not finite, whose ``observe`` computes it with numpy's
    warnings."""

    DONE, RECORD, DIVERGED, BAD_RHO, OBSERVE, _SIMULATOR = (
        _ENUM[f"SF_{name}"]  # sf_run's stop codes, by their names in _mg1.c
        for name in ("DONE", "RECORD", "DIVERGED", "BAD_RHO", "OBSERVE", "SIMULATOR")
    )

    def __init__(self, lib, sims, stream, theta, lower, upper, **constants):
        """``constants`` are the record's by field name."""
        dim, L, n_sims = constants["dim"], constants["L"], len(sims)
        pairs = (dim + 1) // 2  # the most Box-Muller pairs one draw takes
        # the costs of the simulators the loop does not run are laid out
        # too, though they are no field of the record
        observed = [i for i, sim in enumerate(sims) if not isinstance(sim, NativeKernel)]
        arrays, addresses = _blocks({
            **dict.fromkeys(("theta", "z", "lower", "upper", "z_next", "eta", "coeff", "diff"), dim),
            "controls": n_sims * dim,
            "uniforms": 2 * pairs,
            "logs": pairs,
            **{f"costs{i}": L for i in observed},
        }, {})
        costs = {i: addresses.pop(f"costs{i}") for i in observed}
        self._record = record = RunRecord(
            n_sims=n_sims, ddot=lib.ddot, **constants,
            **{f"{name}_loop": ctypes.addressof(loop) for name, loop in lib.loops.items()},
            **addresses,
        )
        record.arrays = self._arrays = arrays
        self.theta, self.z = arrays["theta"], arrays["z"]
        self.theta[:] = theta
        arrays["lower"][:], arrays["upper"][:] = lower, upper
        self._controls = arrays["controls"] = arrays["controls"].reshape(n_sims, dim)
        _attach(record, stream)
        self._streams = [(record, stream)]  # every stream the loop reads, and its record
        self._sims = sims  # the kernels, and the targets the loop reads, kept alive
        self.costs = []
        for i, sim in enumerate(sims):
            if isinstance(sim, NativeKernel):
                sim.hold(L)
                self.costs.append(sim.arrays["costs"][:L])
                record.sims[i] = ctypes.addressof(sim)
                record.costs[i] = sim.costs
                self._streams.append((sim, sim.rng_stream))
            else:
                self.costs.append(arrays[f"costs{i}"])
                record.costs[i] = costs[i]
                if sim is not None:
                    record.targets[i] = sim.ctypes.data
        self._run = lib.sf_run

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
        for reader, stream in self._streams:
            _hand_in(reader, stream)
        try:
            while (stop := self._run(record)) == self._SIMULATOR:  # a ring is full
                self._sims[record.stopped].grow_rings()
            return stop
        finally:
            for reader, stream in self._streams:
                _hand_back(reader, stream)


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


class _Refused(Exception):
    """A check of the code ``sf_run`` calls in numpy's place failed; the
    message names the check."""


def _checked_ddot() -> int:
    """:func:`_numpy_ddot`, checked to give ``np.dot``'s bits on vectors of
    every length from 1 to 32 (``np.dot`` adds its result to 0.0).  Raises
    :class:`_Refused` where there is none or it fails the check."""
    address = _numpy_ddot()
    if address is None:
        raise _Refused("numpy's BLAS ddot was not found")
    ddot = _DDOT(address)
    draws = np.random.default_rng(0)
    for n in range(1, 33):
        x, y = draws.standard_normal((2, n))
        got = np.float64(0.0 + ddot(n, x.ctypes.data, 1, y.ctypes.data, 1))
        if got.tobytes() != np.dot(x, y).tobytes():
            raise _Refused("numpy's BLAS ddot gives other bits than np.dot")
    return address


# numpy's ufunc_call_info (NEP 43), behind the capsule that a ufunc's
# private _get_strided_loop fills
class _CallInfo(ctypes.Structure):
    _fields_ = [("loop", ctypes.c_void_p), ("context", ctypes.c_void_p),
                ("auxdata", ctypes.c_void_p), ("flags", ctypes.c_int)]


_CALL_INFO = b"numpy_1.24_ufunc_call_info"
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)
_REQUIRES_PYAPI = 1  # NPY_METH_REQUIRES_PYAPI
_LOOP = ctypes.CFUNCTYPE(ctypes.c_int, *[ctypes.c_void_p] * 5)
# the ufuncs sf_run calls, and the input step, in doubles, at which it
# calls each: the Box-Muller logarithms read every other uniform
_UFUNCS = {"log": (np.log, 2)}
# the ufuncs sf_run calls libm's function for, which Python's math wraps
_LIBM = {np.cos: math.cos, np.sin: math.sin}
UfuncLoop = _RECORDS["ufunc_loop_t"]


def _numpy_loop(ufunc, step: int):
    """``ufunc``'s float64 loop for input stride ``step`` doubles and output
    stride 1, as a :class:`UfuncLoop` that keeps numpy's capsule alive, and
    numpy's flags for it; None where numpy gives none."""
    f8 = np.dtype(np.float64)
    try:
        _, capsule = ufunc._resolve_dtypes_and_context((f8, f8))
        ufunc._get_strided_loop(capsule, fixed_strides=(8 * step, 8))
        info = _CallInfo.from_address(_CAPSULE_POINTER(capsule, _CALL_INFO))
    except (AttributeError, TypeError, ValueError):
        return None
    loop = UfuncLoop(loop=info.loop, context=info.context, auxdata=info.auxdata)
    loop.capsule = capsule  # owns the context and auxdata
    return loop, info.flags


def _gives_the_ufunc(loop, ufunc, step: int, values: np.ndarray) -> bool:
    """Whether ``loop``, called as sf_run calls it, gives ``ufunc``'s bits
    at every length from 1 to 64 and at 4096, read and written at byte
    offsets 0 to 56 apart from one array's start, on ``values``, at least
    ``step * 4096 + 16`` of them."""
    got = np.empty(4096 + 8)
    call = _LOOP(loop.loop)
    dimension = (ctypes.c_ssize_t * 1)()
    strides = (ctypes.c_ssize_t * 2)(8 * step, 8)
    data = (ctypes.c_void_p * 2)()
    starts = values.ctypes.data, got.ctypes.data
    for n in (*range(1, 65), 4096):
        first, at = n % 8, 7 - n % 8  # the input's and the output's offsets
        data[:] = starts[0] + 8 * first, starts[1] + 8 * at
        dimension[0] = n
        if call(loop.context, data, dimension, strides, loop.auxdata) != 0:
            return False
        want = ufunc(values[first : first + step * n : step])
        if got[at : at + n].tobytes() != want.tobytes():
            return False
    return True


def _numpy_is_libm(angles: np.ndarray) -> bool:
    """Whether each ufunc of ``_LIBM`` gives its libm function's bits on
    every one of ``angles``."""
    listed = angles.tolist()
    return all(
        ufunc(angles).tobytes() == np.fromiter(map(libm, listed), float, len(listed)).tobytes()
        for ufunc, libm in _LIBM.items()
    )


def _checked_loops() -> dict:
    """The loops of ``_UFUNCS`` by name, each from :func:`_numpy_loop` and
    checked by :func:`_gives_the_ufunc` on a stream's uniforms, once the
    ufuncs of ``_LIBM`` give libm's bits on the angles 2 pi u of 2048 of
    them (about 0.4 ms).  Raises :class:`_Refused` where a ufunc is not
    libm's, or a loop is missing, asks for the Python API (sf_run holds no
    GIL) or fails its check."""
    uniforms = RngStream(0).uniform01(2 * 4096 + 16)
    if not _numpy_is_libm(uniforms[1:4096:2] * (2.0 * np.pi)):
        raise _Refused("np.cos or np.sin gives other bits than libm's cos and sin")
    loops = {}
    for name, (ufunc, step) in _UFUNCS.items():
        found = _numpy_loop(ufunc, step)
        if found is None:
            raise _Refused(f"numpy's float64 {name} loop was not found")
        loop, flags = found
        if flags & _REQUIRES_PYAPI:
            raise _Refused(f"numpy's float64 {name} loop needs the Python API")
        if not _gives_the_ufunc(loop, ufunc, step, uniforms):
            raise _Refused(f"numpy's float64 {name} loop gives other bits than np.{name}")
        loops[name] = loop
    return loops


@functools.cache
def load():
    """The compiled library (``mg1_observe`` and ``sf_run``), built on first
    use, with ``ddot`` set to numpy's checked BLAS ``ddot`` and ``loops``
    to numpy's checked ``log`` loop, once ``np.cos`` and ``np.sin`` check
    out as libm's; None when the library cannot be built or loaded here.
    Where a check fails, ``ddot`` and ``loops`` are None and it warns,
    naming the check: optimizer runs then take the Python loop."""
    try:
        lib = ctypes.CDLL(str(_build(_cache_dir())))
    except (OSError, subprocess.SubprocessError):
        return None
    # a record passed where a POINTER is named goes by reference
    lib.mg1_observe.argtypes = (ctypes.POINTER(NativeKernel),)
    lib.mg1_observe.restype = ctypes.c_int64
    lib.sf_run.argtypes = (ctypes.POINTER(RunRecord),)
    lib.sf_run.restype = ctypes.c_int64
    try:
        lib.ddot, lib.loops = _checked_ddot(), _checked_loops()
    except _Refused as refused:
        lib.ddot = lib.loops = None
        warnings.warn(
            f"{refused}: qsmooth's optimizer runs take the Python loop, with the same numbers"
            " but several times slower", RuntimeWarning, stacklevel=2,
        )
    return lib

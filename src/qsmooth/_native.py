"""The compiled event loop behind ``QueueSimulator.observe``.

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
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_mg1.c")
# no FMA contraction: every product and sum rounds as it does in Python
_CC = ("gcc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
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


class NativeState(ctypes.Structure):
    """The C kernel's state record (``mg1_state`` in ``_mg1.c``, field for
    field).  It owns the arrays its pointers address."""

    _fields_ = [
        ("clock", ctypes.c_double),
        ("entry_sum", ctypes.c_double),
        ("n_present", ctypes.c_int64),
        ("arrivals_seen", ctypes.c_int64),
        ("departures_seen", ctypes.c_int64),
        ("k", ctypes.c_int64),
        ("cap", ctypes.c_int64),
        ("full", ctypes.c_int64),
        ("done", ctypes.c_int64),
        ("want", ctypes.c_int64),
        ("u_pos", ctypes.c_int64),
        ("u_len", ctypes.c_int64),
        ("u", ctypes.c_void_p),
        ("rates", ctypes.c_void_p),
        ("p_leave", ctypes.c_void_p),
        ("fac", ctypes.c_void_p),
        ("serving", ctypes.c_void_p),
        ("comp", ctypes.c_void_p),
        ("nxt", ctypes.c_void_p),
        ("ring", ctypes.c_void_p),
        ("head", ctypes.c_void_p),
        ("len", ctypes.c_void_p),
        ("costs", ctypes.c_void_p),
    ]

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
        }
        for name, array in self.arrays.items():
            self.bind(name, array)

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


class NativeKernel:
    """Runs the compiled event loop over one :class:`NativeState`, reading
    uniforms straight from the stream's buffer.  A call reads its service
    factors from ``fac`` and leaves its costs at the front of ``costs``."""

    def __init__(self, lib, config, stream, next_arrival):
        self.state = NativeState(config, next_arrival)
        self.fac = self.state.arrays["fac"]
        self.costs = self.state.arrays["costs"]
        self._observe = lib.mg1_observe
        self._state_ref = ctypes.byref(self.state)
        self._stream = stream
        self._buf = None

    def cost_buffer(self, L: int) -> np.ndarray:
        """``costs``, grown to hold ``L`` costs if need be."""
        if L > self.costs.size:
            self.costs = np.empty(L)
            self.state.bind("costs", self.costs)
        return self.costs

    def fill(self, L: int) -> None:
        """Run through the next ``L`` service completions; their costs are
        ``costs[:L]`` until the next call."""
        self.cost_buffer(L)
        state = self.state
        state.done = 0
        state.want = L
        stream = self._stream
        while True:
            buf, pos = stream.reserve(3)
            if buf is not self._buf:
                self._buf = buf
                state.u = buf.ctypes.data
                state.u_len = buf.size
            state.u_pos = pos
            done = self._observe(self._state_ref)
            stream.advance(state.u_pos - pos)
            if done >= L:
                return
            if state.full >= 0:
                state.grow_rings()

    def run(self, L: int) -> list[float]:
        self.fill(L)
        return self.costs[:L].tolist()


class FoldArgs(ctypes.Structure):
    """The compiled fold's argument record (``mg1_fold_args`` in
    ``_mg1.c``, field for field)."""

    _fields_ = [
        ("plus", ctypes.c_void_p),
        ("minus", ctypes.c_void_p),
        ("L", ctypes.c_int64),
        ("one_minus_b", ctypes.c_double),
        ("b", ctypes.c_double),
    ]


class Fold:
    """The compiled fold (``mg1_fold`` in ``_mg1.c``) over the cost buffers
    of one or two simulations, bound once: ``fold(one_minus_b, b)`` returns
    s = (1-b) s + b h_m folded over m = 0..L-1 from s = 0, with h_m the
    (+) cost minus the (-) cost, or the one simulation's cost."""

    def __init__(self, lib, buffers, L: int):
        plus, *minus = buffers
        self._args = FoldArgs(
            plus=plus.ctypes.data, minus=minus[0].ctypes.data if minus else None, L=L
        )
        self._buffers = buffers  # keeps the addressed arrays alive
        self._fold = lib.mg1_fold
        self._ref = ctypes.byref(self._args)

    def __call__(self, one_minus_b: float, b: float) -> float:
        args = self._args
        args.one_minus_b = one_minus_b
        args.b = b
        return self._fold(self._ref)


def compiled_fold(sims, L: int) -> Fold | None:
    """A :class:`Fold` over ``sims`` when each one keeps its costs in a
    compiled kernel's buffer (``sim.cost_buffer(L)`` is not None, and
    ``sim.observe_in_place`` fills it); None otherwise."""
    buffers = [sim.cost_buffer(L) if hasattr(sim, "cost_buffer") else None for sim in sims]
    lib = load() if all(buf is not None for buf in buffers) else None
    return None if lib is None else Fold(lib, buffers, L)


@functools.cache
def load():
    """The compiled library (``mg1_observe`` and ``mg1_fold``), built on
    first use; None when it cannot be built or loaded here."""
    try:
        lib = ctypes.CDLL(str(_build(_cache_dir())))
    except (OSError, subprocess.SubprocessError):
        return None
    lib.mg1_observe.argtypes = (ctypes.POINTER(NativeState),)
    lib.mg1_observe.restype = ctypes.c_int64
    lib.mg1_fold.argtypes = (ctypes.POINTER(FoldArgs),)
    lib.mg1_fold.restype = ctypes.c_double
    return lib

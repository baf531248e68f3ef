"""Experiment runner: grids of (q, beta) cells over the queueing benchmark,
with seeded independent replications and CSV/table output.

Seed derivation is fixed so a config file alone reproduces every number:
replication r of grid cell i (row-major over q_grid x beta_grid) draws its
perturbations from ``RngStream(base_seed, derive_stream_id(base_seed, i, r,
"perturbation"))`` and its simulator(s) from the same rule with tags
``"sim+"`` / ``"sim-"``.  With ``common_random_numbers`` enabled the two
simulators of the two-simulation algorithm share the ``"sim+"`` stream id.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import _native
from .optimizer import (
    BoxConstraint,
    DivergenceError,
    RunResult,
    SimulationError,
    StepSchedule,
    _check_run_args,
    run_gqsf1,
    run_gqsf2,
)
from .qgaussian import QKernel
from .queueing import QueueNetworkConfig, equal_by_value, make_simulator, preset, preset_names
from .rng import RngStream, _count, _real, _reals, derive_stream_id
from .smoothing import InvalidRhoError

ALGORITHMS = ("gqsf1", "gqsf2")

# what a replication may raise without aborting its grid
REPLICATION_ERRORS = (DivergenceError, SimulationError, InvalidRhoError)


class ConfigError(ValueError):
    """The experiment description is malformed or inconsistent."""


@contextlib.contextmanager
def _config_errors():
    """Each ValueError of the block, or of the function it decorates, as a
    ConfigError with its text; a ConfigError passes through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from None


@_config_errors()
def resolve_q(value: float | str, dim: int) -> float:
    """Resolve a grid entry to a shape value: a number, or the alias
    'gaussian' -> 1 or 'cauchy' -> 1 + 2/(N+1); a number in a string is
    no number, as for every other field."""
    if isinstance(value, str):
        name = value.strip().lower()
        if name == "gaussian":
            return 1.0
        if name == "cauchy":
            return 1.0 + 2.0 / (dim + 1)
        raise ConfigError(f"unknown q alias {value!r} (use a number, 'gaussian' or 'cauchy')")
    return _real(value, "q")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A grid of seeded replications.  Fields arrive as JSON values; every
    check on a value runs from here, and every default lives here."""

    algorithm: str
    q_grid: tuple
    beta_grid: tuple
    M: int
    base_seed: int
    system: QueueNetworkConfig
    box: BoxConstraint
    theta0: np.ndarray
    gamma: float = 0.75
    L: int = 100
    replications: int = 20
    common_random_numbers: bool = False

    @_config_errors()
    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}")
        if not isinstance(self.common_random_numbers, bool):
            raise ConfigError("common_random_numbers must be true or false")
        grids = (self.q_grid, self.beta_grid)
        if not all(isinstance(g, (list, tuple)) and g for g in grids):
            raise ConfigError("q_grid and beta_grid must be non-empty lists")
        dim = self.system.total_dim
        resolved = {
            "replications": _count(self.replications, "replications", 1),
            "base_seed": _count(self.base_seed, "base_seed", None),
            "gamma": _real(self.gamma, "gamma"),
            "q_grid": tuple(resolve_q(q, dim) for q in self.q_grid),
            "beta_grid": tuple(_real(b, "beta") for b in self.beta_grid),
            "theta0": _reals(self.theta0, "theta0"),
        }
        for name, value in resolved.items():
            object.__setattr__(self, name, value)
        # the schedule, the kernel and the optimizer own the gamma, beta and
        # q domains, the box and theta0 dimensions, and the M and L domain
        StepSchedule(self.gamma)
        for q, beta in self.cells():
            _check_run_args(QKernel(q, beta, dim), self.box, self.theta0, self.M, self.L, 0)
        # an unstable network's queues grow until the run fails mid-grid
        load = self.system.worst_utilisation(self.box.lower, self.box.upper)
        if not np.all(load < 1.0):
            raise ConfigError(
                f"unstable network: worst-case utilisation {load.max():.3g} >= 1 "
                "at a corner of the box"
            )

    __eq__ = equal_by_value

    def cells(self) -> list[tuple[float, float]]:
        """Grid order: q outer, beta inner."""
        return list(itertools.product(self.q_grid, self.beta_grid))


@dataclass(frozen=True)
class CellResult:
    algorithm: str
    q: float
    beta: float
    gamma: float
    M: int
    L: int
    replications: int
    mean_distance: float
    std_distance: float
    distances: tuple
    failures: int
    seconds: float
    errors: tuple = ()  # one reason per failed replication, in order


# -- config ingestion --------------------------------------------------------

def _as_vector(value, dim: int, name: str) -> np.ndarray:
    """A number, or a list of ``dim`` numbers, as a length-``dim`` vector;
    each entry is checked as every scalar field is (``_reals``)."""
    vector = np.array(_reals(value, name))  # a copy of a preset's array
    if vector.ndim == 0:
        return np.full(dim, vector)
    if vector.shape != (dim,):
        raise ConfigError(f"{name} must be a scalar or a length-{dim} list")
    return vector


def _system_fields(data: dict) -> dict:
    """The ``system``, ``box`` and ``theta0`` objects a config names; a
    preset supplies its own box and theta0 unless the config gives them."""
    spec = data["system"]
    if isinstance(spec, str):
        try:
            loaded = preset(spec)
        except KeyError as err:
            raise ConfigError(str(err)) from None
        network = loaded.network
        box = {"lower": loaded.box_lower, "upper": loaded.box_upper}
        data = {"box": box, "theta0": loaded.theta0, **data}
    elif isinstance(spec, dict):
        unknown = set(spec) - {f.name for f in fields(QueueNetworkConfig)}
        if unknown:
            raise ConfigError(f"unknown system fields: {sorted(unknown, key=str)}")

        def entries(key):
            values = spec[key]
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"system.{key} must be a list, got {values!r}")
            return tuple(values)

        try:
            # checked before theta_target is sized from them
            dims = tuple(_count(d, "system.dims entry", 1) for d in entries("dims"))
            target = _as_vector(spec["theta_target"], sum(dims), "theta_target")
            network = QueueNetworkConfig(
                arrival_rates=entries("arrival_rates"),
                p_leave=entries("p_leave"),
                service_constants=entries("service_constants"),
                dims=dims,
                theta_target=target,
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"bad inline system: {err}") from None
    else:
        raise ConfigError(
            f"system must be a preset name {preset_names()} or an inline object"
        )

    dim = network.total_dim
    objects = {"system": network}
    box_spec = data.get("box")
    if box_spec is not None:
        if not isinstance(box_spec, dict) or set(box_spec) != {"lower", "upper"}:
            raise ConfigError("box must be an object with 'lower' and 'upper'")
        objects["box"] = BoxConstraint(
            _as_vector(box_spec["lower"], dim, "box.lower"),
            _as_vector(box_spec["upper"], dim, "box.upper"),
        )
    theta0 = data.get("theta0")
    if theta0 is not None:
        objects["theta0"] = _as_vector(theta0, dim, "theta0")
    return objects


@_config_errors()
def config_from_dict(data: dict) -> ExperimentConfig:
    """Map the JSON file schema onto :class:`ExperimentConfig`, which
    validates every value and holds every default."""
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a JSON object")
    known = fields(ExperimentConfig)
    unknown = set(data) - {f.name for f in known}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown, key=str)}")
    kwargs = {k: v for k, v in data.items() if k not in ("system", "box", "theta0")}
    if "system" in data:
        kwargs.update(_system_fields(data))
    missing = {f.name for f in known if f.default is MISSING} - set(kwargs)
    if missing:
        raise ConfigError(f"missing config fields: {sorted(missing)}")
    return ExperimentConfig(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise ConfigError(f"config file is not valid UTF-8 JSON: {err}") from None
    return config_from_dict(data)


# -- replication execution ---------------------------------------------------

def run_replication(
    config: ExperimentConfig,
    cell_index: int,
    q: float,
    beta: float,
    rep: int,
    *,
    record_every: int = 0,
) -> RunResult:
    """One seeded optimization run of the configured system; ``record_every``
    > 0 records the trajectory every that many outer iterations."""
    seed = config.base_seed

    def stream(tag: str) -> RngStream:
        return RngStream(seed, derive_stream_id(seed, cell_index, rep, tag))

    sims = [make_simulator(config.system, stream("sim+"))]
    if config.algorithm == "gqsf1":
        run = run_gqsf1
    else:
        run = run_gqsf2
        minus_tag = "sim+" if config.common_random_numbers else "sim-"
        sims.append(make_simulator(config.system, stream(minus_tag)))
    return run(
        *sims,
        QKernel(q=q, beta=beta, dim=config.system.total_dim),
        config.box,
        StepSchedule(config.gamma),
        config.M,
        config.L,
        config.theta0,
        stream("perturbation"),
        target=config.system.theta_target,
        record_every=record_every,
    )


def _replication_task(args):
    """(distance, wall time, None) for a finished replication, or
    (None, 0.0, reason) for a failed one."""
    config, cell_index, q, beta, rep = args
    try:
        result = run_replication(config, cell_index, q, beta, rep)
    except REPLICATION_ERRORS as err:
        return None, 0.0, str(err)
    return result.distance, result.wall_time, None


def _aggregate(config, q, beta, outcomes) -> CellResult:
    distances, walls, reasons = zip(*outcomes)
    ok = [d for d in distances if d is not None]
    if not ok:
        mean = std = float("nan")
    else:
        mean = float(np.mean(ok))
        std = float(np.std(ok, ddof=1)) if len(ok) > 1 else 0.0
    errors = tuple(e for e in reasons if e is not None)
    return CellResult(
        algorithm=config.algorithm,
        q=q,
        beta=beta,
        gamma=config.gamma,
        M=config.M,
        L=config.L,
        replications=config.replications,
        mean_distance=mean,
        std_distance=std,
        distances=distances,
        failures=len(errors),
        seconds=sum(walls),
        errors=errors,
    )


def _run_threaded(tasks: list, workers: int) -> list:
    """The outcomes of ``_replication_task`` over ``tasks``, in order, from
    ``workers`` threads, each taking the next task not yet started; the
    compiled loops release the GIL, so the threads' replications overlap.
    Once a task raises an exception outside ``REPLICATION_ERRORS`` (a bug),
    or this thread is interrupted, no task starts.  The threads finish
    their tasks in flight and are joined, and then the interrupt, or the
    bug of the earliest task, the one the serial run would raise, is
    raised here."""
    outcomes = [None] * len(tasks)
    bugs = {}  # task index -> the exception it raised
    pending = iter(range(len(tasks)))  # emptied to start no more tasks
    running = 0  # threads started and not yet done
    guard = threading.Condition()  # guards pending and running

    def work():
        nonlocal pending, running
        try:
            while True:
                with guard:
                    index = next(pending, None)
                if index is None:
                    return
                try:
                    outcomes[index] = _replication_task(tasks[index])
                except BaseException as err:  # raised by the main thread
                    with guard:
                        bugs[index], pending = err, iter(())
        finally:
            with guard:
                running -= 1
                guard.notify()

    threads = [threading.Thread(target=work) for _ in range(workers)]
    try:
        with guard:  # no task starts before every thread has
            for thread in threads:
                thread.start()
                running += 1
            # waits here rather than in join, which an interrupt inside it
            # can leave believing its thread has ended (CPython 3.11), and
            # wakes every 50 ms, since the kernel may hand an interrupt to
            # another thread and only this one acts on it
            while running:
                guard.wait(0.05)
    finally:
        with guard:
            pending = iter(())
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if bugs:
        raise bugs[min(bugs)]
    return outcomes


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity, under ``taskset`` or a
    cpuset), where the platform tells; otherwise every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(
    config: ExperimentConfig, workers: int | None = None
) -> list[CellResult]:
    """Run every (q, beta) cell; returns results in grid order.

    Replications are independent tasks.  With ``workers`` > 1 (by default
    one per CPU this process may run on), never more than there are tasks,
    they run on that many threads of this process, each taking the next
    task in grid order (see :func:`_run_threaded`); otherwise they run
    here, one after another.
    Either way every number is the same.  A run that raises one of
    ``REPLICATION_ERRORS`` is recorded in its cell's failures and errors
    and does not abort the grid; any other exception is re-raised here,
    the one of the earliest task in grid order.  ``workers`` below 1
    raises ValueError.
    """
    if workers is None:
        workers = _usable_cpus()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = config.cells()
    tasks = [
        (config, i, q, beta, rep)
        for i, (q, beta) in enumerate(cells)
        for rep in range(config.replications)
    ]
    workers = min(workers, len(tasks))
    if workers == 1:
        outcomes = list(map(_replication_task, tasks))
    else:
        # loaded once here, so that the threads do not each build it
        _native.load()
        outcomes = _run_threaded(tasks, workers)
    n = config.replications
    return [
        _aggregate(config, q, beta, outcomes[i * n : (i + 1) * n])
        for i, (q, beta) in enumerate(cells)
    ]


# -- output ------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.6g}"


# the CSV columns in order: the CellResult field each one holds, and how
# its value is written
_CSV_COLUMNS = (
    ("algorithm", str), ("q", _fmt), ("beta", _fmt), ("gamma", _fmt), ("M", str), ("L", str),
    ("replications", str), ("mean_distance", _fmt), ("std_distance", _fmt), ("failures", str),
)


def emit_csv(results: list[CellResult], include_timing: bool = True) -> str:
    """CSV of the grid, one row per cell, in grid order.

    ``include_timing=False`` drops the wall-time column so that identical
    configs and seeds produce byte-identical output.
    """
    columns = _CSV_COLUMNS + ((("seconds", _fmt),) if include_timing else ())
    lines = [",".join(name for name, _ in columns)]
    lines += [",".join(fmt(getattr(r, name)) for name, fmt in columns) for r in results]
    return "\n".join(lines) + "\n"


def _q_label(q: float) -> str:
    return "Gaussian" if q == 1.0 else _fmt(q)


def emit_table(results: list[CellResult]) -> str:
    """Human-readable matrix: q rows, beta columns, 'mean±std' cells."""
    if not results:
        return "(empty grid)\n"
    algorithm = results[0].algorithm
    gamma = results[0].gamma
    betas = sorted({r.beta for r in results})
    qs = list(dict.fromkeys(r.q for r in results))
    by_key = {(r.q, r.beta): r for r in results}
    header = ["q \\ beta"] + [_fmt(b) for b in betas]

    rows = [header]
    for q in qs:
        row = [_q_label(q)]
        for b in betas:
            cell = by_key.get((q, b))
            if cell is None:
                row.append("-")
            elif cell.failures == cell.replications:
                row.append("failed")
            else:
                text = f"{cell.mean_distance:.5f}±{cell.std_distance:.5f}"
                if cell.failures:
                    text += f" [{cell.failures} failed]"
                row.append(text)
        rows.append(row)

    widths = [max(len(r[j]) for r in rows) for j in range(len(header))]
    lines = [f"{algorithm}, gamma={_fmt(gamma)}, mean distance ± std over replications"]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines) + "\n"

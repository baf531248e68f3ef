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

import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .optimizer import (
    BoxConstraint,
    DivergenceError,
    RunResult,
    SimulationError,
    StepSchedule,
    run_gqsf1,
    run_gqsf2,
)
from .qgaussian import QKernel
from .queueing import QueueNetworkConfig, make_simulator, preset, preset_names
from .rng import RngStream, derive_stream_id
from .smoothing import InvalidRhoError

ALGORITHMS = ("gqsf1", "gqsf2")


class ConfigError(ValueError):
    """The experiment description is malformed or inconsistent."""


def resolve_q(value: float | str, dim: int) -> float:
    """Resolve a grid entry to a shape value; 'gaussian' -> 1 and
    'cauchy' -> 1 + 2/(N+1)."""
    if isinstance(value, str):
        name = value.strip().lower()
        if name == "gaussian":
            return 1.0
        if name == "cauchy":
            return 1.0 + 2.0 / (dim + 1)
        try:
            return float(name)
        except ValueError:
            raise ConfigError(
                f"unknown q alias {value!r} (use 'gaussian' or 'cauchy')"
            ) from None
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
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

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}")
        if not self.q_grid or not self.beta_grid:
            raise ConfigError("q_grid and beta_grid must be non-empty")
        dim = self.system.total_dim
        object.__setattr__(
            self, "q_grid", tuple(resolve_q(q, dim) for q in self.q_grid)
        )
        object.__setattr__(self, "beta_grid", tuple(float(b) for b in self.beta_grid))
        theta0 = np.asarray(self.theta0, dtype=float)
        object.__setattr__(self, "theta0", theta0)
        if self.box.dim != dim or theta0.shape != (dim,):
            raise ConfigError("box and theta0 must match the system dimension")
        if not self.box.contains(theta0):
            raise ConfigError("theta0 must lie inside the box")
        if self.M < 1 or self.L < 1 or self.replications < 1:
            raise ConfigError("M, L and replications must be >= 1")
        # the schedule and the kernel own the gamma, beta and q domains
        try:
            StepSchedule(self.gamma)
            for q, beta in self.cells():
                QKernel(q, beta, dim)
        except ValueError as err:
            raise ConfigError(str(err)) from None

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


# -- config ingestion --------------------------------------------------------

def _as_vector(value, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ConfigError(f"{name} must be a scalar or a length-{dim} list")
    return arr


def _json_int(data: dict, key: str, default=None) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config from a plain dict (the JSON file schema)."""
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a JSON object")
    known = {
        "algorithm",
        "q_grid",
        "beta_grid",
        "gamma",
        "M",
        "L",
        "replications",
        "base_seed",
        "system",
        "box",
        "theta0",
        "common_random_numbers",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    missing = {"algorithm", "q_grid", "beta_grid", "M", "base_seed", "system"} - set(data)
    if missing:
        raise ConfigError(f"missing config fields: {sorted(missing)}")

    system_spec = data["system"]
    box_lower = box_upper = theta0 = None
    if isinstance(system_spec, str):
        try:
            loaded = preset(system_spec)
        except KeyError as err:
            raise ConfigError(str(err)) from None
        network = loaded.network
        box_lower, box_upper = loaded.box_lower, loaded.box_upper
        theta0 = loaded.theta0
    elif isinstance(system_spec, dict):
        try:
            dims = tuple(int(d) for d in system_spec["dims"])
            target = _as_vector(system_spec["theta_target"], sum(dims), "theta_target")
            network = QueueNetworkConfig(
                arrival_rates=tuple(system_spec["arrival_rates"]),
                p_leave=tuple(system_spec["p_leave"]),
                service_constants=tuple(system_spec["service_constants"]),
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
    if "box" in data:
        box_spec = data["box"]
        if not isinstance(box_spec, dict) or set(box_spec) != {"lower", "upper"}:
            raise ConfigError("box must be an object with 'lower' and 'upper'")
        lower = _as_vector(box_spec["lower"], dim, "box.lower")
        upper = _as_vector(box_spec["upper"], dim, "box.upper")
    elif box_lower is not None:
        lower = np.full(dim, box_lower)
        upper = np.full(dim, box_upper)
    else:
        raise ConfigError("box is required for inline systems")
    if "theta0" in data:
        theta0 = _as_vector(data["theta0"], dim, "theta0")
    elif theta0 is None:
        raise ConfigError("theta0 is required for inline systems")

    try:
        box = BoxConstraint(lower, upper)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    crn = data.get("common_random_numbers", False)
    if not isinstance(crn, bool):
        raise ConfigError(f"common_random_numbers must be true or false, got {crn!r}")
    try:
        return ExperimentConfig(
            algorithm=str(data["algorithm"]),
            q_grid=tuple(data["q_grid"]),
            beta_grid=tuple(data["beta_grid"]),
            gamma=float(data.get("gamma", 0.75)),
            M=_json_int(data, "M"),
            L=_json_int(data, "L", 100),
            replications=_json_int(data, "replications", 20),
            base_seed=_json_int(data, "base_seed"),
            system=network,
            box=box,
            theta0=theta0,
            common_random_numbers=crn,
        )
    except (TypeError, ValueError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(str(err)) from None


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from None
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
    kernel = QKernel(q=q, beta=beta, dim=config.system.total_dim)
    schedule = StepSchedule(config.gamma)
    seed = config.base_seed
    pert_stream = RngStream(
        seed, derive_stream_id(seed, cell_index, rep, "perturbation")
    )
    sim_plus = make_simulator(
        config.system, RngStream(seed, derive_stream_id(seed, cell_index, rep, "sim+"))
    )
    target = config.system.theta_target
    if config.algorithm == "gqsf1":
        return run_gqsf1(
            sim_plus,
            kernel,
            config.box,
            schedule,
            config.M,
            config.L,
            config.theta0,
            pert_stream,
            target=target,
            record_every=record_every,
        )
    minus_tag = "sim+" if config.common_random_numbers else "sim-"
    sim_minus = make_simulator(
        config.system,
        RngStream(seed, derive_stream_id(seed, cell_index, rep, minus_tag)),
    )
    return run_gqsf2(
        sim_plus,
        sim_minus,
        kernel,
        config.box,
        schedule,
        config.M,
        config.L,
        config.theta0,
        pert_stream,
        target=target,
        record_every=record_every,
    )


def _replication_task(args):
    config, cell_index, q, beta, rep = args
    try:
        result = run_replication(config, cell_index, q, beta, rep)
        return cell_index, rep, result.distance, result.wall_time, None
    except (DivergenceError, SimulationError, InvalidRhoError) as err:
        return cell_index, rep, None, 0.0, str(err)


def _aggregate(config, cell_index, q, beta, outcomes) -> CellResult:
    distances = [outcomes[(cell_index, r)][0] for r in range(config.replications)]
    seconds = sum(outcomes[(cell_index, r)][1] for r in range(config.replications))
    ok = [d for d in distances if d is not None]
    failures = config.replications - len(ok)
    if not ok:
        mean = std = float("nan")
    else:
        mean = float(np.mean(ok))
        std = float(np.std(ok, ddof=1)) if len(ok) > 1 else 0.0
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
        distances=tuple(distances),
        failures=failures,
        seconds=seconds,
    )


def run_experiment(
    config: ExperimentConfig, workers: int | None = None
) -> list[CellResult]:
    """Run every (q, beta) cell; returns results in grid order.

    Replications are independent tasks spread over a process pool; a run
    that diverges, whose simulator fails or that meets rho <= 0 is recorded
    in its cell's failure count and does not abort the grid.
    """
    cells = config.cells()
    tasks = [
        (config, i, q, beta, rep)
        for i, (q, beta) in enumerate(cells)
        for rep in range(config.replications)
    ]
    if workers is None:
        workers = os.cpu_count() or 1
    outcomes = {}
    if workers <= 1 or len(tasks) == 1:
        for task in tasks:
            cell_index, rep, dist, wall, err = _replication_task(task)
            outcomes[(cell_index, rep)] = (dist, wall, err)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for cell_index, rep, dist, wall, err in pool.map(_replication_task, tasks):
                outcomes[(cell_index, rep)] = (dist, wall, err)
    return [
        _aggregate(config, i, q, beta, outcomes) for i, (q, beta) in enumerate(cells)
    ]


# -- output ------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.6g}"


def emit_csv(results: list[CellResult], include_timing: bool = True) -> str:
    """CSV of the grid, one row per cell, in grid order.

    ``include_timing=False`` drops the wall-time column so that identical
    configs and seeds produce byte-identical output.
    """
    cols = [
        "algorithm",
        "q",
        "beta",
        "gamma",
        "M",
        "L",
        "replications",
        "mean_distance",
        "std_distance",
        "failures",
    ]
    if include_timing:
        cols.append("seconds")
    lines = [",".join(cols)]
    for r in results:
        row = [
            r.algorithm,
            _fmt(r.q),
            _fmt(r.beta),
            _fmt(r.gamma),
            str(r.M),
            str(r.L),
            str(r.replications),
            _fmt(r.mean_distance),
            _fmt(r.std_distance),
            str(r.failures),
        ]
        if include_timing:
            row.append(_fmt(r.seconds))
        lines.append(",".join(row))
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
                row.append("diverged")
            else:
                text = f"{cell.mean_distance:.5f}±{cell.std_distance:.5f}"
                if cell.failures:
                    text += f" [{cell.failures} diverged]"
                row.append(text)
        rows.append(row)

    widths = [max(len(r[j]) for r in rows) for j in range(len(header))]
    lines = [f"{algorithm}, gamma={_fmt(gamma)}, mean distance ± std over replications"]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines) + "\n"

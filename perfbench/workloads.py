"""The four benchmark workloads, each a closed loop of identical units.

A unit is one call into qsmooth's public API that a user would make: a
replication, an optimizer run, a grid through the CLI, or a pair of
Monte-Carlo estimates.  Unit ``i`` replays variant ``i % distinct``, so a run
that executes more than ``distinct`` units repeats some, and the repeats
must reproduce their numbers bit for bit.

The package is imported from ``src/`` of the checkout this file sits in and
nowhere else: a stray installed copy would measure the wrong code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing.sharedctypes import RawArray
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

import qsmooth  # noqa: E402
from qsmooth import bench, cli, optimizer, qgaussian, queueing, rng, smoothing  # noqa: E402

if Path(qsmooth.__file__).resolve().parent.parent != _SRC:
    raise ImportError(f"qsmooth imported from {qsmooth.__file__}, not from {_SRC}")

# Default seeds replay the acceptance tests: criterion 7 cell 0 (mg1 grids),
# criterion 6 (quadratic runs) and criterion 4 (Monte-Carlo draws).
DEFAULT_SEEDS = {
    "sf2-mg1-4d": 20260810,
    "sf2-quad-20d": 106,
    "grid-mg1-20d": 20260810,
    "mc-grad-2d": 104,
}

# The qsmooth exceptions that mark one operation as failed rather than the
# benchmark as broken.
OPERATION_ERRORS = (
    optimizer.DivergenceError,
    optimizer.SimulationError,
    smoothing.InvalidRhoError,
)


@dataclass
class Unit:
    """What one unit did and produced."""

    wall: float
    obs: int  # cost observations (simulator steps, or f evaluations)
    samples: int  # perturbation draws (outer iterations, or MC draws)
    tasks: int = 1
    failures: int = 0
    thetas: list = field(default_factory=list)  # final iterates
    distances: list = field(default_factory=list)
    values: list = field(default_factory=list)  # everything the digest covers
    csv: str | None = None


class Workload:
    name = ""
    distinct = 2
    workers = 0  # processes the workload starts
    # the box every final iterate must lie in
    lower = upper = None

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def run(self, i: int) -> Unit:
        """One timed unit, variant ``i % distinct``."""
        raise NotImplementedError

    def layer_unit(self, i: int) -> Unit:
        """The unit the traced pass times layer by layer."""
        return self.run(i)

    def check(self, unit: Unit) -> list[str]:
        """Violations in one unit's output; empty when it is correct."""
        out = []
        if unit.failures:
            out.append(f"{unit.failures} of {unit.tasks} tasks failed")
        for theta in unit.thetas:
            if not np.all(np.isfinite(theta)):
                out.append(f"final theta not finite: {theta}")
            elif np.any(theta < self.lower) or np.any(theta > self.upper):
                out.append(f"final theta outside the box [{self.lower}, {self.upper}]: {theta}")
        return out

    def close(self) -> None:
        pass

    def _scaled(self, n: int, floor: int) -> int:
        return max(floor, int(n * self.scale))


def _distance(theta, target) -> float:
    return float(np.linalg.norm(np.asarray(theta) - target))


class Sf2Mg1(Workload):
    """``bench.run_replication`` of the paper cell, serially.  A unit runs
    the first 10^3 of the cell's M = 10^4 iterations: M only bounds the
    loop, so it is an exact prefix of the paper's replication, and short
    enough that a run holds dozens of units to take a median over."""

    name = "sf2-mg1-4d"

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.config = bench.config_from_dict(
            {
                "algorithm": "gqsf2",
                "q_grid": [0.8],
                "beta_grid": [0.005],
                "gamma": 0.75,
                "M": self._scaled(1_000, 20),
                "L": 100,
                "replications": self.distinct,
                "base_seed": seed,
                "system": "mg1-4d",
            }
        )
        self.lower, self.upper = self.config.box.lower, self.config.box.upper

    def run(self, i):
        cfg = self.config
        t0 = time.perf_counter()
        try:
            result = bench.run_replication(cfg, 0, 0.8, 0.005, i % self.distinct)
        except OPERATION_ERRORS:
            return Unit(time.perf_counter() - t0, 0, 0, failures=1)
        wall = time.perf_counter() - t0
        return Unit(
            wall,
            obs=2 * cfg.M * cfg.L,
            samples=cfg.M,
            thetas=[result.theta_final],
            distances=[result.distance],
            values=[result.theta_final],
        )


class Sf2Quad(Workload):
    """``optimizer.run_gqsf2`` over two deterministic quadratic systems."""

    name = "sf2-quad-20d"
    L = 10

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        dim = 20
        self.M = self._scaled(4_000, 20)
        self.target = np.full(dim, 0.3)
        self.box = optimizer.BoxConstraint.cube(0.1, 0.6, dim)
        self.lower, self.upper = self.box.lower, self.box.upper
        self.kernel = qgaussian.QKernel(q=0.8, beta=0.005, dim=dim)
        self.schedule = optimizer.StepSchedule(0.75)
        self.theta0 = np.full(dim, 0.6)
        self.sims = (
            optimizer.QuadraticCostSimulator(self.target),
            optimizer.QuadraticCostSimulator(self.target),
        )

    def run(self, i):
        t0 = time.perf_counter()
        try:
            result = optimizer.run_gqsf2(
                *self.sims,
                self.kernel,
                self.box,
                self.schedule,
                self.M,
                self.L,
                self.theta0,
                rng.RngStream(self.seed, i % self.distinct),
                target=self.target,
            )
        except OPERATION_ERRORS:
            return Unit(time.perf_counter() - t0, 0, 0, failures=1)
        wall = time.perf_counter() - t0
        return Unit(
            wall,
            obs=2 * self.M * self.L,
            samples=self.M,
            thetas=[result.theta_final],
            distances=[result.distance],
            values=[result.theta_final],
        )


# Set in the parent just before a grid starts its pool; forked workers
# inherit both and write their final iterates into the shared array.
_grid_thetas = None
_grid_replication = None


def _capturing_replication(config, cell_index, q, beta, rep):
    result = _grid_replication(config, cell_index, q, beta, rep)
    dim = result.theta_final.size
    slot = (cell_index * config.replications + rep) * dim
    _grid_thetas[slot : slot + dim] = result.theta_final
    return result


@contextlib.contextmanager
def _capture_grid_thetas(n_tasks: int, dim: int):
    """Collect every replication's final iterate, also from pool workers.

    Slots start as NaN, so an iterate that never arrived (a pool that does
    not fork) fails the finiteness check instead of passing unseen.
    """
    global _grid_thetas, _grid_replication
    _grid_thetas = RawArray("d", [math.nan] * (n_tasks * dim))
    _grid_replication = bench.run_replication
    bench.run_replication = _capturing_replication
    try:
        yield _grid_thetas
    finally:
        bench.run_replication = _grid_replication
        _grid_thetas = _grid_replication = None


class GridMg1(Workload):
    """``qsmooth run`` of a three-shape grid on ``mg1-20d`` over a pool."""

    name = "grid-mg1-20d"
    distinct = 1
    workers = 2

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        spec = {
            "algorithm": "gqsf2",
            "q_grid": [0.8, "gaussian", "cauchy"],
            "beta_grid": [0.005],
            "gamma": 0.75,
            "M": self._scaled(250, 10),
            "L": 100,
            "replications": 4,
            "base_seed": seed,
            "system": "mg1-20d",
        }
        # the CLI reads its config from a file, kept inside the checkout
        self.workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=Path(__file__).parent))
        self.path = self.workdir / "grid.json"
        self.path.write_text(json.dumps(spec), encoding="utf-8")
        self.config = bench.load_config(str(self.path))
        self.lower, self.upper = self.config.box.lower, self.config.box.upper
        self.target = self.config.system.theta_target
        self.n_tasks = len(self.config.cells()) * self.config.replications

    def run(self, i, workers=None):
        cfg = self.config
        dim = cfg.system.total_dim
        out = io.StringIO()
        argv = ["run", str(self.path), "--workers", str(workers or self.workers), "--no-timing"]
        with _capture_grid_thetas(self.n_tasks, dim) as shared:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            wall = time.perf_counter() - t0
            flat = np.array(shared[:])
        csv_text = out.getvalue()
        rows = csv_text.splitlines()[1:]
        failures = sum(int(row.split(",")[-1]) for row in rows)
        if code not in (0, 3) or len(rows) != len(cfg.cells()):
            raise RuntimeError(f"qsmooth run exited {code} with output {csv_text!r}")
        thetas = list(flat.reshape(self.n_tasks, dim))
        return Unit(
            wall,
            obs=2 * cfg.M * cfg.L * self.n_tasks,
            samples=cfg.M * self.n_tasks,
            tasks=self.n_tasks,
            failures=failures,
            thetas=thetas,
            distances=[_distance(t, self.target) for t in thetas],
            values=thetas,
            csv=csv_text,
        )

    def layer_unit(self, i):
        """Replication ``i`` of every cell, in process, so layer spans are
        visible (pool workers' spans are not)."""
        cfg = self.config
        rep = i % cfg.replications
        thetas, failures = [], 0
        t0 = time.perf_counter()
        for cell, (q, beta) in enumerate(cfg.cells()):
            try:
                thetas.append(bench.run_replication(cfg, cell, q, beta, rep).theta_final)
            except OPERATION_ERRORS:
                failures += 1
        wall = time.perf_counter() - t0
        n = len(cfg.cells())
        return Unit(
            wall,
            obs=2 * cfg.M * cfg.L * n,
            samples=cfg.M * n,
            tasks=n,
            failures=failures,
            thetas=thetas,
            distances=[_distance(t, self.target) for t in thetas],
            values=thetas,
        )

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def sq_norm(x) -> float:
    """The Monte-Carlo objective f(x) = x.x in 2-d; its smoothed gradient
    is 2x.  Written out rather than ``np.dot``, which costs twice as much
    per call, so that f does not dwarf the estimator it feeds."""
    return float(x[0] * x[0] + x[1] * x[1])


class McGrad(Workload):
    """``smoothed_gradient_mc`` and ``smoothed_value`` of x.x at (0.3, 0.3)."""

    name = "mc-grad-2d"

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.kernel = qgaussian.QKernel(q=0.5, beta=0.05, dim=2)
        self.theta = np.array([0.3, 0.3])
        self.n = self._scaled(1 << 18, 1024)
        self._stderr = None

    def run(self, i):
        variant = i % self.distinct
        grad_stream = rng.RngStream(self.seed, rng.derive_stream_id(variant, "grad"))
        value_stream = rng.RngStream(self.seed, rng.derive_stream_id(variant, "value"))
        t0 = time.perf_counter()
        try:
            # sq_norm is looked up here so a tracer can substitute a counted f
            grad = smoothing.smoothed_gradient_mc(
                sq_norm, self.theta, self.kernel, self.n, grad_stream
            )
            value = smoothing.smoothed_value(
                sq_norm, self.theta, self.kernel, self.n, value_stream
            )
        except OPERATION_ERRORS:
            return Unit(time.perf_counter() - t0, 0, 0, tasks=2, failures=2)
        wall = time.perf_counter() - t0
        err = float(np.linalg.norm(grad - 2.0 * self.theta))
        return Unit(
            wall,
            obs=2 * self.n,
            samples=2 * self.n,
            tasks=2,
            distances=[err],
            values=[grad, np.array([value])],
        )

    def exact_value(self) -> float:
        k = self.kernel
        second = qgaussian.analytic_moment(qgaussian.MomentSpec(b=0, powers=(2, 0)), k.q, k.dim)
        return float(self.theta @ self.theta + k.beta**2 * k.dim * second)

    def stderr(self):
        """Standard errors of one unit's gradient and value estimates, from a
        pilot sample drawn on a stream the units never use."""
        if self._stderr is None:
            k, n_pilot = self.kernel, 1 << 16
            stream = rng.RngStream(self.seed, rng.derive_stream_id("pilot"))
            etas, rhos = qgaussian.sample_standard_many(k.q, k.dim, n_pilot, stream)
            plus = self.theta + k.beta * etas
            terms = smoothing.sf_term_one_batch(etas, rhos, np.einsum("ij,ij->i", plus, plus), k)
            minus = self.theta - k.beta * etas
            values = np.einsum("ij,ij->i", minus, minus)
            scale = 1.0 / math.sqrt(self.n)
            self._stderr = (terms.std(axis=0, ddof=1) * scale, float(values.std(ddof=1)) * scale)
        return self._stderr

    def check(self, unit):
        out = super().check(unit)
        if unit.failures:
            return out
        grad, value = unit.values[0], float(unit.values[1][0])
        se_grad, se_value = self.stderr()
        z = np.abs(grad - 2.0 * self.theta) / se_grad
        if not np.all(z < 6.0):
            out.append(f"gradient {grad} is {z.max():.1f} standard errors from {2 * self.theta}")
        exact = self.exact_value()
        if not abs(value - exact) < 6.0 * se_value:
            out.append(f"smoothed value {value} is more than 6 standard errors from {exact}")
        return out


WORKLOADS = {w.name: w for w in (Sf2Mg1, Sf2Quad, GridMg1, McGrad)}


def build(name: str, seed: int | None = None, scale: float = 1.0) -> Workload:
    """Set up a workload: its config, kernel and simulators, nothing timed."""
    cls = WORKLOADS[name]
    return cls(DEFAULT_SEEDS[name] if seed is None else seed, scale)

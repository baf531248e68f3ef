"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` one warm-up unit runs, then the workload's units run
back to back, untraced, for about ``--seconds``, each between two slices of
:mod:`reference` work; the run prints every end-to-end metric of
``BENCHMARK.json``.  Each unit's rate is scaled by the reference slices
timed next to it, on as many processes as the unit runs its work on, which
divides out the drift of a shared host; each rate is the median over the
timed units.  With ``--trace 1`` it alternates two untraced runs of one unit
with two runs of it under a :class:`tracing.Tracer`, then runs the layer
probes and, for the grid, a pooled and a serial pass; it prints every
per-layer metric and the tracing overhead, and its length is set by the
unit, not by ``--seconds``.
Either way the outputs are checked, and the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import probes
import reference
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5

# Timed in a fresh interpreter each time, because only a first import costs.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {here!r})
import workloads
w = workloads.build({name!r}, {seed!r})
print(time.perf_counter() - t0)
w.close()
"""


def load_spec() -> dict:
    return json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def timed_units(w: workloads.Workload, seconds: float) -> tuple[list, list]:
    """A warm-up unit, then units back to back until the next would overrun
    ``seconds``; at least one more than ``w.distinct``, so some unit
    repeats.  The warm-up comes first in the list and is checked like the
    others, but only the rest are timed.  Also returns, for each timed unit,
    how slow the host ran next to it: the mean of the reference slowdowns
    just before and just after it, gauged on one process, or on as many as
    the workload's pool has workers."""
    processes = max(1, w.workers)
    units = [w.run(0)]
    slowdowns = []
    reference.slowdown(processes)
    t0 = time.perf_counter()
    while True:
        before = reference.slowdown(processes)
        units.append(w.run(len(units)))
        slowdowns.append((before + reference.slowdown(processes)) / 2)
        typical = statistics.median(u.wall for u in units[1:])
        if len(units) > w.distinct + 1 and time.perf_counter() - t0 + typical > seconds:
            return units, slowdowns


def setup_seconds(name: str, seed: int, repeats: int) -> float:
    """Median set-up time over fresh interpreters.  It is not scaled by the
    reference slices: it is mostly loading files and extension modules,
    which the slices do not track, and scaling made it noisier."""
    code = _SETUP_CODE.format(here=str(HERE), name=name, seed=seed)
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, cwd=workloads.ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus ``workers`` times the largest child's: an upper
    bound on what a pool and its parent hold at once."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def _same_output(a, b) -> bool:
    return (
        a.distances == b.distances
        and a.csv == b.csv
        and len(a.values) == len(b.values)
        and all(np.array_equal(x, y) for x, y in zip(a.values, b.values))
    )


def check_repeats(w, units) -> list[str]:
    """Every unit that replays a variant reproduces its outputs exactly."""
    first, out = {}, []
    for i, u in enumerate(units):
        ref = first.setdefault(i % w.distinct, u)
        if ref is not u and not _same_output(ref, u):
            out.append(f"unit {i} does not reproduce variant {i % w.distinct}")
    return out


def digest(units) -> str:
    h = hashlib.sha256()
    for u in units:
        for v in u.values:
            h.update(np.ascontiguousarray(v, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


# -- per-layer numbers ---------------------------------------------------------

# counts that must come out identical every time the same unit runs
EXACT = ("rng.uniforms_per_obs", "queueing.events_per_obs", "smoothing.f_calls", "optimizer.iters")


def layer_numbers(tr: Tracer, u) -> dict[str, float]:
    """Per-layer numbers of one traced unit.  Self time is a span minus
    the child spans it contains; a layer that did no work reads 0."""
    steps = tr.calls["queueing.step"]
    step_s = tr.seconds("queueing.step")
    sample_s = tr.seconds("qgaussian.sample_standard")
    many_s = tr.seconds("qgaussian.sample_standard_many")
    iters = tr.calls["qgaussian.sample_standard"]
    events = tr.arrivals() + steps
    smoothed_s = tr.seconds("smoothing.smoothed")
    optimizer_self = (
        tr.seconds("optimizer.run_gqsf2")
        - step_s
        - tr.seconds("optimizer.quadratic_step")
        - sample_s
    )
    return {
        "rng.uniforms_per_obs": tr.uniforms() / u.obs,
        "qgaussian.sample_us": 1e6 * sample_s / iters if iters else 0.0,
        "qgaussian.share": (sample_s + many_s) / u.wall,
        "smoothing.self_s": smoothed_s - many_s - tr.seconds("f") if smoothed_s else 0.0,
        "smoothing.f_calls": tr.calls["f"],
        "optimizer.self_us_per_iter": 1e6 * optimizer_self / iters if iters else 0.0,
        "optimizer.iters": iters,
        "queueing.step_us": 1e6 * step_s / steps if steps else 0.0,
        "queueing.ns_per_event": 1e9 * step_s / events if steps else 0.0,
        "queueing.events_per_obs": events / steps if steps else 0.0,
        "queueing.share": step_s / u.wall,
    }


def pool_numbers(w: workloads.GridMg1):
    """The grid on its pool and on one worker, with only the parent-side
    entry points wrapped, so the workers run untraced code."""
    with Tracer(full=False) as tr:
        pooled = w.run(0)
        pool_wall = tr.seconds("bench.run_experiment")
        pooled_tasks_s = sum(c.seconds for c in tr.cell_results)
        cli_self = tr.seconds("cli.main") - pool_wall
        tr.reset()
        serial = w.run(0, workers=1)
        serial_tasks_s = sum(c.seconds for c in tr.cell_results)
    numbers = {
        "bench.pool_speedup": serial_tasks_s / pool_wall,
        "bench.task_inflation": pooled_tasks_s / serial_tasks_s,
        "bench.overhead_s": pool_wall - pooled_tasks_s / w.workers,
        "bench.tasks": pooled.tasks,
        "bench.failures": pooled.failures,
        "cli.self_ms": 1e3 * cli_self,
    }
    return numbers, [pooled, serial]


def traced_run(w, scale: float):
    """Per-layer metrics, the units they came from and check violations."""
    untraced, traced = [], []
    for _ in range(2):  # alternated, so drift in machine speed hits both
        untraced.append(w.layer_unit(0))
        with Tracer() as tr:
            u = w.layer_unit(0)
            traced.append((u, layer_numbers(tr, u)))
    base = untraced[0]
    units = untraced + [u for u, _ in traced]
    violations = [
        "a traced or repeated unit does not reproduce the first"
        for u in units[1:]
        if not _same_output(base, u)
    ]
    (_, first), (_, second) = traced
    for name in EXACT:
        if first[name] != second[name]:
            violations.append(f"{name} differs between runs: {first[name]} vs {second[name]}")
    metrics = {k: statistics.median([first[k], second[k]]) for k in first}
    metrics["trace.overhead_s"] = statistics.median(u.wall for u, _ in traced) - statistics.median(
        u.wall for u in untraced
    )

    if isinstance(w, workloads.GridMg1):
        numbers, pool_units = pool_numbers(w)
        if pool_units[0].csv != pool_units[1].csv:
            violations.append("pooled and serial grids print different CSV")
        units += pool_units
    else:
        numbers = dict.fromkeys(
            ("bench.pool_speedup", "bench.task_inflation", "bench.overhead_s",
             "bench.tasks", "bench.failures", "cli.self_ms"), 0.0)
    metrics.update(numbers)
    probed = probes.run_probes(scale)
    metrics.update(probed)
    notes = probes.compare_to_baseline(probed)
    return metrics, units, violations, notes


# -- one run -------------------------------------------------------------------

def measure(name, seed=None, seconds=None, trace=0, scale=1.0, setup_repeats=SETUP_REPEATS):
    """Run one workload; returns (result object, lines to print before it)."""
    spec = load_spec()
    seed = workloads.DEFAULT_SEEDS[name] if seed is None else seed
    seconds = spec["run_seconds"] if seconds is None else seconds
    w = workloads.build(name, seed, scale)
    lines = [f"workload {name}, seed {seed}, trace {trace}"]
    try:
        if trace:
            metrics, units, violations, notes = traced_run(w, scale)
            declared = spec["per_layer"]
            lines += ["probes against the recorded baseline:"] + ["  " + n for n in notes]
        else:
            units, slowdowns = timed_units(w, seconds)
            timed = list(zip(units[1:], slowdowns))
            violations = check_repeats(w, units)
            lines += [
                f"host slowdown = {statistics.median(slowdowns):.3f} (median reference "
                f"slice over {reference.REF_SECONDS} s), unscaled obs_per_s = "
                f"{statistics.median(u.obs / u.wall for u, _ in timed)!r}"
            ]
            metrics = {
                "obs_per_s": statistics.median(u.obs / u.wall * v for u, v in timed),
                "samples_per_s": statistics.median(u.samples / u.wall * v for u, v in timed),
                "peak_rss_mb": peak_rss_mb(w.workers),
            }
            declared = spec["end_to_end"]
        for u in units:
            violations += w.check(u)
    finally:
        w.close()
    if not trace:
        metrics["setup_s"] = setup_seconds(name, seed, setup_repeats)

    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics computed and declared differ: {sorted(mismatch)}")
    attempted = sum(u.tasks for u in units)
    failed = sum(u.failures for u in units)
    distinct = units[:1] if trace else units[: w.distinct]
    quality = "grad_err" if isinstance(w, workloads.McGrad) else "mean_distance"
    quality_value = float(np.mean([d for u in distinct for d in u.distances]))
    lines += [
        f"{quality} = {quality_value!r} (1)",
        f"failed_frac = {failed / attempted!r} (ratio)",
        f"output digest = {digest(distinct)}",
        f"units = {len(units)}, wall = {sum(u.wall for u in units):.3f} s",
    ]
    lines += [f"{m['name']} = {metrics[m['name']]!r} {m['unit']}" for m in declared]
    lines += [f"CHECK FAILED: {v}" for v in violations] or ["checks passed"]
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared
        },
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

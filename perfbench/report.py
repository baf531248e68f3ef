"""Run all four workloads and report every metric in one place.

    python3 perfbench/report.py [--seconds S] [--top N] [--out FILE]

For each workload this runs ``run.py`` untraced (end-to-end metrics) and
traced (per-layer metrics, probes, tracing overhead), each in its own
process, then profiles one layer unit under cProfile, apart from both timed
runs.  It prints every metric by name and unit, and with ``--out`` writes
all of it, with the machine it ran on, as JSON.  The exit code is 0 only when
every run's checks passed.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import workloads

HERE = Path(__file__).resolve().parent


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def run_workload(name: str, trace: int, seconds: float | None) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--trace", str(trace)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=workloads.ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{name} trace {trace} printed no result:\n{done.stdout}{done.stderr}")
    return {"result": json.loads(lines[-1]), "log": lines[:-1]}


def profile(name: str, top: int) -> list[dict]:
    """The ``top`` functions by own time in one layer unit."""
    w = workloads.build(name)
    try:
        prof = cProfile.Profile()
        prof.runcall(w.layer_unit, 0)
    finally:
        w.close()
    stats = pstats.Stats(prof).stats
    rows = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:top]
    total = sum(s[2] for s in stats.values())
    return [
        {
            "function": f"{Path(file).name}:{line}({func})",
            "ncalls": calls,
            "tottime_s": round(tottime, 4),
            "share": round(tottime / total, 4),
            "cumtime_s": round(cumtime, 4),
        }
        for (file, line, func), (_, calls, tottime, cumtime, _) in rows
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--out", help="write the report here as JSON")
    args = parser.parse_args(argv)

    report = {"machine": machine_info(), "workloads": {}}
    ok = True
    for name in workloads.WORKLOADS:
        entry = {
            "untraced": run_workload(name, 0, args.seconds),
            "traced": run_workload(name, 1, args.seconds),
            "profile": profile(name, args.top),
        }
        report["workloads"][name] = entry
        print(f"== {name}")
        for mode in ("untraced", "traced"):
            result = entry[mode]["result"]
            ok = ok and result["correct"]
            print("\n".join(entry[mode]["log"]))
        print(f"top {args.top} functions by own time in one unit:")
        for row in entry["profile"]:
            print(f"  {row['tottime_s']:9.3f} s {row['share']:6.1%}  {row['ncalls']:>9}  {row['function']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands:
  run      execute an experiment grid from a JSON config file
  single   one optimization run, printing the final distance and trajectory
  sample   dump perturbation-sampler output for external statistical tests
  moments  print the analytic-moment verification grid for one (q, dim)

Exit codes: 0 success, 2 configuration error, 3 grid completed but at least
one replication diverged.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from . import bench
from .optimizer import BoxConstraint, DivergenceError
from .qgaussian import (
    MomentDoesNotExistError,
    MomentSpec,
    QGaussianDomainError,
    analytic_moment,
    sample_standard_many,
)
from .queueing import preset, preset_names
from .rng import RngStream, derive_stream_id


def _cmd_run(args) -> int:
    try:
        config = bench.load_config(args.config)
    except bench.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    results = bench.run_experiment(config, workers=args.workers)
    csv_text = bench.emit_csv(results, include_timing=not args.no_timing)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.table:
        sys.stdout.write(bench.emit_table(results))
    if any(r.failures for r in results):
        return 3
    return 0


def _cmd_single(args) -> int:
    try:
        loaded = preset(args.preset)
    except KeyError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    network = loaded.network
    dim = network.total_dim
    try:
        config = bench.ExperimentConfig(
            algorithm=args.algo,
            q_grid=(args.q,),
            beta_grid=(args.beta,),
            gamma=args.gamma,
            M=args.M,
            L=args.L,
            replications=1,
            base_seed=args.seed,
            system=network,
            box=BoxConstraint.cube(loaded.box_lower, loaded.box_upper, dim),
            theta0=loaded.theta0,
        )
    except bench.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    q, beta = config.cells()[0]
    try:
        result = bench.run_replication(
            config, 0, q, beta, 0, record_every=args.record_every
        )
    except DivergenceError as err:
        print(f"run diverged: {err}", file=sys.stderr)
        return 3
    print(f"# final distance: {result.distance:.6g}  wall: {result.wall_time:.3f}s")
    print("n," + ",".join(f"theta{i}" for i in range(dim)) + ",distance")
    for point in result.trajectory or []:
        coords = ",".join(f"{v:.6g}" for v in point.theta)
        print(f"{point.n},{coords},{point.distance:.6g}")
    return 0


def _cmd_sample(args) -> int:
    try:
        stream = RngStream(args.seed, derive_stream_id(args.seed, "sample"))
        draws, rhos = sample_standard_many(args.q, args.dim, args.count, stream)
    except QGaussianDomainError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    print(",".join(f"x{i}" for i in range(args.dim)) + ",rho")
    for row, r in zip(draws, rhos):
        print(",".join(f"{v:.9g}" for v in row) + f",{r:.9g}")
    return 0


def _cmd_moments(args) -> int:
    dim = args.dim
    try:
        specs = _moment_grid(dim)
        rows = []
        stream = RngStream(args.seed, derive_stream_id(args.seed, "moments"))
        draws, rhos = (None, None)
        if args.count > 0:
            draws, rhos = sample_standard_many(args.q, dim, args.count, stream)
        for spec in specs:
            try:
                value = analytic_moment(spec, args.q, dim)
            except MomentDoesNotExistError:
                rows.append((spec, None, None, None))
                continue
            if draws is None:
                rows.append((spec, value, None, None))
                continue
            sample_vals = np.prod(draws ** np.asarray(spec.powers), axis=1) / rhos**spec.b
            mc = float(np.mean(sample_vals))
            se = float(np.std(sample_vals, ddof=1) / np.sqrt(args.count))
            rows.append((spec, value, mc, se))
    except QGaussianDomainError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    print("b,powers,analytic,mc_mean,mc_stderr")
    for spec, value, mc, se in rows:
        powers = "|".join(str(p) for p in spec.powers)
        if value is None:
            print(f"{spec.b},{powers},does-not-exist,,")
        elif mc is None:
            print(f"{spec.b},{powers},{value:.9g},,")
        else:
            print(f"{spec.b},{powers},{value:.9g},{mc:.9g},{se:.3g}")
    return 0


def _moment_grid(dim: int) -> list[MomentSpec]:
    """Verification grid: b <= 2 and total power <= 4."""
    specs = []
    for b in range(3):
        for powers in itertools.product(range(5), repeat=dim):
            if 0 < sum(powers) <= 4 or (b == 0 and sum(powers) == 0):
                specs.append(MomentSpec(b=b, powers=powers))
    return specs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsmooth",
        description="q-Gaussian smoothed-functional stochastic optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid from a JSON config")
    p_run.add_argument("config", help="path to the JSON experiment config")
    p_run.add_argument("--output", "-o", help="write CSV here instead of stdout")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--table", action="store_true", help="also print a q x beta table")
    p_run.add_argument(
        "--no-timing", action="store_true",
        help="omit the wall-time column (byte-reproducible output)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_single = sub.add_parser("single", help="one run; prints distance + trajectory CSV")
    p_single.add_argument("--algo", choices=bench.ALGORITHMS, default="gqsf2")
    p_single.add_argument("--q", default="0.8")
    p_single.add_argument("--beta", type=float, default=0.005)
    p_single.add_argument("--gamma", type=float, default=0.75)
    p_single.add_argument("--preset", default="mg1-4d", help=f"one of {preset_names()}")
    p_single.add_argument("--M", type=int, default=10000)
    p_single.add_argument("--L", type=int, default=100)
    p_single.add_argument("--seed", type=int, default=0)
    p_single.add_argument("--record-every", type=int, default=100)
    p_single.set_defaults(func=_cmd_single)

    p_sample = sub.add_parser("sample", help="dump perturbation draws as CSV")
    p_sample.add_argument("--q", type=float, required=True)
    p_sample.add_argument("--dim", type=int, required=True)
    p_sample.add_argument("--count", type=int, default=10000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(func=_cmd_sample)

    p_mom = sub.add_parser("moments", help="analytic-moment verification grid")
    p_mom.add_argument("--q", type=float, required=True)
    p_mom.add_argument("--dim", type=int, required=True)
    p_mom.add_argument("--count", type=int, default=100000,
                       help="Monte-Carlo draws for comparison (0 disables)")
    p_mom.add_argument("--seed", type=int, default=0)
    p_mom.set_defaults(func=_cmd_moments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())

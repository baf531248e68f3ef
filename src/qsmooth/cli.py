"""Command-line interface.

Subcommands:
  run      execute an experiment grid from a JSON config file
  single   one optimization run, printing the final distance and trajectory
  sample   dump perturbation-sampler output for external statistical tests
  moments  print the analytic-moment verification grid for one (q, dim)

Exit codes: 0 success, 2 configuration error, 3 a replication failed (for
``run``, after the rest of the grid completed).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys

import numpy as np

from . import bench
from .qgaussian import (
    MomentDoesNotExistError,
    MomentSpec,
    QGaussianDomainError,
    _transform_constants,
    analytic_moment,
    sample_standard_many,
)
from .queueing import kernel_name, preset_names
from .rng import RngStream, derive_stream_id


def _config_error(err) -> int:
    print(f"config error: {err}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    try:
        if args.workers is not None and args.workers < 1:
            raise bench.ConfigError(f"--workers must be >= 1, got {args.workers}")
        config = bench.load_config(args.config)
        # opened before the grid, so that a path it cannot write fails
        # before any replication, and not truncated until the CSV is ready
        out = open(args.output, "a", encoding="utf-8") if args.output else None
    except (bench.ConfigError, OSError) as err:
        return _config_error(err)
    results = bench.run_experiment(config, workers=args.workers)
    for i, cell in enumerate(results):
        failed = [r for r, d in enumerate(cell.distances) if d is None]
        for rep, reason in zip(failed, cell.errors):
            print(f"cell {i} rep {rep}: {reason}", file=sys.stderr)
    csv_text = bench.emit_csv(results, include_timing=not args.no_timing)
    if out is not None:
        with out:
            if out.seekable():  # a pipe or a terminal has nothing to truncate
                out.truncate(0)
            out.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.table:
        sys.stdout.write(bench.emit_table(results))
    if any(r.failures for r in results):
        return 3
    return 0


def _cmd_single(args) -> int:
    data = {
        "algorithm": args.algo,
        "q_grid": [args.q],
        "beta_grid": [args.beta],
        "M": args.M,
        "replications": 1,
        "base_seed": args.seed,
        "system": args.preset,
    }
    data.update((k, v) for k, v in vars(args).items() if k in ("gamma", "L"))
    try:
        config = bench.config_from_dict(data)
    except bench.ConfigError as err:
        return _config_error(err)
    (q, beta), = config.cells()
    try:
        result = bench.run_replication(
            config, 0, q, beta, 0, record_every=args.record_every
        )
    except bench.REPLICATION_ERRORS as err:
        print(f"run failed: {err}", file=sys.stderr)
        return 3
    print(
        f"# kernel: {kernel_name()}  final distance: {result.distance:.6g}  "
        f"wall: {result.wall_time:.3f}s"
    )
    print("n," + ",".join(f"theta{i}" for i in range(len(config.theta0))) + ",distance")
    for point in result.trajectory or []:
        coords = ",".join(f"{v:.6g}" for v in point.theta)
        print(f"{point.n},{coords},{point.distance:.6g}")
    return 0


def _cmd_sample(args) -> int:
    if args.count < 0:
        return _config_error(f"--count must be >= 0, got {args.count}")
    try:
        stream = RngStream(args.seed, derive_stream_id(args.seed, "sample"))
        draws, rhos = sample_standard_many(args.q, args.dim, args.count, stream)
    except QGaussianDomainError as err:
        return _config_error(err)
    print(",".join(f"x{i}" for i in range(args.dim)) + ",rho")
    for row, r in zip(draws, rhos):
        print(",".join(f"{v:.9g}" for v in row) + f",{r:.9g}")
    return 0


def _cmd_moments(args) -> int:
    q, dim, count = args.q, args.dim, args.count
    if count < 0 or count == 1:
        # a standard error needs two draws
        return _config_error(f"--count must be 0 or >= 2, got {count}")
    try:
        # the domain every analytic moment checks, finite sampler constants
        # included, before the grid, which has dim axes, and before any
        # output
        _transform_constants(q, dim)
        if count:
            stream = RngStream(args.seed, derive_stream_id(args.seed, "moments"))
            draws, rhos = sample_standard_many(q, dim, count, stream)
            # row i of table[k]: draws[:, i] ** k, by the pow that draws ** powers took
            table = {k: (draws ** np.full(dim, k)).T.copy() for k in range(1, 5)}
            rho_powers = [rhos**b for b in range(3)]
    except QGaussianDomainError as err:
        return _config_error(err)
    print("b,powers,analytic,mc_mean,mc_stderr")
    for spec in _moment_grid(dim):
        powers = "|".join(str(p) for p in spec.powers)
        try:
            value = analytic_moment(spec, q, dim)
        except MomentDoesNotExistError:
            print(f"{spec.b},{powers},does-not-exist,,")
            continue
        if not count:
            print(f"{spec.b},{powers},{value:.9g},,")
            continue
        # the columns of the nonzero powers, multiplied in column order
        columns = (table[p][axis] for axis, p in enumerate(spec.powers) if p)
        sample_vals = functools.reduce(np.multiply, columns, np.ones(count)) / rho_powers[spec.b]
        mc = float(np.mean(sample_vals))
        se = float(np.std(sample_vals, ddof=1) / np.sqrt(count))
        print(f"{spec.b},{powers},{value:.9g},{mc:.9g},{se:.3g}")
    return 0


def _moment_grid(dim: int) -> list[MomentSpec]:
    """Verification grid: b <= 2 and total power <= 4, the zero powers at
    b = 0 only, each b's powers in lexicographic order."""
    # a multiset of 4 axes out of the dim axes and one more, for the power
    # short of 4, is one tuple of powers
    picks = itertools.combinations_with_replacement(range(dim + 1), 4)
    powers = sorted(tuple(pick.count(axis) for axis in range(dim)) for pick in picks)
    return [MomentSpec(b=b, powers=p) for b in range(3) for p in powers if b == 0 or any(p)]


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that takes a negative number in exponent
    notation as a value (``--q -1e-3``), as it does ``-0.5``: its own
    pattern for a negative number has no exponent.  The pattern is an
    argparse internal; ``test_cli_takes_a_negative_exponent_as_a_value``
    fails should a Python release stop reading it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    # left unset, --gamma and --L take the config defaults
    p_single.add_argument("--gamma", type=float, default=argparse.SUPPRESS)
    p_single.add_argument("--preset", default="mg1-4d", help=f"one of {preset_names()}")
    p_single.add_argument("--M", type=int, default=10000)
    p_single.add_argument("--L", type=int, default=argparse.SUPPRESS)
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

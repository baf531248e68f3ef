import collections
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsmooth.bench as bench
import qsmooth.cli as cli
from qsmooth.bench import (
    ALGORITHMS,
    CellResult,
    ConfigError,
    config_from_dict,
    emit_csv,
    emit_table,
    load_config,
    resolve_q,
    run_experiment,
    run_replication,
)
from qsmooth.cli import main
from qsmooth.optimizer import DivergenceError, SimulationError
from qsmooth.qgaussian import (
    MomentDoesNotExistError,
    MomentSpec,
    analytic_moment,
    sample_standard_many,
)
from qsmooth.queueing import kernel_name
from qsmooth.rng import RngStream, derive_stream_id
from qsmooth.smoothing import InvalidRhoError


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def small_config_dict(**overrides):
    d = {
        "algorithm": "gqsf2",
        "q_grid": [0.5, "gaussian"],
        "beta_grid": [0.01],
        "gamma": 0.75,
        "M": 60,
        "L": 5,
        "replications": 2,
        "base_seed": 7,
        "system": "mg1-4d",
    }
    d.update(overrides)
    return d


def _inline_system(**bad):
    """Config fields for a valid two-node inline system, with ``bad``
    replacing some of its entries."""
    system = {
        "arrival_rates": [0.2, 0.1],
        "p_leave": [0.0, 0.4],
        "service_constants": [10.0, 20.0],
        "dims": [2, 2],
        "theta_target": 0.3,
    }
    system.update(bad)
    return {"system": system, "box": {"lower": 0.1, "upper": 0.6}, "theta0": 0.2}


# -- configuration -------------------------------------------------------------

def test_config_defaults_and_aliases():
    cfg = config_from_dict(
        {
            "algorithm": "gqsf1",
            "q_grid": ["gaussian", "cauchy", 0.8],
            "beta_grid": [0.005],
            "M": 100,
            "base_seed": 1,
            "system": "mg1-4d",
        }
    )
    assert cfg.L == 100 and cfg.replications == 20 and cfg.gamma == 0.75
    assert cfg.q_grid == (1.0, 1.0 + 2.0 / 5.0, 0.8)  # cauchy at N=4 -> 1.4
    assert cfg.box.contains(cfg.theta0)
    np.testing.assert_array_equal(cfg.theta0, [0.1, 0.1, 0.6, 0.6])


def test_config_inline_system():
    cfg = config_from_dict(
        {
            "algorithm": "gqsf2",
            "q_grid": [0.5],
            "beta_grid": [0.01],
            "M": 10,
            "base_seed": 3,
            "system": {
                "arrival_rates": [0.5],
                "p_leave": [1.0],
                "service_constants": [10.0],
                "dims": [2],
                "theta_target": 0.3,
            },
            "box": {"lower": 0.1, "upper": 0.6},
            "theta0": [0.2, 0.2],
        }
    )
    assert cfg.system.total_dim == 2
    assert cfg.box.dim == 2
    # the base of the inline-system cases of test_config_rejects_bad_values
    assert config_from_dict(small_config_dict(**_inline_system())).system.dims == (2, 2)


@pytest.mark.parametrize(
    "mutation",
    [
        {"algorithm": "sgd"},
        {"q_grid": []},
        {"q_grid": ["cuachy"]},
        {"q_grid": [1.6]},  # above 1 + 2/4
        {"beta_grid": [0.0]},
        {"gamma": 1.0},
        {"M": 0},
        {"system": "no-such-preset"},
        {"theta0": [0.9, 0.9, 0.9, 0.9]},
        {"bogus_field": 1},
        {"q_grid": [1.5 - 1e-10]},  # within 1e-9 of 1 + 2/4
        {"beta_grid": [float("nan")]},
        {"common_random_numbers": "false"},
        {"common_random_numbers": 0},
        {"M": 10.7},
        {"M": True},
        {"L": "100"},
        {"replications": 2.0},
        {"base_seed": "7"},
        {"beta_grid": [True]},
        {"q_grid": [True]},
        {"gamma": "0.7"},
        {"beta_grid": ["0.01"]},
        {"q_grid": ["0.8"]},  # a number in a string is no alias
        {"q_grid": [" 1 "]},
        {"replications": 0},
        {"theta0": "abc"},
        _inline_system(dims=[2.7, 2]),
        _inline_system(dims=[True, 3]),
        _inline_system(dims="22"),
        _inline_system(arrival_rates=[True, 0.1]),
        _inline_system(arrival_rates=["0.5", 0.1]),
        _inline_system(p_leave=[0.0, "0.4"]),
        _inline_system(p_leave=[0.0, True]),
        _inline_system(service_constants=[True, 20.0]),
        _inline_system(service_constants=["10", 20.0]),
        _inline_system(p_leave=[0.0, 0.0]),  # no customer ever leaves
        _inline_system(arrival_rates=[5.0, 0.1]),  # node 0 overloaded
        _inline_system(arrival_rates=[3.0, 0.1]),  # overloaded at a box corner only
        # a q whose sampler constants are not finite, so that no draw is ever
        # accepted, and an infinite beta
        {"q_grid": ["-inf"]},
        {"q_grid": [float("-inf")]},
        {"q_grid": [-1e308]},
        {"beta_grid": [float("inf")]},
    ],
)
def test_config_rejects_bad_values(mutation):
    with pytest.raises(ConfigError):
        config_from_dict(small_config_dict(**mutation))


@pytest.mark.parametrize(
    "field, value, message",
    [
        # theta0 was converted before the checks, so "a" raised a bare ValueError
        ("theta0", ["a"] * 4, "theta0 entry must be a number, got 'a'"),
        ("theta0", ["0.3"] * 4, "theta0 entry must be a number, got '0.3'"),
        ("M", 0, "M must be an integer >= 1, got 0"),
        ("L", 2.5, "L must be an integer >= 1, got 2.5"),
        ("replications", 0, "replications must be an integer >= 1, got 0"),
        ("base_seed", True, "base_seed must be an integer, got True"),
        ("gamma", "0.7", "gamma must be a number, got '0.7'"),
        ("q_grid", (0.8, 10**400), "q is too large, got " + str(10**400)),
    ],
)
def test_experiment_config_raises_each_refusal_as_a_config_error(field, value, message):
    config = config_from_dict(small_config_dict())
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(config, **{field: value})


def test_experiment_config_takes_any_integer_seed_as_an_int():
    config = config_from_dict(small_config_dict())
    assert config_from_dict(small_config_dict(base_seed=-3)).base_seed == -3
    for seed in (np.int64(-3), np.uint8(3)):
        resolved = dataclasses.replace(config, base_seed=seed, replications=np.int32(2))
        assert type(resolved.base_seed) is int and resolved.base_seed == seed
        assert type(resolved.replications) is int and resolved.replications == 2


NON_FINITE_TARGET = "theta_target entries must be finite"


@pytest.mark.parametrize(
    "mutation, message",
    [
        (_inline_system(arrival_rates=[math.inf, 0.1]), "arrival rates must be finite and >= 0"),
        (_inline_system(arrival_rates=[math.nan, 0.1]), "arrival rates must be finite and >= 0"),
        (_inline_system(service_constants=[math.nan, 20.0]), "service constants must be > 0"),
        # not the utilisation check's "utilisation nan"
        (_inline_system(theta_target=[0.3, math.nan, 0.3, 0.3]), NON_FINITE_TARGET),
        (_inline_system(theta_target=math.inf), NON_FINITE_TARGET),
        (_inline_system(theta_target=[0.3, 0.3, 0.3, -math.inf]), NON_FINITE_TARGET),
    ],
    ids=["inf rate", "nan rate", "nan constant", "nan target", "inf target", "-inf target"],
)
def test_config_names_the_field_of_a_non_finite_rate(mutation, message):
    # not the utilisation check's "unstable network" or "no solution"
    with pytest.raises(ConfigError, match=f"^bad inline system: {message}$"):
        config_from_dict(small_config_dict(**mutation))


def _vector_field(field, value):
    """A config of the 4-d inline system whose vector ``field`` (theta0,
    box.lower, box.upper or theta_target) is ``value``."""
    fields = _inline_system()
    if field == "theta_target":
        fields = _inline_system(theta_target=value)
    elif field == "theta0":
        fields["theta0"] = value
    else:
        fields["box"] = {**fields["box"], field.split(".")[1]: value}
    return small_config_dict(**fields)


@pytest.mark.parametrize("field", ["theta0", "box.lower", "box.upper", "theta_target"])
@pytest.mark.parametrize(
    "value, named",
    [("0.2", "{}"), (True, "{}"), (10**400, "{}"), (None, "{}"), (["0.2"] * 4, "{} entry"),
     ([0.2, 0.2, False, 0.2], "{} entry"), ([0.2, 0.2, 0.2, 10**400], "{} entry"),
     ([[0.2]] * 4, "{} entry")],
)
def test_a_vector_field_takes_numbers_only(field, value, named):
    # each entry, and a scalar, is checked as every scalar field is
    with pytest.raises(ConfigError, match=re.escape(named.format(field))):
        config_from_dict(_vector_field(field, value))
    assert config_from_dict(_vector_field(field, 0.2)).system.total_dim == 4


@pytest.mark.parametrize(
    "field, values",
    [("theta0", [0.2, 0.25, 0.5, 0.3]), ("box.lower", [0.1, 0.15, 0, 0.2]),
     ("box.upper", [0.6, 0.5, 1, 0.3]), ("theta_target", [0.2, 0.25, 0.5, 0.3])],
)
def test_a_vector_field_takes_a_list_of_numbers(field, values):
    config = config_from_dict(_vector_field(field, values))
    vectors = {"theta0": config.theta0, "box.lower": config.box.lower,
               "box.upper": config.box.upper, "theta_target": config.system.theta_target}
    assert vectors[field].dtype == np.float64 and vectors[field].tolist() == values


# numeric extremes for the config-path fuzz below
EXTREMES = (math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, 1e-300)
# (field, value, coordinate): coordinate 4 sets a whole vector
MUTATION = st.tuples(
    st.sampled_from(["q_grid", "beta_grid", "gamma", "lower", "upper", "theta0"]),
    st.sampled_from(EXTREMES),
    st.integers(0, 4),
)


@settings(max_examples=300)
@given(algorithm=st.sampled_from(ALGORITHMS), mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_numeric_extremes_fail_at_load_or_run_to_the_end(algorithm, mutations):
    # every config either fails at load or runs without an error escaping
    # the ones a grid records per replication
    spec = {
        "algorithm": algorithm, "q_grid": [0.8], "beta_grid": [0.05], "gamma": 0.75,
        "M": 2, "L": 2, "replications": 1, "base_seed": 11, "system": "mg1-4d",
        "box": {"lower": [0.1] * 4, "upper": [0.6] * 4}, "theta0": [0.2] * 4,
    }
    for field, value, i in mutations:
        if field in ("q_grid", "beta_grid"):
            spec[field] = [value]
        elif field == "gamma":
            spec["gamma"] = value
        else:
            vector = spec["box"][field] if field in ("lower", "upper") else spec[field]
            if i == 4:
                vector[:] = [value] * 4
            else:
                vector[i] = value
    with np.errstate(all="ignore"):
        # through JSON, which spells the extremes Infinity, -Infinity and NaN
        try:
            config = config_from_dict(json.loads(json.dumps(spec)))
        except ConfigError:
            return
        q, beta = config.cells()[0]
        with contextlib.suppress(*bench.REPLICATION_ERRORS):
            run_replication(config, 0, q, beta, 0)


# JSON values of every type, and nested ones, for the config fuzz below
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(EXTREMES)
    | st.floats(-2.0, 2.0) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4,
)


@st.composite
def inline_systems(draw):
    """An inline system with random per-node values, a list now and then of
    another length than its node count, and a box and theta0 to match."""
    k = draw(st.integers(1, 4))

    def per_node(values):
        n = draw(st.sampled_from([k] * 18 + [k - 1, k + 1]))
        return draw(st.lists(values, min_size=n, max_size=n))

    dims = per_node(st.integers(1, 3))
    dim = sum(dims)
    vector = st.floats(0.0, 1.0) | st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)
    lower = draw(st.floats(0.0, 0.5))
    return {
        "system": {
            "arrival_rates": per_node(st.floats(0.0, 0.5)),
            "p_leave": per_node(st.floats(0.0, 1.0)),
            "service_constants": per_node(st.floats(0.5, 50.0)),
            "dims": dims,
            "theta_target": draw(vector),
        },
        "box": {"lower": lower, "upper": lower + draw(st.floats(0.01, 0.5))},
        "theta0": lower,
    }


@st.composite
def fuzzed_configs(draw):
    """A config for M=2, L=2, on mg1-4d or a random inline system, with
    some keys deleted, some values replaced by JSON values of any type, and
    some lists cut short or nested."""
    spec = {
        "algorithm": draw(st.sampled_from(ALGORITHMS)), "q_grid": [0.8], "beta_grid": [0.05],
        "M": 2, "L": 2, "replications": 1, "base_seed": 11, "system": "mg1-4d",
    }
    spec.update(draw(st.just({}) | inline_systems(), label="system"))
    for _ in range(draw(st.integers(0, 3), label="edits")):
        # a key of the config, or of its system or box object
        owners = [spec] + [v for v in (spec.get("system"), spec.get("box")) if isinstance(v, dict)]
        owner = draw(st.sampled_from(owners))
        if not owner:
            continue
        key = draw(st.sampled_from(sorted(owner)))
        edit = draw(st.sampled_from(["delete", "replace", "nest", "cut"]))
        if edit == "delete":
            del owner[key]
        elif edit == "replace":
            owner[key] = draw(JSON_VALUES, label=key)
        elif edit == "nest":
            owner[key] = [owner[key]]
        elif isinstance(owner[key], list):
            owner[key] = owner[key][: draw(st.integers(0, max(0, len(owner[key]) - 1)))]
    return spec


@settings(max_examples=300)
@given(spec=fuzzed_configs())
def test_random_configs_fail_at_load_or_run_to_the_end(spec):
    # wrong types and shapes, missing keys and random inline systems: each
    # config fails at load with ConfigError, or each of its cells runs with
    # no error escaping the ones a grid records per replication
    with np.errstate(all="ignore"):
        try:
            config = config_from_dict(json.loads(json.dumps(spec)))
        except ConfigError:
            return
        for i, (q, beta) in enumerate(config.cells()):
            with contextlib.suppress(*bench.REPLICATION_ERRORS):
                run_replication(config, i, q, beta, 0)


@pytest.mark.parametrize("bound", [-1e308, 1e308])
def test_a_far_box_fails_at_load_without_a_warning(bound):
    # the worst corner's squared distance overflows to inf, which the
    # stability check rejects; the overflow itself is not reported
    spec = small_config_dict(box={"lower": min(bound, 0.1), "upper": max(bound, 0.6)},
                             theta0=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            config_from_dict(spec)


@pytest.mark.parametrize(
    "extra", [{"capacity": [5, 5]}, {"arrival_rate": [9.0, 9.0]}], ids=["extra", "misspelled"]
)
def test_config_rejects_unknown_system_fields(extra):
    # a misspelled key beside the right one used to load and be ignored
    with pytest.raises(ConfigError, match=f"unknown system fields: \\['{next(iter(extra))}'\\]"):
        config_from_dict(small_config_dict(**_inline_system(**extra)))


def test_config_rejects_unknown_keys_of_mixed_types():
    # a Python caller's keys of two types used to fail being sorted, with
    # TypeError
    with pytest.raises(ConfigError, match=r"unknown config fields: \[1, 'a'\]"):
        config_from_dict({**small_config_dict(), 1: 2, "a": 3})


@pytest.mark.parametrize("dims", [[-1, 2], [2, 0], [-3, -1]])
def test_config_names_a_bad_inline_dimension(dims):
    # theta_target is sized from the dims, so a negative one used to be
    # reported as a theta_target of length -1
    with pytest.raises(ConfigError, match="system.dims entry must be an integer >= 1"):
        config_from_dict(small_config_dict(**_inline_system(dims=dims)))


def test_config_missing_fields():
    with pytest.raises(ConfigError):
        config_from_dict({"algorithm": "gqsf1"})


@pytest.mark.parametrize("data", [[], ["gqsf2"], "gqsf2", 3, None])
def test_config_must_be_a_json_object(data, tmp_path):
    with pytest.raises(ConfigError, match="^experiment config must be a JSON object$"):
        config_from_dict(data)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_config(str(path))


def test_load_config_bad_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_resolve_q():
    assert resolve_q("gaussian", 4) == 1.0
    assert resolve_q(" Cauchy ", 4) == pytest.approx(1.4)
    assert resolve_q(0.3, 4) == 0.3
    for name in ("uniform", "0.8", "1", "-inf"):
        with pytest.raises(ConfigError, match="unknown q alias"):
            resolve_q(name, 4)


# -- execution -------------------------------------------------------------------

def test_replication_reproducible():
    cfg = config_from_dict(small_config_dict())
    a = run_replication(cfg, 0, 0.5, 0.01, 0)
    b = run_replication(cfg, 0, 0.5, 0.01, 0)
    assert a.distance == b.distance
    np.testing.assert_array_equal(a.theta_final, b.theta_final)


def test_grid_runs_and_is_deterministic_across_worker_counts():
    cfg = config_from_dict(small_config_dict())
    serial = run_experiment(cfg, workers=1)
    pooled = run_experiment(cfg, workers=2)
    assert emit_csv(serial, include_timing=False) == emit_csv(pooled, include_timing=False)
    assert len(serial) == 2  # grid order: q outer, beta inner
    assert [r.q for r in serial] == [0.5, 1.0]
    for cell in serial:
        assert cell.failures == 0
        assert len(cell.distances) == cfg.replications
        assert cell.mean_distance == pytest.approx(float(np.mean(cell.distances)))


def test_the_pool_starts_no_more_workers_than_tasks():
    # 8 workers asked for on 2 tasks start 2 threads
    cfg = config_from_dict(small_config_dict(q_grid=[0.5], replications=2))
    start = threading.Thread.start
    with mock.patch.object(threading.Thread, "start", autospec=True, side_effect=start) as started:
        pooled = run_experiment(cfg, workers=8)
    assert started.call_count == 2
    serial = run_experiment(cfg, workers=1)
    assert [cell.distances for cell in pooled] == [cell.distances for cell in serial]
    assert emit_csv(pooled, include_timing=False) == emit_csv(serial, include_timing=False)


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "no-affinity-call"])
def test_the_default_worker_count_is_the_cpus_this_process_may_run_on(affinity, monkeypatch):
    # a process pinned to one CPU (taskset, a cpuset) runs a 4-task grid
    # serially, starting no thread, though the host has more CPUs; where
    # the platform has no affinity call, every CPU counts
    cfg = config_from_dict(small_config_dict(replications=2))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    start = threading.Thread.start
    with mock.patch.object(threading.Thread, "start", autospec=True, side_effect=start) as started:
        default = run_experiment(cfg)
    assert started.call_count == (0 if affinity else 4)
    serial = run_experiment(cfg, workers=1)
    assert emit_csv(default, include_timing=False) == emit_csv(serial, include_timing=False)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def reaped_workers():
    """Bounds the test in time, so that a grid that hangs fails it, and
    checks that it leaves no worker unreaped and no descriptor open."""

    def hung(signum, frame):
        raise TimeoutError("the grid did not finish in 60 s")

    before = _open_fds()
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == before


# five tasks: every worker count below splits them unevenly
FIVE_TASKS = small_config_dict(q_grid=[0.5], replications=5)


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_pooled_grids_equal_the_serial_grid(workers, reaped_workers):
    cfg = config_from_dict(FIVE_TASKS)
    serial = run_experiment(cfg, workers=1)
    pooled = run_experiment(cfg, workers=workers)
    assert [cell.distances for cell in pooled] == [cell.distances for cell in serial]
    assert emit_csv(pooled, include_timing=False) == emit_csv(serial, include_timing=False)


def test_outcomes_larger_than_a_pipe_buffer_come_back_whole(monkeypatch, reaped_workers):
    # worker 0 of 2 sends three 40 KiB reasons, past a 64 KiB pipe buffer
    def failing(config, cell_index, q, beta, rep):
        raise InvalidRhoError(f"rep {rep} " + "x" * 40_000)

    monkeypatch.setattr(bench, "run_replication", failing)
    cfg = config_from_dict(FIVE_TASKS)
    (cell,) = run_experiment(cfg, workers=2)
    assert cell.errors == tuple(f"rep {rep} " + "x" * 40_000 for rep in range(5))
    assert cell.failures == 5


class _UnpicklableError(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize(
    "bug, raised, message",
    [(LookupError, LookupError, "^rep 1$"),
     (_UnpicklableError, _UnpicklableError, "^rep 1$")],
)
def test_a_bug_in_a_worker_is_raised_from_the_earliest_task(
    bug, raised, message, monkeypatch, reaped_workers
):
    # task 1 fails only once task 2 has: task 1's error is raised, as
    # serially, itself and with its own traceback, and no task starts
    # after task 2's
    started, failed = [], threading.Event()

    def buggy(config, cell_index, q, beta, rep):
        started.append(rep)
        if rep == 2:
            failed.set()
            raise ArithmeticError("rep 2")
        if rep == 1:
            failed.wait(timeout=30)
            raise bug(f"rep {rep}")
        return run_replication(config, cell_index, q, beta, rep)

    monkeypatch.setattr(bench, "run_replication", buggy)
    cfg = config_from_dict(FIVE_TASKS)
    with pytest.raises(raised, match=message) as caught:
        run_experiment(cfg, workers=2)
    assert caught.traceback[-1].name == "buggy"
    assert failed.is_set() and sorted(started) == [0, 1, 2]


def test_every_worker_has_a_replication_in_flight_at_once(monkeypatch):
    # each replication waits at the barrier until the other worker's
    # arrives; one after another, the first would time out
    barrier = threading.Barrier(2, timeout=30)

    def meeting(*args):
        barrier.wait()
        return run_replication(*args)

    monkeypatch.setattr(bench, "run_replication", meeting)
    cfg = config_from_dict(small_config_dict(q_grid=[0.5], replications=4))
    (cell,) = run_experiment(cfg, workers=2)
    assert cell.failures == 0 and not barrier.broken


def test_threads_switching_often_run_every_task_once_into_its_slot(monkeypatch, reaped_workers):
    # eight threads switching every microsecond: a task taken twice, or an
    # outcome written to another slot, shows in the counts
    runs = []

    def counted(config, cell_index, q, beta, rep):
        runs.append((cell_index, rep))
        return mock.Mock(distance=cell_index + rep / 100, wall_time=0.0)

    monkeypatch.setattr(bench, "run_replication", counted)
    cfg = config_from_dict(small_config_dict(q_grid=[0.5, 0.8, 1.0, 1.1], replications=10))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run_experiment(cfg, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert collections.Counter(runs) == {(i, r): 1 for i in range(4) for r in range(10)}
    assert [cell.distances for cell in results] == [
        tuple(i + r / 100 for r in range(10)) for i in range(4)
    ]


_INTERRUPTED_GRID = """
import os
import signal
import threading
import time

from qsmooth import bench

config = bench.config_from_dict({spec!r})
real = bench.run_replication
started = []


def interrupting(config, cell_index, q, beta, rep):
    started.append(rep)
    if rep == 0:
        os.kill(os.getpid(), signal.SIGINT)
    time.sleep(0.2)  # long enough for the main thread to act first
    return real(config, cell_index, q, beta, rep)


bench.run_replication = interrupting
try:
    bench.run_experiment(config, workers=2)
except KeyboardInterrupt:
    print("interrupted")
print(threading.active_count(), len(started) < {tasks})
"""


def test_an_interrupt_stops_the_grid_and_joins_every_thread():
    # in a new interpreter bounded in time, so that a hang fails the test
    spec = small_config_dict(q_grid=[0.5], replications=8)
    out = _fresh_python("-c", _INTERRUPTED_GRID.format(spec=spec, tasks=8))
    assert out == "interrupted\n1 True\n"


@pytest.mark.parametrize("workers", [0, -3, 2.5, True])
def test_fewer_than_one_worker_is_refused_before_any_replication(
    workers, tmp_path, monkeypatch, capsys
):
    # 2.5 failed in range() and True ran serially
    monkeypatch.setattr(bench, "run_replication", mock.Mock(side_effect=AssertionError))
    cfg = config_from_dict(small_config_dict())
    with pytest.raises(ValueError, match=f"^workers must be an integer >= 1, got {workers}$"):
        run_experiment(cfg, workers=workers)
    if type(workers) is int:  # argparse's int type refuses "2.5" and "True" itself
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config_dict()))
        assert main(["run", str(cfg_path), f"--workers={workers}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: --workers must be >= 1, got {workers}\n"
        assert captured.out == ""
    bench.run_replication.assert_not_called()


def test_the_library_is_loaded_before_the_pool_starts(monkeypatch):
    # so that the threads do not each build and load it
    monkeypatch.setattr(bench._native, "load", functools.cache(bench._native.load.__wrapped__))
    run_experiment(config_from_dict(small_config_dict(q_grid=[0.5], replications=2)), workers=2)
    assert bench._native.load.cache_info().misses == 1


def _fresh_python(*argv) -> str:
    """The stdout of a new interpreter on this qsmooth, bounded in time so
    that a hung child fails the test."""
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(bench.__file__).resolve().parent.parent)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_serial_runs_load_neither_scipy_nor_the_process_pool():
    # each costs start-up time and memory in every process that imports
    # qsmooth; only the analytic values need scipy, and not even a grid
    # over threads needs concurrent.futures or multiprocessing
    spec = small_config_dict(q_grid=[0.8], replications=2)
    pools = "{'concurrent.futures', 'multiprocessing'}"
    code = (
        "import sys\n"
        "import qsmooth.cli\n"
        "from qsmooth import bench, qgaussian\n"
        "assert qsmooth.cli.main(['single', '--M', '20', '--L', '10']) == 0\n"
        f"bench.run_experiment(bench.config_from_dict({spec!r}), workers=1)\n"
        f"print(sorted(({pools} | {{'scipy'}}) & set(sys.modules)))\n"
        f"bench.run_experiment(bench.config_from_dict({spec!r}), workers=2)\n"
        f"print(sorted({pools} & set(sys.modules)))\n"
        "print(repr(qgaussian.analytic_moment(qgaussian.MomentSpec(1, (2, 0)), 0.8, 2)))\n"
    )
    out = _fresh_python("-c", code).splitlines()
    assert out[-3:] == ["[]", "[]", repr(analytic_moment(MomentSpec(1, (2, 0)), 0.8, 2))]


def test_numpy_random_is_imported_by_the_first_stream_only(tmp_path):
    # importing it costs 10-20 ms, which every process pays at set-up;
    # imports, a config loaded from a file and stream ids need none of it
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(small_config_dict(q_grid=[0.8], replications=2)))
    code = (
        "import sys\n"
        "import qsmooth.cli\n"
        "from qsmooth import bench, rng\n"
        f"config = bench.load_config({str(path)!r})\n"
        "rng.derive_stream_id(config.base_seed, 0, 1, 'perturbation')\n"
        "print('numpy.random' in sys.modules)\n"
        "rng.RngStream(config.base_seed, 1)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert _fresh_python("-c", code).splitlines() == ["False", "True"]


_SPAWNED_REPLICATION = """
import json
import multiprocessing
import sys

from qsmooth import bench


def replicate(task):
    return bench._replication_task(task), "scipy" in sys.modules


if __name__ == "__main__":
    config = bench.config_from_dict(json.loads(sys.argv[1]))
    (q, beta), = config.cells()
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        (distance, _, reason), scipy_loaded = pool.apply_async(
            replicate, ((config, 0, q, beta, 0),)
        ).get(timeout=100)
    print(float.hex(distance), reason, scipy_loaded)
"""


def test_a_spawned_worker_gives_the_in_process_result(tmp_path):
    # as the workers of a forkserver or spawn pool do, the child imports
    # qsmooth afresh and loads the library itself
    spec = small_config_dict(q_grid=[0.8], beta_grid=[0.005], M=50, L=10, replications=1)
    script = tmp_path / "spawned_replication.py"
    script.write_text(_SPAWNED_REPLICATION)
    out = _fresh_python(str(script), json.dumps(spec))
    config = config_from_dict(spec)
    distance, _, reason = bench._replication_task((config, 0, *config.cells()[0], 0))
    assert reason is None
    assert out == f"{float.hex(distance)} None False\n"


def test_single_replication_cell_has_zero_std():
    cfg = config_from_dict(small_config_dict(replications=1, q_grid=[0.5]))
    (cell,) = run_experiment(cfg, workers=1)
    assert cell.std_distance == 0.0
    assert cell.mean_distance == cell.distances[0]


def test_failures_counted_not_fatal(monkeypatch):
    cfg = config_from_dict(small_config_dict(q_grid=[0.5], replications=3))
    real = run_replication
    error = DivergenceError(5, np.array([np.inf]), {"seed": 0})

    def sometimes_diverges(config, cell_index, q, beta, rep):
        if rep == 1:
            raise error
        return real(config, cell_index, q, beta, rep)

    monkeypatch.setattr(bench, "run_replication", sometimes_diverges)
    (cell,) = run_experiment(cfg, workers=1)
    assert cell.failures == 1
    assert cell.distances[1] is None
    assert cell.errors == (str(error),)
    assert np.isfinite(cell.mean_distance)


@pytest.mark.parametrize(
    "error", [SimulationError(3, 2, {"seed": 7}), InvalidRhoError("rho=-0.5 <= 0")]
)
def test_replication_error_isolated_to_its_replication(
    error, monkeypatch, tmp_path, capsys
):
    spec = small_config_dict(M=30, replications=2)
    cfg = config_from_dict(spec)
    clean = run_experiment(cfg, workers=1)
    real = run_replication

    def fails_once(config, cell_index, q, beta, rep):
        if (cell_index, rep) == (1, 0):
            raise error
        return real(config, cell_index, q, beta, rep)

    monkeypatch.setattr(bench, "run_replication", fails_once)
    hit = run_experiment(cfg, workers=1)
    assert [c.failures for c in hit] == [0, 1]
    assert hit[0] == dataclasses.replace(clean[0], seconds=hit[0].seconds)
    assert hit[1].distances == (None, clean[1].distances[1])
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(spec))
    capsys.readouterr()
    assert main(["run", str(cfg_path), "--workers", "1", "--no-timing"]) == 3
    assert capsys.readouterr().err == f"cell 1 rep 0: {error}\n"


def test_seed_derivation_no_shared_streams():
    ids = {
        derive_stream_id(7, cell, rep, tag)
        for cell in range(10)
        for rep in range(20)
        for tag in ("perturbation", "sim+", "sim-")
    }
    assert len(ids) == 10 * 20 * 3


def test_crn_toggle_shares_sim_stream():
    base = small_config_dict(q_grid=[0.5], replications=1, M=20)
    plain = run_experiment(config_from_dict(base), workers=1)[0]
    crn = run_experiment(
        config_from_dict({**base, "common_random_numbers": True}), workers=1
    )[0]
    # same perturbations, different pairing of simulation noise
    assert plain.distances != crn.distances


# -- output ----------------------------------------------------------------------

def _fake_cell(**overrides):
    kw = dict(
        algorithm="gqsf2", q=1.0, beta=0.005, gamma=0.75, M=100, L=10,
        replications=2, mean_distance=0.0123456, std_distance=0.000123,
        distances=(0.012, 0.0126), failures=0, seconds=1.5,
    )
    kw.update(overrides)
    return CellResult(**kw)


def test_emit_csv_empty_and_single():
    header_only = emit_csv([])
    assert header_only.count("\n") == 1
    assert header_only.startswith("algorithm,q,beta,gamma,M,L,replications,")
    two_lines = emit_csv([_fake_cell()])
    assert two_lines.count("\n") == 2


def test_emit_csv_bytes():
    # the exact bytes, so that a change to a column's name, order or format
    # shows; the second row has a value that rounds and NaN statistics
    cells = [_fake_cell(), _fake_cell(q=1 / 3, mean_distance=float("nan"),
                                      std_distance=float("nan"), failures=2, seconds=0.0)]
    assert emit_csv(cells) == (
        "algorithm,q,beta,gamma,M,L,replications,mean_distance,std_distance,failures,seconds\n"
        "gqsf2,1,0.005,0.75,100,10,2,0.0123456,0.000123,0,1.5\n"
        "gqsf2,0.333333,0.005,0.75,100,10,2,nan,nan,2,0\n"
    )
    assert emit_csv(cells, include_timing=False) == (
        "algorithm,q,beta,gamma,M,L,replications,mean_distance,std_distance,failures\n"
        "gqsf2,1,0.005,0.75,100,10,2,0.0123456,0.000123,0\n"
        "gqsf2,0.333333,0.005,0.75,100,10,2,nan,nan,2\n"
    )


def test_emit_csv_roundtrip():
    cells = [_fake_cell(), _fake_cell(q=0.5, mean_distance=0.5)]
    rows = parse_csv(emit_csv(cells))
    assert len(rows) == 2
    for row, cell in zip(rows, cells):
        assert row["algorithm"] == cell.algorithm
        assert float(row["q"]) == pytest.approx(cell.q, rel=1e-5)
        assert float(row["mean_distance"]) == pytest.approx(cell.mean_distance, rel=1e-5)
        assert int(row["failures"]) == cell.failures
    without_timing = parse_csv(emit_csv(cells, include_timing=False))
    assert "seconds" not in without_timing[0]


def test_emit_table_layout():
    cells = [
        _fake_cell(q=0.5, beta=0.005),
        _fake_cell(q=0.5, beta=0.01),
        _fake_cell(q=1.0, beta=0.005),
        _fake_cell(q=1.0, beta=0.01, failures=2, mean_distance=float("nan"),
                   std_distance=float("nan")),
    ]
    table = emit_table(cells)
    lines = table.splitlines()
    assert len(lines) == 5  # title, header, rule, two q rows
    assert "Gaussian" in table
    assert "0.01235±0.00012" in table
    assert "failed" in table and "diverged" not in table
    assert emit_table([]) == "(empty grid)\n"


def test_emit_table_marks_a_missing_cell_and_a_partly_failed_one():
    cells = [
        _fake_cell(q=0.5, beta=0.005, failures=1, std_distance=float("nan")),
        _fake_cell(q=0.5, beta=0.01),
        _fake_cell(q=1.0, beta=0.01),
    ]
    assert emit_table(cells).splitlines()[3:] == [
        "0.5       0.01235±nan [1 failed]  0.01235±0.00012",
        "Gaussian  -                       0.01235±0.00012",
    ]


# -- CLI -------------------------------------------------------------------------

def test_cli_main_builds_one_parser_per_process(tmp_path):
    # in a fresh interpreter: importing the CLI builds no parser, and four
    # calls of main build one; a --gamma or --L given to one call does not
    # leak into the next, whose config takes the defaults, and the same run
    # twice prints the same CSV
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(small_config_dict(M=30, replications=1)))
    outputs = [tmp_path / "first.csv", tmp_path / "second.csv"]
    code = (
        "import argparse, json\n"
        "parsers = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    parsers.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from qsmooth import bench, cli\n"
        "assert parsers == [], parsers\n"
        "builds, configs = [], []\n"
        "build, from_dict = cli.build_parser, bench.config_from_dict\n"
        "cli.build_parser = lambda: builds.append(1) or build()\n"
        "bench.config_from_dict = lambda data: configs.append(from_dict(data)) or configs[-1]\n"
        "codes = [cli.main(['single', '--M', '20', '--L', '7', '--gamma', '0.6']),\n"
        "         cli.main(['single', '--M', '20'])]\n"
        f"for path in {[str(p) for p in outputs]!r}:\n"
        f"    codes.append(cli.main(['run', {str(cfg_path)!r}, '-o', path, '--no-timing']))\n"
        "print(json.dumps([codes, len(builds), [[c.gamma, c.L] for c in configs]]))\n"
    )
    codes, builds, settings = json.loads(_fresh_python("-c", code).splitlines()[-1])
    assert codes == [0, 0, 0, 0] and builds == 1
    defaults = {f.name: f.default for f in dataclasses.fields(bench.ExperimentConfig)}
    assert settings[:2] == [[0.6, 7], [defaults["gamma"], defaults["L"]]]
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_cli_run_table_follows_the_csv(tmp_path, capsys):
    data = small_config_dict(M=30, replications=1)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["run", str(cfg_path), "--workers", "1", "--no-timing", "--table"]) == 0
    results = run_experiment(config_from_dict(data), workers=1)
    assert capsys.readouterr().out == emit_csv(results, include_timing=False) + emit_table(results)


def test_cli_run_roundtrip(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(small_config_dict(M=30, replications=1)))
    out_path = tmp_path / "out.csv"
    code = main(["run", str(cfg_path), "--output", str(out_path), "--workers", "1",
                 "--no-timing"])
    assert code == 0
    rows = parse_csv(out_path.read_text())
    assert len(rows) == 2
    # identical invocation is byte-identical
    out2 = tmp_path / "out2.csv"
    assert main(["run", str(cfg_path), "--output", str(out2), "--workers", "1",
                 "--no-timing"]) == 0
    assert out_path.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("where", ["in-a-missing-directory", "a-directory"])
def test_cli_run_refuses_an_output_it_cannot_open_before_the_grid(where, tmp_path, capsys):
    # the whole grid used to run before the output failed to open, and every
    # result was lost with a FileNotFoundError traceback
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(small_config_dict(M=30, replications=1)))
    output = tmp_path / "nope" / "out.csv" if where == "in-a-missing-directory" else tmp_path
    with mock.patch.object(bench, "run_replication") as replication:
        assert main(["run", str(cfg_path), "-o", str(output), "--workers", "1"]) == 2
    assert replication.call_count == 0
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_run_replaces_an_output_only_once_the_grid_is_done(tmp_path):
    # the output is opened before the grid, but truncated only when the CSV
    # is written
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(small_config_dict(M=30, replications=1)))
    out_path, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    out_path.write_text("stale\n" * 1000)
    grid = bench.run_experiment

    def checked(*args, **kwargs):
        assert out_path.read_text() == "stale\n" * 1000
        return grid(*args, **kwargs)

    with mock.patch.object(bench, "run_experiment", checked):
        assert main(["run", str(cfg_path), "-o", str(out_path), "--workers", "1",
                     "--no-timing"]) == 0
    assert main(["run", str(cfg_path), "-o", str(fresh), "--workers", "1", "--no-timing"]) == 0
    assert out_path.read_bytes() == fresh.read_bytes()


def test_cli_run_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(small_config_dict(algorithm="nope")))
    assert main(["run", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b'{"M": 30, "system": "mg1-4d\xff"}', b"[" * 200_000],
    ids=["not-utf-8", "nested-too-deeply"],
)
def test_cli_run_reports_a_config_file_json_cannot_read(content, tmp_path, capsys):
    # a UnicodeDecodeError and a RecursionError used to end the run in a
    # traceback with exit 1
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(content)
    with mock.patch.object(bench, "run_replication") as replication:
        assert main(["run", str(cfg_path)]) == 2
    assert replication.call_count == 0
    assert capsys.readouterr().err.startswith("config error: config file is not valid UTF-8 JSON")


def test_cli_single(capsys):
    code = main(["single", "--algo", "gqsf1", "--q", "0.8", "--beta", "0.01",
                 "--M", "40", "--L", "5", "--record-every", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "final distance" in out
    assert out.startswith(f"# kernel: {kernel_name()}  ")
    assert out.count("\n") >= 4  # summary + header + trajectory rows


@pytest.mark.parametrize(
    "flags, code",
    [(["--preset", "nope"], 2), (["--M", "0"], 2), (["--q", "gaussian", "--M", "5"], 0),
     (["--q", "uniform"], 2), (["--q", "1.2", "--M", "5"], 0)],
)
def test_cli_single_checks_its_config_like_run(flags, code, capsys):
    assert main(["single", *flags]) == code
    if code == 2:
        assert "config error" in capsys.readouterr().err


def test_cli_single_refuses_a_negative_record_every(monkeypatch, capsys):
    # it printed the CSV header and no trajectory
    monkeypatch.setattr(bench, "run_replication", mock.Mock(side_effect=AssertionError))
    assert main(["single", "--M", "5", "--record-every", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: --record-every must be >= 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "error",
    [
        DivergenceError(5, np.array([np.inf]), {"seed": 0}),
        SimulationError(3, 2, {"seed": 7}),
        InvalidRhoError("rho=-0.5 <= 0"),
    ],
)
def test_cli_single_replication_failure_exits_3(error, monkeypatch, capsys):
    def fails(config, cell_index, q, beta, rep, record_every=0):
        raise error

    monkeypatch.setattr(bench, "run_replication", fails)
    assert main(["single", "--M", "5", "--L", "2"]) == 3
    assert capsys.readouterr().err == f"run failed: {error}\n"


def test_cli_sample(capsys):
    assert main(["sample", "--q", "0.5", "--dim", "2", "--count", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x0,x1,rho"
    assert len(lines) == 11


def test_cli_sample_bad_q(capsys):
    assert main(["sample", "--q", "2.5", "--dim", "2"]) == 2


def test_cli_sample_rejects_a_q_whose_sampler_never_accepts():
    # in a subprocess with a timeout: without the check the draw never ends
    done = subprocess.run(
        [sys.executable, "-m", "qsmooth.cli", "sample", "--q=-1e308", "--dim", "2"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(bench.__file__).resolve().parent.parent)},
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("config error: q=-1e+308"), done.stderr


@pytest.mark.parametrize("count", ["0", "5"])
def test_cli_moments_rejects_a_q_whose_sampler_never_accepts(count, capsys):
    # with no draws to make, the analytic moments used to print inf and
    # exit 0
    assert main(["moments", "--q=-1e308", "--dim", "2", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: q=-1e+308 is too far below 1")


@pytest.mark.parametrize("q", ["-1e-3", "-1E-3", "-2.5e+0", "-.5e1"])
def test_cli_takes_a_negative_exponent_as_a_value(q, capsys):
    # argparse takes "-1e-3" for an option unless its negative-number
    # pattern is widened; this fails should a Python release stop reading it
    assert main(["sample", "--q", q, "--dim", "2", "--count", "3"]) == 0
    assert main(["sample", f"--q={q}", "--dim", "2", "--count", "3"]) == 0
    by_space, by_equals = capsys.readouterr().out.split("x0,x1,rho")[1:]
    assert by_space == by_equals


@pytest.mark.parametrize("command", ["sample", "moments"])
def test_cli_rejects_a_dimension_below_one(command, capsys):
    # the q bound 1 + 2/dim used to divide by zero
    for dim in ("0", "-2"):
        assert main([command, "--q", "0.5", "--dim", dim, "--count", "0"]) == 2
        assert capsys.readouterr().err.startswith("config error: dim must be >= 1")


@pytest.mark.parametrize(
    "command, count", [("sample", "-1"), ("moments", "-3"), ("moments", "1")]
)
def test_cli_rejects_a_count_it_cannot_use(command, count, capsys):
    # a negative count raised from numpy or ran as 0, and one draw gave NaN
    # standard errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--q", "0.5", "--dim", "2", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --count")


def test_cli_moments(capsys):
    assert main(["moments", "--q", "0.5", "--dim", "1", "--count", "20000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("b,powers,analytic,mc_mean,mc_stderr")
    assert "does-not-exist" not in out  # every b <= 2 moment exists at q = 0.5


@pytest.mark.parametrize("dim", range(1, 6))
def test_moment_grid_is_the_filtered_product(dim):
    # the grid used to filter all 5^dim power tuples, which never ended at
    # the paper's 20 dimensions
    want = [MomentSpec(b=b, powers=powers) for b in range(3)
            for powers in itertools.product(range(5), repeat=dim)
            if 0 < sum(powers) <= 4 or (b == 0 and sum(powers) == 0)]
    assert cli._moment_grid(dim) == want


def test_cli_moments_lists_the_20_dimensional_grid(capsys):
    assert main(["moments", "--q", "0.5", "--dim", "20", "--count", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "b,powers,analytic,mc_mean,mc_stderr"
    assert len(lines) == 1 + 31876  # C(24, 4) powers at b = 0, one fewer at b = 1 and 2


def _moments_by_the_spec_formula(q, dim, count, seed=0):
    """``qsmooth moments``' output as each spec computed its Monte-Carlo
    columns before the table of powers, from all ``dim`` columns with
    ``np.prod``, and each spec's sample values as bytes."""
    stream = RngStream(seed, derive_stream_id(seed, "moments"))
    draws, rhos = sample_standard_many(q, dim, count, stream)
    lines, samples = ["b,powers,analytic,mc_mean,mc_stderr"], []
    for spec in cli._moment_grid(dim):
        powers = "|".join(str(p) for p in spec.powers)
        try:
            value = analytic_moment(spec, q, dim)
        except MomentDoesNotExistError:
            lines.append(f"{spec.b},{powers},does-not-exist,,")
            continue
        sample_vals = np.prod(draws ** np.asarray(spec.powers), axis=1) / rhos**spec.b
        samples.append(sample_vals.tobytes())
        se = float(np.std(sample_vals, ddof=1) / np.sqrt(count))
        lines.append(f"{spec.b},{powers},{value:.9g},{float(np.mean(sample_vals)):.9g},{se:.3g}")
    return "\n".join(lines) + "\n", samples


@pytest.mark.parametrize("q, dim, count", [(0.5, 4, 2000), (1.2, 3, 3000), (-1.0, 6, 50)])
def test_cli_moments_prints_what_each_spec_computed_from_all_its_columns(q, dim, count, capsys):
    # the table of powers multiplies only the nonzero powers' columns, in
    # column order: the same bytes out, and the same sample values, bit for
    # bit, into each spec's mean (gathering the nonzero columns and powers
    # into one pow changes the last bits of about half the specs' values,
    # which the printed digits do not show)
    samples, mean = [], np.mean

    def recorded(values, *args, **kwargs):
        samples.append(values.tobytes())
        return mean(values, *args, **kwargs)

    with mock.patch.object(np, "mean", recorded):
        assert main(["moments", "--q", str(q), "--dim", str(dim), "--count", str(count)]) == 0
    want = _moments_by_the_spec_formula(q, dim, count)
    assert (capsys.readouterr().out, samples) == want


def test_cli_moments_nonexistent_entries(capsys):
    # at q = 0, b = 2 moments do not exist (bound is b < 2)
    assert main(["moments", "--q", "0.0", "--dim", "1", "--count", "0"]) == 0
    out = capsys.readouterr().out
    assert "does-not-exist" in out

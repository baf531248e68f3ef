import csv
import dataclasses
import io
import json

import numpy as np
import pytest

import qsmooth.bench as bench
from qsmooth.bench import (
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
from qsmooth.rng import derive_stream_id
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
    ],
)
def test_config_rejects_bad_values(mutation):
    with pytest.raises(ConfigError):
        config_from_dict(small_config_dict(**mutation))


def test_config_missing_fields():
    with pytest.raises(ConfigError):
        config_from_dict({"algorithm": "gqsf1"})


def test_load_config_bad_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_resolve_q():
    assert resolve_q("gaussian", 4) == 1.0
    assert resolve_q("cauchy", 4) == pytest.approx(1.4)
    assert resolve_q(0.3, 4) == 0.3
    with pytest.raises(ConfigError):
        resolve_q("uniform", 4)


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


def test_single_replication_cell_has_zero_std():
    cfg = config_from_dict(small_config_dict(replications=1, q_grid=[0.5]))
    (cell,) = run_experiment(cfg, workers=1)
    assert cell.std_distance == 0.0
    assert cell.mean_distance == cell.distances[0]


def test_failures_counted_not_fatal(monkeypatch):
    cfg = config_from_dict(small_config_dict(q_grid=[0.5], replications=3))
    real = run_replication

    def sometimes_diverges(config, cell_index, q, beta, rep):
        if rep == 1:
            raise DivergenceError(5, np.array([np.inf]), {"seed": 0})
        return real(config, cell_index, q, beta, rep)

    monkeypatch.setattr(bench, "run_replication", sometimes_diverges)
    (cell,) = run_experiment(cfg, workers=1)
    assert cell.failures == 1
    assert cell.distances[1] is None
    assert np.isfinite(cell.mean_distance)


@pytest.mark.parametrize(
    "error", [SimulationError(3, 2, {"seed": 7}), InvalidRhoError("rho=-0.5 <= 0")]
)
def test_replication_error_isolated_to_its_replication(error, monkeypatch, tmp_path):
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
    assert main(["run", str(cfg_path), "--workers", "1", "--no-timing"]) == 3


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
    assert "diverged" in table
    assert emit_table([]) == "(empty grid)\n"


# -- CLI -------------------------------------------------------------------------

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


def test_cli_run_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(small_config_dict(algorithm="nope")))
    assert main(["run", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_single(capsys):
    code = main(["single", "--algo", "gqsf1", "--q", "0.8", "--beta", "0.01",
                 "--M", "40", "--L", "5", "--record-every", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "final distance" in out
    assert out.count("\n") >= 4  # summary + header + trajectory rows


def test_cli_sample(capsys):
    assert main(["sample", "--q", "0.5", "--dim", "2", "--count", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x0,x1,rho"
    assert len(lines) == 11


def test_cli_sample_bad_q(capsys):
    assert main(["sample", "--q", "2.5", "--dim", "2"]) == 2


def test_cli_moments(capsys):
    assert main(["moments", "--q", "0.5", "--dim", "1", "--count", "20000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("b,powers,analytic,mc_mean,mc_stderr")
    assert "does-not-exist" not in out  # every b <= 2 moment exists at q = 0.5


def test_cli_moments_nonexistent_entries(capsys):
    # at q = 0, b = 2 moments do not exist (bound is b < 2)
    assert main(["moments", "--q", "0.0", "--dim", "1", "--count", "0"]) == 0
    out = capsys.readouterr().out
    assert "does-not-exist" in out

"""The public API, pinned: each module's public functions and classes (those
it defines, not those it imports), so that a name is added or removed only
on purpose, with this list changed in the same commit."""

import importlib
import inspect

import pytest

PUBLIC = {
    "rng": {"RngStream", "derive_stream_id"},
    "qgaussian": {
        "MomentDoesNotExistError", "MomentSpec", "QGaussianDomainError", "QKernel",
        "analytic_moment", "density", "log_normalizing_constant", "moment_exists",
        "normalizing_constant", "rho", "sample", "sample_standard", "sample_standard_many",
        "support_contains", "support_radius_sq", "tail_coefficient",
    },
    "smoothing": {
        "InvalidRhoError", "sf_term_one_batch", "sf_term_two_batch", "smoothed_gradient_mc",
        "smoothed_value",
    },
    "optimizer": {
        "BoxConstraint", "DivergenceError", "QuadraticCostSimulator", "RunResult",
        "SimulationError", "SimulatorHandle", "StepSchedule", "TrajectoryPoint", "project",
        "run_gqsf1", "run_gqsf2",
    },
    "queueing": {
        "BenchmarkPreset", "PythonKernel", "QueueNetworkConfig", "QueueSimulator",
        "equal_by_value", "kernel_name", "make_simulator", "preset", "preset_names",
    },
    "bench": {
        "CellResult", "ConfigError", "ExperimentConfig", "config_from_dict", "emit_csv",
        "emit_table", "load_config", "resolve_q", "run_experiment", "run_replication",
    },
    "cli": {"build_parser", "main"},
}


def defined_public_names(module) -> set[str]:
    """The functions and classes ``module`` defines under a name without a
    leading underscore; a cached function counts as the function it wraps."""
    names = set()
    for name, obj in vars(module).items():
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if (
            not name.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ == module.__name__
        ):
            names.add(name)
    return names


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_names_are_pinned(name):
    module = importlib.import_module(f"qsmooth.{name}")
    assert defined_public_names(module) == PUBLIC[name]

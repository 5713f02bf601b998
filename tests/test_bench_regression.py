"""benchmarks/bench_regression.py: the same-machine floor messages."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_regression():
    spec = importlib.util.spec_from_file_location(
        "bench_regression", REPO_ROOT / "benchmarks" / "bench_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failure_names_ratio_and_floor_in_two_decimals(bench_regression):
    assert bench_regression.SMOKE_FLOORS["telemetry_overhead_ratio"] == 0.95
    assert bench_regression.floor_failures({
        "telemetry_overhead_ratio": 0.94,
        "all_executions_ratio": 2.0,
    }) == ["telemetry_overhead_ratio: 0.94x < 0.95x floor"]


def test_ratio_at_its_floor_passes(bench_regression):
    assert bench_regression.floor_failures(
        {"telemetry_overhead_ratio": 0.95}) == []

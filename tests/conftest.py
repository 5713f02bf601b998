"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.schedulers import default_portfolio
from repro.graphs import generators as gen


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: larger sweeps that dominate the suite's runtime")


@pytest.fixture
def portfolio():
    """The standard adversary portfolio with a couple of random seeds."""
    return default_portfolio((0, 1))


@pytest.fixture
def small_graphs():
    """A grab-bag of small graphs exercising many shapes."""
    return [
        gen.path_graph(1),
        gen.path_graph(4),
        gen.cycle_graph(5),
        gen.star_graph(6),
        gen.complete_graph(4),
        gen.complete_bipartite(2, 3),
        gen.random_graph(6, 0.4, seed=0),
        gen.random_tree(7, seed=1),
        gen.grid_graph(2, 3),
    ]


@pytest.fixture
def degenerate_graphs():
    """Graphs of degeneracy <= 3 at a few sizes."""
    return [
        gen.random_k_degenerate(n, k, seed=n * 7 + k)
        for n in (6, 10, 17)
        for k in (1, 2, 3)
    ]

"""Fixtures shared across the test modules."""

import pytest

from qobs import run_sweep, scenario_config


@pytest.fixture(scope="session")
def default_sweeps():
    """The rows of the s1, s2 and s3 sweeps over the default grid, swept once per session."""
    return {name: run_sweep(scenario_config(name)) for name in ("s1", "s2", "s3")}

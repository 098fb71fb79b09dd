"""Fixtures shared across the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

from qobs import run_sweep, scenario_config


@pytest.fixture(scope="session")
def default_sweeps():
    """The rows of the s1, s2 and s3 sweeps over the default grid, swept once per session."""
    return {name: run_sweep(scenario_config(name)) for name in ("s1", "s2", "s3")}


@pytest.fixture(scope="session")
def perfbench_workloads():
    """perfbench's workload module, loaded from its file without changing perfbench."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", perfbench / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(perfbench))  # for its sibling module ``oracle``
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(perfbench))
        del sys.modules[spec.name]
    return module

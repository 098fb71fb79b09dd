"""The exported API is pinned: every name the package exports is listed here.

An export added or removed has to change ``API`` on purpose, and a stale
``__all__`` entry, one that no longer resolves, fails.
"""

import importlib
import pkgutil

import pytest

import qobs

API = {
    "__version__",
    # errors
    "QobsError", "DomainError", "FileFormatError", "NonRealResult",
    "NoStabilizingSolution", "NotHurwitz", "ImaginaryAxisEigenvalue",
    "WrongSplitCount", "SingularX1", "SingularX", "NonRealT", "SingularResolvent",
    # systems
    "NoiseKind", "NoiseChannel", "ItoStructure", "QuantumLinearSystem",
    "HamiltonianCoupling", "canonical_theta", "ito_structure",
    "quadrature_readout", "field_gain", "realize_from_hamiltonian",
    "commutation_residual", "make_cavity_plant", "system_from_dict",
    "system_to_dict", "load_system", "save_system",
    # solvers
    "KalmanDesign", "stable_subspace", "solve_care", "solve_lyapunov",
    "integrate_covariance",
    # realizability
    "AugmentResult", "TransformResult", "stilde", "min_vacuum_rank",
    "augment_noise", "skew_riccati_transform", "transfer_function_gap",
    "default_frequency_grid",
    # observers
    "Provenance", "CoherentObserver", "ClassicalObserver", "PerformanceReport",
    "design_algorithm1", "design_algorithm2", "design_algorithm3",
    "design_classical", "error_system", "evaluate_performance",
    "default_rho_grid",
    # sweep
    "SCENARIOS", "ScenarioConfig", "SweepRow", "default_kn_grid",
    "scenario_config", "run_sweep", "emit_csv", "emit_plot_data",
}

#: the package's modules; ``__main__`` runs the CLI on import and is left out
MODULES = sorted(m.name for m in pkgutil.iter_modules(qobs.__path__) if not m.name.startswith("_"))


def test_package_exports_are_pinned():
    assert sorted(qobs.__all__) == sorted(API)


@pytest.mark.parametrize("name", ["qobs", *(f"qobs.{m}" for m in MODULES)])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

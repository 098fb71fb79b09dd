"""Coherent quantum observer design for linear quantum stochastic systems.

Design observers that track the internal state of a linear quantum plant
without measuring it: Kalman filters turned into physically realizable
quantum systems by minimal vacuum-noise augmentation, an optimized
noise-inflation variant, and a symplectic state-transformation variant,
plus a measurement-based (heterodyne) baseline for comparison.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    FileFormatError,
    ImaginaryAxisEigenvalue,
    NoStabilizingSolution,
    NonRealResult,
    NonRealT,
    NotHurwitz,
    QobsError,
    SingularResolvent,
    SingularX,
    SingularX1,
    WrongSplitCount,
)
from .observers import (
    ClassicalObserver,
    CoherentObserver,
    PerformanceReport,
    Provenance,
    default_rho_grid,
    design_algorithm1,
    design_algorithm2,
    design_algorithm3,
    design_classical,
    error_system,
    evaluate_performance,
)
from .realizability import (
    AugmentResult,
    TransformResult,
    augment_noise,
    default_frequency_grid,
    min_vacuum_rank,
    skew_riccati_transform,
    stilde,
    transfer_function_gap,
)
from .solvers import (
    KalmanDesign,
    integrate_covariance,
    solve_care,
    solve_lyapunov,
    stable_subspace,
)
from .sweep import (
    SCENARIOS,
    ScenarioConfig,
    SweepRow,
    default_kn_grid,
    emit_csv,
    emit_plot_data,
    run_sweep,
    scenario_config,
)
from .systems import (
    HamiltonianCoupling,
    ItoStructure,
    NoiseChannel,
    NoiseKind,
    QuantumLinearSystem,
    canonical_theta,
    commutation_residual,
    field_gain,
    ito_structure,
    load_system,
    make_cavity_plant,
    quadrature_readout,
    realize_from_hamiltonian,
    save_system,
    system_from_dict,
    system_to_dict,
)

__all__ = [
    "__version__",
    # errors
    "QobsError", "DomainError", "FileFormatError", "NonRealResult",
    "NoStabilizingSolution", "NotHurwitz", "ImaginaryAxisEigenvalue",
    "WrongSplitCount", "SingularX1", "SingularX", "NonRealT",
    "SingularResolvent",
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
]

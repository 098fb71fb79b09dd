"""Every option of the package is pinned: each parameter or config field with a default.

A value that no caller changes belongs in the code as a constant; a new
option has to be added to ``OPTIONS`` on purpose.
"""

import dataclasses
import inspect

import qobs
from qobs import QuantumLinearSystem, ScenarioConfig
from qobs.sweep import DESIGNERS

OPTIONS = {
    "design_algorithm2(rho_candidates)",
    "integrate_covariance(step)",
    "realize_from_hamiltonian(channels)",
    "ScenarioConfig.algorithms",
}


def defaulted(label, function):
    return {
        f"{label}({p.name})"
        for p in inspect.signature(function).parameters.values()
        if p.default is not p.empty
    }


def options():
    """Defaulted parameters of the public functions and the designers, and defaulted config fields."""
    found = set()
    for name in qobs.__all__:
        obj = getattr(qobs, name)
        if callable(obj) and not inspect.isclass(obj):
            found |= defaulted(name, obj)
    for alg, designer in DESIGNERS.items():
        found |= defaulted(f"DESIGNERS[{alg!r}]", designer)
    for cls in (ScenarioConfig, QuantumLinearSystem):
        found |= {
            f"{cls.__name__}.{f.name}"
            for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
        }
    return found


def test_options_are_pinned():
    assert options() == OPTIONS

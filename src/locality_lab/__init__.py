"""Locality lab: executable locality conditions for bipartite experiments.

The package turns the standard probabilistic locality conditions
(no-signalling, parameter and outcome independence, factorizability, the
reduction to determinism) into quantitative checkers over finite behaviour
tables, reproduces the CHSH and original three-setting Bell bounds both
classically and against a Born-rule oracle, and simulates two-wing
measurement protocols branch by branch, including the causal-structure
bookkeeping of where a comparison of the two wings may take place.

Importing the package loads none of its modules: each public name, and each
submodule, is imported on first access (PEP 562), so an entry point pays only
for the layers it uses.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("qstate", "behavior", "causality", "inequalities", "everett", "spacetime", "cli")
_EXPORTS = {  # defining module -> its public names
    "behavior": ("Behavior", "HiddenVariableModel", "Scenario", "angle_label", "average", "from_quantum", "sign_model",
                 "validate"),
    "causality": ("CheckReport", "Condition", "check_factorizability", "check_no_signalling",
                  "check_outcome_independence", "check_parameter_independence", "jarrett_equivalence",
                  "suppes_zanotti_reduction"),
    "everett": ("Branch", "PointerBasis", "ProtocolTrace", "Stage", "decompose", "einstein_boxes",
                "is_definite_relative", "relative_state", "run_nonparallel", "run_parallel_epr"),
    "inequalities": ("Bell1964Result", "ChshResult", "ClassicalBound", "CorrelatorSet", "bell_1964", "chsh",
                     "classical_bound", "quantum_max"),
    "qstate": ("Operator", "StateVector", "correlator_matrix", "joint_probability_table", "measurement_unitary",
               "singlet", "tensor"),
    "spacetime": ("Event", "IntervalClass", "Role", "boost", "in_future_lightcone", "interval_class", "region3_screens",
                  "validate_protocol"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A submodule, or a public name bound here from its defining module, imported on first access."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it on the package
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

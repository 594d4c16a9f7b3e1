"""Locality lab: executable locality conditions for bipartite experiments.

The package turns the standard probabilistic locality conditions
(no-signalling, parameter and outcome independence, factorizability, the
reduction to determinism) into quantitative checkers over finite behaviour
tables, reproduces the CHSH and original three-setting Bell bounds both
classically and against a Born-rule oracle, and simulates two-wing
measurement protocols branch by branch, including the causal-structure
bookkeeping of where a comparison of the two wings may take place.
"""

from __future__ import annotations

from .behavior import (
    Behavior,
    HiddenVariableModel,
    Scenario,
    angle_label,
    average,
    from_quantum,
    sign_model,
    validate,
)
from .causality import (
    CheckReport,
    Condition,
    check_factorizability,
    check_no_signalling,
    check_outcome_independence,
    check_parameter_independence,
    jarrett_equivalence,
    suppes_zanotti_reduction,
)
from .everett import (
    Branch,
    PointerBasis,
    ProtocolTrace,
    Stage,
    comparison_measurement,
    decompose,
    einstein_boxes,
    is_definite_relative,
    relative_state,
    run_nonparallel,
    run_parallel_epr,
)
from .inequalities import (
    Bell1964Result,
    ChshResult,
    ClassicalBound,
    CorrelatorSet,
    bell_1964,
    chsh,
    classical_bound,
    quantum_max,
)
from .qstate import (
    Operator,
    StateVector,
    born_joint,
    correlator_matrix,
    joint_probability_table,
    measurement_unitary,
    singlet,
    tensor,
)
from .spacetime import (
    Event,
    IntervalClass,
    Role,
    boost,
    in_future_lightcone,
    interval_class,
    region3_screens,
    validate_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "Behavior",
    "Bell1964Result",
    "Branch",
    "CheckReport",
    "ChshResult",
    "ClassicalBound",
    "Condition",
    "CorrelatorSet",
    "Event",
    "HiddenVariableModel",
    "IntervalClass",
    "Operator",
    "PointerBasis",
    "ProtocolTrace",
    "Role",
    "Scenario",
    "Stage",
    "StateVector",
    "angle_label",
    "average",
    "bell_1964",
    "boost",
    "born_joint",
    "check_factorizability",
    "check_no_signalling",
    "check_outcome_independence",
    "check_parameter_independence",
    "chsh",
    "classical_bound",
    "comparison_measurement",
    "correlator_matrix",
    "decompose",
    "einstein_boxes",
    "from_quantum",
    "in_future_lightcone",
    "interval_class",
    "is_definite_relative",
    "jarrett_equivalence",
    "joint_probability_table",
    "measurement_unitary",
    "quantum_max",
    "region3_screens",
    "relative_state",
    "run_nonparallel",
    "run_parallel_epr",
    "sign_model",
    "singlet",
    "suppes_zanotti_reduction",
    "tensor",
    "validate",
    "validate_protocol",
]

"""Branch-by-branch unitary simulation of two-wing spin measurements.

The protocols evolve a single universal state by local pointer-copy
unitaries and read it out as branches: amplitudes over declared pointer
bases, one basis per subsystem. Nothing here samples or collapses; the
evolution is deterministic and the branch weights reproduce the Born-rule
joint probabilities.

`run_parallel_epr` runs the aligned-measurement protocol, whose final state
has two perfectly anticorrelated branches. `run_nonparallel` runs the
general protocol with a relative angle between the wings; after the two
local measurements each wing is definite only relative to its own
apparatus, and cross-wing definiteness appears only after a comparison
interaction that copies both apparatus readings into a four-state pointer
(an interaction that must sit in the overlap of the measurements' future
light cones; see the stage events). `einstein_boxes` runs the one-particle,
two-detector splitting protocol whose induced behaviour is no-signalling
yet violates outcome independence with an empty hidden variable.

All three are built by one runner from steps of (name, event, local
operator or None, pointer bases): each stage records the operator that made
it. `WINGS` names each wing's subsystems (``particle`` and ``C`` belong to
neither), and a trace refuses a measurement-a (measurement-b) stage whose
operator names any B-side (A-side) subsystem, so no stage acts at a distance.

Branches and definiteness are both read off one pointer expansion: the
state's amplitude tensor after each subsystem is rewritten in its declared
pointer basis; each stage keeps its tensor. Branches are the cells of that
tensor with |amplitude| above a cutoff. A region is definite relative to a
conditioning branch iff the support of the tensor sliced at the branch's
labels and normalised (cells with |amplitude| > DEFINITE_TOL), projected
onto the region's subsystems, is a single pointer-label combination.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import spacetime
from .behavior import Behavior, Scenario, validate
from .qstate import (
    ALG_TOL,
    DimSpec,
    Operator,
    StateVector,
    SubsystemError,
    ket,
    measurement_unitary,
    rotated_basis_matrix,
    singlet,
    tensor,
    up,
)

BRANCH_CUTOFF = 1e-12
DEFINITE_TOL = 1e-9


class EmptyBranchError(ValueError):
    """Conditioning basis state has (numerically) zero overlap."""


@dataclass(frozen=True)
class PointerBasis:
    """Labelled orthonormal basis; columns of ``matrix`` are the basis states."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        d = len(self.labels)
        if mat.shape != (d, d):
            raise ValueError(f"pointer basis needs a {d}x{d} matrix, got {mat.shape}")
        if np.max(np.abs(mat.conj().T @ mat - np.eye(d))) > ALG_TOL:
            raise ValueError("pointer basis columns are not orthonormal")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @classmethod
    def computational(cls, labels: Sequence[str]) -> "PointerBasis":
        return cls(tuple(labels), np.eye(len(labels)))

    @classmethod
    def spin(cls, theta: float) -> "PointerBasis":
        return cls(("up", "down"), rotated_basis_matrix(theta))

    def column(self, label: str) -> np.ndarray:
        return self.matrix[:, self._index(label)]

    def _index(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise KeyError(f"unknown pointer label {label!r}; have {self.labels}") from None


SPIN_POINTER = PointerBasis.computational(("up", "down"))
COMPARER_POINTER = PointerBasis.computational(("uu", "ud", "du", "dd"))
WINGS = {"A-side": ("s1", "m_A", "d_L"), "B-side": ("s2", "m_B", "d_R")}  # each wing's subsystems
_RECORDS = {"A-side": ("m_A", "d_L"), "B-side": ("m_B", "d_R")}  # the subsystems of a wing that record its outcome


@dataclass(frozen=True)
class Branch:
    """One pointer-basis component of the state: labels, amplitude, weight."""

    labels: Mapping[str, str]
    amplitude: complex

    @property
    def weight(self) -> float:
        return abs(self.amplitude) ** 2


def _pointer(label: str, dim: int, pointer_bases: Mapping[str, PointerBasis]) -> PointerBasis:
    """The declared pointer basis of a subsystem; SubsystemError when none is declared."""
    if label not in pointer_bases:
        raise SubsystemError(f"no pointer basis declared for subsystem {label!r}")
    basis = pointer_bases[label]
    if len(basis.labels) != dim:
        raise ValueError(f"pointer basis for {label!r} has wrong dimension")
    return basis


def _expand(state: StateVector, pointer_bases: Mapping[str, PointerBasis]) -> tuple[np.ndarray, list[PointerBasis]]:
    """Amplitude tensor of the state in its pointer bases, and those bases in axis order."""
    bases = [_pointer(label, dim, pointer_bases) for label, dim in state.dims]
    t = state.as_tensor()
    for axis, basis in enumerate(bases):
        t = np.moveaxis(np.tensordot(basis.matrix.conj().T, t, axes=([1], [axis])), 0, axis)
    return t, bases


def decompose(state: StateVector, pointer_bases: Mapping[str, PointerBasis]) -> tuple[Branch, ...]:
    """Branches of the state in the declared pointer bases, in basis order.

    Components with |amplitude| <= BRANCH_CUTOFF are dropped; the surviving
    weights sum to 1 up to the discarded mass.
    """
    return _branches(state, *_expand(state, pointer_bases))


def _branches(state: StateVector, t: np.ndarray, bases: Sequence[PointerBasis]) -> tuple[Branch, ...]:
    return tuple(
        Branch(
            {label: basis.labels[i] for label, basis, i in zip(state.labels, bases, idx)},
            complex(t[tuple(idx)]),
        )
        for idx in np.argwhere(np.abs(t) > BRANCH_CUTOFF).tolist()
    )


def relative_state(
    state: StateVector,
    conditioning: Mapping[str, str],
    pointer_bases: Mapping[str, PointerBasis],
) -> StateVector:
    """Normalised state of the remaining subsystems relative to a branch.

    ``conditioning`` maps subsystem labels to pointer labels; the partial
    inner product with that basis state is taken and renormalised.
    """
    t, remaining = _condition(state.as_tensor(), state, conditioning, pointer_bases, contract=True)
    return StateVector(remaining, t.reshape(-1))


def _condition(
    t: np.ndarray, state: StateVector, conditioning: Mapping[str, str], bases: Mapping[str, PointerBasis], contract: bool
) -> tuple[np.ndarray, DimSpec]:
    """The branch part of ``t``, normalised, and the remaining dims; ``t`` is the expansion unless ``contract``."""
    if not conditioning:
        raise ValueError("conditioning must name at least one subsystem")
    picks = {}
    for sub, lab in conditioning.items():
        axis = state.axis(sub)  # SubsystemError for an unknown subsystem, before its basis is looked up
        basis = _pointer(sub, state.dims[axis][1], bases)
        picks[axis] = basis.column(lab) if contract else basis._index(lab)
    if contract:
        for axis in sorted(picks, reverse=True):
            t = np.tensordot(np.conjugate(picks[axis]), t, axes=([0], [axis]))
    else:
        t = t[tuple(picks.get(axis, slice(None)) for axis in range(t.ndim))]
    norm = float(np.sqrt(np.sum(np.abs(t) ** 2)))
    if norm <= BRANCH_CUTOFF:
        raise EmptyBranchError(f"conditioning {dict(conditioning)!r} has zero overlap")
    return t / norm, tuple(d for d in state.dims if d[0] not in conditioning)


def is_definite_relative(
    state: StateVector,
    region: Iterable[str],
    conditioning: Mapping[str, str],
    pointer_bases: Mapping[str, PointerBasis],
) -> bool:
    """True iff the region has a single pointer configuration in the branch.

    The state's pointer expansion, sliced at the conditioning labels and
    normalised, is the relative state's expansion; its support is the set of
    cells with |amplitude| > DEFINITE_TOL. Definiteness means that the support,
    projected onto the region's axes, is one cell, i.e. the relative state
    factors as |region pattern> (x) |rest>.
    """
    return _definite(_expand(state, pointer_bases)[0], state, pointer_bases, list(region), conditioning)


def _definite(
    t: np.ndarray,
    state: StateVector,
    pointer_bases: Mapping[str, PointerBasis],
    region: Sequence[str],
    conditioning: Mapping[str, str],
) -> bool:
    """`is_definite_relative` on ``t``, the state's expansion in ``pointer_bases``."""
    t, remaining = _condition(t, state, conditioning, pointer_bases, contract=False)
    labels = [label for label, _ in remaining]
    if unknown := [sub for sub in region if sub not in labels]:  # unknown, or conditioned away
        raise SubsystemError(f"unknown subsystem {unknown[0]!r}; have {tuple(labels)}")
    rest = tuple(axis for axis, label in enumerate(labels) if label not in region)
    return int(np.count_nonzero((np.abs(t) > DEFINITE_TOL).any(axis=rest))) == 1


@dataclass(frozen=True)
class Stage:
    """Protocol snapshot: name, state, event, bases, the local operator that made it (or None), expansion, branches."""

    name: str
    state: StateVector
    event: spacetime.Event
    pointer_bases: dict[str, PointerBasis]
    operator: Operator | None
    branches: tuple[Branch, ...] = field(init=False)
    expansion: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t, bases = _expand(self.state, self.pointer_bases)
        t.setflags(write=False)
        object.__setattr__(self, "expansion", t)
        object.__setattr__(self, "branches", _branches(self.state, t, bases))


@dataclass(frozen=True)
class ProtocolTrace:
    """Stages in time order; refuses events out of causal order and measurement stages that act on the far wing.

    Out of causal order means a stage whose event lies in the future light
    cone of a stage listed after it.
    """

    stages: tuple[Stage, ...]

    def __post_init__(self):
        report = spacetime.validate_protocol([s.event for s in self.stages])
        if not report.passed:
            raise ValueError(f"stage events are not causally ordered: {report.to_dict()}")
        for i, s in enumerate(self.stages):
            for later in self.stages[i + 1 :]:
                if spacetime.in_future_lightcone(s.event, later.event):
                    raise ValueError(f"stage {s.name!r} lies in the future light cone of the later stage {later.name!r}")
        for s in self.stages:
            far = _FAR_WING.get(s.event.role, ())
            reached = [label for label, _ in s.operator.dims if label in far] if s.operator else []
            if reached:
                raise ValueError(f"stage {s.name!r} ({s.event.role.value}) acts on far-wing subsystems {reached}")

    @property
    def final_branches(self) -> tuple[Branch, ...]:
        return self.stages[-1].branches

    def stage(self, name: str) -> Stage:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"no stage named {name!r}; have {[s.name for s in self.stages]}")

    def definiteness(self) -> tuple[list[str], list[list[str]]]:
        """Header and rows of the definiteness matrix: per far wing and pointer branch, a yes/no/- cell per stage.

        The branches are those of each wing's records in the last stage (the
        apparatus ``m_A``/``m_B``, or the box detectors ``d_L``/``d_R``), then
        those of the comparer ``C`` when it is there.
        """
        bases = self.stages[-1].pointer_bases
        conditionings = [
            (sub, lab, far)
            for near, far in (("A-side", "B-side"), ("B-side", "A-side"))
            for sub in _RECORDS[near]
            if sub in bases
            for lab in bases[sub].labels
        ]
        for lab in bases["C"].labels if "C" in bases else ():
            conditionings += [("C", lab, "A-side"), ("C", lab, "B-side")]
        rows = []
        for sub, lab, wing in conditionings:
            row = [wing, f"{sub}={lab}"]
            for s in self.stages:
                cell = "-"  # the conditioning subsystem is absent, or its branch is empty
                if sub in s.state.labels:
                    region = [label for label in WINGS[wing] if label in s.state.labels]  # drops the box detectors
                    with contextlib.suppress(EmptyBranchError):
                        cell = "yes" if _definite(s.expansion, s.state, s.pointer_bases, region, {sub: lab}) else "no"
                row.append(cell)
            rows.append(row)
        return ["region", "conditioned-on"] + [s.name for s in self.stages], rows


_EV_PREP = spacetime.Event(0.0, 0.0, spacetime.Role.PREPARATION, "source")
_EV_A = spacetime.Event(3.0, -2.0, spacetime.Role.MEASUREMENT_A, "measurement A")
_EV_B = spacetime.Event(3.0, 2.0, spacetime.Role.MEASUREMENT_B, "measurement B")
_EV_COMPARE = spacetime.Event(7.0, 0.0, spacetime.Role.COMPARISON, "comparison")
_FAR_WING = {spacetime.Role.MEASUREMENT_A: WINGS["B-side"], spacetime.Role.MEASUREMENT_B: WINGS["A-side"]}

_j = np.arange(16)  # basis index 8x + 4y + c of (m_A, m_B, C); the comparison permutes c -> c XOR (2x + y)
_COMPARER = Operator((("m_A", 2), ("m_B", 2), ("C", 4)), np.eye(16)[:, (_j & 12) | ((_j & 3) ^ (_j >> 2))])


def _run(state: StateVector, steps: Iterable[tuple]) -> ProtocolTrace:
    """Trace of the steps (name, event, operator or None, pointer bases), each operator applied in turn."""
    stages = []
    for name, event, operator, bases in steps:
        if operator is not None:
            for label, dim in operator.dims:
                if label not in state.labels:  # adjoined last, in its ready (first) basis state
                    state = tensor(state, ket(label, np.eye(dim)[0]))
            state = operator.apply(state)
        stages.append(Stage(name, state, event, bases, operator))
    return ProtocolTrace(tuple(stages))


def run_parallel_epr() -> ProtocolTrace:
    """Aligned-measurement protocol: two branches, perfectly anticorrelated.

    Both wings measure along the same axis; the final state has amplitude
    +1/sqrt(2) on (m_A=up, s1=up, s2=down, m_B=down) and -1/sqrt(2) on the
    flipped pattern. Cross-wing definiteness already holds here: relative to
    either apparatus reading, the far wing shows the opposite outcome.
    """
    psi0 = tensor(up("m_A"), singlet(), up("m_B"))
    bases = dict.fromkeys(psi0.labels, SPIN_POINTER)
    return _run(
        psi0,
        (
            ("preparation", _EV_PREP, None, bases),
            ("measurement-a", _EV_A, measurement_unitary(psi0.dims, 0.0, "s1", "m_A"), bases),
            ("measurement-b", _EV_B, measurement_unitary(psi0.dims, 0.0, "s2", "m_B"), bases),
        ),
    )


def run_nonparallel(theta: float) -> ProtocolTrace:
    """General protocol with relative angle ``theta`` between the wings.

    Stage progression: the prepared state; the same state viewed in the
    rotated pointer basis of the far spin; the state after each local
    measurement; and the state after the comparison interaction, whose
    branches carry the four reading pairs on the comparer with the
    Born-rule weights for angles (0, theta).
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    psi0 = tensor(up("m_A"), singlet(), up("m_B"))
    z_bases = dict.fromkeys(psi0.labels, SPIN_POINTER)
    rot_bases = {**z_bases, "s2": PointerBasis.spin(theta)}
    return _run(
        psi0,
        (
            ("preparation", _EV_PREP, None, z_bases),
            ("rotated-view", spacetime.Event(0.0, 0.0, spacetime.Role.OTHER, "rotated-basis view"), None, rot_bases),
            ("measurement-a", _EV_A, measurement_unitary(psi0.dims, 0.0, "s1", "m_A"), rot_bases),
            ("measurement-b", _EV_B, measurement_unitary(psi0.dims, theta, "s2", "m_B"), rot_bases),
            ("comparison", _EV_COMPARE, _COMPARER, {**rot_bases, "C": COMPARER_POINTER}),
        ),
    )


def einstein_boxes() -> tuple[ProtocolTrace, Behavior]:
    """One particle split over two boxes, opened by local detectors.

    The particle starts in (|L> + |R>)/sqrt(2); each detector flips from
    ``empty`` to ``found`` iff the particle is on its side. The final state
    has two equal-weight branches with strictly anticorrelated findings. The
    induced one-setting behaviour is returned with the trace; with the empty
    hidden variable it fails outcome independence by 1/2 even though nothing
    here is entangled between two particles to begin with.
    """
    box_pointer = PointerBasis.computational(("empty", "found"))
    psi0 = tensor(
        ket("d_L", [1.0, 0.0]),
        ket("particle", [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]),
        ket("d_R", [1.0, 0.0]),
    )
    flip, eye = np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    p_left, p_right = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    open_left = Operator((("particle", 2), ("d_L", 2)), np.kron(p_left, flip) + np.kron(p_right, eye))
    open_right = Operator((("particle", 2), ("d_R", 2)), np.kron(p_right, flip) + np.kron(p_left, eye))
    bases = {"d_L": box_pointer, "particle": PointerBasis.computational(("L", "R")), "d_R": box_pointer}
    trace = _run(
        psi0,
        (
            ("preparation", _EV_PREP, None, bases),
            ("open-left", replace(_EV_A, label="open left box"), open_left, bases),
            ("open-right", replace(_EV_B, label="open right box"), open_right, bases),
        ),
    )

    scenario = Scenario(
        settings_a=("open",),
        settings_b=("open",),
        outcomes_a=("empty", "found"),
        outcomes_b=("empty", "found"),
        context={"source": "einstein-boxes"},
    )
    table = np.zeros(scenario.shape)
    for branch in trace.final_branches:  # the box pointer's label order is the outcome order
        iA, iB = (box_pointer._index(branch.labels[box]) for box in ("d_L", "d_R"))
        table[0, 0, iA, iB] += branch.weight
    return trace, validate(Behavior(scenario, table))

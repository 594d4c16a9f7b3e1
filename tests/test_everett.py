"""Branch-level protocol simulations and relative-state queries.

Claims covered:
  - the aligned protocol ends in exactly the two anticorrelated branches
    with amplitudes +/- 1/sqrt(2), matching the Born weights;
  - the general protocol's stages reproduce the prepared state, its rotated
    rewrite (same amplitudes), the post-measurement four-branch state with
    the derived half-angle coefficients, and the post-comparison state whose
    weights equal the Born values at (0, theta);
  - relative states condition correctly, reject empty branches, and expose
    the definiteness transition: cross-wing definiteness holds at the
    aligned protocol's final stage, fails after non-aligned local
    measurements, and holds for every branch after the comparison;
  - the comparison interaction `_COMPARER` needs a four-state pointer C (an
    absent or wrong-dimension one raises SubsystemError), labels single
    branches consistently, and on random states equals the index
    permutation C <- 2 m_A + m_B of the ready slice;
  - the one-particle box protocol yields equal-weight strictly
    anticorrelated branches and its induced behaviour violates outcome
    independence by exactly 1/2;
  - traces are bitwise deterministic and their stage events form a valid
    causal layout;
  - every stage records the local operator that made it (None for the
    preparation and the rotated view): each stage's state is bitwise that
    operator applied to the previous state, with the comparer C adjoined in
    its ready state at the comparison, and each operator names the expected
    subsystems;
  - a measurement-a (measurement-b) stage whose operator names a subsystem of
    the other wing in `WINGS` (A: s1, m_A, d_L; B: s2, m_B, d_R) is refused
    when the trace is built, exactly: B measuring s1 into m_B, open-left
    naming d_R, and an A operator that is the identity on s2 all raise;
  - a trace refuses a stage listed before a stage in whose future light
    cone (boundary included) its event lies: the comparison listed before
    both measurements, and a preparation listed first at t = 9, after
    measurement A at t = 3, in every protocol; it accepts measurements listed
    in either order, equal times, and the three shipped protocols (the
    general one at 81 angles in [-4, 4], whose rotated view shares the
    preparation's event);
  - every query reads a declared pointer basis: a subsystem without one
    raises SubsystemError naming it;
  - no action at a distance: in all three protocols the two local
    measurement operators give bitwise the same state and branches in either
    order, and across every measurement stage the far wing's reduced density
    matrix, an explicit einsum partial trace equal to M M^H, is unchanged to
    ALG_TOL; B's unitary alone leaves the A-side matrix unchanged (a B
    unitary that measures A's spin moves it);
  - no action at a distance, state-independently (the Heisenberg picture of
    Deutsch & Hayden 2000): at every measurement stage of every protocol and
    of `_run` traces on a 7 x 7 grid of angles (a, b) in [-3, 3], the stage's
    operator embedded by `full_space_matrix` (kron with the identity and an
    axis permutation, not `Operator.apply`) maps the previous state to the
    stage's state, and U^H P U = P to ALG_TOL for P = X, Y, Z on every qubit
    of the far wing; B measuring s1 fails that check;
  - frames: boosts of rapidity +/-0.3 and +/-0.9 put either measurement
    first, the sign of the rapidity choosing which, and give a valid causal
    layout; each protocol's steps at the boosted events, stably sorted by
    boosted time and rebuilt through `_run`, are accepted in that listing
    order and give the rest frame's final state bytes and final branches,
    and each wing's reduced density matrix at its own measurement stage is
    the rest frame's to ALG_TOL;
  - branches and definiteness agree with oracles built independently of
    the package's pointer expansion: the Kronecker product of the
    conjugate-transposed basis matrices applied to the amplitudes, branches
    listed cell by cell, and region patterns counted in the normalised
    conditioned slice; on every protocol stage and on seeded random states
    in rotated bases;
  - `ProtocolTrace.definiteness()`, read off each stage's stored
    expansion, equals the same oracle cell by cell ("-" for an absent
    conditioning subsystem or a zero-overlap branch) on the aligned protocol
    and on the general protocol at 1,216 angles: edge values near 0, pi and
    2 pi, log-spaced small angles and seeded angles in [-10, 10]; on the
    two-box trace it conditions on the detector readings `d_L` and `d_R`
    and matches a hand-derived matrix;
  - CHSH from local traces: four `_run` traces of the singlet (A at 0 or
    pi/2, B at pi/4 or 3 pi/4, then the comparer) give comparer branch
    weights equal to `joint_probability_table` to ALG_TOL, |S| = 2 sqrt(2),
    a behaviour that passes no-signalling and parameter independence and
    fails outcome independence and factorizability, while every stage passes
    the far-wing and listing-order oracles;
  - one `everett` invocation builds at most two pointer bases.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from locality_lab.behavior import Behavior, HiddenVariableModel, Scenario, angle_label, validate
from locality_lab.causality import (
    check_factorizability,
    check_no_signalling,
    check_outcome_independence,
    check_parameter_independence,
)
from locality_lab.cli import main
from locality_lab.everett import (
    BRANCH_CUTOFF,
    COMPARER_POINTER,
    DEFINITE_TOL,
    SPIN_POINTER,
    WINGS,
    _COMPARER,
    EmptyBranchError,
    PointerBasis,
    ProtocolTrace,
    _run,
    decompose,
    einstein_boxes,
    is_definite_relative,
    relative_state,
    run_nonparallel,
    run_parallel_epr,
)
from locality_lab.qstate import (
    ALG_TOL,
    Operator,
    StateVector,
    SubsystemError,
    joint_probability_table,
    ket,
    measurement_unitary,
    rotated_basis_matrix,
    singlet,
    tensor,
    up,
)
from locality_lab.inequalities import chsh
from locality_lab.spacetime import Event, Role, boost, validate_protocol

from test_qstate import full_space_matrix

INV_SQRT2 = 1.0 / math.sqrt(2.0)
THETAS = [0.3, math.pi / 4, math.pi / 3, math.pi / 2, 2.5]
OUTCOME_INDEX = {"up": 0, "down": 1}  # joint_probability_table's outcome axes


def branch_map(branches):
    return {tuple(sorted(b.labels.items())): b.amplitude for b in branches}


def key(**labels):
    return tuple(sorted(labels.items()))


class TestParallelProtocol:
    def test_final_amplitudes(self):
        trace = run_parallel_epr()
        amps = branch_map(trace.final_branches)
        assert len(amps) == 2
        assert amps[key(m_A="up", s1="up", s2="down", m_B="down")] == pytest.approx(
            INV_SQRT2, abs=1e-12
        )
        assert amps[key(m_A="down", s1="down", s2="up", m_B="up")] == pytest.approx(
            -INV_SQRT2, abs=1e-12
        )

    def test_weights_match_born_rule(self):
        trace = run_parallel_epr()
        psi = singlet()
        table = joint_probability_table(psi, [0.0], [0.0])
        for branch in trace.final_branches:
            p, q = OUTCOME_INDEX[branch.labels["s1"]], OUTCOME_INDEX[branch.labels["s2"]]
            assert branch.weight == pytest.approx(table[0, 0, p, q], abs=1e-12)

    def test_cross_wing_definiteness_at_final_stage(self):
        stage = run_parallel_epr().stages[-1]
        assert is_definite_relative(stage.state, ["s2", "m_B"], {"m_A": "up"}, stage.pointer_bases)
        assert is_definite_relative(stage.state, ["s2", "m_B"], {"m_A": "down"}, stage.pointer_bases)

    def test_stage_events_causally_valid(self):
        trace = run_parallel_epr()
        assert validate_protocol([s.event for s in trace.stages]).passed


class TestNonParallelProtocol:
    def test_stage_names(self):
        trace = run_nonparallel(0.7)
        assert [s.name for s in trace.stages] == [
            "preparation",
            "rotated-view",
            "measurement-a",
            "measurement-b",
            "comparison",
        ]

    def test_rotated_view_is_the_same_state(self):
        trace = run_nonparallel(1.1)
        prep, rotated = trace.stages[0], trace.stages[1]
        assert np.array_equal(prep.state.amps, rotated.state.amps)
        assert len(rotated.branches) == 4  # four terms in the rotated expansion

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.2])
    def test_post_measurement_amplitudes(self, theta):
        # Expansion coefficients of the fixed basis in the rotated one come
        # from the rotation matrix rows; this reconstructs the four-branch
        # stage independently of the unitary evolution.
        w = rotated_basis_matrix(theta)
        expected = {
            key(m_A="up", s1="up", s2="up", m_B="up"): w[1, 0] * INV_SQRT2,
            key(m_A="up", s1="up", s2="down", m_B="down"): w[1, 1] * INV_SQRT2,
            key(m_A="down", s1="down", s2="up", m_B="up"): -w[0, 0] * INV_SQRT2,
            key(m_A="down", s1="down", s2="down", m_B="down"): -w[0, 1] * INV_SQRT2,
        }
        stage = run_nonparallel(theta).stage("measurement-b")
        amps = branch_map(stage.branches)
        assert set(amps) == set(expected)
        for pattern, amp in expected.items():
            assert amps[pattern] == pytest.approx(amp, abs=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_final_weights_match_born_rule(self, theta):
        trace = run_nonparallel(theta)
        branches = trace.final_branches
        assert len(branches) == 4
        assert sum(b.weight for b in branches) == pytest.approx(1.0, abs=1e-12)
        psi = singlet()
        table = joint_probability_table(psi, [0.0], [theta])
        for branch in branches:
            p, q = OUTCOME_INDEX[branch.labels["s1"]], OUTCOME_INDEX[branch.labels["s2"]]
            assert branch.weight == pytest.approx(table[0, 0, p, q], abs=1e-12)

    def test_comparer_labels_track_apparatus_pair(self):
        for branch in run_nonparallel(0.9).final_branches:
            expected = ("u" if branch.labels["m_A"] == "up" else "d") + (
                "u" if branch.labels["m_B"] == "up" else "d"
            )
            assert branch.labels["C"] == expected

    def test_theta_zero_degenerates_to_two_branches(self):
        branches = run_nonparallel(0.0).final_branches
        amps = branch_map(branches)
        assert len(amps) == 2
        assert amps[key(m_A="up", s1="up", s2="down", m_B="down", C="ud")] == pytest.approx(
            INV_SQRT2, abs=1e-12
        )
        assert amps[key(m_A="down", s1="down", s2="up", m_B="up", C="du")] == pytest.approx(
            -INV_SQRT2, abs=1e-12
        )

    def test_right_angle_gives_uniform_branches(self):
        for branch in run_nonparallel(math.pi / 2).final_branches:
            assert branch.weight == pytest.approx(0.25, abs=1e-12)

    def test_bitwise_deterministic(self):
        one = run_nonparallel(1.234)
        two = run_nonparallel(1.234)
        for s1, s2 in zip(one.stages, two.stages):
            assert s1.state.amps.tobytes() == s2.state.amps.tobytes()


class TestRelativeState:
    def test_aligned_conditioning_gives_product(self):
        stage = run_parallel_epr().stages[-1]
        rel = relative_state(stage.state, {"m_A": "up"}, stage.pointer_bases)
        assert rel.labels == ("s1", "s2", "m_B")
        expected = np.zeros(8)
        expected[0b011] = 1.0  # (s1=up, s2=down, m_B=down)
        assert np.allclose(rel.amps, expected, atol=1e-12)

    def test_nonaligned_conditioning_keeps_far_wing_entangled(self):
        theta = 1.0
        stage = run_nonparallel(theta).stage("measurement-b")
        rel = relative_state(stage.state, {"m_A": "up", "s1": "up"}, stage.pointer_bases)
        branches = branch_map(decompose(rel, stage.pointer_bases))
        w = rotated_basis_matrix(theta)
        assert branches[key(s2="up", m_B="up")] == pytest.approx(w[1, 0], abs=1e-12)
        assert branches[key(s2="down", m_B="down")] == pytest.approx(w[1, 1], abs=1e-12)

    def test_zero_overlap_rejected(self):
        stage = run_parallel_epr().stages[-1]
        with pytest.raises(EmptyBranchError):
            relative_state(
                stage.state, {"m_A": "up", "m_B": "up"}, stage.pointer_bases
            )

    def test_empty_conditioning_rejected(self):
        with pytest.raises(ValueError):
            relative_state(singlet(), {}, {})


class TestDefinitenessTransition:
    def test_transition_at_pi_third(self):
        trace = run_nonparallel(math.pi / 3)
        nine = trace.stage("measurement-b")
        assert not is_definite_relative(nine.state, ["s2", "m_B"], {"m_A": "up"}, nine.pointer_bases)
        assert not is_definite_relative(nine.state, ["s1", "m_A"], {"m_B": "up"}, nine.pointer_bases)
        ten = trace.stage("comparison")
        for label in ("uu", "ud", "du", "dd"):
            assert is_definite_relative(ten.state, ["s2", "m_B"], {"C": label}, ten.pointer_bases)
            assert is_definite_relative(ten.state, ["s1", "m_A"], {"C": label}, ten.pointer_bases)

    def test_unknown_region_subsystem_rejected(self):
        stage = run_parallel_epr().stages[-1]
        with pytest.raises(KeyError):
            is_definite_relative(stage.state, ["nope"], {"m_A": "up"}, stage.pointer_bases)
        with pytest.raises(SubsystemError):
            is_definite_relative(stage.state, ["m_A"], {"m_A": "up"}, stage.pointer_bases)

    def test_unknown_pointer_label_rejected(self):
        stage = run_parallel_epr().stages[-1]
        with pytest.raises(KeyError, match="unknown pointer label 'sideways'"):
            relative_state(stage.state, {"m_A": "sideways"}, stage.pointer_bases)
        with pytest.raises(KeyError, match="unknown pointer label 'sideways'"):
            is_definite_relative(stage.state, ["s2"], {"m_A": "sideways"}, stage.pointer_bases)

    def test_undeclared_pointer_basis_rejected(self):
        stage = run_parallel_epr().stages[-1]
        bases = {label: basis for label, basis in stage.pointer_bases.items() if label != "s2"}
        with pytest.raises(SubsystemError, match="no pointer basis declared for subsystem 's2'"):
            decompose(stage.state, bases)
        with pytest.raises(SubsystemError, match="'s2'"):
            relative_state(stage.state, {"s2": "up"}, bases)
        with pytest.raises(SubsystemError, match="'s2'"):
            is_definite_relative(stage.state, ["m_B"], {"m_A": "up"}, bases)


class TestComparisonMeasurement:
    """The comparison interaction `_COMPARER`, which `_run` applies with C adjoined in its ready state."""

    def test_absent_comparer_raises_subsystem_error(self):
        with pytest.raises(SubsystemError, match="unknown subsystem 'C'"):
            _COMPARER.apply(tensor(up("m_A"), up("m_B")))

    def test_requires_four_state_comparer(self):
        wrong = tensor(up("m_A"), up("m_B"), ket("C", [1.0, 0.0]))
        with pytest.raises(SubsystemError, match="subsystem 'C' has dimension 2, operator expects 4"):
            _COMPARER.apply(wrong)

    def test_single_branch_labelled_consistently(self):
        psi = tensor(up("m_A"), ket("m_B", [0.0, 1.0]), ket("C", [1.0, 0.0, 0.0, 0.0]))
        out = _COMPARER.apply(psi)
        spin = PointerBasis.computational(("up", "down"))
        bases = {"m_A": spin, "m_B": spin, "C": PointerBasis.computational(("uu", "ud", "du", "dd"))}
        (branch,) = decompose(out, bases)
        assert branch.labels["C"] == "ud"
        assert branch.amplitude == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "dims",
        [
            (("m_A", 2), ("m_B", 2)),
            (("m_B", 2), ("x", 3), ("m_A", 2)),
            (("s1", 2), ("m_A", 2), ("s2", 2), ("m_B", 2)),
        ],
        ids=["mA-mB", "mB-x-mA", "s1-mA-s2-mB"],
    )
    @pytest.mark.parametrize("comparer_first", [False, True], ids=["C-last", "C-first"])
    def test_random_states_equal_index_permutation(self, dims, comparer_first):
        rng = np.random.default_rng([len(dims), comparer_first])
        for _ in range(5):
            n = math.prod(d for _, d in dims)
            amps = rng.normal(size=n) + 1j * rng.normal(size=n)
            rest = StateVector(dims, amps / np.linalg.norm(amps))
            ready = ket("C", [1.0, 0.0, 0.0, 0.0])
            psi = tensor(ready, rest) if comparer_first else tensor(rest, ready)
            got = _COMPARER.apply(psi)
            # Oracle: in (m_A, m_B, C, others) axis order, copy the ready slice to C = 2x + y.
            labels = list(psi.labels)
            order = [labels.index(s) for s in ("m_A", "m_B", "C")] + [k for k, s in enumerate(labels) if s not in ("m_A", "m_B", "C")]
            t = psi.as_tensor().transpose(order)
            want = np.zeros_like(t)
            for x in range(2):
                for y in range(2):
                    want[x, y, 2 * x + y] = t[x, y, 0]
            assert np.array_equal(got.as_tensor(), want.transpose(np.argsort(order)))


class TestEinsteinBoxes:
    def test_branches_and_behaviour(self):
        trace, induced = einstein_boxes()
        oi_report = check_outcome_independence(HiddenVariableModel(induced.scenario, [(1.0, induced)]))
        weights = sorted(b.weight for b in trace.final_branches)
        assert weights == pytest.approx([0.5, 0.5], abs=1e-12)
        assert isinstance(induced, Behavior)
        found_found = induced.table[0, 0, 1, 1]
        assert found_found == pytest.approx(0.0, abs=1e-12)
        assert induced.table[0, 0, 0, 1] == pytest.approx(0.5, abs=1e-12)
        assert induced.table[0, 0, 1, 0] == pytest.approx(0.5, abs=1e-12)
        assert not oi_report.passed
        assert oi_report.max_violation == pytest.approx(0.5, abs=1e-12)

    def test_branches_strictly_anticorrelated(self):
        trace, _ = einstein_boxes()
        for branch in trace.final_branches:
            assert {branch.labels["d_L"], branch.labels["d_R"]} == {"empty", "found"}
            side = "L" if branch.labels["d_L"] == "found" else "R"
            assert branch.labels["particle"] == side


FRAME_THETAS = [0.0, 1e-9, math.pi / 3, 1.0472, math.pi / 2, math.pi, 2.5, -1.0]


def wing_density(state, wing):
    """rho = M M^H, where M is the amplitude tensor with the wing's axes in the state moved first and flattened."""
    axes = [state.axis(sub) for sub in wing if sub in state.labels]
    t = np.moveaxis(state.as_tensor(), axes, range(len(axes)))
    m = t.reshape(math.prod(t.shape[: len(axes)]), -1)
    return m @ m.conj().T


def assert_a_side_unchanged(before, after):
    shift = np.max(np.abs(wing_density(after, WINGS["A-side"]) - wing_density(before, WINGS["A-side"])))
    assert shift <= ALG_TOL, f"A-side density matrix moved by {shift:.3g}"


class TestFrameOrder:
    """The two wings' measurement events are spacelike: neither order may matter."""

    @staticmethod
    def protocol(theta):
        trace = run_nonparallel(theta)
        psi0 = trace.stage("preparation").state
        u_a = measurement_unitary(psi0.dims, 0.0, "s1", "m_A")
        u_b = measurement_unitary(psi0.dims, theta, "s2", "m_B")
        return trace, psi0, u_a, u_b

    @pytest.mark.parametrize("theta", FRAME_THETAS)
    def test_either_order_gives_the_same_state_and_branches(self, theta):
        trace, psi0, u_a, u_b = self.protocol(theta)
        a_first, b_first = u_b.apply(u_a.apply(psi0)), u_a.apply(u_b.apply(psi0))
        stage = trace.stage("measurement-b")
        assert a_first.amps.tobytes() == stage.state.amps.tobytes()
        assert b_first.amps.tobytes() == a_first.amps.tobytes()
        assert decompose(b_first, stage.pointer_bases) == stage.branches

    @pytest.mark.parametrize("theta", FRAME_THETAS)
    def test_b_alone_leaves_the_a_side_unchanged(self, theta):
        _, psi0, u_a, u_b = self.protocol(theta)
        for before in (psi0, u_a.apply(psi0)):
            assert_a_side_unchanged(before, u_b.apply(before))

    @pytest.mark.parametrize("theta", [math.pi / 3, 1.0472, math.pi / 2, 2.5, -1.0])
    def test_b_measuring_the_a_spin_is_caught(self, theta):
        _, psi0, u_a, _ = self.protocol(theta)
        after_a = u_a.apply(psi0)
        mutant = measurement_unitary(psi0.dims, theta, "s1", "m_B")
        with pytest.raises(AssertionError, match="A-side density matrix moved"):
            assert_a_side_unchanged(after_a, mutant.apply(after_a))

    @pytest.mark.parametrize("build", [run_parallel_epr, lambda: einstein_boxes()[0]], ids=["parallel", "boxes"])
    def test_either_order_in_the_other_protocols(self, build):
        prep, a, b = build().stages
        a_first = b.operator.apply(a.operator.apply(prep.state))
        b_first = a.operator.apply(b.operator.apply(prep.state))
        assert a_first.amps.tobytes() == b.state.amps.tobytes()
        assert b_first.amps.tobytes() == a_first.amps.tobytes()
        assert decompose(b_first, b.pointer_bases) == decompose(a_first, b.pointer_bases) == b.branches

    @pytest.mark.parametrize(
        "rapidity, first",
        [(0.3, Role.MEASUREMENT_B), (-0.3, Role.MEASUREMENT_A), (0.9, Role.MEASUREMENT_B), (-0.9, Role.MEASUREMENT_A)],
    )
    def test_both_time_orders_are_valid_frames(self, rapidity, first):
        for trace in (run_nonparallel(1.0472), run_parallel_epr(), einstein_boxes()[0]):
            events = [boost(stage.event, rapidity) for stage in trace.stages]
            measurements = [e for e in events if e.role in (Role.MEASUREMENT_A, Role.MEASUREMENT_B)]
            assert min(measurements, key=lambda e: e.t).role is first
            assert validate_protocol(events).passed
            # The frame's trace: its steps, at the boosted events, listed by boosted time (a stable sort).
            plan = sorted(
                ((name, boosted, operator, bases) for (name, _, operator, bases), boosted in zip(steps(trace), events)),
                key=lambda step: step[1].t,
            )
            frame = _run(trace.stages[0].state, plan)
            assert [stage.event.role for stage in frame.stages if stage.event.role in FAR_WING][0] is first
            assert frame.stages[-1].state.amps.tobytes() == trace.stages[-1].state.amps.tobytes()
            assert frame.final_branches == trace.final_branches
            for role, near in ((Role.MEASUREMENT_A, WINGS["A-side"]), (Role.MEASUREMENT_B, WINGS["B-side"])):
                (here,) = [stage.state for stage in frame.stages if stage.event.role is role]
                (rest,) = [stage.state for stage in trace.stages if stage.event.role is role]
                assert np.max(np.abs(einsum_density(here, near) - einsum_density(rest, near))) <= ALG_TOL


PROTOCOLS = {
    "parallel": run_parallel_epr,
    **{f"nonparallel-{theta!r}": (lambda theta=theta: run_nonparallel(theta)) for theta in FRAME_THETAS},
    "boxes": lambda: einstein_boxes()[0],
}
FAR_WING = {Role.MEASUREMENT_A: WINGS["B-side"], Role.MEASUREMENT_B: WINGS["A-side"]}
OPERATOR_SUBSYSTEMS = {
    "measurement-a": ("s1", "m_A"),
    "measurement-b": ("s2", "m_B"),
    "comparison": ("m_A", "m_B", "C"),
    "open-left": ("particle", "d_L"),
    "open-right": ("particle", "d_R"),
}


def einsum_density(state, wing):
    """Reduced density matrix of the wing's subsystems in the state, in wing order.

    An explicit einsum partial trace: every other axis is summed against its conjugate.
    """
    keep = [state.axis(sub) for sub in wing if sub in state.labels]
    n = len(state.dims)
    bra = {axis: n + i for i, axis in enumerate(keep)}
    t = state.as_tensor()
    rho = np.einsum(t, list(range(n)), t.conj(), [bra.get(axis, axis) for axis in range(n)], keep + list(bra.values()))
    dim = math.prod(state.sizes[axis] for axis in keep)
    return rho.reshape(dim, dim)


def steps(trace):
    return [(stage.name, stage.event, stage.operator, stage.pointer_bases) for stage in trace.stages]


PAULIS = {"X": np.array([[0.0, 1.0], [1.0, 0.0]]), "Y": np.array([[0.0, -1j], [1j, 0.0]]), "Z": np.diag([1.0, -1.0])}
GRID = np.linspace(-3.0, 3.0, 7)


def assert_heisenberg_local(before, operator, after, far):
    """U, embedded by `full_space_matrix`, maps before to after, and U^H P U = P for P = X, Y, Z on each far qubit."""
    u = full_space_matrix(before.dims, [label for label, _ in operator.dims], operator.matrix)
    assert np.max(np.abs(u @ before.amps - after.amps)) <= ALG_TOL
    for sub in (sub for sub in far if sub in before.labels):
        for name, pauli in PAULIS.items():
            p = full_space_matrix(before.dims, [sub], pauli)
            shift = np.max(np.abs(u.conj().T @ p @ u - p))
            assert shift <= ALG_TOL, f"U^H {name}({sub}) U moved by {shift:.3g}"


class TestLocalOperators:
    """Each stage records the local operator that made it, and no measurement stage acts at a distance."""

    @pytest.mark.parametrize("build", PROTOCOLS.values(), ids=PROTOCOLS.keys())
    def test_each_stage_is_its_operator_applied_to_the_previous_state(self, build):
        stages = build().stages
        assert stages[0].operator is None
        for before, stage in zip(stages, stages[1:]):
            state = before.state
            if stage.operator is None:
                assert stage.event.role is Role.OTHER
                assert stage.state.amps.tobytes() == state.amps.tobytes()
                continue
            assert tuple(label for label, _ in stage.operator.dims) == OPERATOR_SUBSYSTEMS[stage.name]
            if stage.name == "comparison":
                state = tensor(state, ket("C", [1.0, 0.0, 0.0, 0.0]))
            after = stage.operator.apply(state)
            assert after.dims == stage.state.dims
            assert after.amps.tobytes() == stage.state.amps.tobytes()

    @pytest.mark.parametrize("build", PROTOCOLS.values(), ids=PROTOCOLS.keys())
    def test_measurements_leave_the_far_wing_density_unchanged(self, build):
        stages = build().stages
        measured = [(before, stage) for before, stage in zip(stages, stages[1:]) if stage.event.role in FAR_WING]
        assert len(measured) == 2
        for before, stage in measured:
            far = FAR_WING[stage.event.role]
            rho = einsum_density(stage.state, far)
            assert np.max(np.abs(rho - wing_density(stage.state, far))) <= ALG_TOL
            shift = np.max(np.abs(rho - einsum_density(before.state, far)))
            assert shift <= ALG_TOL, f"{stage.name}: far-wing density matrix moved by {shift:.3g}"

    @staticmethod
    def assert_measurements_heisenberg_local(trace):
        stages = trace.stages
        measured = [(before, stage) for before, stage in zip(stages, stages[1:]) if stage.event.role in FAR_WING]
        assert len(measured) == 2
        for before, stage in measured:
            assert_heisenberg_local(before.state, stage.operator, stage.state, FAR_WING[stage.event.role])

    @pytest.mark.parametrize("build", PROTOCOLS.values(), ids=PROTOCOLS.keys())
    def test_heisenberg_picture_far_wing_observables_unchanged(self, build):
        self.assert_measurements_heisenberg_local(build())

    def test_heisenberg_picture_on_an_angle_grid(self):
        for a, b in itertools.product(GRID, GRID):
            self.assert_measurements_heisenberg_local(local_chsh_trace(float(a), float(b)))

    def test_heisenberg_check_catches_b_measuring_the_a_spin(self):
        for a, b in itertools.product(GRID, GRID):
            after_a = local_chsh_trace(float(a), float(b)).stage("measurement-a").state
            mutant = measurement_unitary(after_a.dims, float(b), "s1", "m_B")
            with pytest.raises(AssertionError, match=r"U\^H [XYZ]\(s1\) U moved"):
                assert_heisenberg_local(after_a, mutant, mutant.apply(after_a), WINGS["A-side"])

    @pytest.mark.parametrize("build", PROTOCOLS.values(), ids=PROTOCOLS.keys())
    def test_own_steps_rebuild_the_trace(self, build):
        trace = build()
        again = _run(trace.stages[0].state, steps(trace))
        for one, two in zip(trace.stages, again.stages, strict=True):
            assert one.state.amps.tobytes() == two.state.amps.tobytes()
            assert one.branches == two.branches

    @pytest.mark.parametrize("theta", [0.0, math.pi / 3, 2.5])
    @pytest.mark.parametrize(
        "build", [lambda theta: run_parallel_epr(), run_nonparallel], ids=["parallel", "nonparallel"]
    )
    def test_b_measuring_the_a_spin_is_refused(self, build, theta):
        trace = build(theta)
        psi0, plan = trace.stages[0].state, steps(trace)
        k = [stage.name for stage in trace.stages].index("measurement-b")
        mutant = measurement_unitary(psi0.dims, theta, "s1", "m_B")
        plan[k] = plan[k][:2] + (mutant, plan[k][3])
        with pytest.raises(ValueError, match=r"'measurement-b' \(measurement-b\) acts on far-wing subsystems \['s1'\]"):
            _run(psi0, plan)
        # the trace itself refuses the stage, however the stages were built
        stages = list(trace.stages)
        stages[k] = dataclasses.replace(stages[k], operator=mutant, state=mutant.apply(stages[k - 1].state))
        with pytest.raises(ValueError, match="far-wing"):
            ProtocolTrace(tuple(stages))

    def test_open_left_naming_the_right_detector_is_refused(self):
        trace = einstein_boxes()[0]
        plan = steps(trace)
        name, event, open_left, bases = plan[1]
        plan[1] = (name, event, Operator((("particle", 2), ("d_R", 2)), open_left.matrix), bases)
        with pytest.raises(ValueError, match=r"'open-left' \(measurement-a\) acts on far-wing subsystems \['d_R'\]"):
            _run(trace.stages[0].state, plan)

    def test_refusal_is_structural_not_a_tolerance(self):
        # A's operator extended by the identity on s2 leaves every state unchanged, and is still refused.
        trace = run_parallel_epr()
        plan = steps(trace)
        name, event, u_a, bases = plan[1]
        plan[1] = (name, event, Operator(u_a.dims + (("s2", 2),), np.kron(u_a.matrix, np.eye(2))), bases)
        with pytest.raises(ValueError, match=r"far-wing subsystems \['s2'\]"):
            _run(trace.stages[0].state, plan)


class TestListingOrder:
    """A trace refuses a stage listed before a stage in whose future light cone its event lies."""

    def test_comparison_listed_before_both_measurements_is_refused(self):
        trace = run_nonparallel(1.0472)
        plan = steps(trace)
        compare = plan[4]
        plan = plan[:2] + [compare] + [step[:3] + (compare[3],) for step in plan[2:4]]  # C needs a basis from there on
        with pytest.raises(
            ValueError, match="stage 'comparison' lies in the future light cone of the later stage 'measurement-a'"
        ):
            _run(trace.stages[0].state, plan)
        prep, view, a, b, c = trace.stages  # the trace itself refuses the order, however the stages were built
        with pytest.raises(ValueError, match="future light cone"):
            ProtocolTrace((prep, view, c, a, b))

    @pytest.mark.parametrize("build", PROTOCOLS.values(), ids=PROTOCOLS.keys())
    def test_preparation_after_measurement_a_is_refused(self, build):
        # listed first, but at t = 9 it lies in the future light cone of measurement A at (3, -2)
        trace = build()
        plan = steps(trace)
        name, event, operator, bases = plan[0]
        plan[0] = (name, dataclasses.replace(event, t=9.0), operator, bases)
        with pytest.raises(ValueError, match="stage 'preparation' lies in the future light cone of the later stage"):
            _run(trace.stages[0].state, plan)

    def test_lightlike_is_refused_and_spacelike_or_simultaneous_accepted(self):
        prep, a, b = run_parallel_epr().stages
        on_cone = dataclasses.replace(prep.event, t=a.event.t + 2.0, x=a.event.x + 2.0)
        with pytest.raises(ValueError, match="future light cone"):
            ProtocolTrace((dataclasses.replace(prep, event=on_cone), a, b))
        assert ProtocolTrace((prep, b, a)).stages == (prep, b, a)  # the measurements are spacelike
        same_time = dataclasses.replace(prep.event, t=a.event.t)
        assert ProtocolTrace((a, dataclasses.replace(prep, event=same_time), b)).stages[1].event == same_time

    def test_shipped_protocols_are_accepted(self):
        thetas = np.linspace(-4.0, 4.0, 81)
        traces = [run_parallel_epr(), einstein_boxes()[0]] + [run_nonparallel(float(theta)) for theta in thetas]
        for trace in traces:
            events = [stage.event for stage in trace.stages]
            pairs = [(e, f) for i, e in enumerate(events) for f in events[i + 1 :]]
            # the oracle: no event is later than, and not spacelike to, an event listed after it
            assert not any(e.t > f.t and (e.t - f.t) ** 2 >= (e.x - f.x) ** 2 for e, f in pairs)
        view = traces[-1].stage("rotated-view")
        assert view.event.t == traces[-1].stage("preparation").event.t  # strict t order keeps a shared time legal


CHSH_A = (0.0, math.pi / 2)
CHSH_B = (math.pi / 4, 3 * math.pi / 4)


def local_chsh_trace(a, b):
    """The singlet measured by A at ``a`` and by B at ``b``, then compared: four stages through `_run`."""
    psi0 = tensor(up("m_A"), singlet(), up("m_B"))
    bases = dict.fromkeys(psi0.labels, SPIN_POINTER)
    return _run(
        psi0,
        (
            ("preparation", Event(0.0, 0.0, Role.PREPARATION), None, bases),
            ("measurement-a", Event(3.0, -2.0, Role.MEASUREMENT_A), measurement_unitary(psi0.dims, a, "s1", "m_A"), bases),
            ("measurement-b", Event(3.0, 2.0, Role.MEASUREMENT_B), measurement_unitary(psi0.dims, b, "s2", "m_B"), bases),
            ("comparison", Event(7.0, 0.0, Role.COMPARISON), _COMPARER, {**bases, "C": COMPARER_POINTER}),
        ),
    )


class TestChshFromLocalTraces:
    """The correlations that violate local causality come from traces in which no stage acts at a distance."""

    def test_comparer_weights_violate_chsh_from_local_stages(self):
        traces = {(i, j): local_chsh_trace(a, b) for i, a in enumerate(CHSH_A) for j, b in enumerate(CHSH_B)}
        table = np.zeros((2, 2, 2, 2))
        for (i, j), trace in traces.items():
            for branch in trace.final_branches:  # comparer label c = 2 x + y for readings (x, y), 0 = up
                c = COMPARER_POINTER.labels.index(branch.labels["C"])
                table[i, j, c >> 1, c & 1] += branch.weight
            for stage in trace.stages:
                reached = {label for label, _ in stage.operator.dims} if stage.operator else set()
                assert not reached & set(FAR_WING.get(stage.event.role, ())), stage.name
            events = [stage.event for stage in trace.stages]
            pairs = [(e, f) for k, e in enumerate(events) for f in events[k + 1 :]]
            assert not any(e.t > f.t and (e.t - f.t) ** 2 >= (e.x - f.x) ** 2 for e, f in pairs)
        assert np.max(np.abs(table - joint_probability_table(singlet(), CHSH_A, CHSH_B))) <= ALG_TOL

        scenario = Scenario(tuple(map(angle_label, CHSH_A)), tuple(map(angle_label, CHSH_B)))
        behavior = validate(Behavior(scenario, table))
        assert abs(chsh(behavior, 0, 1, 0, 1).magnitude - 2.0 * math.sqrt(2.0)) <= ALG_TOL
        model = HiddenVariableModel(scenario, [(1.0, behavior)])
        assert check_no_signalling(behavior, ALG_TOL).passed
        assert check_parameter_independence(model, ALG_TOL).passed
        assert check_outcome_independence(model, ALG_TOL).passed is False
        assert check_factorizability(model, ALG_TOL).passed is False


def oracle_expansion(state, bases):
    """Amplitude tensor in the pointer bases: one Kronecker product of B^H applied to the amplitudes."""
    big = np.ones((1, 1))
    for label in state.labels:
        big = np.kron(big, bases[label].matrix.conj().T)
    return (big @ state.amps).reshape([dim for _, dim in state.dims])


def oracle_branches(state, bases, cutoff=BRANCH_CUTOFF):
    t = oracle_expansion(state, bases)
    names = [bases[label].labels for label in state.labels]
    return [
        ({label: names[k][i] for k, (label, i) in enumerate(zip(state.labels, idx))}, complex(t[idx]))
        for idx in np.ndindex(*t.shape)
        if abs(t[idx]) > cutoff
    ]


def oracle_definite(state, region, conditioning, bases):
    """None for an empty branch, else whether one region pattern carries the normalised slice."""
    return oracle_definite_in(oracle_expansion(state, bases), state, region, conditioning, bases)


def oracle_definite_in(t, state, region, conditioning, bases):
    """`oracle_definite` on ``t``, the state's `oracle_expansion`."""
    index = tuple(
        bases[label].labels.index(conditioning[label]) if label in conditioning else slice(None)
        for label in state.labels
    )
    rest = [label for label in state.labels if label not in conditioning]
    part = t[index]
    norm = np.linalg.norm(part)
    if norm <= BRANCH_CUTOFF:
        return None
    part = part / norm
    patterns = {
        tuple(idx[rest.index(sub)] for sub in region)
        for idx in np.ndindex(*part.shape)
        if abs(part[idx]) > DEFINITE_TOL
    }
    return len(patterns) == 1


def assert_matches_oracles(state, bases, conditioning_sizes=(1,)):
    got = decompose(state, bases)
    want = oracle_branches(state, bases)
    assert [dict(b.labels) for b in got] == [labels for labels, _ in want]
    for branch, (_, amp) in zip(got, want):
        assert abs(branch.amplitude - amp) <= 1e-12
    labels = state.labels
    for n in conditioning_sizes:
        for conditioned in itertools.combinations(labels, n):
            rest = [label for label in labels if label not in conditioned]
            names = [bases[sub].labels for sub in conditioned]
            for picks in itertools.product(*names):
                conditioning = dict(zip(conditioned, picks))
                for size in range(1, len(rest) + 1):
                    for region in itertools.combinations(rest, size):
                        want = oracle_definite(state, region, conditioning, bases)
                        if want is None:
                            with pytest.raises(EmptyBranchError):
                                is_definite_relative(state, region, conditioning, bases)
                        else:
                            assert is_definite_relative(state, region, conditioning, bases) is want


ORACLE_THETAS = [0.0, math.pi / 2, math.pi] + [float(t) for t in np.random.default_rng(7).uniform(0.0, math.pi, 6)]


class TestExpansionOracles:
    def test_parallel_protocol(self):
        for stage in run_parallel_epr().stages:
            assert_matches_oracles(stage.state, stage.pointer_bases, conditioning_sizes=(1, 2))

    @pytest.mark.parametrize("theta", ORACLE_THETAS)
    def test_nonparallel_protocol(self, theta):
        for stage in run_nonparallel(theta).stages:
            assert_matches_oracles(stage.state, stage.pointer_bases)

    def test_einstein_boxes(self):
        trace, _ = einstein_boxes()
        for stage in trace.stages:
            assert_matches_oracles(stage.state, stage.pointer_bases, conditioning_sizes=(1, 2))

    def test_random_states_in_rotated_bases(self):
        rng = np.random.default_rng(11)
        labels = ("q0", "q1", "q2", "q3")
        for _ in range(12):
            amps = rng.normal(size=16)
            state = StateVector([(label, 2) for label in labels], amps / np.linalg.norm(amps))
            bases = {label: PointerBasis.spin(float(rng.uniform(-math.pi, math.pi))) for label in labels[:3]}
            bases["q3"] = PointerBasis.computational(("up", "down"))
            assert_matches_oracles(state, bases, conditioning_sizes=(1, 2))

    def test_entangled_pairs_in_rotated_bases(self):
        # two singlets in rotated bases: supports with exact zeros, so definiteness can hold
        pair = singlet().amps
        state = tensor(StateVector((("q0", 2), ("q1", 2)), pair), StateVector((("q2", 2), ("q3", 2)), pair))
        for theta in (0.0, 0.4):
            bases = {label: PointerBasis.spin(theta) for label in ("q0", "q1", "q2", "q3")}
            assert_matches_oracles(state, bases, conditioning_sizes=(1, 2))


def _row_thetas() -> list[float]:
    edges = [0.0, -0.0, 1e-15, 5e-13, 1e-9, 1.9e-9, 2e-9, 2.1e-9, 1e-6, math.pi / 3, 1.0472, math.pi / 2]
    edges += [math.pi - 1e-7, math.pi, 2 * math.pi, -1.0]
    offsets = np.geomspace(1e-15, 1e-3, 100)
    parts = (
        np.geomspace(1e-12, 1e-6, 400),
        2 * math.pi - np.geomspace(1e-15, 1e-3, 200),
        np.concatenate([math.pi - offsets, math.pi + offsets]),
        np.random.default_rng(1216).uniform(-10.0, 10.0, 400),
    )
    return edges + [float(theta) for part in parts for theta in part]


ROW_THETAS = _row_thetas()


def oracle_definiteness_rows(trace):
    """(region, conditioned-on, one cell per stage) rows from `oracle_definite`."""
    conditionings = [("B-side", "m_A", "up"), ("B-side", "m_A", "down"), ("A-side", "m_B", "up"), ("A-side", "m_B", "down")]
    if "C" in trace.stages[-1].pointer_bases:
        conditionings += [(wing, "C", lab) for lab in ("uu", "ud", "du", "dd") for wing in ("A-side", "B-side")]
    expansions = [oracle_expansion(stage.state, stage.pointer_bases) for stage in trace.stages]
    rows = []
    for wing, sub, lab in conditionings:
        row = [wing, f"{sub}={lab}"]
        for stage, t in zip(trace.stages, expansions):
            want = None
            if sub in stage.state.labels:
                region = [label for label in WINGS[wing] if label in stage.state.labels]
                want = oracle_definite_in(t, stage.state, region, {sub: lab}, stage.pointer_bases)
            row.append("-" if want is None else "yes" if want else "no")
        rows.append(row)
    return rows


class TestDefinitenessRows:
    def test_parallel_protocol(self):
        trace = run_parallel_epr()
        header, rows = trace.definiteness()
        assert header == ["region", "conditioned-on"] + [stage.name for stage in trace.stages]
        assert rows == oracle_definiteness_rows(trace)

    def test_einstein_boxes(self):
        # the other box's detector relative to each reading of one detector; "-" marks a reading no branch has yet
        header, rows = einstein_boxes()[0].definiteness()
        assert header == ["region", "conditioned-on", "preparation", "open-left", "open-right"]
        assert rows == [
            ["B-side", "d_L=empty", "yes", "yes", "yes"],
            ["B-side", "d_L=found", "-", "yes", "yes"],
            ["A-side", "d_R=empty", "yes", "no", "yes"],
            ["A-side", "d_R=found", "-", "-", "yes"],
        ]

    def test_nonparallel_protocol_at_every_row_angle(self):
        assert len(ROW_THETAS) == 1216
        cells = {"yes": 0, "no": 0, "-": 0}
        for theta in ROW_THETAS:
            trace = run_nonparallel(theta)
            _, rows = trace.definiteness()
            assert rows == oracle_definiteness_rows(trace), theta
            for row in rows:
                for cell in row[2:]:
                    cells[cell] += 1
        assert all(cells.values())  # every kind of cell occurs: definite, indefinite and empty


def test_everett_builds_at_most_two_pointer_bases(monkeypatch, capsys):
    built = []
    check = PointerBasis.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(PointerBasis, "__post_init__", counting)
    assert main(["everett", "--theta", "1.0472"]) == 0
    capsys.readouterr()
    assert len(built) <= 2

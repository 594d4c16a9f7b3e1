"""State/operator algebra and Born-rule oracle checks.

Claims covered:
  - the rotated spin basis matches the fixed half-angle convention and is
    orthonormal across the angle range;
  - tensor products concatenate labelled subsystems, preserve norm, and
    reject label collisions;
  - the measurement unitary realises the pointer-copy action on the ready
    sector, is unitary, and two aligned measurements produce the two-branch
    anticorrelated state;
  - Born table entries agree with an independent dense projector-matrix
    computation and with the closed singlet form (1/2)sin^2(theta/2), and
    each angle pair's four entries sum to 1;
  - measurement order on distinct wings is immaterial;
  - an operator acts on the subsystems it names, in its own label order and
    wherever they sit in the state, like the full-space matrix built from
    its kron with the identity and an explicit axis permutation; an identity
    operator on any of the state's subsystems gives back the state's bytes;
  - `contract`, the one amplitude contraction, equals `np.einsum` to 1e-13 on
    seeded random complex blocks over 1, 2 and 3 axes of 2- to 5-axis
    tensors, with axes adjacent or not and in or out of order;
  - singlet correlators depend only on the angle difference;
  - the Born table equals the einsum over the rotated basis stacks bit for
    bit, sign bits included, on random and special states over 1 to 40
    angles per side (negative, past 2 pi, a 1 x 1 grid) and on grids that
    span several row blocks and end in a ragged one (150 x 61, 257 x 17,
    5000 x 1) or hold one row longer than a block (1 x 5000), and peaks
    below 11 MiB at 500 x 500 angles;
  - a non-finite angle is refused, naming the first one, wing A's before
    wing B's.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from locality_lab.qstate import (
    ALG_TOL,
    LabelCollisionError,
    NormalizationError,
    Operator,
    StateVector,
    SubsystemError,
    contract,
    correlator_matrix,
    joint_probability_table,
    ket,
    measurement_unitary,
    rotated_basis_matrix,
    singlet,
    tensor,
    up,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def projector_probability(state, angle_a, col_a, angle_b, col_b):
    """Independent oracle: dense 4x4 projector sandwich on a two-qubit state."""
    va = rotated_basis_matrix(angle_a)[:, col_a]
    vb = rotated_basis_matrix(angle_b)[:, col_b]
    proj = np.kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
    amps = state.amps
    return float(np.real(amps.conj() @ (proj @ amps)))


def spin_kets(theta, label="spin"):
    """Rotated up and down kets along ``theta``, built from the basis matrix's columns."""
    w = rotated_basis_matrix(theta)
    return ket(label, w[:, 0]), ket(label, w[:, 1])


def same_state(psi, phi):
    """Equal dims and every amplitude within ALG_TOL (no global-phase forgiveness)."""
    return psi.dims == phi.dims and np.max(np.abs(psi.amps - phi.amps)) <= ALG_TOL


class TestSpinBasis:
    def test_zero_angle_is_identity(self):
        u, d = spin_kets(0.0)
        assert np.allclose(u.amps, [1.0, 0.0], atol=ALG_TOL)
        assert np.allclose(d.amps, [0.0, 1.0], atol=ALG_TOL)

    def test_quarter_turn(self):
        # Derived from the convention's rotation matrix at theta = pi/2.
        u, d = spin_kets(math.pi / 2)
        assert np.allclose(u.amps, [INV_SQRT2, INV_SQRT2], atol=ALG_TOL)
        assert np.allclose(d.amps, [-INV_SQRT2, INV_SQRT2], atol=ALG_TOL)

    def test_orthonormal_on_grid(self):
        for theta in np.linspace(-2 * math.pi, 2 * math.pi, 100):
            u, d = spin_kets(float(theta))
            assert abs(np.vdot(u.amps, d.amps)) < ALG_TOL
            assert abs(np.vdot(u.amps, u.amps) - 1.0) < ALG_TOL

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            rotated_basis_matrix(math.nan)


class TestTensor:
    def test_product_basis_state(self):
        psi = tensor(up("s1"), ket("s2", [0.0, 1.0]))
        expected = np.zeros(4)
        expected[1] = 1.0
        assert np.allclose(psi.amps, expected, atol=ALG_TOL)

    def test_norm_multiplicative(self):
        u, _ = spin_kets(0.77, label="x")
        v, _ = spin_kets(-1.2, label="y")
        assert abs(np.linalg.norm(tensor(u, v).amps) - 1.0) < ALG_TOL

    def test_duplicate_label_rejected(self):
        with pytest.raises(LabelCollisionError):
            tensor(up("s"), ket("s", [0.0, 1.0]))

    def test_initial_two_wing_state(self):
        # The four-factor prepared state: +/- 1/sqrt(2) on exactly two of the
        # sixteen joint amplitudes, apparatus factors in their ready states.
        psi = tensor(up("m_A"), singlet(), up("m_B"))
        expected = np.zeros(16)
        expected[2] = INV_SQRT2   # (up, up, down, up)
        expected[4] = -INV_SQRT2  # (up, down, up, up)
        assert psi.labels == ("m_A", "s1", "s2", "m_B")
        assert np.allclose(psi.amps, expected, atol=ALG_TOL)


class TestStateVector:
    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            StateVector((("q", 2),), [1.0, 1.0])

    def test_amps_read_only(self):
        psi = up("q")
        with pytest.raises(ValueError):
            psi.amps[0] = 0.5


class TestMeasurementUnitary:
    DIMS = (("s", 2), ("m", 2))

    def test_pointer_copy_action(self):
        theta = 0.83
        u_meas = measurement_unitary(self.DIMS, theta, "s", "m")
        su, sd = spin_kets(theta, label="s")
        for sys_state, expected_pointer in ((su, up("m")), (sd, ket("m", [0.0, 1.0]))):
            image = u_meas.apply(tensor(sys_state, up("m")))
            assert same_state(image, tensor(sys_state, expected_pointer))

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, math.pi / 2, 2.0])
    def test_unitary(self, theta):
        u_meas = measurement_unitary(self.DIMS, theta, "s", "m")
        dev = np.max(np.abs(u_meas.matrix.conj().T @ u_meas.matrix - np.eye(4)))
        assert dev < ALG_TOL

    def test_aligned_measurements_give_two_branches(self):
        psi = tensor(up("m_A"), singlet(), up("m_B"))
        u_a = measurement_unitary(psi.dims, 0.0, "s1", "m_A")
        u_b = measurement_unitary(psi.dims, 0.0, "s2", "m_B")
        final = u_b.apply(u_a.apply(psi))
        expected = np.zeros(16)
        expected[0b0011] = INV_SQRT2   # (up, up, down, down)
        expected[0b1100] = -INV_SQRT2  # (down, down, up, up)
        assert np.allclose(final.amps, expected, atol=ALG_TOL)

    def test_unknown_subsystem(self):
        with pytest.raises(SubsystemError):
            measurement_unitary(self.DIMS, 0.1, "nope", "m")

    def test_non_qubit_subsystem(self):
        with pytest.raises(SubsystemError):
            measurement_unitary((("s", 2), ("big", 3)), 0.1, "s", "big")

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-math.pi, math.pi, size=10):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = StateVector(self.DIMS, amps / np.linalg.norm(amps))
            image = measurement_unitary(self.DIMS, float(theta), "s", "m").apply(psi)
            assert abs(np.linalg.norm(image.amps) - 1.0) < ALG_TOL


class TestBornJoint:
    """`joint_probability_table` entries against the dense projector oracle and the singlet closed form."""

    def test_parallel_same_outcomes_vanish(self):
        table = joint_probability_table(singlet(), [0.0], [0.0])
        assert table[0, 0, 0, 0] < ALG_TOL
        assert table[0, 0, 1, 1] < ALG_TOL

    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, math.pi])
    def test_singlet_closed_form_and_projector_oracle(self, theta):
        psi = singlet()
        p = joint_probability_table(psi, [0.0], [theta])[0, 0, 0, 0]
        assert p == pytest.approx(0.5 * math.sin(theta / 2) ** 2, abs=ALG_TOL)
        assert p == pytest.approx(projector_probability(psi, 0.0, 0, theta, 0), abs=ALG_TOL)

    def test_projector_oracle_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = StateVector((("s1", 2), ("s2", 2)), amps / np.linalg.norm(amps))
            angles_a, angles_b = rng.uniform(0, 2 * math.pi, size=(2, 3))
            table = joint_probability_table(psi, angles_a, angles_b)
            for (ia, ta), (ib, tb) in itertools.product(enumerate(angles_a), enumerate(angles_b)):
                for p, q in itertools.product(range(2), repeat=2):
                    assert table[ia, ib, p, q] == pytest.approx(
                        projector_probability(psi, float(ta), p, float(tb), q), abs=ALG_TOL
                    )

    def test_completeness(self):
        rng = np.random.default_rng(9)
        angles_a, angles_b = rng.uniform(-math.pi, math.pi, size=(2, 10))
        totals = joint_probability_table(singlet(), angles_a, angles_b).sum(axis=(2, 3))
        assert np.max(np.abs(totals - 1.0)) <= ALG_TOL


class TestMeasurementOrder:
    def test_order_immaterial(self):
        rng = np.random.default_rng(17)
        psi = tensor(up("m_A"), singlet(), up("m_B"))
        for theta in rng.uniform(-math.pi, math.pi, size=20):
            u_a = measurement_unitary(psi.dims, 0.0, "s1", "m_A")
            u_b = measurement_unitary(psi.dims, float(theta), "s2", "m_B")
            ab = u_b.apply(u_a.apply(psi))
            ba = u_a.apply(u_b.apply(psi))
            assert np.max(np.abs(ab.amps - ba.amps)) < ALG_TOL


class TestCorrelator:
    def test_rotational_invariance(self):
        psi = singlet()
        for a in np.linspace(0, 2 * math.pi, 7):
            for b in np.linspace(0, 2 * math.pi, 7):
                for shift in (0.31, -1.7):
                    shifted = correlator_matrix(psi, [float(a + shift)], [float(b + shift)])[0, 0]
                    assert shifted == pytest.approx(correlator_matrix(psi, [float(a)], [float(b)])[0, 0], abs=ALG_TOL)

    def test_matrix_matches_minus_cosine(self):
        grid = np.linspace(0, 2 * math.pi, 12)
        e = correlator_matrix(singlet(), grid, grid)
        expected = -np.cos(grid[:, None] - grid[None, :])
        assert np.max(np.abs(e - expected)) < ALG_TOL


def einsum_table(state, angles_a, angles_b):
    """Second code path: |<a_p b_q|psi>|^2 as one einsum over the real basis stacks."""
    wa = np.stack([rotated_basis_matrix(t) for t in angles_a])
    wb = np.stack([rotated_basis_matrix(t) for t in angles_b])
    return np.abs(np.einsum("akp,kl,blq->abpq", wa, state.as_tensor(), wb)) ** 2


TWO_QUBITS = (("s1", 2), ("s2", 2))
FIXED_STATES = {
    "singlet": singlet(),
    "plus-i": StateVector(TWO_QUBITS, np.array([1, 1j, 1j, -1]) / 2),
    "up-up": StateVector(TWO_QUBITS, [1, 0, 0, 0]),
    "down-down": StateVector(TWO_QUBITS, [0, 0, 0, 1]),
}


class TestBornTableKernel:
    """The per-outcome accumulation equals the einsum bit for bit, sign bits included."""

    @staticmethod
    def assert_bitwise(state, angles_a, angles_b):
        got = joint_probability_table(state, angles_a, angles_b)
        want = einsum_table(state, angles_a, angles_b)
        assert got.shape == want.shape == (len(angles_a), len(angles_b), 2, 2)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_states_and_grids(self, seed):
        rng = np.random.default_rng([11, seed])
        states = [random_state(rng, TWO_QUBITS) for _ in range(3)] + list(FIXED_STATES.values())
        for state in states:
            n_a, n_b = rng.integers(1, 41, size=2)
            # Negative angles and angles past 2 pi on both sides.
            self.assert_bitwise(state, list(rng.uniform(-20, 20, size=n_a)), list(rng.uniform(-20, 20, size=n_b)))

    @pytest.mark.parametrize("name", sorted(FIXED_STATES))
    def test_fixed_states_on_special_grids(self, name):
        state = FIXED_STATES[name]
        self.assert_bitwise(state, [0.0], [0.0])
        self.assert_bitwise(state, [-7.5], [13.0])
        grid = [k * math.pi / 4 for k in range(-9, 10)]
        self.assert_bitwise(state, grid, grid[::-1])

    @pytest.mark.parametrize("n_a, n_b", [(150, 61), (257, 17), (1, 5000), (5000, 1)])
    def test_grids_across_row_blocks(self, n_a, n_b):
        rng = np.random.default_rng([13, n_a, n_b])
        for state in [random_state(rng, TWO_QUBITS), FIXED_STATES["plus-i"]]:
            self.assert_bitwise(state, list(rng.uniform(-20, 20, size=n_a)), list(rng.uniform(-20, 20, size=n_b)))

    @pytest.mark.parametrize(
        "angles_a, angles_b, bad",
        [
            ([0.0, math.inf, math.nan], [-math.inf], "inf"),
            ([0.5], [1.0, math.nan, -math.inf], "nan"),
            ([-math.inf], [0.0], "-inf"),
        ],
    )
    def test_non_finite_angle_named(self, angles_a, angles_b, bad):
        with pytest.raises(ValueError) as excinfo:
            joint_probability_table(singlet(), angles_a, angles_b)
        assert str(excinfo.value) == f"angle must be finite, got {bad}"

    def test_peak_memory_at_500_angles(self):
        # The (500, 500, 2, 2) table is 7.6 MiB; the row blocks hold the rest near 0.5 MiB.
        # A complex amplitude tensor of the table's shape would take another 15.3 MiB.
        angles = [k * 0.0126 for k in range(500)]
        joint_probability_table(singlet(), angles, angles)
        tracemalloc.start()
        try:
            joint_probability_table(singlet(), angles, angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * 2**20


def random_unitary(rng, d):
    """Haar-like unitary: QR of a complex Gaussian matrix with the phases of R removed."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dims):
    n = math.prod(d for _, d in dims)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(dims, amps / np.linalg.norm(amps))


def full_space_matrix(state_dims, op_labels, matrix):
    """The operator over the whole joint space, built without the package's contraction.

    kron(matrix, I) acts in the basis ordered (named subsystems in operator
    order, then the others in state order); the permutation matrix P maps
    state-order amplitudes to that order, so the full matrix is P^T kron P.
    """
    labels = [label for label, _ in state_dims]
    sizes = [d for _, d in state_dims]
    order = [labels.index(label) for label in op_labels] + [k for k, label in enumerate(labels) if label not in op_labels]
    rest = math.prod(sizes[k] for k in order[len(op_labels):])
    big = np.kron(matrix, np.eye(rest))
    n = math.prod(sizes)
    perm = np.eye(n).reshape(sizes + [n]).transpose(order + [len(sizes)]).reshape(n, n)
    return perm.T @ big @ perm


class TestOperator:
    def test_non_unitary_flag_rejected(self):
        with pytest.raises(ValueError):
            Operator((("q", 2),), np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_apply_checks_dims(self):
        op = Operator((("q", 2),), np.eye(2))
        with pytest.raises(SubsystemError):
            op.apply(ket("other", [1.0, 0.0]))

    @pytest.mark.parametrize(
        "state_dims, op_labels",
        [
            ((("a", 2), ("b", 3), ("c", 4)), ("a",)),
            ((("a", 2), ("b", 3), ("c", 4)), ("c",)),
            ((("a", 2), ("b", 3), ("c", 4)), ("c", "a")),
            ((("a", 2), ("b", 3), ("c", 4)), ("b", "c")),
            ((("a", 2), ("b", 3), ("c", 4)), ("c", "b", "a")),
            ((("a", 3), ("b", 2), ("c", 2), ("d", 4)), ("d", "b")),
            ((("a", 3), ("b", 2), ("c", 2), ("d", 4)), ("a", "c")),
            ((("a", 3), ("b", 2), ("c", 2), ("d", 4)), ("c", "b")),
            ((("a", 3), ("b", 2), ("c", 2), ("d", 4)), ("b", "d", "a")),
            ((("a", 3), ("b", 2), ("c", 2), ("d", 4)), ("d", "c", "b", "a")),
        ],
        ids=lambda v: "".join(v) if isinstance(v[0], str) else "".join(f"{s}{d}" for s, d in v),
    )
    def test_apply_equals_full_space_matrix(self, state_dims, op_labels):
        rng = np.random.default_rng([len(state_dims), *map(ord, "".join(op_labels))])
        sizes = dict(state_dims)
        op_dims = tuple((label, sizes[label]) for label in op_labels)
        for _ in range(5):
            u = random_unitary(rng, math.prod(d for _, d in op_dims))
            psi = random_state(rng, state_dims)
            got = Operator(op_dims, u).apply(psi)
            assert got.dims == psi.dims
            assert np.max(np.abs(got.amps - full_space_matrix(state_dims, op_labels, u) @ psi.amps)) < ALG_TOL

    def test_unknown_label_rejected(self):
        psi = random_state(np.random.default_rng(1), (("a", 2), ("b", 3)))
        with pytest.raises(SubsystemError, match="unknown subsystem 'z'"):
            Operator((("a", 2), ("z", 2)), np.eye(4)).apply(psi)

    def test_size_mismatch_rejected(self):
        psi = random_state(np.random.default_rng(2), (("a", 2), ("b", 3)))
        with pytest.raises(SubsystemError, match="'b' has dimension 3"):
            Operator((("b", 2),), np.eye(2)).apply(psi)

    def test_non_unitary_on_named_subsystems_rejected(self):
        rng = np.random.default_rng(3)
        m = random_unitary(rng, 6)
        m[0, 0] += 1e-6
        with pytest.raises(ValueError, match="not unitary"):
            Operator((("b", 3), ("a", 2)), m)


    @pytest.mark.parametrize("op_labels", [("a",), ("d",), ("c", "a"), ("b", "d", "a"), ("d", "c", "b", "a")], ids="".join)
    def test_identity_gives_back_the_state_bytes(self, op_labels):
        state_dims = (("a", 3), ("b", 2), ("c", 2), ("d", 4))
        psi = random_state(np.random.default_rng(len(op_labels)), state_dims)
        op_dims = tuple((label, dict(state_dims)[label]) for label in op_labels)
        op = Operator(op_dims, np.eye(math.prod(d for _, d in op_dims)))
        assert op.apply(psi).amps.tobytes() == psi.amps.tobytes()


CONTRACT_CASES = [
    ((2,), [0]),
    ((3, 2), [1]),
    ((2, 3, 4), [0]),
    ((2, 3, 4), [2]),
    ((2, 3, 4, 2), [1, 2]),
    ((2, 3, 4, 2), [3, 0]),
    ((2, 3, 4, 2), [2, 0]),
    ((4, 2, 3, 2, 2), [4, 1, 2]),
    ((4, 2, 3, 2, 2), [0, 2, 4]),
    ((4, 2, 3, 2, 2), [3, 1, 0]),
]


class TestContract:
    @pytest.mark.parametrize("shape, axes", CONTRACT_CASES, ids=lambda v: "x".join(map(str, v)))
    def test_matches_einsum(self, shape, axes):
        rng = np.random.default_rng([len(shape), *shape, *axes])
        ins = [shape[a] for a in axes]
        t_idx = "abcde"[: len(shape)]
        out_idx = "uvw"[: len(axes)]
        res_idx = list(t_idx)
        for o, a in zip(out_idx, axes):
            res_idx[a] = o
        spec = f"{out_idx}{''.join(t_idx[a] for a in axes)},{t_idx}->{''.join(res_idx)}"
        for _ in range(5):
            block = rng.normal(size=ins * 2) + 1j * rng.normal(size=ins * 2)
            t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            got = contract(block, t, axes)
            assert got.shape == shape
            assert np.max(np.abs(got - np.einsum(spec, block, t))) <= 1e-13

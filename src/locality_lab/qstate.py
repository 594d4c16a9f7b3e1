"""Dense complex linear algebra for small labelled tensor-product systems.

Everything in this module is exact to floating-point rounding: states and
operators are dense ``complex128`` arrays over a handful of labelled
subsystems (a few dozen joint dimensions at most), basis order is
lexicographic with the first subsystem most significant, and norms/unitarity
are enforced at ``ALG_TOL``; an operator acts only on the subsystems it names.

The one Born-rule path, `joint_probability_table` (which `correlator_matrix`
reads), gives joint outcome probabilities for two spin-1/2 subsystems
measured along rotated directions. Measurement directions are parametrised
by a single angle via the real rotation

    up(theta)   = cos(theta/2) |up> + sin(theta/2) |down>
    down(theta) = -sin(theta/2) |up> + cos(theta/2) |down>

which keeps every amplitude in the two-wing protocols real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

ALG_TOL = 1e-12  # algebraic identities: norms, unitarity, probability sums
_BITS2 = ((0, 0), (0, 1), (1, 0), (1, 1))  # outcome and basis index pairs in C order

DimSpec = tuple[tuple[str, int], ...]


class LabelCollisionError(ValueError):
    """Two tensor factors share a subsystem label."""


class SubsystemError(KeyError):
    """Unknown subsystem label, or a subsystem of the wrong dimension."""


class NormalizationError(ValueError):
    """State norm differs from 1 beyond ALG_TOL."""


def _as_dims(dims: Iterable[tuple[str, int]]) -> DimSpec:
    out = tuple((str(label), int(d)) for label, d in dims)
    labels = [label for label, _ in out]
    if len(set(labels)) != len(labels):
        raise LabelCollisionError(f"duplicate subsystem label in {labels}")
    for label, d in out:
        if d < 1:
            raise ValueError(f"subsystem {label!r} has non-positive dimension {d}")
    return out


class StateVector:
    """Normalised pure state over an ordered sequence of labelled subsystems.

    ``amps[i]`` is the amplitude of the joint basis state whose multi-index is
    the lexicographic decomposition of ``i`` (first subsystem most
    significant). Instances are immutable; the amplitude array is read-only.
    """

    __slots__ = ("dims", "amps")

    def __init__(self, dims: Iterable[tuple[str, int]], amps: Sequence[complex] | np.ndarray):
        dims = _as_dims(dims)
        arr = np.array(amps, dtype=np.complex128).reshape(-1)
        expected = math.prod(d for _, d in dims)
        if arr.size != expected:
            raise ValueError(f"expected {expected} amplitudes for dims {dims}, got {arr.size}")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("non-finite amplitude")
        n2 = float(np.vdot(arr, arr).real)
        if abs(n2 - 1.0) > ALG_TOL:
            raise NormalizationError(f"squared norm {n2!r} differs from 1 beyond {ALG_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.dims)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.dims)

    def axis(self, label: str) -> int:
        """Position of a subsystem in the tensor order."""
        return _positions(self.dims, [label])[0]

    def as_tensor(self) -> np.ndarray:
        return self.amps.reshape(self.sizes)

    def __repr__(self) -> str:
        return f"StateVector(dims={self.dims})"


@dataclass(frozen=True)
class Operator:
    """Dense unitary on the labelled subsystems named in ``dims``; unitarity is checked.

    ``apply`` acts on the subsystems it names, wherever they sit in a state,
    and leaves every other subsystem alone.
    """

    dims: DimSpec
    matrix: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dim = math.prod(d for _, d in dims)
        if mat.shape != (dim, dim):
            raise ValueError(f"operator shape {mat.shape} does not match joint dimension {dim}")
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
        if dev > ALG_TOL:
            raise ValueError(f"operator is not unitary: max |U^H U - I| = {dev!r}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def apply(self, state: StateVector) -> StateVector:
        pos = _positions(state.dims, [label for label, _ in self.dims])
        for (label, d), k in zip(self.dims, pos):
            if state.dims[k][1] != d:
                raise SubsystemError(f"subsystem {label!r} has dimension {state.dims[k][1]}, operator expects {d}")
        n = len(pos)
        block = self.matrix.reshape([d for _, d in self.dims] * 2)
        t = np.tensordot(block, state.as_tensor(), axes=(list(range(n, 2 * n)), pos))
        return StateVector(state.dims, np.moveaxis(t, range(n), pos))


def ket(label: str, amps: Sequence[complex]) -> StateVector:
    """Single-subsystem state of dimension ``len(amps)``."""
    arr = np.asarray(amps, dtype=np.complex128)
    return StateVector(((label, arr.size),), arr)


def up(label: str) -> StateVector:
    return ket(label, [1.0, 0.0])


def tensor(*states: StateVector) -> StateVector:
    """Tensor product of states over disjoint subsystem labels."""
    if not states:
        raise ValueError("tensor of no factors")
    dims: list[tuple[str, int]] = []
    amps = np.ones(1, dtype=np.complex128)
    for s in states:
        dims.extend(s.dims)
        amps = np.kron(amps, s.amps)
    return StateVector(dims, amps)


def singlet() -> StateVector:
    """(|up down> - |down up>)/sqrt(2) on the qubits ``s1`` and ``s2``."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[1] = 1.0 / math.sqrt(2.0)
    amps[2] = -1.0 / math.sqrt(2.0)
    return StateVector((("s1", 2), ("s2", 2)), amps)


def rotated_basis_matrix(theta: float) -> np.ndarray:
    """2x2 real matrix whose columns are the rotated up/down spin states."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


def _positions(dims: DimSpec, labels: Sequence[str]) -> list[int]:
    index = {name: k for k, (name, _) in enumerate(dims)}
    pos = []
    for label in labels:
        if label not in index:
            raise SubsystemError(f"unknown subsystem {label!r}; have {tuple(index)}")
        pos.append(index[label])
    if len(set(pos)) != len(pos):
        raise LabelCollisionError(f"repeated subsystem in {labels}")
    return pos


def measurement_unitary(
    dims: Iterable[tuple[str, int]], theta: float, system: str, apparatus: str
) -> Operator:
    """Pointer-copy unitary for measuring ``system`` along angle ``theta``.

    On the (system, apparatus) pair it keeps the apparatus in its first
    indicator state when the system is in the rotated up state and flips it
    when the system is in the rotated down state; the apparatus-down sector
    is exchanged consistently (a CNOT in the rotated product basis). The
    operator names only the pair, which must be qubits of ``dims``.
    """
    dims = _as_dims(dims)
    for k in _positions(dims, [system, apparatus]):
        if dims[k][1] != 2:
            raise SubsystemError(f"subsystem {dims[k][0]!r} must be a qubit, has dimension {dims[k][1]}")
    w = rotated_basis_matrix(theta)
    p_up = np.outer(w[:, 0], w[:, 0])
    p_down = np.outer(w[:, 1], w[:, 1])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    block = np.kron(p_up, np.eye(2)) + np.kron(p_down, flip)
    return Operator(((system, 2), (apparatus, 2)), block)


def joint_probability_table(
    state: StateVector, angles_a: Sequence[float], angles_b: Sequence[float]
) -> np.ndarray:
    """Born probabilities of a two-qubit state over an angle grid, shape (n_a, n_b, 2, 2).

    Entry ``[i, j, p, q]`` is the probability of outcomes (up, down)[p] on the
    first subsystem at angle ``angles_a[i]`` and (up, down)[q] on the second
    at angle ``angles_b[j]``, the squared norm of the state's projection onto
    those two rotated spin states. Each (p, q) plane sums
    ``(wa[:, k, p] * t[k, l]) * wb[:, l, q]`` over (k, l) = (0,0), (0,1), (1,0), (1,1) in that
    order, which makes the table bitwise equal to ``abs(einsum("akp,kl,blq->abpq", wa, t, wb)) ** 2``.
    """
    if state.sizes != (2, 2):
        raise SubsystemError("joint probability tables require a two-qubit state")
    wa = np.stack([rotated_basis_matrix(t) for t in angles_a]).astype(np.complex128)  # (na, 2, cols)
    wb = np.stack([rotated_basis_matrix(t) for t in angles_b]).astype(np.complex128)
    wat = wa[:, :, :, None] * state.as_tensor()[:, None, :]  # [i, k, p, l] = wa[i, k, p] * t[k, l]
    out = np.empty((len(wa), len(wb), 2, 2))
    for p, q in _BITS2:
        acc = wat[:, 0, p, 0, None] * wb[None, :, 0, q]
        for k, l in _BITS2[1:]:
            acc += wat[:, k, p, l, None] * wb[None, :, l, q]
        np.abs(acc, out=out[:, :, p, q])
    return np.square(out, out=out)


def correlator_matrix(
    state: StateVector, angles_a: Sequence[float], angles_b: Sequence[float]
) -> np.ndarray:
    p = joint_probability_table(state, angles_a, angles_b)
    return p[:, :, 0, 0] + p[:, :, 1, 1] - p[:, :, 0, 1] - p[:, :, 1, 0]

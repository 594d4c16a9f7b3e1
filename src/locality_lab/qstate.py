"""Dense complex linear algebra for small labelled tensor-product systems.

Everything in this module is exact to floating-point rounding: states and
operators are dense ``complex128`` arrays over a handful of labelled
subsystems (a few dozen joint dimensions at most), basis order is
lexicographic with the first subsystem most significant, and norms/unitarity
are enforced at ``ALG_TOL``; an operator acts only on the subsystems it names.
`contract` is the one amplitude contraction (`Operator.apply`, `everett`'s
pointer expansions): a fixed order of float64 operations and no BLAS call.

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
_BITS2 = ((0, 0), (0, 1), (1, 0), (1, 1))  # basis index pairs in C order
_BLOCK_CELLS = 1 << 12  # Born-table cells formed at a time; it bounds memory, not the arithmetic

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


@dataclass(frozen=True, eq=False, slots=True)
class StateVector:
    """Normalised pure state over an ordered sequence of labelled subsystems.

    ``amps[i]`` is the amplitude of the joint basis state whose multi-index is
    the lexicographic decomposition of ``i`` (first subsystem most
    significant). ``amps`` is read-only; ``==`` and ``hash`` go by identity.
    """

    dims: DimSpec
    amps: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        arr = np.array(self.amps, dtype=np.complex128).reshape(-1)
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


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense unitary on the labelled subsystems named in ``dims``; unitarity is checked.

    ``apply`` acts on the subsystems it names, wherever they sit in a state,
    and leaves every other subsystem alone. ``==`` and ``hash`` go by
    identity; ``np.array_equal`` on ``.matrix`` compares by value.
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
        block = self.matrix.reshape([d for _, d in self.dims] * 2)
        return StateVector(state.dims, contract(block, state.as_tensor(), pos))


def contract(block: np.ndarray, t: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``block``, laid out as output axes then input axes, applied to the ``axes`` of ``t``, whose places they take.

    Each product is formed from real and imaginary parts by float64 multiplies and adds (a complex multiply may fuse
    them on one CPU and not on another), and the products are summed over the input multi-index in C order, with no
    BLAS call, so the bytes of the result do not depend on the BLAS kernel or on numpy's SIMD dispatch.
    """
    order = [*axes, *(a for a in range(t.ndim) if a not in axes)]
    src = t.transpose(order)
    n = math.prod(t.shape[a] for a in axes)
    b, s = block.reshape(-1, n).T[:, :, None], src.reshape(n, 1, -1)  # [i, o, 0] and [i, 0, r]; r: the other axes
    terms = np.empty((n, b.shape[1], s.shape[2]), dtype=np.complex128)
    terms.real = b.real * s.real - b.imag * s.imag
    terms.imag = b.real * s.imag + b.imag * s.real
    out = np.add.accumulate(terms)[-1]  # ((term 0 + term 1) + term 2) + ...
    return out.reshape(block.shape[: len(axes)] + src.shape[len(axes) :]).transpose(np.argsort(order))


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
    return _rotated_bases((theta,)).reshape(2, 2)


def _rotated_bases(angles: Iterable[float]) -> np.ndarray:
    """The rotated basis matrices of all ``angles`` in one (2, 2, n) array: ``[:, :, i]`` is that of ``angles[i]``.

    Raises naming the first non-finite angle.
    """
    c, s = [], []
    for theta in angles:
        if not math.isfinite(theta):
            raise ValueError(f"angle must be finite, got {theta!r}")
        c.append(math.cos(theta / 2.0))
        s.append(math.sin(theta / 2.0))
    c, s = np.array(c), np.array(s)
    return np.array([[c, -s], [s, c]])


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
    those two rotated spin states. The amplitude of every cell sums
    ``(wa[i, k, p] * t[k, l]) * wb[j, l, q]`` over (k, l) = (0,0), (0,1), (1,0), (1,1) in that order,
    which makes the table bitwise equal to ``abs(einsum("akp,kl,blq->abpq", wa, t, wb)) ** 2``. The
    rows of wing A go in blocks of about _BLOCK_CELLS cells, each block all four (p, q) planes at once.
    Raises naming the first non-finite angle, wing A's before wing B's.
    """
    if state.sizes != (2, 2):
        raise SubsystemError("joint probability tables require a two-qubit state")
    wa = _rotated_bases(angles_a)
    wb = _rotated_bases(angles_b).astype(np.complex128)  # [l, q, j]
    wat = wa[:, None] * state.as_tensor()[:, :, None, None]  # [k, l, p, i] = wa[i, k, p] * t[k, l]
    n_a, n_b = wa.shape[2], wb.shape[2]
    out = np.empty((n_a, n_b, 2, 2))
    rows = max(1, _BLOCK_CELLS // max(1, n_b))
    acc = np.empty((2, 2, min(rows, n_a), n_b), dtype=np.complex128)  # [p, q, i, j], reused by every block
    term = np.empty_like(acc)
    for lo in range(0, n_a, rows):
        hi = min(lo + rows, n_a)
        a, b = acc[:, :, : hi - lo], term[:, :, : hi - lo]
        np.multiply(wat[0, 0, :, None, lo:hi, None], wb[0, None, :, None], out=a)
        for k, l in _BITS2[1:]:
            a += np.multiply(wat[k, l, :, None, lo:hi, None], wb[l, None, :, None], out=b)
        block = out[lo:hi].transpose(2, 3, 0, 1)
        np.square(np.abs(a, out=block), out=block)
    return out


def correlator_matrix(
    state: StateVector, angles_a: Sequence[float], angles_b: Sequence[float]
) -> np.ndarray:
    p = joint_probability_table(state, angles_a, angles_b)
    return p[:, :, 0, 0] + p[:, :, 1, 1] - p[:, :, 0, 1] - p[:, :, 1, 0]

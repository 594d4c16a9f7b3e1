"""CHSH and original-form Bell functionals with classical and quantum bounds.

Outcome encoding is fixed throughout: the first outcome label on each side
maps to +1, the second to -1. The CHSH combination is

    S = E(a,b) - E(a,b') + E(a',b) + E(a',b')

whose local bound |S| <= 2 is recovered here by exhaustive enumeration of
the 16 deterministic strategies of the 2x2x2 scenario, and whose quantum
maximum over measurement directions in the x-z plane is located by an exact
grid scan of the four measurement angles, pruned by a separable bound on
each (a, a') pair, plus see-saw refinement that reaches the in-plane
closed form 2 ||T||_F.

`bell_1964` evaluates the original-form slack 1 + E(b,c) - |E(a,b) - E(a,c)|,
which presupposes perfect anticorrelation at equal settings; the slack is
still computed when that precondition fails, but the result is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .behavior import Behavior, angle_label
from .qstate import StateVector, correlator_matrix

CORRELATOR_TOL = 1e-12
ANTICORRELATION_TOL = 1e-9
SCAN_GRID = np.arange(48) * (math.pi / 24)  # quantum_max scans the 48 multiples of pi/24 in [0, 2pi)
SEESAW_ROUNDS = 60  # cap on quantum_max's see-saw rounds


class ScenarioShapeError(ValueError):
    """The operation needs a two-setting, two-outcome scenario."""


@dataclass(frozen=True)
class CorrelatorSet:
    """Expectation values E(a, b) of the +/-1 outcome product over a grid."""

    settings_a: tuple[str, ...]
    settings_b: tuple[str, ...]
    values: np.ndarray  # shape (n_a, n_b)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (len(self.settings_a), len(self.settings_b)):
            raise ValueError(f"correlator grid shape {vals.shape} does not match settings")
        if np.max(np.abs(vals)) > 1.0 + CORRELATOR_TOL:
            raise ValueError("correlator magnitude exceeds 1 beyond tolerance")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "settings_a", tuple(str(s) for s in self.settings_a))
        object.__setattr__(self, "settings_b", tuple(str(s) for s in self.settings_b))

    @classmethod
    def from_behavior(cls, behavior: Behavior) -> "CorrelatorSet":
        sc = behavior.scenario
        if len(sc.outcomes_a) != 2 or len(sc.outcomes_b) != 2:
            raise ScenarioShapeError("correlators need binary outcomes on both sides")
        t = behavior.table
        values = t[:, :, 0, 0] + t[:, :, 1, 1] - t[:, :, 0, 1] - t[:, :, 1, 0]
        return cls(sc.settings_a, sc.settings_b, values)

    @classmethod
    def from_state(
        cls, state: StateVector, angles_a: Sequence[float], angles_b: Sequence[float]
    ) -> "CorrelatorSet":
        """Born-rule correlators of a two-qubit state over angle grids."""
        return cls(
            tuple(angle_label(t) for t in angles_a),
            tuple(angle_label(t) for t in angles_b),
            correlator_matrix(state, [float(t) for t in angles_a], [float(t) for t in angles_b]),
        )

    def value(self, a: int, b: int) -> float:
        """E at the a-th setting of wing A and the b-th setting of wing B."""
        return float(self.values[a, b])


def _as_correlators(source: Behavior | CorrelatorSet) -> CorrelatorSet:
    return source if isinstance(source, CorrelatorSet) else CorrelatorSet.from_behavior(source)


@dataclass(frozen=True)
class ChshResult:
    value: float
    settings: tuple[str, str, str, str]  # (a, a', b, b')
    terms: tuple[float, float, float, float]  # E(a,b), E(a,b'), E(a',b), E(a',b')

    def __post_init__(self):
        if abs(self.value) > 4.0 + 4 * CORRELATOR_TOL:
            raise ValueError(f"|S| = {abs(self.value)!r} exceeds the algebraic maximum 4")

    @property
    def magnitude(self) -> float:
        return abs(self.value)

    def to_dict(self) -> dict:
        a, ap, b, bp = self.settings
        e_ab, e_abp, e_apb, e_apbp = self.terms
        return {
            "value": self.value,
            "magnitude": self.magnitude,
            "settings": {"a": a, "a_prime": ap, "b": b, "b_prime": bp},
            "correlators": {"E(a,b)": e_ab, "E(a,b')": e_abp, "E(a',b)": e_apb, "E(a',b')": e_apbp},
        }


def chsh(
    source: Behavior | CorrelatorSet,
    a: int,
    a_prime: int,
    b: int,
    b_prime: int,
) -> ChshResult:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') for the settings at these positions."""
    corr = _as_correlators(source)
    e_ab = corr.value(a, b)
    e_abp = corr.value(a, b_prime)
    e_apb = corr.value(a_prime, b)
    e_apbp = corr.value(a_prime, b_prime)
    names = (corr.settings_a[a], corr.settings_a[a_prime], corr.settings_b[b], corr.settings_b[b_prime])
    return ChshResult(e_ab - e_abp + e_apb + e_apbp, names, (e_ab, e_abp, e_apb, e_apbp))


@dataclass(frozen=True)
class StrategyRow:
    """One deterministic local strategy: +/-1 responses per setting, and its S."""

    responses_a: tuple[int, int]
    responses_b: tuple[int, int]
    s: float


@dataclass(frozen=True)
class ClassicalBound:
    bound: float
    strategies: tuple[StrategyRow, ...]


def classical_bound() -> ClassicalBound:
    """Exhaustive enumeration of the 16 deterministic local strategies of the 2x2x2 scenario.

    The enumeration itself is the oracle: it returns max |S| = 2 together
    with every strategy row, so mixtures can be checked against it.
    """
    rows = []
    for ra in product((1, -1), repeat=2):
        for rb in product((1, -1), repeat=2):
            e = lambda i, j: float(ra[i] * rb[j])
            s = e(0, 0) - e(0, 1) + e(1, 0) + e(1, 1)
            rows.append(StrategyRow(ra, rb, s))
    return ClassicalBound(max(abs(r.s) for r in rows), tuple(rows))


def _chsh_from_grid(e: np.ndarray, ia: int, iap: int, ib: int, ibp: int) -> float:
    return float(e[ia, ib] - e[ia, ibp] + e[iap, ib] + e[iap, ibp])


def _scan(e: np.ndarray) -> tuple[int, int, int, int]:
    """Indices (a, a', b, b') of the first maximum of |S| in C order over a correlator grid ``e``.

    Equal to the first argmax of |S| over the full (a, a', b, b') array, found
    without building it: candidate (a, a') pairs come from a separable bound.
    """
    # For fixed (a, a'), S = plus[b] + minus[b'], so the largest |S| over (b, b')
    # is a separable bound. A four-term sum rounds by under 3e-15, so a pair
    # whose bound falls 1e-12 below the best bound cannot hold the maximum.
    # Terms are laid out (b, a, a'), so each max and min reduces whole (a, a')
    # slabs; min over b' of E(a',b') - E(a,b') is -high.T, as negation is exact.
    et = e.T
    plus = et[:, :, None] + et[:, None, :]  # E(a,b) + E(a',b) over (b, a, a')
    top, bottom = plus.max(axis=0), plus.min(axis=0)
    del plus
    high = (et[:, None, :] - et[:, :, None]).max(axis=0)  # max over b' of E(a',b') - E(a,b')
    bound = np.maximum(top + high, -(bottom - high.T))
    candidates = bound >= bound.max() - 1e-12
    # Candidates are summed as in the full scan, one (a', b, b') block per a;
    # a block's first maximum replaces the best only when strictly larger.
    # No |S| rounds above the ceiling, so the scan ends once the best reaches it.
    ceiling = bound.max() + 1e-12 * np.abs(e).max()
    best_abs = -1.0
    for i in np.flatnonzero(candidates.any(axis=1)):
        if best_abs >= ceiling:
            break
        rows = np.flatnonzero(candidates[i])
        block = np.abs(e[i, None, :, None] - e[i, None, None, :] + e[rows, :, None] + e[rows, None, :])
        k = int(np.argmax(block))
        if block.flat[k] > best_abs:
            best_abs = block.flat[k]
            j, ib, ibp = np.unravel_index(k, block.shape)
            ia, iap = int(i), int(rows[j])
    return ia, iap, int(ib), int(ibp)


def quantum_max(state: StateVector) -> ChshResult:
    """Largest |S| over measurement directions in the x-z plane for a two-qubit state.

    Only real directions (sin theta, 0, cos theta) are searched, so states
    whose optimal directions leave that plane fall short of the full
    two-qubit maximum. Deterministic: an exact scan of the angle quadruples
    of SCAN_GRID takes the first maximum of |S| in C order over
    (a, a', b, b'); then up to SEESAW_ROUNDS see-saw rounds (Werner & Wolf
    2001) each set one pair of directions to its optimum given the other. A
    round is kept only when it raises |S|; from the grid's best quadruple the
    rounds reach the in-plane optimum 2 ||T||_F (Horodecki 1995).
    """
    e = correlator_matrix(state, SCAN_GRID, SCAN_GRID)
    quad = _scan(e)
    best = [SCAN_GRID[i] for i in quad]
    best_val = _chsh_from_grid(e, *quad)

    # S = a . T(b - b') + a' . T(b + b') = b . T^t(a + a') + b' . T^t(a' - a)
    # for unit vectors n(theta) = (sin theta, cos theta); rows and columns of T are (x, z).
    t = correlator_matrix(state, [math.pi / 2, 0.0], [math.pi / 2, 0.0])
    sign = 1.0 if best_val >= 0.0 else -1.0
    unit = lambda theta: np.array([math.sin(theta), math.cos(theta)])
    angle = lambda v: math.atan2(sign * v[0], sign * v[1]) % (2.0 * math.pi)
    for _ in range(SEESAW_ROUNDS):
        nb, nbp = unit(best[2]), unit(best[3])
        a, ap = angle(t @ (nb - nbp)), angle(t @ (nb + nbp))
        na, nap = unit(a), unit(ap)
        trial = [a, ap, angle(t.T @ (na + nap)), angle(t.T @ (nap - na))]
        val = _chsh_from_grid(correlator_matrix(state, trial[:2], trial[2:]), 0, 1, 0, 1)
        if not abs(val) > abs(best_val):
            break  # a round that does not raise |S| would repeat itself from the same angles
        best, best_val = trial, val
    angles = [float(x) for x in best]
    em = correlator_matrix(state, angles[:2], angles[2:])
    return ChshResult(best_val, tuple(map(angle_label, angles)), tuple(map(float, em.flat)))


@dataclass(frozen=True)
class Bell1964Result:
    """Slack of 1 + E(b,c) - |E(a,b) - E(a,c)| plus the precondition status."""

    slack: float
    settings: tuple[str, str, str]
    terms: dict[str, float]
    anticorrelation_ok: bool
    max_equal_setting_deviation: float

    @property
    def satisfied(self) -> bool:
        return self.slack >= 0.0

    def to_dict(self) -> dict:
        a, b, c = self.settings
        return {
            "slack": self.slack,
            "satisfied": self.satisfied,
            "settings": {"a": a, "b": b, "c": c},
            "terms": dict(self.terms),
            "anticorrelation_ok": self.anticorrelation_ok,
            "max_equal_setting_deviation": self.max_equal_setting_deviation,
        }


def bell_1964(
    corr: CorrelatorSet,
    a: int,
    b: int,
    c_setting: int,
) -> Bell1964Result:
    """Original-form three-setting slack at positions ``a`` (wing A), ``b`` and ``c_setting`` (wing B).

    The derivation presupposes E(s, s) = -1 at every setting label present on
    both sides; the worst deviation from that is reported, and a violation of
    the precondition flags (but does not suppress) the computed slack.
    """
    shared = [(corr.settings_a.index(s), corr.settings_b.index(s)) for s in corr.settings_a if s in corr.settings_b]
    deviation = max((abs(corr.value(ia, ib) + 1.0) for ia, ib in shared), default=math.inf)
    e_bc = corr.value(b, c_setting)
    e_ab = corr.value(a, b)
    e_ac = corr.value(a, c_setting)
    slack = 1.0 + e_bc - abs(e_ab - e_ac)
    names = (corr.settings_a[a], corr.settings_b[b], corr.settings_b[c_setting])
    return Bell1964Result(
        slack,
        names,
        {"E(b,c)": e_bc, "E(a,b)": e_ab, "E(a,c)": e_ac},
        deviation <= ANTICORRELATION_TOL,
        deviation,
    )


# -- CSV emission --------------------------------------------------------------


def correlators_to_csv(corr: CorrelatorSet) -> str:
    """Correlator grid as CSV text with columns a, b, E, each E as ``format(E, ".17g")``.

    Each distinct float64 bit pattern is formatted once, in one ``%.17g`` pass
    (bit patterns, not values, so -0.0 keeps its sign beside 0.0); each grid
    row is then one ``%`` pass of those texts through a template of the labels
    (``%`` escaped as ``%%``) with one ``%s`` per cell. Grids are never empty.
    """
    keys, inverse = np.unique(corr.values.view(np.uint64), return_inverse=True)
    distinct = tuple(keys.view(np.float64).tolist())
    texts = np.array(("\n".join(["%.17g"] * len(distinct)) % distinct).split("\n"), dtype=object)
    cells = [f",{b.replace('%', '%%')},%s\n" for b in corr.settings_b]
    rows = ["a,b,E\n"]
    for a, row in zip(corr.settings_a, texts[inverse.reshape(corr.values.shape)].tolist()):
        a = a.replace("%", "%%")
        rows.append((a + a.join(cells)) % tuple(row))
    return "".join(rows)

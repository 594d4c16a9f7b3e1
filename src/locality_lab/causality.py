"""Executable probabilistic locality conditions for bipartite models.

Each checker scans a behaviour or hidden-variable model for the worst
violation of one condition and reports it quantitatively:

  * no-signalling        -- observable marginals ignore the far setting;
                            checked as parameter independence on a
                            one-lambda stack holding the behaviour;
  * parameter independence -- lambda-conditional marginals ignore the far
                              setting;
  * outcome independence -- conditioning on the far outcome (given both
                            settings and lambda) leaves near-outcome
                            probabilities unchanged;
  * factorizability      -- each lambda-conditional joint splits into the
                            product of its one-sided marginals;
  * determinism          -- the conclusion of the reduction theorem:
                            factorizability plus perfect anticorrelation at
                            parallel settings forces every lambda-conditional
                            marginal there to 0 or 1.

Conditional probabilities are defined only on conditioning events with
probability above ``ZERO_CUTOFF``; skipped cells are counted, never treated
as vacuous passes. Reports carry the maximal violation and a witness for it
(ties broken lexicographically), so they can back quantitative tests.

Every checker works on the model's (L, n_a, n_b, k_A, k_B) table stack at
once; lambda is the leading axis, so the lexicographic order of a witness is
lambda first, then the cell. A model derives its one-sided marginals and its
average once, on first use (`behavior`), so the checkers of one model share them.
The far-setting shift of no-signalling and parameter independence is the
largest spread max - min over the far setting of a (lambda, near setting,
outcome) group, O(L n_a n_b k) work, with the exact first witness cell.
Outcome independence and the product gap work on whole (L, n_a, n_b) slabs,
one per outcome pair, never broadcasting over the short outcome axes: each
side of outcome independence is reduced to per-lambda maxima, and only the
winning (lambda, side) block is searched for the witness cell.
Witnesses are defined on finite tables only: a NaN entry still yields
``passed=False``, but the cell its witness names is not specified.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .behavior import Behavior, HiddenVariableModel, Scenario, average, marginals

DEFAULT_TOL = 1e-9
DEFAULT_DET_TOL = 1e-6
ZERO_CUTOFF = 1e-12


class Condition(enum.Enum):
    NO_SIGNALLING = "no-signalling"
    PARAMETER_INDEPENDENCE = "parameter-independence"
    OUTCOME_INDEPENDENCE = "outcome-independence"
    FACTORIZABILITY = "factorizability"
    DETERMINISM = "determinism"


class PositivityError(ValueError):
    """A checker requiring strictly positive tables met a zero entry."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one condition check.

    ``passed`` is None only when a check's hypotheses were unsatisfied and no
    pass/fail verdict applies (see `suppes_zanotti_reduction`); otherwise
    ``passed`` iff ``max_violation <= tol``. The witness names the cell
    achieving the maximal violation.
    """

    condition: Condition
    passed: bool | None
    max_violation: float
    tol: float
    witness: dict | None = None
    skipped_cells: int = 0
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "condition": self.condition.value,
            "passed": self.passed,
            "max_violation": self.max_violation,
            "witness": self.witness,
            "skipped_cells": self.skipped_cells,
            "tol": self.tol,
            "notes": list(self.notes),
        }


def _argmax_cell(arr: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Maximum and its lexicographically first index (arr must be nonempty)."""
    flat = np.argmax(arr)
    return float(arr.reshape(-1)[flat]), tuple(int(i) for i in np.unravel_index(flat, arr.shape))


def _spread(far_major: np.ndarray) -> np.ndarray:
    """max - min over the leading axis; numpy reduces a contiguous leading axis fastest."""
    far_major = np.ascontiguousarray(far_major)
    return far_major.max(axis=0) - far_major.min(axis=0)


def _marginal_shift(scenario: Scenario, marg_a: np.ndarray, marg_b: np.ndarray) -> tuple[float, int, dict]:
    """Largest far-setting shift of a one-sided marginal, from `marginals`.

    A group (lambda, near setting, outcome) shifts by at most its spread
    max - min over the far setting, and as rounding is monotone the largest
    spread is the largest pair difference bit for bit. The first maximal
    cell (lambda, near, far, far', outcome) lies in the first (lambda, near)
    holding a maximal group, so only that pair block is built. Side A wins
    ties with side B. Returns the shift, the lambda index of its witness and
    the witness without that index.
    """
    sc = scenario
    sides = [  # (side, (lambda, near, far, outcome) marginal, near and far setting names, near outcomes)
        ("A", marg_a, ("a", sc.settings_a), ("b", sc.settings_b), sc.outcomes_a),
        ("B", marg_b.transpose(0, 2, 1, 3), ("b", sc.settings_b), ("a", sc.settings_a), sc.outcomes_b),
    ]
    spreads = [_spread(marg.transpose(2, 0, 1, 3)) for _, marg, *_ in sides]  # (lambda, near, outcome) over far
    maxima = [float(spread.max()) for spread in spreads]
    k = 0 if maxima[0] >= maxima[1] else 1
    (side, marg, (near, near_names), (far, far_names), outcomes), value = sides[k], maxima[k]
    il, i_near = divmod(int(np.argmax(spreads[k] == value)) // marg.shape[3], marg.shape[1])
    block = marg[il, i_near]  # (far, outcome)
    _, (i_far, i_far2, i_out) = _argmax_cell(np.abs(block[:, None] - block[None]))
    return value, il, {
        "side": side,
        near: near_names[i_near],
        far: far_names[i_far],
        f"{far}_prime": far_names[i_far2],
        "outcome": outcomes[i_out],
    }


def _product_gap(tables: np.ndarray, marg_a: np.ndarray, marg_b: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Largest |P(A,B|a,b) - P(A|a,b) P(B|a,b)| over a table stack and its first cell."""
    gap = np.empty(tables.shape)
    for iA in range(gap.shape[3]):
        for iB in range(gap.shape[4]):
            np.multiply(marg_a[..., iA], marg_b[..., iB], out=gap[..., iA, iB])
    np.abs(np.subtract(tables, gap, out=gap), out=gap)
    return _argmax_cell(gap)


def check_no_signalling(behavior: Behavior, tol: float = DEFAULT_TOL) -> CheckReport:
    """Observable-level marginal independence of the far setting."""
    value, _, witness = _marginal_shift(behavior.scenario, *marginals(behavior.table[None]))
    return CheckReport(Condition.NO_SIGNALLING, value <= tol, value, tol, witness)


def check_parameter_independence(model: HiddenVariableModel, tol: float = DEFAULT_TOL) -> CheckReport:
    """Lambda-conditional marginal independence of the far setting."""
    value, il, witness = _marginal_shift(model.scenario, *model.marginals())
    return CheckReport(Condition.PARAMETER_INDEPENDENCE, value <= tol, value, tol, {"lambda": il, **witness})


def check_outcome_independence(model: HiddenVariableModel, tol: float = DEFAULT_TOL) -> CheckReport:
    """Far-outcome conditioning leaves near-outcome probabilities unchanged.

    Cells whose conditioning event has probability <= ZERO_CUTOFF are
    skipped and counted in the report.
    """
    sc = model.scenario
    joint = model.stacked_tables().transpose(3, 4, 0, 1, 2).copy()  # (k_A, k_B, L, n_a, n_b)
    marg_a, marg_b = (m.transpose(3, 0, 1, 2).copy() for m in model.marginals())
    gaps, skipped = [], 0  # side A |P(A,B)/P(B) - P(A)|, then side B in joint's buffer
    for cond, base, out in ((marg_b[None], marg_a[:, None], None), (marg_a[:, None], marg_b[None], joint)):
        skip = ~(cond > ZERO_CUTOFF)
        skipped += int(np.count_nonzero(skip)) * (joint.size // skip.size)
        # Skipped cells divide by 1, so no warning is raised, then become -inf.
        gap = np.divide(joint, np.where(skip, 1.0, cond), out=out)
        np.abs(np.subtract(gap, base, out=gap), out=gap)
        np.copyto(gap, -np.inf, where=skip)
        gaps.append(gap)
    if skipped == 2 * joint.size:  # every conditioning event was skipped
        return CheckReport(Condition.OUTCOME_INDEPENDENCE, 0.0 <= tol, 0.0, tol, None, skipped)
    # The first (lambda, side) block maximum, then the first cell in that block.
    value, (il, side) = _argmax_cell(np.array([g.max(axis=(0, 1, 3, 4)) for g in gaps]).T)
    _, (ia, ib, iA, iB) = _argmax_cell(gaps[side][:, :, il].transpose(2, 3, 0, 1))
    a_out, b_out = sc.outcomes_a[iA], sc.outcomes_b[iB]
    near, far = (("A", a_out), ("B", b_out)) if side == 0 else (("B", b_out), ("A", a_out))
    witness = {
        "lambda": il,
        "side": near[0],
        "a": sc.settings_a[ia],
        "b": sc.settings_b[ib],
        "outcome": near[1],
        "conditioned_on": {"side": far[0], "outcome": far[1]},
    }
    return CheckReport(Condition.OUTCOME_INDEPENDENCE, value <= tol, value, tol, witness, skipped)


def check_factorizability(model: HiddenVariableModel, tol: float = DEFAULT_TOL) -> CheckReport:
    """Per-lambda product structure of the joint table.

    Marginals are taken at the same setting pair as the joint cell; when
    parameter independence holds they coincide with the lambda marginals,
    otherwise the report is annotated and the pair-specific marginals are
    used as a diagnostic.
    """
    sc = model.scenario
    marg_a, marg_b = model.marginals()
    value, (il, ia, ib, iA, iB) = _product_gap(model.stacked_tables(), marg_a, marg_b)
    witness = {
        "lambda": il,
        "a": sc.settings_a[ia],
        "b": sc.settings_b[ib],
        "A": sc.outcomes_a[iA],
        "B": sc.outcomes_b[iB],
    }
    notes: tuple[str, ...] = ()
    pi_shift, _, _ = _marginal_shift(sc, marg_a, marg_b)
    if not pi_shift <= tol:
        notes = (
            "parameter independence fails "
            f"(max shift {pi_shift:.6g}); pair-specific marginals used",
        )
    return CheckReport(Condition.FACTORIZABILITY, value <= tol, value, tol, witness, 0, notes)


def jarrett_equivalence(model: HiddenVariableModel, tol: float = DEFAULT_TOL) -> bool:
    """factorizability <=> (parameter independence and outcome independence).

    Requires strictly positive tables so every conditional is defined; on
    such tables the equivalence is an algebraic identity.
    """
    sc = model.scenario
    tables = model.stacked_tables()
    nonpositive = (tables <= 0.0).any(axis=(1, 2, 3, 4))
    if nonpositive.any():
        il = int(np.argmax(nonpositive))
        ia, ib, iA, iB = np.unravel_index(np.argmin(tables[il]), sc.shape)
        raise PositivityError(
            f"lambda {il} has a non-positive entry at "
            f"(a={sc.settings_a[ia]!r}, b={sc.settings_b[ib]!r}, "
            f"A={sc.outcomes_a[iA]!r}, B={sc.outcomes_b[iB]!r})"
        )
    fact = check_factorizability(model, tol).passed
    pi = check_parameter_independence(model, tol).passed
    oi = check_outcome_independence(model, tol).passed
    return fact == (pi and oi)


def _parallel_pairs(model: HiddenVariableModel) -> list[tuple[int, int]]:
    """(a, b) index pairs of the setting labels shared by both wings."""
    sc = model.scenario
    pairs = [(ia, sc.settings_b.index(label)) for ia, label in enumerate(sc.settings_a) if label in sc.settings_b]
    if not pairs:
        raise ValueError("no parallel setting pair (no setting label shared by both wings)")
    return pairs


def suppes_zanotti_reduction(model: HiddenVariableModel, tol: float = DEFAULT_TOL) -> CheckReport:
    """Reduction to determinism at the parallel settings.

    Hypotheses: factorizability within ``tol`` and perfect anticorrelation of
    the averaged behaviour at every parallel pair (outcomes matched by index,
    P(A = B | s, s) <= tol). When both hold, asserts the conclusion: every
    lambda-conditional marginal at the tested settings lies within
    ``DEFAULT_DET_TOL`` of {0, 1}. When the hypotheses fail, the report carries
    ``passed = None``, a "hypotheses-unsatisfied" note, and the hypothesis
    deficit as ``max_violation``.
    """
    sc = model.scenario
    if len(sc.outcomes_a) != len(sc.outcomes_b):
        raise ValueError("anticorrelation needs index-matched outcome lists of equal length")
    pairs = _parallel_pairs(model)

    marg_a, marg_b = model.marginals()
    fact, _ = _product_gap(model.stacked_tables(), marg_a, marg_b)
    avg = average(model)
    same = [float(sum(avg.table[ia, ib, i, i] for i in range(len(sc.outcomes_a)))) for ia, ib in pairs]
    deficit = max(same)
    if not fact <= tol or deficit > tol:
        notes = (
            "hypotheses-unsatisfied: "
            f"factorizability max violation {fact:.6g} (tol {tol:g}), "
            f"anticorrelation deficit {deficit:.6g} (tol {tol:g})",
        )
        slack = max(fact if not fact <= tol else 0.0, deficit if deficit > tol else 0.0)
        return CheckReport(Condition.DETERMINISM, None, slack, DEFAULT_DET_TOL, None, 0, notes)

    ia, ib = np.array(pairs).T
    # (l, pair, side, outcome), scanned in that order
    marg = np.stack([marg_a[:, ia, ib], marg_b[:, ia, ib]], axis=2)
    worst, (il, ip, side, io) = _argmax_cell(np.minimum(np.abs(marg), np.abs(1.0 - marg)))
    if not worst > 0.0:
        return CheckReport(Condition.DETERMINISM, 0.0 <= DEFAULT_DET_TOL, 0.0, DEFAULT_DET_TOL, None)
    witness = {
        "lambda": il,
        "side": "AB"[side],
        "setting": sc.settings_a[ia[ip]],
        "outcome": (sc.outcomes_a, sc.outcomes_b)[side][io],
        "marginal": float(marg[il, ip, side, io]),
    }
    return CheckReport(Condition.DETERMINISM, worst <= DEFAULT_DET_TOL, worst, DEFAULT_DET_TOL, witness)

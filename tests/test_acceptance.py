"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from locality_lab.behavior import (
    Behavior,
    HiddenVariableModel,
    Scenario,
    average,
    behavior_to_dict,
    from_quantum,
    model_to_dict,
    sign_model,
    validate,
)
from locality_lab.causality import (
    check_no_signalling,
    check_outcome_independence,
    jarrett_equivalence,
    suppes_zanotti_reduction,
)
from locality_lab.cli import main
from locality_lab.everett import (
    einstein_boxes,
    is_definite_relative,
    run_nonparallel,
    run_parallel_epr,
)
from locality_lab.inequalities import CorrelatorSet, chsh, classical_bound, quantum_max
from locality_lab.qstate import StateVector, measurement_unitary, singlet, tensor, up
from locality_lab.spacetime import Event, Role, boost, validate_protocol

INV_SQRT2 = 1.0 / math.sqrt(2.0)
SQRT8 = 2.0 * math.sqrt(2.0)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_two_qubit_state(rng) -> StateVector:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return StateVector((("s1", 2), ("s2", 2)), amps / np.linalg.norm(amps))


def product_lambda(scenario, marg_a, marg_b):
    table = np.einsum("ax,by->abxy", np.asarray(marg_a), np.asarray(marg_b))
    return validate(Behavior(scenario, table))


def test_c01_parallel_final_state():
    trace = run_parallel_epr()
    final = trace.stages[-1].state
    expected = np.zeros(16)
    expected[0b0011] = INV_SQRT2   # (m_A up, s1 up, s2 down, m_B down)
    expected[0b1100] = -INV_SQRT2  # (m_A down, s1 down, s2 up, m_B up)
    worst = float(np.max(np.abs(final.amps - expected)))
    report(1, "aligned-protocol final amplitudes", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_c02_nonparallel_branches_match_born_rule():
    ok = True
    worst = 0.0
    for theta in (0.3, math.pi / 4, math.pi / 3, math.pi / 2, 2.5):
        branches = run_nonparallel(theta).final_branches
        ok &= len(branches) == 4
        total = sum(b.weight for b in branches)
        ok &= abs(total - 1.0) <= 1e-12
        for branch in branches:
            # The singlet's closed form at angles (0, theta): equal outcomes 1/2 sin^2(theta/2), else 1/2 cos^2(theta/2).
            half = math.sin(theta / 2) if branch.labels["s1"] == branch.labels["s2"] else math.cos(theta / 2)
            worst = max(worst, abs(branch.weight - 0.5 * half**2))
    ok &= worst <= 1e-12
    report(2, "non-aligned branch weights equal Born values", ok, f"worst cell {worst:.2e}")


def test_c03_definiteness_transition():
    trace = run_nonparallel(math.pi / 3)
    nine = trace.stage("measurement-b")
    ten = trace.stage("comparison")
    before = not any(
        is_definite_relative(nine.state, region, {sub: lab}, nine.pointer_bases)
        for region, sub in ((("s2", "m_B"), "m_A"), (("s1", "m_A"), "m_B"))
        for lab in ("up", "down")
    )
    after = all(
        is_definite_relative(ten.state, region, {"C": lab}, ten.pointer_bases)
        for region in (("s2", "m_B"), ("s1", "m_A"))
        for lab in ("uu", "ud", "du", "dd")
    )
    aligned = run_parallel_epr().stages[-1]
    parallel_now = all(
        is_definite_relative(aligned.state, ("s2", "m_B"), {"m_A": lab}, aligned.pointer_bases)
        for lab in ("up", "down")
    )
    report(
        3,
        "definiteness appears only after comparison (and at once when aligned)",
        before and after and parallel_now,
    )


def test_c04_measurement_order_immaterial():
    rng = np.random.default_rng(404)
    psi = tensor(up("m_A"), singlet(), up("m_B"))
    worst = 0.0
    for theta in rng.uniform(-math.pi, math.pi, size=20):
        u_a = measurement_unitary(psi.dims, 0.0, "s1", "m_A")
        u_b = measurement_unitary(psi.dims, float(theta), "s2", "m_B")
        diff = u_b.apply(u_a.apply(psi)).amps - u_a.apply(u_b.apply(psi)).amps
        worst = max(worst, float(np.linalg.norm(diff)))
    report(4, "measurement order immaterial", worst < 1e-12, f"worst norm {worst:.2e}")


def test_c05_classical_bound():
    scenario = Scenario(("a0", "a1"), ("b0", "b1"))
    enum = classical_bound()
    exact = enum.bound == 2.0 and len(enum.strategies) == 16
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        lams = []
        weights = rng.dirichlet(np.ones(3))
        weights[-1] = 1.0 - float(weights[:-1].sum())
        for w in weights:
            pa = rng.uniform(0.0, 1.0, size=2)
            pb = rng.uniform(0.0, 1.0, size=2)
            lams.append(
                (
                    float(w),
                    product_lambda(
                        scenario, np.stack([pa, 1 - pa], axis=1), np.stack([pb, 1 - pb], axis=1)
                    ),
                )
            )
        model = HiddenVariableModel(scenario, lams)
        worst = max(worst, abs(chsh(average(model)).value))
    report(
        5,
        "classical bound: enumeration exact, 1000 factorizable mixtures below 2",
        exact and worst <= 2.0 + 1e-9,
        f"max mixture |S| {worst:.12f}",
    )


def test_c06_quantum_chsh_value():
    b = from_quantum(singlet(), [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4])
    fixed = chsh(b)
    at_angles = abs(fixed.magnitude - SQRT8) <= 1e-9
    start = time.perf_counter()
    found = quantum_max(singlet())
    elapsed = time.perf_counter() - start
    report(
        6,
        "quantum CHSH value at canonical angles and from cold-start search",
        at_angles and found.magnitude >= SQRT8 - 1e-6 and elapsed <= 10.0,
        f"|S|={found.magnitude:.9f} in {elapsed:.2f}s",
    )


def test_c07_singlet_correlator_identity():
    grid = np.linspace(0.0, 2 * math.pi, 20)
    b = from_quantum(singlet(), grid, grid)
    corr = CorrelatorSet.from_behavior(b)
    worst = float(np.max(np.abs(corr.values + np.cos(grid[:, None] - grid[None, :]))))
    report(7, "singlet correlator identity E = -cos(a-b)", worst < 1e-12, f"worst {worst:.2e}")


def test_c08_jarrett_decomposition():
    scenario = Scenario(("a0", "a1"), ("b0", "b1"))
    rng = np.random.default_rng(808)
    ok = True
    for k in range(200):
        lams = []
        weights = rng.dirichlet(np.ones(2))
        weights[-1] = 1.0 - float(weights[:-1].sum())
        for w in weights:
            if k % 3 == 0:  # factorizable
                pa = rng.uniform(0.1, 0.9, size=2)
                pb = rng.uniform(0.1, 0.9, size=2)
                lam = product_lambda(
                    scenario, np.stack([pa, 1 - pa], axis=1), np.stack([pb, 1 - pb], axis=1)
                )
            elif k % 3 == 1:  # generic positive
                t = rng.uniform(0.05, 1.0, size=scenario.shape)
                t /= t.sum(axis=(2, 3), keepdims=True)
                lam = validate(Behavior(scenario, t))
            else:  # parameter-independent but outcome-correlated
                pa = rng.uniform(0.35, 0.65, size=2)
                pb = rng.uniform(0.35, 0.65, size=2)
                t = np.einsum(
                    "ax,by->abxy", np.stack([pa, 1 - pa], axis=1), np.stack([pb, 1 - pb], axis=1)
                )
                t = t + 0.05 * np.array([[1.0, -1.0], [-1.0, 1.0]])
                lam = validate(Behavior(scenario, t))
            lams.append((float(w), lam))
        ok &= jarrett_equivalence(HiddenVariableModel(scenario, lams))
    report(8, "factorizability <=> (PI and OI) on 200 positive models", ok)


def test_c09_reduction_to_determinism():
    scenario = Scenario(("s0", "s1", "xa"), ("s0", "s1", "xb"))
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(50):
        lams = []
        weights = rng.dirichlet(np.ones(3))
        weights[-1] = 1.0 - float(weights[:-1].sum())
        for w in weights:
            resp = rng.integers(0, 2, size=2)
            qa, qb = rng.uniform(0.1, 0.9, size=2)
            marg_a = np.vstack([np.eye(2)[resp], [qa, 1 - qa]])
            marg_b = np.vstack([np.eye(2)[1 - resp], [qb, 1 - qb]])
            lams.append((float(w), product_lambda(scenario, marg_a, marg_b)))
        verdict = suppes_zanotti_reduction(HiddenVariableModel(scenario, lams))
        ok &= verdict.passed is True

    # Counterexample family: a uniform product lambda mixed in to force the
    # anticorrelation hypothesis to fail with deficit >= 1/4.
    small = Scenario(("s0",), ("s0",))
    uniform = validate(Behavior(small, np.full(small.shape, 0.25)))
    det = np.zeros(small.shape)
    det[0, 0, 0, 1] = 1.0
    det_b = validate(Behavior(small, det))
    rejected = True
    for w in (0.5, 0.6, 0.75):
        verdict = suppes_zanotti_reduction(
            HiddenVariableModel(small, [(w, uniform), (1.0 - w, det_b)])
        )
        rejected &= verdict.passed is None and verdict.max_violation >= 0.25 - 1e-12
    report(9, "reduction to determinism and two-lambda rejection", ok and rejected)


def test_c10_einstein_boxes():
    _, induced = einstein_boxes()
    ns = check_no_signalling(induced, tol=1e-12)
    oi_report = check_outcome_independence(HiddenVariableModel(induced.scenario, [(1.0, induced)]))
    ok = ns.passed and (not oi_report.passed) and abs(oi_report.max_violation - 0.5) <= 1e-12
    report(
        10,
        "boxes behaviour: no-signalling yet outcome-dependent by 1/2",
        ok,
        f"OI violation {oi_report.max_violation:.15f}",
    )


def test_c11_sign_model_large_sample():
    angles = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    start = time.perf_counter()
    _, corr = sign_model(angles, angles, 1_000_000, seed=1111)
    elapsed = time.perf_counter() - start
    exact_anti = all(corr[i, i] == -1.0 for i in range(len(angles)))
    worst = max(
        abs(corr[0, j] - (-1.0 + 2.0 * angles[j] / math.pi)) for j in range(1, len(angles))
    )
    report(
        11,
        "sign ensemble at n=1e6: exact anticorrelation, closed-form match",
        exact_anti and worst < 4e-3 and elapsed <= 30.0,
        f"worst |dE| {worst:.2e} in {elapsed:.2f}s",
    )


def test_c12_spacetime_predicates():
    wings = [
        Event(1.0, -2.0, Role.MEASUREMENT_A, "A"),
        Event(1.0, 2.0, Role.MEASUREMENT_B, "B"),
    ]
    accept = validate_protocol(wings + [Event(4.0, 0.0, Role.COMPARISON, "C")]).passed
    reject = not validate_protocol(wings + [Event(2.0, 0.0, Role.COMPARISON, "C")]).passed
    invariant = True
    for comparison_t in (4.0, 2.0):
        events = wings + [Event(comparison_t, 0.0, Role.COMPARISON, "C")]
        base = [c.passed for c in validate_protocol(events).checks]
        for rapidity in (0.5, -0.5, 1.0, -1.0):
            boosted = [c.passed for c in validate_protocol([boost(e, rapidity) for e in events]).checks]
            invariant &= boosted == base
    report(12, "protocol predicates: overlap test and boost invariance", accept and reject and invariant)


def test_c13_quantum_behaviours_never_signal():
    rng = np.random.default_rng(1313)
    worst = 0.0
    ok = True
    for _ in range(50):
        psi = random_two_qubit_state(rng)
        n_a, n_b = rng.integers(1, 5, size=2)
        b = from_quantum(
            psi, rng.uniform(0, 2 * math.pi, size=n_a), rng.uniform(0, 2 * math.pi, size=n_b)
        )
        verdict = check_no_signalling(b, tol=1e-12)
        ok &= verdict.passed
        worst = max(worst, verdict.max_violation)
    report(13, "50 random quantum behaviours pass no-signalling", ok, f"worst {worst:.2e}")


def test_c14_cli_byte_reproducibility(tmp_path, capsys):
    b = from_quantum(singlet(), [0.0], [0.0])
    behavior_path = tmp_path / "behavior.json"
    behavior_path.write_text(json.dumps(behavior_to_dict(b)))
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps(model_to_dict(HiddenVariableModel(b.scenario, [(1.0, b)])))
    )
    timeline_path = tmp_path / "timeline.json"
    timeline_path.write_text(
        json.dumps(
            {
                "timeline": [
                    {"t": 1, "x": -2, "role": "measurement-a"},
                    {"t": 1, "x": 2, "role": "measurement-b"},
                    {"t": 4, "x": 0, "role": "comparison"},
                ]
            }
        )
    )
    invocations = [
        ["check", str(behavior_path)],
        ["check", "--conditions", "outcome-independence", "--format", "json", str(model_path)],
        ["chsh", "--classical"],
        ["chsh", "--grid", "--step", "0.5"],
        ["chsh", "--optimize"],
        ["bell1964", "--a", "0", "--b", "1.0471975511965976", "--c", "2.0943951023931953"],
        ["everett", "--theta", "0"],
        ["everett", "--theta", "1.0472", "--format", "csv"],
        ["boxes"],
        ["signmodel", "--n", "50000", "--seed", "7", "--settings", "0,0.785398,1.570796"],
        ["timeline", str(timeline_path)],
    ]
    ok = True
    for argv in invocations:
        first_code = main(argv)
        first = capsys.readouterr().out.encode()
        second_code = main(argv)
        second = capsys.readouterr().out.encode()
        ok &= first == second and first_code == second_code
    with capsys.disabled():
        report(14, "every subcommand byte-reproducible across two runs", ok)

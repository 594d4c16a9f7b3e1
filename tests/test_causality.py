"""Locality-condition checkers over behaviours and hidden-variable models.

Claims covered:
  - no-signalling passes for Born-rule and product behaviours and pins a
    constructed 0.2 marginal shift with the right witness;
  - parameter independence holds exactly for the sign ensemble, degenerates
    to no-signalling for the empty hidden variable, and flags a
    far-setting-dependent deterministic strategy with violation 1;
  - outcome independence fails by exactly 1/2 for the singlet at parallel
    settings with empty hidden variable, passes for deterministic and
    per-lambda-product conditionals;
  - factorizability fails by exactly 1/4 for the parallel singlet with empty
    hidden variable and holds exactly for products;
  - on strictly positive tables, factorizability <=> (PI and OI), and a
    PI-passing OI-failing model also fails factorizability;
  - determinism of every conditional implies outcome independence at zero
    tolerance; exact per-lambda factorizability implies no-signalling of the
    average;
  - the reduction to determinism validates its hypotheses, exhibits the
    anticorrelation deficit of the uniform-lambda counterexample family, and
    certifies 0/1 marginals when the hypotheses hold;
  - on tie-heavy models (coarse rational entries, exact zeros) every
    vectorised checker report, and the positivity error of the Jarrett
    check, equals an explicit loop in lexicographic cell order, including
    one-lambda models, unequal outcome counts, all-skipped OI cells and a
    4x5-setting scenario where many groups and pairs tie at the maximal
    shift;
  - the one-sided marginals that a checker leaves on a model equal numpy's
    outcome sums bit for bit, signed zeros included, at 1, 2, 7, 8 and 9
    outcomes per side (numpy adds eight or more terms of a contiguous axis
    pairwise);
  - on deterministic, product, Born, NaN-entry and all-skipped
    outcome-independence models, each checker's report (or error) on a fresh
    model equals its report after the other four have filled the model's
    derived marginals, average, far-setting shift and product gap, and the
    Jarrett check gives the same verdict either way;
  - the five checkers and the Jarrett check, run on one fresh model, compute
    the far-setting shift of its marginals once and its product gap once;
  - a NaN entry fails every checker with a NaN max_violation, and outcome
    independence counts the cells conditioned on a NaN marginal as skipped;
  - the parameter-independence, factorizability and outcome-independence
    checks of a fresh 2000-lambda 8x8 model stay within tracemalloc peaks of
    8, 10 and 20 MiB, below the pair tensor's and the stacked conditionals'
    sizes; after four checkers, the model holds its marginals and average,
    one stack's bytes (4 MiB), and its shift and product gap, and the
    checkers keep nothing else;
  - with a zero cutoff of 0.5, wholly skipped (lambda, side) blocks sit next
    to partly skipped ones, and the outcome-independence report still
    equals the loop's;
  - equal reports hash equal, also when the witness (which nests a dict)
    lists its keys in another order, so a set of reports holds each once;
    `hash` skips the witness but `==` does not, so reports that differ only
    in it are unequal.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from locality_lab import causality
from locality_lab.behavior import (
    Behavior,
    HiddenVariableModel,
    Scenario,
    average,
    from_quantum,
    sign_model,
    validate,
)
from locality_lab.causality import (
    Condition,
    PositivityError,
    check_factorizability,
    check_no_signalling,
    check_outcome_independence,
    check_parameter_independence,
    jarrett_equivalence,
    suppes_zanotti_reduction,
)
from locality_lab.qstate import singlet, tensor, up

BINARY = Scenario(("a0", "a1"), ("b0", "b1"))


def product_behavior(scenario, marg_a, marg_b):
    """Per-setting product table from one-sided marginals."""
    table = np.einsum("ax,by->abxy", np.asarray(marg_a), np.asarray(marg_b))
    return validate(Behavior(scenario, table))


def deterministic_behavior(scenario, idx_a, idx_b):
    table = np.zeros(scenario.shape)
    for ia in range(len(scenario.settings_a)):
        for ib in range(len(scenario.settings_b)):
            table[ia, ib, idx_a[ia], idx_b[ib]] = 1.0
    return validate(Behavior(scenario, table))


def empty_lambda(behavior):
    return HiddenVariableModel(behavior.scenario, [(1.0, behavior)])


@pytest.fixture(scope="module")
def singlet_grid():
    return from_quantum(singlet(), [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4])


@pytest.fixture(scope="module")
def singlet_parallel():
    return from_quantum(singlet(), [0.0], [0.0])


class TestNoSignalling:
    def test_singlet_grid_passes(self, singlet_grid):
        report = check_no_signalling(singlet_grid)
        assert report.passed and report.max_violation < 1e-12

    def test_product_behaviour_passes(self):
        b = from_quantum(tensor(up("s1"), up("s2")), [0.0, 0.8], [0.3, 1.9])
        assert check_no_signalling(b).passed

    def test_constructed_shift_detected_with_witness(self):
        # P(A|a) moves by 0.2 when b flips; B side stays uniform.
        table = np.empty(BINARY.shape)
        for ia in range(2):
            table[ia, 0] = np.outer([0.5, 0.5], [0.5, 0.5])
            table[ia, 1] = np.outer([0.7, 0.3], [0.5, 0.5])
        report = check_no_signalling(validate(Behavior(BINARY, table)))
        assert not report.passed
        assert report.max_violation == pytest.approx(0.2, abs=1e-12)
        assert report.witness["side"] == "A"
        assert {report.witness["b"], report.witness["b_prime"]} == {"b0", "b1"}


class TestParameterIndependence:
    def test_sign_model_exact(self):
        model, _ = sign_model([0.0, 1.2], [0.5, 2.0], 3000, seed=1)
        report = check_parameter_independence(model)
        assert report.passed and report.max_violation == 0.0

    def test_empty_lambda_equals_no_signalling(self, singlet_grid):
        report = check_parameter_independence(empty_lambda(singlet_grid))
        ns = check_no_signalling(singlet_grid)
        assert report.passed
        assert report.max_violation == pytest.approx(ns.max_violation, abs=1e-15)

    def test_far_setting_dependent_strategy_flagged(self):
        # A answers up under b0 and down under b1: a 1964-style locality breach.
        table = np.zeros(BINARY.shape)
        table[:, 0, 0, 0] = 1.0
        table[:, 1, 1, 0] = 1.0
        model = empty_lambda(validate(Behavior(BINARY, table)))
        report = check_parameter_independence(model)
        assert not report.passed
        assert report.max_violation == pytest.approx(1.0, abs=1e-12)
        assert report.witness["side"] == "A"


def deterministic_stack_model(n_lambda, n, seed):
    """Wing B answers the complement of wing A's response at the same setting label."""
    rng = np.random.default_rng(seed)
    resp = rng.integers(0, 2, size=(n_lambda, n))
    il, ia, ib = np.meshgrid(np.arange(n_lambda), np.arange(n), np.arange(n), indexing="ij")
    tables = np.zeros((n_lambda, n, n, 2, 2))
    tables[il, ia, ib, resp[il, ia], 1 - resp[il, ib]] = 1.0
    labels = tuple(f"s{i}" for i in range(n))
    return HiddenVariableModel.from_arrays(Scenario(labels, labels), np.full(n_lambda, 1.0 / n_lambda), tables)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    # On 2000 lambdas at 8x8 settings the table stack takes 4 MB, and an
    # (L, n, n, n, k) tensor of far-setting pairs for one side takes 16 MB.
    # Each peak is taken on a fresh model, so it includes deriving the marginals.
    @pytest.fixture
    def model(self):
        return deterministic_stack_model(2000, 8, seed=31)

    def test_parameter_independence_peak(self, model):
        assert traced_peak(lambda: check_parameter_independence(model)) < 8 * 2**20
        report = check_parameter_independence(model)
        assert report.passed and report.max_violation == 0.0

    def test_factorizability_peak(self, model):
        assert traced_peak(lambda: check_factorizability(model)) < 10 * 2**20
        report = check_factorizability(model)
        assert report.passed and report.max_violation == 0.0 and report.notes == ()

    def test_outcome_independence_peak(self, model):
        # Two (L, n, n, 2, 2) arrays of 4 MB, never the doubled stacks of both sides.
        assert traced_peak(lambda: check_outcome_independence(model)) < 20 * 2**20
        report = check_outcome_independence(model)
        assert report.passed and report.max_violation == 0.0 and report.skipped_cells == 2 * 2000 * 64 * 2

    def test_checkers_keep_only_the_derived_marginals_and_average(self, model):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for check in (check_parameter_independence, check_outcome_independence, check_factorizability,
                          suppes_zanotti_reduction):
                assert check(model).passed
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        marg_a, marg_b = model.marginals()
        assert marg_a.nbytes + marg_b.nbytes == model.stacked_tables().nbytes == 4_096_000
        # The kept shift and product gap: two tuples, two floats, a witness dict and a cell of cached small ints.
        (shift, _, witness), (gap, cell) = model._shift, model._gap
        scalars = sum(sys.getsizeof(x) for x in (model._shift, shift, witness, model._gap, gap, cell))
        kept = marg_a.nbytes + marg_b.nbytes + average(model).table.nbytes + scalars
        assert kept <= held < kept + 16 * 2**10


class TestMarginals:
    @pytest.mark.parametrize("k_a, k_b", list(itertools.product((1, 2, 7, 8, 9), repeat=2)))
    def test_equal_numpy_sums_bit_for_bit(self, k_a, k_b):
        # The marginals every checker reads: those parameter independence leaves on the model.
        rng = np.random.default_rng([k_a, k_b])
        tables = rng.dirichlet(np.ones(k_a * k_b), size=(20, 3, 2)).reshape(20, 3, 2, k_a, k_b)
        tables[0, 0, 0] = -0.0
        outcomes = ([f"A{i}" for i in range(k_a)], [f"B{i}" for i in range(k_b)])
        model = HiddenVariableModel.from_arrays(Scenario(("a0", "a1", "a2"), ("b0", "b1"), *outcomes),
                                                np.full(20, 0.05), tables)
        check_parameter_independence(model)
        got_a, got_b = model._marginals
        for got, want in ((got_a, tables.sum(axis=4)), (got_b, tables.sum(axis=3))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


ORDER_LABELS = ("s0", "s1", "s2")
CHECKS = {
    "ns": lambda model: check_no_signalling(average(model)),
    "pi": check_parameter_independence,
    "oi": check_outcome_independence,
    "fact": check_factorizability,
    "sz": suppes_zanotti_reduction,
}


def order_model(kind):
    """A fresh model of a kind, with shared setting labels so the determinism reduction applies."""
    sc = Scenario(ORDER_LABELS, ORDER_LABELS)
    rng = np.random.default_rng(17)
    if kind == "deterministic":
        return deterministic_stack_model(6, 3, seed=17)
    if kind == "born":
        angles = [0.0, 0.9, 2.3]
        born = [from_quantum(state, angles, angles) for state in (singlet(), tensor(up("s1"), up("s2")))]
        return HiddenVariableModel.from_arrays(born[0].scenario, [0.75, 0.25], np.stack([b.table for b in born]))
    pa, pb = rng.uniform(0.1, 0.9, size=(2, 4, 3))
    tables = np.einsum("lax,lby->labxy", np.stack([pa, 1 - pa], axis=2), np.stack([pb, 1 - pb], axis=2))
    if kind == "nan-entry":
        tables[2, 1, 0, 1, 1] = np.nan
    return HiddenVariableModel.from_arrays(sc, [0.25] * 4, tables)


def check_outcome(check, model):
    """A check's result as text (a report's JSON, a verdict or the error it raised), so NaN compares equal."""
    try:
        result = check(model)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(result.to_dict() if hasattr(result, "to_dict") else result, sort_keys=True)


class TestReportsIndependentOfCheckOrder:
    @pytest.mark.parametrize("kind", ["deterministic", "product", "born", "nan-entry", "all-oi-skipped"])
    def test_first_run_equals_last_run(self, kind, monkeypatch):
        if kind == "all-oi-skipped":
            monkeypatch.setattr(causality, "ZERO_CUTOFF", 1.0)
        for name, check in CHECKS.items():
            first = check_outcome(check, order_model(kind))
            warm = order_model(kind)
            for other in CHECKS.values():
                if other is not check:
                    check_outcome(other, warm)
            assert not any(getattr(warm, slot) is None for slot in ("_marginals", "_shift", "_gap"))
            assert check_outcome(check, warm) == first, name
        warm = order_model(kind)
        for check in CHECKS.values():
            check_outcome(check, warm)
        assert check_outcome(jarrett_equivalence, warm) == check_outcome(jarrett_equivalence, order_model(kind))

    def test_models_cover_the_cases(self, monkeypatch):
        assert "BehaviorError" in check_outcome(CHECKS["sz"], order_model("nan-entry"))
        assert json.loads(check_outcome(CHECKS["oi"], order_model("born")))["passed"] is False
        monkeypatch.setattr(causality, "ZERO_CUTOFF", 1.0)
        assert json.loads(check_outcome(CHECKS["oi"], order_model("product")))["witness"] is None


class TestWorkCounts:
    @pytest.mark.parametrize("kind", ["deterministic", "product", "born", "nan-entry"])
    def test_checkers_derive_the_shift_and_the_product_gap_once(self, kind, monkeypatch):
        calls = {"_marginal_shift": [], "_product_gap": []}
        for name, log in calls.items():
            kernel = getattr(causality, name)
            monkeypatch.setattr(causality, name, lambda *args, f=kernel, log=log: log.append(args) or f(*args))
        model = order_model(kind)
        for check in [*CHECKS.values(), jarrett_equivalence]:
            check_outcome(check, model)
        tables, (marg_a, _) = model.stacked_tables(), model.marginals()
        assert sum(args[1] is marg_a for args in calls["_marginal_shift"]) == 1  # no-signalling's runs on the average
        assert [args[0] is tables for args in calls["_product_gap"]] == [True]


class TestNonFiniteTables:
    @pytest.mark.parametrize("cell", [(0, 0, 0, 0, 0), (1, 2, 1, 1, 0), (2, 1, 0, 0, 1)])
    def test_nan_entry_fails_and_propagates(self, cell):
        # Witnesses are unspecified here; the verdict and the value are not.
        sc = Scenario(("s0", "s1", "s2"), ("s0", "s1"))
        tables = np.random.default_rng(3).dirichlet(np.ones(4), size=(3, 3, 2)).reshape(3, *sc.shape)
        tables[cell] = np.nan
        model = HiddenVariableModel.from_arrays(sc, [0.25, 0.25, 0.5], tables)
        for report in (
            check_no_signalling(Behavior(sc, tables[cell[0]])),
            check_parameter_independence(model),
            check_outcome_independence(model),
            check_factorizability(model),
        ):
            assert report.passed is False and math.isnan(report.max_violation)

    def test_nan_conditioning_events_are_skipped(self):
        # A NaN marginal is not above the cutoff: every cell conditioned on it is skipped.
        sc = Scenario(("s0", "s1", "s2"), ("s0", "s1"))
        tables = np.random.default_rng(3).dirichlet(np.ones(4), size=(3, 3, 2)).reshape(3, *sc.shape)
        tables[1, 2, 1, 1, 0] = np.nan
        model = HiddenVariableModel.from_arrays(sc, [0.25, 0.25, 0.5], tables)
        conds = [
            (math.fsum(tables[il, ia, ib, :, iB]), math.fsum(tables[il, ia, ib, iA, :]))
            for il, ia, ib, iA, iB in np.ndindex(*tables.shape)
        ]
        want = sum(not c > 1e-12 for pair in conds for c in pair)
        assert want == 4
        assert check_outcome_independence(model).skipped_cells == want


class TestOutcomeIndependence:
    def test_singlet_parallel_violation_half(self, singlet_parallel):
        report = check_outcome_independence(empty_lambda(singlet_parallel))
        assert not report.passed
        assert report.max_violation == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_conditionals_pass(self):
        model = HiddenVariableModel(
            BINARY,
            [
                (0.5, deterministic_behavior(BINARY, [0, 1], [1, 0])),
                (0.5, deterministic_behavior(BINARY, [1, 0], [0, 1])),
            ],
        )
        report = check_outcome_independence(model, tol=0.0)
        assert report.passed and report.max_violation == 0.0
        assert report.skipped_cells > 0  # zero-probability conditioning skipped, counted

    def test_product_conditionals_pass(self):
        rng = np.random.default_rng(0)
        marg_a = rng.uniform(0.2, 0.8, size=(2, 1))
        marg_b = rng.uniform(0.2, 0.8, size=(2, 1))
        b = product_behavior(
            BINARY,
            np.concatenate([marg_a, 1 - marg_a], axis=1),
            np.concatenate([marg_b, 1 - marg_b], axis=1),
        )
        assert check_outcome_independence(empty_lambda(b)).max_violation < 1e-12


class TestFactorizability:
    def test_sign_model_exact(self):
        model, _ = sign_model([0.0, 2.2], [0.7], 2000, seed=3)
        report = check_factorizability(model)
        assert report.passed and report.max_violation == 0.0

    def test_singlet_parallel_violation_quarter(self, singlet_parallel):
        report = check_factorizability(empty_lambda(singlet_parallel))
        assert not report.passed
        assert report.max_violation == pytest.approx(0.25, abs=1e-12)

    def test_correlated_deterministic_mixture_passes(self):
        model = HiddenVariableModel(
            BINARY,
            [
                (0.5, deterministic_behavior(BINARY, [0, 0], [0, 0])),
                (0.5, deterministic_behavior(BINARY, [1, 1], [1, 1])),
            ],
        )
        assert check_factorizability(model).max_violation == 0.0

    def test_annotates_when_pi_fails(self):
        table = np.zeros(BINARY.shape)
        table[:, 0, 0, 0] = 1.0
        table[:, 1, 1, 0] = 1.0
        report = check_factorizability(empty_lambda(validate(Behavior(BINARY, table))))
        assert report.notes and "parameter independence fails" in report.notes[0]


def positive_product_model(rng, n_lambda=2):
    lams = []
    weights = rng.dirichlet(np.ones(n_lambda))
    weights[-1] = 1.0 - float(weights[:-1].sum())
    for w in weights:
        pa = rng.uniform(0.1, 0.9, size=2)
        pb = rng.uniform(0.1, 0.9, size=2)
        marg_a = np.stack([pa, 1 - pa], axis=1)
        marg_b = np.stack([pb, 1 - pb], axis=1)
        lams.append((float(w), product_behavior(BINARY, marg_a, marg_b)))
    return HiddenVariableModel(BINARY, lams)


def positive_arbitrary_model(rng, n_lambda=2):
    lams = []
    weights = rng.dirichlet(np.ones(n_lambda))
    weights[-1] = 1.0 - float(weights[:-1].sum())
    for w in weights:
        t = rng.uniform(0.05, 1.0, size=BINARY.shape)
        t /= t.sum(axis=(2, 3), keepdims=True)
        lams.append((float(w), validate(Behavior(BINARY, t))))
    return HiddenVariableModel(BINARY, lams)


def pi_passing_oi_failing_model(rng):
    """Product marginals plus correlated noise: PI intact, OI broken."""
    pa = rng.uniform(0.35, 0.65, size=2)
    pb = rng.uniform(0.35, 0.65, size=2)
    eps = 0.05
    table = np.empty(BINARY.shape)
    for ia in range(2):
        for ib in range(2):
            base = np.outer([pa[ia], 1 - pa[ia]], [pb[ib], 1 - pb[ib]])
            table[ia, ib] = base + eps * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return empty_lambda(validate(Behavior(BINARY, table)))


class TestJarrettDecomposition:
    def test_equivalence_on_random_positive_models(self):
        rng = np.random.default_rng(2024)
        for k in range(60):
            if k % 3 == 0:
                model = positive_product_model(rng)
            elif k % 3 == 1:
                model = positive_arbitrary_model(rng)
            else:
                model = pi_passing_oi_failing_model(rng)
            assert jarrett_equivalence(model)

    def test_pi_passing_oi_failing_breaks_factorizability(self):
        model = pi_passing_oi_failing_model(np.random.default_rng(7))
        assert check_parameter_independence(model).passed
        assert not check_outcome_independence(model).passed
        assert not check_factorizability(model).passed

    def test_product_model_passes_all(self):
        model = positive_product_model(np.random.default_rng(8))
        assert check_parameter_independence(model).passed
        assert check_outcome_independence(model).passed
        assert check_factorizability(model).passed

    def test_zero_entry_rejected(self):
        model = empty_lambda(deterministic_behavior(BINARY, [0, 1], [1, 0]))
        with pytest.raises(PositivityError):
            jarrett_equivalence(model)


class TestStructuralImplications:
    @given(hst.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_determinism_implies_outcome_independence_at_zero(self, seed):
        rng = np.random.default_rng(seed)
        lams = []
        weights = rng.dirichlet(np.ones(3))
        weights[-1] = 1.0 - float(weights[:-1].sum())
        for w in weights:
            idx_a = rng.integers(0, 2, size=2)
            idx_b = rng.integers(0, 2, size=2)
            lams.append((float(w), deterministic_behavior(BINARY, idx_a, idx_b)))
        report = check_outcome_independence(HiddenVariableModel(BINARY, lams), tol=0.0)
        assert report.passed

    @given(hst.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_factorizable_model_average_is_no_signalling(self, seed):
        model = positive_product_model(np.random.default_rng(seed), n_lambda=3)
        assert check_factorizability(model, tol=1e-12).passed
        assert check_no_signalling(average(model), tol=1e-12).passed


PARALLEL = Scenario(("s0", "s1", "xa"), ("s0", "s1", "xb"))


def anticorrelated_product_lambda(rng):
    """Deterministic at the shared settings, stochastic product elsewhere."""
    resp = rng.integers(0, 2, size=2)
    qa, qb = rng.uniform(0.1, 0.9, size=2)
    marg_a = np.vstack([np.eye(2)[resp], [qa, 1 - qa]])
    marg_b = np.vstack([np.eye(2)[1 - resp], [qb, 1 - qb]])
    return product_behavior(PARALLEL, marg_a, marg_b)


class TestSuppesZanottiReduction:
    def test_two_strategy_mixture_satisfies_conclusion(self):
        sc = Scenario(("s0",), ("s0",))
        model = HiddenVariableModel(
            sc, [(0.5, deterministic_behavior(sc, [0], [1])), (0.5, deterministic_behavior(sc, [1], [0]))]
        )
        report = suppes_zanotti_reduction(model)
        assert report.condition is Condition.DETERMINISM
        assert report.passed is True
        assert report.max_violation == 0.0

    def test_uniform_lambda_family_rejected_at_hypotheses(self):
        sc = Scenario(("s0",), ("s0",))
        uniform = validate(Behavior(sc, np.full(sc.shape, 0.25)))
        det = deterministic_behavior(sc, [0], [1])
        model = HiddenVariableModel(sc, [(0.5, uniform), (0.5, det)])
        report = suppes_zanotti_reduction(model)
        assert report.passed is None
        assert any("hypotheses-unsatisfied" in note for note in report.notes)
        assert report.max_violation >= 0.25 - 1e-12  # anticorrelation deficit

    def test_nonfactorizable_variant_also_rejected(self):
        sc = Scenario(("s0",), ("s0",))
        anti = validate(Behavior(sc, np.array([[[[0.0, 0.5], [0.5, 0.0]]]])))
        model = HiddenVariableModel(sc, [(1.0, anti)])
        report = suppes_zanotti_reduction(model)
        assert report.passed is None
        assert report.max_violation >= 0.25 - 1e-12  # factorizability deficit

    def test_sign_model_parallel_settings_deterministic(self):
        model, _ = sign_model([0.0, 1.0], [0.0, 1.0], 2000, seed=11)
        report = suppes_zanotti_reduction(model)
        assert report.passed is True
        assert report.max_violation == 0.0

    def test_random_passing_models_conclude_determinism(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            weights = rng.dirichlet(np.ones(3))
            weights[-1] = 1.0 - float(weights[:-1].sum())
            model = HiddenVariableModel(
                PARALLEL, [(float(w), anticorrelated_product_lambda(rng)) for w in weights]
            )
            report = suppes_zanotti_reduction(model)
            assert report.passed is True

    def test_missing_parallel_pair_rejected(self):
        model = empty_lambda(product_behavior(BINARY, np.full((2, 2), 0.5), np.full((2, 2), 0.5)))
        with pytest.raises(ValueError, match="parallel"):
            suppes_zanotti_reduction(model)


class TestEinsteinBoxesProperty:
    def test_boxes_behavior_fails_oi_passes_ns(self):
        from locality_lab.everett import einstein_boxes

        _, induced = einstein_boxes()
        oi_report = check_outcome_independence(empty_lambda(induced))
        assert not oi_report.passed
        assert oi_report.max_violation == pytest.approx(0.5, abs=1e-12)
        ns = check_no_signalling(induced)
        assert ns.passed and ns.max_violation < 1e-12


class TestReportSerialization:
    def test_report_dict_fields(self, singlet_parallel):
        report = check_outcome_independence(empty_lambda(singlet_parallel))
        payload = report.to_dict()
        assert set(payload) >= {"condition", "passed", "max_violation", "witness", "skipped_cells"}
        assert payload["condition"] == "outcome-independence"
        assert payload["passed"] is False

    def test_equal_reports_hash_equal(self, singlet_parallel):
        # The outcome-independence witness nests its conditioning event in a dict.
        model = empty_lambda(singlet_parallel)
        report, again = check_outcome_independence(model), check_outcome_independence(empty_lambda(singlet_parallel))
        assert isinstance(report.witness["conditioned_on"], dict)
        assert report == again and hash(report) == hash(again)
        reordered = dataclasses.replace(again, witness=dict(reversed(list(again.witness.items()))))
        assert reordered == report and hash(reordered) == hash(report)
        assert len({report, again, reordered, check_factorizability(model), check_parameter_independence(model)}) == 3
        moved = dataclasses.replace(report, witness={**report.witness, "conditioned_on": {}})
        assert moved != report and hash(moved) == hash(report) and len({report, moved}) == 2


# -- loop oracles for the vectorised checkers ---------------------------------

SHARED = Scenario(("s0", "s1", "xa"), ("s0", "s1", "xb"))
UNEVEN = Scenario(("a0", "a1"), ("b0", "b1", "b2"), ("u", "d"), ("x", "y", "z"))
# Many (lambda, near setting) groups and far-setting pairs reach the maximal
# shift here, so the witness tie-break is tested beyond the first group.
WIDE = Scenario(("a0", "a1", "a2", "a3"), ("b0", "b1", "b2", "b3", "b4"), ("u", "d", "n"), ("x", "y"))


def tie_heavy_model(rng, sc, n_lambda):
    """Entries are multiples of 1/4 or coarser with many exact zeros; weights are multiples of 1/8.

    Every sum and product the checkers form is then exact, so the loop
    oracles below must agree with them bit for bit, ties included.
    """
    n_a, n_b, k_a, k_b = sc.shape
    tables = np.zeros((n_lambda, *sc.shape))
    for il, ia, ib in np.ndindex(n_lambda, n_a, n_b):
        quanta = int(rng.choice([1, 2, 4]))
        counts = rng.multinomial(quanta, np.full(k_a * k_b, 1.0 / (k_a * k_b)))
        tables[il, ia, ib] = counts.reshape(k_a, k_b) / quanta
    weights = rng.multinomial(8, np.full(n_lambda, 1.0 / n_lambda)) / 8.0
    return HiddenVariableModel.from_arrays(sc, weights, tables)


def _marg_a(t, il, ia, ib, iA):
    return math.fsum(t[il, ia, ib, iA, :])


def _marg_b(t, il, ia, ib, iB):
    return math.fsum(t[il, ia, ib, :, iB])


def loop_shift(sc, t):
    """Worst far-setting marginal shift, lexicographically first witness, side A winning ties."""
    n_l, n_a, n_b, k_a, k_b = t.shape
    best_a, wit_a = -1.0, None
    for il, ia, ib, ibp, iA in itertools.product(range(n_l), range(n_a), range(n_b), range(n_b), range(k_a)):
        v = abs(_marg_a(t, il, ia, ib, iA) - _marg_a(t, il, ia, ibp, iA))
        if v > best_a:
            best_a = v
            wit_a = {"lambda": il, "side": "A", "a": sc.settings_a[ia], "b": sc.settings_b[ib],
                     "b_prime": sc.settings_b[ibp], "outcome": sc.outcomes_a[iA]}
    best_b, wit_b = -1.0, None
    for il, ib, ia, iap, iB in itertools.product(range(n_l), range(n_b), range(n_a), range(n_a), range(k_b)):
        v = abs(_marg_b(t, il, ia, ib, iB) - _marg_b(t, il, iap, ib, iB))
        if v > best_b:
            best_b = v
            wit_b = {"lambda": il, "side": "B", "b": sc.settings_b[ib], "a": sc.settings_a[ia],
                     "a_prime": sc.settings_a[iap], "outcome": sc.outcomes_b[iB]}
    return (best_a, wit_a) if best_a >= best_b else (best_b, wit_b)


def _report(condition, passed, value, tol, witness=None, skipped=0, notes=()):
    return {"condition": condition.value, "passed": passed, "max_violation": value, "witness": witness,
            "skipped_cells": skipped, "tol": tol, "notes": list(notes)}


def loop_ns(behavior, tol):
    value, witness = loop_shift(behavior.scenario, behavior.table[None])
    del witness["lambda"]
    return _report(Condition.NO_SIGNALLING, value <= tol, value, tol, witness)


def loop_pi(model, tol):
    value, witness = loop_shift(model.scenario, model.stacked_tables())
    return _report(Condition.PARAMETER_INDEPENDENCE, value <= tol, value, tol, witness)


def loop_oi(model, tol, zero_cutoff):
    sc, t = model.scenario, model.stacked_tables()
    n_l, n_a, n_b, k_a, k_b = t.shape
    best, witness, skipped = -1.0, None, 0
    for il in range(n_l):
        for near in ("A", "B"):
            for ia, ib, iA, iB in itertools.product(range(n_a), range(n_b), range(k_a), range(k_b)):
                if near == "A":
                    cond, base = _marg_b(t, il, ia, ib, iB), _marg_a(t, il, ia, ib, iA)
                else:
                    cond, base = _marg_a(t, il, ia, ib, iA), _marg_b(t, il, ia, ib, iB)
                if cond <= zero_cutoff:
                    skipped += 1
                    continue
                v = abs(t[il, ia, ib, iA, iB] / cond - base)
                if v > best:
                    best = v
                    far = "B" if near == "A" else "A"
                    outcome = {"A": sc.outcomes_a[iA], "B": sc.outcomes_b[iB]}
                    witness = {"lambda": il, "side": near, "a": sc.settings_a[ia], "b": sc.settings_b[ib],
                               "outcome": outcome[near],
                               "conditioned_on": {"side": far, "outcome": outcome[far]}}
    if best < 0.0:
        best = 0.0
    return _report(Condition.OUTCOME_INDEPENDENCE, best <= tol, best, tol, witness, skipped)


def loop_fact(model, tol):
    sc, t = model.scenario, model.stacked_tables()
    best, witness = -1.0, None
    for il, ia, ib, iA, iB in np.ndindex(*t.shape):
        v = abs(t[il, ia, ib, iA, iB] - _marg_a(t, il, ia, ib, iA) * _marg_b(t, il, ia, ib, iB))
        if v > best:
            best = v
            witness = {"lambda": il, "a": sc.settings_a[ia], "b": sc.settings_b[ib],
                       "A": sc.outcomes_a[iA], "B": sc.outcomes_b[iB]}
    shift = loop_pi(model, tol)["max_violation"]
    notes = () if shift <= tol else (
        f"parameter independence fails (max shift {shift:.6g}); pair-specific marginals used",)
    return _report(Condition.FACTORIZABILITY, best <= tol, best, tol, witness, 0, notes)


def loop_sz(model, tol, det_tol):
    sc, t = model.scenario, model.stacked_tables()
    pairs = [(ia, sc.settings_b.index(s)) for ia, s in enumerate(sc.settings_a) if s in sc.settings_b]
    fact = loop_fact(model, tol)["max_violation"]
    avg = np.zeros(sc.shape)
    for w, table in zip(model.weights(), t):
        avg += w * table
    deficit = max(math.fsum(avg[ia, ib, i, i] for i in range(len(sc.outcomes_a))) for ia, ib in pairs)
    if fact > tol or deficit > tol:
        notes = (
            "hypotheses-unsatisfied: "
            f"factorizability max violation {fact:.6g} (tol {tol:g}), "
            f"anticorrelation deficit {deficit:.6g} (tol {tol:g})",
        )
        slack = max(fact if fact > tol else 0.0, deficit if deficit > tol else 0.0)
        return _report(Condition.DETERMINISM, None, slack, det_tol, None, 0, notes)
    worst, witness = 0.0, None
    for il, (ia, ib), side, io in itertools.product(range(len(t)), pairs, "AB", range(len(sc.outcomes_a))):
        p = _marg_a(t, il, ia, ib, io) if side == "A" else _marg_b(t, il, ia, ib, io)
        dist = min(abs(p), abs(1.0 - p))
        if dist > worst:
            worst = dist
            witness = {"lambda": il, "side": side, "setting": sc.settings_a[ia],
                       "outcome": (sc.outcomes_a if side == "A" else sc.outcomes_b)[io], "marginal": p}
    return _report(Condition.DETERMINISM, worst <= det_tol, worst, det_tol, witness)


def loop_positivity_error(model):
    sc = model.scenario
    for il, t in enumerate(model.stacked_tables()):
        if t.min() <= 0.0:
            ia, ib, iA, iB = np.unravel_index(np.argmin(t), t.shape)
            return (f"lambda {il} has a non-positive entry at "
                    f"(a={sc.settings_a[ia]!r}, b={sc.settings_b[ib]!r}, "
                    f"A={sc.outcomes_a[iA]!r}, B={sc.outcomes_b[iB]!r})")
    return None


class TestVectorisedCheckersAgainstLoops:
    @pytest.mark.parametrize(
        "sc, n_lambda, zero_cutoff",
        [(SHARED, 3, 1e-12), (SHARED, 1, 1e-12), (UNEVEN, 4, 1e-12), (UNEVEN, 1, 1e-12), (SHARED, 2, 1.0),
         (WIDE, 6, 1e-12), (UNEVEN, 4, 0.5), (WIDE, 6, 0.5)],
        ids=["shared-L3", "shared-L1", "uneven-outcomes-L4", "uneven-outcomes-L1", "all-oi-cells-skipped",
             "wide-ties-L6", "uneven-partial-skip-L4", "wide-partial-skip-L6"],
    )
    def test_reports_equal_loop_oracles(self, sc, n_lambda, zero_cutoff, monkeypatch):
        rng = np.random.default_rng([n_lambda, len(sc.outcomes_b), int(zero_cutoff)])
        tol = 0.0
        monkeypatch.setattr(causality, "ZERO_CUTOFF", zero_cutoff)
        monkeypatch.setattr(causality, "DEFAULT_DET_TOL", 0.3)
        for _ in range(25):
            model = tie_heavy_model(rng, sc, n_lambda)
            avg = average(model)
            assert check_no_signalling(avg, tol).to_dict() == loop_ns(avg, tol)
            assert check_parameter_independence(model, tol).to_dict() == loop_pi(model, tol)
            oi = check_outcome_independence(model, tol)
            assert oi.to_dict() == loop_oi(model, tol, zero_cutoff)
            if zero_cutoff >= 1.0:
                assert oi.witness is None and oi.max_violation == 0.0
                assert oi.skipped_cells == 2 * model.stacked_tables().size
            assert check_factorizability(model, tol).to_dict() == loop_fact(model, tol)
            if len(sc.outcomes_a) == len(sc.outcomes_b):
                # tol 1 always meets the hypotheses, so the determinism scan runs
                for sz_tol in (1e-9, 1.0):
                    got = suppes_zanotti_reduction(model, sz_tol).to_dict()
                    assert got == loop_sz(model, sz_tol, 0.3)
            want = loop_positivity_error(model)
            if want is None:
                jarrett_equivalence(model)
            else:
                with pytest.raises(PositivityError) as excinfo:
                    jarrett_equivalence(model)
                assert str(excinfo.value) == want

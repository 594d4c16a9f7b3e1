"""CHSH and original-form Bell functionals against their oracles.

Claims covered:
  - the all-up deterministic strategy reaches S = 2 and the singlet at the
    canonical quadruple reaches S = -2 sqrt(2) (Born oracle);
  - S is linear in the behaviour, every mixture of deterministic strategies
    stays within the enumerated bound of 2;
  - the exhaustive enumeration lists exactly 16 strategies with max |S| = 2;
  - the pruned scan kernel returns the first maximum in C order of a
    brute-force scan of every (a, a', b, b') quadruple, tie-break included:
    on the correlator grids of states at four grid steps (the 48-angle scan
    grid among them) and on seeded grids of 1 to 16 angles with tie-heavy,
    uniform and all-zero entries; see-saw refinement recovers 2 sqrt(2) on
    the singlet (in one round from a 12-angle grid), stays below 2 on product
    states, raises |S| above the scan's value with its sign kept wherever the
    closed form lies beyond the grid, and on random states equals the x-z
    plane Horodecki closed form to 1e-12; the scan peaks below 8 MiB of
    temporaries, also on states where every angle pair ties;
  - the original-form slack is -1/2 at the canonical violating triple, zero
    on the a = b boundary, and nonnegative for the sign ensemble up to
    sampling error;
  - singlet correlators obey E(a, b) = -cos(a - b) on a grid;
  - the correlator CSV equals, byte for byte, a per-cell ``format(E, ".17g")``
    emitter, also for labels holding ``%`` or braces and for -0.0, NaN and
    subnormal values; it formats each distinct bit pattern once, so the
    oracle also runs on grids drawn from a small pool with many repeats
    (-0.0 beside 0.0, NaNs of both signs, subnormals), on an all-distinct
    random grid, and on the singlet at the `chsh --grid` steps the benchmark
    uses.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from locality_lab import inequalities
from locality_lab.behavior import Behavior, HiddenVariableModel, Scenario, average, sign_model, validate
from locality_lab.inequalities import (
    SCAN_GRID,
    Bell1964Result,
    CorrelatorSet,
    ScenarioShapeError,
    bell_1964,
    chsh,
    classical_bound,
    correlators_to_csv,
    quantum_max,
)
from locality_lab.inequalities import _scan as scan_kernel
from locality_lab.qstate import StateVector, correlator_matrix, singlet, tensor, up

SQRT8 = 2.0 * math.sqrt(2.0)
CANONICAL = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
BINARY = Scenario(("a0", "a1"), ("b0", "b1"))
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def xz_correlation_block(amps):
    """T_ij = <psi| sigma_i (x) sigma_j |psi> for i, j in (x, z)."""
    ops = (PAULI_X, PAULI_Z)
    return np.array([[np.vdot(amps, np.kron(si, sj) @ amps).real for sj in ops] for si in ops])


def plane_closed_form(t):
    """Horodecki maximum 2 sqrt(t1^2 + t2^2) over the singular values of ``t``."""
    t1, t2 = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(t1**2 + t2**2)


def brute_force_quadruple(e):
    """First maximum of |S| in C order over every (a, a', b, b') of the full m**4 array."""
    s = e[:, None, :, None] - e[:, None, None, :] + e[None, :, :, None]
    s += e[None, :, None, :]
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(np.abs(s))), s.shape))


def scan_value(e, quadruple):
    ia, iap, ib, ibp = quadruple
    return float(e[ia, ib] - e[ia, ibp] + e[iap, ib] + e[iap, ibp])


TWO_QUBITS = (("s1", 2), ("s2", 2))
PLUS_I = StateVector(TWO_QUBITS, np.kron([1, 1j], [1, 1j]) / 2)  # x-z correlations vanish: every angle pair ties
ZERO_ZERO = StateVector(TWO_QUBITS, [1, 0, 0, 0])


def random_states(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        yield StateVector(TWO_QUBITS, amps / np.linalg.norm(amps))


def behavior_from_tables(tables):
    arr = np.asarray(tables, dtype=float)
    return validate(Behavior(BINARY, arr))


def all_up_behavior():
    t = np.zeros(BINARY.shape)
    t[:, :, 0, 0] = 1.0
    return validate(Behavior(BINARY, t))


class TestChsh:
    def test_all_up_strategy_scores_two(self):
        result = chsh(all_up_behavior(), 0, 1, 0, 1)
        assert result.value == pytest.approx(2.0, abs=1e-15)
        assert result.terms == (1.0, 1.0, 1.0, 1.0)

    def test_singlet_at_canonical_quadruple(self):
        corr = CorrelatorSet.from_state(singlet(), CANONICAL[:2], CANONICAL[2:])
        result = chsh(corr, 0, 1, 0, 1)
        assert result.value == pytest.approx(-SQRT8, abs=1e-9)
        assert result.magnitude == pytest.approx(SQRT8, abs=1e-9)

    def test_random_behaviour_bounded_by_four(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = rng.random(BINARY.shape)
            t /= t.sum(axis=(2, 3), keepdims=True)
            result = chsh(validate(Behavior(BINARY, t)), 0, 1, 0, 1)
            assert abs(result.value) <= 4.0 + 1e-12

    def test_linear_in_the_behaviour(self):
        rng = np.random.default_rng(2)
        tables = []
        for _ in range(2):
            t = rng.random(BINARY.shape)
            t /= t.sum(axis=(2, 3), keepdims=True)
            tables.append(t)
        w = 0.34
        mixed = validate(Behavior(BINARY, w * tables[0] + (1 - w) * tables[1]))
        lhs = chsh(mixed, 0, 1, 0, 1).value
        parts = [chsh(validate(Behavior(BINARY, t)), 0, 1, 0, 1).value for t in tables]
        assert lhs == pytest.approx(w * parts[0] + (1 - w) * parts[1], abs=1e-12)

    def test_non_binary_outcomes_rejected(self):
        sc = Scenario(("a0",), ("b0",), outcomes_a=("x", "y", "z"))
        t = np.full(sc.shape, 1.0 / 6.0)
        with pytest.raises(ScenarioShapeError):
            chsh(validate(Behavior(sc, t)), 0, 0, 0, 0)


class TestClassicalBound:
    def test_sixteen_strategies_bound_two(self):
        enum = classical_bound()
        assert len(enum.strategies) == 16
        assert enum.bound == 2.0
        assert all(abs(r.s) <= 2.0 for r in enum.strategies)
        assert any(abs(r.s) == enum.bound for r in enum.strategies)  # the bound is attained

    def test_random_mixtures_stay_below_two(self):
        rng = np.random.default_rng(3)
        strategies = []
        for ra in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            for rb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                t = np.zeros(BINARY.shape)
                for ia in range(2):
                    for ib in range(2):
                        t[ia, ib, 0 if ra[ia] > 0 else 1, 0 if rb[ib] > 0 else 1] = 1.0
                strategies.append(validate(Behavior(BINARY, t)))
        for _ in range(100):
            weights = rng.dirichlet(np.ones(16))
            weights[-1] = 1.0 - float(weights[:-1].sum())
            model = HiddenVariableModel(BINARY, list(zip(map(float, weights), strategies)))
            assert abs(chsh(average(model), 0, 1, 0, 1).value) <= 2.0 + 1e-12


class TestQuantumMax:
    def test_singlet_recovers_tsirelson_value(self):
        result = quantum_max(singlet())
        assert result.magnitude == pytest.approx(SQRT8, abs=1e-12)

    def test_product_state_stays_classical(self):
        result = quantum_max(tensor(up("s1"), up("s2")))
        assert result.magnitude <= 2.0 + 1e-9

    @pytest.mark.parametrize("step", [math.pi / 6, math.pi / 8, math.pi / 12, math.pi / 24])
    def test_scan_matches_brute_force_first_maximum(self, step):
        grid = np.arange(math.ceil(2.0 * math.pi / step)) * step
        for state in [singlet(), ZERO_ZERO, PLUS_I, *random_states(5, 20)]:
            e = correlator_matrix(state, grid, grid)
            assert scan_kernel(e) == brute_force_quadruple(e)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12, 16])
    def test_scan_kernel_on_seeded_grids(self, m):
        # Entries from {-1, -1/2, 0, 1/2, 1} tie often; the all-zero grid ties everywhere.
        rng = np.random.default_rng(m)
        grids = [np.zeros((m, m))]
        for _ in range(60):
            grids.append(rng.integers(-2, 3, size=(m, m)) / 2.0)
            grids.append(rng.uniform(-1.0, 1.0, size=(m, m)))
        for e in grids:
            assert scan_kernel(e) == brute_force_quadruple(e)

    def test_refinement_only_improves_on_the_scan(self):
        # On states whose x-z closed form lies beyond the 48-angle scan, the
        # see-saw rounds raise |S| above the scan's value and keep its sign.
        improved = 0
        for state in random_states(6, 40):
            e = correlator_matrix(state, SCAN_GRID, SCAN_GRID)
            scanned = scan_value(e, scan_kernel(e))
            if plane_closed_form(xz_correlation_block(state.amps)) - abs(scanned) > 1e-9:
                result = quantum_max(state)
                assert result.magnitude > abs(scanned)
                assert result.value * scanned > 0.0
                improved += 1
        assert improved >= 30

    def test_one_round_reaches_tsirelson_value_from_a_coarse_grid(self, monkeypatch):
        # The 12-angle grid misses every odd multiple of pi/4, so its best |S| on the singlet is below 2 sqrt(2).
        coarse = np.arange(12) * (math.pi / 6)
        e = correlator_matrix(singlet(), coarse, coarse)
        assert abs(scan_value(e, scan_kernel(e))) < SQRT8 - 1e-3
        monkeypatch.setattr(inequalities, "SCAN_GRID", coarse)
        monkeypatch.setattr(inequalities, "SEESAW_ROUNDS", 1)
        result = quantum_max(singlet())
        assert result.magnitude == pytest.approx(SQRT8, abs=1e-12)

    def test_deterministic(self):
        r1 = quantum_max(singlet())
        r2 = quantum_max(singlet())
        assert r1 == r2

    def test_random_states_respect_quantum_ceiling(self):
        # Oracle: the Horodecki maximum of the x-z block, which see-saw rounds
        # from the best grid quadruple reach to rounding.
        for state in random_states(4, 50):
            result = quantum_max(state)
            assert result.magnitude == pytest.approx(plane_closed_form(xz_correlation_block(state.amps)), abs=1e-12)

    def test_default_scan_peak_memory_is_cubic(self):
        # The m**4 scan over the default 48-angle grid would hold 81 MiB of temporaries
        # at once. On PLUS_I every (a, a') pair is a candidate of the pruned scan.
        for state in (singlet(), ZERO_ZERO, PLUS_I):
            quantum_max(state)
            tracemalloc.start()
            try:
                quantum_max(state)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20


class TestBell1964:
    def triple_correlators(self, a, b, c):
        return CorrelatorSet.from_state(singlet(), [a, b, c], [a, b, c])

    def test_canonical_violating_triple(self):
        # Frozen from the Born oracle: slack = 1 - 1/2 - 1 = -1/2.
        corr = self.triple_correlators(0.0, math.pi / 3, 2 * math.pi / 3)
        result = bell_1964(corr, 0, 1, 2)
        assert result.slack == pytest.approx(-0.5, abs=1e-9)
        assert not result.satisfied
        assert result.anticorrelation_ok

    def test_equal_first_settings_boundary(self):
        corr = self.triple_correlators(0.3, 0.3 + 1e-17, 1.2)
        result = bell_1964(corr, 0, 1, 2)
        assert result.slack == pytest.approx(0.0, abs=1e-9)

    def test_sign_model_respects_bound_up_to_sampling(self):
        n = 100_000
        angles = [0.0, 0.8, 2.1]
        _, corr_values = sign_model(angles, angles, n, seed=21)
        labels = tuple(format(t, ".12g") for t in angles)
        corr = CorrelatorSet(labels, labels, corr_values)
        result = bell_1964(corr, 0, 1, 2)
        assert result.anticorrelation_ok
        assert result.slack >= -3.0 * (4.0 / math.sqrt(n))

    def test_broken_anticorrelation_flagged_but_computed(self):
        sym = StateVector((("s1", 2), ("s2", 2)), np.array([1, 0, 0, 1]) / math.sqrt(2))
        corr = CorrelatorSet.from_state(sym, [0.0, 0.7, 1.9], [0.0, 0.7, 1.9])
        result = bell_1964(corr, 0, 1, 2)
        assert not result.anticorrelation_ok
        assert result.max_equal_setting_deviation == pytest.approx(2.0, abs=1e-12)
        assert isinstance(result, Bell1964Result)
        assert math.isfinite(result.slack)


class TestSignModelBound:
    def test_averaged_sign_ensemble_respects_chsh(self):
        angles = [0.0, math.pi / 2]
        settings_b = [math.pi / 4, 3 * math.pi / 4]
        model, _ = sign_model(angles, settings_b, 50_000, seed=6)
        result = chsh(average(model), 0, 1, 0, 1)
        assert abs(result.value) <= 2.0 + 1e-9


class TestSingletCorrelatorIdentity:
    def test_twenty_by_twenty_grid(self):
        grid = np.linspace(0.0, 2 * math.pi, 20)
        corr = CorrelatorSet.from_state(singlet(), grid, grid)
        expected = -np.cos(grid[:, None] - grid[None, :])
        assert np.max(np.abs(corr.values - expected)) < 1e-12


class TestCsvEmission:
    def test_correlator_grid_columns(self):
        corr = CorrelatorSet.from_state(singlet(), [0.0, 1.0], [0.5])
        text = correlators_to_csv(corr)
        lines = text.strip().split("\n")
        assert lines[0] == "a,b,E"
        assert len(lines) == 3

    @staticmethod
    def per_cell_csv(corr):
        """Second code path: one ``format(E, ".17g")`` per cell, lines joined at the end."""
        lines = ["a,b,E"]
        for ia, a in enumerate(corr.settings_a):
            for ib, b in enumerate(corr.settings_b):
                lines.append(f"{a},{b},{format(float(corr.values[ia, ib]), '.17g')}")
        return "\n".join(lines) + "\n"

    def test_bytes_equal_per_cell_formatting(self):
        # Labels a %-template would misread, and values whose text is easy to get wrong.
        labels = ("%", "%s", "%%d", "{}")
        values = [
            [-0.0, 1.0, -1.0, 5e-324],
            [float("nan"), 0.1, -1 / 3, 2.0**-1074 * 3],
            [1e-300, -0.0, float("nan"), 0.5],
            [0.0, -1.0, 1.0, -5e-324],
        ]
        corr = CorrelatorSet(labels, labels[::-1], values)
        text = correlators_to_csv(corr)
        assert text == self.per_cell_csv(corr)
        lines = text.splitlines()
        assert lines[1:5] == ["%,{},-0", "%,%%d,1", "%,%s,-1", "%,%,4.9406564584124654e-324"]
        assert lines[5] == "%s,{},nan" and lines[-1] == "{},%,-4.9406564584124654e-324"

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (64, 64)])
    def test_singlet_grids_equal_per_cell_formatting(self, shape):
        angles_a = [k * 0.1 - 3.0 for k in range(shape[0])]
        angles_b = [k * 0.37 + 20.0 for k in range(shape[1])]
        corr = CorrelatorSet.from_state(singlet(), angles_a, angles_b)
        assert correlators_to_csv(corr) == self.per_cell_csv(corr)

    # A few values, each bit pattern distinct: repeats are the rule, and a
    # value-keyed merge of -0.0 and 0.0 or of the two NaNs would show.
    POOL = (0.0, -0.0, 1.0, -1.0, 0.5, -1 / 3, 5e-324, -5e-324, 2.0**-1022 * 0.75, float("nan"), -float("nan"),
            np.uint64(0x7FF8000000000001).view(np.float64).item())
    LABELS = hst.text(alphabet="%sd{}ab0,", min_size=1, max_size=4)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=hst.data())
    def test_pooled_grids_equal_per_cell_formatting(self, data):
        labels_a = data.draw(hst.lists(self.LABELS, min_size=1, max_size=6, unique=True))
        labels_b = data.draw(hst.lists(self.LABELS, min_size=1, max_size=6, unique=True))
        cells = hst.lists(hst.sampled_from(self.POOL), min_size=len(labels_b), max_size=len(labels_b))
        values = data.draw(hst.lists(cells, min_size=len(labels_a), max_size=len(labels_a)))
        corr = CorrelatorSet(tuple(labels_a), tuple(labels_b), values)
        assert correlators_to_csv(corr) == self.per_cell_csv(corr)

    def test_all_distinct_random_grid_equals_per_cell_formatting(self):
        values = np.random.default_rng(26).uniform(-1.0, 1.0, (37, 41))
        corr = CorrelatorSet(tuple(f"a{k}%" for k in range(37)), tuple(f"b{k}" for k in range(41)), values)
        assert len(np.unique(corr.values)) == corr.values.size
        assert correlators_to_csv(corr) == self.per_cell_csv(corr)

    @pytest.mark.parametrize("step", [0.04, 0.05, 0.065])
    def test_singlet_grid_at_bench_steps_equals_per_cell_formatting(self, step):
        # the angles `chsh --grid --step` builds
        angles = [k * step for k in range(math.ceil(2.0 * math.pi / step) + 1)]
        corr = CorrelatorSet.from_state(singlet(), angles, angles)
        assert correlators_to_csv(corr) == self.per_cell_csv(corr)

"""Behaviour tables, hidden-variable ensembles, and their generators.

Claims covered:
  - validate accepts well-formed tables and names the first offending cell;
  - from_quantum reproduces the parallel-setting anticorrelation halves, the
    matched-setting perfect correlation of the symmetric entangled state, and
    product-state factorisation;
  - average is the convex combination, bitwise equal to a naive per-cell
    loop in lambda order (up to 300 lambdas at 2x2 and 3x3 settings, tables
    holding exact 0.0 and -0.0), always valid, and kept by the model, so a
    second call returns the same object;
  - the sign-strategy ensemble anticorrelates equal settings exactly, tracks
    the closed-form correlator (validated against an independent spherical
    quadrature), each sampled strategy is a deterministic product, and a
    three-chunk sample equals a recomputation from three spawned child seeds;
  - two-chunk samples at 20+20 and 9+31 settings (the 40-bit key limit) list
    their strategies in ascending key order, and their weights, tables and
    correlators equal a per-sample recomputation from the child seeds;
  - at 3+2 and 20+20 settings and n in {1, 4095, 4096, 4097, 2**17 - 1,
    2**17, 2**17 + 1} (the edges of the 4096-row draw block and the
    2**17-draw chunk), keys, weights and correlators equal the same
    recomputation, which draws each chunk whole and projects each wing on its
    own; one 2**17 chunk at 20+20 settings peaks below 8 MiB of traced
    allocation;
  - against the exact planar ensemble (sectors cut by the answer boundaries
    theta +/- pi/2, each with probability length / 2 pi), every sampled
    strategy lies in the support and every support weight is within |z| <= 5
    on 60 seeded calls; settings 0, 0.785398, 1.570796 give four sectors at
    1/8 and two at 1/4;
  - validate names the same first bad cell, with the same message, as a
    per-cell loop over a table (non-finite, then out of [0, 1], then
    normalisation), and a model file reports its first bad lambda;
  - a model stores one read-only table stack and weight vector, and rejects
    non-finite weights;
  - the one-sided marginals, by `marginals` and by the model's method, equal
    numpy's outcome sums bit for bit, signed zeros included, at 1, 2, 7, 8
    and 9 outcomes per side (numpy adds eight or more terms of a contiguous
    axis pairwise);
  - a model derives nothing when built (pairs, `from_arrays`, `from_dict`,
    `sign_model`); its marginals are derived on first use, read-only, and
    the same arrays on later calls; an average that fails validation is not
    kept; and two models built from the same arrays share no derived array;
  - JSON round-trips preserve behaviours and models, malformed objects
    (numbers too large for a float among them, and scenario label fields
    or a context of the wrong JSON type, named in the error) are rejected
    with diagnostics, and parsing a model holds at most two copies of its stack.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from locality_lab.behavior import (
    Behavior,
    BehaviorError,
    HiddenVariableModel,
    ModelError,
    NegativeEntryError,
    Scenario,
    TableNormalizationError,
    angle_label,
    average,
    behavior_to_dict,
    from_dict,
    from_quantum,
    marginals,
    model_to_dict,
    sign_model,
    validate,
)
from locality_lab.qstate import StateVector, singlet, tensor, up

BINARY = Scenario(("a0", "a1"), ("b0", "b1"))


def closed_form_sign_correlator(a: float, b: float) -> float:
    gamma = abs(a - b) % (2 * math.pi)
    gamma = min(gamma, 2 * math.pi - gamma)
    return -1.0 + 2.0 * gamma / math.pi


def quadrature_sign_correlator(a: float, b: float, n: int = 400) -> float:
    """Independent midpoint quadrature of the sign product over the sphere."""
    u = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)  # uniform in cos(polar)
    phi = (np.arange(n) + 0.5) * (2 * math.pi / n)
    sin_pol = np.sqrt(1.0 - u**2)
    x = sin_pol[:, None] * np.cos(phi)[None, :]
    z = np.broadcast_to(u[:, None], (n, n))
    # measurement directions lie in the x-z plane, so the y component drops out
    da = np.where(math.sin(a) * x + math.cos(a) * z >= 0, 1, -1)
    db = -np.where(math.sin(b) * x + math.cos(b) * z >= 0, 1, -1)
    return float(np.mean(da * db))


def exact_sign_ensemble(angles_a, angles_b):
    """Exact strategy distribution of the planar sign model, as {key: probability}.

    Only the azimuth phi = atan2(x, z) of a draw matters, and it is uniform;
    the projection on the setting at angle theta is proportional to
    cos(phi - theta). The answer boundaries theta +/- pi/2 cut the circle
    into sectors, each one strategy, with probability its length / 2 pi.
    Bit j of the key is set when the j-th answer (wing A first) is +1, and
    wing B answers -sign, as in `sign_model`.
    """
    thetas = np.array([*angles_a, *angles_b], dtype=np.float64)
    cuts = np.unique(np.mod(np.concatenate([thetas + math.pi / 2, thetas - math.pi / 2]), 2 * math.pi))
    edges = np.append(cuts, cuts[0] + 2 * math.pi)
    ensemble = {}
    for lo, hi in zip(edges[:-1], edges[1:]):
        proj = np.cos((lo + hi) / 2 - thetas)
        bits = np.concatenate([proj[: len(angles_a)] >= 0.0, proj[len(angles_a):] < 0.0])
        key = sum(1 << j for j in np.flatnonzero(bits).tolist())
        ensemble[key] = ensemble.get(key, 0.0) + (hi - lo) / (2 * math.pi)
    return ensemble


def sampled_keys(model):
    """Strategy key of each lambda, read back from its deterministic table."""
    tables = model.stacked_tables()  # (L, n_a, n_b, 2, 2); outcome index 0 is +1
    plus = np.concatenate([tables[:, :, 0, 0, :].sum(axis=-1), tables[:, 0, :, :, 0].sum(axis=-1)], axis=1) == 1.0
    return (plus.astype(np.int64) @ (np.int64(1) << np.arange(plus.shape[1], dtype=np.int64))).tolist()


def spawned_children_oracle(angles_a, angles_b, n, seed):
    """Correlators, ascending strategy keys and their counts of `sign_model`, recomputed per sample.

    Each 2**17-draw chunk is drawn whole from its child of SeedSequence(seed)
    and each wing is projected on its own; bit j of a key is set when the
    j-th answer (wing A first) is +1.
    """
    ka, kb, chunk = len(angles_a), len(angles_b), 1 << 17
    dirs_a = np.stack([np.sin(angles_a), np.zeros(ka), np.cos(angles_a)], axis=1)
    dirs_b = np.stack([np.sin(angles_b), np.zeros(kb), np.cos(angles_b)], axis=1)
    sizes = [chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0)
    prod = np.zeros((ka, kb), dtype=np.int64)
    keys = []
    for child, m in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes):
        draws = np.random.default_rng(child).standard_normal((m, 3))
        resp_a = np.where(draws @ dirs_a.T >= 0.0, 1, -1).astype(np.int64)
        resp_b = -np.where(draws @ dirs_b.T >= 0.0, 1, -1).astype(np.int64)
        prod += resp_a.T @ resp_b
        bits = np.concatenate([resp_a, resp_b], axis=1) > 0
        keys.append(bits.astype(np.int64) @ (np.int64(1) << np.arange(ka + kb, dtype=np.int64)))
    want_keys, want_counts = np.unique(np.concatenate(keys), return_counts=True)
    return prod / float(n), want_keys, want_counts


def loop_validate(sc, t, tol=1e-12):
    """Per-cell reference for validate: (error type, message) of the first bad cell, or None."""
    if not np.all(np.isfinite(t)):
        return (BehaviorError, "table contains non-finite entries")
    for (ia, ib, iA, iB), value in np.ndenumerate(t):
        if value < -tol or value > 1.0 + tol:
            return (
                NegativeEntryError,
                "entry out of [0, 1] at cell "
                f"(a={sc.settings_a[ia]!r}, b={sc.settings_b[ib]!r}, "
                f"A={sc.outcomes_a[iA]!r}, B={sc.outcomes_b[iB]!r}): {float(value)!r}",
            )
    for (ia, ib), total in np.ndenumerate(t.sum(axis=(2, 3))):
        if abs(total - 1.0) > tol:
            return (
                TableNormalizationError,
                f"P(.,.|a,b) sums to {float(total)!r} at "
                f"(a={sc.settings_a[ia]!r}, b={sc.settings_b[ib]!r}); deficit {float(total - 1.0)!r}",
            )
    return None


class TestValidate:
    def test_uniform_table_valid(self):
        table = np.full(BINARY.shape, 0.25)
        assert validate(Behavior(BINARY, table)) is not None

    def test_negative_entry_names_cell(self):
        table = np.full(BINARY.shape, 0.25)
        table[1, 0, 0, 1] = -0.01
        table[1, 0, 0, 0] = 0.51
        with pytest.raises(NegativeEntryError, match=r"a='a1'.*b='b0'"):
            validate(Behavior(BINARY, table))

    def test_normalization_deficit_reported(self):
        table = np.full(BINARY.shape, 0.25)
        table[0, 1] *= 0.9
        with pytest.raises(TableNormalizationError, match=r"a='a0'.*b='b1'"):
            validate(Behavior(BINARY, table))

    def test_first_bad_cell_matches_loop_oracle(self):
        rng = np.random.default_rng(31)
        sc = Scenario(("a0", "a1", "a2"), ("b0", "b1"), ("u", "d"), ("x", "y", "z"))
        for _ in range(300):
            table = rng.integers(0, 3, size=sc.shape) / 4.0
            table[tuple(rng.integers(0, n) for n in sc.shape)] = rng.choice([-0.25, 1.5, np.nan, 0.0])
            try:
                validate(Behavior(sc, table))
            except BehaviorError as exc:
                got = (type(exc), str(exc))
            else:
                got = None
            assert got == loop_validate(sc, table)

    def test_quantum_behaviour_revalidates(self):
        b = from_quantum(singlet(), [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4])
        assert validate(b) is b


class TestFromQuantum:
    def test_singlet_parallel_halves(self):
        b = from_quantum(singlet(), [0.0], [0.0])
        assert b.table[0, 0, 0, 0] == pytest.approx(0.0, abs=1e-12)
        assert b.table[0, 0, 1, 1] == pytest.approx(0.0, abs=1e-12)
        assert b.table[0, 0, 0, 1] == pytest.approx(0.5, abs=1e-12)
        assert b.table[0, 0, 1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matched_components_perfectly_correlated(self):
        # The symmetric entangled state correlates equal angles perfectly
        # (the correlated component is not the anti-parallel one).
        amps = np.zeros(4)
        amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
        sym = StateVector((("s1", 2), ("s2", 2)), amps)
        for theta in (0.0, 0.4, 1.3):
            b = from_quantum(sym, [theta], [theta])
            agree = b.table[0, 0, 0, 0] + b.table[0, 0, 1, 1]
            assert agree == pytest.approx(1.0, abs=1e-12)

    def test_product_state_factorizes(self):
        b = from_quantum(tensor(up("s1"), up("s2")), [0.0, 1.1], [0.3, 2.0])
        marg_a, marg_b = b.table.sum(axis=3), b.table.sum(axis=2)  # P(A|a,b), P(B|a,b)
        prod = marg_a[:, :, :, None] * marg_b[:, :, None, :]
        assert np.max(np.abs(b.table - prod)) < 1e-12

    def test_rejects_states_with_apparatus_factors(self):
        psi = tensor(up("m"), singlet())
        with pytest.raises(Exception):
            from_quantum(psi, [0.0], [0.0])


def _deterministic(scenario, idx_a, idx_b):
    table = np.zeros(scenario.shape)
    for ia in range(len(scenario.settings_a)):
        for ib in range(len(scenario.settings_b)):
            table[ia, ib, idx_a[ia], idx_b[ib]] = 1.0
    return Behavior(scenario, table)


class TestAverage:
    def test_single_lambda_identity(self):
        b = validate(Behavior(BINARY, np.full(BINARY.shape, 0.25)))
        model = HiddenVariableModel(BINARY, [(1.0, b)])
        assert np.array_equal(average(model).table, b.table)

    def test_two_point_mixture_gives_anticorrelation(self):
        sc = Scenario(("a",), ("b",))
        model = HiddenVariableModel(
            sc, [(0.5, _deterministic(sc, [0], [1])), (0.5, _deterministic(sc, [1], [0]))]
        )
        avg = average(model)
        assert avg.table[0, 0].tolist() == [[0.0, 0.5], [0.5, 0.0]]

    @given(
        hst.integers(min_value=1, max_value=300),
        hst.sampled_from([BINARY, Scenario(("a0", "a1", "a2"), ("b0", "b1", "b2"))]),
        hst.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_loop_bitwise(self, n_lambda, scenario, pyrandom):
        # Tables hold exact 0.0 and -0.0 entries (never at outcome (0, 0), so
        # every row normalises); the sums compare bit by bit, sign of zero included.
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        raw = rng.random(n_lambda) + 0.1
        weights = raw / raw.sum()
        weights[-1] = 1.0 - float(weights[:-1].sum())
        tables = rng.random((n_lambda, *scenario.shape))
        zeros = rng.random(tables.shape) < 0.3
        zeros[..., 0, 0] = False
        tables[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        tables /= tables.sum(axis=(3, 4), keepdims=True)
        lams = [(float(w), validate(Behavior(scenario, t))) for w, t in zip(weights, tables)]
        model = HiddenVariableModel(scenario, lams)
        avg = average(model)
        naive = np.zeros(scenario.shape)
        for cell in np.ndindex(*scenario.shape):
            acc = 0.0
            for w, b in lams:
                acc += w * float(b.table[cell])
            naive[cell] = acc
        assert np.array_equal(avg.table.view(np.uint64), naive.view(np.uint64))
        assert validate(avg) is not None
        assert average(model) is avg


class TestSignModel:
    def test_equal_settings_exactly_anticorrelated(self):
        for seed in (0, 7, 123):
            _, corr = sign_model([0.0, 1.1], [0.0, 1.1], 5000, seed=seed)
            assert corr[0, 0] == -1.0
            assert corr[1, 1] == -1.0

    def test_closed_form_against_quadrature_oracle(self):
        for a, b in ((0.0, math.pi / 4), (0.0, math.pi / 2), (0.3, 0.3 + 3 * math.pi / 4)):
            assert quadrature_sign_correlator(a, b) == pytest.approx(
                closed_form_sign_correlator(a, b), abs=2e-2
            )

    def test_correlators_track_closed_form(self):
        n = 100_000
        angles = [0.0, math.pi / 4, math.pi / 2]
        _, corr = sign_model(angles, angles, n, seed=42)
        bound = 4.0 / math.sqrt(n)
        for ia, a in enumerate(angles):
            for ib, b in enumerate(angles):
                assert abs(corr[ia, ib] - closed_form_sign_correlator(a, b)) < bound

    def test_each_lambda_is_deterministic_product(self):
        model, _ = sign_model([0.0, 0.9], [0.4, 2.2], 2000, seed=5)
        assert abs(sum(w for w, _ in model.lambdas) - 1.0) < 1e-12
        for _, b in model.lambdas:
            assert set(np.unique(b.table)) <= {0.0, 1.0}
            marg_a, marg_b = b.table.sum(axis=3), b.table.sum(axis=2)  # P(A|a,b), P(B|a,b)
            prod = marg_a[:, :, :, None] * marg_b[:, :, None, :]
            assert np.array_equal(b.table, prod)

    def test_chunking_invisible_to_results(self):
        # Two calls with the same seed agree even across the chunk boundary.
        n = (1 << 17) + 321
        _, corr1 = sign_model([0.2], [1.0], n, seed=9)
        _, corr2 = sign_model([0.2], [1.0], n, seed=9)
        assert np.array_equal(corr1, corr2)

    def test_three_chunks_equal_spawned_children(self):
        # The sampler draws 2**17 directions per child of SeedSequence(seed).
        chunk, seed = 1 << 17, 2718
        n = 2 * chunk + 1234
        angles_a, angles_b = [0.0, 0.7, 2.1], [0.3, 1.9]
        model, corr = sign_model(angles_a, angles_b, n, seed=seed)
        dirs_a = np.array([[math.sin(t), 0.0, math.cos(t)] for t in angles_a])
        dirs_b = np.array([[math.sin(t), 0.0, math.cos(t)] for t in angles_b])
        prod = np.zeros((3, 2), dtype=np.int64)
        rows = []
        for child, m in zip(np.random.SeedSequence(seed).spawn(3), (chunk, chunk, 1234)):
            draws = np.random.default_rng(child).standard_normal((m, 3))
            resp_a = np.where(draws @ dirs_a.T >= 0.0, 1, -1)
            resp_b = -np.where(draws @ dirs_b.T >= 0.0, 1, -1)
            prod += resp_a.T @ resp_b
            rows.append(np.concatenate([resp_a, resp_b], axis=1))
        assert np.array_equal(corr, prod / float(n))
        patterns, counts = np.unique(np.concatenate(rows), axis=0, return_counts=True)
        got = {}
        for w, b in model.lambdas:
            # Outcome index 0 ("up") is +1; each table is deterministic.
            row = [1 - 2 * int(np.argmax(b.table.sum(axis=3)[ia, 0])) for ia in range(3)]
            row += [1 - 2 * int(np.argmax(b.table.sum(axis=2)[0, ib])) for ib in range(2)]
            got[tuple(row)] = w
        assert got == {tuple(row): c / n for row, c in zip(patterns.tolist(), counts.tolist())}

    @pytest.mark.parametrize("ka, kb", [(20, 20), (9, 31)], ids=["20+20", "9+31"])
    def test_strategies_in_key_order_at_40_bits(self, ka, kb):
        # Two chunks; every answer is recomputed from the spawned child seeds.
        n, seed = (1 << 17) + 500, 4040 + ka
        rng = np.random.default_rng(ka)
        angles_a = rng.uniform(0.0, 2 * math.pi, ka)
        angles_b = np.concatenate([angles_a[: min(ka, kb) // 2], rng.uniform(0.0, 2 * math.pi, kb)])[:kb]
        model, corr = sign_model(angles_a.tolist(), angles_b.tolist(), n, seed=seed)
        want_corr, want_keys, want_counts = spawned_children_oracle(angles_a, angles_b, n, seed)
        assert np.array_equal(corr, want_corr)
        # lambda l is the l-th strategy in ascending key order, with weight count / n
        assert np.array_equal(model.weights(), want_counts / n)
        tables = model.stacked_tables()
        assert tables.shape[0] == want_keys.size
        for table, key in zip(tables, want_keys.tolist()):
            idx = [1 - ((key >> j) & 1) for j in range(ka + kb)]  # bit set: answer +1, outcome index 0
            assert np.array_equal(table, _deterministic(model.scenario, idx[:ka], idx[ka:]).table)

    @pytest.mark.parametrize("ka, kb", [(3, 2), (20, 20)], ids=["3+2", "20+20"])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, (1 << 17) - 1, 1 << 17, (1 << 17) + 1])
    def test_block_edges_equal_spawned_children(self, n, ka, kb):
        # Sizes around the 4096-row draw block and the 2**17-draw chunk.
        rng = np.random.default_rng([n, ka])
        angles_a, angles_b = rng.uniform(0.0, 2 * math.pi, ka), rng.uniform(0.0, 2 * math.pi, kb)
        angles_b[0] = angles_a[0]
        model, corr = sign_model(angles_a.tolist(), angles_b.tolist(), n, seed=31 * n + ka)
        want_corr, want_keys, want_counts = spawned_children_oracle(angles_a, angles_b, n, 31 * n + ka)
        assert np.array_equal(corr, want_corr)
        assert corr[0, 0] == -1.0
        assert sampled_keys(model) == want_keys.tolist()
        assert np.array_equal(model.weights(), want_counts / n)

    def test_one_chunk_at_40_settings_peaks_below_8_mib(self):
        angles = np.linspace(0.0, math.pi, 20, endpoint=False).tolist()
        sign_model(angles, angles, 1000, seed=1)  # warm-up: first-call allocations are not the sampler's
        tracemalloc.start()
        try:
            sign_model(angles, angles, 1 << 17, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            sign_model([0.0], [0.0], 0, seed=1)

    def test_exact_ensemble_of_the_cli_settings(self):
        # signmodel --settings 0,0.785398,1.570796: cuts near 0, pi/2, 3pi/4, pi, 3pi/2, 7pi/4.
        angles = [0.0, 0.785398, 1.570796]
        probs = sorted(exact_sign_ensemble(angles, angles).values())
        assert probs == pytest.approx([1 / 8] * 4 + [1 / 4] * 2, abs=1e-6)
        model, _ = sign_model(angles, angles, 50_000, seed=1)
        assert set(sampled_keys(model)) == set(exact_sign_ensemble(angles, angles))

    def test_weights_match_exact_ensemble(self):
        # 60 seeded calls: random, shared-between-wings and pi/8-grid angles,
        # 1-6 distinct settings per side. Settings whose answer lines (theta mod pi)
        # are distinct floats closer than 1e-6 rad are redrawn: the sector
        # between them is narrower than what the sampler's rounded
        # directions resolve, so which side a draw lands on is rounding, not
        # geometry. Equal angles (exactly shared lines) are kept. The z bound
        # of 5 covers every support strategy of every call, unsampled ones
        # (weight 0) included.
        rng = np.random.default_rng(1964)
        worst = 0.0
        for call in range(60):
            while True:
                ka, kb = (int(k) for k in rng.integers(1, 7, size=2))
                kind = call % 3
                if kind == 0:
                    angles = rng.uniform(-math.pi, 2 * math.pi, size=ka + kb)
                elif kind == 1:
                    angles = rng.uniform(0.0, math.pi, size=ka + kb)
                    shared = rng.permutation(angles[:ka])[: rng.integers(1, min(ka, kb) + 1)]
                    angles[ka : ka + shared.size] = shared
                else:
                    angles = rng.integers(0, 8, size=ka + kb) * (math.pi / 8)
                lines = np.mod(angles, math.pi)
                gaps = np.abs(lines[:, None] - lines[None, :])
                gaps = np.minimum(gaps, math.pi - gaps)
                unique = len(set(angles[:ka])) == ka and len(set(angles[ka:])) == kb
                if unique and not np.any((gaps < 1e-6) & (angles[:, None] != angles[None, :])):
                    break
            angles_a, angles_b = angles[:ka].tolist(), angles[ka:].tolist()
            # The size cycle shifts by one at call 30, so each kind of angles meets two sizes.
            n = (1_000, 50_000, 200_000)[call % 3 if call < 30 else (call + 1) % 3]
            model, _ = sign_model(angles_a, angles_b, n, seed=call)
            exact = exact_sign_ensemble(angles_a, angles_b)
            keys = sampled_keys(model)
            assert set(keys) <= set(exact)
            assert len(exact) <= 2 * (ka + kb)
            weights = dict(zip(keys, model.weights().tolist()))
            for key, p in exact.items():
                z = abs(weights.get(key, 0.0) - p) / math.sqrt(p * (1.0 - p) / n)
                worst = max(worst, z)
        assert worst <= 5.0


class TestModelInvariants:
    def test_weights_must_sum_to_one(self):
        b = validate(Behavior(BINARY, np.full(BINARY.shape, 0.25)))
        with pytest.raises(ModelError):
            HiddenVariableModel(BINARY, [(0.5, b)])

    def test_negative_weight_rejected(self):
        b = validate(Behavior(BINARY, np.full(BINARY.shape, 0.25)))
        with pytest.raises(ModelError):
            HiddenVariableModel(BINARY, [(-0.5, b), (1.5, b)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, bad):
        b = validate(Behavior(BINARY, np.full(BINARY.shape, 0.25)))
        with pytest.raises(ModelError, match="weight"):
            HiddenVariableModel(BINARY, [(bad, b), (1.0, b)])
        with pytest.raises(ModelError, match="weight"):
            HiddenVariableModel.from_arrays(BINARY, [1.0, bad], np.stack([b.table, b.table]))

    def test_stores_one_read_only_stack(self):
        model, _ = sign_model([0.0, 1.0], [0.5], 400, seed=4)
        tables, weights = model.stacked_tables(), model.weights()
        assert model.stacked_tables() is tables and model.weights() is weights
        assert not tables.flags.writeable and not weights.flags.writeable
        assert tables.shape == (weights.size, *model.scenario.shape)
        pairs = model.lambdas
        assert [w for w, _ in pairs] == weights.tolist()
        assert all(type(w) is float and isinstance(b, Behavior) for w, b in pairs)
        assert np.array_equal(np.stack([b.table for _, b in pairs]), tables)

    def test_scenario_mismatch_rejected(self):
        b = validate(Behavior(BINARY, np.full(BINARY.shape, 0.25)))
        other = Scenario(("x0", "x1"), ("b0", "b1"))
        with pytest.raises(ModelError):
            HiddenVariableModel(other, [(1.0, b)])


def outcome_stack(k_a, k_b):
    """20 lambdas of 3x2 settings with k_a x k_b outcomes, one table all -0.0 (not a valid table)."""
    rng = np.random.default_rng([k_a, k_b])
    tables = rng.dirichlet(np.ones(k_a * k_b), size=(20, 3, 2)).reshape(20, 3, 2, k_a, k_b)
    tables[0, 0, 0] = -0.0
    sc = Scenario(("a0", "a1", "a2"), ("b0", "b1"), [f"A{i}" for i in range(k_a)], [f"B{i}" for i in range(k_b)])
    return sc, tables


def assert_bitwise_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def derived_nothing_yet(model) -> bool:
    """The model's derived-array slots are still empty."""
    return model._marginals is None and model._average is None


class TestMarginals:
    @pytest.mark.parametrize("k_a, k_b", list(itertools.product((1, 2, 7, 8, 9), repeat=2)))
    def test_rule_and_model_equal_numpy_sums_bit_for_bit(self, k_a, k_b):
        sc, tables = outcome_stack(k_a, k_b)
        model = HiddenVariableModel.from_arrays(sc, np.full(20, 0.05), tables)
        for got_a, got_b in (marginals(tables), model.marginals()):
            assert_bitwise_equal(got_a, tables.sum(axis=4))
            assert_bitwise_equal(got_b, tables.sum(axis=3))


class TestDerivedOnce:
    def test_marginals_read_only_and_kept(self):
        model, _ = sign_model([0.0, 1.0], [0.5, 2.0], 400, seed=4)
        marg_a, marg_b = model.marginals()
        again = model.marginals()
        assert again[0] is marg_a and again[1] is marg_b
        assert not marg_a.flags.writeable and not marg_b.flags.writeable
        with pytest.raises(ValueError):
            marg_a[0, 0, 0, 0] = 0.5

    def test_failed_average_keeps_nothing(self):
        tables = np.full((2, *BINARY.shape), 0.25)
        tables[1, 0, 1, 1, 0] = np.nan
        model = HiddenVariableModel.from_arrays(BINARY, [0.5, 0.5], tables)
        for _ in range(2):
            with pytest.raises(BehaviorError, match="non-finite"):
                average(model)
            assert model._average is None

    def test_constructors_derive_nothing(self):
        b = validate(Behavior(BINARY, np.full(BINARY.shape, 0.25)))
        sampled, _ = sign_model([0.0, 1.0], [0.5], 400, seed=4)
        built = (
            HiddenVariableModel(BINARY, [(0.5, b), (0.5, b)]),
            HiddenVariableModel.from_arrays(BINARY, [1.0], b.table[None]),
            from_dict(model_to_dict(sampled)),
            sampled,
        )
        for model in built:
            assert derived_nothing_yet(model)

    def test_models_from_the_same_arrays_share_nothing_derived(self):
        tables = np.stack([_deterministic(BINARY, [0, 1], [1, 0]).table, np.full(BINARY.shape, 0.25)])
        first, second = (HiddenVariableModel.from_arrays(BINARY, [0.5, 0.5], tables) for _ in range(2))
        marg_first, avg_first = first.marginals(), average(first)
        assert derived_nothing_yet(second)
        marg_second, avg_second = second.marginals(), average(second)
        assert not any(np.shares_memory(x, y) for x in marg_first for y in marg_second)
        assert avg_second is not avg_first and not np.shares_memory(avg_second.table, avg_first.table)
        assert all(np.array_equal(x, y) for x, y in zip(marg_first, marg_second))


class TestJson:
    def test_behavior_round_trip(self):
        b = from_quantum(singlet(), [0.0, 1.2], [0.5])
        again = from_dict(behavior_to_dict(b))
        assert isinstance(again, Behavior)
        assert again.scenario == b.scenario
        assert np.array_equal(again.table, b.table)

    def test_model_round_trip(self):
        model, _ = sign_model([0.0, 1.0], [0.0, 1.0], 500, seed=2)
        again = from_dict(model_to_dict(model))
        assert isinstance(again, HiddenVariableModel)
        assert len(again.lambdas) == len(model.lambdas)
        assert np.array_equal(again.stacked_tables(), model.stacked_tables())
        assert np.array_equal(again.weights(), model.weights())

    def test_model_parse_holds_two_stack_copies_at_most(self):
        # The parsed stack and the model's own copy; the JSON rows are not copied again.
        labels = [str(i) for i in range(8)]
        table = from_quantum(singlet(), range(8), range(8)).table.reshape(-1).tolist()
        payload = {
            "scenario": {"settings_a": labels, "settings_b": labels},
            "lambdas": [{"weight": 1.0 / 2048, "table": table}] * 2048,
        }
        tracemalloc.start()
        try:
            model = from_dict(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * model.stacked_tables().nbytes

    def test_table_length_checked(self):
        payload = behavior_to_dict(from_quantum(singlet(), [0.0], [0.0]))
        payload["table"] = payload["table"][:-1]
        with pytest.raises(BehaviorError, match="entries"):
            from_dict(payload)

    def test_first_bad_lambda_reported(self):
        # lambda 0 is unnormalised at (a0, b1); lambda 1 has a negative entry
        good = np.full(BINARY.shape, 0.25)
        first = good.copy()
        first[0, 1] *= 0.9
        second = good.copy()
        second[1, 0, 0, 1], second[1, 0, 0, 0] = -0.01, 0.51
        payload = {
            "scenario": {"settings_a": ["a0", "a1"], "settings_b": ["b0", "b1"]},
            "lambdas": [{"weight": 0.5, "table": t.reshape(-1).tolist()} for t in (first, second)],
        }
        with pytest.raises(TableNormalizationError, match=r"a='a0', b='b1'"):
            from_dict(payload)

    @pytest.mark.parametrize(
        "body",
        [
            {"table": {"x": 1}},
            {"table": "0.25"},
            {"table": [10**400, 0.0, 0.0, 0.0]},
            {"lambdas": 5},
            {"lambdas": {"weight": 1.0}},
            {"lambdas": [{"weight": 10**400, "table": [1.0, 0.0, 0.0, 0.0]}]},
        ],
        ids=["table-object", "table-string", "table-huge-int", "lambdas-int", "lambdas-object", "weight-huge-int"],
    )
    def test_wrong_json_types_rejected(self, body):
        with pytest.raises(BehaviorError):
            from_dict({"scenario": {"settings_a": ["a0"], "settings_b": ["b0"]}, **body})

    @pytest.mark.parametrize(
        "field, value",
        [("settings_a", "ab"), ("settings_b", 7), ("outcomes_a", "ud"), ("outcomes_b", {"u": 1}), ("context", "lab"), ("context", [["k", "v"]])],
    )
    def test_scenario_field_types_rejected(self, field, value):
        scenario = {"settings_a": ["a0"], "settings_b": ["b0"], field: value}
        with pytest.raises(BehaviorError, match=f"scenario field '{field}' must be a JSON"):
            from_dict({"scenario": scenario, "table": [0.0, 0.5, 0.5, 0.0]})

    def test_missing_scenario_rejected(self):
        with pytest.raises(BehaviorError):
            from_dict({"table": [1.0]})

    def test_angle_label_stable(self):
        assert angle_label(0.5) == angle_label(0.5)
        assert angle_label(0.0) != angle_label(math.pi)

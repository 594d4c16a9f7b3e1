"""Finite probabilistic models of bipartite experiments.

A `Scenario` fixes the finite setting and outcome labels for the two wings
plus free-form context metadata. A `Behavior` is the observable conditional
probability table P(A, B | a, b) stored dense as a (n_a, n_b, k_A, k_B)
array. A `HiddenVariableModel` is a finite weighted ensemble of behaviours
sharing one scenario, stored as one read-only (L, n_a, n_b, k_A, k_B) table
stack and a weight vector of length L; `average` recovers the observable
behaviour and `marginals` the stack's one-sided marginals; a model derives
both once, on first use, and keeps them. `validate` checks a table and the
model paths check a whole stack with the same first-bad-cell search.

Generators:
  * `from_quantum` packages the Born rule over an angle grid for a two-qubit
    state,
  * `sign_model` samples the classic local deterministic strategy for the
    singlet correlations: a hidden unit vector on the sphere with each wing
    answering with the sign of the projection onto its own measurement
    direction (one wing negated), which anticorrelates equal settings
    pointwise.

The JSON layout used for files on disk is
``{"scenario": {...}, "table": [...]}`` for a behaviour and
``{"scenario": {...}, "lambdas": [{"weight": w, "table": [...]}]}`` for a
model; tables are dense row-major in (a, b, A, B) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .qstate import ALG_TOL, StateVector, joint_probability_table

_CHUNK = 1 << 17  # draws per child seed: it fixes the random stream, so changing it changes every sampled output
_BLOCK = 1 << 12  # rows drawn and projected at a time within a chunk; it bounds memory, not the stream
MAX_MODEL_CELLS = 1 << 24  # lambdas x table cells a model file may declare: one 128 MiB float64 stack


class BehaviorError(ValueError):
    """A probability table violates its invariants."""


class NegativeEntryError(BehaviorError):
    pass


class TableNormalizationError(BehaviorError):
    pass


class ModelError(ValueError):
    """A hidden-variable ensemble violates its invariants."""


def angle_label(theta: float) -> str:
    """Stable text label for an angle-valued setting; the CLI prints every figure it rounds with it."""
    return format(float(theta), ".12g")


def _unique_nonempty(name: str, labels: Sequence[str]) -> tuple[str, ...]:
    out = tuple(str(x) for x in labels)
    if not out:
        raise ValueError(f"{name} must be nonempty")
    if len(set(out)) != len(out):
        raise ValueError(f"{name} labels must be unique, got {out}")
    return out


@dataclass(frozen=True, eq=True)
class Scenario:
    """Finite setting/outcome labels for the two wings plus context metadata.

    Context entries describe the fixed experimental arrangement (everything
    but the settings chosen at the wings); they are carried as inert strings
    and never conditioned on.
    """

    settings_a: tuple[str, ...]
    settings_b: tuple[str, ...]
    outcomes_a: tuple[str, ...] = ("up", "down")
    outcomes_b: tuple[str, ...] = ("up", "down")
    context: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "settings_a", _unique_nonempty("settings_a", self.settings_a))
        object.__setattr__(self, "settings_b", _unique_nonempty("settings_b", self.settings_b))
        object.__setattr__(self, "outcomes_a", _unique_nonempty("outcomes_a", self.outcomes_a))
        object.__setattr__(self, "outcomes_b", _unique_nonempty("outcomes_b", self.outcomes_b))
        object.__setattr__(self, "context", {str(k): str(v) for k, v in dict(self.context).items()})

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (
            len(self.settings_a),
            len(self.settings_b),
            len(self.outcomes_a),
            len(self.outcomes_b),
        )


class Behavior:
    """Dense conditional probability table P(A, B | a, b) over a scenario.

    The constructor only checks the shape; call `validate` to enforce the
    probability invariants (generators in this module always do).
    """

    __slots__ = ("scenario", "table")

    def __init__(self, scenario: Scenario, table: np.ndarray | Sequence):
        arr = np.asarray(table, dtype=np.float64)
        if arr.shape != scenario.shape:
            arr = arr.reshape(scenario.shape)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "table", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Behavior is immutable")

    def __repr__(self) -> str:
        return f"Behavior(shape={self.scenario.shape})"


def _check_stack(scenario: Scenario, tables: np.ndarray) -> None:
    """Raise naming the first bad cell, at ALG_TOL, of a (L, n_a, n_b, k_A, k_B) table stack.

    Tables are searched in lambda order. Within a table, non-finite entries
    are reported first, then the first entry outside [0, 1], then the first
    setting pair whose probabilities do not sum to 1.
    """
    nonfinite = ~np.isfinite(tables)
    out_of_range = (tables < -ALG_TOL) | (tables > 1.0 + ALG_TOL)
    sums = tables.sum(axis=(3, 4))
    unnormalised = np.abs(sums - 1.0) > ALG_TOL
    bad = (nonfinite | out_of_range).any(axis=(1, 2, 3, 4)) | unnormalised.any(axis=(1, 2))
    if not bad.any():
        return
    il = int(np.argmax(bad))
    sc = scenario
    if nonfinite[il].any():
        raise BehaviorError("table contains non-finite entries")
    if out_of_range[il].any():
        ia, ib, iA, iB = np.unravel_index(np.argmax(out_of_range[il]), sc.shape)
        raise NegativeEntryError(
            "entry out of [0, 1] at cell "
            f"(a={sc.settings_a[ia]!r}, b={sc.settings_b[ib]!r}, "
            f"A={sc.outcomes_a[iA]!r}, B={sc.outcomes_b[iB]!r}): {float(tables[il, ia, ib, iA, iB])!r}"
        )
    ia, ib = np.unravel_index(np.argmax(unnormalised[il]), sc.shape[:2])
    total = float(sums[il, ia, ib])
    raise TableNormalizationError(
        f"P(.,.|a,b) sums to {total!r} at "
        f"(a={sc.settings_a[ia]!r}, b={sc.settings_b[ib]!r}); deficit {total - 1.0!r}"
    )


def validate(behavior: Behavior) -> Behavior:
    """Return the behaviour iff its invariants hold at ALG_TOL; raise naming the first bad cell."""
    _check_stack(behavior.scenario, behavior.table[None])
    return behavior


def marginals(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided marginals of a table stack: (L, n_a, n_b, k_A) and (L, n_a, n_b, k_B).

    Bit for bit ``tables.sum(axis=4)`` and ``tables.sum(axis=3)``. Numpy adds
    fewer than eight terms in order from +0.0, so adding the outcome slices
    to 0.0 repeats its sums without its slow reduction over a short axis;
    from eight terms on it may add them pairwise, so those sums stay its own.
    """
    k_a, k_b = tables.shape[3:]
    marg_a = tables.sum(axis=4) if k_b >= 8 else sum((tables[..., ib] for ib in range(k_b)), 0.0)
    marg_b = tables.sum(axis=3) if k_a >= 8 else sum((tables[..., ia, :] for ia in range(k_a)), 0.0)
    return marg_a, marg_b


class HiddenVariableModel:
    """Finite weighted ensemble of conditional behaviours over one scenario.

    The ensemble is stored once as a read-only (L, n_a, n_b, k_A, k_B) table
    stack and a read-only weight vector of length L; every checker reads the
    stack directly. Build a model from (weight, Behavior) pairs or, with
    `from_arrays`, from a weight vector and a table stack. The constructors
    check the weights (finite, non-negative, summing to 1) but not the
    tables; those are validated by whoever produces them. The one-sided
    marginals and the average are derived on first use and kept.
    """

    __slots__ = ("scenario", "_weights", "_tables", "_marginals", "_average")

    def __init__(self, scenario: Scenario, lambdas: Iterable[tuple[float, Behavior]]):
        pairs = list(lambdas)
        if any(b.scenario != scenario for _, b in pairs):
            raise ModelError("all conditionals must share the model scenario")
        tables = np.array([b.table for _, b in pairs]).reshape(len(pairs), *scenario.shape)
        self._store(scenario, [w for w, _ in pairs], tables)

    @classmethod
    def from_arrays(cls, scenario: Scenario, weights: Sequence[float], tables: np.ndarray) -> HiddenVariableModel:
        """Model from a weight vector and a (L, n_a, n_b, k_A, k_B) table stack (both copied)."""
        return cls._owning(scenario, weights, np.array(tables, dtype=np.float64))

    @classmethod
    def _owning(cls, scenario: Scenario, weights, tables: np.ndarray) -> HiddenVariableModel:
        """Model that keeps ``tables``, a fresh float64 stack no caller holds, without copying it."""
        model = cls.__new__(cls)
        model._store(scenario, weights, tables)
        return model

    def _store(self, scenario: Scenario, weights, tables: np.ndarray) -> None:
        w = np.array(weights, dtype=np.float64).reshape(-1)
        if w.size == 0:
            raise ModelError("model needs at least one hidden-variable value")
        if tables.shape != (w.size, *scenario.shape):
            raise ModelError(f"table stack has shape {tables.shape}, expected {(w.size, *scenario.shape)}")
        bad = ~np.isfinite(w) | (w < 0.0)
        if bad.any():
            first = float(w[np.argmax(bad)])
            raise ModelError(f"{'negative' if math.isfinite(first) else 'non-finite'} weight {first!r}")
        total = math.fsum(w.tolist())
        if abs(total - 1.0) > ALG_TOL:
            raise ModelError(f"weights sum to {total!r}, not 1")
        w.setflags(write=False)
        tables.setflags(write=False)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "_marginals", None)
        object.__setattr__(self, "_average", None)

    def __setattr__(self, name, value):
        raise AttributeError("HiddenVariableModel is immutable")

    @property
    def lambdas(self) -> tuple[tuple[float, Behavior], ...]:
        """(weight, conditional behaviour) pairs in lambda order, built from the stack."""
        return tuple((w, Behavior(self.scenario, t)) for w, t in zip(self._weights.tolist(), self._tables))

    def stacked_tables(self) -> np.ndarray:
        """All conditional tables as one read-only (L, n_a, n_b, k_A, k_B) array."""
        return self._tables

    def weights(self) -> np.ndarray:
        """The read-only weight vector, in lambda order."""
        return self._weights

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """The stack's read-only one-sided marginals, by `marginals`; derived on first use, then the same arrays."""
        if self._marginals is None:
            pair = marginals(self._tables)
            for m in pair:
                m.setflags(write=False)
            object.__setattr__(self, "_marginals", pair)
        return self._marginals

    def __repr__(self) -> str:
        return f"HiddenVariableModel(n_lambda={self._weights.size}, shape={self.scenario.shape})"


def average(model: HiddenVariableModel) -> Behavior:
    """Mixture behaviour P(A,B|a,b) = sum_lambda w P(A,B|a,b,lambda).

    One reduction over the lambda axis of the C-contiguous weighted stack,
    which adds whole tables from 0.0 in lambda order, so the result is
    bitwise equal to a naive per-cell loop over the same order. The model
    keeps the validated result and returns it on later calls; a table that
    fails validation is not kept.
    """
    if model._average is None:
        w = model.weights()[:, None, None, None, None]
        acc = np.add.reduce(w * model.stacked_tables(), axis=0, initial=0.0)
        object.__setattr__(model, "_average", validate(Behavior(model.scenario, acc)))
    return model._average


def from_quantum(state: StateVector, settings_a: Sequence[float], settings_b: Sequence[float]) -> Behavior:
    """Behaviour induced by the Born rule on a two-qubit state over angle grids."""
    if state.sizes != (2, 2):
        raise ValueError(
            "from_quantum needs a bare two-qubit state (factor out apparatus "
            f"subsystems first); got dims {state.dims}"
        )
    angles_a = [float(t) for t in settings_a]
    angles_b = [float(t) for t in settings_b]
    scenario = Scenario(
        settings_a=tuple(angle_label(t) for t in angles_a),
        settings_b=tuple(angle_label(t) for t in angles_b),
        context={"source": "born-rule"},
    )
    return validate(Behavior(scenario, joint_probability_table(state, angles_a, angles_b)))


def _plane_directions(angles: Sequence[float]) -> np.ndarray:
    a = np.asarray(angles, dtype=np.float64)
    return np.stack([np.sin(a), np.zeros_like(a), np.cos(a)], axis=1)  # (k, 3)


def sign_model(
    settings_a: Sequence[float],
    settings_b: Sequence[float],
    n_samples: int,
    seed: int,
) -> tuple[HiddenVariableModel, np.ndarray]:
    """Sampled sign-strategy ensemble and its empirical correlators E(a, b).

    Each hidden value is an isotropic direction; wing A answers
    sign(a_hat . lambda), wing B answers -sign(b_hat . lambda), so equal
    settings anticorrelate exactly for every sample. Identical sampled
    strategies are merged, so weights are multiples of 1/n_samples; the
    ensemble average and every checker result are unchanged by the merge.
    The directions are planar, so the settings' zero lines cut the plane
    into at most 2(k_a + k_b) sectors, and (in exact arithmetic) there are
    at most that many strategies. Correlators are summed in int64 over the
    merged strategies' counts and divided by n_samples once; the sums equal
    the per-sample sums exactly, hence E(a, a) = -1.0 exactly. Draws come in
    blocks of _BLOCK rows: the blocks bound memory, _CHUNK fixes the stream.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    angles_a = [float(t) for t in settings_a]
    angles_b = [float(t) for t in settings_b]
    if not all(map(math.isfinite, angles_a + angles_b)):
        raise ValueError(f"setting angles must be finite, got {angles_a} and {angles_b}")
    dirs_a = _plane_directions(angles_a)
    dirs_b = _plane_directions(angles_b)
    ka, kb = len(angles_a), len(angles_b)
    if ka + kb > 40:
        raise ValueError("too many settings for the packed sampler (ka + kb > 40)")

    pattern_counts: dict[int, int] = {}
    pow2 = 2.0 ** np.arange(ka + kb)
    dirs = np.concatenate([dirs_a, dirs_b]).T  # (3, ka + kb), wing A first
    signed_pow2 = np.concatenate([pow2[:ka], -pow2[ka:]])
    draws = np.empty((min(_BLOCK, n_samples), 3))  # buffers reused by every block of every chunk
    proj, packed = np.empty((len(draws), ka + kb)), np.empty(min(_CHUNK, n_samples))
    root = np.random.SeedSequence(seed)  # one child per chunk, spawned when needed (as spawn(n_chunks) would)
    remaining = n_samples
    while remaining:
        m = min(_CHUNK, remaining)
        remaining -= m
        rng = np.random.default_rng(root.spawn(1)[0])
        # Signs depend only on the draw's direction, so the isotropic
        # gaussian can be used unnormalised. Per sample only the strategy
        # key is formed: bit j is set when the j-th answer (wing A first) is
        # +1, with sign(0) := +1 and wing B negated. The 0/1 answers are dotted
        # with (pow2_A, -pow2_B), plus sum(pow2_B) once per chunk; every partial sum
        # is an integer below 2**41, so the float64 key is exact.
        # Correlators are summed later over the merged strategies' counts.
        for lo in range(0, m, _BLOCK):
            n = min(_BLOCK, m - lo)
            rng.standard_normal(out=draws[:n])
            np.matmul(draws[:n], dirs, out=proj[:n])
            np.greater_equal(proj[:n], 0.0, out=proj[:n])
            np.matmul(proj[:n], signed_pow2, out=packed[lo : lo + n])
        packed[:m] += pow2[ka:].sum()
        keys, counts = np.unique(packed[:m], return_counts=True)
        for key, count in zip(keys.astype(np.int64).tolist(), counts.tolist()):
            pattern_counts[key] = pattern_counts.get(key, 0) + count

    scenario = Scenario(
        settings_a=tuple(angle_label(t) for t in angles_a),
        settings_b=tuple(angle_label(t) for t in angles_b),
        context={"source": "sign-model", "n_samples": str(n_samples), "seed": str(seed)},
    )
    patterns = np.array(sorted(pattern_counts), dtype=np.int64)
    counts = np.array([pattern_counts[key] for key in patterns.tolist()], dtype=np.int64)
    weights = counts / n_samples
    bits = (patterns[:, None] >> np.arange(ka + kb)) & 1
    idx_a, idx_b = 1 - bits[:, :ka], 1 - bits[:, ka:]  # +1 -> "up" (index 0)
    tables = np.zeros((patterns.size, *scenario.shape))
    il, ia, ib = np.ix_(range(patterns.size), range(ka), range(kb))
    tables[il, ia, ib, idx_a[:, :, None], idx_b[:, None, :]] = 1.0
    signs = 2 * bits - 1
    correlators = ((signs[:, :ka] * counts[:, None]).T @ signs[:, ka:]) / float(n_samples)
    return HiddenVariableModel.from_arrays(scenario, weights, tables), correlators


# -- JSON interchange ---------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "settings_a": list(scenario.settings_a),
        "settings_b": list(scenario.settings_b),
        "outcomes_a": list(scenario.outcomes_a),
        "outcomes_b": list(scenario.outcomes_b),
        "context": dict(scenario.context),
    }


def json_number(raw, error: str) -> float:
    """A JSON number (weight, slab bound, coordinate) as a float; a str, bool or huge int raises ValueError(error)."""
    if type(raw) in (int, float):
        try:
            return float(raw)
        except OverflowError:
            pass
    raise ValueError(error)


def scenario_from_dict(obj: Mapping) -> Scenario:
    """Scenario from its JSON object: label fields are lists of strings, ``context`` an object of strings."""
    try:
        fields = {key: obj[key] for key in ("settings_a", "settings_b")}
        fields.update({key: obj[key] for key in ("outcomes_a", "outcomes_b", "context") if key in obj})
    except (KeyError, TypeError) as exc:
        raise BehaviorError(f"malformed scenario object: {exc}") from exc
    for key, value in fields.items():
        kind, name = (dict, "object") if key == "context" else (list, "list")
        if not isinstance(value, kind):
            raise BehaviorError(f"scenario field {key!r} must be a JSON {name}, got {type(value).__name__}")
        bad = [x for x in (value.values() if key == "context" else value) if not isinstance(x, str)]
        if bad:
            raise BehaviorError(f"scenario field {key!r} must hold JSON strings, got {type(bad[0]).__name__}")
    return Scenario(**{key: value if key == "context" else tuple(value) for key, value in fields.items()})


def behavior_to_dict(behavior: Behavior) -> dict:
    return {
        "scenario": scenario_to_dict(behavior.scenario),
        "table": [float(x) for x in behavior.table.reshape(-1)],
    }


def model_to_dict(model: HiddenVariableModel) -> dict:
    weights = model.weights()
    tables = model.stacked_tables().reshape(weights.size, -1)
    return {
        "scenario": scenario_to_dict(model.scenario),
        "lambdas": [{"weight": w, "table": t} for w, t in zip(weights.tolist(), tables.tolist())],
    }


def _table_array(raw, what: str) -> np.ndarray:
    """Float array of a JSON table, which must be a flat list of numbers."""
    if not isinstance(raw, list):
        raise BehaviorError(f"{what} must be a list of numbers, got {type(raw).__name__}")
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BehaviorError(f"{what} must be a list of numbers: {exc}") from exc
    if arr.ndim != 1:
        raise BehaviorError(f"{what} must be a flat list of numbers, not a nested list")
    return arr


def from_dict(obj: Mapping) -> Behavior | HiddenVariableModel:
    """Parse either a behaviour or a model; tables are validated."""
    if not isinstance(obj, Mapping) or "scenario" not in obj:
        raise BehaviorError("expected an object with a 'scenario' field")
    scenario = scenario_from_dict(obj["scenario"])
    size = math.prod(scenario.shape)
    if "table" in obj:
        flat = _table_array(obj["table"], "table")
        if flat.size != size:
            raise BehaviorError(f"table has {flat.size} entries, scenario needs {size}")
        return validate(Behavior(scenario, flat))
    if "lambdas" in obj:
        entries = obj["lambdas"]
        if not isinstance(entries, list):
            raise BehaviorError(f"'lambdas' must be a list of objects, got {type(entries).__name__}")
        if len(entries) * size > MAX_MODEL_CELLS:
            raise BehaviorError(f"{len(entries)} lambdas of {size} cells exceed the limit of {MAX_MODEL_CELLS} cells")
        weights = np.empty(len(entries))
        tables = np.empty((len(entries), size))  # filled row by row: no second copy of the input
        for k, lam in enumerate(entries):
            try:
                weights[k] = json_number(lam["weight"], "'weight' must be a number")
                raw = lam["table"]
            except (KeyError, TypeError, ValueError) as exc:
                raise BehaviorError(f"malformed lambda entry {k}: {exc}") from exc
            flat = _table_array(raw, f"lambda {k} table")
            if flat.size != size:
                raise BehaviorError(f"lambda {k} table has {flat.size} entries, needs {size}")
            tables[k] = flat
        tables = tables.reshape(len(entries), *scenario.shape)
        _check_stack(scenario, tables)
        return HiddenVariableModel._owning(scenario, weights, tables)
    raise BehaviorError("object carries neither 'table' nor 'lambdas'")

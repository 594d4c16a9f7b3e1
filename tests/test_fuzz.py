"""Input-contract fuzzing of the two JSON file readers.

Claims covered:
  - any JSON value given to `check` either parses into a valid behaviour or
    model (exit 0 or 1, nothing on stderr) or ends in exit 2 with one
    "error:" line, never a traceback;
  - the same holds for any JSON value given to `timeline`, with or without
    a "region3" slab of any JSON value.

Examples are drawn near the documented layouts (scenario objects, tables of
small probabilities, event objects with coordinates and roles) as well as
from arbitrary JSON, including numbers too large for a float. The search is
derandomised and bounded, so the suite stays deterministic.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as hst

from locality_lab.cli import main

FUZZ = settings(max_examples=100, derandomize=True, database=None, deadline=None)

scalars = (
    hst.none()
    | hst.booleans()
    | hst.integers()
    | hst.floats()
    | hst.text(max_size=4)
    | hst.sampled_from([10**400, -(10**400)])
)
json_values = hst.recursive(
    scalars,
    lambda inner: hst.lists(inner, max_size=4) | hst.dictionaries(hst.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
PROBABILITY_ROWS = ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.5, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25])
ROLES = ("measurement-a", "measurement-b", "comparison", "preparation", "other")


def mutated(draw, value):
    """``value`` with each node replaced by an arbitrary JSON value with probability 1/15."""
    if draw(hst.integers(0, 14)) == 0:
        return draw(scalars | json_values)
    if isinstance(value, dict):
        return {key: mutated(draw, item) for key, item in value.items()}
    if isinstance(value, list):
        return [mutated(draw, item) for item in value]
    return value


@hst.composite
def behavior_documents(draw):
    """A valid behaviour or model file over binary outcomes, then mutated."""
    labels = hst.lists(hst.sampled_from(["0", "1", "2"]), min_size=1, max_size=2, unique=True)
    scenario = {"settings_a": draw(labels), "settings_b": draw(labels)}
    n_cells = len(scenario["settings_a"]) * len(scenario["settings_b"])

    def table():
        return [p for _ in range(n_cells) for p in draw(hst.sampled_from(PROBABILITY_ROWS))]

    if draw(hst.booleans()):
        document = {"scenario": scenario, "table": table()}
    else:
        n_lambdas = draw(hst.sampled_from([1, 2, 4]))
        document = {"scenario": scenario, "lambdas": [{"weight": 1.0 / n_lambdas, "table": table()} for _ in range(n_lambdas)]}
    return mutated(draw, document)


@hst.composite
def timeline_documents(draw):
    """A timeline file of two to four events, often with a "region3" slab, then mutated.

    Coordinates are small, or large enough that their squares overflow a float.
    """
    # Magnitudes past 1.3e154 square beyond the float range.
    coordinate = hst.integers(-4, 4) | hst.floats(-5.0, 5.0) | hst.sampled_from([2e154, -1e200, 1.7e308])
    roles = ["measurement-a", "measurement-b"] + draw(hst.lists(hst.sampled_from(ROLES), max_size=2))
    events = [{"t": draw(coordinate), "x": draw(coordinate), "role": role, "label": role[:1]} for role in roles]
    document = {"timeline": events}
    if draw(hst.booleans()):
        slabs = hst.lists(coordinate, min_size=2, max_size=2).map(sorted) | hst.lists(scalars, max_size=3)
        document["region3"] = draw(slabs | json_values)
    return mutated(draw, document)


def assert_contract(argv: list[str], document, directory) -> None:
    path = directory / "input.json"
    path.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, str(path)])
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert code in (0, 1) and not lines, (code, lines)


@FUZZ
@given(json_values | behavior_documents())
def test_check_parses_or_exits_two(tmp_path_factory, document):
    assert_contract(["check"], document, tmp_path_factory.getbasetemp())


@FUZZ
@given(json_values | timeline_documents())
def test_timeline_parses_or_exits_two(tmp_path_factory, document):
    assert_contract(["timeline"], document, tmp_path_factory.getbasetemp())

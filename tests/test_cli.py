"""Command-line surface: exit codes, formats, and reproducibility.

Claims covered:
  - check exits 0 when the requested conditions pass, 1 on a failed check
    (with the 1/2 outcome-independence violation of the parallel singlet),
    and 2 with one "error:" line on malformed input: a table or lambda list
    of the wrong JSON type, a weight that is not a finite JSON number, a
    non-finite or negative tolerance from --tol or LOCALITY_LAB_TOL, a model
    past the cell cap (refused before its stack is allocated), JSON nested
    past the parser's depth, a scenario label field or context of the wrong
    JSON type, a label or context value that is not a JSON string, or a
    `table` of nested lists (behaviour or lambda), a `table` entry that is a
    string, a null, an object or an integer past the float64 range
    (behaviour or lambda; the entry is named before a wrong length), a
    lambda or scenario that is not an object, a lambda without a weight, a
    scenario without `settings_b`, and a timeline entry that is not an
    object or has no `t`; every such line names what it found by its JSON
    type (null, boolean, number, string, array, object) or the key it
    misses, each pinned exactly; a NaN, out-of-range or
    unnormalised table, weights that do not sum to 1 or are negative, a
    table of the wrong size, an empty lambda list, neither table nor lambdas, a missing
    scenario, empty or duplicate setting labels,
    and `--conditions determinism` on unequal outcome lists or with no shared
    setting label; each case has exactly one sweep row, and each
    `contract/*` row a case; timeline, signmodel and chsh --grid hold the same contract on deep
    JSON, a non-list timeline, an event coordinate that is a string or a
    boolean, an event label or role that is not a JSON string (an absent
    one stays empty or "other"), a "region3" slab that is not two finite numbers, non-finite
    angles and a step past the grid-size cap; the error line prints plain
    floats;
  - --tol wins over LOCALITY_LAB_TOL, which is read only without it: a
    malformed LOCALITY_LAB_TOL does not stop `--tol 0.6`, and `--tol -1`
    exits 2 with one line although LOCALITY_LAB_TOL is valid;
  - check's exit code and stdout sha256 are pinned for a behaviour, a
    one-lambda model and a sign-model file, in table, json and csv, for each
    of the five conditions, for `all`, and for all five at --tol 0.3, by the
    sweep row that replays each invocation with no environment and an empty
    stderr; one case per row checks its argv. The note that a
    behaviour's lambda-level checks use the empty hidden variable is printed
    with the table format only, so json stdout parses and csv stdout starts
    with its header;
  - chsh emits the 16-strategy table, the (ceil(2 pi / step) + 1)^2-row
    correlator grid (below 33 MiB of traced allocation at 500 x 500 rows),
    and the optimisation summary;
  - bell1964 reports the canonical negative slack, and perfect
    anticorrelation at equal settings on huge, subnormal and
    12-digit-colliding angle triples;
  - everett prints two branches at theta = 0, the {3/8, 1/8} weight multiset
    near theta = pi/3, and the documented CSV columns;
  - boxes and signmodel render their reports, signmodel finds the six
    strategies of settings 0, 0.785398, 1.570796, and signmodel's JSON and
    CSV stdout over three sampling chunks is pinned by sha256; timeline exits by
    predicate, and a "region3" slab adds one screening row (exit 1 when the
    backward cones touch or overlap at the slab floor, exit 2 when the slab
    is not strictly before both measurements), and classifies measurement
    events 1e200 apart in t or in x;
  - repeated invocations are byte-identical;
  - the argument parser is built once per process: a usage error exits 2
    with its usage on the stderr current at that call, also when the parser
    was built under another stderr, a valid call after a usage error still
    gives the golden stdout bytes, and a `cmd_*` function replaced after the
    parser was built (as a tracer does) is the one that runs;
  - every row of the committed sweep `tests/cli_sweep.json` replays in-process
    to its recorded exit code and stdout and stderr sha256: every subcommand
    in every format, every `check` condition selection on the three input
    kinds, `everett` at 101 angles k pi / 40 (every k from -40 to 40, and
    |k| = 41, 45, 60, 75, 90, 105, 119, 135, 150 and 160, beyond pi, where
    the rotated basis has cos(theta/2) < 0 up to |k| = 119), `chsh --grid`
    at steps 0.5, 0.04, 0.05, 0.065 and 0.0126 (500 angles per axis),
    `signmodel --format json` at n = 4095, 4096, 4097 and 131073 (the edges
    of the sampler's 4096-row block and 2**17-draw chunk), `bell1964` with a
    NaN or infinite angle (exit 2, one `error:` line), the input-contract
    exit-2 cases above and argparse usage errors. On every row's live output, an
    exit-2 row writes nothing to stdout, a `--format json` row that exits 0
    or 1 prints JSON, and a `check --format csv` row starts with its header.
    A file argument is written as
    `{name}` and read from `sweep_inputs()`; stderr names it the same way.
    `PYTHONPATH=src python tests/test_cli.py [row id ...]` re-records the
    named rows, or every row.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from locality_lab import cli
from locality_lab.behavior import behavior_to_dict, from_quantum, model_to_dict, sign_model
from locality_lab.behavior import HiddenVariableModel
from locality_lab.causality import Condition
from locality_lab.cli import main
from locality_lab.qstate import singlet


@pytest.fixture()
def behavior_file(tmp_path):
    b = from_quantum(singlet(), [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4])
    path = tmp_path / "behavior.json"
    path.write_text(json.dumps(behavior_to_dict(b)))
    return str(path)


@pytest.fixture()
def parallel_model_file(tmp_path):
    b = from_quantum(singlet(), [0.0], [0.0])
    model = HiddenVariableModel(b.scenario, [(1.0, b)])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    return str(path)


@pytest.fixture()
def timeline_file(tmp_path):
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(TIMELINES["compared"]))
    return str(path)


class TestCheck:
    def test_no_signalling_passes(self, behavior_file, capsys):
        code = main(["check", "--conditions", "no-signalling", behavior_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "no-signalling" in out and "PASS" in out

    def test_outcome_independence_fails_with_half(self, parallel_model_file, capsys):
        code = main(["check", "--conditions", "outcome-independence", parallel_model_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "max_violation=0.5" in out

    def test_truncated_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": {"settings_a": ["a0"]')
        code = main(["check", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line" in err

    def test_unknown_condition_exits_two(self, behavior_file, capsys):
        assert main(["check", "--conditions", "nonsense", behavior_file]) == 2
        assert "unknown condition" in capsys.readouterr().err

    def test_json_format_carries_reports(self, parallel_model_file, capsys):
        code = main(["check", "--format", "json", parallel_model_file])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["input"] == "model"
        assert {r["condition"] for r in payload["reports"]} == {
            "no-signalling",
            "parameter-independence",
            "outcome-independence",
            "factorizability",
        }

    def test_determinism_json_when_hypotheses_hold(self, tmp_path, capsys):
        # uniform lambda table: factorizable, anticorrelation deficit 1/2 <= tol 1
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps({"scenario": PARALLEL, "lambdas": [{"weight": 1.0, "table": [0.25] * 4}]}))
        code = main(["check", "--conditions", "determinism", "--tol", "1", "--format", "json", str(path)])
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert code == 1
        assert report["passed"] is False and report["max_violation"] == 0.5

    def test_tolerance_flag_respected(self, parallel_model_file, capsys):
        code = main(["check", "--conditions", "outcome-independence", "--tol", "0.6", parallel_model_file])
        capsys.readouterr()
        assert code == 0

    def test_env_tolerance_used(self, parallel_model_file, capsys, monkeypatch):
        monkeypatch.setenv("LOCALITY_LAB_TOL", "0.6")
        code = main(["check", "--conditions", "outcome-independence", parallel_model_file])
        capsys.readouterr()
        assert code == 0

    def test_flag_tolerance_wins_over_a_malformed_env(self, parallel_model_file, capsys, monkeypatch):
        monkeypatch.setenv("LOCALITY_LAB_TOL", "abc")
        code = main(["check", "--tol", "0.6", parallel_model_file])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 4 and "tol=0.6" in out

    def test_negative_flag_tolerance_exits_two_despite_a_valid_env(self, parallel_model_file, capsys, monkeypatch):
        monkeypatch.setenv("LOCALITY_LAB_TOL", "0.6")
        code = main(["check", "--tol", "-1", parallel_model_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == ["error: tolerance (--tol or LOCALITY_LAB_TOL) must be finite and >= 0, got -1.0"]


ALL_FIVE = "no-signalling,parameter-independence,outcome-independence,factorizability,determinism"


def _one_lambda_model() -> dict:
    b = from_quantum(singlet(), [0.0], [0.0])
    return model_to_dict(HiddenVariableModel(b.scenario, [(1.0, b)]))


CHECK_INPUTS = {
    "behavior": lambda: behavior_to_dict(from_quantum(singlet(), [0.0, math.pi / 2], [0.0, math.pi / 4])),
    "one-lambda": _one_lambda_model,
    "sign-model": lambda: model_to_dict(sign_model([0.0, 0.7854, 1.5708], [0.0, 0.7854, 1.5708], 500, 3)[0]),
}
CHECK_SELECTIONS = {
    **{name: ["--conditions", name] for name in ALL_FIVE.split(",")},
    "all": ["--conditions", "all"],
    "all-five-tol-0.3": ["--conditions", ALL_FIVE, "--tol", "0.3"],
}


class TestCheckPinned:
    """`check` over every input kind, condition selection and format has one sweep row, ``check/<key>``.

    The row runs the invocation with no environment of its own, and its
    replay pins the exit code and stdout bytes; here each row only has to
    exist with that argv and an empty stderr, so no invocation runs twice.
    """

    @pytest.mark.parametrize("key", ["/".join(k) for k in itertools.product(CHECK_INPUTS, CHECK_SELECTIONS, ("table", "json", "csv"))])
    def test_stdout_pinned(self, key):
        inp, selection, fmt = key.split("/")
        (row,) = [row for row in SWEEP if row["id"] == f"check/{key}"]
        assert row["argv"] == ["check", *CHECK_SELECTIONS[selection], "--format", fmt, f"{{check-{inp}}}"]
        assert row["env"] == {} and row["stderr_sha256"] == hashlib.sha256(b"").hexdigest()

    def test_checker_table_follows_the_condition_order(self):
        # the unknown-condition error lists the known names in this order
        assert list(cli._CHECKS) == [c.value for c in Condition]


PARALLEL = {"settings_a": ["0"], "settings_b": ["0"]}
WIDE = {"settings_a": [str(k) for k in range(1000)], "settings_b": [str(k) for k in range(1000)]}
ANTI = [0.0, 0.5, 0.5, 0.0]
WINGS = {
    "timeline": [
        {"t": 2, "x": -2, "role": "measurement-a", "label": "A"},
        {"t": 2, "x": 2, "role": "measurement-b", "label": "B"},
    ]
}


def _model(*weights):
    return {"scenario": PARALLEL, "lambdas": [{"weight": w, "table": ANTI} for w in weights]}


# id: (argv, input file text or None, environment); each ends in exit 2 with one "error:" line
CONTRACT_CASES = {
    "table-object": (["check"], json.dumps({"scenario": PARALLEL, "table": {"x": 1}}), {}),
    "table-strings": (["check"], json.dumps({"scenario": PARALLEL, "table": ["x", 0.5, 0.5, 0.0]}), {}),
    "table-nested": (["check"], json.dumps({"scenario": PARALLEL, "table": [[0.0, 0.5], [0.5, 0.0]]}), {}),
    "lambdas-int": (["check"], json.dumps({"scenario": PARALLEL, "lambdas": 5}), {}),
    "lambda-table-number": (["check"], json.dumps({"scenario": PARALLEL, "lambdas": [{"weight": 1.0, "table": 0.25}]}), {}),
    "lambda-table-nested": (["check"], json.dumps({"scenario": PARALLEL, "lambdas": [{"weight": 1.0, "table": [ANTI[:2], ANTI[2:]]}]}), {}),
    "nan-weight": (["check", "--conditions", "parameter-independence"], json.dumps(_model(float("nan"), 1.0)), {}),
    "inf-weight": (["check"], json.dumps(_model(float("inf"), 1.0)), {}),
    "minus-inf-weight": (["check"], json.dumps(_model(1.0, float("-inf"))), {}),
    "env-tol-nan": (["check"], json.dumps(_model(1.0)), {"LOCALITY_LAB_TOL": "nan"}),
    "tol-negative": (["check", "--tol", "-1"], json.dumps(_model(1.0)), {}),
    "tol-inf": (["check", "--tol", "inf"], json.dumps(_model(1.0)), {}),
    "settings-string": (["check"], json.dumps({"scenario": dict(PARALLEL, settings_a="ab"), "table": ANTI * 2}), {}),
    "context-string": (["check"], json.dumps({"scenario": dict(PARALLEL, context="lab"), "table": ANTI}), {}),
    "weight-string": (["check"], json.dumps(_model("1")), {}),
    "weight-bool": (["check"], json.dumps(_model(True)), {}),
    "scenario-label-bool": (["check"], json.dumps({"scenario": dict(PARALLEL, settings_a=[True]), "table": ANTI}), {}),
    "scenario-label-null": (["check"], json.dumps({"scenario": dict(PARALLEL, settings_b=[None]), "table": ANTI}), {}),
    "context-list": (["check"], json.dumps({"scenario": dict(PARALLEL, context={"k": [1, 2]}), "table": ANTI}), {}),
    "timeline-int": (["timeline"], json.dumps({"timeline": 5}), {}),
    "region3-string": (["timeline"], json.dumps(dict(WINGS, region3="0,1")), {}),
    "region3-three-numbers": (["timeline"], json.dumps(dict(WINGS, region3=[0, 0.5, 1])), {}),
    "region3-bool": (["timeline"], json.dumps(dict(WINGS, region3=[True, 0.5])), {}),
    "region3-huge-int": (["timeline"], json.dumps(dict(WINGS, region3=[10**400, 0.5])), {}),
    "region3-nan": (["timeline"], json.dumps(dict(WINGS, region3=[float("nan"), 0.5])), {}),
    "coordinate-string": (["timeline"], json.dumps({"timeline": [dict(WINGS["timeline"][0], t="1"), WINGS["timeline"][1]]}), {}),
    "coordinate-bool": (["timeline"], json.dumps({"timeline": [dict(WINGS["timeline"][0], x=True), WINGS["timeline"][1]]}), {}),
    "label-bool": (["timeline"], json.dumps({"timeline": [dict(WINGS["timeline"][0], label=True), WINGS["timeline"][1]]}), {}),
    "label-object": (["timeline"], json.dumps({"timeline": [dict(WINGS["timeline"][0], label={"k": [1]}), WINGS["timeline"][1]]}), {}),
    "role-number": (["timeline"], json.dumps({"timeline": [dict(WINGS["timeline"][0], role=5), WINGS["timeline"][1]]}), {}),
    "timeline-entry-number": (["timeline"], json.dumps({"timeline": [5, WINGS["timeline"][1]]}), {}),
    "timeline-entry-without-t": (["timeline"], json.dumps({"timeline": [{"x": -2, "role": "measurement-a"}, WINGS["timeline"][1]]}), {}),
    "signmodel-nan-angle": (["signmodel", "--n", "100", "--seed", "1", "--settings", "0,nan"], None, {}),
    "signmodel-inf-angle": (["signmodel", "--n", "100", "--seed", "1", "--settings", "0,inf"], None, {}),
    "grid-over-row-cap": (["chsh", "--grid", "--step", "0.006"], None, {}),
    "grid-step-subnormal": (["chsh", "--grid", "--step", "5e-324"], None, {}),
    "classical-format-json": (["chsh", "--classical", "--format", "json"], None, {}),
    "grid-format-json": (["chsh", "--grid", "--format", "json"], None, {}),
    # 10,000 lambdas of 1,000 x 1,000 settings: a 298 GiB stack, refused before allocation
    "model-over-cell-cap": (["check"], json.dumps({"scenario": WIDE, "lambdas": [{}] * 10_000}), {}),
    "check-deep-json": (["check"], "[" * 100_000, {}),
    "timeline-deep-json": (["timeline"], "[" * 100_000, {}),
    "table-nan-entry": (["check"], json.dumps({"scenario": PARALLEL, "table": [float("nan"), 0.5, 0.5, 0.0]}), {}),
    "table-numeric-string": (["check"], json.dumps({"scenario": PARALLEL, "table": ["0", 0.5, 0.5, 0.0]}), {}),
    "table-null-entry": (["check"], json.dumps({"scenario": PARALLEL, "table": [0.0, 0.5, 0.5, None]}), {}),
    "table-object-entry": (["check"], json.dumps({"scenario": PARALLEL, "table": [0.0, {}, 0.5, 0.0]}), {}),
    "table-short-with-string": (["check"], json.dumps({"scenario": PARALLEL, "table": ["0.5", 0.5]}), {}),
    "lambda-table-numeric-string": (
        ["check"],
        json.dumps({"scenario": PARALLEL, "lambdas": [{"weight": 1.0, "table": ["0", "0.5", "0.5", "0"]}]}),
        {},
    ),
    "lambda-table-null-entry": (
        ["check"],
        json.dumps({"scenario": PARALLEL, "lambdas": [{"weight": 0.5, "table": ANTI}, {"weight": 0.5, "table": [0.0, 0.5, 0.5, None]}]}),
        {},
    ),
    "lambda-table-huge-int": (["check"], json.dumps({"scenario": PARALLEL, "lambdas": [{"weight": 1.0, "table": [10**400, 0, 0, 0]}]}), {}),
    "table-entry-out-of-range": (["check"], json.dumps({"scenario": PARALLEL, "table": [-0.5, 1.0, 0.5, 0.0]}), {}),
    "table-unnormalised": (["check"], json.dumps({"scenario": PARALLEL, "table": [0.25, 0.5, 0.5, 0.5]}), {}),
    "weights-sum-half": (["check"], json.dumps(_model(0.25, 0.25)), {}),
    "weight-negative": (["check"], json.dumps(_model(-0.5, 1.5)), {}),
    "table-wrong-size": (["check"], json.dumps({"scenario": PARALLEL, "table": ANTI[:3]}), {}),
    "lambda-table-wrong-size": (["check"], json.dumps({"scenario": PARALLEL, "lambdas": [{"weight": 1.0, "table": ANTI * 2}]}), {}),
    "lambda-without-weight": (["check"], json.dumps({"scenario": PARALLEL, "lambdas": [{"table": ANTI}]}), {}),
    "lambda-not-object": (["check"], json.dumps({"scenario": PARALLEL, "lambdas": [5]}), {}),
    "lambdas-empty": (["check"], json.dumps({"scenario": PARALLEL, "lambdas": []}), {}),
    "neither-table-nor-lambdas": (["check"], json.dumps({"scenario": PARALLEL}), {}),
    "scenario-absent": (["check"], json.dumps({"table": ANTI}), {}),
    "scenario-list": (["check"], json.dumps({"scenario": [["0"], ["0"]], "table": ANTI}), {}),
    "settings-b-absent": (["check"], json.dumps({"scenario": {"settings_a": ["0"]}, "table": ANTI}), {}),
    "settings-empty": (["check"], json.dumps({"scenario": dict(PARALLEL, settings_a=[]), "table": []}), {}),
    "settings-duplicate": (["check"], json.dumps({"scenario": dict(PARALLEL, settings_b=["0", "0"]), "table": ANTI * 2}), {}),
    "determinism-unequal-outcomes": (
        ["check", "--conditions", "determinism"],
        json.dumps({"scenario": dict(PARALLEL, outcomes_a=["x", "y", "z"]), "table": [0.0, 0.5, 0.5, 0.0, 0.0, 0.0]}),
        {},
    ),
    "determinism-no-shared-setting": (
        ["check", "--conditions", "determinism"],
        json.dumps({"scenario": dict(PARALLEL, settings_b=["1"]), "table": ANTI}),
        {},
    ),
}


class TestInputContract:
    @pytest.mark.parametrize("argv, payload, env", CONTRACT_CASES.values(), ids=list(CONTRACT_CASES))
    def test_exits_two_with_one_error_line(self, argv, payload, env, tmp_path, capsys, monkeypatch):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        if payload is not None:
            path = tmp_path / "input.json"
            path.write_text(payload)
            argv = [*argv, str(path)]
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "table, text",
        [([0.25, 0.5, 0.5, 0.5], "sums to 1.75 at (a='0', b='0'); deficit 0.75"), ([-0.01, 0.5, 0.5, 0.01], "): -0.01")],
        ids=["unnormalised", "negative"],
    )
    def test_error_line_prints_plain_numbers(self, table, text, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"scenario": PARALLEL, "lambdas": [{"weight": 1.0, "table": table}]}))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(text + "\n") and "np." not in err

    @pytest.mark.parametrize(
        "case, text",
        [
            ("table-numeric-string", "table entry 0 must be a JSON number, got string"),
            ("table-null-entry", "table entry 3 must be a JSON number, got null"),
            ("lambda-table-numeric-string", "lambda 0 table entry 0 must be a JSON number, got string"),
            ("lambda-table-null-entry", "lambda 1 table entry 3 must be a JSON number, got null"),
            ("table-object", "table must be an array of numbers, got object"),
            ("table-strings", "table entry 0 must be a JSON number, got string"),
            ("table-nested", "table entry 0 must be a JSON number, got array"),
            ("lambdas-int", "'lambdas' must be an array of objects, got number"),
            ("lambda-table-number", "lambda 0 table must be an array of numbers, got number"),
            ("lambda-table-nested", "lambda 0 table entry 0 must be a JSON number, got array"),
            ("settings-string", "scenario field 'settings_a' must be a JSON array, got string"),
            ("context-string", "scenario field 'context' must be a JSON object, got string"),
            ("scenario-label-bool", "scenario field 'settings_a' must hold JSON strings, got boolean"),
            ("scenario-label-null", "scenario field 'settings_b' must hold JSON strings, got null"),
            ("context-list", "scenario field 'context' must hold JSON strings, got array"),
            ("table-object-entry", "table entry 1 must be a JSON number, got object"),
            ("lambda-table-huge-int", "lambda 0 table entry 0 must be a JSON number, got an integer outside the float64 range"),
            ("table-short-with-string", "table entry 0 must be a JSON number, got string"),
            ("lambda-not-object", "lambda entry 0 must be a JSON object, got number"),
            ("lambda-without-weight", "lambda entry 0 has no 'weight'"),
            ("scenario-list", "scenario must be a JSON object, got array"),
            ("settings-b-absent", "scenario has no 'settings_b'"),
            ("timeline-entry-number", "timeline entry 0 must be a JSON object, got number"),
            ("timeline-entry-without-t", "timeline entry 0 has no 't'"),
        ],
    )
    def test_error_line_names_the_entry_json_type(self, case, text, tmp_path, capsys):
        argv, payload, _ = CONTRACT_CASES[case]
        path = tmp_path / "input.json"
        path.write_text(payload)
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {text}\n"


class TestChsh:
    def test_classical_enumeration(self, capsys):
        assert main(["chsh", "--classical"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 18  # header + 16 strategies + bound line
        assert "max |S| = 2" in out[-1]

    def test_grid_row_count(self, capsys):
        assert main(["chsh", "--grid", "--step", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        expected = (math.ceil(2 * math.pi / 0.1) + 1) ** 2
        assert lines[0] == "a,b,E"
        assert len(lines) - 1 == expected == 4096

    def test_grid_peak_memory_at_500_angles(self, capsys):
        # 500 x 500 rows: a (500, 500, 2, 2) Born table of 7.6 MiB and 8.1 MiB of
        # CSV text (captured once more as bytes), but never one string object per row.
        argv = ["chsh", "--grid", "--step", "0.0126"]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("\n") == 500 * 500 + 1
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 33 * 2**20

    def test_optimize_reports_tsirelson_value(self, capsys):
        assert main(["chsh", "--optimize"]) == 0
        out = capsys.readouterr().out
        assert "|S| = 2.82842712" in out

    def test_modes_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chsh", "--optimize", "--classical"])
        assert excinfo.value.code == 2


class TestBell1964:
    def test_canonical_triple(self, capsys):
        code = main(["bell1964", "--a", "0", "--b", str(math.pi / 3), "--c", str(2 * math.pi / 3)])
        out = capsys.readouterr().out
        assert code == 0
        assert "slack = -0.5" in out and "VIOLATED" in out

    @pytest.mark.parametrize(
        "a, b, c",
        [
            ("1e300", "-1e300", "0"),
            ("-1.7976931348623157e308", "1.7976931348623157e308", "5e-324"),
            ("5e-324", "-5e-324", "0"),
            ("0.1", "0.1000000000001", "0.2"),  # equal labels at 12 digits
        ],
        ids=["huge", "near-max", "subnormal", "labels-collide"],
    )
    def test_anticorrelation_holds_on_extreme_and_colliding_triples(self, a, b, c, capsys):
        # the CLI gives the singlet one triple on both wings, so E(s, s) = -1 at every setting
        code = main(["bell1964", f"--a={a}", f"--b={b}", f"--c={c}", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["anticorrelation_ok"] is True


class TestEverett:
    def test_theta_zero_two_branches(self, capsys):
        assert main(["everett", "--theta", "0"]) == 0
        out = capsys.readouterr().out
        final_rows = [line for line in out.split("\n") if line.startswith("measurement-b")]
        assert len(final_rows) == 2

    def test_pi_third_weights(self, capsys):
        assert main(["everett", "--theta", "1.0472", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        last = payload["stages"][-1]
        weights = sorted(b["weight"] for b in last["branches"])
        assert weights == pytest.approx([1 / 8, 1 / 8, 3 / 8, 3 / 8], abs=1e-4)

    def test_csv_columns(self, capsys):
        assert main(["everett", "--theta", "0.5", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "stage,m_A,s1,s2,m_B,C,re,im,weight"
        assert all(len(line.split(",")) == 9 for line in lines)


class TestBoxes:
    def test_reports_oi_violation(self, capsys):
        assert main(["boxes"]) == 0
        out = capsys.readouterr().out
        assert "P(found,found) = 0" in out
        assert "outcome-independence" in out and "FAIL" in out


class TestSignModel:
    def test_table_output(self, capsys):
        code = main(["signmodel", "--n", "20000", "--seed", "3", "--settings", "0,0.785398"])
        out = capsys.readouterr().out
        assert code == 0
        assert "E" in out and "expected" in out

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "e27ccb5ad7fdc1e8ad74c9b9b01830902758f4e7842b67e85282b3fdc57fa02b"),
            ("csv", "3b698168e6a8efb6a47509eefc1c357ec3ecfbb30eaebdf3e6bb8978c9099e76"),
        ],
    )
    def test_stdout_pinned_across_three_chunks(self, fmt, digest, capsys):
        # 262150 = 2 * 2**17 + 6 samples: two full chunks and a remainder.
        argv = ["signmodel", "--n", "262150", "--seed", "7", "--settings", "0,0.785398,1.570796,2.4"]
        assert main(argv + ["--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_six_strategies_at_three_settings(self, capsys):
        # The exact ensemble (tests/test_behavior.py) is four sectors at 1/8 and two at 1/4.
        assert main(["signmodel", "--n", "20000", "--seed", "3", "--settings", "0,0.785398,1.570796", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_lambdas"] == 6

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["signmodel", "--n", "100", "--settings", "0"])
        assert excinfo.value.code == 2


class TestTimeline:
    def test_valid_layout_exits_zero(self, timeline_file, capsys):
        assert main(["timeline", timeline_file]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_failing_predicate_exits_one(self, tmp_path, capsys):
        path = tmp_path / "early.json"
        path.write_text(json.dumps(TIMELINES["early-comparison"]))
        assert main(["timeline", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "slab, code, row",
        [
            ([0.5, 1], 0, "region3-screens                  PASS  backward cones at t=0.5: A [-3.5, -0.5], B [0.5, 3.5]"),
            ([0, 1], 1, "region3-screens                  FAIL  backward cones at t=0: A [-4, 0], B [0, 4]"),
            ([-0.5, 0.5], 1, "region3-screens                  FAIL  backward cones at t=-0.5: A [-4.5, 0.5], B [-0.5, 4.5]"),
        ],
        ids=["screened", "touching", "overlapping"],
    )
    def test_region3_row(self, slab, code, row, tmp_path, capsys):
        path = tmp_path / "region3.json"
        path.write_text(json.dumps(dict(WINGS, region3=slab)))
        assert main(["timeline", str(path)]) == code
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("measurements-spacelike") and "PASS" in out[0]
        assert out[1:] == [row]

    @pytest.mark.parametrize("slab", [[1, 2], [1, 2.5], [2, 3]], ids=["ceiling-at-measurement", "ceiling-after", "slab-after"])
    def test_region3_slab_not_before_measurements_exits_two(self, slab, tmp_path, capsys):
        path = tmp_path / "region3.json"
        path.write_text(json.dumps(dict(WINGS, region3=slab)))
        assert main(["timeline", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: slab ceiling") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "a_event, code, verdict",
        [({"t": 1e200, "x": -2}, 1, "FAIL  interval(A, B) = timelike"),
         ({"t": 2, "x": -1e200}, 0, "PASS  interval(A, B) = spacelike")],
        ids=["t-1e200", "x-1e200"],
    )
    def test_coordinates_past_square_range(self, a_event, code, verdict, tmp_path, capsys):
        # (dt)^2 or (dx)^2 exceeds the float range; the class must still be right.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"timeline": [dict(WINGS["timeline"][0], **a_event), WINGS["timeline"][1]]}))
        assert main(["timeline", str(path)]) == code
        assert capsys.readouterr().out == f"{'measurements-spacelike':<32} {verdict}\n"

    @pytest.mark.parametrize(
        "field, key",
        [({"label": True}, "label"), ({"label": {"k": [1]}}, "label"), ({"label": None}, "label"),
         ({"role": 5}, "role"), ({"role": ["measurement-a"]}, "role")],
        ids=["label-bool", "label-object", "label-null", "role-number", "role-list"],
    )
    def test_label_and_role_must_be_strings(self, field, key, tmp_path, capsys):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"timeline": [dict(WINGS["timeline"][0], **field), WINGS["timeline"][1]]}))
        assert main(["timeline", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed timeline entry 0: {key!r} must be a string\n"

    def test_absent_label_and_role_default(self, tmp_path, capsys):
        # An absent label is empty, so the row names the wings; an absent role is "other".
        events = [{"t": 2, "x": -2, "role": "measurement-a"}, {"t": 2, "x": 2, "role": "measurement-b"}, {"t": 0, "x": 9}]
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"timeline": events}))
        assert main(["timeline", str(path)]) == 0
        assert capsys.readouterr().out == f"{'measurements-spacelike':<32} PASS  interval(A, B) = spacelike\n"

    def test_bad_role_exits_two(self, tmp_path, capsys):
        path = tmp_path / "roles.json"
        path.write_text(json.dumps({"timeline": [{"t": 0, "x": 0, "role": "wizard"}]}))
        assert main(["timeline", str(path)]) == 2


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chsh", "--classical"],
            ["everett", "--theta", "1.0472"],
            ["signmodel", "--n", "5000", "--seed", "9", "--settings", "0,1.0"],
            ["boxes", "--format", "json"],
        ],
    )
    def test_byte_identical_runs(self, argv, capsys):
        assert main(argv) == 0
        first = capsys.readouterr().out.encode()
        assert main(argv) == 0
        second = capsys.readouterr().out.encode()
        assert first == second


class TestParser:
    GOLDENS = json.loads((Path(__file__).resolve().parent.parent / "bench" / "goldens.json").read_text(encoding="utf-8"))

    def test_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_command_replaced_after_the_parser_was_built_is_the_one_run(self, monkeypatch):
        cli._build_parser()
        monkeypatch.setattr(cli, "cmd_boxes", lambda args: 7)
        assert main(["boxes"]) == 7

    def test_usage_error_goes_to_the_stderr_of_the_call(self):
        cli._build_parser.cache_clear()
        at_build, at_call = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(at_build):
            cli._build_parser()
        with contextlib.redirect_stderr(at_call), pytest.raises(SystemExit) as exc:
            main(["everett"])
        assert exc.value.code == 2
        assert at_build.getvalue() == ""
        assert at_call.getvalue().startswith("usage: locality-lab everett")
        assert "the following arguments are required: --theta" in at_call.getvalue()

    @pytest.mark.parametrize("bad", [["everett"], ["everett", "--theta", "0", "--format", "xml"], ["nope"]])
    def test_valid_call_after_usage_error_matches_golden(self, bad, capsys):
        with pytest.raises(SystemExit):
            main(bad)
        capsys.readouterr()
        (entry,) = [e for e in self.GOLDENS["invocations"] if e["argv"] == ["everett", "--theta", "0"]]
        assert main(entry["argv"]) == entry["exit"]
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == entry["stdout_sha256"]


# -- the committed byte sweep ---------------------------------------------------------

SWEEP_FILE = Path(__file__).with_name("cli_sweep.json")
SWEEP = json.loads(SWEEP_FILE.read_text(encoding="utf-8"))
TIMELINES = {
    "compared": {
        "timeline": [
            {"t": 1, "x": -2, "role": "measurement-a", "label": "A"},
            {"t": 1, "x": 2, "role": "measurement-b", "label": "B"},
            {"t": 4, "x": 0, "role": "comparison", "label": "C"},
        ]
    },
    "early-comparison": {
        "timeline": [
            {"t": 1, "x": -2, "role": "measurement-a"},
            {"t": 1, "x": 2, "role": "measurement-b"},
            {"t": 2, "x": 0, "role": "comparison"},
        ]
    },
    "wings": WINGS,
    "region3-screened": dict(WINGS, region3=[0.5, 1]),
    "region3-touching": dict(WINGS, region3=[0, 1]),
    "region3-after": dict(WINGS, region3=[2, 3]),
    "far-in-t": {"timeline": [dict(WINGS["timeline"][0], t=1e200), WINGS["timeline"][1]]},
}


@functools.cache
def sweep_inputs() -> dict[str, str]:
    """Input file text of the sweep, by the name that a row's argv gives in braces."""
    files = {f"check-{name}": json.dumps(build()) for name, build in CHECK_INPUTS.items()}
    files |= {f"timeline-{name}": json.dumps(obj) for name, obj in TIMELINES.items()}
    files |= {f"contract-{name}": payload for name, (_, payload, _) in CONTRACT_CASES.items() if payload is not None}
    return files | {"truncated": '{"scenario": '}


def run_row(row: dict, workdir: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one sweep row run in-process.

    An argv entry ``{name}`` is the path of that input file, written to
    ``workdir``; stderr names it as ``{name}`` again, so its bytes do not
    depend on where the file was written. The environment holds the row's
    variables and no LOCALITY_LAB_TOL of its own.
    """
    paths = {arg: workdir / f"{arg[1:-1]}.json" for arg in row["argv"] if arg.startswith("{")}
    for arg, path in paths.items():
        path.write_text(sweep_inputs()[arg[1:-1]], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, row["env"]), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if "LOCALITY_LAB_TOL" not in row["env"]:
            os.environ.pop("LOCALITY_LAB_TOL", None)
        try:
            code = main([str(paths.get(arg, arg)) for arg in row["argv"]])
        except SystemExit as exc:
            code = exc.code
    stderr = err.getvalue()
    for arg, path in paths.items():
        stderr = stderr.replace(str(path), arg)
    return code, out.getvalue(), stderr


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay(row: dict, workdir: Path) -> dict:
    """Exit code and stdout/stderr sha256 of one sweep row run in-process."""
    code, out, err = run_row(row, workdir)
    return {"exit": code, "stdout_sha256": sha256(out), "stderr_sha256": sha256(err)}


@pytest.mark.parametrize("row", SWEEP, ids=[row["id"] for row in SWEEP])
def test_sweep_row_replays_its_recorded_bytes(row, tmp_path):
    code, out, err = run_row(row, tmp_path)
    assert (code, sha256(out), sha256(err)) == (row["exit"], row["stdout_sha256"], row["stderr_sha256"])
    # the live stdout keeps the contract of its format
    argv = row["argv"]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    if code == 2:
        assert out == ""
    elif fmt == "json":
        json.loads(out)
    elif fmt == "csv" and argv[0] == "check":
        assert out.startswith("condition,passed,")


def test_contract_cases_and_sweep_rows_match():
    """Each input-contract case has exactly one sweep row, and each contract row a case."""
    for name, (argv, payload, env) in CONTRACT_CASES.items():
        expected = argv if payload is None else [*argv, f"{{contract-{name}}}"]
        assert [row["id"] for row in SWEEP if (row["argv"], row["env"]) == (expected, env)] == [f"contract/{name}"]
    rows = {row["id"] for row in SWEEP if row["id"].startswith("contract/")}
    assert rows <= {f"contract/{name}" for name in CONTRACT_CASES}


def record_sweep(ids: list[str]) -> None:
    """Re-record the results of the named sweep rows, or of every row when none is named."""
    unknown = set(ids) - {row["id"] for row in SWEEP}
    if unknown:
        raise SystemExit(f"no sweep rows named {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as workdir:
        for row in SWEEP:
            if not ids or row["id"] in ids:
                row.update(replay(row, Path(workdir)))
    SWEEP_FILE.write_text("[\n" + ",\n".join(json.dumps(row) for row in SWEEP) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":  # PYTHONPATH=src python tests/test_cli.py [row id ...]
    record_sweep(sys.argv[1:])

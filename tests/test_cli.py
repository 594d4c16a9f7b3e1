"""Command-line surface: exit codes, formats, and reproducibility.

Claims covered:
  - check exits 0 when the requested conditions pass, 1 on a failed check
    (with the 1/2 outcome-independence violation of the parallel singlet),
    and 2 with one "error:" line on malformed input: a table or lambda list
    of the wrong JSON type, a weight that is not a finite JSON number, a
    non-finite or negative tolerance from --tol or LOCALITY_LAB_TOL, a model
    past the cell cap (refused before its stack is allocated), JSON nested
    past the parser's depth, a scenario label field or context of the wrong
    JSON type, or a label or context value that is not a JSON string; timeline, signmodel and chsh --grid hold the same contract on deep
    JSON, a non-list timeline, an event coordinate that is a string or a
    boolean, an event label or role that is not a JSON string (an absent
    one stays empty or "other"), a "region3" slab that is not two finite numbers, non-finite
    angles and a step past the grid-size cap; the error line prints plain
    floats;
  - chsh emits the 16-strategy table, the (ceil(2 pi / step) + 1)^2-row
    correlator grid (below 33 MiB of traced allocation at 500 x 500 rows),
    and the optimisation summary;
  - bell1964 reports the canonical negative slack;
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
    parser was built (as a tracer does) is the one that runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from locality_lab import cli
from locality_lab.behavior import behavior_to_dict, from_quantum, model_to_dict
from locality_lab.behavior import HiddenVariableModel
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
    payload = {
        "timeline": [
            {"t": 1, "x": -2, "role": "measurement-a", "label": "A"},
            {"t": 1, "x": 2, "role": "measurement-b", "label": "B"},
            {"t": 4, "x": 0, "role": "comparison", "label": "C"},
        ]
    }
    path = tmp_path / "timeline.json"
    path.write_text(json.dumps(payload))
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


class TestInputContract:
    @pytest.mark.parametrize(
        "argv, payload, env",
        [
            (["check"], json.dumps({"scenario": PARALLEL, "table": {"x": 1}}), {}),
            (["check"], json.dumps({"scenario": PARALLEL, "table": ["x", 0.5, 0.5, 0.0]}), {}),
            (["check"], json.dumps({"scenario": PARALLEL, "lambdas": 5}), {}),
            (["check"], json.dumps({"scenario": PARALLEL, "lambdas": [{"weight": 1.0, "table": 0.25}]}), {}),
            (["check", "--conditions", "parameter-independence"], json.dumps(_model(float("nan"), 1.0)), {}),
            (["check"], json.dumps(_model(float("inf"), 1.0)), {}),
            (["check"], json.dumps(_model(1.0, float("-inf"))), {}),
            (["check"], json.dumps(_model(1.0)), {"LOCALITY_LAB_TOL": "nan"}),
            (["check", "--tol", "-1"], json.dumps(_model(1.0)), {}),
            (["check", "--tol", "inf"], json.dumps(_model(1.0)), {}),
            (["check"], json.dumps({"scenario": dict(PARALLEL, settings_a="ab"), "table": ANTI * 2}), {}),
            (["check"], json.dumps({"scenario": dict(PARALLEL, context="lab"), "table": ANTI}), {}),
            (["check"], json.dumps(_model("1")), {}),
            (["check"], json.dumps(_model(True)), {}),
            (["check"], json.dumps({"scenario": dict(PARALLEL, settings_a=[True]), "table": ANTI}), {}),
            (["check"], json.dumps({"scenario": dict(PARALLEL, settings_b=[None]), "table": ANTI}), {}),
            (["check"], json.dumps({"scenario": dict(PARALLEL, context={"k": [1, 2]}), "table": ANTI}), {}),
            (["timeline"], json.dumps({"timeline": 5}), {}),
            (["timeline"], json.dumps(dict(WINGS, region3="0,1")), {}),
            (["timeline"], json.dumps(dict(WINGS, region3=[0, 0.5, 1])), {}),
            (["timeline"], json.dumps(dict(WINGS, region3=[True, 0.5])), {}),
            (["timeline"], json.dumps(dict(WINGS, region3=[10**400, 0.5])), {}),
            (["timeline"], json.dumps(dict(WINGS, region3=[float("nan"), 0.5])), {}),
            (["timeline"], json.dumps({"timeline": [dict(WINGS["timeline"][0], t="1"), WINGS["timeline"][1]]}), {}),
            (["timeline"], json.dumps({"timeline": [dict(WINGS["timeline"][0], x=True), WINGS["timeline"][1]]}), {}),
            (["timeline"], json.dumps({"timeline": [dict(WINGS["timeline"][0], label=True), WINGS["timeline"][1]]}), {}),
            (["timeline"], json.dumps({"timeline": [dict(WINGS["timeline"][0], label={"k": [1]}), WINGS["timeline"][1]]}), {}),
            (["timeline"], json.dumps({"timeline": [dict(WINGS["timeline"][0], role=5), WINGS["timeline"][1]]}), {}),
            (["signmodel", "--n", "100", "--seed", "1", "--settings", "0,nan"], None, {}),
            (["signmodel", "--n", "100", "--seed", "1", "--settings", "0,inf"], None, {}),
            (["chsh", "--grid", "--step", "0.006"], None, {}),
            (["chsh", "--grid", "--step", "5e-324"], None, {}),
            (["chsh", "--classical", "--format", "json"], None, {}),
            (["chsh", "--grid", "--format", "json"], None, {}),
            # 10,000 lambdas of 1,000 x 1,000 settings: a 298 GiB stack, refused before allocation
            (["check"], json.dumps({"scenario": WIDE, "lambdas": [{}] * 10_000}), {}),
            (["check"], "[" * 100_000, {}),
            (["timeline"], "[" * 100_000, {}),
        ],
        ids=[
            "table-object",
            "table-strings",
            "lambdas-int",
            "lambda-table-number",
            "nan-weight",
            "inf-weight",
            "minus-inf-weight",
            "env-tol-nan",
            "tol-negative",
            "tol-inf",
            "settings-string",
            "context-string",
            "weight-string",
            "weight-bool",
            "scenario-label-bool",
            "scenario-label-null",
            "context-list",
            "timeline-int",
            "region3-string",
            "region3-three-numbers",
            "region3-bool",
            "region3-huge-int",
            "region3-nan",
            "coordinate-string",
            "coordinate-bool",
            "label-bool",
            "label-object",
            "role-number",
            "signmodel-nan-angle",
            "signmodel-inf-angle",
            "grid-over-row-cap",
            "grid-step-subnormal",
            "classical-format-json",
            "grid-format-json",
            "model-over-cell-cap",
            "check-deep-json",
            "timeline-deep-json",
        ],
    )
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
        payload = {
            "timeline": [
                {"t": 1, "x": -2, "role": "measurement-a"},
                {"t": 1, "x": 2, "role": "measurement-b"},
                {"t": 2, "x": 0, "role": "comparison"},
            ]
        }
        path = tmp_path / "early.json"
        path.write_text(json.dumps(payload))
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

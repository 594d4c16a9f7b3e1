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
    `table` of nested lists (behaviour or lambda); timeline, signmodel and chsh --grid hold the same contract on deep
    JSON, a non-list timeline, an event coordinate that is a string or a
    boolean, an event label or role that is not a JSON string (an absent
    one stays empty or "other"), a "region3" slab that is not two finite numbers, non-finite
    angles and a step past the grid-size cap; the error line prints plain
    floats;
  - --tol wins over LOCALITY_LAB_TOL, which is read only without it: a
    malformed LOCALITY_LAB_TOL does not stop `--tol 0.6`, and `--tol -1`
    exits 2 with one line although LOCALITY_LAB_TOL is valid;
  - check's exit code and stdout sha256, recorded before the checker table
    and the tolerance reader were rewritten, are pinned for a behaviour, a
    one-lambda model and a sign-model file, in table, json and csv, for each
    of the five conditions, for `all`, and for all five at --tol 0.3; each pin
    equals the sweep row that replays the invocation;
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
    parser was built (as a tracer does) is the one that runs;
  - every row of the committed sweep `tests/cli_sweep.json` replays in-process
    to its recorded exit code and stdout and stderr sha256: every subcommand
    in every format, every `check` condition selection on the three input
    kinds, `everett` at 81 angles k pi / 40, `chsh --grid` at steps 0.5, 0.04,
    0.05, 0.065 and 0.0126 (500 angles per axis), `signmodel --format json`
    at n = 4095, 4096, 4097 and 131073 (the edges of the sampler's 4096-row
    block and 2**17-draw chunk), the input-contract exit-2
    cases above and argparse usage errors. A file argument is written as
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
    """`check` exit code and stdout sha256 for every input kind, condition selection and format.

    The pins were recorded before the checker table and the tolerance reader
    were rewritten. The sweep row ``check/<key>`` runs each invocation and
    replays its recorded bytes; here each pin only has to equal that row, so
    a re-recorded row cannot drift from its pin and no invocation runs twice.
    """

    PINS = {
        "behavior/no-signalling/table": (0, "6d3c7998695c4399eea332113b50a8baa839935648c8eb623a26de4c504902f1"),
        "behavior/no-signalling/json": (0, "9fe6b7ff1ad5a27c80a018490e2c0d8a7ce26da292e8ceb57843d4e7b0b9aaab"),
        "behavior/no-signalling/csv": (0, "59b179d457e043d8c160b481c5ecad2fc58cda47f89664bd289781d128b29fd5"),
        "behavior/parameter-independence/table": (0, "e887ccc5dbb8c4de36ee32ca20a0ea56896ae8cd3e302a3d8a720b02fd983ae0"),
        "behavior/parameter-independence/json": (0, "fea1f87a494038b21c9698421c9608b7d6d300863198da11e3871ce7d364a86e"),
        "behavior/parameter-independence/csv": (0, "bb9e9f09bbf4936f65a02f36b9fa4978ede60de440eb97c6a81a116ea503906a"),
        "behavior/outcome-independence/table": (1, "f082533274aace80e4fe6a908ccafbf0f3169fbd10c895017e9e3c9589327aa9"),
        "behavior/outcome-independence/json": (1, "f158bd4ab2198668e915dfd31e2697eab039337907551dbac1b488d1bb1423a7"),
        "behavior/outcome-independence/csv": (1, "770929862664146f268e0c28b922cabf97c87ff008ce77595ad7486c222f6607"),
        "behavior/factorizability/table": (1, "20944567880e34d0a8419ac5b0fcbb02cd6da1c796095221432383f614496cd2"),
        "behavior/factorizability/json": (1, "5d4339693bd99df6e7c2dc83df0f9157568d2a8783bb4d6e4d823ed5b51b4ab6"),
        "behavior/factorizability/csv": (1, "2fd8d044f90aeca699e8a732b8612d6b5b6d50af957054f73e8dc51ad4706e06"),
        "behavior/determinism/table": (0, "e974f688ea47d9cc27dd0c4e5ca1428bedb14ce2b32a377007fd94d100b3c07d"),
        "behavior/determinism/json": (0, "d05995ca630ff0244247ab00f9b3cfe8745a5b6d8b0746fce91be54ae4ec0b64"),
        "behavior/determinism/csv": (0, "7743708b7bc6e243ed1cb874a9a8f94dfc85ad974df7cfa93fa66612b6c9dd68"),
        "behavior/all/table": (0, "6d3c7998695c4399eea332113b50a8baa839935648c8eb623a26de4c504902f1"),
        "behavior/all/json": (0, "9fe6b7ff1ad5a27c80a018490e2c0d8a7ce26da292e8ceb57843d4e7b0b9aaab"),
        "behavior/all/csv": (0, "59b179d457e043d8c160b481c5ecad2fc58cda47f89664bd289781d128b29fd5"),
        "behavior/all-five-tol-0.3/table": (1, "6fcc65fb5123113f0022aec5091cd74c52373a9db4ad2cd4fa15c197ade11563"),
        "behavior/all-five-tol-0.3/json": (1, "aab3f613e9574fcfd62b01f372ad145fa7a41173c41dccbf84edadc0c461e674"),
        "behavior/all-five-tol-0.3/csv": (1, "149ab4e47bdd94b258ea7f06f743419f163c6dab939fa5ede3df553ac9c99f4d"),
        "one-lambda/no-signalling/table": (0, "f8bd9463f86b314bca01f3577c6694df60542fed24339550ec7ec7327428f6f0"),
        "one-lambda/no-signalling/json": (0, "b2c5a4c69ea6de271ce230cfff6a1c83c09b5987dbcbab65a2746ff5878b8b97"),
        "one-lambda/no-signalling/csv": (0, "38411f9c480877c1cae057a0afe3d7ba41d578b8bbb4886e2e6c0ce0b91c9e85"),
        "one-lambda/parameter-independence/table": (0, "b73b1592ee2dfe6522c862918a226e5189642a4bae8edd3cc9650a973e7966c9"),
        "one-lambda/parameter-independence/json": (0, "12bfbad4cc0db8f7188870a32012f7077e4c3da5356a5de3fd122103ed1a6f43"),
        "one-lambda/parameter-independence/csv": (0, "2bb5fec62bf168b3f9e82cf09e5565cf823f84f0921e458d400bf1bed011c8ef"),
        "one-lambda/outcome-independence/table": (1, "5ef6493f3aa14cc00b795b5228b462adab85cf6d93b24db3cdbac60cb79e0fd2"),
        "one-lambda/outcome-independence/json": (1, "0f8595b77a83844f5e958325bd598def57d45763020e3da33fc530f3a65d9d6d"),
        "one-lambda/outcome-independence/csv": (1, "73cc0c60f97032b7b7f9017fbe4d2bafa84dc4ca5369f9a4f2d985ebc51a21e2"),
        "one-lambda/factorizability/table": (1, "57a71d732db6906c4b1919e90d107333205fe491d755463a475b7856716f0036"),
        "one-lambda/factorizability/json": (1, "d843cedfc6b2f6863508ce2b82748feaf6ade5e7fb59f05ba3d4dde63747e1b5"),
        "one-lambda/factorizability/csv": (1, "9e5b8b6e05ad4cba912635a6599a2ee8507262bf4fdc0476090c487ebe6ed089"),
        "one-lambda/determinism/table": (0, "f01f43bad3d44f298f15e9d65a173f83dc7699a105ddb26e1af6e8e52fd0e332"),
        "one-lambda/determinism/json": (0, "33930c61d0bf038bf16041b6c626ccee89fc2b501b9255285eb3f48f1bc5ff04"),
        "one-lambda/determinism/csv": (0, "9e259cc58ecf8c837808d3593489e5f1f5591016def1720c9560eb2a2739746e"),
        "one-lambda/all/table": (1, "9edaaeae26d0e65f9ad7406b83cfaf122f47573e5ee798fe7d9c8517df3cf07d"),
        "one-lambda/all/json": (1, "b8fab6493b4bd127c63950f418ef564f02386d8848c6c60a5d50d3e455d1cbac"),
        "one-lambda/all/csv": (1, "fd3c3b1b37eb78fca01fe34a408788694feb3757e576e02dbe4a3bbd03b75b06"),
        "one-lambda/all-five-tol-0.3/table": (1, "75a63aecf4e2de9763aa158fcf783d16894a2f7ebc9fb8df71f5b4375c91a3da"),
        "one-lambda/all-five-tol-0.3/json": (1, "be5a5e594879b166d01098eb392f76d2e372218a1a795ac731076d402a8dfbb6"),
        "one-lambda/all-five-tol-0.3/csv": (1, "546d3e3d9a2101156cc0c7957318363c6f5955d66c7f8a0e6389eee5096f545d"),
        "sign-model/no-signalling/table": (0, "3bba341a1cbdcadcdc43ce33e919aaef0aa7061a124430addd48ca07017e4c30"),
        "sign-model/no-signalling/json": (0, "8bd98f006269ff9597e8b91376926902b7236d75c806e4c40957dedc2ea75a68"),
        "sign-model/no-signalling/csv": (0, "4f63b6be0c5d0aa12dcdec4322bb9eebd7fcf1d65f938ec0b952fee2187e0db4"),
        "sign-model/parameter-independence/table": (0, "b73b1592ee2dfe6522c862918a226e5189642a4bae8edd3cc9650a973e7966c9"),
        "sign-model/parameter-independence/json": (0, "12bfbad4cc0db8f7188870a32012f7077e4c3da5356a5de3fd122103ed1a6f43"),
        "sign-model/parameter-independence/csv": (0, "2bb5fec62bf168b3f9e82cf09e5565cf823f84f0921e458d400bf1bed011c8ef"),
        "sign-model/outcome-independence/table": (0, "8d70aedd6ba99daadd5e811586014634c286c88a993d24d4ffd1c2d1537776fb"),
        "sign-model/outcome-independence/json": (0, "f53cfe77b20130c3324ff30089a501beb528696f88d6b407e1cae20845d96996"),
        "sign-model/outcome-independence/csv": (0, "f00f00c27af6f3c1e6c76a064b7b198ec960579c73e1eb8a6b45e4316d7d7721"),
        "sign-model/factorizability/table": (0, "5e72859d90f7da472b55c55ffa7eb07d43d062a505987ca5b3d91fcbbd9961d9"),
        "sign-model/factorizability/json": (0, "1f15e30daeab897eb31f6c2c759eb209a433b0a9ae51fc7f73abd0c6d1a49f3a"),
        "sign-model/factorizability/csv": (0, "d1e49f96b257a8a91715c410865915dc6f16794a6da93197c211d94ff733a70e"),
        "sign-model/determinism/table": (0, "1cbff3631262b25d5b05db27a1b111208f1e5e93cf83aa434da3a4624e3e6750"),
        "sign-model/determinism/json": (0, "6b56993cdd14e56b35e2d70ba7a41bdf693c7e3e14bdc93c59b78a243f45ddb1"),
        "sign-model/determinism/csv": (0, "c0307d9a157ac7a33471b89140b074c33d6dccb80c7d9f03ebc4d7fbf928d01a"),
        "sign-model/all/table": (0, "2f1d5cd522fdd6a34342d101338e7aa869d3b48bc5a2be6f5dd92033326e185e"),
        "sign-model/all/json": (0, "84dec7d6fb26e45ca538847d9eae65381cd1212c01b6ba0ba593649bf581ef37"),
        "sign-model/all/csv": (0, "f7a00830b3a3c82e48d2d8294237cbd9469775b357f287ed467c7a268d5fc732"),
        "sign-model/all-five-tol-0.3/table": (0, "3bc5d30db37bbd992e25ccea660571a2004443f76adb2ad7a916561bc23ef167"),
        "sign-model/all-five-tol-0.3/json": (0, "7cce031fbfe1742de78cb5d899c9977f1a5f1e17616c6d9fab075390296d1279"),
        "sign-model/all-five-tol-0.3/csv": (0, "0658080be60234213f14963be4e09459f8bffc2e2c4063707ffd81e8ed6cd760"),
    }

    @pytest.mark.parametrize("key", ["/".join(k) for k in itertools.product(CHECK_INPUTS, CHECK_SELECTIONS, ("table", "json", "csv"))])
    def test_stdout_pinned(self, key):
        inp, selection, fmt = key.split("/")
        (row,) = [row for row in SWEEP if row["id"] == f"check/{key}"]
        assert row["argv"] == ["check", *CHECK_SELECTIONS[selection], "--format", fmt, f"{{check-{inp}}}"]
        assert row["env"] == {} and row["stderr_sha256"] == hashlib.sha256(b"").hexdigest()
        assert (row["exit"], row["stdout_sha256"]) == self.PINS[key]

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


def replay(row: dict, workdir: Path) -> dict:
    """Exit code and stdout/stderr sha256 of one sweep row run in-process.

    An argv entry ``{name}`` is the path of that input file, written to
    ``workdir``; stderr names it as ``{name}`` again, so the digest does not
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
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    return {"exit": code, "stdout_sha256": digest(out.getvalue()), "stderr_sha256": digest(stderr)}


@pytest.mark.parametrize("row", SWEEP, ids=[row["id"] for row in SWEEP])
def test_sweep_row_replays_its_recorded_bytes(row, tmp_path):
    assert replay(row, tmp_path) == {key: row[key] for key in ("exit", "stdout_sha256", "stderr_sha256")}


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

"""Write bench/goldens.json: stdout sha256 and exit code of the criterion-14 CLI calls.

Run from the repository root at the commit whose output is the reference:

    python3 bench/goldens.py

The input files are built as tests/test_acceptance.py builds them and stored
verbatim next to the hashes, so later runs replay exactly the same bytes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from locality_lab.behavior import HiddenVariableModel, behavior_to_dict, from_quantum, model_to_dict  # noqa: E402
from locality_lab.qstate import singlet  # noqa: E402

import workloads  # noqa: E402

INVOCATIONS = [
    ["check", "{behavior}"],
    ["check", "--conditions", "outcome-independence", "--format", "json", "{model}"],
    ["chsh", "--classical"],
    ["chsh", "--grid", "--step", "0.5"],
    ["chsh", "--optimize"],
    ["bell1964", "--a", "0", "--b", "1.0471975511965976", "--c", "2.0943951023931953"],
    ["everett", "--theta", "0"],
    ["everett", "--theta", "1.0472", "--format", "csv"],
    ["boxes"],
    ["signmodel", "--n", "50000", "--seed", "7", "--settings", "0,0.785398,1.570796"],
    ["timeline", "{timeline}"],
]


def main() -> None:
    b = from_quantum(singlet(), [0.0], [0.0])
    files = {
        "behavior": json.dumps(behavior_to_dict(b)),
        "model": json.dumps(model_to_dict(HiddenVariableModel(b.scenario, [(1.0, b)]))),
        "timeline": json.dumps(
            {
                "timeline": [
                    {"t": 1, "x": -2, "role": "measurement-a"},
                    {"t": 1, "x": 2, "role": "measurement-b"},
                    {"t": 4, "x": 0, "role": "comparison"},
                ]
            }
        ),
    }
    goldens = {"files": files, "invocations": [{"argv": argv} for argv in INVOCATIONS]}
    results = ROOT / "bench" / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results) as tmp:
        for argv, entry in workloads.golden_argvs(goldens, Path(tmp)):
            r = workloads.invoke(argv)
            if r.raised is not None:
                raise SystemExit(f"{argv}: {r.raised}")
            entry["exit"] = r.code
            entry["stdout_sha256"] = workloads.sha256(r.out)
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=2) + "\n")
    print(f"wrote {workloads.GOLDENS.relative_to(ROOT)}: {len(INVOCATIONS)} invocations")


if __name__ == "__main__":
    main()

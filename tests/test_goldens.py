"""Criterion-14 invocations against stored stdout goldens.

Claims covered:
  - every criterion-14 CLI invocation gives the exit code and stdout sha256
    stored in ``bench/goldens.json``, with the input files written back
    verbatim from that file; a refactor that changes one output byte fails;
  - `everett` traces share no mutable state through the module's constant
    protocol pieces: after the pointer-basis dicts of earlier traces' stages
    are rewritten, `everett --theta 0` and `everett --theta 1.0472 --format
    csv` still give their golden bytes;
  - the goldens, every row of the sweep `tests/cli_sweep.json` (exit code,
    stdout and stderr sha256) and the bytes of `contract` on seeded random
    complex input are the same on other numpy and OpenBLAS dispatch paths:
    all of them run in one child process per setting of
    NPY_DISABLE_CPU_FEATURES (AVX512_ICL, then X86_V4 too, then X86_V3 too;
    the child confirms that numpy turned each named feature off) and of
    OPENBLAS_CORETYPE (Prescott, Haswell). A setting under which numpy does
    not import on this CPU is skipped with the reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import locality_lab
from locality_lab.cli import main
from locality_lab.everett import PointerBasis, run_nonparallel, run_parallel_epr
from locality_lab.qstate import contract
from test_cli import SWEEP

GOLDENS_FILE = Path(__file__).resolve().parent.parent / "bench" / "goldens.json"
GOLDENS = json.loads(GOLDENS_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", GOLDENS["invocations"], ids=lambda e: " ".join(e["argv"]))
def test_stdout_matches_golden(entry, tmp_path, capsys):
    files = {}
    for name, text in GOLDENS["files"].items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(text, encoding="utf-8")
    argv = [str(files[a[1:-1]]) if a.startswith("{") else a for a in entry["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"]


@pytest.mark.parametrize("argv", [["everett", "--theta", "0"], ["everett", "--theta", "1.0472", "--format", "csv"]])
def test_rewritten_stage_bases_do_not_reach_a_fresh_trace(argv, capsys):
    swapped = PointerBasis(("down", "up"), [[0.0, 1.0], [1.0, 0.0]])
    for trace in (run_parallel_epr(), run_nonparallel(1.0472)):
        for k, stage in enumerate(trace.stages):  # one subsystem's basis swapped per stage, and m_B's dropped
            stage.pointer_bases[stage.state.labels[k % 4]] = swapped
        trace.stages[-1].pointer_bases.pop("m_B")
    entry = next(e for e in GOLDENS["invocations"] if e["argv"] == argv)
    assert main(argv) == entry["exit"]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == entry["stdout_sha256"]


DISPATCH_SETTINGS = [
    ("NPY_DISABLE_CPU_FEATURES", "AVX512_ICL"),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4,AVX512_ICL"),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V3,X86_V4,AVX512_ICL"),
    ("OPENBLAS_CORETYPE", "Prescott"),
    ("OPENBLAS_CORETYPE", "Haswell"),
]


def contract_digest() -> str:
    """sha256 of `contract` over seeded random complex blocks on 1, 2 and 3 axes of a 4-axis tensor."""
    rng = np.random.default_rng(31)
    t = rng.normal(size=(2, 3, 2, 4)) + 1j * rng.normal(size=(2, 3, 2, 4))
    digest = hashlib.sha256()
    for axes in ([1], [3, 0], [2, 0, 1]):
        ins = [t.shape[a] for a in axes] * 2
        digest.update(contract(rng.normal(size=ins) + 1j * rng.normal(size=ins), t, axes).tobytes())
    return digest.hexdigest()


# argv: goldens file, directory for the input files, numpy features that must be off, tests directory.
CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from locality_lab.cli import main

sys.path.insert(0, sys.argv[4])
from test_cli import SWEEP, replay
from test_goldens import contract_digest

goldens = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
files = {}
for name, text in goldens["files"].items():
    files[name] = Path(sys.argv[2]) / f"{name}.json"
    files[name].write_text(text, encoding="utf-8")
results = {"still_on": [f for f in sys.argv[3].split(",") if f and __cpu_features__.get(f)], "runs": [], "sweep": []}
for entry in goldens["invocations"]:
    argv = [str(files[a[1:-1]]) if a.startswith("{") else a for a in entry["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results["runs"].append([" ".join(entry["argv"]), code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
sweep_dir = Path(sys.argv[2]) / "sweep"
sweep_dir.mkdir()
for row in SWEEP:
    got = replay(row, sweep_dir)
    results["sweep"].append([row["id"], got["exit"], got["stdout_sha256"], got["stderr_sha256"]])
results["contract"] = contract_digest()
print(json.dumps(results))
"""


@pytest.mark.parametrize("name,value", DISPATCH_SETTINGS, ids=lambda v: v)
def test_goldens_hold_on_other_dispatch_paths(name, value, tmp_path):
    src = str(Path(locality_lab.__file__).resolve().parent.parent)
    env = {**os.environ, name: value, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        pytest.skip(f"numpy does not import with {name}={value}: {(probe.stderr.strip().splitlines() or ['?'])[-1]}")
    features = value if name == "NPY_DISABLE_CPU_FEATURES" else ""
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(GOLDENS_FILE), str(tmp_path), features, str(Path(__file__).resolve().parent)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    assert results["still_on"] == []
    want = [[" ".join(e["argv"]), e["exit"], e["stdout_sha256"]] for e in GOLDENS["invocations"]]
    assert results["runs"] == want
    want_sweep = [[row["id"], row["exit"], row["stdout_sha256"], row["stderr_sha256"]] for row in SWEEP]
    assert [got[0] for got, row in zip(results["sweep"], want_sweep) if got != row] == []
    assert results["sweep"] == want_sweep
    assert results["contract"] == contract_digest()

"""Criterion-14 invocations against stored stdout goldens.

Claims covered:
  - every criterion-14 CLI invocation gives the exit code and stdout sha256
    stored in ``bench/goldens.json``, with the input files written back
    verbatim from that file; a refactor that changes one output byte fails;
  - the same holds on other numpy and OpenBLAS dispatch paths: all the
    invocations run in one child process per setting of
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

import pytest

import locality_lab
from locality_lab.cli import main

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


DISPATCH_SETTINGS = [
    ("NPY_DISABLE_CPU_FEATURES", "AVX512_ICL"),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4,AVX512_ICL"),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V3,X86_V4,AVX512_ICL"),
    ("OPENBLAS_CORETYPE", "Prescott"),
    ("OPENBLAS_CORETYPE", "Haswell"),
]

# argv: goldens file, directory for the input files, numpy features that must be off.
CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from locality_lab.cli import main

goldens = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
files = {}
for name, text in goldens["files"].items():
    files[name] = Path(sys.argv[2]) / f"{name}.json"
    files[name].write_text(text, encoding="utf-8")
results = {"still_on": [f for f in sys.argv[3].split(",") if f and __cpu_features__.get(f)], "runs": []}
for entry in goldens["invocations"]:
    argv = [str(files[a[1:-1]]) if a.startswith("{") else a for a in entry["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results["runs"].append([" ".join(entry["argv"]), code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
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
        [sys.executable, "-c", CHILD, str(GOLDENS_FILE), str(tmp_path), features],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    assert results["still_on"] == []
    want = [[" ".join(e["argv"]), e["exit"], e["stdout_sha256"]] for e in GOLDENS["invocations"]]
    assert results["runs"] == want

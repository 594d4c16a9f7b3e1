"""Criterion-14 invocations against stored stdout goldens.

Claims covered:
  - every criterion-14 CLI invocation gives the exit code and stdout sha256
    stored in ``bench/goldens.json``, with the input files written back
    verbatim from that file; a refactor that changes one output byte fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

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

"""Smoke test of the benchmark's layer tracer against the package it wraps.

`perfbench/trace_cli.py` times the layers by replacing module attributes of
`chern3`; renaming one of them must fail here rather than in the benchmark.
"""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import chern3

TRACE_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"


def test_traced_chi_one_census(tmp_path):
    trace, out = tmp_path / "trace.json", tmp_path / "chi1.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(chern3.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, str(TRACE_CLI), str(trace),
         "enumerate", "--chi", "1", "--jobs", "1", "--output", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ea4dc6aaf9d3f05fa48ab1c16cd6a06442408269f0cb69aae9f07bc03f25945a"
    )
    spans = json.loads(trace.read_text(encoding="utf-8"))
    layers = runpy.run_path(str(TRACE_CLI))["LAYERS"]
    assert {name for _, _, name, _ in layers} <= set(spans)
    # enumerate checks and writes rows without building records
    assert spans["enumeration.record"]["calls"] == 0
    assert spans["enumeration.integrality"]["calls"] == 40

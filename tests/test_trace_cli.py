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


CHI1_SHA256 = "ea4dc6aaf9d3f05fa48ab1c16cd6a06442408269f0cb69aae9f07bc03f25945a"


def traced_chi_one(tmp_path, jobs):
    """Spans of one traced `enumerate --chi 1 --jobs jobs`, after checking its exit and bytes."""
    trace, out = tmp_path / "trace.json", tmp_path / "chi1.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(chern3.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, str(TRACE_CLI), str(trace),
         "enumerate", "--chi", "1", "--jobs", str(jobs), "--output", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CHI1_SHA256
    return json.loads(trace.read_text(encoding="utf-8"))


def test_traced_chi_one_census(tmp_path):
    spans = traced_chi_one(tmp_path, 1)
    layers = runpy.run_path(str(TRACE_CLI))["LAYERS"]
    assert {name for _, _, name, _ in layers} <= set(spans)
    # enumerate checks and writes rows without building records, and the
    # walk rebuilds witnesses as runs without exists_integral_basket
    assert spans["enumeration.record"]["calls"] == 0
    assert spans["enumeration.integrality"]["calls"] == 0


def test_traced_pool_run(tmp_path):
    spans = traced_chi_one(tmp_path, 2)
    # every worker has exited and its spans were added into the trace
    assert sorted(path.name for path in tmp_path.iterdir()) == ["chi1.csv", "trace.json"]
    # no wrapped layer runs in a worker, forked or not: the walk rebuilds
    # witnesses as runs, without exists_integral_basket
    assert spans["enumeration.record"]["calls"] == 0
    assert spans["enumeration.integrality"]["calls"] == 0

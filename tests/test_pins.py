"""Every pinned output of the CLI, byte for byte, run in-process through `cli.main`.

`PINS` is the one table of (argv, rows, sha256 of stdout): the home of every
output pin. The CI workflow keeps only the checks that need a real process,
such as peak-RSS bounds, time limits and `--jobs 3`, and every hash it still
names must be one of these. A command that takes `--jobs` is run at
`--jobs` 1 and 2, and must give the same bytes at both.
"""

import hashlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chern3 import cli

PINS = [
    # the χ = 2 census in every format, and with the empty multiset first
    ("enumerate --chi 2", 216683, "c86732b16c2b8ae57568bbe1736b0df83728a2d467654e1c57859f8ada1f8eb6"),
    ("enumerate --chi 2 --format jsonl", 216683,
     "12b28d82124d40bb309cbb61af104907564a3c93c0ea606df0f3d06f8ed08867"),
    ("enumerate --chi 2 --format md", 216685,
     "5c2af7c904c75bbd6f95c86afe07f3ec0706d09154a9dfcede2a3e2bc395d635"),
    ("enumerate --chi 2 --include-empty", 216684,
     "5c65b99e907ce8a603a66c14b0b77728b4ee763d853c4b35679a6afefbef4f8f"),
    # the χ = 2 filters
    ("enumerate --chi 2 --filter c1c2-range --lo 0 --hi 1", 33611,
     "e75cdabd7e443bd9dce54be220927c0b886351a0867332e485733b189ba9d255"),
    ("enumerate --chi 2 --filter c1c2-range --lo -1/2 --hi 4/5", 27243,
     "2078cc84692fddeb9d14e673ba99a77d6a128e57fb089b67f2a7bee38e826571"),
    ("enumerate --chi 2 --filter c1c2-zero", 129,
     "9e3dfd00c54287fc4e42202af2a3ebfb47855ffe7e81fd4655b6b0469dcabf3c"),
    ("enumerate --chi 2 --filter l2-integral", 1399,
     "8f783c45b491a90fff32f7748cb5d39d906a1803d0536b248aec6309cbf68ac3"),
    # χ = 3, which describes no X and is for exploration only; 6 of the 95
    # rows near the budget have an integral basket
    ("enumerate --chi 3 --unsafe-chi --filter c1c2-range --lo 60 --hi 72", 95,
     "f5bb21fe9e55182183f667886bf767eb30f826a2fcc2164136a9ce38e4d3b885"),
    ("enumerate --chi 3 --unsafe-chi --filter l2-integral", 28972,
     "2d26dd24f2d8054e5daf4915484691474ba4cd1d3c94a805691c1d7142c21c0f"),
    # the commands without --jobs
    ("min --chi 2", 1, "78a81ff28469d32189fd82cf6f9c83bdb37061bebaba47989036ab4d50e48312"),
    ("min --chi 2 --not-big", 1, "c5c3bed1b0dc89f0796ed9c8c3cf7b9db73d49f143ccdd70f17e6e480a6049c7"),
    ("verify-tables", 7, "c78425931d839c40017f1d26177ad94750c01e63af4cec688686daf8d498df40"),
    ("quotient check --table 4", 15, "9c2e0575466c326e68f93599ff5c48bd3d5932e0b631b975b26166f52894628b"),
    ("quotient check --table 5", 8, "b403aa9b362ddfc6c17746e7d7c39da3eac961092c46e0af0bd71a3678684109"),
    ("quotient derive-enriques", 8, "92aa13f78bd36943ec877ad0ad9d85cc2d0a84ffe7d58f6be1e130cde9867a4c"),
]

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def runs():
    """(argv, rows, sha256) per run: a command that takes --jobs once at each of --jobs 1 and 2."""
    for command, rows, sha in PINS:
        argv = command.split()
        if argv[0] == "enumerate":
            for jobs in ("1", "2"):
                yield pytest.param([*argv, "--jobs", jobs], rows, sha, id=f"{command} --jobs {jobs}")
        else:
            yield pytest.param(argv, rows, sha, id=command)


@pytest.mark.parametrize("argv,rows,sha", runs())
def test_pinned_bytes(argv, rows, sha):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().count("\n") == rows
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == sha


def test_workflow_hashes_are_pins():
    # CI's process-level steps still compare hashes; each must be a pin here,
    # so a pin moves in this file and CI cannot keep an old one
    hashes = re.findall(r"[0-9a-f]{64}", WORKFLOW.read_text(encoding="utf-8"))
    assert set(hashes) - {sha for _, _, sha in PINS} == set()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_empty_multiset_through_the_process_stdout(jobs):
    # `∅` written through the process's own stdout encoding, not a StringIO;
    # the same bytes as test_cli's chi0-empty golden pin
    result = subprocess.run(
        [sys.executable, "-m", "chern3", "enumerate", "--chi", "0", "--include-empty",
         "--jobs", jobs],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "16f22637c67955a52282cb648e42ae622e534aea4def4e11253900148242742f"
    )

"""Every pinned output of the CLI, byte for byte, run in-process through `cli.main`.

`PINS` is the one table of (argv, sha256 of stdout); the same hashes are
pinned by the CI workflow, which also runs the commands as real processes.
A command that takes `--jobs` is run at `--jobs` 1 and 2, and must give the
same bytes at both.
"""

import hashlib
import io
import sys

import pytest

from chern3 import cli

PINS = [
    # the χ = 2 census in every format, and with the empty multiset first
    ("enumerate --chi 2", "c86732b16c2b8ae57568bbe1736b0df83728a2d467654e1c57859f8ada1f8eb6"),
    ("enumerate --chi 2 --format jsonl",
     "12b28d82124d40bb309cbb61af104907564a3c93c0ea606df0f3d06f8ed08867"),
    ("enumerate --chi 2 --format md", "5c2af7c904c75bbd6f95c86afe07f3ec0706d09154a9dfcede2a3e2bc395d635"),
    ("enumerate --chi 2 --include-empty",
     "5c65b99e907ce8a603a66c14b0b77728b4ee763d853c4b35679a6afefbef4f8f"),
    # the χ = 2 filters
    ("enumerate --chi 2 --filter c1c2-range --lo 0 --hi 1",
     "e75cdabd7e443bd9dce54be220927c0b886351a0867332e485733b189ba9d255"),
    ("enumerate --chi 2 --filter c1c2-range --lo -1/2 --hi 4/5",
     "2078cc84692fddeb9d14e673ba99a77d6a128e57fb089b67f2a7bee38e826571"),
    ("enumerate --chi 2 --filter c1c2-zero", "9e3dfd00c54287fc4e42202af2a3ebfb47855ffe7e81fd4655b6b0469dcabf3c"),
    ("enumerate --chi 2 --filter l2-integral",
     "8f783c45b491a90fff32f7748cb5d39d906a1803d0536b248aec6309cbf68ac3"),
    # χ = 3, which describes no X and is for exploration only
    ("enumerate --chi 3 --unsafe-chi --filter c1c2-range --lo 60 --hi 72",
     "f5bb21fe9e55182183f667886bf767eb30f826a2fcc2164136a9ce38e4d3b885"),
    ("enumerate --chi 3 --unsafe-chi --filter l2-integral",
     "2d26dd24f2d8054e5daf4915484691474ba4cd1d3c94a805691c1d7142c21c0f"),
    # the commands without --jobs
    ("min --chi 2", "78a81ff28469d32189fd82cf6f9c83bdb37061bebaba47989036ab4d50e48312"),
    ("min --chi 2 --not-big", "c5c3bed1b0dc89f0796ed9c8c3cf7b9db73d49f143ccdd70f17e6e480a6049c7"),
    ("verify-tables", "c78425931d839c40017f1d26177ad94750c01e63af4cec688686daf8d498df40"),
    ("quotient check --table 4", "9c2e0575466c326e68f93599ff5c48bd3d5932e0b631b975b26166f52894628b"),
    ("quotient check --table 5", "b403aa9b362ddfc6c17746e7d7c39da3eac961092c46e0af0bd71a3678684109"),
    ("quotient derive-enriques", "92aa13f78bd36943ec877ad0ad9d85cc2d0a84ffe7d58f6be1e130cde9867a4c"),
]


def runs():
    """(argv, sha256) per run: a command that takes --jobs once at each of --jobs 1 and 2."""
    for command, sha in PINS:
        argv = command.split()
        if argv[0] == "enumerate":
            for jobs in ("1", "2"):
                yield pytest.param([*argv, "--jobs", jobs], sha, id=f"{command} --jobs {jobs}")
        else:
            yield pytest.param(argv, sha, id=command)


@pytest.mark.parametrize("argv,sha", runs())
def test_pinned_bytes(argv, sha):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == sha

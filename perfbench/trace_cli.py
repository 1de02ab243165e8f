"""Run the chern3 CLI once with every layer timed from outside the package.

    PYTHONPATH=src python3 perfbench/trace_cli.py TRACE_JSON enumerate --chi 2 ...

The layers call one another through module attributes (`cli.main` reaches
the enumerator as `enumeration.enumerate_index_multisets`, which builds
records as `enumeration.ChernRecord`, and so on).  Replacing those
attributes with timing wrappers records one span per call without changing
the package.  TRACE_JSON receives, per span name, the call count, the
inclusive seconds, the seconds spent in wrapped callees and, for the
integrality test, how many calls found a witness.

Under `--jobs N > 1` the forked pool workers inherit the wrappers.  Each
worker starts from empty spans and rewrites its own file beside TRACE_JSON
after every wrapped call, because the pool ends its workers without running
exit handlers; the parent adds those files into TRACE_JSON.  Worker seconds
are busy time and overlap in wall time.  `enumeration._run_task` is never
wrapped: the pool pickles it by name.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from chern3 import cli, enumeration

# (module, attribute, span name, predicate counting a useful outcome)
LAYERS = (
    (enumeration, "enumerate_index_multisets", "enumeration.enumerate", None),
    (enumeration, "ChernRecord", "enumeration.record", None),
    (enumeration, "exists_integral_basket", "enumeration.integrality", lambda r: r[0]),
    (enumeration, "c1c2_from_indices", "riemann_roch.c1c2", None),
    (enumeration, "cartier_index", "riemann_roch.cartier_index", None),
    (enumeration, "l_value", "riemann_roch.l_value", None),
)
FIELDS = ("calls", "total_s", "child_s", "found")


class Tracer:
    """Per-name spans kept in memory: calls, inclusive and child seconds."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.spans: dict[str, dict] = {}
        self._open: list[list[float]] = []  # child seconds of each open span
        self._worker_path: Path | None = None
        os.register_at_fork(after_in_child=self._start_worker)

    def _start_worker(self) -> None:
        for span in self.spans.values():
            span.update(dict.fromkeys(FIELDS, 0))
        self._open.clear()
        self._worker_path = self.path.with_name(f"{self.path.stem}.{os.getpid()}.json")

    def _dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans), encoding="utf-8")
        os.replace(tmp, path)

    def wrap(self, name, fn, found=None):
        span = self.spans.setdefault(name, dict.fromkeys(FIELDS, 0))
        open_spans = self._open
        clock = time.perf_counter

        def timed(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                span["calls"] += 1
                span["total_s"] += elapsed
                span["child_s"] += child[0]
                if open_spans:
                    open_spans[-1][0] += elapsed
            if found is not None and found(result):
                span["found"] += 1
            if self._worker_path is not None:
                self._dump(self._worker_path)
            return result

        return timed

    def finish(self) -> None:
        """Add the workers' spans to this process's and write TRACE_JSON."""
        for worker in self.path.parent.glob(f"{self.path.stem}.*.json"):
            for name, span in json.loads(worker.read_text(encoding="utf-8")).items():
                for field in FIELDS:
                    self.spans[name][field] += span[field]
            worker.unlink()
        self._dump(self.path)


def main() -> int:
    tracer = Tracer(Path(sys.argv[1]))
    for module, attr, name, found in LAYERS:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), found))
    code = tracer.wrap("cli.main", cli.main)(sys.argv[2:])
    tracer.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())

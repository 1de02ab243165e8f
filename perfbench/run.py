#!/usr/bin/env python3
"""Closed-loop benchmark of the chern3 command line.

One client runs the `chern3` CLI as a fresh process, one invocation at a
time, and starts the next only after the previous one has exited.  Run it
from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

`--workload all` runs every workload in rounds whose order is drawn from the
seed, so machine drift does not land on one workload.  The queries take no
random input; the seed only orders the invocations.

`--trace 0` reports the end-to-end metrics: wall time per invocation
rescaled by a speed probe on the same CPU (`wall_norm_s`; raw `wall_s` is
printed too), interpreter-plus-import set-up time and peak resident set.
Single-process queries are pinned to one CPU and the probe samples each
CPU the query runs on.  `--trace 1`
alternates untraced invocations with ones run under perfbench/trace_cli.py
and reports per-layer metrics instead, with the deterministic call counts of
every traced invocation required to repeat exactly.  Every invocation's
output is checked against the row count and sha256 pinned in
perfbench/workloads.json; a mismatch or a non-zero exit counts as failed
and is never rerun.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))["workloads"]

SETUP_PROBES = 3  # before every invocation
SETUP_CODE = "import chern3.cli; chern3.cli.build_parser()"
# Every run, set-up and checks included, ends within this many seconds.
RUN_LIMIT_S = 170.0
# Traced invocations per workload and run, so call counts can be compared.
MIN_TRACED = 2
ALL_CPUS = os.sched_getaffinity(0)
# Single-process queries run on this CPU; the speed probe follows them.
PROBE_CPU = min(ALL_CPUS)
PROBE_PERIOD_S = 0.02
# One probe burst takes about this long on the 2-CPU Xeon the benchmark was
# tuned on; wall_norm_s is wall time rescaled to that speed.
NOMINAL_BURST_S = 0.0004

# (span written by trace_cli.py, seconds metric, calls metric)
SPAN_METRICS = (
    ("enumeration.record", "enumeration.record_s", "enumeration.records"),
    ("riemann_roch.c1c2", "riemann_roch.c1c2_s", "riemann_roch.c1c2_calls"),
    ("riemann_roch.cartier_index", "riemann_roch.cartier_index_s",
     "riemann_roch.cartier_index_calls"),
    ("enumeration.integrality", "enumeration.integrality_s", "enumeration.integrality_calls"),
    ("riemann_roch.l_value", "riemann_roch.l_value_s", "riemann_roch.l_value_calls"),
)
# (span, self-time metric): the span's time outside its wrapped callees
SELF_METRICS = (
    ("enumeration.enumerate", "enumeration.self_s"),
    ("cli.main", "cli.emit_s"),
)
EMPTY_SPAN = {"calls": 0, "total_s": 0.0, "child_s": 0.0, "found": 0}

# Units of the deterministic counts reported as per-layer metrics.
COUNT_UNITS = {
    **{c: "count" for _, _, c in SPAN_METRICS},
    "cli.rows": "count",
    "cli.bytes": "B",
}


class SpeedProbe:
    """Times a fixed burst of interpreter work every PROBE_PERIOD_S on each given CPU.

    This host's speed drifts by tens of percent over minutes.  Bursts taken on
    the child's CPUs while it runs see the same drift, so wall time rescaled
    by NOMINAL_BURST_S over the mean burst is much steadier than wall time.
    The probe uses about 2 % of each CPU.
    """

    def __init__(self, cpus: set[int]) -> None:
        self.bursts: list[float] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(cpu,), daemon=True)
                         for cpu in sorted(cpus)]

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            total, table = 0, {}
            for i in range(300):
                total += i * i % 7
                table[i & 63] = Fraction(i, 7)
            self.bursts.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def normalize(self, wall: float) -> float:
        return wall * NOMINAL_BURST_S / statistics.fmean(self.bursts) if self.bursts else wall


class Bench:
    """Launches one process at a time, each killed if it outlives the run limit."""

    def __init__(self, limit: float) -> None:
        self.limit = limit
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.stderr_path = OUT / "stderr.txt"

    def launch(self, argv: list[str], cpus: set[int] = ALL_CPUS) -> tuple[int, float, float]:
        """Run argv on `cpus` to exit; return (exit code, wall seconds, peak RSS in MB).

        wait4 reports the largest resident set of the child and of every
        process it reaped, so pool workers are included.
        """
        with open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
            )
            if cpus != ALL_CPUS:
                os.sched_setaffinity(proc.pid, cpus)
            timer = threading.Timer(max(self.limit - time.monotonic(), 0.0),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = self.stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"exit {proc.returncode} from {argv}:\n{tail}", file=sys.stderr)
        return proc.returncode, wall, usage.ru_maxrss / 1024


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def workload_cpus(args: list[str]) -> set[int]:
    """One CPU for a single-process query; every CPU for a pool."""
    jobs = int(args[args.index("--jobs") + 1]) if "--jobs" in args else 1
    return {PROBE_CPU} if jobs == 1 else ALL_CPUS


def check_output(path: Path, spec: dict) -> tuple[int, int, str | None]:
    """(rows, bytes, failure reason or None) for one invocation's output file."""
    digest = hashlib.sha256()
    rows = size = 0
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
                rows += chunk.count(b"\n")
                size += len(chunk)
    except FileNotFoundError:
        return 0, 0, f"no output file {path.name}"
    if rows != spec["rows"] or digest.hexdigest() != spec["sha256"]:
        return rows, size, (f"{rows} rows, sha256 {digest.hexdigest()[:12]}; "
                            f"expected {spec['rows']} rows, sha256 {spec['sha256'][:12]}")
    return rows, size, None


def layer_sample(spans: dict, rows: int, size: int) -> tuple[dict, dict]:
    """Per-layer seconds and deterministic counts of one traced invocation."""
    times, counts = {}, {"cli.rows": rows, "cli.bytes": size}
    for span_name, seconds, calls in SPAN_METRICS:
        span = spans.get(span_name, EMPTY_SPAN)
        times[seconds] = span["total_s"]
        counts[calls] = span["calls"]
    for span_name, metric in SELF_METRICS:
        span = spans.get(span_name, EMPTY_SPAN)
        times[metric] = span["total_s"] - span["child_s"]
    counts["enumeration.integral_found"] = spans.get(
        "enumeration.integrality", EMPTY_SPAN)["found"]
    return times, counts


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def machine_context() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "cpu": cpu,
    }


def check_import(bench: Bench) -> None:
    """Fail unless chern3 imports from this checkout; also writes its bytecode cache."""
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_CODE + "; print(chern3.__file__)"],
        cwd=ROOT, env=bench.env, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0 or not Path(probe.stdout.strip()).is_relative_to(SRC):
        sys.exit(f"chern3 does not import from {SRC}:\n{probe.stderr}")


def measure_setup(bench: Bench, walls: list[float]) -> None:
    """Append the wall seconds of interpreter start, `import chern3` and parser build."""
    for _ in range(SETUP_PROBES):
        code, wall, _ = bench.launch([sys.executable, "-c", SETUP_CODE])
        if code != 0:
            sys.exit("set-up probe failed")
        walls.append(wall)


def schedule(names: list[str], trace: bool, rng: random.Random):
    """Endless rounds; each runs every (workload, traced) kind once, in seeded order."""
    kinds = [(name, traced) for name in names for traced in ((False, True) if trace else (False,))]
    while True:
        rng.shuffle(kinds)
        yield from kinds


def run(names: list[str], seed: int, seconds: int, trace: bool) -> int:
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    bench = Bench(started + RUN_LIMIT_S)
    check_import(bench)
    setup: list[float] = []

    samples = {(n, t): [] for n in names for t in (False, True)}
    minimum = {(n, t): MIN_TRACED if t else 1
               for n in names for t in ((False, True) if trace else (False,))}
    failures: list[str] = []
    order: list[str] = []
    deadline = time.monotonic() + seconds

    # Start an invocation while it is expected to end by the deadline, and
    # until every kind has its minimum number of samples.
    for kind in schedule(names, trace, random.Random(seed)):
        now = time.monotonic()
        if now >= bench.limit:
            break
        short = [k for k, n in minimum.items() if len(samples[k]) < n]
        if kind not in short:
            expected = statistics.median(s["wall_s"] for s in samples[kind])
            if now + expected > deadline:
                if short:
                    continue
                break
        # set-up is probed throughout the run, so it sees the same machine drift
        measure_setup(bench, setup)
        name, traced = kind
        spec = WORKLOADS[name]
        output = ROOT / spec["args"][spec["args"].index("--output") + 1]
        trace_path = OUT / "trace.json"
        output.unlink(missing_ok=True)
        trace_path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(trace_path), *spec["args"]]
        else:
            argv = [sys.executable, "-m", "chern3", *spec["args"]]
        cpus = workload_cpus(spec["args"])
        with SpeedProbe(cpus) as probe:
            code, wall, rss = bench.launch(argv, cpus)
        rows, size, problem = check_output(output, spec)
        output.unlink(missing_ok=True)
        sample = {"wall_s": wall, "norm_s": probe.normalize(wall),
                  "burst_s": statistics.fmean(probe.bursts or [0.0]),
                  "rss_mb": rss, "ok": code == 0 and problem is None}
        if code != 0:
            problem = f"exit code {code}"
        if traced and sample["ok"]:
            spans = json.loads(trace_path.read_text(encoding="utf-8"))
            sample["times"], sample["counts"] = layer_sample(spans, rows, size)
        if problem:
            failures.append(f"{name}{' (traced)' if traced else ''}: {problem}")
        samples[kind].append(sample)
        order.append(name + ("+trace" if traced else ""))
    for path in OUT.iterdir():
        path.unlink()
    OUT.rmdir()

    metrics, correct = report(names, samples, setup, trace, failures)
    context = {
        **machine_context(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": {n: [sys.executable, "-m", "chern3", *WORKLOADS[n]["args"]] for n in names},
        "order": order,
    }
    print("context " + json.dumps(context))
    attempted = sum(len(v) for v in samples.values())
    print(json.dumps({
        "correct": correct and not failures and attempted > 0,
        "attempted": attempted,
        "failed": sum(not s["ok"] for v in samples.values() for s in v),
        "metrics": metrics,
    }))
    return 0


def report(names, samples, setup, trace, failures):
    """Print every metric by name; return the result metrics and count consistency."""
    prefix = len(names) > 1
    metrics, correct = {}, True

    def emit(workload: str | None, metric: str, unit: str, values: list[float], result: bool):
        nonlocal correct
        if not values:
            print(f"{workload or '-':14} {metric:34} no samples")
            correct = False
            return
        med, q1, q3 = summary(values)
        label = f"{workload}.{metric}" if workload and prefix else metric
        print(f"{workload or '-':14} {metric:34} median {med:.6g} {unit:5} "
              f"q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
        if result:
            metrics[label] = {"value": med, "unit": unit}

    emit(None, "setup_s", "s", setup, not trace)
    for name in names:
        plain, traced = samples[(name, False)], samples[(name, True)]
        attempted = len(plain) + len(traced)
        failed = sum(not s["ok"] for s in plain + traced)
        print(f"{name:14} fail_ratio {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
        emit(name, "wall_norm_s", "s", [s["norm_s"] for s in plain], not trace)
        emit(name, "peak_rss_mb", "MB", [s["rss_mb"] for s in plain], not trace)
        emit(name, "wall_s", "s", [s["wall_s"] for s in plain], trace)
        emit(name, "probe_burst_s", "s", [s["burst_s"] for s in plain], trace)
        for metric, layers in WORKLOADS[name]["moves"].items():
            print(f"{name:14} {metric} moved by: {', '.join(layers) or '-'}")
        if not trace:
            continue
        good = [s for s in traced if s["ok"]]
        if not good:
            correct = False
            continue
        for metric in good[0]["times"]:
            emit(name, metric, "s", [s["times"][metric] for s in good], True)
        counts = good[0]["counts"]
        if any(s["counts"] != counts for s in good):
            correct = False
            print(f"{name:14} call counts differ between traced invocations: "
                  + "; ".join(json.dumps(s["counts"]) for s in good))
        for metric, unit in COUNT_UNITS.items():
            emit(name, metric, unit, [counts[metric]], True)
        calls = counts["enumeration.integrality_calls"]
        ratio = counts["enumeration.integral_found"] / calls if calls else 0.0
        emit(name, "enumeration.integral_found_ratio", "ratio", [ratio], True)
        if plain:
            overhead = (statistics.median(s["wall_s"] for s in traced)
                        - statistics.median(s["wall_s"] for s in plain))
            emit(name, "trace_overhead_s", "s", [overhead], True)
        seed_counts = WORKLOADS[name]["seed_counts"]
        drift = {k: (seed_counts.get(k), v) for k, v in counts.items() if seed_counts.get(k) != v}
        print(f"{name:14} counts vs seed: "
              + ("match" if not drift else json.dumps(drift)))
    for line in failures:
        print("FAILED " + line)
    return metrics, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "chern3" / "cli.py").is_file():
        print(f"error: no chern3 sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return run(names, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

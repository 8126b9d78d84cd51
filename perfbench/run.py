#!/usr/bin/env python3
"""superadd benchmark: closed-loop workloads through the package's public entry points.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; superadd is imported from ./src.
One process, one client, one operation at a time: the next operation starts
when the previous one and its output check are done.  BLAS threads are
pinned to 1 and SUPERADD_THREADS is removed, so the default single-threaded
path is the one measured.

The seed fixes a workload's `distinct_ops` operations.  A run executes them
in rounds, in the same order each round, and starts another round while the
time left of --seconds is at least half the last round, so runs last about
--seconds on average.  Every execution is checked and counted in
attempted/failed.

Untraced, a reference kernel independent of superadd is timed right before
and right after every execution and, from a timer signal, every
REFERENCE_EVERY_S during it, and latency is reported relative to the mean
of those times: other tenants of a shared host slow all code for seconds to
minutes at a time, and the ratio cancels most of that where raw seconds do
not.  Time spent in the reference kernel is not counted as latency.
setup_s, the time to import superadd in a fresh interpreter, is scaled the
same way, to a host on which the kernel takes REFERENCE_NOMINAL_S.

--trace 0 reports the end-to-end metrics.  --trace 1 wraps the package's
public functions and reports the per-layer metrics per round; its spans go to
.bench_build/perfbench/.  Both print a `bench-info` line with provenance and
details, then as the last line one JSON object {correct, attempted, failed,
metrics}.
"""

from __future__ import annotations

import os
import sys

PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_ENV)  # before numpy is imported, here or in a child
os.environ.pop("SUPERADD_THREADS", None)

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3  # imports timed before the measured part, and as many after it
REFERENCE_LOOPS = 200  # about 1 ms of reference work
REFERENCE_EVERY_S = 0.2
REFERENCE_NOMINAL_S = 1e-3  # setup_s is import time on a host where the reference kernel takes this long
IMPORT_PROBE = "import time; t = time.perf_counter(); import superadd; print(time.perf_counter() - t)"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "superadd" / "__init__.py").is_file() or not SPEC.is_file():
    fail(f"no superadd source tree under {ROOT}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import bench_trace  # noqa: E402  (needs superadd on the path)
import bench_workloads as bw  # noqa: E402
import numpy as np  # noqa: E402  (after the thread pinning above)


def time_import(env: dict) -> float:
    """Seconds to import superadd (and with it numpy and scipy) in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        fail(f"importing superadd failed:\n{done.stderr}")
    return float(done.stdout.strip())


def measure_setup(warm: bool) -> list[tuple[float, float]]:
    """(seconds, scaled seconds) of importing superadd in SETUP_REPEATS fresh
    interpreters; with `warm`, after one untimed import that leaves the
    bytecode cache warm.  Scaled seconds are the import time on a host where
    the reference kernel, run right before and right after the import, takes
    REFERENCE_NOMINAL_S."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if warm:
        time_import(env)
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_times(10)
        seconds = time_import(env)
        host = statistics.mean(before + reference_times(10))
        times.append((seconds, seconds * REFERENCE_NOMINAL_S / host))
    return times


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    def git(*args):
        if not (ROOT / ".git").exists():  # not a git checkout; never report an enclosing repo
            return None
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain")
    return {
        "workload": workload,
        "seed": seed,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "env": {name: os.environ.get(name) for name in (*PINNED_ENV, "SUPERADD_THREADS")},
    }


def tail_latency(latencies: list[float]) -> dict | None:
    """Latency at the highest percentile with at least ten operations beyond
    it; None unless that percentile lies above the median."""
    n = len(latencies)
    if n <= 20:
        return None
    percentile = 100.0 * (n - 10) / n
    ordered = sorted(latencies)
    return {"percentile": round(percentile, 3), "value_s": ordered[n - 11], "samples": n}


def reference_kernel() -> None:
    """Fixed work independent of superadd: small-array numpy calls from a
    Python loop, the interpreter-bound mix the package's optimizers run."""
    rows = np.eye(4) * 0.9
    x = np.ones(4)
    for _ in range(REFERENCE_LOOPS):
        y = (rows @ x) ** 2
        np.log2(y + 1.0).sum()
        np.concatenate(([0.0], y[:3]))


def reference_times(runs: int = 3) -> list[float]:
    """Seconds of each of `runs` reference-kernel runs.  Their mean, not
    their minimum, is the host's speed: contention from other tenants slows
    some runs and not others, and it slows the measured program on average."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return times


class HostSpeed:
    """Reference-kernel times right before, during and right after an
    execution, with the seconds the ones during it took."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self.active = False

    def _sample(self, signum, frame) -> None:
        if self.active:
            t0 = time.perf_counter()
            self.samples += reference_times()
            self.paused += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        self.samples, self.paused = reference_times(), 0.0
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.samples += reference_times()


def run_round(workload, seed: int, workdir: str, tracer, record: dict) -> None:
    """Execute the workload's distinct operations once each.  Inputs are made
    and outputs checked outside the timed part.  Untraced, the host's speed
    is sampled with the reference kernel around and during each execution."""
    for k in range(workload.distinct_ops):
        inputs = workload.inputs(seed, k, workdir)
        if tracer is not None:
            tracer.begin_op(len(record["latencies"]))
        with contextlib.nullcontext() if tracer is not None else HostSpeed() as host:
            t0 = time.perf_counter()
            try:
                output, error = workload.run(inputs, tracer), None
            except Exception:  # an operation that raises counts as failed; the run goes on
                output, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
        if tracer is not None:
            elapsed = tracer.end_op()
        else:
            elapsed -= host.paused
            record["relative"].append(elapsed / statistics.mean(host.samples))
        record["latencies"].append(elapsed)
        if error is None:
            try:
                found = workload.check(inputs, output)
            except Exception:  # output the check cannot read is wrong output
                found = [f"op {k}: unreadable output:\n{traceback.format_exc(limit=3)}"]
        else:
            found = [f"op {k} raised:\n{error}"]
        record["failures"].append(found)
        if error is None and workload.verdict is not None:
            label = workload.verdict(output)
            record["verdicts"][label] = record["verdicts"].get(label, 0) + 1


def judge(failures: list[list[str]], distinct_ops: int) -> dict:
    """Count failed executions; a run is correct when no output check failed."""
    seen = []
    for message in (m for found in failures for m in found):
        if message not in seen and len(seen) < 5:
            seen.append(message)
            print(f"perfbench: check failed: {message}", file=sys.stderr)
    failed = sum(1 for found in failures if found)
    return {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "ops_failed_frac": failed / len(failures),
        "failed_ops": sorted({i % distinct_ops for i, found in enumerate(failures) if found}),
    }


def per_layer(spec: list[dict], totals: dict, rounds: int) -> dict:
    """Per-round values of the per-layer metrics named <module>.<function>.<metric>."""
    derived = {
        "us_per_eval": lambda e: 1e6 * e["eval_s"] / e["evals"],
        "converged_frac": lambda e: e["converged"] / e["calls"],
        "ns_per_sample": lambda e: 1e9 * e["busy_s"] / e["samples"],
        "ms_per_100": lambda e: 1e5 * e["busy_s"] / e["resamples"],
    }
    metrics = {}
    for m in spec:
        function, key = m["name"].rsplit(".", 1)
        entry = totals.get(function)
        if entry is None:
            value = 0.0  # the layer does not run on this workload
        elif key in derived:
            value = derived[key](entry)
        else:
            value = entry.get(key, 0.0) / rounds
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("need --seed >= 0 and --seconds > 0")

    workload = bw.WORKLOADS[args.workload]
    n = workload.distinct_ops
    setup_times = [] if args.trace else measure_setup(warm=True)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    tracer = bench_trace.Tracer() if args.trace else None
    record = {"latencies": [], "relative": [], "failures": [], "verdicts": {}}
    rounds = 0
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        last_round = 0.0
        while rounds == 0 or start + args.seconds - time.perf_counter() >= last_round / 2:
            round_start = time.perf_counter()
            run_round(workload, args.seed, workdir, tracer, record)
            last_round = time.perf_counter() - round_start
            rounds += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setup_times += measure_setup(warm=False)

    verdict = judge(record["failures"], n)
    latencies = record["latencies"]
    per_op = [statistics.median(latencies[k::n]) for k in range(n)]
    info = {"provenance": provenance(args.workload, args.seed), "trace": args.trace,
            **{k: v for k, v in verdict.items() if k != "correct"},
            "distinct_ops": n, "rounds": rounds, "program_verdicts": record["verdicts"],
            "latency_p50_s": statistics.median(per_op),
            "ops_per_s": n / sum(per_op),
            "latency_tail_s": tail_latency(latencies),
            "latencies_s": latencies,
            "setup_times_s": [seconds for seconds, _ in setup_times]}

    if tracer is not None:
        spans = tracer.spans
        own, eval_own = bench_trace.self_times(spans)
        problems = bench_trace.check_nesting(spans, own)
        per_round = []
        for r in range(rounds):
            part = [row for row in zip(spans, own, eval_own) if r * n <= row[0]["op_id"] < (r + 1) * n]
            per_round.append(bench_trace.count_signature(bench_trace.layer_totals(*zip(*part))))
        if any(counts != per_round[0] for counts in per_round):
            problems.append("per-layer counts differ between rounds of the same operations")
        for problem in problems[:5]:
            print(f"perfbench: trace: {problem}", file=sys.stderr)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        info.update(trace_problems=len(problems), counts_per_round=per_round[0])
        verdict["correct"] = verdict["correct"] and not problems
        metrics = per_layer(spec["per_layer"], bench_trace.layer_totals(spans, own, eval_own), rounds)
    else:
        relative = record["relative"]
        info["relative_latencies"] = relative
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup_times),
            "latency_p50_rel": statistics.median(statistics.median(relative[k::n]) for k in range(n)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print("bench-info " + json.dumps(info))
    print(json.dumps({"correct": verdict["correct"], "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

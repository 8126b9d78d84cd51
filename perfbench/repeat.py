#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report the run-to-run spread.

    python3 perfbench/repeat.py --workloads sweep,probe --seeds 1-10
    python3 perfbench/repeat.py --workloads all --seeds 1 --overhead

For each workload and end-to-end metric: the median over the runs, the
quartiles from statistics.quantiles(n=4), and the spread (q3 - q1) / median
beside a third of the metric's bound in BENCHMARK.json.  --overhead adds one
traced run per seed and reports traced minus untraced latency_p50_s; a seed
fixes the operations, so both runs execute the same ones.  Every run's
output lines go to .bench_build/perfbench/repeat-<time>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
LOG_DIR = ROOT / ".bench_build" / "perfbench"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int, log) -> tuple[dict, dict]:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    info = json.loads(lines[-2].removeprefix("bench-info "))
    info["process_wall_s"] = time.perf_counter() - started
    result = json.loads(lines[-1])
    log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                          "info": info, "result": result}) + "\n")
    log.flush()
    return info, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all", help=f"comma separated from {names}, or all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--overhead", action="store_true", help="also run traced and report the overhead")
    args = parser.parse_args()
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    LOG_DIR.mkdir(parents=True, exist_ok=True)
    log_path = LOG_DIR / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    worst = 0.0
    with open(log_path, "w", encoding="utf-8") as log:
        for workload in workloads:
            runs, overheads = [], []
            for seed in seeds:
                info, result = run_once(workload, seed, args.seconds, 0, log)
                runs.append((info, result))
                if args.overhead:
                    traced, _ = run_once(workload, seed, args.seconds, 1, log)
                    overheads.append(traced["latency_p50_s"] - info["latency_p50_s"])
            attempted = sum(r["attempted"] for _, r in runs)
            failed = sum(r["failed"] for _, r in runs)
            correct = all(r["correct"] for _, r in runs)
            wall = statistics.mean(info["process_wall_s"] for info, _ in runs)
            print(f"{workload}: {len(runs)} runs of {wall:.1f} s on average, {attempted} ops, "
                  f"{failed} failed, correct in every run: {correct}")
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for _, r in runs]
                median = statistics.median(values)
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                else:
                    q1 = q3 = values[0]
                spread = (q3 - q1) / median
                if metric["name"] != "setup_s":
                    worst = max(worst, spread / metric["bound"])
                print(f"  {metric['name']:>14} {median:12.6g} {metric['unit']:<4} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:6.3f} "
                      f"(bound/3 {metric['bound'] / 3:.3f})")
            if overheads:
                print(f"  tracing overhead on latency_p50_s: median {statistics.median(overheads):+.6f} s "
                      f"over {len(overheads)} seed(s): {[round(o, 6) for o in overheads]}")
    print(f"worst spread as a share of its bound (setup_s excluded): {worst:.3f}")
    print(f"runs logged to {log_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: how each generates its inputs from the workload seed,
runs one operation through superadd's public entry points, and checks the
operation's output.

A seed fixes each workload's `distinct_ops` operations: operation k draws
its inputs from numpy's generator seeded with (workload seed, k).  Angles are
stratified: operation k takes its angle from stratum k of distinct_ops equal
strata of the workload's range, so the operations cover the whole range
whatever the seed.

A workload's check returns a list of failures, each a message saying how
the program's output is wrong; an empty list means the output is correct.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from superadd import cli, twoshot
from superadd.capacities import c1, c_infinity
from superadd.statespace import Angle
from superadd.twoshot import optimize_r2

def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _stratified_angle(rng, k: int, strata: int, lo: float, hi: float) -> float:
    width = (hi - lo) / strata
    return lo + width * (k + rng.uniform(0.02, 0.98))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with its output captured; looked up at call time so a traced
    run reaches the wrapped entry point."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _fmt(deg: float) -> str:
    return f"{deg:.6f}"


# ---------------------------------------------------------------------------
# sweep: the three curve datasets of scripts/make_curve_data.py


SWEEP_JOBS = (
    # (columns, from_deg, to_deg, steps): the jobs of scripts/make_curve_data.py,
    # the two optimizer grids coarser so that one operation takes about half a second
    ("c1,cinf,ratio", 1.0, 89.0, 89),
    ("r2,r2trunc,r2trunc_reused,c1,r2_over_c1", 1.0, 25.0, 8),
    ("r2,c1,diff", 0.5, 18.6, 8),
)
SWEEP_JITTER_DEG = 0.5  # each endpoint moves inward by up to this much
SUPERADDITIVE_BELOW_DEG = 18.6  # the repo's gap curve stops here; crossover is 18.70
SMALL_ANGLE_DEG = 2.0
SMALL_ANGLE_RATIO = (1.027, 1.029)  # r2/c1 around the 1.02818 limit


def _check_sweep_csv(path: str, columns: str, steps: int) -> list[str]:
    failures = []
    with open(path, encoding="utf-8", newline="") as stream:
        written = stream.read()
    table = cli.read_csv(path)
    rewritten = io.StringIO()
    cli.write_csv(table, rewritten)
    if rewritten.getvalue() != written:
        failures.append(f"{path}: CSV does not round-trip through read_csv")
    if table.column_names != tuple(columns.split(",")) or len(table) != steps:
        failures.append(f"{path}: columns {table.column_names} x {len(table)} rows")
        return failures
    col = table.columns
    if "ratio" in col and not np.array_equal(col["ratio"], col["cinf"] / col["c1"]):
        failures.append(f"{path}: ratio != cinf/c1")
    if "diff" in col and not np.array_equal(col["diff"], col["r2"] - col["c1"]):
        failures.append(f"{path}: diff != r2 - c1")
    if "r2_over_c1" in col and not np.array_equal(col["r2_over_c1"], col["r2"] / col["c1"]):
        failures.append(f"{path}: r2_over_c1 != r2/c1")
    if "r2" in col:
        for deg, r2, one_shot in zip(table.gamma_deg, col["r2"], col["c1"]):
            if deg < SUPERADDITIVE_BELOW_DEG:
                cinf = c_infinity(Angle.from_degrees(float(deg)))
                if not one_shot <= r2 <= cinf:
                    failures.append(f"{path}: c1 <= r2 <= cinf fails at {deg} deg")
            if deg <= SMALL_ANGLE_DEG:
                ratio = r2 / one_shot
                if not SMALL_ANGLE_RATIO[0] <= ratio <= SMALL_ANGLE_RATIO[1]:
                    failures.append(f"{path}: r2/c1 = {ratio:.6f} at {deg} deg")
    return failures


def sweep_inputs(seed: int, k: int, workdir: str) -> list[list[str]]:
    rng = _rng(seed, k)
    argvs = []
    for n, (columns, lo, hi, steps) in enumerate(SWEEP_JOBS):
        start = lo + rng.uniform(0.0, SWEEP_JITTER_DEG)
        stop = hi - rng.uniform(0.0, SWEEP_JITTER_DEG)
        argvs.append(["sweep", "--from", _fmt(start), "--to", _fmt(stop), "--steps", str(steps),
                      "--columns", columns, "--out", os.path.join(workdir, f"job{n}.csv")])
    return argvs


def sweep_run(argvs, tracer) -> list:
    return [_run_cli(argv) for argv in argvs]


def sweep_check(argvs, outputs) -> list[str]:
    failures = []
    for argv, (code, _), (columns, _, _, steps) in zip(argvs, outputs, SWEEP_JOBS):
        if code != 0:
            failures.append(f"sweep {columns} exited {code}")
            continue
        failures += _check_sweep_csv(argv[argv.index("--out") + 1], columns, steps)
    return failures


# ---------------------------------------------------------------------------
# crossover: both crossovers by bisection, with seed-jittered brackets


CROSSOVER_ORDER = ("ansatz", "truncated")
CROSSOVER_WINDOW = 0.6  # share of the cli.CROSSOVER_SETUPS bracket each operation bisects
CROSSOVER_SHIFT = 0.3  # the window starts up to this share of the bracket above its low end;
# every such window holds the crossing (at 37 % and 52 % of the brackets, at
# least 0.47 deg from its ends) and has the same width, so each operation
# bisects the same number of times
CROSSOVER_BANDS = {"ansatz": (18.5, 19.5), "truncated": (16.5, 17.5)}  # acceptance gates 2, 3


def crossover_inputs(seed: int, k: int, workdir: str) -> list[tuple[str, float, float]]:
    rng = _rng(seed, k)
    brackets = []
    for name in CROSSOVER_ORDER:
        _, lo, hi = cli.CROSSOVER_SETUPS[name]
        start = lo + rng.uniform(0.0, CROSSOVER_SHIFT) * (hi - lo)
        brackets.append((name, start, start + CROSSOVER_WINDOW * (hi - lo)))
    return brackets


def crossover_run(brackets, tracer) -> list[float]:
    found = []
    for name, lo, hi in brackets:
        rate_fn = cli.CROSSOVER_SETUPS[name][0]

        def counted_rate(gamma: Angle, rate_fn=rate_fn) -> float:
            if tracer is not None:
                tracer.count("rate_evals")
            return rate_fn(gamma)

        angle = twoshot.crossover_angle(counted_rate, Angle.from_degrees(lo), Angle.from_degrees(hi))
        found.append(angle.degrees)
    return found


def crossover_check(brackets, found) -> list[str]:
    failures = []
    for (name, lo, hi), deg in zip(brackets, found):
        band = CROSSOVER_BANDS[name]
        if not band[0] <= deg <= band[1]:
            failures.append(f"{name} crossover {deg:.4f} deg outside {band} "
                            f"(bracket {lo:.4f}..{hi:.4f})")
    return failures


# ---------------------------------------------------------------------------
# probe: the optimize_general lower-bound probe through `superadd point`


PROBE_RANGE_DEG = (1.0, 89.0)
PROBE_OPS = 6
SEED_LIMIT = 2**31 - 1


def probe_inputs(seed: int, k: int, workdir: str) -> list[str]:
    rng = _rng(seed, k)
    deg = _stratified_angle(rng, k, PROBE_OPS, *PROBE_RANGE_DEG)
    return ["point", "--which", "r2gen", "--gamma", _fmt(deg),
            "--seed", str(int(rng.integers(0, SEED_LIMIT)))]


def probe_run(argv, tracer):
    return _run_cli(argv)


def probe_check(argv, output) -> list[str]:
    code, text = output
    if code != 0:
        return [f"{' '.join(argv)} exited {code}"]
    value = float(text.splitlines()[0])
    gamma = Angle.from_degrees(float(argv[argv.index("--gamma") + 1]))
    low, high, ansatz = c1(gamma), c_infinity(gamma), optimize_r2(gamma).bits_per_transmission
    failures = []
    # the sandwich of acceptance gate 6
    if not low - 1e-7 <= value <= high + 1e-9:
        failures.append(f"r2gen {value} outside [c1, cinf] = [{low}, {high}] at {gamma.degrees} deg")
    if value < ansatz - 1e-7:
        failures.append(f"r2gen {value} below r2 {ansatz} at {gamma.degrees} deg")
    return failures


# ---------------------------------------------------------------------------
# montecarlo: `superadd mc` at the sample count of acceptance gate 8


MC_RANGE_DEG = (1.0, 89.0)
MC_OPS = 32
MC_SAMPLES = 1_000_000
MC_FIELDS = ("analytic_mi_bits", "empirical_mi_bits", "bootstrap_se", "z")
# `superadd mc` prints FAIL beyond 3 standard errors, which a correct estimator
# does on 0.27 % of its inputs, so with 32 operations per seed some seeds have
# one.  The check asks for agreement within 5 standard errors instead, which
# a correct estimator misses on about 1 input in a million.
MC_Z_LIMIT = 5.0


def montecarlo_inputs(seed: int, k: int, workdir: str) -> list[str]:
    rng = _rng(seed, k)
    deg = _stratified_angle(rng, k, MC_OPS, *MC_RANGE_DEG)
    return ["mc", "--gamma", _fmt(deg), "--samples", str(MC_SAMPLES),
            "--seed", str(int(rng.integers(0, SEED_LIMIT)))]


def montecarlo_run(argv, tracer):
    return _run_cli(argv)


def _mc_report(text: str) -> tuple[dict, list[str]]:
    """The `name = value` lines and the RESULT lines of `superadd mc`."""
    fields, verdicts = {}, []
    for line in text.splitlines():
        if line.startswith("RESULT:"):
            verdicts.append(line)
        else:
            name, sep, value = line.partition(" = ")
            if sep:
                fields[name] = float(value)
    return fields, verdicts


def montecarlo_check(argv, output) -> list[str]:
    code, text = output
    op = " ".join(argv)
    if code != 0:
        return [f"{op} exited {code}"]
    fields, verdicts = _mc_report(text)
    if len(verdicts) != 1 or not fields.keys() >= set(MC_FIELDS):
        return [f"{op} printed no complete report"]
    analytic, empirical, se, z = (fields[name] for name in MC_FIELDS)
    gamma = Angle.from_degrees(float(argv[argv.index("--gamma") + 1]))
    failures = []
    expected = 2.0 * optimize_r2(gamma).bits_per_transmission
    if abs(analytic - expected) > 1e-9:
        failures.append(f"{op}: analytic_mi_bits {analytic} != 2 r2 = {expected}")
    if not se > 0 or abs(z - (empirical - analytic) / se) > 2e-3 * max(1.0, abs(z)):
        failures.append(f"{op}: z = {z} does not match its estimate and standard error")
    elif abs(z) > MC_Z_LIMIT:
        failures.append(f"{op}: estimate {empirical} is {z:+.2f} standard errors from {analytic}")
    return failures


def montecarlo_verdict(output) -> str:
    """The program's own 3-sigma verdict, PASS or FAIL, tallied in bench-info."""
    _, verdicts = _mc_report(output[1])
    return verdicts[0].split()[1] if len(verdicts) == 1 else "none"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # (seed, k, workdir) -> inputs of operation k
    run: Callable  # (inputs, tracer) -> output; the timed part
    check: Callable  # (inputs, output) -> list[str]
    distinct_ops: int  # operations a seed fixes; also the strata of the angle range
    verdict: Callable | None = None  # output -> a label tallied in bench-info


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", sweep_inputs, sweep_run, sweep_check, distinct_ops=4),
        Workload("crossover", crossover_inputs, crossover_run, crossover_check, distinct_ops=8),
        Workload("probe", probe_inputs, probe_run, probe_check, distinct_ops=PROBE_OPS),
        Workload("montecarlo", montecarlo_inputs, montecarlo_run, montecarlo_check,
                 distinct_ops=MC_OPS, verdict=montecarlo_verdict),
    )
}

"""Command-line surface: point values, curve sweeps to CSV, crossover angles,
and Monte Carlo validation runs.

Angles are degrees at this boundary and radians everywhere inside.  Output
CSV uses '\\n' line endings, '.' decimals, and '#'-prefixed comment lines;
data values are printed with 17 significant digits so re-parsing reproduces
the floats bit for bit.  Exit codes: 0 success, 2 argument error, 3
numerical or bracketing failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Iterable

import numpy as np

from . import __version__
from . import coherent, mcsim, twoshot
from .capacities import RateResult, c1, c_infinity
from .errors import BracketingError, CompletenessError
from .statespace import Angle, two_shot_alphabet
from .sweeps import SweepTable

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

POINT_CHOICES = ("c1", "cinf", "r2", "r2gen", "r2trunc")

CROSSOVER_SETUPS: dict[str, tuple[Callable[[Angle], float], float, float]] = {
    "ansatz": (lambda g: twoshot.optimize_r2(g).bits_per_transmission, 15.0, 25.0),
    "truncated": (lambda g: coherent.optimize_r2_truncated(g).bits_per_transmission, 14.0, 20.0),
}


def _angle(gamma_deg: float) -> Angle:
    """gamma_deg, which must lie in [0, 90] deg, as an Angle; the optimizers
    reject the ends themselves (twoshot._check_open_range)."""
    if not 0.0 <= gamma_deg <= 90.0:
        raise ValueError(f"gamma must lie in [0, 90] deg, got {gamma_deg}")
    return Angle.from_degrees(gamma_deg)


# Every column at one angle, in sweep order, from (gamma, seed, result): a
# capacity, the result of an optimizer, or a value derived from other
# columns; result(name) is the same row's result for another column.  The
# lambdas look functions up at call time, so a replaced module attribute (a
# monkeypatch, the benchmark's tracer) takes effect.
_Result = float | RateResult
_COLUMNS: dict[str, Callable[[Angle, int, Callable[[str], _Result]], _Result]] = {
    "c1": lambda gamma, seed, result: c1(gamma),
    "cinf": lambda gamma, seed, result: c_infinity(gamma),
    "ratio": lambda gamma, seed, result: _value(result("cinf")) / _value(result("c1")),
    "r2": lambda gamma, seed, result: twoshot.optimize_r2(gamma),
    "diff": lambda gamma, seed, result: _value(result("r2")) - _value(result("c1")),
    "r2_over_c1": lambda gamma, seed, result: _value(result("r2")) / _value(result("c1")),
    "r2trunc": lambda gamma, seed, result: coherent.optimize_r2_truncated(gamma),
    "r2trunc_reused": lambda gamma, seed, result: coherent.optimize_r2_truncated_reused(
        gamma, ideal=result("r2")),
    "r2gen": lambda gamma, seed, result: twoshot.optimize_general(gamma, seed=seed,
                                                                  ideal=result("r2")),
}
SWEEP_COLUMNS = tuple(_COLUMNS)


def _value(result: _Result) -> float:
    return result.bits_per_transmission if isinstance(result, RateResult) else result


def cmd_point(gamma_deg: float, which: str, seed: int = 0) -> int:
    """Print one requested quantity, then the optimizing parameters if any."""
    if which not in POINT_CHOICES:
        raise ValueError(f"unknown quantity {which!r}")
    result = _row_result(which, _angle(gamma_deg), {}, seed)
    print(f"{_value(result):.10f}")
    if which == "r2gen":
        print("# lower-bound probe over all four-outcome measurements")
    if isinstance(result, RateResult):
        for name, v in result.params.items():
            print(f"{name} = {v:.10g}")
    return EXIT_OK


def _row_result(name: str, gamma: Angle, cache: dict[str, _Result], seed: int) -> _Result:
    """A column's result at gamma, computed at most once per cache (one sweep row)."""
    if name not in cache:
        cache[name] = _COLUMNS[name](gamma, seed,
                                    lambda other: _row_result(other, gamma, cache, seed))
    return cache[name]


def sweep_table(from_deg: float, to_deg: float, steps: int, columns: Iterable[str],
                seed: int = 0) -> SweepTable:
    """Evaluate the requested columns over an inclusive degree grid."""
    columns = list(columns)
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if not 0.0 < from_deg < to_deg < 90.0:
        raise ValueError("need 0 < from < to < 90 degrees")
    unknown = [c for c in columns if c not in SWEEP_COLUMNS]
    if unknown:
        raise ValueError(f"unknown sweep columns: {unknown}")
    if not columns or len(set(columns)) != len(columns):
        raise ValueError(f"need distinct sweep columns, at least one, got {columns}")
    grid = np.linspace(from_deg, to_deg, steps)

    rows = []
    for deg in grid:
        gamma = Angle.from_degrees(deg)
        cache: dict[str, _Result] = {}
        rows.append([_value(_row_result(c, gamma, cache, seed)) for c in columns])
    data = np.array(rows)
    settings = " ".join(f"{name}={v:g}" for name, v in twoshot.ANSATZ_HYPERPARAMS.items())
    provenance = (
        f"superadd sweep from={from_deg:g} to={to_deg:g} steps={steps} "
        f"columns={','.join(columns)} seed={seed} {settings} version={__version__}"
    )
    return SweepTable(
        gamma_deg=grid,
        columns={name: data[:, k] for k, name in enumerate(columns)},
        provenance=provenance,
    )


def write_csv(table: SweepTable, stream) -> None:
    if table.provenance:
        stream.write(f"# {table.provenance}\n")
    stream.write(",".join(("gamma_deg",) + table.column_names) + "\n")
    for i in range(len(table)):
        stream.write(",".join(f"{v:.17g}" for v in table.row(i)) + "\n")


def read_csv(path) -> SweepTable:
    """Parse a table written by write_csv; raises ValueError for a file with
    no header or no data row, a header that repeats a name, and a row whose
    field count is not the header's."""
    provenance = ""
    header: list[str] = []
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                provenance = line[1:].strip()
                continue
            fields = line.split(",")
            if not header:
                header = fields
                if len(set(header)) != len(header):
                    raise ValueError(f"{path}: the header repeats a column name: {line}")
                continue
            if len(fields) != len(header):
                raise ValueError(f"{path}: a row has {len(fields)} fields, the header {len(header)}")
            rows.append([float(tok) for tok in fields])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows)
    return SweepTable(
        gamma_deg=data[:, 0],
        columns={name: data[:, k + 1] for k, name in enumerate(header[1:])},
        provenance=provenance,
    )


def cmd_sweep(from_deg: float, to_deg: float, steps: int, columns: Iterable[str],
              out: str, seed: int = 0) -> int:
    table = sweep_table(from_deg, to_deg, steps, columns, seed=seed)
    with open(out, "w", encoding="utf-8", newline="") as stream:
        write_csv(table, stream)
    return EXIT_OK


def cmd_crossover(which: str) -> int:
    """Locate where the chosen rate curve crosses the one-shot capacity."""
    rate_fn, lo, hi = CROSSOVER_SETUPS[which]
    angle = twoshot.crossover_angle(rate_fn, Angle.from_degrees(lo), Angle.from_degrees(hi))
    print(f"{angle.degrees:.2f}")
    return EXIT_OK


def cmd_mc(gamma_deg: float, samples: int, seed: int) -> int:
    """Monte Carlo check of the optimal two-shot rate at one angle."""
    if samples < 1:
        raise ValueError("samples must be positive")
    gamma = _angle(gamma_deg)
    result = twoshot.optimize_r2(gamma)
    eta, p = result.params["eta"], result.params["p"]
    ensemble = twoshot._ansatz_ensemble(p, two_shot_alphabet(gamma))
    basis = twoshot.ansatz_basis(eta, gamma)
    config = mcsim.SimConfig(samples=samples, seed=seed, ensemble=ensemble, basis=basis)
    counts = mcsim.simulate(config)
    analytic = 2.0 * result.bits_per_transmission
    empirical = mcsim.empirical_mi(counts)
    se = mcsim.bootstrap_standard_error(counts, resamples=100, seed=seed + 1)
    miss = empirical - analytic  # at zero spread, z is inf with the sign of the miss, or 0
    z = miss / se if se > 0 else (math.copysign(math.inf, miss) if miss else 0.0)
    print(f"analytic_mi_bits = {analytic:.10f}")
    print(f"empirical_mi_bits = {empirical:.10f}")
    print(f"bootstrap_se = {se:.4e}")
    print(f"z = {z:+.3f}")
    print(f"RESULT: {'PASS' if abs(z) <= 3.0 else 'FAIL'} (3 sigma)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superadd",
        description="Communication rates for a two-state alphabet under collective decoding.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="print one capacity or rate value")
    p_point.add_argument("--gamma", type=float, required=True, help="overlap angle, degrees")
    p_point.add_argument("--which", choices=POINT_CHOICES, required=True)
    p_point.add_argument("--seed", type=int, default=0, help="seed for r2gen")

    p_sweep = sub.add_parser("sweep", help="write a CSV of curves over an angle grid")
    p_sweep.add_argument("--from", dest="from_deg", type=float, required=True)
    p_sweep.add_argument("--to", dest="to_deg", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--columns", type=str, required=True,
                         help=f"comma separated, from: {','.join(SWEEP_COLUMNS)}")
    p_sweep.add_argument("--out", type=str, required=True)
    p_sweep.add_argument("--seed", type=int, default=0)

    p_cross = sub.add_parser("crossover", help="angle where a rate curve meets c1")
    p_cross.add_argument("--which", choices=tuple(CROSSOVER_SETUPS), required=True)

    p_mc = sub.add_parser("mc", help="Monte Carlo consistency check at one angle")
    p_mc.add_argument("--gamma", type=float, required=True)
    p_mc.add_argument("--samples", type=int, required=True)
    p_mc.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "point":
            return cmd_point(args.gamma, args.which, seed=args.seed)
        if args.command == "sweep":
            columns = [c.strip() for c in args.columns.split(",") if c.strip()]
            return cmd_sweep(args.from_deg, args.to_deg, args.steps, columns, args.out,
                             seed=args.seed)
        if args.command == "crossover":
            return cmd_crossover(args.which)
        return cmd_mc(args.gamma, args.samples, args.seed)
    except (BracketingError, CompletenessError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

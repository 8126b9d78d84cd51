#!/usr/bin/env python3
"""Regenerate the three headline curve datasets as CSV files.

Writes, under --out-dir (default results/):
  capacity_ratio.csv   c1, c_infinity, and their ratio over 1..89 deg
  two_shot_rates.csv   ideal and clipped-basis two-shot rates against c1
  rate_gap.csv         the superadditivity gap r2 - c1 over the gain window

The two-shot sweep is the slow one: three optimizations per grid point, the
reused-eta column taking its eta from the row's r2 optimum.  The whole script
takes about 0.17 s on a shared 2-vCPU host, about 0.12 s of it starting Python
and importing superadd with numpy (scipy is not loaded); pass --quick for
coarser grids (about 0.14 s).
"""

import argparse
import pathlib
import sys

from superadd import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--quick", action="store_true", help="coarser grids")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dense = 30 if args.quick else 60

    jobs = [
        (["sweep", "--from", "1", "--to", "89", "--steps", "89",
          "--columns", "c1,cinf,ratio",
          "--out", str(out_dir / "capacity_ratio.csv")], "capacity_ratio.csv"),
        (["sweep", "--from", "1", "--to", "25", "--steps", str(dense),
          "--columns", "r2,r2trunc,r2trunc_reused,c1,r2_over_c1",
          "--out", str(out_dir / "two_shot_rates.csv")], "two_shot_rates.csv"),
        (["sweep", "--from", "0.5", "--to", "18.6", "--steps", str(dense),
          "--columns", "r2,c1,diff",
          "--out", str(out_dir / "rate_gap.csv")], "rate_gap.csv"),
    ]
    for argv, name in jobs:
        code = cli.main(argv)
        if code != 0:
            print(f"failed on {name} (exit {code})", file=sys.stderr)
            return code
        print(f"wrote {out_dir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

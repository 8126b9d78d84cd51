#!/usr/bin/env python3
"""Print the small-angle behaviour of the two-shot gain and both crossovers.

The ratio r2/c1 tends to about 1.02818 as the overlap angle shrinks; the
collective advantage survives up to roughly 18.7 deg with the ideal
measurement and 17.1 deg with the photon-space one.
"""

from superadd import Angle, c1, optimize_r2
from superadd.cli import CROSSOVER_SETUPS
from superadd.twoshot import crossover_angle


def main() -> int:
    print(f"{'gamma_deg':>10} {'r2':>14} {'c1':>14} {'r2/c1':>10}")
    for gamma_deg in (8.0, 4.0, 2.0, 1.0, 0.5, 0.2, 0.1, 0.05):
        gamma = Angle.from_degrees(gamma_deg)
        r2 = optimize_r2(gamma).bits_per_transmission
        base = c1(gamma)
        print(f"{gamma_deg:>10.2f} {r2:>14.8e} {base:>14.8e} {r2 / base:>10.6f}")
    for name, (rate_fn, lo, hi) in CROSSOVER_SETUPS.items():
        angle = crossover_angle(rate_fn, Angle.from_degrees(lo), Angle.from_degrees(hi))
        print(f"{name} crossover: {angle.degrees:.2f} deg")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

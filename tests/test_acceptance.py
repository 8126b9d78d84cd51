"""End-to-end acceptance gates for the package.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (visible with
``pytest -s`` or in the failure report) and then asserts.  Criterion 5 checks
that c_infinity/c1 diverges as the overlap angle vanishes; its ratio > 10
threshold sits on an angle where the ratio does reach 10 (it grows by about
ln 2 per halving of the angle, so it is only about 5 at 1.25 deg).  See the
module docstrings for what each quantity means.
"""

import math
import time

import mpmath
import numpy as np
from scipy.optimize import minimize

from superadd import cli
from superadd.capacities import Ensemble, c1, c_infinity
from superadd.coherent import optimize_r2_truncated
from superadd.mcsim import SimConfig, bootstrap_standard_error, empirical_mi, simulate
from superadd.statespace import Angle, two_shot_alphabet
from superadd.twoshot import ansatz_basis, optimize_general, optimize_r2

LIMIT_RATIO = 1.02818
GENERAL_SEED = 123


def deg(d):
    return Angle.from_degrees(d)


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_small_angle_limit_ratio():
    ratios = {}
    worst_time = 0.0
    for gamma_deg in (0.5, 1.0, 2.0):
        start = time.perf_counter()
        result = optimize_r2(deg(gamma_deg))
        worst_time = max(worst_time, time.perf_counter() - start)
        ratios[gamma_deg] = result.bits_per_transmission / c1(deg(gamma_deg))
    in_window = all(1.027 <= r <= 1.029 for r in ratios.values())
    gaps = [abs(ratios[d] - LIMIT_RATIO) for d in (0.5, 1.0, 2.0)]
    monotone = gaps[0] <= gaps[1] <= gaps[2]
    at_half = abs(ratios[0.5] - LIMIT_RATIO) <= 1e-3
    fast = worst_time < 10.0
    _report(
        1,
        in_window and monotone and at_half and fast,
        f"ratios={ {d: round(r, 6) for d, r in ratios.items()} }, "
        f"limit gap at 0.5 deg = {gaps[0]:.2e}, worst point {worst_time:.2f}s",
    )


def _mp_limit_ratio():
    """The small-angle limit of r2/c1, solved independently of the package at
    40 digits: the maximum of F(u, p) = 2p + 2pA ln A + (1-2p)C ln C - M ln M,
    A = (u - 1/sqrt2)^2, C = u^2, M = 2pA + (1-2p)C, where its gradient
    vanishes."""
    with mpmath.workdps(40):
        def f(u, p):
            a, c = (u - 1 / mpmath.sqrt(2)) ** 2, u ** 2
            m = 2 * p * a + (1 - 2 * p) * c
            return (2 * p + 2 * p * a * mpmath.log(a) + (1 - 2 * p) * c * mpmath.log(c)
                    - m * mpmath.log(m))

        def gradient(u, p):
            return mpmath.diff(f, (u, p), (1, 0)), mpmath.diff(f, (u, p), (0, 1))

        u, p = mpmath.findroot(gradient, (mpmath.mpf("0.756"), mpmath.mpf("0.4695")))
        return float(f(u, p))


def test_small_angle_gap_closes_as_gamma_squared():
    # Both families approach the limit from below, and the gap divided by
    # gamma^2 (degrees) holds steady from 2 deg down to 0.05 deg, so the limit
    # of r2/c1 is F* itself; gate 1's LIMIT_RATIO is its five-digit rounding.
    limit = _mp_limit_ratio()
    assert abs(limit - 1.0281785252645) <= 1e-12
    windows = {optimize_r2: (8.0e-5, 8.7e-5), optimize_r2_truncated: (9.3e-5, 1.01e-4)}
    for optimizer, (low, high) in windows.items():
        for gamma_deg in (2.0, 1.0, 0.5, 0.2, 0.1, 0.05):
            gap = limit - optimizer(deg(gamma_deg)).bits_per_transmission / c1(deg(gamma_deg))
            assert gap > 0.0, (optimizer.__name__, gamma_deg, gap)
            assert low <= gap / gamma_deg**2 <= high, (optimizer.__name__, gamma_deg, gap)


def test_criterion_2_ansatz_crossover(capsys):
    start = time.perf_counter()
    code = cli.cmd_crossover("ansatz")
    elapsed = time.perf_counter() - start
    found = float(capsys.readouterr().out.strip())
    with capsys.disabled():
        _report(
            2,
            code == 0 and abs(found - 19.0) <= 0.5 and elapsed < 30.0,
            f"crossover {found:.2f} deg in {elapsed:.1f}s",
        )


def test_criterion_3_truncated_crossover(capsys):
    start = time.perf_counter()
    code = cli.cmd_crossover("truncated")
    elapsed = time.perf_counter() - start
    found = float(capsys.readouterr().out.strip())
    with capsys.disabled():
        _report(
            3,
            code == 0 and abs(found - 17.0) <= 0.5 and elapsed < 60.0,
            f"crossover {found:.2f} deg in {elapsed:.1f}s",
        )


def test_criterion_4_endpoint_exactness():
    values = {
        "c1(90)": c1(deg(90)),
        "cinf(90)": c_infinity(deg(90)),
        "c1(0)": c1(deg(0)),
        "cinf(0)": c_infinity(deg(0)),
    }
    ok = (
        abs(values["c1(90)"] - 1.0) <= 1e-12
        and abs(values["cinf(90)"] - 1.0) <= 1e-12
        and abs(values["c1(0)"]) <= 1e-12
        and abs(values["cinf(0)"]) <= 1e-12
    )
    _report(4, ok, f"values={values}")


def _mp_capacity_ratio(gamma_deg):
    """H2(sin^2(g/2)) / (1 - H2((1 + sin g)/2)) at 50 digits."""
    with mpmath.workdps(50):
        g = mpmath.radians(gamma_deg)

        def h2(x):
            return -(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2))

        return float(h2(mpmath.sin(g / 2) ** 2) / (1 - h2((1 + mpmath.sin(g)) / 2)))


def test_criterion_5_capacity_ratio_divergence_proxy():
    # c_infinity/c1 = ln 2 + 1/2 - ln sin g + (g^2/12) ln(1/g) + O(g^2):
    # each halving of the angle adds about ln 2, so the ratio is only about
    # 5.02 at 1.25 deg and passes 10 near 0.0086 deg.  The halvings therefore
    # run from 10 deg down to 10/2^11 deg (ratio about 10.56), where the > 10
    # clause applies.  Every ratio must also match a 50-digit mpmath
    # evaluation and exceed the asymptote by between 0 and g^2 (at most
    # 0.69 g^2 over these angles), which the closed forms only meet if they
    # keep their precision at small angles.
    angles = [10.0 / 2**k for k in range(12)]
    start = time.perf_counter()
    ratios = [c_infinity(deg(d)) / c1(deg(d)) for d in angles]
    elapsed = time.perf_counter() - start
    increasing = all(lo < hi for lo, hi in zip(ratios, ratios[1:]))
    exceeds_ten = ratios[-1] > 10.0
    worst_rel = max(
        abs(r - ref) / ref for r, ref in zip(ratios, map(_mp_capacity_ratio, angles))
    )
    matches_reference = worst_rel <= 1e-12
    excess = [
        r - (math.log(2.0) + 0.5 - math.log(math.sin(math.radians(d))))
        for r, d in zip(ratios, angles)
    ]
    bracketed = all(0.0 <= e <= math.radians(d) ** 2 for e, d in zip(excess, angles))
    _report(
        5,
        increasing and exceeds_ten and matches_reference and bracketed and elapsed < 1.0,
        f"ratios={[round(r, 4) for r in ratios]}, increasing={increasing}, "
        f"last>10={exceeds_ten}, worst mpmath rel err={worst_rel:.1e}, "
        f"asymptote excess/g^2={[round(e / math.radians(d) ** 2, 3) for e, d in zip(excess, angles)]}",
    )


def test_criterion_6_bound_sandwich():
    start = time.perf_counter()
    grid = np.linspace(1.0, 89.0, 50)
    worst_low, worst_high, worst_vs_ansatz = np.inf, -np.inf, np.inf
    for gamma_deg in grid:
        gamma = deg(gamma_deg)
        ideal = optimize_r2(gamma)
        general = optimize_general(gamma, seed=GENERAL_SEED, ideal=ideal).bits_per_transmission
        ansatz = ideal.bits_per_transmission
        worst_low = min(worst_low, general - c1(gamma))
        worst_high = max(worst_high, general - c_infinity(gamma))
        worst_vs_ansatz = min(worst_vs_ansatz, general - ansatz)
    elapsed = time.perf_counter() - start
    ok = worst_low >= -1e-7 and worst_high <= 1e-9 and worst_vs_ansatz >= -1e-7
    _report(
        6,
        ok and elapsed < 600.0,
        f"min(general-c1)={worst_low:.2e}, max(general-cinf)={worst_high:.2e}, "
        f"min(general-ansatz)={worst_vs_ansatz:.2e}, {elapsed:.0f}s for 50 points",
    )


def test_criterion_7_rate_gap_curve_shape(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "gap.csv"
    # the measured crossover sits at 18.70 deg (criterion 2 tolerates
    # 18.5..19.5), so the sampled grid stays below it; past the crossover
    # the gap is negative by definition
    code = cli.cmd_sweep(0.5, 18.6, 38, ["r2", "c1", "diff"], str(out))
    table = cli.read_csv(out)
    elapsed = time.perf_counter() - start
    diff = table.columns["diff"]
    nonnegative = bool(diff.min() >= -1e-9)
    peak = int(np.argmax(diff))
    interior = 0 < peak < len(diff) - 1
    rises = np.all(np.diff(diff[: peak + 1]) > -1e-9)
    falls = np.all(np.diff(diff[peak:]) < 1e-9)
    ends_small = diff[0] <= 0.05 * diff[peak] and diff[-1] <= 0.20 * diff[peak]
    ok = code == 0 and nonnegative and interior and bool(rises) and bool(falls) and bool(ends_small)
    _report(
        7,
        ok and elapsed < 120.0,
        f"peak {diff[peak]:.2e} at {table.gamma_deg[peak]:.1f} deg, ends "
        f"({diff[0]:.1e}, {diff[-1]:.1e}), unimodal={bool(rises and falls)}, {elapsed:.0f}s",
    )


def test_criterion_8_monte_carlo_consistency():
    start = time.perf_counter()
    gamma = deg(10)
    result = optimize_r2(gamma)
    eta, p = result.params["eta"], result.params["p"]
    a, b, c, _ = two_shot_alphabet(gamma)
    ensemble = Ensemble(((p, a), (p, b), (1 - 2 * p, c)))
    config = SimConfig(samples=1_000_000, seed=1, ensemble=ensemble, basis=ansatz_basis(eta, gamma))
    counts = simulate(config)
    deterministic = np.array_equal(counts.counts, simulate(config).counts)
    analytic = 2.0 * result.bits_per_transmission
    empirical = empirical_mi(counts)
    se = bootstrap_standard_error(counts, resamples=100, seed=2)
    elapsed = time.perf_counter() - start
    within = abs(empirical - analytic) <= 3.0 * se
    _report(
        8,
        within and deterministic and elapsed < 30.0,
        f"analytic={analytic:.6f}, empirical={empirical:.6f}, se={se:.2e}, "
        f"z={(empirical - analytic) / se:+.2f}, deterministic={deterministic}, {elapsed:.0f}s",
    )


def _independent_best_rate(gamma_deg):
    """Dense-grid search with standard local refinement, built from scratch.

    Assembles the measurement family from the printed expansion coefficients
    over the letters (a different construction than the library's frame
    form), evaluates the rate on a 400 x 200 grid, and polishes the best node
    with Nelder-Mead.
    """
    g = math.radians(gamma_deg)
    sg, cg = math.sin(g), math.cos(g)
    u0, u1 = np.array([1.0, 0.0]), np.array([cg, sg])
    a, b, c = np.kron(u0, u1), np.kron(u1, u0), np.kron(u0, u0)
    letters = np.vstack([a, b, c])
    sqrt2 = math.sqrt(2.0)

    def basis_rows(eta):
        ce, se = np.cos(eta), np.sin(eta)
        shared = (sqrt2 * se * sg - 2.0 * ce * cg) / (2.0 * sg)
        e1 = np.multiply.outer((ce + 1) / (2 * sg), a) + np.multiply.outer((ce - 1) / (2 * sg), b) \
            + np.multiply.outer(shared, c)
        e2 = np.multiply.outer((ce - 1) / (2 * sg), a) + np.multiply.outer((ce + 1) / (2 * sg), b) \
            + np.multiply.outer(shared, c)
        e3 = np.multiply.outer(-sqrt2 * se / (2 * sg), a + b) \
            + np.multiply.outer((sqrt2 * se * cg + ce * sg) / sg, c)
        return np.stack([e1, e2, e3], axis=-2)  # (..., outcome, coordinate)

    def entropy(p, axis=-1):
        terms = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        return -terms.sum(axis=axis)

    def rate_of(eta, p):
        probs = np.einsum("...kd,xd->...kx", basis_rows(eta), letters) ** 2
        weights = np.stack([p, p, 1.0 - 2.0 * p], axis=-1)
        mixture = np.einsum("...kx,...x->...k", probs, weights)
        conditional = np.einsum("...x,...x->...", weights, entropy(probs, axis=-2))
        return (entropy(mixture) - conditional) / 2.0

    etas = np.linspace(0.0, math.pi, 400, endpoint=False)
    ps = np.linspace(0.0, 0.5, 200)
    grid = rate_of(etas[:, None], ps[None, :])
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    refined = minimize(
        lambda x: -rate_of(np.array(x[0]), np.array(min(max(x[1], 0.0), 0.5))),
        np.array([etas[i], ps[j]]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
    )
    return max(float(grid[i, j]), -float(refined.fun))


def test_criterion_9_independent_search_oracle():
    start = time.perf_counter()
    gaps = {}
    for gamma_deg in (5.0, 10.0, 15.0):
        oracle = _independent_best_rate(gamma_deg)
        production = optimize_r2(deg(gamma_deg)).bits_per_transmission
        gaps[gamma_deg] = abs(oracle - production)
    elapsed = time.perf_counter() - start
    ok = all(gap <= 1e-6 for gap in gaps.values())
    _report(
        9,
        ok and elapsed < 120.0,
        f"gaps={ {d: f'{g:.1e}' for d, g in gaps.items()} }, {elapsed:.0f}s",
    )

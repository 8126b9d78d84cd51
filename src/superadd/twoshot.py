"""Two-shot collective measurement rates for the binary alphabet.

The three-outcome measurement family is built directly in an orthonormal
frame of span{a, b, c}: f1 along the repeated letter c, f2 the symmetric
combination of a and b orthogonal to c, f3 the antisymmetric combination.
The frame is exact in the fixed embedding, so the construction stays well
conditioned down to arbitrarily small overlap angles, where the printed
expansion coefficients (which divide by sin gamma) do not.

The unconstrained search over the full orthogonal group in the four
dimensional two-shot span is a lower-bound probe: it ratifies that the
symmetric family is near optimal but proves nothing about the true two-shot
capacity.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable

import numpy as np

from .capacities import LN2, Ensemble, RateResult, _xlog2x, c1, mutual_information
from .errors import BracketingError
from .statespace import Angle, MeasurementBasis, StateVector, two_shot_alphabet

SQRT2 = math.sqrt(2.0)

# Grid-then-refine settings of the symmetric family.
ETA_POINTS = 240  # over [0, pi), the family's period
P_POINTS = 101  # over [0, 0.5]
ETA_XATOL = 1e-8  # the eta search stops when its inner points are this close
ANSATZ_HYPERPARAMS = {
    "eta_points": float(ETA_POINTS),
    "p_points": float(P_POINTS),
    "eta_xatol": ETA_XATOL,
}

# glibc's malloc raises its mmap threshold to the size of the largest
# mmap-ed block freed so far, and its heap-trim threshold to twice that
# (mallopt(3)).  Until some block that large is freed, the grid search's
# temporaries, about 1.2 MB per call, go back to the system at the end of
# each call and are page-faulted in again by the next, which costs about a
# fifth of a sweep's time.  So one 2 MiB block is allocated and freed at
# import.
np.empty(1 << 18)


def _givens_pairs() -> tuple[tuple[int, int], ...]:
    """Adjacent-row plane sequence able to reach every rotation of SO(4)."""
    return tuple((row - 1, row) for col in range(3) for row in range(3, col, -1))


@functools.cache
def _givens_layout() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factor index and plane rows of each Givens factor, and the identity
    stack, padded to a power of two, that _givens_product fills."""
    pairs = _givens_pairs()
    rows, cols = np.array(pairs, dtype=int).T
    size = 1 << (len(pairs) - 1).bit_length()
    layout = (np.arange(len(pairs)), rows, cols, np.eye(4)[None].repeat(size, axis=0))
    for part in layout:
        part.flags.writeable = False  # shared by every caller
    return layout


def _givens_product(angles: np.ndarray) -> np.ndarray:
    """Rotation matrices G_0 G_1 ... G_5 over the leading axes of
    angles[..., 6], where G_k turns the plane _givens_pairs()[k] = (i, j)
    by angles[..., k] (row i -> c row_i - s row_j, row j -> s row_i + c row_j);
    the result has shape angles.shape[:-1] + (4, 4).

    The factors, padded with identities to a power of two, are multiplied
    pairwise, so the product takes three batched matmul calls.
    """
    angles = np.asarray(angles, dtype=float)
    index, rows, cols, identities = _givens_layout()
    factors = np.broadcast_to(identities, angles.shape[:-1] + identities.shape).copy()
    c, s = np.cos(angles), np.sin(angles)
    factors[..., index, rows, rows] = c
    factors[..., index, cols, cols] = c
    factors[..., index, rows, cols] = -s
    factors[..., index, cols, rows] = s
    while factors.shape[-3] > 1:
        factors = factors[..., 0::2, :, :] @ factors[..., 1::2, :, :]
    return factors[..., 0, :, :]


def _rotation_angles(matrix: np.ndarray) -> list[float]:
    """The angles t with _givens_product(t) = matrix, for a 4 x 4 rotation.

    Each plane (i, j) of _givens_pairs() in turn rotates rows i and j of the
    working copy to zero its entry (j, col) below the diagonal, and the
    plane (col, col + 1) is the last one of column col, so the copy ends as
    the identity.  A rotation factors uniquely this way, up to angle
    wrapping.
    """
    work = np.array(matrix, dtype=float)
    if np.linalg.det(work) < 0:
        raise ValueError("only rotations (det +1) factor into plane rotations")
    angles = []
    col = 0
    for i, j in _givens_pairs():
        t = math.atan2(work[j, col], work[i, col])
        c, s = math.cos(t), math.sin(t)
        upper, lower = work[i].copy(), work[j]
        work[i] = c * upper + s * lower
        work[j] = -s * upper + c * lower
        angles.append(t)
        if i == col:  # the last plane of column col
            col += 1
    return angles


def _symmetric_frame(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Orthonormal frame (f1, f2, f3) of span{a, b, c} adapted to the a<->b swap."""
    f1 = c / np.linalg.norm(c)
    sym = a + b
    f2 = sym - (sym @ f1) * f1
    f2 = f2 / np.linalg.norm(f2)
    f3 = a - b
    f3 = f3 / np.linalg.norm(f3)
    return np.vstack([f1, f2, f3])


def ansatz_rows(eta: float, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Three orthonormal measurement vectors satisfying the symmetry constraints.

    By construction <c|e3> = cos(eta), e3 has no antisymmetric component
    (so <a|e3> = <b|e3>), and e1, e2 are the swap-conjugate pair splitting
    the remaining plane at 45 degrees (so <a|e1> = <b|e2> and
    <c|e1> = <c|e2>).
    """
    f1, f2, f3 = _symmetric_frame(a, b, c)
    e3 = math.cos(eta) * f1 - math.sin(eta) * f2
    g = math.sin(eta) * f1 + math.cos(eta) * f2
    e1 = (g + f3) / SQRT2
    e2 = (g - f3) / SQRT2
    return np.vstack([e1, e2, e3])


def ansatz_basis(eta: float, gamma: Angle) -> MeasurementBasis:
    """Symmetric three-outcome measurement family on the two-shot span.

    Requires gamma > 0: at zero overlap angle the letters coincide and the
    span collapses.
    """
    if gamma.radians <= 0.0:
        raise ValueError("ansatz basis needs gamma > 0; the letters coincide at gamma = 0")
    a, b, c, _ = two_shot_alphabet(gamma)
    return MeasurementBasis.from_rows(ansatz_rows(eta, a.coords, b.coords, c.coords))


def _ansatz_ensemble(p: float, letters: tuple[StateVector, ...]) -> Ensemble:
    """The ensemble {(p, a), (p, b), (1-2p, c)} over the two-shot letters
    (a, b, c, d); Ensemble rejects the negative prior of a p outside
    [0, 0.5]."""
    a, b, c, _ = letters
    return Ensemble(((p, a), (p, b), (1.0 - 2.0 * p, c)))


def _symmetric_conditional_probs(amplitudes: Callable, fixed_rows=()) -> Callable:
    """etas -> P[eta..., outcome, letter] of a symmetric family on the letters
    (a, b, c), over the axes of etas; a float eta gives the (outcome, letter)
    rows as a list of tuples of Python floats, equal to the one-element
    array's.

    amplitudes(cos eta, sin eta), on floats or arrays, returns
    (A1a, A1b, A1c, A3a, A3c): e2 is the a <-> b mirror of e1 and A3b = A3a,
    so the outcome rows are the squares of (A1a, A1b, A1c), (A1b, A1a, A1c)
    and (A3a, A3a, A3c).  The rows of fixed_rows, the same at every eta,
    follow them.
    """
    def conditional_probs(etas):
        point = isinstance(etas, float)
        ce, se = np.cos(etas), np.sin(etas)
        if point:
            ce, se = float(ce), float(se)
        pa1, pb1, pc1, pa3, pc3 = (amp * amp for amp in amplitudes(ce, se))
        rows = [(pa1, pb1, pc1), (pb1, pa1, pc1), (pa3, pa3, pc3), *fixed_rows]
        if point:
            return rows
        probs = np.empty(np.shape(etas) + (len(rows), 3))
        for k, row in enumerate(rows):
            for x, value in enumerate(row):
                probs[..., k, x] = value
        return probs

    return conditional_probs


def _ideal_conditional_probs(gamma_rad: float) -> Callable:
    """etas -> P[eta..., outcome, letter] of the symmetric family at one angle
    (see _symmetric_conditional_probs).

    Uses the closed-form frame amplitudes: letters a, b, c have frame
    coordinates (cos g, sin g/sqrt2, +-sin g/sqrt2) and (1, 0, 0).  The tests
    hold the rates from them to measured_mutual_information over ansatz_basis.
    """
    cg, sg = math.cos(gamma_rad), math.sin(gamma_rad)

    def amplitudes(ce, se):
        return (cg * se / SQRT2 + sg * (ce + 1.0) / 2.0, cg * se / SQRT2 + sg * (ce - 1.0) / 2.0,
                se / SQRT2, cg * ce - sg * se / SQRT2, ce)

    return _symmetric_conditional_probs(amplitudes)


def _prior_weighted(a, b, c, p, q):
    """a p + b p + c q over the letters (a, b, c), summed as (a p + c q) + b p."""
    return (a * p + c * q) + b * p


def _symmetric_rate_from_terms(mixture_terms, letter_terms, p, q):
    """Half of H(mixture) - sum_x prior_x H(letter x) for priors (p, p, q),
    from the x log2 x terms, floats or arrays: mixture_terms over the
    outcomes, letter_terms over the letters (a, b, c) and then the outcomes.
    Each entropy sums its terms over the outcomes in order."""
    h_a, h_b, h_c = (-functools.reduce(operator.add, terms) for terms in letter_terms)
    h_mixture = -functools.reduce(operator.add, mixture_terms)
    return (h_mixture - _prior_weighted(h_a, h_b, h_c, p, q)) / 2.0


def _symmetric_prior_rate(rows, p: float) -> float:
    """One rate, in Python floats, from the rows (P_a, P_b, P_c) of each
    outcome at prior p; one np.log2 call takes every logarithm, because
    math.log2 rounds differently from it.  Zeros take the logarithm of 1.0,
    so their x log2 x terms are 0.0, as in capacities._xlog2x."""
    q = 1.0 - 2.0 * p
    flat = []  # a, b, c and the mixture of each outcome in turn
    for a, b, c in rows:
        flat += (a, b, c, _prior_weighted(a, b, c, p, q))
    logs = np.log2(np.array([x if x > 0.0 else 1.0 for x in flat])).tolist()
    terms = [x * log for x, log in zip(flat, logs)]
    return _symmetric_rate_from_terms(terms[3::4], (terms[0::4], terms[1::4], terms[2::4]), p, q)


def _symmetric_prior_rates(probs, ps) -> np.ndarray:
    """Rates [eta..., p...] from the array P[eta..., outcome, letter] over the
    letters (a, b, c) with priors (p, p, 1 - 2p), over the axes of ps.

    The mixture of each outcome is (P_a p + P_c (1 - 2p)) + P_b p, the letter
    entropies are weighted in the same order, and -x log2 x is summed over
    the outcomes in order (see _symmetric_rate_from_terms).  This order makes
    the rates equal, bit for bit, to those of the general kernel,
    capacities.mutual_information, on the same priors; any other rounds
    differently in the last bit.  The grid's path: one rate at a float eta
    and p is _symmetric_prior_rate's, equal to the one-element grid's.
    """
    ps = np.asarray(ps, dtype=float)
    qs = 1.0 - 2.0 * ps
    by_letter = np.moveaxis(np.asarray(probs), (-1, -2), (0, 1))  # (letter, outcome, eta...)
    by_letter = by_letter.reshape(by_letter.shape + (1,) * ps.ndim)  # p axes
    # a generator, so that one outcome's [eta..., p...] mixture is held at a
    # time: the peak memory stays that of a few rate grids
    mixture_terms = (_xlog2x(_prior_weighted(*outcome, ps, qs))
                     for outcome in np.swapaxes(by_letter, 0, 1))
    return _symmetric_rate_from_terms(mixture_terms, _xlog2x(by_letter), ps, qs)


def _symmetric_prior_slope(rows, p: float) -> tuple[float, float]:
    """Twice the slope and twice the curvature in p of
    _symmetric_prior_rate(rows, p), in Python floats: the sums over the
    (outcome, letter) rows (a, b, c) of a log2 a + b log2 b - 2 c log2 c
    - d log2 m and of -d^2 / (m ln 2), with d = a + b - 2c and the mixture
    m = (a + b) p + c (1 - 2p); the slope's 1/ln 2 term drops out because
    the d sum to zero.  A zero m with d != 0 at p = 0 or 0.5 makes the slope
    infinite, with the sign of d; between them m is zero only by underflow,
    and the row's terms, the slope's below 1e-300, are left out."""
    slope = curvature = 0.0
    for a, b, c in rows:
        row = a * math.log2(a) if a else 0.0  # (a log2 a + b log2 b) + (-2c) log2 c
        if b:
            row += b * math.log2(b)
        if c:
            row += -2.0 * c * math.log2(c)
        slope += row
        d, m = a + b - 2.0 * c, (a + b) * p + c * (1.0 - 2.0 * p)
        if d and m:
            slope -= d * math.log2(m)
            curvature -= d * d / (m * LN2)
        elif d and p in (0.0, 0.5):
            slope += math.copysign(math.inf, d)
    return slope, curvature


def _symmetric_prior_argmax(rows, start: float) -> tuple[float, int]:
    """The prior p in [0, 0.5] that maximizes _symmetric_prior_rate(rows, p),
    and the number of slope evaluations taken.  The rate is concave in the
    prior at a fixed measurement (Gallager 1968, sec. 4.5) and (p, p, 1 - 2p)
    is affine in p, so the slope falls with p: p is 0.5 if the slope there is
    >= 0.  Otherwise Newton steps on the slope, from start (from 0.25 if start
    is not inside (0, 0.5)), run inside the bracket [lo, hi] of the last
    points with slope >= 0 and < 0, and bisect it when a step leaves it.  The
    search stops at the point that its own Newton step leaves unchanged, or,
    when the bracket can no longer be bisected or is to be bisected with hi
    at or below math.ulp(0.5), at its lower end: priors that small move the
    rate by less than its rounding, and bisecting on would halve hi down
    through the subnormals."""
    if _symmetric_prior_slope(rows, 0.5)[0] >= 0.0:
        return 0.5, 1
    lo, hi, evals = 0.0, 0.5, 1
    p = start if lo < start < hi else 0.25
    while True:
        evals += 1
        slope, curvature = _symmetric_prior_slope(rows, p)
        step = p - slope / curvature if curvature else math.nan  # zero: linear in p, bisect
        if step == p:  # before the bracket, which now ends at p
            return p, evals
        lo, hi = (p, hi) if slope >= 0.0 else (lo, p)
        if not lo < step < hi:
            step = (lo + hi) / 2.0
            if not lo < step < hi or hi <= math.ulp(0.5):
                return lo, evals
        p = step


def _check_open_range(gamma: Angle) -> float:
    if not 0.0 < gamma.radians < math.pi / 2:
        raise ValueError(f"optimization needs gamma strictly inside (0, 90) deg, got {gamma.degrees}")
    return gamma.radians


def _grid_then_refine(conditional_probs_at: Callable[[float], Callable],
                      gamma: Angle) -> RateResult:
    """Maximize the symmetric-family rate over (eta, p), from the
    etas -> P[eta..., outcome, letter] function that
    conditional_probs_at(gamma_rad) builds once per angle.

    A coarse (eta, p) grid picks the best cell (exact ties: the smallest eta,
    then the smallest p, the row-major argmax order).  A golden-section
    search (Kiefer 1953), each new point the mirror of the kept one, then
    maximizes R(eta) = rate(eta, p*(eta)) over two eta cells on either side,
    with p* from _symmetric_prior_argmax warm-started at the previous
    point's p (the first at the cell's).  It stops when its inner points are
    ETA_XATOL apart and reports the best point evaluated, the later of equal
    ones; converged is False when the bracket still holds an end of the box.
    iterations counts the grid cells, float rates and slope evaluations.
    """
    conditional_probs = conditional_probs_at(_check_open_range(gamma))
    etas = np.linspace(0.0, math.pi, ETA_POINTS, endpoint=False)
    ps = np.linspace(0.0, 0.5, P_POINTS)
    grid = _symmetric_prior_rates(conditional_probs(etas), ps)
    gi, pi = np.unravel_index(int(np.argmax(grid)), grid.shape)
    d_eta = math.pi / ETA_POINTS
    box = (float(etas[gi] - 2.0 * d_eta), float(etas[gi] + 2.0 * d_eta))
    p = float(ps[pi])
    evaluated = []  # (rate, eta, p, slope evaluations)

    def profile(eta: float) -> float:
        nonlocal p
        rows = conditional_probs(eta)
        p, slope_evals = _symmetric_prior_argmax(rows, p)
        evaluated.append((_symmetric_prior_rate(rows, p), eta, p, slope_evals))
        return evaluated[-1][0]

    lo, hi = box
    golden = (math.sqrt(5.0) - 1.0) / 2.0 * (hi - lo)
    left, right = hi - golden, lo + golden
    f_left, f_right = profile(left), profile(right)
    while right - left > ETA_XATOL:
        if f_left >= f_right:  # the maximum lies in [lo, right]
            hi, right, f_right = right, left, f_left
            left = lo + hi - right
            f_left = profile(left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + hi - left
            f_right = profile(right)
    best, eta, p, _ = max(reversed(evaluated), key=operator.itemgetter(0))  # ties: the later point
    return RateResult(
        bits_per_transmission=best,
        params={"eta": eta % math.pi, "p": p},
        iterations=grid.size + sum(1 + slope_evals for *_, slope_evals in evaluated),
        converged=box[0] < lo and hi < box[1],
        hyperparams=dict(ANSATZ_HYPERPARAMS),
    )


def optimize_r2(gamma: Angle) -> RateResult:
    """Best symmetric-family rate at the given overlap angle.

    A dense (eta, p) grid, then a golden-section search in eta with the
    prior solved exactly at each point (see _grid_then_refine);
    deterministic.
    """
    return _grid_then_refine(_ideal_conditional_probs, gamma)


# ---------------------------------------------------------------------------
# unconstrained search over the full two-shot span


# Annealing-plus-gradient-polish settings of the unconstrained probe.
RESTARTS = 20  # annealing chains, advanced together
COOLING = 0.97  # geometric temperature factor per level
TEMPERATURE_SAMPLES = 100  # initial temperature from this many random rates
LEVELS = 100
PROPOSALS_PER_LEVEL = 12
STEP_SCALE = 0.35
POLISH_CANDIDATES = 6
POLISH_MAXITER = 500  # L-BFGS-B iterations per polished candidate
POLISH_FTOL = 1e-13  # rate tolerance of the polish
POLISH_GTOL = 1e-10  # gradient tolerance of the polish


def _letters_matrix(gamma: Angle) -> np.ndarray:
    return np.vstack([s.coords for s in two_shot_alphabet(gamma)])


def _general_priors(theta: np.ndarray) -> np.ndarray:
    """Letter priors: the softmax of the logits (0, theta[..., 6:9])."""
    logits = np.concatenate([np.zeros(theta.shape[:-1] + (1,)), theta[..., 6:9]], axis=-1)
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def _general_rates(theta: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Rates of arbitrary four-outcome measurements and four-letter priors,
    over the leading axes of theta[..., 9].

    theta[..., :6] are plane-rotation angles (rows of the rotation are the
    measurement vectors), theta[..., 6:9] are prior logits relative to
    letter a.
    """
    probs = (_givens_product(theta[..., :6]) @ letters.T) ** 2  # (..., outcome, letter)
    return mutual_information(probs, _general_priors(theta)) / 2.0


def _rate_and_gradient(theta: np.ndarray, letters: np.ndarray) -> tuple[float, np.ndarray]:
    """_general_rates at one theta[9], with its closed-form gradient.

    With amplitudes A = U L^T, U = G_0 ... G_5 and P = A^2, dI/dP_kx = pi_x
    log2(P_kx / m_k) and dI/dpi_x = sum_k P_kx (log2(P_kx / m_k) - 1/ln 2).
    Since dG_k/dt = G_k J_k with J_k the generator of plane (i, j), angle k
    gets dI/dt_k = (V_k^T K V_k)[i, j], where V_k = G_0 ... G_k is a prefix
    product (the suffix G_{k+1} ... G_5 is V_k^T U) and K = A W^T - W A^T for
    W = dI/dA = 2 A dI/dP.  The logit derivatives chain dI/dpi through the
    softmax.
    """
    # row k keeps angles 0..k, so the batch holds V_0 ... V_5 = U
    prefixes = _givens_product(np.where(np.tri(6, dtype=bool), theta[:6], 0.0))
    amps = prefixes[-1] @ letters.T  # (outcome, letter)
    probs = amps**2
    priors = _general_priors(theta)
    value = float(mutual_information(probs, priors)) / 2.0

    mixture = probs @ priors
    live = (probs > 0.0) & (mixture[:, None] > 0.0)
    ratio = np.divide(probs, mixture[:, None], out=np.ones_like(probs), where=live)
    log_ratio = np.log2(ratio)  # zero where P_kx or m_k vanishes, whose terms drop out
    d_priors = (probs * (log_ratio - 1.0 / LN2)).sum(axis=0)
    d_logits = priors * (d_priors - priors @ d_priors)

    d_amps = 2.0 * amps * priors * log_ratio
    skew = amps @ d_amps.T - d_amps @ amps.T
    index, rows, cols, _ = _givens_layout()
    d_angles = np.einsum("ka,ab,kb->k", prefixes[index, :, rows], skew, prefixes[index, :, cols])
    return value, np.concatenate([d_angles, d_logits[1:]]) / 2.0


def _product_measurement_start(gamma: Angle) -> np.ndarray:
    """Parameter vector for the best per-transmission measurement applied twice
    with the uniform independent prior: its rate is exactly c1."""
    g = gamma.radians
    theta = g / 2.0 - math.pi / 4.0
    one_shot = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )
    basis = np.kron(one_shot, one_shot)
    if np.linalg.det(basis) < 0:
        basis[0] *= -1.0  # outcome projectors are sign blind
    angles = _rotation_angles(basis)
    return np.concatenate([angles, np.zeros(3)])


def _ansatz_start(gamma: Angle, ansatz: RateResult) -> np.ndarray:
    """Parameter vector embedding the symmetric-family optimum."""
    a, b, c, d = (s.coords for s in two_shot_alphabet(gamma))
    rows = ansatz_rows(ansatz.params["eta"], a, b, c)
    fourth = d - rows.T @ (rows @ d)
    fourth = fourth / np.linalg.norm(fourth)
    basis = np.vstack([rows, fourth])
    if np.linalg.det(basis) < 0:
        basis[3] *= -1.0
    angles = _rotation_angles(basis)
    p = max(ansatz.params["p"], 1e-12)
    pc = max(1.0 - 2.0 * ansatz.params["p"], 1e-12)
    logits = np.array([0.0, math.log(pc / p), -40.0])  # letter d effectively off
    return np.concatenate([angles, logits])


def _random_thetas(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.concatenate(
        [rng.uniform(0.0, 2.0 * math.pi, (count, 6)), rng.normal(0.0, 1.5, (count, 3))], axis=1
    )


def _anneal_lockstep(x: np.ndarray, letters: np.ndarray, rng: np.random.Generator,
                     t0: float) -> tuple[np.ndarray, np.ndarray]:
    """Metropolis chains from the rows of x[R, 9], advanced in lockstep: one
    batched rate call per proposal step, acceptance decided row by row.
    Returns each chain's best point and rate."""
    f = _general_rates(x, letters)
    best_x, best_f = x.copy(), f.copy()
    temperature = t0
    for _ in range(LEVELS):
        scale = STEP_SCALE * max(temperature / t0, 0.05)
        for _ in range(PROPOSALS_PER_LEVEL):
            candidate = x + rng.normal(scale=scale, size=x.shape)
            fc = _general_rates(candidate, letters)
            chance = np.exp(np.minimum(fc - f, 0.0) / temperature)
            accept = (fc >= f) | (rng.random(f.size) < chance)
            x = np.where(accept[:, None], candidate, x)
            f = np.where(accept, fc, f)
            improved = f > best_f
            best_x = np.where(improved[:, None], x, best_x)
            best_f = np.where(improved, f, best_f)
        temperature *= COOLING
    return best_x, best_f


def optimize_general(gamma: Angle, seed: int, ideal: RateResult | None = None) -> RateResult:
    """Lower-bound probe over every four-outcome von Neumann measurement and
    every prior on the four letters.

    Seeded simulated annealing of all restarts in lockstep (two of them
    warm-started from the product measurement and from the symmetric-family
    optimum), then L-BFGS-B on the closed-form gradient from the best
    annealed points and from both warm starts, so the result can only improve
    on both.  converged is the success flag of the polish run that gave the
    returned optimum.  The value is a lower bound on the two-shot capacity,
    nothing more: the parameterization covers rotations only up to projector
    sign, which is enough because outcomes are rank one.  ideal is
    optimize_r2(gamma), the symmetric-family optimum, computed when omitted.

    The only caller of scipy in the package, which it imports on first use:
    the other commands never load it.
    """
    from scipy.optimize import minimize

    _check_open_range(gamma)
    letters = _letters_matrix(gamma)
    if ideal is None:
        ideal = optimize_r2(gamma)
    starts = np.array([_product_measurement_start(gamma), _ansatz_start(gamma, ideal)])

    rng = np.random.default_rng(seed)
    samples = _general_rates(_random_thetas(rng, TEMPERATURE_SAMPLES), letters)
    t0 = max(float(np.std(samples)), 1e-12)
    warm = starts[:RESTARTS]
    x0 = np.concatenate([warm, _random_thetas(rng, RESTARTS - len(warm))])
    annealed, annealed_f = _anneal_lockstep(x0, letters, rng, t0)
    evaluations = TEMPERATURE_SAMPLES + RESTARTS * (1 + LEVELS * PROPOSALS_PER_LEVEL)

    def negative_rate(theta: np.ndarray) -> tuple[float, np.ndarray]:
        value, gradient = _rate_and_gradient(theta, letters)
        return -value, -gradient

    order = np.argsort(-annealed_f, kind="stable")[:POLISH_CANDIDATES]
    options = {"maxiter": POLISH_MAXITER, "ftol": POLISH_FTOL, "gtol": POLISH_GTOL}
    polished = [minimize(negative_rate, x, jac=True, method="L-BFGS-B", options=options)
                for x in [*annealed[order], *starts]]
    evaluations += sum(int(result.nfev) for result in polished)
    best = min(polished, key=lambda result: result.fun)  # the first of equal optima

    best_x = best.x
    priors = _general_priors(best_x)
    params = {f"theta_{i}": float(best_x[i]) for i in range(6)}
    params.update({name: float(w) for name, w in zip(("p_a", "p_b", "p_c", "p_d"), priors)})
    return RateResult(
        bits_per_transmission=-float(best.fun),
        params=params,
        iterations=evaluations,
        converged=bool(best.success),
        hyperparams={
            "restarts": float(RESTARTS),
            "cooling": COOLING,
            "temperature_samples": float(TEMPERATURE_SAMPLES),
            "levels": float(LEVELS),
            "proposals_per_level": float(PROPOSALS_PER_LEVEL),
            "step_scale": STEP_SCALE,
            "polish_ftol": POLISH_FTOL,
            "initial_temperature": t0,
            "seed": float(seed),
        },
    )


CROSSOVER_TOLERANCE_DEG = 1e-3  # bracket width at which the root search stops


def crossover_angle(rate_fn: Callable[[Angle], float], lo: Angle, hi: Angle) -> Angle:
    """Angle where rate_fn crosses the one-shot capacity: the midpoint of a
    bracket of the root of rate - c1 at most CROSSOVER_TOLERANCE_DEG wide, or
    an evaluated angle where rate - c1 is exactly 0.

    Requires lo < hi, checked before any rate call, and rate - c1 to change
    sign between them.  False position with the Illinois modification
    (Dowell and Jarratt 1971) keeps a sign-change bracket: each new point is
    where the chord between the ends crosses zero, and when the same end is
    kept twice in a row its value is halved for the next chord, so that the
    other end moves too.  After three such halvings in a row, the new points
    are midpoints until the other end moves, as is a chord point not
    strictly inside the bracket.  A NaN gap raises BracketingError.
    """
    def gap(angle: Angle) -> float:
        value = rate_fn(angle) - c1(angle)
        if math.isnan(value):
            raise BracketingError(f"rate - c1 is NaN at {angle.degrees:g} deg")
        return value

    lo_deg, hi_deg = lo.degrees, hi.degrees
    if not lo_deg < hi_deg:
        raise ValueError(f"need lo < hi, got {lo_deg:g} and {hi_deg:g} deg")
    f_lo, f_hi = gap(lo), gap(hi)
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketingError(
            f"rate - c1 has the same sign at both ends: rate-c1 at {lo_deg:g} deg: "
            f"{f_lo:.6e}, rate-c1 at {hi_deg:g} deg: {f_hi:.6e}"
        )
    streak = 0  # steps in a row that kept the high end (> 0) or the low end (< 0)
    while hi_deg - lo_deg > CROSSOVER_TOLERANCE_DEG:
        mid_deg = (lo_deg * f_hi - hi_deg * f_lo) / (f_hi - f_lo)
        if abs(streak) > 3 or not lo_deg < mid_deg < hi_deg:  # three halvings in a row
            mid_deg = 0.5 * (lo_deg + hi_deg)
        mid = Angle.from_degrees(mid_deg)
        f_mid = gap(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo_deg, f_lo, streak = mid_deg, f_mid, max(streak, 0) + 1
            if streak > 1:
                f_hi /= 2.0
        else:
            hi_deg, f_hi, streak = mid_deg, f_mid, min(streak, 0) - 1
            if streak < -1:
                f_lo /= 2.0
    return Angle.from_degrees(0.5 * (lo_deg + hi_deg))

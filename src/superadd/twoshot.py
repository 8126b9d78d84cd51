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
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .capacities import LN2, Ensemble, RateResult, c1
from .capacities import measured_mutual_information, mutual_information
from .errors import BracketingError
from .statespace import Angle, MeasurementBasis, two_shot_alphabet

SQRT2 = math.sqrt(2.0)

# Grid-then-refine settings of the symmetric family.
ETA_POINTS = 240  # over [0, pi), the family's period
P_POINTS = 101  # over [0, 0.5]
NM_XATOL = 1e-8
NM_FATOL = 1e-10  # rate tolerance of the local refinement
NM_MAXITER = 4000
ANSATZ_HYPERPARAMS = {
    "eta_points": float(ETA_POINTS),
    "p_points": float(P_POINTS),
    "nm_xatol": NM_XATOL,
    "nm_fatol": NM_FATOL,
}


@dataclass(frozen=True)
class AnsatzParams:
    """Symmetric-family parameters: measurement angle eta (radians, periodic)
    and the shared prior p on each mixed letter; the repeated letter c gets
    1 - 2p and d gets zero."""

    eta: float
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"prior p must lie in [0, 0.5], got {self.p!r}")


def _givens_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Adjacent-row plane sequence able to reach every rotation of SO(dim)."""
    return tuple(
        (row - 1, row)
        for col in range(dim - 1)
        for row in range(dim - 1, col, -1)
    )


@functools.cache
def _givens_layout(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factor index and plane rows of each Givens factor, and the identity
    stack, padded to a power of two, that _givens_product fills."""
    pairs = _givens_pairs(dim)
    rows, cols = np.array(pairs, dtype=int).reshape(len(pairs), 2).T
    size = 1 << max(len(pairs) - 1, 0).bit_length()
    layout = (np.arange(len(pairs)), rows, cols, np.eye(dim)[None].repeat(size, axis=0))
    for part in layout:
        part.flags.writeable = False  # shared by every caller
    return layout


def _givens_product(angles: np.ndarray, dim: int = 4) -> np.ndarray:
    """Rotation matrices G_0 G_1 ... G_{n-1} over the leading axes of
    angles[..., n], where G_k turns the plane _givens_pairs(dim)[k] = (i, j)
    by angles[..., k] (row i -> c row_i - s row_j, row j -> s row_i + c row_j);
    the result has shape angles.shape[:-1] + (dim, dim).

    The factors, padded with identities to a power of two, are multiplied
    pairwise, so the product takes log2(n) batched matmul calls.
    """
    angles = np.asarray(angles, dtype=float)
    index, rows, cols, identities = _givens_layout(dim)
    factors = np.broadcast_to(identities, angles.shape[:-1] + identities.shape).copy()
    c, s = np.cos(angles), np.sin(angles)
    factors[..., index, rows, rows] = c
    factors[..., index, cols, cols] = c
    factors[..., index, rows, cols] = -s
    factors[..., index, cols, rows] = s
    while factors.shape[-3] > 1:
        factors = factors[..., 0::2, :, :] @ factors[..., 1::2, :, :]
    return factors[..., 0, :, :]


@dataclass(frozen=True)
class RotationParams:
    """dim(dim-1)/2 plane-rotation angles composing an orthogonal matrix.

    The matrix is the product of rotations in the fixed adjacent-row plane
    sequence of _givens_pairs, applied in reverse list order.  Any special
    orthogonal matrix factors uniquely this way (up to angle wrapping), which
    from_matrix exploits.
    """

    angles: tuple[float, ...]
    dim: int = 4

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        object.__setattr__(self, "angles", angles)
        expected = self.dim * (self.dim - 1) // 2
        if len(angles) != expected:
            raise ValueError(f"need {expected} angles for dimension {self.dim}, got {len(angles)}")

    def matrix(self) -> np.ndarray:
        return _givens_product(np.array(self.angles), self.dim)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "RotationParams":
        m = np.asarray(matrix, dtype=float)
        dim = m.shape[0]
        if np.linalg.det(m) < 0:
            raise ValueError("only rotations (det +1) factor into plane rotations")
        work = m.copy()
        angles = []
        for col in range(dim - 1):
            for row in range(dim - 1, col, -1):
                # rotate rows (row-1, row) to zero work[row, col]
                t = math.atan2(work[row, col], work[row - 1, col])
                c, s = math.cos(t), math.sin(t)
                upper, lower = work[row - 1].copy(), work[row]
                work[row - 1] = c * upper + s * lower
                work[row] = -s * upper + c * lower
                angles.append(t)
        return cls(angles=tuple(angles), dim=dim)


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


def _ansatz_ensemble(p: float, gamma: Angle) -> Ensemble:
    a, b, c, _ = two_shot_alphabet(gamma)
    return Ensemble(((p, a), (p, b), (1.0 - 2.0 * p, c)))


def rate(eta: float, p: float, gamma: Angle) -> float:
    """Bits per transmission of the symmetric family at (eta, p).

    Half the measured mutual information of the ensemble
    {(p, a), (p, b), (1-2p, c)} against the three-outcome basis: the half
    accounts for the two transmissions consumed per measurement.
    """
    params = AnsatzParams(eta=eta, p=p)
    ensemble = _ansatz_ensemble(params.p, gamma)
    basis = ansatz_basis(params.eta, gamma)
    return measured_mutual_information(ensemble, basis) / 2.0


def _rate_grid(gamma_rad: float, etas: np.ndarray | float, ps: np.ndarray | float):
    """Vectorized rate over an (eta, p) grid: the axes of etas, then those of
    ps, so 1-D grids give rate[eta, p] and floats give one rate.

    Uses the closed-form frame amplitudes: letters a, b, c have frame
    coordinates (cos g, sin g/sqrt2, +-sin g/sqrt2) and (1, 0, 0).  Agreement
    with rate() is covered by tests.
    """
    cg, sg = math.cos(gamma_rad), math.sin(gamma_rad)
    ce, se = np.cos(etas), np.sin(etas)
    amp_a1 = cg * se / SQRT2 + sg * (ce + 1.0) / 2.0
    amp_b1 = cg * se / SQRT2 + sg * (ce - 1.0) / 2.0
    amp_c1 = se / SQRT2
    amp_a3 = cg * ce - sg * se / SQRT2
    probs = np.empty(np.shape(etas) + (3, 3))  # (eta, outcome, letter)
    probs[..., 0, 0] = amp_a1
    probs[..., 0, 1] = amp_b1
    probs[..., 0, 2] = amp_c1
    probs[..., 1, 0] = amp_b1
    probs[..., 1, 1] = amp_a1
    probs[..., 1, 2] = amp_c1
    probs[..., 2, 0] = amp_a3
    probs[..., 2, 1] = amp_a3
    probs[..., 2, 2] = ce
    np.square(probs, out=probs)
    return _symmetric_prior_rates(probs, ps)


def _symmetric_prior_rates(probs: np.ndarray, ps: np.ndarray | float):
    """Rates [eta..., p...] from P[eta..., outcome, letter] over the letters
    (a, b, c) with priors (p, p, 1 - 2p)."""
    priors = np.stack([ps, ps, 1.0 - 2.0 * ps], axis=-1)  # (p, letter)
    probs = probs.reshape(probs.shape[:-2] + (1,) * np.ndim(ps) + probs.shape[-2:])  # p axes
    return mutual_information(probs, priors) / 2.0


def _check_open_range(gamma: Angle) -> float:
    if not 0.0 < gamma.radians < math.pi / 2:
        raise ValueError(f"optimization needs gamma strictly inside (0, 90) deg, got {gamma.degrees}")
    return gamma.radians


_RateGrid = Callable[[np.ndarray, np.ndarray], np.ndarray]  # (etas, ps) -> rates, as _rate_grid


def _grid_then_refine(rate_grid_at: Callable[[float], _RateGrid], gamma: Angle) -> RateResult:
    """Maximize rate_grid(etas, ps)[eta, p] over (eta, p), where rate_grid =
    rate_grid_at(gamma_rad) holds whatever the family builds once per angle.

    Coarse (eta, p) grid followed by Nelder-Mead refinement from the best
    cell, bounded to its neighborhood, which evaluates rate_grid at float
    (eta, p).  Exact grid ties resolve to the smallest eta, then smallest p
    (row-major argmax order).
    """
    rate_grid = rate_grid_at(_check_open_range(gamma))
    etas = np.linspace(0.0, math.pi, ETA_POINTS, endpoint=False)
    ps = np.linspace(0.0, 0.5, P_POINTS)
    grid = rate_grid(etas, ps)
    gi, pi = np.unravel_index(int(np.argmax(grid)), grid.shape)
    d_eta = math.pi / ETA_POINTS
    d_p = 0.5 / (P_POINTS - 1)
    bounds = [
        (etas[gi] - 2.0 * d_eta, etas[gi] + 2.0 * d_eta),
        (max(0.0, ps[pi] - 2.0 * d_p), min(0.5, ps[pi] + 2.0 * d_p)),
    ]

    def negative_rate(x: np.ndarray) -> float:
        return -rate_grid(float(x[0]), float(x[1]))

    result = minimize(
        negative_rate,
        np.array([etas[gi], ps[pi]]),
        method="Nelder-Mead",
        bounds=bounds,
        options={"xatol": NM_XATOL, "fatol": NM_FATOL, "maxiter": NM_MAXITER},
    )
    best = max(-float(result.fun), float(grid[gi, pi]))
    return RateResult(
        bits_per_transmission=best,
        params={"eta": float(result.x[0]) % math.pi, "p": float(result.x[1])},
        iterations=int(grid.size + result.nfev),
        converged=bool(result.success),
        hyperparams=dict(ANSATZ_HYPERPARAMS),
    )


def optimize_r2(gamma: Angle) -> RateResult:
    """Best symmetric-family rate at the given overlap angle.

    A dense (eta, p) grid, then Nelder-Mead from the best cell (see
    _grid_then_refine); deterministic.
    """
    return _grid_then_refine(lambda g: functools.partial(_rate_grid, g), gamma)


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
    index, rows, cols, _ = _givens_layout(4)
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
    angles = RotationParams.from_matrix(basis).angles
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
    angles = RotationParams.from_matrix(basis).angles
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


def optimize_general(gamma: Angle, seed: int) -> RateResult:
    """Lower-bound probe over every four-outcome von Neumann measurement and
    every prior on the four letters.

    Seeded simulated annealing of all restarts in lockstep (two of them
    warm-started from the product measurement and from the symmetric-family
    optimum), then L-BFGS-B on the closed-form gradient from the best
    annealed points and from both warm starts, so the result can only improve
    on both.  converged is the success flag of the polish run that gave the
    returned optimum.  The value is a lower bound on the two-shot capacity,
    nothing more: the parameterization covers rotations only up to projector
    sign, which is enough because outcomes are rank one.
    """
    _check_open_range(gamma)
    letters = _letters_matrix(gamma)
    ansatz = optimize_r2(gamma)
    starts = np.array([_product_measurement_start(gamma), _ansatz_start(gamma, ansatz)])

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


CROSSOVER_TOLERANCE_DEG = 0.01  # bracket width at which bisection stops


def crossover_angle(rate_fn: Callable[[Angle], float], lo: Angle, hi: Angle) -> Angle:
    """Angle where rate_fn crosses the one-shot capacity, by bisection.

    Requires rate_fn - c1 to change sign between lo and hi.
    """
    lo_deg, hi_deg = lo.degrees, hi.degrees
    f_lo = rate_fn(lo) - c1(lo)
    f_hi = rate_fn(hi) - c1(hi)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketingError(
            f"rate - c1 has the same sign at both ends: rate-c1 at {lo_deg:g} deg: "
            f"{f_lo:.6e}, rate-c1 at {hi_deg:g} deg: {f_hi:.6e}"
        )
    while hi_deg - lo_deg > CROSSOVER_TOLERANCE_DEG:
        mid_deg = 0.5 * (lo_deg + hi_deg)
        mid = Angle.from_degrees(mid_deg)
        f_mid = rate_fn(mid) - c1(mid)
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo_deg, f_lo = mid_deg, f_mid
        else:
            hi_deg = mid_deg
    return Angle.from_degrees(0.5 * (lo_deg + hi_deg))

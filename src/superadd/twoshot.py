"""Two-shot collective measurement rates for the binary alphabet.

The three-outcome measurement family lives in an orthonormal frame of
span{a, b, c} adapted to the a <-> b swap: f1 = |00> along the repeated
letter c, f2 = (|01> + |10>)/sqrt2 the symmetric combination of a and b
orthogonal to c, f3 = (|01> - |10>)/sqrt2 the antisymmetric one.  In the
fixed embedding this frame does not depend on the overlap angle, so the
family's rows are closed forms in eta alone (ansatz_rows), exact down to
arbitrarily small angles, where the printed expansion coefficients (which
divide by sin gamma) are not.  |11> completes the frame to the whole
two-shot space.

The unconstrained search over the full orthogonal group in the four
dimensional two-shot span is a lower-bound probe: it ratifies that the
symmetric family is near optimal but proves nothing about the true two-shot
capacity.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .capacities import LN2, Ensemble, RateResult, c1, mutual_information
from .errors import BracketingError
from .statespace import (Angle, MeasurementBasis, StateVector, _check_whole, _frozen,
                         two_shot_alphabet)

SQRT2 = math.sqrt(2.0)

# Search settings of the symmetric family (see _u_search): the window of the
# scaled angle u, eta = pi/2 - u gamma, which holds the optimum u* =
# 0.756-1.108 of every angle with room to spare, and the stop tolerance.
U_LO, U_HI = 0.5, 1.5
ETA_XATOL = 1e-8  # the search stops when its inner points are this close in eta
ANSATZ_HYPERPARAMS = {"u_lo": U_LO, "u_hi": U_HI, "eta_xatol": ETA_XATOL}


# The adjacent-row plane sequence able to reach every rotation of SO(4), and
# the read-only tables built from it once: each factor's index and plane
# rows (i, j), the six 4 x 4 identities that _givens_product fills, flattened
# into one row, the flat positions in that row of each factor's (i, i),
# (j, j), (i, j) and (j, i) entries, in that order, and the mask whose row k
# keeps angles 0..k, so that _givens_product of the masked angles gives the
# prefix products V_0 ... V_5 = U.
_GIVENS_PAIRS = tuple((row - 1, row) for col in range(3) for row in range(3, col, -1))
_GIVENS_INDEX = _frozen(range(len(_GIVENS_PAIRS)), dtype=int)
_GIVENS_ROWS, _GIVENS_COLS = _frozen(_GIVENS_PAIRS, dtype=int).T
_GIVENS_IDENTITIES = _frozen(np.tile(np.eye(4).ravel(), len(_GIVENS_PAIRS)))
_GIVENS_CORNERS = _frozen(np.concatenate([
    _GIVENS_INDEX * 16 + 4 * r + c
    for r, c in ((_GIVENS_ROWS, _GIVENS_ROWS), (_GIVENS_COLS, _GIVENS_COLS),
                 (_GIVENS_ROWS, _GIVENS_COLS), (_GIVENS_COLS, _GIVENS_ROWS))]), dtype=int)
_PREFIX_MASK = _frozen(np.tri(len(_GIVENS_PAIRS)), dtype=bool)


def _givens_product(angles: np.ndarray) -> np.ndarray:
    """Rotation matrices G_0 G_1 ... G_5 over the leading axes of
    angles[..., 6], where G_k turns the plane _GIVENS_PAIRS[k] = (i, j)
    by angles[..., k] (row i -> c row_i - s row_j, row j -> s row_i + c row_j);
    the result has shape angles.shape[:-1] + (4, 4).

    One scatter writes (c, c, -s, s) into a stack of identities, and the six
    factors are multiplied as ((G_0 G_1)(G_2 G_3))(G_4 G_5), three batched
    matmul calls.  The stack is not padded to a power of two: a product with
    the identity is exact, since each entry gains only exact zeros, so
    padding would add matmuls without changing a bit.
    """
    angles = np.asarray(angles, dtype=float)
    lead = angles.shape[:-1]
    c, s = np.cos(angles), np.sin(angles)
    factors = np.empty(lead + _GIVENS_IDENTITIES.shape)
    factors[...] = _GIVENS_IDENTITIES
    factors[..., _GIVENS_CORNERS] = np.concatenate((c, c, -s, s), axis=-1)
    factors = factors.reshape(lead + (-1, 4, 4))
    pairs = factors[..., 0::2, :, :] @ factors[..., 1::2, :, :]
    return (pairs[..., 0, :, :] @ pairs[..., 1, :, :]) @ pairs[..., 2, :, :]


def _rotation_angles(matrix: np.ndarray) -> list[float]:
    """The angles t with _givens_product(t) = matrix, for a 4 x 4 rotation.

    Each plane (i, j) of _GIVENS_PAIRS in turn rotates rows i and j of the
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
    for i, j in _GIVENS_PAIRS:
        t = math.atan2(work[j, col], work[i, col])
        c, s = math.cos(t), math.sin(t)
        upper, lower = work[i].copy(), work[j]
        work[i] = c * upper + s * lower
        work[j] = -s * upper + c * lower
        angles.append(t)
        if i == col:  # the last plane of column col
            col += 1
    return angles


def ansatz_rows(eta: float) -> np.ndarray:
    """The symmetric family's three orthonormal measurement vectors.

    e3 = cos(eta) f1 - sin(eta) f2, so <c|e3> = cos(eta) and e3 has no
    antisymmetric component (<a|e3> = <b|e3>); e1 and e2 are the
    swap-conjugate pair (g +- f3)/sqrt2, g = sin(eta) f1 + cos(eta) f2,
    splitting the remaining plane at 45 degrees (<a|e1> = <b|e2>,
    <c|e1> = <c|e2>).  With |11> as a fourth row they form a rotation.
    """
    ce, se = math.cos(eta), math.sin(eta)
    return np.array([[se / SQRT2, (ce + 1.0) / 2.0, (ce - 1.0) / 2.0, 0.0],
                     [se / SQRT2, (ce - 1.0) / 2.0, (ce + 1.0) / 2.0, 0.0],
                     [ce, -se / SQRT2, -se / SQRT2, 0.0]])


def ansatz_basis(eta: float, gamma: Angle) -> MeasurementBasis:
    """Symmetric three-outcome measurement family on the two-shot span.

    The rows do not depend on gamma (see ansatz_rows), but the family needs
    gamma > 0: at zero overlap angle the letters coincide and the span
    collapses.
    """
    if gamma.radians <= 0.0:
        raise ValueError("ansatz basis needs gamma > 0; the letters coincide at gamma = 0")
    return MeasurementBasis.from_rows(ansatz_rows(eta))


def _ansatz_ensemble(p: float, letters: tuple[StateVector, ...]) -> Ensemble:
    """The ensemble {(p, a), (p, b), (1-2p, c)} over the two-shot letters
    (a, b, c, d); Ensemble rejects the negative prior of a p outside
    [0, 0.5]."""
    a, b, c, _ = letters
    return Ensemble(((p, a), (p, b), (1.0 - 2.0 * p, c)))


def _symmetric_conditional_probs(amplitudes: Callable) -> Callable:
    """eta -> the (outcome, letter) rows of a symmetric family on the letters
    (a, b, c) at a float eta, as a list of tuples of Python floats.

    amplitudes(cos eta, sin eta) returns (A1a, A1b, A1c, A3a, A3c): e2 is
    the a <-> b mirror of e1 and A3b = A3a, so the outcome rows are the
    squares of (A1a, A1b, A1c), (A1b, A1a, A1c) and (A3a, A3a, A3c), from
    the math module's cosine and sine.
    """
    def conditional_probs(eta: float) -> list[tuple[float, ...]]:
        pa1, pb1, pc1, pa3, pc3 = (amp * amp for amp in amplitudes(math.cos(eta), math.sin(eta)))
        return [(pa1, pb1, pc1), (pb1, pa1, pc1), (pa3, pa3, pc3)]

    return conditional_probs


def _ideal_conditional_probs(gamma_rad: float) -> Callable:
    """eta -> the (outcome, letter) rows of the symmetric family at one angle
    (see _symmetric_conditional_probs).

    Uses the closed-form amplitudes of the ansatz_rows against the letters,
    whose frame coordinates are (cos g, sin g/sqrt2, +-sin g/sqrt2) for a, b
    and (1, 0, 0) for c.  The tests hold the rates from them to
    measured_mutual_information over ansatz_basis.  The probe's warm start
    (_ansatz_start) is the same rows and |11>.
    """
    cg, sg = math.cos(gamma_rad), math.sin(gamma_rad)

    def amplitudes(ce, se):
        return (cg * se / SQRT2 + sg * (ce + 1.0) / 2.0, cg * se / SQRT2 + sg * (ce - 1.0) / 2.0,
                se / SQRT2, cg * ce - sg * se / SQRT2, ce)

    return _symmetric_conditional_probs(amplitudes)


def _symmetric_prior_terms(rows) -> tuple[float, Callable[[float], float]]:
    """(k, p -> the rate) of the symmetric family's priors (p, p, q),
    q = 1 - 2p, on the (outcome, letter) rows (a, b, c), in Python floats:
    the rate, half of H(mixture) - sum_x prior_x H(letter x), is half the
    row sum of p (a log2 a + b log2 b) + q c log2 c - m log2 m, with the
    mixture m = (a + b) p + c q, and k the row sum of a log2 a + b log2 b -
    2 c log2 c.  Zero probabilities add no x log2 x term."""
    terms = []  # a log2 a + b log2 b, c log2 c, a + b and c of each row
    k = 0.0
    for a, b, c in rows:
        ab = a * math.log2(a) if a else 0.0
        if b:
            ab += b * math.log2(b)
        cl = c * math.log2(c) if c else 0.0
        k += ab - 2.0 * cl
        terms.append((ab, cl, a + b, c))

    def at(p: float) -> float:
        rate = 0.0
        q = 1.0 - 2.0 * p
        for ab, cl, s, c in terms:
            m = s * p + c * q
            lm = math.log2(m) if m else 0.0
            rate += p * ab + q * cl - m * lm
        return rate / 2.0

    return k, at


def _symmetric_prior_argmax(rows) -> tuple[float, float]:
    """The prior p in [0, 0.5] that maximizes the rate of
    _symmetric_prior_terms(rows), and that rate, on a symmetric family's rows
    (A, B, C), (B, A, C), (E, E, F), whose letters' columns sum alike.  With
    d = A + B - 2C the mixtures are m1 = C + d p, twice, and m3 = F - 2d p,
    and twice the rate's derivative, k + 2d log2(m3 / m1), falls with p (the
    rate is concave in the prior, Gallager 1968, sec. 4.5) to zero at
    p = (F - r C) / (d (2 + r)), r = 2^(-k / 2d): p is that root clipped to
    [0, 0.5].  Both 2d are D = (A + B - 2C) - (E - F), so no d that rounds
    to 0 alone divides, and D = 0 leaves the constant k, so p is 0.5 if
    k >= 0, else 0."""
    (a, b, c), _, (e, _, f) = rows
    k, rate_at = _symmetric_prior_terms(rows)
    diff = (a + b - 2.0 * c) - (e - f)
    if diff == 0.0:
        p = 0.5 if k >= 0.0 else 0.0
    else:
        r = 2.0 ** min(-k / diff, 1000.0)  # 2 ** t underflows to 0 but overflows past 1024
        p = min(max(2.0 * (f - r * c) / (diff * (2.0 + r)), 0.0), 0.5)
    return p, rate_at(p)


def _check_open_range(gamma: Angle) -> float:
    if not 0.0 < gamma.radians < math.pi / 2:
        raise ValueError(f"optimization needs gamma strictly inside (0, 90) deg, got {gamma.degrees}")
    return gamma.radians


def _u_search(conditional_probs_at: Callable[[float], Callable], gamma: Angle) -> RateResult:
    """Maximize the symmetric-family rate over (eta, p), from the
    eta -> (outcome, letter) rows function that conditional_probs_at(gamma_rad)
    builds once per angle.

    The optimum lies on one ridge, eta* = pi/2 - u* gamma with u* in
    0.756-1.108 at every angle, and the profile R(u) = rate(eta, p*(eta))
    is smooth and unimodal there, so Brent's bounded search (Brent 1973,
    ch. 5), parabolic steps safeguarded by golden sections, maximizes it
    over the scaled angle u in [U_LO, U_HI], with eta = pi/2 - u gamma taken
    modulo pi, the family's period, and p* from _symmetric_prior_argmax in
    closed form.  The search is scipy's bounded scalar search (fminbound)
    with an absolute tolerance only, tol = ETA_XATOL / gamma / 3 in u: no
    step is shorter than tol, a parabolic step that lands within 2 tol of an
    end of the bracket is replaced by one of length tol towards its
    midpoint, so the ends of the u window are never evaluated, and the
    search stops when the best point lies within 2 tol - (bracket width)/2
    of the bracket's midpoint, a bracket about ETA_XATOL wide in eta.  It
    reports x, the best point evaluated, the later of equal ones; converged
    is False when the final bracket still holds an end of the u window.
    iterations counts the profile points, one prior solve each.
    """
    gamma_rad = _check_open_range(gamma)
    conditional_probs = conditional_probs_at(gamma_rad)

    def profile(u: float) -> tuple[float, dict]:  # the rate at u and its (eta, p)
        eta = (math.pi / 2.0 - u * gamma_rad) % math.pi
        p, rate = _symmetric_prior_argmax(conditional_probs(eta))
        return rate, {"eta": eta, "p": p}

    tol = ETA_XATOL / gamma_rad / 3.0
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    lo, hi = U_LO, U_HI
    # x the best point, w the second best and v the one before w
    x = w = v = lo + golden * (hi - lo)
    fx, x_params = profile(x)
    fw = fv = fx
    iterations = 1
    step = previous = 0.0  # the last step and the one before it
    while abs(x - (lo + hi) / 2.0) > 2.0 * tol - (hi - lo) / 2.0:
        mid = (lo + hi) / 2.0
        parabolic = False
        if abs(previous) > tol:  # try the vertex of the parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            s = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                s = -s
            q = abs(q)
            r, previous = previous, step
            if abs(s) < abs(0.5 * q * r) and q * (lo - x) < s < q * (hi - x):
                parabolic = True
                step = s / q
                if x + step - lo < 2.0 * tol or hi - (x + step) < 2.0 * tol:
                    step = math.copysign(tol, mid - x)
        if not parabolic:  # a golden section of the larger side
            previous = lo - x if x >= mid else hi - x
            step = golden * previous
        u = x + math.copysign(max(abs(step), tol), step)
        fu, u_params = profile(u)
        iterations += 1
        if fu >= fx:  # so x is the best point, the later of equal ones
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, fv, w, fw, x, fx, x_params = w, fw, x, fx, u, fu, u_params
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return RateResult(
        bits_per_transmission=fx,
        params=x_params,
        iterations=iterations,
        converged=U_LO < lo and hi < U_HI,
        hyperparams=dict(ANSATZ_HYPERPARAMS),
    )


def optimize_r2(gamma: Angle) -> RateResult:
    """Best symmetric-family rate at the given overlap angle.

    Brent's bounded search over the scaled angle u, eta = pi/2 - u gamma,
    with the prior solved exactly at each point (see _u_search);
    deterministic.  The smallest supported angle is 0.01 deg, where r2/c1
    still reads 1.0281785.  Smaller angles are not rejected, but there
    rounding, not the gamma^2 approach to the limit, sets the last digits of
    r2/c1: the rate is a difference of O(1) entropies.
    """
    return _u_search(_ideal_conditional_probs, gamma)


# ---------------------------------------------------------------------------
# unconstrained search over the full two-shot span


# Multistart gradient-polish settings of the unconstrained probe.
STARTS = 40  # polished rows: both warm starts, then seeded random points
POLISH_MAXITER = 500  # BFGS iterations (accepted steps) per polished row
POLISH_FTOL = 1e-13  # relative rate gain at which the polish stops
POLISH_GTOL = 1e-10  # largest gradient component at which the polish stops


def _letters_matrix(gamma: Angle) -> np.ndarray:
    return np.vstack([s.coords for s in two_shot_alphabet(gamma)])


def _general_priors(theta: np.ndarray) -> np.ndarray:
    """Letter priors: the softmax of the logits (0, theta[..., 6:9])."""
    w = np.zeros(theta.shape[:-1] + (4,))
    w[..., 1:] = theta[..., 6:9]
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def _rate_and_gradient(theta: np.ndarray, letters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rates of arbitrary four-outcome measurements and four-letter priors,
    over the leading axes of theta[..., 9], with their closed-form gradient,
    of shape theta.shape.

    theta[..., :6] are plane-rotation angles (rows of the rotation are the
    measurement vectors), theta[..., 6:9] are prior logits relative to
    letter a.

    With amplitudes A = U L^T, U = G_0 ... G_5 and P = A^2, dI/dP_kx = pi_x
    log2(P_kx / m_k) and dI/dpi_x = sum_k P_kx (log2(P_kx / m_k) - 1/ln 2).
    Since dG_k/dt = G_k J_k with J_k the generator of plane (i, j), angle k
    gets dI/dt_k = (V_k^T K V_k)[i, j], where V_k = G_0 ... G_k is a prefix
    product (the suffix G_{k+1} ... G_5 is V_k^T U) and K = A W^T - W A^T for
    W = dI/dA = 2 A dI/dP.  The logit derivatives chain dI/dpi through the
    softmax.  Each row rounds as it does alone.
    """
    # one batched call: the V_k are also one tree's intermediates, the same
    # bits, but eight small matmul calls take longer than three batched ones
    prefixes = _givens_product(np.where(_PREFIX_MASK, theta[..., None, :6], 0.0))
    amps = prefixes[..., -1, :, :] @ letters.T  # (..., outcome, letter)
    probs = amps**2
    priors = _general_priors(theta)
    value = mutual_information(probs, priors) / 2.0

    mixture = probs @ priors[..., None]
    live = (probs > 0.0) & (mixture > 0.0)
    # zero where P_kx or m_k vanishes, whose terms drop out
    log_ratio = np.divide(probs, mixture, out=np.ones(probs.shape), where=live)
    np.log2(log_ratio, out=log_ratio)
    d_priors = log_ratio - 1.0 / LN2
    d_priors *= probs
    d_priors = d_priors.sum(axis=-2)
    d_logits = priors * (d_priors - (priors[..., None, :] @ d_priors[..., None])[..., 0])

    d_amps = 2.0 * amps
    d_amps *= priors[..., None, :]
    d_amps *= log_ratio
    skew = amps @ np.swapaxes(d_amps, -1, -2) - d_amps @ np.swapaxes(amps, -1, -2)
    columns = np.swapaxes(prefixes, -1, -2)  # columns[..., k, i, :] is column i of V_k
    gradient = np.empty(theta.shape)
    gradient[..., :6] = np.einsum("...ka,...ab,...kb->...k",
                                  columns[..., _GIVENS_INDEX, _GIVENS_ROWS, :], skew,
                                  columns[..., _GIVENS_INDEX, _GIVENS_COLS, :])
    gradient[..., 6:] = d_logits[..., 1:]
    gradient /= 2.0
    return value, gradient


def _product_measurement_start(gamma: Angle) -> np.ndarray:
    """Parameter vector for the best per-transmission measurement applied twice
    with the uniform independent prior: its rate is exactly c1."""
    g = gamma.radians
    theta = g / 2.0 - math.pi / 4.0
    one_shot = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )
    angles = _rotation_angles(np.kron(one_shot, one_shot))  # a rotation: det(R)^4 = 1
    return np.concatenate([angles, np.zeros(3)])


def _ansatz_start(ansatz: RateResult) -> np.ndarray:
    """Parameter vector embedding the symmetric-family optimum: the rotation
    whose rows are its ansatz_rows and |11>, and its priors."""
    basis = np.vstack([ansatz_rows(ansatz.params["eta"]), (0.0, 0.0, 0.0, 1.0)])
    # a rotation: the eta turn inside the frame (f1, f2, f3) and the frame
    # (f1, f2, f3, |11>) itself each have det -1
    angles = _rotation_angles(basis)
    p = max(ansatz.params["p"], 1e-12)
    pc = max(1.0 - 2.0 * ansatz.params["p"], 1e-12)
    logits = np.array([0.0, math.log(pc / p), -40.0])  # letter d effectively off
    return np.concatenate([angles, logits])


def _random_thetas(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.concatenate(
        [rng.uniform(0.0, 2.0 * math.pi, (count, 6)), rng.normal(0.0, 1.5, (count, 3))], axis=1
    )


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _polish_lockstep(x: np.ndarray, letters: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """BFGS ascent (Nocedal and Wright, Numerical Optimization, ch. 6) of the
    rate from each row of x[R, 9], all rows in lockstep: each step makes one
    batched _rate_and_gradient call over the rows still running.  Returns
    each row's final point, rate, converged flag and rate evaluations.

    A row's search direction is d = H g for the gradient g and the inverse
    Hessian estimate H: the identity until the first update scales it by
    s.y / y.y (their eq. 6.20), and the update is skipped unless s.y >
    eps (g.s), as in L-BFGS-B.  Its line search halves the step, from 1
    (from min(1, 1/|g|) on the first iteration), until the Armijo test
    f(x + a d) >= f + 1e-4 a (g.d) holds.  A row stops, converged, when its
    largest gradient component is at most POLISH_GTOL, or when the gain of
    an accepted step, or the first-order gain a (g.d) of a rejected one, is
    at most POLISH_FTOL max(|f|, 1): no shorter step along d can gain more.
    A row whose POLISH_MAXITER-th step is accepted stops unconverged.  Each
    row's arithmetic is its own, so a row polished alone ends on the same
    bits.
    """
    x = x.copy()
    f, g = _rate_and_gradient(x, letters)
    evaluations = np.ones(len(x), dtype=int)
    converged = np.abs(g).max(axis=-1) <= POLISH_GTOL
    # the state of the running rows, compacted as rows stop
    live = np.flatnonzero(~converged)
    xs, fs, gs, evals = x[live], f[live], g[live], evaluations[live]
    hs = np.broadcast_to(np.eye(9), (live.size, 9, 9)).copy()
    ds = gs.copy()
    slope = _dot(gs, ds)
    step = 1.0 / np.maximum(np.sqrt(slope), 1.0)
    steps = np.zeros(live.size, dtype=int)
    while live.size:
        trial = xs + step[:, None] * ds
        f_trial, g_trial = _rate_and_gradient(trial, letters)
        evals += 1
        gain = step * slope
        accept = f_trial >= fs + 1e-4 * gain
        tol = POLISH_FTOL * np.maximum(np.abs(fs), 1.0)
        flat = ~accept & (gain <= tol)
        done = accept & ((f_trial - fs <= tol) | (np.abs(g_trial).max(axis=-1) <= POLISH_GTOL))
        steps += accept
        capped = accept & (steps >= POLISH_MAXITER)
        s, y = trial - xs, gs - g_trial  # y: the change in the gradient of -rate
        y_s = _dot(y, s)
        curved = y_s > np.finfo(float).eps * _dot(gs, s)
        xs = np.where(accept[:, None], trial, xs)
        fs = np.where(accept, f_trial, fs)
        gs = np.where(accept[:, None], g_trial, gs)
        step = np.where(accept, 1.0, step / 2.0)

        stop = flat | done | capped
        moved = np.flatnonzero(accept & ~stop)
        update = moved[curved[moved]]
        s, y, y_s = s[update], y[update], y_s[update]
        h = hs[update]
        first = steps[update] == 1
        h[first] = np.eye(9) * (y_s[first] / _dot(y[first], y[first]))[:, None, None]
        hy = (h @ y[..., None])[..., 0]
        rho = (1.0 / y_s)[:, None, None]
        shy = s[:, :, None] * hy[:, None, :]
        h -= rho * (shy + np.swapaxes(shy, -1, -2))
        h += (rho + rho * rho * _dot(y, hy)[:, None, None]) * (s[:, :, None] * s[:, None, :])
        hs[update] = h
        ds[moved] = (hs[moved] @ gs[moved, :, None])[..., 0]
        slope[moved] = _dot(gs[moved], ds[moved])
        lost = moved[slope[moved] <= 0.0]  # rounding left H indefinite: restart from the identity
        hs[lost], ds[lost], slope[lost] = np.eye(9), gs[lost], _dot(gs[lost], gs[lost])

        if stop.any():
            rows = live[stop]
            x[rows], f[rows], evaluations[rows] = xs[stop], fs[stop], evals[stop]
            converged[rows] = (flat | done & ~capped)[stop]
            live, xs, fs, gs, evals, hs, ds, slope, step, steps = (
                state[~stop] for state in (live, xs, fs, gs, evals, hs, ds, slope, step, steps))
    return x, f, converged, evaluations


def optimize_general(gamma: Angle, seed: int, ideal: RateResult | None = None) -> RateResult:
    """Lower-bound probe over every four-outcome von Neumann measurement and
    every prior on the four letters.

    One BFGS ascent on the closed-form gradient (see _polish_lockstep) from
    STARTS rows in lockstep: the product measurement, the symmetric-family
    optimum and STARTS - 2 random points drawn from default_rng(seed), so
    the result can only improve on both warm starts.  The returned optimum
    is the best polished point, the first of equal ones; converged is True
    when its row met the polish's gradient test (largest component at most
    POLISH_GTOL) or its relative-gain test (POLISH_FTOL) before
    POLISH_MAXITER steps.  iterations counts every rate evaluated.  The
    value is a lower bound on the two-shot capacity, nothing more: the
    parameterization covers rotations only up to projector sign, which is
    enough because outcomes are rank one.  ideal is optimize_r2(gamma), the
    symmetric-family optimum, computed when omitted.  seed, an integer >= 0
    (not a bool), is checked before any work.
    """
    _check_whole("seed", seed, 0)
    _check_open_range(gamma)
    letters = _letters_matrix(gamma)
    if ideal is None:
        ideal = optimize_r2(gamma)
    warm = [_product_measurement_start(gamma), _ansatz_start(ideal)]
    x0 = np.concatenate([warm, _random_thetas(np.random.default_rng(seed), STARTS - len(warm))])
    polished, polished_f, converged, evaluations = _polish_lockstep(x0, letters)
    best = int(np.argmax(polished_f))  # the first of equal optima

    best_x = polished[best]
    priors = _general_priors(best_x)
    params = {f"theta_{i}": float(best_x[i]) for i in range(6)}
    params.update({name: float(w) for name, w in zip(("p_a", "p_b", "p_c", "p_d"), priors)})
    return RateResult(
        bits_per_transmission=float(polished_f[best]),
        params=params,
        iterations=int(evaluations.sum()),
        converged=bool(converged[best]),
        hyperparams={
            "starts": float(STARTS),
            "polish_maxiter": float(POLISH_MAXITER),
            "polish_ftol": POLISH_FTOL,
            "polish_gtol": POLISH_GTOL,
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

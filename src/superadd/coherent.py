"""Photon-number-space measurement for a weak coherent-state alphabet.

A pair of opposite-amplitude coherent states with mean photon number alpha^2
well below one is truncated to the zero- and one-photon subspace, one
polarization mode per transmission.  The symmetric measurement family is
re-expanded in the photon coordinates |0>|0>, |0>|1>, |1>|0>, |1>|1>, its
(order alpha) two-photon components are dropped, and the clipped vectors are
re-orthogonalized.  The resulting basis never needs to distinguish the
two-photon event from the single-photon ones, which is what makes it
experimentally convenient, at a small cost in rate.

Rates computed here score the clipped basis against the untruncated signal
letters: the signals still carry their two-photon amplitude even though the
measurement ignores it, so the measurement is completed with the two-photon
projector as a fourth outcome to keep the outcome distribution normalized.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .capacities import RateResult
from .statespace import Angle, StateVector, _two_shot_letters
from .twoshot import (ANSATZ_HYPERPARAMS, SQRT2, _check_open_range, _grid_then_refine,
                      _symmetric_conditional_probs, _symmetric_prior_argmax, _symmetric_prior_rate,
                      optimize_r2)


def alpha_from_gamma(gamma: Angle) -> float:
    """Coherent amplitude reproducing the overlap cos(gamma) after truncation:
    alpha = sqrt((1 - cos gamma) / (1 + cos gamma))."""
    cg = math.cos(gamma.radians)
    return math.sqrt((1.0 - cg) / (1.0 + cg))


def coherent_states(gamma: Angle) -> tuple[StateVector, StateVector]:
    """Zero/one-photon truncations (psi0, psi1) of the +-alpha coherent states,
    the photon-space counterpart of embed_alphabet: both share the |0>
    amplitude 1/sqrt(1+alpha^2), so their overlap (1-alpha^2)/(1+alpha^2) is
    cos(gamma)."""
    alpha = alpha_from_gamma(gamma)
    norm = math.sqrt(1.0 + alpha**2)
    return StateVector(np.array([1.0, alpha]) / norm), StateVector(np.array([1.0, -alpha]) / norm)


def _photon_row_entries(ce, se, alpha):
    """The seven distinct photon-coordinate amplitudes (u0, u1, u2, u3, w0,
    w1, w3) of the symmetric family, from cos eta and sin eta as floats or
    arrays: e1 = (u0, u1, u2, u3), e2 = (u0, u2, u1, u3) is e1 with the two
    one-photon coordinates swapped, and e3 = (w0, w1, w1, w3).

    These are the exact re-expansions of the span construction in the
    truncated photon coordinates; every coefficient carries the common
    denominator 2(1 + alpha^2).
    """
    a2 = alpha * alpha
    den = 2.0 * (1.0 + a2)
    return (
        (SQRT2 * se + 2.0 * alpha * ce) / den,
        (alpha * SQRT2 * se - ce + a2 * ce - 1.0 - a2) / den,
        (alpha * SQRT2 * se - ce + a2 * ce + 1.0 + a2) / den,
        (a2 * SQRT2 * se - 2.0 * alpha * ce) / den,
        2.0 * (ce - alpha * SQRT2 * se) / den,
        (SQRT2 * se * (1.0 - a2) + 2.0 * alpha * ce) / den,
        2.0 * (alpha * SQRT2 * se + a2 * ce) / den,
    )


def photon_basis(eta: float, gamma: Angle) -> np.ndarray:
    """Symmetric measurement family expanded in photon-number coordinates:
    rows e1, e2, e3 of amplitudes on |0>+|0>-, |0>+|1>-, |1>+|0>-, |1>+|1>-.

    The two-photon (last) components are of order alpha while the rest are of
    order one; the expansion is orthonormal for every (eta, gamma).
    """
    _check_open_range(gamma)
    u0, u1, u2, u3, w0, w1, w3 = _photon_row_entries(np.cos(eta), np.sin(eta),
                                                     alpha_from_gamma(gamma))
    return np.array([(u0, u1, u2, u3), (u0, u2, u1, u3), (w0, w1, w1, w3)])


def two_shot_coherent_alphabet(gamma: Angle) -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """Two-shot letters as products of the truncated one-mode states, in photon
    coordinates (first transmission on the + polarization)."""
    return _two_shot_letters(*coherent_states(gamma))


def _clipped_amplitudes(ce, se, alpha, l0, l1):
    """Amplitudes (A1a, A1b, A1c, A3a, A3c) of the clipped, orthonormalized
    basis on the letters a = (l0, -l1, l1), b = (l0, l1, -l1) and
    c = (l0, l1, l1) (photon coordinates below two photons), from cos eta
    and sin eta as floats or arrays.  e2 is the a <-> b mirror of e1 and
    A3b = A3a, so these five give every amplitude.

    The full rows are orthonormal, so with M the three clipped columns and t
    the two-photon column, M M^T = I - t t^T, whose inverse square root is
    I + k t t^T with k = 1 / (r (1 + r)) and r = sqrt(1 - |t|^2).  The
    orthonormalized rows are then M + k t (t^T M), which has no cancellation
    as alpha -> 0; t = (u3, u3, w3), and t^T M = (s0, s1, s1).  This is the
    symmetric (Lowdin) orthogonalization of the clipped rows, their polar
    factor, which the tests compute by SVD and hold these amplitudes to.
    """
    u0, u1, u2, u3, w0, w1, w3 = _photon_row_entries(ce, se, alpha)
    t2 = 2.0 * u3 * u3 + w3 * w3
    r = (math.sqrt if isinstance(t2, float) else np.sqrt)(1.0 - t2)
    k = 1.0 / (r * (1.0 + r))
    s0 = 2.0 * u3 * u0 + w3 * w0
    s1 = u3 * (u1 + u2) + w3 * w1
    o0, o1, o2 = u0 + k * u3 * s0, u1 + k * u3 * s1, u2 + k * u3 * s1  # e1
    v0, v1 = w0 + k * w3 * s0, w1 + k * w3 * s1  # e3 = (v0, v1, v1)
    shared = o0 * l0
    return (shared + (o2 - o1) * l1, shared + (o1 - o2) * l1, shared + (o1 + o2) * l1,
            v0 * l0, v0 * l0 + 2.0 * v1 * l1)


def _trunc_conditional_probs(gamma_rad: float) -> Callable:
    """etas -> P[eta..., outcome, letter] of the completed clipped basis at one
    angle (see twoshot._symmetric_conditional_probs); the eta-independent
    letters are built once per angle."""
    gamma = Angle(gamma_rad)
    alpha = alpha_from_gamma(gamma)
    l0, l1, _, l3 = two_shot_coherent_alphabet(gamma)[2].coords.tolist()  # letter c
    two_photon = l3 * l3  # fourth outcome, the same for every letter
    return _symmetric_conditional_probs(lambda ce, se: _clipped_amplitudes(ce, se, alpha, l0, l1),
                                        fixed_rows=[(two_photon,) * 3])


def optimize_r2_truncated(gamma: Angle) -> RateResult:
    """Best clipped-basis rate, re-optimizing eta for the clipped scoring.

    Same grid-then-refine search as the ideal family.  Re-optimizing eta
    after clipping can only raise the curve relative to reusing the ideal
    angle; the reused variant is available separately for comparison.
    """
    return _grid_then_refine(_trunc_conditional_probs, gamma)


def optimize_r2_truncated_reused(gamma: Angle, ideal: RateResult | None = None) -> RateResult:
    """Clipped-basis rate at the ideal family's optimal eta, with the prior
    solved exactly by twoshot._symmetric_prior_argmax, warm-started from the
    ideal family's p.  ideal is optimize_r2(gamma), computed when omitted."""
    g = _check_open_range(gamma)
    if ideal is None:
        ideal = optimize_r2(gamma)
    eta = ideal.params["eta"]
    probs = _trunc_conditional_probs(g)(eta)  # (outcome, letter)
    p, slope_evals = _symmetric_prior_argmax(probs, ideal.params["p"])
    return RateResult(
        bits_per_transmission=_symmetric_prior_rate(probs, p),
        params={"eta": eta, "p": p},
        iterations=slope_evals + ideal.iterations,
        converged=ideal.converged,
        hyperparams=dict(ANSATZ_HYPERPARAMS),
    )

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
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .capacities import Ensemble, RateResult, measured_mutual_information
from .statespace import Angle, MeasurementBasis, StateVector, lowdin_orthogonalize, tensor
from .twoshot import (ANSATZ_HYPERPARAMS, P_POINTS, SQRT2, _check_open_range, _grid_then_refine,
                      _RateGrid, _symmetric_prior_rates, optimize_r2)

TWO_PHOTON = np.array([0.0, 0.0, 0.0, 1.0])


def alpha_from_gamma(gamma: Angle) -> float:
    """Coherent amplitude reproducing the overlap cos(gamma) after truncation:
    alpha = sqrt((1 - cos gamma) / (1 + cos gamma))."""
    cg = math.cos(gamma.radians)
    return math.sqrt((1.0 - cg) / (1.0 + cg))


@dataclass(frozen=True)
class CoherentAlphabet:
    """Zero/one-photon truncations of the +-alpha coherent states.

    Both states share the |0> amplitude 1/sqrt(1+alpha^2) and differ in the
    sign of the |1> amplitude, so their overlap is (1-alpha^2)/(1+alpha^2).
    """

    alpha: float
    psi0: StateVector
    psi1: StateVector

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError("amplitude must be nonnegative")
        expected = (1.0 - self.alpha**2) / (1.0 + self.alpha**2)
        if abs(self.psi0.inner(self.psi1) - expected) > 1e-12:
            raise ValueError("state overlap inconsistent with the amplitude")

    @classmethod
    def for_angle(cls, gamma: Angle) -> "CoherentAlphabet":
        alpha = alpha_from_gamma(gamma)
        norm = math.sqrt(1.0 + alpha**2)
        psi0 = StateVector(np.array([1.0, alpha]) / norm)
        psi1 = StateVector(np.array([1.0, -alpha]) / norm)
        return cls(alpha=alpha, psi0=psi0, psi1=psi1)


def _photon_rows(eta, alpha):
    """Photon-coordinate rows of the symmetric family, vectorized over eta.

    These are the exact re-expansions of the span construction in the
    truncated photon coordinates; every coefficient carries the common
    denominator 2(1 + alpha^2).  Returns a fresh (..., vector, photon
    coordinate) array; e2 is e1 with the two one-photon coordinates swapped.
    """
    eta = np.asarray(eta, dtype=float)
    ce, se = np.cos(eta), np.sin(eta)
    a2 = alpha * alpha
    den = 2.0 * (1.0 + a2)
    rows = np.empty(eta.shape + (3, 4))
    rows[..., 0, 0] = (SQRT2 * se + 2.0 * alpha * ce) / den
    rows[..., 0, 1] = (alpha * SQRT2 * se - ce + a2 * ce - 1.0 - a2) / den
    rows[..., 0, 2] = (alpha * SQRT2 * se - ce + a2 * ce + 1.0 + a2) / den
    rows[..., 0, 3] = (a2 * SQRT2 * se - 2.0 * alpha * ce) / den
    rows[..., 1, 0::3] = rows[..., 0, 0::3]
    rows[..., 1, 1:3] = rows[..., 0, 2:0:-1]
    rows[..., 2, 0] = 2.0 * (ce - alpha * SQRT2 * se) / den
    rows[..., 2, 1] = (SQRT2 * se * (1.0 - a2) + 2.0 * alpha * ce) / den
    rows[..., 2, 2] = rows[..., 2, 1]
    rows[..., 2, 3] = 2.0 * (alpha * SQRT2 * se + a2 * ce) / den
    return rows


def photon_basis(eta: float, gamma: Angle) -> np.ndarray:
    """Symmetric measurement family expanded in photon-number coordinates:
    rows e1, e2, e3 of amplitudes on |0>+|0>-, |0>+|1>-, |1>+|0>-, |1>+|1>-.

    The two-photon (last) components are of order alpha while the rest are of
    order one; the expansion is orthonormal for every (eta, gamma).
    """
    _check_open_range(gamma)
    return _photon_rows(float(eta), alpha_from_gamma(gamma))


def two_shot_coherent_alphabet(gamma: Angle) -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """Two-shot letters as products of the truncated one-mode states, in photon
    coordinates (first transmission on the + polarization)."""
    states = CoherentAlphabet.for_angle(gamma)
    psi0, psi1 = states.psi0, states.psi1
    return (
        tensor(psi0, psi1),
        tensor(psi1, psi0),
        tensor(psi0, psi0),
        tensor(psi1, psi1),
    )


def truncated_orthonormal_basis(eta: float, gamma: Angle) -> MeasurementBasis:
    """Clip the two-photon components and re-orthogonalize.

    Zeroes the two-photon amplitude of each vector and applies symmetric
    orthogonalization on the clipped span; the outputs have exactly zero
    two-photon amplitude.  The clipped Gram matrix is the identity minus a
    rank-one defect of norm at most 3/4, so it never approaches singularity
    inside (0, 90) degrees.
    """
    _check_open_range(gamma)
    clipped = _photon_rows(float(eta), alpha_from_gamma(gamma))
    clipped[:, 3] = 0.0
    return lowdin_orthogonalize(clipped)


def _scoring_basis(eta: float, gamma: Angle) -> MeasurementBasis:
    """Truncated basis completed with the two-photon projector so the four
    outcomes resolve the identity."""
    rows = truncated_orthonormal_basis(eta, gamma).matrix
    return MeasurementBasis.from_rows(np.vstack([rows, TWO_PHOTON]))


def rate_truncated(eta: float, p: float, gamma: Angle) -> float:
    """Bits per transmission of the clipped basis against the coherent letters."""
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"prior p must lie in [0, 0.5], got {p!r}")
    a, b, c, _ = two_shot_coherent_alphabet(gamma)
    ensemble = Ensemble(((p, a), (p, b), (1.0 - 2.0 * p, c)))
    return measured_mutual_information(ensemble, _scoring_basis(eta, gamma)) / 2.0


def _trunc_conditional_probs(gamma_rad: float) -> Callable[[np.ndarray], np.ndarray]:
    """etas -> P[eta..., outcome, letter] for the completed clipped basis at
    one angle, over the axes of etas (none for a float); the eta-independent
    letters are built once per angle."""
    gamma = Angle(gamma_rad)
    alpha = alpha_from_gamma(gamma)
    letters = np.vstack([s.coords for s in two_shot_coherent_alphabet(gamma)[:3]])
    two_photon = letters[:, 3] ** 2  # fourth outcome, eta independent

    def conditional_probs(etas: np.ndarray) -> np.ndarray:
        clipped = _photon_rows(etas, alpha)  # (eta, 3, 4)
        clipped[..., 3] = 0.0
        gram = clipped @ np.swapaxes(clipped, -1, -2)
        eigvals, eigvecs = np.linalg.eigh(gram)
        inv_sqrt = np.einsum("...ik,...k,...jk->...ij", eigvecs, eigvals**-0.5, eigvecs)
        ortho = inv_sqrt @ clipped  # (eta, 3, 4)
        amplitudes = np.einsum("...kd,xd->...kx", ortho, letters)
        probs = np.empty(np.shape(etas) + (4, 3))
        probs[..., :3, :] = amplitudes**2
        probs[..., 3, :] = two_photon
        return probs

    return conditional_probs


def _trunc_rate_grid(gamma_rad: float) -> _RateGrid:
    """(etas, ps) -> rate[eta, p] of the clipped basis at one angle."""
    conditional_probs = _trunc_conditional_probs(gamma_rad)
    return lambda etas, ps: _symmetric_prior_rates(conditional_probs(etas), ps)


def optimize_r2_truncated(gamma: Angle) -> RateResult:
    """Best clipped-basis rate, re-optimizing eta for the clipped scoring.

    Same grid-then-refine search as the ideal family.  Re-optimizing eta
    after clipping can only raise the curve relative to reusing the ideal
    angle; the reused variant is available separately for comparison.
    """
    return _grid_then_refine(_trunc_rate_grid, gamma)


def optimize_r2_truncated_reused(gamma: Angle, ideal: RateResult | None = None) -> RateResult:
    """Clipped-basis rate at the ideal family's optimal eta, optimizing the
    prior only.  ideal is optimize_r2(gamma), computed when omitted."""
    g = _check_open_range(gamma)
    if ideal is None:
        ideal = optimize_r2(gamma)
    eta = ideal.params["eta"]
    ps = np.linspace(0.0, 0.5, P_POINTS)
    probs = _trunc_conditional_probs(g)(eta)  # (outcome, letter)
    grid = _symmetric_prior_rates(probs, ps)
    pi = int(np.argmax(grid))
    lo = max(0.0, ps[pi] - 2.0 * (0.5 / (P_POINTS - 1)))
    hi = min(0.5, ps[pi] + 2.0 * (0.5 / (P_POINTS - 1)))
    result = minimize_scalar(
        lambda p: -_symmetric_prior_rates(probs, p),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    best = max(-float(result.fun), float(grid[pi]))
    return RateResult(
        bits_per_transmission=best,
        params={"eta": eta, "p": float(result.x)},
        iterations=int(grid.size + result.nfev + ideal.iterations),
        converged=bool(result.success) and ideal.converged,
        hyperparams=dict(ANSATZ_HYPERPARAMS),
    )

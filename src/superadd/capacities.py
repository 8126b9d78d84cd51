"""Closed-form channel capacities and the measured mutual-information functional.

All logarithms are base 2: rates and entropies are in bits.  Outcome
probabilities that dip below zero by float error (down to -1e-12) are clamped
to zero before entropy evaluation; anything lower is treated as a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CompletenessError
from .statespace import Angle, MeasurementBasis, StateVector

PROB_CLAMP_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
LN2 = math.log(2.0)


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """Elementwise p * log2(p) with the 0 * log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    return p * np.log2(p, out=np.zeros_like(p), where=p > 0.0)


def _clamp_probabilities(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    low = float(p.min())
    if low < -PROB_CLAMP_TOL:
        raise ValueError(f"probability {low} below -{PROB_CLAMP_TOL}; upstream numerics are broken")
    return np.where(p < 0.0, 0.0, p)


def entropy_bits(p) -> float:
    """Shannon entropy of a probability vector, in bits."""
    return float(-_xlog2x(_clamp_probabilities(p)).sum()) + 0.0


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x) for x in [0, 1].

    The (1-x) term goes through log1p, so small x keeps full relative
    precision instead of losing it to the rounding of 1 - x.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument must be in [0, 1], got {x!r}")
    h = 0.0
    if x > 0.0:
        h -= x * math.log2(x)
    if x < 1.0:
        h -= (1.0 - x) * math.log1p(-x) / LN2
    return h + 0.0


def c1(gamma: Angle) -> float:
    """One-shot capacity of the two-state alphabet with overlap cos(gamma).

    Equals (1+s)/2 * log2(1+s) + (1-s)/2 * log2(1-s) with s = sin(gamma),
    equivalently 1 - H2((1+s)/2): the capacity of the binary symmetric
    channel induced by the best fixed per-transmission measurement.

    The two terms cancel to O(s^2) as s -> 0, so for s < 1/2 the same sum is
    evaluated as (log1p(-s^2)/2 + s atanh(s)) / ln 2, whose terms share one
    sign; that form in turn loses digits as s -> 1, where the direct sum is
    exact.
    """
    s = math.sin(gamma.radians)
    if s < 0.5:
        return (0.5 * math.log1p(-s * s) + s * math.atanh(s)) / LN2 + 0.0
    hi = 0.5 * (1.0 + s) * math.log2(1.0 + s)
    lo = 0.0 if s >= 1.0 else 0.5 * (1.0 - s) * math.log2(1.0 - s)
    return hi + lo + 0.0


def c_infinity(gamma: Angle) -> float:
    """Asymptotic capacity H2((1 - cos gamma)/2), attainable with unboundedly
    large collective decoding.

    The argument is taken as sin^2(gamma/2), which equals (1 - cos gamma)/2
    without its cancellation at small gamma.
    """
    return binary_entropy(math.sin(gamma.radians / 2.0) ** 2)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Prior-weighted pure states; priors are nonnegative and sum to one."""

    items: tuple[tuple[float, StateVector], ...]

    def __post_init__(self):
        items = tuple((float(p), state) for p, state in self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise ValueError("ensemble needs at least one state")
        priors = np.array([p for p, _ in items])
        if priors.min() < 0.0:
            raise ValueError(f"priors must be nonnegative, got {priors.min()}")
        if abs(priors.sum() - 1.0) > 1e-12:
            raise ValueError(f"priors sum to {priors.sum()}, not 1")
        dim = items[0][1].dim
        if any(state.dim != dim for _, state in items):
            raise ValueError("ensemble states must share one dimension")

    @property
    def priors(self) -> np.ndarray:
        return np.array([p for p, _ in self.items])

    @property
    def states(self) -> np.ndarray:
        """State coordinates stacked as rows."""
        return np.vstack([state.coords for _, state in self.items])

    @property
    def dim(self) -> int:
        return self.items[0][1].dim


@dataclass(frozen=True)
class RateResult:
    """Outcome of a rate maximization.

    bits_per_transmission is normalized by the block length, so it lies in
    [0, 1].  params holds the optimizing variables; hyperparams echoes the
    fixed optimizer settings for reproducibility.
    """

    bits_per_transmission: float
    params: dict[str, float]
    iterations: int
    converged: bool
    hyperparams: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        r = self.bits_per_transmission
        if not -1e-12 <= r <= 1.0 + 1e-12:
            raise ValueError(f"rate {r} outside [0, 1]")
        object.__setattr__(self, "bits_per_transmission", min(max(r, 0.0), 1.0))


def measured_mutual_information(ensemble: Ensemble, basis: MeasurementBasis) -> float:
    """Mutual information, in bits, between the letters and the outcomes of a
    rank-one von Neumann measurement.

    Outcome probabilities are the squared amplitudes |<e_k|state>|^2; the
    result is H(outcomes under the average state) minus the prior-weighted
    outcome entropies of the individual states.  Not yet divided by the block
    length.

    Raises:
        CompletenessError: if some state leaks probability outside the basis,
            i.e. the outcome probabilities do not sum to 1 within 1e-10.
    """
    if basis.dim != ensemble.dim:
        raise ValueError(f"basis dimension {basis.dim} != ensemble dimension {ensemble.dim}")
    amplitudes = basis.matrix @ ensemble.states.T
    probs = amplitudes**2  # (outcome, letter)
    totals = probs.sum(axis=0)
    worst = float(np.abs(totals - 1.0).max())
    if worst > COMPLETENESS_TOL:
        raise CompletenessError(
            f"basis incomplete on ensemble span: outcome probabilities sum to "
            f"1 +- {worst:.3e} (tolerance {COMPLETENESS_TOL:.0e})"
        )
    return float(mutual_information(probs, ensemble.priors))


def mutual_information(probs: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Shannon mutual information, in bits, over leading batch axes.

    probs[..., outcome, letter] are the outcome probabilities of each letter
    and priors[..., letter] the letter weights; the result has the leading
    shape.  No clamping or completeness check: inputs must already be
    nonnegative (squared amplitudes, for instance).
    """
    # einsum's summation order is the one the pinned symmetric-family optimizer
    # values depend on; matmul or sum() round differently in the last bit,
    # which moves the Nelder-Mead paths.
    mixture = np.einsum("...kx,...x->...k", probs, priors)
    h_mixture = -_xlog2x(mixture).sum(axis=-1)
    h_letters = -_xlog2x(probs).sum(axis=-2)
    return h_mixture - np.einsum("...x,...x->...", h_letters, priors)


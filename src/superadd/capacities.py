"""Closed-form channel capacities and the measured mutual-information functional.

All logarithms are base 2: rates and entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CompletenessError
from .statespace import Angle, MeasurementBasis, StateVector

COMPLETENESS_TOL = 1e-10
LN2 = math.log(2.0)


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """Elementwise p * log2(p) with the 0 * log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    out = np.log2(p, out=np.zeros(p.shape), where=p > 0.0)
    out *= p
    return out


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
        if not priors.min() >= 0.0:  # also rejects NaN
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


def _born_probabilities(ensemble: Ensemble, basis: MeasurementBasis) -> np.ndarray:
    """P[outcome, letter] = |<e_k|state>|^2 of a rank-one von Neumann
    measurement on the ensemble's letters.

    Raises:
        CompletenessError: if some state leaks probability outside the basis,
            i.e. the outcome probabilities do not sum to 1 within 1e-10.
    """
    if basis.dim != ensemble.dim:
        raise ValueError(f"basis dimension {basis.dim} != ensemble dimension {ensemble.dim}")
    probs = (basis.matrix @ ensemble.states.T) ** 2
    worst = float(np.abs(probs.sum(axis=0) - 1.0).max())
    if worst > COMPLETENESS_TOL:
        raise CompletenessError(
            f"basis incomplete on ensemble span: outcome probabilities sum to "
            f"1 +- {worst:.3e} (tolerance {COMPLETENESS_TOL:.0e})"
        )
    return probs


def measured_mutual_information(ensemble: Ensemble, basis: MeasurementBasis) -> float:
    """Mutual information, in bits, between the letters and the outcomes of a
    rank-one von Neumann measurement (see _born_probabilities): H(outcomes
    under the average state) minus the prior-weighted outcome entropies of the
    individual states.  Not yet divided by the block length."""
    return float(mutual_information(_born_probabilities(ensemble, basis), ensemble.priors))


def mutual_information(probs: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Shannon mutual information, in bits, over leading batch axes.

    probs[..., outcome, letter] are the outcome probabilities of each letter
    and priors[..., letter] the letter weights; the result has the leading
    shape.  No clamping or completeness check: inputs must already be
    nonnegative (squared amplitudes, for instance).
    """
    # A last-bit change here can move optimize_general's search paths, so
    # only reorderings that round identically are allowed.  Negation is exact
    # and commutes with every product and sum, so keeping the entropies as
    # sums of x log2 x (<= 0) and subtracting the other way round changes no
    # bit: (-a) - (-b) = b - a and einsum(-h, w) = -einsum(h, w).  Products
    # may commute, but the grouping of a sum may not change: the
    # prior-weighted sum as matmul or as (h * w).sum(-1) rounds differently
    # from the einsum.  The pinned symmetric-family values do not come
    # through here: twoshot._symmetric_prior_terms rates them in its own
    # summation order, within 1e-15 of this kernel.
    mixture = np.einsum("...kx,...x->...k", probs, priors)
    mixture_terms = _xlog2x(mixture).sum(axis=-1)  # -H(mixture)
    letter_terms = _xlog2x(probs).sum(axis=-2)  # -H(letter x), over x
    return np.einsum("...x,...x->...", letter_terms, priors) - mixture_terms


"""Born-rule Monte Carlo validation of the analytic rate functional.

Each trial draws a letter from the priors and an outcome from the squared
amplitudes, so the empirical mutual information of the joint counts must
converge on the analytic value.  Trials are split into fixed-size blocks,
each with its own stream derived from the master seed, so the counts are
reproducible no matter how the blocks would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacities import COMPLETENESS_TOL, LN2, Ensemble, _xlog2x
from .statespace import MeasurementBasis

DEFAULT_BLOCK = 250_000


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: sample count, master seed, and the channel pieces."""

    samples: int
    seed: int
    ensemble: Ensemble
    basis: MeasurementBasis
    block_size: int = DEFAULT_BLOCK

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.block_size < 1:
            raise ValueError("block size must be positive")
        probs = (self.basis.matrix @ self.ensemble.states.T) ** 2
        gap = float(np.abs(probs.sum(axis=0) - 1.0).max())
        if gap > COMPLETENESS_TOL:
            raise ValueError(f"basis incomplete on ensemble span by {gap:.3e}")

    def outcome_probabilities(self) -> np.ndarray:
        """P[letter, outcome] under the Born rule."""
        return (self.basis.matrix @ self.ensemble.states.T).T ** 2


@dataclass(frozen=True)
class JointCounts:
    """Letter-by-outcome contingency table from a simulation run."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-d letter x outcome matrix")
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        if int(counts.sum()) != self.total:
            raise ValueError(f"counts sum to {counts.sum()}, total says {self.total}")


def simulate(config: SimConfig) -> JointCounts:
    """Sample the measurement record and tally the joint letter/outcome counts.

    Deterministic for a fixed config: block k always consumes the k-th child
    stream of the master seed.
    """
    priors = config.ensemble.priors
    cond = config.outcome_probabilities()  # (letter, outcome)
    n_letters, n_outcomes = cond.shape
    cdf = np.cumsum(cond, axis=1)
    blocks = math.ceil(config.samples / config.block_size)
    streams = np.random.SeedSequence(config.seed).spawn(blocks)
    counts = np.zeros(n_letters * n_outcomes, dtype=np.int64)
    remaining = config.samples
    for stream in streams:
        block = min(config.block_size, remaining)
        remaining -= block
        rng = np.random.default_rng(stream)
        letters = rng.choice(n_letters, size=block, p=priors)
        uniforms = rng.random(block)
        outcomes = (uniforms[:, None] >= cdf[letters]).sum(axis=1)
        np.minimum(outcomes, n_outcomes - 1, out=outcomes)  # guard the cdf float edge
        counts += np.bincount(letters * n_outcomes + outcomes, minlength=counts.size)
    return JointCounts(counts=counts.reshape(n_letters, n_outcomes), total=config.samples)


def empirical_mi(counts: JointCounts, bias_correction: bool = True) -> float:
    """Plug-in mutual information of the joint counts, in bits.

    With bias_correction the three plug-in entropies get the first-order
    (support size - 1) / (2 N ln 2) adjustment, which removes the leading
    upward bias of the plug-in mutual information.
    """
    if counts.total < 1:
        raise ValueError("need at least one count")
    joint = counts.counts / counts.total
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    mi = float(
        _xlog2x(joint).sum() - _xlog2x(rows).sum() - _xlog2x(cols).sum()
    )
    if bias_correction:
        support_rows = int((rows > 0).sum())
        support_cols = int((cols > 0).sum())
        support_joint = int((joint > 0).sum())
        mi += ((support_rows - 1) + (support_cols - 1) - (support_joint - 1)) / (
            2.0 * counts.total * LN2
        )
    return mi


def bootstrap_standard_error(counts: JointCounts, resamples: int = 100, seed: int = 0) -> float:
    """Standard error of the empirical mutual information by multinomial
    resampling of the joint cells."""
    if resamples < 2:
        raise ValueError("need at least two resamples")
    cells = counts.counts.ravel()
    probs = cells / counts.total
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = np.empty(resamples)
    for k in range(resamples):
        resampled = rng.multinomial(counts.total, probs).reshape(counts.counts.shape)
        values[k] = empirical_mi(JointCounts(counts=resampled, total=counts.total))
    return float(values.std(ddof=1))

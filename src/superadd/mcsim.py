"""Born-rule Monte Carlo validation of the analytic rate functional.

Each trial draws a letter from the priors and an outcome from the squared
amplitudes, so the empirical mutual information of the joint counts must
converge on the analytic value.  Trials are split into fixed-size blocks,
each with its own child stream of the master seed, so the counts depend on
the seed and the sample count alone.

Both draws compare uniforms with the edges of a cumulative distribution.  The
letter is the number of prior-CDF edges at or below its uniform, which is the
draw and the searchsorted(side="right") of Generator.choice(p=priors), so the
letters, and with them every count, are bit-identical to drawing through
Generator.choice.  The outcomes are never materialized: for each letter, one
boolean mask per outcome-CDF edge counts the trials of that letter whose
uniform is at or above the edge, and neighbouring counts differ by the trials
of one outcome.

A block is drawn and tallied in chunks of _CHUNK trials.  Generator.random
fills its output with one double per 64-bit draw of the stream, so
rng.random(n1) followed by rng.random(n2) gives the uniforms of
rng.random(n1 + n2), and the chunks consume a block's stream exactly as one
whole-block draw would.  The working set of a tally pass, 512 KiB of
uniforms and 64 KiB masks, stays in cache.  At most one block's letters and
two chunks of uniforms are alive at once, so a simulate call's traced memory
peaks near 1.3 MiB whatever the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacities import LN2, Ensemble, _born_probabilities, _xlog2x
from .statespace import MeasurementBasis, _check_whole

BLOCK_SIZE = 250_000  # trials per child stream of the master seed
_CHUNK = 1 << 16  # trials per draw and per tally pass within a block


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: sample count, master seed, and the channel pieces."""

    samples: int
    seed: int
    ensemble: Ensemble
    basis: MeasurementBasis

    def __post_init__(self):
        _check_whole("samples", self.samples, 1)
        _check_whole("seed", self.seed, 0)
        probs = _born_probabilities(self.ensemble, self.basis).T  # dimension and completeness checks
        probs.setflags(write=False)
        object.__setattr__(self, "_probs", probs)

    def outcome_probabilities(self) -> np.ndarray:
        """P[letter, outcome] under the Born rule, read-only, as checked at
        construction."""
        return self._probs


@dataclass(frozen=True)
class JointCounts:
    """Letter-by-outcome contingency table from a simulation run."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        given = np.asarray(self.counts)
        # checked before the cast, which would truncate 1.5 to 1 and warn on nan
        if given.dtype.kind == "f" and not np.all(np.isfinite(given) & (given == np.trunc(given))):
            raise ValueError("counts must be finite whole numbers")
        counts = np.array(given, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-d letter x outcome matrix")
        _check_tables(counts, self.total)


def _check_tables(counts: np.ndarray, total: int) -> None:
    """Every letter x outcome table in the trailing two axes of counts is
    nonnegative and sums to total."""
    if counts.min() < 0:
        raise ValueError("counts must be nonnegative")
    sums = counts.sum(axis=(-2, -1))
    if np.any(sums != total):
        raise ValueError(f"counts sum to {sums[sums != total].flat[0]}, total says {total}")


def _draw_letters(rng: np.random.Generator, priors: np.ndarray, size: int) -> np.ndarray:
    """rng.choice(len(priors), size, p=priors), bit for bit and consuming
    the same uniforms, by one vector compare per prior-CDF edge.  The letters
    come in the smallest unsigned type that holds len(priors) - 1, uint8 for
    up to 256 letters."""
    edges = np.cumsum(priors)
    edges /= edges[-1]  # choice's normalization: edges[-1] == 1 > every uniform
    uniforms = rng.random(size)
    letters = np.zeros(size, dtype=np.min_scalar_type(priors.size - 1))
    for edge in edges[:-1]:
        letters += uniforms >= edge
    return letters


def simulate(config: SimConfig) -> JointCounts:
    """Sample the measurement record and tally the joint letter/outcome counts.

    Deterministic for a fixed config: block k always consumes the k-th child
    stream of the master seed, first the letter uniforms, then the outcome
    uniforms.  Both are drawn _CHUNK at a time, which takes the same uniforms
    from the stream as whole-block draws, so the counts do not depend on
    _CHUNK, and the arrays held at once stay under 2 MiB at any sample count.
    Each chunk is tallied letter by letter with boolean masks, so no
    per-trial outcome or cell index is ever built.
    """
    priors = config.ensemble.priors
    cond = config.outcome_probabilities()  # (letter, outcome)
    n_letters, n_outcomes = cond.shape
    # A CDF row is a cumsum of squared amplitudes, so it never decreases: the
    # entries a uniform is at or above form a prefix of the row, and
    # at_least[x, k] - at_least[x, k + 1] counts the trials of letter x that
    # land on outcome k.  Comparing only the first n_outcomes - 1 entries (and
    # leaving at_least[:, -1] at zero) clips a trial past a last entry that
    # rounds below its uniform to the last outcome.
    cdf = np.cumsum(cond, axis=1)[:, :-1]  # (letter, outcome - 1)
    at_least = np.zeros((n_letters, n_outcomes + 1), dtype=np.int64)
    seeds = np.random.SeedSequence(config.seed)
    remaining = config.samples
    while remaining:
        block = min(BLOCK_SIZE, remaining)
        remaining -= block
        # spawned one at a time, the k-th child is still the k-th of spawn(blocks)
        _tally_block(np.random.default_rng(seeds.spawn(1)[0]), block, priors, cdf, at_least)
    return JointCounts(counts=at_least[:, :-1] - at_least[:, 1:], total=config.samples)


def _tally_block(rng: np.random.Generator, size: int, priors: np.ndarray, cdf: np.ndarray,
                 at_least: np.ndarray) -> None:
    """Add one block of size trials to at_least: all the letters first, then
    the outcome uniforms, each drawn _CHUNK at a time.  A block's arrays are
    freed on return, before the next block draws."""
    starts = range(0, size, _CHUNK)
    letters = np.concatenate([_draw_letters(rng, priors, min(_CHUNK, size - s)) for s in starts])
    for start in starts:
        chunk = letters[start:start + _CHUNK]
        uniforms = rng.random(chunk.size)
        for x, edges in enumerate(cdf):
            mine = chunk == x
            at_least[x, 0] += np.count_nonzero(mine)
            for k, edge in enumerate(edges, 1):
                at_least[x, k] += np.count_nonzero(mine & (uniforms >= edge))


def _miller_madow_bits(counts: np.ndarray, total: int) -> np.ndarray:
    """Miller-Madow mutual information, in bits, of each letter x outcome
    table in the trailing two axes of counts; the leading axes stay."""
    joint = counts / total
    rows = joint.sum(axis=-1)
    cols = joint.sum(axis=-2)
    mi = _xlog2x(joint).sum(axis=(-2, -1)) - _xlog2x(rows).sum(axis=-1) - _xlog2x(cols).sum(axis=-1)
    # (support_rows - 1) + (support_cols - 1) - (support_joint - 1)
    support = (rows > 0).sum(axis=-1) + (cols > 0).sum(axis=-1) - (joint > 0).sum(axis=(-2, -1)) - 1
    return mi + support / (2.0 * total * LN2)


def empirical_mi(counts: JointCounts) -> float:
    """Miller-Madow mutual information of the joint counts, in bits.

    The three plug-in entropies get the first-order (support size - 1) /
    (2 N ln 2) adjustment, which removes the leading upward bias of the
    plug-in mutual information.
    """
    if counts.total < 1:
        raise ValueError("need at least one count")
    return float(_miller_madow_bits(counts.counts, counts.total))


def bootstrap_standard_error(counts: JointCounts, resamples: int = 100, seed: int = 0) -> float:
    """Standard error of the empirical mutual information by multinomial
    resampling of the joint cells."""
    if counts.total < 1:
        raise ValueError("need at least one count")
    _check_whole("resamples", resamples, 2)
    _check_whole("seed", seed, 0)
    probs = counts.counts.ravel() / counts.total
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tables = rng.multinomial(counts.total, probs, size=resamples).reshape(
        (resamples,) + counts.counts.shape)
    _check_tables(tables, counts.total)
    return float(_miller_madow_bits(tables, counts.total).std(ddof=1))

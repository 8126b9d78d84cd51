import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from superadd import cli, mcsim
from superadd.capacities import Ensemble, _xlog2x
from superadd.errors import CompletenessError
from superadd.mcsim import JointCounts, SimConfig, bootstrap_standard_error, empirical_mi, simulate
from superadd.statespace import Angle, MeasurementBasis, StateVector, embed_alphabet, two_shot_alphabet
from superadd.twoshot import ansatz_basis, optimize_r2


def deg(d):
    return Angle.from_degrees(d)


def optimal_two_shot_setup(gamma_deg=10.0, p=None):
    """Gate 8's channel: the optimal symmetric-family measurement and, unless
    p is given, its optimal prior."""
    gamma = deg(gamma_deg)
    result = optimize_r2(gamma)
    p = result.params["p"] if p is None else p
    eta = result.params["eta"]
    a, b, c, _ = two_shot_alphabet(gamma)
    ensemble = Ensemble(((p, a), (p, b), (1 - 2 * p, c)))
    return ensemble, ansatz_basis(eta, gamma), 2 * result.bits_per_transmission


class TestSimulate:
    def test_deterministic_under_fixed_seed(self):
        ensemble, basis, _ = optimal_two_shot_setup()
        config = SimConfig(samples=50_000, seed=77, ensemble=ensemble, basis=basis)
        assert np.array_equal(simulate(config).counts, simulate(config).counts)

    def test_blocks_do_not_change_the_tally_structure(self, monkeypatch):
        monkeypatch.setattr(mcsim, "BLOCK_SIZE", 1_000)
        ensemble, basis, _ = optimal_two_shot_setup()
        config = SimConfig(samples=10_000, seed=4, ensemble=ensemble, basis=basis)
        counts = simulate(config)
        assert counts.total == 10_000
        assert counts.counts.shape == (3, 3)

    def test_orthogonal_states_concentrate_on_diagonal(self):
        u0, u1 = embed_alphabet(deg(90))
        ensemble = Ensemble(((0.5, u0), (0.5, u1)))
        basis = MeasurementBasis((u0, u1))
        counts = simulate(SimConfig(samples=20_000, seed=9, ensemble=ensemble, basis=basis))
        assert counts.counts[0, 1] == 0
        assert counts.counts[1, 0] == 0
        assert counts.counts.tolist() == [[10098, 0], [0, 9902]]  # pinned, as TestPinnedOutputs

    def test_degenerate_prior_populates_one_row(self):
        u0, u1 = embed_alphabet(deg(40))
        ensemble = Ensemble(((1.0, u0), (0.0, u1)))
        basis = MeasurementBasis.from_rows(np.eye(2))
        counts = simulate(SimConfig(samples=5_000, seed=2, ensemble=ensemble, basis=basis))
        assert counts.counts[1].sum() == 0
        assert counts.counts[0].sum() == 5_000

    def test_letter_marginals_within_binomial_bounds(self):
        ensemble, basis, _ = optimal_two_shot_setup()
        n = 1_000_000
        counts = simulate(SimConfig(samples=n, seed=13, ensemble=ensemble, basis=basis))
        marginals = counts.counts.sum(axis=1)
        for k, prior in enumerate(ensemble.priors):
            sigma = math.sqrt(n * prior * (1 - prior))
            assert abs(marginals[k] - n * prior) <= 4 * sigma

    def test_config_validation(self):
        ensemble, basis, _ = optimal_two_shot_setup()
        with pytest.raises(ValueError, match="sample"):
            SimConfig(samples=0, seed=1, ensemble=ensemble, basis=basis)
        u0, u1 = embed_alphabet(deg(50))
        pair = Ensemble(((0.5, u0), (0.5, u1)))
        lone = MeasurementBasis((StateVector(np.array([1.0, 0.0])),))
        with pytest.raises(CompletenessError, match="incomplete"):
            SimConfig(samples=10, seed=1, ensemble=pair, basis=lone)
        with pytest.raises(ValueError, match="basis dimension 4 != ensemble dimension 2"):
            SimConfig(samples=10, seed=1, ensemble=pair, basis=basis)

    @pytest.mark.parametrize("field, value", [
        ("samples", 1000.0), ("samples", 1e6), ("samples", True), ("samples", 0),
        ("seed", -1), ("seed", 1.5), ("seed", True)])
    def test_config_needs_whole_samples_and_seed(self, field, value):
        # a float, a bool or an out-of-range value fails here, naming the
        # field, not later inside numpy's sampling or SeedSequence
        ensemble, basis, _ = optimal_two_shot_setup()
        fields = {"samples": 10, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
            SimConfig(ensemble=ensemble, basis=basis, **fields)

    def test_config_accepts_numpy_integers(self):
        ensemble, basis, _ = optimal_two_shot_setup()
        config = SimConfig(samples=np.int64(100), seed=np.uint32(3), ensemble=ensemble, basis=basis)
        assert simulate(config).total == 100

    def test_born_table_is_built_once(self):
        # the config checks the table and keeps it; simulate reads it back
        ensemble, basis, _ = optimal_two_shot_setup()
        with mock.patch.object(mcsim, "_born_probabilities", wraps=mcsim._born_probabilities) as born:
            config = SimConfig(samples=1_000, seed=1, ensemble=ensemble, basis=basis)
            simulate(config)
        assert born.call_count == 1
        probs = config.outcome_probabilities()
        assert probs is config.outcome_probabilities()
        assert not probs.flags.writeable
        assert np.array_equal(probs, mcsim._born_probabilities(ensemble, basis).T)

    def test_memory_peak_does_not_grow_with_samples(self):
        # a block's letters and two chunks of uniforms, about 1.3 MiB; whole
        # 250,000-trial blocks of uniforms and masks peaked at 4.78 MiB
        ensemble, basis, _ = optimal_two_shot_setup()
        # the first call imports numpy.random's pickling support, 0.6 MiB
        simulate(SimConfig(samples=10, seed=1, ensemble=ensemble, basis=basis))
        peaks = []
        for samples in (1_000_000, 3_000_000):
            config = SimConfig(samples=samples, seed=1, ensemble=ensemble, basis=basis)
            tracemalloc.start()
            try:
                simulate(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2 * 2**20
        # Python objects move the peak by a few KiB from call to call; one
        # more block's letters alone would add 244 KiB
        assert peaks[1] <= peaks[0] + 16 * 2**10


class TestEmpiricalMi:
    def test_diagonal_thirds_give_log2_three(self):
        n = 300_000
        counts = JointCounts(counts=np.diag([n // 3] * 3), total=n)
        assert empirical_mi(counts) == pytest.approx(math.log2(3.0), abs=2.0 / n)

    def test_independent_counts_give_zero_before_correction(self):
        # the plug-in part vanishes, leaving the Miller-Madow term
        # ((3 - 1) + (2 - 1) - (6 - 1)) / (2 N ln 2)
        rows = np.array([3, 5, 2])
        cols = np.array([7, 11])
        n = int(rows.sum() * cols.sum())
        counts = JointCounts(counts=np.outer(rows, cols), total=n)
        assert empirical_mi(counts) == pytest.approx(-2.0 / (2 * n * math.log(2.0)), abs=1e-12)

    def test_correction_shrinks_the_estimate(self):
        # with full support the adjustment is strictly negative
        rng = np.random.default_rng(3)
        cells = rng.integers(1, 50, size=(3, 3))
        counts = JointCounts(counts=cells, total=int(cells.sum()))
        joint = cells / cells.sum()
        independent = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        plug_in = float((joint * np.log2(joint / independent)).sum())
        assert empirical_mi(counts) < plug_in

    def test_counts_validation(self):
        with pytest.raises(ValueError, match="sum"):
            JointCounts(counts=np.ones((2, 2), dtype=int), total=5)
        with pytest.raises(ValueError, match="nonnegative"):
            JointCounts(counts=np.array([[-1, 1], [0, 0]]), total=0)

    @pytest.mark.parametrize("cells", [[[1.5, 1.5], [1.9, 1.9]], [[np.nan, 1.0], [1.0, 2.0]]])
    def test_counts_must_be_whole(self, cells):
        # the int64 cast would truncate the fractional table to all ones
        with pytest.raises(ValueError, match="whole"):
            JointCounts(counts=cells, total=4)

    def test_whole_float_counts_accepted(self):
        counts = JointCounts(counts=[[3.0, 1.0], [0.0, 2.0]], total=6)
        assert counts.counts.dtype == np.int64
        assert counts.counts.tolist() == [[3, 1], [0, 2]]


class TestConsistency:
    def test_error_shrinks_with_samples_and_final_z_small(self):
        ensemble, basis, analytic = optimal_two_shot_setup()
        errors = []
        counts = None
        for n in (10_000, 100_000, 1_000_000):
            counts = simulate(SimConfig(samples=n, seed=1, ensemble=ensemble, basis=basis))
            errors.append(abs(empirical_mi(counts) - analytic))
        assert errors[0] > errors[1] > errors[2]
        se = bootstrap_standard_error(counts, resamples=100, seed=101)
        assert abs(empirical_mi(counts) - analytic) <= 3 * se

    @pytest.mark.parametrize("gamma_deg, samples, seed", [
        (5.0, 1_000_000, 1), (10.0, 300_000, 5), (17.0, 1_000_000, 2), (60.0, 1_000_000, 4)])
    def test_bootstrap_agrees_with_delta_method(self, gamma_deg, samples, seed):
        # the delta-method standard error of the plug-in mutual information
        # is sqrt(Var[i] / N), i = log2 P(x, y) / (P(x) P(y)) over the
        # empirical joint table (Paninski 2003); simulation seed s and
        # bootstrap seed s + 1, as the mc command uses them
        ensemble, basis, _ = optimal_two_shot_setup(gamma_deg)
        counts = simulate(SimConfig(samples=samples, seed=seed, ensemble=ensemble, basis=basis))
        joint = counts.counts / counts.total
        seen = joint > 0
        info = np.log2(joint[seen] / np.outer(joint.sum(axis=1), joint.sum(axis=0))[seen])
        weights = joint[seen]
        variance = (weights * info**2).sum() - (weights * info).sum() ** 2
        delta = math.sqrt(variance / counts.total)
        bootstrap = bootstrap_standard_error(counts, resamples=100, seed=seed + 1)
        assert 0.8 <= bootstrap / delta <= 1.25

    def test_bootstrap_needs_resamples(self):
        counts = JointCounts(counts=np.diag([10, 10]), total=20)
        with pytest.raises(ValueError, match="resample"):
            bootstrap_standard_error(counts, resamples=1)

    def test_bootstrap_needs_a_count(self):
        # empirical_mi's rule: an empty table has no cell frequencies to resample
        with pytest.raises(ValueError, match="need at least one count"):
            bootstrap_standard_error(JointCounts(counts=np.zeros((2, 2), dtype=int), total=0))

    @pytest.mark.parametrize("field, value", [
        ("resamples", 2.5), ("resamples", 3.0), ("resamples", True), ("resamples", -1),
        ("seed", 1.5), ("seed", True), ("seed", -1), ("seed", None)])
    def test_bootstrap_rejects_bad_arguments(self, field, value):
        # whole numbers only: a float resample count died inside numpy, and
        # seed=True was taken as 1
        counts = JointCounts(counts=np.diag([10, 10]), total=20)
        with pytest.raises(ValueError, match=field):
            bootstrap_standard_error(counts, **{field: value})


# The per-sample algorithm that simulate replaced, kept as its oracle: the
# letters from Generator.choice, then a (block, outcome) compare against each
# sample's CDF row, clipped to the last outcome.
def oracle_simulate(config: SimConfig) -> np.ndarray:
    priors = config.ensemble.priors
    cdf = np.cumsum(config.outcome_probabilities(), axis=1)
    n_letters, n_outcomes = cdf.shape
    streams = np.random.SeedSequence(config.seed).spawn(math.ceil(config.samples / mcsim.BLOCK_SIZE))
    counts = np.zeros((n_letters, n_outcomes), dtype=np.int64)
    remaining = config.samples
    for stream in streams:
        block = min(mcsim.BLOCK_SIZE, remaining)
        remaining -= block
        rng = np.random.default_rng(stream)
        letters = rng.choice(n_letters, size=block, p=priors)
        uniforms = rng.random(block)
        outcomes = (uniforms[:, None] >= cdf[letters]).sum(axis=1)
        np.minimum(outcomes, n_outcomes - 1, out=outcomes)
        np.add.at(counts, (letters, outcomes), 1)
    return counts


# The scalar Miller-Madow estimate and the per-resample bootstrap loop that
# the batched kernel replaced, kept as its oracle.
def oracle_mi(counts: JointCounts) -> float:
    joint = counts.counts / counts.total
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    mi = float(_xlog2x(joint).sum() - _xlog2x(rows).sum() - _xlog2x(cols).sum())
    support_rows = int((rows > 0).sum())
    support_cols = int((cols > 0).sum())
    support_joint = int((joint > 0).sum())
    return mi + ((support_rows - 1) + (support_cols - 1) - (support_joint - 1)) / (
        2.0 * counts.total * math.log(2.0)
    )


def oracle_bootstrap(counts: JointCounts, resamples: int, seed: int) -> float:
    probs = counts.counts.ravel() / counts.total
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = [
        empirical_mi(JointCounts(
            counts=rng.multinomial(counts.total, probs).reshape(counts.counts.shape),
            total=counts.total))
        for _ in range(resamples)
    ]
    return float(np.std(values, ddof=1))


weights = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
prior_lists = st.lists(weights, min_size=1, max_size=5).filter(lambda w: sum(w) > 0)


def normalized(w) -> np.ndarray:
    return np.array(w) / sum(w)


@st.composite
def channels(draw):
    """Random priors (zeros included), unit states and a complete basis."""
    priors = normalized(draw(prior_lists))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = rng.normal(size=(priors.size, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    ensemble = Ensemble(tuple((float(p), StateVector(v)) for p, v in zip(priors, states)))
    return ensemble, MeasurementBasis.from_rows(basis.T)


class TestComparisonTally:
    @given(channel=channels(), samples=st.integers(1, 2_000), seed=st.integers(0, 2**32 - 1),
           block=st.integers(1, 700))
    def test_equals_per_sample_oracle(self, channel, samples, seed, block):
        ensemble, basis = channel
        config = SimConfig(samples=samples, seed=seed, ensemble=ensemble, basis=basis)
        with mock.patch.object(mcsim, "BLOCK_SIZE", block):
            assert np.array_equal(simulate(config).counts, oracle_simulate(config))

    @pytest.mark.parametrize("block, chunk", [(96, 32), (100, 30), (100, 100), (100, 250)])
    @given(channel=channels(), samples=st.integers(1, 2_000), seed=st.integers(0, 2**32 - 1))
    def test_chunks_equal_per_sample_oracle(self, block, chunk, channel, samples, seed):
        # chunks that divide the block, leave a short last chunk, equal it
        # and exceed it
        ensemble, basis = channel
        config = SimConfig(samples=samples, seed=seed, ensemble=ensemble, basis=basis)
        with mock.patch.object(mcsim, "BLOCK_SIZE", block), mock.patch.object(mcsim, "_CHUNK", chunk):
            assert np.array_equal(simulate(config).counts, oracle_simulate(config))

    @pytest.mark.parametrize("samples", [65_535, 65_536, 65_537, 249_999, 250_001, 777_777])
    def test_chunk_and_block_edges_equal_oracle(self, samples):
        # the real constants: one trial short of, at and past a chunk or a
        # block, and a run that ends mid-block and mid-chunk
        ensemble, basis, _ = optimal_two_shot_setup()
        config = SimConfig(samples=samples, seed=42, ensemble=ensemble, basis=basis)
        assert np.array_equal(simulate(config).counts, oracle_simulate(config))

    @given(first=st.integers(0, 200_000), second=st.integers(0, 200_000), seed=st.integers(0, 2**32 - 1))
    def test_split_uniform_draws_equal_one_draw(self, first, second, seed):
        # the chunked draws rest on this; fails if a numpy release changes it
        stream = np.random.SeedSequence(seed).spawn(2)[1]
        split, whole = np.random.default_rng(stream), np.random.default_rng(stream)
        drawn = np.concatenate([split.random(first), split.random(second)])
        assert np.array_equal(drawn, whole.random(first + second))
        assert split.random() == whole.random()  # the same stream position after

    @given(w=prior_lists, size=st.integers(0, 3_000), seed=st.integers(0, 2**32 - 1))
    def test_letter_draw_is_generator_choice(self, w, size, seed):
        # fails if a numpy release changes how Generator.choice draws with p=
        priors = normalized(w)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        letters = mcsim._draw_letters(ours, priors, size)
        assert np.array_equal(letters, theirs.choice(priors.size, size=size, p=priors))
        assert ours.random() == theirs.random()  # the same stream position after

    def test_many_letters_equal_oracle_and_choice(self):
        # 300 letters: the letters come as uint16, past the Hypothesis
        # strategy's 5 letters
        rng = np.random.default_rng(19)
        priors = normalized(rng.random(300))
        states = rng.normal(size=(300, 3))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        ensemble = Ensemble(tuple((float(p), StateVector(v)) for p, v in zip(priors, states)))
        config = SimConfig(samples=20_000, seed=5, ensemble=ensemble,
                           basis=MeasurementBasis.from_rows(basis.T))
        assert np.array_equal(simulate(config).counts, oracle_simulate(config))
        ours, theirs = np.random.default_rng(6), np.random.default_rng(6)
        letters = mcsim._draw_letters(ours, ensemble.priors, 5_000)
        assert np.array_equal(letters, theirs.choice(300, size=5_000, p=ensemble.priors))

    def test_four_outcomes_over_a_full_and_a_partial_block(self):
        rng = np.random.default_rng(23)
        priors = normalized(rng.random(4))
        ensemble = Ensemble(tuple(zip(map(float, priors), two_shot_alphabet(deg(20)))))
        basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        config = SimConfig(samples=mcsim.BLOCK_SIZE + 1, seed=11, ensemble=ensemble,
                           basis=MeasurementBasis.from_rows(basis.T))
        assert np.array_equal(simulate(config).counts, oracle_simulate(config))

    @pytest.mark.parametrize("n_letters, dtype", [(1, np.uint8), (3, np.uint8), (256, np.uint8),
                                                  (257, np.uint16), (300, np.uint16)])
    def test_letters_take_the_smallest_unsigned_type(self, n_letters, dtype):
        priors = np.full(n_letters, 1.0 / n_letters)
        assert mcsim._draw_letters(np.random.default_rng(0), priors, 10).dtype == dtype

    def test_draw_on_an_edge_goes_past_it(self):
        # One sample whose letter uniform equals the first prior edge and
        # whose outcome uniform equals the chosen letter's first CDF entry:
        # searchsorted(side="right") puts both past the edge.
        rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
        u, v = rng.random(), rng.random()
        (c,) = [c for c in (math.sqrt(v), np.nextafter(math.sqrt(v), 0.0),
                            np.nextafter(math.sqrt(v), 1.0)) if c * c == v]
        s = math.sqrt(1.0 - c * c)
        ensemble = Ensemble(((u, StateVector(np.array([0.0, 1.0]))),
                             (1.0 - u, StateVector(np.array([1.0, 0.0])))))
        edges = np.cumsum(ensemble.priors)
        assert edges[0] / edges[-1] == u
        basis = MeasurementBasis.from_rows([[c, s], [-s, c]])
        config = SimConfig(samples=1, seed=0, ensemble=ensemble, basis=basis)
        assert np.cumsum(config.outcome_probabilities(), axis=1)[1, 0] == v
        assert simulate(config).counts.tolist() == [[0, 0], [0, 1]]
        assert oracle_simulate(config).tolist() == [[0, 0], [0, 1]]

    def test_letter_draw_normalizes_like_choice(self):
        # priors summing to 1 - 1e-9, inside choice's tolerance: normalized,
        # the first edge lies just above the first uniform; raw, at it
        u = np.random.default_rng(5).random()
        priors = np.array([u, 1.0 - u - 1e-9])
        assert mcsim._draw_letters(np.random.default_rng(5), priors, 1).tolist() == [0]
        assert np.random.default_rng(5).choice(2, size=1, p=priors).tolist() == [0]

    def test_cdf_row_short_of_one_clips_to_last_outcome(self):
        # rows summing to 0.5 and 0.2 exaggerate a last CDF entry that
        # rounds below a uniform: every uniform past it lands on the last
        # outcome, as the oracle's clip puts it
        cond = np.array([[0.2, 0.1, 0.2], [0.1, 0.05, 0.05]])
        config = SimpleNamespace(samples=5_000, seed=8, outcome_probabilities=lambda: cond,
                                 ensemble=SimpleNamespace(priors=np.array([0.5, 0.5])))
        counts = simulate(config).counts
        assert np.array_equal(counts, oracle_simulate(config))
        assert counts[:, 2].sum() > counts[:, :2].sum()

    @given(cells=st.lists(st.integers(0, 60), min_size=1, max_size=16).filter(lambda c: sum(c) > 0),
           letters=st.integers(1, 4), resamples=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    def test_batched_bootstrap_equals_resample_loop(self, cells, letters, resamples, seed):
        table = np.resize(np.array(cells), (letters, math.ceil(len(cells) / letters)))
        counts = JointCounts(counts=table, total=int(table.sum()))
        assert empirical_mi(counts) == oracle_mi(counts)
        assert bootstrap_standard_error(counts, resamples, seed) == oracle_bootstrap(
            counts, resamples, seed)


# Recorded before simulate and bootstrap_standard_error moved to the
# comparison tally and the batched bootstrap: every count and every printed
# digit must stay.
GATE_8_COUNTS = [[290583, 176704, 42], [176770, 291255, 37], [32008, 31437, 1164]]


class TestPinnedOutputs:
    @pytest.mark.parametrize("samples, seed, p, expected", [
        (1_000_000, 1, None, GATE_8_COUNTS),
        (mcsim.BLOCK_SIZE - 1, 3, None, [[72366, 44011, 8], [44393, 73056, 9], [7880, 8018, 258]]),
        (mcsim.BLOCK_SIZE + 1, 3, None, [[72351, 44026, 10], [44450, 73000, 8], [7918, 7982, 256]]),
        (7, 3, None, [[2, 2, 0], [0, 3, 0], [0, 0, 0]]),
        # p = 0.5 leaves letter c a zero prior
        (100_000, 6, 0.5, [[30802, 18932, 6], [19004, 31252, 4], [0, 0, 0]]),
    ])
    def test_counts_at_10_deg(self, samples, seed, p, expected):
        ensemble, basis, _ = optimal_two_shot_setup(10.0, p=p)
        config = SimConfig(samples=samples, seed=seed, ensemble=ensemble, basis=basis)
        assert simulate(config).counts.tolist() == expected

    def test_gate_8_estimate_and_standard_error(self):
        counts = JointCounts(counts=np.array(GATE_8_COUNTS), total=1_000_000)
        assert empirical_mi(counts) == 0.0448284001851573
        assert bootstrap_standard_error(counts, resamples=100, seed=2) == 0.00038913126081901257

    def test_mc_stdout(self, capsys):
        assert cli.main(["mc", "--gamma", "10", "--samples", "300000", "--seed", "5"]) == 0
        assert capsys.readouterr().out == (
            "analytic_mi_bits = 0.0445943845\n"
            "empirical_mi_bits = 0.0444043685\n"
            "bootstrap_se = 7.0137e-04\n"
            "z = -0.271\n"
            "RESULT: PASS (3 sigma)\n"
        )

    def test_mc_stdout_mid_block_and_chunk(self, capsys):
        # CI's second run, whose sample count ends inside a block and a chunk
        assert cli.main(["mc", "--gamma", "63.7", "--samples", "777777", "--seed", "42"]) == 0
        assert capsys.readouterr().out == (
            "analytic_mi_bits = 1.1815465216\n"
            "empirical_mi_bits = 1.1820681712\n"
            "bootstrap_se = 1.4112e-03\n"
            "z = +0.370\n"
            "RESULT: PASS (3 sigma)\n"
        )

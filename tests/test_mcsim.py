import math

import numpy as np
import pytest

from superadd import mcsim
from superadd.capacities import Ensemble
from superadd.mcsim import JointCounts, SimConfig, bootstrap_standard_error, empirical_mi, simulate
from superadd.statespace import Angle, MeasurementBasis, StateVector, embed_alphabet, two_shot_alphabet
from superadd.twoshot import ansatz_basis, optimize_r2


def deg(d):
    return Angle.from_degrees(d)


def optimal_two_shot_setup(gamma_deg=10.0):
    gamma = deg(gamma_deg)
    result = optimize_r2(gamma)
    p, eta = result.params["p"], result.params["eta"]
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
        with pytest.raises(ValueError, match="incomplete"):
            SimConfig(samples=10, seed=1, ensemble=pair, basis=lone)


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

    def test_bootstrap_needs_resamples(self):
        counts = JointCounts(counts=np.diag([10, 10]), total=20)
        with pytest.raises(ValueError, match="resample"):
            bootstrap_standard_error(counts, resamples=1)

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from superadd.capacities import Ensemble, c1, c_infinity, measured_mutual_information
from superadd.errors import BracketingError
from superadd.statespace import Angle, MeasurementBasis, two_shot_alphabet
from superadd import twoshot
from superadd.twoshot import (
    AnsatzParams,
    RotationParams,
    _general_rates,
    _letters_matrix,
    _rate_and_gradient,
    _rate_grid,
    ansatz_basis,
    crossover_angle,
    optimize_general,
    optimize_r2,
    rate,
)


def deg(d):
    return Angle.from_degrees(d)


def literal_expansion_rows(eta, gamma_rad):
    """Measurement vectors assembled from the printed expansion coefficients
    over the letters themselves; the coefficients carry 1/sin(gamma) factors,
    so this is the oracle only away from tiny angles."""
    a, b, c, _ = (s.coords for s in two_shot_alphabet(Angle(gamma_rad)))
    sg, cg = math.sin(gamma_rad), math.cos(gamma_rad)
    ce, se = math.cos(eta), math.sin(eta)
    shared = (math.sqrt(2) * se * sg - 2 * ce * cg) / (2 * sg)
    e1 = (ce + 1) / (2 * sg) * a + (ce - 1) / (2 * sg) * b + shared * c
    e2 = (ce - 1) / (2 * sg) * a + (ce + 1) / (2 * sg) * b + shared * c
    e3 = -math.sqrt(2) * se / (2 * sg) * (a + b) + (math.sqrt(2) * se * cg + ce * sg) / sg * c
    return np.vstack([e1, e2, e3])


class TestAnsatzBasis:
    def test_orthonormal_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            gamma = deg(rng.uniform(0.5, 90.0))
            basis = ansatz_basis(rng.uniform(0.0, math.pi), gamma)
            gram = basis.matrix @ basis.matrix.T
            assert np.abs(gram - np.eye(3)).max() < 1e-10

    def test_matches_literal_expansion(self):
        rows = ansatz_basis(0.3, deg(15)).matrix
        oracle = literal_expansion_rows(0.3, math.radians(15))
        assert np.abs(rows - oracle).max() < 1e-9

    def test_repeated_letter_projection_is_cos_eta(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            gamma = deg(rng.uniform(1.0, 89.0))
            eta = rng.uniform(0.0, math.pi)
            _, _, c, _ = two_shot_alphabet(gamma)
            e3 = ansatz_basis(eta, gamma).vectors[2]
            assert c.inner(e3) == pytest.approx(math.cos(eta), abs=1e-12)

    def test_symmetry_constraints(self):
        for gamma_deg, eta in [(7.0, 0.4), (30.0, 1.3), (75.0, 2.9)]:
            gamma = deg(gamma_deg)
            a, b, c, _ = two_shot_alphabet(gamma)
            e1, e2, e3 = ansatz_basis(eta, gamma).vectors
            assert a.inner(e1) == pytest.approx(b.inner(e2), abs=1e-10)
            assert a.inner(e3) == pytest.approx(b.inner(e3), abs=1e-10)
            assert c.inner(e1) == pytest.approx(c.inner(e2), abs=1e-10)

    def test_zero_angle_rejected(self):
        with pytest.raises(ValueError):
            ansatz_basis(0.3, deg(0))

    def test_stable_at_tiny_angles(self):
        basis = ansatz_basis(1.2, deg(0.01))
        gram = basis.matrix @ basis.matrix.T
        assert np.abs(gram - np.eye(3)).max() < 1e-12


class TestRateFunctional:
    def test_zero_prior_on_mixed_letters_gives_zero(self):
        assert rate(0.8, 0.0, deg(20)) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_alphabet_three_symbol_channel(self):
        # eta = 0 aligns the outcomes with a, b, c exactly
        value = rate(0.0, 1.0 / 3.0, deg(90))
        assert value == pytest.approx(math.log2(3.0) / 2.0, abs=1e-12)

    def test_superadditive_at_ten_degrees(self):
        result = optimize_r2(deg(10))
        best = rate(result.params["eta"], result.params["p"], deg(10))
        assert best > c1(deg(10))

    def test_mixed_letter_exchange_symmetry(self):
        gamma = deg(23)
        eta, p = 0.9, 0.3
        a, b, c, _ = two_shot_alphabet(gamma)
        e1, e2, e3 = ansatz_basis(eta, gamma).vectors
        forward = measured_mutual_information(
            Ensemble(((p, a), (p, b), (1 - 2 * p, c))), MeasurementBasis((e1, e2, e3))
        )
        exchanged = measured_mutual_information(
            Ensemble(((p, b), (p, a), (1 - 2 * p, c))), MeasurementBasis((e2, e1, e3))
        )
        assert forward == pytest.approx(exchanged, abs=1e-12)

    def test_prior_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rate(0.5, 0.6, deg(10))

    def test_grid_path_agrees_with_scalar_path(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            gamma_rad = rng.uniform(0.02, math.pi / 2 - 0.02)
            eta = rng.uniform(0.0, math.pi)
            p = rng.uniform(0.0, 0.5)
            fast = _rate_grid(gamma_rad, eta, p)
            slow = rate(eta, p, Angle(gamma_rad))
            assert fast == pytest.approx(slow, abs=1e-12)

    @given(
        gamma_deg=st.floats(0.0, 90.0, exclude_min=True, exclude_max=True),
        eta=st.floats(-2 * math.pi / 240, math.pi + 2 * math.pi / 240),
        p=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
    )
    def test_float_call_equals_one_element_call(self, gamma_deg, eta, p):
        # Nelder-Mead points call the grid with floats; the values, and so
        # the search paths, must be those of the 1 x 1 grid bit for bit
        gamma_rad = math.radians(gamma_deg)
        one_cell = _rate_grid(gamma_rad, np.array([eta]), np.array([p]))
        assert one_cell.shape == (1, 1)
        assert _rate_grid(gamma_rad, eta, p) == one_cell[0, 0]


class TestAnsatzParams:
    @pytest.mark.parametrize("bad_p", [-0.01, 0.51])
    def test_prior_range(self, bad_p):
        with pytest.raises(ValueError):
            AnsatzParams(eta=0.1, p=bad_p)


class TestOptimizeR2:
    def test_deterministic(self):
        first = optimize_r2(deg(12))
        second = optimize_r2(deg(12))
        assert first.bits_per_transmission == second.bits_per_transmission
        assert first.params == second.params

    def test_result_metadata(self):
        result = optimize_r2(deg(12))
        assert result.converged
        assert result.iterations > 240 * 101
        assert result.hyperparams["eta_points"] == 240.0

    def test_domain(self):
        with pytest.raises(ValueError):
            optimize_r2(deg(90))


class TestRotationParams:
    def test_angle_count_enforced(self):
        with pytest.raises(ValueError, match="angles"):
            RotationParams(angles=(0.1, 0.2), dim=4)

    @given(st.lists(st.floats(-math.pi, math.pi), min_size=6, max_size=6))
    def test_matrix_is_orthogonal(self, angles):
        m = RotationParams(angles=tuple(angles)).matrix()
        assert np.abs(m @ m.T - np.eye(4)).max() < 1e-12

    def test_factorization_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            if np.linalg.det(q) < 0:
                q[0] *= -1.0
            assert np.abs(RotationParams.from_matrix(q).matrix() - q).max() < 1e-12

    def test_reflections_rejected(self):
        m = np.eye(4)
        m[0, 0] = -1.0
        with pytest.raises(ValueError, match="det"):
            RotationParams.from_matrix(m)


class TestOptimizeGeneral:
    def test_sandwich_and_seed_consistency(self):
        gamma = deg(10)
        ansatz = optimize_r2(gamma).bits_per_transmission
        first = optimize_general(gamma, seed=1)
        second = optimize_general(gamma, seed=2)
        assert first.bits_per_transmission >= ansatz - 1e-7
        assert first.bits_per_transmission <= c_infinity(gamma) + 1e-9
        assert first.bits_per_transmission == pytest.approx(second.bits_per_transmission, abs=1e-6)
        priors = [first.params[k] for k in ("p_a", "p_b", "p_c", "p_d")]
        assert sum(priors) == pytest.approx(1.0, abs=1e-12)

    def test_seeded_runs_are_bit_for_bit(self, monkeypatch):
        first = optimize_general(deg(10), seed=4)
        counted = {"evals": 0}

        def counting(fn, rows):
            def wrapped(theta, letters):
                counted["evals"] += rows(theta)
                return fn(theta, letters)
            return wrapped

        monkeypatch.setattr(twoshot, "_general_rates",
                            counting(_general_rates, lambda theta: theta[..., 0].size))
        monkeypatch.setattr(twoshot, "_rate_and_gradient",
                            counting(_rate_and_gradient, lambda theta: 1))
        second = optimize_general(deg(10), seed=4)
        assert first.bits_per_transmission == second.bits_per_transmission
        assert first.params == second.params
        assert first.iterations == second.iterations == counted["evals"]
        # the value is the kernel at the returned parameters
        p = [first.params[k] for k in ("p_a", "p_b", "p_c", "p_d")]
        theta = [first.params[f"theta_{i}"] for i in range(6)] + [math.log(w / p[0]) for w in p[1:]]
        value = _general_rates(np.array(theta), _letters_matrix(deg(10)))
        assert first.bits_per_transmission == pytest.approx(value, abs=1e-14)

    def test_converged_false_when_polish_is_capped(self, monkeypatch):
        for name in ("RESTARTS", "LEVELS", "PROPOSALS_PER_LEVEL"):
            monkeypatch.setattr(twoshot, name, 2)
        assert optimize_general(deg(10), seed=4).converged
        monkeypatch.setattr(twoshot, "POLISH_MAXITER", 1)
        assert not optimize_general(deg(10), seed=4).converged

    def test_hyperparameters_recorded(self):
        result = optimize_general(deg(40), seed=3)
        assert result.hyperparams["cooling"] == 0.97
        assert result.hyperparams["restarts"] == 20.0
        assert result.hyperparams["initial_temperature"] > 0

    # Recorded before the search settings became module constants, so the
    # constants reproduce that search exactly.  A last-bit change in the rate
    # kernel can move the value by about 1e-7 (see the FOUND line on
    # optimize_general at 13.57 deg in CHANGES.md): re-pin only with a note
    # in CHANGES.md.
    @pytest.mark.parametrize("gamma_deg, seed, value, iterations, temperature", [
        (10.0, 4, 0.022297192249095654, 24693, 0.004855633056915242),
        (40.0, 3, 0.32298159287148454, 24295, 0.05943573815351703),
    ])
    def test_probe_output_pinned(self, gamma_deg, seed, value, iterations, temperature):
        result = optimize_general(deg(gamma_deg), seed=seed)
        assert result.bits_per_transmission == pytest.approx(value, abs=1e-13)
        assert result.iterations == iterations
        assert result.hyperparams == {
            "restarts": 20.0, "cooling": 0.97, "temperature_samples": 100.0, "levels": 100.0,
            "proposals_per_level": 12.0, "step_scale": 0.35, "polish_ftol": 1e-13,
            "initial_temperature": temperature, "seed": float(seed),
        }


def random_thetas(rng, count):
    """Rotation angles and prior logits; the first row has every angle zero,
    so the measurement is the standard basis and some outcome probabilities
    vanish, and letter d at logit -40, effectively off."""
    thetas = np.concatenate(
        [rng.uniform(0.0, 2.0 * math.pi, (count, 6)), rng.normal(0.0, 1.5, (count, 3))], axis=1
    )
    thetas[0] = [0.0] * 6 + [0.3, -0.2, -40.0]
    return thetas


def explicit_rotation(angles):
    """G_0 G_1 ... G_5 from full 4x4 plane rotations in the order of
    RotationParams."""
    pairs = [(2, 3), (1, 2), (0, 1), (2, 3), (1, 2), (2, 3)]
    factors = []
    for (i, j), t in zip(pairs, angles):
        g = np.eye(4)
        g[i, i] = g[j, j] = math.cos(t)
        g[i, j], g[j, i] = -math.sin(t), math.sin(t)
        factors.append(g)
    return functools.reduce(np.matmul, factors)


class TestGeneralRateKernel:
    def test_batched_rates_match_object_path(self):
        rng = np.random.default_rng(41)
        for gamma_deg in (0.5, 10.0, 47.0, 89.0):
            gamma = deg(gamma_deg)
            letters = two_shot_alphabet(gamma)
            thetas = random_thetas(rng, 12)
            rates = _general_rates(thetas, _letters_matrix(gamma))
            for theta, fast in zip(thetas, rates):
                rotation = RotationParams(tuple(theta[:6])).matrix()
                assert np.abs(rotation - explicit_rotation(theta[:6])).max() < 1e-14
                weights = np.exp(np.concatenate([[0.0], theta[6:]]))
                ensemble = Ensemble(tuple(zip(weights / weights.sum(), letters)))
                slow = measured_mutual_information(ensemble, MeasurementBasis.from_rows(rotation)) / 2
                assert fast == pytest.approx(slow, abs=1e-13)

    def test_batch_and_row_agree(self):
        rng = np.random.default_rng(43)
        letters = _letters_matrix(deg(12))
        thetas = random_thetas(rng, 24)
        batch = _general_rates(thetas.reshape(4, 6, 9), letters).ravel()
        rows = np.array([_general_rates(theta, letters) for theta in thetas])
        assert np.abs(batch - rows).max() <= 1e-15

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(47)
        step = 1e-6
        for gamma_deg in (3.0, 20.0, 70.0):
            letters = _letters_matrix(deg(gamma_deg))
            for theta in random_thetas(rng, 8):
                value, gradient = _rate_and_gradient(theta, letters)
                assert value == pytest.approx(_general_rates(theta, letters), abs=1e-15)
                shifts = step * np.eye(9)
                central = (_general_rates(theta + shifts, letters)
                           - _general_rates(theta - shifts, letters)) / (2 * step)
                assert np.abs(gradient - central).max() < 1e-7


class TestSuperadditivityRegion:
    def test_gain_below_crossover_loss_above(self):
        # the measured crossover sits at 18.70 deg, so the gain region grid
        # stays below it and the loss region starts at 25 deg
        for gamma_deg in np.linspace(0.5, 18.5, 50):
            gamma = deg(gamma_deg)
            assert optimize_r2(gamma).bits_per_transmission > c1(gamma)
        for gamma_deg in np.linspace(25.0, 89.0, 20):
            gamma = deg(gamma_deg)
            assert optimize_r2(gamma).bits_per_transmission < c1(gamma)


class TestCrossoverAngle:
    def test_synthetic_linear_crossing(self):
        crossing = 17.3

        def fake_rate(gamma):
            return c1(gamma) + (crossing - gamma.degrees) * 1e-4

        found = crossover_angle(fake_rate, deg(15), deg(25))
        assert found.degrees == pytest.approx(crossing, abs=0.011)

    def test_no_sign_change_raises(self):
        def fake_rate(gamma):
            return c1(gamma) + 0.01

        with pytest.raises(BracketingError, match="same sign"):
            crossover_angle(fake_rate, deg(15), deg(25))

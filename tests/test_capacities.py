import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize

from superadd.capacities import (
    Ensemble,
    RateResult,
    _xlog2x,
    binary_entropy,
    c1,
    c_infinity,
    measured_mutual_information,
)
from superadd.errors import CompletenessError
from superadd.statespace import Angle, MeasurementBasis, StateVector, embed_alphabet


def deg(d):
    return Angle.from_degrees(d)


# ---------------------------------------------------------------------------
# high-precision reference implementations (50 decimal digits)


def mp_binary_entropy(x):
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for u in (x, 1 - x):
            if u > 0:
                total -= u * mpmath.log(u, 2)
        return float(total)


def mp_c1(gamma_deg):
    with mpmath.workdps(50):
        s = mpmath.sin(mpmath.radians(gamma_deg))
        total = mpmath.mpf(0)
        for u in (1 + s, 1 - s):
            if u > 0:
                total += u / 2 * mpmath.log(u, 2)
        return float(total)


def mp_c_infinity(gamma_deg):
    with mpmath.workdps(50):
        x = (1 - mpmath.cos(mpmath.radians(gamma_deg))) / 2
        return mp_binary_entropy(x)


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter_against_reference(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)
        assert binary_entropy(0.25) == pytest.approx(mp_binary_entropy(0.25), abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_domain_enforced(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)


class TestClosedFormCapacities:
    def test_endpoint_exactness(self):
        assert c1(deg(90)) == pytest.approx(1.0, abs=1e-12)
        assert c_infinity(deg(90)) == pytest.approx(1.0, abs=1e-12)
        assert c1(deg(0)) == pytest.approx(0.0, abs=1e-12)
        assert c_infinity(deg(0)) == pytest.approx(0.0, abs=1e-12)

    def test_ten_degrees_against_reference(self):
        assert c1(deg(10)) == pytest.approx(mp_c1(10), abs=1e-13)
        assert c1(deg(10)) == pytest.approx(0.02189, abs=5e-4)
        assert c_infinity(deg(10)) == pytest.approx(mp_c_infinity(10), abs=1e-13)
        assert c_infinity(deg(10)) == pytest.approx(0.06440, abs=5e-5)

    def test_small_angles_against_reference(self):
        # both closed forms vanish as gamma -> 0 (c1 ~ s^2, c_inf ~ s^2 ln(1/s)),
        # so only relative error shows whether they keep their digits there
        for d in np.geomspace(10.0, 1e-5, 31).tolist():
            assert c1(deg(d)) == pytest.approx(mp_c1(d), rel=1e-12, abs=0.0), d
            assert c_infinity(deg(d)) == pytest.approx(mp_c_infinity(d), rel=1e-12, abs=0.0), d

    def test_both_algebraic_forms_agree(self):
        # the explicit two-term sum equals 1 - H2((1+sin g)/2)
        for d in np.linspace(0.5, 89.5, 90):
            s = math.sin(math.radians(d))
            assert c1(deg(d)) == pytest.approx(1.0 - binary_entropy((1 + s) / 2), abs=1e-12)

    def test_one_shot_below_asymptotic(self):
        grid = np.linspace(0.0, 90.0, 1000)
        for d in grid:
            lo, hi = c1(deg(d)), c_infinity(deg(d))
            assert lo <= hi + 1e-12
            if 0.0 < d < 90.0:
                assert lo < hi


def uniform_pair_ensemble(gamma):
    u0, u1 = embed_alphabet(gamma)
    return Ensemble(((0.5, u0), (0.5, u1)))


def rotated_basis(phi):
    return MeasurementBasis.from_rows(
        [[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]]
    )


class TestXLog2X:
    def test_same_bits_on_every_layout(self):
        # the log buffer is a fresh C-ordered array whatever the input's
        # layout; the values must be those of a buffer laid out like the input
        rng = np.random.default_rng(5)
        base = rng.random((64, 48)) ** 3
        base[::7, ::5] = 0.0
        inputs = [base, base[::3, 1::2], base.T, np.asfortranarray(base), base[:, 9],
                  np.array(0.3), np.array(0.0), 0.3]
        for p in inputs:
            p_array = np.asarray(p, dtype=float)
            expected = p_array * np.log2(p_array, out=np.zeros_like(p_array), where=p_array > 0.0)
            got = _xlog2x(p)
            assert got.shape == p_array.shape
            assert np.array_equal(got, expected)
            assert np.array_equal(got, _xlog2x(p_array.copy(order="C")))
        assert _xlog2x(0.5) == -0.5


class TestMeasuredMutualInformation:
    def test_orthogonal_states_give_one_bit(self):
        ensemble = uniform_pair_ensemble(deg(90))
        assert measured_mutual_information(ensemble, rotated_basis(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_single_state_gives_zero(self):
        u0, u1 = embed_alphabet(deg(40))
        ensemble = Ensemble(((1.0, u0), (0.0, u1)))
        assert measured_mutual_information(ensemble, rotated_basis(0.7)) == pytest.approx(0.0, abs=1e-12)

    def test_best_fixed_measurement_attains_c1(self):
        # the basis splitting the angle between the states' orthogonal
        # complements turns the channel into the binary symmetric channel
        # whose capacity is c1
        gamma = deg(25)
        phi = gamma.radians / 2 - math.pi / 4
        ensemble = uniform_pair_ensemble(gamma)
        mi = measured_mutual_information(ensemble, rotated_basis(phi))
        assert mi == pytest.approx(c1(gamma), abs=1e-9)

    def test_incomplete_basis_rejected(self):
        u0, u1 = embed_alphabet(deg(50))
        ensemble = Ensemble(((0.5, u0), (0.5, u1)))
        lone = MeasurementBasis((StateVector(np.array([1.0, 0.0])),))
        with pytest.raises(CompletenessError):
            measured_mutual_information(ensemble, lone)

    def test_dimension_mismatch_rejected(self):
        ensemble = uniform_pair_ensemble(deg(50))
        with pytest.raises(ValueError, match="dimension"):
            measured_mutual_information(ensemble, MeasurementBasis.from_rows(np.eye(3)))

    def test_outcome_relabeling_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            states = rng.normal(size=(3, 3))
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            w = rng.dirichlet(np.ones(3))
            ensemble = Ensemble(tuple((w[i], StateVector(states[i])) for i in range(3)))
            base = measured_mutual_information(ensemble, MeasurementBasis.from_rows(q))
            for perm in itertools.permutations(range(3)):
                permuted = MeasurementBasis.from_rows(q[list(perm)])
                assert measured_mutual_information(ensemble, permuted) == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_bounded_by_prior_entropy(self, seed):
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0.0, math.pi, size=3)
        states = [StateVector(np.array([math.cos(t), math.sin(t)])) for t in angles[:2]]
        w = rng.dirichlet(np.ones(2))
        ensemble = Ensemble(((w[0], states[0]), (w[1], states[1])))
        mi = measured_mutual_information(ensemble, rotated_basis(angles[2]))
        assert -1e-10 <= mi <= binary_entropy(w[0]) + 1e-10


class TestOneShotOptimality:
    @pytest.mark.parametrize("gamma_deg", [25.0, 60.0])
    def test_grid_plus_refinement_reaches_c1(self, gamma_deg):
        gamma = deg(gamma_deg)
        u = np.vstack([s.coords for s in embed_alphabet(gamma)])

        def mutual_information(phi, q):
            probs = (np.array([[math.cos(phi), math.sin(phi)],
                               [-math.sin(phi), math.cos(phi)]]) @ u.T) ** 2
            w = np.array([q, 1 - q])
            mix = probs @ w
            h = lambda p: -np.sum(p[p > 0] * np.log2(p[p > 0]))
            return h(mix) - w @ np.array([h(probs[:, 0]), h(probs[:, 1])])

        phis = np.linspace(0.0, math.pi, 181)
        qs = np.linspace(0.05, 0.95, 91)
        values = np.array([[mutual_information(p, q) for q in qs] for p in phis])
        i, j = np.unravel_index(np.argmax(values), values.shape)
        refined = minimize(
            lambda x: -mutual_information(x[0], min(max(x[1], 0.01), 0.99)),
            [phis[i], qs[j]],
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12},
        )
        assert -refined.fun == pytest.approx(c1(gamma), abs=1e-8)


class TestEnsembleInvariants:
    def test_priors_must_sum_to_one(self):
        u0, u1 = embed_alphabet(deg(30))
        with pytest.raises(ValueError, match="sum"):
            Ensemble(((0.6, u0), (0.6, u1)))

    def test_negative_prior_rejected(self):
        u0, u1 = embed_alphabet(deg(30))
        with pytest.raises(ValueError, match="nonnegative"):
            Ensemble(((-0.2, u0), (1.2, u1)))

    def test_mixed_dimensions_rejected(self):
        u0, _ = embed_alphabet(deg(30))
        big = StateVector(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="dimension"):
            Ensemble(((0.5, u0), (0.5, big)))


class TestRateResult:
    def test_rate_bounds_enforced(self):
        with pytest.raises(ValueError):
            RateResult(bits_per_transmission=1.5, params={}, iterations=1, converged=True)

    def test_tiny_negative_clamped(self):
        r = RateResult(bits_per_transmission=-1e-15, params={}, iterations=1, converged=True)
        assert r.bits_per_transmission == 0.0

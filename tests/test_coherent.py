import math
import traceback
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from superadd import coherent
from superadd.capacities import c1, measured_mutual_information
from superadd.coherent import (
    _clipped_amplitudes,
    _trunc_conditional_probs,
    alpha_from_gamma,
    coherent_states,
    optimize_r2_truncated,
    optimize_r2_truncated_reused,
    photon_basis,
    two_shot_coherent_alphabet,
)
from superadd.statespace import Angle, MeasurementBasis
from superadd.twoshot import (_ansatz_ensemble, _ideal_conditional_probs, _symmetric_prior_argmax,
                              _symmetric_prior_rate, _symmetric_prior_rates, ansatz_basis,
                              ansatz_rows, optimize_r2)


def deg(d):
    return Angle.from_degrees(d)


def scoring_rows(eta, gamma):
    """The clipped basis from its readable pieces: photon_basis's rows with
    the two-photon column zeroed, re-orthonormalized to their polar factor
    (the symmetric orthogonalization), then the two-photon projector as the
    fourth outcome.  The oracle of _clipped_amplitudes's closed form."""
    rows = photon_basis(eta, gamma)
    rows[:, 3] = 0.0
    u, _, vt = np.linalg.svd(rows, full_matrices=False)
    return np.vstack([u @ vt, (0.0, 0.0, 0.0, 1.0)])


def rate_truncated(eta, p, gamma):
    """Bits per transmission of the clipped basis against the coherent letters."""
    ensemble = _ansatz_ensemble(p, two_shot_coherent_alphabet(gamma))
    basis = MeasurementBasis.from_rows(scoring_rows(eta, gamma))
    return measured_mutual_information(ensemble, basis) / 2.0


class TestAmplitudeMap:
    def test_zero_angle(self):
        assert alpha_from_gamma(deg(0)) == 0.0

    def test_orthogonal_angle(self):
        assert alpha_from_gamma(deg(90)) == pytest.approx(1.0, abs=1e-15)

    def test_mean_photon_number_stays_weak(self):
        # at the widest superadditive angle the mean photon number alpha^2
        # is still below 0.03 per transmission
        alpha = alpha_from_gamma(deg(19))
        assert alpha**2 == pytest.approx(0.028, abs=5e-4)
        assert alpha**2 < 0.03

    def test_truncated_overlap_reproduces_cos_gamma(self):
        for d in np.linspace(0.5, 89.5, 100):
            gamma = deg(d)
            psi0, psi1 = coherent_states(gamma)
            assert psi0.inner(psi1) == pytest.approx(
                math.cos(gamma.radians), abs=1e-12
            )


class TestPhotonBasis:
    def test_orthonormal(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            gamma = deg(rng.uniform(0.5, 89.5))
            rows = photon_basis(rng.uniform(0, math.pi), gamma)
            assert np.abs(rows @ rows.T - np.eye(3)).max() < 1e-10

    def test_equals_symmetric_construction_on_photon_letters(self):
        # the printed coefficients are the exact re-expansion of the span
        # construction applied to the truncated letters
        for gamma_deg, eta in [(5.0, 0.4), (25.0, 1.2), (70.0, 2.8)]:
            gamma = deg(gamma_deg)
            a, b, c, _ = (s.coords for s in two_shot_coherent_alphabet(gamma))
            expected = ansatz_rows(eta, a, b, c)
            rows = photon_basis(eta, gamma)
            assert np.abs(rows - expected).max() < 1e-12

    def test_letter_projections_match_ideal_family(self):
        # same abstract states, different embedding: inner products with the
        # letters must agree with the ideal construction
        gamma = deg(20)
        eta = 0.9
        photon_rows = photon_basis(eta, gamma)
        photon_letters = np.vstack([s.coords for s in two_shot_coherent_alphabet(gamma)[:3]])
        ideal_rows = ansatz_basis(eta, gamma).matrix
        from superadd.statespace import two_shot_alphabet

        ideal_letters = np.vstack([s.coords for s in two_shot_alphabet(gamma)[:3]])
        assert np.abs(photon_rows @ photon_letters.T - ideal_rows @ ideal_letters.T).max() < 1e-10

    def test_two_photon_component_is_order_alpha(self):
        eta_star = optimize_r2(deg(10)).params["eta"]
        alpha = alpha_from_gamma(deg(10))
        assert abs(photon_basis(eta_star, deg(10))[0, 3]) < 5 * alpha
        for d in [2.0, 10.0, 40.0, 70.0]:
            alpha = alpha_from_gamma(deg(d))
            assert np.abs(photon_basis(0.8, deg(d))[:, 3]).max() <= 3.0 * alpha


class TestTruncatedBasis:
    def test_two_photon_amplitude_exactly_zero(self):
        rows = scoring_rows(0.6, deg(15))[:3]
        assert np.array_equal(rows[:, 3], np.zeros(3))

    def test_orthonormal(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            gamma = deg(rng.uniform(0.5, 89.5))
            rows = scoring_rows(rng.uniform(0, math.pi), gamma)[:3]
            assert np.abs(rows @ rows.T - np.eye(3)).max() < 1e-10

    @given(
        gamma_deg=st.one_of(st.floats(1e-9, 90.0, exclude_max=True), st.floats(1e-9, 1e-2)),
        eta=st.floats(-2 * math.pi, 3 * math.pi),
        p=st.floats(0.0, 0.5),
    )
    def test_closed_form_equals_lowdin_basis(self, gamma_deg, eta, p):
        # the rank-one closed form of the optimizers against the polar
        # factor of the clipped rows by SVD, down to angles where the
        # two-photon column t vanishes
        gamma = deg(gamma_deg)
        letters = np.vstack([s.coords for s in two_shot_coherent_alphabet(gamma)[:3]])
        rows = scoring_rows(eta, gamma)
        probs = _trunc_conditional_probs(gamma.radians)(eta)
        assert np.abs(np.array(probs) - (rows @ letters.T) ** 2).max() <= 1e-14
        assert (_symmetric_prior_rates(probs, p)
                == pytest.approx(rate_truncated(eta, p, gamma), rel=0, abs=1e-14))

    def test_distortion_scales_with_alpha(self):
        def gap(d):
            gamma = deg(d)
            original = photon_basis(0.7, gamma)
            clipped = scoring_rows(0.7, gamma)[:3]
            return np.linalg.norm(clipped - original, axis=1).max()

        for d in [1.0, 2.0, 5.0]:
            assert gap(d) <= 1.5 * alpha_from_gamma(deg(d))
        assert gap(80.0) > gap(30.0) > gap(5.0)


class TestTruncatedRate:
    def test_never_beats_ideal_family(self):
        ideal = optimize_r2(deg(10)).bits_per_transmission
        clipped = optimize_r2_truncated(deg(10)).bits_per_transmission
        assert clipped <= ideal + 1e-12

    def test_still_superadditive_at_ten_degrees(self):
        assert optimize_r2_truncated(deg(10)).bits_per_transmission > c1(deg(10))

    def test_approaches_ideal_at_weak_amplitude(self):
        ideal = optimize_r2(deg(2)).bits_per_transmission
        clipped = optimize_r2_truncated(deg(2)).bits_per_transmission
        assert clipped / ideal == pytest.approx(1.0, abs=1e-3)

    def test_reused_eta_never_beats_reoptimized(self):
        reopt = optimize_r2_truncated(deg(12)).bits_per_transmission
        reused = optimize_r2_truncated_reused(deg(12)).bits_per_transmission
        assert reused <= reopt + 1e-10
        assert reused > 0

    def test_letters_built_once_per_optimization(self, monkeypatch):
        # not once per point of the eta search or prior slope evaluation
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name in ("alpha_from_gamma", "coherent_states", "two_shot_coherent_alphabet"):
            monkeypatch.setattr(coherent, name, counting(name, getattr(coherent, name)))
        for optimize in (optimize_r2_truncated, optimize_r2_truncated_reused):
            calls.clear()
            optimize(deg(17.1))
            assert calls["alpha_from_gamma"] >= 1
            assert max(calls.values()) <= 2, (optimize.__name__, calls)

    def test_prior_tail_makes_no_einsum_call(self, monkeypatch):
        # the symmetric prior tail writes its sums out, and the clipped basis
        # is in closed form; an einsum under either is the general kernel's or
        # the eigendecomposition's slower path come back
        tail = {"_symmetric_conditional_probs", "conditional_probs", "_symmetric_prior_rates",
                "_symmetric_prior_rate"}
        calls = Counter()
        einsum = np.einsum

        def counting(*args, **kwargs):
            callers = {frame.f_code.co_name for frame, _ in traceback.walk_stack(None)}
            calls["tail" if callers & tail else "elsewhere"] += 1
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        g = deg(17.1)
        rate_truncated(0.7, 0.3, g)
        assert calls["elsewhere"] > 0  # the hook sees the general kernel's calls
        calls.clear()
        ideal = optimize_r2(g)
        assert calls["tail"] == 0
        for optimize in (optimize_r2_truncated,
                         lambda g: optimize_r2_truncated_reused(g, ideal=ideal)):
            calls.clear()
            optimize(g)
            assert sum(calls.values()) == 0, calls

    def test_grid_path_agrees_with_scalar_path(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            gamma_rad = rng.uniform(0.05, math.pi / 2 - 0.05)
            eta = rng.uniform(0.0, math.pi)
            p = rng.uniform(0.0, 0.5)
            fast = _symmetric_prior_rate(_trunc_conditional_probs(gamma_rad)(eta), p)
            slow = rate_truncated(eta, p, Angle(gamma_rad))
            assert fast == pytest.approx(slow, abs=1e-12)

    @given(
        gamma_deg=st.floats(0.0, 90.0, exclude_min=True, exclude_max=True),
        eta=st.one_of(st.floats(-2 * math.pi / 240, math.pi + 2 * math.pi / 240),
                      st.sampled_from(np.linspace(0.0, math.pi, 240, endpoint=False).tolist())),
        p=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
    )
    def test_float_call_equals_one_element_call(self, gamma_deg, eta, p):
        # both optimizers' eta searches call with floats what their grids
        # call with arrays: the values must be the one-element arrays' bit
        # for bit, on the grid's own etas too
        gamma_rad = math.radians(gamma_deg)
        conditional_probs = _trunc_conditional_probs(gamma_rad)
        probs = conditional_probs(np.array([eta]))
        one_cell = _symmetric_prior_rates(probs, np.array([p]))
        assert one_cell.shape == (1, 1)
        rows = conditional_probs(eta)
        assert _symmetric_prior_rate(rows, p) == one_cell[0, 0]
        assert all(type(value) is float for row in rows for value in row)
        assert np.array_equal(rows, probs[0])
        alpha = alpha_from_gamma(Angle(gamma_rad))
        ce, se = np.cos(np.array([eta])), np.sin(np.array([eta]))
        amplitudes = _clipped_amplitudes(float(ce[0]), float(se[0]), alpha, 0.9, 0.1)
        assert all(type(value) is float for value in amplitudes)
        assert amplitudes == tuple(a[0] for a in _clipped_amplitudes(ce, se, alpha, 0.9, 0.1))
        assert (_symmetric_prior_rate(probs[0].tolist(), p)
                == _symmetric_prior_rates(probs, np.array([p]))[0, 0])
        ps = np.linspace(0.0, 0.5, 101)
        assert np.array_equal(_symmetric_prior_rates(probs[0], ps),
                              _symmetric_prior_rates(probs, ps)[0])

    def test_prior_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            _ansatz_ensemble(0.7, two_shot_coherent_alphabet(deg(10)))

    def test_rate_chain_over_sweep_grid(self):
        # clipped <= ideal family <= asymptotic capacity, pointwise
        from superadd.capacities import c_infinity

        for d in [2.0, 6.0, 10.0, 14.0, 18.0, 25.0, 40.0]:
            gamma = deg(d)
            clipped = optimize_r2_truncated(gamma).bits_per_transmission
            ideal = optimize_r2(gamma).bits_per_transmission
            assert clipped <= ideal + 1e-12
            assert ideal <= c_infinity(gamma) + 1e-9


PARAMS_ANGLES = [1e-3, 0.01, 0.05, 0.2, 0.5, 1.0, 2.5, 5.0, 8.0, 12.0, 15.0,
                 17.1, 18.7, 22.0, 30.0, 40.0, 50.0, 65.0, 80.0, 89.9]


def exact_prior_rate(rows, p):
    """_symmetric_prior_rate(rows, p) in 40-digit arithmetic, the oracle below
    the float rate's rounding (about 1e-16, where O(1) entropies cancel)."""
    with mpmath.workdps(40):
        priors = (mpmath.mpf(p), mpmath.mpf(p), 1 - 2 * mpmath.mpf(p))
        h = lambda x: -x * mpmath.log(x, 2) if x else 0  # noqa: E731
        mixture = sum(h(sum(w * mpmath.mpf(x) for w, x in zip(priors, row))) for row in rows)
        letters = sum(w * h(mpmath.mpf(row[x])) for row in rows for x, w in enumerate(priors))
        return (mixture - letters) / 2


@pytest.mark.parametrize("gamma_deg", PARAMS_ANGLES)
def test_reused_prior_search_reaches_the_p_grid(gamma_deg):
    # the rate is concave in p, so the exact search beats every p of a grid.
    # At 1e-3 deg the best p gains only 1.7e-20 over p = 0.5, far below the
    # float rate's rounding, so the exact comparison is the one that shows it
    g = deg(gamma_deg)
    ideal = optimize_r2(g)
    rows = _trunc_conditional_probs(g.radians)(ideal.params["eta"])
    ps = np.linspace(0.0, 0.5, 101)
    grid_best = _symmetric_prior_rates(rows, ps).max()
    reused = optimize_r2_truncated_reused(g, ideal=ideal)
    assert reused.bits_per_transmission >= grid_best
    exact = exact_prior_rate(rows, reused.params["p"])
    assert all(exact >= exact_prior_rate(rows, p) for p in ps.tolist())


# the angles over 0.3-89.7 deg where the best grid cell has p = 0.4: three for
# r2 (47.5-48.4 deg) and three for r2trunc (73.5-74.4 deg)
GRID_P_ANGLES = np.linspace(0.3, 89.7, 200)[[105, 106, 107, 163, 164, 165]].tolist()
SYMMETRIC_OPTIMIZERS = [(_ideal_conditional_probs, optimize_r2),
                        (_trunc_conditional_probs, optimize_r2_truncated)]


@pytest.mark.parametrize("gamma_deg", [d for d in PARAMS_ANGLES if d >= 0.05] + GRID_P_ANGLES)
def test_symmetric_optimizers_report_the_exact_prior(gamma_deg):
    # p is p*(eta) at the reported eta, as a cold prior search finds it (the
    # two agree to 6e-17 at these angles).  Below 0.05 deg the slope's sign
    # is rounding noise.
    g = deg(gamma_deg)
    for conditional_probs_at, optimize in SYMMETRIC_OPTIMIZERS:
        result = optimize(g)
        rows = conditional_probs_at(g.radians)(result.params["eta"])
        assert abs(result.params["p"] - _symmetric_prior_argmax(rows, 0.25)[0]) <= 1e-9


@pytest.mark.parametrize("gamma_deg", [0.2, 0.1, 0.05])
def test_small_angle_gain_is_found(gamma_deg):
    # r2/c1 tends to 1.02818 at p* = 0.4695, between two p grid values.  The
    # optimal eta is pi/2 - 0.756 gamma, on a ridge about gamma wide, which
    # the eta grid stops resolving at about 0.02 deg
    for _, optimize in SYMMETRIC_OPTIMIZERS:
        result = optimize(deg(gamma_deg))
        assert 1.027 <= result.bits_per_transmission / c1(deg(gamma_deg)) <= 1.029
        assert result.params["p"] not in np.linspace(0.0, 0.5, 101).tolist()


@pytest.mark.parametrize("gamma_deg", PARAMS_ANGLES)
def test_params_reproduce_value(gamma_deg):
    # each optimizer's value is its rate at the params it reports, exactly
    g = deg(gamma_deg)
    ideal = optimize_r2(g)
    for conditional_probs, result in [
            (_ideal_conditional_probs(g.radians), ideal),
            (_trunc_conditional_probs(g.radians), optimize_r2_truncated(g)),
            (_trunc_conditional_probs(g.radians), optimize_r2_truncated_reused(g, ideal=ideal))]:
        rows = conditional_probs(result.params["eta"])
        assert _symmetric_prior_rate(rows, result.params["p"]) == result.bits_per_transmission


# Optimizer values at fixed angles, so that a refactor of the grid searches
# cannot move them unnoticed; the reused variant takes the ideal family's eta,
# which the eta search fixes only to its ETA_XATOL, hence its looser tolerance.
PINNED_RATES = [
    (0.5, 5.6479843673573615e-05, 5.6479656941332834e-05, 5.647965693500456e-05),
    (5.0, 0.0056295759142133694, 0.005627695684001677, 0.005627689641106326),
    (18.7, 0.07547459820783087, 0.07507122072346895, 0.07505680528059744),
    (45.0, 0.35900954450740175, 0.33739515372104, 0.33561359271863284),
    (80.0, 0.7493777639265274, 0.4691752137790235, 0.4646923631674216),
]


@pytest.mark.parametrize("gamma_deg, r2, r2trunc, r2trunc_reused", PINNED_RATES)
def test_optimizer_values_pinned(gamma_deg, r2, r2trunc, r2trunc_reused):
    g = deg(gamma_deg)
    assert optimize_r2(g).bits_per_transmission == pytest.approx(r2, rel=0, abs=1e-13)
    assert optimize_r2_truncated(g).bits_per_transmission == pytest.approx(r2trunc, rel=0, abs=1e-13)
    assert (optimize_r2_truncated_reused(g).bits_per_transmission
            == pytest.approx(r2trunc_reused, rel=0, abs=1e-9))

import math
import operator
import traceback
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from superadd import coherent, twoshot
from superadd.capacities import Ensemble, c1, measured_mutual_information, mutual_information
from superadd.coherent import (
    _trunc_conditional_probs,
    alpha_from_gamma,
    coherent_states,
    optimize_r2_truncated,
    optimize_r2_truncated_reused,
    photon_basis,
    two_shot_coherent_alphabet,
)
from superadd.statespace import Angle, MeasurementBasis, StateVector
from superadd.twoshot import (ETA_XATOL, U_HI, U_LO, _ansatz_ensemble, _ideal_conditional_probs,
                              _symmetric_prior_argmax, _symmetric_prior_terms, ansatz_basis,
                              optimize_r2)

# A dense (eta, p) grid over the family's period and the priors, the oracle
# that the symmetric optimizers' search must reach
GRID_ETAS = np.linspace(0.0, math.pi, 240, endpoint=False).tolist()
GRID_PS = np.linspace(0.0, 0.5, 101)


def deg(d):
    return Angle.from_degrees(d)


def general_kernel_prior_rates(probs, ps):
    """Rates [eta, p] of the symmetric family's priors through the general
    mutual-information kernel, the oracle of the written-out prior tail."""
    priors = np.stack([ps, ps, 1 - 2 * ps], -1)
    return mutual_information(probs[..., None, :, :], priors) / 2


def prior_rate(rows, p):
    """The symmetric family's rate at prior p on the (outcome, letter) rows,
    from the prior solver's kernel."""
    return _symmetric_prior_terms(rows)[1](p)


def assert_prior_is_the_argmax(rows, p):
    """p maximizes the rate by its 40-digit slope: zero inside (0, 0.5),
    >= 0 at p = 0.5 and <= 0 at p = 0, each to within a float slope's
    rounding, 16 eps times the sizes of its terms, counting
    (a + b + 2c) (|log2 m| + 2) for d log2 m, whose d and m round.  At
    1e-3 deg that admits p about 3e-8 from the exact root."""
    with mpmath.workdps(40):
        xlog2x = lambda x: x * mpmath.log(x, 2) if x else 0  # noqa: E731
        exact = size = 0
        for a, b, c in (map(mpmath.mpf, row) for row in rows):
            log2m = mpmath.log((a + b) * p + c * (1 - 2 * mpmath.mpf(p)), 2)
            exact += xlog2x(a) + xlog2x(b) - 2 * xlog2x(c) - (a + b - 2 * c) * log2m
            size += (abs(xlog2x(a)) + abs(xlog2x(b)) + 2 * abs(xlog2x(c))
                     + (a + b + 2 * c) * (abs(log2m) + 2))
        tolerance = 16 * 2.0**-52 * size
        if p == 0.5:
            assert exact >= -tolerance
        elif p == 0.0:
            assert exact <= tolerance
        else:
            assert abs(exact) <= tolerance


def span_rows(eta, a, b, c):
    """The symmetric family built numerically on the letters a, b, c: the
    Gram-Schmidt frame f1 along c, f2 the symmetric combination of a and b
    orthogonal to c and f3 the antisymmetric one, then e3 = cos(eta) f1 -
    sin(eta) f2 and the swap-conjugate pair e1, e2 = (g +- f3)/sqrt2 with
    g = sin(eta) f1 + cos(eta) f2.  The oracle of twoshot.ansatz_rows on the
    ideal letters and of photon_basis on the photon letters."""
    f1 = c / np.linalg.norm(c)
    sym = a + b
    f2 = sym - (sym @ f1) * f1
    f2 = f2 / np.linalg.norm(f2)
    f3 = (a - b) / np.linalg.norm(a - b)
    e3 = math.cos(eta) * f1 - math.sin(eta) * f2
    g = math.sin(eta) * f1 + math.cos(eta) * f2
    return np.vstack([(g + f3) / math.sqrt(2), (g - f3) / math.sqrt(2), e3])


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

    def test_matches_half_angle_tangent(self):
        # alpha = tan(gamma/2) to rounding down to 1e-9 deg, where
        # sqrt((1 - cos gamma)/(1 + cos gamma)) loses every digit
        for d in np.geomspace(1e-9, 89.99, 200).tolist():
            gamma = deg(d)
            exact = mpmath.tan(mpmath.mpf(gamma.radians) / 2)
            assert abs(alpha_from_gamma(gamma) - exact) <= 4e-16 * exact, d

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
            expected = span_rows(eta, a, b, c)
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
        # two-photon column t vanishes: the probabilities of the three
        # informative outcomes, and the rate of the complete measurement
        gamma = deg(gamma_deg)
        letters = np.vstack([s.coords for s in two_shot_coherent_alphabet(gamma)[:3]])
        rows = scoring_rows(eta, gamma)[:3]
        probs = _trunc_conditional_probs(gamma.radians)(eta)
        assert np.abs(np.array(probs) - (rows @ letters.T) ** 2).max() <= 1e-14
        assert (prior_rate(probs, p)
                == pytest.approx(rate_truncated(eta, p, gamma), rel=0, abs=1e-14))

    def test_two_photon_outcome_carries_no_information(self):
        # the outcome that the optimizers leave out has the same probability,
        # sin^4(gamma/2), for letters a, b and c
        for d in np.geomspace(1e-9, 89.99, 60).tolist():
            gamma = deg(d)
            letters = np.vstack([s.coords for s in two_shot_coherent_alphabet(gamma)[:3]])
            two_photon = ((scoring_rows(0.7, gamma) @ letters.T) ** 2)[3].tolist()
            assert two_photon[0] == two_photon[1] == two_photon[2], d
            with mpmath.workdps(50):
                exact = mpmath.sin(mpmath.mpf(gamma.radians) / 2) ** 4
                assert abs(two_photon[0] - exact) <= 4e-15 * exact, d

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
        # alpha once per call, not once per point of the eta search or prior
        # evaluation, and the letter states never: the closed forms need none
        calls = Counter()
        names = ("alpha_from_gamma", "coherent_states", "two_shot_coherent_alphabet")

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name in names:
            monkeypatch.setattr(coherent, name, counting(name, getattr(coherent, name)))
        for optimize in (optimize_r2_truncated, optimize_r2_truncated_reused):
            calls.clear()
            optimize(deg(17.1))
            assert [calls[name] for name in names] == [1, 0, 0], (optimize.__name__, calls)

    def test_no_state_objects_built(self, monkeypatch):
        # both symmetric families score closed forms: no validated state,
        # ensemble or basis is built on their optimizer paths
        built = Counter()
        for cls in (StateVector, Ensemble, MeasurementBasis):
            init = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, init=init: built.update([type(self).__name__]) or init(self))
        g = deg(17.1)
        for optimize in (optimize_r2, optimize_r2_truncated, optimize_r2_truncated_reused):
            optimize(g)
        assert not built, built
        two_shot_coherent_alphabet(g)
        assert built["StateVector"] > 0  # the hook sees the readable construction

    def test_symmetric_families_make_no_numpy_call(self, monkeypatch):
        # from the u search down both families compute in Python floats:
        # every read of an attribute of numpy in twoshot or coherent counts
        reads = Counter()

        class CountingNumpy:
            def __getattr__(self, name):
                reads[name] += 1
                return getattr(np, name)

        for module in (twoshot, coherent):
            monkeypatch.setattr(module, "np", CountingNumpy())
        for gamma_deg in (0.05, 17.1, 80.0):
            g = deg(gamma_deg)
            ideal = optimize_r2(g)
            optimize_r2_truncated(g)
            optimize_r2_truncated_reused(g, ideal=ideal)
        assert not reads, reads
        photon_basis(0.7, deg(17.1))
        assert reads  # the proxy sees the readable construction's reads

    def test_prior_tail_makes_no_einsum_call(self, monkeypatch):
        # the symmetric prior tail writes its sums out, and the clipped basis
        # is in closed form; an einsum under either is the general kernel's or
        # the eigendecomposition's slower path come back
        tail = {"_symmetric_conditional_probs", "conditional_probs", "_symmetric_prior_terms",
                "_symmetric_prior_argmax"}
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

    def test_float_rate_agrees_with_readable_rate(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            gamma_rad = rng.uniform(0.05, math.pi / 2 - 0.05)
            eta = rng.uniform(0.0, math.pi)
            p = rng.uniform(0.0, 0.5)
            rows = _trunc_conditional_probs(gamma_rad)(eta)
            assert all(type(value) is float for row in rows for value in row)
            fast = prior_rate(rows, p)
            slow = rate_truncated(eta, p, Angle(gamma_rad))
            assert fast == pytest.approx(slow, abs=1e-12)

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
    """prior_rate(rows, p) in 40-digit arithmetic, the oracle below
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
    ps = GRID_PS.tolist()
    grid_best = max(prior_rate(rows, p) for p in ps)
    reused = optimize_r2_truncated_reused(g, ideal=ideal)
    assert reused.bits_per_transmission >= grid_best
    exact = exact_prior_rate(rows, reused.params["p"])
    assert all(exact >= exact_prior_rate(rows, p) for p in ps)


# the angles over 0.3-89.7 deg where the best grid cell has p = 0.4: three for
# r2 (47.5-48.4 deg) and three for r2trunc (73.5-74.4 deg)
GRID_P_ANGLES = np.linspace(0.3, 89.7, 200)[[105, 106, 107, 163, 164, 165]].tolist()
SYMMETRIC_OPTIMIZERS = [(_ideal_conditional_probs, optimize_r2),
                        (_trunc_conditional_probs, optimize_r2_truncated)]


@pytest.mark.parametrize("gamma_deg", PARAMS_ANGLES + GRID_P_ANGLES)
def test_symmetric_optimizers_report_the_exact_prior(gamma_deg):
    # p is p*(eta) at the reported eta: the 40-digit slope vanishes there,
    # using at most 0.27 of the helper's rounding bound at these angles
    g = deg(gamma_deg)
    for conditional_probs_at, optimize in SYMMETRIC_OPTIMIZERS:
        result = optimize(g)
        assert_prior_is_the_argmax(conditional_probs_at(g.radians)(result.params["eta"]),
                                   result.params["p"])


@pytest.mark.parametrize("gamma_deg", [0.2, 0.1, 0.05])
def test_small_angle_gain_is_found(gamma_deg):
    # r2/c1 tends to 1.02818 at p* = 0.4695, between two values of the p
    # grid, on a ridge eta* = pi/2 - 0.756 gamma about gamma wide
    for _, optimize in SYMMETRIC_OPTIMIZERS:
        result = optimize(deg(gamma_deg))
        assert 1.027 <= result.bits_per_transmission / c1(deg(gamma_deg)) <= 1.029
        assert result.params["p"] not in GRID_PS.tolist()


LIMIT_GAIN = 1.0281785252645  # F*, the gamma -> 0 limit of r2/c1
SMALL_ANGLES = np.geomspace(2.0, 0.01, 12).tolist()  # down to the smallest supported angle


@pytest.mark.parametrize("gamma_deg", SMALL_ANGLES)
def test_small_angle_gain_holds_down_to_the_smallest_angle(gamma_deg):
    for _, optimize in SYMMETRIC_OPTIMIZERS:
        result = optimize(deg(gamma_deg))
        ratio = result.bits_per_transmission / c1(deg(gamma_deg))
        assert 1.027 <= ratio <= 1.029 and ratio <= LIMIT_GAIN
        assert result.params["p"] != 0.5 and result.converged


def test_small_angle_gain_approaches_the_limit():
    # F* - r2/c1 shrinks with the angle, as gamma^2, for both families
    for _, optimize in SYMMETRIC_OPTIMIZERS:
        gaps = [LIMIT_GAIN - optimize(deg(d)).bits_per_transmission / c1(deg(d))
                for d in SMALL_ANGLES]
        assert all(wide > narrow for wide, narrow in zip(gaps, gaps[1:])), gaps


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
        assert prior_rate(rows, result.params["p"]) == result.bits_per_transmission


# Optimizer values at fixed angles, so that a refactor of the searches cannot
# move them unnoticed; the reused variant takes the ideal family's eta,
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


# The clipped rate at the prior's argmax, at the ideal family's eta as the
# golden-section u search reported it at PINNED_RATES' angles: the reused
# variant's kernel, pinned without the eta search, to which it is first order.
CLIPPED_RATES_AT_FIXED_ETA = [
    (0.5, 1.5641960703611302, 5.647965693544865e-05),
    (5.0, 1.5046200876688731, 0.0056276896416143085),
    (18.7, 1.3138370223953904, 0.07505680529787984),
    (45.0, 0.7358363056284261, 0.335613592384558),
    (80.0, 0.1256207661089921, 0.46469236296622174),
]


@pytest.mark.parametrize("gamma_deg, eta, r2trunc", CLIPPED_RATES_AT_FIXED_ETA)
def test_clipped_rate_pinned_at_a_fixed_eta(gamma_deg, eta, r2trunc):
    rows = _trunc_conditional_probs(deg(gamma_deg).radians)(eta)
    p, rate = _symmetric_prior_argmax(rows)
    assert rate == prior_rate(rows, p) == pytest.approx(r2trunc, rel=0, abs=1e-13)


def golden_u_search(conditional_probs, gamma_rad):
    """(rate, eta) of the best point of a golden-section search (Kiefer 1953)
    over the scaled angle u in [U_LO, U_HI], eta = pi/2 - u gamma, with the
    prior solved at each point as in twoshot._u_search, stopping when its
    inner points are ETA_XATOL apart in eta: the oracle of the u search's
    Brent steps, the search that they replaced."""
    evaluated = []  # (rate, eta)

    def profile(u):
        eta = (math.pi / 2 - u * gamma_rad) % math.pi
        _, rate = _symmetric_prior_argmax(conditional_probs(eta))
        evaluated.append((rate, eta))
        return evaluated[-1][0]

    lo, hi = U_LO, U_HI
    golden = (math.sqrt(5) - 1) / 2 * (hi - lo)
    left, right = hi - golden, lo + golden
    f_left, f_right = profile(left), profile(right)
    while (right - left) * gamma_rad > ETA_XATOL:
        if f_left >= f_right:  # the maximum lies in [lo, right]
            hi, right, f_right = right, left, f_left
            left = lo + hi - right
            f_left = profile(left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + hi - left
            f_right = profile(right)
    return max(reversed(evaluated), key=operator.itemgetter(0))  # ties: the later point


@pytest.mark.parametrize("gamma_deg", SMALL_ANGLES + np.linspace(2.5, 89.5, 40).tolist())
def test_u_search_matches_the_golden_search(gamma_deg):
    # Brent's steps reach the golden search's rate to rounding (3.3e-16 at
    # worst over 997 angles in 0.01-89.7 deg) and its eta to 7.3e-8, within
    # the ETA_XATOL-wide brackets that both stop on
    g = deg(gamma_deg)
    for conditional_probs_at, optimize in SYMMETRIC_OPTIMIZERS:
        rate, eta = golden_u_search(conditional_probs_at(g.radians), g.radians)
        result = optimize(g)
        assert result.bits_per_transmission >= rate - 4.5e-16
        assert abs(result.params["eta"] - eta) <= 1e-7


@given(gamma_deg=st.floats(0.05, 89.9), family=st.sampled_from(SYMMETRIC_OPTIMIZERS))
def test_u_search_reaches_the_full_grid(gamma_deg, family):
    # the search is at or above the best cell of the full (eta, p) grid, and
    # its optimum lies strictly inside the u window
    conditional_probs_at, optimize = family
    gamma_rad = math.radians(gamma_deg)
    conditional_probs = conditional_probs_at(gamma_rad)
    grid = general_kernel_prior_rates(np.array([conditional_probs(eta) for eta in GRID_ETAS]),
                                      GRID_PS)
    result = optimize(deg(gamma_deg))
    assert result.bits_per_transmission >= grid.max()
    u = ((math.pi / 2 - result.params["eta"]) % math.pi) / gamma_rad
    assert U_LO < u < U_HI and result.converged

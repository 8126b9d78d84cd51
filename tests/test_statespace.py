import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from superadd.coherent import two_shot_coherent_alphabet
from superadd.statespace import (
    Angle,
    MeasurementBasis,
    StateVector,
    embed_alphabet,
    tensor,
    two_shot_alphabet,
)


def deg(d):
    return Angle.from_degrees(d)


class TestAngle:
    def test_degree_round_trip(self):
        assert deg(45).degrees == pytest.approx(45.0, abs=1e-13)

    @pytest.mark.parametrize("bad", [-1.0, 90.5, 180.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            deg(bad)


class TestEmbedAlphabet:
    def test_orthogonal_case(self):
        u0, u1 = embed_alphabet(deg(90))
        assert np.allclose(u0.coords, [1.0, 0.0], atol=1e-14)
        assert np.allclose(u1.coords, [0.0, 1.0], atol=1e-14)

    def test_identical_case(self):
        u0, u1 = embed_alphabet(deg(0))
        assert np.array_equal(u0.coords, u1.coords)

    def test_sixty_degrees(self):
        u0, u1 = embed_alphabet(deg(60))
        assert np.allclose(u1.coords, [0.5, math.sqrt(3) / 2], atol=1e-15)
        assert u0.inner(u1) == pytest.approx(0.5, abs=1e-14)

    def test_overlap_matches_cosine(self):
        for d in np.linspace(0.0, 90.0, 19):
            u0, u1 = embed_alphabet(deg(d))
            assert u0.inner(u1) == pytest.approx(math.cos(math.radians(d)), abs=1e-14)


class TestTensor:
    def test_basis_vectors(self):
        x = StateVector(np.array([1.0, 0.0]))
        y = StateVector(np.array([0.0, 1.0]))
        assert np.array_equal(tensor(x, y).coords, [0.0, 1.0, 0.0, 0.0])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
    def test_inner_products_factorize(self, seed, dim_left, dim_right):
        rng = np.random.default_rng(seed)

        def unit(dim):
            v = rng.normal(size=dim)
            return StateVector(v / np.linalg.norm(v))

        u, up = unit(dim_left), unit(dim_left)
        v, vp = unit(dim_right), unit(dim_right)
        lhs = tensor(u, v).inner(tensor(up, vp))
        assert lhs == pytest.approx(u.inner(up) * v.inner(vp), abs=1e-12)


class TestTwoShotAlphabet:
    def test_orthogonal_gives_standard_basis(self):
        letters = two_shot_alphabet(deg(90))
        rows = np.vstack([s.coords for s in letters])
        expected = np.array(
            [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=float
        )
        assert np.allclose(rows, expected, atol=1e-14)

    def test_identical_states_collapse(self):
        a, b, c, d = two_shot_alphabet(deg(0))
        for s in (b, c, d):
            assert np.allclose(a.coords, s.coords, atol=0)

    def test_gram_entries_thirty_degrees(self):
        a, b, c, d = two_shot_alphabet(deg(30))
        cg = math.cos(math.radians(30))
        assert a.inner(c) == pytest.approx(cg, abs=1e-12)
        assert b.inner(c) == pytest.approx(cg, abs=1e-12)
        assert a.inner(b) == pytest.approx(0.75, abs=1e-12)

    def test_gram_matches_closed_form(self):
        # off-diagonal pattern: mixed-vs-repeated cos g, mixed-vs-mixed and
        # repeated-vs-repeated cos^2 g, in the plane embedding and in photon
        # coordinates alike, which share one letter order
        for alphabet in (two_shot_alphabet, two_shot_coherent_alphabet):
            for d in np.linspace(5.0, 85.0, 17):
                a, b, c, dd = alphabet(deg(d))
                cg = math.cos(math.radians(d))
                rows = np.vstack([s.coords for s in (a, b, c, dd)])
                gram = rows @ rows.T
                expected = np.array(
                    [
                        [1.0, cg * cg, cg, cg],
                        [cg * cg, 1.0, cg, cg],
                        [cg, cg, 1.0, cg * cg],
                        [cg, cg, cg * cg, 1.0],
                    ]
                )
                assert np.abs(gram - expected).max() < 1e-12, (alphabet.__name__, d)


class TestStateVectorInvariants:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([1.0, 1.0]))

    def test_coords_frozen(self):
        s = StateVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            s.coords[0] = 2.0


class TestMeasurementBasisInvariants:
    def test_rejects_non_orthogonal(self):
        v1 = StateVector(np.array([1.0, 0.0]))
        v2 = StateVector(np.array([math.cos(0.3), math.sin(0.3)]))
        with pytest.raises(ValueError, match="orthonormal"):
            MeasurementBasis((v1, v2))

    def test_rejects_too_many_vectors(self):
        v1 = StateVector(np.array([1.0, 0.0]))
        v2 = StateVector(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="dimension"):
            MeasurementBasis((v1, v2, v1))

    def test_complete_basis_accepted(self):
        basis = MeasurementBasis.from_rows(np.eye(3))
        assert len(basis) == 3 and basis.dim == 3

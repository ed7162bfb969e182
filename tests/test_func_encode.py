"""Analytic polynomial / phase train constructors vs dense evaluation."""

import numpy as np
import pytest

from ttprep import tt_core
from ttprep.func_encode import (Grid1D, Polynomial, SignedGrid1D, phase_tt,
                                poly_tt, signed_poly_phase_tt, signed_poly_tt,
                                tensorize)

from conftest import dense, tt_entry


def _random_poly(rng, d):
    c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    return Polynomial(c)


def _signed_dense_oracle(p, g, phase_theta=0.0):
    """Entry-by-entry reference: p at valid codewords, zero elsewhere."""
    out = np.zeros(2 ** g.n_sites, dtype=complex)
    for i in g.index_values():
        val = p(g.point(int(i)))
        if phase_theta:
            val = val * np.exp(1j * phase_theta * int(i))
        out[g.dense_index(int(i))] = val
    return out


class TestTensorize:
    def test_constant_two_sites(self):
        t = tensorize(np.full(4, 3.7 + 0j), 2)
        assert tt_core.max_bond_dim(t) == 1
        assert np.allclose(dense(t), 3.7)

    def test_linear_samples_bond_three(self):
        x = np.linspace(0.0, 1.0, 8)
        t = tt_core.round(tensorize(x.astype(complex), 3), 1e-12)
        assert tt_core.max_bond_dim(t) <= 3

    def test_padding_zeros(self, rng):
        s = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = dense(tensorize(s, 3))
        assert np.allclose(v[:5], s, atol=1e-12)
        assert np.allclose(v[5:], 0.0, atol=1e-12)

    def test_too_many_samples(self):
        with pytest.raises(tt_core.ShapeError):
            tensorize(np.ones(9), 3)

    def test_linearity_in_dense_space(self, rng):
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a, b = 1.3 - 0.2j, -0.7 + 2j
        lhs = dense(tensorize(a * u + b * v, 3))
        rhs = a * dense(tensorize(u, 3)) + b * dense(tensorize(v, 3))
        assert np.linalg.norm(lhs - rhs) < 1e-10


class TestPolyTT:
    def test_constant(self):
        g = Grid1D(a=-1.0, b=1.0, n_points=6, n_sites=3)
        t = poly_tt(Polynomial(np.array([1.0])), g)
        assert tt_core.max_bond_dim(t) <= 2
        v = dense(t)
        assert np.allclose(v[:6], 1.0)
        assert np.allclose(v[6:], 0.0)

    def test_quadratic_spot_values(self, rng):
        g = Grid1D(a=-1.0, b=1.0, n_points=2 ** 10, n_sites=10)
        p = Polynomial(np.array([-1.0, 0.0, 3.0]))  # 3x^2 - 1
        t = poly_tt(p, g)
        assert tt_core.max_bond_dim(t) <= 4
        x = g.points()
        for idx in rng.integers(0, 2 ** 10, size=16):
            assert abs(tt_entry(t, int(idx)) - p(x[idx])) < 1e-10

    def test_degree_seven_huge_grid(self, rng):
        """Analytic construction scales to grids far past the dense cap."""
        g = Grid1D(a=0.0, b=1.0, n_points=2 ** 30, n_sites=30)
        p = _random_poly(rng, 7)
        t = poly_tt(p, g)
        assert tt_core.max_bond_dim(t) <= 9
        h = g.spacing
        for idx in rng.integers(0, 2 ** 30, size=8):
            want = p(g.a + h * int(idx))
            assert abs(tt_entry(t, int(idx)) - want) < 1e-8 * max(
                1.0, abs(want))

    @pytest.mark.parametrize("d", range(0, 11))
    def test_bond_bound_and_dense_agreement(self, d, rng):
        g = Grid1D(a=-2.0, b=3.0, n_points=100, n_sites=7)
        p = _random_poly(rng, d)
        t = poly_tt(p, g)
        assert tt_core.max_bond_dim(t) <= d + 2
        want = np.zeros(2 ** 7, dtype=complex)
        want[:100] = p(g.points())
        scale = max(1.0, np.abs(want).max())
        assert np.abs(dense(t) - want).max() < 1e-10 * scale


class TestSignedPolyTT:
    def test_constant_and_minus_zero(self):
        g = SignedGrid1D(a=3.0, n_points=7, n_sites=3)
        t = signed_poly_tt(Polynomial(np.array([2.5])), g)
        v = dense(t)
        want = _signed_dense_oracle(Polynomial(np.array([2.5])), g)
        assert np.abs(v - want).max() < 1e-12
        # the -0 codeword (sign bit set, zero magnitude) must hold zero
        assert abs(v[2 ** (g.n_sites - 1)]) < 1e-12

    def test_odd_symmetry(self):
        g = SignedGrid1D(a=3.0, n_points=7, n_sites=3)
        t = signed_poly_tt(Polynomial(np.array([0.0, 1.0])), g)
        v = dense(t)
        for i in range(1, g.half_count + 1):
            assert abs(v[g.dense_index(i)] + v[g.dense_index(-i)]) < 1e-12

    def test_even_n_points_rejected(self):
        with pytest.raises(ValueError):
            SignedGrid1D(a=1.0, n_points=8, n_sites=4)

    @pytest.mark.parametrize("n_points,n_sites",
                             [(3, 2), (7, 3), (9, 5), (31, 6)])
    def test_embed_matches_dense_index(self, n_points, n_sites, rng):
        g = SignedGrid1D(a=1.0, n_points=n_points, n_sites=n_sites)
        vals = (rng.standard_normal(n_points)
                + 1j * rng.standard_normal(n_points))
        want = np.zeros(2 ** n_sites, dtype=complex)
        for k, i in enumerate(g.index_values()):
            want[g.dense_index(int(i))] = vals[k]
        assert np.array_equal(g.embed(vals), want)

    @pytest.mark.parametrize("d", range(0, 11))
    def test_bond_bound_and_dense_agreement(self, d, rng):
        g = SignedGrid1D(a=2.0, n_points=31, n_sites=6)
        p = _random_poly(rng, d)
        t = signed_poly_tt(p, g)
        assert tt_core.max_bond_dim(t) <= 2 * d + 5
        want = _signed_dense_oracle(p, g)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(dense(t) - want).max() < 1e-10 * scale


class TestPhaseTT:
    def test_zero_shift_is_all_ones_rank_one(self):
        g = SignedGrid1D(a=2.0, n_points=15, n_sites=4)
        t = phase_tt(g, 0.0, 0.209)
        assert tt_core.max_bond_dim(t) == 1
        assert np.abs(dense(t) - 1.0).max() < 1e-12

    def test_pointwise_and_unimodular(self):
        g = SignedGrid1D(a=2.0, n_points=15, n_sites=4)
        x0, dk = 2.5, 0.209
        t = phase_tt(g, x0, dk)
        assert tt_core.max_bond_dim(t) <= 2
        v = dense(t)
        for i in g.index_values():
            want = np.exp(1j * (int(i) * dk) * x0)
            assert abs(v[g.dense_index(int(i))] - want) < 1e-12
            assert abs(abs(v[g.dense_index(int(i))]) - 1.0) < 1e-12
        # -0 codeword carries phase exp(0) = 1
        assert abs(v[2 ** (g.n_sites - 1)] - 1.0) < 1e-12

    def test_hadamard_with_polynomial_bond_profile(self, rng):
        """Rounded product bonds never exceed the polynomial construction.

        The phase is rank 1 per sign branch (rank 2 jointly), and the
        polynomial construction carries one spare slot per branch, so
        recompressing the product always fits inside the polynomial's
        construction profile; at theta = 0 the profiles match exactly.
        """
        g = SignedGrid1D(a=2.0, n_points=31, n_sites=6)
        p = _random_poly(rng, 3)
        poly = signed_poly_tt(p, g)
        for theta_x0 in (0.0, 0.7):
            prod = tt_core.round(
                tt_core.hadamard(phase_tt(g, theta_x0, 1.0), poly), 1e-12)
            assert all(x <= y for x, y in zip(prod.bond_dims,
                                              poly.bond_dims))
        same = tt_core.round(
            tt_core.hadamard(phase_tt(g, 0.0, 1.0), poly), 1e-12)
        assert same.bond_dims == tt_core.round(poly, 1e-12).bond_dims


class TestSignedPolyPhaseTT:
    @pytest.mark.parametrize("d", [0, 2, 4])
    def test_values_and_bond_bound(self, d, rng):
        g = SignedGrid1D(a=2.0, n_points=31, n_sites=6)
        p = _random_poly(rng, d)
        x0, dk = 1.3, 0.41
        t = signed_poly_phase_tt(p, g, x0, dk)
        assert tt_core.max_bond_dim(t) <= 2 * d + 5
        want = _signed_dense_oracle(p, g, phase_theta=dk * x0)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(dense(t) - want).max() < 1e-10 * scale

    def test_profile_matches_phaseless_construction(self, rng):
        """Folding the phase in costs no bond dimension at all."""
        g = SignedGrid1D(a=2.0, n_points=31, n_sites=6)
        p = _random_poly(rng, 3)
        assert (signed_poly_phase_tt(p, g, 0.9, 0.3).bond_dims
                == signed_poly_tt(p, g).bond_dims)

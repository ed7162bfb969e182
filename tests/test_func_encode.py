"""Signed-grid addressing, and polynomial trains factored by from_dense.

Every train here is built the one way the pipeline builds an axis train:
sample on the grid, embed the samples densely, factor with
``tt_core.from_dense``.  The bond caps are the quantized-TT polynomial rank
bounds (d+2 on a zero-padded dyadic grid, 2d+5 on the sign-magnitude grid),
and entries are checked against direct polynomial evaluation.
"""

import numpy as np
import pytest

from ttprep import tt_core
from ttprep.func_encode import SignedGrid1D

from conftest import dense


def _random_coeffs(rng, d):
    return rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)


def _signed_dense_oracle(c, g, phase_theta=0.0):
    """Entry-by-entry reference: p at valid codewords, zero elsewhere."""
    out = np.zeros(2 ** g.n_sites, dtype=complex)
    for i in g.index_values():
        val = np.polynomial.polynomial.polyval(g.point(int(i)), c)
        if phase_theta:
            val = val * np.exp(1j * phase_theta * int(i))
        out[g.dense_index(int(i))] = val
    return out


class TestPolyTT:
    """Polynomials on a dyadic grid, zero-padded past its last point."""

    @pytest.mark.parametrize("d", range(0, 11))
    def test_bond_bound_and_dense_agreement(self, d, rng):
        a, b, n_points, n_sites = -2.0, 3.0, 100, 7
        c = _random_coeffs(rng, d)
        want = np.zeros(2 ** n_sites, dtype=complex)
        want[:n_points] = np.polynomial.polynomial.polyval(
            np.linspace(a, b, n_points), c)
        t = tt_core.from_dense(want, tol=1e-14)
        assert tt_core.max_bond_dim(t) <= d + 2
        scale = max(1.0, np.abs(want).max())
        assert np.abs(dense(t) - want).max() < 1e-10 * scale


class TestSignedPolyTT:
    """Sign-magnitude addressing, and polynomials on the signed grid."""

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
        c = _random_coeffs(rng, d)
        t = tt_core.from_dense(g.embed(np.polynomial.polynomial.polyval(
            g.point(g.index_values()), c)), tol=1e-14)
        assert tt_core.max_bond_dim(t) <= 2 * d + 5
        want = _signed_dense_oracle(c, g)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(dense(t) - want).max() < 1e-10 * scale


class TestSignedPolyPhaseTT:
    """A translation phase exp(i i dk x0) on top of the polynomial.

    The phase is rank 1 on each sign branch, so the product keeps the
    2d+5 cap; this is the form of every axis train of the pipeline.
    """

    @pytest.mark.parametrize("d", [0, 2, 4])
    def test_values_and_bond_bound(self, d, rng):
        g = SignedGrid1D(a=2.0, n_points=31, n_sites=6)
        c = _random_coeffs(rng, d)
        x0, dk = 1.3, 0.41
        idx = g.index_values()
        samples = (np.polynomial.polynomial.polyval(g.point(idx), c)
                   * np.exp(1j * dk * x0 * idx))
        t = tt_core.from_dense(g.embed(samples), tol=1e-14)
        assert tt_core.max_bond_dim(t) <= 2 * d + 5
        want = _signed_dense_oracle(c, g, phase_theta=dk * x0)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(dense(t) - want).max() < 1e-10 * scale

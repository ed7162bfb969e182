"""Hermite-Gaussian momentum machinery, certified cutoffs, axis trains.

Every derived quantity is checked against an oracle built from a different
route: coefficient tables, trapezoid quadrature, brute-force lattice sums,
or a dense reference state.
"""

import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ttprep import gauss_pw, pipeline, tt_core
from ttprep.gauss_pw import (EVAL_BLOCK_ENTRIES, MAX_ANGULAR_MOMENTUM,
                             MAX_HERMITE_ORDER, ChebyshevInterpolant,
                             PlaneWaveGrid, PrimitiveGaussian,
                             ProjectionError, axis_profile, choose_cutoff,
                             choose_degree, h_coeffs, hermite_gaussian,
                             primitive_1d_mps, primitive_3d_mps,
                             projection_normalization, pw_overlap)
from ttprep.tt_core import CapacityError

from conftest import dense, isometry_residuals, trace_distance_nonunit

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_FIXTURES = sorted(
    p.stem for p in (ROOT / "src" / "ttprep" / "fixtures").glob("*.json"))

# physicists' Hermite polynomials, straight from the printed table
HERMITE_TABLE = {
    0: [1.0],
    1: [0.0, 2.0],
    2: [-2.0, 0.0, 4.0],
    3: [0.0, -12.0, 0.0, 8.0],
    4: [12.0, 0.0, -48.0, 0.0, 16.0],
    5: [0.0, 120.0, 0.0, -160.0, 0.0, 32.0],
}


def psi_ref(n, x):
    """Hermite function from the table, valid for n <= 5."""
    h = np.polynomial.polynomial.polyval(x, HERMITE_TABLE[n])
    norm = math.pi ** 0.25 * math.sqrt(2.0 ** n * math.factorial(n))
    return h * np.exp(-np.asarray(x, dtype=float) ** 2 / 2.0) / norm


def overlap_quadrature(gamma, l, a, k, L, n_pts=4000, half=12.0):
    """Trapezoid value of (1/sqrt(L)) int g(x-a) exp(ikx) dx."""
    c = (2.0 ** l * (2.0 * gamma) ** (l / 2 + 0.25)
         * math.sqrt(math.factorial(l))
         / (math.pi ** 0.25 * math.sqrt(math.factorial(2 * l))))
    x = np.linspace(a - half, a + half, n_pts)
    g = c * (x - a) ** l * np.exp(-gamma * (x - a) ** 2)
    f = g * np.exp(1j * k * x) / math.sqrt(L)
    return complex(np.trapezoid(f, x))


class TestHermite:
    def test_gaussian_quadrature_norm(self):
        x = np.linspace(-12.0, 12.0, 2000)
        p3 = hermite_gaussian(3, x)
        assert abs(np.trapezoid(p3 * p3, x) - 1.0) < 1e-8
        assert abs(np.trapezoid(p3 * hermite_gaussian(1, x), x)) < 1e-8

    def test_gaussian_matches_table(self):
        x = np.linspace(-4.0, 4.0, 17)
        for n in range(6):
            assert np.abs(hermite_gaussian(n, x) - psi_ref(n, x)).max() < 1e-12

    def test_amplitude_bound(self):
        # sup_x |psi_n(x)| <= pi^(-1/4) for every order
        x = np.linspace(-15.0, 15.0, 4001)
        for n in (0, 5, 17, MAX_HERMITE_ORDER):
            assert np.abs(hermite_gaussian(n, x)).max() <= (
                math.pi ** -0.25 + 1e-12)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            hermite_gaussian(MAX_HERMITE_ORDER + 1, 0.0)
        with pytest.raises(ValueError):
            hermite_gaussian(-1, 0.0)


class TestHermiteExpansion:
    def test_monomial_reconstruction(self):
        l = 4
        h = h_coeffs(l)
        x = np.linspace(-3.5, 3.5, 20)
        target = (x ** l * np.exp(-x ** 2 / 2.0)
                  / math.sqrt(math.sqrt(math.pi) * math.factorial(2 * l)
                              / (4.0 ** l * math.factorial(l))))
        got = sum(h[n] * hermite_gaussian(n, x) for n in range(l + 1))
        assert np.abs(got - target).max() < 1e-10

    def test_unit_norm_and_parity(self):
        for l in range(MAX_ANGULAR_MOMENTUM + 1):
            h = h_coeffs(l)
            assert abs(np.sum(h * h) - 1.0) < 1e-12
            for n in range(l + 1):
                if (l - n) % 2 == 1:
                    assert h[n] == 0.0

    def test_guard(self):
        with pytest.raises(ValueError):
            h_coeffs(MAX_ANGULAR_MOMENTUM + 1)


class TestPwOverlap:
    def test_s_type_closed_form(self):
        got = pw_overlap(1.0, 0, 0.0, 0.0, 10.0)
        want = (2.0 * math.pi) ** 0.25 / math.sqrt(10.0)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("gamma,l,a", [
        (1.0, 0, 0.0), (0.6, 1, 0.0), (1.7, 2, 1.2), (1.0, 3, -0.8),
    ])
    def test_quadrature_agreement(self, gamma, l, a):
        for k in (0.0, 0.7, -1.9, 3.3):
            got = pw_overlap(gamma, l, a, k, 10.0)
            want = overlap_quadrature(gamma, l, a, k, 10.0)
            assert abs(got - want) < 1e-8

    def test_odd_symmetry_zero(self):
        assert abs(pw_overlap(1.0, 1, 0.0, 0.0, 10.0)) < 1e-15

    def test_translation_is_pure_phase(self):
        k = np.linspace(-4.0, 4.0, 9)
        base = pw_overlap(0.9, 2, 0.0, k, 12.0)
        shifted = pw_overlap(0.9, 2, 3.0, k, 12.0)
        assert np.abs(shifted - np.exp(1j * k * 3.0) * base).max() < 1e-12

    def test_array_shape_and_scalar(self):
        k = np.linspace(-2, 2, 5).reshape(5, 1)
        out = pw_overlap(1.0, 0, 0.0, k, 10.0)
        assert out.shape == (5, 1)
        assert isinstance(pw_overlap(1.0, 0, 0.0, 0.3, 10.0), complex)

    @pytest.mark.parametrize("l", range(5))
    @pytest.mark.parametrize("a", [0.0, 1.3])
    def test_real_sum_equals_the_complex_formula(self, l, a):
        """The real Hermite sum times i^l against the complex sum over
        i^n h_n psi_n, on a lattice out to where the values underflow."""
        gamma, L = 0.8, 12.0
        k = np.arange(-200, 201) * 2.0 * math.pi / L
        u = k / math.sqrt(2.0 * gamma)
        table = np.array([hermite_gaussian(n, u) for n in range(l + 1)])
        terms = np.array([1j ** n for n in range(l + 1)]) * h_coeffs(l)
        pref = (2.0 ** 0.25 * math.sqrt(math.pi)
                / (gamma ** 0.25 * math.sqrt(L)))
        want = np.exp(1j * k * a) * pref * (terms @ table)
        got = pw_overlap(gamma, l, a, k, L)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            pw_overlap(0.0, 0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            pw_overlap(1.0, 0, 0.0, 0.0, 0.0)


class TestCutoffAndDegree:
    def test_cutoff_regression(self):
        assert choose_cutoff(1.0, 0, 30.0, 1e-2) == pytest.approx(
            10.775893433304358, rel=1e-12)

    def test_cutoff_formula_retype(self):
        gamma, l, L, eps = 2.0, 3, 25.0, 1e-3
        bracket = (2.0 * math.log(2.0 / eps) + math.log(45.0)
                   + math.log(1.0 + 2.0 * math.sqrt(math.pi)
                              / (L * math.sqrt(gamma)))
                   + l * math.log(4.0 * l))
        want = 2.0 * math.sqrt(2.0 * gamma) * math.sqrt(bracket)
        assert choose_cutoff(gamma, l, L, eps) == pytest.approx(
            want, rel=1e-14)

    def test_quadrupled_width_nearly_doubles_cutoff(self):
        r30 = choose_cutoff(4.0, 0, 30.0, 1e-2) / choose_cutoff(
            1.0, 0, 30.0, 1e-2)
        assert r30 == pytest.approx(1.9962565419157643, rel=1e-12)
        assert abs(r30 - 2.0) < 0.02
        # the width-dependent term dies off as the cell grows
        r_big = choose_cutoff(4.0, 0, 1e9, 1e-2) / choose_cutoff(
            1.0, 0, 1e9, 1e-2)
        assert abs(r_big - 2.0) < 1e-6

    def test_cutoff_monotone_in_eps(self):
        ks = [choose_cutoff(1.0, 0, 30.0, e) for e in (1e-1, 1e-2, 1e-3)]
        assert ks[0] < ks[1] < ks[2]

    def test_degree_at_matched_cutoff(self):
        for gamma in (0.5, 1.0, 4.0):
            assert choose_degree(math.sqrt(2.0 * gamma), gamma) == 8

    def test_degree_formula(self):
        assert choose_degree(3.0, 1.0) == math.ceil(math.e ** 2 * 9.0 / 2.0)

    def test_degree_quadruples_when_cutoff_doubles(self):
        for k in (2.0, 5.0, 11.0):
            m = choose_degree(k, 1.0)
            m2 = choose_degree(2.0 * k, 1.0)
            assert 4 * m - 3 <= m2 <= 4 * m

    def test_degree_at_least_two_for_certified_cutoffs(self):
        for gamma in (0.25, 1.0, 4.0):
            for l in (0, 1, 2):
                for eps in (1e-2, 1e-3):
                    k = choose_cutoff(gamma, l, 30.0, eps)
                    assert choose_degree(k, gamma) >= 2

    def test_guards(self):
        with pytest.raises(ValueError):
            choose_cutoff(1.0, 0, 30.0, 1.5)
        with pytest.raises(ValueError):
            choose_degree(0.0, 1.0)


class TestChebyshev:
    def test_nodes_match_first_kind_family(self):
        m = 9
        interp = ChebyshevInterpolant.fit(lambda t: t, 2.0, m)
        i = np.arange(m)
        want = 2.0 * np.cos((2.0 * i + 1.0) * math.pi / (2.0 * m + 2.0))
        assert np.abs(interp.nodes - want).max() < 1e-14

    def test_exact_at_nodes(self):
        interp = ChebyshevInterpolant.fit(
            lambda t: np.sin(t) + t ** 2, 3.0, 12)
        got = interp(interp.nodes)
        assert np.abs(got - interp.values).max() < 1e-14

    @pytest.mark.parametrize("m", [7, 604])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fit_values_match_per_node_calls(self, n, m):
        # one call on the node array gives the per-node values bit for bit;
        # the half-width is the one the pipeline pairs with m nodes
        c = math.sqrt(m) / math.e
        interp = ChebyshevInterpolant.fit(
            lambda t: hermite_gaussian(n, t), c, m)
        want = np.array([hermite_gaussian(n, float(t))
                         for t in interp.nodes])
        assert np.array_equal(interp.values, want)

    def test_fit_needs_one_value_per_node(self):
        with pytest.raises(ValueError):
            ChebyshevInterpolant.fit(lambda t: 1.0, 2.0, 5)

    def test_reproduces_low_degree_polynomials(self):
        # degree m-1 interpolation is exact on degree <= m-1 inputs
        interp = ChebyshevInterpolant.fit(
            lambda t: 2.0 * t ** 3 - t + 0.5, 2.0, 4)
        x = np.linspace(-2.0, 2.0, 41)
        want = 2.0 * x ** 3 - x + 0.5
        assert np.abs(interp(x) - want).max() < 1e-12

    def test_certified_scan_small_m(self):
        # n=0, C=2: the node-count condition asks for m >= 18.63
        m, c = 19, 2.0
        interp = ChebyshevInterpolant.fit(
            lambda t: hermite_gaussian(0, t), c, m)
        x = np.linspace(-c, c, 2001)
        err = np.abs(interp(x) - hermite_gaussian(0, x)).max()
        assert err <= 0.5 ** (m / 2.0)

    def test_wide_window_scan(self):
        interp = ChebyshevInterpolant.fit(
            lambda t: hermite_gaussian(0, t), 4.0, 40)
        x = np.linspace(-4.0, 4.0, 2001)
        assert np.abs(interp(x) - hermite_gaussian(0, x)).max() < 1e-6

    def test_interpolation_property(self):
        # nodes recomputed here land within round-off of the stored ones,
        # so this checks the barycentric form next to its poles
        m, c, n = 24, 3.0, 2
        interp = ChebyshevInterpolant.fit(
            lambda t: hermite_gaussian(n, t), c, m)
        i = np.arange(m)
        nodes = c * np.cos((2.0 * i + 1.0) * math.pi / (2.0 * m + 2.0))
        assert np.abs(interp(nodes)
                      - hermite_gaussian(n, nodes)).max() < 1e-10

    def test_excited_state_certified_scan(self):
        # n=2 on [-3,3]: both node-count conditions hold at m=47 for 1e-3
        n, c, m = 2, 3.0, 47
        ec = math.e * c / math.sqrt(2.0)
        assert m >= ec * (ec + math.sqrt(2.0 * n + 1.0))
        assert m >= 2.0 * math.log(1e3) / math.log(2.0)
        interp = ChebyshevInterpolant.fit(
            lambda t: hermite_gaussian(n, t), c, m)
        x = np.linspace(-c, c, 2001)
        assert np.abs(interp(x) - hermite_gaussian(n, x)).max() <= 1e-3

    def test_guards(self):
        with pytest.raises(ValueError):
            ChebyshevInterpolant.fit(lambda t: t, -1.0, 5)
        with pytest.raises(ValueError):
            ChebyshevInterpolant.fit(lambda t: t, 1.0, 0)


def one_matrix_barycentric(interp, x):
    """The barycentric formula on one (points x nodes) matrix, as referee.

    Rows are reduced in the order the interpolant uses; a gemv would sum
    them in another order and differ by a few ulp of the largest value.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    diff = xs[:, None] - interp.nodes[None, :]
    hit = diff == 0.0
    terms = interp.weights / np.where(hit, 1.0, diff)
    out = (terms * interp.values).sum(axis=1) / terms.sum(axis=1)
    rows, cols = np.nonzero(hit)
    out[rows] = interp.values[cols]
    return out


class TestBlockEvaluation:
    """ChebyshevInterpolant evaluates in fixed-size blocks of points."""

    M = 604

    @pytest.fixture(scope="class")
    def interp(self):
        c = math.sqrt(self.M) / math.e
        return ChebyshevInterpolant.fit(
            lambda t: hermite_gaussian(2, t) - 0.3 * hermite_gaussian(0, t),
            c, self.M)

    @pytest.fixture(scope="class")
    def points(self, interp):
        x = np.linspace(-interp.half_width, interp.half_width, 4095)
        # an exact node, placed past the first block of points
        rows = EVAL_BLOCK_ENTRIES // self.M
        assert 3000 > rows
        x[3000] = interp.nodes[17]
        return x

    def test_matches_one_matrix_formula(self, interp, points):
        tol = 1e-15 * np.abs(interp.values).max()
        got = interp(points)
        assert got.shape == points.shape
        assert np.abs(got - one_matrix_barycentric(interp, points)).max() <= tol
        assert got[3000] == interp.values[17]

    def test_scalar_and_2d_inputs(self, interp, points):
        tol = 1e-15 * np.abs(interp.values).max()
        value = interp(float(points[5]))
        assert isinstance(value, float)
        assert abs(value - one_matrix_barycentric(interp, points[5])[0]) <= tol
        grid = points.reshape(63, 65)
        got = interp(grid)
        assert got.shape == (63, 65)
        assert np.array_equal(got.ravel(), interp(points))

    def test_bits_do_not_depend_on_the_split(self, interp, points):
        whole = interp(points)
        halves = np.concatenate([interp(points[:1001]),
                                 interp(points[1001:])])
        assert np.array_equal(whole, halves)

    def test_memory_is_one_block(self, interp, points):
        tracemalloc.start()
        try:
            interp(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (points x nodes) matrix alone would take 4095 * 604 * 8 B =
        # 19.8 MB; the evaluation holds one 255 KB block buffer
        block = (EVAL_BLOCK_ENTRIES // self.M) * self.M * 8
        assert peak <= 2 * block + points.nbytes

    @pytest.mark.parametrize("entries", [2048, 8192, 65536])
    def test_bits_do_not_depend_on_the_block_size(
            self, interp, points, entries, monkeypatch):
        whole = interp(points)
        monkeypatch.setattr(gauss_pw, "EVAL_BLOCK_ENTRIES", entries)
        assert np.array_equal(interp(points), whole)


def lattice_weights(gamma, l, L, i_max):
    dk = 2.0 * math.pi / L
    idx = np.arange(-i_max, i_max + 1)
    return idx, np.abs(pw_overlap(gamma, l, 0.0, idx * dk, L)) ** 2


def whole_line_reference(gamma, l, a, grid):
    """Dense unit-or-less reference over the grid's axis codewords.

    Normalizes by the whole-line lattice weight, so weight the grid cannot
    represent shows up as missing norm and is charged to the distance.
    """
    dk = grid.dk
    i_far = int(math.ceil((grid.K + 14.0 * math.sqrt(2.0 * gamma)) / dk))
    idx, w = lattice_weights(gamma, l, grid.L, i_far)
    total = float(np.sum(w))
    sgrid = grid.axis_grid()
    ref = np.zeros(2 ** sgrid.n_sites, dtype=complex)
    for i in sgrid.index_values():
        ref[sgrid.dense_index(int(i))] = pw_overlap(
            gamma, l, a, int(i) * dk, grid.L)
    return ref / math.sqrt(total)


class TestProjection1D:
    """Certified normalization, tail and cutoff of one axis projection."""

    @pytest.mark.parametrize("gamma,l,eps", [
        (1.0, 0, 1e-2), (0.25, 2, 1e-3), (4.0, 1, 1e-2),
    ])
    def test_certified_tail_and_norm(self, gamma, l, eps):
        L = 30.0
        grid = PlaneWaveGrid(L=L, K=choose_cutoff(gamma, l, L, eps))
        proj = axis_profile(gamma, l, grid, eps)

        # independent lattice sums
        dk = grid.dk
        i_cut = int(round(proj.cutoff / dk))
        i_far = int(math.ceil((proj.cutoff + 14.0 * math.sqrt(
            2.0 * gamma)) / dk))
        idx, w = lattice_weights(gamma, l, L, i_far)
        total = float(np.sum(w))
        inside = float(np.sum(w[np.abs(idx) <= i_cut]))

        assert proj.n_tilde == pytest.approx(math.sqrt(total), rel=1e-10)
        assert proj.n_tilde >= 2.0 / 3.0
        n_t_ref = min(math.sqrt(inside) / math.sqrt(total), 1.0)
        assert proj.n_t == pytest.approx(n_t_ref, rel=1e-10)

        # discarded momentum weight within the certified budget
        tail = 1.0 - inside / total
        assert tail <= eps ** 2 + 1e-15
        assert 1.0 - eps <= proj.n_t <= 1.0 + 1e-12

        # the kept cutoff satisfies the certified-momentum inequality
        # rebuilt here from scratch (log 20 variant with the measured norm)
        bracket = (2.0 * math.log(1.0 / eps) + math.log(20.0)
                   + math.log(1.0 + 2.0 * math.sqrt(math.pi)
                              / (L * math.sqrt(gamma)))
                   - math.log(proj.n_tilde ** 2)
                   + (l * math.log(4.0 * l) if l else 0.0))
        assert proj.cutoff >= 2.0 * math.sqrt(2.0 * gamma) * math.sqrt(
            bracket)

    @pytest.mark.parametrize("l", range(5))
    def test_profile_is_parity_symmetric(self, l):
        """The profile stores the u >= 0 half; in the train, the sign-1
        branch is the (-1)^l-mirrored, conjugate-phase copy of the sign-0
        branch, and the "-0" codeword is empty."""
        grid, a = PlaneWaveGrid(L=9.0, K=12.0), 0.6
        prof = axis_profile(0.8, l, grid, 1e-4)
        c = prof.i_cut
        assert prof.values.shape == (c + 1,)
        v = dense(primitive_1d_mps(0.8, l, a, grid, 1e-4))
        half = v.size // 2
        pos, neg = v[:half], v[half:]
        phase = np.exp(1j * np.arange(half) * grid.dk * a)
        assert abs(neg[0]) <= 1e-14
        assert np.abs(neg[1:] * phase[1:]
                      - (-1) ** l * pos[1:] / phase[1:]).max() <= 1e-14
        assert np.abs(pos[c + 1:]).max(initial=0.0) <= 1e-14

    @pytest.mark.parametrize("gamma,l,eps,n", [
        (1.0, 0, 1e-6, 20), (1.0, 2, 1e-6, 20), (0.5, 1, 1e-4, 12),
    ])
    def test_negative_end_as_accurate_as_positive(self, gamma, l, eps, n):
        """The lattice end -k_cut sits past the interpolant's last kept
        node when K/dk is just above an integer; it must be as accurate as
        +k_cut."""
        def excess(L):
            return choose_cutoff(gamma, l, L, eps) * L / (2.0 * math.pi) - n

        lo, hi = 1.0, 200.0  # bisect L for K/dk a few ulps above n
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if excess(mid) > 0:
                hi = mid
            else:
                lo = mid
        K = choose_cutoff(gamma, l, hi, eps)
        grid = PlaneWaveGrid(L=hi, K=1.5 * K)
        prof = axis_profile(gamma, l, grid, eps)
        assert prof.i_cut == n
        m = prof.degree + 1
        half_width = K / math.sqrt(2.0 * gamma)
        u = n * grid.dk / math.sqrt(2.0 * gamma)
        last_node = half_width * math.cos((2 * m - 1) * math.pi / (2 * m + 2))
        assert -half_width <= -u < last_node

        h = h_coeffs(l)

        def exact(x):
            return (1j ** l) * sum((-1.0) ** ((k - l) // 2) * h[k]
                                   * psi_ref(k, x) for k in range(l + 1))

        assert abs(prof.values[-1] - exact(u)) <= 1e-16
        # the train's -k_cut entry, back on the profile's scale
        v = dense(primitive_1d_mps(gamma, l, 0.0, grid, eps))
        nrm = math.sqrt(2.0 * np.sum(np.abs(prof.values) ** 2)
                        - abs(prof.values[0]) ** 2)
        assert abs(v[n] * nrm - exact(u)) <= 1e-16
        assert abs(v[v.size // 2 + n] * nrm - exact(-u)) <= 1e-16


def dense_route_train(gamma, l, a, grid, eps):
    """The axis train factored from the whole 2^n grid vector: the profile
    mirrored to u < 0 by its parity, phased by exp(i k a), embedded in the
    sign-magnitude layout and normalized."""
    prof = axis_profile(gamma, l, grid, eps)
    idx = np.arange(-prof.i_cut, prof.i_cut + 1)
    full = np.concatenate([(-1) ** l * prof.values[:0:-1], prof.values])
    coeffs = np.zeros(grid.points_per_axis, dtype=complex)
    off = grid.half_points - prof.i_cut
    coeffs[off:off + idx.size] = full * np.exp(1j * idx * grid.dk * a)
    vec = grid.axis_grid().embed(coeffs / np.linalg.norm(coeffs))
    return tt_core.from_dense(vec, tol=1e-14)


class TestLiveWindow:
    """The live-window train against the dense route, bond for bond."""

    def assert_matches_dense_route(self, gamma, l, a, grid, eps):
        tt = primitive_1d_mps(gamma, l, a, grid, eps)
        ref = dense_route_train(gamma, l, a, grid, eps)
        assert tt.canonical_form == "left"
        assert tt.n_sites == ref.n_sites == grid.qubits_per_axis
        assert np.abs(dense(tt) - dense(ref)).max() <= 1e-12
        assert all(b <= r for b, r in zip(tt.bond_dims, ref.bond_dims))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_inputs_match_the_dense_route(self, seed):
        rng = np.random.default_rng(seed)
        done = 0
        while done < 10:
            gamma = float(rng.uniform(0.2, 4.0))
            l = int(rng.integers(0, 4))
            L, eps = float(rng.uniform(5.0, 30.0)), 10.0 ** rng.uniform(-8, -2)
            K = rng.uniform(0.5, 3.0) * choose_cutoff(gamma, l, L, eps)
            grid = PlaneWaveGrid(L=L, K=K)
            if grid.qubits_per_axis > 12:
                continue
            self.assert_matches_dense_route(
                gamma, l, float(rng.uniform(-3.0, 3.0)), grid, eps)
            done += 1

    @pytest.mark.parametrize("name", SHIPPED_FIXTURES)
    def test_shipped_primitive_matches_the_dense_route(self, name):
        cfg = pipeline.load_config(ROOT / "configs" / f"{name}.json")
        fx = pipeline.load_fixture(
            ROOT / "src" / "ttprep" / "fixtures" / f"{name}.json")
        g = fx.primitives[-1]
        eps = cfg["compression"]["eps_primitive"] / math.sqrt(3.0)
        for axis in range(3):
            self.assert_matches_dense_route(
                g.gamma, g.ang[axis], g.center[axis],
                pipeline.grid_from_config(cfg), eps)

    def test_idle_magnitude_bits_are_identity_sites(self):
        gamma, l, eps = 1.0, 1, 1e-3
        grid = PlaneWaveGrid(L=10.0, K=(2 ** 19 - 0.5) * 2 * math.pi / 10.0)
        tt = primitive_1d_mps(gamma, l, 0.4, grid, eps)
        p = axis_profile(gamma, l, grid, eps).i_cut.bit_length()
        assert grid.qubits_per_axis == 20 and tt.n_sites == 20
        pads = tt.cores[1:20 - p]
        assert len(pads) == 19 - p > 0
        for core in pads:
            r = core.shape[0]
            assert core.shape == (r, 2, r) and r <= 2
            assert np.array_equal(core[:, 0, :], np.eye(r))
            assert not core[:, 1, :].any()
            assert not core.flags.writeable


class TestPrimitive1D:
    @pytest.mark.parametrize("gamma,l,a,eps", [
        (1.0, 0, 0.0, 1e-3), (1.0, 0, 0.7, 1e-3), (1.0, 1, 0.0, 1e-2),
        (0.25, 2, -1.3, 1e-2),
    ])
    def test_trace_distance_within_budget(self, gamma, l, a, eps):
        L = 30.0
        grid = PlaneWaveGrid(L=L, K=choose_cutoff(gamma, l, L, eps))
        tt = primitive_1d_mps(gamma, l, a, grid, eps)
        assert abs(tt_core.norm(tt) - 1.0) < 1e-10
        ref = whole_line_reference(gamma, l, a, grid)
        assert trace_distance_nonunit(ref, dense(tt)) <= eps
        m = axis_profile(gamma, l, grid, eps).degree + 1
        assert tt_core.max_bond_dim(tt) <= 2 * m + 3

    def test_translation_bond_growth_is_bounded(self):
        gamma, l, eps, L = 1.0, 0, 1e-3, 30.0
        grid = PlaneWaveGrid(L=L, K=choose_cutoff(gamma, l, L, eps))
        t0 = primitive_1d_mps(gamma, l, 0.0, grid, eps)
        t1 = primitive_1d_mps(gamma, l, 0.7, grid, eps)
        m = axis_profile(gamma, l, grid, eps).degree + 1
        assert tt_core.max_bond_dim(t1) <= 2 * tt_core.max_bond_dim(t0)
        assert tt_core.max_bond_dim(t1) <= 2 * m + 3

    def test_capacity_guard(self):
        """The cap is on the live window's sites, not on the grid."""
        wide = PlaneWaveGrid(L=30.0, K=900.0)
        assert wide.qubits_per_axis > 12
        assert primitive_1d_mps(1.0, 0, 0.0, wide, 1e-2).n_sites == \
            wide.qubits_per_axis
        grid = PlaneWaveGrid(L=2100.0, K=13.0)
        assert axis_profile(1.0, 0, grid, 1e-2).i_cut.bit_length() + 1 > 12
        with pytest.raises(CapacityError, match="live window"):
            primitive_1d_mps(1.0, 0, 0.0, grid, 1e-2)

    def test_tiny_cell_rejected(self):
        # L = 0.5 puts every lattice point outside psi_1's support
        with pytest.raises(ProjectionError):
            primitive_1d_mps(1.0, 1, 0.0, PlaneWaveGrid(L=0.5, K=13.0), 1e-2)

    def test_eps_guard(self):
        grid = PlaneWaveGrid(L=30.0, K=11.0)
        with pytest.raises(ValueError):
            primitive_1d_mps(1.0, 0, 0.0, grid, 0.0)

    def test_repeat_call_shares_one_read_only_result(self):
        gamma, l, grid, eps = 1.0, 1, PlaneWaveGrid(L=30.0, K=11.0), 1e-3
        args = (gamma, l, 0.4, grid, eps)
        tt = primitive_1d_mps(*args)
        assert primitive_1d_mps(*args) is tt
        prof = axis_profile(gamma, l, grid, eps)
        assert axis_profile(gamma, l, grid, eps) is prof
        for arr in (*tt.cores, prof.values):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            tt.cores[0][...] = 0.0
        axis_profile.cache_clear()
        fresh_tt = primitive_1d_mps.__wrapped__(*args)
        fresh_prof = axis_profile(gamma, l, grid, eps)
        assert fresh_tt is not tt and fresh_prof is not prof
        assert len(fresh_tt.cores) == len(tt.cores)
        for a, b in zip(fresh_tt.cores, tt.cores):
            assert np.array_equal(a, b)
        assert np.array_equal(fresh_prof.values, prof.values)
        assert ((fresh_prof.i_cut, fresh_prof.n_tilde, fresh_prof.n_t,
                 fresh_prof.cutoff, fresh_prof.degree)
                == (prof.i_cut, prof.n_tilde, prof.n_t, prof.cutoff,
                    prof.degree))

    def test_projection_error_raised_on_every_call(self):
        args = (1.0, 1, 0.0, PlaneWaveGrid(L=0.5, K=13.0), 1e-2)
        cached = (primitive_1d_mps.cache_info().currsize,
                  axis_profile.cache_info().currsize)
        for _ in range(3):
            with pytest.raises(ProjectionError):
                primitive_1d_mps(*args)
        assert (primitive_1d_mps.cache_info().currsize,
                axis_profile.cache_info().currsize) == cached

    def test_centres_share_one_fit(self, monkeypatch):
        fit = vars(ChebyshevInterpolant)["fit"].__func__
        calls = []

        def counted(cls, f, half_width, m):
            calls.append(m)
            return fit(cls, f, half_width, m)

        monkeypatch.setattr(ChebyshevInterpolant, "fit", classmethod(counted))
        primitive_1d_mps.cache_clear()
        axis_profile.cache_clear()
        grid = PlaneWaveGrid(L=30.0, K=11.0)
        primitive_1d_mps(1.0, 2, 0.3, grid, 1e-3)
        primitive_1d_mps(1.0, 2, -1.1, grid, 1e-3)
        assert len(calls) == 1

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_shared_profile_train_matches_a_fresh_build(self, l):
        grid = PlaneWaveGrid(L=30.0, K=11.0)
        primitive_1d_mps(1.0, l, 0.3, grid, 1e-3)
        shared_tt = primitive_1d_mps(1.0, l, -0.9, grid, 1e-3)
        primitive_1d_mps.cache_clear()
        axis_profile.cache_clear()
        fresh_tt = primitive_1d_mps(1.0, l, -0.9, grid, 1e-3)
        assert fresh_tt is not shared_tt
        for a, b in zip(fresh_tt.cores, shared_tt.cores, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
    def test_one_fit_matches_the_hermite_sum(self, l):
        # i^l sum_n (-1)^((n-l)/2) h_n psi_n  ==  sum_n i^n h_n psi_n
        gamma, grid = 0.7, PlaneWaveGrid(L=30.0, K=12.0)
        prof = axis_profile(gamma, l, grid, 1e-3)
        u = np.arange(prof.i_cut + 1) * grid.dk / math.sqrt(2.0 * gamma)
        h = h_coeffs(l)
        for sign, mirror in ((1.0, 1.0), (-1.0, (-1.0) ** l)):
            # the u < 0 half is the stored half times the parity (-1)^l
            want = sum(1j ** n * h[n] * hermite_gaussian(n, sign * u)
                       for n in range(l + 1))
            assert np.abs(mirror * prof.values - want).max() < 1e-12
        assert not prof.values.flags.writeable


class TestPrimitive3D:
    def test_s_type_norm_and_distance(self):
        gamma, eps, L = 1.0, 1e-2, 12.0
        k = choose_cutoff(gamma, 0, L, eps / math.sqrt(3.0))
        grid = PlaneWaveGrid(L=L, K=k)
        g = PrimitiveGaussian(center=(0.0, 0.0, 0.0), gamma=gamma,
                              ang=(0, 0, 0))
        tt = primitive_3d_mps(g, grid, eps)
        assert len(tt.cores) == 3 * grid.qubits_per_axis
        assert abs(tt_core.norm(tt) - 1.0) < 1e-10

        axis_ref = whole_line_reference(gamma, 0, 0.0, grid)
        ref = np.kron(np.kron(axis_ref, axis_ref), axis_ref)
        assert trace_distance_nonunit(ref, dense(tt)) <= eps

    def test_p_type_distance(self):
        gamma, eps, L = 1.0, 1e-2, 12.0
        k = choose_cutoff(gamma, 1, L, eps / math.sqrt(3.0))
        grid = PlaneWaveGrid(L=L, K=k)
        g = PrimitiveGaussian(center=(0.4, 0.0, -0.2), gamma=gamma,
                              ang=(1, 0, 0))
        tt = primitive_3d_mps(g, grid, eps)
        rx = whole_line_reference(gamma, 1, 0.4, grid)
        ry = whole_line_reference(gamma, 0, 0.0, grid)
        rz = whole_line_reference(gamma, 0, -0.2, grid)
        ref = np.kron(np.kron(rx, ry), rz)
        assert trace_distance_nonunit(ref, dense(tt)) <= eps

    def test_gram_factors_by_axis(self):
        """The axes join with bond 1, so the Gram of 3D trains is the
        elementwise product of the three per-axis Grams."""
        rng = np.random.default_rng(14)
        eps, L = 1e-3, 12.0
        grid = PlaneWaveGrid(L=L, K=choose_cutoff(0.8, 2, L,
                                                  eps / math.sqrt(3.0)))
        prims = [PrimitiveGaussian(center=tuple(rng.uniform(-1.5, 1.5, 3)),
                                   gamma=rng.uniform(0.8, 1.6),
                                   ang=tuple(rng.integers(0, 3, 3)))
                 for _ in range(6)]
        G = tt_core.gram(primitive_3d_mps(g, grid, eps) for g in prims)
        want = np.ones_like(G)
        for axis in range(3):
            want *= tt_core.gram(
                primitive_1d_mps(g.gamma, g.ang[axis], g.center[axis], grid,
                                 eps / math.sqrt(3.0)) for g in prims)
        assert np.abs(G - want).max() <= 1e-14
        assert np.abs(G - np.eye(len(prims))).max() > 1e-3

    def test_trains_are_unit_and_left(self):
        """Each axis train is unit-norm and "left", so the 3D train is
        "left" too, and the tag is true.  The norm is read from the full
        contraction, not from the last core the tag points at."""
        rng = np.random.default_rng(29)
        eps, L = 1e-3, 10.0
        grid = PlaneWaveGrid(L=L, K=13.0)
        for _ in range(8):
            g = PrimitiveGaussian(center=tuple(rng.uniform(-2.0, 2.0, 3)),
                                  gamma=rng.uniform(0.4, 2.5),
                                  ang=tuple(rng.integers(0, 3, 3)))
            tt = primitive_3d_mps(g, grid, eps)
            assert tt.canonical_form == "left"
            assert max(isometry_residuals(tt)) <= 1e-12
            assert abs(math.sqrt(tt_core.inner_product(tt, tt).real)
                       - 1.0) <= 1e-12

    def test_one_primitive_orbitals_make_no_qr(self, monkeypatch):
        """A one-primitive orbital is its "left" primitive train scaled, so
        the grid stage makes no QR sweep for it."""
        name = "h_like_1s"
        cfg = pipeline.load_config(ROOT / "configs" / f"{name}.json")
        fx = pipeline.load_fixture(
            ROOT / "src" / "ttprep" / "fixtures" / f"{name}.json")
        assert all(len(o.indices) == 1 for o in fx.orbitals)
        calls = []
        original = np.linalg.qr

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        pipeline.grid_stage(cfg, fx)
        assert calls == []

    def test_connecting_bonds_are_one(self):
        gamma, eps, L = 1.0, 1e-1, 12.0
        grid = PlaneWaveGrid(L=L, K=choose_cutoff(gamma, 0, L, eps / 2.0))
        g = PrimitiveGaussian(center=(0.0, 0.0, 0.0), gamma=gamma,
                              ang=(0, 0, 0))
        tt = primitive_3d_mps(g, grid, eps)
        q = grid.qubits_per_axis
        assert tt.bond_dims[q - 1] == 1
        assert tt.bond_dims[2 * q - 1] == 1

    def test_symmetric_primitive_has_identical_axis_profiles(self):
        gamma, eps, L = 1.0, 1e-2, 12.0
        grid = PlaneWaveGrid(L=L, K=choose_cutoff(gamma, 0, L,
                                                  eps / math.sqrt(3.0)))
        g = PrimitiveGaussian(center=(0.0, 0.0, 0.0), gamma=gamma,
                              ang=(0, 0, 0))
        tt = primitive_3d_mps(g, grid, eps)
        q = grid.qubits_per_axis
        axis_x = tt.bond_dims[:q - 1]
        axis_y = tt.bond_dims[q:2 * q - 1]
        axis_z = tt.bond_dims[2 * q:]
        assert axis_x == axis_y == axis_z


class TestPlaneWaveGrid:
    def test_counts(self):
        grid = PlaneWaveGrid(L=30.0, K=3.0)
        assert grid.dk == pytest.approx(2.0 * math.pi / 30.0, rel=1e-15)
        assert grid.half_points == math.floor(3.0 * 30.0 / (2.0 * math.pi))
        assert grid.points_per_axis == 2 * grid.half_points + 1
        assert grid.points_per_axis % 2 == 1
        assert grid.qubits_per_axis == math.ceil(
            math.log2(grid.points_per_axis))
        assert grid.n_total == grid.points_per_axis ** 3

    @pytest.mark.parametrize("k", [3, 53, 60])
    def test_qubit_count_is_exact_for_any_grid(self, k):
        """2^(k+1) + 1 points need k + 2 qubits, also past float
        precision."""
        grid = PlaneWaveGrid(L=2.0 * math.pi, K=float(2 ** k))
        assert grid.points_per_axis == 2 ** (k + 1) + 1
        assert grid.qubits_per_axis == k + 2

    def test_energy_cutoff_form(self):
        grid = PlaneWaveGrid.from_energy_cutoff(30.0, 2.0)
        assert grid.K == pytest.approx(2.0, rel=1e-15)
        assert grid == PlaneWaveGrid(L=30.0, K=grid.K)

    def test_axis_grid_layout(self):
        grid = PlaneWaveGrid(L=30.0, K=3.0)
        sg = grid.axis_grid()
        assert sg.n_points == grid.points_per_axis
        assert sg.a == pytest.approx(grid.half_points * grid.dk, rel=1e-15)
        assert sg.spacing == pytest.approx(grid.dk, rel=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            PlaneWaveGrid(L=-1.0, K=2.0)
        with pytest.raises(ValueError):
            PlaneWaveGrid(L=30.0, K=0.05)  # resolves no nonzero momentum
        with pytest.raises(ValueError):
            PlaneWaveGrid.from_energy_cutoff(30.0, 0.0)


def axis_norm_const(gamma: float, l: int) -> float:
    """The constant N with N^2 * integral x^(2l) exp(-2 gamma x^2) dx = 1."""
    return (2.0 ** l * (2.0 * gamma) ** (l / 2 + 0.25)
            * math.sqrt(math.factorial(l))
            / (math.pi ** 0.25 * math.sqrt(math.factorial(2 * l))))


class TestPrimitiveGaussian:
    def test_axis_norm_quadrature(self):
        g = PrimitiveGaussian(center=(0.0, 0.0, 0.0), gamma=0.8,
                              ang=(0, 2, 5))
        x = np.linspace(-14.0, 14.0, 20001)
        for axis in range(3):
            l = g.ang[axis]
            f = (axis_norm_const(g.gamma, l) * x ** l
                 * np.exp(-g.gamma * x ** 2))
            assert abs(np.trapezoid(f * f, x) - 1.0) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            PrimitiveGaussian(center=(0.0, 0.0), gamma=1.0, ang=(0, 0, 0))
        with pytest.raises(ValueError):
            PrimitiveGaussian(center=(0.0, 0.0, 0.0), gamma=-1.0,
                              ang=(0, 0, 0))
        with pytest.raises(ValueError):
            PrimitiveGaussian(center=(0.0, 0.0, 0.0), gamma=1.0,
                              ang=(0, 0, MAX_ANGULAR_MOMENTUM + 1))


def test_projection_normalization_near_one_for_wide_cell():
    # dense lattice: the Riemann sum of the spectral density is the norm
    assert projection_normalization(1.0, 0, 30.0) == pytest.approx(
        1.0, abs=1e-4)
    # the closed form against a brute-force lattice sum, over cells from
    # tiny (below the 2/3 floor, where the images cancel to round-off) to
    # wide, and every angular momentum
    start, far_from_one = time.perf_counter(), 0
    for l in range(MAX_ANGULAR_MOMENTUM + 1):
        for gamma in (0.05, 0.25, 1.0, 4.0, 25.0):
            for L in (3.0, 6.0, 10.0, 30.0):
                i_far = math.ceil(14.0 * math.sqrt(2.0 * gamma) * L
                                  / (2.0 * math.pi)) + 1
                want = math.sqrt(float(np.sum(
                    lattice_weights(gamma, l, L, i_far)[1])))
                if want < 2.0 / 3.0:
                    with pytest.raises(ProjectionError):
                        axis_profile(gamma, l, PlaneWaveGrid(L=L, K=13.0),
                                     1e-2)
                    continue
                far_from_one += abs(want ** 2 - 1.0) > 0.1
                assert projection_normalization(gamma, l, L) == \
                    pytest.approx(want, rel=1e-12), (gamma, l, L)
    assert far_from_one >= 10
    assert time.perf_counter() - start < 5.0

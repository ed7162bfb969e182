"""Overlap Gram matrices, canonical orthogonalization, orbital train sums."""

import math

import numpy as np
import pytest

from ttprep import oracle, orbital_builder, tt_core
from ttprep.gauss_pw import (PlaneWaveGrid, PrimitiveGaussian, choose_cutoff,
                             primitive_3d_mps)
from ttprep.orbital_builder import (DegenerateOrbitalError, EmptyBasisError,
                                    OrbitalMPS, build_orbitals, canonical_orthogonalize,
                                    infidelity_estimate, mo_bond_bound,
                                    overlap_matrix, truncate_mo,
                                    truncate_mo_each)

from conftest import assert_joined, dense, random_tt, recording_sums


def s_prim(center, gamma=1.0):
    return PrimitiveGaussian(center=center, gamma=gamma, ang=(0, 0, 0))


def small_grid(gamma=1.0, L=14.0, eps=1e-4):
    return PlaneWaveGrid(L=L, K=choose_cutoff(gamma, 0, L, eps / math.sqrt(3)))


def orbital(tts, coeffs):
    """The orbital sum_g coeffs[g] * tts[g], built by build_orbitals."""
    (o,) = build_orbitals(tts, [(range(len(tts)), coeffs)])
    return o


def projected(prims, grid, eps=1e-4):
    return [primitive_3d_mps(g, grid, eps) for g in prims]


def random_unit_diag_spd(rng, n):
    """Random Hermitian PSD matrix with exact unit diagonal."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = A @ A.conj().T + n * np.eye(n)
    d = np.sqrt(np.diag(S).real)
    S = S / np.outer(d, d)
    return (S + S.conj().T) / 2.0


class TestCanonicalOrthogonalize:
    def test_two_by_two_worked_case(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        basis = canonical_orthogonalize(S, sigma=0.1)
        assert basis.kept == 2
        assert np.allclose(basis.eigenvalues, [1.5, 0.5], atol=1e-14)
        gram = basis.x_tilde.conj().T @ S @ basis.x_tilde
        assert np.abs(gram - np.eye(2)).max() < 1e-12

    def test_cutoff_drops_soft_directions(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        basis = canonical_orthogonalize(S, sigma=0.6)
        assert basis.kept == 1
        assert basis.eigenvalues[0] == pytest.approx(1.5, abs=1e-14)

    def test_random_spd_whitening(self, rng):
        sigma = 1e-4
        for n in rng.integers(2, 20, size=20):
            S = random_unit_diag_spd(rng, int(n))
            if np.linalg.cond(S) > 1e8:
                continue
            basis = canonical_orthogonalize(S, sigma=sigma)
            gram = basis.x_tilde.conj().T @ S @ basis.x_tilde
            assert np.abs(gram - np.eye(basis.kept)).max() < 1e-9
            w = np.linalg.eigvalsh(S)
            assert basis.kept == int(np.sum(w >= sigma))
            assert np.all(np.diff(basis.eigenvalues) <= 1e-14)
            # every column respects the coefficient bound sigma implies
            for j in range(basis.kept):
                col = basis.x_tilde[:, j]
                assert np.linalg.norm(col) <= 1.0 / sigma * (1 + 1e-9)

    def test_empty_basis(self):
        with pytest.raises(EmptyBasisError):
            canonical_orthogonalize(np.eye(3), sigma=2.0)
        with pytest.raises(ValueError):
            canonical_orthogonalize(np.eye(3), sigma=0.0)


class TestOverlapMatrixBuild:
    def test_two_center_closed_form(self):
        # equal-exponent s overlaps: exp(-(gamma/2) d^2), here exp(-2)
        gamma, d = 1.0, 2.0
        grid = small_grid(gamma=gamma)
        prims = [s_prim((0.0, 0.0, 0.0), gamma), s_prim((d, 0.0, 0.0), gamma)]
        S = overlap_matrix(prims, projected(prims, grid))
        assert abs(S[0, 1] - math.exp(-2.0)) < 1e-6
        assert S[1, 0] == np.conj(S[0, 1])
        assert S[0, 0] == 1.0 and S[1, 1] == 1.0

    def test_precomputed_trains_shortcut(self):
        grid = small_grid()
        prims = [s_prim((0.0, 0.0, 0.0)), s_prim((1.0, 0.5, 0.0))]
        tts = projected(prims, grid)
        with pytest.raises(ValueError):
            overlap_matrix(prims, tts[:1])
        with pytest.raises(ValueError):
            overlap_matrix([], [])


class TestBuildMoMps:
    def test_single_primitive_unit_norm(self):
        grid = small_grid()
        tts = projected((s_prim((0.0, 0.0, 0.0)),), grid)
        o = orbital(tts, np.array([1.0]))
        assert abs(o.raw_norm_sq - 1.0) < 1e-4
        assert abs(tt_core.norm(o.tt) - 1.0) < 1e-10
        assert o.infidelity == abs(1.0 - o.raw_norm_sq)
        # coefficient 1 on one primitive reproduces the primitive train
        assert np.abs(dense(o.tt) - dense(tts[0])).max() < 1e-10

    def test_distant_pair_has_unit_raw_norm(self):
        # centers 6 Bohr apart: overlap exp(-18), numerically orthogonal
        grid = PlaneWaveGrid(
            L=20.0, K=choose_cutoff(1.0, 0, 20.0, 1e-4 / math.sqrt(3)))
        prims = (s_prim((-3.0, 0.0, 0.0)), s_prim((3.0, 0.0, 0.0)))
        c = np.array([1.0, 1.0]) / math.sqrt(2.0)
        o = orbital(projected(prims, grid), c)
        assert abs(o.raw_norm_sq - 1.0) < 1e-4

    def test_matches_dense_combination(self):
        grid = small_grid()
        prims = (s_prim((0.0, 0.0, 0.0)), s_prim((1.2, 0.0, 0.0)))
        tts = projected(prims, grid)
        c = np.array([0.6, -0.8])
        o = orbital(tts, c)
        ref = c[0] * dense(tts[0]) + c[1] * dense(tts[1])
        assert o.raw_norm_sq == pytest.approx(
            float(np.linalg.norm(ref)) ** 2, rel=1e-7)
        got = dense(o.tt)
        ref_unit = ref / np.linalg.norm(ref)
        # global phase is fixed by construction, so compare directly
        assert np.abs(got - ref_unit).max() < 1e-6

    def test_whitened_column_has_unit_raw_norm(self):
        grid = small_grid()
        prims = (s_prim((0.0, 0.0, 0.0)), s_prim((1.0, 0.0, 0.0)))
        tts = [primitive_3d_mps(g, grid, 1e-4) for g in prims]
        S = overlap_matrix(prims, tts)
        basis = canonical_orthogonalize(S, sigma=1e-6)
        for j in range(basis.kept):
            o = orbital(tts, basis.x_tilde[:, j])
            assert abs(o.raw_norm_sq - 1.0) < 1e-4
            assert infidelity_estimate(o) < 1e-2

    def test_cancellation_detected(self):
        grid = small_grid()
        p = s_prim((0.0, 0.0, 0.0))
        tt = primitive_3d_mps(p, grid, 1e-4)
        with pytest.raises(DegenerateOrbitalError):
            orbital([tt, tt], np.array([1.0, -1.0]))

    def test_argument_guards(self):
        """A negative cutoff is an error, for a single primitive and for a
        sum alike, one cutoff or several."""
        tts = projected((s_prim((0.0, 0.0, 0.0)), s_prim((0.9, 0.0, 0.0))),
                        small_grid())
        for o in (orbital(tts[:1], np.array([1.0])),
                  orbital(tts, np.array([0.7, 0.7]))):
            with pytest.raises(ValueError):
                truncate_mo(o, -1.0)
            with pytest.raises(ValueError):
                truncate_mo_each(o, [0.0, -1.0])


def chain_sum(coeffs, tts, eps_sum):
    """The sum-then-round chain in coefficient order, for comparison."""
    acc = tt_core.scale(tts[0], complex(coeffs[0]))
    for c, tt in zip(coeffs[1:], tts[1:]):
        acc = tt_core.round(tt_core.canonical_sum([acc, tt], [1.0, c]),
                            eps_sum)
    return acc


def random_primitives(rng, n_prims):
    """Off-axis primitives with l <= 2 per axis, as basis-scaling draws."""
    return tuple(PrimitiveGaussian(
        center=tuple(float(x) for x in rng.uniform(-1.5, 1.5, 3)),
        gamma=float(rng.uniform(0.6, 1.6)),
        ang=tuple(int(a) for a in rng.integers(0, 3, 3)))
        for _ in range(n_prims))


def random_coeffs(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestMergeOrder:
    @pytest.mark.parametrize("n_prims", [1])
    def test_few_primitives_equal_the_chain_bit_for_bit(self, rng, n_prims):
        grid = PlaneWaveGrid(L=10.0, K=10.0)
        prims = random_primitives(rng, n_prims)
        tts = projected(prims, grid, 1e-3)
        c = random_coeffs(rng, n_prims)
        o = orbital(tts, c)
        acc = tt_core.left_canonicalize(chain_sum(c, tts, 1e-6))
        raw = float(np.linalg.norm(acc.cores[-1])) ** 2
        assert o.raw_norm_sq == raw
        assert o.tt.canonical_form == "left"
        want = tt_core.scale(acc, 1.0 / math.sqrt(raw))
        assert len(o.tt.cores) == len(want.cores)
        for got, ref in zip(o.tt.cores, want.cores):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n_prims,K", [(5, 10.0), (6, 15.0), (7, 10.0),
                                           (8, 15.0)])
    def test_many_primitives_agree_with_the_referee(self, rng, n_prims, K):
        grid = PlaneWaveGrid(L=10.0, K=K)
        assert grid.qubits_per_axis in (5, 6)
        prims = random_primitives(rng, n_prims)
        tts = projected(prims, grid, 1e-3)
        c = random_coeffs(rng, n_prims)
        o = orbital(tts, c)
        axes = [oracle.axis_vectors(tt, grid.qubits_per_axis) for tt in tts]
        nrm_sq = sum((np.conj(ci) * cj * oracle.product_overlap(u, v)).real
                     for ci, u in zip(c, axes) for cj, v in zip(c, axes))
        assert o.raw_norm_sq == pytest.approx(nrm_sq, rel=1e-8)
        # |t - T| for unit t = sum_g c_g p_g / |.| and unit T, as the
        # oracle's tt_vs_dense_orbital check computes it, at its tolerance
        overlap = sum(np.conj(c) * oracle.kron_overlap(np.array(axes), o.tt))
        diff = math.sqrt(max(0.0, 2.0 - 2.0 * overlap.real
                             / math.sqrt(nrm_sq)))
        assert o.build_error == 0.0
        assert diff <= max(1e-6, math.sqrt(2) * infidelity_estimate(o))

    @pytest.mark.parametrize("n_prims", [1, 2, 3, 4, 5, 8, 9])
    def test_rounds_once_per_merge(self, rng, monkeypatch, n_prims):
        """A list at most MAX_SUM_WIDTH wide is one exact canonical_sum,
        with no round and no join; its one rounding is truncate_mo's, on
        the "left" unit orbital.  One column wider, each half of two or
        more primitives is one exact "left" sum, rounded once, and a
        single-train half is only scaled (at G = 2 neither half is rounded,
        at G = 3 only the second); the halves are joined by one more
        canonical_sum, unrounded, before that one truncation.  Every
        rounding gets a "left" train: none sweeps QR."""
        leaves = [random_tt(rng, 6, max_bond=3) for _ in range(n_prims)]
        c = random_coeffs(rng, n_prims)
        width = max(sum(t.cores[j].shape[2] for t in leaves)
                    for j in range(5))
        want = sum(ci * dense(t) for ci, t in zip(c, leaves))
        original_round = tt_core.round

        def counting_round(a, svd_cutoff):
            rounds.append(a.canonical_form)
            return original_round(a, svd_cutoff)

        monkeypatch.setattr(tt_core, "round", counting_round)
        sums = recording_sums(monkeypatch)
        halves = (n_prims // 2, n_prims - n_prims // 2)
        for cap, n_rounds, joins in (
                (width, 0, 0),
                (width - 1, sum(h > 1 for h in halves), min(n_prims - 1, 1))):
            monkeypatch.setattr(orbital_builder, "MAX_SUM_WIDTH", cap)
            rounds = []
            sums.clear()
            o = orbital(leaves, c)
            assert rounds == ["left"] * n_rounds, cap
            assert [k for k, _ in sums].count("join") == joins, cap
            assert o.tt.canonical_form == "left"
            t = truncate_mo(o, 1e-12)
            assert rounds == ["left"] * (n_rounds + 1), cap
            assert o.raw_norm_sq == pytest.approx(
                float(np.vdot(want, want).real), rel=1e-10)
            for mo in (o, t):
                got = dense(mo.tt) * math.sqrt(mo.raw_norm_sq)
                assert (np.linalg.norm(got - want)
                        <= 1e-10 * np.linalg.norm(want)), cap

    def test_wide_list_keeps_the_halves_bit_for_bit(self, rng, monkeypatch):
        """40 bond-3 trains are 120 wide, over a cap of 106: each half of 20
        is one exact sum, rounded at EPS_SUM, and the halves are joined by
        one exact canonical_sum, unrounded.  The orbital records the
        halves' truncation errors as its build_error."""
        n_prims, eps = 40, orbital_builder.EPS_SUM
        bonds = [1, 3, 3, 3, 3, 3, 1]
        leaves = [tt_core.TensorTrain(
            [rng.standard_normal((l, 2, r)) + 1j * rng.standard_normal(
                (l, 2, r)) for l, r in zip(bonds, bonds[1:])])
            for _ in range(n_prims)]
        monkeypatch.setattr(orbital_builder, "MAX_SUM_WIDTH", 106)
        assert 3 * n_prims > orbital_builder.MAX_SUM_WIDTH
        c = random_coeffs(rng, n_prims)
        o = orbital(leaves, c)
        halves = [tt_core.round(tt_core.canonical_sum(leaves[s], c[s]), eps)
                  for s in (slice(0, 20), slice(20, None))]
        assert o.build_error == sum(h.truncation_error for h in halves)
        assert_joined(o, halves, dense(halves[0]) + dense(halves[1]))

    def test_no_exact_sum_wider_than_the_cap(self, rng, monkeypatch):
        """At a cap of 106, 36 random l <= 2 primitives on a 7-qubit grid
        are too wide to sum at once, and each half fits under the cap.
        80 bond-3 trains are 240 wide, over twice the cap: each half is
        halved again, into four exact sums of 60, and the orbital is still
        the dense sum.  The joins of rounded halves are not capped: one
        per halving, three for 80 trains."""
        monkeypatch.setattr(orbital_builder, "MAX_SUM_WIDTH", 106)
        grid = PlaneWaveGrid(L=10.0, K=20.5)
        assert grid.qubits_per_axis == 7
        tts = projected(random_primitives(rng, 36), grid, 1e-3)
        bonds = [1, 3, 3, 3, 3, 3, 1]
        leaves = [tt_core.TensorTrain(
            [rng.standard_normal((l, 2, r)) + 1j * rng.standard_normal(
                (l, 2, r)) for l, r in zip(bonds, bonds[1:])])
            for _ in range(80)]
        sums = recording_sums(monkeypatch)
        orbital(tts, random_coeffs(rng, 36))
        widths = [w for k, w in sums if k == "sum"]
        assert len(widths) == 2 and len(sums) == 3
        assert max(widths) <= orbital_builder.MAX_SUM_WIDTH
        sums.clear()
        c = random_coeffs(rng, 80)
        o = orbital(leaves, c)
        assert 3 * len(leaves) > 2 * orbital_builder.MAX_SUM_WIDTH
        assert [w for k, w in sums if k == "sum"] == [60] * 4
        assert [k for k, _ in sums].count("join") == 3
        want = sum(ci * dense(t) for ci, t in zip(c, leaves))
        got = dense(o.tt) * math.sqrt(o.raw_norm_sq)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _recording_round(monkeypatch) -> list:
    """Record the cutoffs of every tt_core.round_each call, which each
    tt_core.round makes once."""
    calls, original = [], tt_core.round_each

    def recording(a, cutoffs):
        calls.append(list(cutoffs))
        return original(a, cutoffs)

    monkeypatch.setattr(tt_core, "round_each", recording)
    return calls


class TestTruncateMo:
    def _orbital(self):
        grid = small_grid()
        prims = (s_prim((0.0, 0.0, 0.0)), s_prim((0.9, 0.4, 0.0)))
        return orbital(projected(prims, grid), np.array([0.7, 0.7]))

    def _one_primitive(self):
        tts = projected((s_prim((0.0, 0.0, 0.0)),), small_grid())
        return orbital(tts, np.array([1.0]))

    def test_zero_eps_rounds_at_eps_sum(self):
        """A single primitive is rounded like a sum: at 0 it is its train
        rounded at EPS_SUM and renormalized, bit for bit, with raw_norm_sq
        times the squared norm the rounding kept."""
        o = self._one_primitive()
        rounded = tt_core.round(o.tt, orbital_builder.EPS_SUM)
        rho = tt_core.norm(rounded)
        want = tt_core.scale(rounded, 1.0 / rho)
        for t in (truncate_mo(o, 0.0), *truncate_mo_each(o, [0.0])):
            assert t.raw_norm_sq == o.raw_norm_sq * rho ** 2
            assert t.tt.canonical_form == "right"
            assert all(np.array_equal(a, b)
                       for a, b in zip(t.tt.cores, want.cores))

    def test_one_primitive_is_rounded_at_least_at_eps_sum(self, monkeypatch):
        """A single primitive is rounded at max(svd_cutoff, EPS_SUM), as a
        sum is."""
        eps = orbital_builder.EPS_SUM
        o = self._one_primitive()
        cutoffs = _recording_round(monkeypatch)
        for svd in (0.0, 1e-12, 1e-4):
            truncate_mo(o, svd)
        truncate_mo_each(o, [0.0, 1e-12, 1e-4])
        assert cutoffs == [[eps], [eps], [1e-4], [eps, eps, 1e-4]]

    @pytest.mark.parametrize("n_prims", [2, 3, 40])
    def test_a_sum_is_rounded_at_least_at_eps_sum(self, rng, monkeypatch,
                                                   n_prims):
        """A sum is rounded at EPS_SUM or above: at 0 and at EPS_SUM / 3 it
        equals its rounding at EPS_SUM bit for bit, and at 1e-4 it is
        rounded at 1e-4."""
        eps = orbital_builder.EPS_SUM
        o = orbital([random_tt(rng, 6, max_bond=3) for _ in range(n_prims)],
                    random_coeffs(rng, n_prims))
        want = truncate_mo(o, eps)
        cutoffs = _recording_round(monkeypatch)
        got = [truncate_mo(o, 0.0), truncate_mo(o, eps / 3),
               *truncate_mo_each(o, [0.0, eps / 3])]
        for t in got:
            assert t.raw_norm_sq == want.raw_norm_sq
            assert all(np.array_equal(a, b)
                       for a, b in zip(t.tt.cores, want.tt.cores))
        truncate_mo(o, 1e-4)
        assert cutoffs == [[eps], [eps], [eps, eps], [1e-4]]

    def test_monotone_in_eps(self):
        o = self._orbital()
        last_inf, last_bond = -1.0, None
        for eps in (1e-10, 1e-6, 1e-3, 1e-1):
            t = truncate_mo(o, eps)
            assert abs(tt_core.norm(t.tt) - 1.0) < 1e-10
            assert t.raw_norm_sq <= o.raw_norm_sq + 1e-12
            inf = infidelity_estimate(t)
            assert inf >= last_inf - 1e-12
            bond = tt_core.max_bond_dim(t.tt)
            if last_bond is not None:
                assert bond <= last_bond
            last_inf, last_bond = inf, bond

    def test_full_cutoff_collapses_bonds(self):
        t = truncate_mo(self._orbital(), 1.0)
        assert all(d == 1 for d in t.tt.bond_dims)
        assert abs(tt_core.norm(t.tt) - 1.0) < 1e-10

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            truncate_mo(self._orbital(), -1e-3)

    def test_estimate_matches_dense_oracle(self):
        # 2^5 points per axis keeps the dense 3D reference affordable
        grid = PlaneWaveGrid(L=10.0, K=10.0)
        assert grid.qubits_per_axis == 5
        prims = (s_prim((0.0, 0.0, 0.0)), s_prim((1.5, 0.0, 0.0)))
        tts = projected(prims, grid, 1e-3)
        S = overlap_matrix(prims, tts)
        basis = canonical_orthogonalize(S, sigma=1e-6)
        c = basis.x_tilde[:, 0]
        o = orbital(tts, c)
        t = truncate_mo(o, 1e-3)

        u = c[0] * dense(tts[0]) + c[1] * dense(tts[1])
        u = u / np.linalg.norm(u)
        overlap = abs(np.vdot(u, dense(t.tt)))
        d_dense = math.sqrt(max(0.0, 1.0 - overlap ** 2))
        assert abs(d_dense - infidelity_estimate(t)) < 1e-6


class TestInfidelityEstimate:
    def _wrap(self, raw):
        t = tt_core.from_dense(np.array([1.0, 0.0], dtype=complex), 1e-14)
        return OrbitalMPS(tt=t, raw_norm_sq=raw)

    def test_values(self):
        assert infidelity_estimate(self._wrap(0.99)) == pytest.approx(
            0.1, rel=1e-12)
        assert infidelity_estimate(self._wrap(1.02)) == 0.0


class TestCertifiedBounds:
    def test_bond_bound_regression(self):
        assert mo_bond_bound(1, 0.1, 0.1, 0) == 2605

    def test_bond_bound_retype(self):
        n_g, eps, sigma, ell = 3, 1e-2, 1e-3, 2
        bracket = (2.0 * math.log(288.0 * math.sqrt(3.0) * n_g
                                  / (eps ** 4 * sigma ** 2))
                   + ell * math.log(4.0 * ell))
        want = math.ceil(8.0 * math.e ** 2 * n_g * (bracket + 4.0))
        assert mo_bond_bound(n_g, eps, sigma, ell) == want

    def test_bond_bound_monotonicity(self):
        assert mo_bond_bound(2, 1e-2, 1e-3, 0) >= mo_bond_bound(
            1, 1e-2, 1e-3, 0)
        assert mo_bond_bound(1, 1e-3, 1e-3, 0) >= mo_bond_bound(
            1, 1e-2, 1e-3, 0)

    def test_measured_bond_under_certified_bound(self):
        grid = small_grid()
        prims = (s_prim((0.0, 0.0, 0.0)), s_prim((1.0, 0.0, 0.0)))
        o = orbital(projected(prims, grid, 1e-3), np.array([0.6, 0.5]))
        assert tt_core.max_bond_dim(o.tt) <= mo_bond_bound(
            len(prims), 1e-3, 0.1, 0)

    def test_guards(self):
        with pytest.raises(ValueError):
            mo_bond_bound(0, 0.1, 0.1, 0)
        with pytest.raises(ValueError):
            mo_bond_bound(1, 1.5, 0.1, 0)

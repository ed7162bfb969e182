"""Tensor-train engine checks against dense brute force."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttprep import tt_core
from ttprep.tt_core import CapacityError, ShapeError, TensorTrain

from conftest import (dense, isometry_residuals, random_tt, random_vector,
                      tt_entry)

sites = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _rng(seed):
    return np.random.default_rng(seed)


class TestFromDenseInput:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ShapeError):
            tt_core.from_dense(np.ones(3))

    def test_rejects_scalar_and_matrix(self):
        with pytest.raises(ShapeError):
            tt_core.from_dense(np.ones(1))
        with pytest.raises(ShapeError):
            tt_core.from_dense(np.ones((2, 2)))

    def test_site_count(self):
        assert tt_core.from_dense(np.ones(16)).n_sites == 4


class TestConstruction:
    def test_bond_mismatch_rejected(self):
        a = np.ones((1, 2, 3))
        b = np.ones((2, 2, 1))
        with pytest.raises(ShapeError):
            TensorTrain([a, b])

    def test_boundary_bonds_must_be_one(self):
        with pytest.raises(ShapeError):
            TensorTrain([np.ones((2, 2, 1))])
        with pytest.raises(ShapeError):
            TensorTrain([np.ones((1, 2, 2))])

    def test_site_dimension_must_be_two(self):
        with pytest.raises(ShapeError):
            TensorTrain([np.ones((1, 3, 1))])

    def test_single_site(self):
        t = TensorTrain([np.ones((1, 2, 1))])
        assert t.bond_dims == ()
        assert tt_core.max_bond_dim(t) == 1


@settings(deadline=None, max_examples=30)
@given(sites, seeds)
def test_round_trip(n, seed):
    v = random_vector(_rng(seed), n)
    t = tt_core.from_dense(v)
    assert t.canonical_form == "left"
    err = np.linalg.norm(dense(t) - v)
    assert err < 1e-10 * np.linalg.norm(v)
    # second trip through the factorization changes nothing measurable
    again = tt_core.from_dense(dense(t))
    assert np.linalg.norm(dense(again) - v) < 1e-10 * np.linalg.norm(v)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=8), seeds)
def test_from_dense_is_left_canonical(n, seed):
    t = tt_core.from_dense(random_vector(_rng(seed), n))
    assert all(r < 1e-12 for r in isometry_residuals(t))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=8), seeds,
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_linearity(n, seed_a, seed_b):
    rng_a, rng_b = _rng(seed_a), _rng(seed_b)
    a = random_tt(rng_a, n)
    b = random_tt(rng_b, n)
    alpha = complex(rng_a.standard_normal(), rng_a.standard_normal())
    beta = complex(rng_b.standard_normal(), rng_b.standard_normal())
    combo = tt_core.add(tt_core.scale(a, alpha), tt_core.scale(b, beta))
    want = alpha * dense(a) + beta * dense(b)
    norm = max(np.linalg.norm(want), 1.0)
    assert np.linalg.norm(dense(combo) - want) < 1e-10 * norm


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=8), seeds)
def test_add_bond_rule(n, seed):
    rng = _rng(seed)
    a = random_tt(rng, n)
    b = random_tt(rng, n)
    got = tt_core.add(a, b).bond_dims
    want = tuple(x + y for x, y in zip(a.bond_dims, b.bond_dims))
    assert got == want


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5), seeds)
def test_tensor_product(na, nb, seed):
    rng = _rng(seed)
    a = random_tt(rng, na, max_bond=3)
    b = random_tt(rng, nb, max_bond=3)
    prod = tt_core.tensor_product(a, b)
    want = np.kron(dense(a), dense(b))
    assert prod.bond_dims == a.bond_dims + (1,) + b.bond_dims
    assert np.linalg.norm(dense(prod) - want) < 1e-10 * max(
        np.linalg.norm(want), 1.0)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=8), seeds)
def test_inner_product_and_norm(n, seed):
    rng = _rng(seed)
    a = random_tt(rng, n)
    b = random_tt(rng, n)
    want = np.vdot(dense(a), dense(b))
    assert abs(tt_core.inner_product(a, b) - want) < 1e-10 * max(
        abs(want), 1.0)
    assert math.isclose(tt_core.norm(a), np.linalg.norm(dense(a)),
                        rel_tol=1e-10)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=8), seeds)
def test_left_canonicalize_preserves_vector(n, seed):
    a = random_tt(_rng(seed), n)
    c = tt_core.left_canonicalize(a)
    assert c.canonical_form == "left"
    assert np.linalg.norm(dense(c) - dense(a)) < 1e-10 * max(
        np.linalg.norm(dense(a)), 1.0)
    assert all(r < 1e-12 for r in isometry_residuals(c))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=8), seeds,
       st.sampled_from([0.0, 1e-10, 1e-4, 1e-2, 0.3]))
def test_round_error_bound(n, seed, cutoff):
    a = random_tt(_rng(seed), n, max_bond=5)
    r = tt_core.round(a, cutoff)
    err = np.linalg.norm(dense(r) - dense(a))
    # the asserted contract: true error <= reported discarded-weight bound
    assert err <= r.truncation_error + 1e-10 * np.linalg.norm(dense(a))
    assert all(x <= y for x, y in zip(r.bond_dims, a.bond_dims))


def right_isometry_residuals(a: TensorTrain) -> list[float]:
    """Per-core deviation ||A A^H - I||_F of the right-isometry property.

    The first core is excluded; it carries the norm.
    """
    out = []
    for c in a.cores[1:]:
        l, _, r = c.shape
        m = c.reshape(l, 2 * r)
        out.append(float(np.linalg.norm(m @ m.conj().T - np.eye(l))))
    return out


def _tagged_trains(rng, n):
    """(label, train) from every operation that sets or keeps a tag."""
    none = random_tt(rng, n, max_bond=5)
    left = tt_core.from_dense(random_vector(rng, n))
    right = tt_core.round(none, 0.0)
    alpha = complex(rng.standard_normal(), rng.standard_normal())
    out = [("from_dense", left), ("none", none),
           ("left_canonicalize", tt_core.left_canonicalize(none))]
    for cut in (0.0, 1e-3, 0.3):
        out.append((f"round({cut})", tt_core.round(none, cut)))
        out.append((f"round_left({cut})", tt_core.round(left, cut)))
    out += [(f"scale({label})", tt_core.scale(t, alpha))
            for label, t in list(out)]
    out += [("add", tt_core.add(left, right)),
            ("canonical_sum",
             tt_core.canonical_sum([none, left, right], [alpha, 1.0, -2.0])),
            ("tensor_product", tt_core.tensor_product(left, right)),
            ("tensor_product_unit_left", tt_core.tensor_product(
                tt_core.scale(left, 1.0 / tt_core.norm(left)), left)),
            ("from_debug_json",
             tt_core.from_debug_json(tt_core.to_debug_json(left)))]
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_every_canonical_tag_is_true(n):
    """A "left" or "right" tag is trusted by norm and round, so every
    operation that sets or keeps one must leave isometric cores behind."""
    forms = set()
    for label, t in _tagged_trains(_rng(300 + n), n):
        forms.add(t.canonical_form)
        if t.canonical_form == "left":
            assert max(isometry_residuals(t), default=0.0) <= 1e-12, label
        elif t.canonical_form == "right":
            assert max(right_isometry_residuals(t), default=0.0) <= 1e-12, \
                label
        want = np.linalg.norm(dense(t))
        assert tt_core.norm(t) == pytest.approx(want, rel=1e-12), label
    assert forms == {"none", "left", "right"}


def test_canonical_tags_by_operation(rng):
    left = tt_core.from_dense(random_vector(rng, 4))
    none = random_tt(rng, 4)
    right = tt_core.round(none, 1e-3)
    assert right.canonical_form == "right"
    assert tt_core.round(left, 1e-3).canonical_form == "right"
    for t in (left, none, right):
        assert tt_core.scale(t, 2.0).canonical_form == t.canonical_form
    for t in (tt_core.add(left, left), tt_core.tensor_product(left, left),
              tt_core.from_debug_json(tt_core.to_debug_json(left))):
        assert t.canonical_form == "none"
    unit = tt_core.scale(left, 1.0 / tt_core.norm(left))
    assert tt_core.tensor_product(unit, left).canonical_form == "left"
    assert tt_core.tensor_product(unit, none).canonical_form == "none"


def test_left_canonicalize_trusts_a_left_tag(rng):
    """A "left" train is returned as it is, with no QR sweep, even when the
    tag is forged; a "none" or "right" train is still orthogonalized."""
    left = tt_core.from_dense(random_vector(rng, 5))
    none = random_tt(rng, 5, max_bond=4)
    forged = TensorTrain(none.cores, canonical_form="left")
    for t in (left, forged, tt_core.scale(left, 2.0)):
        assert tt_core.left_canonicalize(t) is t
    for t in (none, tt_core.round(none, 0.0)):
        c = tt_core.left_canonicalize(t)
        assert c is not t and c.canonical_form == "left"
        assert max(isometry_residuals(c)) < 1e-12
        assert np.linalg.norm(dense(c) - dense(t)) < 1e-12 * np.linalg.norm(
            dense(t))


def test_round_of_a_left_train_skips_the_qr_sweep(rng, monkeypatch):
    calls = []
    original = tt_core.left_canonicalize

    def counting(a):
        calls.append(a.canonical_form)
        return original(a)

    monkeypatch.setattr(tt_core, "left_canonicalize", counting)
    left = tt_core.from_dense(random_vector(rng, 5))
    tt_core.round(left, 1e-3)
    assert calls == []
    tt_core.round(random_tt(rng, 5), 1e-3)
    assert calls == ["none"]


@pytest.mark.parametrize("shape", [(2, 64), (7, 40), (40, 7), (9, 9)])
def test_svd_factors_either_side(shape):
    """The SVD helper goes through M^T when M is wide; both sides give a
    thin factorization with orthonormal factors and descending values."""
    rng = _rng(sum(shape))
    M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    U, S, Vh = tt_core._svd(M)
    k = min(shape)
    assert U.shape == (shape[0], k) and Vh.shape == (k, shape[1])
    assert np.all(np.diff(S) <= 0)
    assert np.abs((U * S) @ Vh - M).max() <= 1e-13 * S[0]
    assert np.abs(U.conj().T @ U - np.eye(k)).max() <= 1e-13
    assert np.abs(Vh @ Vh.conj().T - np.eye(k)).max() <= 1e-13


@pytest.mark.parametrize("n", range(2, 13))
def test_from_dense_finds_planted_ranks(n):
    """A vector built from random cores with bonds min(2^k, 2^(n-k), r) has
    exactly those TT ranks, at tol 0.  The first unfoldings are wide and the
    last tall, so both sides of the SVD helper are used.  A Kronecker
    product of n random 2-vectors has rank 1 at every bond, though its last
    (2, 2) unfolding can show a second singular value of about 5e-16 times
    the norm, above 2 eps times its largest."""
    rng = _rng(400 + n)
    for seed in range(400):
        factors = np.random.default_rng(seed).standard_normal((n, 2, 2))
        v = functools.reduce(np.kron, factors[:, 0] + 1j * factors[:, 1])
        assert tt_core.from_dense(v).bond_dims == (1,) * (n - 1), seed
    for r_max in (1, 3, 6):
        ranks = [min(2 ** k, 2 ** (n - k), r_max) for k in range(1, n)]
        bonds = [1, *ranks, 1]
        planted = TensorTrain([
            rng.standard_normal((bonds[j], 2, bonds[j + 1]))
            + 1j * rng.standard_normal((bonds[j], 2, bonds[j + 1]))
            for j in range(n)])
        v = dense(planted)
        t = tt_core.from_dense(v)
        assert t.bond_dims == tuple(ranks), r_max
        assert np.linalg.norm(dense(t) - v) <= 1e-12 * np.linalg.norm(v)
        assert max(isometry_residuals(t)) <= 1e-12


def test_round_bound_and_tag_on_wide_and_tall_cores():
    """round keeps its error bound and a true "right" tag whether a core's
    (l, 2r) unfolding is wide (l < 2r) or tall (l >= 2r)."""
    rng = _rng(500)
    wide = set()
    for n in range(2, 8):
        for _ in range(3):
            a = random_tt(rng, n, max_bond=6)
            lc = tt_core.left_canonicalize(a)
            for cut in (0.0, 1e-3, 0.3):
                r = tt_core.round(a, cut)
                assert r.canonical_form == "right"
                assert max(right_isometry_residuals(r), default=0.0) <= 1e-12
                err = np.linalg.norm(dense(r) - dense(a))
                assert err <= (r.truncation_error
                               + 1e-12 * np.linalg.norm(dense(a)))
                # the sweep factors core j at its left-canonical left bond
                # and its already rounded right bond
                wide.update(lc.cores[j].shape[0] < 2 * r.cores[j].shape[2]
                            for j in range(1, n))
    assert wide == {True, False}


def test_round_each_is_each_round_bit_for_bit(rng, monkeypatch):
    """round_each gives round(a, c) for every c, bit for bit, with fewer
    SVDs than one rounding per cutoff; equal cutoffs share a result."""
    cutoffs = [0.3, 0.03, 1e-3, 1e-3, 1e-9, 0.0]
    calls = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for a in (random_tt(rng, 7, max_bond=6),
              tt_core.from_dense(random_vector(rng, 7))):
        monkeypatch.setattr(np.linalg, "svd", counting)
        each = tt_core.round_each(a, cutoffs)
        shared = len(calls)
        calls.clear()
        want = [tt_core.round(a, c) for c in cutoffs]
        separate = len(calls)
        calls.clear()
        monkeypatch.undo()
        assert shared < separate
        assert each[2] is each[3]
        for got, w in zip(each, want):
            assert got.canonical_form == w.canonical_form == "right"
            assert got.truncation_error == w.truncation_error
            assert all(np.array_equal(x, y) for x, y in zip(got.cores, w.cores))
    assert tt_core.round_each(a, []) == []
    with pytest.raises(ValueError):
        tt_core.round_each(a, [1e-3, -1.0])


def _unit(t: TensorTrain) -> TensorTrain:
    return tt_core.scale(t, 1.0 / tt_core.norm(t))


@pytest.mark.parametrize("n", range(1, 7))
def test_gram_matches_pairwise_and_dense(n):
    """0, 1, 2 and 5 unit trains of n sites, each with its own bond
    profile, so the batched sweep pads every site."""
    rng = _rng(100 + n)
    for n_trains in (0, 1, 2, 5):
        trains = [_unit(random_tt(rng, n, max_bond=int(rng.integers(1, 6))))
                  for _ in range(n_trains)]
        G = tt_core.gram(trains)
        assert G.shape == (n_trains, n_trains)
        vecs = [dense(t) for t in trains]
        for i, (ti, vi) in enumerate(zip(trains, vecs)):
            for j, (tj, vj) in enumerate(zip(trains, vecs)):
                # unit-norm trains: absolute error is relative to |t_i| |t_j|
                assert abs(G[i, j] - np.vdot(vi, vj)) <= 1e-13
                assert abs(G[i, j] - tt_core.inner_product(ti, tj)) <= 1e-13
        assert np.array_equal(np.diag(G), np.ones(n_trains))
        # Hermitian bit for bit, not just within round-off
        assert np.array_equal(G, G.conj().T)


def test_recompression_leaves_read_only_cores_alone(rng):
    """round, left_canonicalize, norm and gram never write to a core they
    get.

    Cached axis trains are handed out read-only, so a kernel that updated a
    core in place would raise here (or, on a writeable train, corrupt it).
    gram pads and stacks the cores of trains with different bonds.
    """
    t = random_tt(rng, 7, max_bond=5)
    other = random_tt(rng, 7, max_bond=2)
    before = [c.copy() for c in t.cores]
    for c in t.cores:
        c.flags.writeable = False
    fresh = TensorTrain([c.copy() for c in before])
    for op in (tt_core.left_canonicalize,
               lambda x: tt_core.round(x, 1e-3), tt_core.norm,
               lambda x: tt_core.gram([other, x, x])):
        got, want = op(t), op(fresh)
        if isinstance(got, TensorTrain):
            assert len(got.cores) == len(want.cores)
            assert all(np.array_equal(x, y)
                       for x, y in zip(got.cores, want.cores))
            assert got.truncation_error == want.truncation_error
        else:
            assert np.array_equal(got, want)
        assert all(np.array_equal(x, y) for x, y in zip(t.cores, before))
    assert all(np.array_equal(x, y) for x, y in zip(fresh.cores, before))


def test_round_full_collapse(rng):
    a = random_tt(rng, 6, max_bond=5)
    r = tt_core.round(a, 1.0)
    assert set(r.bond_dims) == {1}


def test_round_is_scale_invariant(rng):
    """Relative cutoff: scaling the state cannot change kept ranks."""
    a = random_tt(rng, 7, max_bond=5)
    small = tt_core.round(a, 1e-3)
    big = tt_core.round(tt_core.scale(a, 1e6), 1e-3)
    assert small.bond_dims == big.bond_dims


def test_round_zero_keeps_vector(rng):
    a = random_tt(rng, 6, max_bond=4)
    r = tt_core.round(a, 0.0)
    assert np.linalg.norm(dense(r) - dense(a)) < 1e-10 * np.linalg.norm(
        dense(a))


def test_site_mismatch_rejected(rng):
    a = random_tt(rng, 3)
    b = random_tt(rng, 4)
    for op in (tt_core.add, tt_core.inner_product):
        with pytest.raises(ShapeError):
            op(a, b)
    with pytest.raises(ShapeError):
        tt_core.gram([a, a, b])
    with pytest.raises(ShapeError):
        tt_core.canonical_sum([a, a, b], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("n_trains", range(1, 9))
def test_canonical_sum_matches_dense(n_trains):
    """The exact sum against the dense sum, on read-only cores: n = 1..8
    sites, complex coefficients, isometric cores and a "left" tag."""
    rng = _rng(400 + n_trains)
    for n in range(1, 9):
        trains = [random_tt(rng, n, max_bond=4) for _ in range(n_trains)]
        before = [[c.copy() for c in t.cores] for t in trains]
        for t in trains:
            for c in t.cores:
                c.flags.writeable = False
        coeffs = rng.standard_normal(n_trains) + 1j * rng.standard_normal(
            n_trains)
        got = tt_core.canonical_sum(trains, coeffs)
        want = sum(c * dense(t) for c, t in zip(coeffs, trains))
        assert (np.linalg.norm(dense(got) - want)
                <= 1e-12 * np.linalg.norm(want)), n
        assert got.canonical_form == "left"
        assert got.truncation_error == 0.0
        assert max(isometry_residuals(got), default=0.0) <= 1e-12, n
        assert tt_core.norm(got) == pytest.approx(np.linalg.norm(want),
                                                  rel=1e-12)
        # QR cuts the summed bonds only where the rank is lower
        assert all(b <= sum(t.bond_dims[j] for t in trains)
                   for j, b in enumerate(got.bond_dims))
        for t, cores in zip(trains, before):
            assert all(np.array_equal(x, y) for x, y in zip(t.cores, cores))


@pytest.mark.parametrize("n_rows", [1, 3])
def test_canonical_sum_of_coefficient_rows(rng, monkeypatch, n_rows):
    """A coefficient matrix gives each row's one-row sum bit for bit.  Four
    trains with bonds (2, 4, 4, 4, 2) sum to bonds (8, 16, 16, 16, 8); bond 3
    would be min(2 * 8, 16) = 16 wide with only 2^2 dimensions to its right,
    so the shared sweep stops at site 3 and the last p = 3 sites are summed
    per row: n - p shared QRs plus p - 1 per row, and the sums share their
    first n - p cores, read-only."""
    n, p = 6, 3
    bonds = [1, 2, 4, 4, 4, 2, 1]
    trains = [TensorTrain([rng.standard_normal((l, 2, r))
                           + 1j * rng.standard_normal((l, 2, r))
                           for l, r in zip(bonds, bonds[1:])])
              for _ in range(4)]
    rows = rng.standard_normal((n_rows, 4)) + 1j * rng.standard_normal(
        (n_rows, 4))
    want = [tt_core.canonical_sum(trains, row) for row in rows]
    calls = []
    original = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda a: calls.append(1) or original(a))
    got = tt_core.canonical_sum(trains, rows)
    assert len(calls) == n - p + n_rows * (p - 1)
    assert isinstance(got, list) and len(got) == n_rows
    for g, w in zip(got, want):
        assert g.canonical_form == "left"
        assert g.bond_dims == (2, 4, 8, 4, 2)
        assert all(np.array_equal(x, y) for x, y in zip(g.cores, w.cores))
        assert all(x is y for x, y in zip(g.cores[:n - p],
                                          got[0].cores[:n - p]))
    assert not any(c.flags.writeable for c in got[0].cores[:n - p])


@pytest.mark.parametrize("seed", range(4))
def test_canonical_sum_bonds_fit_the_sites_on_either_side(seed):
    """Trains whose summed bonds outgrow the sites to their right: no bond
    k of the sum is wider than min(2^(k+1), 2^(n-k-1)), and each row of a
    coefficient matrix equals its one-row sum bit for bit and the dense
    sum to 1e-12."""
    rng = _rng(500 + seed)
    n = 8
    trains = [random_tt(rng, n, max_bond=6) for _ in range(5)]
    assert any(sum(t.bond_dims[k] for t in trains) > 2 ** (n - k - 1)
               for k in range(n - 1))
    rows = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    got = tt_core.canonical_sum(trains, rows)
    for row, g in zip(rows, got):
        assert all(b <= min(2 ** (k + 1), 2 ** (n - k - 1))
                   for k, b in enumerate(g.bond_dims)), g.bond_dims
        assert g.canonical_form == "left"
        assert max(isometry_residuals(g)) <= 1e-12
        one = tt_core.canonical_sum(trains, row)
        assert all(np.array_equal(x, y) for x, y in zip(g.cores, one.cores))
        want = sum(c * dense(t) for c, t in zip(row, trains))
        assert np.linalg.norm(dense(g) - want) <= 1e-12 * np.linalg.norm(
            want)


def test_canonical_sum_argument_guards(rng):
    a = random_tt(rng, 3)
    with pytest.raises(ValueError):
        tt_core.canonical_sum([], [])
    with pytest.raises(ValueError):
        tt_core.canonical_sum([a, a], [1.0])


def test_round_of_a_canonical_sum_skips_the_qr_sweep(rng, monkeypatch):
    calls = []
    original = tt_core.left_canonicalize
    monkeypatch.setattr(tt_core, "left_canonicalize",
                        lambda a: calls.append(1) or original(a))
    trains = [random_tt(rng, 5) for _ in range(3)]
    tt_core.round(tt_core.canonical_sum(trains, [1.0, 2.0, 3.0]), 1e-3)
    assert calls == []


def test_dense_cap_enforced():
    """The tests' dense referee refuses more than 24 sites by default."""
    with pytest.raises(CapacityError):
        dense(TensorTrain([np.ones((1, 2, 1))] * 25))
    # an explicit cap overrides the default in both directions
    t = TensorTrain([np.ones((1, 2, 1))] * 3)
    with pytest.raises(CapacityError):
        dense(t, cap=2)
    assert len(dense(t, cap=3)) == 8


def test_entry_contraction_matches_dense(rng):
    t = random_tt(rng, 6, max_bond=4)
    v = dense(t)
    for idx in rng.integers(0, 2 ** 6, size=10):
        assert abs(tt_entry(t, int(idx)) - v[idx]) < 1e-12


def test_debug_json_matches_per_entry_dump(rng):
    """The vectorized dump prints exactly what a loop over entries prints."""
    t = random_tt(rng, 4, max_bond=3)
    t.cores[0][0, 0, 0] = complex(-0.0, -0.0)
    want = {"shapes": [list(c.shape) for c in t.cores],
            "cores": [[[float(z.real), float(z.imag)] for z in c.ravel()]
                      for c in t.cores]}
    blob = json.dumps(tt_core.to_debug_json(t), sort_keys=True)
    assert blob == json.dumps(want, sort_keys=True)
    back = tt_core.from_debug_json(json.loads(blob))
    assert all(np.array_equal(x.view(np.uint64), y.view(np.uint64))
               for x, y in zip(back.cores, t.cores))


def test_debug_json_round_trip(rng):
    t = random_tt(rng, 5, max_bond=3)
    blob = json.dumps(tt_core.to_debug_json(t))
    back = tt_core.from_debug_json(json.loads(blob))
    assert np.linalg.norm(dense(back) - dense(t)) == 0.0
    assert back.bond_dims == t.bond_dims

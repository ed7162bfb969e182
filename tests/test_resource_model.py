"""Cost-formula oracles: every counter retyped here and compared bit-exact.

The reference functions below are deliberate transliterations of the
printed bounds, written independently of the implementation; integer
formulas must agree exactly and float formulas bit-for-bit (same
operation order).
"""

import math

import numpy as np
import pytest

from ttprep import resource_model
from ttprep.resource_model import (ResourceParams,
                                   antisym_estimate, arb_prep_error,
                                   ceil_log2, estimate_resources,
                                   mps_prep_error, optimal_lambda,
                                   qubits_arbitrary_state_prep, qubits_select,
                                   qubits_selswap, qubits_swapnet,
                                   qubits_zrot_mux, slater_error_bound,
                                   synthesis_error, toffoli_adder,
                                   toffoli_arbitrary_state_prep,
                                   toffoli_cswap, toffoli_mcx,
                                   toffoli_mps_prep, toffoli_naive_slater,
                                   toffoli_select, toffoli_selswap,
                                   toffoli_slater, toffoli_swapnet,
                                   toffoli_unitary_synthesis,
                                   toffoli_zrot_mux, zrot_error)

N_TUPLES = 1000


def ref_clog2(x):
    return (x - 1).bit_length()


def ref_mps_bond(m, j):
    n_sites = len(m) + 1
    if j == 0 or j == n_sites:
        return 1
    return m[j - 1]


def ref_mps_mbar(m, j):
    return max(2 ** ref_clog2(ref_mps_bond(m, j - 1)),
               2 ** ref_clog2(ref_mps_bond(m, j)))


def ref_toffoli_mps(m, b):
    total = 0.0
    for j in range(1, len(m) + 2):
        mj = ref_mps_bond(m, j)
        mbar = ref_mps_mbar(m, j)
        total += (32.0 * (1.0 + math.sqrt(2.0)) * math.sqrt(b + 1)
                  * mj * math.sqrt(mbar)
                  + (8 * b - 15) * mj * math.log2(2 * mbar))
    return total


def ref_mps_error(m, b):
    acc = 0.0
    for j in range(1, len(m) + 2):
        acc += ref_mps_bond(m, j) * math.log2(2 * ref_mps_mbar(m, j))
    return 2.0 ** (3.5 - b) * acc


class TestRandomTupleOracles:
    """One block per cost family, 1000 seeded tuples, exact equality."""

    def test_mcx(self):
        rng = np.random.default_rng(101)
        for n in rng.integers(2, 10 ** 6, size=N_TUPLES):
            assert toffoli_mcx(int(n)) == int(n) - 1

    def test_cswap(self):
        rng = np.random.default_rng(102)
        for b in rng.integers(1, 10 ** 6, size=N_TUPLES):
            assert toffoli_cswap(int(b)) == int(b)

    def test_select(self):
        rng = np.random.default_rng(103)
        for n, b in zip(rng.integers(1, 61, size=N_TUPLES),
                        rng.integers(1, 129, size=N_TUPLES)):
            n, b = int(n), int(b)
            assert toffoli_select(n) == 2 ** n - 1
            assert qubits_select(n, b) == 2 * n + b - 1

    def test_swapnet(self):
        rng = np.random.default_rng(104)
        for n, b in zip(rng.integers(1, 41, size=N_TUPLES),
                        rng.integers(1, 129, size=N_TUPLES)):
            n, b = int(n), int(b)
            assert toffoli_swapnet(n, b) == (2 ** n - 1) * b
            assert qubits_swapnet(n, b) == 2 * n + 2 ** n * b - 2

    def test_selswap(self):
        rng = np.random.default_rng(105)
        for _ in range(N_TUPLES):
            n = int(rng.integers(1, 41))
            b = int(rng.integers(1, 129))
            lam = 2 ** int(rng.integers(0, n + 1))
            dirty = bool(rng.integers(0, 2))
            if dirty:
                want = 2 ** (n + 1) // lam - 2 + 4 * (lam - 1) * b
                want_q = 2 * n + (lam + 1) * b - ref_clog2(lam) - 1
            else:
                want = 2 ** n // lam - 1 + (lam - 1) * b
                want_q = 2 * n + lam * b - ref_clog2(lam) - 1
            assert toffoli_selswap(n, b, lam, dirty) == want
            assert qubits_selswap(n, b, lam, dirty) == want_q

    def test_adder(self):
        rng = np.random.default_rng(106)
        for _ in range(N_TUPLES):
            b = int(rng.integers(1, 10 ** 6))
            c = int(rng.integers(0, 3))
            assert toffoli_adder(b, c) == (c + 1) * b

    def test_zrot_mux(self):
        rng = np.random.default_rng(107)
        for _ in range(N_TUPLES):
            n = int(rng.integers(1, 41))
            b = int(rng.integers(1, 129))
            lam = 2 ** int(rng.integers(0, n + 1))
            assert toffoli_zrot_mux(n, b, lam) == (
                2 ** (n + 1) // lam + (b + 1) * (lam - 1) + 2 * b - 3)
            assert qubits_zrot_mux(n, b, lam) == (
                2 * n + (lam + 2) * b - ref_clog2(lam) - 3)
            assert zrot_error(b) == math.pi * 2.0 ** (-b)

    def test_arbitrary_state_prep(self):
        rng = np.random.default_rng(108)
        for n, b in zip(rng.integers(1, 51, size=N_TUPLES),
                        rng.integers(5, 121, size=N_TUPLES)):
            n, b = int(n), int(b)
            assert toffoli_arbitrary_state_prep(n, b) == (
                (1.0 + math.sqrt(2.0)) * math.sqrt(2 ** (n + 7) * (b + 1))
                + 2 * n * (b - 4))
            assert qubits_arbitrary_state_prep(n, b) == (
                3 * n / 2 + 2.0 ** (n / 2 + 1) * b / math.sqrt(b + 1))
            assert arb_prep_error(n, b) == 2.0 * math.pi * n * 2.0 ** (-b)

    def test_unitary_synthesis(self):
        rng = np.random.default_rng(109)
        for n, b in zip(rng.integers(1, 41, size=N_TUPLES),
                        rng.integers(5, 121, size=N_TUPLES)):
            n, b = int(n), int(b)
            assert toffoli_unitary_synthesis(n, b) == (
                2.0 ** (3 * n / 2 + 4.5) * (1.0 + math.sqrt(2.0))
                * math.sqrt(b + 1) + 2 ** n * n * (8 * b - 15))
            assert synthesis_error(n, b) == (
                8.0 * math.pi * math.sqrt(2.0) * n * 2.0 ** (n - b))

    def test_mps_prep(self):
        rng = np.random.default_rng(110)
        for _ in range(N_TUPLES):
            n_sites = int(rng.integers(1, 13))
            m = tuple(int(x) for x in rng.integers(1, 301, size=n_sites - 1))
            b = int(rng.integers(5, 81))
            assert toffoli_mps_prep(m, b) == ref_toffoli_mps(m, b)
            assert mps_prep_error(m, b) == ref_mps_error(m, b)

    def test_slater(self):
        rng = np.random.default_rng(111)
        for _ in range(N_TUPLES):
            eta = int(rng.integers(1, 31))
            n_system = int(rng.integers(1, 501))
            costs = list(rng.uniform(0.0, 1e6, size=eta))
            assert toffoli_slater(eta, n_system, costs) == (
                eta ** 2 * n_system + 2 * eta * sum(costs))

    def test_slater_error_bound(self):
        rng = np.random.default_rng(112)
        for _ in range(N_TUPLES):
            eta = int(rng.integers(1, 31))
            n_mo = int(rng.integers(1, 31))
            e1, e2 = rng.uniform(0.0, 1.0, size=2)
            assert slater_error_bound(eta, n_mo, e1, e2) == eta * (e1 + e2)
            assert slater_error_bound(eta, n_mo, e1, e2, "spectral") == (
                2.0 ** 1.5 * eta * n_mo * (e1 + e2))

    def test_naive_slater(self):
        rng = np.random.default_rng(113)
        for _ in range(N_TUPLES):
            N = int(rng.integers(1, 10 ** 9))
            eta = int(rng.integers(1, 101))
            b = int(rng.integers(1, 101))
            assert toffoli_naive_slater(N, eta, b) == (
                N * ((3 + 4 * b) * eta + ref_clog2(eta + 1) - 2))

    def test_antisym(self):
        rng = np.random.default_rng(114)
        for N, eta in zip(rng.integers(1, 10 ** 9, size=N_TUPLES),
                          rng.integers(1, 10 ** 6, size=N_TUPLES)):
            N, eta = int(N), int(eta)
            assert antisym_estimate(eta, N) == (
                eta * ref_clog2(eta) * ref_clog2(N))


class TestWorkedValues:
    def test_simple_counters(self):
        assert toffoli_mcx(2) == 1
        assert toffoli_mcx(3) == 2
        assert toffoli_mcx(10) == 9
        assert toffoli_cswap(1) == 1
        assert toffoli_cswap(64) == 64
        assert toffoli_select(1) == 1
        assert toffoli_select(3) == 7
        assert qubits_select(3, 8) == 13
        assert toffoli_swapnet(1, 1) == 1
        assert toffoli_swapnet(3, 4) == 28
        assert qubits_swapnet(2, 3) == 14
        assert toffoli_adder(8) == 8
        assert toffoli_adder(8, 1) == 16
        assert toffoli_adder(8, 2) == 24

    def test_selswap_values(self):
        assert toffoli_selswap(4, 8, 1) == toffoli_select(4) == 15
        assert toffoli_selswap(4, 8, 4) == 4 - 1 + 24 == 27
        assert toffoli_selswap(4, 8, 4, dirty=True) == 8 - 2 + 96 == 102

    def test_zrot_values(self):
        assert toffoli_zrot_mux(3, 8, 2) == 8 + 9 + 13 == 30
        assert zrot_error(10) == pytest.approx(math.pi / 1024, rel=1e-15)

    def test_arb_prep_values(self):
        assert arb_prep_error(8, 20) == pytest.approx(
            16.0 * math.pi * 2.0 ** (-20), rel=1e-15)
        # (1+sqrt2) sqrt(2^17 * 11) + 20*6
        assert toffoli_arbitrary_state_prep(10, 10) == pytest.approx(
            3018.8583271767625, rel=1e-15)

    def test_synthesis_values(self):
        # 2^6 (1+sqrt2) * 3 + 2*49
        assert toffoli_unitary_synthesis(1, 8) == pytest.approx(
            2.0 ** 6 * (1.0 + math.sqrt(2.0)) * 3.0 + 2.0 * 49.0, rel=1e-15)
        assert synthesis_error(4, 30) == pytest.approx(
            8.0 * math.pi * math.sqrt(2.0) * 4.0 * 2.0 ** (-26), rel=1e-15)

    def test_synthesis_leading_scaling(self):
        # the dominant term grows as 2^{3n/2} across an n sweep
        b = 30
        for n in range(8, 16):
            r = (toffoli_unitary_synthesis(n + 2, b)
                 / toffoli_unitary_synthesis(n, b))
            assert abs(r - 8.0) / 8.0 < 0.25

    def test_mps_prep_values(self):
        n = 7
        flat = (1,) * (n - 1)
        per_site = 32.0 * (1.0 + math.sqrt(2.0)) * 3.0 + 49.0
        assert toffoli_mps_prep(flat, 8) == pytest.approx(
            n * per_site, rel=1e-13)
        prof = (1, 2, 4, 2, 1)
        assert toffoli_mps_prep(prof, 10) == pytest.approx(
            6364.226039171402, rel=1e-15)
        assert mps_prep_error(prof, 10) == pytest.approx(
            0.287262129857035, rel=1e-15)
        # error scales exactly with 2^-b
        assert mps_prep_error(prof, 11) == pytest.approx(
            mps_prep_error(prof, 10) / 2.0, rel=1e-15)

    def test_mps_prep_padding(self):
        # bonds (3, 5) at b = 10: sites m_j = 3, 5, 1 with mbar_j = 4, 8, 8,
        # so m_j sqrt(mbar_j) sums to 6 + 6 sqrt 8 and m_j log2(2 mbar_j)
        # to 9 + 20 + 4
        c = 32.0 * (1.0 + math.sqrt(2.0)) * math.sqrt(11)
        assert toffoli_mps_prep((3, 5), 10) == pytest.approx(
            c * (6 + 6 * math.sqrt(8)) + 65 * 33, rel=1e-15)
        assert mps_prep_error((3, 5), 10) == pytest.approx(
            2.0 ** -6.5 * 33, rel=1e-15)
        # one site, m_1 = mbar_1 = 1
        assert toffoli_mps_prep((), 10) == pytest.approx(c + 65, rel=1e-15)

    def test_slater_values(self):
        assert toffoli_slater(1, 12, [100.0]) == 12 + 200.0
        assert toffoli_slater(2, 12, [100.0, 100.0]) == 4 * 12 + 8 * 100.0
        assert toffoli_slater(3, 12, [0.0, 0.0, 0.0]) == 9 * 12

    def test_slater_error_values(self):
        assert slater_error_bound(5, 5, 0.004, 0.006) == pytest.approx(
            0.05, rel=1e-12)
        assert slater_error_bound(5, 5, 0.004, 0.006,
                                  "spectral") == pytest.approx(
            2.0 ** 1.5 * 25.0 * 0.01, rel=1e-12)
        assert slater_error_bound(4, 7, 0.0, 0.0) == 0.0
        assert slater_error_bound(4, 7, 0.0, 0.0, "spectral") == 0.0

    def test_spectral_dominates_approx(self):
        for eta in (1, 3, 9):
            for n_mo in (1, 4, 16):
                a = slater_error_bound(eta, n_mo, 0.003, 0.002)
                s = slater_error_bound(eta, n_mo, 0.003, 0.002, "spectral")
                assert s >= a

    def test_naive_values(self):
        assert toffoli_naive_slater(1, 1, 1) == 6
        assert toffoli_naive_slater(2 * 10 ** 6, 4, 9) == (
            2 * toffoli_naive_slater(10 ** 6, 4, 9))
        big = toffoli_naive_slater(3.19e8, 10, 20)
        assert big == pytest.approx(2.65e11, rel=5e-3)

    def test_antisym_values(self):
        assert antisym_estimate(1, 2 ** 20) == 0
        assert antisym_estimate(4, 2 ** 30) == 240


class TestInvariants:
    def test_selswap_reduces_to_select(self):
        for n in range(1, 31):
            assert toffoli_selswap(n, 13, 1) == toffoli_select(n)

    def test_optimized_selswap_never_far_behind(self):
        for n in range(1, 21):
            for b in (1, 5, 16, 64):
                best = min(toffoli_selswap(n, b, 2 ** u)
                           for u in range(n + 1))
                assert best <= min(toffoli_select(n),
                                   toffoli_swapnet(n, b)) + b

    def test_monotone_in_each_argument(self):
        grid_n = (1, 2, 5, 9)
        grid_b = (5, 8, 20, 64)
        for f in (toffoli_arbitrary_state_prep, toffoli_unitary_synthesis,
                  qubits_arbitrary_state_prep, toffoli_swapnet,
                  qubits_swapnet, qubits_select):
            for b in grid_b:
                vals = [f(n, b) for n in grid_n]
                assert vals == sorted(vals)
            for n in grid_n:
                vals = [f(n, b) for b in grid_b]
                assert vals == sorted(vals)
        for f in (toffoli_select, toffoli_mcx):
            vals = [f(n) for n in (2, 3, 7, 20)]
            assert vals == sorted(vals)

    def test_nonnegative(self):
        assert toffoli_arbitrary_state_prep(1, 5) > 0
        assert toffoli_unitary_synthesis(1, 5) > 0
        assert toffoli_mps_prep((), 5) > 0


class TestOptimalLambda:
    def test_formula_retype(self):
        rng = np.random.default_rng(115)
        for _ in range(200):
            p = int(rng.integers(0, 40))
            b = int(rng.integers(5, 121))
            mu = 1.0 / math.sqrt(b + 1)
            raw = mu * 2.0 ** (p / 2)
            lam = 2 ** max(0, math.ceil(math.log2(raw)))
            want = max(1, min(lam, 2 ** p))
            assert optimal_lambda(p, b) == want

    def test_edges(self):
        assert optimal_lambda(0, 10) == 1
        assert optimal_lambda(10, 10) == 16
        with pytest.raises(ValueError):
            optimal_lambda(-1, 10)
        with pytest.raises(ValueError):
            optimal_lambda(3, 4)

    def test_always_usable(self):
        for p in range(0, 30):
            lam = optimal_lambda(p, 40)
            assert 1 <= lam <= 2 ** p
            assert lam & (lam - 1) == 0


class TestCeilLog2:
    def test_values(self):
        assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [
            0, 1, 2, 2, 3, 3, 4]
        with pytest.raises(ValueError):
            ceil_log2(0)


class TestGuards:
    def test_domain_checks(self):
        with pytest.raises(ValueError):
            toffoli_mcx(1)
        with pytest.raises(ValueError):
            toffoli_select(0)
        with pytest.raises(ValueError):
            toffoli_selswap(4, 8, 3)  # not a power of two
        with pytest.raises(ValueError):
            toffoli_selswap(4, 8, 32)  # exceeds 2^n
        with pytest.raises(ValueError):
            toffoli_adder(8, 3)
        with pytest.raises(ValueError):
            toffoli_arbitrary_state_prep(4, 4)  # b below the (b-4) floor
        with pytest.raises(ValueError):
            toffoli_unitary_synthesis(4, 4)
        with pytest.raises(ValueError):
            toffoli_mps_prep((2,), 4)
        with pytest.raises(ValueError):
            toffoli_mps_prep((0, 2), 10)  # a bond below 1
        with pytest.raises(ValueError):
            slater_error_bound(1, 1, 0.1, 0.1, "exact")
        with pytest.raises(ValueError):
            toffoli_slater(2, 10, [1.0])


class TestResourceParams:
    def test_valid(self):
        params = ResourceParams(b=10, eta=2, n_system=12, n_grid_modes=3375)
        assert params.N == 2 ** params.n_system == 4096

    def test_invalid(self):
        with pytest.raises(ValueError):
            ResourceParams(b=4, eta=2, n_system=12, n_grid_modes=3375)
        with pytest.raises(ValueError):
            ResourceParams(b=10, eta=0, n_system=12, n_grid_modes=3375)
        with pytest.raises(ValueError):
            ResourceParams(b=10, eta=2, n_system=0, n_grid_modes=1)
        with pytest.raises(ValueError):
            ResourceParams(b=10, eta=2, n_system=12, n_grid_modes=4097)
        # the naive baseline over 2^1100 modes overflows a float
        with pytest.raises(OverflowError):
            ResourceParams(b=10, eta=2, n_system=1100, n_grid_modes=1)


class TestEstimateResources:
    def test_hand_summed_totals(self):
        params = ResourceParams(b=10, eta=2, n_system=12, n_grid_modes=3375)
        assert params.N == 2 ** params.n_system
        bonds = [(2, 4, 2), (3, 3, 3)]
        rep = estimate_resources(params, bonds, [1, 1], eps1=1e-3)

        per = [toffoli_mps_prep(m, 10) for m in bonds]
        assert rep.toffoli["mps_prep_orbital_0"] == per[0]
        assert rep.toffoli["mps_prep_orbital_1"] == per[1]
        assert rep.toffoli["slater_reflection_overhead"] == 4 * 12
        want_total = toffoli_slater(2, 12, per)
        assert rep.toffoli["slater_total_mps"] == want_total
        assert rep.totals["mps_method"] == want_total

        want_naive = toffoli_naive_slater(4096, 2, 10)
        assert rep.toffoli["naive_slater"] == want_naive
        assert rep.totals["naive_method"] == want_naive
        assert rep.totals["ratio_naive_over_mps"] == want_naive / want_total

        assert rep.qubits["system_mps"] == 2 * 12
        assert rep.qubits["system_naive"] == 4096
        assert rep.eps1 == 1e-3
        assert rep.eps2 == max(mps_prep_error(m, 10) for m in bonds)
        assert rep.antisym == antisym_estimate(2, 4096)
        assert rep.naive_at_grid_modes == toffoli_naive_slater(3375, 2, 10)

    def test_error_bounds_use_orbital_count(self):
        """Three electrons in two orbitals: the spectral bound takes
        n_mo = 2 orbitals, not eta = 3."""
        params = ResourceParams(b=10, eta=3, n_system=12, n_grid_modes=3375)
        rep = estimate_resources(params, [(2, 4, 2), (3, 3, 3)], [2, 1],
                                 eps1=1e-3)
        assert set(rep.error_bounds) == {"approx", "spectral"}
        for mode in ("approx", "spectral"):
            assert rep.error_bounds[mode] == slater_error_bound(
                3, 2, rep.eps1, rep.eps2, mode)

    def test_doubly_occupied_orbital_priced_once(self, monkeypatch):
        """An occupation-2 orbital is priced once and counted twice: the
        report equals the one for two singly occupied copies of it."""
        params = ResourceParams(b=10, eta=3, n_system=12, n_grid_modes=3375)
        a, b = (2, 4, 2), (3, 3, 3)
        pairs = estimate_resources(params, [a, a, b], [1, 1, 1], eps1=1e-3)
        calls = []
        monkeypatch.setattr(resource_model, "toffoli_mps_prep",
                            lambda *args: calls.append(1)
                            or toffoli_mps_prep(*args))
        rep = estimate_resources(params, [a, b], [2, 1], eps1=1e-3)
        assert len(calls) == 2
        assert rep.prep_toffoli == (toffoli_mps_prep(a, 10),
                                    toffoli_mps_prep(b, 10))
        assert rep.prep_error == (mps_prep_error(a, 10),
                                  mps_prep_error(b, 10))
        assert (rep.toffoli, rep.totals, rep.eps2) == (
            pairs.toffoli, pairs.totals, pairs.eps2)

    def test_profile_count_mismatch(self):
        params = ResourceParams(b=10, eta=2, n_system=12, n_grid_modes=3375)
        with pytest.raises(ValueError):
            estimate_resources(params, [(2,)], [1], eps1=1e-3)
        with pytest.raises(ValueError):
            estimate_resources(params, [(2,)] * 2, [2], eps1=1e-3)

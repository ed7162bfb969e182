"""Acceptance gate: ten end-to-end guarantees, one test per criterion.

Each test prints one ACCEPTANCE line so a log scrape shows the whole gate
at a glance.  Runtime budgets are asserted with time.monotonic inside the
same criterion block.  Everything runs at desk scale: dense oracles cap
near 2^10 points per axis and the trend criteria use the shipped synthetic
fixtures rather than production molecules.
"""

import json
import math
import time
from contextlib import contextmanager
from importlib import resources as importlib_resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from mpmath import mp

from ttprep import gauss_pw, orbital_builder, resource_model, tt_core
from ttprep.cli import load_config, load_fixture, main, run_pipeline
from ttprep.func_encode import SignedGrid1D
from ttprep.gauss_pw import PlaneWaveGrid

from conftest import dense

FIXTURE_DIR = Path(str(importlib_resources.files("ttprep") / "fixtures"))
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

SHIPPED_PAIRS = [
    ("h_like_1s", "h_like_1s"),
    ("h_sto3g", "h_sto3g"),
    ("synthetic_diatomic", "synthetic_diatomic"),
    ("localized_s", "localized_s"),
    ("diffuse_s", "diffuse_s"),
]


@contextmanager
def criterion(num, budget_s=None):
    t0 = time.monotonic()
    try:
        yield
        dt = time.monotonic() - t0
        if budget_s is not None:
            assert dt < budget_s, (
                f"criterion {num} took {dt:.1f}s, budget {budget_s}s")
    except BaseException:
        print(f"ACCEPTANCE {num:02d}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d}: PASS ({dt:.2f}s)")


def signed_embed(g: SignedGrid1D, values: np.ndarray) -> np.ndarray:
    """Place per-index values at their sign-magnitude dense positions."""
    iv = g.index_values()
    pos = np.where(iv < 0, 2 ** (g.n_sites - 1) + np.abs(iv), iv)
    out = np.zeros(2 ** g.n_sites, dtype=complex)
    out[pos] = values
    return out


def test_criterion_01_polynomial_train_bounds():
    """Polynomial trains: bond caps d+2 / 2d+5 and exact values.

    The trains are built as every axis train is: samples on the grid,
    embedded densely and factored by from_dense.
    """
    rng = np.random.default_rng(11)
    with criterion(1, budget_s=30):
        for d in range(11):
            c = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
            for q in range(6, 13):
                want = np.polynomial.polynomial.polyval(
                    np.linspace(-1.0, 1.0, 2 ** q), c)
                t = tt_core.from_dense(want, tol=1e-14)
                assert tt_core.max_bond_dim(t) <= d + 2
                assert np.abs(dense(t) - want).max() <= 1e-10

                sg = SignedGrid1D(a=1.0, n_points=2 ** q + 1, n_sites=q + 1)
                svals = np.polynomial.polynomial.polyval(
                    sg.point(sg.index_values()), c)
                st = tt_core.from_dense(sg.embed(svals), tol=1e-14)
                assert tt_core.max_bond_dim(st) <= 2 * d + 5
                swant = signed_embed(sg, svals)
                assert np.abs(dense(st) - swant).max() <= 1e-10


LEMMA_GRID = [(gamma, l, eps)
              for gamma in (0.25, 1.0, 4.0)
              for l in (0, 1, 2)
              for eps in (1e-2, 1e-3)]


def _whole_line_reference(gamma, l, a, grid):
    """Window samples of the full-lattice-normalized momentum profile."""
    i_far = int(math.ceil(14.0 * math.sqrt(2.0 * gamma) / grid.dk)) + 1
    k_full = np.arange(-i_far, i_far + 1) * grid.dk
    ov = gauss_pw.pw_overlap(gamma, l, a, k_full, grid.L)
    w_all = float(np.real(np.vdot(ov, ov)))
    sg = grid.axis_grid()
    window = ov[i_far + sg.index_values()]
    return signed_embed(sg, window) / math.sqrt(w_all), ov, i_far, w_all


def test_criterion_02_primitive_axis_error_and_bonds():
    """Certified per-axis trains stay within their trace-distance budget."""
    with criterion(2, budget_s=120):
        for gamma, l, eps in LEMMA_GRID:
            kc = gauss_pw.choose_cutoff(gamma, l, 30.0, eps)
            grid = PlaneWaveGrid(L=30.0, K=kc)
            assert grid.points_per_axis <= 2 ** 10
            t = gauss_pw.primitive_1d_mps(gamma, l, 0.4, grid, eps)
            m = gauss_pw.axis_profile(gamma, l, grid, eps).degree + 1
            assert tt_core.max_bond_dim(t) <= 2 * m + 3
            ref, _, _, _ = _whole_line_reference(gamma, l, 0.4, grid)
            ov = abs(complex(np.vdot(ref, dense(t))))
            dist = math.sqrt(max(0.0, 1.0 - ov ** 2))
            assert dist <= eps, (gamma, l, eps, dist)


def test_criterion_03_tail_weight_and_truncated_norm():
    """Beyond the certified cutoff the lattice weight is at most eps^2."""
    with criterion(3):
        for gamma, l, eps in LEMMA_GRID:
            kc = gauss_pw.choose_cutoff(gamma, l, 30.0, eps)
            grid = PlaneWaveGrid(L=30.0, K=kc)
            _, ov, i_far, w_all = _whole_line_reference(gamma, l, 0.0, grid)
            i_cut = int(math.floor(kc / grid.dk))
            live = np.abs(np.arange(-i_far, i_far + 1)) <= i_cut
            w_in = float(np.real(np.vdot(ov[live], ov[live])))
            tail = (w_all - w_in) / w_all
            assert tail <= eps ** 2, (gamma, l, eps, tail)
            prof = gauss_pw.axis_profile(gamma, l, grid, eps)
            assert 1.0 - eps <= prof.n_t <= 1.0
            assert abs(prof.n_t - math.sqrt(w_in / w_all)) <= 1e-9


CHEB_CASES = [(0, 2.0, 19), (2, 4.0, 77), (6, 8.0, 293)]


def _mp_psi(n, x):
    norm = 1 / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi))
    return mp.hermite(n, x) * mp.e ** (-x ** 2 / 2) * norm


def test_criterion_04_chebyshev_interpolation_bound():
    """Scan error <= (1/2)^(m/2) whenever the three degree conditions hold.

    The certified bound sits far below float64 resolution for the larger
    degrees, so interpolant and reference are evaluated in 50-digit
    arithmetic with a test-local barycentric form; the shipped float64
    interpolant is tied out on every case whose bound float64 resolves.
    """
    with criterion(4):
        saved = mp.dps
        mp.dps = 50
        try:
            for n, C, m in CHEB_CASES:
                c1 = (math.e * C / math.sqrt(2.0)) * (
                    math.e * C / math.sqrt(2.0) + math.sqrt(2 * n + 1))
                # second condition m >= 2*log2(1/eps) is equality when
                # eps = (1/2)^(m/2), so only the first and third bind
                assert m >= c1 and m >= 1
                bound = mp.mpf(0.5) ** (mp.mpf(m) / 2)

                Cm = mp.mpf(C)
                nodes = [Cm * mp.cos(mp.pi * (2 * i + 1) / (2 * m + 2))
                         for i in range(m)]
                fvals = [_mp_psi(n, t) for t in nodes]
                weights = []
                for i in range(m):
                    w = mp.mpf(1)
                    for j in range(m):
                        if j != i:
                            w /= nodes[i] - nodes[j]
                    weights.append(w)

                def interp(x):
                    num = mp.mpf(0)
                    den = mp.mpf(0)
                    for t, w, f in zip(nodes, weights, fvals):
                        r = w / (x - t)
                        num += r * f
                        den += r
                    return num / den

                worst = mp.mpf(0)
                for x in mp.linspace(-Cm, Cm, 201):
                    worst = max(worst, abs(interp(x) - _mp_psi(n, x)))
                assert worst <= bound, (n, C, m, worst, bound)
        finally:
            mp.dps = saved

        for n, C, m in CHEB_CASES:
            bound = 0.5 ** (m / 2.0)
            if bound < 1e3 * np.finfo(float).eps:
                continue
            interp = gauss_pw.ChebyshevInterpolant.fit(
                lambda t: gauss_pw.hermite_gaussian(n, t), C, m)
            xs = np.linspace(-C, C, 1000)
            err = np.abs(interp(xs) - gauss_pw.hermite_gaussian(n, xs)).max()
            assert err <= bound, (n, C, m, err, bound)


def test_criterion_05_canonical_orthogonalization():
    """Whitening identity within 1e-9 and the 1/sigma coefficient bound."""
    rng = np.random.default_rng(5050)
    with criterion(5):
        for _ in range(200):
            n = int(rng.integers(2, 51))
            cond = 10.0 ** rng.uniform(0.0, 8.0)
            lam = np.exp(rng.uniform(np.log(1.0 / cond), 0.0, size=n))
            lam[0], lam[-1] = 1.0, 1.0 / cond
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, _ = np.linalg.qr(z)
            S = (q * lam) @ q.conj().T
            S = 0.5 * (S + S.conj().T)
            sigma = 10.0 ** rng.uniform(-6.0, -1.0)
            basis = orbital_builder.canonical_orthogonalize(S, sigma)
            X = basis.x_tilde
            resid = np.abs(X.conj().T @ S @ X - np.eye(basis.kept)).max()
            assert resid <= 1e-9
            for jcol in range(basis.kept):
                col = X[:, jcol]
                assert np.linalg.norm(col) <= 1.0 / sigma * (1 + 1e-12)


def _random_train(rng, n_sites, bond):
    """Unit-norm train with random cores and the given internal bond."""
    dims = [1] + [bond] * (n_sites - 1) + [1]
    cores = [rng.normal(size=(dims[i], 2, dims[i + 1]))
             + 1j * rng.normal(size=(dims[i], 2, dims[i + 1]))
             for i in range(n_sites)]
    t = tt_core.TensorTrain(cores)
    return tt_core.scale(t, 1.0 / tt_core.norm(t))


def test_criterion_06_tt_engine_randomized_suite():
    """500 random cases: round trip, linearity, rounding bound, bond rules."""
    rng = np.random.default_rng(606)
    with criterion(6, budget_s=60):
        for case in range(500):
            n = int(rng.integers(2, 13))
            va = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            va /= np.linalg.norm(va)
            vb = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            vb /= np.linalg.norm(vb)
            A = tt_core.from_dense(va)
            B = tt_core.from_dense(vb)

            assert np.abs(dense(A) - va).max() <= 1e-10
            bonds = A.bond_dims
            for i, r in enumerate(bonds):
                assert r <= min(2 ** (i + 1), 2 ** (n - i - 1))

            alpha = complex(rng.normal(), rng.normal())
            lin = tt_core.add(A, tt_core.scale(B, alpha))
            assert np.abs(dense(lin) - (va + alpha * vb)).max() <= 1e-10
            assert lin.bond_dims == tuple(
                x + y for x, y in zip(A.bond_dims, B.bond_dims))
            ip = tt_core.gram([A, B])[0, 1]
            assert abs(ip - complex(np.vdot(va, vb))) <= 1e-10

            cut = 10.0 ** rng.uniform(-3.0, -0.3)
            R = tt_core.round(A, cut)
            dr = dense(R)
            # sequential truncation satisfies <a, round(a)> = |round(a)|^2
            assert abs(complex(np.vdot(va, dr)) - np.vdot(dr, dr)) <= 1e-9
            budget = cut * math.sqrt(sum(A.bond_dims)) + 1e-12
            assert np.linalg.norm(va - dr) <= budget

            ns = int(rng.integers(2, 9))
            P = _random_train(rng, ns, int(rng.integers(1, 4)))
            Q = _random_train(rng, ns, int(rng.integers(1, 4)))
            T = tt_core.tensor_product(P, Q)
            assert T.bond_dims == P.bond_dims + (1,) + Q.bond_dims
            assert np.abs(dense(T) - np.kron(dense(P), dense(Q))).max() <= 1e-10


def _clog2(x: int) -> int:
    return (x - 1).bit_length()


def test_criterion_07_resource_formula_identities():
    """Cost counters vs literal re-typings of the printed formulas."""
    rm = resource_model
    with criterion(7):
        for nn in range(1, 31):
            assert rm.toffoli_selswap(nn, 13, 1) == rm.toffoli_select(nn)
        for b in (1, 7, 54):
            assert [rm.toffoli_adder(b, c) for c in (0, 1, 2)] == [b, 2 * b, 3 * b]

        rng = np.random.default_rng(700)
        for _ in range(1000):
            n = int(rng.integers(2, 10 ** 6))
            b = int(rng.integers(1, 10 ** 6))
            assert rm.toffoli_mcx(n) == n - 1                        # 1
            assert rm.toffoli_cswap(b) == b                          # 2
        for _ in range(1000):
            n, b = int(rng.integers(1, 61)), int(rng.integers(1, 129))
            assert rm.toffoli_select(n) == 2 ** n - 1                # 3
            assert rm.qubits_select(n, b) == 2 * n + b - 1
        for _ in range(1000):
            n, b = int(rng.integers(1, 41)), int(rng.integers(1, 129))
            assert rm.toffoli_swapnet(n, b) == (2 ** n - 1) * b      # 4
            assert rm.qubits_swapnet(n, b) == 2 * n + 2 ** n * b - 2
        for _ in range(1000):
            n, b = int(rng.integers(1, 41)), int(rng.integers(1, 129))
            lam = 2 ** int(rng.integers(0, n + 1))
            if rng.integers(0, 2):                                   # 5
                assert rm.toffoli_selswap(n, b, lam, True) == (
                    2 ** (n + 1) // lam - 2 + 4 * (lam - 1) * b)
                assert rm.qubits_selswap(n, b, lam, True) == (
                    2 * n + (lam + 1) * b - _clog2(lam) - 1)
            else:
                assert rm.toffoli_selswap(n, b, lam) == (
                    2 ** n // lam - 1 + (lam - 1) * b)
                assert rm.qubits_selswap(n, b, lam) == (
                    2 * n + lam * b - _clog2(lam) - 1)
        for _ in range(1000):
            b, c = int(rng.integers(1, 10 ** 6)), int(rng.integers(0, 3))
            assert rm.toffoli_adder(b, c) == (c + 1) * b             # 6
        for _ in range(1000):
            n, b = int(rng.integers(1, 41)), int(rng.integers(1, 129))
            lam = 2 ** int(rng.integers(0, n + 1))
            assert rm.toffoli_zrot_mux(n, b, lam) == (               # 7
                2 ** (n + 1) // lam + (b + 1) * (lam - 1) + 2 * b - 3)
            assert rm.qubits_zrot_mux(n, b, lam) == (
                2 * n + (lam + 2) * b - _clog2(lam) - 3)
            assert rm.zrot_error(b) == math.pi * 2.0 ** (-b)         # 8
        for _ in range(1000):
            n, b = int(rng.integers(1, 51)), int(rng.integers(5, 121))
            assert rm.toffoli_arbitrary_state_prep(n, b) == (        # 9
                (1.0 + math.sqrt(2.0)) * math.sqrt(2 ** (n + 7) * (b + 1))
                + 2 * n * (b - 4))
            assert rm.qubits_arbitrary_state_prep(n, b) == (
                3 * n / 2 + 2.0 ** (n / 2 + 1) * b / math.sqrt(b + 1))
            assert rm.arb_prep_error(n, b) == 2.0 * math.pi * n * 2.0 ** (-b)
        for _ in range(1000):
            n, b = int(rng.integers(1, 41)), int(rng.integers(5, 121))
            assert rm.toffoli_unitary_synthesis(n, b) == (           # 10
                2.0 ** (3 * n / 2 + 4.5) * (1.0 + math.sqrt(2.0))
                * math.sqrt(b + 1) + 2 ** n * n * (8 * b - 15))
            assert rm.synthesis_error(n, b) == (
                8.0 * math.pi * math.sqrt(2.0) * n * 2.0 ** (n - b))
        for _ in range(1000):
            n_sites = int(rng.integers(1, 13))                       # 11
            m = tuple(int(x) for x in rng.integers(1, 301, size=n_sites - 1))
            b = int(rng.integers(5, 81))
            full = (1,) + m + (1,)
            want = 0.0
            want_err = 0.0
            for j in range(1, n_sites + 1):
                mj = full[j]
                mbar = max(2 ** _clog2(full[j - 1]), 2 ** _clog2(full[j]))
                want += (32.0 * (1.0 + math.sqrt(2.0)) * math.sqrt(b + 1)
                         * mj * math.sqrt(mbar)
                         + (8 * b - 15) * mj * math.log2(2 * mbar))
                want_err += mj * math.log2(2 * mbar)
            assert rm.toffoli_mps_prep(m, b) == want
            assert rm.mps_prep_error(m, b) == 2.0 ** (3.5 - b) * want_err
        for _ in range(1000):
            eta = int(rng.integers(1, 31))                           # 12
            n_sys = int(rng.integers(1, 501))
            costs = list(rng.uniform(0.0, 1e6, size=eta))
            assert rm.toffoli_slater(eta, n_sys, costs) == (
                eta ** 2 * n_sys + 2 * eta * sum(costs))
            n_mo = int(rng.integers(1, 31))
            e1, e2 = rng.uniform(0.0, 1.0, size=2)
            assert rm.slater_error_bound(eta, n_mo, e1, e2) == eta * (e1 + e2)
            assert rm.slater_error_bound(eta, n_mo, e1, e2, "spectral") == (
                2.0 ** 1.5 * eta * n_mo * (e1 + e2))
        for _ in range(1000):
            N = int(rng.integers(1, 10 ** 9))                        # 13
            eta, b = int(rng.integers(1, 101)), int(rng.integers(1, 101))
            assert rm.toffoli_naive_slater(N, eta, b) == (
                N * ((3 + 4 * b) * eta + _clog2(eta + 1) - 2))
        for _ in range(1000):
            N = int(rng.integers(1, 10 ** 9))                        # 14
            eta = int(rng.integers(1, 10 ** 6))
            assert rm.antisym_estimate(eta, N) == (
                eta * _clog2(eta) * _clog2(N))


def test_criterion_08_volume_doubling_cost_trend():
    """Fixed cutoff, L doubling: dense baseline 8x, train method <= 1.25x."""
    with criterion(8, budget_s=300):
        cfg = load_config(CONFIG_DIR / "synthetic_diatomic_Lsweep.json")
        fx = load_fixture(FIXTURE_DIR / "synthetic_diatomic.json")
        totals = []
        for L in (30.0, 60.0, 120.0, 240.0):
            point = {**cfg, "grid": {**cfg["grid"], "L_bohr": L}}
            rep = run_pipeline(point, fx).report
            totals.append((rep.totals["naive_method"],
                           rep.totals["mps_method"],
                           rep.totals["ratio_naive_over_mps"]))
        naive = [t[0] for t in totals]
        mps = [t[1] for t in totals]
        ratio = [t[2] for t in totals]
        for a, b in zip(naive, naive[1:]):
            assert abs(b / a - 8.0) <= 1e-12 * 8.0
        for a, b in zip(mps, mps[1:]):
            assert b / a <= 1.25
        assert all(b > a for a, b in zip(ratio, ratio[1:]))


def _sweep_rows(fx_name, cfg_name, tmp_path):
    out = tmp_path / fx_name
    result = CliRunner().invoke(main, [
        "sweep", "--config", str(CONFIG_DIR / f"{cfg_name}.json"),
        "--fixture", str(FIXTURE_DIR / f"{fx_name}.json"),
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / f"{fx_name}_sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_criterion_09_grid_and_truncation_error_trends(tmp_path):
    """Error falls monotonically with K and with tighter svd cutoffs, and
    the tight Gaussian needs a far larger cutoff than the diffuse one."""
    with criterion(9):
        first_ok = {}
        for name in ("localized_s", "diffuse_s"):
            rows = [r for r in _sweep_rows(name, name, tmp_path)
                    if r["axis"] == "K_inv_bohr"]
            errs = [float(r["error"]) for r in rows]
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-6  # float jitter at the converged floor
            ok = [float(r["value"]) for r in rows
                  if float(r["error"]) <= 1e-3]
            assert ok
            first_ok[name] = min(ok)
        assert first_ok["localized_s"] > first_ok["diffuse_s"]

        rows = _sweep_rows("synthetic_diatomic", "synthetic_diatomic",
                           tmp_path)
        for orb in ("0", "1"):
            errs = [float(r["error"]) for r in rows
                    if r["axis"] == "svd_cutoff" and r["orbital"] == orb]
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-9
            assert errs[0] > 1e-2 and errs[-1] < 1e-6


def test_criterion_10_orbital_bond_bound_with_looseness():
    """Certified orbital bond bound holds everywhere (and by a wide margin)."""
    with criterion(10):
        loosest, tightest = 0.0, math.inf
        for fx_name, cfg_name in SHIPPED_PAIRS:
            cfg = load_config(CONFIG_DIR / f"{cfg_name}.json")
            fx = load_fixture(FIXTURE_DIR / f"{fx_name}.json")
            result = run_pipeline(cfg, fx)
            eps = float(cfg["compression"]["eps_primitive"])
            for o, mps in zip(fx.orbitals, result.mos):
                ell = max(sum(fx.primitives[j].ang) for j in o.indices)
                bound = orbital_builder.mo_bond_bound(
                    len(o.indices), eps, 1.0, ell)
                max_bond = tt_core.max_bond_dim(mps.tt)
                assert max_bond <= bound
                ratio = bound / max_bond
                loosest = max(loosest, ratio)
                tightest = min(tightest, ratio)
        print(f"bond bound looseness: {tightest:.0f}x to {loosest:.0f}x")

"""The per-axis referee against the dense path it replaced.

`ttprep.oracle` never builds a 2^(3n) vector: it contracts trains against
per-axis plane-wave vectors.  Here the dense path is the referee's referee:
exact states are built the old way (per-axis `pw_overlap`, then `np.kron`)
and trains are expanded with `conftest.dense`, and every overlap the
oracle uses must agree with them.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ttprep import cli, gauss_pw, oracle, orbital_builder, tt_core
from ttprep.cli import main
from ttprep.tt_core import TensorTrain

from conftest import dense, random_tt

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
FIXTURE_DIR = Path(cli.__file__).resolve().parent / "fixtures"
SHIPPED_CONFIGS = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


def _fixture_for(config: str) -> Path:
    """A config X_suffix runs on fixture X, as in tools/shipped_outputs.py."""
    name = config
    while not (FIXTURE_DIR / f"{name}.json").exists():
        name = name.rsplit("_", 1)[0]
    return FIXTURE_DIR / f"{name}.json"


def _dense_exact_primitive(g, grid) -> np.ndarray:
    """Whole-line-normalized exact projection on the padded 3D window."""
    sgrid = grid.axis_grid()
    k = sgrid.index_values() * grid.dk
    axes = [sgrid.embed(gauss_pw.pw_overlap(g.gamma, g.ang[ax], g.center[ax],
                                            k, grid.L)) for ax in range(3)]
    norm = math.prod(gauss_pw.projection_normalization(g.gamma, g.ang[ax],
                                                       grid.L)
                     for ax in range(3))
    return np.kron(np.kron(axes[0], axes[1]), axes[2]) / norm


def test_six_shipped_pairs_are_covered():
    assert len(SHIPPED_CONFIGS) == 6


@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_overlaps_match_dense_path(config, tmp_path):
    cfg = cli.load_config(CONFIG_DIR / f"{config}.json")
    fx = cli.load_fixture(_fixture_for(config))
    result = cli.run_pipeline(cfg, fx)
    grid = result.grid
    n = grid.qubits_per_axis
    prim_dense = [dense(tt) for tt in result.prim_tts]
    prim_axes = [oracle.axis_vectors(tt, n) for tt in result.prim_tts]

    for g, tt_dense, axes in zip(fx.primitives, prim_dense, prim_axes):
        want = np.vdot(_dense_exact_primitive(g, grid), tt_dense)
        got = oracle.product_overlap(oracle.exact_axes(g, grid), axes)
        assert abs(got - want) <= 1e-12

    for i, (di, ai) in enumerate(zip(prim_dense, prim_axes)):
        for j, (dj, aj) in enumerate(zip(prim_dense, prim_axes)):
            assert abs(oracle.product_overlap(ai, aj) - np.vdot(di, dj)) \
                <= 1e-12, (i, j)

    for o, coeffs, mps in zip(fx.orbitals, result.coeffs, result.mos):
        t_dense = dense(mps.tt)
        # the exact orbital, as sweep's dense_window error sees it
        prims = [fx.primitives[j] for j in o.indices]
        gram = oracle._whole_line_gram(prims, grid)
        c = o.coeffs / math.sqrt(np.real(np.conj(o.coeffs) @ gram
                                         @ o.coeffs))
        exact = sum(cj * _dense_exact_primitive(g, grid)
                    for cj, g in zip(c, prims))
        want = np.vdot(exact, t_dense)
        stack = np.array([oracle.exact_axes(g, grid) for g in prims])
        got = sum(np.conj(c) * oracle.kron_overlap(stack, mps.tt))
        assert abs(got - want) <= 1e-12
        del exact
        # the sum of primitive trains, as tt_vs_dense_orbital sees it
        target = sum(c * prim_dense[j] for c, j in zip(coeffs, o.indices))
        want = np.vdot(target, t_dense)
        stack = np.array([prim_axes[j] for j in o.indices])
        got = sum(np.conj(coeffs) * oracle.kron_overlap(stack, mps.tt))
        assert abs(got - want) <= 1e-12

    # every shipped list is narrow: its build discarded nothing, so the
    # orbital check allows the config's tolerance or sqrt(2) estimates
    # plus the round-off floor of 8 sqrt(eps)
    tol = 1e-12
    cfg["oracle"].update(enabled=True, max_points_per_axis=128, tolerance=tol)
    details = {c["name"]: c["detail"]
               for c in oracle.run_checks(result, tmp_path)}
    for i, mps in enumerate(result.mos):
        assert mps.build_error == 0.0
        bound = max(tol, 2 ** 0.5 * orbital_builder.infidelity_estimate(mps)
                    + 8 * math.sqrt(np.finfo(float).eps))
        assert details[f"tt_vs_dense_orbital[{i}]"].endswith(
            f"(tol {bound:.1e})")


@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_honest_trains_pass_at_a_tight_tolerance(config, tmp_path):
    """At oracle.tolerance 1e-12 no check of a shipped pair FAILs.  An
    untruncated orbital differs from its dense sum only by round-off, but
    2 - 2 Re <t, T> cancels, so that round-off reads as a few sqrt(eps)
    (up to 3.9e-8 here), which the orbital check's floor must allow."""
    cfg = cli.load_config(CONFIG_DIR / f"{config}.json")
    cfg["oracle"].update(enabled=True, max_points_per_axis=128,
                         tolerance=1e-12)
    result = cli.run_pipeline(cfg, cli.load_fixture(_fixture_for(config)))
    checks = oracle.run_checks(result, tmp_path)
    assert any(c["name"].startswith("tt_vs_dense_orbital") for c in checks)
    assert [c for c in checks if c["status"] == "FAIL"] == []


def test_helpers_match_dense_on_random_trains(rng):
    n = 3
    parts = [random_tt(rng, n, max_bond=3) for _ in range(3)]
    product = TensorTrain([c for p in parts for c in p.cores])
    for got, part in zip(oracle.axis_vectors(product, n), parts):
        assert np.allclose(got, dense(part), atol=1e-12)

    stack = (rng.standard_normal((4, 3, 2 ** n))
             + 1j * rng.standard_normal((4, 3, 2 ** n)))
    for bond in (1, 4):
        t = random_tt(rng, 3 * n, max_bond=bond)
        got = oracle.kron_overlap(stack, t)
        assert got.shape == (len(stack),)
        for term, value in zip(stack, got):
            full = np.kron(np.kron(term[0], term[1]), term[2])
            want = np.vdot(full, dense(t))
            assert abs(value - want) <= 1e-12 * max(abs(want), 1.0)


S_PAIR = [{"center": [0.5, 0.0, 0.0], "gamma": 0.5, "ang": [0, 0, 0]},
          {"center": [-0.5, 0.0, 0.0], "gamma": 0.5, "ang": [0, 0, 0]}]


def _run(tmp_path, cfg, fx):
    cfg_path, fx_path = tmp_path / "cfg.json", tmp_path / "fx.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    fx_path.write_text(json.dumps(fx), encoding="utf-8")
    return cli.run_pipeline(cli.load_config(cfg_path),
                            cli.load_fixture(fx_path))


def _pair_result(tmp_path, primitives=S_PAIR):
    """Pipeline result of two primitives (by default s, 1 Bohr apart) and
    one orbital over both."""
    cfg = {
        "grid": {"L_bohr": 10.0, "K_inv_bohr": 10.0},
        "compression": {"svd_cutoff": 0.0, "eps_primitive": 1e-3},
        "resources": {"b": 10},
        "oracle": {"enabled": True, "max_points_per_axis": 64},
    }
    fx = {
        "name": "pair",
        "primitives": primitives,
        "orbitals": [{"occupation": 1, "coeffs": [1.0, 1.0]}],
    }
    return _run(tmp_path, cfg, fx)


def test_non_product_primitive_fails_by_name(tmp_path):
    result = _pair_result(tmp_path)
    pair = tt_core.canonical_sum(result.prim_tts, [1.0, 1.0])
    with pytest.raises(tt_core.ShapeError):
        oracle.axis_vectors(pair, result.grid.qubits_per_axis)

    result.prim_tts[1] = pair
    checks = oracle.run_checks(result, tmp_path)
    assert checks[0]["name"] == "dense_oracle"
    assert checks[0]["status"] == "FAIL"
    assert checks[0]["detail"].startswith(
        "primitive 1 is not a product of axis trains: bond 2 at the axis "
        "boundary")
    names = [c["name"] for c in checks]
    assert names == ["dense_oracle", "primitive_norm[0]", "primitive_norm[1]",
                     "orbital_norm[0]"]


def test_orbital_check_sees_a_sign_flip(tmp_path):
    """-T has the norm and |<t, T>| of T; the orbital check must FAIL it."""
    result = _pair_result(tmp_path)
    statuses = {c["name"]: c["status"]
                for c in oracle.run_checks(result, tmp_path)}
    assert statuses["tt_vs_dense_orbital[0]"] == "PASS"
    mps = result.mos[0]
    result.mos[0] = dataclasses.replace(mps, tt=tt_core.scale(mps.tt, -1.0))
    checks = {c["name"]: c for c in oracle.run_checks(result, tmp_path)}
    assert checks["orbital_norm[0]"]["status"] == "PASS"
    assert checks["tt_vs_dense_orbital[0]"]["status"] == "FAIL"
    assert "= 2.000e+00" in checks["tt_vs_dense_orbital[0]"]["detail"]


def test_norm_checks_trust_no_canonical_tag(tmp_path):
    """A false "left" tag fools tt_core.norm, which reads the last core
    alone; the referee's norm checks contract the raw cores and FAIL."""
    result = _pair_result(tmp_path)
    cores = list(tt_core.left_canonicalize(result.mos[0].tt).cores)
    cores[0] = 2.0 * cores[0]
    false_left = TensorTrain(cores, canonical_form="left")
    assert tt_core.norm(false_left) == pytest.approx(1.0, abs=1e-12)
    assert oracle.self_norm(false_left) == pytest.approx(2.0, abs=1e-12)
    result.mos[0] = dataclasses.replace(result.mos[0], tt=false_left)
    first, *rest = result.prim_tts[0].cores
    result.prim_tts[0] = TensorTrain([2.0 * first, *rest],
                                     canonical_form="left")
    checks = {c["name"]: c for c in oracle.run_checks(result, tmp_path)}
    for name in ("orbital_norm[0]", "primitive_norm[0]"):
        assert checks[name]["status"] == "FAIL"
        assert "= 1.000e+00" in checks[name]["detail"]
    assert checks["primitive_norm[1]"]["status"] == "PASS"


@pytest.mark.parametrize("n", range(1, 7))
def test_self_norm_matches_dense(rng, n):
    t = random_tt(rng, n, max_bond=4)
    assert oracle.self_norm(t) == pytest.approx(np.linalg.norm(dense(t)),
                                                rel=1e-12)


def test_gram_check_sees_a_transpose(tmp_path):
    """gram_vs_dense must tell S from S^T wherever they differ."""
    result = _pair_result(tmp_path, [
        {"center": [0.5, 0.3, 0.0], "gamma": 0.5, "ang": [1, 0, 0]},
        {"center": [-0.4, 0.0, 0.2], "gamma": 0.7, "ang": [1, 1, 0]}])
    statuses = {c["name"]: c["status"]
                for c in oracle.run_checks(result, tmp_path)}
    assert statuses["gram_vs_dense"] == "PASS"
    # Real Gaussians have Hermitian-symmetric coefficients on the symmetric
    # momentum window, so even an off-centre p-shell pair has a real Gram
    # matrix and S^T = S: no shipped or physical input can show a transpose.
    S = result.S
    assert abs(S[0, 1]) > 1e-2
    assert abs(S[0, 1].imag) < 1e-12

    # A phase i on half of one train's first site keeps it a unit product
    # train but breaks that symmetry, so the Gram matrix turns complex.
    tilted = list(result.prim_tts[1].cores)
    tilted[0] = tilted[0] * np.array([1.0, 1j])[None, :, None]
    result.prim_tts[1] = TensorTrain(tilted)
    S = tt_core.gram(result.prim_tts)
    assert abs(S[0, 1].imag) > 1e-3
    result.S = S
    statuses = {c["name"]: c["status"]
                for c in oracle.run_checks(result, tmp_path)}
    assert statuses["gram_vs_dense"] == "PASS"
    result.S = S.T
    checks = {c["name"]: c for c in oracle.run_checks(result, tmp_path)}
    assert checks["gram_vs_dense"]["status"] == "FAIL"


def test_gram_check_sees_a_non_hermitian_entry(tmp_path):
    """With no Gram wrapper to reject it, a non-Hermitian S is caught only
    by gram_vs_dense: one off-diagonal entry off by 1e-3 must FAIL."""
    result = _pair_result(tmp_path)
    statuses = {c["name"]: c["status"]
                for c in oracle.run_checks(result, tmp_path)}
    assert statuses["gram_vs_dense"] == "PASS"
    S = result.S.copy()
    S[1, 0] += 1e-3
    assert not np.allclose(S, S.conj().T, atol=1e-10)
    result.S = S
    checks = {c["name"]: c for c in oracle.run_checks(result, tmp_path)}
    assert checks["gram_vs_dense"]["status"] == "FAIL"


def test_oracle_passes_above_the_dense_cap(tmp_path):
    """27 system qubits, above the 24-site cap of a whole-register dense
    vector, yet every dense check runs and passes in a few seconds."""
    cfg = {
        "grid": {"L_bohr": 25.0, "K_inv_bohr": 64.0},
        "compression": {"svd_cutoff": 0.0, "eps_primitive": 1e-3},
        "resources": {"b": 10},
        "oracle": {"enabled": True, "max_points_per_axis": 1024},
    }
    fx = {
        "name": "wide",
        "primitives": [
            {"center": [0.3, 0.0, 0.0], "gamma": 25.0, "ang": [0, 0, 0]},
            {"center": [-0.3, 0.2, 0.0], "gamma": 12.0, "ang": [1, 0, 0]}],
        "orbitals": [{"occupation": 1, "coeffs": [1.0, 0.5]},
                     {"occupation": 1, "coeffs": [0.4, -1.0]}],
    }
    cfg_path, fx_path = tmp_path / "cfg.json", tmp_path / "fx.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    fx_path.write_text(json.dumps(fx), encoding="utf-8")
    out = tmp_path / "out"
    start = time.perf_counter()
    result = CliRunner().invoke(main, [
        "oracle", "--config", str(cfg_path), "--fixture", str(fx_path),
        "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "wide_oracle.json").read_text(encoding="utf-8"))
    assert doc["grid"]["qubits_per_axis"] >= 9
    assert doc["grid"]["n_system_qubits"] > 24
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert "dense_oracle" not in statuses
    for name in ("primitive_trace_distance[0]", "primitive_trace_distance[1]",
                 "tt_vs_dense_orbital[0]", "tt_vs_dense_orbital[1]",
                 "gram_vs_dense"):
        assert statuses[name] == "PASS", result.output
    assert set(statuses.values()) == {"PASS"}
    assert elapsed < 30.0


def _chain_result(tmp_path, svd_cutoff=0.0):
    """Three centres with two s exponents each, and three orbitals over all
    six primitives, truncated at svd_cutoff."""
    cfg = {
        "grid": {"L_bohr": 10.0, "K_inv_bohr": 14.0},
        "compression": {"svd_cutoff": svd_cutoff, "eps_primitive": 1e-3},
        "resources": {"b": 10},
        "oracle": {"enabled": True, "max_points_per_axis": 64},
    }
    fx = {
        "name": "chain",
        "primitives": [{"center": [x, 0.0, 0.0], "gamma": g,
                        "ang": [0, 0, 0]}
                       for x in (-1.8, 0.0, 1.8) for g in (1.0, 0.3)],
        "orbitals": [{"occupation": 1,
                      "coeffs": [s * c for s in signs for c in (0.62, 0.45)]}
                     for signs in ((1, 1, 1), (1, 0, -1), (1, -2, 1))],
    }
    return _run(tmp_path, cfg, fx)


def _counting(monkeypatch, name):
    """Record the arguments of every call to oracle.<name>."""
    calls, real = [], getattr(oracle, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, name, counted)
    return calls


def test_referee_computes_each_axis_vector_once(tmp_path, monkeypatch):
    """sweep_errors on the chain evaluates one lattice window per
    primitive, not one per orbital and primitive, and at most one
    whole-line overlap per unordered pair (15), not one per orbital and
    pair; every cached window is read-only."""
    result = _chain_result(tmp_path)
    oracle._lattice_axes.cache_clear()
    overlaps = _counting(monkeypatch, "product_overlap")
    oracle.sweep_errors([result])
    assert oracle._lattice_axes.cache_info().misses == 6
    assert len(overlaps) <= 15
    for g in result.fixture.primitives:
        assert not oracle._lattice_axes(g, result.grid).flags.writeable


def test_sweep_folds_each_orbital_into_its_train_once(tmp_path, monkeypatch):
    """sweep_errors on the chain makes one kron_overlap call per orbital
    and result, each over a stack of all six primitives' exact axes."""
    result = _chain_result(tmp_path)
    folds = _counting(monkeypatch, "kron_overlap")
    oracle.sweep_errors([result])
    assert len(folds) == 3
    assert all(stack.shape[:2] == (6, 3) for stack, _ in folds)


def test_run_checks_builds_one_train_gram(tmp_path, monkeypatch):
    """On 24 random l <= 1 primitives and 4 orbitals over all of them,
    run_checks forms the trains' Gram once, from its upper triangle and
    diagonal (G(G+1)/2 axis overlaps), plus at most one overlap per
    primitive trace distance, and folds each orbital into its train in one
    kron_overlap call."""
    rng = np.random.default_rng(7)
    n_prims, n_orbitals = 24, 4
    cfg = {
        "grid": {"L_bohr": 10.0, "K_inv_bohr": 12.0},
        "compression": {"svd_cutoff": 0.0, "eps_primitive": 1e-3},
        "resources": {"b": 10},
        "oracle": {"enabled": True, "max_points_per_axis": 64},
    }
    fx = {
        "name": "basis",
        "primitives": [
            {"center": [float(x) for x in rng.uniform(-1.5, 1.5, 3)],
             "gamma": float(rng.uniform(0.6, 1.6)),
             "ang": [int(a) for a in rng.integers(0, 2, 3)]}
            for _ in range(n_prims)],
        "orbitals": [{"occupation": 1, "coeffs": [
            float(c) for c in rng.uniform(0.3, 1.0, n_prims)]}
            for _ in range(n_orbitals)],
    }
    result = _run(tmp_path, cfg, fx)
    overlaps = _counting(monkeypatch, "product_overlap")
    folds = _counting(monkeypatch, "kron_overlap")
    checks = oracle.run_checks(result, tmp_path)
    assert {c["status"] for c in checks} <= {"PASS", "SKIP"}
    assert sum(c["name"] == "gram_vs_dense" for c in checks) == 1
    assert len(overlaps) <= n_prims * (n_prims + 1) // 2 + n_prims
    assert len(folds) == n_orbitals


def test_orbital_check_sees_a_forged_norm(tmp_path):
    """Truncated at 0.03, each orbital is about its trace-distance estimate
    from the sum of primitive trains, and passes; an orbital whose
    raw_norm_sq claims nothing was dropped must FAIL, whatever svd_cutoff
    the result was run at."""
    result = _chain_result(tmp_path, svd_cutoff=0.03)
    checks = {c["name"]: c for c in oracle.run_checks(result, tmp_path)}
    for i, mps in enumerate(result.mos):
        assert orbital_builder.infidelity_estimate(mps) > 1e-2
        assert checks[f"tt_vs_dense_orbital[{i}]"]["status"] == "PASS"
    result.mos[0] = dataclasses.replace(result.mos[0], raw_norm_sq=1.0)
    checks = {c["name"]: c for c in oracle.run_checks(result, tmp_path)}
    assert checks["orbital_norm[0]"]["status"] == "PASS"
    assert checks["tt_vs_dense_orbital[0]"]["status"] == "FAIL"
    assert checks["tt_vs_dense_orbital[1]"]["status"] == "PASS"


def test_referee_needs_no_library_normalization(tmp_path, monkeypatch):
    """The referee normalizes by its own lattice sums: with the library's
    projection_normalization made to raise, run_checks and sweep_errors
    give what they gave before."""
    result = _pair_result(tmp_path, [
        S_PAIR[0], {"center": [-0.5, 0.2, 0.0], "gamma": 0.8,
                    "ang": [1, 0, 2]}])

    def fresh():
        for f in vars(oracle).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
        return oracle.run_checks(result, tmp_path), \
            oracle.sweep_errors([result])

    want = fresh()

    def refuse(*args):
        raise AssertionError("the referee used the library's normalization")

    monkeypatch.setattr(gauss_pw, "projection_normalization", refuse)
    assert fresh() == want

"""Independent referee: trains checked against exact plane-wave overlaps.

Exact states and primitive trains are sums of Kronecker products of axis
vectors of 2^n entries (exact ones unit in the referee's own lattice sums,
one window each), so no check builds a 2^(3n) vector: each table is built
once per call, and an orbital's G terms fold into its train at once."""

from __future__ import annotations

import functools
import itertools
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import gauss_pw, orbital_builder, tt_core

if TYPE_CHECKING:
    from .pipeline import PipelineResult
    from .gauss_pw import PlaneWaveGrid, PrimitiveGaussian
    from .tt_core import TensorTrain


def skip_reason(config: dict, grid: PlaneWaveGrid) -> str | None:
    """Why the dense checks do not run, or None: the one predicate `sweep`
    and `oracle` share (enabled, and within max_points_per_axis)."""
    cap = config["oracle"]["max_points_per_axis"]
    if not config["oracle"]["enabled"]:
        return "oracle.enabled is false; dense checks skipped"
    if grid.points_per_axis > cap:
        return (f"{grid.points_per_axis} points/axis exceed the oracle cap "
                f"{cap}; dense checks skipped")
    return None


def axis_vectors(tt: TensorTrain, n_axis: int) -> list[np.ndarray]:
    """Vectors a, b, c of length 2^n_axis with tt = a (x) b (x) c, or
    ShapeError; no intermediate exceeds 2^n_axis entries."""
    vectors = []
    for start in range(0, len(tt.cores), n_axis):
        if tt.cores[start].shape[0] != 1:
            raise tt_core.ShapeError(f"bond {tt.cores[start].shape[0]} at the "
                                     f"axis boundary before site {start}")
        vec = np.ones((1, 1), dtype=complex)
        for c in tt.cores[start:start + n_axis]:
            vec = (vec @ c.reshape(len(c), -1)).reshape(-1, c.shape[2])
        vectors.append(vec.reshape(-1))
    return vectors


def kron_overlap(stack, tt: TensorTrain) -> np.ndarray:
    """<a_g (x) b_g (x) c_g, T> for each row g of a (G, 3, 2^n) stack and a
    3n-site train T, folding all G axis vectors in one site at a time; the
    working array holds G x bond x 2^n entries."""
    n_axis = len(tt.cores) // 3
    env = np.ones((len(stack), 1), dtype=complex)
    for block in range(3):
        w = env[:, :, None] * np.conj(stack[:, block])[:, None, :]
        for c in tt.cores[block * n_axis:(block + 1) * n_axis]:
            w = c.reshape(-1, c.shape[2]).T @ w.reshape(len(w), 2 * len(c), -1)
        env = w.reshape(len(w), -1)
    return env[:, 0]


def self_norm(tt: TensorTrain) -> float:
    """sqrt(<T, T>) by a contraction over T's raw cores: the referee's
    norm, which trusts no canonical-form tag."""
    env = np.ones((1, 1), dtype=complex)
    for c in tt.cores:
        w = (env @ c.reshape(len(c), -1)).reshape(-1, c.shape[2])
        env = c.reshape(-1, c.shape[2]).conj().T @ w
    return math.sqrt(max(0.0, env[0, 0].real))


def product_overlap(u, v) -> complex:
    """<u_x (x) u_y (x) u_z, v_x (x) v_y (x) v_z>, axis by axis."""
    return complex(np.prod([np.vdot(a, b) for a, b in zip(u, v)]))


def _distance(overlap: complex) -> float:
    return math.sqrt(max(0.0, 1.0 - abs(overlap) ** 2))


@functools.lru_cache(maxsize=None)
def _lattice_axes(g: PrimitiveGaussian, grid: PlaneWaveGrid) -> np.ndarray:
    """g's axis factors at the momenta |i| <= I, one read-only row per axis,
    each unit over that window: I covers the grid and reaches
    14 sqrt(2 gamma), past which the lattice weight is below round-off."""
    i_far = max(grid.half_points,
                math.ceil(14.0 * math.sqrt(2.0 * g.gamma) / grid.dk) + 1)
    k = np.arange(-i_far, i_far + 1) * grid.dk
    rows = np.array([gauss_pw.pw_overlap(g.gamma, l, a, k, grid.L)
                     for l, a in zip(g.ang, g.center)])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows.flags.writeable = False
    return rows


def _centre(rows: np.ndarray, half: int) -> np.ndarray:
    """The columns |i| <= half of a window of rows centred on i = 0."""
    mid = rows.shape[1] // 2
    return rows[:, mid - half:mid + half + 1]


def exact_axes(g: PrimitiveGaussian, grid: PlaneWaveGrid) -> np.ndarray:
    """Axis factors of g's exact projection on the signed-grid window, one
    row per axis: the embedded centre of g's lattice window."""
    sgrid = grid.axis_grid()
    return np.array([sgrid.embed(v) for v in
                     _centre(_lattice_axes(g, grid), grid.half_points)])


def _whole_line_gram(prims, grid: PlaneWaveGrid) -> np.ndarray:
    """Inner products of the prims' unit whole-lattice projections, one per
    unordered pair, over the centre slice their two windows share."""
    rows = [_lattice_axes(g, grid) for g in prims]
    gram = np.eye(len(prims), dtype=complex)
    for i, j in itertools.combinations(range(len(prims)), 2):
        half = min(rows[i].shape[1], rows[j].shape[1]) // 2
        gram[i, j] = product_overlap(_centre(rows[i], half),
                                     _centre(rows[j], half))
        gram[j, i] = np.conj(gram[i, j])
    return gram


def sweep_errors(results: list[PipelineResult]) -> list[list[tuple]]:
    """(error, kind) per orbital per result on one grid: trace distance to
    the exact orbital, unit in the whole-line gram so that the tail outside
    the window counts (dense_window), or the train's estimate (norm_drift)."""
    first = results[0]
    if skip_reason(first.config, first.grid) is not None:
        return [[(orbital_builder.infidelity_estimate(mps), "norm_drift")
                 for mps in result.mos] for result in results]
    fx, grid = first.fixture, first.grid
    gram = _whole_line_gram(fx.primitives, grid)
    stack = np.array([exact_axes(g, grid) for g in fx.primitives])
    coeffs = []
    for o in fx.orbitals:
        sub = gram[np.ix_(o.indices, o.indices)]
        nrm_sq = float(np.real(np.conj(o.coeffs) @ sub @ o.coeffs))
        if nrm_sq <= 0:
            raise ValueError("dense oracle produced a zero orbital")
        coeffs.append(o.coeffs / math.sqrt(nrm_sq))
    return [[(_distance(sum(np.conj(c) * kron_overlap(
                stack[list(o.indices)], mps.tt))), "dense_window")
             for o, c, mps in zip(fx.orbitals, coeffs, result.mos)]
            for result in results]


def _check(name: str, status: str, detail: str) -> dict:
    return {"name": name, "status": status, "detail": detail}


def _bounded(name: str, value: float, bound: float, detail: str) -> dict:
    return _check(name, "PASS" if value <= bound else "FAIL", detail)


def run_checks(result: PipelineResult, out_dir: Path) -> list[dict]:
    """Every oracle check of one result, in report order; a primitive train
    that is no product of axis trains FAILs dense_oracle by name."""
    cfg, grid, fx = result.config, result.grid, result.fixture
    tol = float(cfg["oracle"]["tolerance"])
    eps_p = float(cfg["compression"]["eps_primitive"])
    reason = skip_reason(cfg, grid)
    checks = [] if reason is None else [_check("dense_oracle", "SKIP", reason)]
    vectors = []
    for gi, tt in enumerate(result.prim_tts if reason is None else ()):
        try:
            vectors.append(axis_vectors(tt, grid.qubits_per_axis))
        except tt_core.ShapeError as e:
            reason = f"primitive {gi} is not a product of axis trains: {e}"
            checks.append(_check("dense_oracle", "FAIL", reason))
            break
    if reason is None:
        vectors = np.array(vectors)
        gram = np.diag([product_overlap(v, v) for v in vectors])
        for i, j in itertools.combinations(range(len(vectors)), 2):
            gram[i, j] = product_overlap(vectors[i], vectors[j])
            gram[j, i] = np.conj(gram[i, j])

    for gi, (g, tt) in enumerate(zip(fx.primitives, result.prim_tts)):
        drift = abs(self_norm(tt) - 1.0)
        checks.append(_bounded(f"primitive_norm[{gi}]", drift, 1e-9,
                               f"|norm-1| = {drift:.3e} (tol 1e-9)"))
        if reason is not None:
            continue
        name = f"primitive_trace_distance[{gi}]"
        lemma_k = gauss_pw.certified_cutoff(g, grid.L, eps_p)
        if grid.K < lemma_k:
            checks.append(_check(name, "SKIP", f"grid K = {grid.K:.3g} below "
                                 f"the certified cutoff {lemma_k:.3g}; bound "
                                 f"not applicable"))
            continue
        d = _distance(product_overlap(exact_axes(g, grid), vectors[gi]))
        checks.append(_bounded(name, d, eps_p,
                               f"D = {d:.3e} (budget {eps_p:.1e})"))

    for i, (o, c, mps) in enumerate(zip(fx.orbitals, result.coeffs,
                                        result.mos)):
        drift = abs(self_norm(mps.tt) - 1.0)
        checks.append(_bounded(f"orbital_norm[{i}]", drift, 1e-9,
                               f"|norm-1| = {drift:.3e} (tol 1e-9)"))
        if reason is not None:
            continue
        # unit t = sum_j c_j p_j: |t - T|^2 = 2 - 2 Re <t, T> <= 2 estimate^2
        nrm_sq = np.real(np.conj(c) @ gram[np.ix_(o.indices, o.indices)] @ c)
        overlap = sum(np.conj(c) * kron_overlap(vectors[list(o.indices)],
                                                mps.tt))
        diff = math.sqrt(max(0.0, 2.0 - 2.0 * overlap.real
                             / math.sqrt(nrm_sq)))
        # build_error moves the unit train twice: as itself, and by the norm;
        # 2 - 2 Re <t, T> / |t| cancels, so up to 32 ulps of round-off in
        # the ratio read as 8 sqrt(eps) ~ 1.2e-7 in diff
        tol_eff = max(tol, 2.0 * mps.build_error
                      + 2 ** 0.5 * orbital_builder.infidelity_estimate(mps)
                      + 8.0 * math.sqrt(np.finfo(float).eps))
        checks.append(_bounded(
            f"tt_vs_dense_orbital[{i}]", diff, tol_eff,
            f"|dense_sum - tt| = {diff:.3e} (tol {tol_eff:.1e})"))

    if reason is None:
        worst = float(np.abs(gram - result.S).max())
        checks.append(_bounded("gram_vs_dense", worst, tol, f"max |dense - S| "
                               f"= {worst:.3e} (tol {tol:.1e})"))

    for i, mps in enumerate(result.mos):
        dump = out_dir / f"{fx.name}_orbital_{i}_tt.json"
        name = f"dump_agreement[{i}]"
        if not dump.exists():
            continue
        try:
            cores = tt_core.from_debug_json(
                json.loads(dump.read_text(encoding="utf-8"))).cores
            if [c.shape for c in cores] != [c.shape for c in mps.tt.cores]:
                raise ValueError("core shapes differ from the rebuilt train's")
        except (ValueError, KeyError) as e:
            checks.append(_check(name, "FAIL", f"bad dump: {e}"))
            continue
        diff = max(float(np.abs(a - b).max())
                   for a, b in zip(cores, mps.tt.cores))
        checks.append(_bounded(name, diff, 1e-12, f"max |dumped - rebuilt| "
                               f"entry = {diff:.3e} (tol 1e-12)"))
    return checks

"""Batch front end: fixtures in, deterministic CSV/JSON reports out.

Four subcommands share one pipeline (project primitives, orthogonalize,
assemble orbital trains, measure bond profiles, cost them):

  project   build every orbital MPS and emit bond-profile CSVs
  estimate  full Toffoli/qubit resource report (JSON + CSV)
  sweep     repeat the pipeline along L / K / E_cut / svd_cutoff axes
  oracle    cross-checks of trains against exact per-axis k-space sums

Grid cutoffs may be given as K (inverse Bohr) or as a kinetic-energy
cutoff E_cut (Hartree) with K = sqrt(2 E_cut).  Every float is serialized
with 17 significant digits, keys are sorted, and nothing timestamps the
output, so reruns are byte-identical.  The naive-baseline mode count is
the padded register size 2^(3 qubits_per_axis) that the qubit encoding
addresses (the odd per-plane-wave count is also reported); this is what
makes the baseline scale exactly with L^3 across doublings.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from pathlib import Path

import click
import numpy as np

from . import (__version__, gauss_pw, oracle, orbital_builder,
               resource_model, tt_core)
from .gauss_pw import PlaneWaveGrid, PrimitiveGaussian
from .orbital_builder import MolecularOrbital
from .resource_model import BondProfile, ResourceParams

# sweep axis (config key, in run order) -> run_pipeline keyword
SWEEP_AXES = {"L_bohr": "L", "K_inv_bohr": "K", "E_cut_hartree": "e_cut",
              "svd_cutoff": "svd_cutoff"}


# ---------------------------------------------------------------------------
# serialization: 17-significant-digit floats, sorted keys, LF endings

def _f17(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} in report")
    return "%.17g" % x


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _f17(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = (f'{pad}  {json.dumps(str(k))}: {_json_text(obj[k], indent + 1)}'
                for k in sorted(obj))
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = (f"{pad}  {_json_text(v, indent + 1)}" for v in obj)
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path: Path, obj) -> None:
    path.write_text(_json_text(obj) + "\n", encoding="utf-8", newline="\n")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _f17(v)
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# validation: the draft 2020-12 keywords the shipped schemas use.  A bool is
# not a number and 2.0 is an integer.  Unlike JSON Schema, every number must
# also be finite, because json.loads reads NaN, Infinity and -Infinity.

class _Invalid(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int)
                                            or v.is_integer()),
}

# numeric bound keyword -> (test that fails the value, message)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge,
                         "greater than or equal to the maximum of"),
}

_KEYWORDS = {"type", "enum", "required", "properties", "additionalProperties",
             "items", "minItems", "maxItems", "minLength", "pattern", "oneOf",
             "not", *_BOUNDS}
_ANNOTATIONS = {"$schema", "title", "description"}


def _guarded(schema: dict) -> dict:
    """Return `schema` once it and every subschema use only the keywords
    `_check` implements, so that a schema edit cannot silently skip a check;
    raise ValueError otherwise."""
    unknown = sorted(schema.keys() - _KEYWORDS - _ANNOTATIONS)
    if unknown:
        raise ValueError(f"schema keyword {unknown[0]!r} is not implemented")
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    subs += [schema[k] for k in ("items", "not", "additionalProperties")
             if isinstance(schema.get(k), dict)]
    for sub in subs:
        _guarded(sub)
    return schema


def _check(value, schema: dict, path: str = "$") -> None:
    """Raise _Invalid at the first part of `value` that `schema` rejects."""
    if isinstance(value, float) and not math.isfinite(value):
        raise _Invalid(path, f"{value!r} is not a finite number")
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        raise _Invalid(path, f"{value!r} is not of type {kind!r}")
    if "enum" in schema and not any(
            v == value and isinstance(v, bool) == isinstance(value, bool)
            for v in schema["enum"]):
        raise _Invalid(path, f"{value!r} is not one of {schema['enum']!r}")
    if _is_number(value):
        for key, (fails, text) in _BOUNDS.items():
            if key in schema and fails(value, schema[key]):
                raise _Invalid(path, f"{value!r} is {text} {schema[key]!r}")
    elif isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            raise _Invalid(path, f"{value!r} is too short")
        if "pattern" in schema and not re.search(schema["pattern"], value):
            raise _Invalid(path,
                           f"{value!r} does not match {schema['pattern']!r}")
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise _Invalid(path, f"{value!r} is too short")
        if len(value) > schema.get("maxItems", math.inf):
            raise _Invalid(path, f"{value!r} is too long")
        if "items" in schema:
            for i, item in enumerate(value):
                _check(item, schema["items"], f"{path}[{i}]")
    elif isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise _Invalid(path, f"{key!r} is a required property")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            sub = props.get(key, extra)
            if sub is False:
                raise _Invalid(path, "Additional properties are not allowed "
                                     f"({key!r} was unexpected)")
            if sub is not True:
                _check(item, sub, f"{path}.{key}")
    if "oneOf" in schema:
        n = sum(_passes(value, sub) for sub in schema["oneOf"])
        if n != 1:
            raise _Invalid(path, f"{value!r} matches {n} of the oneOf "
                                 "schemas, not exactly one")
    if "not" in schema and _passes(value, schema["not"]):
        raise _Invalid(path, f"{value!r} should not be valid under "
                             f"{schema['not']!r}")


def _passes(value, schema: dict) -> bool:
    try:
        _check(value, schema)
    except _Invalid:
        return False
    return True


# ---------------------------------------------------------------------------
# config / fixture loading

@functools.lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    # the tests check the shipped schemas against their metaschema
    ref = importlib_resources.files("ttprep") / "schemas" / f"{name}.schema.json"
    return _guarded(json.loads(ref.read_text(encoding="utf-8")))


def _validated(raw: dict, schema_name: str, label: str) -> dict:
    try:
        _check(raw, _schema(schema_name))
    except _Invalid as e:
        raise click.ClickException(
            f"{label} invalid at {e.path}: {e.message}") from e
    return raw


def _read_json(path, label: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise click.ClickException(f"{label} {path}: {e}") from e


def load_config(path) -> dict:
    cfg = _validated(_read_json(path, "config"), "config", f"config {path}")
    cfg["compression"].setdefault("eps_sum", 1e-9)
    oracle_cfg = cfg.setdefault("oracle", {})
    oracle_cfg.setdefault("enabled", False)
    oracle_cfg.setdefault("max_points_per_axis", 32)
    oracle_cfg.setdefault("tolerance", 1e-6)
    oracle_cfg.setdefault("dump_tt", False)
    cfg.setdefault("sweep", {})
    return cfg


def _as_complex(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    return complex(entry[0], entry[1])


@dataclass(frozen=True)
class FixtureOrbital:
    occupation: int
    coeffs: np.ndarray = field(repr=False)
    indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class Fixture:
    name: str
    provenance: str
    primitives: tuple[PrimitiveGaussian, ...]
    orbitals: tuple[FixtureOrbital, ...]


def load_fixture(path) -> Fixture:
    raw = _validated(_read_json(path, "fixture"), "fixture", f"fixture {path}")
    prims = tuple(
        PrimitiveGaussian(center=tuple(p["center"]), gamma=p["gamma"],
                          ang=tuple(p["ang"]))
        for p in raw["primitives"])
    orbitals = []
    for i, o in enumerate(raw["orbitals"]):
        indices = tuple(o.get("primitive_indices", range(len(prims))))
        for j in indices:
            if not 0 <= j < len(prims):
                raise click.ClickException(
                    f"fixture invalid at $.orbitals[{i}].primitive_indices: "
                    f"index {j} outside 0..{len(prims) - 1}")
        coeffs = np.array([_as_complex(c) for c in o["coeffs"]], dtype=complex)
        if coeffs.size != len(indices):
            raise click.ClickException(
                f"fixture invalid at $.orbitals[{i}].coeffs: {coeffs.size} "
                f"coefficients for {len(indices)} primitives")
        orbitals.append(FixtureOrbital(occupation=int(o["occupation"]),
                                       coeffs=coeffs, indices=indices))
    return Fixture(name=raw["name"], provenance=raw.get("provenance", ""),
                   primitives=prims, orbitals=tuple(orbitals))


def grid_from_config(cfg: dict, L=None, K=None, e_cut=None) -> PlaneWaveGrid:
    g = cfg["grid"]
    L = float(g["L_bohr"]) if L is None else float(L)
    if K is not None:
        return PlaneWaveGrid(L=L, K=float(K))
    if e_cut is not None:
        return PlaneWaveGrid.from_energy_cutoff(L, float(e_cut))
    if "K_inv_bohr" in g:
        return PlaneWaveGrid(L=L, K=float(g["K_inv_bohr"]))
    return PlaneWaveGrid.from_energy_cutoff(L, float(g["E_cut_hartree"]))


# ---------------------------------------------------------------------------
# pipeline

@dataclass
class OrbitalRecord:
    index: int
    occupation: int
    coeffs: np.ndarray
    indices: tuple[int, ...]
    mps: orbital_builder.OrbitalMPS
    profile: BondProfile
    prep_toffoli: float
    prep_error: float

    @property
    def max_bond(self) -> int:
        return tt_core.max_bond_dim(self.mps.tt)


@dataclass
class GridStage:
    """The part of a pipeline run fixed by the grid: everything but svd_cutoff.

    coeffs[i] are orbital i's coefficients normalized in the projected
    overlap metric, and mos[i] its untruncated train.
    """

    grid: PlaneWaveGrid
    fixture: Fixture
    config: dict
    prim_tts: list
    overlap: orbital_builder.OverlapMatrix
    eta: int
    coeffs: list[np.ndarray]
    mos: list[orbital_builder.OrbitalMPS]


@dataclass
class PipelineResult:
    grid: PlaneWaveGrid
    fixture: Fixture
    config: dict
    svd_cutoff: float
    prim_tts: list
    overlap: orbital_builder.OverlapMatrix
    orbitals: list[OrbitalRecord]
    gram: np.ndarray
    eta: int
    params: ResourceParams
    report: resource_model.ResourceReport

    @property
    def n_system(self) -> int:
        return 3 * self.grid.qubits_per_axis

    @property
    def n_padded(self) -> int:
        return 2 ** self.n_system


def run_pipeline(cfg: dict, fx: Fixture, *, L=None, K=None, e_cut=None,
                 svd_cutoff=None) -> PipelineResult:
    if svd_cutoff is None:
        svd_cutoff = cfg["compression"]["svd_cutoff"]
    return cutoff_stage(grid_stage(cfg, fx, L=L, K=K, e_cut=e_cut),
                        svd_cutoff)


def grid_stage(cfg: dict, fx: Fixture, *, L=None, K=None,
               e_cut=None) -> GridStage:
    """Primitive trains, their Gram matrix and the untruncated orbitals."""
    grid = grid_from_config(cfg, L=L, K=K, e_cut=e_cut)
    comp = cfg["compression"]
    eps_p = float(comp["eps_primitive"])
    eps_s = float(comp["eps_sum"])
    res_cfg = cfg["resources"]

    prim_tts = [gauss_pw.primitive_3d_mps(g, grid, eps_p)
                for g in fx.primitives]
    overlap = orbital_builder.overlap_matrix(fx.primitives, grid, eps_p,
                                             tts=prim_tts)
    eta = sum(o.occupation for o in fx.orbitals)
    if "eta" in res_cfg and int(res_cfg["eta"]) != eta:
        raise click.ClickException(
            f"resources.eta = {res_cfg['eta']} does not match the fixture's "
            f"summed occupations ({eta})")

    coeffs, mos = [], []
    for i, o in enumerate(fx.orbitals):
        sub = overlap.S[np.ix_(o.indices, o.indices)]
        nrm_sq = float(np.real(np.conj(o.coeffs) @ (sub @ o.coeffs)))
        if nrm_sq <= 1e-14:
            raise click.ClickException(
                f"orbital {i}: coefficients have zero norm in the projected "
                f"overlap metric")
        c = o.coeffs / math.sqrt(nrm_sq)
        mo = MolecularOrbital(coeffs=c, primitives=tuple(
            fx.primitives[j] for j in o.indices))
        coeffs.append(c)
        mos.append(orbital_builder.build_mo_mps(
            mo, grid, eps_p, eps_s,
            primitive_tts=[prim_tts[j] for j in o.indices]))
    return GridStage(grid=grid, fixture=fx, config=cfg, prim_tts=prim_tts,
                     overlap=overlap, eta=eta, coeffs=coeffs, mos=mos)


def cutoff_stage(stage: GridStage, svd_cutoff: float) -> PipelineResult:
    """Truncate the stage's orbitals at svd_cutoff, then cost and report."""
    svd = float(svd_cutoff)
    b = int(stage.config["resources"]["b"])
    records = []
    for i, (o, c, mps) in enumerate(zip(stage.fixture.orbitals, stage.coeffs,
                                        stage.mos)):
        if svd > 0:
            mps = orbital_builder.truncate_mo(mps, svd)
        profile = BondProfile(m=mps.tt.bond_dims)
        records.append(OrbitalRecord(
            index=i, occupation=o.occupation, coeffs=c, indices=o.indices,
            mps=mps, profile=profile,
            prep_toffoli=resource_model.toffoli_mps_prep(profile, b),
            prep_error=resource_model.mps_prep_error(profile, b)))

    gram = tt_core.gram(r.mps.tt for r in records)

    grid = stage.grid
    n_system = 3 * grid.qubits_per_axis
    eps1 = max(orbital_builder.infidelity_estimate(r.mps) for r in records)
    profiles = []
    for r in records:
        profiles.extend([r.profile] * r.occupation)
    params = ResourceParams(
        b=b, eta=stage.eta, n_system=n_system, N=2 ** n_system,
        n_mo=len(records))
    report = resource_model.estimate_resources(params, profiles, eps1=eps1)
    return PipelineResult(grid=grid, fixture=stage.fixture,
                          config=stage.config, svd_cutoff=svd,
                          prim_tts=stage.prim_tts, overlap=stage.overlap,
                          orbitals=records, gram=gram, eta=stage.eta,
                          params=params, report=report)


def _gram_max_offdiag(result: PipelineResult) -> float:
    g = result.gram.copy()
    np.fill_diagonal(g, 0.0)
    return float(np.abs(g).max()) if g.size > 1 else 0.0


def _grid_summary(result: PipelineResult) -> dict:
    grid = result.grid
    return {
        "L_bohr": grid.L,
        "K_inv_bohr": grid.K,
        "dk": grid.dk,
        "points_per_axis": grid.points_per_axis,
        "qubits_per_axis": grid.qubits_per_axis,
        "n_grid_modes": grid.n_total,
        "n_padded": result.n_padded,
        "n_system_qubits": result.n_system,
    }


def _orbital_summary(r: OrbitalRecord) -> dict:
    return {
        "index": r.index,
        "occupation": r.occupation,
        "n_primitives": len(r.indices),
        "bond_dims": list(r.profile.m),
        "max_bond": r.max_bond,
        "raw_norm_sq": r.mps.raw_norm_sq,
        "infidelity": r.mps.infidelity,
        "trace_distance_estimate": orbital_builder.infidelity_estimate(r.mps),
        "mps_prep_toffoli": r.prep_toffoli,
        "mps_prep_error": r.prep_error,
    }


# ---------------------------------------------------------------------------
# commands

def _common_options(f):
    f = click.option("--out", required=True, type=click.Path(file_okay=False),
                     help="Output directory (created if missing).")(f)
    f = click.option("--fixture", "fixture_path", required=True,
                     type=click.Path(exists=True, dir_okay=False),
                     help="Molecule fixture JSON.")(f)
    f = click.option("--config", "config_path", required=True,
                     type=click.Path(exists=True, dir_okay=False),
                     help="Job configuration JSON.")(f)
    return f


def _load_all(config_path, fixture_path, out):
    cfg = load_config(config_path)
    fx = load_fixture(fixture_path)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, fx, out_dir


def _run_guarded(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (gauss_pw.ProjectionError, tt_core.CapacityError,
            orbital_builder.EmptyBasisError,
            orbital_builder.DegenerateOrbitalError, ValueError) as e:
        raise click.ClickException(str(e)) from e


@click.group()
@click.version_option(version=__version__, prog_name="ttprep")
def main():
    """Plane-wave orbital trains and fault-tolerant preparation costs.

    Cutoffs: provide grid.K_inv_bohr directly, or grid.E_cut_hartree with
    the kinetic-energy conversion K = sqrt(2 E_cut) (atomic units).
    """


@main.command("project")
@_common_options
def cmd_project(config_path, fixture_path, out):
    """Build all orbital MPSs; emit bond profiles and summary CSVs."""
    cfg, fx, out_dir = _load_all(config_path, fixture_path, out)
    result = _run_guarded(run_pipeline, cfg, fx)
    _emit_project(result, out_dir)
    click.echo(f"project: {len(result.orbitals)} orbitals on "
               f"{result.grid.points_per_axis}^3 modes -> {out_dir}")


def _emit_project(result: PipelineResult, out_dir: Path) -> None:
    name = result.fixture.name
    rows = [(r.index, r.occupation, len(r.indices), result.n_system,
             r.max_bond, r.mps.raw_norm_sq, r.mps.infidelity,
             orbital_builder.infidelity_estimate(r.mps))
            for r in result.orbitals]
    _write_csv(out_dir / f"{name}_orbitals.csv",
               ["orbital", "occupation", "n_primitives", "qubit_count",
                "max_bond", "raw_norm_sq", "infidelity",
                "trace_distance_estimate"], rows)
    for r in result.orbitals:
        bond_rows = [(j + 1, m, math.log2(m))
                     for j, m in enumerate(r.profile.m)]
        _write_csv(out_dir / f"{name}_orbital_{r.index}_bonds.csv",
                   ["bond_index", "bond_dim", "log2_bond_dim"], bond_rows)
        if result.config["oracle"]["dump_tt"]:
            (out_dir / f"{name}_orbital_{r.index}_tt.json").write_text(
                json.dumps(tt_core.to_debug_json(r.mps.tt), sort_keys=True),
                encoding="utf-8", newline="\n")
    _write_json(out_dir / f"{name}_project.json", {
        "fixture": name,
        "grid": _grid_summary(result),
        "svd_cutoff": result.svd_cutoff,
        "orbitals": [_orbital_summary(r) for r in result.orbitals],
        "gram_max_offdiag": _gram_max_offdiag(result),
    })


@main.command("estimate")
@_common_options
def cmd_estimate(config_path, fixture_path, out):
    """Resource report: per-orbital preparation costs, totals, baselines."""
    cfg, fx, out_dir = _load_all(config_path, fixture_path, out)
    result = _run_guarded(run_pipeline, cfg, fx)
    report_obj = _report_dict(result)
    _validated(json.loads(_json_text(report_obj)), "report", "report")
    _write_json(out_dir / f"{fx.name}_report.json", report_obj)
    rows = []
    for section in ("toffoli", "toffoli_floor", "qubits", "totals"):
        for key, val in sorted(report_obj[section].items()):
            rows.append((section, key, val))
    rows.append(("errors", "eps1", report_obj["eps1"]))
    rows.append(("errors", "eps2", report_obj["eps2"]))
    rows.append(("errors", "slater_bound_approx",
                 report_obj["error_bounds"]["approx"]))
    rows.append(("errors", "slater_bound_spectral",
                 report_obj["error_bounds"]["spectral"]))
    rows.append(("antisym", "antisym_estimate", report_obj["antisym"]))
    _write_csv(out_dir / f"{fx.name}_estimate.csv",
               ["section", "name", "value"], rows)
    click.echo(f"estimate: mps_total="
               f"{_f17(report_obj['totals']['mps_method'])} "
               f"naive={_f17(report_obj['totals']['naive_method'])} "
               f"-> {out_dir}")


def _report_dict(result: PipelineResult) -> dict:
    rep = result.report
    params = result.params
    eb = {
        "approx": resource_model.slater_error_bound(
            params.eta, params.n_mo, rep.eps1, rep.eps2, "approx"),
        "spectral": resource_model.slater_error_bound(
            params.eta, params.n_mo, rep.eps1, rep.eps2, "spectral"),
    }
    return {
        "fixture": result.fixture.name,
        "grid": _grid_summary(result),
        "resources": {
            "b": params.b,
            "eta": params.eta,
            "n_system": params.n_system,
            "n_mo": params.n_mo,
        },
        "eps1": rep.eps1,
        "eps2": rep.eps2,
        "error_bounds": eb,
        "toffoli": dict(rep.toffoli),
        "toffoli_floor": {k: math.floor(v) for k, v in rep.toffoli.items()},
        "qubits": dict(rep.qubits),
        "totals": dict(rep.totals),
        "antisym": rep.antisym,
        "antisym_floor": math.floor(rep.antisym),
        "toffoli_naive_at_grid_modes": resource_model.toffoli_naive_slater(
            result.grid.n_total, params.eta, params.b),
        "orbitals": [_orbital_summary(r) for r in result.orbitals],
        "gram_max_offdiag": _gram_max_offdiag(result),
    }


def _sweep_groups(cfg: dict, fx: Fixture, axes):
    """Yield (axis, [(value, result), ...]), one group per grid.

    svd_cutoff points all run on the config's grid, so they share one grid
    stage and differ only in their cutoff stage; every other axis moves the
    grid with each point.
    """
    for axis, values in axes:
        key = SWEEP_AXES[axis]
        if key == "svd_cutoff":
            stage = _run_guarded(grid_stage, cfg, fx)
            yield axis, [(value, _run_guarded(cutoff_stage, stage, value))
                         for value in values]
        else:
            for value in values:
                yield axis, [(value, _run_guarded(run_pipeline, cfg, fx,
                                                  **{key: value}))]


@main.command("sweep")
@_common_options
def cmd_sweep(config_path, fixture_path, out):
    """Re-run the pipeline along each configured sweep axis."""
    cfg, fx, out_dir = _load_all(config_path, fixture_path, out)
    axes = [(axis, cfg["sweep"][axis]) for axis in SWEEP_AXES
            if cfg["sweep"].get(axis)]
    if not axes:
        raise click.ClickException(
            "sweep requires at least one nonempty axis under 'sweep' "
            f"(any of {', '.join(SWEEP_AXES)})")
    rows = []
    for axis, group in _sweep_groups(cfg, fx, axes):
        errors = _run_guarded(oracle.sweep_errors,
                              [result for _, result in group])
        for (value, result), point_errors in zip(group, errors):
            for r, (err, err_kind) in zip(result.orbitals, point_errors):
                rows.append((
                    axis, float(value), r.index, r.occupation,
                    result.grid.L, result.grid.K, result.grid.points_per_axis,
                    result.grid.qubits_per_axis, result.n_padded, r.max_bond,
                    r.mps.raw_norm_sq, r.mps.infidelity,
                    orbital_builder.infidelity_estimate(r.mps), err, err_kind,
                    r.prep_toffoli,
                    result.report.totals["mps_method"],
                    result.report.totals["naive_method"],
                    result.report.totals["ratio_naive_over_mps"]))
    _write_csv(out_dir / f"{fx.name}_sweep.csv",
               ["axis", "value", "orbital", "occupation", "L_bohr",
                "K_inv_bohr", "points_per_axis", "qubits_per_axis",
                "n_padded", "max_bond", "raw_norm_sq", "infidelity",
                "trace_distance_estimate", "error", "error_kind",
                "mps_prep_toffoli", "toffoli_mps_total", "toffoli_naive",
                "ratio_naive_over_mps"], rows)
    n_points = sum(len(values) for _, values in axes)
    click.echo(f"sweep: {n_points} points x {len(fx.orbitals)} orbitals "
               f"-> {out_dir}")


@main.command("oracle")
@_common_options
def cmd_oracle(config_path, fixture_path, out):
    """Cross-check trains against exact k-space sums; exit 1 on failure."""
    cfg, fx, out_dir = _load_all(config_path, fixture_path, out)
    result = _run_guarded(run_pipeline, cfg, fx)
    checks = _run_guarded(oracle.run_checks, result, out_dir)
    for c in checks:
        click.echo(f"CHECK {c['name']}: {c['status']} - {c['detail']}")
    _write_json(out_dir / f"{fx.name}_oracle.json", {
        "fixture": fx.name,
        "grid": _grid_summary(result),
        "checks": checks,
    })
    n_fail = sum(1 for c in checks if c["status"] == "FAIL")
    click.echo(f"oracle: {len(checks)} checks, {n_fail} failures")
    if n_fail:
        sys.exit(1)


if __name__ == "__main__":
    main()

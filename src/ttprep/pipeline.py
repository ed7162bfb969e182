"""The pipeline the four commands share, with no command line attached.

Load and validate a config and a fixture, project the primitives on the
grid, build each orbital's train, truncate it at svd_cutoff and price the
Slater determinant.  Bad input raises InputError (a ValueError) with the
JSON path or quantity at fault; ``ttprep.cli`` turns it into exit code 1.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from pathlib import Path

import numpy as np

from . import gauss_pw, orbital_builder, resource_model
from .gauss_pw import PlaneWaveGrid, PrimitiveGaussian
from .resource_model import ResourceParams, ResourceReport


class InputError(ValueError):
    """A config or fixture the pipeline cannot run."""


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


def validated(raw, schema_name: str, label: str):
    """`raw` if `schema_name` accepts it, else InputError naming the path."""
    try:
        _check(raw, _schema(schema_name))
    except _Invalid as e:
        raise InputError(f"{label} invalid at {e.path}: {e.message}") from e
    return raw


def _read_json(path, label: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"{label} {path}: {e}") from e


def load_config(path) -> dict:
    cfg = validated(_read_json(path, "config"), "config", f"config {path}")
    cfg["oracle"] = {"enabled": False, "max_points_per_axis": 32,
                     "tolerance": 1e-6, "dump_tt": False,
                     **cfg.get("oracle", {})}
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
    primitives: tuple[PrimitiveGaussian, ...]
    orbitals: tuple[FixtureOrbital, ...]


def load_fixture(path) -> Fixture:
    raw = validated(_read_json(path, "fixture"), "fixture", f"fixture {path}")
    prims = tuple(
        PrimitiveGaussian(center=tuple(p["center"]), gamma=p["gamma"],
                          ang=tuple(p["ang"]))
        for p in raw["primitives"])
    orbitals = []
    for i, o in enumerate(raw["orbitals"]):
        indices = tuple(o.get("primitive_indices", range(len(prims))))
        for k, j in enumerate(indices):
            if not 0 <= j < len(prims):
                raise InputError(
                    f"fixture invalid at $.orbitals[{i}].primitive_indices: "
                    f"index {j} outside 0..{len(prims) - 1}")
            if j in indices[:k]:
                raise InputError(
                    f"fixture invalid at $.orbitals[{i}].primitive_indices: "
                    f"index {j} repeated")
        coeffs = np.array([_as_complex(c) for c in o["coeffs"]], dtype=complex)
        if coeffs.size != len(indices):
            raise InputError(
                f"fixture invalid at $.orbitals[{i}].coeffs: {coeffs.size} "
                f"coefficients for {len(indices)} primitives")
        orbitals.append(FixtureOrbital(occupation=int(o["occupation"]),
                                       coeffs=coeffs, indices=indices))
    return Fixture(name=raw["name"], primitives=prims,
                   orbitals=tuple(orbitals))


def grid_from_config(cfg: dict) -> PlaneWaveGrid:
    g = cfg["grid"]
    L = float(g["L_bohr"])
    if "K_inv_bohr" in g:
        return PlaneWaveGrid(L=L, K=float(g["K_inv_bohr"]))
    return PlaneWaveGrid.from_energy_cutoff(L, float(g["E_cut_hartree"]))


# ---------------------------------------------------------------------------
# pipeline

@dataclass
class GridStage:
    """The part of a pipeline run fixed by the grid: everything but svd_cutoff.

    S is the primitives' Gram matrix, coeffs[i] are fixture orbital i's
    coefficients normalized in that metric, and mos[i] its sum from
    orbital_builder.build_orbitals, not yet given its one rounding.
    """

    grid: PlaneWaveGrid
    fixture: Fixture
    config: dict
    prim_tts: list
    S: np.ndarray
    params: ResourceParams
    coeffs: list[np.ndarray]
    mos: list[orbital_builder.OrbitalMPS]


@dataclass
class PipelineResult(GridStage):
    """A grid stage whose mos are truncated at svd_cutoff, and their price."""

    svd_cutoff: float
    report: ResourceReport


def run_pipeline(cfg: dict, fx: Fixture) -> PipelineResult:
    return cutoff_stage(grid_stage(cfg, fx), cfg["compression"]["svd_cutoff"])


def grid_stage(cfg: dict, fx: Fixture) -> GridStage:
    """Primitive trains, their Gram matrix, the summed orbitals and the
    cost parameters: all that svd_cutoff leaves unchanged."""
    grid = grid_from_config(cfg)
    eps_p = float(cfg["compression"]["eps_primitive"])
    res_cfg = cfg["resources"]
    eta = sum(o.occupation for o in fx.orbitals)
    if "eta" in res_cfg and int(res_cfg["eta"]) != eta:
        raise InputError(
            f"resources.eta = {res_cfg['eta']} does not match the fixture's "
            f"summed occupations ({eta})")
    n_system = 3 * grid.qubits_per_axis
    try:
        params = ResourceParams(b=int(res_cfg["b"]), eta=eta,
                                n_system=n_system, n_grid_modes=grid.n_total)
    except OverflowError:
        raise InputError(
            f"config invalid at $.grid: {grid.qubits_per_axis} qubits per "
            f"axis give 2^{n_system} modes, too many for the cost model to "
            f"price") from None

    prim_tts = [gauss_pw.primitive_3d_mps(g, grid, eps_p)
                for g in fx.primitives]
    S = orbital_builder.overlap_matrix(fx.primitives, prim_tts)

    coeffs = []
    for i, o in enumerate(fx.orbitals):
        sub = S[np.ix_(o.indices, o.indices)]
        nrm_sq = float(np.real(np.conj(o.coeffs) @ (sub @ o.coeffs)))
        if nrm_sq <= 1e-14:
            raise InputError(
                f"orbital {i}: coefficients have zero norm in the projected "
                f"overlap metric")
        coeffs.append(o.coeffs / math.sqrt(nrm_sq))
    mos = orbital_builder.build_orbitals(
        prim_tts, [(o.indices, c) for o, c in zip(fx.orbitals, coeffs)])
    return GridStage(grid=grid, fixture=fx, config=cfg, prim_tts=prim_tts,
                     S=S, params=params, coeffs=coeffs, mos=mos)


def cutoff_stage(stage: GridStage, svd_cutoff: float) -> PipelineResult:
    """Round each orbital once, by truncate_mo at svd_cutoff (raised to
    orbital_builder's floor where it is below), then price them."""
    svd = float(svd_cutoff)
    return _priced(stage, svd, [orbital_builder.truncate_mo(mps, svd)
                                for mps in stage.mos])


def cutoff_stages(stage: GridStage, cutoffs) -> list[PipelineResult]:
    """[cutoff_stage(stage, c) for c in cutoffs], bit for bit: each
    orbital's roundings at all the cutoffs share one truncate_mo_each.

    cutoff_stage is not written as the one-cutoff case of this: the
    benchmark's traced run times truncate_mo and tt_core.round by name, so
    a one-cutoff run keeps calling them."""
    svds = [float(c) for c in cutoffs]
    per_orbital = [orbital_builder.truncate_mo_each(mps, svds)
                   for mps in stage.mos]
    return [_priced(stage, svd, list(mos))
            for svd, mos in zip(svds, zip(*per_orbital))]


def _priced(stage: GridStage, svd: float, mos) -> PipelineResult:
    report = resource_model.estimate_resources(
        stage.params, [mps.tt.bond_dims for mps in mos],
        [o.occupation for o in stage.fixture.orbitals],
        eps1=max(orbital_builder.infidelity_estimate(mps) for mps in mos))
    return PipelineResult(**{**vars(stage), "mos": mos}, svd_cutoff=svd,
                          report=report)

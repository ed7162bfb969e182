"""Batch front end: fixtures in, deterministic CSV/JSON reports out.

Four subcommands run ``ttprep.pipeline`` and write what it returns:

  project   build every orbital MPS and emit bond-profile CSVs
  estimate  full Toffoli/qubit resource report (JSON + CSV)
  sweep     repeat the pipeline along L / K / E_cut / svd_cutoff axes
  oracle    cross-checks of trains against exact per-axis k-space sums

Grid cutoffs may be given as K (inverse Bohr) or as a kinetic-energy
cutoff E_cut (Hartree) with K = sqrt(2 E_cut).  Every JSON file, CSV
number and printed total is json.dumps text (sorted keys, shortest
round-trip floats; a NaN or inf is an error), lines end in LF, and
nothing timestamps the output, so reruns are byte-identical.  The
naive-baseline mode count is the padded register size 2^(3
qubits_per_axis) that the qubit encoding addresses (the odd
per-plane-wave count is also reported); this is what makes the baseline
scale exactly with L^3 across doublings.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click
import numpy as np

from . import __version__, oracle, orbital_builder, tt_core
from .pipeline import (cutoff_stages, grid_stage, load_config, load_fixture,
                       run_pipeline, validated)

if TYPE_CHECKING:
    from .pipeline import Fixture, PipelineResult

# sweep axes (config keys), in run order
SWEEP_AXES = ("L_bohr", "K_inv_bohr", "E_cut_hartree", "svd_cutoff")


# ---------------------------------------------------------------------------
# serialization: one json.dumps for every value written (sorted keys,
# two-space indent, shortest round-trip floats, no NaN or inf), LF endings

def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _write(path: Path, text: str) -> None:
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def _cell(v) -> str:
    return _json_text(v) if isinstance(v, (bool, int, float)) else str(v)


def _write_csv(path: Path, header, rows) -> None:
    _write(path, "\n".join([",".join(header)] + [
        ",".join(_cell(v) for v in row) for row in rows]))


def _gram_max_offdiag(result: PipelineResult) -> float:
    g = tt_core.gram(mps.tt for mps in result.mos)
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
        "n_padded": result.params.N,
        "n_system_qubits": result.params.n_system,
    }


def _orbital_summaries(result: PipelineResult) -> list[dict]:
    rep = result.report
    return [{
        "index": i,
        "occupation": o.occupation,
        "n_primitives": len(o.indices),
        "bond_dims": list(mps.tt.bond_dims),
        "max_bond": tt_core.max_bond_dim(mps.tt),
        "raw_norm_sq": mps.raw_norm_sq,
        "infidelity": mps.infidelity,
        "trace_distance_estimate": orbital_builder.infidelity_estimate(mps),
        "mps_prep_toffoli": rep.prep_toffoli[i],
        "mps_prep_error": rep.prep_error[i],
    } for i, (o, mps) in enumerate(zip(result.fixture.orbitals, result.mos))]


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


class _Main(click.Group):
    """Turns a library error (InputError, ProjectionError and the other
    ValueErrors, or CapacityError) into one `Error:` line and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, tt_core.CapacityError) as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Main)
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
    result = run_pipeline(cfg, fx)
    _emit_project(result, out_dir)
    click.echo(f"project: {len(result.mos)} orbitals on "
               f"{result.grid.points_per_axis}^3 modes -> {out_dir}")


def _emit_project(result: PipelineResult, out_dir: Path) -> None:
    name = result.fixture.name
    orbitals = _orbital_summaries(result)
    rows = [(s["index"], s["occupation"], s["n_primitives"],
             result.params.n_system, s["max_bond"], s["raw_norm_sq"],
             s["infidelity"], s["trace_distance_estimate"]) for s in orbitals]
    _write_csv(out_dir / f"{name}_orbitals.csv",
               ["orbital", "occupation", "n_primitives", "qubit_count",
                "max_bond", "raw_norm_sq", "infidelity",
                "trace_distance_estimate"], rows)
    for i, mps in enumerate(result.mos):
        bond_rows = [(j + 1, m, math.log2(m))
                     for j, m in enumerate(mps.tt.bond_dims)]
        _write_csv(out_dir / f"{name}_orbital_{i}_bonds.csv",
                   ["bond_index", "bond_dim", "log2_bond_dim"], bond_rows)
        if result.config["oracle"]["dump_tt"]:
            _write(out_dir / f"{name}_orbital_{i}_tt.json",
                   _json_text(tt_core.to_debug_json(mps.tt)))
    _write(out_dir / f"{name}_project.json", _json_text({
        "fixture": name,
        "grid": _grid_summary(result),
        "svd_cutoff": result.svd_cutoff,
        "orbitals": orbitals,
        "gram_max_offdiag": _gram_max_offdiag(result),
    }))


@main.command("estimate")
@_common_options
def cmd_estimate(config_path, fixture_path, out):
    """Resource report: per-orbital preparation costs, totals, baselines."""
    cfg, fx, out_dir = _load_all(config_path, fixture_path, out)
    result = run_pipeline(cfg, fx)
    report_obj = _report_dict(result)
    text = _json_text(report_obj)
    validated(json.loads(text), "report", "report")
    _write(out_dir / f"{fx.name}_report.json", text)
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
               f"{_json_text(report_obj['totals']['mps_method'])} "
               f"naive={_json_text(report_obj['totals']['naive_method'])} "
               f"-> {out_dir}")


def _report_dict(result: PipelineResult) -> dict:
    rep = result.report
    params = result.params
    return {
        "fixture": result.fixture.name,
        "grid": _grid_summary(result),
        "resources": {
            "b": params.b,
            "eta": params.eta,
            "n_system": params.n_system,
            "n_mo": len(result.mos),
        },
        "eps1": rep.eps1,
        "eps2": rep.eps2,
        "error_bounds": dict(rep.error_bounds),
        "toffoli": dict(rep.toffoli),
        "toffoli_floor": {k: math.floor(v) for k, v in rep.toffoli.items()},
        "qubits": dict(rep.qubits),
        "totals": dict(rep.totals),
        "antisym": rep.antisym,
        "antisym_floor": math.floor(rep.antisym),
        "toffoli_naive_at_grid_modes": rep.naive_at_grid_modes,
        "orbitals": _orbital_summaries(result),
        "gram_max_offdiag": _gram_max_offdiag(result),
    }


def _sweep_groups(cfg: dict, fx: Fixture, axes):
    """Yield (axis, [(value, result), ...]), one group per grid.

    svd_cutoff points all run on the config's grid, so they share one grid
    stage, and their cutoff stages share one rounding sweep per orbital
    (pipeline.cutoff_stages).  Every other point runs on
    a shallow copy of the config with that grid key set; a cutoff key
    (K_inv_bohr or E_cut_hartree) replaces the other.
    """
    for axis, values in axes:
        if axis == "svd_cutoff":
            yield axis, list(zip(values,
                                 cutoff_stages(grid_stage(cfg, fx), values)))
        else:
            kept = {k: v for k, v in cfg["grid"].items()
                    if axis == "L_bohr" or k == "L_bohr"}
            for value in values:
                point = {**cfg, "grid": {**kept, axis: value}}
                yield axis, [(value, run_pipeline(point, fx))]


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
        errors = oracle.sweep_errors([result for _, result in group])
        for (value, result), point_errors in zip(group, errors):
            for s, (err, err_kind) in zip(_orbital_summaries(result),
                                          point_errors):
                rows.append((
                    axis, float(value), s["index"], s["occupation"],
                    result.grid.L, result.grid.K, result.grid.points_per_axis,
                    result.grid.qubits_per_axis, result.params.N,
                    s["max_bond"], s["raw_norm_sq"], s["infidelity"],
                    s["trace_distance_estimate"], err, err_kind,
                    s["mps_prep_toffoli"],
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
    result = run_pipeline(cfg, fx)
    checks = oracle.run_checks(result, out_dir)
    for c in checks:
        click.echo(f"CHECK {c['name']}: {c['status']} - {c['detail']}")
    _write(out_dir / f"{fx.name}_oracle.json", _json_text({
        "fixture": fx.name,
        "grid": _grid_summary(result),
        "checks": checks,
    }))
    n_fail = sum(1 for c in checks if c["status"] == "FAIL")
    click.echo(f"oracle: {len(checks)} checks, {n_fail} failures")
    if n_fail:
        sys.exit(1)


if __name__ == "__main__":
    main()

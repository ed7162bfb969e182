"""End-to-end tests of the ttprep command-line front end.

Each command runs in-process through click's CliRunner against the shipped
fixtures (src/ttprep/fixtures) and configs (configs/), plus synthetic
configs written into tmp_path for the failure paths.  Byte-identical rerun
checks compare whole files, so any hidden nondeterminism in the pipeline
shows up here.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources as importlib_resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import ttprep
from ttprep import (__version__, cli, gauss_pw, oracle, orbital_builder,
                    pipeline, resource_model, tt_core)
from ttprep.cli import main

FIXTURE_DIR = Path(str(importlib_resources.files("ttprep") / "fixtures"))
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

SWEEP_COLUMNS = [
    "axis", "value", "orbital", "occupation", "L_bohr", "K_inv_bohr",
    "points_per_axis", "qubits_per_axis", "n_padded", "max_bond",
    "raw_norm_sq", "infidelity", "trace_distance_estimate", "error",
    "error_kind", "mps_prep_toffoli", "toffoli_mps_total", "toffoli_naive",
    "ratio_naive_over_mps",
]

ORBITALS_COLUMNS = [
    "orbital", "occupation", "n_primitives", "qubit_count", "max_bond",
    "raw_norm_sq", "infidelity", "trace_distance_estimate",
]

SHIPPED_PAIRS = [
    ("h_like_1s", "h_like_1s"),
    ("h_sto3g", "h_sto3g"),
    ("synthetic_diatomic", "synthetic_diatomic"),
    ("localized_s", "localized_s"),
    ("diffuse_s", "diffuse_s"),
]


def fixture_path(name):
    return str(FIXTURE_DIR / f"{name}.json")


def config_path(name):
    return str(CONFIG_DIR / f"{name}.json")


def run_cli(args, expect_exit=0):
    result = CliRunner().invoke(main, args)
    if result.exit_code != expect_exit:  # pragma: no cover - debugging aid
        raise AssertionError(
            f"exit {result.exit_code} != {expect_exit}:\n{result.output}")
    return result


def read_csv(path):
    """Parse a report CSV into (header, list of row dicts with str values)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def base_config(**overrides):
    cfg = {
        "grid": {"L_bohr": 10.0, "K_inv_bohr": 10.0},
        "compression": {"svd_cutoff": 0.0, "eps_primitive": 1e-3},
        "resources": {"b": 10},
        "oracle": {"enabled": False},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def base_fixture(**overrides):
    fx = {
        "name": "tiny",
        "primitives": [{"center": [0.0, 0.0, 0.0], "gamma": 0.5,
                        "ang": [0, 0, 0]}],
        "orbitals": [{"occupation": 1, "coeffs": [1.0]}],
    }
    fx.update(overrides)
    return fx


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def basis24_inputs(tmp_path, rng):
    """Config and fixture of basis-scaling's basis24 shape: two orbitals
    over 24 random l <= 2 primitives on a 6-qubit grid."""
    n_prims = 24
    prims = [{"center": [float(x) for x in rng.uniform(-1.5, 1.5, 3)],
              "gamma": float(rng.uniform(0.6, 1.6)),
              "ang": [int(a) for a in rng.integers(0, 3, 3)]}
             for _ in range(n_prims)]
    orbitals = [{"occupation": 1,
                 "coeffs": [float(c) for c in rng.uniform(0.3, 1.0, n_prims)]}
                for _ in range(2)]
    cfg = cli.load_config(write_json(tmp_path / "cfg.json", base_config(
        grid={"K_inv_bohr": 19.5})))
    fx = cli.load_fixture(write_json(tmp_path / "fx.json", base_fixture(
        primitives=prims, orbitals=orbitals)))
    return cfg, fx


class TestProjectCommand:
    def test_emits_expected_files(self, tmp_path):
        run_cli(["project", "--config", config_path("h_like_1s"),
                 "--fixture", fixture_path("h_like_1s"),
                 "--out", str(tmp_path)])
        assert (tmp_path / "h_like_1s_orbitals.csv").exists()
        assert (tmp_path / "h_like_1s_orbital_0_bonds.csv").exists()
        assert (tmp_path / "h_like_1s_project.json").exists()

        header, rows = read_csv(tmp_path / "h_like_1s_orbitals.csv")
        assert header == ORBITALS_COLUMNS
        assert len(rows) == 1
        row = rows[0]
        assert row["orbital"] == "0"
        assert row["occupation"] == "1"
        assert row["n_primitives"] == "1"
        assert row["qubit_count"] == "15"
        assert float(row["raw_norm_sq"]) == pytest.approx(1.0, abs=1e-9)
        assert int(row["max_bond"]) >= 1

    def test_bonds_csv_log2_axis(self, tmp_path):
        """Each bond row carries its log2, ready for logarithmic plots."""
        run_cli(["project", "--config", config_path("h_like_1s"),
                 "--fixture", fixture_path("h_like_1s"),
                 "--out", str(tmp_path)])
        header, rows = read_csv(tmp_path / "h_like_1s_orbital_0_bonds.csv")
        assert header == ["bond_index", "bond_dim", "log2_bond_dim"]
        assert len(rows) == 14
        assert [int(r["bond_index"]) for r in rows] == list(range(1, 15))
        for r in rows:
            assert float(r["log2_bond_dim"]) == math.log2(int(r["bond_dim"]))

    def test_grid_summary_in_report(self, tmp_path):
        run_cli(["project", "--config", config_path("h_like_1s"),
                 "--fixture", fixture_path("h_like_1s"),
                 "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "h_like_1s_project.json").read_text())
        grid = doc["grid"]
        assert grid["points_per_axis"] == 31
        assert grid["qubits_per_axis"] == 5
        assert grid["n_grid_modes"] == 31 ** 3
        assert grid["n_padded"] == 2 ** 15
        assert grid["K_inv_bohr"] == 10.0
        assert doc["svd_cutoff"] == 0.0
        assert doc["gram_max_offdiag"] == 0.0
        assert len(doc["orbitals"]) == 1

    def test_bonds_within_certified_bound(self, tmp_path):
        """Single s Gaussian on L=30 with an energy cutoff: every bond stays
        under the 2m+3 certificate for the selected degree."""
        cfg_obj = base_config()
        cfg_obj["grid"] = {"L_bohr": 30.0, "E_cut_hartree": 10.0}
        cfg = write_json(tmp_path / "cfg.json", cfg_obj)
        fx = write_json(tmp_path / "fx.json", base_fixture())
        out = tmp_path / "out"
        run_cli(["project", "--config", cfg, "--fixture", fx,
                 "--out", str(out)])
        _, rows = read_csv(out / "tiny_orbitals.csv")
        cutoff = gauss_pw.choose_cutoff(0.5, 0, 30.0, 1e-3 / math.sqrt(3.0))
        m = gauss_pw.choose_degree(cutoff, 0.5)
        assert int(rows[0]["max_bond"]) <= 2 * m + 3

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_cli(["project", "--config", config_path("synthetic_diatomic"),
                     "--fixture", fixture_path("synthetic_diatomic"),
                     "--out", str(out)])
        for name in ["synthetic_diatomic_orbitals.csv",
                     "synthetic_diatomic_orbital_0_bonds.csv",
                     "synthetic_diatomic_orbital_1_bonds.csv",
                     "synthetic_diatomic_project.json"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_primitive_index_subsets(self, tmp_path):
        fx = write_json(tmp_path / "fx.json", base_fixture(
            name="split",
            primitives=[
                {"center": [0.0, 0.0, 0.0], "gamma": 0.5, "ang": [0, 0, 0]},
                {"center": [0.0, 0.0, 0.0], "gamma": 0.8, "ang": [0, 0, 0]},
            ],
            orbitals=[
                {"occupation": 1, "coeffs": [1.0], "primitive_indices": [0]},
                {"occupation": 1, "coeffs": [1.0], "primitive_indices": [1]},
            ]))
        cfg = write_json(tmp_path / "cfg.json", base_config())
        out = tmp_path / "out"
        run_cli(["project", "--config", cfg, "--fixture", fx,
                 "--out", str(out)])
        _, rows = read_csv(out / "split_orbitals.csv")
        assert len(rows) == 2
        assert [r["n_primitives"] for r in rows] == ["1", "1"]

    def test_out_directory_created(self, tmp_path):
        out = tmp_path / "deeply" / "nested" / "dir"
        run_cli(["project", "--config", config_path("h_like_1s"),
                 "--fixture", fixture_path("h_like_1s"),
                 "--out", str(out)])
        assert (out / "h_like_1s_project.json").exists()


class TestValidation:
    """Bad configs and fixtures must fail loudly, naming the offending field."""

    def run_expect_error(self, tmp_path, cfg=None, fx=None):
        cfg_p = write_json(tmp_path / "cfg.json", cfg or base_config())
        fx_p = write_json(tmp_path / "fx.json", fx or base_fixture())
        result = CliRunner().invoke(main, [
            "project", "--config", cfg_p, "--fixture", fx_p,
            "--out", str(tmp_path / "out")])
        assert result.exit_code != 0
        return result.output

    def test_both_cutoffs_rejected(self, tmp_path):
        cfg = base_config()
        cfg["grid"]["E_cut_hartree"] = 2.0
        out = self.run_expect_error(tmp_path, cfg=cfg)
        assert "$.grid" in out

    def test_neither_cutoff_rejected(self, tmp_path):
        cfg = base_config()
        del cfg["grid"]["K_inv_bohr"]
        out = self.run_expect_error(tmp_path, cfg=cfg)
        assert "$.grid" in out

    def test_small_b_rejected(self, tmp_path):
        cfg = base_config(resources={"b": 4})
        out = self.run_expect_error(tmp_path, cfg=cfg)
        assert "$.resources.b" in out

    def test_negative_svd_cutoff_rejected(self, tmp_path):
        cfg = base_config()
        cfg["compression"]["svd_cutoff"] = -1.0
        out = self.run_expect_error(tmp_path, cfg=cfg)
        assert "$.compression.svd_cutoff" in out

    def test_empty_sweep_axis_rejected(self, tmp_path):
        cfg = base_config(sweep={"K_inv_bohr": []})
        out = self.run_expect_error(tmp_path, cfg=cfg)
        assert "$.sweep.K_inv_bohr" in out

    def test_eps_sum_key_rejected(self, tmp_path):
        """The summing cutoff is orbital_builder.EPS_SUM; no config key
        sets it."""
        cfg = base_config(compression={"eps_sum": 1e-9})
        out = self.run_expect_error(tmp_path, cfg=cfg)
        assert "$.compression" in out
        assert "eps_sum" in out

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = base_config()
        cfg["frobnicate"] = True
        out = self.run_expect_error(tmp_path, cfg=cfg)
        assert "frobnicate" in out

    @pytest.mark.parametrize("key,value", [("lambda_policy", "optimal_mu"),
                                           ("fixed_lambda", 4)])
    def test_lookup_fanout_keys_rejected(self, tmp_path, key, value):
        """The cost model fixes the lookup fan-out; no config key sets it."""
        cfg = base_config(resources={key: value})
        out = self.run_expect_error(tmp_path, cfg=cfg)
        assert "$.resources" in out
        assert key in out

    def test_empty_orbital_list_rejected(self, tmp_path):
        fx = base_fixture()
        fx["orbitals"] = []
        out = self.run_expect_error(tmp_path, fx=fx)
        assert "$.orbitals" in out

    def test_occupation_three_rejected(self, tmp_path):
        fx = base_fixture()
        fx["orbitals"][0]["occupation"] = 3
        out = self.run_expect_error(tmp_path, fx=fx)
        assert "$.orbitals[0].occupation" in out

    def test_coeff_count_mismatch_rejected(self, tmp_path):
        fx = base_fixture()
        fx["orbitals"][0]["coeffs"] = [1.0, 2.0]
        out = self.run_expect_error(tmp_path, fx=fx)
        assert "$.orbitals[0].coeffs" in out

    def test_primitive_index_out_of_range_rejected(self, tmp_path):
        fx = base_fixture()
        fx["orbitals"][0]["primitive_indices"] = [5]
        out = self.run_expect_error(tmp_path, fx=fx)
        assert "$.orbitals[0].primitive_indices" in out

    @pytest.mark.parametrize("b", [1001, 10 ** 400], ids=["1001", "1e400"])
    def test_huge_b_rejected(self, tmp_path, b):
        """A precision past the schema's maximum is blamed on b, not on a
        grid the cost model could price at any sane b."""
        out = self.run_expect_error(tmp_path,
                                    cfg=base_config(resources={"b": b}))
        assert "$.resources.b" in out
        assert "$.grid" not in out

    def test_largest_b_runs(self, tmp_path):
        """At b = 1000 every error term 2^(c - b) is still a normal float."""
        cfg_p = write_json(tmp_path / "cfg.json",
                           base_config(resources={"b": 1000}))
        fx_p = write_json(tmp_path / "fx.json", base_fixture())
        result = CliRunner().invoke(main, [
            "estimate", "--config", cfg_p, "--fixture", fx_p,
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "out" / "tiny_report.json").read_text())
        assert doc["eps2"] > sys.float_info.min

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("doc,where", [
        ("config", ("grid", "L_bohr")),
        ("fixture", ("primitives", 0, "center", 1)),
        ("fixture", ("orbitals", 0, "coeffs", 0)),
    ])
    def test_non_finite_number_rejected(self, tmp_path, doc, where, value):
        """json.loads reads NaN, Infinity and -Infinity; none gets past
        validation into the pipeline."""
        docs = {"config": base_config(), "fixture": base_fixture()}
        parent = docs[doc]
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        out = self.run_expect_error(tmp_path, cfg=docs["config"],
                                    fx=docs["fixture"])
        path = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                             for k in where)
        assert f"{doc} {tmp_path}" in out
        assert f"invalid at {path}: " in out
        assert "not a finite number" in out

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    def test_non_finite_output_rejected(self, tmp_path, monkeypatch,
                                        command, value):
        """A NaN or inf that reaches a report figure (estimate's eps1) or a
        sweep cell (the error column) is one Error: line and exit 1, and
        nothing is written."""
        report_dict, sweep_errors = cli._report_dict, oracle.sweep_errors
        monkeypatch.setattr(cli, "_report_dict", lambda result: {
            **report_dict(result), "eps1": value})
        monkeypatch.setattr(oracle, "sweep_errors", lambda results: [
            [(value, kind) for _, kind in point]
            for point in sweep_errors(results)])
        cfg_p = write_json(tmp_path / "cfg.json",
                           base_config(sweep={"K_inv_bohr": [10.0]}))
        fx_p = write_json(tmp_path / "fx.json", base_fixture())
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            command, "--config", cfg_p, "--fixture", fx_p, "--out", str(out)])
        assert result.exit_code == 1
        (line,) = result.output.splitlines()
        assert line.startswith("Error: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cfg_over,fx_over,message", [
        ({"resources": {"b": 10, "eta": 3}}, {},
         "resources.eta = 3 does not match the fixture's summed "
         "occupations (1)"),
        ({}, {"orbitals": [{"occupation": 1, "coeffs": [0.0]}]},
         "orbital 0: coefficients have zero norm in the projected overlap "
         "metric"),
        ({}, {"orbitals": [{"occupation": 1, "coeffs": [1.0],
                            "primitive_indices": [5]}]},
         "fixture invalid at $.orbitals[0].primitive_indices: "
         "index 5 outside 0..0"),
        ({}, {"orbitals": [{"occupation": 1, "coeffs": [1.0, 1.0],
                            "primitive_indices": [0, 0]}]},
         "fixture invalid at $.orbitals[0].primitive_indices: "
         "index 0 repeated"),
        ({"grid": {"L_bohr": 2100.0, "K_inv_bohr": 10.0}}, {},
         "the live window |i| <= 2997 needs 13 sites, over the dense "
         "assembly cap of 12"),
        ({"grid": {"L_bohr": 10.0, "K_inv_bohr": 1e200}}, {},
         "config invalid at $.grid: 667 qubits per axis give 2^2001 modes, "
         "too many for the cost model to price"),
        ({"grid": {"L_bohr": 0.5, "K_inv_bohr": 13.0}},
         {"primitives": [{"center": [0.0, 0.0, 0.0], "gamma": 1.0,
                          "ang": [1, 0, 0]}]},
         "whole-line normalization 0.0000 < 2/3; the cell (L=0.5) is too "
         "small for gamma=1.0"),
        ({"grid": {"L_bohr": math.nan, "K_inv_bohr": 10.0}}, {},
         "config {cfg} invalid at $.grid.L_bohr: nan is not a finite "
         "number"),
    ], ids=["eta", "zero_norm", "index", "repeated_index", "capacity",
            "overflow", "projection", "nan"])
    def test_library_error_is_clean_exit_1(self, tmp_path, cfg_over, fx_over,
                                           message):
        """Each library error ends `estimate` with exit code 1 and one
        `Error:` line, never a traceback."""
        cfg_p = write_json(tmp_path / "cfg.json", base_config(**cfg_over))
        fx_p = write_json(tmp_path / "fx.json", base_fixture(**fx_over))
        result = CliRunner().invoke(main, [
            "estimate", "--config", cfg_p, "--fixture", fx_p,
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            "Error: " + message.format(cfg=cfg_p, fx=fx_p) + "\n")

    def test_eta_mismatch_rejected(self, tmp_path):
        cfg = base_config(resources={"b": 10, "eta": 3})
        out = self.run_expect_error(tmp_path, cfg=cfg)
        assert "eta" in out and "occupations" in out

    def test_malformed_json_is_clean_error(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json", encoding="utf-8")
        fx = write_json(tmp_path / "fx.json", base_fixture())
        result = CliRunner().invoke(main, [
            "project", "--config", str(bad), "--fixture", fx,
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "cfg.json" in result.output
        assert "Traceback" not in result.output

    def test_missing_fixture_file_is_usage_error(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", base_config())
        result = CliRunner().invoke(main, [
            "project", "--config", cfg,
            "--fixture", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_energy_and_momentum_cutoffs_equivalent(self, tmp_path):
        """E_cut = K^2/2: the same grid either way, bit for bit."""
        cfg_k = write_json(tmp_path / "k.json", base_config())
        cfg_e = base_config()
        del cfg_e["grid"]["K_inv_bohr"]
        cfg_e["grid"]["E_cut_hartree"] = 50.0
        cfg_e = write_json(tmp_path / "e.json", cfg_e)
        fx = write_json(tmp_path / "fx.json", base_fixture())
        out_k, out_e = tmp_path / "ok", tmp_path / "oe"
        run_cli(["project", "--config", cfg_k, "--fixture", fx,
                 "--out", str(out_k)])
        run_cli(["project", "--config", cfg_e, "--fixture", fx,
                 "--out", str(out_e)])
        for name in ["tiny_orbitals.csv", "tiny_project.json"]:
            assert (out_k / name).read_bytes() == (out_e / name).read_bytes()


class TestEstimateCommand:
    def test_report_files_written(self, tmp_path):
        run_cli(["estimate", "--config", config_path("synthetic_diatomic"),
                 "--fixture", fixture_path("synthetic_diatomic"),
                 "--out", str(tmp_path)])
        assert (tmp_path / "synthetic_diatomic_report.json").exists()
        assert (tmp_path / "synthetic_diatomic_estimate.csv").exists()

    def test_fixed_L_K_ladder_to_30_qubits_per_axis(self, tmp_path):
        """At fixed L the live window stops growing with K, so the axis
        trains, and with them the orbitals' bonds, stop growing too: the
        ladder runs to 30 qubits/axis (2^90 modes) with one max bond.  No
        step may cost O(2^n): a dense axis vector at 30 qubits/axis would
        hold 2^30 entries."""
        cfg = json.loads(Path(config_path("synthetic_diatomic")).read_text())
        L = cfg["grid"]["L_bohr"]
        max_bonds = []
        t0 = time.perf_counter()
        for n in (6, 12, 20, 30):
            cfg["grid"]["K_inv_bohr"] = (2 ** (n - 1) - 0.5) * 2 * math.pi / L
            out = tmp_path / str(n)
            run_cli(["estimate", "--config",
                     write_json(tmp_path / f"cfg{n}.json", cfg),
                     "--fixture", fixture_path("synthetic_diatomic"),
                     "--out", str(out)])
            doc = json.loads(
                (out / "synthetic_diatomic_report.json").read_text())
            assert doc["grid"]["qubits_per_axis"] == n
            max_bonds.append(max(o["max_bond"] for o in doc["orbitals"]))
        assert time.perf_counter() - t0 < 2.0
        assert max_bonds == [max_bonds[0]] * 4

    def test_report_validates_against_shipped_schema(self, tmp_path):
        run_cli(["estimate", "--config", config_path("synthetic_diatomic"),
                 "--fixture", fixture_path("synthetic_diatomic"),
                 "--out", str(tmp_path)])
        doc = json.loads(
            (tmp_path / "synthetic_diatomic_report.json").read_text())
        schema = json.loads(
            (importlib_resources.files("ttprep") / "schemas"
             / "report.schema.json").read_text())
        jsonschema.validate(doc, schema)

    def test_totals_cross_check(self, tmp_path):
        """Report totals must equal hand-summed subroutine costs."""
        run_cli(["estimate", "--config", config_path("synthetic_diatomic"),
                 "--fixture", fixture_path("synthetic_diatomic"),
                 "--out", str(tmp_path)])
        doc = json.loads(
            (tmp_path / "synthetic_diatomic_report.json").read_text())
        n = doc["grid"]["n_system_qubits"]
        assert n == 18
        prep = [doc["toffoli"][f"mps_prep_orbital_{i}"] for i in range(2)]
        per_orb = [o["mps_prep_toffoli"] for o in doc["orbitals"]]
        assert prep == per_orb
        # occupations are 1 and 1, so the per-electron cost list is the
        # per-orbital list and the reflection overhead is eta^2 n.
        assert doc["toffoli"]["slater_reflection_overhead"] == 4 * n
        expected_total = resource_model.toffoli_slater(2, n, prep)
        assert doc["toffoli"]["slater_total_mps"] == expected_total
        assert doc["totals"]["mps_method"] == expected_total
        naive = resource_model.toffoli_naive_slater(2 ** n, 2, 10)
        assert doc["totals"]["naive_method"] == naive
        assert doc["totals"]["ratio_naive_over_mps"] == naive / expected_total
        assert doc["qubits"]["system_mps"] == 2 * n
        assert doc["qubits"]["system_naive"] == 2 ** n
        assert doc["eps2"] == max(o["mps_prep_error"] for o in doc["orbitals"])
        assert doc["antisym"] == resource_model.antisym_estimate(2, 2 ** n)

    def test_csv_mirrors_json(self, tmp_path):
        run_cli(["estimate", "--config", config_path("h_like_1s"),
                 "--fixture", fixture_path("h_like_1s"),
                 "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "h_like_1s_report.json").read_text())
        header, rows = read_csv(tmp_path / "h_like_1s_estimate.csv")
        assert header == ["section", "name", "value"]
        by_key = {(r["section"], r["name"]): r["value"] for r in rows}
        for section in ("toffoli", "toffoli_floor", "qubits", "totals"):
            for name, val in doc[section].items():
                assert float(by_key[(section, name)]) == float(val)
        assert float(by_key[("errors", "eps1")]) == doc["eps1"]
        assert float(by_key[("antisym", "antisym_estimate")]) == doc["antisym"]

    @pytest.mark.parametrize("fx_name,cfg_name", SHIPPED_PAIRS)
    def test_antisym_negligible_on_shipped_fixtures(self, tmp_path,
                                                    fx_name, cfg_name):
        """The antisymmetrization pass never costs more than 1% of the
        MPS-method total, which is why the totals leave it out."""
        run_cli(["estimate", "--config", config_path(cfg_name),
                 "--fixture", fixture_path(fx_name),
                 "--out", str(tmp_path)])
        doc = json.loads((tmp_path / f"{fx_name}_report.json").read_text())
        assert doc["antisym"] <= 0.01 * doc["totals"]["mps_method"]

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_cli(["estimate", "--config", config_path("h_like_1s"),
                     "--fixture", fixture_path("h_like_1s"),
                     "--out", str(out)])
        for name in ["h_like_1s_report.json", "h_like_1s_estimate.csv"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSweepCommand:
    def test_csv_columns(self, tmp_path):
        run_cli(["sweep", "--config", config_path("h_like_1s"),
                 "--fixture", fixture_path("h_like_1s"),
                 "--out", str(tmp_path)])
        header, rows = read_csv(tmp_path / "h_like_1s_sweep.csv")
        assert header == SWEEP_COLUMNS
        # 4 K points + 6 svd points, one orbital each
        assert len(rows) == 10

    def test_single_point_sweep_matches_project(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         base_config(sweep={"K_inv_bohr": [10.0]}))
        fx = write_json(tmp_path / "fx.json", base_fixture())
        out_s, out_p = tmp_path / "s", tmp_path / "p"
        run_cli(["sweep", "--config", cfg, "--fixture", fx,
                 "--out", str(out_s)])
        run_cli(["project", "--config", cfg, "--fixture", fx,
                 "--out", str(out_p)])
        _, srows = read_csv(out_s / "tiny_sweep.csv")
        _, prows = read_csv(out_p / "tiny_orbitals.csv")
        assert len(srows) == 1 and len(prows) == 1
        for col in ["max_bond", "raw_norm_sq", "infidelity",
                    "trace_distance_estimate"]:
            assert srows[0][col] == prows[0][col]

    @pytest.mark.parametrize("grid,sweep", [
        ({"L_bohr": 10.0, "E_cut_hartree": 18.0},
         {"L_bohr": [8.0, 12.0], "K_inv_bohr": [5.0, 7.0],
          "E_cut_hartree": [12.5, 24.5]}),
        ({"L_bohr": 10.0, "K_inv_bohr": 6.0}, {"E_cut_hartree": [12.5, 24.5]}),
    ])
    def test_grid_points_run_the_config_with_that_key_set(self, tmp_path,
                                                           grid, sweep):
        """Each L/K/E_cut row equals run_pipeline on the config with that one
        grid key set: a cutoff key replaces the other, and a cutoff point
        keeps the config's own L, not the last L point.  The loaded config
        is left as it was."""
        raw = base_config(sweep=sweep)
        raw["grid"] = grid
        path = write_json(tmp_path / "cfg.json", raw)
        fx_path = write_json(tmp_path / "fx.json", base_fixture())
        run_cli(["sweep", "--config", path, "--fixture", fx_path,
                 "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "tiny_sweep.csv")
        assert [(r["axis"], float(r["value"])) for r in rows] == [
            (axis, v) for axis in cli.SWEEP_AXES for v in sweep.get(axis, ())]
        cfg = cli.load_config(path)
        fx = cli.load_fixture(fx_path)
        for row in rows:
            axis, value = row["axis"], float(row["value"])
            if axis == "L_bohr":
                point = {**grid, "L_bohr": value}
            else:
                point = {"L_bohr": grid["L_bohr"], axis: value}
                assert float(row["L_bohr"]) == grid["L_bohr"]
            point_cfg = pipeline.validated({**cfg, "grid": point}, "config",
                                           "point")
            res = cli.run_pipeline(point_cfg, fx)
            (cost,) = res.report.prep_toffoli
            assert float(row["L_bohr"]) == res.grid.L
            assert float(row["K_inv_bohr"]) == res.grid.K
            assert int(row["points_per_axis"]) == res.grid.points_per_axis
            assert float(row["mps_prep_toffoli"]) == cost
        axes = [(axis, cfg["sweep"][axis]) for axis in sweep]
        list(cli._sweep_groups(cfg, fx, axes))
        assert cfg == cli.load_config(path)

    def test_localized_needs_larger_cutoff_than_diffuse(self, tmp_path):
        """Momentum-cutoff ladder: the tight Gaussian converges much later."""
        first_ok = {}
        for name in ["localized_s", "diffuse_s"]:
            out = tmp_path / name
            run_cli(["sweep", "--config", config_path(name),
                     "--fixture", fixture_path(name), "--out", str(out)])
            _, rows = read_csv(out / f"{name}_sweep.csv")
            rows = [r for r in rows if r["axis"] == "K_inv_bohr"]
            assert [r["error_kind"] for r in rows] == ["dense_window"] * 4
            errs = [float(r["error"]) for r in rows]
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-6
            ok = [float(r["value"]) for r in rows
                  if float(r["error"]) <= 1e-3]
            assert ok, f"{name} never reached 1e-3"
            first_ok[name] = min(ok)
        assert first_ok["localized_s"] > first_ok["diffuse_s"]

    def test_svd_ladder_monotone_to_floor(self, tmp_path):
        run_cli(["sweep", "--config", config_path("synthetic_diatomic"),
                 "--fixture", fixture_path("synthetic_diatomic"),
                 "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "synthetic_diatomic_sweep.csv")
        for orb in ("0", "1"):
            errs = [float(r["error"]) for r in rows
                    if r["axis"] == "svd_cutoff" and r["orbital"] == orb]
            assert len(errs) == 6
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-9
            assert errs[0] > 1e-2      # heavy truncation visibly hurts
            assert errs[-1] < 1e-6     # floor set by the grid, not the svd

    def test_volume_doubling_trend(self, tmp_path):
        """Fixed cutoff, L doubling: the dense baseline pays 8x per step
        while the train method pays only the extra qubits."""
        run_cli(["sweep", "--config", config_path("synthetic_diatomic_Lsweep"),
                 "--fixture", fixture_path("synthetic_diatomic"),
                 "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / "synthetic_diatomic_sweep.csv")
        rows = [r for r in rows if r["orbital"] == "0"]
        assert [float(r["value"]) for r in rows] == [30, 60, 120, 240]
        naive = [float(r["toffoli_naive"]) for r in rows]
        mps = [float(r["toffoli_mps_total"]) for r in rows]
        ratio = [float(r["ratio_naive_over_mps"]) for r in rows]
        for a, b in zip(naive, naive[1:]):
            assert b / a == 8.0
        for a, b in zip(mps, mps[1:]):
            assert b / a <= 1.25
        assert all(b > a for a, b in zip(ratio, ratio[1:]))

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_cli(["sweep", "--config", config_path("h_like_1s"),
                     "--fixture", fixture_path("h_like_1s"),
                     "--out", str(out)])
        name = "h_like_1s_sweep.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_svd_points_match_independent_pipelines(self, tmp_path):
        """Sharing one grid stage across svd_cutoff points changes no byte
        of the CSV against one full pipeline per point."""
        name = "synthetic_diatomic"
        run_cli(["sweep", "--config", config_path(name),
                 "--fixture", fixture_path(name), "--out", str(tmp_path)])
        cfg = cli.load_config(config_path(name))
        fx = cli.load_fixture(fixture_path(name))
        assert list(cfg["sweep"]) == ["svd_cutoff"]
        lines = [",".join(SWEEP_COLUMNS)]
        for value in cfg["sweep"]["svd_cutoff"]:
            comp = {**cfg["compression"], "svd_cutoff": value}
            res = cli.run_pipeline({**cfg, "compression": comp}, fx)
            assert res.grid.points_per_axis <= 64  # the oracle cap applies
            totals = res.report.totals
            (errors,) = oracle.sweep_errors([res])
            for i, (o, mps, (err, kind)) in enumerate(zip(
                    fx.orbitals, res.mos, errors)):
                assert kind == "dense_window"
                row = ("svd_cutoff", float(value), i, o.occupation,
                       res.grid.L, res.grid.K, res.grid.points_per_axis,
                       res.grid.qubits_per_axis, res.params.N,
                       tt_core.max_bond_dim(mps.tt), mps.raw_norm_sq,
                       mps.infidelity,
                       orbital_builder.infidelity_estimate(mps), err,
                       kind, res.report.prep_toffoli[i], totals["mps_method"],
                       totals["naive_method"],
                       totals["ratio_naive_over_mps"])
                lines.append(",".join(cli._cell(v) for v in row))
        got = (tmp_path / f"{name}_sweep.csv").read_bytes()
        assert got == ("\n".join(lines) + "\n").encode()

    def test_svd_points_build_each_orbital_once(self, tmp_path,
                                                monkeypatch):
        calls = []
        build = orbital_builder.build_mo_mps

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(orbital_builder, "build_mo_mps", counting)
        name = "synthetic_diatomic"
        run_cli(["sweep", "--config", config_path(name),
                 "--fixture", fixture_path(name), "--out", str(tmp_path)])
        _, rows = read_csv(tmp_path / f"{name}_sweep.csv")
        n_orbitals = len(cli.load_fixture(fixture_path(name)).orbitals)
        assert len(rows) == 6 * n_orbitals
        assert len(calls) == n_orbitals

    def test_orbitals_over_one_list_share_one_sum(self, monkeypatch):
        """synthetic_diatomic's two orbitals use one primitive list: one
        canonical_sum for both, then one left_canonicalize per orbital and
        no round, and each orbital equals its own build bit for bit."""
        name = "synthetic_diatomic"
        cfg = cli.load_config(config_path(name))
        fx = cli.load_fixture(fixture_path(name))
        assert len({o.indices for o in fx.orbitals}) == 1
        calls = {"canonical_sum": 0, "round": 0, "left_canonicalize": 0}
        for fn in calls:
            def counting(*args, _fn=getattr(tt_core, fn), _name=fn):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(tt_core, fn, counting)
        stage = pipeline.grid_stage(cfg, fx)
        n = len(fx.orbitals)
        assert calls == {"canonical_sum": 1, "round": 0,
                         "left_canonicalize": n}
        for o, c, mps in zip(fx.orbitals, stage.coeffs, stage.mos):
            (own,) = orbital_builder.build_orbitals(
                stage.prim_tts, [(o.indices, c)])
            assert own.raw_norm_sq == mps.raw_norm_sq
            assert all(np.array_equal(a, b)
                       for a, b in zip(own.tt.cores, mps.tt.cores))

    def test_wide_list_sums_each_orbital_in_halves(self, tmp_path, rng,
                                                   monkeypatch):
        """Two orbitals over 24 random l <= 2 primitives on a 6-qubit grid
        (basis-scaling's basis24 shape) are too wide for one exact sum
        under a cap of 106.  Each half is one canonical_sum for both
        orbitals, and each orbital is the add of its halves, each half
        rounded at EPS_SUM and the add left unrounded, bit for bit; its
        build_error is the sum of the halves' truncation errors."""
        cfg, fx = basis24_inputs(tmp_path, rng)
        widths = []
        original = tt_core.canonical_sum

        def recording(trains, coeffs):
            widths.append(max(map(sum, zip(*(t.bond_dims for t in trains)))))
            return original(trains, coeffs)

        monkeypatch.setattr(tt_core, "canonical_sum", recording)
        monkeypatch.setattr(orbital_builder, "MAX_SUM_WIDTH", 106)
        stage = pipeline.grid_stage(cfg, fx)
        assert stage.grid.qubits_per_axis == 6
        assert len(widths) == 2
        assert max(widths) <= orbital_builder.MAX_SUM_WIDTH
        tts = stage.prim_tts
        assert (max(map(sum, zip(*(t.bond_dims for t in tts))))
                > orbital_builder.MAX_SUM_WIDTH)
        for c, mps in zip(stage.coeffs, stage.mos):
            halves = [tt_core.round(tt_core.canonical_sum(tts[s], c[s]),
                                    orbital_builder.EPS_SUM)
                      for s in (slice(0, 12), slice(12, None))]
            assert mps.build_error == sum(h.truncation_error for h in halves)
            assert mps.build_error > 0
            acc = tt_core.left_canonicalize(tt_core.add(*halves))
            raw = float(np.linalg.norm(acc.cores[-1])) ** 2
            assert mps.raw_norm_sq == raw
            want = tt_core.scale(acc, 1.0 / math.sqrt(raw))
            assert len(mps.tt.cores) == len(want.cores)
            assert all(np.array_equal(a, b)
                       for a, b in zip(mps.tt.cores, want.cores))

    def test_basis24_list_is_one_sum_at_the_default_cap(self, tmp_path, rng,
                                                       monkeypatch):
        """At the default MAX_SUM_WIDTH the same basis24-shaped list is one
        canonical_sum for both orbitals, and each orbital is its own exact
        one-row sum bit for bit."""
        cfg, fx = basis24_inputs(tmp_path, rng)
        widths = []
        original = tt_core.canonical_sum

        def recording(trains, coeffs):
            widths.append(max(map(sum, zip(*(t.bond_dims for t in trains)))))
            return original(trains, coeffs)

        monkeypatch.setattr(tt_core, "canonical_sum", recording)
        stage = pipeline.grid_stage(cfg, fx)
        monkeypatch.undo()
        assert len(widths) == 1
        assert widths[0] > 106
        assert widths[0] <= orbital_builder.MAX_SUM_WIDTH
        for c, mps in zip(stage.coeffs, stage.mos):
            acc = tt_core.canonical_sum(stage.prim_tts, c)
            assert acc.canonical_form == "left"
            raw = float(np.linalg.norm(acc.cores[-1])) ** 2
            assert mps.raw_norm_sq == raw
            want = tt_core.scale(acc, 1.0 / math.sqrt(raw))
            assert all(np.array_equal(a, b)
                       for a, b in zip(mps.tt.cores, want.cores))

    def test_narrow_list_is_rounded_only_by_the_cutoff_stage(
            self, tmp_path, monkeypatch):
        """On a narrow list the grid stage keeps each orbital's exact sum:
        no round, and every left_canonicalize gets a "left" train and
        returns it with no QR sweep.  An estimate then rounds each summed
        orbital exactly once."""
        name = "synthetic_diatomic"
        cfg = cli.load_config(config_path(name))
        fx = cli.load_fixture(fixture_path(name))
        assert all(len(o.indices) > 1 for o in fx.orbitals)
        rounds, canon = [], []
        original_round = tt_core.round
        original_canon = tt_core.left_canonicalize

        def counting_round(a, svd_cutoff):
            rounds.append(svd_cutoff)
            return original_round(a, svd_cutoff)

        def recording(a):
            out = original_canon(a)
            canon.append((a.canonical_form, out is a))
            return out

        monkeypatch.setattr(tt_core, "round", counting_round)
        monkeypatch.setattr(tt_core, "left_canonicalize", recording)
        pipeline.grid_stage(cfg, fx)
        assert rounds == []
        assert canon == [("left", True)] * len(fx.orbitals)
        cfg["compression"]["svd_cutoff"] = 1e-4
        path = write_json(tmp_path / "cfg.json", cfg)
        rounds.clear()
        run_cli(["estimate", "--config", path,
                 "--fixture", fixture_path(name), "--out", str(tmp_path)])
        assert rounds == [1e-4] * len(fx.orbitals)

    def test_sweep_points_share_one_rounding_sweep(self, tmp_path,
                                                   monkeypatch):
        """The sweep command's svd_cutoff rows equal those of one
        cutoff_stage per point, bit for bit, and its six points make fewer
        SVDs than six separate cutoff stages."""
        name = "synthetic_diatomic"
        cfg = cli.load_config(config_path(name))
        fx = cli.load_fixture(fixture_path(name))
        values = cfg["sweep"]["svd_cutoff"]
        assert list(cfg["sweep"]) == ["svd_cutoff"] and len(values) == 6
        stage = pipeline.grid_stage(cfg, fx)
        calls = []
        original = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        for value in values:
            pipeline.cutoff_stage(stage, value)
        separate = len(calls)
        calls.clear()
        monkeypatch.setattr(cli, "grid_stage", lambda cfg, fx: stage)
        list(cli._sweep_groups(cfg, fx, [("svd_cutoff", values)]))
        assert len(calls) < separate
        monkeypatch.undo()

        args = ["--config", config_path(name), "--fixture", fixture_path(name)]
        run_cli(["sweep", *args, "--out", str(tmp_path / "shared")])
        monkeypatch.setattr(cli, "cutoff_stages", lambda stage, values: [
            pipeline.cutoff_stage(stage, value) for value in values])
        run_cli(["sweep", *args, "--out", str(tmp_path / "separate")])
        csv = f"{name}_sweep.csv"
        assert ((tmp_path / "shared" / csv).read_bytes()
                == (tmp_path / "separate" / csv).read_bytes())

    @pytest.mark.parametrize("name", ["synthetic_diatomic", "h_sto3g",
                                      "h_like_1s", "diffuse_s",
                                      "localized_s"])
    def test_each_orbital_is_one_rounding_of_its_exact_sum(self, name):
        """Every truncated orbital, at the config's own svd_cutoff and at
        every sweep point, is round(unit one-row exact sum, c) bit for bit,
        at c = max(svd_cutoff, EPS_SUM) whatever its primitive count, and
        its build discarded nothing."""
        cfg = cli.load_config(config_path(name))
        fx = cli.load_fixture(fixture_path(name))
        cutoffs = [0.0, 3e-10, 1e-4, 0.03]
        results = [cli.run_pipeline(cfg, fx)] + [res for _, group in (
            cli._sweep_groups(cfg, fx, [("svd_cutoff", cutoffs)]))
            for _, res in group]
        assert [r.svd_cutoff for r in results] == [
            cfg["compression"]["svd_cutoff"]] + cutoffs
        for res in results:
            for o, c, mps in zip(fx.orbitals, res.coeffs, res.mos):
                tts = [res.prim_tts[j] for j in o.indices]
                exact = (tt_core.scale(tts[0], c[0]) if len(tts) == 1
                         else tt_core.canonical_sum(tts, c))
                assert mps.build_error == 0.0
                unit = orbital_builder.build_mo_mps(exact)
                rounded = tt_core.round(
                    unit.tt, max(res.svd_cutoff, orbital_builder.EPS_SUM))
                rho = tt_core.norm(rounded)
                want = tt_core.scale(rounded, 1.0 / rho)
                assert mps.raw_norm_sq == unit.raw_norm_sq * rho ** 2
                assert len(mps.tt.cores) == len(want.cores)
                assert all(np.array_equal(a, b)
                           for a, b in zip(mps.tt.cores, want.cores))

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_svd_points_add_no_qr_sweep(self, tmp_path, monkeypatch, k):
        """Each orbital is left-canonicalized once (its exact sum), however
        many nonzero svd_cutoff points truncate it, and as often as an
        estimate does."""
        calls = []
        original = tt_core.left_canonicalize

        def counting(a):
            calls.append(1)
            return original(a)

        monkeypatch.setattr(tt_core, "left_canonicalize", counting)
        name = "synthetic_diatomic"
        cfg = cli.load_config(config_path(name))
        want = len(cli.load_fixture(fixture_path(name)).orbitals)
        cfg["compression"]["svd_cutoff"] = 3e-3
        cfg["sweep"] = {"svd_cutoff": [0.3 / 10 ** j for j in range(k)]}
        path = write_json(tmp_path / "cfg.json", cfg)
        run_cli(["sweep", "--config", path, "--fixture", fixture_path(name),
                 "--out", str(tmp_path)])
        assert len(calls) == want
        calls.clear()
        run_cli(["estimate", "--config", path,
                 "--fixture", fixture_path(name), "--out", str(tmp_path)])
        assert len(calls) == want

    def test_no_sweep_axes_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", base_config())
        fx = write_json(tmp_path / "fx.json", base_fixture())
        result = CliRunner().invoke(main, [
            "sweep", "--config", cfg, "--fixture", fx,
            "--out", str(tmp_path / "out")])
        assert result.exit_code != 0
        assert "nonempty axis" in result.output


class TestOracleCommand:
    @pytest.mark.parametrize("fx_name,cfg_name", SHIPPED_PAIRS)
    def test_shipped_fixtures_pass(self, tmp_path, fx_name, cfg_name):
        result = run_cli(["oracle", "--config", config_path(cfg_name),
                          "--fixture", fixture_path(fx_name),
                          "--out", str(tmp_path)])
        assert "0 failures" in result.output
        doc = json.loads((tmp_path / f"{fx_name}_oracle.json").read_text())
        statuses = {c["status"] for c in doc["checks"]}
        assert "FAIL" not in statuses
        assert "PASS" in statuses
        # the shipped configs choose grids inside the dense-check budget,
        # so the certified distance checks actually ran
        names = {c["name"] for c in doc["checks"]}
        assert "primitive_trace_distance[0]" in names

    def test_wide_list_tolerance_adds_twice_the_build_error(
            self, tmp_path, rng, monkeypatch):
        """basis24's list summed in halves under a cap of 106: each orbital
        records what its half roundings discarded, and its check, which
        allows 2 build_error more than sqrt(2) estimates, passes at
        svd_cutoff 0 and at 1e-4.  A build_error of 1e-4 is seen as 2e-4
        more tolerance."""
        monkeypatch.setattr(orbital_builder, "MAX_SUM_WIDTH", 106)
        cfg, fx = basis24_inputs(tmp_path, rng)
        cfg["oracle"].update(enabled=True, max_points_per_axis=64)
        tol = cfg["oracle"]["tolerance"]
        stage = pipeline.grid_stage(cfg, fx)
        for svd in (0.0, 1e-4):
            result = pipeline.cutoff_stage(stage, svd)
            forged = dataclasses.replace(result, mos=[
                dataclasses.replace(mps, build_error=1e-4)
                for mps in result.mos])
            for res in (result, forged):
                checks = {c["name"]: c
                          for c in oracle.run_checks(res, tmp_path)}
                for i, mps in enumerate(res.mos):
                    assert mps.build_error > 0
                    bound = max(tol, 2 * mps.build_error + 2 ** 0.5
                                * orbital_builder.infidelity_estimate(mps))
                    check = checks[f"tt_vs_dense_orbital[{i}]"]
                    assert check["status"] == "PASS"
                    assert check["detail"].endswith(f"(tol {bound:.1e})")

    def test_corrupted_dump_fails_named_check(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", base_config(
            oracle={"enabled": True, "dump_tt": True,
                    "max_points_per_axis": 64, "tolerance": 1e-6}))
        fx = write_json(tmp_path / "fx.json", base_fixture())
        out = tmp_path / "out"
        run_cli(["project", "--config", cfg, "--fixture", fx,
                 "--out", str(out)])
        dump = out / "tiny_orbital_0_tt.json"
        doc = json.loads(dump.read_text())
        doc["cores"][0] = [[2.0 * re, 2.0 * im] for re, im in doc["cores"][0]]
        dump.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, [
            "oracle", "--config", cfg, "--fixture", fx, "--out", str(out)])
        assert result.exit_code == 1
        assert "CHECK dump_agreement[0]: FAIL" in result.output

    def test_intact_dump_passes(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", base_config(
            oracle={"enabled": True, "dump_tt": True,
                    "max_points_per_axis": 64, "tolerance": 1e-6}))
        fx = write_json(tmp_path / "fx.json", base_fixture())
        out = tmp_path / "out"
        run_cli(["project", "--config", cfg, "--fixture", fx,
                 "--out", str(out)])
        result = run_cli(["oracle", "--config", cfg, "--fixture", fx,
                          "--out", str(out)])
        assert "CHECK dump_agreement[0]: PASS" in result.output

    def test_cap_exceeded_is_explicit_skip(self, tmp_path):
        """A grid too large for dense checks must say so, not silently pass."""
        cfg = write_json(tmp_path / "cfg.json", base_config(
            oracle={"enabled": True, "max_points_per_axis": 3}))
        fx = write_json(tmp_path / "fx.json", base_fixture())
        result = run_cli(["oracle", "--config", cfg, "--fixture", fx,
                          "--out", str(tmp_path / "out")])
        assert "CHECK dense_oracle: SKIP" in result.output
        assert "primitive_trace_distance" not in result.output
        assert "CHECK primitive_norm[0]: PASS" in result.output

    def test_disabled_is_explicit_skip(self, tmp_path):
        """oracle.enabled = false skips the dense checks, as in sweep."""
        cfg = write_json(tmp_path / "cfg.json", base_config())
        fx = write_json(tmp_path / "fx.json", base_fixture())
        result = run_cli(["oracle", "--config", cfg, "--fixture", fx,
                          "--out", str(tmp_path / "out")])
        assert ("CHECK dense_oracle: SKIP - oracle.enabled is false"
                in result.output)
        assert "primitive_trace_distance" not in result.output
        assert "CHECK primitive_norm[0]: PASS" in result.output

    def test_below_certified_cutoff_is_explicit_skip(self, tmp_path):
        # K=4 is well under the certified cutoff (~9.06) for gamma=0.5, L=10
        cfg = write_json(tmp_path / "cfg.json", base_config(
            grid={"L_bohr": 10.0, "K_inv_bohr": 4.0},
            oracle={"enabled": True, "max_points_per_axis": 64}))
        fx = write_json(tmp_path / "fx.json", base_fixture())
        result = run_cli(["oracle", "--config", cfg, "--fixture", fx,
                          "--out", str(tmp_path / "out")])
        assert "CHECK primitive_trace_distance[0]: SKIP" in result.output
        assert "below the certified cutoff" in result.output

    def test_dump_on_large_register_passes(self, tmp_path):
        # 509 points per axis: 27 system qubits, above the 24-site cap of
        # the tests' dense expansion; the dump is compared core by core
        cfg = write_json(tmp_path / "cfg.json", base_config(
            grid={"L_bohr": 25.0, "K_inv_bohr": 64.0},
            oracle={"enabled": True, "dump_tt": True,
                    "max_points_per_axis": 128}))
        fx = write_json(tmp_path / "fx.json", base_fixture(
            name="tight",
            primitives=[{"center": [0.0, 0.0, 0.0], "gamma": 25.0,
                         "ang": [0, 0, 0]}]))
        out = tmp_path / "out"
        run_cli(["project", "--config", cfg, "--fixture", fx,
                 "--out", str(out)])
        assert (out / "tight_orbital_0_tt.json").exists()
        result = run_cli(["oracle", "--config", cfg, "--fixture", fx,
                          "--out", str(out)])
        assert "CHECK dump_agreement[0]: PASS" in result.output


def test_pipeline_plans_no_einsum(tmp_path, monkeypatch):
    """estimate and sweep contract trains with matmuls only.

    np.einsum(..., optimize=True) re-plans its contraction on every call;
    in the Gram double loop that planning cost more than the products.
    """
    def no_einsum(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", no_einsum)
    gauss_pw.primitive_1d_mps.cache_clear()
    gauss_pw.axis_profile.cache_clear()
    name = "synthetic_diatomic"
    for cmd in ("estimate", "sweep"):
        run_cli([cmd, "--config", config_path(name),
                 "--fixture", fixture_path(name),
                 "--out", str(tmp_path / cmd)])


def test_import_pulls_no_optional_stack():
    """Importing the command line loads no scipy, mpmath, numpy.polynomial
    or jsonschema.

    Every command pays its imports before doing any work, and none of the
    four serves a command: mpmath is a test-only reference, the axis trains
    are sampled through a barycentric interpolant, not a monomial
    polynomial, and the command checks its inputs with its own interpreter
    of the shipped schemas' keywords.
    """
    assert _loaded_in_fresh_interpreter(
        "ttprep.cli", {"scipy", "mpmath", "numpy.polynomial",
                       "jsonschema"}) == "[]"


def test_library_imports_no_command_line():
    """The pipeline and the oracle run without click or jsonschema."""
    assert _loaded_in_fresh_interpreter(
        "ttprep.pipeline, ttprep.oracle", {"click", "jsonschema"}) == "[]"


def _loaded_in_fresh_interpreter(modules: str, names: set) -> str:
    """Which of `names` (top-level packages or their first submodules)
    `import <modules>` loads in a fresh interpreter, printed as a sorted
    list."""
    src = str(Path(ttprep.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {modules}; "
         f"print(sorted(set({sorted(names)!r}) & "
         "{p for m in sys.modules for p in (m.split('.')[0], "
         "'.'.join(m.split('.')[:2]))}))"],
        env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


@pytest.mark.parametrize("name", ["config", "fixture", "report"])
def test_shipped_schema_passes_its_metaschema(name):
    """The command checks only that a schema uses keywords its validator
    implements; this is where the schemas themselves are checked."""
    schema = json.loads((importlib_resources.files("ttprep") / "schemas"
                         / f"{name}.schema.json").read_text())
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_schema_keyword_guard():
    """The validator refuses a schema keyword it does not implement, at any
    depth, so that a schema edit cannot silently weaken validation."""
    for name in ("config", "fixture", "report"):
        schema = json.loads((importlib_resources.files("ttprep") / "schemas"
                             / f"{name}.schema.json").read_text())
        assert pipeline._guarded(schema) is schema
    with pytest.raises(ValueError, match="'uniqueItems'"):
        pipeline._guarded({"type": "object", "properties": {
            "ang": {"type": "array", "uniqueItems": True}}})


def test_version_flag():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output == f"ttprep, version {__version__}\n"


def test_help_lists_all_commands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ["project", "estimate", "sweep", "oracle"]:
        assert cmd in result.output

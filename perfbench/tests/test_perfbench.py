"""Tests of the benchmark itself: inputs, metric names, counting, tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import collect
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    a = workloads.generate(workload, 7, tmp_path / "a", SRC)
    b = workloads.generate(workload, 7, tmp_path / "b", SRC)
    c = workloads.generate(workload, 8, tmp_path / "c", SRC)
    assert [j.job_id for j in a] == [j.job_id for j in b] == \
        [j.job_id for j in c]
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    assert any((tmp_path / "a" / n).read_bytes()
               != (tmp_path / "c" / n).read_bytes() for n in files)


def test_unknown_workload_is_refused(tmp_path):
    with pytest.raises(ValueError, match="unknown workload"):
        workloads.generate("nope", 1, tmp_path, SRC)


def test_basis_scaling_axis_trains_never_coincide(tmp_path):
    for job in workloads.generate("basis-scaling", 3, tmp_path, SRC):
        fx = json.loads(job.fixture.read_text(encoding="utf-8"))
        keys = [(p["gamma"], p["ang"][ax], p["center"][ax])
                for p in fx["primitives"] for ax in range(3)]
        assert len(set(keys)) == len(keys)
        assert all(all(x != 0.0 for x in p["center"])
                   for p in fx["primitives"])


def test_metric_names_follow_the_grammar():
    names = ([w["name"] for w in BENCH["workloads"]]
             + [m["name"] for m in BENCH["end_to_end"]]
             + [m["name"] for m in BENCH["per_layer"]])
    assert len(names) == len(set(names))
    for name in names + list(tracer.PER_LAYER) + list(run.END_TO_END):
        assert NAME.fullmatch(name), name
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCH["per_layer"]} == tracer.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("n, expected", [
    (1, None), (20, None), (99, None), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_summary_spread_is_quartile_distance_over_median():
    s = collect.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s["median"] == 3.0 and s["runs"] == 5
    assert s["spread"] == pytest.approx((s["q3"] - s["q1"]) / 3.0)
    assert collect.summary([2.0])["spread"] == 0.0


SWEEP_HEADER = "axis,value,orbital,trace_distance_estimate,error,error_kind\n"


def test_sweep_gate_checks_every_cutoff(tmp_path):
    table = tmp_path / "x_sweep.csv"
    table.write_text(SWEEP_HEADER
                     + "svd_cutoff,0.3,0,0.15,0.15000001,dense_window\n"
                     + "svd_cutoff,0,0,0,4e-08,dense_window\n")
    assert run.sweep_excess(table, 1e-3) is None
    # a fault at the truncation-free point, hidden under the lossy
    # point's larger error
    table.write_text(SWEEP_HEADER
                     + "svd_cutoff,0.3,0,0.15,0.15000001,dense_window\n"
                     + "svd_cutoff,0,0,0,0.01,dense_window\n")
    assert "svd_cutoff=0 orbital 0" in run.sweep_excess(table, 1e-3)
    # points the oracle cannot check carry no dense error to compare
    table.write_text(SWEEP_HEADER + "svd_cutoff,0,0,0,0.01,norm_drift\n")
    assert run.sweep_excess(table, 1e-3) is None


def test_outputs_digest_follows_names_and_bytes():
    a = run.outputs_digest({"a.csv": "00", "b.json": "11"})
    assert a == run.outputs_digest({"b.json": "11", "a.csv": "00"})
    assert a != run.outputs_digest({"a.csv": "00", "b.json": "12"})
    assert len(a) == 16


def _run_estimate(args):
    from ttprep import cli
    try:
        cli.main(args=args, prog_name="ttprep")
    except SystemExit as e:
        assert e.code == 0


def _estimate_args(tmp_path):
    return ["estimate", "--config", str(ROOT / "configs" / "h_sto3g.json"),
            "--fixture", str(SRC / "ttprep" / "fixtures" / "h_sto3g.json"),
            "--out", str(tmp_path)]


def test_tracer_restores_every_attribute(tmp_path):
    from ttprep import cli, gauss_pw
    import numpy as np

    before = (vars(gauss_pw.ChebyshevInterpolant)["fit"],
              gauss_pw.primitive_1d_mps, np.linalg.svd,
              cli.main.commands["estimate"].callback)
    t = tracer.Tracer("t")
    t.install()
    assert gauss_pw.primitive_1d_mps is not before[1]
    t.uninstall()
    after = (vars(gauss_pw.ChebyshevInterpolant)["fit"],
             gauss_pw.primitive_1d_mps, np.linalg.svd,
             cli.main.commands["estimate"].callback)
    assert after == before


def test_traced_job_accounts_for_its_time(tmp_path):
    import time

    t = tracer.Tracer("job")
    t.install()
    try:
        start = time.perf_counter()
        _run_estimate(_estimate_args(tmp_path))
        job_s = time.perf_counter() - start
    finally:
        t.uninstall()
    rec = json.loads(json.dumps(t.record()))
    m = tracer.layer_metrics([rec], [job_s])
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert len([k for k in m if k.endswith(".self_s")]) == 6
    assert layers + m["unattributed_s"] == pytest.approx(job_s)
    assert 0.0 <= m["unattributed_s"] < 0.1 * job_s
    assert m["gauss_pw.primitive_1d_mps.calls"] == 9
    assert m["orbital_builder.overlap_matrix.pairs"] == 3
    assert m["gauss_pw.axis_train.unique_ratio"] == pytest.approx(3 / 9)
    spans = rec["spans"]
    ids = {s[0] for s in spans}
    assert all(s[4] is None or s[4] in ids for s in spans)
    assert set(m) <= set(tracer.PER_LAYER)


def test_missing_targets_are_reported_absent(tmp_path):
    targets = tracer.TARGETS + (
        tracer.Target("gauss_pw.renamed", "ttprep.gauss_pw", "no_such_fn"),
        tracer.Target("gone.module", "ttprep.no_such_module", "fn"),
        tracer.Target("gauss_pw.gone_class", "ttprep.gauss_pw",
                      "NoSuchClass.fit"))
    # drop a real target too, as if a later change deleted the function,
    # and give one a counter that no longer fits its signature
    targets = tuple(t for t in targets if t.name not in (
        "tt_core.from_dense", "gauss_pw.primitive_1d_mps")) + (
        tracer.Target("gauss_pw.primitive_1d_mps", "ttprep.gauss_pw",
                      "primitive_1d_mps",
                      extra=lambda st, a, result: a["renamed_param"]),)
    t = tracer.Tracer("job", targets)
    t.install()
    try:
        _run_estimate(_estimate_args(tmp_path))
    finally:
        t.uninstall()
    rec = t.record()
    assert rec["absent"] == ["gauss_pw.renamed", "gone.module",
                             "gauss_pw.gone_class",
                             "gauss_pw.primitive_1d_mps counters"]
    m = tracer.layer_metrics([rec], [1.0])
    assert m["gauss_pw.primitive_1d_mps.calls"] == 9
    assert "gauss_pw.axis_train.unique_ratio" not in m
    assert "tt_core.from_dense.calls" not in m
    assert "func_encode.self_s" in m and "gone.self_s" not in m
    assert "tt_core.from_dense.computed_bytes" not in m
    assert m["tt_core.round.calls"] > 0


def test_metrics_missing_from_a_pass_are_dropped():
    assert tracer.median_metrics([{"a": 1, "b": 2}, {"a": 3}]) == {"a": 2}


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "svd-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""The benchmark's tracer (perfbench/tracer.py) still finds every function
it measures.

A traced benchmark run wraps named functions of the program from outside
and reports one metric per layer.  A change that renames or stops calling
one of them drops its metrics from the report.  This test traces each job
mix of the benchmark on a shipped fixture in-process: `estimate` alone at
svd_cutoff 1e-4 (as basis-scaling and qubit-ladder run it), and `sweep`
plus `oracle` (as svd-sweep runs them).  Each mix is traced on its own, so
a metric that only one command produces cannot hide a gap in the other.
Each must measure every per-layer metric, every one finite, and give a
strict JSON trace record (no NaN or Infinity).
"""

import importlib.util
import json
import math
import sys
import time
from pathlib import Path

from click.testing import CliRunner

from ttprep import gauss_pw
from ttprep.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "src" / "ttprep" / "fixtures" / "synthetic_diatomic.json"
CONFIG = ROOT / "configs" / "synthetic_diatomic.json"

# added by perfbench/run.py from the job times, not by the tracer
RUN_METRICS = {"trace.job_s.p50", "trace.overhead_s"}


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# each job mix of the benchmark, as (commands, svd_cutoff or None)
MIXES = [
    (("estimate",), 1e-4),
    (("sweep", "oracle"), None),
]


def trace_mix(tracer, tmp_path, commands, svd_cutoff):
    config = CONFIG
    if svd_cutoff is not None:
        cfg = json.loads(CONFIG.read_text(encoding="utf-8"))
        cfg["compression"]["svd_cutoff"] = svd_cutoff
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
    # cold caches, as in a fresh benchmark process
    gauss_pw.primitive_1d_mps.cache_clear()
    gauss_pw.axis_profile.cache_clear()
    t = tracer.Tracer("guard")
    t.install()
    try:
        start = time.perf_counter()
        for command in commands:
            result = CliRunner().invoke(main, [
                command, "--config", str(config), "--fixture", str(FIXTURE),
                "--out", str(tmp_path / command)])
            assert result.exit_code == 0, result.output
        job_s = time.perf_counter() - start
    finally:
        t.uninstall()
    return t.record(), job_s


def test_every_per_layer_metric_is_measured(tmp_path):
    tracer = load_tracer()
    for i, (commands, svd_cutoff) in enumerate(MIXES):
        mix_dir = tmp_path / f"mix{i}"
        mix_dir.mkdir()
        rec, job_s = trace_mix(tracer, mix_dir, commands, svd_cutoff)
        assert rec["absent"] == [], commands
        json.dumps(rec, allow_nan=False)
        metrics = tracer.layer_metrics([rec], [job_s])
        assert set(metrics) == set(tracer.PER_LAYER) - RUN_METRICS, commands
        assert all(math.isfinite(v) for v in metrics.values()), commands
        json.dumps(metrics, allow_nan=False)

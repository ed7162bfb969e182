"""The benchmark's tracer (perfbench/tracer.py) still finds every function
it measures.

A traced benchmark run wraps named functions of the program from outside
and reports one metric per layer.  A change that renames or stops calling
one of them drops its metrics from the report.  This test runs `estimate`,
`sweep` and `oracle` on a shipped fixture in-process under the tracer and
checks that every per-layer metric is measured and finite, and that the
trace record is strict JSON (no NaN or Infinity).
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


def test_every_per_layer_metric_is_measured(tmp_path):
    tracer = load_tracer()
    # cold caches, as in a fresh benchmark process
    gauss_pw.primitive_1d_mps.cache_clear()
    gauss_pw.axis_profile.cache_clear()
    t = tracer.Tracer("guard")
    t.install()
    try:
        start = time.perf_counter()
        for command in ("estimate", "sweep", "oracle"):
            result = CliRunner().invoke(main, [
                command, "--config", str(CONFIG), "--fixture", str(FIXTURE),
                "--out", str(tmp_path / command)])
            assert result.exit_code == 0, result.output
        job_s = time.perf_counter() - start
    finally:
        t.uninstall()
    rec = t.record()
    assert rec["absent"] == []
    json.dumps(rec, allow_nan=False)
    metrics = tracer.layer_metrics([rec], [job_s])
    assert set(metrics) == set(tracer.PER_LAYER) - RUN_METRICS
    assert all(math.isfinite(v) for v in metrics.values())
    json.dumps(metrics, allow_nan=False)

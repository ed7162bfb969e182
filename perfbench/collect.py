"""Multi-seed baseline of every workload.

    python3 perfbench/collect.py --seeds 10 --out BENCH.json

Runs every workload of BENCHMARK.json untraced with seeds 1..N and once
traced, each for BENCHMARK.json's run_seconds, and prints every metric by
name, unit, direction, median, quartile spread and sample count.  With
--out it also writes them as JSON, together with a traced reference run of
the shipped synthetic_diatomic sweep.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_run(workload: str, seed: int, trace: int) -> dict:
    """One run of the benchmark; its result object."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median, quartiles and quartile spread as a share of the median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "runs": len(values)}


def reference_counts() -> dict:
    """Traced counts of `ttprep sweep` on the shipped synthetic_diatomic."""
    out = ROOT / ".perfbench" / "reference"
    out.mkdir(parents=True, exist_ok=True)
    record = out / "record.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), repr(time.monotonic()),
         str(record), "1", str(ROOT / "src"), "reference", "sweep",
         "--config", str(ROOT / "configs" / "synthetic_diatomic.json"),
         "--fixture",
         str(ROOT / "src" / "ttprep" / "fixtures" / "synthetic_diatomic.json"),
         "--out", str(out)], check=True, capture_output=True)
    rec = json.loads(record.read_text(encoding="utf-8"))
    st = rec["trace"]["stats"]
    prim = st["gauss_pw.primitive_1d_mps"]
    return {
        "job": "ttprep sweep, configs/synthetic_diatomic.json",
        "gauss_pw.hermite_gaussian.calls":
            st["gauss_pw.hermite_gaussian"]["calls"],
        "gauss_pw.primitive_1d_mps.calls": prim["calls"],
        "gauss_pw.axis_train.unique_keys": prim["unique"],
        "traced_job_s": rec["job_s"],
    }


def cmd_baseline(args) -> int:
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    out = {"run_seconds": BENCH["run_seconds"],
           "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    print(f"{'workload':14s} {'metric':20s} {'unit':5s} {'better':6s} "
          f"{'median':>12s} {'spread':>7s} {'bound':>5s} samples")
    for name in (w["name"] for w in BENCH["workloads"]):
        results = [bench_run(name, seed, 0) for seed in out["seeds"]]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "correct": all(r["correct"] for r in results),
                 "end_to_end": {}}
        for metric, spec in e2e.items():
            s = summary([r["metrics"][metric]["value"] for r in results])
            entry["end_to_end"][metric] = s
            print(f"{name:14s} {metric:20s} {spec['unit']:5s} "
                  f"{spec['better']:6s} {s['median']:12.6g} "
                  f"{s['spread']:7.3f} {spec['bound']:5.2f} "
                  f"{s['runs']} runs, {entry['attempted']} jobs")
        traced = bench_run(name, out["seeds"][0], 1)
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["metrics"].items()}
        entry["per_layer_seed"] = out["seeds"][0]
        for metric, (unit, better) in tracer.PER_LAYER.items():
            value = entry["per_layer"].get(metric)
            shown = "absent" if value is None else f"{value:12.6g}"
            print(f"{name:14s} {metric:44s} {unit:5s} {better:6s} {shown}")
        out["workloads"][name] = entry
    if args.out:
        out["reference"] = reference_counts()
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True)
                                  + "\n", encoding="utf-8")
    return 0 if all(w["correct"] for w in out["workloads"].values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out")
    return cmd_baseline(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

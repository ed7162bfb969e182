"""ttprep benchmark: seeded batch jobs, one fresh interpreter per command.

    python3 perfbench/run.py --workload svd-sweep --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout of the repository.  One parent process
writes the workload's seeded fixture/config files, then runs its jobs one
at a time (a closed loop with one client), each as a `ttprep` command in a
new interpreter, as users run this batch tool.  Whole passes over the job
list repeat until --seconds have elapsed, so every run measures the same
mix of jobs.  One untimed warm-up job comes first (it also compiles the
bytecode cache).

Every job passes a correctness gate: exit code 0, an `estimate` report that
validates against the shipped report schema, no FAIL line from `oracle`,
no `sweep` point whose dense-window error exceeds its own truncation
estimate by more than the config's eps_primitive, and output files
byte-identical to the first run of the same job.  The sha256 of every
output file is kept in the run record, and a digest of each job's outputs
is printed, so byte changes between two commits show in their output.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones: each
job then runs twice, traced and untraced, in alternating order, and the
difference of their median times is the tracing overhead.  A table of
every metric (name, value, unit, direction, samples) precedes the result,
which is the last line of standard output, one JSON object.  Full records
(job times, output hashes, spans) go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench"

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "job_s.p50": ("s", "lower"),
    "pipelines_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "max_trace_distance": ("1", "lower"),
}

# a run must end within 180 s: start no pass that could cross this mark
HARD_LIMIT_S = 140.0
JOB_TIMEOUT_S = 120.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def tail_percentile(n: int) -> float | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TTPREP_THREADS", None)
    env.pop("PYTHONPATH", None)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        env[var] = nproc
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_excess(path: Path, eps_primitive: float) -> str | None:
    """Why a sweep's accuracy fails, or None.

    The error of a point checked against the dense window can exceed the
    trace distance its own truncation explains only by the primitive-stage
    budget.  This holds at every svd_cutoff, so a fault at the low-cutoff
    points shows even where the largest error is a lossy point's.
    """
    with path.open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            excess = (float(row["error"])
                      - float(row["trace_distance_estimate"]))
            if row["error_kind"] == "dense_window" and excess > eps_primitive:
                return (f"sweep {row['axis']}={row['value']} orbital "
                        f"{row['orbital']}: error exceeds the truncation "
                        f"estimate by {excess:.3g} > eps_primitive "
                        f"{eps_primitive:g}")
    return None


def outputs_digest(hashes: dict) -> str:
    """One short digest of a job's output files and their sha256."""
    text = "".join(f"{name} {h}\n" for name, h in sorted(hashes.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _trace_distance(command: str, out_dir: Path) -> float | None:
    """Largest trace distance in a job's outputs (None if it reports none).

    sweep: the `error` column, which is the dense-window trace distance
    where the grid fits under the oracle cap and the train's estimate
    elsewhere; estimate: the per-orbital trace_distance_estimate.
    """
    if command == "sweep":
        (path,) = out_dir.glob("*_sweep.csv")
        with path.open(encoding="utf-8", newline="") as fh:
            return max(float(row["error"]) for row in csv.DictReader(fh))
    if command == "estimate":
        (path,) = out_dir.glob("*_report.json")
        report = json.loads(path.read_text(encoding="utf-8"))
        return max(o["trace_distance_estimate"] for o in report["orbitals"])
    return None


class Runner:
    """Runs jobs in child interpreters and gates their outputs."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.env = child_env()
        self.report_schema = workloads.load_schema(SRC, "report")
        self.reference: dict[str, dict] = {}
        self.count = 0

    def run(self, job: workloads.Job, trace: bool) -> dict:
        self.count += 1
        out_dir = self.run_dir / "out" / f"{self.count:05d}"
        out_dir.mkdir(parents=True)
        record_path = out_dir.parent / f"{self.count:05d}.record.json"
        result = {"job_id": job.job_id, "command": job.command,
                  "traced": trace, "pipelines": job.pipelines}
        cmd = [sys.executable, str(HERE / "child.py"), repr(time.monotonic()),
               str(record_path), "1" if trace else "0", str(SRC), job.job_id,
               job.command, "--config", str(job.config), "--fixture",
               str(job.fixture), "--out", str(out_dir)]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            result["error"] = f"timed out after {JOB_TIMEOUT_S} s"
            return result
        if record_path.is_file():
            rec = json.loads(record_path.read_text(encoding="utf-8"))
            record_path.unlink()
            result.update(setup_s=rec["setup_s"], job_s=rec["job_s"],
                          cpu_s=rec["cpu_s"], rss_mb=rec["max_rss_kb"] / 1024.0)
            if trace:
                result["trace"] = rec["trace"]
        result["error"] = self._gate(job, proc, out_dir, result)
        shutil.rmtree(out_dir)
        return result

    def _gate(self, job, proc, out_dir: Path, result: dict) -> str | None:
        if proc.returncode != 0 or "job_s" not in result:
            return (f"exit code {proc.returncode}: "
                    f"{(proc.stderr or proc.stdout).strip()[-400:]}")
        if job.command == "oracle":
            fails = [ln for ln in proc.stdout.splitlines()
                     if ln.startswith("CHECK") and ": FAIL" in ln]
            if fails:
                return f"oracle: {fails[0]}"
        if job.command == "estimate":
            (report,) = out_dir.glob("*_report.json")
            try:
                jsonschema.validate(
                    json.loads(report.read_text(encoding="utf-8")),
                    self.report_schema)
            except jsonschema.ValidationError as e:
                return f"report invalid at {e.json_path}: {e.message}"
        if job.command == "sweep":
            config = json.loads(job.config.read_text(encoding="utf-8"))
            (table,) = out_dir.glob("*_sweep.csv")
            excess = sweep_excess(
                table, float(config["compression"]["eps_primitive"]))
            if excess:
                return excess
        result["hashes"] = {p.name: _sha256(p)
                            for p in sorted(out_dir.iterdir())}
        first = self.reference.setdefault(job.job_id, result["hashes"])
        if result["hashes"] != first:
            return "outputs differ from the first run of this job"
        distance = _trace_distance(job.command, out_dir)
        if distance is not None:
            if not 0.0 <= distance <= 1.0:
                return f"trace distance {distance} outside [0, 1]"
            result["trace_distance"] = distance
        return None


def end_to_end(results: list[dict]) -> dict:
    """Medians over jobs.  Throughput is one pass's pipeline evaluations over
    the sum of each job's median time, so a slow outlier of any job does not
    move it."""
    ok = [r for r in results if r["error"] is None]
    by_job: dict[str, list[dict]] = {}
    for r in ok:
        by_job.setdefault(r["job_id"], []).append(r)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "job_s.p50": statistics.median(r["job_s"] for r in ok),
        "pipelines_per_s": (
            sum(runs[0]["pipelines"] for runs in by_job.values())
            / sum(statistics.median(r["job_s"] for r in runs)
                  for runs in by_job.values())),
        "peak_rss_mb": max(r["rss_mb"] for r in ok),
    }
    distances = [r["trace_distance"] for r in ok if "trace_distance" in r]
    if distances:
        metrics["max_trace_distance"] = max(distances)
    return metrics


def per_layer(passes: list[list[dict]]) -> tuple[dict, list[str]]:
    flat = [r for results in passes for r in results if r["error"] is None]
    if not any(r["traced"] for r in flat):
        return {}, []
    per_pass = []
    for results in passes:
        traced = [r for r in results if r["traced"] and r["error"] is None]
        per_pass.append(tracer.layer_metrics(
            [r["trace"] for r in traced], [r["job_s"] for r in traced]))
    metrics = tracer.median_metrics(per_pass)
    traced = statistics.median(r["job_s"] for r in flat if r["traced"])
    metrics["trace.job_s.p50"] = traced
    untraced = [r["job_s"] for r in flat if not r["traced"]]
    if untraced:
        metrics["trace.overhead_s"] = traced - statistics.median(untraced)
    absent = sorted({name for r in flat if r["traced"]
                     for name in r["trace"]["absent"]})
    return metrics, absent


def _table(metrics: dict, catalogue: dict, samples: dict) -> str:
    rows = [f"{'metric':46s} {'value':>16s} {'unit':6s} {'better':6s} samples"]
    for name, (unit, better) in catalogue.items():
        if name in metrics:
            rows.append(f"{name:46s} {metrics[name]:16.6g} {unit:6s} "
                        f"{better:6s} {samples.get(name, '')}")
        else:
            rows.append(f"{name:46s} {'absent':>16s} {unit:6s} {better:6s}")
    return "\n".join(rows)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    jobs = workloads.generate(workload, seed, run_dir / "inputs", SRC)
    runner = Runner(run_dir)
    warm = runner.run(jobs[0], trace=False)
    start = time.monotonic()
    passes: list[list[dict]] = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        results = []
        for k, job in enumerate(jobs):
            if trace:
                first = (len(passes) + k) % 2 == 0
                results.append(runner.run(job, trace=first))
                results.append(runner.run(job, trace=not first))
            else:
                results.append(runner.run(job, trace=False))
        passes.append(results)
        now = time.monotonic()
        longest = max(longest, now - t0)
        if now - start >= seconds or now - start + longest > HARD_LIMIT_S:
            break
    measured_s = time.monotonic() - start

    flat = [r for results in passes for r in results]
    failed = [r for r in flat if r["error"] is not None]
    ok = len(flat) - len(failed)
    samples = {}
    absent: list[str] = []
    if ok == 0:
        metrics, catalogue = {}, {}
    elif trace:
        metrics, absent = per_layer(passes)
        catalogue = tracer.PER_LAYER
        samples = dict.fromkeys(catalogue, f"{len(passes)} passes")
        samples["trace.job_s.p50"] = f"{ok // 2} jobs"
    else:
        metrics, catalogue = end_to_end(flat), END_TO_END
        samples = dict.fromkeys(catalogue, f"{ok} jobs")
    record = {"workload": workload, "seed": seed, "trace": trace,
              "measured_s": measured_s, "passes": len(passes),
              "warm_up": warm, "jobs": flat, "metrics": metrics,
              "absent": absent}
    (RUNS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record), encoding="utf-8")
    shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {workload}, seed {seed}: {len(passes)} passes of "
          f"{len(jobs)} jobs in {measured_s:.1f} s, closed loop, one client")
    p_tail = tail_percentile(ok)
    if not trace and p_tail is not None:
        value = statistics.quantiles([r["job_s"] for r in flat
                                      if r["error"] is None], n=1000)
        print(f"job_s.p{p_tail:g} = {value[int(p_tail * 10) - 1]:.6g} s")
    for job in jobs:
        times = [r["job_s"] for r in flat
                 if r["job_id"] == job.job_id and r["error"] is None]
        if times:
            digest = outputs_digest(runner.reference[job.job_id])
            print(f"  {job.job_id:24s} median job_s {statistics.median(times):.4f}"
                  f" s over {len(times)}, outputs {digest}")
    for r in failed:
        print(f"FAILED {r['job_id']}: {r['error']}")
    if absent:
        print(f"absent (target no longer in the program): {', '.join(absent)}")
    print(_table(metrics, catalogue, samples))
    return {"correct": not failed, "attempted": len(flat),
            "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, (unit, _) in catalogue.items()
                        if name in metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "ttprep" / "cli.py").is_file():
        print(f"error: no ttprep sources at {SRC / 'ttprep'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

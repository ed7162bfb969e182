"""Run one ttprep command in this fresh interpreter and record its timings.

    python3 child.py <spawn_monotonic> <record.json> <trace 0|1> <src> <job_id> \
        <ttprep arguments...>

setup_s is measured from the parent's monotonic clock just before it
spawned this process to the moment `ttprep.cli` and its dependencies are
imported (CLOCK_MONOTONIC is shared by all processes on Linux).  job_s is
the command's wall time from there to its exit, inside this process.  With
trace 1 the tracer is installed after the set-up timestamp, so set-up is
never charged with the wrappers.  The record is written even when the
command fails; the exit code is passed through.
"""

import json
import resource
import sys
import time


def main() -> int:
    spawn = float(sys.argv[1])
    record_path, trace, src, job_id = sys.argv[2], sys.argv[3] == "1", \
        sys.argv[4], sys.argv[5]
    args = sys.argv[6:]
    sys.path.insert(0, src)
    from ttprep import cli

    ready = time.monotonic()
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(job_id)
        tracer.install()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        cli.main(args=args, prog_name="ttprep")
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None
                                                       else 1)
    job_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    if tracer is not None:
        tracer.uninstall()
    record = {
        "setup_s": ready - spawn,
        "job_s": job_s,
        "cpu_s": cpu_s,
        "exit_code": code,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ttprep_file": cli.__file__,
    }
    if tracer is not None:
        record["trace"] = tracer.record()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

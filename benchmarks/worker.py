"""One cold measurement: a fresh interpreter imports qlverify, runs one
workload once through its public entry point and prints one JSON line.

    python3 benchmarks/worker.py SPAWN_NS JOB_JSON

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
interpreter (CLOCK_MONOTONIC is shared by all processes), so setup_s covers
interpreter start plus the imports of numpy and qlverify.  JOB_JSON names
the qlverify source tree, the workload, its input and where to write the
report; a job without a workload only measures setup.

The first thing the worker does is start a refclock.Meter, which samples
the machine's speed from SIGALRM until the measured region ends.  setup_s
and wall_s are reported in reference seconds (see refclock.py), and
raw_setup_s and raw_wall_s in plain wall-clock seconds.

Every run starts cold because the package keeps its caches (_tables,
_value_log_histogram, _bredon_pi_odd, dirichlet_l_value, ...) in
process-global lru_caches: a second workload in the same process would
reuse the tables the first one built, which no command-line user gets.
"""

import json
import os
import sys
import time

SPAWN_S = int(sys.argv[1]) / 1e9
JOB = json.loads(sys.argv[2])

import refclock  # noqa: E402  (this file's directory is sys.path[0])

METER = refclock.Meter()
METER.start()
sys.path.insert(0, JOB["src"])

import numpy  # noqa: E402
import qlverify  # noqa: E402
import qlverify.cli  # noqa: E402

SETUP_END = time.monotonic()

import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402


def _run_bredon(instances_path: str, report_path: str) -> tuple[float, float, int]:
    """Each instance: build the kernel-filtration Mackey data, take Bredon
    cohomology in every degree -lambda..0 and the closed-form H^0 oracle.
    The canonical report has one line per instance; run.py checks it.
    Returns the measured region's start and end, and exit code 0."""
    from qlverify.equivariant import (
        bredon_cohomology,
        cyclic_fixed_point_mackey,
        h0_fixed_point_oracle,
    )

    with open(instances_path) as fh:
        instances = json.load(fh)
    t0 = time.monotonic()
    lines = []
    for mod, u, m, lam in instances:
        M = cyclic_fixed_point_mackey(mod, u, m)
        groups = [str(bredon_cohomology(M, s)) for s in range(-lam, 1)]
        oracle = str(h0_fixed_point_oracle(M))
        lines.append("\t".join([str(mod), str(u), str(m), str(lam), *groups, oracle]) + "\n")
    with open(report_path, "w") as fh:
        fh.writelines(lines)
    return t0, time.monotonic(), 0


def _run_cli(argv, report_path: str) -> tuple[float, float, int]:
    t0 = time.monotonic()
    rc = qlverify.cli.main(["--out", report_path, *argv])
    return t0, time.monotonic(), rc


def _speed(meter) -> dict:
    speeds = sorted(meter.speeds())
    return {"samples": len(speeds), "median": statistics.median(speeds),
            "p10": speeds[len(speeds) // 10], "p90": speeds[len(speeds) * 9 // 10]}


def main() -> int:
    job = JOB
    result = {"python": sys.version.split()[0],
              "numpy": numpy.__version__, "qlverify": os.path.abspath(qlverify.__file__)}
    workload = job.get("workload")
    start = end = None
    tracer = None
    if workload:
        if job.get("trace"):
            import tracer as tracing

            tracer = tracing.install(job["run_id"])
        try:
            if workload == "bredon-random":
                start, end, rc = _run_bredon(job["input"], job["report"])
            else:
                start, end, rc = _run_cli(job["argv"], job["report"])
        except Exception:
            result["error"] = traceback.format_exc()
    METER.stop()
    result.update(setup_s=METER.seconds(SPAWN_S, SETUP_END), raw_setup_s=SETUP_END - SPAWN_S,
                  speed=_speed(METER))
    if "error" in result:
        print(json.dumps(result), flush=True)
        return 1
    if workload:
        raw_wall_s, wall_s = end - start, METER.seconds(start, end)
        cpu = resource.getrusage(resource.RUSAGE_SELF)
        result.update(wall_s=wall_s, raw_wall_s=raw_wall_s, rc=rc,
                      cpu_s=cpu.ru_utime + cpu.ru_stime, peak_rss_mb=cpu.ru_maxrss / 1024.0)
        if tracer is not None:
            # span times are wall-clock; scale them by the repetition's mean speed
            result["layers"], result["spans"] = tracing.layer_metrics(
                tracer, raw_wall_s, wall_s / raw_wall_s)
            result["span_count"] = len(tracer.starts)
            result["caches"] = {k: obj.cache_info()._asdict() for k, obj in tracer.caches.items()}
            tracer.dump(job["spans"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

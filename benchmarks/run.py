"""Cold-process benchmark of qlverify's four verification suites.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --self-test
    python3 benchmarks/run.py --record-digests 0-31

Run from anywhere; it measures the qlverify sources in ../src relative to
this file, or the tree given by --src.  Each measured repetition starts a
fresh interpreter (worker.py), because the package's lru_caches are
process-global and every command-line user starts cold.  Repetitions run
closed-loop, one at a time (one client, one process, no threads), until
--seconds is used up; a repetition is not started when the longest round so
far says it would overrun.

--trace 0 prints the end-to-end metrics, each the median over the run's
repetitions: wall_s (first call into qlverify until the report is written),
setup_s (interpreter start until numpy and qlverify are imported) and
peak_rss_mb (the worker's peak resident set).  wall_s and setup_s are in
reference seconds: wall time rescaled by the machine's speed, which the
worker samples while it runs (refclock.py); the plain wall-clock figures
are printed beside them.  fail_share = failed / attempted cases is printed
as a line and carried by the result's attempted/failed counts.

--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of tracer.py, plus trace.overhead_s (median traced minus
median untraced wall_s) and report.records.  Spans go to
benchmarks/out/spans-<workload>.tsv.

Every repetition passes the gate in workloads.py, and its report's SHA-256
must equal the digest in digests.json when the seed is listed there, and
must equal every other repetition of the run (traced ones included).  A
repetition that fails any check counts all its cases as failed.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A full record with every sample and the environment goes to
benchmarks/out/result-<workload>-<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check, make_job, report_records  # noqa: E402

SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 120  # a run must end within 180 s
# numpy's OpenBLAS starts a thread pool when it is imported.  qlverify makes
# no BLAS call (its numpy matrix products are on int64 arrays), and starting
# the pool took 0.05-0.1 s of setup that depended on how fast the host woke
# the second vCPU, so it measured the host, not the program.  With one BLAS
# thread the worker starts no thread at all.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")

# (metric, unit) of the end-to-end metrics, each the median of the run's
# repetitions
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_before": os.getloadavg(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# one cold interpreter


def run_worker(job: dict, src: str) -> dict:
    """Start worker.py in a fresh interpreter on the qlverify sources in src
    and return its JSON result, with the parent-side elapsed time added as
    elapsed_s."""
    job = dict(job, src=src)
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, str(t0), json.dumps(job)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S, cwd=ROOT, env=WORKER_ENV,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"error": f"worker killed after {WORKER_TIMEOUT_S} s",
                "elapsed_s": (time.monotonic_ns() - t0) / 1e9}
    elapsed = (time.monotonic_ns() - t0) / 1e9
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"error": f"worker exited {proc.returncode} without a result: {proc.stderr[-2000:]}"}
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    result["elapsed_s"] = elapsed
    return result


def _load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def shipped_digest(digests: dict, name: str, seed: int):
    table = digests.get(name, {})
    return table.get("*") if not WORKLOADS[name].seeded else table.get(str(seed))


class Measurement:
    """The repetitions of one workload at one seed, gated as they finish."""

    def __init__(self, name: str, seed: int, digests: dict, src: str = SRC):
        self.name, self.seed, self.src = name, seed, src
        self.job = make_job(name, seed, OUT)
        self.expected_digest = shipped_digest(digests, name, seed)
        self.reps: list[dict] = []
        self.setup_samples: list[float] = []
        self.first_digest = None

    def gate(self, rep: dict, report_path: str) -> list[str]:
        if "error" in rep:
            return [rep["error"].strip().splitlines()[-1]]
        if "qlverify" in rep and not rep["qlverify"].startswith(self.src + os.sep):
            return [f"measured {rep['qlverify']}, not the tree under {self.src}"]
        try:
            with open(report_path) as fh:
                text = fh.read()
        except OSError as exc:
            return [f"no report: {exc}"]
        rep["records"] = report_records(self.name, text)
        problems = check(self.name, self.seed, rep.get("rc", -1), text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        rep["digest"] = digest
        if self.expected_digest is not None and digest != self.expected_digest:
            problems.append(f"report digest {digest[:16]} differs from digests.json")
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append(f"report digest {digest[:16]} differs from the run's first repetition")
        return problems

    def run_once(self, trace: bool) -> dict:
        index = len(self.reps)
        report = os.path.join(OUT, f"report-{self.name}.txt")
        if os.path.exists(report):
            os.remove(report)
        job = dict(self.job, report=report, trace=trace,
                   run_id=f"{self.name}/{self.seed}/{index}",
                   spans=os.path.join(OUT, f"spans-{self.name}.tsv"))
        rep = run_worker(job, self.src)
        rep["report"] = report
        return self.record(rep, report, trace)

    def record(self, rep: dict, report: str, trace: bool) -> dict:
        """Gate one finished repetition and add it to the run; a repetition
        with any problem counts every case it attempted as failed."""
        rep["trace"] = trace
        rep["problems"] = self.gate(rep, report)
        rep["attempted"] = WORKLOADS[self.name].cases
        rep["failed"] = rep["attempted"] if rep["problems"] else 0
        if "setup_s" in rep:
            self.setup_samples.append(rep["setup_s"])
        self.reps.append(rep)
        return rep


# ---------------------------------------------------------------------------
# statistics and output


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(m: Measurement) -> dict:
    """Samples of every end-to-end metric and of the plain wall-clock
    figures printed beside them."""
    plain = [r for r in m.reps if not r["trace"] and not r["problems"]]
    return {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": m.setup_samples,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "raw_wall_s": [r["raw_wall_s"] for r in plain],
        "raw_setup_s": [r["raw_setup_s"] for r in m.reps if "raw_setup_s" in r],
        "speed": [r["speed"]["median"] for r in m.reps if "speed" in r],
    }


def per_layer(m: Measurement) -> dict:
    traced = [r for r in m.reps if r["trace"] and not r["problems"]]
    plain = [r for r in m.reps if not r["trace"] and not r["problems"]]
    if not traced:
        return {}
    out = {}
    for key in traced[0]["layers"]:
        out[key] = _median([r["layers"][key] for r in traced])
    out["report.records"] = _median([r["records"] for r in traced])
    out["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                               - _median([r["wall_s"] for r in plain]))
    return out


def measure(names, seed: int, seconds: float, trace: bool, digests: dict, src: str) -> dict:
    """Round-robin over the workloads, one cold repetition at a time, until
    seconds * len(names) have passed; every workload gets at least one
    repetition (two, untraced then traced, with trace)."""
    os.makedirs(OUT, exist_ok=True)
    ms = {name: Measurement(name, seed, digests, src) for name in names}
    run_worker({}, src)  # warm the bytecode and page caches; not a sample
    deadline = time.monotonic() + seconds * len(names)
    longest = {name: 0.0 for name in names}  # slowest round so far, per workload
    kinds = (False, True) if trace else (False,)
    rounds = 0
    while True:
        started = False
        for name, m in ms.items():
            t0 = time.monotonic()
            if rounds and t0 + longest[name] > deadline:
                continue
            for traced in kinds:
                m.run_once(traced)
            longest[name] = max(longest[name], time.monotonic() - t0)
            started = True
        rounds += 1
        if not started:
            return ms


def _fmt(values, unit):
    q1, q3 = _quartiles(values)
    return f"{_median(values):.6g} {unit}  (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})"


def summarize(ms: dict, trace: bool, env: dict, prefix_names: bool) -> dict:
    metrics = {}
    attempted = failed = 0
    correct = True
    for name, m in ms.items():
        prefix = f"{name}." if prefix_names else ""
        a = sum(r["attempted"] for r in m.reps)
        f = sum(r["failed"] for r in m.reps)
        attempted += a
        failed += f
        print(f"== {name} seed={m.seed} trace={int(trace)}: {len(m.reps)} cold repetitions")
        for i, r in enumerate(m.reps):
            status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"][:3])
            wall, raw = r.get("wall_s"), r.get("raw_wall_s")
            speed = r.get("speed", {}).get("median")
            print(f"   rep {i} {'traced' if r['trace'] else 'plain '} "
                  f"wall_s={wall if wall is None else round(wall, 4)} "
                  f"raw_wall_s={raw if raw is None else round(raw, 4)} "
                  f"speed={speed if speed is None else round(speed, 3)} {status}")
        if m.expected_digest is None:
            print(f"   digest: seed {m.seed} not in digests.json; repetitions checked against each other")
        print(f"   fail_share {f}/{a} = {f / a if a else 1.0:.6g}")
        if f or not m.reps:
            correct = False
        if trace:
            layers = per_layer(m)
            if not layers:
                correct = False
            for key, value in layers.items():
                print(f"   {key:48s} {value:.6g}")
                metrics[prefix + key] = {"value": value, "unit": _unit_of(key)}
        else:
            samples = end_to_end(m)
            for key, unit in END_TO_END:
                if not samples[key]:
                    correct = False
                    continue
                print(f"   {key:12s} {_fmt(samples[key], unit)}")
                metrics[prefix + key] = {"value": _median(samples[key]), "unit": unit}
            for key, unit in (("raw_wall_s", "s"), ("raw_setup_s", "s"), ("speed", "x")):
                if samples[key]:
                    print(f"   {key:12s} {_fmt(samples[key], unit)}")
    env["loadavg_after"] = os.getloadavg()
    for m in ms.values():
        for r in m.reps:
            if "numpy" in r:
                env["numpy"] = r["numpy"]
    print("env " + json.dumps(env, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith((".p50", ".p99")):
        return "ms"
    if key.endswith(("hit_ratio", "coverage")):
        return "ratio"
    if key.endswith(".bytes"):
        return "bytes"
    return "count"


def write_record(ms: dict, result: dict, env: dict, label: str):
    record = {"env": env, "result": result,
              "reps": {name: m.reps for name, m in ms.items()},
              "setup_samples": {name: m.setup_samples for name, m in ms.items()}}
    with open(os.path.join(OUT, f"result-{label}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# maintenance modes


def record_digests(seed_range: str):
    """Run each seeded workload once per seed, gate it, and store its report
    digest in digests.json.  The unseeded workloads are recorded once."""
    lo, hi = (int(x) for x in seed_range.split("-"))
    digests = _load_digests()
    os.makedirs(OUT, exist_ok=True)
    plan = [(name, 0) for name, w in WORKLOADS.items() if not w.seeded]
    plan += [(name, s) for s in range(lo, hi + 1) for name, w in WORKLOADS.items() if w.seeded]
    for name, seed in plan:
        m = Measurement(name, seed, {})
        rep = m.run_once(False)
        if rep["problems"]:
            raise SystemExit(f"{name} seed {seed}: {rep['problems']}")
        key = str(seed) if WORKLOADS[name].seeded else "*"
        digests.setdefault(name, {})[key] = rep["digest"]
        print(f"{name} seed {key}: {rep['digest']} ({rep['wall_s']:.2f} s)", flush=True)
        with open(os.path.join(HERE, "digests.json"), "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")


def self_test() -> int:
    """Run dirichlet-matrix and bredon-random once each, then feed corrupted
    copies of their reports through the same gate and accounting: each must
    be caught and count every case of its repetition as failed."""
    digests = _load_digests()
    os.makedirs(OUT, exist_ok=True)
    corruptions = []
    for name in ("dirichlet-matrix", "bredon-random"):
        good_rep = Measurement(name, 0, digests).run_once(False)
        assert not good_rep["problems"], good_rep["problems"]
        with open(good_rep["report"]) as fh:
            good = fh.read()
        lines = good.split("\n")
        if name == "dirichlet-matrix":
            corruptions += [
                (name, "one value changed", good.replace("\t-2/5\tPASS", "\t-3/5\tPASS", 1), 0),
                (name, "one PASS turned FAIL", good.replace("\tPASS\n", "\tFAIL\n", 1), 0),
                (name, "last record dropped", "\n".join(lines[:-3] + lines[-2:]), 0),
                (name, "exit code 1", good, 1),
            ]
        else:
            first = lines[0].split("\t")
            first[-1] += " x Z/2"
            corruptions.append((name, "oracle mismatch",
                                "\n".join(["\t".join(first)] + lines[1:]), 0))
    for name, label, text, rc in corruptions:
        m = Measurement(name, 0, digests)
        path = os.path.join(OUT, f"corrupt-{name}.txt")
        with open(path, "w") as fh:
            fh.write(text)
        rep = m.record({"rc": rc, "report": path}, path, False)
        assert rep["problems"], f"{name}: {label} not caught"
        assert rep["failed"] == rep["attempted"] > 0, rep
        print(f"caught {name} ({label}): {rep['problems'][0]}; "
              f"fail_share {rep['failed']}/{rep['attempted']}")
        os.remove(path)
    print("self-test passed")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", metavar="LO-HI")
    parser.add_argument("--src", default=SRC,
                        help="qlverify source tree to measure (compare.py points it at another checkout)")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "qlverify", "__init__.py")):
        print(f"no qlverify sources under {src}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.record_digests:
        record_digests(args.record_digests)
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    ms = measure(names, args.seed, args.seconds, bool(args.trace), _load_digests(), src)
    result = summarize(ms, bool(args.trace), env, prefix_names=args.workload == "all")
    write_record(ms, result, env, f"{args.workload}-{args.seed}-trace{args.trace}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""reebmin benchmark: seeded JobSpec batches through `reebmin batch`, checked.

    python3 bench/run.py --workload toric --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With --trace 0 it measures the
end-to-end metrics: passes over one seeded job list go through
reebmin.cli.main(["batch", <file>]) in this process until --seconds of
batch time are spent, every report is checked against independent oracles,
and set-up is timed on fresh `python -m reebmin.cli batch` processes.  The
timings are scaled by the machine's speed in the run (speed.py).  With
--trace 1 it runs a fixed number of passes with spans around the program's
public functions and prints the per-layer metrics instead.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROCESSES = 9     # fresh CLI processes per run; setup_s is their median
RSS_PASSES = 4          # peak_rss_mb is read after this many measured passes
REFERENCE_EVERY_S = 0.1  # how often the speed reference runs between jobs
STARTUP_PROBES = 5      # fresh processes behind startup.import_ms
# passes of the traced run: fixed, so its counts repeat; 1 to 3 s untraced
TRACE_PASSES = {"toric": 2, "links": 10, "ypq": 4}

PROBE = """
import contextlib, json, os, sys, time
t0 = time.perf_counter()
import reebmin.cli
t1 = time.perf_counter()
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    rc = reebmin.cli.main(["batch", sys.argv[1]])
print(json.dumps({"import_ms": (t1 - t0) * 1000.0, "modules": len(sys.modules), "rc": rc}))
"""


def log(msg):
    print(msg, flush=True)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def write_first_job(workload, seed):
    jobs, _ = workloads.make_pass(workload, seed, 0)
    path = OUT / f"{workload}-{seed}-first.ndjson"
    path.write_bytes(workloads.ndjson(jobs[:1]))
    return path, jobs[:1]


class SetupProbe:
    """Fresh `python -m reebmin.cli batch <first job>` processes, one at a time.

    The benchmark starts them between measured passes, spread over the run,
    so that one slow stretch of the machine does not set the median, and
    scales each by the machine's speed in the pass before it.
    """

    def __init__(self, workload, seed):
        self.path, self.first = write_first_job(workload, seed)
        self.times, self.scaled, self.problems = [], [], []

    def run_one(self, scale):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "reebmin.cli", "batch", str(self.path)],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        self.times.append(perf_counter() - t0)
        self.scaled.append(self.times[-1] * scale)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 1:
            self.problems.append(f"fresh CLI exit {proc.returncode}: {proc.stderr[-300:]}")
        else:
            self.problems += checks.check_pass(self.first, [json.loads(lines[0])], [], [])[0]


def probe_startup(workload, seed):
    path, _ = write_first_job(workload, seed)
    ms, modules = [], set()
    for _ in range(STARTUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", PROBE, str(path)], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        res = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or res["rc"] != 0:
            raise RuntimeError(f"startup probe failed: {proc.stderr[-300:]}")
        ms.append(res["import_ms"])
        modules.add(res["modules"])
    return statistics.median(ms), max(modules)


class Runner:
    """Runs passes of one workload through `reebmin batch` and keeps what they produced.

    The inputs and reports stay on disk until check() reads them back.
    """

    def __init__(self, workload, seed, tracer=None):
        from reebmin import cli, links
        self.cli, self.links = cli, links
        self.workload, self.seed, self.tracer = workload, seed, tracer
        self.passes = []          # (pass number, library values, job file, out file, rc)
        self.job_scaled = []      # per pass: each job's scaled time, in input order
        self.pass_scaled = []     # per pass: scaled batch call plus library jobs
        self.pass_s = []          # per pass: batch call plus library jobs
        self.scale = 1.0          # the machine-speed scale of the latest pass
        self.batch_s = 0.0        # time inside cli.main(["batch", ...]), all passes
        self.attempted = 0
        self.output_bytes = 0
        self.digests = []

    def run_pass(self, pass_no, content="main"):
        """One batch call plus the library jobs.

        Untraced, every job is timed, and about every REFERENCE_EVERY_S the
        reference kernel runs between two jobs (outside both their times and
        the pass time); each job's time is also kept scaled by the kernel
        time nearest before it.
        """
        jobs, library = workloads.make_pass(self.workload, self.seed, pass_no, content)
        data = workloads.ndjson(jobs)
        stem = OUT / f"{self.workload}-{self.seed}-{content}-p{pass_no}"
        job_file, out_file = stem.with_suffix(".ndjson"), stem.with_suffix(".out")
        job_file.write_bytes(data)
        job_s, scaled, scales = [], [], []
        ref = {"at": float("-inf"), "spent": 0.0}

        def timed(fn, *args):
            now = perf_counter()
            if now - ref["at"] > REFERENCE_EVERY_S:
                scales.append(speed.NOMINAL_MS / speed.reference_ms())
                ref["at"] = perf_counter()
                ref["spent"] += ref["at"] - now
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                job_s.append(perf_counter() - t0)
                scaled.append(job_s[-1] * scales[-1])

        orig = self.cli.run
        if self.tracer is None:
            self.cli.run = lambda spec, timing=False: timed(orig, spec, timing)
        try:
            with open(out_file, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                t0 = perf_counter()
                rc = self.cli.main(["batch", str(job_file)])
                t1 = perf_counter()
        finally:
            self.cli.run = orig
        values = []
        for _, args, _ in library:
            if self.tracer is None:
                values.append(timed(self.links.bp8_class, args))
            else:
                values.append(self.tracer.library_call(self.links.bp8_class, args))
        t2 = perf_counter()
        if content != "main":
            job_file.unlink()
            out_file.unlink()
            return
        wall = t2 - t0 - ref["spent"]
        self.pass_s.append(wall)
        if self.tracer is None:
            # the time between jobs (line parsing, serialisation) at the mean scale
            between = wall - sum(job_s)
            self.pass_scaled.append(sum(scaled) + between * sum(scaled) / sum(job_s))
            self.job_scaled.append(scaled)
            self.scale = statistics.median(scales)
        self.batch_s += t1 - t0
        self.attempted += len(jobs) + len(library)
        self.output_bytes += out_file.stat().st_size
        self.digests.append(hashlib.sha256(data).hexdigest())
        self.passes.append((pass_no, values, job_file, out_file, rc))

    def warm_up(self):
        # one pass over inputs outside the measured list, so that the only
        # cache hits of the measured passes are the repeats a pass states
        self.run_pass(0, content="warmup")

    def check(self):
        """(problems, failed) over every report; a pass identical to one
        already checked is not checked again."""
        problems, failed, seen = [], 0, {}
        for pass_no, values, job_file, out_file, rc in self.passes:
            out = out_file.read_bytes()
            key = hashlib.sha256(job_file.read_bytes() + out + repr(values).encode()).digest()
            if key not in seen:
                jobs, library = workloads.make_pass(self.workload, self.seed, pass_no)
                reports = [json.loads(line) for line in out.splitlines()]
                found, seen[key] = checks.check_pass(jobs, reports, library, values)
                problems += [f"pass {pass_no}: {p}" for p in found]
            failed += seen[key]
            if rc != (1 if seen[key] else 0):
                problems.append(f"pass {pass_no}: batch exit code {rc}")
            out_file.unlink()
            if pass_no:
                job_file.unlink()
        return problems, failed


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(args):
    setup = SetupProbe(args.workload, args.seed)
    runner = Runner(args.workload, args.seed)
    runner.warm_up()
    while sum(runner.pass_s) < args.seconds or len(runner.passes) < RSS_PASSES:
        runner.run_pass(len(runner.passes))
        if len(runner.passes) == RSS_PASSES:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(setup.times) < SETUP_PROCESSES * sum(runner.pass_s) / args.seconds:
            setup.run_one(runner.scale)
    while len(setup.times) < SETUP_PROCESSES:
        setup.run_one(runner.scale)
    problems, failed = runner.check()
    problems += setup.problems
    # a job's time is the median over the passes of its scaled time
    job_ms = [statistics.median(ts) * 1000.0 for ts in zip(*runner.job_scaled)]
    per_pass = len(job_ms)
    failed_per_pass = failed // len(runner.passes)
    log(f"jobs_sha256 pass0={runner.digests[0]} "
        f"all={hashlib.sha256(''.join(runner.digests).encode()).hexdigest()}")
    log(f"passes={len(runner.passes)} jobs_per_pass={per_pass} failed_per_pass="
        f"{failed_per_pass} pass_s min={min(runner.pass_s):.3f} "
        f"median={statistics.median(runner.pass_s):.3f}")
    log(f"unscaled: jobs_per_s={(per_pass - failed_per_pass) / statistics.median(runner.pass_s):.2f} "
        f"setup_s={statistics.median(setup.times):.4f}")
    metrics = {
        "jobs_per_s": ((per_pass - failed_per_pass) / statistics.median(runner.pass_scaled),
                       "jobs/s"),
        "job_p50_ms": (statistics.median(job_ms), "ms"),
        "job_p90_ms": (percentile(job_ms, 90), "ms"),
        "setup_s": (statistics.median(setup.scaled), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return runner.attempted, failed, problems, metrics


def run_fixed_passes(args):
    """The untraced twin of the traced run: same passes, same warm-up."""
    runner = Runner(args.workload, args.seed)
    runner.warm_up()
    for k in range(args.untraced_passes):
        runner.run_pass(k)
    runner.check()
    print(json.dumps({"pass_s": min(runner.pass_s)}))
    return 0


def traced(args):
    import_ms, modules = probe_startup(args.workload, args.seed)
    passes = TRACE_PASSES[args.workload]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--untraced-passes", str(passes)],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced twin failed: {proc.stderr[-500:]}")
    untraced_pass = json.loads(proc.stdout.splitlines()[-1])["pass_s"]

    from tracer import Tracer
    tracer = Tracer()
    runner = Runner(args.workload, args.seed, tracer)
    runner.warm_up()
    tracer.install()
    try:
        for k in range(passes):
            runner.run_pass(k)
    finally:
        tracer.uninstall()
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.ndjson"
    tracer.dump(trace_file)
    problems, failed = runner.check()
    traced_pass = min(runner.pass_s)
    log(f"jobs_sha256 pass0={runner.digests[0]}")
    log(f"traced wall_s={sum(runner.pass_s):.3f}; fastest pass: traced {traced_pass:.3f} s, "
        f"untraced {untraced_pass:.3f} s, overhead {100.0 * (traced_pass / untraced_pass - 1):.1f}% "
        f"spans={len(tracer.spans)} -> {trace_file.relative_to(ROOT)}")
    metrics = {
        "startup.import_ms": (import_ms, "ms"),
        "startup.modules": (modules, "count"),
    }
    metrics.update(tracer.per_layer(runner.batch_s, runner.output_bytes))
    return runner.attempted, failed, problems, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--untraced-passes", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "reebmin" / "cli.py").is_file():
        print(f"no reebmin sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.untraced_passes:
        return run_fixed_passes(args)
    attempted, failed, problems, metrics = (traced if args.trace else untraced)(args)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the superalg batch-verification CLI.

    python3 bench/run.py --workload homology --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark drives superalg.cli.main(argv)
in this process with stdout captured: a closed loop of one client with one job
at a time.  Its inputs are a corpus that bench/corpus.py draws from --seed
(default seed 1; seed 7919 is held out for checking claims made with the
default), written as JSON files under .bench_work/.

A --trace 0 run first times COLD_STARTS fresh interpreters that import
superalg.cli and build its parser from a copy of src/superalg without
bytecode, so they compile every module.  It then runs the corpus round by
round, cycling, and stops at a round boundary once the next round would pass
--seconds and the run has enough jobs for the tail percentile.  The corpus
holds about one run of work at the seed commit.  Every report is checked;
see checks.py.
Every time is reported in yardstick-normalized seconds (see yardstick.py),
which removes most of the host's own speed changes; the raw wall-clock
figures are printed beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first
TRACE_ROUNDS rounds untraced, then again with every layer wrapped (tracing.py),
and prints the per-layer metrics; the spans go to
.bench_work/spans-<workload>-<seed>.tsv.gz.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it say the same for a reader, with the
corpus digest and the digest of the reports of round 0, which every run
completes.  Two runs are comparable only when their corpus digests are equal,
and two runs of the same code and seed must give equal report digests.
Without src/superalg next to bench/ the run exits with code 2.
"""

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import corpus
import tracing
import yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
COLD_STARTS = 13
# job_tail_s is this percentile of the job times; a run goes on until at
# least ten samples lie beyond it.
TAIL = {"homology": 0.85, "supermaps": 0.75, "sderham": 0.85, "breadth": 0.98}
TRACE_ROUNDS = {"homology": 1, "supermaps": 1, "sderham": 2, "breadth": 9}
# The yardstick runs after every this much job time.
YARD_EVERY_S = 0.1
# Stop starting rounds after this long, to end well inside 180 seconds.
MAX_MEASURE_S = 120.0

END_TO_END = (("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# A fresh interpreter times the import and the parser, then times the
# yardstick, whose median normalizes that one cold start.
COLD_START = """\
import statistics, sys, time
t = time.perf_counter()
import superalg.cli
superalg.cli.build_parser()
seconds = time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
import yardstick
print(seconds, statistics.median(yardstick.sample() for _ in range(5)), superalg.cli.__file__)
"""


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def cold_start_seconds(directory):
    """Median import-and-parser time of fresh interpreters, normalized and
    raw.  They import a copy of src/superalg without __pycache__, so they
    compile every module and never read bytecode left by other runs."""
    shutil.copytree(SRC / "superalg", directory / "superalg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(directory), PYTHONDONTWRITEBYTECODE="1")
    times, raw = [], []
    for _ in range(COLD_STARTS):
        proc = subprocess.run([sys.executable, "-c", COLD_START, str(BENCH)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, yard, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(directory.resolve()):
            raise RuntimeError("cold start imported superalg from %s" % path)
        raw.append(float(seconds))
        times.append(float(seconds) * yardstick.NOMINAL_S / float(yard))
    return statistics.median(times), statistics.median(raw)


def materialize(rounds, directory):
    """Write every input file; return the rounds with runnable argv."""
    out = []
    for jobs in rounds:
        ready = []
        for job in jobs:
            argv = []
            for arg in job["argv"]:
                if arg.startswith("@"):
                    path = directory / ("%s-%s.json" % (job["id"], arg[1:]))
                    path.write_text(json.dumps(job["files"][arg[1:]]))
                    arg = str(path)
                argv.append(arg)
            ready.append((job, argv))
        out.append(ready)
    return out


def call(main, argv):
    """One CLI invocation: (exit code, stdout, seconds)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), time.perf_counter() - t0


class Tally:
    """Job times (normalized and raw), failures and reports of a run."""

    def __init__(self):
        self.times = []
        self.raw = []
        self.failures = []
        self.reports = {}

    def check(self, job, code, out):
        why = checks.problem(job, code, out)
        if why is None and self.reports.setdefault(job["id"], out) != out:
            why = "report differs from the previous run of the same job"
        if why is not None:
            self.failures.append("%s: %s" % (job["id"], why))

    def report_digest(self, jobs):
        h = hashlib.sha256()
        for job, _ in jobs:
            h.update(self.reports.get(job["id"], "").encode())
        return h.hexdigest()


def run_rounds(main, rounds, tally, run_job=None):
    """Run the rounds once each.  The yardstick is sampled after every
    YARD_EVERY_S of job time and at the end, and each job's time is
    normalized by the mean of the samples just before and just after it.
    Returns (raw, normalized) summed job time."""
    raw_total = norm_total = 0.0
    jobs = [job for round_jobs in rounds for job in round_jobs]
    before = yardstick.sample()
    pending, since = [], 0.0
    for i, (job, argv) in enumerate(jobs):
        if run_job is None:
            code, out, seconds = call(main, argv)
        else:
            code, out, seconds = run_job(len(tally.raw) + len(pending), call, main, argv)
        tally.check(job, code, out)
        pending.append(seconds)
        since += seconds
        if since >= YARD_EVERY_S or i == len(jobs) - 1:
            after = yardstick.sample()
            scale = 2 * yardstick.NOMINAL_S / (before + after)
            tally.raw += pending
            tally.times += [t * scale for t in pending]
            raw_total += sum(pending)
            norm_total += sum(pending) * scale
            before, pending, since = after, [], 0.0
    return raw_total, norm_total


def beyond(n, q):
    """Samples above the q-th percentile of n samples (nearest rank)."""
    return n - math.ceil(q * n)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(main, rounds, seconds, q, tally):
    """Cycle over the rounds; return the normalized summed job time."""
    start = time.perf_counter()
    busy = 0.0
    i = 0
    while True:
        busy += run_rounds(main, [rounds[i % len(rounds)]], tally)[1]
        i += 1
        wall = time.perf_counter() - start
        if wall > MAX_MEASURE_S:
            break
        if wall + wall / i > seconds and beyond(len(tally.times), q) >= 10:
            break
    return busy


def end_to_end(main, rounds, args, setup):
    tally = Tally()
    q = TAIL[args.workload]
    busy = measure(main, rounds, args.seconds, q, tally)
    n = len(tally.times)
    metrics = {
        "jobs_per_s": n / busy,
        "job_p50_s": statistics.median(tally.times),
        "job_tail_s": percentile(tally.times, q),
        "setup_s": setup[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("jobs %d, failed_share %.4f ratio, job_tail_s is p%g with %d samples beyond"
          % (n, len(tally.failures) / n, 100 * q, beyond(n, q)))
    print("wall clock: jobs_per_s %.6g, job_p50_s %.6g, job_tail_s %.6g, setup_s %.6g" % (
        n / sum(tally.raw), statistics.median(tally.raw), percentile(tally.raw, q), setup[1]))
    return tally, {name: (metrics[name], unit) for name, unit in END_TO_END}


def per_layer(main, rounds, args):
    chosen = rounds[:TRACE_ROUNDS[args.workload]]
    tally = Tally()
    untraced = run_rounds(main, chosen, tally)[1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        raw, norm = run_rounds(main, chosen, tally, tracer.run_job)
    finally:
        tracer.restore()
    tracer.write(WORK / ("spans-%s-%d.tsv.gz" % (args.workload, args.seed)))
    values = tracer.summary(norm / raw, untraced)
    print("traced %d jobs, %d spans; top layers by self time: %s" % (
        len(tally.times) // 2, len(tracer.span_label),
        ", ".join("%s %.3fs" % kv for kv in top_layers(values))))
    return tally, {name: (values[name], tracing.unit_of(name))
                   for name in tracing.metric_names()}


def top_layers(values, n=3):
    selfs = [(k[:-len(".self_s")], v) for k, v in values.items() if k.endswith(".self_s")]
    return sorted(selfs, key=lambda kv: -kv[1])[:n]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "superalg" / "cli.py").is_file():
        sys.stderr.write("error: %s/superalg not found; run from a checkout of the repository\n"
                         % SRC)
        return 2
    load_start = loadavg()
    rounds = corpus.generate(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    directory = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    directory.mkdir()
    try:
        if not args.trace:
            (directory / "cold").mkdir()
            setup = cold_start_seconds(directory / "cold")
        # leave no bytecode in the checkout
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(SRC))
        from superalg.cli import main as cli_main

        ready = materialize(rounds, directory)
        warm = Tally()
        run_rounds(cli_main, [ready[0][:2]], warm)
        if args.trace:
            tally, metrics = per_layer(cli_main, ready, args)
        else:
            tally, metrics = end_to_end(cli_main, ready, args, setup)
    finally:
        shutil.rmtree(directory)
    failures = warm.failures + tally.failures
    for line in failures[:20]:
        print("FAILED", line)
    print("corpus %s seed %d digest %s" % (args.workload, args.seed, corpus.digest(rounds)))
    print("reports digest %s" % tally.report_digest(ready[0]))
    print("python %s, cpu_count %s, PYTHONDONTWRITEBYTECODE=%s, loadavg %s -> %s" % (
        platform.python_version(), os.cpu_count(), os.environ.get("PYTHONDONTWRITEBYTECODE"),
        " ".join(load_start or ["?"]), " ".join(loadavg() or ["?"])))
    for name, (value, unit) in metrics.items():
        print("%-48s %14.6g %s" % (name, value, unit))
    attempted = len(warm.times) + len(tally.times)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over ten seeds per workload and report the spread of
each metric.

    python3 bench/spread.py --record bench/baseline.json
    python3 bench/spread.py --trace 1 --record bench/baseline-trace.json

Each workload runs with seeds DEFAULT_SEED .. DEFAULT_SEED + 9 for
BENCHMARK.json's run_seconds.  For every workload and metric it prints the
median of the runs and the distance between the first and third quartiles
(statistics.quantiles with n=4) as a share of the median; untraced runs show
the same for the raw wall-clock times beside the yardstick-normalized ones.
--record writes the runs, their summaries, the environment (Python version,
CPU count, PYTHONDONTWRITEBYTECODE and the load average at start and end)
and, for traced runs, each workload's top three layers by self time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import run

BENCH = Path(__file__).resolve().parent
RUNS = 10
SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    corpus_line = next(line for line in lines if line.startswith("corpus "))
    reports_line = next(line for line in lines if line.startswith("reports digest "))
    out = {"seed": seed, "wall_s": wall, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"],
           "corpus_digest": corpus_line.split()[-1],
           "reports_digest": reports_line.split()[-1],
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    wall_line = next((line for line in lines if line.startswith("wall clock: ")), None)
    if wall_line is not None:
        pairs = (item.split() for item in wall_line[len("wall clock: "):].split(", "))
        out["raw_metrics"] = {name: float(value) for name, value in pairs}
    return out


def summarize(runs, key="metrics"):
    out = {}
    for name in runs[0][key]:
        values = [r[key][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="write the runs and summaries to this JSON file")
    args = p.parse_args(argv)
    record = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
              "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
              "loadavg_start": run.loadavg(), "seconds": SECONDS, "trace": args.trace,
              "workloads": {}}
    for workload in corpus.WORKLOADS:
        runs = [one_run(workload, run.DEFAULT_SEED + i, args.trace) for i in range(RUNS)]
        summary = summarize(runs)
        entry = {"runs": runs, "summary": summary,
                 "failed": sum(r["failed"] for r in runs)}
        raw = summarize(runs, "raw_metrics") if "raw_metrics" in runs[0] else {}
        if raw:
            entry["raw_summary"] = raw
        if args.trace:
            entry["top_layers"] = [name for name, _ in run.top_layers(
                {k: v["median"] for k, v in summary.items()})]
        record["workloads"][workload] = entry
        print("%s: %d runs, %d failed jobs, wall %.0f-%.0f s" % (
            workload, len(runs), entry["failed"], min(r["wall_s"] for r in runs),
            max(r["wall_s"] for r in runs)))
        for name, s in summary.items():
            if args.trace and not name.endswith((".self_s", "_ratio", ".coverage")):
                continue
            print("  %-48s median %12.6g  spread %6.3f" % (name, s["median"], s["spread"]), end="")
            if name in raw:
                print("   raw median %12.6g  spread %6.3f" % (raw[name]["median"], raw[name]["spread"]),
                      end="")
            print()
        if args.trace:
            print("  top layers by self time: %s" % ", ".join(entry["top_layers"]))
    record["loadavg_end"] = run.loadavg()
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

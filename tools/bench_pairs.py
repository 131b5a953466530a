"""Paired benchmark runs of two checkouts, summarized as a BENCH_<pr>.json.

    python3 tools/bench_pairs.py run PARENT CHANGE OUT --workload supermaps --seed 1 --pairs 10
    python3 tools/bench_pairs.py summarize OUT --pr N --claim supermaps:jobs_per_s > BENCH_N.json

PARENT and CHANGE are checkouts holding bench/ and src/.  `run` runs
bench/run.py for the run_seconds of BENCHMARK.json alternately in each, the
parent first in even pairs and the change first in odd ones, and keeps every
run's stdout as OUT/<workload>-<seed>-<side>-<pair>.log, after a first line
with the checkout's src/superalg line count.  `summarize` reads those logs:
the last line of each is the JSON result of bench/run.py, and the lines
before it carry the line count and the corpus and report digests.  For every
workload and seed it prints each side's median and quartiles of every
end-to-end metric in BENCHMARK.json, the pairs the change won (ties count
for neither), whether the gain rule and the no-regression rule hold, the
digests and failed jobs.  It also prints each side's src line count and the
host's cpu count and Python version.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
LOG = re.compile(r"(?P<workload>\w+)-(?P<seed>\d+)-(?P<side>parent|change)-(?P<pair>\d+)\.log")


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def src_lines(checkout):
    """Lines of the src/superalg/*.py files of a checkout, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (Path(checkout) / "src" / "superalg").glob("*.py"))


def run(args):
    seconds = benchmark_spec()["run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    checkouts = {"parent": Path(args.parent), "change": Path(args.change)}
    lines = {side: src_lines(checkouts[side]) for side in SIDES}
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(seconds)],
                cwd=checkouts[side], capture_output=True, text=True, check=True)
            log = out / ("%s-%d-%s-%d.log" % (args.workload, args.seed, side, pair))
            log.write_text("src_lines %d\n%s" % (lines[side], proc.stdout))


def read_log(path):
    lines = path.read_text().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("corpus "):
            result["corpus_digest"] = line.split()[-1][:12]
        elif line.startswith("reports digest "):
            result["reports_digest"] = line.split()[-1][:12]
        elif line.startswith("src_lines "):
            result["src_lines"] = int(line.split()[-1])
    return result


def spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize_set(runs, metrics):
    """runs: {side: {pair: result}} for one workload and seed."""
    pairs = sorted(set(runs["parent"]) & set(runs["change"]))
    out = {"pairs": len(pairs)}
    for side in SIDES:
        results = [runs[side][p] for p in pairs]
        out[side] = {
            "corpus_digests": sorted({r["corpus_digest"] for r in results}),
            "reports_digests": sorted({r["reports_digest"] for r in results}),
            "failed_jobs": sum(r["failed"] for r in results),
            "attempted_jobs": sum(r["attempted"] for r in results),
            "all_correct": all(r["correct"] for r in results),
        }
    out["metrics"] = {}
    for name, (better, bound) in metrics.items():
        value = {side: [runs[side][p]["metrics"][name]["value"] for p in pairs]
                 for side in SIDES}
        sign = 1 if better == "higher" else -1
        wins = sum(1 for a, b in zip(value["parent"], value["change"]) if sign * (b - a) > 0)
        parent, change = spread(value["parent"]), spread(value["change"])
        gain = sign * (change["median"] - parent["median"])
        allowed = bound * abs(parent["median"])
        beats_all = (min(sign * v for v in value["change"])
                     > max(sign * v for v in value["parent"]))
        out["metrics"][name] = {
            "better": better, "bound": bound, "parent": parent, "change": change,
            "change_over_parent": change["median"] / parent["median"],
            "change_wins": wins,
            # the gain rule: 9 of 10 pairs won, and the medians further apart
            # than the parent's quartiles
            "gain_rule_met": 10 * wins >= 9 * len(pairs) and gain > parent["q3"] - parent["q1"],
            # the no-regression rule: the change's median worse than the
            # parent's by at most the bound, a fraction of the parent median
            "within_bound": -gain <= allowed,
            # the parent's quartiles spread wider than the bound, and not
            # every change run beats every parent run
            "unresolved": parent["q3"] - parent["q1"] > allowed and not beats_all,
        }
    return out


def summarize(args):
    spec = benchmark_spec()
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    runs = defaultdict(lambda: {side: {} for side in SIDES})
    for path in sorted(Path(args.out).iterdir()):
        m = LOG.fullmatch(path.name)
        if not m:
            continue
        if not path.read_text().rstrip().endswith("}"):
            sys.stderr.write("skipped %s: the run has not finished\n" % path.name)
            continue
        runs[(m["workload"], int(m["seed"]))][m["side"]][int(m["pair"])] = read_log(path)
    lines = {}
    for side in SIDES:
        counts = {r["src_lines"] for sides in runs.values() for r in sides[side].values()
                  if "src_lines" in r}
        if len(counts) > 1:
            sys.exit("the %s logs come from checkouts of %s src lines"
                     % (side, " and ".join(map(str, sorted(counts)))))
        lines[side] = counts.pop() if counts else None
    workload, metric = args.claim.split(":") if args.claim else (None, None)
    doc = {
        "pr": args.pr,
        "backfilled": False,
        "protocol": "bench/run.py --seconds %g, alternating parent/change pairs"
                    % spec["run_seconds"],
        "claim": {"workload": workload, "metric": metric} if args.claim else None,
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version()},
        "src_lines": lines,
        "runs": [dict(workload=w, seed=s, **summarize_set(runs[(w, s)], metrics))
                 for w, s in sorted(runs)],
    }
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(required=True)
    r = sub.add_parser("run")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("out")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--pairs", type=int, default=10)
    r.set_defaults(func=run)
    s = sub.add_parser("summarize")
    s.add_argument("out")
    s.add_argument("--pr", type=int, required=True)
    s.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    s.set_defaults(func=summarize)
    args = p.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()

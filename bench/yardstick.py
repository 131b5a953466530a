"""A fixed piece of work that measures how fast the machine is right now.

The benchmark shares its host with other jobs, and the same code runs up to
1.8 times slower when the host is busy; such spells last from seconds to
minutes.  So the benchmark times this yardstick between jobs and reports
every time in yardstick-normalized seconds:

    normalized = measured * NOMINAL_S / mean of the yardstick times just
                 before and just after the job

In two sets of ten seeds per workload, the quartile spread of the raw
job-time metrics reached 0.35 of their median and that of the normalized
ones stayed under 0.1; bench/baseline.json and bench/baseline-repeat.json
record the two sets, both ways.  The yardstick runs in the benchmark's own
process, so a change that affects the whole process, such as gc thresholds,
moves it too; the raw wall-clock figures that run.py prints beside the
normalized ones show such a change.

The yardstick does the kind of work a CLI job does (build an argparse parser,
decode JSON, exact Fraction elimination, dict accumulation, encode JSON) with
the standard library and this directory only, so no change to superalg can
change it.  NOMINAL_S is its typical time on the machine the baseline was
recorded on, so normalized seconds read close to wall seconds there.
"""

import argparse
import json
import time
from fractions import Fraction

import corpus

NOMINAL_S = 0.004

_DOC = json.dumps({"rows": [[str(Fraction((3 * i + 5 * j) % 13 - 6, 1 + (i * j) % 4))
                             for j in range(6)] for i in range(6)]})


def work():
    parser = argparse.ArgumentParser(prog="yardstick")
    sub = parser.add_subparsers(dest="command")
    for i in range(6):
        p = sub.add_parser("c%d" % i)
        p.add_argument("path")
        p.add_argument("--k", type=int, default=1)
    parser.parse_args(["c3", "x", "--k", "2"])
    rank = corpus.exact_rank([[Fraction(x) for x in row] for row in json.loads(_DOC)["rows"]])
    acc = {}
    for a in range(20):
        for b in range(20):
            corpus.sf_add(acc, ((a % 7, b % 5), (a + b) % 3), Fraction(a - b, 1 + a % 3))
    return rank, json.dumps(sorted([list(k[0]), k[1], str(v)] for k, v in acc.items()))


def sample():
    """Seconds one run of the yardstick takes now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0

"""Output checks of the benchmark.

A job fails on a non-zero exit, a report that is not JSON, "passed": false,
or a payload that disagrees with the expectation the corpus generator
computed for it without superalg.
"""

import json
from fractions import Fraction


def _ext_terms(elem):
    return sorted([t["ext"], str(Fraction(t["coeff"]))] for t in elem)


def _payload_problem(expect, report):
    for key, want in expect.items():
        if key == "components":
            got = [[c[k] for k in ("a", "b", "c", "dim", "kernel_dim")]
                   for c in report["components"]]
            if not report["printed_delta_vanishes"] or not all(
                    c["theta_scalar"] and c["eigenvalue"] == c["b"] + c["c"]
                    for c in report["components"]):
                return "Delta is not the scalar b + c on every component"
        elif key == "reconstructed_images":
            got = [_ext_terms(e) for e in report[key]]
        elif key == "checks":
            got = len(report["checks"])
        else:
            got = report[key]
        if got != want:
            return "%s is %s, expected %s" % (key, json.dumps(got), json.dumps(want))
    return None


def problem(job, code, out):
    """Why the job's run is wrong, or None when it is right."""
    if code != 0:
        return "exit code %s" % (code,)
    try:
        report = json.loads(out)
    except ValueError:
        return "report is not JSON"
    if report.get("passed") is not True:
        return "report says passed: %s" % (report.get("passed"),)
    try:
        return _payload_problem(job["expect"], report)
    except (KeyError, TypeError) as e:
        return "report lacks %s" % (e,)

"""tools/bench_pairs.py summarize on synthetic run logs: the gain rule and
the no-regression rule (within_bound, unresolved) for each end-to-end
metric of BENCHMARK.json."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {m["name"]: m for m in bench_pairs.benchmark_spec()["end_to_end"]}


def _write_logs(out, workload, values):
    """One log per side and pair; values maps a metric to (parent runs,
    change runs), the other metrics read 1.0 in every run."""
    pairs = len(next(iter(values.values()))[0])
    for pair in range(pairs):
        for i, side in enumerate(bench_pairs.SIDES):
            metrics = {name: {"value": values[name][i][pair] if name in values else 1.0}
                       for name in METRICS}
            result = {"metrics": metrics, "failed": 0, "attempted": 10, "correct": True}
            (out / ("%s-1-%s-%d.log" % (workload, side, pair))).write_text(
                "corpus 20 jobs sha256 abcdef0123456789\n"
                "reports digest 0123456789abcdef\n" + json.dumps(result) + "\n")


def _summary(tmp_path, capsys, values):
    _write_logs(tmp_path, "sderham", values)
    bench_pairs.main(["summarize", str(tmp_path), "--pr", "1"])
    (run,) = json.loads(capsys.readouterr().out)["runs"]
    return run["metrics"]


def test_bounds_are_read_from_the_benchmark(tmp_path, capsys):
    metrics = _summary(tmp_path, capsys, {"jobs_per_s": ([100.0] * 3, [100.0] * 3)})
    assert {name: m["bound"] for name, m in metrics.items()} == \
        {name: m["bound"] for name, m in METRICS.items()}


def test_pass_within_the_bound(tmp_path, capsys):
    metrics = _summary(tmp_path, capsys, {
        "jobs_per_s": ([100.0, 101.0, 99.0], [90.0, 91.0, 89.0]),
        "job_p50_s": ([1.0, 1.01, 0.99], [1.2, 1.21, 1.19]),
        "peak_rss_mb": ([100.0, 100.0, 100.0], [109.0, 109.0, 109.0]),
    })
    for name in METRICS:
        assert metrics[name]["within_bound"], name
        assert not metrics[name]["unresolved"], name
        assert not metrics[name]["gain_rule_met"], name


def test_regression_beyond_the_bound(tmp_path, capsys):
    # -30% jobs/s, +30% median latency, +11% peak RSS: each past its bound
    metrics = _summary(tmp_path, capsys, {
        "jobs_per_s": ([100.0, 101.0, 99.0], [70.0, 71.0, 69.0]),
        "job_p50_s": ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29]),
        "peak_rss_mb": ([100.0, 100.0, 100.0], [111.0, 111.0, 111.0]),
    })
    for name in ("jobs_per_s", "job_p50_s", "peak_rss_mb"):
        assert not metrics[name]["within_bound"], name
        assert not metrics[name]["unresolved"], name
    assert metrics["job_tail_s"]["within_bound"]


def test_unresolved_when_the_parent_spreads_wider_than_the_bound(tmp_path, capsys):
    # parent quartiles 75..125 around 100, wider than 25% of it
    wide = [50.0, 100.0, 150.0]
    metrics = _summary(tmp_path, capsys, {
        "jobs_per_s": (wide, [100.0, 100.0, 100.0]),
        "job_tail_s": (wide, [200.0, 201.0, 202.0]),
        "setup_s": (wide, [40.0, 41.0, 42.0]),
        "job_p50_s": ([1.0, 1.01, 0.99], [0.5, 0.5, 0.5]),
    })
    assert metrics["jobs_per_s"]["unresolved"]
    assert metrics["jobs_per_s"]["within_bound"]
    # a lower-is-better metric whose every change run is worse
    assert metrics["job_tail_s"]["unresolved"]
    assert not metrics["job_tail_s"]["within_bound"]
    # every change run beats every parent run: resolved
    assert not metrics["setup_s"]["unresolved"]
    assert metrics["setup_s"]["within_bound"]
    # a narrow parent spread is never unresolved, and here the gain rule holds
    assert not metrics["job_p50_s"]["unresolved"]
    assert metrics["job_p50_s"]["gain_rule_met"]


# A stand-in for bench/run.py: the digest lines, then a result whose
# end-to-end metrics all read 1.0.
FAKE_RUN = """import json
print("corpus 20 jobs sha256 abcdef0123456789")
print("reports digest 0123456789abcdef")
metrics = {name: {"value": 1.0} for name in %r}
print(json.dumps({"metrics": metrics, "failed": 0, "attempted": 10, "correct": True}))
"""


def _checkout(root, lines):
    """A checkout whose bench/run.py is FAKE_RUN and whose src/superalg
    holds lines lines of Python over two files, next to a file that is not
    counted."""
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(FAKE_RUN % sorted(METRICS))
    src = root / "src" / "superalg"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n" * (lines - 1))
    (src / "b.py").write_text("y = 2\n")
    (src / "notes.txt").write_text("not counted\n")
    return root


def test_run_records_each_checkouts_src_lines(tmp_path, capsys):
    parent, change = _checkout(tmp_path / "parent", 3), _checkout(tmp_path / "change", 5)
    assert bench_pairs.src_lines(parent) == 3 and bench_pairs.src_lines(change) == 5
    out = tmp_path / "out"
    bench_pairs.main(["run", str(parent), str(change), str(out),
                      "--workload", "supermaps", "--pairs", "2"])
    assert len(list(out.glob("supermaps-1-*.log"))) == 4
    bench_pairs.main(["summarize", str(out), "--pr", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["src_lines"] == {"parent": 3, "change": 5}
    (run,) = doc["runs"]
    assert run["pairs"] == 2 and run["change"]["reports_digests"] == ["0123456789ab"]


def test_logs_without_src_lines_summarize_to_none(tmp_path, capsys):
    _write_logs(tmp_path, "sderham", {"jobs_per_s": ([100.0] * 3, [100.0] * 3)})
    bench_pairs.main(["summarize", str(tmp_path), "--pr", "1"])
    assert json.loads(capsys.readouterr().out)["src_lines"] == {"parent": None, "change": None}

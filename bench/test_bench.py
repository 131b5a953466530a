"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import checks
import corpus
import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload, jobs=2):
    """The first jobs of the first round: a corpus that runs in a second."""
    return [corpus.generate(workload, 3)[0][:jobs]]


def run_main(monkeypatch, capsys, workload, trace, rounds):
    monkeypatch.setattr(run, "COLD_STARTS", 2)
    monkeypatch.setattr(run.corpus, "generate", lambda w, s: rounds)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    return out, json.loads(out[-1])


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_the_declared_metrics(monkeypatch, capsys, workload, trace):
    _, result = run_main(monkeypatch, capsys, workload, trace, tiny(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in declared] == \
        [(name, v["unit"]) for name, v in result["metrics"].items()]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(corpus.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == tracing.metric_names()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(workload):
    a = corpus.dump(corpus.generate(workload, 11))
    assert a == corpus.dump(corpus.generate(workload, 11))
    assert a != corpus.dump(corpus.generate(workload, 12))


def test_wrong_expectation_is_counted_as_failed(monkeypatch, capsys):
    rounds = tiny("homology", 3)
    bad = copy.deepcopy(rounds)
    bad[0][1]["expect"]["computed"][0][0] += 1
    out, result = run_main(monkeypatch, capsys, "homology", 0, bad)
    assert result["correct"] is False
    assert result["failed"] >= 1
    share = float(next(line for line in out if "failed_share" in line)
                  .split("failed_share ")[1].split()[0])
    assert share > 0


def test_checks_reject_failed_and_malformed_reports():
    job = tiny("sderham", 1)[0][0]
    assert checks.problem(job, 1, "{}") == "exit code 1"
    assert checks.problem(job, 0, "not json") == "report is not JSON"
    assert "passed" in checks.problem(job, 0, json.dumps({"passed": False}))


def test_traced_run_restores_every_binding(tmp_path):
    sys.path.insert(0, str(run.SRC))
    import superalg.cli  # noqa: F401  (loads every module)
    from superalg import cartan, cli, linalg, sderham
    from superalg.supermaps import PolySuperFunc

    def snapshot():
        out = {}
        for name, mod in sys.modules.items():
            if name.startswith("superalg."):
                for attr, value in vars(mod).items():
                    out[(name, attr)] = value
                    if isinstance(value, type):
                        out.update({((name, attr), k): v for k, v in vars(value).items()})
        return out

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer.patched)
        wrapped = linalg.sparse_rank
        assert wrapped is cartan.sparse_rank is sderham.sparse_rank
        assert cli.super_d is sderham.super_d is not before[("superalg.sderham", "super_d")]
        assert "__mul__" in {name for owner, name, _ in patched if owner is PolySuperFunc}
        ready = run.materialize(tiny("supermaps", 1), tmp_path)
        tally = run.Tally()
        run.run_rounds(cli.main, ready, tally, tracer.run_job)
        assert not tally.failures
    finally:
        tracer.restore()
    for owner, name, original in patched:
        assert getattr(owner, name) is original
    assert snapshot() == before
    values = tracer.summary(1.0, 1.0)
    assert values["supermaps.apply_map.calls"] > 0
    assert 0 < values["trace.coverage"] <= 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "homology",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_work").exists()

"""Self-test of the benchmark: ``python -m pytest bench -q`` from the repo root."""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def hermetic(tmp_path, monkeypatch):
    """The in-process runs get the environment ``run.py`` gives its children."""
    for key, value in run.child_env(tmp_path).items():
        monkeypatch.setenv(key, value)
    return tmp_path


def test_declarations_are_legal():
    declared = run.load_declarations()
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert len(declared["per_layer"]) <= 128
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m


def test_smoke_run_prints_only_declared_metrics(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    declared = run.load_declarations()
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    workloads = [w["name"] for w in declared["workloads"]]
    seen = set()
    for key, metric in final["metrics"].items():
        workload, name = next(
            (w, key[len(w) + 1:]) for w in workloads if key.startswith(w + ".")
        )
        assert units[name] == metric["unit"], key
        assert isinstance(metric["value"], (int, float))
        seen.add(name)
    assert seen == set(units)
    results = json.loads((tmp_path / "results.json").read_text())
    assert set(results["workloads"]) == set(workloads)
    for workload in workloads:
        trace = json.loads((tmp_path / f"{workload}.trace.json").read_text())
        assert trace["traceEvents"], workload


def test_trace_spans_nest_and_originals_come_back(hermetic):
    from repro.core.simulator import Simulator
    from tracing import TARGETS
    from workloads import WORKLOADS, make_jobs, run_rep, set_up

    def resolve(module, path):
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    original_run = Simulator.run
    workload = WORKLOADS["sweep-cold"]
    jobs = make_jobs(workload, seed=0, smoke=True)[:3]
    state = set_up(workload, jobs, hermetic / "setup")
    originals = {(module, path): resolve(module, path) for _, module, path in TARGETS}
    tracer = run_rep(workload, state, jobs, hermetic / "rep", trace=True).tracer

    assert Simulator.run is original_run
    for (module, path), original in originals.items():
        assert resolve(module, path) is original, path
    summary = tracer.summary()
    assert summary["analysis.parallel.run_jobs"]["calls"] == 1
    assert summary["core.kernel.run"]["calls"] == len(jobs)
    for spans in tracer.threads.values():
        for name, start, end, parent in spans:
            assert end >= start, name
            if parent >= 0:
                _, p_start, p_end, _ = spans[parent]
                assert p_start <= start and end <= p_end, name


def test_corrupted_result_fails_the_run(hermetic, monkeypatch, capsys):
    import repro.analysis.parallel as parallel

    genuine = parallel.execute_job

    def corrupted(*args, **kwargs):
        result = genuine(*args, **kwargs)
        return dataclasses.replace(result, cycles=result.cycles + 1)

    # run_jobs looks execute_job up on the module; the output check's
    # direct simulation does not go through it.
    monkeypatch.setattr(parallel, "execute_job", corrupted)
    assert harness.main([
        "--workload", "sweep-warm", "--smoke", "--reps", "1", "--trace", "0",
        "--work-dir", str(hermetic / "work"), "--out-dir", str(hermetic),
    ]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["mismatched"] == result["attempted"] >= 1
    verdict = run.assess(result, "unverified: smoke")
    assert verdict["correct"] is False and verdict["failed"] >= 1


def test_compare_reports_noise_as_unresolved_and_needs_ten_pairs():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    noisy = [80.0, 120.0, 95.0, 105.0, 100.0]
    assert compare.verdict(steady, steady, 0.10, higher=True)["verdict"] == "unchanged"
    assert compare.verdict(steady, noisy, 0.10, higher=True)["verdict"] == "unresolved"
    assert compare.verdict(steady, [x * 0.8 for x in steady], 0.10, True)["verdict"] == "regressed"
    faster = [x * 1.2 for x in steady]
    assert not compare.paired_gain(steady, faster, higher=True)["improved"]
    assert compare.paired_gain(steady * 2, faster * 2, higher=True)["improved"]


def test_compare_takes_a_set_of_single_workload_runs():
    def one_run(workload, reps):
        return {"workloads": {workload: {
            "e2e": {"jobs_per_s": reps},
            "e2e_summary": {"jobs_per_s": run.summarize(reps)},
        }}}

    runs = [one_run("a", [1.0, 3.0, 2.0]), one_run("b", [5.0, 7.0]), one_run("b", [9.0, 11.0])]
    assert compare.samples(runs, "a", "jobs_per_s") == [1.0, 3.0, 2.0]
    assert compare.samples(runs, "b", "jobs_per_s") == [6.0, 10.0]
    assert compare.samples(runs, "c", "jobs_per_s") == []

"""Tests of the campaign benchmark: ``python -m pytest bench -q``.

Kept out of the tier-1 suite (``testpaths = ["tests"]``).  Workloads run
at tiny sizes, passed to :func:`run.run_workload` as an argument, with
``seconds=0`` so each run does only its minimum number of campaigns.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

TINY = {
    "sweep_distinct": {"candidates": 12, "setup_repeats": 1},
    "sweep_shared": {"powers": 1, "widths": 1, "setup_repeats": 1},
    "served_jobs": {"candidates": 4, "setup_repeats": 1},
    "crash_resume": {"states": 2, "candidates": 16, "cut": 12,
                     "setup_repeats": 1},
}

SPEC = run.load_spec()


def _declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_tiny_sizes_cover_every_workload():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run.run_workload(workload, seed=1, seconds=0.0,
                              sizes=TINY[workload])
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: entry["unit"]
             for name, entry in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(workload):
    result = run.run_workload(workload, seed=1, seconds=0.0, trace=True,
                              sizes=TINY[workload])
    assert result["correct"], result
    units = {name: entry["unit"]
             for name, entry in result["metrics"].items()}
    assert units == _declared("per_layer")
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert metrics["trace.coverage"] >= 0.95
    # Every layer's time is measured on every workload.
    assert all(value > 0.0 for name, value in metrics.items()
               if name.endswith("_s")), metrics


def test_corrupted_ranking_makes_the_command_exit_non_zero(monkeypatch,
                                                           capsys):
    honest = workloads.ranking_of
    monkeypatch.setattr(workloads, "ranking_of",
                        lambda report: honest(report)[::-1])
    code = run.main(["--workload", "sweep_shared", "--seed", "1",
                     "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_shared",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("parent, change, better, verdict", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.0, 9.95, 10.1, 10.0, 9.9],
     "higher", "same"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.05],
     "higher", "better"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.05],
     "lower", "worse"),
    ([10.0, 14.0, 7.0, 12.0, 9.0], [10.5, 13.0, 8.0, 11.0, 9.5],
     "lower", "unresolved"),
    ([10.0, 14.0, 7.0, 12.0, 9.0], [1.0, 1.1, 0.9, 1.2, 0.8],
     "lower", "better"),
])
def test_compare_verdicts(parent, change, better, verdict):
    assert run.judge(parent, change, better, 0.1) == verdict


def test_compare_command_judges_every_metric_and_workload(tmp_path,
                                                          capsys):
    runs = [{"workload": workload["name"], "seed": seed, "trace": 0,
             "exit": 0,
             "result": {"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {metric["name"]: {
                            "value": 1.0 + 0.001 * seed,
                            "unit": metric["unit"]}
                            for metric in SPEC["end_to_end"]}}}
            for workload in SPEC["workloads"] for seed in range(5)]
    path = tmp_path / "runs.json"
    path.write_text(json.dumps(runs))
    assert run.main(["compare", str(path), str(path)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert all(row.endswith("same") for row in rows)

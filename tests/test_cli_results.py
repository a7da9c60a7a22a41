"""CLI contract of ``sweep --report-json/--store-dir`` and ``results``."""

import json
import os
import subprocess
import sys

import avipack
from avipack.__main__ import main
from avipack.results import ResultStore, ranking_signature
from avipack.sweep import DesignSpace, SweepRunner
from tests.routes import POOL, report_signature


def run_sweep_cli(tmp_path, *extra):
    args = ["sweep", "--serial", "--sample", "12", "--seed", "3",
            "--top", "4", *extra]
    return main(args)


def expected_report():
    space = DesignSpace.standard_tradeoff()
    return SweepRunner(parallel=False).run(space.sample(12, seed=3))


def test_report_json_is_atomic_machine_readable_and_ranked(tmp_path,
                                                           capsys):
    report_path = tmp_path / "report.json"
    rc = run_sweep_cli(tmp_path, "--report-json", str(report_path))
    capsys.readouterr()
    assert rc in (0, 1)
    payload = json.loads(report_path.read_text())
    baseline = expected_report()
    assert payload["n_candidates"] == baseline.n_candidates
    assert payload["n_compliant"] == baseline.n_compliant
    served = [(entry["fingerprint"], entry["cost_rank"],
               entry["worst_board_c"]) for entry in payload["ranking"]]
    assert served == [(o.fingerprint, o.cost_rank, o.worst_board_c)
                      for o in baseline.top(4)]
    assert [entry["position"] for entry in payload["ranking"]] \
        == list(range(1, len(served) + 1))
    # Atomic publish: no temp residue beside the report.
    residue = [name for name in os.listdir(tmp_path)
               if name.startswith("report.json.tmp")]
    assert residue == []


def test_store_dir_then_results_subcommand(tmp_path, capsys):
    store_dir = tmp_path / "store"
    rc = run_sweep_cli(tmp_path, "--store-dir", str(store_dir))
    capsys.readouterr()
    assert rc in (0, 1)
    store = ResultStore.open(str(store_dir))
    assert store.n_rows == 12
    baseline = expected_report()
    assert ranking_signature(store) == report_signature(baseline)

    rc = main(["results", "--store", str(store_dir), "--top", "3"])
    out = capsys.readouterr().out
    assert rc in (0, 1)
    assert "CAMPAIGN RESULT STORE" in out
    assert "TOP 3 BY COST RANK" in out
    assert "AXIS MARGINALS" in out


def test_results_missing_store_exits_2(tmp_path, capsys):
    rc = main(["results", "--store", str(tmp_path / "absent")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "absent" in err


def test_sweep_mentions_store_in_document(tmp_path, capsys):
    store_dir = tmp_path / "store"
    rc = run_sweep_cli(tmp_path, "--store-dir", str(store_dir))
    out = capsys.readouterr().out
    assert rc in (0, 1)
    assert "result store" in out


def test_closed_pipe_ends_results_without_traceback(tmp_path):
    """``results ... | head -1``: the reader leaves after one line."""
    store_dir = str(tmp_path / "store")
    SweepRunner(parallel=False, result_store=store_dir).run(POOL[:4])
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(avipack.__file__)))
    # 50 000 histogram lines overflow the pipe buffer, so the command is
    # still writing when the reader closes.
    child = subprocess.Popen(
        [sys.executable, "-m", "avipack", "results", "--store", store_dir,
         "--bins", "50000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert child.stdout.readline()
        child.stdout.close()
        stderr = child.stderr.read().decode()
        assert child.wait(timeout=120) == 1
    finally:
        child.kill()
        child.wait()
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr

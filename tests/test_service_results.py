"""The service's ``results`` op: zero-unpickle analytics per job."""

import os

import pytest

from avipack.errors import ServiceError
from avipack.results import ResultStore, ingest_journal, \
    render_store_report
from avipack.service import (
    ServiceClient,
    ServiceConfig,
    ThreadedService,
)
from avipack.service.protocol import ERROR_CODES, validate_request
from tests.routes import SERVICE_AXES as AXES
from tests.routes import service_signature


def make_config(sockets, tmp_path, **overrides):
    defaults = dict(
        socket_path=os.path.join(sockets, "r.sock"),
        journal_dir=str(tmp_path / "jobs"),
        parallel=False,
        heartbeat_s=0.1,
        stall_timeout_s=60.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def test_results_op_serves_store_backed_ranking(sockets, tmp_path):
    config = make_config(sockets, tmp_path)
    with ThreadedService(config):
        client = ServiceClient(config.socket_path)
        job_id = client.submit(axes=AXES)["job_id"]
        final = client.wait(job_id, timeout_s=120.0)
        assert final["state"] == "completed"
        assert final["result_store"] is True
        results = client.results(job_id, k=5)
    assert results["n_rows"] == 12
    assert results["n_live"] == 12
    assert results["n_compliant"] == 8
    assert results["quarantined_shards"] == []
    served = [(entry["fingerprint"], entry["cost_rank"],
               entry["worst_board_c"]) for entry in results["top"]]
    assert served == service_signature()[:5]
    assert [entry["position"] for entry in results["top"]] == [1, 2, 3,
                                                               4, 5]
    histogram = results["headroom_histogram"]
    assert sum(histogram["counts"]) == 8
    assert len(histogram["edges"]) == len(histogram["counts"]) + 1
    # The per-job store lives beside the journal, named after the job.
    assert os.path.isdir(os.path.join(config.journal_dir,
                                      job_id + ".results"))


def test_results_op_labels_match_the_store_report(sockets, tmp_path):
    # Re-ingesting the job's journal in 5-row shards supersedes every
    # row the job wrote, so the top k spans several shards.
    config = make_config(sockets, tmp_path)
    with ThreadedService(config):
        client = ServiceClient(config.socket_path)
        job_id = client.submit(axes=AXES)["job_id"]
        assert client.wait(job_id, timeout_s=120.0)["state"] == "completed"
        directory = os.path.join(config.journal_dir, job_id + ".results")
        ingest_journal(os.path.join(config.journal_dir,
                                    job_id + ".journal.jsonl"),
                       directory, shard_rows=5)
        results = client.results(job_id, k=8)
    store = ResultStore.open(directory)
    assert store.n_shards == 4
    assert results["n_rows"] == 24
    assert results["n_live"] == 12
    report = render_store_report(store, top=8).splitlines()
    start = report.index("  TOP 8 BY COST RANK") + 2
    assert len(results["top"]) == 8
    for entry, line in zip(results["top"], report[start:start + 8]):
        assert line.startswith(
            f"  {entry['position']:>3}. {entry['label']:<44} cost ")
    assert [entry["fingerprint"] for entry in results["top"]] \
        == [fp for fp, _, _ in service_signature()[:8]]


def test_results_op_structured_errors(sockets, tmp_path):
    config = make_config(sockets, tmp_path, throttle_s=0.2)
    with ThreadedService(config):
        client = ServiceClient(config.socket_path)
        with pytest.raises(ServiceError) as unknown:
            client.results("job-nope")
        assert unknown.value.code == "unknown_job"
        # One job runs (slowly); the next waits in the queue, so it has
        # no result store yet and the results op says so.
        running = client.submit(axes=AXES, seed=1)["job_id"]
        queued = client.submit(axes=AXES, sample=6, seed=2)["job_id"]
        status = client.status(queued)
        assert status["state"] == "queued"
        assert status["result_store"] is False
        with pytest.raises(ServiceError) as missing:
            client.results(queued)
        assert missing.value.code == "no_results"
        client.cancel(queued)
        client.cancel(running)
    assert "no_results" in ERROR_CODES


def test_results_request_validation():
    op, _ = validate_request({"op": "results", "job_id": "j1", "k": 3})
    assert op == "results"
    for bad in ({"op": "results"},
                {"op": "results", "job_id": "j1", "k": 0},
                {"op": "results", "job_id": "j1", "k": True},
                {"op": "results", "job_id": "j1", "k": "five"}):
        with pytest.raises(ServiceError):
            validate_request(bad)

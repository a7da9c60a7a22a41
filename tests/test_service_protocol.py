"""Unit coverage of the service's non-asyncio layers.

Protocol encode/decode/validate, submission normalisation and
fingerprinting, admission decisions, the priority queue, per-job event
buffers with replay, and the crash-safe manifest store — everything
the server builds on, tested without a socket in sight.
"""

import json

import pytest

from avipack import perf
from avipack.errors import ServiceError
from avipack.service import (
    AdmissionPolicy,
    Job,
    JobQueue,
    JobStore,
    ProtocolError,
    ServiceStats,
    admit,
    build_candidates,
    normalize_submission,
    submission_fingerprint,
)
from avipack.service.protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    error_response,
    validate_request,
)

AXES = {"power_per_module": [10.0, 20.0], "cooling": ["natural", "forced_air"]}


def make_job(job_id="j000001", tmp_path=None, **overrides):
    submission = normalize_submission({"axes": AXES})
    fields = dict(
        job_id=job_id, client="anonymous", priority=0,
        submission=submission,
        fingerprint=submission_fingerprint(submission),
        journal_path=str(tmp_path / f"{job_id}.journal.jsonl")
        if tmp_path else f"/tmp/{job_id}.journal.jsonl",
        total=submission["n_candidates"])
    fields.update(overrides)
    return Job(**fields)


class TestWire:
    def test_round_trip(self):
        payload = {"op": "submit", "axes": AXES, "seed": 3}
        assert decode_line(encode_line(payload)) == payload

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]\n")

    def test_rejects_damage(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{\"op\": \n")

    def test_rejects_oversize_line(self):
        with pytest.raises(ProtocolError):
            decode_line(b"x" * (MAX_LINE_BYTES + 1))

    def test_error_response_shape(self):
        response = error_response("queue_full", "try later")
        assert response == {"ok": False, "error": {
            "code": "queue_full", "reason": "try later"}}


class TestValidateRequest:
    def test_accepts_known_op(self):
        op, params = validate_request({"op": "ping"})
        assert op == "ping" and params == {"op": "ping"}

    def test_missing_op(self):
        with pytest.raises(ProtocolError):
            validate_request({"axes": AXES})

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            validate_request({"op": "frobnicate"})
        assert excinfo.value.code == "unknown_op"

    @pytest.mark.parametrize("op", ["status", "stream", "cancel"])
    def test_job_ops_require_job_id(self, op):
        with pytest.raises(ProtocolError):
            validate_request({"op": op})

    def test_stream_from_seq_must_be_non_negative(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "stream", "job_id": "j1",
                              "from_seq": -2})


class TestNormalizeSubmission:
    def test_grid_size(self):
        submission = normalize_submission({"axes": AXES})
        assert submission["n_candidates"] == 4
        assert submission["client"] == "anonymous"

    def test_axes_xor_candidates(self):
        with pytest.raises(ProtocolError):
            normalize_submission({})
        with pytest.raises(ProtocolError):
            normalize_submission({
                "axes": AXES,
                "candidates": [{"power_per_module": 10.0}]})

    def test_unknown_axis_field(self):
        with pytest.raises(ProtocolError) as excinfo:
            normalize_submission({"axes": {"warp_factor": [9]}})
        assert excinfo.value.code == "invalid_space"

    def test_empty_axis(self):
        with pytest.raises(ProtocolError):
            normalize_submission({"axes": {"power_per_module": []}})

    def test_non_scalar_axis_value(self):
        with pytest.raises(ProtocolError):
            normalize_submission({"axes": {"power_per_module": [[10.0]]}})

    def test_sample_caps_size(self):
        submission = normalize_submission({"axes": AXES, "sample": 3})
        assert submission["n_candidates"] == 3
        oversampled = normalize_submission({"axes": AXES, "sample": 99})
        assert oversampled["n_candidates"] == 4

    def test_sample_requires_axes(self):
        with pytest.raises(ProtocolError):
            normalize_submission({
                "candidates": [{"power_per_module": 10.0}],
                "sample": 2})

    def test_explicit_candidates(self):
        submission = normalize_submission({"candidates": [
            {"power_per_module": 12.0, "cooling": "forced_air"},
            {"power_per_module": 18.0}]})
        assert submission["n_candidates"] == 2
        candidates = build_candidates(submission)
        assert candidates[0].power_per_module == 12.0
        assert candidates[1].power_per_module == 18.0

    def test_candidate_unknown_field(self):
        with pytest.raises(ProtocolError):
            normalize_submission({"candidates": [{"warp_factor": 9}]})

    def test_deadline_must_be_positive(self):
        with pytest.raises(ProtocolError):
            normalize_submission({"axes": AXES, "deadline_s": -1.0})


class TestFingerprint:
    def test_key_order_invariant(self):
        a = normalize_submission({"axes": {
            "power_per_module": [10.0, 20.0],
            "cooling": ["natural", "forced_air"]}})
        b = normalize_submission({"axes": {
            "cooling": ["natural", "forced_air"],
            "power_per_module": [10.0, 20.0]}})
        assert submission_fingerprint(a) == submission_fingerprint(b)

    def test_ignores_tenancy_fields(self):
        a = normalize_submission({"axes": AXES, "client": "alice",
                                  "priority": 5, "deadline_s": 30.0})
        b = normalize_submission({"axes": AXES, "client": "bob"})
        assert submission_fingerprint(a) == submission_fingerprint(b)

    def test_seed_matters(self):
        a = normalize_submission({"axes": AXES, "sample": 2, "seed": 1})
        b = normalize_submission({"axes": AXES, "sample": 2, "seed": 2})
        assert submission_fingerprint(a) != submission_fingerprint(b)


class TestAdmission:
    POLICY = AdmissionPolicy(max_queued=2, max_jobs_per_client=1,
                             max_candidates_per_job=10)

    def admit(self, **overrides):
        kwargs = dict(n_candidates=4, queued=0, client_active=0,
                      draining=False)
        kwargs.update(overrides)
        return admit(self.POLICY, **kwargs)

    def test_admits_within_bounds(self):
        assert self.admit() is None

    def test_draining_refuses_everything(self):
        rejection = self.admit(draining=True)
        assert rejection.code == "draining"

    def test_job_too_large(self):
        rejection = self.admit(n_candidates=11)
        assert rejection.code == "job_too_large"
        assert "split the space" in rejection.reason

    def test_queue_full(self):
        rejection = self.admit(queued=2)
        assert rejection.code == "queue_full"

    def test_quota_exceeded(self):
        rejection = self.admit(client_active=1)
        assert rejection.code == "quota_exceeded"

    def test_draining_wins_over_other_refusals(self):
        rejection = self.admit(draining=True, n_candidates=11, queued=5)
        assert rejection.code == "draining"


class TestJobQueue:
    def test_priority_then_fifo(self):
        queue = JobQueue()
        queue.push("low", 0, 0)
        queue.push("high", 5, 1)
        queue.push("low2", 0, 2)
        assert [queue.pop(), queue.pop(), queue.pop()] == \
            ["high", "low", "low2"]
        assert queue.pop() is None

    def test_remove_tombstones(self):
        queue = JobQueue()
        queue.push("a", 0, 0)
        queue.push("b", 0, 1)
        queue.remove("a")
        assert len(queue) == 1
        assert queue.pop() == "b"
        assert queue.pop() is None

    def test_remove_of_never_queued_id_changes_nothing(self):
        # A cancel that lands before its submit's push: the id was
        # never queued, so the queue must not count it.
        queue = JobQueue()
        queue.remove("ghost")
        assert len(queue) == 0
        assert not queue
        queue.push("a", 0, 0)
        assert len(queue) == 1
        assert queue.pop() == "a"
        assert len(queue) == 0
        assert queue.pop() is None

    def test_ids_in_pop_order(self):
        queue = JobQueue()
        queue.push("a", 0, 0)
        queue.push("b", 3, 1)
        queue.remove("a")
        assert queue.ids() == ["b"]


class TestEventBuffer:
    def test_sequence_and_replay(self, tmp_path):
        job = make_job(tmp_path=tmp_path)
        for seq in range(5):
            job.append_event({"seq": seq, "event": "progress"},
                             max_events=10)
        assert job.next_seq == 5
        assert [e["seq"] for e in job.events_from(2)] == [2, 3, 4]
        assert job.events_from(5) == []

    def test_bounded_eviction(self, tmp_path):
        job = make_job(tmp_path=tmp_path)
        for seq in range(7):
            job.append_event({"seq": seq, "event": "progress"},
                             max_events=3)
        assert job.event_base_seq == 4
        assert [e["seq"] for e in job.events_from(4)] == [4, 5, 6]

    def test_replay_gap_below_buffer(self, tmp_path):
        job = make_job(tmp_path=tmp_path)
        for seq in range(7):
            job.append_event({"seq": seq, "event": "progress"},
                             max_events=3)
        with pytest.raises(ServiceError) as excinfo:
            job.events_from(1)
        assert excinfo.value.code == "replay_gap"

    def test_replay_gap_beyond_issued(self, tmp_path):
        job = make_job(tmp_path=tmp_path)
        job.append_event({"seq": 0, "event": "queued"}, max_events=10)
        with pytest.raises(ServiceError) as excinfo:
            job.events_from(99)
        assert excinfo.value.code == "replay_gap"


class TestJobStore:
    def test_manifest_round_trip(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = make_job(tmp_path=tmp_path, state="running",
                       submit_order=7, priority=2)
        store.save(job)
        (loaded,) = store.load_all()
        assert loaded.job_id == job.job_id
        assert loaded.state == "running"
        assert loaded.priority == 2
        assert loaded.submit_order == 7
        assert loaded.fingerprint == job.fingerprint
        assert loaded.submission == job.submission

    def test_load_all_sorted_and_tolerant(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.save(make_job("j000002", tmp_path, submit_order=2))
        store.save(make_job("j000001", tmp_path, submit_order=1))
        (tmp_path / "broken.manifest.json").write_text("{torn")
        loaded = store.load_all()
        assert [job.job_id for job in loaded] == ["j000001", "j000002"]

    def test_save_leaves_no_tmp_litter(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.save(make_job(tmp_path=tmp_path))
        leftovers = [name for name in tmp_path.iterdir()
                     if ".tmp." in name.name]
        assert leftovers == []


    def test_job_bytes_sums_files_and_store_directory(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.save(make_job(tmp_path=tmp_path))
        manifest = (tmp_path / "j000001.manifest.json").stat().st_size
        (tmp_path / "j000001.journal.jsonl").write_bytes(b"j" * 100)
        shards = tmp_path / "j000001.results"
        shards.mkdir()
        (shards / "shard-000000.rows").write_bytes(b"r" * 40)
        (tmp_path / "j000002.journal.jsonl").write_bytes(b"n" * 7)
        assert store.job_bytes("j000001") == manifest + 100 + 40

class TestServiceStats:
    def test_reject_counting(self):
        stats = ServiceStats()
        stats.reject("queue_full")
        stats.reject("queue_full")
        stats.reject("draining")
        assert stats.rejected == {"queue_full": 2, "draining": 1}
        assert stats.n_rejected == 3
        assert stats.snapshot()["n_rejected"] == 3

    def test_record_job_perf_lands_in_registry(self):
        perf.reset("service.job")
        ServiceStats().record_job_perf(12, 3.5)
        record = perf.stats("service.job")
        assert record.solves == 1
        assert record.iterations == 12
        assert record.wall_s == pytest.approx(3.5)

    def test_to_lines_covers_snapshot(self):
        stats = ServiceStats()
        lines = stats.to_lines()
        assert len(lines) == len(stats.snapshot())
        assert any("submitted" in line for line in lines)


def test_json_wire_format_is_plain():
    # The wire format must stay language-agnostic: plain JSON, no
    # framing beyond the newline.
    line = encode_line({"op": "ping"})
    assert line.endswith(b"\n")
    assert json.loads(line) == {"op": "ping"}

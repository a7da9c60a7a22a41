"""Columnar result store: shards, checksums, quarantine."""

import dataclasses
import hashlib
import json
import os
import tracemalloc
import zlib

import numpy as np
import pytest

from avipack import perf
from avipack.durability import replay_journal
from avipack.errors import InputError, ResultStoreError
from avipack.results import (
    DTYPE_FINGERPRINT,
    ResultStore,
    ResultStoreWriter,
)
from avipack.fingerprint import stable_fingerprint
from avipack.results.schema import (
    ROW_DTYPE,
    SHARD_DTYPE,
)
from avipack.results.store import publish_shard
from avipack.sweep.runner import CandidateFailure, CandidateResult, \
    SweepRunner
from avipack.sweep.space import Candidate, DesignSpace


def make_result(index, *, power=20.0, modules=4, compliant=True,
                cost_rank=1.0, worst_board_c=70.0, degraded=False,
                candidate=None):
    candidate = candidate or Candidate(power_per_module=power,
                                       n_modules=modules)
    return CandidateResult(
        index=index, candidate=candidate,
        fingerprint=candidate.fingerprint, compliant=compliant,
        violations=() if compliant else ("thermal",),
        margins={"fundamental_hz": 120.0, "fatigue_margin": 1.4,
                 "deflection_margin": 2.0, "mtbf_hours": 9.0e4},
        worst_board_c=worst_board_c,
        recommended_cooling=candidate.cooling,
        declared_cooling_feasible=True, cost_rank=cost_rank,
        elapsed_s=0.01, worker_pid=os.getpid(),
        cache_hits=2, cache_misses=1, degraded=degraded)


def make_failure(index, *, power=33.0, error_type="ConvergenceError",
                 candidate=None):
    candidate = candidate or Candidate(power_per_module=power, n_modules=3)
    return CandidateFailure(
        index=index, candidate=candidate,
        fingerprint=candidate.fingerprint, stage="level3",
        error_type=error_type, message="injected", elapsed_s=0.02,
        worker_pid=os.getpid())


def outcomes_mixed(n=50):
    outcomes = []
    for i in range(n):
        if i % 7 == 3:
            outcomes.append(make_failure(i, power=30.0 + i))
        else:
            outcomes.append(make_result(
                i, power=10.0 + i, compliant=(i % 3 != 0),
                cost_rank=float(i % 4),
                worst_board_c=50.0 + (i * 7919 % 30)))
    return outcomes


def test_round_trip_preserves_every_column(tmp_path):
    directory = str(tmp_path / "store")
    outcomes = outcomes_mixed(20)
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes)
    store = ResultStore.open(directory)
    assert store.n_rows == 20
    assert store.n_shards == 3  # 8 + 8 + 4
    for row_id, outcome in enumerate(outcomes):
        row = store.row(row_id)
        assert row["index"] == outcome.index
        assert row["fingerprint"].decode("ascii") == outcome.fingerprint
        assert bool(row["compliant"]) == outcome.compliant
        if isinstance(outcome, CandidateResult):
            assert row["cost_rank"] == outcome.cost_rank
            assert row["worst_board_c"] == outcome.worst_board_c
            # Bit-identical to the dataclass property, by construction.
            assert row["thermal_headroom_c"] == outcome.thermal_headroom_c
            assert row["fatigue_margin"] == outcome.margins["fatigue_margin"]
        else:
            assert np.isnan(row["cost_rank"])
            assert row["error_type"].decode() == outcome.error_type
        assert row["power_per_module"] == outcome.candidate.power_per_module
        assert row["n_modules"] == outcome.candidate.n_modules


def test_open_shard_buffer_grows_with_the_rows(tmp_path):
    directory = str(tmp_path / "store")
    outcomes = [make_result(i, power=10.0 + i) for i in range(600)]
    with ResultStoreWriter(directory) as writer:
        writer.add(outcomes[0])
        # A small campaign never holds a full 64k-row shard buffer.
        assert len(writer._rows) < writer.shard_rows
        writer.add_many(outcomes[1:])
    store = ResultStore.open(directory)
    assert store.n_shards == 1
    assert store.n_rows == 600
    for row_id in (0, 255, 256, 511, 512, 599):
        row = store.row(row_id)
        assert row["index"] == row_id
        assert row["fingerprint"].decode("ascii") == \
            outcomes[row_id].fingerprint


def test_counters_track_rows_and_shards(tmp_path):
    directory = str(tmp_path / "store")
    perf.reset()
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes_mixed(20))
    ResultStore.open(directory)
    assert perf.counters("results.") == {
        "results.rows_ingested": 20,
        "results.shards_written": 3,
    }
    perf.reset("results.shards_written")
    assert perf.counter("results.shards_written") == 0
    assert perf.counter("results.rows_ingested") == 20


def test_corrupt_rows_shard_is_quarantined_not_fatal(tmp_path):
    directory = str(tmp_path / "store")
    perf.reset()
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes_mixed(20))
    victim = os.path.join(directory, "shard-000001.rows")
    blob = bytearray(open(victim, "rb").read())
    blob[-30] ^= 0xFF  # flip a payload byte; header checksums now lie
    with open(victim, "wb") as stream:
        stream.write(blob)
    store = ResultStore.open(directory)
    assert store.n_shards == 2
    assert store.n_rows == 12
    assert "shard-000001.rows" in store.quarantined
    assert os.path.exists(victim + ".quarantine")
    assert not os.path.exists(victim)
    assert perf.counter("results.shards_quarantined") == 1
    # Surviving shards still serve their rows.
    assert store.row(0)["index"] == 0
    assert store.row(8)["index"] == 16


def read_reason_sidecar(path):
    import json
    return json.loads(open(path + ".quarantine.reason").read())


def test_checksum_damage_is_classified_in_the_sidecar(tmp_path):
    directory = str(tmp_path / "store")
    perf.reset()
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes_mixed(20))
    victim = os.path.join(directory, "shard-000001.rows")
    payload = bytearray(open(victim, "rb").read())
    payload[-30] ^= 0xFF  # payload byte flip: header checksums now lie
    with open(victim, "wb") as stream:
        stream.write(payload)
    store = ResultStore.open(directory)
    assert store.quarantine_reasons["shard-000001.rows"] == "checksum"
    sidecar = read_reason_sidecar(victim)
    assert sidecar["reason"] == "checksum"
    assert sidecar["file"] == "shard-000001.rows"
    assert "mismatch" in sidecar["detail"]
    assert perf.counter("results.quarantined_checksum") == 1
    assert perf.counter("results.quarantined_header") == 0
    assert perf.counter("results.quarantined_truncation") == 0


def test_truncation_damage_is_classified_in_the_sidecar(tmp_path):
    directory = str(tmp_path / "store")
    perf.reset()
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes_mixed(20))
    victim = os.path.join(directory, "shard-000000.rows")
    payload = open(victim, "rb").read()
    with open(victim, "wb") as stream:
        stream.write(payload[:-40])  # torn tail: payload shorter than header
    store = ResultStore.open(directory)
    assert store.quarantine_reasons["shard-000000.rows"] == "truncation"
    assert read_reason_sidecar(victim)["reason"] == "truncation"
    assert perf.counter("results.quarantined_truncation") == 1


def test_header_damage_is_classified_in_the_sidecar(tmp_path):
    directory = str(tmp_path / "store")
    perf.reset()
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes_mixed(20))
    victim = os.path.join(directory, "shard-000001.rows")
    payload = open(victim, "rb").read()
    _, _, body = payload.partition(b"\n")
    with open(victim, "wb") as stream:
        stream.write(b"not a json header\n" + body)
    store = ResultStore.open(directory)
    assert store.quarantine_reasons["shard-000001.rows"] == "header"
    assert read_reason_sidecar(victim)["reason"] == "header"
    assert perf.counter("results.quarantined_header") == 1


def reseal(path, payload):
    """Replace a shard's payload, recomputing its size and both
    checksums so that verification passes."""
    line = open(path, "rb").readline()
    header = json.loads(line)
    checked = json.dumps(header["strings"], sort_keys=True,
                         separators=(",", ":")).encode("ascii")
    header.update(
        nbytes=len(payload),
        crc32=f"{zlib.crc32(payload, zlib.crc32(checked)):08x}",
        sha256=hashlib.sha256(checked + payload).hexdigest())
    with open(path, "wb") as stream:
        stream.write(json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode("ascii"))
        stream.write(b"\n" + payload)


#: Faulty schema-3 payloads, each built from a shard's columns (``plain``)
#: and the zlib stream its writer published (``stream``).
PAYLOAD_FAULTS = {
    "short": lambda plain, stream: zlib.compress(plain[:-1]),
    "long": lambda plain, stream: zlib.compress(plain + bytes(148)),
    "trailing": lambda plain, stream: stream + b"xyz",
    "truncated": lambda plain, stream: stream[:-4],
    "not_zlib": lambda plain, stream: plain,
}


@pytest.mark.parametrize("fault", sorted(PAYLOAD_FAULTS))
def test_payload_that_does_not_inflate_to_its_rows_is_quarantined(
        tmp_path, fault):
    directory = str(tmp_path / "store")
    perf.reset()
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes_mixed(20))
    victim = os.path.join(directory, "shard-000001.rows")
    stream = open(victim, "rb").read().partition(b"\n")[2]
    reseal(victim, PAYLOAD_FAULTS[fault](zlib.decompress(stream), stream))
    store = ResultStore.open(directory)
    assert store.quarantine_reasons == {"shard-000001.rows": "payload"}
    sidecar = read_reason_sidecar(victim)
    assert sidecar["reason"] == "payload"
    assert "payload" in sidecar["detail"]
    assert perf.counter("results.quarantined_payload") == 1
    assert perf.counter("results.quarantined_checksum") == 0
    # The other shards still serve their rows.
    assert store.column("index").tolist() == list(range(8)) \
        + list(range(16, 20))


def test_inflating_a_payload_stops_one_byte_past_its_rows(tmp_path):
    # A 64 MB run of zeros deflates to ~64 kB; the reader must refuse
    # it without ever holding it inflated.
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory) as writer:
        writer.add(make_result(0))
    victim = os.path.join(directory, "shard-000000.rows")
    deflater = zlib.compressobj()
    bomb = b"".join(deflater.compress(bytes(1 << 20)) for _ in range(64))
    reseal(victim, bomb + deflater.flush())
    tracemalloc.start()
    try:
        store = ResultStore.open(directory)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.quarantine_reasons == {"shard-000000.rows": "payload"}
    assert peak < 4 << 20


@pytest.mark.parametrize("rows", [7, 9, 2 ** 62])
def test_row_count_the_payload_does_not_hold_is_quarantined(tmp_path,
                                                            rows):
    # The checksums do not cover the header's row count; the payload's
    # inflated size does.
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes_mixed(20))
    victim = os.path.join(directory, "shard-000001.rows")
    line, _, payload = open(victim, "rb").read().partition(b"\n")
    with open(victim, "wb") as stream:
        stream.write(line.replace(b'"rows":8', b'"rows":%d' % rows)
                     + b"\n" + payload)
    store = ResultStore.open(directory)
    assert store.quarantine_reasons == {"shard-000001.rows": "payload"}
    assert store.n_rows == 12


def test_schema3_shard_is_at_most_40pct_of_schema2_rows(tmp_path):
    outcomes = SweepRunner(parallel=False).run(
        list(DesignSpace.standard_tradeoff().grid())).outcomes
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory) as writer:
        writer.add_many(outcomes)
    path = os.path.join(directory, "shard-000000.rows")
    header = json.loads(open(path, "rb").readline())
    assert header["rows"] == len(outcomes) == 72
    # Measured about 22% of the uncompressed packed rows.
    assert header["nbytes"] <= 0.40 * len(outcomes) * SHARD_DTYPE.itemsize


def test_writer_lock_refuses_second_writer(tmp_path):
    directory = str(tmp_path / "store")
    writer = ResultStoreWriter(directory)
    try:
        with pytest.raises(ResultStoreError):
            ResultStoreWriter(directory)
    finally:
        writer.close()
    # Released lock admits the next writer (and shard numbering
    # continues past existing shards).
    writer.add = None  # guard: closed writer must not be reused
    second = ResultStoreWriter(directory)
    second.close()


def test_append_continues_shard_numbering(tmp_path):
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory, shard_rows=4) as writer:
        writer.add_many(outcomes_mixed(6))
    with ResultStoreWriter(directory, shard_rows=4) as writer:
        writer.add_many(outcomes_mixed(5))
    store = ResultStore.open(directory)
    assert store.n_rows == 11
    assert store.n_shards == 4  # 4+2 then 4+1
    names = sorted(name for name in os.listdir(directory)
                   if name.endswith(".rows"))
    assert names == [f"shard-{i:06d}.rows" for i in range(4)]


def test_live_mask_keeps_latest_row_per_fingerprint(tmp_path):
    directory = str(tmp_path / "store")
    first = make_result(0, power=20.0, worst_board_c=70.0)
    second = make_result(1, power=25.0, worst_board_c=65.0)
    corrected = make_result(0, power=20.0, worst_board_c=60.0)
    assert first.fingerprint == corrected.fingerprint
    with ResultStoreWriter(directory) as writer:
        writer.add_many([first, second, corrected])
    store = ResultStore.open(directory)
    mask = store.live_mask()
    assert mask.tolist() == [False, True, True]
    live_worst = store.column("worst_board_c")[mask]
    assert 60.0 in live_worst and 70.0 not in live_worst


def test_closed_writer_rejects_adds(tmp_path):
    writer = ResultStoreWriter(str(tmp_path / "store"))
    writer.close()
    with pytest.raises(InputError):
        writer.add(make_result(0))
    writer.close()  # idempotent


def test_open_missing_directory_raises(tmp_path):
    with pytest.raises(ResultStoreError):
        ResultStore.open(str(tmp_path / "absent"))
    assert ResultStore.live_fingerprints(str(tmp_path / "absent")) == {}


def test_dtype_fingerprint_guards_schema_drift(tmp_path):
    # The header stamps the dtype; a reader with a different layout
    # must refuse the shard rather than reinterpret bytes.  The logical
    # row and the packed row of schemas 2 and 3 are pinned; every shard
    # is written at schema 3, which compresses it.
    assert stable_fingerprint(ROW_DTYPE.descr) \
        == "892cd31872de820993cd1f9f52ee75801a5ee682"
    assert SHARD_DTYPE.itemsize == 148
    assert DTYPE_FINGERPRINT == "ebb9088503d9ca56c1a02e7087cbb89d9e2b5304"
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory) as writer:
        writer.add(make_result(0))
    path = os.path.join(directory, "shard-000000.rows")
    line, _, payload = open(path, "rb").read().partition(b"\n")
    header = json.loads(line)
    assert header["schema"] == 3
    assert header["dtype"] == DTYPE_FINGERPRINT
    assert header["nbytes"] == len(payload) < SHARD_DTYPE.itemsize


@pytest.mark.parametrize("fingerprint", [
    "f", "0" * 39, "0" * 41, "A" * 40, "g" * 40, " " + "0" * 39,
    "0x" + "0" * 38])
def test_writer_refuses_a_fingerprint_it_cannot_store_exactly(
        tmp_path, fingerprint):
    directory = str(tmp_path / "store")
    good = make_result(1, power=25.0)
    with ResultStoreWriter(directory) as writer:
        with pytest.raises(InputError):
            writer.add(dataclasses.replace(make_result(0),
                                           fingerprint=fingerprint))
        assert writer.rows_added == 0
        writer.add(good)
    store = ResultStore.open(directory)
    assert store.n_rows == 1
    assert store.column("fingerprint").tolist() \
        == [good.fingerprint.encode("ascii")]


def test_writer_refuses_a_pid_its_packed_column_would_wrap(tmp_path):
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory) as writer:
        with pytest.raises(InputError):
            writer.add(dataclasses.replace(make_result(0),
                                           worker_pid=2 ** 31))
        writer.add(dataclasses.replace(make_result(1), worker_pid=-1))
    assert ResultStore.open(directory).column("worker_pid").tolist() == [-1]


def test_campaign_refuses_an_unstorable_outcome_before_journalling_it(
        tmp_path):
    # The store's refusal comes before the journal append, so the
    # journal never holds an outcome the store did not take.
    def evaluator(task):
        return dataclasses.replace(
            make_result(task.index, candidate=task.candidate),
            worker_pid=2 ** 31 if task.index == 1 else os.getpid())

    candidates = [Candidate(power_per_module=power)
                  for power in (10.0, 20.0, 30.0)]
    journal = str(tmp_path / "sweep.jsonl")
    directory = str(tmp_path / "store")
    with pytest.raises(InputError):
        SweepRunner(parallel=False, evaluator=evaluator,
                    result_store=directory).run(candidates,
                                                journal_path=journal)
    first = {candidates[0].fingerprint: 0}
    assert {fp: outcome.index for fp, outcome
            in replay_journal(journal).outcomes.items()} == first
    assert ResultStore.live_fingerprints(directory) == first


@pytest.mark.parametrize("field, value", [
    ("n_modules", -1), ("n_modules", 70_000), ("n_components", -3),
    ("n_components", 70_000)])
def test_a_broken_count_is_stored_exactly(tmp_path, field, value):
    # Such candidates fail at build; their failure rows must still be
    # recorded, so the count columns hold any logical value.
    directory = str(tmp_path / "store")
    failure = make_failure(0, candidate=Candidate(**{field: value}))
    with ResultStoreWriter(directory) as writer:
        writer.add(failure)
    store = ResultStore.open(directory)
    assert store.column(field).tolist() == [value]
    assert store.column("label").tolist() \
        == [failure.candidate.label.encode()]


@pytest.mark.parametrize("field, value", [
    ("fingerprint", b""), ("fingerprint", b"F" * 40),
    ("worker_pid", 2 ** 40)])
def test_publish_refuses_rows_it_cannot_pack_exactly(tmp_path, field,
                                                     value):
    rows = np.zeros(2, dtype=ROW_DTYPE)
    rows["fingerprint"] = b"0" * 40
    rows[field][1] = value
    with pytest.raises(InputError):
        publish_shard(str(tmp_path), 0, rows)
    assert os.listdir(tmp_path) == []


def test_live_mask_compares_whole_fingerprints_past_shared_bytes(
        tmp_path):
    # Dedup keys on the leading 8 raw bytes; rows sharing them but not
    # the rest of the fingerprint are distinct candidates.
    directory = str(tmp_path / "store")
    first = dataclasses.replace(make_result(0),
                                fingerprint="ab" * 8 + "0" * 24)
    second = dataclasses.replace(make_result(1),
                                 fingerprint="ab" * 8 + "1" * 24)
    with ResultStoreWriter(directory, shard_rows=1) as writer:
        writer.add_many([first, second])
    store = ResultStore.open(directory)
    assert store.live_mask().tolist() == [True, True]
    assert ResultStore.live_fingerprints(directory) \
        == {first.fingerprint: 0, second.fingerprint: 1}


def test_string_tables_sit_in_the_checksummed_header(tmp_path):
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory) as writer:
        writer.add_many(outcomes_mixed(10))
    path = os.path.join(directory, "shard-000000.rows")
    data = open(path, "rb").read()
    header = json.loads(data.partition(b"\n")[0])
    assert header["strings"]["error_type"] == ["", "ConvergenceError"]
    assert header["strings"]["cooling"] == ["direct_air_flow"]
    # A flipped letter in a table still parses; the checksum refuses it.
    with open(path, "wb") as stream:
        stream.write(data.replace(b"direct_air_flow", b"direct_air_flox"))
    store = ResultStore.open(directory)
    assert store.quarantine_reasons == {"shard-000000.rows": "checksum"}


def test_rebuilt_labels_equal_candidate_labels(tmp_path):
    candidates = list(DesignSpace.standard_tradeoff().grid())
    outcomes = [make_result(i, candidate=c)
                for i, c in enumerate(candidates)]
    outcomes.append(make_failure(len(outcomes), candidate=Candidate(
        power_per_module=12.5, n_modules=0, cooling="no_such_cooling",
        tim_name="no_such_tim", series_fraction=0.125)))
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory, shard_rows=16) as writer:
        writer.add_many(outcomes)
    store = ResultStore.open(directory)
    expected = [o.candidate.label.encode("utf-8") for o in outcomes]
    assert store.column("label").tolist() == expected
    ids = np.arange(len(outcomes))[::-7]
    assert store.gather("label", ids).tolist() \
        == [expected[i] for i in ids]


def test_more_distinct_strings_than_a_code_indexes_split_the_shard(
        tmp_path):
    directory = str(tmp_path / "store")
    outcomes = [make_failure(i, candidate=Candidate(tim_name=f"tim-{i}"))
                for i in range(300)]
    perf.reset()
    with ResultStoreWriter(directory) as writer:
        writer.add_many(outcomes)
    assert writer.shards_sealed == 2
    assert perf.counter("results.shards_written") == 2
    store = ResultStore.open(directory)
    assert store.n_shards == 2
    assert store.column("index").tolist() == list(range(300))
    assert store.column("tim_name").tolist() \
        == [f"tim-{i}".encode() for i in range(300)]


def test_gather_matches_column_fancy_indexing(tmp_path):
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes_mixed(20))
    store = ResultStore.open(directory)
    # Ids crossing shard boundaries, out of order, with repeats.
    ids = np.array([19, 0, 8, 7, 8, 15])
    for name in ("label", "fingerprint", "cost_rank", "compliant"):
        assert store.gather(name, ids).tolist() \
            == store.column(name)[ids].tolist()
    assert store.gather("index", []).tolist() == []
    with pytest.raises(InputError):
        store.gather("not_a_column", ids)
    with pytest.raises(InputError):
        store.gather("index", [20])


def test_byte_string_columns_are_not_cached(tmp_path):
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes_mixed(20))
    store = ResultStore.open(directory)
    # Numeric sort keys are cached; wide string columns are rebuilt per
    # call so large-campaign reports never pin them.
    assert store.column("cost_rank") is store.column("cost_rank")
    assert store.column("label") is not store.column("label")
    assert store.column("label").tolist() == store.column("label").tolist()

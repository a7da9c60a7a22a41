"""Columnar result store: shards, checksums, quarantine, lazy blobs."""

import os
import pickle
import zlib

import numpy as np
import pytest

from avipack import perf
from avipack.errors import InputError, ResultStoreError
from avipack.results import (
    DTYPE_FINGERPRINT,
    ROW_DTYPE,
    ResultStore,
    ResultStoreWriter,
)
from avipack.sweep.runner import CandidateFailure, CandidateResult
from avipack.sweep.space import Candidate


def make_result(index, *, power=20.0, modules=4, compliant=True,
                cost_rank=1.0, worst_board_c=70.0, degraded=False):
    candidate = Candidate(power_per_module=power, n_modules=modules)
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


def make_failure(index, *, power=33.0, error_type="ConvergenceError"):
    candidate = Candidate(power_per_module=power, n_modules=3)
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
        assert store.fetch_outcome(row_id) == outcomes[row_id]


def test_counters_track_rows_shards_and_fetches(tmp_path):
    directory = str(tmp_path / "store")
    perf.reset()
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes_mixed(20))
    assert perf.counter("results.rows_ingested") == 20
    assert perf.counter("results.shards_written") == 3
    store = ResultStore.open(directory)
    store.fetch_outcome(0)
    store.fetch_outcome(11)
    assert perf.counter("results.blob_fetches") == 2
    assert perf.counters("results.") == {
        "results.blob_fetches": 2,
        "results.rows_ingested": 20,
        "results.shards_written": 3,
    }
    perf.reset("results.blob_fetches")
    assert perf.counter("results.blob_fetches") == 0
    assert perf.counter("results.rows_ingested") == 20


def test_lazy_fetch_returns_the_exact_outcome(tmp_path):
    directory = str(tmp_path / "store")
    outcomes = outcomes_mixed(10)
    with ResultStoreWriter(directory, shard_rows=64) as writer:
        writer.add_many(outcomes)
    store = ResultStore.open(directory)
    for row_id in (0, 3, 9):
        assert store.fetch_outcome(row_id) == outcomes[row_id]
    with pytest.raises(InputError):
        store.fetch_outcome(10)


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
    # The paired blob pool is quarantined with its rows.
    assert not os.path.exists(
        os.path.join(directory, "shard-000001.blobs"))
    assert perf.counter("results.shards_quarantined") == 1
    # Surviving shards still serve rows and blobs.
    assert store.fetch_outcome(0).index == 0


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
    # The companion blob pool carries no sidecar of its own: the rows
    # sidecar tells the story.
    assert not os.path.exists(os.path.join(
        directory, "shard-000001.blobs.quarantine.reason"))
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


def test_blobs_only_damage_keeps_rows_queryable(tmp_path):
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory, shard_rows=8) as writer:
        writer.add_many(outcomes_mixed(20))
    victim = os.path.join(directory, "shard-000000.blobs")
    payload = bytearray(open(victim, "rb").read())
    payload[-5] ^= 0xFF
    with open(victim, "wb") as stream:
        stream.write(payload)
    store = ResultStore.open(directory)
    # Columns survive in full; only lazy fetches from shard 0 raise.
    assert store.n_rows == 20
    assert "shard-000000.blobs" in store.quarantined
    assert store.row(0)["index"] == 0
    with pytest.raises(ResultStoreError):
        store.fetch_outcome(0)
    assert store.fetch_outcome(8).index == 8  # other shards unaffected


def test_blob_checksum_mismatch_raises_on_fetch(tmp_path):
    directory = str(tmp_path / "store")
    outcome = make_result(0)
    with ResultStoreWriter(directory) as writer:
        writer.add(outcome)
    store = ResultStore.open(directory)
    record = store.row(0)
    # The stored CRC describes the pickled outcome; tamper with the row
    # CRC path by checking the real one first.
    blob = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
    assert int(record["blob_crc32"]) == (zlib.crc32(blob) & 0xFFFFFFFF)
    assert store.fetch_outcome(0) == outcome


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
    assert ResultStore.live_fingerprints(str(tmp_path / "absent")) == set()


def test_dtype_fingerprint_guards_schema_drift(tmp_path):
    # The header stamps the dtype; a reader with a different layout
    # must refuse the shard rather than reinterpret bytes.
    assert len(DTYPE_FINGERPRINT) == 40
    assert ROW_DTYPE.itemsize == ROW_DTYPE.itemsize  # packed, stable
    directory = str(tmp_path / "store")
    with ResultStoreWriter(directory) as writer:
        writer.add(make_result(0))
    path = os.path.join(directory, "shard-000000.rows")
    header = open(path, "rb").readline()
    assert DTYPE_FINGERPRINT.encode("ascii") in header


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

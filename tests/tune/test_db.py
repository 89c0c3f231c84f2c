"""Tests for the persistent tuning database (round trips, atomicity, counters)."""

import dataclasses
import json
import multiprocessing
import sys
import threading

import pytest

from repro.errors import TuningError
from repro.tune import (
    TUNER_VERSION,
    Candidate,
    TuningDatabase,
    TuningRecord,
    Workload,
)


@pytest.fixture
def workload():
    return Workload(kind="ntt", bits=256, size=4096)


def make_record(workload, device="rtx4090", candidate=None):
    return TuningRecord(
        fingerprint=workload.fingerprint(),
        workload_key=workload.key,
        device=device,
        tuner_version=TUNER_VERSION,
        candidate=candidate or Candidate(multiplication="karatsuba", batch=256),
        score_seconds=1.0e-5,
        baseline_seconds=1.5e-5,
        strategy="exhaustive",
        evaluations=72,
        space_size=72,
        created_at=1700000000.0,
    )


class TestRecord:
    def test_json_round_trip(self, workload):
        record = make_record(workload)
        assert TuningRecord.from_json(record.to_json()) == record

    def test_key_includes_device_and_version(self, workload):
        record = make_record(workload)
        assert record.key() == f"{workload.fingerprint()}::rtx4090::v{TUNER_VERSION}"

    def test_corrupt_payload_rejected(self):
        with pytest.raises(TuningError, match="corrupt"):
            TuningRecord.from_json({"candidate": {"multiplication": "schoolbook"}})

    @pytest.mark.parametrize(
        "patch",
        [
            {"candidate": {"multiplication": "fft"}},
            {"candidate": {"word_bits": 48}},
            {"candidate": {"stage_span": 0}},
            {"candidate": {"batch": -1}},
            {"score_seconds": 0.0},
            {"score_seconds": "fast"},
            {"evaluations": -3},
        ],
    )
    def test_semantically_corrupt_records_rejected_at_load(self, workload, patch):
        # A hand-edited database must fail with TuningError at load time, not
        # later as a KernelError inside the frontends serving the "winner".
        payload = make_record(workload).to_json()
        for key, value in patch.items():
            if key == "candidate":
                payload["candidate"].update(value)
            else:
                payload[key] = value
        with pytest.raises(TuningError, match="corrupt"):
            TuningRecord.from_json(payload)


class TestDatabase:
    def test_in_memory_store_and_lookup(self, workload):
        db = TuningDatabase()
        assert db.lookup(workload, "rtx4090") is None
        db.store(make_record(workload))
        found = db.lookup(workload, "rtx4090")
        assert found is not None and found.candidate.multiplication == "karatsuba"
        stats = db.stats()
        assert (stats.hits, stats.misses, stats.stores, stats.records) == (1, 1, 1, 1)

    def test_lookup_is_device_scoped(self, workload):
        db = TuningDatabase()
        db.store(make_record(workload, device="rtx4090"))
        assert db.lookup(workload, "h100") is None
        assert db.lookup(workload, "rtx4090") is not None

    def test_lookup_is_workload_scoped(self, workload):
        db = TuningDatabase()
        db.store(make_record(workload))
        other = Workload(kind="ntt", bits=384, size=4096)
        assert db.lookup(other, "rtx4090") is None

    def test_persistence_round_trip(self, tmp_path, workload):
        path = tmp_path / "tuning.json"
        db = TuningDatabase(path)
        db.store(make_record(workload))
        assert path.exists()

        warm = TuningDatabase(path)
        assert len(warm) == 1
        found = warm.lookup(workload, "rtx4090")
        assert found == make_record(workload)

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path, workload):
        path = tmp_path / "tuning.json"
        db = TuningDatabase(path)
        db.store(make_record(workload))
        # The lock sidecar is meant to stay; no temporary file may.
        leftovers = [
            p for p in tmp_path.iterdir() if p.name not in ("tuning.json", "tuning.json.lock")
        ]
        assert leftovers == []
        # The file is valid JSON with the schema header.
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["tuner_version"] == TUNER_VERSION

    def test_store_without_save_keeps_file_unchanged(self, tmp_path, workload):
        path = tmp_path / "tuning.json"
        db = TuningDatabase(path)
        db.store(make_record(workload), save=False)
        assert not path.exists()
        db.save()
        assert path.exists()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(TuningError, match="cannot read"):
            TuningDatabase(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema": 99, "records": {}}))
        with pytest.raises(TuningError, match="schema"):
            TuningDatabase(path)

    def test_missing_records_section_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema": 1}))
        with pytest.raises(TuningError, match="records"):
            TuningDatabase(path)

    def test_creates_parent_directories(self, tmp_path, workload):
        path = tmp_path / "nested" / "dir" / "tuning.json"
        db = TuningDatabase(path)
        db.store(make_record(workload))
        assert path.exists()


class TestConcurrentSaves:
    def test_barrier_synchronized_saves_keep_every_record(self, tmp_path):
        # Instances over one file save at the same instant, trial after
        # trial: no save may raise, lose another writer's record, or leave
        # a file that does not parse.
        records = [
            make_record(Workload(kind="ntt", bits=bits, size=16)) for bits in (64, 128, 192, 256)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(40):
                path = tmp_path / f"trial{trial}.json"
                barrier = threading.Barrier(len(records))
                errors = []

                def writer(record):
                    db = TuningDatabase(path)
                    db.store(record, save=False)
                    barrier.wait(timeout=10)
                    try:
                        db.save()
                    except Exception as error:  # noqa: BLE001 - the failure mode
                        errors.append(error)

                threads = [threading.Thread(target=writer, args=(record,)) for record in records]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert len(TuningDatabase(path)) == len(records), f"trial {trial}"
        finally:
            sys.setswitchinterval(previous)


class TestMergeOnSave:
    """Two instances over one file: the merge rules every save applies."""

    @pytest.mark.parametrize("last", ["older", "newer"])
    def test_newer_record_wins_whichever_saves_last(self, tmp_path, workload, last):
        path = tmp_path / "tuning.json"
        record = make_record(workload)
        versions = {
            "older": dataclasses.replace(record, created_at=100.0, strategy="random"),
            "newer": dataclasses.replace(record, created_at=200.0, strategy="hillclimb"),
        }
        writers = {name: TuningDatabase(path) for name in versions}
        for name, version in versions.items():
            writers[name].store(version, save=False)
        first = "newer" if last == "older" else "older"
        writers[first].save()
        writers[last].save()
        assert TuningDatabase(path).lookup(workload, "rtx4090").strategy == "hillclimb"

    def test_strictly_newer_retune_beats_an_older_tombstone(self, tmp_path, workload):
        path = tmp_path / "tuning.json"
        tuner = TuningDatabase(path)
        record = tuner.store(make_record(workload))
        dropper = TuningDatabase(path)
        dropper.remove(record.key())  # the tombstone is stamped now
        retune = dataclasses.replace(
            record, created_at=TuningDatabase.timestamp() + 1.0, strategy="hillclimb"
        )
        tuner.store(retune)
        dropper.save()  # the dropper's older tombstone must not win either
        assert TuningDatabase(path).lookup(workload, "rtx4090") == retune

    @pytest.mark.parametrize("last", ["holder", "dropper"])
    def test_tombstone_beats_an_older_record_whichever_saves_last(
        self, tmp_path, workload, last
    ):
        path = tmp_path / "tuning.json"
        holder = TuningDatabase(path)
        record = holder.store(make_record(workload))
        dropper = TuningDatabase(path)
        dropper.remove(record.key(), save=False)  # stamped now, after created_at
        writers = {"holder": holder, "dropper": dropper}
        first = "dropper" if last == "holder" else "holder"
        writers[first].save()
        writers[last].save()  # the holder still has the record in memory
        assert record.key() not in json.loads(path.read_text())["records"]
        assert TuningDatabase(path).lookup(workload, "rtx4090") is None

    def test_tombstone_beats_a_record_created_at_its_stamp(
        self, tmp_path, workload, monkeypatch
    ):
        # "At or before": a record no newer than the tombstone stays dropped.
        path = tmp_path / "tuning.json"
        monkeypatch.setattr(TuningDatabase, "timestamp", staticmethod(lambda: 500.0))
        tuner = TuningDatabase(path)
        record = tuner.store(dataclasses.replace(make_record(workload), created_at=100.0))
        TuningDatabase(path).remove(record.key())
        tuner.store(dataclasses.replace(record, created_at=500.0))
        assert record.key() not in json.loads(path.read_text())["records"]
        assert TuningDatabase(path).lookup(workload, "rtx4090") is None


class TestLookupSeesOtherWriters:
    """A lookup miss merges the file in, so it sees other writers' saves."""

    def test_a_miss_finds_a_winner_saved_after_this_instance_started(
        self, tmp_path, workload
    ):
        path = tmp_path / "tuning.json"
        reader, writer = TuningDatabase(path), TuningDatabase(path)
        assert reader.lookup(workload, "rtx4090") is None
        record = writer.store(make_record(workload))
        assert reader.lookup(workload, "rtx4090") == record
        assert (reader.stats().hits, reader.stats().misses) == (1, 1)

    def test_a_tenant_miss_finds_a_shared_winner_saved_by_another_instance(
        self, tmp_path, workload
    ):
        path = tmp_path / "tuning.json"
        reader = TuningDatabase(path)
        assert reader.lookup(workload, "rtx4090", tenant="acme") is None
        record = TuningDatabase(path).store(make_record(workload))
        assert reader.lookup(workload, "rtx4090", tenant="acme") == record

    def test_a_miss_does_not_resurrect_an_unsaved_removal(self, tmp_path, workload):
        path = tmp_path / "tuning.json"
        database = TuningDatabase(path)
        record = database.store(make_record(workload))
        assert database.remove(record.key(), save=False)
        assert database.lookup(workload, "rtx4090") is None
        assert record.key() not in database

    def test_a_corrupt_file_is_ignored(self, tmp_path, workload):
        path = tmp_path / "tuning.json"
        reader = TuningDatabase(path)
        path.write_text("{torn json")
        for _ in range(2):
            assert reader.lookup(workload, "rtx4090") is None


def _store_many(path, writer, saves, start) -> None:
    """Store ``saves`` distinct records into ``path``, one instance per save."""
    start.wait(timeout=60)
    record = make_record(Workload(kind="ntt", bits=64, size=16))
    for index in range(saves):
        TuningDatabase(path).store(
            dataclasses.replace(record, fingerprint=f"writer{writer}-save{index}")
        )


class TestCrossProcessSaves:
    def test_spawned_writers_keep_every_record(self, tmp_path):
        # Local shards are separate processes saving into one file, so the
        # file lock must hold between processes, not only between threads.
        writers, saves = 4, 40
        path = tmp_path / "tuning.json"
        context = multiprocessing.get_context("spawn")
        start = context.Event()
        processes = [
            context.Process(target=_store_many, args=(path, writer, saves, start))
            for writer in range(writers)
        ]
        for process in processes:
            process.start()
        start.set()
        for process in processes:
            process.join(timeout=120)
        assert not any(process.is_alive() for process in processes)
        assert [process.exitcode for process in processes] == [0] * writers
        assert len(TuningDatabase(path)) == writers * saves

"""Live invalidation: stale records are dropped in one save and re-tuned."""

import dataclasses

from repro.serve import KernelServer, ServeRequest, find_stale, invalidate_stale
from repro.tune import TUNER_VERSION, TuningDatabase

BITS = 128
SIZE = 16

REQUEST = ServeRequest(kind="ntt", bits=BITS, size=SIZE)


def _stale_version_db(path):
    """A database whose only record was tuned under an older tuner version."""
    with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
        server.serve(REQUEST)
    db = TuningDatabase(path)
    [(key, record)] = db.records().items()
    db.remove(key)
    db.store(dataclasses.replace(record, tuner_version=0))
    return TuningDatabase(path)


class TestFindStale:
    def test_fresh_records_are_live(self, tmp_path):
        path = tmp_path / "db.json"
        with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
            server.serve(REQUEST)
            assert find_stale(server.db) == ()

    def test_version_and_fingerprint_staleness_detected(self, tmp_path):
        path = tmp_path / "db.json"
        db = _stale_version_db(path)
        [record] = db.records().values()
        db.store(dataclasses.replace(record, tuner_version=TUNER_VERSION, fingerprint="0" * 16))
        stale = find_stale(db)
        assert {entry.reason for entry in stale} == {"version", "fingerprint"}


class TestInvalidateStale:
    def test_tuner_version_bump_drops_and_retunes(self, tmp_path):
        """Acceptance: a version bump drops the record and re-tunes the family."""
        db = _stale_version_db(tmp_path / "db.json")
        with KernelServer(db=db, devices=("rtx4090",)) as server:
            searches_before = server.metrics_snapshot().batched_tunes
            report = invalidate_stale(server, refresh=True)

            assert report.stale_version == 1
            assert report.dropped_records == 1
            assert report.refreshed == (REQUEST.workload().key,)
            # The stale record is gone; the re-tune wrote a current-version one.
            keys = set(server.db.records())
            assert not any(key.endswith("::v0") for key in keys)
            assert any(key.endswith(f"::v{TUNER_VERSION}") for key in keys)
            # The refresh genuinely searched (no warm record to lean on).
            assert server.metrics_snapshot().batched_tunes == searches_before + 1
            # Traffic after the refresh is answered warm.
            assert server.serve(REQUEST).warm

    def test_dropping_a_served_familys_stale_record_changes_no_served_result(
        self, tmp_path
    ):
        path = tmp_path / "db.json"
        with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
            result = server.serve(REQUEST)
            # Plant a bogus-fingerprint record for the same (workload,
            # device): no lookup can hit it, so nothing served came from it.
            [(key, record)] = server.db.records().items()
            server.db.store(dataclasses.replace(record, fingerprint="0" * 16))

            report = invalidate_stale(server)

            assert report.stale_fingerprint == 1
            assert report.dropped_records == 1
            assert list(server.db.records()) == [key]
            fresh = server.serve(REQUEST)
            assert fresh.warm
            assert fresh.artifact is result.artifact

    def test_dropped_records_stay_dropped_on_disk(self, tmp_path):
        path = tmp_path / "db.json"
        db = _stale_version_db(path)
        with KernelServer(db=db, devices=("rtx4090",)) as server:
            invalidate_stale(server)
        # Merge-on-save must not resurrect the tombstoned record from disk.
        db.save()
        assert not any(
            key.endswith("::v0") for key in TuningDatabase(path).records()
        )

    def test_refresh_skips_other_devices(self, tmp_path):
        path = tmp_path / "db.json"
        with KernelServer(db=TuningDatabase(path), devices=("h100",)) as server:
            server.serve(dataclasses.replace(REQUEST, device="h100"))
        db = TuningDatabase(path)
        [(key, record)] = db.records().items()
        db.remove(key)
        db.store(dataclasses.replace(record, tuner_version=0))

        with KernelServer(db=db, devices=("rtx4090",)) as server:
            report = invalidate_stale(server, refresh=True)
            assert report.dropped_records == 1
            assert report.refreshed == ()


class TestNonDefaultModulus:
    """A record tuned with a non-default ``modulus_bits`` stays live."""

    MODULUS_REQUEST = ServeRequest(kind="ntt", bits=BITS, size=SIZE, modulus_bits=100)

    def test_the_workload_key_names_the_modulus(self):
        assert self.MODULUS_REQUEST.workload().key == "ntt/cooley_tukey/n16/128b/m100"
        # The paper's bits - 4 leaves the key as it always was.
        explicit = dataclasses.replace(REQUEST, modulus_bits=BITS - 4)
        assert explicit.workload().key == REQUEST.workload().key
        assert explicit.workload().fingerprint() == REQUEST.workload().fingerprint()

    def test_record_survives_invalidate_and_warms_from_the_database(self, tmp_path):
        path = tmp_path / "db.json"
        with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
            server.serve(self.MODULUS_REQUEST)
            assert find_stale(server.db) == ()
            report = server.invalidate()
            assert (len(report.stale), report.dropped_records) == (0, 0)
            assert server.serve(self.MODULUS_REQUEST).warm
        [record] = TuningDatabase(path).records().values()
        assert record.workload_key.endswith("/m100")
        with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
            warmup = server.warm()
            assert (warmup.warmed, warmup.stale) == (1, 0)
            assert warmup.entries[0].detail == "tuned from database"
            served = server.serve(self.MODULUS_REQUEST)
            assert served.warm
            assert served.from_database
            assert served.config.effective_modulus_bits == 100

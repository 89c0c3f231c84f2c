"""Warmup: recorded winners are compiled before traffic arrives."""

import dataclasses

import pytest

from repro.errors import ServingError
from repro.serve import KernelServer, ServeRequest, request_from_record, warm_server
from repro.tune import TuningDatabase

BITS = 128
SIZE = 16


def _populate(db_path, requests):
    """Tune the given families once, persisting winners to ``db_path``."""
    with KernelServer(db=TuningDatabase(db_path), devices=("rtx4090",)) as server:
        for request in requests:
            server.serve(request)


class TestWarmServer:
    def test_first_request_after_warmup_is_warm(self, tmp_path):
        """Acceptance: warmup populates the cache; request one is a hit."""
        path = tmp_path / "db.json"
        request = ServeRequest(kind="ntt", bits=BITS, size=SIZE)
        _populate(path, [request])

        with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
            report = warm_server(server)
            assert report.warmed == 1
            assert report.stale == 0
            assert report.errors == 0

            compilations_before = server.session.stats().compilations
            db_before = server.db.stats()
            result = server.serve(request)
            assert result.warm
            assert result.from_database  # tuned by lookup during warmup
            assert server.session.stats().compilations == compilations_before
            db_after = server.db.stats()
            assert (db_after.hits, db_after.misses) == (db_before.hits, db_before.misses)

    def test_warmup_covers_blas_and_ntt(self, tmp_path):
        path = tmp_path / "db.json"
        requests = [
            ServeRequest(kind="ntt", bits=BITS, size=SIZE),
            ServeRequest(kind="blas", bits=BITS, operation="vadd"),
        ]
        _populate(path, requests)

        with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
            report = server.warm()
            assert report.warmed == 2
            assert server.resident_count == 2
            assert all(server.serve(request).warm for request in requests)

    def test_the_default_modulus_named_explicitly_is_warm(self, tmp_path):
        # modulus_bits=None and bits - 4 name one kernel: warm-up rebuilds
        # the record with None, and the explicit request must hit it.
        path = tmp_path / "db.json"
        request = ServeRequest(kind="ntt", bits=BITS, size=SIZE, modulus_bits=BITS - 4)
        _populate(path, [request])

        with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
            assert server.warm().warmed == 1
            assert server.serve(request).warm
            assert server.resident_count == 1

    def test_other_device_records_are_skipped(self, tmp_path):
        path = tmp_path / "db.json"
        _populate(path, [ServeRequest(kind="ntt", bits=BITS, size=SIZE, device="h100")])

        with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
            report = warm_server(server)
            assert report.warmed == 0
            assert report.skipped_other_device == 1
            assert server.resident_count == 0

    def test_stale_version_records_are_reported_not_served(self, tmp_path):
        path = tmp_path / "db.json"
        _populate(path, [ServeRequest(kind="ntt", bits=BITS, size=SIZE)])
        db = TuningDatabase(path)
        [(key, record)] = db.records().items()
        db.remove(key)
        db.store(dataclasses.replace(record, tuner_version=0))

        with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
            report = warm_server(server)
            assert report.warmed == 0
            assert report.stale == 1
            assert [entry.status for entry in report.entries] == ["stale-version"]

    def test_stale_fingerprint_records_are_reported_not_served(self, tmp_path):
        path = tmp_path / "db.json"
        _populate(path, [ServeRequest(kind="ntt", bits=BITS, size=SIZE)])
        db = TuningDatabase(path)
        [(key, record)] = db.records().items()
        db.remove(key)
        db.store(dataclasses.replace(record, fingerprint="0" * 16))

        with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
            report = warm_server(server)
            assert report.warmed == 0
            assert report.stale == 1
            assert [entry.status for entry in report.entries] == ["stale-fingerprint"]


class TestRecordParsing:
    def test_round_trip_ntt_and_blas(self, tmp_path):
        path = tmp_path / "db.json"
        requests = [
            ServeRequest(kind="ntt", bits=BITS, size=SIZE),
            ServeRequest(kind="blas", bits=BITS, operation="axpy", elements=4096),
        ]
        _populate(path, requests)
        records = TuningDatabase(path).records()
        rebuilt = {
            request_from_record(record).workload().key for record in records.values()
        }
        assert rebuilt == {request.workload().key for request in requests}

    def test_unparsable_workload_key_raises(self, tmp_path):
        path = tmp_path / "db.json"
        _populate(path, [ServeRequest(kind="ntt", bits=BITS, size=SIZE)])
        [record] = TuningDatabase(path).records().values()
        broken = dataclasses.replace(record, workload_key="fft/strange/x1")
        with pytest.raises(ServingError):
            request_from_record(broken)


class TestBadRecords:
    @pytest.mark.parametrize(
        "workload_key", ["ntt/bogus/n16/128b", "ntt/cooley_tukey/n16/128b/m200"]
    )
    def test_a_key_naming_no_workload_is_one_bad_record(self, tmp_path, workload_key):
        # A hand-edited key the tuner refuses (an unknown operation, a
        # modulus without headroom) is reported, and both passes go on.
        path = tmp_path / "db.json"
        request = ServeRequest(kind="ntt", bits=BITS, size=SIZE)
        _populate(path, [request])
        db = TuningDatabase(path)
        [good] = db.records().values()
        db.store(dataclasses.replace(good, workload_key=workload_key, fingerprint="0" * 16))

        with KernelServer(db=TuningDatabase(path), devices=("rtx4090",)) as server:
            warmup = server.warm()
            statuses = {entry.workload_key: entry.status for entry in warmup.entries}
            assert statuses == {good.workload_key: "warmed", workload_key: "error"}
            report = server.invalidate(refresh=True)
            stale = [(entry.record.workload_key, entry.reason) for entry in report.stale]
            assert stale == [(workload_key, "unparsable")]
            assert (report.dropped_records, report.refreshed) == (1, ())
            assert server.serve(request).warm
        kept = [record.workload_key for record in TuningDatabase(path).records().values()]
        assert kept == [good.workload_key]

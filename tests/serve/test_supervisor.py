"""ShardSupervisor end to end: real shard processes behind the router.

The acceptance property of the sharded tier lives here: requests for many
kernel families are served across two real shard processes, repeats are
answered warm *by the owning shard*, every local shard reads and saves one
tuning-database file, warm-up and refresh run once per record across the
cluster, and stats aggregate across the wire.  These tests spawn OS
processes and are the slowest in the suite — one module-scoped cluster
serves all the read-mostly tests.
"""

import dataclasses
import os
import signal
import time

import pytest

import repro.serve.supervisor as supervisor_module
from repro.errors import ReproError, ServingError, TuningError
from repro.serve import (
    ClusterStats,
    KernelServer,
    ServedNTT,
    ServeRequest,
    ShardSupervisor,
)
from repro.serve import protocol
from repro.tenancy import DEFAULT_TENANT, TenantConfig
from repro.tune import TUNER_VERSION, TuningDatabase

SIZE = 16

#: Enough distinct kernel families that consistent hashing all but surely
#: spreads them over two shards (the hash is deterministic, so if the IR —
#: and with it the fingerprints — ever changes and this lands lopsided,
#: widen the mix).
FAMILY_MIX = [
    ServeRequest(kind="ntt", bits=64, size=SIZE),
    ServeRequest(kind="ntt", bits=128, size=SIZE),
    ServeRequest(kind="ntt", bits=128, size=SIZE, operation="gentleman_sande"),
    ServeRequest(kind="ntt", bits=256, size=SIZE),
    ServeRequest(kind="blas", bits=64, operation="vadd"),
    ServeRequest(kind="blas", bits=128, operation="vmul"),
    ServeRequest(kind="blas", bits=128, operation="vsub"),
    ServeRequest(kind="blas", bits=256, operation="axpy"),
]


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    db = tmp_path_factory.mktemp("shard-dbs") / "tuning.json"
    supervisor = ShardSupervisor(shards=2, db=db, devices=("rtx4090",), workers=2)
    results = [supervisor.serve(request) for request in FAMILY_MIX]
    yield supervisor, results, db
    supervisor.close()


class TestRoutedServing:
    def test_all_families_served(self, cluster):
        supervisor, results, _ = cluster
        assert len(results) == len(FAMILY_MIX)
        for request, result in zip(FAMILY_MIX, results):
            assert result.request == request
            assert result.artifact is not None
            assert result.tuning is not None

    def test_traffic_crossed_both_shards(self, cluster):
        supervisor, _, _ = cluster
        routed = supervisor.routed_counts()
        assert sum(routed.values()) >= len(FAMILY_MIX)
        assert set(routed) == {0, 1}, f"all traffic landed on {set(routed)}"

    def test_repeat_requests_are_warm(self, cluster):
        supervisor, _, _ = cluster
        for request in FAMILY_MIX[:3]:
            assert supervisor.serve(request).warm

    def test_routing_is_sticky(self, cluster):
        # The same family must keep hitting the same shard (that is what
        # makes its resident table worth anything).
        supervisor, _, _ = cluster
        shard = supervisor.router.route(FAMILY_MIX[0])
        for _ in range(3):
            assert supervisor.router.route(FAMILY_MIX[0]) == shard

    def test_pickled_artifacts_are_executable(self, cluster):
        supervisor, results, _ = cluster
        artifact = results[0].artifact
        limbs = tuple(range(len(artifact.kernel.params)))
        assert isinstance(artifact.call_limbs(*limbs), tuple)

    def test_local_links_are_handshaken_sockets_with_pickled_trust(self, cluster):
        supervisor, _, _ = cluster
        for handle in supervisor._handles.values():
            assert isinstance(handle.connection, protocol.StreamConnection)
            assert handle.trusted is True
            assert handle.address is None and handle.process.is_alive()


class TestAggregatedStats:
    def test_totals_are_sums_of_shards(self, cluster):
        supervisor, _, _ = cluster
        stats = supervisor.stats()
        assert isinstance(stats, ClusterStats)
        assert len(stats.shards) == 2
        for field in ("requests", "warm_serves", "cold_serves", "resident_kernels"):
            per_shard = sum(getattr(shard, field) for shard in stats.shards)
            assert getattr(stats, field) == per_shard
        assert stats.requests >= len(FAMILY_MIX)
        assert stats.cold_serves >= len(FAMILY_MIX)

    def test_merged_percentiles_are_populated(self, cluster):
        supervisor, _, _ = cluster
        stats = supervisor.stats()
        assert stats.p95_latency_ms >= stats.p50_latency_ms > 0.0
        assert "cluster" in stats.report()

    def test_ping_reaches_every_shard(self, cluster):
        supervisor, _, _ = cluster
        pongs = supervisor.ping()
        assert set(pongs) == {0, 1}
        assert pongs[0].pid != pongs[1].pid  # real separate processes


class TestErrorRelay:
    def test_shard_side_failure_raises_repro_error_here(self, cluster):
        supervisor, _, _ = cluster
        bad = ServeRequest(kind="ntt", bits=128, size=SIZE, target="no-such-target")
        with pytest.raises(ReproError):
            supervisor.serve(bad)

    def test_invalid_request_fails_before_the_wire(self, cluster):
        supervisor, _, _ = cluster
        with pytest.raises(ReproError):
            supervisor.serve(ServeRequest(kind="ntt", bits=128, size=3))

    def test_unserved_device_is_refused_by_name(self, cluster):
        supervisor, _, _ = cluster
        routed = supervisor.routed_counts()
        with pytest.raises(ServingError, match="'h100'"):
            supervisor.submit(ServeRequest(kind="ntt", bits=128, size=SIZE, device="h100"))
        assert supervisor.routed_counts() == routed


class TestClientHook:
    def test_served_ntt_round_trips_through_the_cluster(self, cluster):
        supervisor, _, _ = cluster
        ntt = ServedNTT(supervisor, size=SIZE, bits=128)
        values = list(range(SIZE))
        assert ntt.inverse(ntt.forward(values)) == values


class TestLifecycle:
    def test_restart_after_shard_death(self):
        with ShardSupervisor(shards=2, devices=("rtx4090",), workers=2) as supervisor:
            request = ServeRequest(kind="ntt", bits=128, size=SIZE)
            supervisor.serve(request)
            victim = supervisor.router.route(request)
            handle = supervisor._handles[victim]
            handle.process.kill()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not (
                handle.restarts >= 1 and handle.alive()
            ):
                time.sleep(0.05)
            assert handle.restarts >= 1
            assert handle.alive()
            # The family is served again — cold (the respawned shard's
            # resident table is empty) or by a ring successor, but served.
            result = supervisor.serve(request)
            assert result.request == request

    def test_submit_after_close_rejected(self):
        supervisor = ShardSupervisor(shards=1, devices=("rtx4090",), workers=1)
        supervisor.close()
        with pytest.raises(ServingError, match="closed"):
            supervisor.submit(ServeRequest(kind="ntt", bits=128, size=SIZE))

    def test_validation(self):
        with pytest.raises(ServingError, match="shard count"):
            ShardSupervisor(shards=0)
        with pytest.raises(ServingError, match="device"):
            ShardSupervisor(shards=1, devices=())


class TestRobustness:
    def test_cancelled_future_does_not_wedge_the_reader(self):
        # A client cancelling its future must not kill the reader thread
        # when the shard's reply arrives (regression: InvalidStateError).
        with ShardSupervisor(shards=1, devices=("rtx4090",), workers=2) as supervisor:
            request = ServeRequest(kind="ntt", bits=128, size=SIZE)
            supervisor.submit(request).cancel()
            result = supervisor.submit(request).result(timeout=120)
            assert result.request == request

    def test_probe_of_a_dead_shard_raises_serving_error(self):
        # Probes must fail inside the ReproError hierarchy (the CLI's catch)
        # and clean up their pending entry — never a raw TimeoutError.
        supervisor = ShardSupervisor(shards=1, devices=("rtx4090",), workers=1)
        try:
            handle = supervisor._handles[0]
            handle.process.kill()
            with pytest.raises(ServingError):
                supervisor._probe(handle, protocol.StatsCall, timeout=2.0)
            assert not handle.pending
        finally:
            supervisor.close()

    def test_native_target_refused_and_the_shard_keeps_serving(self):
        with ShardSupervisor(shards=1, devices=("rtx4090",), workers=1) as supervisor:
            request = ServeRequest(kind="blas", bits=128, operation="vadd", tune=False)
            with pytest.raises(ServingError, match="native"):
                supervisor.submit(dataclasses.replace(request, target="native"))
            assert supervisor.routed_counts() == {}
            assert supervisor.serve(request).request == request
            assert set(supervisor.ping()) == {0}

    def test_spawned_shard_never_unpickles_what_it_receives(self, tmp_path):
        # The spawned shard's link has pickled trust, which governs only
        # what the shard sends: a pickled artifact sent *to* it is refused
        # unopened, and the uncorrelated error reply makes the supervisor
        # restore the shard.
        from tests.serve.test_tcp_transport import pickled_result_frame

        marker = tmp_path / "unpickled"
        with ShardSupervisor(shards=1, devices=("rtx4090",), workers=1) as supervisor:
            handle = supervisor._handles[0]
            handle.enqueue(pickled_result_frame(marker))
            deadline = time.monotonic() + 30.0
            # A restored shard has its link before it re-joins the ring.
            while time.monotonic() < deadline and not (
                handle.restarts >= 1 and handle.alive() and 0 in supervisor.router.shard_ids
            ):
                time.sleep(0.05)
            assert handle.restarts >= 1 and 0 in supervisor.router.shard_ids
            request = ServeRequest(kind="ntt", bits=128, size=SIZE)
            assert supervisor.serve(request).request == request
        assert not marker.exists()


def _tune_into(db_path, requests):
    """Tune each request's family once in one process, saving to ``db_path``."""
    with KernelServer(db=TuningDatabase(db_path), devices=("rtx4090",), workers=2) as server:
        for request in requests:
            server.serve(request)


class TestSharedDatabase:
    def test_winner_in_the_file_is_served_without_a_search(self, tmp_path):
        db = tmp_path / "tuning.json"
        _tune_into(db, FAMILY_MIX[:1])
        with ShardSupervisor(shards=2, db=db, devices=("rtx4090",), workers=2) as supervisor:
            result = supervisor.serve(FAMILY_MIX[0])
        assert not result.warm
        assert result.from_database
        assert result.tuning.evaluations == 0

    def test_shards_save_every_winner_into_the_one_file(self, tmp_path):
        db = tmp_path / "tuning.json"
        supervisor = ShardSupervisor(shards=2, db=db, devices=("rtx4090",), workers=2)
        try:
            for request in FAMILY_MIX:
                supervisor.serve(request)
            assert set(supervisor.routed_counts()) == {0, 1}
        finally:
            supervisor.close()
        saved = {record.workload_key for record in TuningDatabase(db).records().values()}
        assert saved == {request.workload().key for request in FAMILY_MIX}
        # The file and its lock are all there is: no per-shard files.
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "tuning.json",
            "tuning.json.lock",
        ]

    def test_ring_successor_serves_a_winner_saved_after_it_started(self, tmp_path):
        db = tmp_path / "tuning.json"
        request = ServeRequest(kind="ntt", bits=128, size=SIZE)
        with ShardSupervisor(
            shards=2, db=db, devices=("rtx4090",), workers=2, restart=False
        ) as supervisor:
            assert not supervisor.serve(request).from_database  # tuned by its owner
            assert len(TuningDatabase(db)) == 1  # saved before the reply
            owner = supervisor.router.route(request)
            supervisor._handles[owner].process.kill()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and owner in supervisor.router.shard_ids:
                time.sleep(0.05)
            assert owner not in supervisor.router.shard_ids
            result = supervisor.serve(request)
        assert not result.warm
        assert result.from_database
        assert result.tuning.evaluations == 0

    def test_unreadable_file_fails_before_any_shard_starts(self, tmp_path, monkeypatch):
        db = tmp_path / "tuning.json"
        db.write_text("{torn json")
        monkeypatch.setattr(
            ShardSupervisor, "_spawn", lambda *args: pytest.fail("a shard was spawned")
        )
        with pytest.raises(TuningError, match="cannot read"):
            ShardSupervisor(shards=2, db=db, devices=("rtx4090",))

    def test_warmup_compiles_each_record_once_across_the_cluster(self, tmp_path):
        db = tmp_path / "tuning.json"
        requests = FAMILY_MIX[:4]
        _tune_into(db, requests)
        # An in-flight cap of one would refuse all but one of the warm-up's
        # concurrent serves, were they admitted like traffic.
        quota = TenantConfig(tenant=DEFAULT_TENANT, max_in_flight=1)
        with ShardSupervisor(
            shards=2, db=db, devices=("rtx4090",), workers=2, tenants=(quota,)
        ) as supervisor:
            report = supervisor.warmup()
            assert (report.warmed, report.errors) == (len(requests), 0)
            assert supervisor.tenants.rejected(DEFAULT_TENANT) == 0
            assert supervisor.stats().cold_serves == len(requests)
            assert all(supervisor.serve(request).warm for request in requests)

    def test_refresh_retunes_each_stale_family_once_across_the_cluster(self, tmp_path):
        db = tmp_path / "tuning.json"
        requests = FAMILY_MIX[:3]
        _tune_into(db, requests)
        aged = TuningDatabase(db)
        for key, record in aged.records().items():
            aged.remove(key, save=False)
            aged.store(dataclasses.replace(record, tuner_version=0), save=False)
        aged.save()
        with ShardSupervisor(shards=2, db=db, devices=("rtx4090",), workers=2) as supervisor:
            report = supervisor.invalidate(refresh=True)
            stats = supervisor.stats()
        assert len(report.stale) == report.stale_version == len(requests)
        assert report.dropped_records == len(requests)
        assert sorted(report.refreshed) == sorted(
            request.workload().key for request in requests
        )
        assert (stats.batched_tunes, stats.cold_serves) == (len(requests), len(requests))
        # The refreshes' tunes saved from shards that loaded the stale
        # records at startup; the tombstones kept those copies out.
        keys = TuningDatabase(db).records()
        assert len(keys) == len(requests)
        assert all(key.endswith(f"::v{TUNER_VERSION}") for key in keys)

    def test_warmup_of_a_warm_cluster_compiles_nothing(self, cluster):
        # Every record in the module cluster's file was tuned by the shard
        # that owns its family, so warm-up routes each one back there warm.
        supervisor, _, db = cluster
        before = supervisor.stats()
        report = supervisor.warmup()
        after = supervisor.stats()
        assert report.warmed == len(TuningDatabase(db)) >= len(FAMILY_MIX)
        assert report.errors == 0
        assert after.cold_serves == before.cold_serves
        assert after.warm_serves == before.warm_serves + report.warmed

    def test_refresh_with_nothing_stale_retunes_nothing(self, cluster):
        supervisor, _, db = cluster
        records = TuningDatabase(db).records()
        before = supervisor.stats()
        report = supervisor.invalidate(refresh=True)
        assert report.checked == len(records)
        assert (report.stale, report.dropped_records, report.refreshed) == ((), 0, ())
        after = supervisor.stats()
        assert after.batched_tunes == before.batched_tunes
        assert after.requests == before.requests
        assert TuningDatabase(db).records() == records

    def test_invalidation_keeps_every_warm_result_warm(self, cluster):
        supervisor, _, db = cluster
        records = TuningDatabase(db).records()
        stale = dataclasses.replace(next(iter(records.values())), tuner_version=0)
        TuningDatabase(db).store(stale)
        report = supervisor.invalidate()
        assert [entry.db_key for entry in report.stale] == [stale.key()]
        assert report.dropped_records == 1
        assert TuningDatabase(db).records() == records
        assert all(supervisor.serve(request).warm for request in FAMILY_MIX)

    def test_tenant_scoped_warmup_warms_only_that_namespace(self, tmp_path):
        db = tmp_path / "tuning.json"
        with KernelServer(db=TuningDatabase(db), devices=("rtx4090",), workers=2) as server:
            server.serve(FAMILY_MIX[0], tenant="acme")
            server.serve(FAMILY_MIX[1])
        with ShardSupervisor(shards=2, db=db, devices=("rtx4090",), workers=2) as supervisor:
            report = supervisor.warmup(tenant="acme")
            assert (report.warmed, report.skipped_other_tenant) == (1, 1)
            assert supervisor.stats().cold_serves == 1
            assert supervisor.serve(FAMILY_MIX[0], tenant="acme").warm
            assert not supervisor.serve(FAMILY_MIX[1]).warm

    def test_without_a_file_warmup_and_refresh_find_no_records(self):
        with ShardSupervisor(shards=1, devices=("rtx4090",), workers=1) as supervisor:
            report = supervisor.warmup()
            invalidation = supervisor.invalidate(refresh=True)
            stats = supervisor.stats()
        assert report.entries == ()
        assert (invalidation.checked, invalidation.refreshed) == (0, ())
        assert (stats.requests, stats.batched_tunes) == (0, 0)


class TestDevices:
    def test_every_shard_serves_every_device(self):
        devices = ("rtx4090", "h100")
        with ShardSupervisor(shards=2, devices=devices, workers=2) as supervisor:
            # One family per (owning shard, device) pair.
            picks = {}
            for request in FAMILY_MIX:
                for device in devices:
                    routed = dataclasses.replace(request, device=device)
                    picks.setdefault((supervisor.router.route(routed), device), routed)
            assert set(picks) == {(shard, device) for shard in (0, 1) for device in devices}
            for request in picks.values():
                assert supervisor.serve(request).request == request
            assert supervisor.routed_counts() == {0: 2, 1: 2}


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs POSIX SIGSTOP")
class TestLiveness:
    def test_stopped_shard_is_killed_rerouted_and_respawned(self, monkeypatch):
        # A stopped process keeps its socket open and never sees EOF, so
        # only the ping deadline can tell it is gone: its pending request
        # re-routes, the process is killed, and a fresh one re-joins.
        monkeypatch.setattr(supervisor_module, "_PING_INTERVAL_S", 0.25)
        monkeypatch.setattr(supervisor_module, "_PING_TIMEOUT_S", 3.0)
        with ShardSupervisor(shards=2, devices=("rtx4090",), workers=2) as supervisor:
            request = ServeRequest(kind="ntt", bits=128, size=SIZE)
            victim = supervisor.router.route(request)
            handle = supervisor._handles[victim]
            stopped = handle.process
            os.kill(stopped.pid, signal.SIGSTOP)
            try:
                future = supervisor.submit(request)
                with handle.pending_lock:
                    assert any(entry[1] == request for entry in handle.pending.values())
                assert future.result(timeout=60).request == request
                stopped.join(timeout=30)
                assert stopped.exitcode == -signal.SIGKILL
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline and not (
                    handle.alive() and victim in supervisor.router.shard_ids
                ):
                    time.sleep(0.05)
                assert handle.process is not stopped
                assert handle.restarts >= 1
                assert handle.alive()
                assert victim in supervisor.router.shard_ids
            finally:
                if stopped.is_alive():
                    os.kill(stopped.pid, signal.SIGKILL)


class TestRestartBackoff:
    def test_schedule_first_attempt_is_immediate(self):
        # The documented schedule: attempt 1 immediate, then exponential
        # from 0.5 s, capped at the maximum — pinned so the spec and the
        # code cannot drift apart again.
        from repro.serve.supervisor import _RESTART_BACKOFF_MAX_S, _restart_backoff

        schedule = [_restart_backoff(attempt) for attempt in range(1, 11)]
        assert schedule == [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0, 30.0]
        assert schedule[0] == 0.0  # one crash must not stall traffic
        assert max(schedule) == _RESTART_BACKOFF_MAX_S
        # Monotone non-decreasing and capped forever after.
        assert schedule == sorted(schedule)
        assert _restart_backoff(100) == _RESTART_BACKOFF_MAX_S

    def test_first_respawn_happens_without_waiting(self):
        # End to end: a fresh handle's first recovery must respawn in the
        # same monitor tick (next_restart_at stays 0.0 until attempt 1).
        from repro.serve.supervisor import _restart_backoff

        supervisor = ShardSupervisor(shards=1, devices=("rtx4090",), workers=1)
        try:
            handle = supervisor._handles[0]
            assert handle.next_restart_at == 0.0  # attempt 1 gated on nothing
            handle.process.kill()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and handle.restarts < 1:
                time.sleep(0.02)
            assert handle.restarts == 1
            # The *next* attempt (2) is scheduled 0.5 s out, not 1.0 s.
            slack = handle.next_restart_at - time.monotonic()
            assert slack <= _restart_backoff(2) + 0.1
        finally:
            supervisor.close()


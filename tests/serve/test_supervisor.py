"""ShardSupervisor end to end: real shard processes behind the router.

The acceptance property of the sharded tier lives here: requests for many
kernel families are served across two real shard processes, repeats are
answered warm *by the owning shard*, per-shard tuning-db replicas are
reconciled into the primary on close, and stats aggregate across the wire.
These tests spawn OS processes and are the slowest in the suite — one
module-scoped cluster serves all the read-mostly tests.
"""

import dataclasses
import os
import signal
import time

import pytest

import repro.serve.supervisor as supervisor_module
from repro.errors import ReproError, ServingError
from repro.serve import ClusterStats, ServedNTT, ServeRequest, ShardSupervisor
from repro.serve import protocol
from repro.tune import TuningDatabase, replica_path

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

    def test_close_reconciles_replicas_into_primary(self, tmp_path):
        db = tmp_path / "tuning.json"
        supervisor = ShardSupervisor(shards=2, db=db, devices=("rtx4090",), workers=2)
        try:
            for request in FAMILY_MIX[:4]:
                supervisor.serve(request)
        finally:
            report = supervisor.close()
        assert report is not None
        assert db.exists()
        primary = TuningDatabase(db)
        assert len(primary) >= 4  # winners from *both* shards survived
        assert sum(report.adopted) >= 4

    def test_validation(self):
        with pytest.raises(ServingError, match="shard count"):
            ShardSupervisor(shards=0)
        with pytest.raises(ServingError, match="device"):
            ShardSupervisor(shards=1, devices=())
        with pytest.raises(ServingError, match="partition"):
            ShardSupervisor(shards=2, devices=("rtx4090",), partition_devices=True)


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

    def test_corrupt_replica_is_quarantined_not_crash_looped(self, tmp_path):
        # A torn replica file (crashed writer) must not make the shard die
        # at startup forever: it is renamed *.corrupt and serving proceeds.
        db = tmp_path / "tuning.json"
        replica = replica_path(db, 0)
        replica.write_text("{torn json")
        supervisor = ShardSupervisor(shards=1, db=db, devices=("rtx4090",), workers=1)
        try:
            result = supervisor.serve(ServeRequest(kind="ntt", bits=128, size=SIZE))
            assert result.artifact is not None
            assert replica.with_name(replica.name + ".corrupt").exists()
            assert supervisor._handles[0].restarts == 0
        finally:
            supervisor.close()


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


class TestQuarantineAging:
    def test_close_drops_aged_quarantine_files(self, tmp_path, monkeypatch, caplog):
        # Quarantined replicas (*.corrupt) must not accumulate forever: a
        # supervisor close() ages them out and logs what it dropped.
        import logging

        import repro.tune.reconcile as reconcile_module

        monkeypatch.setattr(reconcile_module, "QUARANTINE_RETENTION_S", 0.0)
        db = tmp_path / "tuning.json"
        stale = replica_path(db, 7).with_name(replica_path(db, 7).name + ".corrupt")
        stale.write_text("{torn json")
        supervisor = ShardSupervisor(shards=1, db=db, devices=("rtx4090",), workers=1)
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            supervisor.close()
        assert not stale.exists()
        assert any("quarantined replica" in record.message for record in caplog.records)

    def test_close_keeps_fresh_quarantine_files(self, tmp_path):
        # Inside the retention window the post-mortem evidence survives.
        db = tmp_path / "tuning.json"
        fresh = replica_path(db, 3).with_name(replica_path(db, 3).name + ".corrupt")
        fresh.write_text("{torn json")
        supervisor = ShardSupervisor(shards=1, db=db, devices=("rtx4090",), workers=1)
        supervisor.close()
        assert fresh.exists()

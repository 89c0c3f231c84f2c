"""Tenant isolation, end to end: wire, server, database, supervisor.

The properties `docs/tenancy.md` promises: an untenanted envelope is
byte-identical to the pre-tenant wire format, a corrupt tenant id is
rejected at every boundary, two tenants serving the same family persist
distinct records and warm-hit only their own, tenant-scoped eviction of A
leaves B warm, tenant-scoped invalidation of A drops only A's stale
records and leaves both warm, and a tenant over quota gets
``QuotaExceededError`` while another tenant keeps serving.
"""

import dataclasses

import pytest

from repro.errors import ProtocolError, QuotaExceededError
from repro.serve import KernelServer, ServeRequest, ShardSupervisor, serve_many
from repro.serve import protocol
from repro.serve.server import serve_key
from repro.tenancy import DEFAULT_TENANT, TenantConfig

from tests.serve.test_protocol_v2 import join_container, split_container

BAD_TENANTS = ["", "a::b", "a/b", "a b"]

REQUEST = ServeRequest(kind="ntt", bits=128, size=16)


def round_trip(message):
    return protocol.decode_message(protocol.encode_message(message))


@pytest.fixture
def server():
    with KernelServer(devices=("rtx4090",), workers=2) as instance:
        yield instance


class TestWireTenantField:
    def test_untenanted_envelope_is_byte_identical(self):
        # The tenant field must not appear for the default tenant, so an
        # untenanted call is byte-identical to the pre-tenant wire format.
        implicit = protocol.encode_message(
            protocol.ServeCall(request_id=1, request=REQUEST)
        )
        explicit = protocol.encode_message(
            protocol.ServeCall(request_id=1, request=REQUEST, tenant=DEFAULT_TENANT)
        )
        assert implicit == explicit
        assert "tenant" not in split_container(implicit)[0]["payload"]

    def test_absent_tenant_decodes_as_default(self):
        decoded = round_trip(protocol.ServeCall(request_id=1, request=REQUEST))
        assert decoded.tenant == DEFAULT_TENANT

    def test_tenanted_call_round_trips(self):
        decoded = round_trip(
            protocol.ServeCall(request_id=7, request=REQUEST, tenant="acme")
        )
        assert decoded.tenant == "acme"

    @pytest.mark.parametrize("tenant", BAD_TENANTS)
    def test_present_but_invalid_tenant_is_rejected(self, tenant):
        head, _ = split_container(
            protocol.encode_message(protocol.ServeCall(request_id=1, request=REQUEST))
        )
        head["payload"]["tenant"] = tenant
        with pytest.raises(ProtocolError, match="tenant"):
            protocol.decode_message(join_container(head))

    def test_unknown_additive_fields_are_ignored(self):
        # Fuzz the additive-field discipline: a newer peer's extra keys
        # must not break an older decoder.
        head, _ = split_container(
            protocol.encode_message(
                protocol.ServeCall(request_id=1, request=REQUEST, tenant="acme")
            )
        )
        head["payload"]["a-future-field"] = {"anything": 1}
        decoded = protocol.decode_message(join_container(head))
        assert decoded.tenant == "acme"

    def test_a_control_frame_is_an_unknown_message_type(self):
        # Maintenance never crosses the wire: the control message that
        # once carried a tenant-scoped invalidation is gone.
        head, _ = split_container(
            protocol.encode_message(protocol.PingCall(request_id=3))
        )
        head["type"] = "control"
        head["payload"] = {"request_id": 3, "action": "invalidate", "tenant": "acme"}
        with pytest.raises(ProtocolError, match="unknown message type 'control'"):
            protocol.decode_message(join_container(head))

    def test_stats_tenant_breakdown_round_trips_and_degrades(self):
        block = {
            "requests": 2,
            "warm_serves": 1,
            "cold_serves": 1,
            "dedup_hits": 0,
            "errors": 0,
            "warm_histogram": [0] * 4,
            "cold_histogram": [0] * 4,
        }
        stats = protocol.ShardStats(
            shard_id=0, pid=1, requests=2, warm_serves=1, cold_serves=1,
            dedup_hits=0, errors=0, tune_batches=1, batched_tunes=1,
            queue_depth=0, resident_kernels=1,
            warm_histogram=(0,) * 4, cold_histogram=(0,) * 4,
            tenants={"acme": block},
        )
        reply = round_trip(protocol.StatsReply(request_id=1, stats=stats))
        assert "acme" in reply.stats.tenants
        # A malformed breakdown entry is dropped tolerantly, not fatal:
        # the stats path must survive a newer peer's schema.
        head, _ = split_container(
            protocol.encode_message(protocol.StatsReply(request_id=1, stats=stats))
        )
        head["payload"]["stats"]["tenants"]["bad::id"] = block
        head["payload"]["stats"]["tenants"]["acme"] = "not a dict"
        decoded = protocol.decode_message(join_container(head))
        assert decoded.stats.tenants == {}

    def test_quota_error_survives_the_wire(self):
        reply = round_trip(
            protocol.ErrorReply.from_exception(
                1, QuotaExceededError("tenant 'a' over rate quota")
            )
        )
        assert isinstance(reply.exception(), QuotaExceededError)


class TestClientValidation:
    @pytest.mark.parametrize("tenant", BAD_TENANTS)
    def test_submit_rejects_bad_tenants_before_enqueueing(self, server, tenant):
        with pytest.raises(ValueError):
            server.submit(REQUEST, tenant=tenant)
        assert server.metrics.snapshot().requests == 0

    def test_serve_many_rejects_bad_tenants(self, server):
        with pytest.raises(ValueError):
            serve_many(server, [REQUEST], tenant="a::b")


class TestServerIsolation:
    def test_tenants_warm_hit_only_their_own_namespace(self, server):
        assert not server.serve(REQUEST, tenant="a").warm
        assert server.serve(REQUEST, tenant="a").warm
        # Tenant b's identical request is a *distinct* resident entry.
        assert not server.serve(REQUEST, tenant="b").warm
        assert server.serve(REQUEST, tenant="b").warm
        assert serve_key("a", REQUEST) != serve_key("b", REQUEST)
        assert serve_key(DEFAULT_TENANT, REQUEST) == REQUEST.key()

    def test_two_tenants_persist_distinct_records(self, server):
        server.serve(REQUEST, tenant="a")
        server.serve(REQUEST, tenant="b")
        by_tenant = {
            record.tenant: key for key, record in server.db.records().items()
        }
        assert set(by_tenant) == {"a", "b"}
        assert by_tenant["a"].startswith("a::")
        assert by_tenant["b"].startswith("b::")

    def test_lookup_falls_back_to_the_shared_namespace(self, server):
        server.serve(REQUEST)  # default-tenant tuning stores the shared winner
        workload = REQUEST.workload()
        shared = server.db.lookup(workload, "rtx4090")
        assert shared is not None and shared.tenant == DEFAULT_TENANT
        # A tenant with no record of its own inherits the shared winner
        # (which is also why serving under a fresh tenant skips the search)...
        assert server.db.lookup(workload, "rtx4090", tenant="c") is shared
        assert server.serve(REQUEST, tenant="c").tuning.from_database
        # ...until a tenant-scoped record shadows it, for that tenant only.
        server.db.store(dataclasses.replace(shared, tenant="c"))
        own = server.db.lookup(workload, "rtx4090", tenant="c")
        assert own.tenant == "c"
        assert server.db.lookup(workload, "rtx4090") is shared

    def test_evicting_one_tenant_leaves_the_other_warm(self, server):
        for tenant in ("a", "b"):
            server.serve(REQUEST, tenant=tenant)
        assert server.evict_tenant("a") == 1
        assert not server.serve(REQUEST, tenant="a").warm
        assert server.serve(REQUEST, tenant="b").warm

    def test_tenant_scoped_invalidation_leaves_the_other_warm(self, server):
        for tenant in ("a", "b"):
            server.serve(REQUEST, tenant=tenant)
        live = server.db.records()
        # Age a copy of tenant a's record so only a's namespace has
        # anything stale.
        record_a = next(record for record in live.values() if record.tenant == "a")
        stale = dataclasses.replace(record_a, tuner_version=0)
        server.db.store(stale)
        report = server.invalidate(tenant="a")
        assert report.stale_version == 1
        assert [entry.db_key for entry in report.stale] == [stale.key()]
        assert server.db.records() == live
        assert {record.tenant for record in live.values()} == {"a", "b"}
        assert server.serve(REQUEST, tenant="a").warm
        assert server.serve(REQUEST, tenant="b").warm


class TestSupervisorQuota:
    @pytest.fixture(scope="class")
    def cluster(self):
        supervisor = ShardSupervisor(
            shards=1,
            devices=("rtx4090",),
            workers=2,
            tenants=(TenantConfig(tenant="limited", rate_rps=1),),
        )
        yield supervisor
        supervisor.close()

    def test_over_quota_tenant_rejected_other_keeps_serving(self, cluster):
        result = cluster.serve(REQUEST, tenant="limited")
        assert result.artifact is not None
        # Second request inside the same one-second window: rejected
        # synchronously, before it touches the ring.
        with pytest.raises(QuotaExceededError):
            cluster.submit(REQUEST, tenant="limited")
        # The unthrottled tenant is completely unaffected.
        assert cluster.serve(REQUEST, tenant="free").artifact is not None
        assert cluster.tenants.snapshot()["limited"]["rejected"] >= 1
        assert cluster.tenants.rejected("free") == 0

    def test_cluster_stats_carry_per_tenant_rollups(self, cluster):
        stats = cluster.stats()
        assert {"limited", "free"} <= set(stats.tenants)
        limited = stats.tenants["limited"]
        assert limited["requests"] >= 1
        assert limited["rejected"] >= 1
        assert "tenant limited" in stats.report() or "limited" in stats.report()

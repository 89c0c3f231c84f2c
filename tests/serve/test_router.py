"""ShardRouter properties: determinism, spread, minimal movement on loss.

Consistent hashing earns its keep on two properties, both tested here
against many synthetic family keys:

* **determinism** — any two routers over the same shard ids agree on every
  key, across instances and processes (the ring is pure hashing, no state);
* **minimal movement** — removing a shard remaps *only* the keys that lived
  on it; every other key keeps its shard (and its warm resident table).
"""

import pytest

from repro.errors import ServingError
from repro.serve import ServeRequest
from repro.serve.shard import VIRTUAL_NODES, ShardRouter

#: Synthetic routing keys standing in for (fingerprint, device) pairs.
KEYS = [f"family-{index:04x}::rtx4090" for index in range(512)]


class TestDeterminism:
    def test_identical_routers_agree_on_every_key(self):
        first = ShardRouter(range(4))
        second = ShardRouter(range(4))
        assert [first.route_key(key) for key in KEYS] == [
            second.route_key(key) for key in KEYS
        ]

    def test_repeated_routing_is_stable(self):
        router = ShardRouter(range(3))
        expected = {key: router.route_key(key) for key in KEYS}
        for _ in range(3):
            assert {key: router.route_key(key) for key in KEYS} == expected

    def test_request_routing_is_deterministic_and_device_aware(self):
        first = ShardRouter(range(4))
        second = ShardRouter(range(4))
        request = ServeRequest(kind="ntt", bits=128, size=16)
        assert first.route(request) == second.route(request)
        # The routing key is (family fingerprint, device): the same family
        # on another device is an independent key (it may or may not land
        # elsewhere, but it must be stable).
        other_device = ServeRequest(kind="ntt", bits=128, size=16, device="h100")
        assert first.route(other_device) == second.route(other_device)

    def test_fingerprint_memoized_per_workload(self):
        router = ShardRouter(range(2))
        request = ServeRequest(kind="ntt", bits=128, size=16)
        fingerprint = router.fingerprint_of(request)
        assert fingerprint == request.workload().fingerprint()
        assert router.fingerprint_of(request) == fingerprint
        assert len(router._fingerprints) == 1


class TestSpread:
    def test_every_shard_owns_traffic(self):
        router = ShardRouter(range(4))
        owners = {router.route_key(key) for key in KEYS}
        assert owners == {0, 1, 2, 3}

    def test_no_shard_hogs_the_ring(self):
        router = ShardRouter(range(4))
        counts = {shard_id: 0 for shard_id in range(4)}
        for key in KEYS:
            counts[router.route_key(key)] += 1
        # With 64 virtual nodes per shard the split is rough but never
        # degenerate: no shard should own more than half of 512 keys.
        assert max(counts.values()) < len(KEYS) / 2

    def test_single_shard_owns_every_key(self):
        router = ShardRouter([0])
        assert {router.route_key(key) for key in KEYS} == {0}
        assert router.route(ServeRequest(kind="blas", bits=128, operation="vmul")) == 0

    def test_each_shard_places_the_same_number_of_virtual_nodes(self):
        router = ShardRouter(range(3))
        owners = [shard_id for _, shard_id in router._ring]
        assert {shard_id: owners.count(shard_id) for shard_id in range(3)} == {
            shard_id: VIRTUAL_NODES for shard_id in range(3)
        }
        router.remove_shard(1)
        assert len(router._ring) == 2 * VIRTUAL_NODES


class TestRebalance:
    def test_shard_loss_moves_only_its_keys(self):
        router = ShardRouter(range(4))
        before = {key: router.route_key(key) for key in KEYS}
        router.remove_shard(2)
        after = {key: router.route_key(key) for key in KEYS}
        for key in KEYS:
            if before[key] != 2:
                assert after[key] == before[key]  # survivors keep their keys
            else:
                assert after[key] != 2  # lost keys land elsewhere

    def test_excluding_equals_removal(self):
        router = ShardRouter(range(4))
        removed = ShardRouter(range(4))
        removed.remove_shard(1)
        assert [router.route_key(key, excluding={1}) for key in KEYS] == [
            removed.route_key(key) for key in KEYS
        ]

    def test_rejoin_restores_the_original_mapping(self):
        router = ShardRouter(range(4))
        before = {key: router.route_key(key) for key in KEYS}
        router.remove_shard(3)
        router.add_shard(3)
        assert {key: router.route_key(key) for key in KEYS} == before

    def test_all_shards_excluded_raises(self):
        router = ShardRouter(range(2))
        with pytest.raises(ServingError, match="no live shard"):
            router.route_key(KEYS[0], excluding={0, 1})

    def test_membership_queries(self):
        router = ShardRouter(range(3))
        assert router.shard_ids == (0, 1, 2)
        router.remove_shard(0)
        assert router.shard_ids == (1, 2)


class TestValidation:
    def test_empty_router_rejected(self):
        with pytest.raises(ServingError, match="at least one shard"):
            ShardRouter(())

"""Sharded serving walkthrough: N server processes behind one router.

One :class:`KernelServer` process eventually saturates; the
``repro.serve.shard`` tier scales horizontally by adding processes:

1. start a :class:`ShardSupervisor` — it spawns two shard processes, each a
   full kernel server opening the one tuning-database file and saving its
   winners into it (merge-on-save under a lock that holds across processes),
2. serve a mix of kernel families: the supervisor consistent-hashes each
   request's (kernel-family fingerprint, device) onto a shard, so one
   family's traffic always lands on the shard holding its resident table,
3. repeat a request and watch it come back warm — from the owning shard,
   over the wire protocol (the executable kernel crosses as a pickled
   artifact and still computes),
4. print the cluster stats: per-shard counters merged into global
   warm/cold/dedup counts and p50/p95 from summed latency histograms,
5. close the cluster and start a second one over the same file: its
   warm-up serves each saved winner once, on the shard that owns it —
   winners tuned by *any* shard pre-warm the next cluster.

Run with:  python examples/shard_cluster.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.serve import ServedNTT, ServeRequest, ShardSupervisor
from repro.tune import TuningDatabase

SIZE = 256
SHARDS = 2


def main() -> None:
    db_path = Path(tempfile.gettempdir()) / "repro_shard_cluster.json"
    db_path.unlink(missing_ok=True)

    # 1. Two real shard processes sharing one tuning-db file.
    print(f"=== spawn {SHARDS} shard processes ===")
    supervisor = ShardSupervisor(shards=SHARDS, db=db_path, devices=("rtx4090",))
    for shard_id, pong in sorted(supervisor.ping().items()):
        print(f"shard {shard_id}: alive (pid {pong.pid})")

    # 2. Mixed families: the router spreads them by (fingerprint, device).
    print()
    print("=== routed serving ===")
    mix = [
        ServeRequest(kind="ntt", bits=128, size=SIZE),
        ServeRequest(kind="ntt", bits=256, size=SIZE),
        ServeRequest(kind="blas", bits=128, operation="vmul"),
        ServeRequest(kind="blas", bits=256, operation="vadd"),
    ]
    for request in mix:
        shard_id = supervisor.router.route(request)
        result = supervisor.serve(request)
        print(
            f"shard {shard_id} served {request.workload().key}: "
            f"{result.config.label()} ({'warm' if result.warm else 'cold'})"
        )

    # 3. Warm repeat: answered by the owning shard's resident table.
    result = supervisor.serve(mix[0])
    print(f"repeat of {mix[0].workload().key}: warm={result.warm}")

    # The classic frontends work against a supervisor unchanged.
    ntt = ServedNTT(supervisor, size=SIZE, bits=128)
    values = list(range(SIZE))
    assert ntt.inverse(ntt.forward(values)) == values
    print("ServedNTT round trip ok (butterfly crossed the wire pickled)")

    # 4. Cross-shard observability.
    print()
    print("=== cluster stats ===")
    print(supervisor.stats().report())

    # 5. Both shards saved into the one file; a new cluster warms from it.
    print()
    print("=== warm a second cluster from the file ===")
    supervisor.close()
    print(f"{db_path.name} holds {len(TuningDatabase(db_path))} winners")
    with ShardSupervisor(shards=SHARDS, db=db_path, devices=("rtx4090",)) as second:
        print(second.warmup().report())
        for request in mix:
            assert second.serve(request).warm
    print("every family answered warm by the second cluster")


if __name__ == "__main__":
    main()

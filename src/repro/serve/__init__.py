"""``repro.serve`` — the long-running tuned-kernel serving subsystem.

``repro.tune`` (the autotuner) finds and remembers the winning kernel
configuration per (kernel family, device); this package *serves* those
winners to heavy concurrent traffic from one long-running process:

* :mod:`repro.serve.server` — :class:`KernelServer`: a thread-safe front
  door over one shared :class:`~repro.core.driver.CompilerSession` and
  :class:`~repro.tune.TuningDatabase`, with a worker pool, per-key in-flight
  deduplication, a resident table of served results, and micro-batching of
  tuning requests grouped by device;
* :mod:`repro.serve.warmup` — startup pre-warming: every recorded winner is
  compiled into the kernel cache before traffic arrives, so first requests
  are already warm;
* :mod:`repro.serve.invalidate` — live invalidation: records stale by
  :data:`~repro.tune.db.TUNER_VERSION` or kernel-family fingerprint are
  dropped in one save and optionally re-tuned (no lookup can hit a stale
  record, so no served state is evicted);
* :mod:`repro.serve.client` — :class:`ServedNTT` / :class:`ServedBlasEngine`
  and the ``serve=`` hook behind the existing frontends (both accept a
  :class:`KernelServer` or a :class:`ShardSupervisor`);
* :mod:`repro.serve.metrics` — request/dedup/warm/cold counters, latency
  percentiles, and the fixed-bucket histograms the shard tier merges.

One process stops scaling eventually; the **sharded tier** spreads kernel
families across server processes:

* :mod:`repro.serve.protocol` — the wire protocol
  (``ServeCall``/``ServeReply``/``StatsCall``/...; one binary-frame
  container; artifacts as source text or pickled ``python_exec`` kernels;
  the hello handshake);
* :mod:`repro.serve.shard` — :class:`ShardRouter` (consistent hashing of
  (kernel-family fingerprint, device) onto shards), the shard process
  main loop, and :func:`serve_shard_tcp` (the same loop behind a TCP
  listener, whose replies are source text only);
* :mod:`repro.serve.supervisor` — :class:`ShardSupervisor`: spawns,
  monitors and restores shards (local processes and remote TCP
  listeners alike), the local ones sharing one tuning-database file;
  warms and invalidates the cluster in one pass over that file, serving
  through the router; and aggregates metrics across the shards into a
  :class:`ClusterStats`.  Maintenance never crosses the wire: a
  ``--listen`` shard's own file is invalidated where it lives, with
  ``python -m repro.serve --invalidate --db <file>``.

``python -m repro.serve --warmup --once ntt --bits 256 --stats`` drives a
single-process server from the command line; ``--shards N`` serves the same
actions through N shard processes; ``--listen``/``--connect`` move the ring
onto TCP sockets; ``--demo [N]`` generates mixed traffic.
See ``docs/serving.md`` and ``docs/wire-protocol.md`` for the full story.
"""

from repro.serve.client import (
    ServedBlasEngine,
    ServedNTT,
    serve_blas_kernel,
    serve_blas_kernels,
    serve_many,
    serve_ntt_kernel,
)
from repro.serve.invalidate import (
    InvalidationReport,
    StaleRecord,
    find_stale,
    invalidate_stale,
)
from repro.serve.metrics import MetricsSnapshot, ServerMetrics, WireSnapshot
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    PROTOCOL_VERSION_2,
    ShardStats,
)
from repro.serve.server import KernelServer, ServeRequest, ServeResult
from repro.serve.shard import ShardRouter, serve_shard_tcp
from repro.serve.supervisor import ClusterStats, ShardSupervisor
from repro.serve.warmup import (
    WarmupEntry,
    WarmupReport,
    request_from_record,
    warm_server,
)

__all__ = [
    "KernelServer",
    "ServeRequest",
    "ServeResult",
    "PROTOCOL_VERSION",
    "PROTOCOL_VERSION_2",
    "ShardStats",
    "WireSnapshot",
    "ShardRouter",
    "serve_shard_tcp",
    "ClusterStats",
    "ShardSupervisor",
    "MetricsSnapshot",
    "ServerMetrics",
    "WarmupEntry",
    "WarmupReport",
    "request_from_record",
    "warm_server",
    "InvalidationReport",
    "StaleRecord",
    "find_stale",
    "invalidate_stale",
    "ServedNTT",
    "ServedBlasEngine",
    "serve_many",
    "serve_ntt_kernel",
    "serve_blas_kernel",
    "serve_blas_kernels",
]

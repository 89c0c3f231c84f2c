"""Prometheus-style text exposition of the serving tier's metrics.

Renders the counters, gauges, and fixed-bucket latency histograms the
serve layer already tracks (:class:`~repro.serve.metrics.MetricsSnapshot`,
:class:`~repro.serve.supervisor.ClusterStats`,
:class:`~repro.serve.metrics.WireSnapshot`) into the text exposition format
scrapers parse (``text/plain; version=0.0.4``): ``# HELP`` / ``# TYPE``
comment pairs followed by sample lines, histograms as cumulative
``_bucket{le="..."}`` series ending in ``+Inf`` plus a ``_count``.

A single server, a ``--listen`` shard and a supervisor all render the same
body — counters, gauges, p50/p95 gauges and the warm/cold
``repro_serve_latency_ms`` histograms, every count cumulative since start —
and a cluster adds its per-shard and wire blocks.  To keep :mod:`repro.obs`
import-free of the serve layer, the functions here take plain objects
(attribute access only) that carry their histograms' bucket bounds as
``bucket_bounds_ms``.
"""

from __future__ import annotations

__all__ = [
    "render_counter",
    "render_gauge",
    "render_histogram",
    "render_server_metrics",
    "render_cluster_metrics",
]


def _labels(labels: dict | None) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    return "{" + body + "}"


def _sample(name: str, value, labels: dict | None = None) -> str:
    if isinstance(value, float):
        rendered = repr(value)
    else:
        rendered = str(value)
    return f"{name}{_labels(labels)} {rendered}"


def _header(name: str, kind: str, help_text: str) -> list[str]:
    return [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]


def render_counter(name: str, value, help_text: str, labels: dict | None = None) -> str:
    """One counter metric with its HELP/TYPE header."""
    return "\n".join(_header(name, "counter", help_text) + [_sample(name, value, labels)])


def render_gauge(name: str, value, help_text: str, labels: dict | None = None) -> str:
    """One gauge metric with its HELP/TYPE header."""
    return "\n".join(_header(name, "gauge", help_text) + [_sample(name, value, labels)])


def render_histogram(
    name: str,
    counts,
    bucket_bounds: tuple[float, ...],
    help_text: str,
    labels: dict | None = None,
) -> str:
    """One fixed-bucket histogram as cumulative ``_bucket`` series.

    ``counts`` holds one count per bound plus one trailing overflow bucket
    (the serve tier's :func:`~repro.serve.metrics.latency_histogram`
    layout); extra counts beyond the bounds fold into ``+Inf``.
    """
    lines = _header(name, "histogram", help_text)
    cumulative = 0
    for index, bound in enumerate(bucket_bounds):
        cumulative += counts[index] if index < len(counts) else 0
        bucket_labels = dict(labels or {})
        bucket_labels["le"] = f"{bound:g}"
        lines.append(_sample(f"{name}_bucket", cumulative, bucket_labels))
    total = sum(counts)
    inf_labels = dict(labels or {})
    inf_labels["le"] = "+Inf"
    lines.append(_sample(f"{name}_bucket", total, inf_labels))
    lines.append(_sample(f"{name}_count", total, labels))
    return "\n".join(lines)


_COUNTERS = (
    ("requests", "requests_total", "Requests received."),
    ("warm_serves", "warm_serves_total", "Requests answered from the resident table."),
    ("cold_serves", "cold_serves_total", "Requests that ran tuning and compilation."),
    ("dedup_hits", "dedup_hits_total", "Requests that joined an in-flight twin."),
    ("errors", "errors_total", "Requests that raised."),
    ("tune_batches", "tune_batches_total", "Tuning micro-batches executed."),
    ("batched_tunes", "batched_tunes_total", "Tuning requests inside those batches."),
)

_GAUGES = (
    ("queue_depth", "queue_depth", "Requests submitted but not yet fulfilled."),
    ("resident_kernels", "resident_kernels", "Served results held resident."),
    (
        "p50_latency_ms",
        "latency_p50_ms",
        "Median serve latency since start: the bound of its histogram bucket.",
    ),
    (
        "p95_latency_ms",
        "latency_p95_ms",
        "95th-percentile serve latency since start: the bound of its histogram bucket.",
    ),
)

#: Per-tenant breakdown fields rendered with a ``tenant`` label.  The
#: blocks are duck-typed dicts (a server's
#: :attr:`~repro.serve.metrics.MetricsSnapshot.tenants` or a
#: supervisor's :attr:`~repro.serve.supervisor.ClusterStats.tenants`);
#: a field absent from every block simply renders nothing.
_TENANT_COUNTERS = (
    ("requests", "tenant_requests_total", "Requests received per tenant."),
    ("warm_serves", "tenant_warm_serves_total", "Warm serves per tenant."),
    ("cold_serves", "tenant_cold_serves_total", "Cold serves per tenant."),
    ("dedup_hits", "tenant_dedup_hits_total", "In-flight dedup joins per tenant."),
    ("errors", "tenant_errors_total", "Failed requests per tenant."),
    (
        "rejected",
        "tenant_quota_rejections_total",
        "Submissions refused over the tenant's admission quota.",
    ),
)

_TENANT_GAUGES = (
    ("in_flight", "tenant_in_flight", "Outstanding requests per tenant."),
    ("warm_ratio", "tenant_warm_ratio", "Warm fraction of served requests per tenant."),
    (
        "p50_latency_ms",
        "tenant_latency_p50_ms",
        "Median serve latency per tenant (merged histograms).",
    ),
    (
        "p95_latency_ms",
        "tenant_latency_p95_ms",
        "95th-percentile serve latency per tenant (merged histograms).",
    ),
)


def _render_tenant_metrics(tenants: dict, prefix: str) -> list[str]:
    """Per-tenant sample blocks, one metric family per known field."""
    blocks: list[str] = []
    for series, kind in ((_TENANT_COUNTERS, "counter"), (_TENANT_GAUGES, "gauge")):
        for attr, metric, help_text in series:
            samples = [
                (tenant, block[attr])
                for tenant, block in sorted(tenants.items())
                if isinstance(block, dict) and attr in block
            ]
            if not samples:
                continue
            lines = _header(f"{prefix}_{metric}", kind, help_text)
            lines.extend(
                _sample(f"{prefix}_{metric}", value, {"tenant": tenant})
                for tenant, value in samples
            )
            blocks.append("\n".join(lines))
    return blocks


_WIRE_COUNTERS = (
    ("messages_sent", "wire_messages_sent_total", "Request messages encoded for shards."),
    ("messages_received", "wire_messages_received_total", "Reply messages decoded."),
    ("flushes", "wire_flushes_total", "Transport flushes carrying those messages."),
    ("bytes_sent", "wire_bytes_sent_total", "Encoded request bytes written."),
    ("bytes_received", "wire_bytes_received_total", "Reply bytes read."),
    ("encode_s", "wire_encode_seconds_total", "Wall time in message encoding."),
    ("decode_s", "wire_decode_seconds_total", "Wall time in reply decoding."),
    ("route_s", "wire_route_seconds_total", "Wall time in shard routing."),
    ("flush_s", "wire_flush_seconds_total", "Wall time in transport flushes."),
    ("kernels_unpickled", "wire_kernels_unpickled_total", "Kernel frames unpickled."),
    ("kernels_reused", "wire_kernels_reused_total", "Kernel frames reused, not unpickled."),
    ("kernels_evicted", "wire_kernels_evicted_total", "Decoded kernels evicted."),
)


def _render(metrics, prefix: str, extra_blocks=()) -> str:
    """The one exposition body: counters, gauges, percentile gauges, the
    warm/cold latency histograms, ``extra_blocks``, then the tenants."""
    blocks = [
        render_counter(f"{prefix}_{metric}", getattr(metrics, attr), help_text)
        for attr, metric, help_text in _COUNTERS
    ]
    blocks.extend(
        render_gauge(f"{prefix}_{metric}", getattr(metrics, attr), help_text)
        for attr, metric, help_text in _GAUGES
    )
    for label, attribute in (("warm", "warm_histogram"), ("cold", "cold_histogram")):
        blocks.append(
            render_histogram(
                f"{prefix}_serve_latency_ms",
                getattr(metrics, attribute),
                metrics.bucket_bounds_ms,
                "Serve latency by class since start (ms buckets).",
                labels={"class": label},
            )
        )
    blocks.extend(extra_blocks)
    if metrics.tenants:
        blocks.extend(_render_tenant_metrics(metrics.tenants, prefix))
    return "\n".join(blocks) + "\n"


def render_server_metrics(snapshot, prefix: str = "repro") -> str:
    """A single server's :class:`MetricsSnapshot` as a text exposition."""
    return _render(snapshot, prefix)


def render_cluster_metrics(stats, prefix: str = "repro") -> str:
    """A :class:`ClusterStats`: the server body over the merged counts and
    histograms, plus a ``shard``-labelled breakdown and the wire profile."""
    shard_lines = _header(
        f"{prefix}_shard_requests_total", "counter", "Requests served per shard."
    )
    shard_lines.extend(
        _sample(f"{prefix}_shard_requests_total", shard.requests, {"shard": shard.shard_id})
        for shard in stats.shards
    )
    extra = [
        render_gauge(f"{prefix}_shards", len(stats.shards), "Live shards reporting."),
        "\n".join(shard_lines),
    ]
    if stats.wire is not None:
        extra.extend(
            render_counter(f"{prefix}_{metric}", getattr(stats.wire, attr), help_text)
            for attr, metric, help_text in _WIRE_COUNTERS
        )
    return _render(stats, prefix, extra)

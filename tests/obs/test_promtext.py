"""Prometheus text exposition: format validity and histogram semantics.

A scraper only needs three invariants from us: every sample line parses as
``name{labels} value``, every histogram's ``_bucket`` series is cumulative
and ends in ``+Inf`` equal to ``_count``, and the serve-layer renderers
cover every counter the snapshot carries.  Rendering is checked against
real :class:`ServerMetrics`/:class:`WireProfile` snapshots and cluster
stats aggregated from real shard stats (the renderers are deliberately
duck-typed so ``repro.obs`` never imports the serve layer).
"""

import dataclasses
import re

from repro.obs.promtext import (
    render_cluster_metrics,
    render_counter,
    render_gauge,
    render_histogram,
    render_server_metrics,
)
from repro.serve.metrics import (
    HISTOGRAM_BUCKET_BOUNDS_MS,
    ServerMetrics,
    WireProfile,
    latency_histogram,
)
from repro.serve.protocol import ShardStats
from repro.serve.supervisor import aggregate_stats

#: One exposition sample: metric name, optional {labels}, numeric value.
SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9eE+-]+)?$"
)


def assert_parseable(text: str) -> None:
    for line in text.strip().splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert SAMPLE.match(line), f"unparseable sample line: {line!r}"


class TestPrimitives:
    def test_counter_has_help_type_and_sample(self):
        text = render_counter("repro_requests_total", 7, "Requests.")
        lines = text.splitlines()
        assert lines[0] == "# HELP repro_requests_total Requests."
        assert lines[1] == "# TYPE repro_requests_total counter"
        assert lines[2] == "repro_requests_total 7"

    def test_gauge_with_labels(self):
        text = render_gauge("repro_depth", 3, "Depth.", labels={"shard": 1})
        assert 'repro_depth{shard="1"} 3' in text
        assert_parseable(text)

    def test_histogram_buckets_are_cumulative_ending_in_inf(self):
        counts = latency_histogram((0.004, 0.004, 1.0, 100.0))
        text = render_histogram(
            "repro_latency_ms", counts, HISTOGRAM_BUCKET_BOUNDS_MS, "Latency."
        )
        assert_parseable(text)
        bucket_values = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if "_bucket{" in line
        ]
        assert bucket_values == sorted(bucket_values)  # cumulative
        assert bucket_values[-1] == 4  # +Inf sees every sample
        assert text.splitlines()[-1] == "repro_latency_ms_count 4"

    def test_overflow_count_folds_into_inf(self):
        counts = (0,) * len(HISTOGRAM_BUCKET_BOUNDS_MS) + (5,)
        text = render_histogram(
            "repro_latency_ms", counts, HISTOGRAM_BUCKET_BOUNDS_MS, "Latency."
        )
        last_finite = [line for line in text.splitlines() if "_bucket{" in line][-2]
        inf_line = [line for line in text.splitlines() if 'le="+Inf"' in line][0]
        assert last_finite.endswith(" 0")
        assert inf_line.endswith(" 5")


class TestServerExposition:
    def test_renders_every_counter_from_a_real_snapshot(self):
        metrics = ServerMetrics()
        metrics.record_request()
        metrics.record_warm(0.002)
        metrics.record_request()
        metrics.record_cold(0.050)
        metrics.record_tune_batch(3)
        text = render_server_metrics(metrics.snapshot(queue_depth=2, resident_kernels=1))
        assert_parseable(text)
        assert "repro_requests_total 2" in text
        assert "repro_warm_serves_total 1" in text
        assert "repro_cold_serves_total 1" in text
        assert "repro_batched_tunes_total 3" in text
        assert "repro_queue_depth 2" in text
        assert "repro_resident_kernels 1" in text
        assert "repro_latency_p50_ms" in text
        assert "repro_latency_p95_ms" in text

    def test_renders_the_latency_histograms(self):
        metrics = ServerMetrics()
        for latency_s in (0.002, 0.002, 0.050):
            metrics.record_warm(latency_s)
        text = render_server_metrics(metrics.snapshot())
        assert_parseable(text)
        assert "# TYPE repro_serve_latency_ms histogram" in text
        assert 'repro_serve_latency_ms_bucket{class="warm",le="2.048"} 2' in text
        assert 'repro_serve_latency_ms_bucket{class="warm",le="+Inf"} 3' in text
        assert 'repro_serve_latency_ms_count{class="warm"} 3' in text
        assert 'repro_serve_latency_ms_count{class="cold"} 0' in text
        # The percentile gauges are bucket bounds read off the histograms.
        assert "repro_latency_p50_ms 2.048" in text


class TestClusterExposition:
    @staticmethod
    def shard(shard_id, requests, warm, cold):
        return ShardStats(
            shard_id=shard_id,
            pid=100 + shard_id,
            requests=requests,
            warm_serves=len(warm),
            cold_serves=len(cold),
            dedup_hits=requests - len(warm) - len(cold),
            errors=0,
            tune_batches=1,
            batched_tunes=1,
            queue_depth=0,
            resident_kernels=2,
            warm_histogram=latency_histogram(warm),
            cold_histogram=latency_histogram(cold),
        )

    def make_stats(self, wire=None):
        return aggregate_stats(
            (
                self.shard(0, 5, warm=(0.001, 0.002), cold=(0.100,)),
                self.shard(1, 3, warm=(0.004,), cold=()),
            ),
            wire=wire,
        )

    def test_cluster_counters_and_per_shard_breakdown(self):
        text = render_cluster_metrics(self.make_stats())
        assert_parseable(text)
        assert "repro_requests_total 8" in text
        assert "repro_dedup_hits_total 4" in text
        assert "repro_shards 2" in text
        assert 'repro_shard_requests_total{shard="0"} 5' in text
        assert 'repro_shard_requests_total{shard="1"} 3' in text

    def test_latency_histograms_merge_across_shards_per_class(self):
        text = render_cluster_metrics(self.make_stats())
        warm_count = [
            line
            for line in text.splitlines()
            if line.startswith("repro_serve_latency_ms_count") and 'class="warm"' in line
        ][0]
        cold_count = [
            line
            for line in text.splitlines()
            if line.startswith("repro_serve_latency_ms_count") and 'class="cold"' in line
        ][0]
        assert warm_count.endswith(" 3")  # two from shard 0, one from shard 1
        assert cold_count.endswith(" 1")

    def test_wire_counters_render_when_present(self):
        profile = WireProfile()
        profile.record_send(100, 0.001, route_s=0.0005)
        profile.record_receive(250, 0.002)
        profile.record_flush(0.0001)
        wire = dataclasses.replace(
            profile.snapshot(), kernels_unpickled=2, kernels_reused=19, kernels_evicted=1
        )
        text = render_cluster_metrics(self.make_stats(wire=wire))
        assert_parseable(text)
        assert "repro_wire_messages_sent_total 1" in text
        assert "repro_wire_bytes_received_total 250" in text
        assert "repro_wire_kernels_unpickled_total 2" in text
        assert "repro_wire_kernels_reused_total 19" in text
        assert "repro_wire_kernels_evicted_total 1" in text

    def test_wire_section_absent_without_a_profile(self):
        text = render_cluster_metrics(self.make_stats())
        assert "repro_wire_" not in text

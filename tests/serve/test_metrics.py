"""Latency histograms: percentile edge cases, a sampling property, and
counts that stay cumulative through every layer that carries them.

`percentile_from_histogram` is every view of latency (raw samples are never
kept), so its edge behaviour matters: an empty histogram, q=0, q=1, and
out-of-domain q (someone passing percent, e.g. 95 or 100) must all be
well-defined — no division by zero, no indexing past the overflow bucket.
The sampling property pins the approximation contract against exact
quantiles over the raw samples: the histogram answer is the upper bound of
the true quantile's bucket, so it brackets the exact value within one log-2
bucket.
"""

import dataclasses
import math
import random
import statistics
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.obs.promtext import render_cluster_metrics
from repro.serve import protocol
from repro.serve.metrics import (
    HISTOGRAM_BUCKET_BOUNDS_MS,
    ServerMetrics,
    WireProfile,
    latency_histogram,
    percentile_from_histogram,
)
from repro.serve.shard import _shard_stats
from repro.serve.supervisor import aggregate_stats


def bucket_upper_bound_ms(value_ms: float) -> float:
    """The fixed-histogram bucket bound a latency (ms) falls into."""
    for bound in HISTOGRAM_BUCKET_BOUNDS_MS:
        if value_ms <= bound:
            return bound
    return HISTOGRAM_BUCKET_BOUNDS_MS[-1]  # overflow reports the max bound


class TestEdgeCases:
    def test_empty_histogram_is_zero(self):
        assert percentile_from_histogram((), 0.5) == 0.0

    def test_all_zero_counts_is_zero(self):
        assert percentile_from_histogram((0,) * 26, 0.95) == 0.0

    def test_q_zero_reports_first_occupied_bucket(self):
        counts = [0] * (len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1)
        counts[3] = 5
        counts[10] = 5
        assert (
            percentile_from_histogram(tuple(counts), 0.0)
            == HISTOGRAM_BUCKET_BOUNDS_MS[3]
        )

    def test_q_one_reports_last_occupied_bucket(self):
        counts = [0] * (len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1)
        counts[3] = 5
        counts[10] = 5
        assert (
            percentile_from_histogram(tuple(counts), 1.0)
            == HISTOGRAM_BUCKET_BOUNDS_MS[10]
        )

    def test_overflow_bucket_reports_largest_finite_bound(self):
        counts = [0] * (len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1)
        counts[-1] = 7  # every sample beyond the last bound
        assert (
            percentile_from_histogram(tuple(counts), 1.0)
            == HISTOGRAM_BUCKET_BOUNDS_MS[-1]
        )

    @pytest.mark.parametrize("q", [-0.1, 1.0001, 50, 95, 100])
    def test_out_of_domain_q_rejected(self, q):
        # Percent-style arguments must fail loudly, not report the max bucket.
        with pytest.raises(ValueError, match="fraction"):
            percentile_from_histogram((1, 2, 3), q)

    def test_single_sample_every_quantile(self):
        counts = latency_histogram((0.004,))  # 4 ms
        for q in (0.0, 0.5, 0.95, 1.0):
            assert percentile_from_histogram(counts, q) == bucket_upper_bound_ms(4.0)


class TestSamplingProperty:
    """Histogram percentiles track exact quantiles of the raw samples."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [0.25, 0.50, 0.75, 0.95])
    def test_matches_exact_quantile_within_bucket_resolution(self, seed, q):
        rng = random.Random(seed)
        # Log-uniform latencies from ~2 µs to ~8 s: spans most buckets.
        samples = tuple(10 ** rng.uniform(-5.7, 0.9) for _ in range(500))
        counts = latency_histogram(samples)

        approx_ms = percentile_from_histogram(counts, q)
        # Nearest-rank exact quantile over the same samples (in ms).
        exact_ms = sorted(samples)[max(1, math.ceil(q * len(samples))) - 1] * 1e3

        # The histogram reports the exact quantile's bucket upper bound:
        # at least the true value, within one log-2 bucket above it.
        assert approx_ms == bucket_upper_bound_ms(exact_ms)
        assert approx_ms >= exact_ms * (1.0 - 1e-9)
        assert approx_ms <= exact_ms * 2.0

    @pytest.mark.parametrize("seed", [11, 12])
    def test_brackets_statistics_quantiles(self, seed):
        # statistics.quantiles uses interpolation (not nearest rank), so
        # only the bucket-resolution bracket is required to hold.
        rng = random.Random(seed)
        samples = tuple(10 ** rng.uniform(-4.0, 0.0) for _ in range(1000))
        counts = latency_histogram(samples)
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        for q, exact_s in ((0.50, cuts[49]), (0.95, cuts[94])):
            approx_ms = percentile_from_histogram(counts, q)
            exact_ms = exact_s * 1e3
            # Within one log-2 bucket either side of the interpolated value.
            assert exact_ms / 2.0 <= approx_ms <= exact_ms * 2.0

    def test_merged_histograms_match_pooled_samples(self):
        # The supervisor's merge (element-wise sum) must equal bucketing
        # the pooled samples directly.
        rng = random.Random(7)
        shard_a = tuple(10 ** rng.uniform(-5.0, 0.5) for _ in range(200))
        shard_b = tuple(10 ** rng.uniform(-5.0, 0.5) for _ in range(300))
        merged = tuple(
            a + b
            for a, b in zip(latency_histogram(shard_a), latency_histogram(shard_b))
        )
        pooled = latency_histogram(shard_a + shard_b)
        assert merged == pooled
        for q in (0.5, 0.95):
            assert percentile_from_histogram(merged, q) == percentile_from_histogram(
                pooled, q
            )


class TestWireSnapshotDelta:
    """Snapshots are monotonic totals; ``delta`` isolates a polling window.

    The regression this pins: a caller polling ``--stats`` repeatedly must
    not read the totals twice and report the first window's traffic again.
    ``delta(before)`` subtracts field-wise, so consecutive windows sum back
    to the totals and an idle window is exactly zero.
    """

    def test_delta_isolates_the_window_between_snapshots(self):
        profile = WireProfile()
        profile.record_send(100, 0.001, route_s=0.0005)
        profile.record_flush(0.0002)
        # The supervisor fills the decode memo's counts into its snapshots.
        before = dataclasses.replace(
            profile.snapshot(), kernels_unpickled=1, kernels_reused=2
        )

        profile.record_send(40, 0.002, route_s=0.0001)
        profile.record_receive(300, 0.003)
        profile.record_flush(0.0004)
        after = dataclasses.replace(
            profile.snapshot(), kernels_unpickled=3, kernels_reused=21, kernels_evicted=1
        )
        window = after.delta(before)

        assert window.messages_sent == 1
        assert window.messages_received == 1
        assert window.flushes == 1
        assert window.bytes_sent == 40
        assert window.bytes_received == 300
        assert window.encode_s == pytest.approx(0.002)
        assert window.decode_s == pytest.approx(0.003)
        assert window.route_s == pytest.approx(0.0001)
        assert window.flush_s == pytest.approx(0.0004)
        kernels = (window.kernels_unpickled, window.kernels_reused, window.kernels_evicted)
        assert kernels == (2, 19, 1)
        assert window.report().endswith("kernels 2 unpickled, 19 reused, 1 evicted)")

    def test_idle_window_is_zero_for_every_field(self):
        profile = WireProfile()
        profile.record_send(100, 0.001)
        profile.record_receive(50, 0.001)
        snap = profile.snapshot()
        for field, value in dataclasses.asdict(snap.delta(snap)).items():
            assert value == 0, f"idle delta field {field} = {value}"

    def test_repeated_polls_double_count_without_delta(self):
        # The failure mode delta exists for: raw totals are cumulative.
        profile = WireProfile()
        profile.record_send(10, 0.0)
        first = profile.snapshot()
        profile.record_send(10, 0.0)
        second = profile.snapshot()
        assert second.messages_sent == 2  # totals keep growing
        assert second.delta(first).messages_sent == 1  # the window does not

    def test_consecutive_windows_sum_to_the_totals(self):
        profile = WireProfile()
        snapshots = [profile.snapshot()]
        for size in (10, 20, 30):
            profile.record_send(size, 0.001)
            profile.record_flush(0.0001)
            snapshots.append(profile.snapshot())
        windows = [
            later.delta(earlier)
            for earlier, later in zip(snapshots, snapshots[1:])
        ]
        assert sum(w.bytes_sent for w in windows) == snapshots[-1].bytes_sent
        assert sum(w.flushes for w in windows) == snapshots[-1].flushes
        assert sum(w.flush_s for w in windows) == pytest.approx(
            snapshots[-1].flush_s
        )


class TestConcurrentRecording:
    """N threads hammer one accumulator; every event must be conserved.

    Counter updates in :class:`ServerMetrics` and :class:`WireProfile` are
    multi-field (count + latency sample, bytes + seconds), so a lost update
    or torn read under contention would show up as snapshots whose parts
    disagree with the known totals.
    """

    THREADS = 8
    EVENTS_PER_THREAD = 400

    def _hammer(self, worker) -> None:
        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-update as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def test_server_metrics_conserve_every_event(self):
        metrics = ServerMetrics()

        def worker(index: int) -> None:
            for event in range(self.EVENTS_PER_THREAD):
                metrics.record_request()
                outcome = (index + event) % 4
                if outcome == 0:
                    metrics.record_warm(0.001)
                elif outcome == 1:
                    metrics.record_cold(0.010)
                elif outcome == 2:
                    metrics.record_dedup()
                else:
                    metrics.record_error()
                if event % 50 == 0:
                    metrics.record_tune_batch(2)
                    metrics.snapshot()  # concurrent reads must not tear

        self._hammer(worker)
        total = self.THREADS * self.EVENTS_PER_THREAD
        snap = metrics.snapshot()
        assert snap.requests == total
        assert (
            snap.warm_serves + snap.cold_serves + snap.dedup_hits + snap.errors
            == total
        )
        assert snap.warm_serves == total // 4
        assert snap.tune_batches == self.THREADS * (self.EVENTS_PER_THREAD // 50)
        assert snap.batched_tunes == 2 * snap.tune_batches
        # Every serve landed in its latency bucket, none lost or torn.
        warm_bucket = latency_histogram((0.001,)).index(1)
        cold_bucket = latency_histogram((0.010,)).index(1)
        assert snap.warm_histogram[warm_bucket] == sum(snap.warm_histogram) == total // 4
        assert snap.cold_histogram[cold_bucket] == sum(snap.cold_histogram) == total // 4
        assert snap.cold_serves == total // 4

    def test_wire_profile_conserves_bytes_and_time(self):
        profile = WireProfile()

        def worker(index: int) -> None:
            for event in range(self.EVENTS_PER_THREAD):
                profile.record_send(10, 0.001, route_s=0.0005)
                profile.record_receive(30, 0.002)
                if event % 4 == 0:
                    profile.record_flush(0.0001)
                if event % 100 == 0:
                    profile.snapshot()

        self._hammer(worker)
        total = self.THREADS * self.EVENTS_PER_THREAD
        snap = profile.snapshot()
        assert snap.messages_sent == total
        assert snap.messages_received == total
        assert snap.bytes_sent == 10 * total
        assert snap.bytes_received == 30 * total
        assert snap.flushes == self.THREADS * (self.EVENTS_PER_THREAD // 4)
        assert snap.encode_s == pytest.approx(0.001 * total)
        assert snap.route_s == pytest.approx(0.0005 * total)
        assert snap.decode_s == pytest.approx(0.002 * total)
        assert snap.coalescing_ratio == pytest.approx(4.0)


def shard_stats(metrics: ServerMetrics, shard_id: int = 0) -> protocol.ShardStats:
    """A shard's stats reply over ``metrics``, as the supervisor decodes it."""
    server = SimpleNamespace(metrics=metrics, metrics_snapshot=metrics.snapshot)
    reply = protocol.StatsReply(request_id=1, stats=_shard_stats(shard_id, server))
    return protocol.decode_message(protocol.encode_message(reply)).stats


def exposition_samples(text: str) -> dict[str, float]:
    """Sample name (with labels) -> value for every line of an exposition."""
    return {
        line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if not line.startswith("#")
    }


class TestCumulativeCounts:
    """Latency counts are cumulative since start at every layer.

    A Prometheus histogram may only grow, and its ``_count`` is the number
    of events it saw, so a server snapshot, a shard's stats reply, the
    cluster aggregate and the cluster exposition must each count every
    warm and cold serve ever recorded, past any sample window, per tenant
    as in the totals.
    """

    #: More records per class than any retained window would hold.
    RECORDS = 5000

    def test_scrapes_never_decrease(self):
        metrics = ServerMetrics()
        scrapes = []
        for latency_s in (0.0005, 0.005):  # 4,096 fast then 4,096 slow
            for _ in range(4096):
                metrics.record_request()
                metrics.record_warm(latency_s)
            cluster = aggregate_stats((shard_stats(metrics),))
            scrapes.append(exposition_samples(render_cluster_metrics(cluster)))
        for scrape in scrapes:
            assert (
                scrape['repro_serve_latency_ms_count{class="warm"}']
                == scrape["repro_warm_serves_total"]
            )
        first, second = scrapes
        assert second["repro_warm_serves_total"] == 8192
        series = [
            name for name in first if "_bucket{" in name or "_count{" in name
        ]
        assert 'repro_serve_latency_ms_bucket{class="warm",le="1.024"}' in series
        for name in series:
            assert second[name] >= first[name], name

    def test_histograms_sum_to_their_counters_at_every_layer(self):
        metrics = ServerMetrics()
        for event in range(2 * self.RECORDS):
            tenant = ("default", "acme")[event % 2]
            for record, latency_s in (
                (metrics.record_warm, 1e-5 * (1 + event % 40)),
                (metrics.record_cold, 1e-3 * (1 + event % 40)),
            ):
                metrics.record_request(tenant)
                record(latency_s, tenant)
        snapshot = metrics.snapshot()
        shards = (shard_stats(metrics, 0), shard_stats(metrics, 1))
        cluster = aggregate_stats(shards)
        assert snapshot.warm_serves == snapshot.cold_serves == 2 * self.RECORDS
        assert cluster.warm_serves == cluster.cold_serves == 4 * self.RECORDS
        for view in (*shards, snapshot, cluster):
            assert sum(view.warm_histogram) == view.warm_serves
            assert sum(view.cold_histogram) == view.cold_serves
            assert set(view.tenants) == {"default", "acme"}
            for block in view.tenants.values():
                assert block["warm_serves"] == block["cold_serves"] > 4096
                assert sum(block["warm_histogram"]) == block["warm_serves"]
                assert sum(block["cold_histogram"]) == block["cold_serves"]

"""The SLO reporter and the BENCH artifact's append-only merge discipline.

The BENCH file has three writers — pytest-benchmark's ``--benchmark-json``,
the perf-floor hook in ``benchmarks/conftest.py``, and the loadgen SLO
reporter — and the contract here is that the shared read-merge-write helper
lets each land without clobbering the others.
"""

import json

import pytest

from repro.loadgen import TraceConfig, build_slo_report, generate_trace
from repro.loadgen.replay import ReplayResult, RequestOutcome
from repro.loadgen.report import (
    append_loadgen_report,
    bench_artifact_path,
    merge_bench_payload,
)


def _outcome(position, *, ok=True, warm=False, missed=False, lost=False,
             error=None, submitted=0.0, completed=None, latency=0.010):
    return RequestOutcome(
        suite="rns_conversion",
        index=0,
        submitted_at_s=submitted,
        completed_at_s=completed if completed is not None else submitted + latency,
        latency_s=latency,
        ok=ok,
        warm=warm,
        deadline_missed=missed,
        error=error,
        lost=lost,
    )


def _result(outcomes, duration_s=1.0, fault_at_s=None):
    trace = generate_trace(TraceConfig(seed=1, requests=len(outcomes)))
    return ReplayResult(
        trace=trace,
        outcomes=tuple(outcomes),
        duration_s=duration_s,
        fault_at_s=fault_at_s,
    )


class TestSLOReport:
    def test_rates_and_percentiles(self):
        outcomes = [
            _outcome(position, warm=position >= 2, latency=(position + 1) / 100.0)
            for position in range(8)
        ] + [
            _outcome(8, ok=False, error="ServingError"),
            _outcome(9, ok=False, missed=True),
        ]
        report = build_slo_report(_result(outcomes, duration_s=2.0))
        assert report.requests == 10
        assert report.ok == 8
        assert report.errors == 1
        assert report.deadline_misses == 1
        assert report.lost == 0
        assert report.req_per_s == pytest.approx(5.0)
        assert report.warm_ratio == pytest.approx(6 / 8)
        assert report.error_rate == pytest.approx(0.1)
        assert report.deadline_miss_rate == pytest.approx(0.1)
        # Nearest-rank over the 8 served latencies 10..80 ms.
        assert report.p50_latency_ms == pytest.approx(40.0)
        assert report.p95_latency_ms == pytest.approx(80.0)
        assert report.p99_latency_ms == pytest.approx(80.0)

    def test_lost_requests_are_counted_apart_from_errors(self):
        report = build_slo_report(
            _result([_outcome(0), _outcome(1, ok=False, error="Timeout", lost=True)])
        )
        assert report.lost == 1
        assert report.errors == 0

    def test_recovery_window_spans_fault_to_first_post_fault_success(self):
        outcomes = [
            _outcome(0, submitted=0.0, completed=0.1),
            _outcome(1, submitted=0.4, completed=0.45),  # pre-fault submit
            _outcome(2, submitted=0.6, completed=0.9),
            _outcome(3, submitted=0.7, completed=0.8),  # earliest recovery
        ]
        report = build_slo_report(_result(outcomes, fault_at_s=0.5))
        assert report.fault_at_s == 0.5
        assert report.recovery_window_s == pytest.approx(0.3)

    def test_recovery_window_is_none_when_nothing_recovers(self):
        outcomes = [
            _outcome(0, submitted=0.0, completed=0.1),
            _outcome(1, submitted=0.6, completed=0.7, ok=False, error="Boom"),
        ]
        report = build_slo_report(_result(outcomes, fault_at_s=0.5))
        assert report.recovery_window_s is None
        assert "never recovered" in report.report()

    def test_payload_and_text_render(self):
        report = build_slo_report(_result([_outcome(0, warm=True)]))
        payload = report.to_payload()
        assert json.dumps(payload)  # JSON-serializable end to end
        assert payload["suites"] == list(report.suites)
        text = report.report()
        assert "replayed" in text and "latency" in text


class TestBenchArtifact:
    def test_append_preserves_pytest_benchmark_payload(self, tmp_path):
        target = tmp_path / "BENCH_abc.json"
        target.write_text(
            json.dumps({"benchmarks": [{"name": "test_floor"}], "version": "4.0"})
        )
        report = build_slo_report(_result([_outcome(0)]))
        append_loadgen_report(report, target)
        merge_bench_payload(target, "perf_floors", [{"name": "floor-entry"}])

        document = json.loads(target.read_text())
        assert document["benchmarks"] == [{"name": "test_floor"}]
        assert document["version"] == "4.0"
        assert len(document["loadgen_reports"]) == 1
        assert document["perf_floors"] == [{"name": "floor-entry"}]

    def test_appending_twice_grows_the_list(self, tmp_path):
        target = tmp_path / "BENCH_abc.json"
        report = build_slo_report(_result([_outcome(0)]))
        append_loadgen_report(report, target)
        append_loadgen_report(report, target)
        document = json.loads(target.read_text())
        assert len(document["loadgen_reports"]) == 2

    def test_non_object_file_is_preserved_aside(self, tmp_path):
        target = tmp_path / "BENCH_abc.json"
        target.write_text(json.dumps([1, 2, 3]))
        merge_bench_payload(target, "loadgen_reports", [{"seed": 0}])
        document = json.loads(target.read_text())
        assert document["previous"] == [1, 2, 3]
        assert document["loadgen_reports"] == [{"seed": 0}]

    def test_artifact_path_uses_the_ci_sha(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "deadbeef")
        path = bench_artifact_path(directory=tmp_path)
        assert path == tmp_path / "BENCH_deadbeef.json"
